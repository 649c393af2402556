import hashlib
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from pslab.errors import GeometryError, SupercriticalError, UnreliableTailError
from pslab.geometry import Disk, Interval
from pslab.operators import conjugated_spectrum_oracle
from pslab.sde import (
    default_t_max,
    exit_mgf_bvp_1d,
    mgf_estimate,
    simulate_exit_ensemble,
    simulate_exit_refinement_pair,
    survival_probability,
)

INTERVAL = Interval(0.0, 1.0)


class TestSimulation:
    def test_boundary_start_exits_immediately(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.0, 0.05, [0.0], 1e-4, 1, 3, 1.0)
        assert np.all(ens.tau == 0.0)

    def test_start_outside_raises(self):
        with pytest.raises(GeometryError):
            simulate_exit_ensemble(INTERVAL, 0.0, 0.05, [1.5], 1e-4, 1, 3, 1.0)
        with pytest.raises(GeometryError):
            simulate_exit_refinement_pair(Disk((0, 0), 1.0), [0.5, 0.0], 0.1,
                                          [0.0, 1.2], 1e-3, 1, 3, 1.0)

    def test_int_t_max_equals_float_t_max(self):
        # an int t_max once gave an int tau array: every exit time truncated
        args = (INTERVAL, 0.8, 0.05, [0.3], 5e-3, 11, 32)
        a = simulate_exit_ensemble(*args, t_max=3)
        b = simulate_exit_ensemble(*args, t_max=3.0)
        assert a.tau.dtype == np.float64
        assert _digests(a) == _digests(b)

    def test_seeds_above_2_63_are_distinct(self):
        # Philox(key=(seed, i)) rounds such seeds through float64, so
        # 2^63 and 2^63 + 1 shared a stream, and 2^64 - 1 shared seed 0's
        args = (INTERVAL, 0.8, 0.05, [0.3], 5e-3)
        runs = [simulate_exit_ensemble(*args, s, 16, 3.0)
                for s in (0, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)]
        assert len({_digests(r) for r in runs}) == 4

    def test_determinism_bitwise(self):
        a = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 42, 64, 20.0)
        b = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 42, 64, 20.0)
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.exit_points, b.exit_points)

    def test_member_independent_of_ensemble_size(self):
        # path i draws from the stream keyed (seed, i) alone, so it does not
        # depend on how many paths run beside it
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 7, 5, 20.0)
        four = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 7, 4, 20.0)
        assert np.array_equal(four.tau, ens.tau[:4])
        assert np.array_equal(four.exit_points, ens.exit_points[:4])

    def test_batching_invariance(self, monkeypatch):
        import pslab.sde as sde
        b = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 9, 40, 20.0)
        monkeypatch.setattr(sde, "_BATCH", 7)
        a = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 9, 40, 20.0)
        assert np.array_equal(a.tau, b.tau)

    def test_draw_buffer_capped(self, monkeypatch):
        # one draw buffer holds at most _BATCH paths' normals, and the
        # paths are the same as in one batch
        import pslab.sde as sde
        whole = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 9,
                                       40, 20.0)
        rows = []
        advance = sde._Level.advance

        def spy(level, buf, base):
            rows.append(buf.shape[0])
            return advance(level, buf, base)

        monkeypatch.setattr(sde, "_BATCH", 16)
        monkeypatch.setattr(sde._Level, "advance", spy)
        capped = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 9,
                                        40, 20.0)
        assert max(rows) == 16
        assert np.array_equal(capped.tau, whole.tau)
        assert np.array_equal(capped.exit_points, whole.exit_points)

    def test_pair_and_ensemble_share_the_chunk_rule(self, monkeypatch):
        # one rule for every ensemble: at most 1,024 normals per path per
        # chunk, so a planar chunk is 512 steps
        import pslab.sde as sde
        shapes = []
        advance = sde._Level.advance

        def spy(level, buf, base):
            shapes.append(buf.shape[1:])
            return advance(level, buf, base)

        monkeypatch.setattr(sde._Level, "advance", spy)
        simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 9, 4, 20.0)
        simulate_exit_refinement_pair(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 9, 4,
                                      20.0)
        simulate_exit_ensemble(Disk((0, 0), 1.0), [0.5, 0.0], 0.1,
                               [0.0, 0.0], 1e-3, 9, 4, 10.0)
        assert sorted(set(shapes)) == [(512, 2), (1024, 1)]

    def test_draw_error_reaches_caller(self, monkeypatch):
        # a generator that fails mid-ensemble fails the call: no partly
        # drawn paths come back.  On 3 CPUs the last row is in a pool
        # thread's share
        import pslab.sde as sde

        class DrawError(Exception):
            pass

        class Broken:
            def standard_normal(self, out):
                raise DrawError("draw failed")

        make = sde._path_generators

        def generators(seed, lo, hi):
            gens = make(seed, lo, hi)
            gens[-1] = Broken()
            return gens

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(sde, "_path_generators", generators)
        with pytest.raises(DrawError, match="draw failed"):
            simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 9, 40,
                                   20.0)

    def test_exit_points_on_boundary(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 3, 200, 20.0)
        done = ~ens.truncated
        x = ens.exit_points[done, 0]
        drift_scale = ens.dt * (0.8 + 6 * np.sqrt(2 * 0.05))
        assert np.all(np.minimum(np.abs(x), np.abs(x - 1)) <= drift_scale)

    def test_driftless_mean_exit_time(self):
        # oracle: solve h m'' = -1, m(0)=m(1)=0 by finite differences and
        # compare at the midpoint (closed form x(1-x)/(2h) = 2.5)
        h = 0.05
        n = 400
        dx = 1.0 / (n + 1)
        main = np.full(n, -2.0 * h / dx ** 2)
        off = np.full(n - 1, h / dx ** 2)
        M = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        m = np.linalg.solve(M, -np.ones(n))
        mid = m[n // 2 - 1]
        assert mid == pytest.approx(2.5, rel=1e-3)
        ens = simulate_exit_ensemble(INTERVAL, 0.0, h, [0.5], h * h / 4.0,
                                     11, 10000, 60.0)
        est = float(np.mean(ens.tau))
        se = float(np.std(ens.tau) / np.sqrt(len(ens)))
        assert abs(est - 2.5) <= 3 * se + 0.05  # small dt bias allowance

    def test_disk_paths_exit(self):
        ens = simulate_exit_ensemble(Disk((0, 0), 1.0), [0.5, 0.0], 0.1,
                                     [0.0, 0.0], 1e-3, 13, 100, 50.0)
        assert not ens.truncated.any()
        r = np.linalg.norm(ens.exit_points, axis=1)
        assert np.all(np.abs(r - 1.0) < 0.05)

    def test_time_rescaling_identity(self):
        # Y with drift h*b and diffusion h^2 at steps dt/h reproduces X
        # pathwise: tau_X = h * tau_Y exactly for matching streams
        h, b, dt = 0.05, 0.8, 5e-4
        X = simulate_exit_ensemble(INTERVAL, b, h, [0.3], dt, 21, 500, 20.0)
        Y = simulate_exit_ensemble(INTERVAL, h * b, h * h, [0.3], dt / h,
                                   21, 500, 20.0 / h)
        assert np.allclose(X.tau, h * Y.tau, rtol=1e-12, atol=1e-14)
        q = np.linspace(0.05, 0.95, 19)
        assert np.allclose(np.quantile(X.tau, q), h * np.quantile(Y.tau, q),
                           rtol=1e-12)


def _digests(ens):
    return tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
                 for a in (ens.tau, ens.exit_points, ens.truncated))


def _outward(x):
    return 0.8 * np.asarray(x)


class TestBitIdentity:
    """SHA-256 prefixes of (tau, exit_points, truncated), recorded from the
    one-step-at-a-time Euler loop that preceded the block-stepped kernel.
    They pin numpy's Philox normal stream and IEEE-754 double rounding."""

    def test_interval_constant_drift_truncating(self):
        # max_steps = 23040 is not a multiple of the 1024-normal draw chunk;
        # 71 of 200 paths reach t_max
        h = 0.05
        ens = simulate_exit_ensemble(INTERVAL, 0.8, h, [h], h * h / 64.0,
                                     2027, 200, 0.9)
        assert ens.truncated.sum() == 71
        assert _digests(ens) == ("1961e8f5f85edfbc", "0cea6b5604115687",
                                 "28f42540472f1efa")

    def test_refinement_pair_odd_fine_steps(self):
        # max_fine = 12801: the last fine step has no coarse partner
        h = 0.05
        coarse, fine = simulate_exit_refinement_pair(
            INTERVAL, 0.8, h, [h], h * h / 16.0, 8, 200, 1.00005)
        assert _digests(coarse) == ("d1661757140f1f10", "7f913b1dc3602d3b",
                                    "ce53c00f8d00f187")
        assert _digests(fine) == ("e027811dad0118e3", "7eb25863b958329c",
                                  "7c3afd645fdaae5b")

    def test_disk_constant_drift(self):
        ens = simulate_exit_ensemble(Disk((0, 0), 1.0), [0.5, 0.0], 0.1,
                                     [0.0, 0.0], 1e-3, 19, 100, 3.0)
        assert _digests(ens) == ("a8dc143eb85102e8", "c18a51afcc6c8f59",
                                 "0c93cb3fd278453d")

    def test_disk_callable_drift(self):
        h = 0.05
        ens = simulate_exit_ensemble(Disk((0, 0), 1.0), _outward, h,
                                     [0.9, 0.0], h * h / 32.0, 23, 200, 1.0)
        assert _digests(ens) == ("08786722eb22b7e6", "8d71da8eee61fb9a",
                                 "c7e1c511ae666eb0")

    def test_interval_state_dependent_drift(self):
        # b(x) = 0.8 - 0.5 x, recorded while a callable drift still took
        # one step per pass; 46 of 300 paths reach t_max (24,320 steps,
        # not a multiple of the 1024-normal draw chunk)
        h = 0.05
        ens = simulate_exit_ensemble(INTERVAL, lambda x: 0.8 - 0.5 * x, h,
                                     [0.3], h * h / 32.0, 31, 300, 1.9)
        assert ens.truncated.sum() == 46
        assert _digests(ens) == ("65c831443d7028f3", "e4e2b6a935119e45",
                                 "3109b52e34e6986d")

    def test_drift_past_exit_is_discarded(self):
        # a callable drift may be evaluated past a path's exit, outside the
        # domain; a drift that is NaN there must leave every result as it is
        def inside_only(x):
            x = np.asarray(x)
            inside = np.linalg.norm(x, axis=1, keepdims=True) < 1.0
            return np.where(inside, 0.8 * x, np.nan)

        h = 0.05
        args = (h, [0.9, 0.0], h * h / 32.0, 23, 200, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nan = simulate_exit_ensemble(Disk((0, 0), 1.0), inside_only, *args)
        assert _digests(nan) == _digests(
            simulate_exit_ensemble(Disk((0, 0), 1.0), _outward, *args))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_digests_independent_of_worker_count(self, monkeypatch, cpus):
        # the draws fill on one thread per CPU of the process's affinity;
        # each path owns its generator and its buffer row.  3 threads on a
        # 2-core box, switching often, would show a row written twice or
        # from another path's stream
        import pslab.sde as sde
        threads = []            # the drawing threads, one set per ensemble

        class Recorded:
            def __init__(self, gen, seen):
                self.gen, self.seen = gen, seen

            def standard_normal(self, out):
                self.seen.add(threading.get_ident())
                return self.gen.standard_normal(out=out)

        make = sde._path_generators

        def generators(seed, lo, hi):
            threads.append(set())
            return [Recorded(g, threads[-1]) for g in make(seed, lo, hi)]

        monkeypatch.setattr(sde, "_path_generators", generators)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.test_interval_constant_drift_truncating()
            self.test_refinement_pair_odd_fine_steps()
            self.test_disk_constant_drift()
            self.test_disk_callable_drift()
        finally:
            sys.setswitchinterval(interval)
        assert [len(t) for t in threads] == [cpus] * 4

    @pytest.mark.parametrize("n_paths, t_max", [(64, 20.0), (1000, 2.0)])
    def test_constant_drift_blocks_match_callable_steps(self, n_paths, t_max):
        # a constant drift's step is computed once per sub-block, a callable
        # one is evaluated at every step of it; both round each step alike.
        # 64 paths take the running sum from the start; 1,000 paths start in
        # the per-step loop (sub-blocks of 65 steps) and switch to the
        # running sum once fewer than 256 are alive
        const = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.3], 5e-4, 42,
                                       n_paths, t_max)
        steps = simulate_exit_ensemble(INTERVAL, lambda x: np.full(len(x), 0.8),
                                       0.05, [0.3], 5e-4, 42, n_paths, t_max)
        assert _digests(const) == _digests(steps)

    @pytest.mark.parametrize("domain, b, h, x0, dt, t_max", [
        (INTERVAL, 0.8, 0.05, [0.05], 0.05 ** 2 / 16.0, 2.0),
        # the plane's 512-step draw chunk, on both sides
        (Disk((0, 0), 1.0), [0.5, 0.0], 0.1, [0.0, 0.0], 1e-3, 3.0),
    ], ids=["interval", "disk"])
    def test_pair_fine_level_is_half_step_ensemble(self, domain, b, h, x0, dt,
                                                   t_max):
        _, fine = simulate_exit_refinement_pair(domain, b, h, x0, dt, 5, 100,
                                                t_max)
        ens = simulate_exit_ensemble(domain, b, h, x0, dt / 2, 5, 100, t_max)
        assert _digests(fine) == _digests(ens)


class TestBvpOracle:
    def test_lambda_zero_constant(self):
        v = exit_mgf_bvp_1d(INTERVAL, 0.8, 0.0, 0.05)
        xs = np.linspace(0, 1, 11)
        assert np.allclose(v(xs), 1.0, atol=1e-12)

    def test_boundary_values(self):
        v = exit_mgf_bvp_1d(INTERVAL, 0.8, 0.1, 0.05)
        assert v(0.0) == pytest.approx(1.0, abs=1e-12)
        assert v(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_fixture_value_frozen(self):
        # derived by solving the 2x2 boundary system directly
        v = exit_mgf_bvp_1d(INTERVAL, 0.8, 0.1, 0.05)
        assert v(0.05) == pytest.approx(7.895262516701409, rel=1e-12)

    def test_outside_interval_raises(self):
        v = exit_mgf_bvp_1d(INTERVAL, 0.8, 0.1, 0.05)
        for x in (-0.01, 1.01, [0.5, 1.2]):
            with pytest.raises(GeometryError):
                v(x)

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            exit_mgf_bvp_1d(INTERVAL, 0.8, 0.17, 0.05)

    def test_negative_drift_anchoring(self):
        # drift toward the left endpoint: exponents positive, still stable
        v = exit_mgf_bvp_1d(INTERVAL, -0.8, 0.1, 0.01)
        vals = v(np.linspace(0, 1, 21))
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 1.0 - 1e-12)


class TestMgfEstimate:
    def test_lambda_zero_is_one(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.05], 5e-4, 5, 500, 40.0)
        est = mgf_estimate(ens, 0.0, 0.05)
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_matches_bvp_oracle(self):
        h, b, lam = 0.05, 0.8, 0.1
        lam1 = conjugated_spectrum_oracle(INTERVAL, h, -b, 1)[0]
        # dt well below the h^2/4 cap keeps the half-order crossing bias
        # under the Monte Carlo noise at this path count
        ens = simulate_exit_ensemble(INTERVAL, b, h, [h], h * h / 16.0,
                                     101, 20000, default_t_max(h, lam))
        est = mgf_estimate(ens, lam, h, lambda1=lam1)
        want = exit_mgf_bvp_1d(INTERVAL, b, lam, h)(h)
        assert abs(est.estimate - want) <= 3.0 * est.std_error

    def test_lambda_above_proxy_rejected(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.05], 5e-4, 5, 100, 40.0)
        with pytest.raises(ValueError):
            mgf_estimate(ens, 0.16, 0.05, lambda1=0.16)

    def test_single_sample_rejected(self):
        # the jackknife divides by n - 1
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.05], 5e-4, 5, 1, 40.0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            mgf_estimate(ens, 0.1, 0.05)

    def test_unreliable_tail(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.05], 5e-4, 5, 200, 0.05)
        assert ens.truncated.mean() > 0.2
        with pytest.raises(UnreliableTailError):
            mgf_estimate(ens, 0.1, 0.05)

    def test_estimate_at_least_one(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.5], 5e-4, 5, 300, 40.0)
        est = mgf_estimate(ens, 0.05, 0.05)
        assert est.estimate >= 1.0

    def test_refinement_within_two_se(self):
        h, b, lam = 0.05, 0.8, 0.1
        coarse, fine = simulate_exit_refinement_pair(
            INTERVAL, b, h, [h], h * h / 4.0, 77, 20000, default_t_max(h, lam))
        ec = mgf_estimate(coarse, lam, h)
        ef = mgf_estimate(fine, lam, h)
        combined = np.hypot(ec.std_error, ef.std_error)
        assert abs(ec.estimate - ef.estimate) < 2.0 * combined

    def test_h_sweep_monotone_rate(self):
        # h log E exp(lambda tau / h) grows as h decreases (frozen BVP values
        # 0.0741 < 0.1033 < 0.1276); the MC estimates must reproduce that
        lam, b = 0.1, 0.8
        rates = []
        for h in (0.1, 0.05, 0.025):
            ens = simulate_exit_ensemble(INTERVAL, b, h, [h], h * h / 4.0,
                                         31, 4000, default_t_max(h, lam))
            est = mgf_estimate(ens, lam, h)
            rates.append(h * np.log(est.estimate))
        assert rates[0] < rates[1] < rates[2]


class TestSurvival:
    def test_zero_threshold(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.5], 5e-4, 5, 200, 40.0)
        s = survival_probability(ens, 0.0, 0.1)
        assert s.probability == 1.0

    def test_median_threshold(self):
        lam = 0.1
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.5], 5e-4, 5, 2000, 40.0)
        med = float(np.median(ens.tau))
        s = survival_probability(ens, med * lam, lam)
        assert s.lower <= 0.5 <= s.upper

    def test_monotone_in_threshold(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.5], 5e-4, 5, 1000, 40.0)
        probs = [survival_probability(ens, s, 0.1).probability
                 for s in np.linspace(0.0, 0.3, 13)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_beyond_horizon_flag(self):
        ens = simulate_exit_ensemble(INTERVAL, 0.8, 0.05, [0.5], 5e-4, 5, 100, 2.0)
        s = survival_probability(ens, 1.0, 0.1)
        assert s.beyond_horizon
