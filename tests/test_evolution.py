import math

import numpy as np
import pytest
import scipy.sparse as sp

from pslab.errors import GeometryError
from pslab.evolution import (
    BumpSpec,
    bump_initial_data,
    evolve,
    flow,
    scalar_blowup_time,
    subsolution_check,
)
from pslab.geometry import Disk, Interval
from pslab.operators import GridOperator, assemble_1d
from pslab.spectral import eigenvalues

INTERVAL = Interval(0.0, 1.0)


def fixture_operator(h=0.01, n=2000):
    return assemble_1d(INTERVAL, h, 1.0, n)


def count_factors(monkeypatch):
    """Record each factor ``evolve`` builds: the info of every LAPACK
    ``dpttrf`` call, and the size of every ``factorize`` call."""
    import scipy.linalg.lapack as lapack

    import pslab.evolution as evolution
    real_dpttrf, real_factorize = lapack.dpttrf, evolution.factorize
    ldlt, lu = [], []

    def counting_dpttrf(d, e):
        out = real_dpttrf(d, e)
        ldlt.append(out[2])
        return out

    def counting_factorize(M):
        lu.append(M.shape[0])
        return real_factorize(M)

    monkeypatch.setattr(lapack, "dpttrf", counting_dpttrf)
    monkeypatch.setattr(evolution, "factorize", counting_factorize)
    return ldlt, lu


def one_node_operator(h):
    """One node and P = 0: evolve integrates the scalar h u' = mu u + u^p."""
    return GridOperator(INTERVAL, h, np.array([1.0]), 0.5,
                        sp.csr_matrix((1, 1)), np.array([[0.5]]), "scalar",
                        np.ones(1, dtype=bool), np.zeros(1, dtype=bool))


def fixture_bump(h=0.01):
    # amplitude pinned at the cap e^{-1/(10h)}; the support rides right and
    # stays inside for t <= 2*delta
    return BumpSpec(center=[0.15], inner_radius=0.05, delta=0.36,
                    cap_constant=10.0, amplitude=math.exp(-1.0 / (10.0 * h)))


class TestFlow:
    def test_identity_at_zero(self):
        assert np.allclose(flow([0.3, 0.4], 0.0, [1.0, 0.0]), [0.3, 0.4])

    def test_closed_form(self):
        assert np.allclose(flow([0.7, 0.0], 0.3, [1.0, 0.0]), [0.4, 0.0])

    def test_composition(self):
        x = np.array([0.5, 0.2])
        X = np.array([0.3, -0.1])
        a = flow(flow(x, 0.2, X), 0.1, X)
        b = flow(x, 0.3, X)
        assert np.allclose(a, b)


class TestBump:
    def test_center_amplitude_default(self):
        h = 0.01
        spec = BumpSpec(center=[0.5], inner_radius=0.05, delta=0.2)
        pts = np.linspace(0, 1, 4001)[:, None]
        rep = bump_initial_data(spec, pts, h)
        assert rep.peak == pytest.approx(math.e * math.exp(-0.2 / (2 * h)), rel=1e-6)

    def test_support_confined(self):
        h = 0.01
        spec = fixture_bump(h)
        pts = np.linspace(0, 1, 2001)[:, None]
        rep = bump_initial_data(spec, pts, h)
        outside = np.abs(pts[:, 0] - 0.15) > 0.1
        assert np.all(rep.values[outside] == 0.0)

    def test_cap_enforced(self):
        h = 0.01
        spec = fixture_bump(h)
        pts = np.linspace(0, 1, 2001)[:, None]
        rep = bump_initial_data(spec, pts, h)
        assert rep.peak <= math.exp(-1.0 / (10.0 * h)) * (1 + 1e-12)

    def test_flow_condition_rejects_bad_window(self):
        # the spec example fixture x0=0.7, a=0.1, delta=0.4 cannot ride for
        # 2*delta inside the unit interval
        h = 0.01
        bad = BumpSpec(center=[0.7], inner_radius=0.1, delta=0.4)
        pts = np.linspace(0, 1, 501)[:, None]
        with pytest.raises(GeometryError):
            bad.validate_flow(INTERVAL, [1.0])

    @pytest.mark.parametrize("domain, spec, X, first", [
        (Interval(0.0, 1.0), BumpSpec([0.7], 0.1, 0.4), [1.0], "0.1016"),
        (Disk((0, 0), 1.0), BumpSpec([0.0, 0.0], 0.2, 0.4), [1.0, 0.0],
         "0.6095"),
        (Interval(0.0, 1.0), fixture_bump(), [1.0], None),
    ], ids=["interval", "disk", "interval-inside"])
    def test_flow_condition_asks_contains_once(self, monkeypatch, domain,
                                               spec, X, first):
        # all 64 rings go to one contains call; a failure names the first t
        calls = []
        contains = domain.contains
        monkeypatch.setattr(domain, "contains",
                            lambda pts: calls.append(len(pts)) or contains(pts))
        if first is None:
            spec.validate_flow(domain, X)
        else:
            with pytest.raises(GeometryError,
                               match=f"leaves the domain at t = {first}$"):
                spec.validate_flow(domain, X)
        assert len(calls) == 1

    def test_flow_condition_accepts_fixture(self):
        h = 0.01
        spec = fixture_bump(h)
        pts = np.linspace(0, 1, 501)[:, None]
        spec.validate_flow(INTERVAL, [1.0])
        rep = bump_initial_data(spec, pts, h)
        assert rep.ineq_beta > 0.0

    def test_differential_inequality_spot_check(self):
        h = 0.01
        spec = fixture_bump(h)
        pts = np.linspace(0, 1, 4001)[:, None]
        rep = bump_initial_data(spec, pts, h)
        # -Lap w0 <= C w0 - beta holds on the checked interior with beta > 0
        assert rep.ineq_constant > 0
        assert rep.ineq_beta > 0


class TestEvolve:
    def test_zero_data_stays_zero(self):
        op = fixture_operator(n=200)
        res = evolve(op, 0.2, 2.0, np.zeros(op.n), 1e-3, 0.05)
        assert not res.blew_up
        assert res.sup_norms.max() == 0.0

    def test_scalar_ode_blowup_time(self):
        # one node and P = 0: evolve integrates h u' = mu u + u^2, whose
        # blow-up time has a closed form
        h, mu, u0 = 0.05, 0.3, 1e-3
        op = one_node_operator(h)
        res = evolve(op, mu, 2.0, np.array([u0]), h / 200.0, 10.0)
        want = scalar_blowup_time(u0, mu, 2.0, h)
        assert res.blew_up
        assert abs(res.t_blowup - want) / want < 0.02

    def test_linear_regime_decay_in_similarity_norm(self):
        # with mu < lambda_1 the conjugated operator is symmetric positive
        # definite, so ||D^{-1} u|| decays monotonically; the plain norm shows
        # the transient pseudospectral growth instead
        from pslab.operators import symmetrizer_1d
        h = 0.01
        op = fixture_operator(h, 1000)
        spec = fixture_bump(h)
        rep = bump_initial_data(spec, op.points, h)
        snaps = np.round(np.linspace(0.0, 2.0, 21), 10)
        res = evolve(op, 0.2, 2.0, rep.values, 5e-4, 2.0, nonlinear=False,
                     snapshot_times=snaps)
        D = symmetrizer_1d(op)
        norms = [np.linalg.norm(res.snapshots[t] / D) for t in snaps]
        assert all(a >= b * (1 - 1e-10) for a, b in zip(norms, norms[1:]))
        # the plain norm grows transiently before the bump is absorbed
        assert res.sup_norms.max() > 10 * res.sup_norms[0]

    def test_positivity_preserved(self):
        h = 0.01
        op = fixture_operator(h, 500)
        spec = fixture_bump(h)
        rep = bump_initial_data(spec, op.points, h)
        res = evolve(op, 0.2, 2.0, rep.values, 5e-4, 0.2)
        for t, u in res.snapshots.items():
            assert u.min() >= -1e-12

    def test_blowup_fixture(self):
        h = 0.01
        op = fixture_operator(h, 2000)
        spec = fixture_bump(h)
        rep = bump_initial_data(spec, op.points, h)
        res = evolve(op, 0.2, 2.0, 1.02 * rep.values, 2e-4, 0.6,
                     snapshot_times=np.arange(0.05, 0.40, 0.05))
        assert res.blew_up
        assert res.t_blowup <= 0.5
        # spectral stability of the linearization: eigenvalues of -(P - mu)
        lam = eigenvalues(op, 5, sigma_shift=0.25).values
        assert np.all(-(lam.real - 0.2) <= -0.04)

    def test_blowup_time_dt_refinement(self):
        h = 0.01
        op = fixture_operator(h, 1000)
        spec = fixture_bump(h)
        rep = bump_initial_data(spec, op.points, h)
        t1 = evolve(op, 0.2, 2.0, 1.02 * rep.values, 2e-4, 0.6).t_blowup
        t2 = evolve(op, 0.2, 2.0, 1.02 * rep.values, 1e-4, 0.6).t_blowup
        assert abs(t1 - t2) / t2 < 0.02

    @pytest.mark.parametrize("dt0, t_end, steps", [(1e-4, 0.6, 6000),
                                                   (1e-3, 0.3, 300)])
    def test_final_step_clamped(self, monkeypatch, dt0, t_end, steps):
        # the accumulated time ends 5e-14 short of 0.6 (and 2.2e-16 short of
        # the last 1e-3 step): no sliver step, no second factorization
        h = 0.01
        op = fixture_operator(h, 400)
        u0 = bump_initial_data(fixture_bump(h), op.points, h).values
        ldlt, lu = count_factors(monkeypatch)
        res = evolve(op, 0.2, 2.0, u0, dt0, t_end, nonlinear=False)
        assert len(res.times) - 1 == steps
        assert ldlt == [0] and lu == []
        assert abs(res.times[-1] - t_end) <= 1e-12
        assert res.dt_min_used >= (1 - 1e-9) * dt0

    def test_only_current_factor_kept(self, monkeypatch):
        # dt only halves in a blow-up run, so no earlier factor is alive
        # when the next one is built
        import weakref

        import scipy.linalg.lapack as lapack
        real_dpttrf = lapack.dpttrf
        factors, alive = [], []

        def tracking_dpttrf(d, e):
            alive.append(sum(f() is not None for f in factors))
            out = real_dpttrf(d, e)
            factors.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(lapack, "dpttrf", tracking_dpttrf)
        h = 0.01
        op = fixture_operator(h, 400)
        rep = bump_initial_data(fixture_bump(h), op.points, h)
        res = evolve(op, 0.2, 2.0, 1.02 * rep.values, 2e-4, 0.6)
        assert res.blew_up
        assert len(alive) > 3
        assert alive == [0] * len(alive)

    def test_decay_factorization_count(self, monkeypatch):
        # one node with mu < -u0 < 0: u decays, so dt grows back through
        # the halvings the initial sup forced
        ldlt, lu = count_factors(monkeypatch)
        res = evolve(one_node_operator(0.05), -1.0, 2.0, np.array([0.9]),
                     0.05, 2.0)
        assert not res.blew_up
        assert np.all(np.diff(res.sup_norms) <= 0.0)
        # dt climbs 0.05/8 -> 0.05/4 -> 0.05/2 -> 0.05, one factor each;
        # the 0.0125 remainder onto t_end comes back after 0.05, so it is
        # factorized a second time: only the current factor is kept
        assert res.dt_min_used == 0.05 / 8
        assert abs(res.times[-1] - res.times[-2] - 0.0125) <= 1e-12
        assert ldlt == [0] * 5 and lu == []

    @pytest.mark.parametrize("h, n, spec", [
        (0.005, 4000, fixture_bump(0.005)),
        (1 / 180, 99, fixture_bump(1 / 180)),
        # |X| L / 2h = 650: D = kappa^i would reach e^{650}, and the floor
        # peak (about 1e-101) near x = 0.85 divided by it would fall below
        # the smallest double
        (1 / 1300, 4000, BumpSpec(center=[0.85], inner_radius=0.02,
                                  delta=0.36)),
    ], ids=["benchmark-blowup", "grid-peclet-0.9", "tiny-data-far-downstream"])
    def test_symmetric_frame_step_matches_sparse_lu(self, monkeypatch, h, n,
                                                    spec):
        # u = D y with y from the L D L^T factor of I + (dt/h)(S - mu),
        # S = D^{-1} P D, is the sparse LU's solve of I + (dt/h)(P - mu)
        from pslab.operators import factorize, symmetrizer_1d
        op = fixture_operator(h, n)
        assert symmetrizer_1d(op)[-1] > 1e40     # D spans e^{|X| L / 2h}
        u0 = bump_initial_data(spec, op.points, h).values
        mu, dt = 0.2, 1e-4
        ldlt, lu = count_factors(monkeypatch)
        u = evolve(op, mu, 2.0, u0, dt, dt, snapshot_times=[dt]).snapshots[dt]
        assert ldlt == [0] and lu == []
        I = sp.identity(n, format="csc")
        rhs = u0 + (dt / op.h) * np.maximum(u0, 0.0) ** 2.0
        want = factorize((I + (dt / op.h) * (op.matrix - mu * I)).tocsc()
                         ).solve(rhs)
        assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("h, n, mu, dt, failed", [
        # mu - lambda_1 = 0.249: dt = 0.1 is above h / (mu - lambda_1)
        (0.01, 200, 0.5, 0.1, [True]),
        # dt = 0.01 is below it, and the L D L^T factor holds
        (0.01, 200, 0.5, 0.01, [False]),
        # grid Peclet 1.22: P_{i,i+1} P_{i+1,i} < 0, so no real D
        (0.01, 40, 0.2, 1e-3, []),
        # D = e^{|X| L / 2h} = e^{1000} leaves the double range
        (0.0005, 1200, 0.2, 1e-5, []),
    ], ids=["supercritical-dt-above", "supercritical-dt-below",
            "grid-peclet-above-1", "symmetrizer-overflows"])
    def test_sparse_lu_outside_the_symmetric_frame(self, monkeypatch, h, n,
                                                   mu, dt, failed):
        ldlt, lu = count_factors(monkeypatch)
        res = evolve(fixture_operator(h, n), mu, 2.0, np.zeros(n), dt, dt)
        # a factor that meets a non-positive pivot reports its order
        assert [info > 0 for info in ldlt] == failed
        assert lu == ([] if failed == [False] else [n])
        assert np.all(res.sup_norms == 0.0)

    def test_planar_steps_match_dense_solves(self, monkeypatch):
        # a coarse unit disk (Shortley-Weller arms): every step is the
        # sparse LU's, checked against dense solves of the same matrix
        from pslab.operators import grid_operator
        h, mu, dt = 0.1, 0.2, 1e-3
        op = grid_operator(Disk((0.0, 0.0), 1.0), h, [1.0, 0.0], 0.1)
        spec = BumpSpec(center=[-0.5, 0.0], inner_radius=0.1, delta=0.36,
                        amplitude=0.5)
        u = spec.profile(op.points, h)
        ldlt, lu = count_factors(monkeypatch)
        res = evolve(op, mu, 2.0, u, dt, 5 * dt, snapshot_times=[5 * dt])
        assert ldlt == [] and lu == [op.n]
        assert len(res.times) == 6
        M = np.eye(op.n) + (dt / h) * (op.matrix.toarray() - mu * np.eye(op.n))
        for _ in range(5):
            u = np.linalg.solve(M, u + (dt / h) * np.maximum(u, 0.0) ** 2.0)
        got = res.snapshots[5 * dt]
        assert np.max(np.abs(got - u)) <= 1e-12 * np.max(np.abs(u))
        assert got.min() >= 0.0

    def test_instability_contrast(self):
        # amplitude cut by 100x still blows up before delta at smaller h:
        # the threshold is exponential in 1/h, not amplitude-polynomial
        h = 0.005
        op = fixture_operator(h, 2000)
        spec = BumpSpec(center=[0.15], inner_radius=0.05, delta=0.36,
                        cap_constant=25.0,
                        amplitude=0.01 * math.exp(-1.0 / (25.0 * h)))
        rep = bump_initial_data(spec, op.points, h)
        res = evolve(op, 0.2, 2.0, 1.02 * rep.values, 2e-4, spec.delta)
        assert res.blew_up
        assert res.t_blowup < spec.delta


class TestSubsolution:
    def test_initial_ordering(self):
        h = 0.01
        op = fixture_operator(h, 1500)
        spec = fixture_bump(h)
        rep = bump_initial_data(spec, op.points, h)
        res = evolve(op, 0.2, 2.0, 1.02 * rep.values, 2e-4, 0.6,
                     snapshot_times=[0.0, 0.05])
        # u0 = 1.02 w0 >= w0 by construction
        u0 = res.snapshots[0.0]
        assert np.all(u0 >= rep.values - 1e-15)

    def test_comparison_through_window(self):
        h = 0.01
        op = fixture_operator(h, 2000)
        spec = fixture_bump(h)
        spec.validate_flow(INTERVAL, [1.0])
        rep = bump_initial_data(spec, op.points, h)
        res = evolve(op, 0.2, 2.0, 1.02 * rep.values, 2e-4, 0.6,
                     snapshot_times=np.round(np.arange(0.05, 0.36, 0.05), 10))
        report = subsolution_check(res, spec, 0.1, [1.0], op.points)
        assert report.ok
        assert max(report.checked_times) >= 0.35

    def test_subsolution_growth_factor(self):
        # w at the moving center grows exactly by e^{alpha dt / h}
        h, alpha = 0.01, 0.1
        spec = fixture_bump(h)
        X = np.array([1.0])
        t1, t2 = 0.1, 0.15
        c1 = spec.center + t1 * X
        c2 = spec.center + t2 * X
        w1 = math.exp(alpha * t1 / h) * spec.profile(flow(c1[None, :], t1, X), h)[0]
        w2 = math.exp(alpha * t2 / h) * spec.profile(flow(c2[None, :], t2, X), h)[0]
        assert w2 / w1 == pytest.approx(math.exp(alpha * (t2 - t1) / h), rel=1e-12)

    def test_alpha_range_enforced(self):
        h = 0.01
        op = fixture_operator(h, 200)
        spec = fixture_bump(h)
        rep = bump_initial_data(spec, op.points, h)
        res = evolve(op, 0.2, 2.0, rep.values, 2e-4, 0.1, snapshot_times=[0.05])
        with pytest.raises(ValueError):
            subsolution_check(res, spec, 0.25, [1.0], op.points)
