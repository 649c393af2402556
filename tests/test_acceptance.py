"""Acceptance criteria, one test per criterion, every tolerance pinned here.

Each test prints a single summary line so `pytest -v tests/test_acceptance.py`
reads as a checklist.  Criterion 3's norm-scaling clause is pinned at the
slope the construction gives, ||u||^2 ~ h^{(d+1)/2}: the two normal momenta
are distinct roots with sum -i<X,nu>, so the normal integral contributes one
power of h and each tangential dimension a Gaussian h^{1/2}.  It is checked
in d = 2 and d = 1.  The lower bound ||u||^2 >= c h^{(d+3)/2} is asserted
separately, in the residual-decay test.
"""

import json
import math

import numpy as np
import pytest

from pslab.geometry import Disk, Interval, Polygon, classify_boundary
from pslab.hull import (
    hausdorff_distance,
    relative_convex_hull,
    relhull_grid_oracle,
)
from pslab.operators import assemble_1d, assemble_2d, conjugated_spectrum_oracle
from pslab.spectral import (
    eigenvalues,
    fit_exponential_rate,
    pseudomode_localization,
    pseudospectrum_scan,
    smallest_singular_value,
)

INTERVAL = Interval(0.0, 1.0)
DISK = Disk((0, 0), 1.0)
E1 = np.array([1.0, 0.0])


def report(line: str):
    print(f"\n[acceptance] {line}")


# ------------------------------------------------------------------ #
# 1. pseudospectral blow-up inside the region, stability outside
# ------------------------------------------------------------------ #

def test_criterion_1_pseudospectral_blowup():
    hs = [0.04, 0.02, 0.01, 0.005]
    inside, flags = [], []
    for h in hs:
        n = int(round(1.0 / (h / 8.0))) - 1
        op = assemble_1d(INTERVAL, h, 1.0, n)
        sm = smallest_singular_value(op, 1 + 0.5j)
        inside.append(sm.value)
        flags.append(sm.at_floor)
    assert all(a > b for a, b in zip(inside, inside[1:])), \
        "sigma_min must decrease monotonically in h inside the region"
    fit = fit_exponential_rate(hs, inside, flags)
    assert fit["c"] > 0
    assert fit["r_squared"] >= 0.98
    outside = []
    for h in hs:
        n = int(round(1.0 / (h / 8.0))) - 1
        op = assemble_1d(INTERVAL, h, 1.0, n)
        outside.append(smallest_singular_value(op, -0.5 + 0.5j).value)
    ratio = max(outside) / min(outside)
    assert ratio <= 2.0
    report(f"criterion 1 PASS: log sigma_min = -{fit['c']:.3f}/h + c, "
           f"R^2 = {fit['r_squared']:.4f} ({fit['n_used']} pts above floor); "
           f"outside-point spread {ratio:.3f}x")


# ------------------------------------------------------------------ #
# 2. real spectrum oracle
# ------------------------------------------------------------------ #

def test_criterion_2_real_spectrum():
    h = 0.05
    op = assemble_1d(INTERVAL, h, 1.0, 2000)   # dx = 1/2001 <= 1/2000
    got = eigenvalues(op, 5, sigma_shift=0.25).values
    want = conjugated_spectrum_oracle(INTERVAL, h, 1.0, 5)
    imax = float(np.max(np.abs(got.imag)))
    rel = float(np.max(np.abs(got.real - want) / want))
    assert imax <= 1e-8
    assert rel <= 1e-3
    report(f"criterion 2 PASS: k<=5 relative error {rel:.2e} <= 1e-3, "
           f"max |Im| {imax:.2e} <= 1e-8")


# ------------------------------------------------------------------ #
# 3. quasimode residual decay and norm scaling
# ------------------------------------------------------------------ #

def _quasimode_sweep():
    from pslab.wkb import build_quasimode, quasimode_residual
    hs = [0.05, 0.025, 0.0125, 0.00625]
    ratios, norms2 = [], []
    for h in hs:
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, h, order=4, n_max=0)
        rep = quasimode_residual(q)
        ratios.append(rep.ratio)
        norms2.append(rep.norm_u ** 2)
    return hs, ratios, norms2


@pytest.fixture(scope="module")
def quasimode_sweep():
    return _quasimode_sweep()


def test_criterion_3_residual_decay(quasimode_sweep):
    hs, ratios, norms2 = quasimode_sweep
    assert all(a > b for a, b in zip(ratios, ratios[1:])), \
        "residual ratio must be strictly decreasing"
    slope = float(np.polyfit(np.log(hs), np.log(ratios), 1)[0])
    assert slope >= 0.9
    # the lower bound the construction guarantees: ||u||^2 >= c h^{(d+3)/2}
    assert all(n2 / h ** 2.5 >= 0.04 for n2, h in zip(norms2, hs))
    report(f"criterion 3 (residual) PASS: ratio slope {slope:.3f} >= 0.9, "
           f"strictly decreasing; lower bound ||u||^2 >= c h^2.5 holds")


def _interval_norm_sweep(hs):
    """||u||^2 on the unit interval at x0 = 1, same z, order and backend."""
    from pslab.wkb import build_quasimode, quasimode_residual
    norms2 = []
    for h in hs:
        q = build_quasimode(INTERVAL, [1.0], [1.0], 1 + 0.5j, h, order=4, n_max=0)
        norms2.append(quasimode_residual(q).norm_u ** 2)
    return q.dim, norms2


def test_criterion_3_norm_scaling_spec_value(quasimode_sweep):
    """Norm slope (d+1)/2 +- 0.2, in d = 2 (disk) and d = 1 (interval).

    In the boundary frame (s = -v1 >= 0 into the domain, t tangential) the
    normal momenta xi_j = alpha_j + i beta_j, beta_j < 0, are the two roots of
    xi_n^2 + i<X,nu> xi_n + (tangential terms) - z = 0, so xi_1 + xi_2 =
    -i<X,nu> and xi_1 != xi_2 (alpha_{1,2} = +-0.9087, beta = (-0.2249,
    -0.7751) here).  The normal integral of |e^{-i xi_1 s/h} - e^{-i xi_2 s/h}|^2
    is h C_n with

        C_n = 1/(2|b_1|) + 1/(2|b_2|) - 2 Re[1/(i(xi_1 - conj xi_2))] > 0,

    and the tangential Gaussian e^{-|X| eps t^2/h} adds (pi h/(|X| eps))^{1/2}
    per tangential dimension, so

        ||u||^2 = C_n h (pi h/(|X| eps))^{(d-1)/2} (1 + O(h)) ~ h^{(d+1)/2}.

    test_wkb.py::TestResidualScaling::test_norm_constant_matches_closed_form
    freezes this constant in d = 2.  The lower bound c h^{(d+3)/2} is a
    weaker statement and is asserted in test_criterion_3_residual_decay.
    """
    hs, _, norms2 = quasimode_sweep
    dim_1d, norms2_1d = _interval_norm_sweep(hs)
    slopes = {d: float(np.polyfit(np.log(hs), np.log(n2), 1)[0])
              for d, n2 in ((DISK.dimension, norms2), (dim_1d, norms2_1d))}
    for d, s in slopes.items():
        assert abs(s - (d + 1) / 2) <= 0.2, (
            f"norm slope {s:.3f} in d = {d} is not (d+1)/2 = {(d + 1) / 2}; "
            "see this test's docstring and test_wkb.py::TestResidualScaling::"
            "test_norm_constant_matches_closed_form")
    line = ", ".join(f"d = {d}: {s:.3f} vs {(d + 1) / 2}" for d, s in slopes.items())
    report(f"criterion 3 (norm scaling) PASS: ||u||^2 slopes {line} = (d+1)/2 "
           "+- 0.2 (derivation in the docstring; constant frozen in "
           "test_wkb.py::TestResidualScaling::test_norm_constant_matches_closed_form)")


# ------------------------------------------------------------------ #
# 4. pseudomode localization on the disk
# ------------------------------------------------------------------ #

def test_criterion_4_localization():
    samples = classify_boundary(DISK, E1, 2048)
    good = samples.points[samples.classes != "shadow"]
    masses, caps, solves = {}, {}, {}
    for h in (0.02, 0.01):
        op = assemble_2d(DISK, h, E1, 1.0 / 320)
        sm, prof = pseudomode_localization(op, 1 + 0.5j, E1)
        masses[h] = prof.mass_near_points(good, 0.2)
        caps[h] = prof.mass_in_cap([-1.0, 0.0], 0.2)
        solves[h] = (f"h={h:g}: sigma_min {sm.value:.3e} at_floor={sm.at_floor}"
                     f" converged={sm.converged}")
    assert masses[0.01] >= 0.90
    assert caps[0.01] <= 0.01
    assert caps[0.01] <= caps[0.02] + 1e-12
    report(f"criterion 4 PASS: mass within 0.2 of illuminated+glancing arc "
           f"{masses[0.01]:.4f} >= 0.90; shadow cap {caps[0.01]:.2e} <= 0.01, "
           f"non-increasing from h=0.02 ({caps[0.02]:.2e}); "
           + "; ".join(solves.values()))


# ------------------------------------------------------------------ #
# 5. relative hull oracle equivalence
# ------------------------------------------------------------------ #

def test_criterion_5_hull_oracle_equivalence():
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    lshape = Polygon([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)])
    ts = np.linspace(-0.25, 0.25, 96) % 1.0
    gamma_plus = DISK.boundary_points(ts)
    fixtures = [
        ("square", square, np.array([[0.1, 0.1], [0.9, 0.9]]), 0.05),
        ("disk/Gamma+", DISK, gamma_plus, 0.08),
        ("L-shape", lshape, np.array([[0.0, 0.5], [1.5, 2.0]]), 0.05),
    ]
    dists = {}
    for name, dom, gen, spacing in fixtures:
        hull = relative_convex_hull(dom, gen, resolution=spacing)
        oracle = relhull_grid_oracle(dom, gen, spacing)
        d = hausdorff_distance(oracle, hull.rasterize(spacing))
        dists[name] = (d, spacing)
        assert d <= 2 * spacing, f"{name}: Hausdorff {d} > {2 * spacing}"
    line = ", ".join(f"{k}: {d:.3f} <= {2 * s}" for k, (d, s) in dists.items())
    report(f"criterion 5 PASS: {line}")


# ------------------------------------------------------------------ #
# 6. exit-time MGF against the closed-form BVP
# ------------------------------------------------------------------ #

def test_criterion_6_exit_time_mgf():
    from pslab.sde import (default_t_max, exit_mgf_bvp_1d, mgf_estimate,
                           simulate_exit_ensemble)
    h, b, lam = 0.05, 0.8, 0.1
    lam1 = conjugated_spectrum_oracle(INTERVAL, h, -b, 1)[0]
    # dt far below the h^2/4 cap (the discrete-crossing bias scales ~sqrt(dt)
    # and must sit under the heavy-tailed Monte Carlo noise)
    ens = simulate_exit_ensemble(INTERVAL, b, h, [h], h * h / 64.0, 2026,
                                 100000, default_t_max(h, lam))
    est = mgf_estimate(ens, lam, h, lambda1=lam1)
    want = float(exit_mgf_bvp_1d(INTERVAL, b, lam, h)(h))
    dev = abs(est.estimate - want)
    assert dev <= 3.0 * est.std_error, \
        f"MGF {est.estimate:.4f} vs BVP {want:.4f}: {dev / est.std_error:.2f} SE"
    rates = []
    for hh in (0.1, 0.05, 0.025):
        e2 = simulate_exit_ensemble(INTERVAL, b, hh, [hh], hh * hh / 16.0,
                                    31, 20000, default_t_max(hh, lam))
        m2 = mgf_estimate(e2, lam, hh)
        rates.append(hh * math.log(m2.estimate))
    assert rates[0] <= rates[1] <= rates[2], \
        f"h log MGF must be non-decreasing as h decreases: {rates}"
    report(f"criterion 6 PASS: MGF {est.estimate:.4f} vs BVP {want:.4f} "
           f"({dev / est.std_error:.2f} SE, 1e5 paths); "
           f"h log MGF sweep {[round(r, 4) for r in rates]} non-decreasing")


# ------------------------------------------------------------------ #
# 7. blow-up instability with spectrally stable linearization
# ------------------------------------------------------------------ #

def test_criterion_7_blowup():
    from pslab.evolution import (BumpSpec, bump_initial_data, evolve,
                                 subsolution_check)
    h, mu, p = 0.01, 0.2, 2.0
    op = assemble_1d(INTERVAL, h, 1.0, 2000)
    spec = BumpSpec(center=[0.15], inner_radius=0.05, delta=0.36,
                    cap_constant=10.0, amplitude=math.exp(-1.0 / (10.0 * h)))
    spec.validate_flow(INTERVAL, [1.0])
    rep = bump_initial_data(spec, op.points, h)
    assert rep.peak <= math.exp(-1.0 / (10.0 * h)) * (1 + 1e-12)
    snaps = list(np.round(np.arange(0.05, 0.36, 0.05), 10))
    res = evolve(op, mu, p, 1.02 * rep.values, 2e-4, 0.6,
                 snapshot_times=snaps)
    assert res.blew_up and res.t_blowup <= 0.5
    lam = eigenvalues(op, 5, sigma_shift=0.25).values
    bound = float(np.max(-(lam.real - mu)))
    assert bound <= -0.04
    comp = subsolution_check(res, spec, 0.1, [1.0], op.points)
    assert comp.ok
    assert max(comp.checked_times) >= 0.35
    res2 = evolve(op, mu, p, 1.02 * rep.values, 1e-4, 0.6)
    drift = abs(res.t_blowup - res2.t_blowup) / res2.t_blowup
    assert drift <= 0.02
    report(f"criterion 7 PASS: blow-up at t = {res.t_blowup:.4f} <= 0.5, "
           f"spectral bound {bound:.4f} <= -0.04, subsolution holds through "
           f"t = {max(comp.checked_times):.2f}, dt-halving shift {100 * drift:.2f}%")


# ------------------------------------------------------------------ #
# 8. property suites
# ------------------------------------------------------------------ #

def test_criterion_8a_seed_residuals():
    from pslab.geometry import boundary_frame
    from pslab.wkb import SpectralPoint, phase_seed
    rng = np.random.default_rng(7)
    count = 0
    worst = 0.0
    while count < 200:
        re = rng.uniform(0.02, 3.0)
        im = rng.uniform(-1.5, 1.5)
        if re <= im * im + 0.05:
            continue
        t = rng.uniform(-0.2, 0.2)
        x0 = DISK.boundary_points([t])[0]
        fr = boundary_frame(DISK, E1, x0)
        z = complex(re, im)
        if abs(z - fr.nu1 ** 2 / 4) < 1e-3:
            continue
        seed = phase_seed(fr, SpectralPoint(z, 0.05, E1))
        worst = max(worst, seed.seed_residual(1), seed.seed_residual(2))
        count += 1
    assert worst <= 1e-10 * 3.0   # scaled by max |z| in the sample
    report(f"criterion 8a PASS: 200 random seeds, worst residual {worst:.2e}")


def test_criterion_8b_jet_order_slopes():
    from pslab.geometry import boundary_frame, boundary_graph_jet
    from pslab.wkb import SpectralPoint, phase_seed, solve_eikonal_jet
    fr = boundary_frame(DISK, E1, [1.0, 0.0])
    seed = phase_seed(fr, SpectralPoint(1 + 0.5j, 0.05, E1))
    slopes = {}
    for K in (3, 4, 5):
        pj, _ = solve_eikonal_jet(seed, boundary_graph_jet(DISK, fr, K), K)
        eik = pj.eik
        radii = np.logspace(-1, -3, 9)
        vals = []
        for r in radii:
            th = np.linspace(0, 2 * np.pi, 32, endpoint=False)
            vals.append(np.max(np.abs(eik.eval(r * np.cos(th), r * np.sin(th)))))
        slopes[K] = float(np.polyfit(np.log(radii), np.log(vals), 1)[0])
        assert slopes[K] >= K - 0.2
    report(f"criterion 8b PASS: eikonal residual slopes {slopes}")


def test_criterion_8c_dense_vs_sparse_sigma():
    worst = 0.0
    for z in (1 + 0.5j, -0.5 + 0.5j, 0.27, 2.0 - 1.0j):
        op = assemble_1d(INTERVAL, 0.1, 1.0, 300)
        dense = smallest_singular_value(op, z, method="dense").value
        sparse = smallest_singular_value(op, z, method="sparse").value
        worst = max(worst, abs(dense - sparse) / dense)
    assert worst <= 1e-8
    report(f"criterion 8c PASS: dense/sparse sigma_min agree to {worst:.2e}")


def test_criterion_8d_profiles_normalized():
    op = assemble_1d(INTERVAL, 0.02, 1.0, 400)
    _, prof1 = pseudomode_localization(op, 1 + 0.5j, [1.0])
    op2 = assemble_2d(DISK, 0.05, E1, 0.05 / 8)
    _, prof2 = pseudomode_localization(op2, 1 + 0.5j, E1)
    for prof in (prof1, prof2):
        prof.check_normalized(1e-10)
    report("criterion 8d PASS: localization profiles sum to 1 +- 1e-10")


def test_criterion_8e_csv_replay(tmp_path):
    from pslab.cli import run
    cfg = {
        "experiment": "classify",
        "domain": {"type": "disk", "center": [0, 0], "radius": 1.0},
        "field": {"X": [1.0, 0.0]},
        "params": {"n_samples": 128},
    }
    outs = []
    for tag in ("a", "b"):
        c = dict(cfg, output_dir=str(tmp_path / tag))
        p = tmp_path / f"{tag}.json"
        p.write_text(json.dumps(c))
        assert run(str(p)) == 0
        outs.append((tmp_path / tag / "boundary.csv").read_bytes())
    assert outs[0] == outs[1]
    report("criterion 8e PASS: CSV replay byte-identical")
