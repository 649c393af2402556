import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from pslab.errors import (
    CutoffError,
    ExceptionalPointError,
    GeometryError,
    NoQuasimodeError,
    OutOfChartError,
    ResolutionError,
    SeedRestrictionError,
    WrongSideError,
)
from pslab.geometry import (Disk, Ellipse, Interval, Polygon, boundary_frame,
                            boundary_graph_jet)
from pslab.wkb import (
    CharacteristicPhase,
    Quasimode,
    SpectralPoint,
    build_quasimode,
    phase_seed,
    quasimode_residual,
    solve_eikonal_jet,
    solve_transport_jet,
)

DISK = Disk((0, 0), 1.0)
ELLIPSE = Ellipse((0.1, -0.2), (1.2, 0.7), 0.4)
E1 = np.array([1.0, 0.0])


def unit_frame_2d():
    return boundary_frame(DISK, E1, [1.0, 0.0])


def pz_value(xi, X, z):
    xi = np.asarray(xi, dtype=complex)
    X = np.asarray(X, dtype=complex)
    return np.dot(xi, xi) + 1j * np.dot(X, xi) - z


class TestPhaseSeed:
    def test_normal_incidence_fixture(self):
        # oracle: solve the quartic numerically and substitute into both
        # real seed equations; values frozen from that computation
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        seed = phase_seed(unit_frame_2d(), sp)
        assert seed.lam == 0.0
        assert seed.c ** 2 == pytest.approx(0.0756939094, abs=1e-9)
        assert seed.c == pytest.approx(0.2751252614, abs=1e-9)
        assert sorted(seed.beta) == pytest.approx([-0.7751252614, -0.2248747386],
                                                  abs=1e-9)
        assert abs(seed.alpha[0]) == pytest.approx(0.9086770105, abs=1e-9)
        assert seed.alpha[0] == -seed.alpha[1]
        # root 1 is the beta closer to zero
        assert abs(seed.beta[0]) < abs(seed.beta[1])

    def test_real_z_below_quarter(self):
        # closed-form branch: c^4 + (Re z - 1/4) c^2 = 0 with Re z = 0.2
        fr = boundary_frame(Interval(0, 1), [1.0], [1.0])
        sp = SpectralPoint(0.2, 0.05, [1.0])
        seed = phase_seed(fr, sp)
        assert seed.lam == 0.0
        assert seed.c ** 2 == pytest.approx(0.05, abs=1e-14)
        assert np.all(seed.alpha == 0.0)

    def test_region_boundary_rejected(self):
        fr = unit_frame_2d()
        z = 0.25 + 0.5j  # Re z = (Im z)^2 exactly
        with pytest.raises(NoQuasimodeError):
            phase_seed(fr, SpectralPoint(z, 0.05, E1))

    def test_outside_region_rejected(self):
        with pytest.raises(NoQuasimodeError):
            phase_seed(unit_frame_2d(), SpectralPoint(-0.5 + 0.5j, 0.05, E1))

    def test_exceptional_point_rejected(self):
        with pytest.raises(ExceptionalPointError):
            phase_seed(unit_frame_2d(), SpectralPoint(0.25, 0.05, E1))

    def test_shadow_point_rejected(self):
        fr = boundary_frame(DISK, E1, [-1.0, 0.0])
        with pytest.raises(WrongSideError):
            phase_seed(fr, SpectralPoint(1 + 0.5j, 0.05, E1))

    def test_one_dimensional_restriction(self):
        fr = boundary_frame(Interval(0, 1), [1.0], [1.0])
        with pytest.raises(SeedRestrictionError):
            phase_seed(fr, SpectralPoint(0.7, 0.05, [1.0]))
        # complex z at the same real part is fine in d=1
        seed = phase_seed(fr, SpectralPoint(0.7 + 0.3j, 0.05, [1.0]))
        assert np.all(seed.beta < 0)

    def test_region_law_random(self):
        # 200 admissible points succeed with residual <= 1e-10; 200 points
        # outside the closed region raise the no-quasimode error
        rng = np.random.default_rng(7)
        count = 0
        while count < 200:
            re = rng.uniform(0.02, 3.0)
            im = rng.uniform(-1.5, 1.5)
            if re <= im * im + 0.05:
                continue
            t = rng.uniform(-0.2, 0.2)  # stay on the illuminated cap
            x0 = DISK.boundary_points([t])[0]
            fr = boundary_frame(DISK, E1, x0)
            z = complex(re, im)
            if abs(z - fr.nu1 ** 2 / 4) < 1e-3:
                continue
            seed = phase_seed(fr, SpectralPoint(z, 0.05, E1))
            assert seed.seed_residual(1) <= 1e-10 * max(1.0, abs(z))
            assert seed.seed_residual(2) <= 1e-10 * max(1.0, abs(z))
            assert np.all(seed.beta < 0.0)
            count += 1
        count = 0
        fr = unit_frame_2d()
        while count < 200:
            re = rng.uniform(-2.0, 3.0)
            im = rng.uniform(-2.0, 2.0)
            if re >= im * im:
                continue
            with pytest.raises(NoQuasimodeError):
                phase_seed(fr, SpectralPoint(complex(re, im), 0.05, E1))
            count += 1

    def test_unit_field_reduction(self):
        # |X| != 1: the scaled covector must satisfy the unscaled eikonal
        X = np.array([2.5, 0.0])
        fr = boundary_frame(DISK, X, [1.0, 0.0])
        z = 3.0 + 1.0j
        seed = phase_seed(fr, SpectralPoint(z, 0.05, X))
        for root in (1, 2):
            res = abs(pz_value(seed.covector(root), X, z))
            assert res <= 1e-10 * max(1.0, abs(z))


class TestEikonalJet:
    def test_disk_fixture_residual(self):
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        g = boundary_graph_jet(DISK, fr, 4)
        p1, p2 = solve_eikonal_jet(seed, g, 4)
        for pj in (p1, p2):
            assert pj.eik.max_coeff_through(3) < 1e-10
            # degree-1 part equals the seed covector
            assert pj.jet.coeffs[1, 0] == pytest.approx(
                seed.covector_frame(pj.root)[0], abs=1e-12)
            assert pj.jet.coeffs[0, 1] == pytest.approx(
                seed.covector_frame(pj.root)[1], abs=1e-12)

    def test_boundary_restriction_matches_phi0(self):
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        g = boundary_graph_jet(DISK, fr, 5)
        p1, _ = solve_eikonal_jet(seed, g, 5)
        trace = p1.jet.compose_graph(g).coeffs
        assert trace[0] == pytest.approx(0.0, abs=1e-13)
        assert trace[1] == pytest.approx(seed.lam, abs=1e-12)
        assert trace[2] == pytest.approx(0.5j * seed.eps, abs=1e-12)
        assert np.all(np.abs(trace[3:]) < 1e-12)

    def test_jet_order_consistency(self):
        # K=4 and K=5 agree on all shared coefficients
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        p4, _ = solve_eikonal_jet(seed, boundary_graph_jet(DISK, fr, 4), 4)
        p5, _ = solve_eikonal_jet(seed, boundary_graph_jet(DISK, fr, 5), 5)
        assert np.allclose(p5.jet.coeffs[:5, :5][np.tri(5, 5).astype(bool)[::-1]],
                           p4.jet.coeffs[np.tri(5, 5).astype(bool)[::-1]],
                           atol=1e-10)

    def test_jet_order_residual_slope(self):
        # eikonal residual at distance r from x0 scales like r^K
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        for K in (3, 4, 5):
            pj, _ = solve_eikonal_jet(seed, boundary_graph_jet(DISK, fr, K), K)
            eik = pj.eik
            radii = np.logspace(-1, -3, 9)
            vals = []
            for r in radii:
                th = np.linspace(0, 2 * np.pi, 32, endpoint=False)
                v1, v2 = r * np.cos(th), r * np.sin(th)
                vals.append(np.max(np.abs(eik.eval(v1, v2))))
            slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
            assert slope >= K - 0.2

    def test_flat_boundary_cross_correction(self):
        # flat boundary: phi = <xi0, v> + (i eps/2) v2^2 + quadratic
        # cross-corrections; residual of degree <= 1 vanishes
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        flat = boundary_graph_jet(Disk((0, 0), 1e12), fr, 2)  # curvature ~ 0
        pj, _ = solve_eikonal_jet(seed, flat, 2)
        assert pj.eik.max_coeff_through(1) < 1e-9


class TestTransportJet:
    def test_leading_amplitude_at_base(self):
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, 0.05)
        for amps in q.amplitudes:
            assert amps[0].coeffs[0, 0] == pytest.approx(1.0)

    def test_one_dimensional_constant_amplitude(self):
        # in d=1 the phase is exactly linear, so psi_0 == 1 solves the
        # transport equation exactly (plug-in check)
        fr = boundary_frame(Interval(0, 1), [1.0], [1.0])
        sp = SpectralPoint(1 + 0.5j, 0.05, [1.0])
        seed = phase_seed(fr, sp)
        g = boundary_graph_jet(Interval(0, 1), fr, 4)
        p1, p2 = solve_eikonal_jet(seed, g, 4)
        assert np.all(np.abs(p1.jet.coeffs[2:]) < 1e-12)
        amps = solve_transport_jet(p1, 0, 4)
        assert amps[0].coeffs[0] == pytest.approx(1.0)
        assert np.all(np.abs(amps[0].coeffs[1:]) < 1e-12)

    def test_transport_residual_vanishes(self):
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        K = 5
        g = boundary_graph_jet(DISK, fr, K)
        p1, _ = solve_eikonal_jet(seed, g, K)
        amps = solve_transport_jet(p1, 1, K)
        X_frame = fr.components(E1)
        lap = p1.lap
        grad = p1.grad
        prev = None
        for psi in amps:
            tv = (-1j) * lap.mul(psi, K - 1)
            for ax in range(2):
                tv = tv + (-2j) * grad[ax].mul(psi.diff(ax), K - 1) \
                    + X_frame[ax] * psi.diff(ax)
            if prev is not None:
                tv = tv - sum((prev.diff(ax).diff(ax) for ax in range(2)),
                              type(psi).zero(K - 1, 2))
            assert tv.max_coeff_through(K - 2) < 1e-9
            prev = psi

    def test_higher_amplitude_boundary_trace_zero(self):
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        g = boundary_graph_jet(DISK, fr, 5)
        p1, _ = solve_eikonal_jet(seed, g, 5)
        amps = solve_transport_jet(p1, 1, 5)
        trace1 = amps[1].compose_graph(g).coeffs
        assert np.all(np.abs(trace1) < 1e-10)


class TestQuasimode:
    def test_vanishes_at_base_point(self):
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, 0.05)
        assert abs(q.fields([[1.0, 0.0]])[0][0]) == 0.0

    def test_zero_outside_cutoff(self):
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, 0.05)
        far = q.frame.ambient(np.array([[-q.cutoff.r_outer - 0.01, 0.0]]))
        assert q.fields(far)[0][0] == 0.0

    def test_boundary_trace_small(self):
        # u on the boundary inside the collar vanishes to jet-truncation order
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, 0.05)
        ts = np.linspace(-0.5 * q.cutoff.r_inner, 0.5 * q.cutoff.r_inner, 21)
        pts = DISK.boundary_points(np.arcsin(ts) / (2 * np.pi))
        vals = np.abs(q.fields(pts)[0])
        interior_ref = np.abs(q.fields(q.frame.ambient(np.array([[-q.sp.h, 0.0]])))[0])[0]
        assert np.max(vals) < 5e-2 * interior_ref

    def test_two_exponential_profile_inward(self):
        # one normal step inward the profile follows
        # |exp(i c1 x1/h) - exp(i c2 x1/h)| at leading order
        h = 0.01
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, h)
        seed = q.phases[0].seed
        s = np.linspace(0.05, 3.0, 13)
        pts = q.frame.ambient(np.column_stack([-s * h, np.zeros_like(s)]))
        got = np.abs(q.fields(pts)[0])
        xi1 = seed.covector_frame(1)[0]
        xi2 = seed.covector_frame(2)[0]
        ref = np.abs(np.exp(1j * xi1 * (-s * h) / h) - np.exp(1j * xi2 * (-s * h) / h))
        got /= got[0]
        ref /= ref[0]
        assert np.allclose(got, ref, rtol=0.1)
        assert np.all(got[1:] > 0)

    def test_auto_shrink_recovers(self):
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, 0.05, eps=0.05)
        assert q.cutoff.r_outer < 0.6

    def test_shrinks_off_a_growing_interior_phase(self):
        # at z = 1.5 the second phase has Im phi < 0 inside the default
        # support but not on its boundary collar; unchecked, u grows like
        # e^{-Im phi / h} and the residual quadrature overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = build_quasimode(DISK, E1, [1.0, 0.0], 1.5, 0.05, order=5,
                                n_max=1)
            rep = quasimode_residual(q)
        assert q.cutoff.r_outer < 0.6
        assert np.isfinite(rep.norm_u) and np.isfinite(rep.norm_pzu)

    def test_polygon_support_clears_the_other_edges(self):
        # x0 sits on the L-shape's edge x = 0, 0.5 from the edges y = 0 and
        # y = 1; the boundary graph is that edge, flat, so u must vanish on
        # the others (at the default r_outer, 0.849, it read 8.4e-2 of its
        # interior maximum there)
        lshape = Polygon([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)])
        q = build_quasimode(lshape, [-1.0, 0.0], [0.0, 0.5], 1 + 0.5j, 0.05)
        assert q.cutoff.r_outer <= 0.5
        s = np.linspace(0.0, 1.0, 201)
        for y in (0.0, 1.0):
            edge = np.column_stack([s, np.full_like(s, y)])
            assert np.all(q.fields(edge)[0] == 0.0)
        assert quasimode_residual(q).ratio < 0.2
        # at a vertex no support clears the next edge, and the error says so
        with pytest.raises(CutoffError, match="0 from another polygon edge"):
            build_quasimode(lshape, [-1.0, 0.0], [0.0, 0.0], 1 + 0.5j, 0.05)

    def test_residual_refinement_guard(self, monkeypatch):
        # a norm that moves by 2% between the 12- and 18-point rules is
        # reported as under-resolved, not returned
        import pslab.wkb as wkb
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, 0.05)
        norms = {12: (1.0, 0.1), 18: (1.0, 0.102)}
        monkeypatch.setattr(wkb, "_residual_norms", lambda q, n: norms[n])
        with pytest.raises(ResolutionError):
            quasimode_residual(q)

    @pytest.mark.parametrize("backend", ["jet", "characteristic"])
    def test_fields_match_horner_referee(self, backend, monkeypatch):
        # one eval_jets pass over the stacked jets against the same jets
        # evaluated one at a time by Horner's rule: within 1e-13 of the
        # largest |u| and |P_z u| (measured: 5e-16 and 9e-16)
        import pslab.wkb as wkb
        q = _config_quasimode(backend)
        got = q.fields(_points_50())
        monkeypatch.setattr(wkb, "eval_jets", lambda jets, w: np.array(
            [npoly.polyval2d(w[:, 0], w[:, 1], j.coeffs) for j in jets]))
        for new, ref in zip(got, q.fields(_points_50())):
            assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()


class TestResidualScaling:
    def test_disk_fixture_ratio_decreases(self):
        hs = [0.05, 0.025, 0.0125, 0.00625]
        ratios = []
        norms2 = []
        for h in hs:
            q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, h,
                                order=4, n_max=0)
            rep = quasimode_residual(q)
            ratios.append(rep.ratio)
            norms2.append(rep.norm_u ** 2)
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        slope = np.polyfit(np.log(hs), np.log(ratios), 1)[0]
        assert slope >= 0.9
        # The two normal momenta carry opposite real parts (their sum is
        # -i nu1), so the cross term dephases beyond x1 ~ h and the normal
        # integral contributes one power of h: ||u||^2 ~ h^{(d+1)/2}.
        nslope = np.polyfit(np.log(hs), np.log(norms2), 1)[0]
        assert abs(nslope - 1.5) <= 0.15
        # the guaranteed lower bound ||u||^2 >= c h^{(d+3)/2} holds a fortiori
        assert all(n2 / h ** 2.5 >= 0.04 for n2, h in zip(norms2, hs))

    def test_order_6_super_quadratic_decay(self):
        # TestCharacteristicBackend's decay property on the jet phases at
        # order 6, amplitude order 1: ratios 9.25e-2, 7.94e-3, 1.88e-4 and
        # 1.65e-5, a fitted slope of 4.28
        hs = [0.05, 0.025, 0.0125, 0.00625]
        ratios = [quasimode_residual(build_quasimode(
            DISK, E1, [1.0, 0.0], 1 + 0.5j, h, order=6, n_max=1)).ratio
            for h in hs]
        slope = np.polyfit(np.log(hs), np.log(ratios), 1)[0]
        assert slope > 2.0

    def test_norm_constant_matches_closed_form(self):
        # freeze the Gaussian x two-exponential product integral:
        # ||u||^2 ~ h^{3/2} * I * sqrt(pi/eps), with
        # I = 1/(2 b1) + 1/(2 b2) - 2 (b1+b2)/((b1+b2)^2 + 4 alpha^2)
        h = 0.0125
        q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, h)
        rep = quasimode_residual(q)
        seed = q.phases[0].seed
        b1, b2 = -seed.beta[0], -seed.beta[1]
        alpha = abs(seed.alpha[0])
        I = 0.5 / b1 + 0.5 / b2 - 2 * (b1 + b2) / ((b1 + b2) ** 2 + 4 * alpha ** 2)
        predicted = h ** 1.5 * I * np.sqrt(np.pi / seed.eps)
        assert rep.norm_u ** 2 == pytest.approx(predicted, rel=0.08)


class TestCharacteristicBackend:
    def test_phase_at_base_point(self):
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        ch = CharacteristicPhase(DISK, seed, 1)
        phi, grad, lap, pz = ch.phase_data(np.array([[1.0, 0.0]]))
        assert abs(phi[0]) < 1e-12
        want = seed.covector_frame(1)
        assert np.allclose(grad[0], want, atol=1e-10)
        assert abs(pz[0]) < 1e-10

    @pytest.mark.parametrize("root", [1, 2])
    @pytest.mark.parametrize("z", [0.2, 1.5, 0.2 + 0.01j, 1 + 0.5j])
    def test_branch_matches_seed(self, z, root):
        # the roots of the eikonal quadratic are v and -i Xn/nn - v; on real
        # z and just off it, -v is far from the second root
        seed = phase_seed(unit_frame_2d(), SpectralPoint(z, 0.05, E1))
        ch = CharacteristicPhase(DISK, seed, root)
        _, grad, _, _ = ch.phase_data(np.array([[1.0, 0.0]]))
        assert np.allclose(grad[0], seed.covector_frame(root), rtol=0,
                           atol=1e-14)

    def test_eikonal_residual_pointwise(self):
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        ch = CharacteristicPhase(DISK, seed, 2)
        rng = np.random.default_rng(3)
        w = np.column_stack([-rng.uniform(0.0, 0.25, 40),
                             rng.uniform(-0.4, 0.4, 40)])
        pts = fr.ambient(w)
        _, grad, _, pz = ch.phase_data(pts)
        assert np.max(np.abs(pz)) < 1e-9

    def test_agreement_with_jet(self):
        # |phi_char - phi_jet| = O(|x - x0|^{K+1}) on a shrinking sweep
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        K = 4
        p1, _ = solve_eikonal_jet(seed, boundary_graph_jet(DISK, fr, K), K)
        ch = CharacteristicPhase(DISK, seed, 1)
        radii = np.logspace(-1, -2.5, 7)
        diffs = []
        for r in radii:
            th = np.linspace(0.1, 2 * np.pi, 16)
            w = np.column_stack([-r * np.abs(np.sin(th)) - 0.1 * r,
                                 r * np.cos(th)])
            pts = fr.ambient(w)
            phi_c, _, _, _ = ch.phase_data(pts)
            phi_j = p1.jet.eval(w[:, 0], w[:, 1])
            diffs.append(np.max(np.abs(phi_c - phi_j)))
        slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
        assert slope >= K + 1 - 0.3

    def test_out_of_chart(self):
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        ch = CharacteristicPhase(DISK, seed, 1)
        with pytest.raises(OutOfChartError):
            ch.phase_data(np.array([[-0.9, 0.1]]))

    def test_closed_form_amplitude_matches_jet(self):
        sp = SpectralPoint(1 + 0.5j, 0.05, E1)
        fr = unit_frame_2d()
        seed = phase_seed(fr, sp)
        K = 6
        p1, _ = solve_eikonal_jet(seed, boundary_graph_jet(DISK, fr, K), K)
        amps = solve_transport_jet(p1, 0, K)
        ch = CharacteristicPhase(DISK, seed, 1)
        w = np.column_stack([[-0.01, -0.03, -0.05], [0.02, -0.01, 0.04]])
        pts = fr.ambient(w)
        a_ray = ch.transported_amplitude(pts)
        a_jet = amps[0].eval(w[:, 0], w[:, 1])
        assert np.allclose(a_ray, a_jet, atol=2e-4)

    def test_disk_only(self):
        X = [1.0, 0.0]
        fr = boundary_frame(ELLIPSE, X, ELLIPSE.boundary_points([0.0])[0])
        seed = phase_seed(fr, SpectralPoint(1 + 0.5j, 0.05, X))
        with pytest.raises(GeometryError):
            CharacteristicPhase(ELLIPSE, seed, 1)

    def test_super_quadratic_residual_decay(self):
        # analytic phases + amplitude order 1: the ratio decays faster than
        # any power <= 2 across the sweep
        hs = [0.05, 0.025, 0.0125, 0.00625]
        ratios = []
        for h in hs:
            q = build_quasimode(DISK, E1, [1.0, 0.0], 1 + 0.5j, h,
                                order=8, n_max=1, backend="characteristic")
            rep = quasimode_residual(q)
            ratios.append(rep.ratio)
        slope = np.polyfit(np.log(hs), np.log(ratios), 1)[0]
        assert slope > 2.0


def _digest(arrays) -> str:
    m = hashlib.sha256()
    for a in arrays:
        m.update(np.ascontiguousarray(a).tobytes())
    return m.hexdigest()[:16]



class TestBitIdentity:
    """SHA-256 prefixes of jets and residual norms, frozen from the separate
    eikonal and transport recursions that the shared slab solver replaced."""

    @pytest.mark.parametrize("domain, X, x0, want", [
        (DISK, [1.0, 0.0], [1.0, 0.0], "d3056224812300e5"),
        (ELLIPSE, [1.0, 0.0], ELLIPSE.boundary_points([0.0])[0],
         "eb696b2089d7a616"),
        (Interval(0, 1), [1.0], [1.0], "401ef21e031fc659"),
    ], ids=["disk", "ellipse", "interval"])
    def test_jet_coefficients(self, domain, X, x0, want):
        # phase, eikonal-residual and amplitude jets at order 5, n_max = 1
        fr = boundary_frame(domain, X, x0)
        seed = phase_seed(fr, SpectralPoint(1 + 0.5j, 0.05, X))
        arrays = []
        for pj in solve_eikonal_jet(seed, boundary_graph_jet(domain, fr, 5), 5):
            arrays += [pj.jet.coeffs, pj.eik.coeffs]
            arrays += [a.coeffs for a in solve_transport_jet(pj, 1, 5)]
        assert _digest(arrays) == want

    @pytest.mark.parametrize("backend, want", [
        ("jet", "2231bf012ba4b470"), ("characteristic", "ac7ab711e2d960d9")],
        ids=["jet", "characteristic"])
    def test_residual_norms(self, backend, want):
        rep = quasimode_residual(_config_quasimode(backend))
        assert _digest([np.array([rep.norm_u, rep.norm_pzu, rep.ratio,
                                  rep.norm_u_coarse, rep.norm_pzu_coarse])]) == want

    @pytest.mark.parametrize("backend, want", [
        ("jet", "eca0baee9ef34974"), ("characteristic", "d0e6ec97f533d820")],
        ids=["jet", "characteristic"])
    def test_fields_pointwise(self, backend, want):
        # u and P_z u; frozen from fields()'s one eval_jets pass over the
        # stacked jets, which replaced a Horner pass per jet
        assert _digest(_config_quasimode(backend).fields(_points_50())) == want

    @pytest.mark.parametrize("root, want_phase, want_amp", [
        (1, "0a096d0e677b3ef9", "8719303611caa9bf"),
        (2, "ba64515dd8c52322", "81ad551cd2c7d49b")], ids=["root1", "root2"])
    def test_characteristic_phase_pointwise(self, root, want_phase, want_amp):
        # phi, grad, lap, p_z and the closed-form amplitude; frozen from the
        # chart inversion that evaluated the boundary once per accessor
        ph = _config_quasimode("characteristic").phases[root - 1]
        assert _digest(ph.phase_data(_points_50())) == want_phase
        assert _digest([ph.transported_amplitude(_points_50())]) == want_amp


def _points_50():
    """50 interior points, all inside the cutoff support of the config
    quasimode and 25 of them in the collar."""
    rng = np.random.default_rng(11)
    r = rng.uniform(0.7, 0.995, 50)
    th = rng.uniform(-0.45, 0.45, 50)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _config_quasimode(backend):
    """The quasimode at the configs/quasimode_disk.json point."""
    cfg = json.loads((Path(__file__).parents[1] / "configs"
                      / "quasimode_disk.json").read_text())["params"]
    return build_quasimode(DISK, E1, cfg["x0"], complex(*cfg["z"]), cfg["h"],
                           order=cfg["order"], n_max=cfg["n_max"],
                           backend=backend)
