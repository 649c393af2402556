import numpy as np
import pytest

from pslab import spectral
from pslab.geometry import Disk, Interval, classify_boundary
from pslab.operators import assemble_1d, assemble_2d, conjugated_spectrum_oracle
from pslab.spectral import (
    LANCZOS_NCV,
    eigenvalues,
    fit_exponential_rate,
    localization_profile,
    pseudomode_localization,
    pseudospectrum_scan,
    smallest_singular_value,
)

INTERVAL = Interval(0.0, 1.0)


def _tridiagonal_solve(lower, diag, upper, b):
    """x with T x = b for the tridiagonal T, by Gaussian elimination with
    partial pivoting (LAPACK's gtsv) in the arrays' own precision."""
    dl, d, du, x = lower.copy(), diag.copy(), upper.copy(), b.copy()
    n = len(d)
    du2 = np.zeros_like(d)          # fill of the row swaps
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            m = dl[i] / d[i]
            d[i + 1] -= m * du[i]
            x[i + 1] -= m * x[i]
        else:
            m = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - m * d[i + 1], d[i + 1]
            if i + 2 < n:
                du2[i], du[i + 1] = du[i + 1], -m * du[i + 1]
            x[i], x[i + 1] = x[i + 1], x[i] - m * x[i + 1]
    x[n - 1] /= d[n - 1]
    x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return x


def _sigma_min_extended(h, n, z):
    """sigma_min(P - z) of the interval operator (X = 1, n interior points)
    by 6 steps of inverse iteration on A^{-1} A^{-H} in np.clongdouble.

    The dense SVD is accurate to about eps ||A||_2 absolute, 5.7e-14 at
    ||A||_2 <= 256, so it cannot referee sigma_min near 1e-8 to 1e-8
    relative; 80-bit arithmetic (eps 1.1e-19) can.  For z in the region
    only: there the top eigenvalue of A^{-1} A^{-H} stands alone and 2-3
    steps converge; outside, 6 steps do not.
    """
    mat = assemble_1d(INTERVAL, h, 1.0, n).matrix
    lower, diag, upper = (mat.diagonal(k).astype(np.clongdouble)
                          for k in (-1, 0, 1))
    diag -= np.clongdouble(z)
    rng = np.random.default_rng(0)
    v = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.clongdouble)
    for _ in range(6):
        v = _tridiagonal_solve(upper.conj(), diag.conj(), lower.conj(), v)
        v = _tridiagonal_solve(lower, diag, upper, v)
        v /= np.sqrt(np.sum(np.abs(v) ** 2))
    av = diag * v
    av[1:] += lower * v[:-1]
    av[:-1] += upper * v[1:]
    return float(np.sqrt(np.sum(np.abs(av) ** 2)))


class TestSigmaMin:
    def test_matches_dense_svd(self):
        # the sparse path equals the dense SVD to 1e-8 relative; at h = 0.005
        # the Re z = -0.5 corners of the scan rectangle are the hard case:
        # (sigma_n / sigma_{n-1})^2 = 0.998 there
        # the disk rows check the threshold-pivoted LU on Shortley-Weller arms
        coarse = assemble_1d(INTERVAL, 0.1, 1.0, 150)
        fine = assemble_1d(INTERVAL, 0.005, 1.0, 1599)
        disk = assemble_2d(Disk((0, 0), 1.0), 0.1, [1.0, 0.0], 1.0 / 20)
        zs = (1 + 0.5j, -0.5 + 0.5j, 0.3)
        cases = [(coarse, z) for z in zs]
        cases += [(fine, z) for z in (-0.5 - 1.5j, -0.5 + 1.5j)]
        cases += [(disk, z) for z in zs]
        for op, z in cases:
            dense = smallest_singular_value(op, z, method="dense")
            sparse = smallest_singular_value(op, z, method="sparse")
            assert sparse.converged
            assert sparse.value == pytest.approx(dense.value, rel=1e-8)

    def test_in_region_takes_the_small_basis(self):
        # inside Re z > (Im z)^2/|X|^2 the top eigenvalue of A^{-1} A^{-H}
        # stands far above the rest, so the in-region basis converges in
        # fewer applications than one 12-vector cycle (10 here, 13 before);
        # test_matches_dense_svd checks the value at this operator and z
        disk = assemble_2d(Disk((0, 0), 1.0), 0.1, [1.0, 0.0], 1.0 / 20)
        sm = smallest_singular_value(disk, 1 + 0.5j)
        assert sm.converged
        assert sm.iterations < LANCZOS_NCV + 1

    def test_minimal_vector_quality(self):
        op = assemble_1d(INTERVAL, 0.08, 1.0, 300)
        z = 1 + 0.5j
        sm = smallest_singular_value(op, z, method="sparse")
        A = op.shifted(z)
        assert np.linalg.norm(A @ sm.vector) == pytest.approx(sm.value, rel=1e-6)

    def test_elliptic_output_bound(self):
        # z = -0.5: |Re p - Re z| >= 0.5 keeps sigma_min away from zero
        for h in (0.1, 0.05):
            n = int(8 / h)
            op = assemble_1d(INTERVAL, h, 1.0, n)
            sm = smallest_singular_value(op, -0.5, method="dense")
            assert sm.value >= 0.4

    def test_adjoint_symmetry(self):
        # sigma_min(P - conj(z)) of the reversed-field grid equals sigma_min(P - z)
        op = assemble_1d(INTERVAL, 0.1, 1.0, 180)
        opm = assemble_1d(INTERVAL, 0.1, -1.0, 180)
        z = 0.8 + 0.3j
        a = smallest_singular_value(op, z, method="dense").value
        b = smallest_singular_value(opm, np.conj(z), method="dense").value
        assert a == pytest.approx(b, rel=1e-10)

    def test_eigenvalue_dip(self):
        # sigma_min dips to the solver floor at the discrete eigenvalue and
        # the dip sits next to the conjugation-oracle value 0.2746740
        h = 0.05
        op = assemble_1d(INTERVAL, h, 1.0, int(1 / (h / 8)))
        lam = eigenvalues(op, 1).values[0]
        oracle = conjugated_spectrum_oracle(INTERVAL, h, 1.0, 1)[0]
        assert abs(lam.real - oracle) < 5e-4
        at_eig = smallest_singular_value(op, complex(lam))
        nearby = smallest_singular_value(op, complex(lam) + 0.01)
        assert at_eig.value < 1e-6 * nearby.value


class TestScan:
    def test_inside_point_exponential_decay(self):
        hs = [0.04, 0.02, 0.01, 0.005]
        grids = pseudospectrum_scan(INTERVAL, [1.0], (1.0, 1.0, 0.5, 0.5),
                                    (1, 1), hs)
        sig = [g.sigma[0, 0] for g in grids]
        flo = [bool(g.at_floor[0, 0]) for g in grids]
        assert all(a > b for a, b in zip(sig, sig[1:]))
        fit = fit_exponential_rate(hs, sig, flo)
        assert fit["c"] > 0
        assert fit["r_squared"] >= 0.98

    def test_outside_point_stable(self):
        hs = [0.04, 0.02, 0.01, 0.005]
        grids = pseudospectrum_scan(INTERVAL, [1.0], (-0.5, -0.5, 0.5, 0.5),
                                    (1, 1), hs)
        sig = np.array([g.sigma[0, 0] for g in grids])
        assert sig.max() / sig.min() <= 2.0

    def test_conjugate_rows_solved_once(self, monkeypatch):
        # P is real, so sigma_min(P - conj z) = sigma_min(P - z): a rectangle
        # symmetric about the real axis solves its rows with Im z <= 0 and
        # mirrors them; on the interval at h = 0.01 (n = 799) and on
        # TestSigmaMin's disk (h = 0.1, dx = 1/20) the copies agree with
        # direct solves to 6.2e-15 (4.5e-12 on interval_1d's 8 x 6 scan)
        solved = []

        def counted(op, z):
            solved.append(z)
            return smallest_singular_value(op, z)

        monkeypatch.setattr(spectral, "smallest_singular_value", counted)
        for domain, X, op in (
                (INTERVAL, [1.0], assemble_1d(INTERVAL, 0.01, 1.0, 799)),
                (Disk((0, 0), 1.0), [1.0, 0.0],
                 assemble_2d(Disk((0, 0), 1.0), 0.1, [1.0, 0.0], 1.0 / 20))):
            monkeypatch.setattr(spectral, "grid_operator",
                                lambda *args, op=op: op)
            for rect, res, calls in (((-0.5, 1.5, -1.0, 1.0), (4, 3), 8),
                                     ((-0.5, 1.5, -1.0, 1.0), (4, 4), 8),
                                     ((-0.5, 1.5, -1.0, 0.5), (4, 4), 16)):
                solved.clear()
                g, = pseudospectrum_scan(domain, X, rect, res, [op.h])
                assert len(solved) == calls
                if calls == 16:
                    continue
                assert max(z.imag for z in solved) <= 0
                for rows in (g.sigma, g.at_floor, g.converged):
                    assert np.array_equal(rows, rows[::-1])
                for j in range(len(g.im_values) // 2, len(g.im_values)):
                    for i, a in enumerate(g.re_values):
                        direct = smallest_singular_value(
                            op, complex(a, g.im_values[j]))
                        assert g.sigma[j, i] == pytest.approx(direct.value,
                                                              rel=1e-10)

    def test_extended_precision_referee(self):
        # interval_1d's scan at h = 0.01 (n = 799): the dense SVD is wrong
        # by 7e-8 to 2e-6 at these z; the references are 40-digit values
        # (mpmath, inverse iteration on the tridiagonal matrix)
        assert np.finfo(np.longdouble).eps < 1e-18, (
            "np.longdouble is not extended precision on this platform: "
            "the referee would be no better than the solver")
        g, = pseudospectrum_scan(INTERVAL, [1.0], (-0.5, 2.5, -1.5, 1.5),
                                 (8, 6), [0.01])
        # z = 2.0714+0.9i, 2.5-0.9i and 0.3571-0.3i
        for (i, j), reference in (((6, 4), 2.224856785235e-08),
                                  ((7, 1), 1.396158847589e-09),
                                  ((2, 2), 1.191551742422e-08)):
            got = _sigma_min_extended(0.01, 799, complex(g.re_values[i],
                                                         g.im_values[j]))
            assert got == pytest.approx(reference, rel=1e-11)
            # the scan's value and its mirror's
            assert g.sigma[j, i] == pytest.approx(got, rel=1e-9)
            assert g.sigma[5 - j, i] == pytest.approx(got, rel=1e-9)

    def test_region_flag(self):
        grids = pseudospectrum_scan(INTERVAL, [1.0], (-0.5, 1.5, -1.0, 1.0),
                                    (5, 5), [0.05])
        g = grids[0]
        a, b = np.meshgrid(g.re_values, g.im_values)
        assert np.array_equal(g.in_region, a >= b * b)
        assert np.all(g.sigma > 0)


class TestEigenvalues:
    def test_1d_real_spectrum_matches_oracle(self):
        h = 0.05
        op = assemble_1d(INTERVAL, h, 1.0, 2000)
        res = eigenvalues(op, 5, sigma_shift=0.25)
        got = res.values
        want = conjugated_spectrum_oracle(INTERVAL, h, 1.0, 5)
        assert res.converged
        assert np.max(np.abs(got.imag)) <= 1e-8
        assert np.allclose(got.real, want, rtol=1e-3)

    def test_zero_field_reduces_to_laplacian(self):
        h = 0.05
        op = assemble_1d(INTERVAL, h, 0.0, 500)
        res = eigenvalues(op, 3)
        got = res.values
        want = h * h * np.pi ** 2 * np.arange(1, 4) ** 2
        assert res.converged
        assert np.allclose(got.real, want, rtol=1e-3)

    def test_field_reflection_invariance(self):
        op = assemble_1d(INTERVAL, 0.05, 1.0, 600)
        opm = assemble_1d(INTERVAL, 0.05, -1.0, 600)
        a = eigenvalues(op, 4).values
        b = eigenvalues(opm, 4).values
        assert np.allclose(np.sort(a.real), np.sort(b.real), rtol=1e-10)

    def test_complex_shift_rejected(self):
        # float() of a NumPy complex scalar only warns and drops Im
        op = assemble_1d(INTERVAL, 0.05, 1.0, 200)
        for shift in (0.25 + 0.1j, np.complex128(0.25 + 0.1j)):
            with pytest.raises(TypeError):
                eigenvalues(op, 5, sigma_shift=shift)

    @pytest.mark.parametrize("dx", [0.02, 0.01])
    def test_values_below_the_shift_are_untrusted(self, dx):
        # ARPACK converges on the unit disk at h = 0.01, yet returns values
        # below |X|^2/4 = 0.25, under every exact eigenvalue (the first is
        # 0.250578): the instability the pseudospectrum measures, acting on
        # the solver
        op = assemble_2d(Disk((0, 0), 1.0), 0.01, [1.0, 0.0], dx)
        res = eigenvalues(op, 5, sigma_shift=0.25)
        assert len(res.values) == 5
        assert not res.converged

    def test_complex_values_of_a_symmetrizable_p_are_untrusted(self):
        # P on the interval is similar to a symmetric matrix, so its
        # spectrum is real; at h = 0.005 ARPACK returns a complex pair
        # whose |Im| exceeds the discrete shift's excess over |X|^2/4
        op = assemble_1d(INTERVAL, 0.005, 1.0, 4000)
        res = eigenvalues(op, 5, sigma_shift=0.25)
        assert np.all(res.values.real >= 0.25)
        assert np.max(np.abs(res.values.imag)) > 1e-5
        assert not res.converged

    def test_repeat_calls_identical(self):
        # ARPACK starts from a fixed vector; from a random one the fifth
        # eigenvalue of this operator moves by about 1e-4 between calls
        op = assemble_1d(INTERVAL, 0.01, 1.0, 2000)
        a = eigenvalues(op, 5, sigma_shift=0.25).values
        b = eigenvalues(op, 5, sigma_shift=0.25).values
        assert np.array_equal(a, b)


class TestLocalization:
    def test_profile_normalized(self):
        op = assemble_1d(INTERVAL, 0.05, 1.0, 200)
        sm, prof = pseudomode_localization(op, 1 + 0.5j, [1.0])
        assert abs(prof.radial_mass.sum() - 1.0) < 1e-10
        assert abs(prof.arc_mass.sum() - 1.0) < 1e-10

    def test_1d_mass_at_illuminated_endpoint(self):
        # X = +1 illuminates x = 1; the pseudomode must pile up there
        op = assemble_1d(INTERVAL, 0.02, 1.0, 400)
        sm, prof = pseudomode_localization(op, 1 + 0.5j, [1.0])
        by_class = prof.mass_by_class()
        assert by_class.get("illuminated", 0.0) > 0.95

    def test_disk_mass_near_illuminated_arc(self):
        h = 0.05
        op = assemble_2d(Disk((0, 0), 1.0), h, [1.0, 0.0], h / 8)
        samples = classify_boundary(Disk((0, 0), 1.0), [1.0, 0.0], 2048)
        good = samples.points[samples.classes != "shadow"]
        sm, prof = pseudomode_localization(op, 1 + 0.5j, [1.0, 0.0])
        assert prof.mass_near_points(good, 0.25) > 0.85
        shadow_cap = prof.mass_in_cap([-1.0, 0.0], 0.2)
        assert shadow_cap < 0.02

    def test_quasimode_profiled_through_binning(self):
        # grid-sampled WKB quasimode keeps its mass inside the cutoff ball
        from pslab.wkb import build_quasimode
        h = 0.05
        disk = Disk((0, 0), 1.0)
        op = assemble_2d(disk, h, [1.0, 0.0], h / 8)
        q = build_quasimode(disk, [1.0, 0.0], [1.0, 0.0], 1 + 0.5j, h)
        vec = q.fields(op.points)[0]
        prof = localization_profile(op, vec, [1.0, 0.0])
        inside = prof.mass_in_cap([1.0, 0.0], q.cutoff.r_outer)
        assert inside > 0.99
