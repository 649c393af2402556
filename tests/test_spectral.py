import numpy as np
import pytest

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
        got = eigenvalues(op, 5, sigma_shift=0.25).values
        want = conjugated_spectrum_oracle(INTERVAL, h, 1.0, 5)
        assert np.max(np.abs(got.imag)) <= 1e-8
        assert np.allclose(got.real, want, rtol=1e-3)

    def test_zero_field_reduces_to_laplacian(self):
        h = 0.05
        op = assemble_1d(INTERVAL, h, 0.0, 500)
        got = eigenvalues(op, 3).values
        want = h * h * np.pi ** 2 * np.arange(1, 4) ** 2
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
