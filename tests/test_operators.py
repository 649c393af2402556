import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pslab import operators
from pslab.cli import _spacing
from pslab.errors import OracleUnavailableError, ResolutionError
from pslab.geometry import Disk, Ellipse, Interval, Polygon
from pslab.operators import (
    assemble_1d,
    assemble_2d,
    conjugated_spectrum_oracle,
    factorize,
    grid_operator,
    symmetrizer_1d,
)
from test_cli import fresh_python

INTERVAL = Interval(0.0, 1.0)


class TestAssembly1D:
    def test_row_pattern(self):
        op = assemble_1d(INTERVAL, 0.05, 1.0, 50)
        nnz_per_row = np.diff(op.matrix.indptr)
        assert nnz_per_row.max() <= 3

    def test_pure_laplacian_symmetric(self):
        op = assemble_1d(INTERVAL, 0.05, 0.0, 64)
        diff = (op.matrix - op.matrix.T).toarray()
        assert np.max(np.abs(diff)) == 0.0
        # eigenvalues approx h^2 pi^2 k^2
        lam = np.sort(np.linalg.eigvalsh(op.matrix.toarray().real))
        want = 0.05 ** 2 * np.pi ** 2 * np.arange(1, 4) ** 2
        assert np.allclose(lam[:3], want, rtol=5e-3)

    def test_constant_vector_annihilated(self):
        op = assemble_1d(INTERVAL, 0.05, 1.0, 100)
        u = np.ones(op.n, dtype=complex)
        res = op.matrix @ u
        # rows away from the boundary see a constant: derivative terms cancel
        # against the 2/dx^2 diagonal only when including boundary values; in
        # the interior of the stencil band the row sum is exactly zero
        interior = res[1:-1] - 0.0
        assert np.max(np.abs(interior)) < 1e-12 * op.norm_estimate()

    def test_smallest_eigenvalue_matches_oracle(self):
        h = 0.05
        op = assemble_1d(INTERVAL, h, 1.0, 2000)
        want = conjugated_spectrum_oracle(INTERVAL, h, 1.0, 1)[0]
        assert want == pytest.approx(0.2746740110027234, abs=1e-12)
        lam = spla.eigs(op.matrix, k=1, sigma=want, return_eigenvectors=False)
        assert abs(lam[0] - want) < 1e-3 * want

    def test_consistency_order(self):
        # apply to a smooth function; error should shrink ~4x per dx halving
        h, X = 0.07, 0.8
        f = lambda x: np.sin(2.3 * x) * np.exp(0.4 * x)
        fpp = lambda x: (0.16 - 2.3 ** 2) * np.sin(2.3 * x) * np.exp(0.4 * x) \
            + 2 * 0.4 * 2.3 * np.cos(2.3 * x) * np.exp(0.4 * x)
        fp = lambda x: 2.3 * np.cos(2.3 * x) * np.exp(0.4 * x) \
            + 0.4 * np.sin(2.3 * x) * np.exp(0.4 * x)
        errs = []
        for n in (200, 400):
            op = assemble_1d(INTERVAL, h, X, n)
            x = op.points[:, 0]
            got = op.matrix @ f(x).astype(complex)
            want = -h * h * fpp(x) + h * X * fp(x)
            sl = slice(4, -4)
            errs.append(np.max(np.abs(got[sl] - want[sl])))
        assert errs[0] / errs[1] > 3.0

    def test_discrete_symmetrizer_exact(self):
        op = assemble_1d(INTERVAL, 0.05, 1.0, 120)
        D = symmetrizer_1d(op)
        # D grows like the continuum weight e^{X x / 2h}; the symmetric
        # similar form is D^{-1} P D
        B = (np.diag(1.0 / D) @ op.matrix.toarray() @ np.diag(D))
        assert np.max(np.abs(B - B.T)) < 1e-12 * op.norm_estimate()

    def test_adjoint_is_reversed_field(self):
        op = assemble_1d(INTERVAL, 0.05, 1.0, 80)
        opm = assemble_1d(INTERVAL, 0.05, -1.0, 80)
        rng = np.random.default_rng(0)
        u = rng.normal(size=80) + 1j * rng.normal(size=80)
        v = rng.normal(size=80) + 1j * rng.normal(size=80)
        lhs = np.vdot(v, op.matrix @ u)
        rhs = np.vdot(opm.matrix @ v, u)
        assert abs(lhs - rhs) < 1e-12 * op.norm_estimate() * np.linalg.norm(u) * np.linalg.norm(v)

    def test_row_masks(self):
        # no arm is cut in one dimension: every row uniform, none clamped
        op = assemble_1d(INTERVAL, 0.05, 1.0, 50)
        assert op.uniform_rows.dtype == bool and op.clamped_rows.dtype == bool
        assert op.uniform_rows.shape == op.clamped_rows.shape == (50,)
        assert op.uniform_rows.all() and not op.clamped_rows.any()

    def test_eigenvalue_convergence_second_order(self):
        h = 0.05
        want = conjugated_spectrum_oracle(INTERVAL, h, 1.0, 1)[0]
        errs = []
        for n in (250, 500):
            op = assemble_1d(INTERVAL, h, 1.0, n)
            lam = spla.eigs(op.matrix, k=1, sigma=want, return_eigenvectors=False)
            errs.append(abs(lam[0].real - want))
        assert errs[0] / errs[1] > 3.0


class TestAssembly2D:
    def test_row_pattern(self):
        op = assemble_2d(Disk((0, 0), 1.0), 0.2, [1.0, 0.0], 1.0 / 16)
        nnz_per_row = np.diff(op.matrix.indptr)
        assert nnz_per_row.max() <= 5

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            assemble_2d(Disk((0, 0), 1.0), 0.2, [1.0, 0.0], 0.5)

    def test_constant_annihilated_in_uniform_interior(self):
        op = assemble_2d(Disk((0, 0), 1.0), 0.2, [1.0, 0.0], 1.0 / 24)
        res = op.matrix @ np.ones(op.n, dtype=complex)
        mask = op.uniform_rows
        assert np.max(np.abs(res[mask])) < 1e-12 * op.norm_estimate()

    def test_disk_laplacian_lowest_eigenvalue(self):
        # oracle: first Dirichlet eigenvalue of the unit disk is j_{0,1}^2
        h = 0.2
        op = assemble_2d(Disk((0, 0), 1.0), h, [0.0, 0.0], 1.0 / 40)
        want = h * h * 5.783185962946785
        lam = spla.eigs(op.matrix, k=1, sigma=0.0, return_eigenvectors=False)
        assert abs(lam[0].real - want) < 0.01 * want
        assert abs(lam[0].imag) < 1e-10 * op.norm_estimate()

    def test_spectrum_real_with_field(self):
        h = 0.25
        op = assemble_2d(Disk((0, 0), 1.0), h, [1.0, 0.0], 1.0 / 32)
        lam = spla.eigs(op.matrix, k=4, sigma=0.25, return_eigenvectors=False)
        assert np.max(np.abs(lam.imag)) < 1e-6 * op.norm_estimate()

    def test_adjoint_identity_on_uniform_rows(self):
        op = assemble_2d(Disk((0, 0), 1.0), 0.2, [1.0, 0.0], 1.0 / 24)
        opm = assemble_2d(Disk((0, 0), 1.0), 0.2, [-1.0, 0.0], 1.0 / 24)
        mask = op.uniform_rows
        rng = np.random.default_rng(1)
        u = np.where(mask, rng.normal(size=op.n) + 1j * rng.normal(size=op.n), 0.0)
        v = np.where(mask, rng.normal(size=op.n) + 1j * rng.normal(size=op.n), 0.0)
        # restrict the pairing to rows whose stencils stay uniform
        lhs = np.vdot(v[mask], (op.matrix @ u)[mask])
        rhs = np.vdot((opm.matrix @ v)[mask], u[mask])
        assert abs(lhs - rhs) < 1e-11 * op.norm_estimate() * np.linalg.norm(u) * np.linalg.norm(v)

    def test_shortley_weller_quadratic_exact(self):
        # the unequal-arm stencil is exact on quadratics: apply to x^2 + y^2
        op = assemble_2d(Disk((0, 0), 1.0), 0.2, [0.0, 0.0], 1.0 / 24)
        x, y = op.points[:, 0], op.points[:, 1]
        u = (x ** 2 + y ** 2).astype(complex)
        # boundary values x^2+y^2 = 1 were eliminated as zero, so add them back:
        # P(u - 1) with u-1 = 0 on the boundary is what the matrix computes
        res = op.matrix @ (u - 1.0)
        want = -op.h ** 2 * 4.0
        ok = ~op.clamped_rows  # regularized sliver arms trade consistency away
        assert np.max(np.abs(res[ok] - want)) < 1e-8 * op.norm_estimate()
        assert op.regularized_arms > 0


LSHAPE = Polygon([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)])


def assert_same_operator(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.points.tobytes() == want.points.tobytes()
    assert got.dx == want.dx and got.scheme == want.scheme
    assert np.array_equal(got.uniform_rows, want.uniform_rows)
    assert np.array_equal(got.clamped_rows, want.clamped_rows)
    assert got.regularized_arms == want.regularized_arms


class TestGridOperator:
    INTERVALS = (INTERVAL, Interval(-0.3, 1.7), Interval(2.0, 2.001),
                 Interval(-1e3, 1e3))

    def test_config_spacing_gives_back_n(self, monkeypatch):
        # a config's n (validated to be at least 8) becomes dx = L / (n + 1),
        # which grid_operator turns back into n interior points
        monkeypatch.setattr(operators, "assemble_1d", lambda iv, h, X, n: n)
        ns = list(range(8, 200_001))
        for iv in self.INTERVALS:
            assert [grid_operator(iv, 0.05, 1.0, _spacing(iv, {"n": n}))
                    for n in ns] == ns

    @pytest.mark.parametrize("n", [8, 9, 10, 159, 799, 1599, 4000])
    def test_interval_matches_assemble_1d(self, n):
        for iv in self.INTERVALS:
            assert_same_operator(
                grid_operator(iv, 0.05, 1.0, _spacing(iv, {"n": n})),
                assemble_1d(iv, 0.05, 1.0, n))

    @pytest.mark.parametrize("h", [1.0, 2.0])
    def test_interval_too_coarse_raises(self, h):
        # dx = 1/8 leaves 7 interior points, fewer than assembly accepts;
        # the spacing is not widened to keep 8
        with pytest.raises(ResolutionError, match="at least 8 interior"):
            grid_operator(INTERVAL, h, [1.0], 1 / 8)

    @pytest.mark.parametrize("domain, X, dx", [
        (Disk((0, 0), 1.0), [1.0, 0.0], 1.0 / 24),
        (Ellipse((0.1, -0.2), (1.2, 0.7), 0.4), [1.0, 0.0], 0.1),
        (LSHAPE, [-1.0, 0.0], 0.025),
    ], ids=["disk", "ellipse", "lshape"])
    def test_plane_matches_assemble_2d(self, domain, X, dx):
        assert_same_operator(grid_operator(domain, 0.05, X, dx),
                             assemble_2d(domain, 0.05, X, dx))


class TestStorage:
    def test_matrix_is_real(self):
        # X is real, so P is stored as float64; only P - z is complex
        ops = [assemble_1d(INTERVAL, 0.05, 1.0, 50),
               assemble_2d(Disk((0, 0), 1.0), 0.2, [1.0, 0.0], 1.0 / 16)]
        for op in ops:
            assert op.matrix.dtype == np.float64
            assert op.shifted(0.3).dtype == np.complex128

    def test_factorize_fill_below_colamd(self):
        # minimum degree on A + A^T: 904,756 against COLAMD's 1,701,612 at
        # n = 20,108 (ratio 0.53), for P and for P - z alike
        op = assemble_2d(Disk((0, 0), 1.0), 0.1, [1.0, 0.0], 1.0 / 80)
        for A in (op.matrix.tocsc(), op.shifted(1 + 0.5j).tocsc()):
            ours, colamd = factorize(A), spla.splu(A)
            ratio = (ours.L.nnz + ours.U.nnz) / (colamd.L.nnz + colamd.U.nnz)
            assert ratio < 0.65

    def test_factorize_panel_keeps_the_lu(self):
        # the small panel changes how SuperLU computes the factors, not
        # which: SuperLU's default panel with the same ordering and
        # pivoting gives the same fill and, for the real P, the same
        # solution up to rounding
        op = assemble_2d(Disk((0, 0), 1.0), 0.1, [1.0, 0.0], 1.0 / 80)
        b = np.random.default_rng(3).standard_normal(op.n)
        for A in (op.matrix.tocsc(), op.shifted(1 + 0.5j).tocsc()):
            ours = factorize(A)
            wide = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.1,
                             options={"SymmetricMode": True})
            assert ours.L.nnz + ours.U.nnz == wide.L.nnz + wide.U.nnz
            if A.dtype == np.float64:
                want = wide.solve(b)
                assert np.linalg.norm(ours.solve(b) - want) \
                    <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads /proc/self/status")
    def test_factorize_leaves_no_workspace_spike(self):
        # SuperLU's panel scratch, freed on return, used to lift the peak
        # RSS 9.8 MB above what the factors leave at n = 20,108 (complex).
        # VmHWM is the peak of this process's own memory; ru_maxrss would
        # also count the pytest process the child was spawned from
        r = fresh_python(
            "from pslab.geometry import Disk\n"
            "from pslab.operators import factorize, grid_operator\n"
            "op = grid_operator(Disk((0, 0), 1.0), 0.05, [1.0, 0.0], 1 / 80)\n"
            "lu = factorize(op.shifted(1 + 0.5j).tocsc())\n"
            "kb = {k: int(v.split()[0]) for k, v in (line.split(':') for line "
            "in open('/proc/self/status')) if k in ('VmHWM', 'VmRSS')}\n"
            "print(op.n, (kb['VmHWM'] - kb['VmRSS']) / 1024)\n")
        assert r.returncode == 0, r.stderr
        n, spike_mb = r.stdout.split()
        assert int(n) == 20108
        assert float(spike_mb) < 1.0


class TestOracle:
    def test_interval_closed_form(self):
        got = conjugated_spectrum_oracle(INTERVAL, 0.05, 1.0, 3)
        want = 0.25 + 0.0025 * np.pi ** 2 * np.array([1, 4, 9])
        assert np.allclose(got, want, rtol=1e-14)

    def test_field_shift(self):
        got = conjugated_spectrum_oracle(INTERVAL, 0.05, 2.0, 5)
        assert np.all(got >= 1.0)

    def test_disk_bessel(self):
        got = conjugated_spectrum_oracle(Disk((0, 0), 1.0), 0.1, 1.0, 1)
        assert got[0] == pytest.approx(0.30783185962946785, abs=1e-12)

    def test_disk_principal_matches_bessel_table(self):
        # k = 1 takes j_{0,1} without scipy; it must be the table's first
        # value to the bit
        for radius, h, X in ((1.0, 0.1, [0.5, 0.0]), (0.7, 0.013, [1.0, 0.3])):
            disk = Disk((0, 0), radius)
            one = conjugated_spectrum_oracle(disk, h, X, 1)
            four = conjugated_spectrum_oracle(disk, h, X, 4)
            assert one.tobytes() == four[:1].tobytes()

    def test_disk_degeneracy(self):
        got = conjugated_spectrum_oracle(Disk((0, 0), 1.0), 0.1, 0.0, 4)
        # j_{0,1}^2, then the double j_{1,1}^2 pair
        assert got[1] == pytest.approx(got[2], abs=1e-12)

    def test_unsupported_domain(self):
        with pytest.raises(OracleUnavailableError):
            conjugated_spectrum_oracle(Ellipse((0, 0), (2, 1)), 0.1, 1.0, 2)


class TestExport:
    def test_grid_manifest_keys(self):
        op = assemble_2d(Disk((0, 0), 1.0), 0.2, [1.0, 0.0], 1.0 / 20)
        man = op.grid_manifest()
        assert man["scheme"] == "shortley-weller-2d"
        assert man["n_interior"] == op.n
