"""Finite-difference discretization of P = -h^2*Laplace + h<X, grad>, Dirichlet.

Interior lattice nodes carry centered second-order stencils; nodes next to a
curved boundary use Shortley-Weller unequal-arm stencils with the Dirichlet
value eliminated.  Advection is centered (never upwinded): the point of this
operator is its non-normality, so the discretization must not add artificial
dissipation.  Callers are expected to keep dx small enough relative to h
(grid Peclet |X| dx / (2h) < 1) for the boundary layer to be resolved.

X is real, so P is stored in real arithmetic (float64); ``shifted(z)``
returns the complex P - z.  Every sparse LU of P, of P - z or of
I + dt/h (P - mu) comes from ``factorize``.

The conjugated spectrum oracle returns the exact eigenvalues
|X|^2/4 + h^2 lambda_k(-Laplace_Dirichlet), valid for constant X because
e^{-<X,x>/2h} P e^{<X,x>/2h} = -h^2*Laplace + |X|^2/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import OracleUnavailableError, ResolutionError
from .geometry import Disk, Interval

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla


@dataclass
class GridOperator:
    """P on the interior nodes: ``matrix`` is real, ``shifted(z)`` complex."""

    domain: object
    h: float
    X: np.ndarray
    dx: float
    matrix: sp.csr_matrix         # float64
    points: np.ndarray            # (n, d) interior node coordinates
    scheme: str
    regularized_arms: int = 0     # Shortley-Weller arms clamped at 0.1 dx

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def shifted(self, z: complex) -> sp.csr_matrix:
        """P - z, complex even for real z."""
        import scipy.sparse as sp
        return (self.matrix - z * sp.identity(self.n, dtype=complex,
                                              format="csr")).tocsr()

    def norm_estimate(self) -> float:
        """Infinity norm; cheap scale reference for floors and tolerances."""
        return float(np.max(np.abs(self.matrix).sum(axis=1)))

    def interior_mask_uniform(self) -> np.ndarray:
        """Rows whose stencil touches no Shortley-Weller arm (2D) / all rows (1D)."""
        if self.dimension == 1:
            return np.ones(self.n, dtype=bool)
        return self._uniform_rows

    def grid_manifest(self) -> dict:
        return {
            "dimension": int(self.dimension),
            "n_interior": int(self.n),
            "dx": self.dx,
            "h": self.h,
            "X": np.asarray(self.X, dtype=float).tolist(),
            "scheme": self.scheme,
            "regularized_arms": int(self.regularized_arms),
            "domain": repr(self.domain),
        }


def assemble_1d(interval: Interval, h: float, X, n: int) -> GridOperator:
    """Tridiagonal P on n interior points of the interval."""
    import scipy.sparse as sp
    if n < 8:
        raise ResolutionError("need at least 8 interior points")
    Xv = float(np.atleast_1d(X)[0])
    L = interval.b - interval.a
    dx = L / (n + 1)
    xs = interval.a + dx * np.arange(1, n + 1)
    main = np.full(n, 2.0 * h * h / dx / dx)
    upper = np.full(n - 1, -h * h / dx / dx + h * Xv / (2 * dx))
    lower = np.full(n - 1, -h * h / dx / dx - h * Xv / (2 * dx))
    mat = sp.diags([lower, main, upper], [-1, 0, 1], format="csr")
    return GridOperator(interval, h, np.array([Xv]), dx, mat,
                        xs[:, None], "centered-1d")


def assemble_2d(domain, h: float, X, dx: float) -> GridOperator:
    """Five-point stencil with Shortley-Weller arms at the curved boundary."""
    import scipy.sparse as sp
    Xv = np.asarray(X, dtype=float)
    diam = domain.diameter()
    if diam / dx < 16:
        raise ResolutionError("grid must resolve the boundary: >= 16 cells across")
    # lattice covering the bounding box, half-cell margin
    pts_box = domain.polygonize(256).vertices
    lo = pts_box.min(axis=0) - 0.5 * dx
    hi = pts_box.max(axis=0) + 0.5 * dx
    nx = int(np.ceil((hi[0] - lo[0]) / dx)) + 1
    ny = int(np.ceil((hi[1] - lo[1]) / dx)) + 1
    gx = lo[0] + dx * np.arange(nx)
    gy = lo[1] + dx * np.arange(ny)
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    nodes = np.column_stack([GX.ravel(), GY.ravel()])
    sd = domain.signed_distance(nodes).reshape(nx, ny)
    inside = sd < 0.0
    idx = -np.ones((nx, ny), dtype=np.int64)
    ii, jj = np.nonzero(inside)
    idx[ii, jj] = np.arange(len(ii))
    n = len(ii)
    points = np.column_stack([gx[ii], gy[jj]])

    dirs = [(+1, 0), (-1, 0), (0, +1), (0, -1)]
    arms = np.full((n, 4), dx)
    nbr = -np.ones((n, 4), dtype=np.int64)
    regularized = 0
    clamped_rows = np.zeros(n, dtype=bool)
    for k, (di, dj) in enumerate(dirs):
        i2 = ii + di
        j2 = jj + dj
        ok = (0 <= i2) & (i2 < nx) & (0 <= j2) & (j2 < ny)
        nin = np.zeros(n, dtype=bool)
        nin[ok] = inside[i2[ok], j2[ok]]
        nbr[nin, k] = idx[i2[nin], j2[nin]]
        cut = ~nin
        if np.any(cut):
            # bisection for the boundary crossing along the arm
            t_lo = np.zeros(cut.sum())
            t_hi = np.ones(cut.sum())
            base = points[cut]
            step = np.array([di, dj], dtype=float) * dx
            for _ in range(45):
                t_mid = 0.5 * (t_lo + t_hi)
                mid_sd = domain.signed_distance(base + t_mid[:, None] * step[None, :])
                neg = mid_sd < 0
                t_lo[neg] = t_mid[neg]
                t_hi[~neg] = t_mid[~neg]
            theta = 0.5 * (t_lo + t_hi)
            clamped = theta < 0.1
            regularized += int(np.count_nonzero(clamped))
            cut_rows = np.nonzero(cut)[0]
            clamped_rows[cut_rows[clamped]] = True
            theta = np.maximum(theta, 0.1)
            arms[cut, k] = theta * dx

    hp, hm = arms[:, 0], arms[:, 1]   # x+ and x- arms
    vp, vm = arms[:, 2], arms[:, 3]   # y+ and y- arms
    diag = np.zeros(n)
    # x direction: u_xx and u_x with unequal arms (exact on quadratics)
    diag += -h * h * (-2.0 / (hp * hm)) + h * Xv[0] * ((hp - hm) / (hp * hm))
    diag += -h * h * (-2.0 / (vp * vm)) + h * Xv[1] * ((vp - vm) / (vp * vm))
    coef_e = -h * h * (2.0 / (hp * (hp + hm))) + h * Xv[0] * (hm / (hp * (hp + hm)))
    coef_w = -h * h * (2.0 / (hm * (hp + hm))) + h * Xv[0] * (-hp / (hm * (hp + hm)))
    coef_n = -h * h * (2.0 / (vp * (vp + vm))) + h * Xv[1] * (vm / (vp * (vp + vm)))
    coef_s = -h * h * (2.0 / (vm * (vp + vm))) + h * Xv[1] * (-vp / (vm * (vp + vm)))
    # off-diagonal entries direction by direction, then the diagonal
    rows = [np.nonzero(nbr[:, k] >= 0)[0] for k in range(4)]
    cols = [nbr[r, k] for k, r in enumerate(rows)]
    vals = [coef[r] for coef, r in zip((coef_e, coef_w, coef_n, coef_s), rows)]
    mat = sp.coo_matrix((np.concatenate(vals + [diag]),
                         (np.concatenate(rows + [np.arange(n)]),
                          np.concatenate(cols + [np.arange(n)]))),
                        shape=(n, n)).tocsr()
    op = GridOperator(domain, h, Xv, dx, mat, points, "shortley-weller-2d",
                      regularized_arms=regularized)
    uniform = np.all(np.abs(arms - dx) < 1e-12 * dx, axis=1)
    # a row is uniform-stencil only if it and all neighbors are uncut
    unif_rows = uniform.copy()
    for k in range(4):
        has = nbr[:, k] >= 0
        unif_rows[has] &= uniform[nbr[has, k]]
        unif_rows[~has] = False
    op._uniform_rows = unif_rows
    op.clamped_rows = clamped_rows
    return op


def factorize(A) -> spla.SuperLU:
    """Sparse LU of a CSC matrix with the sparsity pattern of P.

    P is structurally symmetric, so the columns are ordered by minimum
    degree on A + A^T (Liu, ACM TOMS 1985): on the Shortley-Weller disk
    that is 40-50% less fill than COLAMD.  Threshold pivoting
    (SymmetricMode, 0.1) prefers the diagonal and so keeps that ordering;
    partial pivoting undoes much of it (Demmel et al., SIMAX 1999).
    """
    import scipy.sparse.linalg as spla
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True})


def symmetrizer_1d(op: GridOperator) -> np.ndarray:
    """Diagonal D with D^{-1} P D exactly symmetric on the uniform 1D grid.

    D is the weight e^{<X,x>/2h} of e^{-<X,x>/2h} P e^{<X,x>/2h} on the
    lattice, with the exact one-step ratio kappa = sqrt((2h + X dx)/(2h -
    X dx)) = e^{X dx / 2 h_eff}, which tends to e^{X dx / 2h} as dx -> 0.
    """
    X = float(op.X[0])
    t = X * op.dx / (2.0 * op.h)
    if abs(t) >= 1.0:
        raise ResolutionError("grid Peclet >= 1: no real symmetrizer")
    kappa = np.sqrt((1.0 + t) / (1.0 - t))
    return kappa ** np.arange(op.n)


def conjugated_spectrum_oracle(domain, h: float, X, k_max: int) -> np.ndarray:
    """Exact spectrum |X|^2/4 + h^2 lambda_k(-Laplace) for Interval and Disk."""
    Xn2 = float(np.sum(np.atleast_1d(np.asarray(X, dtype=float)) ** 2))
    if isinstance(domain, Interval):
        L = domain.b - domain.a
        ks = np.arange(1, k_max + 1)
        return Xn2 / 4.0 + h * h * (np.pi * ks / L) ** 2
    if isinstance(domain, Disk):
        from scipy.special import jn_zeros
        vals = []
        for m in range(0, k_max + 6):
            zeros = jn_zeros(m, k_max)
            lam = (zeros / domain.radius) ** 2
            mult = 1 if m == 0 else 2     # cos/sin degeneracy
            vals.extend(list(lam) * mult)
        vals = np.sort(np.asarray(vals))[:k_max]
        return Xn2 / 4.0 + h * h * vals
    raise OracleUnavailableError(
        f"no closed-form spectrum for {type(domain).__name__}")
