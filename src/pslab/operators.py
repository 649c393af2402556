"""Finite-difference discretization of P = -h^2*Laplace + h<X, grad>, Dirichlet.

``grid_operator(domain, h, X, dx)`` builds every P a run uses.  The open
domain is ``domain.contains``: it picks the interior lattice nodes and ends
each cut arm.  Interior nodes carry centered second-order stencils; nodes
next to a curved boundary use Shortley-Weller unequal-arm stencils with the
Dirichlet value eliminated.  Advection is centered (never upwinded): the
point of this operator is its non-normality, so the discretization must not
add artificial dissipation.  Callers are expected to keep dx small enough
relative to h (grid Peclet |X| dx / (2h) < 1) for the boundary layer to be
resolved.

X is real, so P is stored in real arithmetic (float64); ``shifted(z)``
returns the complex P - z.  Every sparse LU of P, of P - z or of a planar
I + dt/h (P - mu) comes from ``factorize``.  On an interval, ``evolve``
solves I + dt/h (P - mu) in the symmetric frame of ``symmetrizer_1d``
instead, with one LAPACK L D L^T factor per step size.

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

MIN_POINTS = 8      # the fewest interior points of an interval
MIN_CELLS = 16      # the fewest lattice cells across a planar domain
PANEL_SIZE = 2      # SuperLU panel width: no workspace spike (``factorize``)


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
    uniform_rows: np.ndarray      # the row and its neighbours have only dx arms
    clamped_rows: np.ndarray      # the row has an arm clamped at 0.1 dx
    regularized_arms: int = 0     # Shortley-Weller arms clamped at 0.1 dx

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def shifted(self, z: complex) -> sp.csr_matrix:
        """P - z, complex even for real z."""
        import scipy.sparse as sp
        return (self.matrix - z * sp.identity(self.n, dtype=complex,
                                              format="csr")).tocsr()

    def norm_estimate(self) -> float:
        """Infinity norm; cheap scale reference for floors and tolerances."""
        return float(np.max(np.abs(self.matrix).sum(axis=1)))

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


def grid_operator(domain, h: float, X, dx: float) -> GridOperator:
    """P at lattice spacing dx: on an interval, n = round(L/dx) - 1 interior
    points; in the plane, Shortley-Weller arms at the boundary."""
    if domain.dimension == 1:
        return assemble_1d(domain, h, X, round(domain.diameter() / dx) - 1)
    return assemble_2d(domain, h, X, dx)


def assemble_1d(interval: Interval, h: float, X, n: int) -> GridOperator:
    """Tridiagonal P on n interior points of the interval."""
    import scipy.sparse as sp
    if n < MIN_POINTS:
        raise ResolutionError(f"need at least {MIN_POINTS} interior points")
    Xv = float(np.atleast_1d(X)[0])
    dx = interval.diameter() / (n + 1)
    xs = interval.a + dx * np.arange(1, n + 1)
    main = np.full(n, 2.0 * h * h / dx / dx)
    upper = np.full(n - 1, -h * h / dx / dx + h * Xv / (2 * dx))
    lower = np.full(n - 1, -h * h / dx / dx - h * Xv / (2 * dx))
    mat = sp.diags([lower, main, upper], [-1, 0, 1], format="csr")
    return GridOperator(interval, h, np.array([Xv]), dx, mat, xs[:, None],
                        "centered-1d", np.ones(n, bool), np.zeros(n, bool))


def assemble_2d(domain, h: float, X, dx: float) -> GridOperator:
    """Five-point stencil with Shortley-Weller arms at the curved boundary."""
    import scipy.sparse as sp
    Xv = np.asarray(X, dtype=float)
    if domain.diameter() / dx < MIN_CELLS:
        raise ResolutionError(
            f"grid must resolve the boundary: >= {MIN_CELLS} cells across")
    # lattice covering the bounding box, half-cell margin
    pts_box = domain.polygonize(256).vertices
    lo = pts_box.min(axis=0) - 0.5 * dx
    hi = pts_box.max(axis=0) + 0.5 * dx
    nx, ny = np.ceil((hi - lo) / dx).astype(int) + 1
    gx = lo[0] + dx * np.arange(nx)
    gy = lo[1] + dx * np.arange(ny)
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    nodes = np.column_stack([GX.ravel(), GY.ravel()])
    inside = domain.contains(nodes).reshape(nx, ny)
    idx = -np.ones((nx, ny), dtype=np.int64)
    ii, jj = np.nonzero(inside)
    idx[ii, jj] = np.arange(len(ii))
    n = len(ii)
    points = np.column_stack([gx[ii], gy[jj]])

    dirs = [(+1, 0), (-1, 0), (0, +1), (0, -1)]
    arms = np.full((n, 4), dx)
    nbr = -np.ones((n, 4), dtype=np.int64)
    clamped = np.zeros((n, 4), dtype=bool)
    for k, (di, dj) in enumerate(dirs):
        i2, j2 = ii + di, jj + dj
        ok = (0 <= i2) & (i2 < nx) & (0 <= j2) & (j2 < ny)
        nin = np.zeros(n, dtype=bool)
        nin[ok] = inside[i2[ok], j2[ok]]
        nbr[nin, k] = idx[i2[nin], j2[nin]]
        cut = ~nin
        if np.any(cut):
            # bisection for the boundary crossing along the arm
            t_lo, t_hi = np.zeros(cut.sum()), np.ones(cut.sum())
            base = points[cut]
            step = np.array([di, dj], dtype=float) * dx
            for _ in range(45):
                t_mid = 0.5 * (t_lo + t_hi)
                neg = domain.contains(base + t_mid[:, None] * step[None, :])
                t_lo[neg] = t_mid[neg]
                t_hi[~neg] = t_mid[~neg]
            theta = 0.5 * (t_lo + t_hi)
            clamped[cut, k] = theta < 0.1
            arms[cut, k] = np.maximum(theta, 0.1) * dx

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
    uniform = np.all(np.abs(arms - dx) < 1e-12 * dx, axis=1)
    # a row is uniform-stencil only if it and all neighbors are uncut
    unif_rows = uniform & np.all(nbr >= 0, axis=1) & np.all(uniform[nbr], axis=1)
    return GridOperator(domain, h, Xv, dx, mat, points, "shortley-weller-2d",
                        unif_rows, clamped.any(axis=1), int(clamped.sum()))


def factorize(A) -> spla.SuperLU:
    """Sparse LU of a CSC matrix with the sparsity pattern of P.

    P is structurally symmetric, so the columns are ordered by minimum
    degree on A + A^T (Liu, ACM TOMS 1985): on the Shortley-Weller disk
    that is 40-50% less fill than COLAMD.  Threshold pivoting
    (SymmetricMode, 0.1) prefers the diagonal and so keeps that ordering;
    partial pivoting undoes much of it (Demmel et al., SIMAX 1999).

    SuperLU updates a panel of w columns at a time through dense per-row
    scratch arrays that it frees on return (same paper).  At its default
    w = 20 that scratch, about 490 bytes per row for complex A, lifts the
    peak memory of a large LU above the factors it leaves; at w =
    PANEL_SIZE it stays within what the factors' own growth has touched.
    The panel changes neither the ordering nor the fill, and the
    factorization got faster.  Unit disk, X = (1, 0), complex P - (1 +
    0.5i) at h = 0.02 and real P - 0.25 at h = 0.05; the spike is the peak
    RSS after the call minus the RSS after it, in a fresh process; the
    time is the median of 3-9 alternating calls on a 2-core box:

        n        A        L+U nnz      spike MB, w = 20 / 2   time s, w = 20 / 2
        5,024    complex     188,940      2.4 / -0.1          0.015 / 0.013
        5,024    real        168,728      1.5 / -0.1          0.009 / 0.007
        20,108   complex     975,251      9.8 / -0.0          0.100 / 0.074
        20,108   real        904,756      6.6 / -0.1          0.055 / 0.039
        80,452   complex   4,631,186     39.5 / -0.2          0.567 / 0.497
        80,452   real      4,490,920     26.7 / -0.1          0.353 / 0.262
        321,696  complex  23,848,616    158.3 / -0.1          3.50  / 3.39
        321,696  real     23,309,812    106.8 / -0.1          2.37  / 2.10

    w = 1 leaves no spike either, but took 3.94 s at n = 321,696 complex;
    w = 4 left 6.1 MB at n = 80,452 complex, and w = 8 11-12 MB.  Solves
    take the same time at every w.  A tridiagonal P has no panel updates:
    its solves are byte-identical at every w (n = 799, 1,599 and 4,000).
    """
    import scipy.sparse.linalg as spla
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     panel_size=PANEL_SIZE, options={"SymmetricMode": True})


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
        ks = np.arange(1, k_max + 1)
        return Xn2 / 4.0 + h * h * (np.pi * ks / domain.diameter()) ** 2
    if isinstance(domain, Disk):
        if k_max == 1:
            # j_{0,1} as scipy's jn_zeros(0, 1) gives it: the exit-time
            # lambda check then runs without scipy
            zeros = np.array([2.4048255576957724])
        else:
            from scipy.special import jn_zeros
            # j_{m,k}, twice for m > 0 (the cos/sin degeneracy)
            zeros = np.concatenate([np.tile(jn_zeros(m, k_max), 1 + (m > 0))
                                    for m in range(k_max + 6)])
        return Xn2 / 4.0 + h * h * np.sort((zeros / domain.radius) ** 2)[:k_max]
    raise OracleUnavailableError(
        f"no closed-form spectrum for {type(domain).__name__}")
