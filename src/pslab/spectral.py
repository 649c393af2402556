"""Resolvent-norm scans, eigenvalues, and pseudomode localization.

sigma_min(P - z) is ||A v|| for the top eigenvector v of the Hermitian
v -> A^{-1} A^{-H} v, which ARPACK finds from one sparse LU of A = P - z at
every n (Wright & Trefethen, SIAM J. Sci. Comput. 2001); a dense SVD is the
test oracle only.  1/sigma_min is the discrete resolvent norm, so decay of
sigma_min in h certifies pseudospectral growth.  Inside the region
Re z >= (Im z)^2/|X|^2 that decay makes the top eigenvalue stand alone,
and a 6-vector Lanczos basis converges in about half the solves of the
12-vector basis used elsewhere.  P is real, so sigma_min(P - conj z) =
sigma_min(P - z), and a scan rectangle symmetric about the real axis solves
only its rows with Im z <= 0.  Eigenvalues are shift-invert ARPACK in
real arithmetic on one LU of P - shift, to the same 1e-10 Ritz tolerance;
a value P cannot have (below |X|^2/4, or off the real axis) marks the
result unconverged.
P comes from ``operators.grid_operator``, on the lattice nodes where
``domain.contains`` holds, and both LUs from ``operators.factorize``.

Localization profiles bin the squared modulus of the minimal singular vector
by distance to the boundary and by boundary-arc position tagged with the
illuminated/glancing/shadow classification.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry
from .errors import ResolutionError
from .operators import GridOperator, factorize, grid_operator

SIGMA_FLOOR_FACTOR = 1e-14
_SEED = 20210607
# ARPACK basis for z outside the region, measured on the 8x6 interval scan
# at n = 1,599: every sigma > 1e-6 matches the dense SVD to 2e-12 at ncv 8,
# 12 or 20, in 2,276, 1,704 and 1,718 solve pairs
LANCZOS_NCV = 12
# basis for z in the region, where sigma_min is exponentially small and the
# top eigenvalue of A^{-1} A^{-H} stands far above the rest; applications by
# ncv on the disk pseudomode (n = 80,452, h = 0.02, z = 1+0.5i) and summed
# over the interval scan's 66 in-region z (h = 0.05, 0.01, 0.005):
#   ncv        3    4    5    6    7    8   12
#   disk      10    7    9    7    8    9   13
#   interval 290  338  402  462  528  594  858
# 6 is the smallest basis whose first cycle, ncv + 1 applications, converges
# at every z of both
LANCZOS_NCV_IN_REGION = 6
# Ritz tolerance of both ARPACK calls; the disk spectrum's discretization
# error against its oracle is 8.7e-4 relative, so digits past 1e-10 buy
# nothing (ARPACK's default, machine precision, took 46 solves there, not 33)
LANCZOS_TOL = 1e-10
# localization profile bins: distance to the boundary, and boundary arcs (2D)
_RADIAL_BINS = 32
_ARC_BINS = 64
_ARC_SAMPLES = 4096          # classified boundary samples behind the arc bins


@dataclass
class SigmaMin:
    value: float
    vector: np.ndarray
    converged: bool
    at_floor: bool
    method: str
    iterations: int = 0     # applications of A^{-1} A^{-H}


def smallest_singular_value(op: GridOperator, z: complex,
                            method: str = "sparse") -> SigmaMin:
    """sigma_min of (P - z) and the minimal (right) singular vector.

    ``method="dense"`` is the full-SVD oracle.  Values below
    SIGMA_FLOOR_FACTOR * ||P|| are reported as that floor, ``at_floor``.
    """
    A = op.shifted(z).tocsc()
    n = A.shape[0]
    floor = SIGMA_FLOOR_FACTOR * op.norm_estimate()
    if method == "dense":
        _, s, vh = np.linalg.svd(A.toarray())
        val = float(s[-1])
        return SigmaMin(max(val, floor), vh[-1].conj(), True, val < floor,
                        "dense-svd")

    rng = np.random.default_rng(_SEED)
    v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    v0 /= np.linalg.norm(v0)
    try:
        lu = factorize(A)
    except RuntimeError:
        # z is numerically an eigenvalue: factorization breakdown
        return SigmaMin(floor, v0, True, True, "singular-factorization")
    last, applied = v0, 0

    def normal_inverse(v):
        nonlocal last, applied
        applied += 1
        y = lu.solve(lu.solve(v, trans="H"))
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("solve overflowed")
        last = y
        return y

    B = spla.LinearOperator((n, n), matvec=normal_inverse, dtype=complex)
    ncv = (LANCZOS_NCV_IN_REGION if in_region(np.real(z), np.imag(z), op.X)
           else LANCZOS_NCV)
    converged = True
    try:
        _, vecs = spla.eigsh(B, k=1, which="LM", v0=v0,
                             ncv=min(ncv, n), tol=LANCZOS_TOL)
    except FloatingPointError:
        # z is numerically an eigenvalue: the solve overflowed
        return SigmaMin(floor, last / np.linalg.norm(last), True, True,
                        "lanczos", applied)
    except spla.ArpackNoConvergence as e:
        # the Ritz vector ARPACK returns, else the last iterate
        converged = False
        vecs = e.eigenvectors if e.eigenvectors.shape[1] else last[:, None]
    v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    sigma = float(np.linalg.norm(A @ v))      # Rayleigh step
    return SigmaMin(max(sigma, floor), v, converged, sigma < floor,
                    "lanczos", applied)


# ===================================================================== #
#  pseudospectrum scan
# ===================================================================== #

@dataclass
class PseudospectrumGrid:
    re_values: np.ndarray
    im_values: np.ndarray
    sigma: np.ndarray            # (n_im, n_re)
    at_floor: np.ndarray
    converged: np.ndarray
    in_region: np.ndarray


def in_region(re_z, im_z, X):
    """Re z >= (Im z)^2 / |X|^2, elementwise: where sigma_min(P - z) is
    exponentially small in 1/h (the boundary-driven pseudospectrum)."""
    res = np.linalg.norm(np.atleast_1d(np.asarray(X, dtype=float)))
    return re_z >= im_z ** 2 / res ** 2


def pseudospectrum_scan(domain, X, rect: tuple, resolution: tuple,
                        h_values: Sequence[float]) -> list[PseudospectrumGrid]:
    """sigma_min over a z-rectangle for each h; dx = h / 8, which on an
    interval of length L is n = round(8 L / h) - 1 interior points.

    rect = (re_min, re_max, im_min, im_max); resolution = (n_re, n_im).

    A rectangle symmetric about the real axis (im_min == -im_max) costs
    half: only the rows with Im z <= 0 are solved, and row n_im - 1 - j
    takes row j's sigma, at_floor and converged (an odd middle row is its
    own twin).  P is real, so P - conj z = conj(P - z) has the same
    singular values.  Rows pair by index: linspace's twin of z may sit a
    few ulps off conj z, and sigma_min is 1-Lipschitz in z, so the exact
    value moves by at most about 4e-16, far below the solver's own
    eps ||P|| accuracy.
    """
    re_min, re_max, im_min, im_max = rect
    n_re, n_im = resolution
    # rows solved; the rest mirror them
    solved = (n_im + 1) // 2 if im_min == -im_max else n_im
    out = []
    for h in h_values:
        op = grid_operator(domain, h, X, h / 8)
        res_vals = np.linspace(re_min, re_max, n_re)
        im_vals = np.linspace(im_min, im_max, n_im)
        # sigma, at_floor and converged of each z
        stats = np.empty((3, n_im, n_re))
        for j, b in enumerate(im_vals[:solved]):
            for i, a in enumerate(res_vals):
                sm = smallest_singular_value(op, complex(a, b))
                stats[:, j, i] = sm.value, sm.at_floor, sm.converged
        stats[:, solved:] = stats[:, :n_im - solved][:, ::-1]
        out.append(PseudospectrumGrid(
            res_vals, im_vals, stats[0], stats[1] > 0, stats[2] > 0,
            in_region(res_vals[None, :], im_vals[:, None], X)))
    return out


def fit_exponential_rate(h_values: Sequence[float], sigma: Sequence[float],
                         at_floor: Optional[Sequence[bool]] = None) -> dict:
    """Fit log sigma_min = -c/h + b; returns c, b, and R^2.

    Floor-flagged points are excluded: below the floor the values carry no
    information beyond double precision.
    """
    h = np.asarray(h_values, dtype=float)
    s = np.asarray(sigma, dtype=float)
    keep = np.ones(len(h), dtype=bool)
    if at_floor is not None:
        keep &= ~np.asarray(at_floor, dtype=bool)
    h, s = h[keep], s[keep]
    if len(h) < 3:
        raise ValueError("need at least three points above the floor")
    xs = 1.0 / h
    ys = np.log(s)
    coef = np.polyfit(xs, ys, 1)
    pred = np.polyval(coef, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return {"c": -float(coef[0]), "intercept": float(coef[1]),
            "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
            "n_used": len(h)}


# ===================================================================== #
#  eigenvalues
# ===================================================================== #

@dataclass
class EigenResult:
    values: np.ndarray
    converged: bool             # ARPACK converged and every value is trusted


def eigenvalues(op: GridOperator, k: int, sigma_shift: float = 0.0
                ) -> EigenResult:
    """k eigenvalues of smallest real part (shift-invert near sigma_shift).

    ``converged`` is False when ARPACK stops short, and also when a value
    it returns cannot be an eigenvalue of P.  For constant X,
    e^{-<X,x>/2h} P e^{<X,x>/2h} = -h^2 Laplace + |X|^2/4 is self-adjoint,
    so every exact eigenvalue is real and at least |X|^2/4.  The rows whose
    stencils have only dx arms keep this on the lattice: the per-axis
    scaling of ``operators.symmetrizer_1d`` makes them symmetric, with the
    diagonal shift sum_i (X_i^2/2) / (1 + s_i), s_i = sqrt(1 - t_i^2) and
    t_i = X_i dx/2h.  That shift exceeds |X|^2/4 by

        delta = sum_i (X_i^2/4) t_i^2 / (1 + s_i)^2  (about |X|^4 dx^2/64h^2),

    the discretization's own departure from the continuum's shift.  The
    Shortley-Weller rows are not symmetrized, so a discrete eigenvalue may
    leave the real axis, but only at the discretization's error, which
    delta measures.  A value with Re < |X|^2/4 or |Im| > delta is the
    solver's: the eigenvalue condition numbers grow like e^{|X| diam/2h},
    so at small h ARPACK's backward error swamps the discretization's.  On
    the unit disk, X = (1, 0), h = 0.01 the values reach Re 0.2473 at dx =
    0.02 and 0.2491 at dx = 0.01, below the exact 0.250578; on [0, 1] at
    h = 0.005, n = 4,000, whose P is similar to a symmetric matrix, they
    carry |Im| 6.8e-4 against delta = 3.9e-5.  Real Ritz values come back
    with Im exactly 0.
    """
    if k > op.n // 4:
        raise ResolutionError(
            f"k = {k} exceeds a quarter of the dimension {op.n}: refine the grid")
    if np.iscomplexobj(sigma_shift):
        raise TypeError(f"the shift must be real, got {sigma_shift!r}")
    shift = float(sigma_shift)
    A = op.matrix.tocsc()
    lu = factorize(A - shift * sp.identity(op.n, format="csc"))
    OPinv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype)
    # a fixed ARPACK start vector: without one, scipy seeds it from OS
    # entropy and the returned eigenvalues vary between runs
    v0 = np.random.default_rng(_SEED).standard_normal(op.n)
    try:
        vals = spla.eigs(A, k=k, sigma=shift, v0=v0, OPinv=OPinv,
                         tol=LANCZOS_TOL, return_eigenvectors=False)
    except spla.ArpackNoConvergence as e:
        got = np.sort_complex(e.eigenvalues)
        return EigenResult(got, False)
    X = np.asarray(op.X, dtype=float)
    t = X * op.dx / (2.0 * op.h)
    delta = float(np.sum(X * X / 4.0 * (t / (1.0 + np.sqrt(
        np.maximum(1.0 - t * t, 0.0)))) ** 2))
    trusted = np.all(vals.real >= X @ X / 4.0) \
        and np.all(np.abs(vals.imag) <= delta)
    return EigenResult(vals[np.argsort(vals.real)], bool(trusted))


# ===================================================================== #
#  localization profiles
# ===================================================================== #

@dataclass
class LocalizationProfile:
    radial_edges: np.ndarray
    radial_mass: np.ndarray
    arc_centers: np.ndarray       # boundary parameter of each arc bin
    arc_mass: np.ndarray
    arc_class: np.ndarray         # class of the sample at each arc center
    node_mass: np.ndarray
    node_points: np.ndarray

    def check_normalized(self, tol: float = 1e-10):
        for name, arr in (("radial", self.radial_mass), ("arc", self.arc_mass)):
            total = float(np.sum(arr))
            if abs(total - 1.0) > tol:
                raise AssertionError(f"{name} profile sums to {total}")

    def mass_near_points(self, pts: np.ndarray, dist: float) -> float:
        from scipy.spatial import cKDTree
        tree = cKDTree(np.atleast_2d(pts))
        d, _ = tree.query(self.node_points)
        return float(np.sum(self.node_mass[d <= dist]))

    def mass_in_cap(self, center, radius: float) -> float:
        c = np.asarray(center, dtype=float)
        d = np.linalg.norm(self.node_points - c[None, :], axis=1)
        return float(np.sum(self.node_mass[d <= radius]))

    def mass_by_class(self) -> dict:
        out: dict = {}
        for cls, m in zip(self.arc_class, self.arc_mass):
            out[cls] = out.get(cls, 0.0) + float(m)
        return out


def localization_profile(op: GridOperator, vector: np.ndarray, field_X
                         ) -> LocalizationProfile:
    """Mass profile of |v|^2 over the operator grid against the boundary."""
    mass = np.abs(vector) ** 2
    mass = mass / mass.sum()
    pts = op.points
    domain = op.domain
    dist = np.abs(domain.signed_distance(pts))
    if op.dimension == 1:
        classes = geometry.classify_boundary(domain, field_X, 2).classes
        arc_t = np.where(pts[:, 0] - domain.a < domain.b - pts[:, 0], 0.0, 1.0)
        arc_mass = np.array([mass[arc_t == 0.0].sum(), mass[arc_t == 1.0].sum()])
        arc_centers = np.array([0.0, 1.0])
    else:
        samples = geometry.classify_boundary(domain, field_X, _ARC_SAMPLES)
        from scipy.spatial import cKDTree
        # deep nodes are near-equidistant from every sample, so the tree
        # prunes little and large leaves cost less than deep descents; the
        # query runs on every core the process may use
        _, nearest = cKDTree(samples.points, leafsize=128).query(
            pts, workers=len(os.sched_getaffinity(0)))
        arc_t = samples.t[nearest]
        edges = np.linspace(0.0, 1.0, _ARC_BINS + 1)
        which = np.clip(np.searchsorted(edges, arc_t, side="right") - 1,
                        0, _ARC_BINS - 1)
        arc_mass = np.bincount(which, weights=mass, minlength=_ARC_BINS)
        arc_centers = 0.5 * (edges[:-1] + edges[1:])
        classes = samples.classes[
            np.round(arc_centers * _ARC_SAMPLES).astype(int) % _ARC_SAMPLES]
    rmax = float(dist.max()) + 1e-12
    redges = np.linspace(0.0, rmax, _RADIAL_BINS + 1)
    rbin = np.clip(np.searchsorted(redges, dist, side="right") - 1,
                   0, _RADIAL_BINS - 1)
    rmass = np.bincount(rbin, weights=mass, minlength=_RADIAL_BINS)
    prof = LocalizationProfile(redges, rmass, arc_centers, arc_mass, classes,
                               mass, pts)
    prof.check_normalized()
    return prof


def pseudomode_localization(op: GridOperator, z: complex, field_X
                            ) -> tuple[SigmaMin, LocalizationProfile]:
    """Minimal singular vector of (P - z) and its localization profile."""
    sm = smallest_singular_value(op, z)
    prof = localization_profile(op, sm.vector, field_X)
    return sm, prof
