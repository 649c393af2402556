"""Resolvent-norm scans, eigenvalues, and pseudomode localization.

sigma_min(P - z) is computed by power iteration on (A^H A)^{-1} using one
sparse LU factorization of A = P - z (solves with A and A^H share it), with
a dense SVD fallback/oracle for small problems.  1/sigma_min is the discrete
resolvent norm, so decay of sigma_min in h certifies pseudospectral growth.

Localization profiles bin the squared modulus of the minimal singular vector
by distance to the boundary, by boundary-arc position tagged with the
illuminated/glancing/shadow classification, and by distance to the predicted
concentration arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import ResolutionError
from .geometry import classify_boundary
from .operators import GridOperator, assemble_1d, assemble_2d

SIGMA_FLOOR_FACTOR = 1e-14
_SEED = 20210607


@dataclass
class SigmaMin:
    value: float
    vector: np.ndarray
    converged: bool
    at_floor: bool
    method: str
    iterations: int = 0


def smallest_singular_value(op: GridOperator, z: complex,
                            method: str = "auto",
                            tol: float = 1e-10, maxit: int = 1000) -> SigmaMin:
    """sigma_min of (P - z) and the minimal (right) singular vector."""
    A = op.shifted(z).tocsc()
    n = A.shape[0]
    floor = SIGMA_FLOOR_FACTOR * op.norm_estimate()
    if method == "dense" or (method == "auto" and n <= 400):
        dense = A.toarray()
        u, s, vh = np.linalg.svd(dense)
        val = float(s[-1])
        vec = vh[-1].conj()
        if val < floor:
            return SigmaMin(floor, vec, True, True, "dense-svd")
        return SigmaMin(val, vec, True, False, "dense-svd")

    try:
        lu = spla.splu(A)
    except RuntimeError:
        # z is numerically an eigenvalue: factorization breakdown
        rng = np.random.default_rng(_SEED)
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        return SigmaMin(floor, vec, True, True, "singular-factorization")

    rng = np.random.default_rng(_SEED)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    sigma_prev = np.inf
    sigma = np.inf
    it = 0
    for it in range(1, maxit + 1):
        w = lu.solve(v, trans="H")
        y = lu.solve(w, trans="N")
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0.0:
            return SigmaMin(floor, v, True, True, "inverse-iteration")
        v = y / ny
        sigma = 1.0 / math.sqrt(ny)
        if sigma < 0.3 * floor and it >= 3:
            break   # far below double-precision trust: stop iterating
        if abs(sigma - sigma_prev) <= tol * sigma:
            break
        sigma_prev = sigma
    # Rayleigh polish: sigma = ||A v|| for the converged direction
    sigma = float(np.linalg.norm(A @ v))
    converged = it < maxit
    if sigma < floor:
        return SigmaMin(floor, v, converged, True, "inverse-iteration", it)
    return SigmaMin(sigma, v, converged, False, "inverse-iteration", it)


# ===================================================================== #
#  pseudospectrum scan
# ===================================================================== #

@dataclass
class PseudospectrumGrid:
    re_values: np.ndarray
    im_values: np.ndarray
    sigma: np.ndarray            # (n_im, n_re)
    at_floor: np.ndarray
    in_region: np.ndarray
    h: float
    field_norm: float
    dx: float

    def parabola_overlay(self, n: int = 200) -> np.ndarray:
        """Points of Re z = (Im z)^2 / |X|^2 within the scanned window."""
        im = np.linspace(self.im_values.min(), self.im_values.max(), n)
        re = im ** 2 / self.field_norm ** 2
        keep = (re >= self.re_values.min()) & (re <= self.re_values.max())
        return np.column_stack([re[keep], im[keep]])

    def rows(self):
        for j, b in enumerate(self.im_values):
            for i, a in enumerate(self.re_values):
                yield a, b, self.sigma[j, i], bool(self.in_region[j, i])


def _operator_for(domain, h: float, X, dx: float) -> GridOperator:
    if domain.dimension == 1:
        n = max(8, int(round((domain.b - domain.a) / dx)) - 1)
        return assemble_1d(domain, h, X, n)
    return assemble_2d(domain, h, X, dx)


def pseudospectrum_scan(domain, X, rect: tuple, resolution: tuple,
                        h_values: Sequence[float],
                        dx_rule: float = 8.0) -> list[PseudospectrumGrid]:
    """sigma_min over a z-rectangle for each h; dx = h / dx_rule.

    rect = (re_min, re_max, im_min, im_max); resolution = (n_re, n_im).
    """
    re_min, re_max, im_min, im_max = rect
    n_re, n_im = resolution
    res = np.linalg.norm(np.atleast_1d(np.asarray(X, dtype=float)))
    out = []
    for h in h_values:
        dx = h / dx_rule
        if domain.dimension == 2 and domain.diameter() / dx < 16:
            raise ResolutionError(
                f"dx = h/{dx_rule} under-resolves the domain at h = {h}")
        op = _operator_for(domain, h, X, dx)
        res_grid = np.empty((n_im, n_re))
        floor_grid = np.zeros((n_im, n_re), dtype=bool)
        res_vals = np.linspace(re_min, re_max, n_re)
        im_vals = np.linspace(im_min, im_max, n_im)
        for j, b in enumerate(im_vals):
            for i, a in enumerate(res_vals):
                sm = smallest_singular_value(op, complex(a, b))
                res_grid[j, i] = sm.value
                floor_grid[j, i] = sm.at_floor
        in_region = res_vals[None, :] >= (im_vals[:, None] ** 2) / res ** 2
        out.append(PseudospectrumGrid(res_vals, im_vals, res_grid, floor_grid,
                                      in_region, h, res, dx))
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
    converged: bool


def eigenvalues(op: GridOperator, k: int, sigma_shift: complex = 0.0
                ) -> EigenResult:
    """k eigenvalues of smallest real part (shift-invert near sigma_shift)."""
    if k > op.n // 4:
        raise ValueError("k must not exceed a quarter of the dimension")
    if op.n <= 400:
        vals = np.linalg.eigvals(op.matrix.toarray())
        order = np.argsort(vals.real)
        return EigenResult(vals[order][:k], True)
    A = op.matrix.tocsc()
    # a fixed ARPACK start vector: without one, scipy seeds it from OS
    # entropy and the returned eigenvalues vary between runs
    v0 = np.random.default_rng(_SEED).standard_normal(op.n).astype(A.dtype)
    try:
        vals = spla.eigs(A, k=k, sigma=sigma_shift, v0=v0,
                         return_eigenvectors=False)
        order = np.argsort(vals.real)
        return EigenResult(vals[order], True)
    except spla.ArpackNoConvergence as e:
        got = np.sort_complex(e.eigenvalues)
        return EigenResult(got, False)


# ===================================================================== #
#  localization profiles
# ===================================================================== #

@dataclass
class LocalizationProfile:
    radial_edges: np.ndarray
    radial_mass: np.ndarray
    arc_centers: np.ndarray       # boundary parameter of each arc bin
    arc_mass: np.ndarray
    arc_class: list
    node_mass: np.ndarray
    node_points: np.ndarray
    node_boundary_dist: np.ndarray
    node_arc_t: np.ndarray
    support_dist_edges: Optional[np.ndarray] = None
    support_dist_mass: Optional[np.ndarray] = None

    def check_normalized(self, tol: float = 1e-10):
        for name, arr in (("radial", self.radial_mass), ("arc", self.arc_mass)):
            total = float(np.sum(arr))
            if abs(total - 1.0) > tol:
                raise AssertionError(f"{name} profile sums to {total}")

    def mass_near_points(self, pts: np.ndarray, dist: float) -> float:
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


def localization_profile(op: GridOperator, vector: np.ndarray, field_X,
                         n_radial: int = 32, n_arc: int = 64,
                         support_points: Optional[np.ndarray] = None
                         ) -> LocalizationProfile:
    """Mass profile of |v|^2 over the operator grid against the boundary."""
    mass = np.abs(vector) ** 2
    mass = mass / mass.sum()
    pts = op.points
    domain = op.domain
    if op.dimension == 1:
        dist = np.minimum(pts[:, 0] - domain.a, domain.b - pts[:, 0])
        bnd_pts = np.array([[domain.a], [domain.b]])
        ts = np.array([0.0, 1.0])
        classes = [s.classification
                   for s in classify_boundary(domain, field_X, 2)]
        arc_t = np.where(pts[:, 0] - domain.a < domain.b - pts[:, 0], 0.0, 1.0)
        arc_mass = np.array([mass[arc_t == 0.0].sum(), mass[arc_t == 1.0].sum()])
        arc_centers = ts
    else:
        dist = np.abs(domain.signed_distance(pts))
        n_samp = 4096
        samples = classify_boundary(domain, field_X, n_samp)
        bnd_pts = np.array([s.point for s in samples])
        bnd_t = np.array([s.t for s in samples])
        tree = cKDTree(bnd_pts)
        _, nearest = tree.query(pts)
        arc_t = bnd_t[nearest]
        edges = np.linspace(0.0, 1.0, n_arc + 1)
        which = np.clip(np.searchsorted(edges, arc_t, side="right") - 1,
                        0, n_arc - 1)
        arc_mass = np.bincount(which, weights=mass, minlength=n_arc)
        arc_centers = 0.5 * (edges[:-1] + edges[1:])
        classes = []
        for c in arc_centers:
            k = int(round(c * n_samp)) % n_samp
            classes.append(samples[k].classification)
    rmax = float(dist.max()) + 1e-12
    redges = np.linspace(0.0, rmax, n_radial + 1)
    rbin = np.clip(np.searchsorted(redges, dist, side="right") - 1,
                   0, n_radial - 1)
    rmass = np.bincount(rbin, weights=mass, minlength=n_radial)

    sup_edges = sup_mass = None
    if support_points is not None and len(support_points):
        tree = cKDTree(np.atleast_2d(support_points))
        sd, _ = tree.query(pts)
        smax = float(sd.max()) + 1e-12
        sup_edges = np.linspace(0.0, smax, n_radial + 1)
        sbin = np.clip(np.searchsorted(sup_edges, sd, side="right") - 1,
                       0, n_radial - 1)
        sup_mass = np.bincount(sbin, weights=mass, minlength=n_radial)

    prof = LocalizationProfile(redges, rmass, arc_centers, arc_mass, classes,
                               mass, pts, dist, arc_t, sup_edges, sup_mass)
    prof.check_normalized()
    return prof


def pseudomode_localization(op: GridOperator, z: complex, field_X,
                            support_points: Optional[np.ndarray] = None,
                            n_radial: int = 32, n_arc: int = 64
                            ) -> tuple[SigmaMin, LocalizationProfile]:
    """Minimal singular vector of (P - z) and its localization profile."""
    sm = smallest_singular_value(op, z)
    prof = localization_profile(op, sm.vector, field_X, n_radial, n_arc,
                                support_points)
    return sm, prof
