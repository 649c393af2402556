"""Bounded domains, boundary sampling, and field-relative classification.

Domains are intervals (d=1) or planar regions (d=2) bounded by a closed
curve: disk, ellipse or simple polygon, the four types a config can name.
The boundary carries a parameter t in [0,1) increasing counterclockwise.

Against a constant vector field X, boundary points split into illuminated
(<X,nu> > 0), shadow (<X,nu> < 0) and glancing (|<X,nu>| <= GLANCING_TOL)
parts, where nu is the outward unit normal.  ``classify_boundary`` returns the
samples as columns (``BoundarySamples``): parameters, points, normals,
curvatures and classes.  ``boundary_frame`` builds the local orthonormal
frame used by the phase construction: nu, the tangent (the unit tangential
part of X when X is oblique), the normal component nu1 = <X/|X|, nu> and the
tangential magnitude X'.

Curvature is signed positive for convex boundaries (a disk of radius r has
curvature +1/r everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GeometryError, InvalidDomainError, InvalidFieldError
from .jets import Jet

GLANCING_TOL = 1e-10
_ON_BOUNDARY_TOL = 1e-10
INSIDE_TOL = 1e-9       # closed-domain membership, relative to the diameter
_SCRATCH = 1 << 18      # point-by-block and edge-pair entries per chunk
_SD_VERTICES = 4096     # the polygon behind a curved domain's signed distance


# ===================================================================== #
#  domains
# ===================================================================== #

class Interval:
    """Bounded interval (a, b); its points are (n, 1) arrays, like 2-D ones."""

    dimension = 1

    def __init__(self, a: float, b: float):
        if not a < b:
            raise InvalidDomainError(f"interval needs a < b, got [{a}, {b}]")
        self.a = float(a)
        self.b = float(b)

    def signed_distance(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        return np.maximum(self.a - x, x - self.b)

    def contains(self, x) -> np.ndarray:
        return self.signed_distance(x) < 0.0

    def diameter(self) -> float:
        return self.b - self.a

    def __repr__(self):
        return f"Interval({self.a}, {self.b})"


class _PlanarDomain:
    """Shared machinery for smooth planar domains parametrized on [0,1)."""

    dimension = 2

    # subclasses implement _point/_velocity/_accel on arrays of t
    def boundary_points(self, t) -> np.ndarray:
        return self._point(np.atleast_1d(np.asarray(t, dtype=float)))

    def boundary_normal(self, t) -> np.ndarray:
        v = self._velocity(np.atleast_1d(np.asarray(t, dtype=float)))
        speed = np.linalg.norm(v, axis=1, keepdims=True)
        tang = v / speed
        # CCW orientation: outward normal is the tangent rotated -90 degrees
        return np.column_stack([tang[:, 1], -tang[:, 0]])

    def boundary_curvature(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        v = self._velocity(t)
        a = self._accel(t)
        speed2 = np.sum(v * v, axis=1)
        return (v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]) / speed2 ** 1.5

    def _polyline(self, n: int) -> np.ndarray:
        return self.boundary_points(np.arange(n) / n)

    def polygonize(self, n: int) -> "Polygon":
        """The inscribed n-gon, built (and its simplicity checked) once per n."""
        if not hasattr(self, "_polygons"):
            self._polygons = {}
        if n not in self._polygons:
            self._polygons[n] = Polygon(self._polyline(n))
        return self._polygons[n]

    def signed_distance(self, pts) -> np.ndarray:
        return _polygon_signed_distance(pts, self._sd_cache())

    def contains(self, pts) -> np.ndarray:
        return self.signed_distance(pts) < 0.0

    def covers(self, pts) -> np.ndarray:
        """Closed membership: signed distance at most INSIDE_TOL diameters
        plus twice the sagitta, the largest signed distance of the boundary
        between the vertices of the polygon behind a curve's distance (3.5e-7
        on an ellipse; 0 up to rounding where the distance is exact)."""
        if not hasattr(self, "_cover_tol"):
            n = _SD_VERTICES
            mid = self.boundary_points((np.arange(n) + 0.5) / n)
            sagitta = max(float(np.max(self.signed_distance(mid))), 0.0)
            self._cover_tol = INSIDE_TOL * max(self.diameter(), 1.0) + 2 * sagitta
        return self.signed_distance(pts) <= self._cover_tol

    def _sd_cache(self) -> np.ndarray:
        if not hasattr(self, "_sd_poly"):
            self._sd_poly = self._polyline(_SD_VERTICES)
        return self._sd_poly

    def boundary_parameter(self, x0) -> float:
        """Parameter of the boundary point closest to x0 (refined)."""
        x0 = np.asarray(x0, dtype=float)
        n = 4096
        ts = np.arange(n) / n
        pts = self.boundary_points(ts)
        k = int(np.argmin(np.sum((pts - x0) ** 2, axis=1)))
        t = ts[k]
        # Newton refinement on f(t) = <p(t)-x0, p'(t)>
        for _ in range(60):
            p = self._point(np.array([t]))[0]
            v = self._velocity(np.array([t]))[0]
            a = self._accel(np.array([t]))[0]
            f = np.dot(p - x0, v)
            fp = np.dot(v, v) + np.dot(p - x0, a)
            if fp == 0.0:
                break
            step = f / fp
            t = (t - step) % 1.0
            if abs(step) < 1e-15:
                break
        return float(t)

    def diameter(self) -> float:
        if not hasattr(self, "_diameter"):
            self._diameter = _vertex_diameter(self._sd_cache()[::16])
        return self._diameter


class Disk(_PlanarDomain):
    def __init__(self, center, radius: float):
        if radius <= 0:
            raise InvalidDomainError("disk radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def _point(self, t):
        th = 2 * np.pi * t
        return self.center + self.radius * np.column_stack([np.cos(th), np.sin(th)])

    def _velocity(self, t):
        th = 2 * np.pi * t
        return 2 * np.pi * self.radius * np.column_stack([-np.sin(th), np.cos(th)])

    def _accel(self, t):
        th = 2 * np.pi * t
        return -(2 * np.pi) ** 2 * self.radius * np.column_stack([np.cos(th), np.sin(th)])

    def signed_distance(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) - self.radius

    def boundary_parameter(self, x0):
        v = np.asarray(x0, dtype=float) - self.center
        return float((np.arctan2(v[1], v[0]) / (2 * np.pi)) % 1.0)

    def diameter(self):
        return 2 * self.radius

    def __repr__(self):
        return f"Disk({self.center.tolist()}, {self.radius})"


class Ellipse(_PlanarDomain):
    def __init__(self, center, semi_axes, angle: float = 0.0):
        ax = np.asarray(semi_axes, dtype=float)
        if np.any(ax <= 0):
            raise InvalidDomainError("ellipse semi-axes must be positive")
        self.center = np.asarray(center, dtype=float)
        self.semi_axes = ax
        self.angle = float(angle)
        c, s = np.cos(self.angle), np.sin(self.angle)
        self.rot = np.array([[c, -s], [s, c]])

    def _point(self, t):
        th = 2 * np.pi * t
        loc = np.column_stack([self.semi_axes[0] * np.cos(th),
                               self.semi_axes[1] * np.sin(th)])
        return self.center + loc @ self.rot.T

    def _velocity(self, t):
        th = 2 * np.pi * t
        loc = 2 * np.pi * np.column_stack([-self.semi_axes[0] * np.sin(th),
                                           self.semi_axes[1] * np.cos(th)])
        return loc @ self.rot.T

    def _accel(self, t):
        th = 2 * np.pi * t
        loc = -(2 * np.pi) ** 2 * np.column_stack([self.semi_axes[0] * np.cos(th),
                                                   self.semi_axes[1] * np.sin(th)])
        return loc @ self.rot.T

    def implicit(self, pts) -> np.ndarray:
        """F(x) = (u/a)^2 + (v/b)^2 - 1 in body coordinates (u, v)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        loc = (pts - self.center) @ self.rot
        return (loc[:, 0] / self.semi_axes[0]) ** 2 + \
               (loc[:, 1] / self.semi_axes[1]) ** 2 - 1.0

    def __repr__(self):
        return (f"Ellipse({self.center.tolist()}, {self.semi_axes.tolist()}, "
                f"{self.angle})")


class Polygon:
    """Simple counterclockwise polygon; boundary parameter is arclength fraction."""

    dimension = 2

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise InvalidDomainError("polygon needs >= 3 planar vertices")
        if _polygon_area(v) <= 0:
            raise InvalidDomainError("polygon must be counterclockwise")
        if _polyline_self_intersects(v):
            raise InvalidDomainError("polygon is not simple")
        self.vertices = v
        e = np.roll(v, -1, axis=0) - v
        self.edge_len = np.linalg.norm(e, axis=1)
        self.cum = np.concatenate([[0.0], np.cumsum(self.edge_len)])
        self.perimeter = self.cum[-1]

    def boundary_points(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = self._edge_of(t)
        frac = ((t % 1.0) * self.perimeter - self.cum[idx]) / self.edge_len[idx]
        v0 = self.vertices[idx]
        v1 = self.vertices[(idx + 1) % len(self.vertices)]
        return v0 + frac[:, None] * (v1 - v0)

    def _edge_of(self, t):
        s = (np.atleast_1d(t) % 1.0) * self.perimeter
        return np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0,
                       len(self.edge_len) - 1)

    def boundary_normal(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float)) % 1.0
        idx = self._edge_of(t)
        s = t * self.perimeter
        at_vertex = np.abs(s - self.cum[idx]) < 1e-12 * max(self.perimeter, 1.0)
        n = self._edge_normals()[idx]
        if np.any(at_vertex):
            # angular bisector of the two adjacent edge normals
            prev = (idx - 1) % len(self.edge_len)
            mix = self._edge_normals()[idx] + self._edge_normals()[prev]
            norms = np.linalg.norm(mix, axis=1, keepdims=True)
            good = norms[:, 0] > 1e-12
            bis = np.where(good[:, None], mix / np.maximum(norms, 1e-300),
                           self._edge_normals()[idx])
            n = np.where(at_vertex[:, None], bis, n)
        return n

    def boundary_curvature(self, t):
        return np.zeros(np.atleast_1d(t).shape[0])

    def _edge_normals(self):
        if not hasattr(self, "_enorm"):
            e = np.roll(self.vertices, -1, axis=0) - self.vertices
            tang = e / self.edge_len[:, None]
            self._enorm = np.column_stack([tang[:, 1], -tang[:, 0]])
        return self._enorm

    def signed_distance(self, pts):
        return _polygon_signed_distance(pts, self.vertices)

    contains = _PlanarDomain.contains
    covers = _PlanarDomain.covers

    def boundary_parameter(self, x0):
        x0 = np.asarray(x0, dtype=float)
        v0 = self.vertices
        v1 = np.roll(v0, -1, axis=0)
        e = v1 - v0
        tt = np.clip(np.einsum("ij,ij->i", x0 - v0, e) / np.maximum(self.edge_len ** 2, 1e-300), 0, 1)
        proj = v0 + tt[:, None] * e
        k = int(np.argmin(np.sum((proj - x0) ** 2, axis=1)))
        s = self.cum[k] + tt[k] * self.edge_len[k]
        return float((s / self.perimeter) % 1.0)

    def polygonize(self, n: int):
        return self

    def diameter(self):
        if not hasattr(self, "_diameter"):
            self._diameter = _vertex_diameter(self.vertices)
        return self._diameter

    def __repr__(self):
        return f"Polygon(<{len(self.vertices)} vertices>)"


# ===================================================================== #
#  low-level planar helpers
# ===================================================================== #

def _vertex_diameter(v: np.ndarray) -> float:
    """Largest distance between two of the vertices, in chunks of rows."""
    rows = max(1, _SCRATCH // len(v))
    d2 = max(np.max(np.sum((v[lo:lo + rows, None, :] - v[None, :, :]) ** 2, axis=2))
             for lo in range(0, len(v), rows))
    return float(np.sqrt(d2))


def _polygon_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _polygon_signed_distance(pts, poly: np.ndarray) -> np.ndarray:
    """Signed distance to the closed polygon ``poly``, negative inside."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = _dist_to_polyline(pts, poly)
    return np.where(_inside_polygon(pts, poly), -d, d)


def _edge_blocks(v0: np.ndarray, v1: np.ndarray):
    """Runs of about sqrt(n) consecutive edges: their first index and the
    bounding box of their endpoints, (lo, hi) with one row per block."""
    size = max(16, math.isqrt(len(v0)))
    first = np.arange(0, len(v0), size)
    lo = np.minimum(np.minimum.reduceat(v0, first), np.minimum.reduceat(v1, first))
    hi = np.maximum(np.maximum.reduceat(v0, first), np.maximum.reduceat(v1, first))
    return first, size, lo, hi


def _point_chunks(n_points: int, n_blocks: int, size: int):
    """Slices of at most _SCRATCH // max(blocks, block size) points."""
    chunk = max(1, _SCRATCH // max(n_blocks, size))
    return (slice(lo, lo + chunk) for lo in range(0, n_points, chunk))


def _inside_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Crossing-number inside test.

    Only an edge whose y-range holds the point's y can cross its horizontal
    ray, so each point visits the edge blocks whose y-range holds it.
    """
    v1 = np.roll(poly, -1, axis=0)
    first, size, lo, hi = _edge_blocks(poly, v1)
    out = np.empty(pts.shape[0], dtype=bool)
    for c in _point_chunks(len(pts), len(first), size):
        x, y = pts[c, 0:1], pts[c, 1:2]
        # written as a negation so that a NaN coordinate visits every block
        visit = ~((y < lo[:, 1]) | (y > hi[:, 1]))
        count = np.zeros(len(x), dtype=np.int64)
        for b in np.flatnonzero(visit.any(axis=0)):
            rows = np.flatnonzero(visit[:, b])
            e = slice(first[b], first[b] + size)
            x0, y0, x1, y1 = poly[e, 0], poly[e, 1], v1[e, 0], v1[e, 1]
            cond = (y0 <= y[rows]) != (y1 <= y[rows])
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x0 + (y[rows] - y0) * (x1 - x0) / (y1 - y0)
            count[rows] += np.sum(cond & (x[rows] < xint), axis=1)
        out[c] = count % 2 == 1
    return out


def _dist_to_polyline(pts: np.ndarray, poly: np.ndarray,
                      closed: bool = True) -> np.ndarray:
    """Distance from each point to a polyline, pruned by edge blocks.

    The distance is at most the distance to the nearest block's first
    vertex, and at least the distance to a block's bounding box, so a
    point visits only the blocks whose box lies within that bound (plus a
    margin that covers rounding).  Every visited edge evaluates the same
    expressions as an all-edges scan, so the minimum is the same float.
    An open polyline of one vertex is that point (a zero-length segment).
    """
    if closed or len(poly) == 1:
        v0, v1 = poly, np.roll(poly, -1, axis=0)
    else:
        v0, v1 = poly[:-1], poly[1:]
    e = v1 - v0
    ee = np.maximum(np.sum(e * e, axis=1), 1e-300)
    first, size, lo, hi = _edge_blocks(v0, v1)
    out = np.empty(pts.shape[0])
    for c in _point_chunks(len(pts), len(first), size):
        p = pts[c]
        ub = np.sqrt(np.min(np.sum((p[:, None, :] - v0[first]) ** 2, axis=2),
                            axis=1))
        gap = np.maximum(lo - p[:, None, :], 0.0) + np.maximum(p[:, None, :] - hi, 0.0)
        box = np.sqrt(np.sum(gap * gap, axis=2))
        slack = 1e-12 * (np.max(np.abs(v0)) + np.max(np.abs(p), axis=1))
        visit = ~(box > (ub * (1.0 + 1e-9) + slack)[:, None])
        d2 = np.full(len(p), np.inf)
        for b in np.flatnonzero(visit.any(axis=0)):
            rows = np.flatnonzero(visit[:, b])
            s = slice(first[b], first[b] + size)
            q = p[rows]
            w = q[:, None, :] - v0[None, s, :]
            t = np.clip(np.einsum("pek,ek->pe", w, e[s]) / ee[None, s], 0.0, 1.0)
            proj = v0[None, s, :] + t[:, :, None] * e[None, s, :]
            d2[rows] = np.minimum(
                d2[rows], np.min(np.sum((q[:, None, :] - proj) ** 2, axis=2), axis=1))
        out[c] = np.sqrt(d2)
    return out


def _polyline_self_intersects(poly: np.ndarray) -> bool:
    """True when two non-adjacent edges of the closed polyline properly cross.

    Edges i of a chunk are tested against every edge j > i + 1 at once (the
    closing edge n - 1 is adjacent to edge 0); orientation signs decide a
    proper crossing.
    """
    a0 = poly
    a1 = np.roll(poly, -1, axis=0)
    n = len(poly)

    def orient(p, q, r):
        return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    j = np.arange(n)
    rows = max(1, _SCRATCH // n)
    for lo in range(0, n, rows):
        i = np.arange(lo, min(lo + rows, n))[:, None]
        pair = (j > i + 1) & ~((i == 0) & (j == n - 1))
        c0, c1 = a0[i], a1[i]
        d1, d2 = orient(c0, c1, a0), orient(c0, c1, a1)
        d3, d4 = orient(a0, a1, c0), orient(a0, a1, c1)
        if np.any(pair & ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))):
            return True
    return False


def segment_in_domain(domain, p, q) -> bool:
    """True when the closed segment [p, q] stays inside the closed domain,
    sampled at least every 0.002 diameters."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n_samples = max(8, int(np.linalg.norm(q - p) / (0.002 * max(domain.diameter(), 1e-12))) + 2)
    s = np.linspace(0.0, 1.0, n_samples)
    pts = p[None, :] + s[:, None] * (q - p)[None, :]
    return bool(np.all(domain.covers(pts)))


# ===================================================================== #
#  classification and frames
# ===================================================================== #

@dataclass
class BoundarySamples:
    """Boundary samples as columns, one entry (or row) per sample.

    ``points`` and ``normals`` are (n, d); ``classes`` holds "illuminated",
    "glancing" or "shadow" for each sample.
    """
    t: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    curvature: np.ndarray
    classes: np.ndarray


@dataclass
class BoundaryFrame:
    """Local frame at the boundary point x0.

    The axes are the outward normal and, in 2-D, the tangent: the unit
    tangential part e1' of X when X is oblique, else the counterclockwise
    tangent.  Frame coordinates v are components along the axes, so v1 < 0
    is interior.  The maps loop over the axes, because a single product with
    the stacked axes rounds differently.

    ``clearance`` is x0's distance to the polygon edges other than its own
    (0 at a vertex); it is inf on a smooth boundary and in one dimension.
    """
    x0: np.ndarray
    normal: np.ndarray
    tangent: Optional[np.ndarray]
    nu1: float
    x_prime: float
    t: float
    curvature: float = 0.0
    clearance: float = math.inf

    @property
    def dimension(self) -> int:
        return self.x0.shape[0] if self.x0.ndim else 1

    @property
    def axes(self) -> tuple:
        return (self.normal,) if self.tangent is None else (self.normal, self.tangent)

    def coords(self, pts) -> np.ndarray:
        """Frame coordinates of ambient points, one row per point."""
        rel = np.atleast_2d(np.asarray(pts, dtype=float)) - self.x0[None, :]
        return np.column_stack([rel @ e for e in self.axes])

    def ambient(self, w) -> np.ndarray:
        """Ambient points at frame coordinates ``w``, one row per point."""
        return self._span(self.x0[None, :], np.atleast_2d(w).T)

    def covector(self, xi) -> np.ndarray:
        """Ambient covector with frame components ``xi``."""
        return self._span(None, xi)

    def components(self, X) -> np.ndarray:
        """Frame components of the ambient vector X."""
        return np.array([float(np.dot(X, e)) for e in self.axes])

    def _span(self, acc, coeffs):
        """acc plus the sum over axes k of coeffs[k] (outer) axis k."""
        for c, e in zip(coeffs, self.axes):
            term = np.multiply.outer(c, e)
            acc = term if acc is None else acc + term
        return acc


def classify_boundary(domain, X, n: int) -> BoundarySamples:
    """Sample the boundary and classify each sample against the field X.

    Samples are ordered by boundary parameter.  In one dimension they are
    the two endpoints (left first, t = 0 and 1) and ``n`` is not used.
    """
    X = np.asarray(X, dtype=float)
    if np.linalg.norm(X) == 0.0:
        raise InvalidFieldError("field X must be nonzero for classification")
    if domain.dimension == 1:
        ts = np.array([0.0, 1.0])
        pts = np.array([[domain.a], [domain.b]])
        nus = np.array([[-1.0], [1.0]])
        ks = np.zeros(2)
    else:
        if n < 8:
            raise GeometryError("need at least 8 boundary samples in 2D")
        ts = np.arange(n) / n
        pts = domain.boundary_points(ts)
        nus = domain.boundary_normal(ts)
        ks = domain.boundary_curvature(ts)
    vals = nus @ X
    classes = np.where(vals > GLANCING_TOL, "illuminated",
                       np.where(vals < -GLANCING_TOL, "shadow", "glancing"))
    return BoundarySamples(ts, pts, nus, ks, classes)


def boundary_frame(domain, X, x0) -> BoundaryFrame:
    """Local frame at a boundary point: normal, tangent, nu1 and X'."""
    X = np.asarray(X, dtype=float)
    norm = float(np.linalg.norm(X))
    if norm == 0.0:
        raise InvalidFieldError("field X must be nonzero")
    xhat = X / norm
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    scale = max(domain.diameter(), 1.0)

    if domain.dimension == 1:
        if abs(x0[0] - domain.a) <= _ON_BOUNDARY_TOL * scale:
            nu, t = -1.0, 0.0
        elif abs(x0[0] - domain.b) <= _ON_BOUNDARY_TOL * scale:
            nu, t = 1.0, 1.0
        else:
            raise GeometryError(f"{x0[0]} is not an endpoint of {domain}")
        nu1 = float(xhat[0] * nu)
        return BoundaryFrame(x0, np.array([nu]), None, nu1, 0.0, t)

    t = domain.boundary_parameter(x0)
    p = domain.boundary_points([t])[0]
    if np.linalg.norm(p - x0) > _ON_BOUNDARY_TOL * scale:
        raise GeometryError(
            f"point {x0.tolist()} is off the boundary by {np.linalg.norm(p - x0):.3e}")
    nu = domain.boundary_normal([t])[0]
    nu1 = float(np.dot(xhat, nu))
    xp2 = max(0.0, 1.0 - nu1 * nu1)
    x_prime = float(np.sqrt(xp2))
    if x_prime > 1e-12:
        tangent = (xhat - nu1 * nu) / x_prime
    else:
        tangent = np.array([-nu[1], nu[0]])  # CCW tangent fallback
    kappa = float(domain.boundary_curvature([t])[0])
    clearance = math.inf
    if isinstance(domain, Polygon):
        # the open polyline from edge k + 1 round to k - 1, x0 on edge k
        k = int(domain._edge_of(t)[0])
        others = np.roll(domain.vertices, -1 - k, axis=0)
        clearance = _dist_to_polyline(x0[None, :], others, closed=False)[0]
    return BoundaryFrame(np.asarray(x0, dtype=float), nu, tangent, nu1,
                         x_prime, t, curvature=kappa, clearance=clearance)


# ===================================================================== #
#  boundary graph jets (for the phase construction)
# ===================================================================== #

def boundary_graph_jet(domain, frame: BoundaryFrame, order: int) -> Jet:
    """Taylor coefficients of the boundary as a graph over the frame tangent.

    Near x0 the boundary is v1 = g(v2) in frame coordinates (v1 normal,
    v2 along the frame tangent), with g(0) = g'(0) = 0 and g''(0) = -kappa.
    Returns g as a 1-variable jet of the requested order.
    """
    if domain.dimension == 1:
        return Jet(np.zeros(1), order, 1)
    nu, tau = frame.normal, frame.tangent
    if isinstance(domain, Disk):
        # g(t) = sqrt(r^2 - t^2) - r, expanded via the binomial series
        r = domain.radius
        g = np.zeros(order + 1, dtype=complex)
        coef = 0.5
        fac = 1.0
        for k in range(1, order // 2 + 1):
            fac *= (coef - (k - 1)) / k
            g[2 * k] = r * fac * (-1.0) ** k / r ** (2 * k)
        return Jet(g, order, 1)
    if isinstance(domain, Ellipse):
        return _implicit_graph_jet(
            lambda pts: domain.implicit(pts), frame.x0, nu, tau, order)
    if isinstance(domain, Polygon):
        # valid only in the interior of an edge; the graph is flat there
        return Jet(np.zeros(order + 1), order, 1)
    raise GeometryError(f"no boundary jet rule for {type(domain).__name__}")


def _implicit_graph_jet(implicit, x0, nu, tau, order) -> Jet:
    """Solve F(x0 + t*tau + g*nu) = 0 for the series g(t) by fixed point.

    F is sampled exactly through second order (it is quadratic for conics);
    the recursion g <- g - F(t, g)/F_g converges one coefficient per sweep.
    """
    # quadratic Taylor of F in (t, g) via exact evaluations (conic: exact)
    def F(tv, gv):
        pt = x0[None, :] + np.outer(np.atleast_1d(tv), tau) + np.outer(np.atleast_1d(gv), nu)
        return implicit(pt)

    # conic level sets are exactly quadratic, so a large step keeps the
    # central differences exact while avoiding cancellation
    e = 0.1
    f00 = float(F(0, 0)[0])
    ft = float((F(e, 0) - F(-e, 0))[0] / (2 * e))
    fg = float((F(0, e) - F(0, -e))[0] / (2 * e))
    ftt = float((F(e, 0) - 2 * F(0, 0) + F(-e, 0))[0] / e ** 2)
    fgg = float((F(0, e) - 2 * F(0, 0) + F(0, -e))[0] / e ** 2)
    ftg = float((F(e, e) - F(e, -e) - F(-e, e) + F(-e, -e))[0] / (4 * e ** 2))
    if abs(fg) < 1e-12:
        raise GeometryError("normal direction tangent to the level set")
    t = Jet.variable(0, order, 1)
    g = Jet.zero(order, 1)
    for _ in range(order + 1):
        val = (f00 + ft * t + fg * g + 0.5 * ftt * t.mul(t)
               + ftg * t.mul(g) + 0.5 * fgg * g.mul(g))
        g = g - (1.0 / fg) * val
    return g
