"""Relative convex hulls in planar domains and concentration-region prediction.

The hull of a generator set A relative to the closed domain is computed as
the geodesic (shortest-path) convex hull: take the ordinary convex hull of
the generators and replace every hull edge that leaves the domain by the
geodesic between its endpoints (shortest path through the domain, which
turns only at reflex vertices of the polygonal approximation).  For convex
domains this reduces to the ordinary convex hull.  Degenerate generator sets
(single point, collinear points, two points) yield zero-area hulls whose
region is the geodesic polyline itself.

An independent grid oracle iterates the closure of the rasterized generators
under "add every grid point on a segment between two members whose segment
stays in the domain" to a fixpoint.  For disconnected generators whose
connecting segments leave the domain the raw closure cannot grow (each
component is already relatively convex), so the oracle bridges components
with taut grid paths (breadth-first path pulled tight by iterated segment
shortcutting) and re-closes; this matches the geodesic hull as the spacing
shrinks.

The concentration prediction returns the boundary trace of the hull of the
illuminated-plus-glancing set, and the tighter planar prediction (the set
itself), which applies to every two-dimensional domain.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .errors import GeometryError
from .geometry import (
    Polygon,
    _dist_to_polyline,
    _polygon_area,
    _polygon_signed_distance,
    segment_in_domain,
)

_ARC_SAMPLES = 2048        # boundary samples behind RelativeHull.boundary_arcs
_CLOSURE_ROUNDS = 60       # segment-closure sweeps of the grid oracle
_CURVATURE_TOL = 1e-8      # |curvature| above which a shadow point is curved


# ===================================================================== #
#  data types
# ===================================================================== #

@dataclass
class RelativeHull:
    domain: object
    generators: np.ndarray
    boundary_loop: np.ndarray      # closed loop (first point not repeated)
    is_degenerate: bool            # zero-area hull (polyline or point)
    polyline: Optional[np.ndarray] = None
    resolution: float = 0.0

    @property
    def empty(self) -> bool:
        return len(self.generators) == 0

    @property
    def area(self) -> float:
        if self.empty or self.is_degenerate:
            return 0.0
        return abs(_polygon_area(self.boundary_loop))

    def contains(self, pts, tol: Optional[float] = None) -> np.ndarray:
        """Membership with tolerance (points within tol of the region count)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.empty:
            return np.zeros(len(pts), dtype=bool)
        if tol is None:
            tol = max(self.resolution, 1e-9)
        if self.is_degenerate:
            return _dist_to_polyline(pts, self.polyline, closed=False) <= tol
        return _polygon_signed_distance(pts, self.boundary_loop) <= tol

    def boundary_arcs(self) -> list[tuple[float, float]]:
        """Parameter intervals of the domain boundary lying in the hull."""
        if self.empty:
            return []
        ts = np.arange(_ARC_SAMPLES) / _ARC_SAMPLES
        pts = self.domain.boundary_points(ts)
        member = self.contains(pts, tol=2.0 * max(self.resolution, 1e-9))
        return _runs_to_intervals(ts, member)

    def rasterize(self, spacing: float) -> np.ndarray:
        """Lattice points of the hull region on the oracle-aligned lattice."""
        nodes, _ = _domain_lattice(self.domain, spacing)
        if self.empty:
            return np.empty((0, 2))
        keep = self.contains(nodes, tol=0.5 * spacing * np.sqrt(2.0))
        return nodes[keep]

    def to_geojson(self) -> dict:
        if self.empty:
            return {"type": "MultiPolygon", "coordinates": []}
        if self.is_degenerate:
            return {"type": "LineString",
                    "coordinates": self.polyline.tolist()}
        ring = self.boundary_loop.tolist()
        ring.append(ring[0])
        return {"type": "Polygon", "coordinates": [ring]}


@dataclass
class SupportPrediction:
    hull: RelativeHull
    hull_arcs: list
    tight_arcs: list
    tight_points: np.ndarray
    rule: str                      # "planar" | "planar+curvature"


# ===================================================================== #
#  helpers
# ===================================================================== #

def _runs_to_intervals(ts: np.ndarray, member: np.ndarray) -> list:
    if not member.any():
        return []
    if member.all():
        return [(0.0, 1.0)]
    # rotate to a non-member so that no run straddles the wrap point
    start = int(np.argmin(member))
    rolled = np.roll(member, -start).astype(np.int8)
    step = np.diff(rolled, prepend=0, append=0)
    ts = np.roll(ts, -start)
    return [(float(ts[i]), float(ts[j - 1]))
            for i, j in zip(np.flatnonzero(step == 1),
                            np.flatnonzero(step == -1))]


def _domain_lattice(domain, spacing: float):
    poly = domain.polygonize(512)
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    nx = int(np.floor((hi[0] - lo[0]) / spacing)) + 1
    ny = int(np.floor((hi[1] - lo[1]) / spacing)) + 1
    gx = lo[0] + spacing * np.arange(nx)
    gy = lo[1] + spacing * np.arange(ny)
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    nodes = np.column_stack([GX.ravel(), GY.ravel()])
    keep = domain.covers(nodes)
    return nodes[keep], (lo, spacing, nx, ny, keep.reshape(nx, ny))


def _convex_hull_monotone(pts: np.ndarray) -> np.ndarray:
    """Indices of the convex hull (CCW); collinear sets return the two ends."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[int] = []
    for i in range(len(p)):
        while len(lower) >= 2 and cross(p[lower[-2]], p[lower[-1]], p[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(range(len(p))):
        while len(upper) >= 2 and cross(p[upper[-2]], p[upper[-1]], p[i]) <= 0:
            upper.pop()
        upper.append(i)
    idx = lower[:-1] + upper[:-1]
    return order[np.asarray(idx, dtype=int)]


def _reflex_vertices(poly: Polygon) -> np.ndarray:
    v = poly.vertices
    prev = np.roll(v, 1, axis=0)
    nxt = np.roll(v, -1, axis=0)
    cross = ((v[:, 0] - prev[:, 0]) * (nxt[:, 1] - v[:, 1])
             - (v[:, 1] - prev[:, 1]) * (nxt[:, 0] - v[:, 0]))
    return v[cross < -1e-12]


def _geodesic(domain, poly: Polygon, p: np.ndarray, q: np.ndarray
              ) -> np.ndarray:
    """Shortest path from p to q through the domain (A* over reflex vertices)."""
    if segment_in_domain(domain, p, q):
        return np.vstack([p, q])
    nodes = np.vstack([p[None, :], q[None, :], _reflex_vertices(poly)])
    n = len(nodes)
    dist = np.full(n, np.inf)
    prev = np.full(n, -1, dtype=int)
    dist[0] = 0.0
    heap = [(np.linalg.norm(p - q), 0.0, 0)]
    visited = np.zeros(n, dtype=bool)
    while heap:
        _, d, i = heapq.heappop(heap)
        if visited[i]:
            continue
        visited[i] = True
        if i == 1:
            break
        for j in range(n):
            if visited[j] or j == i:
                continue
            if not segment_in_domain(domain, nodes[i], nodes[j]):
                continue
            nd = d + np.linalg.norm(nodes[i] - nodes[j])
            if nd < dist[j] - 1e-15:
                dist[j] = nd
                prev[j] = i
                heapq.heappush(heap, (nd + np.linalg.norm(nodes[j] - q), nd, j))
    if not visited[1]:
        raise GeometryError("no geodesic found between generator points")
    path = [1]
    while path[-1] != 0:
        path.append(prev[path[-1]])
    return nodes[np.asarray(path[::-1])]


# ===================================================================== #
#  the hull computation
# ===================================================================== #

def generator_points(domain, A) -> np.ndarray:
    """The generator points (an (n, 2) array or a list of points) inside the
    closed domain; the others are dropped (the hull of A relative to B is by
    definition the hull of the intersection)."""
    allpts = np.asarray(A, dtype=float).reshape(-1, 2)
    if len(allpts) == 0:
        return allpts
    return allpts[domain.covers(allpts)]


def relative_convex_hull(domain, A, resolution: float = None) -> RelativeHull:
    """Geodesic convex hull of A inside the closed domain."""
    if domain.dimension != 2:
        raise GeometryError("relative hulls are two-dimensional")
    if resolution is None:
        resolution = domain.diameter() / 256.0
    poly = domain.polygonize(512)
    pts = generator_points(domain, A)
    if len(pts) == 0:
        return RelativeHull(domain, pts, np.empty((0, 2)), True,
                            np.empty((0, 2)), resolution)
    if len(pts) == 1:
        return RelativeHull(domain, pts, pts.copy(), True, pts.copy(),
                            resolution)
    hull_idx = _convex_hull_monotone(pts)
    hull_pts = pts[hull_idx]
    degenerate = len(hull_idx) <= 2
    if degenerate:
        path = _geodesic(domain, poly, hull_pts[0], hull_pts[-1])
        loop = np.vstack([path, path[::-1][1:-1]]) if len(path) > 2 else path
        return RelativeHull(domain, pts, loop, True, path, resolution)
    pieces = []
    for k in range(len(hull_pts)):
        a = hull_pts[k]
        b = hull_pts[(k + 1) % len(hull_pts)]
        path = _geodesic(domain, poly, a, b)
        pieces.append(path[:-1])
    loop = np.vstack(pieces)
    # drop consecutive duplicates
    keep = np.ones(len(loop), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(loop, axis=0), axis=1) > 1e-12
    loop = loop[keep]
    return RelativeHull(domain, pts, loop, False, None, resolution)


# ===================================================================== #
#  grid oracle
# ===================================================================== #

def _segment_nodes(p: np.ndarray, q: np.ndarray, lo, spacing, nx, ny):
    """Lattice indices within half a spacing of the segment [p, q]."""
    L = np.linalg.norm(q - p)
    n = max(2, int(np.ceil(L / (0.4 * spacing))) + 1)
    s = np.linspace(0.0, 1.0, n)
    pts = p[None, :] + s[:, None] * (q - p)[None, :]
    ij = np.round((pts - lo[None, :]) / spacing).astype(int)
    ok = (ij[:, 0] >= 0) & (ij[:, 0] < nx) & (ij[:, 1] >= 0) & (ij[:, 1] < ny)
    return ij[ok]


def _closure_sweep(pij: np.ndarray, targets_ij: np.ndarray, domain, S, lo,
                   spacing: float, inmask) -> None:
    """Add the lattice points lying exactly on in-domain segments from p.

    Only exactly-collinear lattice points (the gcd subdivision of the integer
    difference vector) are added: rounding-based rasterization would let the
    set creep outward by a fraction of a cell per round and never reach a
    geometric fixpoint.  S only grows, so adding every segment's points at
    once gives the set that adding them one segment at a time gives.
    """
    delta = targets_ij - pij[None, :]
    g = np.gcd(np.abs(delta[:, 0]), np.abs(delta[:, 1]))
    idx = np.nonzero(g >= 2)[0]        # no interior lattice points otherwise
    if len(idx) == 0:
        return
    p = lo + spacing * pij
    targets = lo + spacing * targets_ij[idx]
    lmax = float(np.max(np.linalg.norm(targets - p[None, :], axis=1)))
    ns = max(4, int(np.ceil(lmax / (0.4 * spacing))) + 1)
    s = np.linspace(0.0, 1.0, ns)
    seg = p[None, None, :] + s[:, None, None] * (targets[None, :, :] - p[None, None, :])
    inside = domain.covers(seg.reshape(-1, 2)).reshape(ns, len(targets))
    good = idx[inside.all(axis=0)]
    # interior points pij + m * delta / g for m = 1 .. g - 1 of each segment
    inner = g[good] - 1
    m = np.arange(inner.sum()) - np.repeat(np.cumsum(inner) - inner, inner) + 1
    pts = pij + m[:, None] * np.repeat(delta[good] // g[good, None], inner, axis=0)
    pts = pts[inmask[pts[:, 0], pts[:, 1]] & ~S[pts[:, 0], pts[:, 1]]]
    S[pts[:, 0], pts[:, 1]] = True


def relhull_grid_oracle(domain, A, spacing: float) -> np.ndarray:
    """Fixpoint of segment closure of the rasterized generators (test oracle).

    Disconnected fixpoints are bridged by taut grid paths and closed again;
    see the module docstring.
    """
    from scipy import ndimage
    if spacing <= 0:
        raise GeometryError("spacing must be positive")
    nodes, (lo, sp_, nx, ny, inmask) = _domain_lattice(domain, spacing)
    pts = generator_points(domain, A)
    if len(pts) == 0:
        return np.empty((0, 2))
    S = np.zeros((nx, ny), dtype=bool)
    for pt in pts:
        ij = _snap_to_lattice(pt, lo, spacing, nx, ny, inmask)
        if ij is not None:
            S[ij] = True
    if not S.any():
        return np.empty((0, 2))

    def lattice_points(mask):
        ii, jj = np.nonzero(mask)
        return np.column_stack([lo[0] + spacing * ii, lo[1] + spacing * jj])

    def closure(S):
        frontier = S.copy()
        for _ in range(_CLOSURE_ROUNDS):
            cur_ij = np.column_stack(np.nonzero(S))
            new_ij = np.column_stack(np.nonzero(frontier))
            if len(cur_ij) == 0 or len(new_ij) == 0:
                break
            before = S.copy()
            for pij in new_ij:
                _closure_sweep(pij, cur_ij, domain, S, lo, spacing, inmask)
            added = S & ~before
            if not added.any():
                break
            frontier = added
        return S

    S = closure(S)
    for _ in range(8):
        # 8-connected labels, numbered by first pixel in C order (0 = empty)
        comps = ndimage.label(S, structure=np.ones((3, 3), dtype=int))[0]
        if comps.max() <= 1:
            break
        S = _bridge_components(S, comps, domain, lo, spacing, nx, ny, inmask)
        S = closure(S)
    return lattice_points(S)


def _snap_to_lattice(pt, lo, spacing, nx, ny, inmask):
    ci = int(round((pt[0] - lo[0]) / spacing))
    cj = int(round((pt[1] - lo[1]) / spacing))
    best = None
    best_d = np.inf
    for di in range(-2, 3):
        for dj in range(-2, 3):
            i, j = ci + di, cj + dj
            if 0 <= i < nx and 0 <= j < ny and inmask[i, j]:
                d = (lo[0] + spacing * i - pt[0]) ** 2 + \
                    (lo[1] + spacing * j - pt[1]) ** 2
                if d < best_d:
                    best_d = d
                    best = (i, j)
    return best


def _bridge_components(S, comps, domain, lo, spacing, nx, ny, inmask):
    pts_by_comp = {}
    for c in range(1, comps.max() + 1):
        ii, jj = np.nonzero(comps == c)
        pts_by_comp[c] = np.column_stack([ii, jj])
    # closest pair between component 1 and its nearest neighbor
    base = pts_by_comp[1]
    best = (np.inf, None, None, None)
    tree = cKDTree(base.astype(float))
    for c, other in pts_by_comp.items():
        if c == 1:
            continue
        d, k = tree.query(other.astype(float))
        m = int(np.argmin(d))
        if d[m] < best[0]:
            best = (d[m], tuple(base[k[m]]), tuple(other[m]), c)
    _, src, dst, _ = best
    path = _grid_bfs_path(inmask, src, dst)
    if path is None:
        raise GeometryError("domain lattice is disconnected at this spacing")
    coords = np.column_stack([lo[0] + spacing * np.asarray([p[0] for p in path]),
                              lo[1] + spacing * np.asarray([p[1] for p in path])])
    coords = _tighten_path(coords, domain)
    # rasterize the taut path back onto the lattice
    for a, b in zip(coords[:-1], coords[1:]):
        ij = _segment_nodes(a, b, lo, spacing, nx, ny)
        sel = inmask[ij[:, 0], ij[:, 1]]
        picked = ij[sel]
        S[picked[:, 0], picked[:, 1]] = True
    return S


def _grid_bfs_path(inmask, src, dst):
    nx, ny = inmask.shape
    prev = {}
    dq = deque([src])
    seen = {src}
    while dq:
        cur = dq.popleft()
        if cur == dst:
            path = [cur]
            while path[-1] != src:
                path.append(prev[path[-1]])
            return path[::-1]
        i, j = cur
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nxt = (i + di, j + dj)
                if (0 <= nxt[0] < nx and 0 <= nxt[1] < ny
                        and inmask[nxt] and nxt not in seen):
                    seen.add(nxt)
                    prev[nxt] = cur
                    dq.append(nxt)
    return None


def _tighten_path(coords: np.ndarray, domain) -> np.ndarray:
    """Iterated segment shortcutting: pull the grid path taut in the domain."""
    path = list(coords)
    for _ in range(40):
        changed = False
        out = [path[0]]
        i = 0
        while i < len(path) - 1:
            j = len(path) - 1
            while j > i + 1:
                if segment_in_domain(domain, path[i], path[j]):
                    break
                j -= 1
            out.append(path[j])
            if j > i + 1:
                changed = True
            i = j
        path = out
        if not changed:
            break
    return np.asarray(path)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 or len(b) == 0:
        return np.inf if len(a) != len(b) else 0.0
    ta, tb = cKDTree(a), cKDTree(b)
    d_ab = ta.query(b)[0].max()
    d_ba = tb.query(a)[0].max()
    return float(max(d_ab, d_ba))


# ===================================================================== #
#  concentration prediction
# ===================================================================== #

def predicted_support(domain, field_X, n_samples: int = 1024,
                      resolution: float = None) -> SupportPrediction:
    """Boundary trace of the hull of the illuminated-plus-glancing set.

    The tighter planar prediction (the set itself) always applies in two
    dimensions; when the shadow boundary is strictly curved everywhere the
    curvature rule independently removes shadow points as well.
    """
    s = geometry.classify_boundary(domain, field_X, n_samples)
    member = s.classes != "shadow"
    tight_pts = s.points[member]
    tight_arcs = _runs_to_intervals(s.t, member)
    hull = relative_convex_hull(domain, tight_pts, resolution)
    hull_arcs = hull.boundary_arcs()
    shadow_curved = bool(np.all(np.abs(s.curvature[~member]) > _CURVATURE_TOL))
    rule = "planar+curvature" if shadow_curved else "planar"
    return SupportPrediction(hull, hull_arcs, tight_arcs, tight_pts, rule)
