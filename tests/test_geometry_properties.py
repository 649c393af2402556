"""Property tests of ``geometry``: the sign of ``signed_distance`` agrees
with an independent membership test (on a disk, an ellipse and an L-shaped
polygon), and ``classify_boundary`` is equivariant under a rotation of an
ellipse together with its field.  The polyline helpers behind ``signed_distance``
return, bit for bit, what an all-edges scan returns, and ``contains`` is
the sign of that distance: a point at distance exactly 0 is outside.

Curved domains measure distance to their inscribed 4,096-gon, which lies
within one sagitta of the true boundary, so the sign test only draws points
farther than that from the boundary.  The chord of parameter step 1/4096 of
an ellipse with semi-axes A >= B is at most L = 2 pi A / 4096 long and the
curvature at most A / B^2; the sagitta is at most L^2 A / (4 B^2), and the
tests keep twice that away.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab.geometry import (GLANCING_TOL, Disk, Ellipse, Interval,
                            Polygon, _dist_to_polyline, _inside_polygon,
                            _polyline_self_intersects, _vertex_diameter,
                            classify_boundary)

PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)

_coord = st.floats(-2.0, 2.0)
_length = st.floats(0.3, 2.0)
_angle = st.floats(-math.pi, math.pi)


def _points(data, lo, hi, n=24):
    """n points with coordinates drawn in [lo, hi]."""
    xs = st.floats(lo, hi)
    return np.array([[data.draw(xs), data.draw(xs)] for _ in range(n)])


@PROPERTY
@given(data=st.data(), cx=_coord, cy=_coord, r=_length)
def test_disk_sign_matches_membership(data, cx, cy, r):
    c = np.array([cx, cy])
    pts = c + _points(data, -1.5 * r, 1.5 * r)
    dist = np.linalg.norm(pts - c, axis=1)
    keep = np.abs(dist - r) > 1e-9 * r
    sd = Disk(c, r).signed_distance(pts)
    assert np.array_equal((sd < 0)[keep], (dist < r)[keep])


@PROPERTY
@given(data=st.data(), cx=_coord, cy=_coord, a=_length, b=_length,
       angle=_angle)
def test_ellipse_sign_matches_implicit(data, cx, cy, a, b, angle):
    ell = Ellipse((cx, cy), (a, b), angle)
    big, small = max(a, b), min(a, b)
    sagitta = (2 * math.pi * big / 4096) ** 2 * big / (4 * small ** 2)
    pts = np.array([cx, cy]) + _points(data, -1.5 * big, 1.5 * big)
    F = ell.implicit(pts)
    # (u/a)^2 + (v/b)^2 = rho^2: the point lies on the ellipse scaled by
    # rho, at least |rho - 1| * small from the boundary
    rho = np.sqrt(F + 1.0)
    keep = np.abs(rho - 1.0) * small > 2 * sagitta
    sd = ell.signed_distance(pts)
    assert np.array_equal((sd < 0)[keep], (F < 0)[keep])


@PROPERTY
@given(data=st.data(), ox=_coord, oy=_coord, s=_length)
def test_lshape_sign_matches_rectangles(data, ox, oy, s):
    # the L of [0, 2] x [0, 1] and [1, 2] x [1, 2], scaled by s and moved
    L = Polygon(np.array([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)])
                * s + (ox, oy))
    local = _points(data, -0.5, 2.5)
    x, y = local[:, 0], local[:, 1]
    inside = (((0 < x) & (x < 2) & (0 < y) & (y < 1))
              | ((1 < x) & (x < 2) & (1 < y) & (y < 2)))
    # off every line that carries an edge or the seam y = 1
    keep = np.all(np.abs(local[:, :, None] - np.arange(3.0)) > 1e-6, axis=(1, 2))
    sd = L.signed_distance(local * s + (ox, oy))
    assert np.array_equal((sd < 0)[keep], inside[keep])


def _rot(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


@PROPERTY
@given(cx=_coord, cy=_coord, a=_length, b=_length, angle=_angle, phi=_angle,
       psi=st.floats(0.0, 2 * math.pi), norm=st.floats(0.5, 2.0))
def test_classification_rotates_with_ellipse(cx, cy, a, b, angle, phi, psi,
                                             norm):
    X = norm * np.array([math.cos(psi), math.sin(psi)])
    n = 64
    base = classify_boundary(Ellipse((cx, cy), (a, b), angle), X, n)
    turned = classify_boundary(Ellipse((cx, cy), (a, b), angle + phi),
                               _rot(phi) @ X, n)
    assert np.array_equal(turned.t, base.t)
    for nu, c0, c1 in zip(base.normals, base.classes, turned.classes):
        # <X, nu> moves by rounding under the rotation; a sample that near
        # the glancing threshold may change class
        v = float(np.dot(X, nu))
        if min(abs(v - GLANCING_TOL), abs(v + GLANCING_TOL)) > 1e-9:
            assert c1 == c0


# ------------------------------------------------------------------ #
#  polyline helpers against all-edges references
# ------------------------------------------------------------------ #

POLYLINE = settings(derandomize=True, database=None, max_examples=12,
                    deadline=None)

LSHAPE = np.array([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)], float)
ZSHAPE = np.array([(0, 0), (2, 0), (2, 1), (3, 1), (3, 2), (1, 2), (1, 1),
                   (0, 1)], float)


def reference_distance(pts, poly, closed=True):
    """Distance to the nearest of all edges, one row of points at a time."""
    if closed or len(poly) == 1:
        v0, v1 = poly, np.roll(poly, -1, axis=0)
    else:
        v0, v1 = poly[:-1], poly[1:]
    e = v1 - v0
    ee = np.maximum(np.sum(e * e, axis=1), 1e-300)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), 256):
        p = pts[lo:lo + 256]
        w = p[:, None, :] - v0[None, :, :]
        t = np.clip(np.einsum("pek,ek->pe", w, e) / ee[None, :], 0.0, 1.0)
        proj = v0[None, :, :] + t[:, :, None] * e[None, :, :]
        d2 = np.sum((p[:, None, :] - proj) ** 2, axis=2)
        out[lo:lo + 256] = np.sqrt(np.min(d2, axis=1))
    return out


def reference_inside(pts, poly):
    """Crossing number over all edges."""
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    x, y = pts[:, 0:1], pts[:, 1:2]
    cond = (y0 <= y) != (y1 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    return np.sum(cond & (x < xint), axis=1) % 2 == 1


def reference_self_intersects(poly):
    """Edge i against every non-adjacent edge j > i, one edge at a time."""
    a0, a1, n = poly, np.roll(poly, -1, axis=0), len(poly)

    def orient(p, q, r):
        return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    for i in range(n):
        j = slice(i + 2, n - 1 if i == 0 else n)
        b0, b1 = a0[j], a1[j]
        d1, d2 = orient(a0[i], a1[i], b0), orient(a0[i], a1[i], b1)
        d3, d4 = orient(b0, b1, a0[i]), orient(b0, b1, a1[i])
        if np.any(((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))):
            return True
    return False


def subdivide(poly, k):
    """Each edge split into k collinear pieces (many exact distance ties)."""
    s = np.arange(k)[None, :, None] / k
    e = np.roll(poly, -1, axis=0) - poly
    return (poly[:, None, :] + s * e[:, None, :]).reshape(-1, 2)


def probe_points(data, poly, n_random=160):
    """Random points around the polyline, some vertices and edge midpoints."""
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    pad = 0.3 * (hi - lo)
    rnd = np.array([[data.draw(st.floats(lo[0] - pad[0], hi[0] + pad[0])),
                     data.draw(st.floats(lo[1] - pad[1], hi[1] + pad[1]))]
                    for _ in range(n_random // 8)])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rnd = np.vstack([rnd, rng.uniform(lo - pad, hi + pad,
                                      (n_random - len(rnd), 2))])
    pick = rng.integers(0, len(poly), 48)
    mids = 0.5 * (poly[pick] + np.roll(poly, -1, axis=0)[pick])
    return np.vstack([rnd, poly[pick], mids])


def assert_polyline_queries_match(pts, poly):
    for closed in (True, False):
        got = _dist_to_polyline(pts, poly, closed=closed)
        assert got.tobytes() == reference_distance(pts, poly, closed).tobytes()
    assert np.array_equal(_inside_polygon(pts, poly),
                          reference_inside(pts, poly))


@POLYLINE
@given(data=st.data(), cx=_coord, cy=_coord, a=_length, b=_length,
       angle=_angle)
def test_polyline_queries_on_ellipse_match_all_edges(data, cx, cy, a, b,
                                                     angle):
    poly = Ellipse((cx, cy), (a, b), angle)._sd_cache()
    assert_polyline_queries_match(probe_points(data, poly), poly)


@POLYLINE
@given(data=st.data(), a=_length, b=_length, wobble=st.floats(0.0, 0.2))
def test_polyline_queries_on_parametric_curve_match_all_edges(data, a, b,
                                                              wobble):
    # an ellipse with a radial wobble r(t) = 1 + wobble cos(6 w t)
    w, k = 2 * math.pi, 6

    def fn(t):
        r = 1.0 + wobble * math.cos(k * w * t)
        return np.array([a * r * math.cos(w * t), b * r * math.sin(w * t)])

    poly = np.array([fn(t) for t in np.arange(4096) / 4096])
    assert_polyline_queries_match(probe_points(data, poly), poly)


@POLYLINE
@given(data=st.data(), which=st.sampled_from(["L", "Z"]),
       k=st.sampled_from([1, 7, 160]), ox=_coord, oy=_coord, s=_length)
def test_polyline_queries_on_lshape_and_zshape_match_all_edges(data, which,
                                                               k, ox, oy, s):
    base = LSHAPE if which == "L" else ZSHAPE
    poly = subdivide(base, k) * s + (ox, oy)
    pts = probe_points(data, poly)
    # and points on the lattice of the shape's corners, where edges tie
    grid = np.stack(np.meshgrid(np.arange(0.0, 3.5, 0.5),
                                np.arange(0.0, 2.5, 0.5)), -1).reshape(-1, 2)
    assert_polyline_queries_match(np.vstack([pts, grid * s + (ox, oy)]), poly)


@POLYLINE
@given(data=st.data(), r=_length, scale=st.floats(1e-9, 1e-2))
def test_polyline_distance_near_disk_centre_matches_all_edges(data, r, scale):
    # near the centre every edge is about equally far, so no block is pruned
    poly = Disk((0.25, -0.5), r)._sd_cache()
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pts = (0.25, -0.5) + r * scale * rng.uniform(-1, 1, (200, 2))
    assert_polyline_queries_match(pts, poly)


@POLYLINE
@given(data=st.data(), n=st.integers(3, 700), crossing=st.booleans())
def test_self_intersection_matches_per_edge_loop(data, n, crossing):
    # star-shaped polygons from sorted angles are simple; swapping two
    # vertices or pushing one across the centre usually makes them cross
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    th = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    rad = rng.uniform(0.5, 1.5, n)
    poly = np.column_stack([rad * np.cos(th), rad * np.sin(th)])
    if crossing:
        i, j = rng.integers(0, n, 2)
        poly[[i, j]] = poly[[j, i]]
        if data.draw(st.booleans()):
            poly[i] *= -1.0
    assert _polyline_self_intersects(poly) == reference_self_intersects(poly)


@POLYLINE
@given(data=st.data(), n=st.integers(2, 1500))
def test_vertex_diameter_matches_all_pairs(data, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    v = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, 2)
    d2 = np.max(np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2))
    assert _vertex_diameter(v) == float(np.sqrt(d2))


# ------------------------------------------------------------------ #
#  contains: the open domain, signed_distance < 0
# ------------------------------------------------------------------ #

def assert_contains_is_open_sign(domain, pts, poly):
    """contains is signed_distance < 0, and the all-edges reference's sign;
    a boundary point has distance 0 (-0.0 when counted inside): outside."""
    got = domain.contains(pts)
    assert np.array_equal(got, domain.signed_distance(pts) < 0)
    ref = np.where(reference_inside(pts, poly), -1.0, 1.0) \
        * reference_distance(pts, poly)
    assert np.array_equal(got, ref < 0)


@POLYLINE
@given(data=st.data(), cx=_coord, cy=_coord, a=_length, b=_length,
       angle=_angle)
def test_contains_on_ellipse_is_open_sign(data, cx, cy, a, b, angle):
    ell = Ellipse((cx, cy), (a, b), angle)
    poly = ell._sd_cache()
    pts = probe_points(data, poly)
    assert_contains_is_open_sign(ell, pts, poly)
    assert not ell.contains(poly[::64]).any()


@POLYLINE
@given(data=st.data(), which=st.sampled_from(["L", "Z"]),
       k=st.sampled_from([1, 7, 160]), ox=_coord, oy=_coord, s=_length)
def test_contains_on_lshape_and_zshape_is_open_sign(data, which, k, ox, oy,
                                                    s):
    poly = subdivide(LSHAPE if which == "L" else ZSHAPE, k) * s + (ox, oy)
    pts = probe_points(data, poly)
    assert_contains_is_open_sign(Polygon(poly), pts, poly)
    assert not Polygon(poly).contains(poly).any()


def test_contains_on_polygon_edges_is_false():
    # a quarter-step lattice over the unscaled shapes: every point with a
    # coordinate on an axis-parallel edge's line and within its span lies
    # exactly on the boundary, at distance 0 or -0.0
    grid = np.stack(np.meshgrid(np.arange(-0.5, 3.75, 0.25),
                                np.arange(-0.5, 2.75, 0.25)),
                    -1).reshape(-1, 2)
    for base in (LSHAPE, ZSHAPE):
        poly = Polygon(base)
        sd = poly.signed_distance(grid)
        on_edge = sd == 0.0
        assert on_edge.sum() >= 20 and np.signbit(sd[on_edge]).any()
        assert not poly.contains(grid[on_edge]).any()
        assert_contains_is_open_sign(poly, grid, base)


def test_interval_contains_is_open_sign():
    iv = Interval(-0.3, 1.7)
    rng = np.random.default_rng(7)
    x = np.concatenate([
        rng.uniform(-1.0, 3.0, 200), [iv.a, iv.b, np.inf, -np.inf, np.nan],
        np.nextafter([iv.a, iv.a, iv.b, iv.b], [-np.inf, np.inf] * 2)])
    got = iv.contains(x)
    assert np.array_equal(got, iv.signed_distance(x) < 0)
    # a - x < 0 is exactly x > a in IEEE arithmetic
    assert np.array_equal(got, (iv.a < x) & (x < iv.b))
    assert got[-3] and got[-2] and not got[-4] and not got[-1]
    assert iv.contains(x[:, None]).shape == (len(x),)
