"""Property tests of ``geometry``: the sign of ``signed_distance`` agrees
with an independent membership test (on a disk, an ellipse, a
``ParametricCurve`` tracing an ellipse and an L-shaped polygon), and
``classify_boundary`` is equivariant under a rotation of an ellipse
together with its field.

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

from pslab.geometry import (GLANCING_TOL, Disk, Ellipse, ParametricCurve,
                            Polygon, classify_boundary)

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
@given(data=st.data(), cx=_coord, cy=_coord, a=_length, b=_length,
       angle=_angle)
def test_parametric_curve_sign_matches_implicit(data, cx, cy, a, b, angle):
    # the ellipse of the test above, given to ParametricCurve as p(t), p'(t)
    # and p''(t) for t in [0, 1); the curve polygonizes at the same 4,096
    # parameter steps, so the same sagitta bound holds
    c = np.array([cx, cy])
    R = _rot(angle)
    w = 2 * math.pi

    def fn(t):
        return c + R @ (a * math.cos(w * t), b * math.sin(w * t))

    def d1(t):
        return R @ (-w * a * math.sin(w * t), w * b * math.cos(w * t))

    def d2(t):
        return R @ (-w * w * a * math.cos(w * t), -w * w * b * math.sin(w * t))

    curve = ParametricCurve(fn, d1, d2)
    big, small = max(a, b), min(a, b)
    sagitta = (2 * math.pi * big / 4096) ** 2 * big / (4 * small ** 2)
    pts = c + _points(data, -1.5 * big, 1.5 * big)
    u, v = ((pts - c) @ R).T
    F = (u / a) ** 2 + (v / b) ** 2 - 1.0
    rho = np.sqrt(F + 1.0)
    keep = np.abs(rho - 1.0) * small > 2 * sagitta
    sd = curve.signed_distance(pts)
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
