import numpy as np
import pytest

from pslab.errors import GeometryError, InvalidDomainError, InvalidFieldError
from pslab.geometry import (
    BoundaryFrame,
    Disk,
    Ellipse,
    Interval,
    Polygon,
    boundary_frame,
    boundary_graph_jet,
    classify_boundary,
)

E1 = np.array([1.0, 0.0])
SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def swapped_circle(n):
    """The unit circle's n-gon with vertices 1 and 2 swapped."""
    v = Disk((0, 0), 1.0).boundary_points(np.arange(n) / n)
    v[[1, 2]] = v[[2, 1]]
    return v


def rot(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestDomainValidation:
    def test_interval_order(self):
        with pytest.raises(InvalidDomainError):
            Interval(1.0, 0.0)

    def test_disk_radius(self):
        with pytest.raises(InvalidDomainError):
            Disk((0, 0), -1.0)

    def test_polygon_orientation(self):
        with pytest.raises(InvalidDomainError):
            Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise

    @pytest.mark.parametrize("vertices, error", [
        pytest.param([(0, 0), (1, 1), (1, 0), (0, 1)], "counterclockwise",
                     id="bowtie"),
        pytest.param(Disk((0, 0), 1.0).polygonize(512).vertices, None,
                     id="disk-512"),
        pytest.param(Ellipse((0.5, -1), (2.0, 0.5), 0.3).polygonize(512).vertices,
                     None, id="ellipse-512"),
        # vertex 0 of a 600-gon pushed across the far side
        pytest.param(np.vstack([[-1.2, 0.0], Disk((0, 0), 1.0).boundary_points(
            np.arange(1, 600) / 600)]), "not simple", id="pushed-600-gon"),
        # two neighbouring vertices of a 3,000-gon swapped: a crossing
        # that only a polygon this large could once carry through
        pytest.param(swapped_circle(3000), "not simple", id="swapped-3000-gon"),
    ])
    def test_polygon_simple(self, vertices, error):
        if error is None:
            Polygon(vertices)
        else:
            with pytest.raises(InvalidDomainError, match=error):
                Polygon(vertices)


class TestSignedDistance:
    def test_disk_center(self):
        assert Disk((0, 0), 1.0).signed_distance([[0.0, 0.0]])[0] == pytest.approx(-1.0)

    def test_interval_interior(self):
        assert Interval(0, 1).signed_distance(0.25) == pytest.approx(-0.25)

    def test_square_outside(self):
        assert SQUARE.signed_distance([[2.0, 0.5]])[0] == pytest.approx(1.0, abs=1e-12)

    def test_ellipse_matches_polyline_resolution(self):
        ell = Ellipse((0, 0), (2, 1))
        d = ell.signed_distance([[0.0, 0.0]])[0]
        assert d == pytest.approx(-1.0, abs=2e-3)


class TestClassification:
    def test_disk_east_pole_illuminated(self):
        samples = classify_boundary(Disk((0, 0), 1.0), E1, 8)
        # t = 0 is (1, 0)
        assert np.allclose(samples.points[0], [1, 0])
        assert samples.classes[0] == "illuminated"

    def test_disk_north_pole_glancing(self):
        samples = classify_boundary(Disk((0, 0), 1.0), E1, 8)
        # t = 1/4 is (0, 1)
        assert np.allclose(samples.points[2], [0, 1], atol=1e-12)
        assert samples.classes[2] == "glancing"

    def test_interval_endpoints(self):
        left, right = classify_boundary(Interval(0, 1), [1.0], 2).classes
        assert left == "shadow"
        assert right == "illuminated"

    def test_zero_field_rejected(self):
        with pytest.raises(InvalidFieldError):
            classify_boundary(Disk((0, 0), 1.0), [0.0, 0.0], 16)

    def test_roundtrip_consistency(self):
        # re-evaluating <X, nu> must reproduce the stored classification
        X = np.array([0.3, -1.2])
        s = classify_boundary(Ellipse((0.5, -0.2), (2, 1), 0.4), X, 64)
        for nu, cls in zip(s.normals, s.classes):
            v = float(np.dot(X, nu))
            want = "illuminated" if v > 1e-10 else ("shadow" if v < -1e-10 else "glancing")
            assert cls == want

    def test_rotation_equivariance(self):
        # rotate domain and field by a whole number of sample spacings so the
        # sample sets correspond exactly
        n, k = 32, 7
        R = rot(2 * np.pi * k / n)
        base = classify_boundary(Disk((0, 0), 1.0), E1, n)
        rotated = classify_boundary(Disk((0, 0), 1.0), R @ E1, n)
        for p, cls in zip(base.points, base.classes):
            gap = np.linalg.norm(rotated.points - R @ p, axis=1)
            match = int(np.argmin(gap))
            assert gap[match] < 1e-9
            assert rotated.classes[match] == cls

    def test_disk_glancing_set_is_two_poles(self):
        samples = classify_boundary(Disk((0, 0), 1.0), E1, 4096)
        glancing = samples.points[samples.classes == "glancing"]
        # exact zeros of <e1, nu> = cos theta occur only at the two poles
        assert 0 < len(glancing) <= 4
        for p in glancing:
            assert min(abs(p[1] - 1), abs(p[1] + 1)) < 1e-5

    def test_sample_ordering_and_count(self):
        samples = classify_boundary(SQUARE, E1, 40)
        assert len(samples.t) == 40
        assert all(samples.t[i] < samples.t[i + 1] for i in range(39))


class TestBoundaryFrame:
    def test_normal_incidence(self):
        fr = boundary_frame(Disk((0, 0), 1.0), E1, [1.0, 0.0])
        assert fr.nu1 == pytest.approx(1.0)
        assert fr.x_prime == pytest.approx(0.0, abs=1e-12)
        # X has no tangential part: the tangent is the counterclockwise one
        assert np.array_equal(fr.tangent, [-fr.normal[1], fr.normal[0]])

    def test_45_degree_incidence(self):
        x0 = np.array([1, 1]) / np.sqrt(2)
        fr = boundary_frame(Disk((0, 0), 1.0), E1, x0)
        assert fr.nu1 == pytest.approx(1 / np.sqrt(2))
        assert fr.x_prime == pytest.approx(1 / np.sqrt(2))
        # the tangent is e1' = (X/|X| - nu1 nu) / X', a unit vector along
        # the tangential part of X
        assert abs(np.dot(fr.tangent, fr.normal)) < 1e-12
        assert np.linalg.norm(fr.tangent) == pytest.approx(1.0)
        assert np.allclose(fr.tangent, (E1 - fr.nu1 * fr.normal) / fr.x_prime)

    def test_ellipse_axis_point(self):
        # derived oracle: the implicit-function normal at (2, 0) of
        # x^2/4 + y^2 = 1 is exactly e1 (checked by finite differences of F)
        ell = Ellipse((0, 0), (2, 1))
        eps = 1e-6
        F = lambda p: ell.implicit([p])[0]
        g = np.array([
            (F([2 + eps, 0]) - F([2 - eps, 0])) / (2 * eps),
            (F([2, eps]) - F([2, -eps])) / (2 * eps),
        ])
        g /= np.linalg.norm(g)
        fr = boundary_frame(ell, E1, [2.0, 0.0])
        assert np.allclose(fr.normal, g, atol=1e-9)
        assert fr.nu1 == pytest.approx(1.0)

    def test_off_boundary_rejected(self):
        with pytest.raises(GeometryError):
            boundary_frame(Disk((0, 0), 1.0), E1, [0.5, 0.0])

    def test_interval_frames(self):
        fr = boundary_frame(Interval(0, 1), [1.0], [1.0])
        assert fr.nu1 == pytest.approx(1.0)
        fr0 = boundary_frame(Interval(0, 1), [1.0], [0.0])
        assert fr0.nu1 == pytest.approx(-1.0)

    def test_field_norm_independent(self):
        fr1 = boundary_frame(Disk((0, 0), 1.0), [3.0, 0.0], [1.0, 0.0])
        assert fr1.nu1 == pytest.approx(1.0)


class TestCurvatureAndJets:
    def test_disk_curvature_positive(self):
        ks = Disk((0, 0), 2.0).boundary_curvature(np.linspace(0, 1, 7))
        assert np.allclose(ks, 0.5)

    def test_graph_jet_disk(self):
        d = Disk((0, 0), 1.0)
        fr = boundary_frame(d, E1, [1.0, 0.0])
        g = boundary_graph_jet(d, fr, 6)
        # sqrt(1 - t^2) - 1 = -t^2/2 - t^4/8 - t^6/16
        assert g.coeffs[2] == pytest.approx(-0.5)
        assert g.coeffs[4] == pytest.approx(-0.125)
        assert g.coeffs[6] == pytest.approx(-1 / 16)
        assert abs(g.coeffs[1]) < 1e-14 and abs(g.coeffs[3]) < 1e-14

    def test_graph_jet_matches_boundary(self):
        ell = Ellipse((0, 0), (2, 1), angle=0.3)
        t0 = 0.13
        x0 = ell.boundary_points([t0])[0]
        fr = boundary_frame(ell, E1, x0)
        g = boundary_graph_jet(ell, fr, 6)
        # walk along the true boundary and compare against the graph
        for dt in (1e-3, 3e-3, 1e-2):
            p = ell.boundary_points([t0 + dt])[0]
            tang = float(np.dot(p - x0, fr.tangent))
            norm = float(np.dot(p - x0, fr.normal))
            assert abs(norm - g.eval(tang).real) < 30 * abs(tang) ** 7 + 1e-13
