import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pslab.cli import run
from pslab.geometry import Disk, Ellipse, Polygon
from pslab.hull import (
    hausdorff_distance,
    predicted_support,
    relative_convex_hull,
    relhull_grid_oracle,
)

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
LSHAPE = Polygon([(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)])
DISK = Disk((0, 0), 1.0)


def right_semicircle_generators(n=96):
    # closed right semicircle of the unit circle including the glancing poles
    ts = np.concatenate([np.linspace(-0.25, 0.25, n)]) % 1.0
    return DISK.boundary_points(ts)


class TestRelativeHull:
    def test_convex_domain_two_points_segment(self):
        hull = relative_convex_hull(SQUARE, np.array([[0.1, 0.1], [0.9, 0.9]]),
                                    resolution=0.02)
        assert hull.is_degenerate
        assert np.allclose(hull.polyline, [[0.1, 0.1], [0.9, 0.9]])
        mid = hull.contains([[0.5, 0.5]], tol=1e-6)
        assert mid[0]
        off = hull.contains([[0.2, 0.8]], tol=1e-6)
        assert not off[0]

    def test_lshape_geodesic_polyline(self):
        hull = relative_convex_hull(LSHAPE, np.array([[0.0, 0.5], [1.5, 2.0]]),
                                    resolution=0.02)
        assert hull.is_degenerate
        assert hull.polyline.shape == (3, 2)
        assert np.allclose(hull.polyline[1], [1.0, 1.0], atol=1e-9)
        assert hull.area == 0.0

    def test_disk_gamma_plus_right_half(self):
        hull = relative_convex_hull(DISK, right_semicircle_generators(),
                                    resolution=0.02)
        assert not hull.is_degenerate
        # the hull is the right half disk: x >= 0 within resolution
        inside = hull.contains([[0.5, 0.0], [0.3, 0.4], [0.05, -0.7]])
        assert inside.all()
        outside = hull.contains([[-0.3, 0.0], [-0.5, 0.4]], tol=1e-3)
        assert not outside.any()
        assert hull.area == pytest.approx(np.pi / 2, rel=0.02)

    def test_single_point(self):
        hull = relative_convex_hull(SQUARE, np.array([[0.4, 0.4]]))
        assert hull.is_degenerate
        assert hull.contains([[0.4, 0.4]])[0]
        assert not hull.contains([[0.6, 0.4]], tol=1e-6)[0]

    def test_outside_generators_dropped(self):
        hull = relative_convex_hull(SQUARE,
                                    np.array([[0.5, 0.5], [3.0, 3.0]]))
        assert len(hull.generators) == 1

    def test_empty_intersection(self):
        hull = relative_convex_hull(SQUARE, np.array([[5.0, 5.0]]))
        assert hull.empty
        assert hull.boundary_arcs() == []

    def test_idempotence(self):
        gen = right_semicircle_generators()
        hull = relative_convex_hull(DISK, gen, resolution=0.02)
        again = relative_convex_hull(DISK, hull.boundary_loop, resolution=0.02)
        a = hull.rasterize(0.05)
        b = again.rasterize(0.05)
        assert hausdorff_distance(a, b) <= 2 * 0.05

    def test_monotonicity(self):
        small = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.6]])
        large = np.vstack([small, [[0.2, 0.9], [0.9, 0.9]]])
        h1 = relative_convex_hull(SQUARE, small, resolution=0.02)
        h2 = relative_convex_hull(SQUARE, large, resolution=0.02)
        probe = h1.rasterize(0.04)
        assert h2.contains(probe, tol=0.04).all()

    def test_relative_convexity_random_segments(self):
        hull = relative_convex_hull(LSHAPE,
                                    np.array([[0.2, 0.5], [1.8, 1.6],
                                              [1.2, 0.3], [0.4, 0.9]]),
                                    resolution=0.02)
        rng = np.random.default_rng(5)
        pts = hull.rasterize(0.04)
        for _ in range(1000):
            i, j = rng.integers(0, len(pts), size=2)
            p, q = pts[i], pts[j]
            s = np.linspace(0, 1, 12)
            seg = p[None, :] + s[:, None] * (q - p)[None, :]
            if np.all(LSHAPE.signed_distance(seg) <= 1e-9):
                assert hull.contains(seg, tol=0.08).all()


class TestGridOracle:
    def test_single_point(self):
        pts = relhull_grid_oracle(SQUARE, np.array([[0.52, 0.48]]), 0.1)
        assert len(pts) == 1
        assert np.linalg.norm(pts[0] - [0.52, 0.48]) <= 0.1

    def test_convex_case_matches_ordinary_hull(self):
        gen = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])
        oracle = relhull_grid_oracle(SQUARE, gen, 0.05)
        hull = relative_convex_hull(SQUARE, gen, resolution=0.05)
        assert hausdorff_distance(oracle, hull.rasterize(0.05)) <= 2 * 0.05

    def test_two_spacing_self_consistency(self):
        gen = right_semicircle_generators(64)
        a = relhull_grid_oracle(DISK, gen, 0.08)
        b = relhull_grid_oracle(DISK, gen, 0.04)
        assert hausdorff_distance(a, b) <= 2 * 0.08

    def test_acceptance_fixtures(self):
        # square with two interior points
        sq_gen = np.array([[0.1, 0.1], [0.9, 0.9]])
        sq_o = relhull_grid_oracle(SQUARE, sq_gen, 0.05)
        sq_h = relative_convex_hull(SQUARE, sq_gen, resolution=0.05)
        assert hausdorff_distance(sq_o, sq_h.rasterize(0.05)) <= 2 * 0.05
        # disk with the closed right semicircle
        dk_gen = right_semicircle_generators(96)
        dk_o = relhull_grid_oracle(DISK, dk_gen, 0.08)
        dk_h = relative_convex_hull(DISK, dk_gen, resolution=0.08)
        assert hausdorff_distance(dk_o, dk_h.rasterize(0.08)) <= 2 * 0.08
        # L-shape with the geodesic pair
        ls_gen = np.array([[0.0, 0.5], [1.5, 2.0]])
        ls_o = relhull_grid_oracle(LSHAPE, ls_gen, 0.05)
        ls_h = relative_convex_hull(LSHAPE, ls_gen, resolution=0.05)
        assert hausdorff_distance(ls_o, ls_h.rasterize(0.05)) <= 2 * 0.05



def arc_total(arcs):
    total = 0.0
    for t0, t1 in arcs:
        span = t1 - t0
        total += span if span > 0 else span % 1.0
    return total

class TestPredictedSupport:
    def test_disk_tight_prediction_is_right_semicircle(self):
        pred = predicted_support(DISK, [1.0, 0.0], n_samples=512)
        assert pred.rule == "planar+curvature"
        # tight arcs cover parameters around t=0 spanning half the circle
        total = arc_total(pred.tight_arcs)
        assert total == pytest.approx(0.5, abs=0.02)
        xs = pred.tight_points[:, 0]
        assert xs.min() > -0.05

    def test_convex_domain_prediction_inside_gamma_plus(self):
        pred = predicted_support(DISK, [1.0, 0.0], n_samples=512)
        # hull arcs and tight arcs coincide for the disk
        h_total = arc_total(pred.hull_arcs)
        assert h_total <= 0.5 + 0.05

    def test_square_limit_shape(self):
        pred = predicted_support(SQUARE, [1.0, 0.0], n_samples=512)
        assert pred.rule == "planar"   # flat shadow edge: no curvature rule
        # tight set = right edge plus top/bottom (glancing) edges
        from pslab.geometry import classify_boundary
        classes = classify_boundary(SQUARE, [1.0, 0.0], 512).classes
        assert np.mean(classes != "shadow") == pytest.approx(0.75, abs=0.02)
        total = arc_total(pred.tight_arcs)
        assert total == pytest.approx(0.75, abs=0.02)
        # the hull of the three covered edges is the whole square
        assert pred.hull.area == pytest.approx(1.0, rel=0.05)
        h_total = arc_total(pred.hull_arcs)
        assert h_total > 0.95

    def test_ellipse_keeps_generators_between_polygon_vertices(self):
        # 1,000 samples fall between the vertices of the 4,096-gon behind the
        # ellipse's distance, up to 3.5e-7 outside it; closed membership must
        # still keep every one (1,024 samples fall on the vertices)
        ell = Ellipse((0.1, -0.2), (1.2, 0.7), 0.4)
        pred = predicted_support(ell, [1.0, 0.0], n_samples=1000)
        assert len(pred.tight_points) == len(pred.hull.generators) == 500
        ref = predicted_support(ell, [1.0, 0.0], n_samples=1024)
        assert pred.hull.area == pytest.approx(ref.hull.area, abs=1e-3)


class TestBitIdentity:
    """SHA-256 prefixes of the hull artifacts, recorded while hull.py kept its
    own unchunked copies of the polyline distance and inside test.  They pin
    the geodesic hull, its boundary arcs and the grid oracle bit for bit."""

    DISK_GAMMA_PLUS = {
        "experiment": "hull",
        "domain": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "field": {"X": [1.0, 0.0]},
        "params": {"generators": "gamma_plus", "resolution": 0.08,
                   "oracle_spacing": 0.08},
    }

    # a polyline domain: the hull, its arcs and the oracle's closure all
    # query the ellipse's 4,096-gon
    ELLIPSE_GAMMA_PLUS = {
        "experiment": "hull",
        "domain": {"type": "ellipse", "center": [0.1, -0.2],
                   "semi_axes": [1.2, 0.7], "angle": 0.4},
        "field": {"X": [1.0, 0.0]},
        "params": {"generators": "gamma_plus", "resolution": 0.1,
                   "oracle_spacing": 0.25},
    }

    @pytest.mark.parametrize("config, digests", [
        pytest.param(json.loads((Path(__file__).parents[1] / "configs"
                                 / "hull_lshape.json").read_text()),
                     {"hull.geojson": "0858947c9f9ad8c8",
                      "hull_arcs.csv": "73ab6ceb4a810609",
                      "oracle_points.csv": "5fce4b246742040c"},
                     id="lshape-config"),
        pytest.param(DISK_GAMMA_PLUS,
                     {"hull.geojson": "c159ebb6833f6170",
                      "hull_arcs.csv": "8eabf2b8d62a4bf2",
                      "oracle_points.csv": "f130a9911b48fafe"},
                     id="disk-gamma-plus-0.08"),
        pytest.param(ELLIPSE_GAMMA_PLUS,
                     {"hull.geojson": "fba9e86925b3cb41",
                      "hull_arcs.csv": "c7267a460ad0d2a7",
                      "oracle_points.csv": "d2dd31f58b140597"},
                     id="ellipse-gamma-plus-0.25"),
    ])
    def test_artifact_digests(self, tmp_path, config, digests):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config | {"output_dir": str(tmp_path / "out")}))
        assert run(str(cfg)) == 0
        files = json.loads((tmp_path / "out" / "manifest.json").read_text())["files"]
        assert {name: files[name][:16] for name in digests} == digests

    def test_oracle_bridges_three_components(self):
        # generators on three prongs of a comb: the closure stays three
        # components, and the bridge starts from the one labelled 1 (first
        # pixel in C order); digest recorded with the Python BFS labelling
        comb = Polygon([(0, 0), (5, 0), (5, 2), (4, 2), (4, 1), (3, 1), (3, 2),
                        (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)])
        pts = relhull_grid_oracle(
            comb, np.array([[0.5, 1.8], [2.5, 1.8], [4.5, 1.8]]), 0.1)
        digest = hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest()
        assert (len(pts), digest[:16]) == (111, "0562df8cccc0e800")
