import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab import cli
from pslab.cli import Artifacts, emit_svg_heatmap, main, run
from pslab.errors import ConfigError
from pslab.geometry import Interval
from pslab.operators import conjugated_spectrum_oracle


def swapped_circle(n):
    """The unit circle's n-gon with vertices 1 and 2 swapped: not simple."""
    t = 2.0 * np.pi * np.arange(n) / n
    v = np.column_stack([np.cos(t), np.sin(t)])
    v[[1, 2]] = v[[2, 1]]
    return v


def write_config(tmp_path, obj, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj, indent=1))
    return p


def classify_config(outdir):
    return {
        "experiment": "classify",
        "domain": {"type": "disk", "center": [0, 0], "radius": 1.0},
        "field": {"X": [1.0, 0.0]},
        "params": {"n_samples": 64},
        "output_dir": str(outdir),
    }


INTERVAL = {"type": "interval", "a": 0.0, "b": 1.0}
DISK = {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}
LSHAPE = {"type": "polygon",
          "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}

# one small config per experiment, and the SHA-256 prefix of each
# artifact; a row runs the experiment it is named after unless it names one
FROZEN = {
    "classify": {"domain": {"type": "ellipse", "center": [0.1, -0.2],
                            "semi_axes": [1.2, 0.7], "angle": 0.4},
                 "field": {"X": [1.0, 0.5]}, "params": {"n_samples": 48}},
    # the one-dimensional endpoint samples
    "classify-interval": {"experiment": "classify", "domain": INTERVAL,
                          "field": {"X": [1.0]}, "params": {"n_samples": 2}},
    # polygon vertices take the bisector of their two edge normals
    "classify-polygon": {"experiment": "classify", "domain": LSHAPE,
                         "field": {"X": [1.0, 0.3]},
                         "params": {"n_samples": 64}},
    "hull": {"domain": DISK, "field": {"X": [1.0, 0.0]},
             "params": {"generators": "gamma_plus", "n_samples": 128}},
    # configs/hull_lshape.json without its oracle: the geodesic between the
    # generators bends around the reflex vertex (1, 1)
    "hull-lshape": {"experiment": "hull",
                    "domain": {"type": "polygon",
                               "vertices": [[0, 0], [2, 0], [2, 2], [1, 2],
                                            [1, 1], [0, 1]]},
                    "field": {"X": [1.0, 0.0]},
                    "params": {"generators": [[0.0, 0.5], [1.5, 2.0]],
                               "resolution": 0.02}},
    "quasimode": {"domain": DISK, "field": {"X": [1.0, 0.0]},
                  "params": {"z": [1.0, 0.5], "h": 0.05, "x0": [1.0, 0.0],
                             "grid": {"nx": 12, "ny": 10}}},
    # the d = 1 frame maps and residual quadrature
    "quasimode-interval": {"experiment": "quasimode", "domain": INTERVAL,
                           "field": {"X": [1.0]},
                           "params": {"z": [1.0, 0.5], "h": 0.05, "x0": [1.0],
                                      "grid": {"nx": 12}}},
    # oblique incidence: the frame tangent is e1', not the CCW fallback
    "quasimode-oblique": {"experiment": "quasimode", "domain": DISK,
                          "field": {"X": [1.0, 0.0]},
                          "params": {"z": [1.0, 0.5], "h": 0.05,
                                     "x0": [math.cos(0.5), math.sin(0.5)],
                                     "grid": {"nx": 12, "ny": 10}}},
    "quasimode-characteristic": {"experiment": "quasimode", "domain": DISK,
                                 "field": {"X": [1.0, 0.0]},
                                 "params": {"z": [1.0, 0.5], "h": 0.05,
                                            "x0": [1.0, 0.0],
                                            "grid": {"nx": 12, "ny": 10},
                                            "backend": "characteristic"}},
    # a polygon edge: the cutoff shrinks until the support clears the
    # edges y = 0 and y = 1, which the flat boundary graph does not see
    "quasimode-lshape": {"experiment": "quasimode",
                         "domain": {"type": "polygon",
                                    "vertices": [[0, 0], [2, 0], [2, 2],
                                                 [1, 2], [1, 1], [0, 1]]},
                         "field": {"X": [-1.0, 0.0]},
                         "params": {"z": [1.0, 0.5], "h": 0.05,
                                    "x0": [0.0, 0.5],
                                    "grid": {"nx": 12, "ny": 10}}},
    "pseudospectrum": {"domain": INTERVAL, "field": {"X": [1.0]},
                       "params": {"h_list": [0.05, 0.1],
                                  "rect": [-0.5, 1.5, -1.0, 1.0],
                                  "resolution": [4, 3]}},
    "spectrum": {"domain": DISK, "field": {"X": [1.0, 0.0]},
                 "params": {"h": 0.2, "k": 3}},
    "pseudomode": {"domain": INTERVAL, "field": {"X": [1.0]},
                   "params": {"z": [1.0, 0.5], "h": 0.05}},
    # the disk's nearest-boundary-sample query in localization_profile
    "pseudomode-disk": {"experiment": "pseudomode", "domain": DISK,
                        "field": {"X": [1.0, 0.0]},
                        "params": {"z": [1.0, 0.5], "h": 0.05, "dx": 0.05}},
    # Shortley-Weller arms on a polyline domain: 250 of the bisection
    # midpoints land exactly on an edge, where the sign reads outside
    "pseudomode-lshape": {"experiment": "pseudomode",
                          "domain": {"type": "polygon",
                                     "vertices": [[0, 0], [2, 0], [2, 2],
                                                  [1, 2], [1, 1], [0, 1]]},
                          "field": {"X": [-1.0, 0.0]},
                          "params": {"z": [1.0, 0.5], "h": 0.05,
                                     "dx": 0.025}},
    # a smooth domain whose signed distance is the 4,096-gon's
    "spectrum-ellipse": {"experiment": "spectrum",
                         "domain": {"type": "ellipse", "center": [0.1, -0.2],
                                    "semi_axes": [1.2, 0.7], "angle": 0.4},
                         "field": {"X": [1.0, 0.0]},
                         "params": {"h": 0.2, "k": 3, "dx": 0.05,
                                    "shift": 0.25}},
    "exit-time": {"domain": INTERVAL, "field": {"X": [-0.8]},
                  "params": {"h": 0.05, "dt": 6.25e-4, "seed": 7,
                             "n_paths": 40, "x0": [0.1], "lambda": 0.1,
                             "survival_s": [0.05, 0.1]}},
    # a polyline domain: every step's signed distance queries the 4,096-gon
    "exit-time-ellipse": {"experiment": "exit-time",
                          "domain": {"type": "ellipse", "center": [0.1, -0.2],
                                     "semi_axes": [1.2, 0.7], "angle": 0.4},
                          "field": {"X": [-0.4, 0.0]},
                          "params": {"b": [0.4, 0.0], "h": 0.1, "dt": 2e-3,
                                     "seed": 1, "n_paths": 8,
                                     "x0": [0.1, -0.2], "lambda": 0.05,
                                     "t_max": 2.0}},
    "blowup": {"domain": INTERVAL, "field": {"X": [1.0]},
               "params": {"h": 0.01, "mu": 0.2, "p": 2, "n": 400,
                          "t_end": 0.3,
                          "bump": {"center": [0.15], "a": 0.05,
                                   "delta": 0.36}}},
}
FROZEN_DIGESTS = {
    "classify": {"boundary.csv": "cbb7bcb3cd33c309"},
    "classify-interval": {"boundary.csv": "222a67660dbb7b7e"},
    "classify-polygon": {"boundary.csv": "284389b52c2e6a09"},
    "hull": {"hull.geojson": "c8301b425f96db65",
             "hull_arcs.csv": "248c7acab9780e56",
             "tight_arcs.csv": "8e08764d13dd7981"},
    "hull-lshape": {"hull.geojson": "0858947c9f9ad8c8",
                    "hull_arcs.csv": "73ab6ceb4a810609"},
    "quasimode": {"quasimode_grid.csv": "b8f316eea5448b96",
                  "quasimode_manifest.json": "f5288a2dc344ff3f"},
    "quasimode-interval": {"quasimode_grid.csv": "0b7f36a29ef9238d",
                           "quasimode_manifest.json": "5630240893ebc9b8"},
    "quasimode-oblique": {"quasimode_grid.csv": "0c3ce43c1bfe2d65",
                          "quasimode_manifest.json": "88cfca8ff92fe6f7"},
    "quasimode-characteristic": {"quasimode_grid.csv": "af83c85d9f179868",
                                 "quasimode_manifest.json": "b924f46496487bb6"},
    "quasimode-lshape": {"quasimode_grid.csv": "b92045edddebcad2",
                         "quasimode_manifest.json": "8f00d372ab9a8b02"},
    "pseudospectrum": {"heatmap_h0.05.svg": "729c0fd13e572770",
                       "heatmap_h0.1.svg": "9a79ae4d67518773",
                       "pseudospectrum_h0.05.csv": "c093844d044486ff",
                       "pseudospectrum_h0.1.csv": "548b6f88337f44e1",
                       "scan_summary.json": "fc79f213ef53b65a"},
    "spectrum": {"eigenvalues.csv": "c2f6e4bda9843ab3",
                 "spectrum_summary.json": "60cf0fb9a1c0065c"},
    "pseudomode": {"arc_profile.csv": "b3620096e1194aff",
                   "pseudomode.csv": "e1292ffe89dd30a3",
                   "pseudomode_summary.json": "8732b209af227790",
                   "radial_profile.csv": "322e3d2a5df3cbd5"},
    "pseudomode-disk": {"arc_profile.csv": "78ebba1a1e94d976",
                        "pseudomode.csv": "caebe099dd9e42ee",
                        "pseudomode_summary.json": "68410e5d9a147cbf",
                        "radial_profile.csv": "dae575755417ab76"},
    "pseudomode-lshape": {"arc_profile.csv": "51acd97be6a682d3",
                          "pseudomode.csv": "d2feef60d59fd5cd",
                          "pseudomode_summary.json": "a8f53fe5326fa8f5",
                          "radial_profile.csv": "715d876ff2274142"},
    "spectrum-ellipse": {"eigenvalues.csv": "d94c08c72d27f6bd",
                         "spectrum_summary.json": "60cf0fb9a1c0065c"},
    "exit-time": {"estimate.json": "ffef0f927208d275",
                  "samples.csv": "e1a516c7b8874ef1",
                  "survival.csv": "8b35c0a3079a0a0d"},
    "exit-time-ellipse": {"estimate.json": "d343e8a1d63f03c3",
                          "samples.csv": "803962a3a0c7cde6"},
    "blowup": {"blowup_report.json": "8d2763242c91a903",
               "trajectory.csv": "6f0e6ec513ce9dea"},
}


class TestRunner:
    def test_classify_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, classify_config(tmp_path / "out"))
        assert run(str(cfg)) == 0
        out = tmp_path / "out"
        assert (out / "boundary.csv").exists()
        man = json.loads((out / "manifest.json").read_text())
        assert "boundary.csv" in man["files"]
        assert json.loads(man["config_echo"])["experiment"] == "classify"

    def test_replay_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "exit-time",
            "domain": {"type": "interval", "a": 0.0, "b": 1.0},
            "field": {"X": [-0.8]},
            "params": {"b": [0.8], "h": 0.05, "dt": 6.25e-4, "seed": 5,
                       "n_paths": 200, "x0": [0.05], "lambda": 0.1,
                       "t_max": 30.0},
            "output_dir": str(tmp_path / "out1"),
        })
        assert run(str(cfg)) == 0
        data1 = (tmp_path / "out1" / "samples.csv").read_bytes()
        est1 = (tmp_path / "out1" / "estimate.json").read_bytes()
        cfg2 = write_config(tmp_path, json.loads(cfg.read_text())
                            | {"output_dir": str(tmp_path / "out2")}, "c2.json")
        assert run(str(cfg2)) == 0
        assert (tmp_path / "out2" / "samples.csv").read_bytes() == data1
        assert (tmp_path / "out2" / "estimate.json").read_bytes() == est1

    def test_manifest_hashes_complete(self, tmp_path):
        import hashlib
        cfg = write_config(tmp_path, classify_config(tmp_path / "out"))
        run(str(cfg))
        out = tmp_path / "out"
        man = json.loads((out / "manifest.json").read_text())
        for name, digest in man["files"].items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == digest
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert on_disk == set(man["files"])

    def test_rerun_into_same_directory(self, tmp_path):
        # a second run writes the same manifest and bytes, each as a new file
        # rather than over the first run's: a hard link to it stays intact
        cfg = write_config(tmp_path, classify_config(tmp_path / "out"))
        out = tmp_path / "out"
        assert run(str(cfg)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        os.link(out / "boundary.csv", tmp_path / "kept.csv")
        assert run(str(cfg)) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        assert not (out / "boundary.csv").samefile(tmp_path / "kept.csv")
        assert (tmp_path / "kept.csv").read_bytes() == first["boundary.csv"]

    def test_invalid_z_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "quasimode",
            "domain": {"type": "disk", "center": [0, 0], "radius": 1.0},
            "field": {"X": [1.0, 0.0]},
            "params": {"z": [0.25, 0.5], "h": 0.05, "x0": [1.0, 0.0]},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 2
        err = capsys.readouterr().err
        assert "no-quasimode" in err

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "pseudospectrum",
            "domain": {"type": "interval", "a": 0, "b": 1},
            "field": {"X": [1.0]},
            "params": {"rect": [-0.5, 1.5, -1, 1], "resolution": [4, 4]},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 2
        assert "params.h_list" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, section, patch, key", [
        ("classify", None, {"domain": "disk"}, "domain"),
        ("pseudospectrum", "domain", {"a": "zero"}, "domain.a"),
        ("classify", "field", {"X": ["one", 0.0]}, "field.X"),
        ("quasimode", "params", {"z": 1.0}, "params.z"),
        ("quasimode", "params", {"z": [1.0, 0.5, 0.0]}, "params.z"),
        ("pseudospectrum", "params", {"h_list": 0.05}, "params.h_list"),
        # both h would write pseudospectrum_h0.1.csv
        ("pseudospectrum", "params", {"h_list": [0.1, 0.1000001]},
         "params.h_list"),
        ("pseudospectrum", "params", {"dx_rule": "8"}, "params.dx_rule"),
        ("pseudospectrum", "params", {"resolution": 5}, "params.resolution"),
        ("pseudospectrum", "params", {"rect": ["-0.5", "1.5", "-1", "1"]},
         "params.rect"),
        ("exit-time", "params", {"n_paths": 0}, "params.n_paths"),
        ("exit-time", "params", {"n_paths": 1}, "params.n_paths"),
        ("exit-time", "params", {"dt": -1e-4}, "params.dt"),
        ("spectrum", "params", {"h": -0.1}, "params.h"),
        ("quasimode", "params", {"backend": "foo"}, "params.backend"),
        ("quasimode", "params", {"order": 1}, "params.order"),
        ("quasimode", "params", {"order": "4"}, "params.order"),
        ("quasimode", "params", {"n_max": -1}, "params.n_max"),
        ("quasimode", "params", {"radii": [0.3, 0.1]}, "params.radii"),
        ("quasimode", "params", {"a_param": 2}, "params.a_param"),
        ("quasimode", "params", {"eps": 0}, "params.eps"),
        ("quasimode", "params", {"grid": {"nx": "a"}}, "params.grid.nx"),
        ("spectrum", "params", {"n": "abc"}, "params.n"),
        ("blowup", "params", {"t_end": "x"}, "params.t_end"),
        ("exit-time", "params", {"t_max": "x"}, "params.t_max"),
        ("hull", "params", {"oracle_spacing": "x"}, "params.oracle_spacing"),
        ("classify", "params", {"tol": "x"}, "params.tol"),
        ("blowup", "params", {"snapshot_times": ["x"]},
         "params.snapshot_times"),
        ("blowup", "params", {"margin": 0.02}, "params.margin"),
        ("exit-time", "params", {"survival_s": 0.1}, "params.survival_s"),
        ("hull", "params", {"generators": "corners"}, "params.generators"),
        ("spectrum", "params", {"n": 12, "k": 5}, "params.k"),
        ("quasimode", None, {"domain": {"type": "ellipse", "center": [0, 0],
                                        "semi_axes": [1.2, 0.7]},
                             "params": {"z": [1.0, 0.5], "h": 0.05,
                                        "x0": [1.2, 0.0],
                                        "backend": "characteristic"}},
         "params.backend"),
        ("quasimode", None, {"domain": {"type": "interval", "a": 0.0, "b": 1.0},
                             "field": {"X": [1.0]},
                             "params": {"z": [1.0, 0.5], "h": 0.05,
                                        "x0": [1.0],
                                        "backend": "characteristic"}},
         "params.backend"),
        ("exit-time", "params", {"seed": 1e30}, "params.seed"),
        ("exit-time", "params", {"lambda": 1.0, "b": [0.8]}, "params.lambda"),
        ("exit-time", "params", {"lambda": 0, "survival_s": [0.1]},
         "params.lambda"),
        ("exit-time", None, {"domain": {"type": "disk", "center": [0, 0],
                                        "radius": 1.0},
                             "field": {"X": [1.0, 0.0]},
                             "params": {"h": 0.05, "dt": 5e-4, "seed": 1,
                                        "n_paths": 20, "x0": [0.0, 0.0],
                                        "lambda": 5.0, "t_max": 1.0}},
         "params.lambda"),
        ("blowup", "params", {"alpha": 0.5}, "params.alpha"),
        ("exit-time", "params", {"x0": [1.5]}, "params.x0"),
        ("exit-time", "params", {"x0": [1.0]}, "params.x0"),
        ("spectrum", "params", {"shfit": 0.25}, "params.shfit"),
        ("spectrum", None, {"domain": {"type": "disk", "center": [0, 0],
                                       "radius": 1.0},
                            "field": {"X": [1.0, 0.0]},
                            "params": {"h": 0.1, "k": 3, "n": 50}},
         "params.n"),
        ("spectrum", "params", {"dx": 0.01}, "params.dx"),
        ("quasimode", "params", {"grid": {"nz": 3}}, "params.grid.nz"),
        ("blowup", "params", {"bump": {"center": [0.15], "a": 0.05,
                                       "delta": 0.36, "width": 0.1}},
         "params.bump.width"),
        ("hull", None, {"domain": {"type": "polygon",
                                   "vertices": swapped_circle(3000).tolist()}},
         "domain.vertices"),
        # grids that assembly would refuse, refused from the config
        ("spectrum", "params", {"n": 5}, "params.n"),
        ("blowup", "params", {"n": 4}, "params.n"),
        ("pseudomode", "params", {"h": 0.5, "dx": 0.2}, "params.dx"),
        ("pseudomode", None, {"domain": {"type": "interval", "a": 0.0,
                                         "b": 1.0},
                              "field": {"X": [1.0]},
                              "params": {"z": [1.5, 0.5], "h": 1.2}},
         "params.n"),
        ("pseudospectrum", None, {"domain": {"type": "disk",
                                             "center": [0, 0], "radius": 1.0},
                                  "field": {"X": [1.0, 0.0]},
                                  "params": {"h_list": [0.1, 1.5],
                                             "rect": [-0.5, 1.5, -1.0, 1.0],
                                             "resolution": [4, 3]}},
         "params.h_list"),
        # dx = h / 8 leaves 7 and 3 interior points of [0, 1]
        ("pseudospectrum", "params", {"h_list": [1.0, 2.0]}, "params.h_list"),
        # x0 and z that the quasimode construction would refuse once started
        ("quasimode", "params", {"x0": [0.5, 0.0]}, "params.x0"),
        ("quasimode", "params", {"x0": [-1.0, 0.0]}, "params.x0"),
        ("quasimode", "params", {"z": [0.25, 0.0]}, "params.z"),
        ("quasimode", None, {"domain": {"type": "interval", "a": 0.0, "b": 1.0},
                             "field": {"X": [1.0]},
                             "params": {"z": [0.5, 0.0], "h": 0.05,
                                        "x0": [1.0]}},
         "params.z"),
        ("quasimode", None, {"domain": {"type": "polygon",
                                        "vertices": [[0, 0], [2, 0], [2, 2],
                                                     [1, 2], [1, 1], [0, 1]]},
                             "field": {"X": [-1.0, 0.0]},
                             "params": {"z": [1.0, 0.5], "h": 0.05,
                                        "x0": [0.0, 0.0]}},
         "params.x0"),
        # bumps that the blow-up run would refuse once started
        ("blowup", "params", {"bump": {"center": [0.8], "a": 0.05,
                                       "delta": 0.36}}, "params.bump.center"),
        ("blowup", "params", {"bump": {"center": [0.15], "a": 0.05,
                                       "delta": 0.36, "amplitude": 0.5,
                                       "cap_constant": 10.0}},
         "params.bump.amplitude"),
        ("blowup", "params", {"bump": {"center": [0.15], "a": 0.05,
                                       "delta": 0.36, "cap_constant": 1.0}},
         "params.bump.cap_constant"),
        # k above a quarter of the disk lattice's 208 points, which only the
        # built operator knows
        ("spectrum", None, {"domain": {"type": "disk", "center": [0, 0],
                                       "radius": 1.0},
                            "field": {"X": [1.0, 0.0]},
                            "params": {"h": 0.5, "dx": 0.125, "k": 60}},
         "params.k"),
    ], ids=["domain-string", "interval-a-string", "field-X-string", "z-scalar",
            "z-three-entries", "h_list-scalar", "h_list-names-collide",
            "dx_rule-string",
            "resolution-scalar", "rect-strings", "n_paths-zero", "n_paths-one",
            "dt-negative", "spectrum-h-negative", "backend-unknown",
            "order-one", "order-string", "n_max-negative", "radii-reversed",
            "a_param-two", "eps-zero", "grid-nx-string", "spectrum-n-string",
            "t_end-string", "t_max-string", "oracle_spacing-string",
            "tol-string", "snapshot_times-strings", "margin-retired",
            "survival_s-scalar",
            "generators-string", "spectrum-k-over-quarter-n",
            "characteristic-ellipse", "characteristic-interval",
            "seed-beyond-philox-key", "lambda-above-principal-eigenvalue",
            "lambda-zero-with-survival", "lambda-above-disk-eigenvalue",
            "alpha-above-mu", "x0-outside-interval", "x0-on-boundary",
            "misspelt-key", "n-on-a-disk", "dx-on-an-interval",
            "grid-key-unknown", "bump-key-unknown", "polygon-not-simple-3000",
            "spectrum-n-below-8", "blowup-n-below-8", "disk-dx-too-coarse",
            "pseudomode-default-n-below-8", "disk-scan-h-too-coarse",
            "interval-scan-h-too-coarse", "x0-off-boundary", "x0-in-shadow",
            "z-excluded-value", "interval-real-z-above-quarter",
            "x0-at-lshape-vertex", "bump-leaves-domain", "bump-above-cap",
            "bump-cap-below-default-peak", "disk-spectrum-k-over-quarter-n"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, experiment,
                                      section, patch, key):
        interval = {"type": "interval", "a": 0.0, "b": 1.0}
        disk = {"type": "disk", "center": [0, 0], "radius": 1.0}
        base = {
            "classify": classify_config(tmp_path / "out"),
            "quasimode": {"domain": disk, "field": {"X": [1.0, 0.0]},
                          "params": {"z": [1.0, 0.5], "h": 0.05,
                                     "x0": [1.0, 0.0]}},
            "pseudomode": {"domain": disk, "field": {"X": [1.0, 0.0]},
                           "params": {"z": [1.0, 0.5], "h": 0.05}},
            "pseudospectrum": {"domain": interval, "field": {"X": [1.0]},
                               "params": {"h_list": [0.05],
                                          "rect": [-0.5, 1.5, -1.0, 1.0],
                                          "resolution": [4, 3]}},
            "exit-time": {"domain": interval, "field": {"X": [-0.8]},
                          "params": {"h": 0.05, "dt": 6.25e-4, "seed": 5,
                                     "n_paths": 20, "x0": [0.05],
                                     "lambda": 0.1, "t_max": 1.0}},
            "spectrum": {"domain": interval, "field": {"X": [1.0]},
                         "params": {"h": 0.05, "k": 3, "n": 200}},
            "hull": {"domain": {"type": "polygon",
                                "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                     "field": {"X": [1.0, 0.0]},
                     "params": {"generators": [[0.1, 0.1], [0.9, 0.9]]}},
            "blowup": {"domain": interval, "field": {"X": [1.0]},
                       "params": {"h": 0.01, "mu": 0.2, "p": 2, "n": 200,
                                  "bump": {"center": [0.15], "a": 0.05,
                                           "delta": 0.36}}},
        }[experiment]
        cfg = json.loads(json.dumps(base)) | {
            "experiment": experiment, "output_dir": str(tmp_path / "out")}
        if section is None:
            cfg |= patch
        else:
            cfg[section] |= patch
        assert run(str(write_config(tmp_path, cfg))) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, key, spelled", [
        ({"experiment": "spectrum", "domain": INTERVAL, "field": {"X": [1.0]},
          "params": {"h": 0.05, "k": 3, "n": 400}}, "n", 400.0),
        ({"experiment": "pseudomode", "domain": INTERVAL,
          "field": {"X": [1.0]},
          "params": {"z": [1.0, 0.5], "h": 0.05, "n": 200}}, "n", 200.0),
        ({"experiment": "blowup", "domain": INTERVAL, "field": {"X": [1.0]},
          "params": {"h": 0.01, "mu": 0.2, "p": 2, "n": 2000, "t_end": 0.1,
                     "bump": {"center": [0.15], "a": 0.05, "delta": 0.36}}},
         "n", 2000.0),
        ({"experiment": "pseudospectrum", "domain": INTERVAL,
          "field": {"X": [1.0]},
          "params": {"h_list": [0.05], "rect": [-0.5, 1.5, -1.0, 1.0],
                     "resolution": [4, 3]}}, "resolution", [4.0, 3.0]),
        ({"experiment": "hull", "domain": DISK, "field": {"X": [1.0, 0.0]},
          "params": {"generators": "gamma_plus", "n_samples": 256}},
         "n_samples", 256.0),
        # a float key: an int t_max once gave an int tau array, all zeros
        ({"experiment": "exit-time", "domain": INTERVAL,
          "field": {"X": [-0.8]},
          "params": {"h": 0.05, "dt": 6.25e-4, "seed": 5, "n_paths": 20,
                     "x0": [0.05], "lambda": 0.1, "t_max": 3.0}},
         "t_max", 3),
    ], ids=["spectrum-n", "pseudomode-n", "blowup-n",
            "pseudospectrum-resolution", "hull-n_samples", "exit-time-t_max"])
    def test_integral_value_spelled_either_way(self, tmp_path, config, key,
                                               spelled):
        """An integral number runs the same written as int or as float."""
        outs = []
        for tag, value in (("plain", config["params"][key]),
                           ("spelled", spelled)):
            cfg = config | {"params": config["params"] | {key: value},
                            "output_dir": str(tmp_path / tag)}
            assert run(str(write_config(tmp_path, cfg, f"{tag}.json"))) == 0
            files = json.loads((tmp_path / tag / "manifest.json")
                               .read_text())["files"]
            outs.append({name: (tmp_path / tag / name).read_bytes()
                         for name in files})
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("row", sorted(FROZEN))
    def test_frozen_artifact_digests(self, tmp_path, row):
        """Every artifact of one small run per experiment, byte for byte;
        the configs leave most keys to their defaults."""
        cfg = {"experiment": row} | FROZEN[row] \
            | {"output_dir": str(tmp_path / "out")}
        assert run(str(write_config(tmp_path, cfg))) == 0
        files = json.loads((tmp_path / "out" / "manifest.json")
                           .read_text())["files"]
        assert {name: h[:16] for name, h in files.items()} \
            == FROZEN_DIGESTS[row]

    def test_compute_failure_writes_nothing(self, tmp_path, capsys):
        # every path needs about 0.6 to drift out, so all of them reach
        # t_max and the MGF estimate refuses the truncated tail
        cfg = write_config(tmp_path, {
            "experiment": "exit-time",
            "domain": {"type": "interval", "a": 0.0, "b": 1.0},
            "field": {"X": [-0.8]},
            "params": {"h": 0.05, "dt": 6.25e-4, "seed": 5, "n_paths": 20,
                       "x0": [0.5], "lambda": 0.1, "t_max": 0.05},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 1
        assert "compute failed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_main_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, classify_config(tmp_path / "out"))
        assert main(["hull", "--config", str(cfg)]) == 2

    def test_cli_main_classify(self, tmp_path):
        cfg = write_config(tmp_path, classify_config(tmp_path / "out"))
        assert main(["classify", "--config", str(cfg)]) == 0

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, classify_config(tmp_path / "out"))
        cfg.write_bytes(cfg.read_bytes().replace(b'"classify"',
                                                 b'"classify\xff"'))
        assert run(str(cfg)) == 2
        assert main(["classify", "--config", str(cfg)]) == 2
        assert "config unreadable" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(str(tmp_path), out_dir=str(out)) == 2
        assert main(["classify", "--config", str(tmp_path),
                     "--out", str(out)]) == 2
        assert "config unreadable" in capsys.readouterr().err
        assert not out.exists()

    def test_config_nested_too_deep_exits_2(self, tmp_path, capsys):
        # json.loads raises RecursionError past the interpreter's limit
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "out"
        assert run(str(cfg), out_dir=str(out)) == 2
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config unreadable" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "spectrum",
            "domain": {"type": "interval", "a": 0.0, "b": 1.0},
            "field": {"X": [1.0]},
            "params": {"h": 0.05, "k": 3, "n": 500, "shift": 0.25},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 0
        rows = (tmp_path / "out" / "eigenvalues.csv").read_text().strip().splitlines()
        assert rows[0] == "re,im,oracle"
        first = rows[1].split(",")
        assert abs(float(first[0]) - 0.2746740110027234) < 1e-3

    def test_untrusted_spectrum_says_so(self, tmp_path):
        # eigenvalues below |X|^2/4 on the unit disk at h = 0.01
        cfg = write_config(tmp_path, {
            "experiment": "spectrum",
            "domain": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "field": {"X": [1.0, 0.0]},
            "params": {"h": 0.01, "k": 5, "dx": 0.02, "shift": 0.25},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 0
        summary = json.loads(
            (tmp_path / "out" / "spectrum_summary.json").read_text())
        assert summary["converged"] is False

    def test_spectral_bound_is_the_conjugated_bound(self, tmp_path):
        # at h = 0.005, n = 4,000 shift-invert eigs returns a complex pair
        # where P's spectrum is real; the bound is mu - lambda_1 of the
        # conjugated form, in closed form, and no report flags it untrusted
        cfg = write_config(tmp_path, {
            "experiment": "blowup", "domain": INTERVAL, "field": {"X": [1.0]},
            "params": {"h": 0.005, "mu": 0.2, "p": 2, "n": 4000,
                       "dt": 1e-4, "t_end": 0.01,
                       "bump": {"center": [0.15], "a": 0.05,
                                "delta": 0.36}},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 0
        rep = json.loads((tmp_path / "out" / "blowup_report.json").read_text())
        assert rep["spectral_bound"] == 0.2 - conjugated_spectrum_oracle(
            Interval(0.0, 1.0), 0.005, np.array([1.0]), 1)[0]
        assert "spectral_bound_converged" not in rep

    def test_pseudospectrum_small_scan(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "pseudospectrum",
            "domain": {"type": "interval", "a": 0.0, "b": 1.0},
            "field": {"X": [1.0]},
            "params": {"h_list": [0.05], "rect": [-0.5, 1.5, -1.0, 1.0],
                       "resolution": [6, 5]},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 0
        assert (tmp_path / "out" / "heatmap_h0.05.svg").exists()
        csv = (tmp_path / "out" / "pseudospectrum_h0.05.csv").read_bytes()
        assert csv.splitlines()[0] == b"re_z,im_z,sigma_min,in_region"
        assert csv.count(b"\r\n") >= 30  # RFC-4180 line endings

    def test_hull_experiment_with_oracle(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "hull",
            "domain": {"type": "polygon",
                       "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "field": {"X": [1.0, 0.0]},
            "params": {"generators": [[0.1, 0.1], [0.9, 0.9]],
                       "resolution": 0.05, "oracle_spacing": 0.1},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 0
        check = json.loads((tmp_path / "out" / "oracle_check.json").read_text())
        assert check["passed"]

    def test_quasimode_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "quasimode",
            "domain": {"type": "disk", "center": [0, 0], "radius": 1.0},
            "field": {"X": [1.0, 0.0]},
            "params": {"z": [1.0, 0.5], "h": 0.05, "x0": [1.0, 0.0],
                       "grid": {"nx": 24, "ny": 20}},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 0
        man = json.loads((tmp_path / "out" / "quasimode_manifest.json").read_text())
        assert man["ratio"] < 0.2
        assert man["c"] == pytest.approx(0.2751252614, abs=1e-8)

    def test_blowup_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "blowup",
            "domain": {"type": "interval", "a": 0.0, "b": 1.0},
            "field": {"X": [1.0]},
            "params": {"h": 0.01, "mu": 0.2, "p": 2, "n": 1000,
                       "dt": 2e-4, "t_end": 0.6, "alpha": 0.1,
                       "bump": {"center": [0.15], "a": 0.05, "delta": 0.36,
                                "cap_constant": 10.0,
                                "amplitude": math.exp(-10.0)}},
            "output_dir": str(tmp_path / "out"),
        })
        assert run(str(cfg)) == 0
        rep = json.loads((tmp_path / "out" / "blowup_report.json").read_text())
        assert rep["blew_up"] and rep["t_blowup"] <= 0.5
        assert rep["spectral_bound"] <= -0.04
        assert rep["subsolution"]["ok"]


def fresh_python(code: str, *args: str, env: dict | None = None
                 ) -> subprocess.CompletedProcess:
    """code run by a new interpreter that imports this pslab, with ``env``
    added to this process's environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=os.environ | {"PYTHONPATH": path} | (env or {}),
                          capture_output=True, text=True, timeout=300)


def assert_frozen_in_child(tmp_path, rows, prelude="", env=None):
    """Run the FROZEN ``rows`` in a new interpreter that first executes
    ``prelude``; every artifact must match FROZEN_DIGESTS."""
    paths = [str(write_config(tmp_path, {"experiment": row} | FROZEN[row]
                              | {"output_dir": str(tmp_path / row)},
                              f"{row}.json")) for row in rows]
    r = fresh_python("import sys\n" + prelude
                     + "from pslab.cli import run\n"
                     "sys.exit(max([run(p) for p in sys.argv[1:]]))",
                     *paths, env=env)
    assert r.returncode == 0, r.stderr
    for row in rows:
        files = json.loads((tmp_path / row / "manifest.json")
                           .read_text())["files"]
        assert {name: h[:16] for name, h in files.items()} \
            == FROZEN_DIGESTS[row]


class TestColdStart:
    """A process loads scipy only for the experiments that compute with it."""

    def test_imports_load_no_scipy(self):
        r = fresh_python(
            "import sys, pslab.cli, pslab.evolution, pslab.sde, pslab.wkb, "
            "pslab.operators, pslab.geometry\n"
            "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == []

    def test_numpy_only_experiments_run_without_scipy(self, tmp_path):
        assert_frozen_in_child(
            tmp_path, ("classify", "quasimode", "quasimode-characteristic",
                       "exit-time", "exit-time-ellipse"),
            prelude="sys.modules['scipy'] = None   # any scipy import fails\n")


def test_quasimode_digests_with_one_blas_thread(tmp_path):
    """The quasimode jets are evaluated by BLAS matmuls; capped at one
    OpenBLAS thread they write the same bytes as the suite's default."""
    assert_frozen_in_child(
        tmp_path, sorted(row for row in FROZEN if row.startswith("quasimode")),
        env={"OPENBLAS_NUM_THREADS": "1"})


def reference_csv(header, rows) -> bytes:
    """The per-cell formatter the columnar writer must match byte for byte."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, str):
                cells.append(c)
            elif isinstance(c, (bool, np.bool_)):
                cells.append("true" if c else "false")
            elif isinstance(c, (int, np.integer)):
                cells.append(str(int(c)))
            else:
                cells.append(format(float(c), ".16e"))
        lines.append(",".join(cells))
    return ("\r\n".join(lines) + "\r\n").encode()


def written_csv(columns: dict) -> bytes:
    art = Artifacts(Path("unused"), "")
    art.write_csv("t.csv", columns)
    return art.files["t.csv"]


SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                  5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.max,
                  -sys.float_info.max, 1.8e308, -1.8e308, 1.0, 0.1, -2.5]
# every float64 bit pattern: NaN payloads and subnormals included
FLOAT_BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.sampled_from(SPECIAL_FLOATS).map(
        lambda v: int(np.float64(v).view(np.uint64))))


def column(kind: str, n: int):
    if kind == "f":
        return st.lists(FLOAT_BITS, min_size=n, max_size=n).map(
            lambda b: np.array(b, dtype=np.uint64).view(np.float64))
    if kind == "b":
        return st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    if kind == "i":
        return st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n,
                        max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    # a list of str, as the runners pass class names (numpy drops a
    # trailing NUL from its fixed-width strings)
    return st.lists(st.text(st.characters(codec="utf-8",
                                          exclude_characters="\x00"),
                            max_size=6), min_size=n, max_size=n)


class TestCsvWriter:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40), block=st.integers(1, 16),
           kinds=st.lists(st.sampled_from("fbis"), min_size=1, max_size=5))
    def test_matches_per_cell_reference(self, data, n, block, kinds):
        # a small block makes row counts straddle block edges
        cols = {f"c{k}": data.draw(column(kind, n))
                for k, kind in enumerate(kinds)}
        with mock.patch.object(cli, "_CSV_ROWS", block):
            got = written_csv(cols)
        assert got == reference_csv(list(cols), zip(*cols.values()))

    @pytest.mark.parametrize("n", [0, 1, cli._CSV_ROWS - 1, cli._CSV_ROWS,
                                   cli._CSV_ROWS + 1, 2 * cli._CSV_ROWS + 3])
    def test_lattice_columns_across_blocks(self, n):
        # repeated lattice coordinates, signed zeros and distinct values
        rng = np.random.default_rng(n)
        x = np.repeat(np.linspace(-1.0, 1.0, 97), 100)[:n]
        mass = rng.standard_normal(n) * (rng.random(n) < 0.5)
        mass[::7] = -0.0
        cols = {"x": x, "mass": mass, "in": mass > 0,
                "k": np.arange(n) - 5, "class": ["shadow"] * n}
        assert written_csv(cols) == reference_csv(list(cols),
                                                  zip(*cols.values()))

    def test_header_only(self):
        assert written_csv({"t0": [], "t1": []}) == b"t0,t1\r\n"


class TestSvg:
    def test_two_by_two(self):
        svg = emit_svg_heatmap([0.0, 1.0], [0.0, 1.0],
                               [[1.0, 2.0], [3.0, 4.0]])
        assert svg.count("<rect") >= 4

    def test_monotone_colors(self):
        import re
        svg = emit_svg_heatmap([0, 1, 2, 3], [0.0],
                               [[1e-4, 1e-3, 1e-2, 1e-1]])
        fills = re.findall(r'fill="(#[0-9a-f]{6})"', svg)[:4]
        # increasing data must map to the same order as the color-bar ramp
        lum = [int(f[1:3], 16) + int(f[3:5], 16) + int(f[5:7], 16) for f in fills]
        assert lum == sorted(lum)

    def test_parabola_overlay_through_expected_points(self):
        svg = emit_svg_heatmap(np.linspace(-0.5, 2.5, 4), np.linspace(-1.5, 1.5, 4),
                               np.ones((4, 4)), field_norm=1.0)
        assert "polyline" in svg

    def test_ragged_grid_rejected(self):
        with pytest.raises(ConfigError):
            emit_svg_heatmap([0, 1], [0, 1], [[1.0, 2.0, 3.0], [1, 2, 3]])
