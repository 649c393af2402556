"""The three workloads: their steps, the inputs made from the seed, and the
oracle checks on their outputs.

A workload is a list of steps; a step is one or more commands; a command is
either one ``pslab.cli.run`` of a generated config or one public ``pslab.sde``
call that the CLI cannot express.  Every command returns the SHA-256 of each
artifact it produced, which the replay checks compare across passes.
NOTES.md gives the reason for each workload and size.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("interval_1d", "disk_2d", "exit_mc")
SVD_TOL = 1e-8          # criterion 8c: dense vs sparse sigma_min
EIG_TOL = 1e-3          # criterion 2: eigenvalues vs the conjugated oracle
MGF_SE = 3.0            # criterion 6: MC estimate within 3 standard errors

INTERVAL = {"type": "interval", "a": 0.0, "b": 1.0}
DISK = {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}


@dataclass
class Command:
    label: str
    config: dict | None = None                 # a CLI experiment, or
    call: Callable[[], tuple[dict, object]] | None = None      # an API call


@dataclass
class Step:
    metric: str                 # end-to-end metric name, e.g. "blowup_s"
    commands: list[Command]


@dataclass
class Workload:
    name: str
    seed: int
    steps: list[Step]
    params: dict = field(default_factory=dict)   # what the checks need

    def commands(self):
        return [c for s in self.steps for c in s.commands]


def _sub_seeds(seed: int, k: int) -> list[int]:
    """k independent 31-bit seeds derived from the workload seed."""
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(k) % (2 ** 31 - 1)]


def _hash_arrays(**arrays) -> dict:
    return {k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
            for k, v in arrays.items()}


# --------------------------------------------------------------------- #
#  interval_1d
# --------------------------------------------------------------------- #

def interval_1d(seed: int, toy: bool = False) -> Workload:
    res = [4, 3] if toy else [8, 6]
    h_list = [0.05, 0.01] if toy else [0.05, 0.01, 0.005]
    h_blow = 0.01 if toy else 0.005
    n_blow = 800 if toy else 4000
    scan = {"experiment": "pseudospectrum", "domain": INTERVAL,
            "field": {"X": [1.0]},
            "params": {"h_list": h_list, "rect": [-0.5, 2.5, -1.5, 1.5],
                       "resolution": res}}
    # criterion 7 (blow-up from data of size exp(-1/(10h))) at a smaller h
    blow = {"experiment": "blowup", "domain": INTERVAL, "field": {"X": [1.0]},
            "params": {"h": h_blow, "mu": 0.2, "p": 2, "n": n_blow,
                       "dt": 1e-4, "t_end": 0.6, "alpha": 0.1,
                       "bump": {"center": [0.15], "a": 0.05, "delta": 0.36,
                                "cap_constant": 10.0,
                                "amplitude": math.exp(-1.0 / (10.0 * h_blow))}}}
    rng = np.random.default_rng(_sub_seeds(seed, 1)[0])
    # spot-check z: the four rect corners plus two seeded grid points per h
    corners = [(0, 0), (res[0] - 1, 0), (0, res[1] - 1),
               (res[0] - 1, res[1] - 1)]
    spot = {}
    for h in h_list:
        extra = []
        while len(extra) < 2:
            ij = (int(rng.integers(res[0])), int(rng.integers(res[1])))
            if ij not in corners and ij not in extra:
                extra.append(ij)
        spot[h] = corners + extra
    return Workload("interval_1d", seed, [
        Step("pseudospectrum_s", [Command("pseudospectrum", scan)]),
        Step("blowup_s", [Command("blowup", blow)]),
    ], {"spot": spot, "h_list": h_list, "resolution": res})


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _check_interval_1d(w: Workload, out: dict[str, Path], ctx) -> list:
    from pslab.geometry import Interval
    from pslab.operators import assemble_1d
    from pslab.spectral import SIGMA_FLOOR_FACTOR
    checks = []
    res = w.params["resolution"]
    for h in w.params["h_list"]:
        rows = _read_csv(out["pseudospectrum"] / f"pseudospectrum_h{h:g}.csv")
        n_re = res[0]
        # same operator the scan builds: dx = h/8 on [0, 1]
        n = max(8, int(round(1.0 / (h / 8.0))) - 1)
        op = assemble_1d(Interval(0.0, 1.0), h, [1.0], n)
        for i, j in w.params["spot"][h]:
            row = rows[j * n_re + i]
            z = complex(float(row["re_z"]), float(row["im_z"]))
            got = float(row["sigma_min"])
            # the dense-SVD oracle of smallest_singular_value(method="dense"),
            # singular values only, with the same floor
            want = max(float(np.linalg.svd(op.shifted(z).toarray(),
                                           compute_uv=False)[-1]),
                       SIGMA_FLOOR_FACTOR * op.norm_estimate())
            rel = abs(got - want) / want
            checks.append((f"sigma_min_vs_dense_svd[h={h:g},z={z.real:g}"
                           f"{z.imag:+g}i]", rel <= SVD_TOL,
                           f"n={n} sparse={got:.17g} dense={want:.17g} "
                           f"rel={rel:.3e} tol={SVD_TOL:g}"))
    rep = json.loads((out["blowup"] / "blowup_report.json").read_text())
    h = rep["parameters"]["h"]
    sub = rep.get("subsolution", {})
    for name, ok, detail in (
        ("blowup.bump_peak", rep["bump_peak"] <= math.exp(-1.0 / (10.0 * h))
         * (1 + 1e-12), f"peak={rep['bump_peak']:.3e}"),
        ("blowup.blew_up_by_0.5", bool(rep["blew_up"]) and
         rep["t_blowup"] is not None and rep["t_blowup"] <= 0.5,
         f"t_blowup={rep['t_blowup']}"),
        ("blowup.spectral_bound", rep["spectral_bound"] <= -0.04,
         f"bound={rep['spectral_bound']:.4f}"),
        ("blowup.subsolution", bool(sub.get("ok")) and
         sub.get("through_t", 0.0) >= 0.35, f"subsolution={sub}"),
    ):
        checks.append((name, ok, detail))
    return checks


# --------------------------------------------------------------------- #
#  disk_2d
# --------------------------------------------------------------------- #

def disk_2d(seed: int, toy: bool = False) -> Workload:
    dx = 1.0 / 40 if toy else 1.0 / 160
    field_ = {"X": [1.0, 0.0]}
    z = [1.0, 0.5]
    mode = {"experiment": "pseudomode", "domain": DISK, "field": field_,
            "params": {"z": z, "h": 0.02, "dx": dx}}
    spec = {"experiment": "spectrum", "domain": DISK, "field": field_,
            "params": {"h": 0.05, "k": 5, "dx": dx, "shift": 0.25}}
    quasi = []
    runs = (("jet", 0.05), ("jet", 0.025), ("characteristic", 0.05)) if toy \
        else (("jet", 0.05), ("jet", 0.025), ("jet", 0.0125),
              ("characteristic", 0.05))
    for backend, h in runs:
        quasi.append(Command(f"quasimode_{backend}_h{h:g}", {
            "experiment": "quasimode", "domain": DISK, "field": field_,
            "params": {"z": z, "h": h, "x0": [1.0, 0.0], "order": 4,
                       "n_max": 0, "backend": backend,
                       "grid": {"nx": 40, "ny": 30} if toy else
                       {"nx": 160, "ny": 120}}}))
    spacing = 0.16 if toy else 0.08
    hull = {"experiment": "hull", "domain": DISK, "field": field_,
            "params": {"generators": "gamma_plus", "resolution": spacing,
                       "oracle_spacing": spacing}}
    return Workload("disk_2d", seed, [
        Step("pseudomode_s", [Command("pseudomode", mode)]),
        Step("spectrum_s", [Command("spectrum", spec)]),
        Step("quasimode_s", quasi),
        Step("hull_s", [Command("hull", hull)]),
    ])


def _check_disk_2d(w: Workload, out: dict[str, Path], ctx) -> list:
    checks = []
    for k, row in enumerate(_read_csv(out["spectrum"] / "eigenvalues.csv")):
        got, want = float(row["re"]), float(row["oracle"])
        rel = abs(got - want) / want
        checks.append((f"spectrum_vs_oracle[k={k + 1}]", rel <= EIG_TOL,
                       f"got={got:.10g} oracle={want:.10g} rel={rel:.2e}"))
    hull = json.loads((out["hull"] / "oracle_check.json").read_text())
    checks.append(("hull_hausdorff_vs_grid_oracle",
                   hull["hausdorff"] <= 2 * hull["spacing"],
                   f"d={hull['hausdorff']:.4f} 2*spacing={2 * hull['spacing']}"))
    jets = sorted((json.loads((p / "quasimode_manifest.json").read_text())
                   for label, p in out.items()
                   if label.startswith("quasimode_jet")),
                  key=lambda m: -m["h"])
    ratios = [m["ratio"] for m in jets]
    checks.append(("quasimode_ratio_decreasing_in_h",
                   all(a > b for a, b in zip(ratios, ratios[1:])),
                   "ratios " + ", ".join(f"h={m['h']:g}: {m['ratio']:.4e}"
                                         for m in jets)))
    return checks


# --------------------------------------------------------------------- #
#  exit_mc
# --------------------------------------------------------------------- #

EXIT_H, EXIT_B = 0.05, 0.8


def outward_drift(x: np.ndarray) -> np.ndarray:
    """State-dependent drift for the disk run: 0.8 x, pointing outward."""
    return 0.8 * np.asarray(x)


def exit_mc(seed: int, toy: bool = False) -> Workload:
    s_exit, s_pair, s_2d = _sub_seeds(seed, 3)
    h = EXIT_H
    n_exit, n_pair, n_2d = (200, 100, 200) if toy else (1000, 500, 1000)
    # criterion 6 (h, b, x0 = h, dt = h^2/64) with lambda = 0.04, where the
    # MGF estimator has finite variance at this path count; t_max fixes the
    # loop length (about 0.3% of paths reach it and are reported truncated)
    exit_cfg = {"experiment": "exit-time", "domain": INTERVAL,
                "field": {"X": [-EXIT_B]},
                "params": {"b": [EXIT_B], "h": h, "dt": h * h / 64.0,
                           "seed": s_exit, "n_paths": n_exit, "x0": [h],
                           "lambda": 0.04, "t_max": 2.5}}

    def pair():
        from pslab import sde
        from pslab.geometry import Interval
        coarse, fine = sde.simulate_exit_refinement_pair(
            Interval(0.0, 1.0), EXIT_B, h, [h], h * h / 16.0, s_pair, n_pair,
            2.0)
        hashes = _hash_arrays(coarse_tau=coarse.tau, fine_tau=fine.tau,
                              coarse_x=coarse.exit_points,
                              fine_x=fine.exit_points)
        return hashes, (coarse, fine)

    def exit_2d():
        from pslab import sde
        from pslab.geometry import Disk
        ens = sde.simulate_exit_ensemble(
            Disk((0.0, 0.0), 1.0), outward_drift, h, [0.9, 0.0],
            h * h / 32.0, s_2d, n_2d, 1.0)
        return _hash_arrays(tau=ens.tau, x=ens.exit_points,
                            truncated=ens.truncated), ens

    return Workload("exit_mc", seed, [
        Step("exit_time_s", [Command("exit_time", exit_cfg)]),
        Step("refinement_pair_s", [Command("refinement_pair", call=pair)]),
        Step("exit_2d_s", [Command("exit_2d", call=exit_2d)]),
    ])


def _check_exit_mc(w: Workload, out: dict[str, Path], ctx) -> list:
    est = json.loads((out["exit_time"] / "estimate.json").read_text())
    dev = abs(est["mgf"] - est["bvp_value"])
    checks = [("mgf_vs_bvp_oracle", dev <= MGF_SE * est["se"],
               f"mgf={est['mgf']:.5f} bvp={est['bvp_value']:.5f} "
               f"dev={dev / est['se']:.2f} SE, truncated="
               f"{est['truncated_fraction']:.4f}")]
    ens = ctx["exit_2d"]
    done = ~ens.truncated
    off = float(np.max(np.abs(np.linalg.norm(ens.exit_points[done], axis=1)
                              - 1.0), initial=0.0))
    checks.append(("exit_2d_points_on_boundary", off <= 1e-3 and
                   ens.truncated.mean() <= 0.2,
                   f"max | |x|-1 | = {off:.2e}, truncated="
                   f"{ens.truncated.mean():.4f}"))
    return checks


BUILD = {"interval_1d": interval_1d, "disk_2d": disk_2d, "exit_mc": exit_mc}
CHECK = {"interval_1d": _check_interval_1d, "disk_2d": _check_disk_2d,
         "exit_mc": _check_exit_mc}


def build(name: str, seed: int, toy: bool = False) -> Workload:
    return BUILD[name](seed, toy)


def check(w: Workload, out: dict[str, Path], ctx: dict) -> list:
    """Oracle checks on the outputs of one pass: (name, ok, detail) each."""
    return CHECK[w.name](w, out, ctx)
