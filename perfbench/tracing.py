"""In-memory spans around pslab's public functions, and the layer metrics.

Tracing is installed from outside the program: ``instrument(tracer)`` swaps
each traced function for a wrapper in every ``pslab`` module namespace that
holds it (and on the classes that define traced methods), and returns a
function that puts the originals back.  A span records its name, start and
end (``time.perf_counter``), the index of the span that was open when it
started, the run id of the pass, and the counts read from the call's
arguments and result.  Self time is a span's duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
LAYERS = ("geometry", "operators", "spectral", "hull", "wkb", "sde",
          "evolution", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one process; ``run_id`` tags the pass in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        rec = Span(name, time.perf_counter(), math.nan,
                   self._open[-1] if self._open else None, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: Span):
        self._open.pop()
        rec.end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


# --------------------------------------------------------------------- #
#  wrappers
# --------------------------------------------------------------------- #

def _points_attrs(args, kwargs, res):
    return {"points": int(np.size(res))}      # one distance per point


def _rows_attrs(args, kwargs, res):
    return {"points": len(res)}               # an (m, 2) array of points


def _sigma_attrs(args, kwargs, res):
    return {"dense": res.method == "dense-svd", "iterations": res.iterations,
            "nonconverged": not res.converged, "at_floor": res.at_floor}


def _lu_attrs(args, kwargs, res):
    return {"fill_nnz": int(res.L.nnz + res.U.nnz), "a_nnz": int(args[0].nnz)}


def _operator_attrs(args, kwargs, res):
    return {"n": res.n, "regularized_arms": res.regularized_arms,
            "grid_manifest": res.grid_manifest()}


def _path_steps(ens) -> np.ndarray:
    """Euler steps each path took, ceil(tau/dt), read from the output."""
    return np.ceil(ens.tau / ens.dt - 1e-9)


def _ensemble_attrs(args, kwargs, res):
    steps = _path_steps(res)
    return {"path_steps": int(steps.sum()),
            "max_path_steps": int(steps.max()) if len(steps) else 0,
            "paths": len(res.tau), "truncated": int(res.truncated.sum())}


def _pair_attrs(args, kwargs, res):
    return {"path_steps": int(_path_steps(res[0]).sum()
                              + _path_steps(res[1]).sum())}


def _evolve_attrs(args, kwargs, res):
    return {"steps": len(res.times) - 1}


def _write_attrs(args, kwargs, res):
    return {"bytes": len(args[2])}


def _eigen_attrs(args, kwargs, res):
    return {"nonconverged": not res.converged}


def _residual_name(args, kwargs):
    from pslab.wkb import CharacteristicPhase
    q = args[0]
    kind = "characteristic" if isinstance(q.phases[0], CharacteristicPhase) \
        else "jet"
    return f"wkb.residual.{kind}"


def _wrap(tracer: Tracer, fn, name, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if attrs is not None:
            # reading the counts (L and U of a large LU take 0.1 s) is
            # tracing overhead: a child span keeps it out of the caller's
            # self time
            cost = tracer.begin("trace.attrs")
            rec.attrs.update(attrs(args, kwargs, res))
            tracer.end(cost)
        return res
    return wrapper


def _targets():
    """(owner, attribute, span name, attribute reader) for each traced call."""
    import scipy.sparse.linalg as spla

    from pslab import cli, evolution, geometry, hull, operators, sde, \
        spectral, wkb

    out = []
    for cls in (geometry.Interval, geometry._PlanarDomain, geometry.Disk,
                geometry.Polygon):
        out.append((cls, "signed_distance", "geometry.signed_distance",
                    _points_attrs))
    out += [
        (geometry, "classify_boundary", "geometry.classify_boundary", None),
        (operators, "assemble_1d", "operators.assemble_1d", _operator_attrs),
        (operators, "assemble_2d", "operators.assemble_2d", _operator_attrs),
        (spectral, "pseudospectrum_scan", "spectral.scan", None),
        (spectral, "smallest_singular_value", "spectral.sigma_min",
         _sigma_attrs),
        (spectral, "eigenvalues", "spectral.eigenvalues", _eigen_attrs),
        (spectral, "localization_profile", "spectral.localization", None),
        (spla, "splu", "lu", _lu_attrs),
        (hull, "predicted_support", "hull.predicted_support", None),
        (hull, "relative_convex_hull", "hull.relative_convex_hull", None),
        (hull, "relhull_grid_oracle", "hull.grid_oracle", _rows_attrs),
        (wkb, "build_quasimode", "wkb.build_quasimode", None),
        (wkb, "quasimode_residual", _residual_name, None),
        (sde, "simulate_exit_ensemble", "sde.ensemble", _ensemble_attrs),
        (sde, "simulate_exit_refinement_pair", "sde.pair", _pair_attrs),
        (evolution, "evolve", "evolution.evolve", _evolve_attrs),
        (cli, "run", "cli.run", None),
        (cli, "emit_svg_heatmap", "cli.svg", None),
        (cli.Artifacts, "write_bytes", "cli.write", _write_attrs),
        (cli.Artifacts, "write_csv", "cli.write", None),
        (cli.Artifacts, "write_json", "cli.write", None),
        (cli.Artifacts, "finish", "cli.write", None),
    ]
    return out


def instrument(tracer: Tracer):
    """Install span wrappers; returns a function that removes them."""
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "pslab" or k.startswith("pslab.")]
    undo = []
    for owner, attr, name, attrs in _targets():
        fn = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        wrapper = _wrap(tracer, fn, name, attrs)
        holders = [owner]
        if not isinstance(owner, type):
            # also every pslab module that imported the function by name
            holders += [m for m in modules
                        if m is not owner and m.__dict__.get(attr) is fn]
        for h in holders:
            undo.append((h, attr, fn))
            setattr(h, attr, wrapper)

    def remove():
        for h, attr, fn in reversed(undo):
            setattr(h, attr, fn)
    return remove


# --------------------------------------------------------------------- #
#  per-layer metrics
# --------------------------------------------------------------------- #

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (every name, 0 if idle)."""
    selfs = self_times(spans)
    by: dict[str, list[tuple[Span, float]]] = {}
    for s, st in zip(spans, selfs):
        by.setdefault(s.name, []).append((s, st))

    def total(name, key=None):
        items = by.get(name, [])
        if key is None:
            return float(sum(st for _, st in items))
        return float(sum(s.attrs.get(key, 0) for s, _ in items))

    def count(name, key=None):
        items = by.get(name, [])
        if key is None:
            return len(items)
        return int(sum(bool(s.attrs.get(key)) for s, _ in items))

    m: dict[str, float] = {}
    m["geometry.signed_distance.calls"] = count("geometry.signed_distance")
    m["geometry.signed_distance.points"] = int(
        total("geometry.signed_distance", "points"))
    m["geometry.signed_distance.self_s"] = total("geometry.signed_distance")
    m["geometry.classify_boundary.self_s"] = total("geometry.classify_boundary")

    m["operators.assemble_2d.self_s"] = total("operators.assemble_2d")
    m["operators.assemble_2d.n"] = int(total("operators.assemble_2d", "n"))
    m["operators.assemble_2d.regularized_arms"] = int(
        total("operators.assemble_2d", "regularized_arms"))
    m["operators.assemble_1d.self_s"] = total("operators.assemble_1d")

    sig = by.get("spectral.sigma_min", [])
    m["spectral.sigma_min.calls"] = len(sig)
    m["spectral.sigma_min.dense_calls"] = count("spectral.sigma_min", "dense")
    m["spectral.sigma_min.iterations"] = int(
        total("spectral.sigma_min", "iterations"))
    m["spectral.sigma_min.iterations_max"] = max(
        (s.attrs["iterations"] for s, _ in sig), default=0)
    m["spectral.sigma_min.nonconverged"] = count("spectral.sigma_min",
                                                 "nonconverged")
    m["spectral.sigma_min.at_floor"] = count("spectral.sigma_min", "at_floor")
    m["spectral.sigma_min.self_s"] = total("spectral.sigma_min")
    m["spectral.scan.self_s"] = total("spectral.scan")

    # each factorization belongs to the layer of the span that called splu
    lus = {"spectral": [], "evolution": []}
    for s, st in by.get("lu", []):
        caller = layer_of(spans[s.parent].name) if s.parent is not None else ""
        lus.setdefault(caller, []).append((s, st))
    for layer, items in lus.items():
        if layer not in ("spectral", "evolution"):
            continue
        fill = sum(s.attrs["fill_nnz"] for s, _ in items)
        a_nnz = sum(s.attrs["a_nnz"] for s, _ in items)
        m[f"{layer}.lu.calls"] = len(items)
        m[f"{layer}.lu.s"] = float(sum(st for _, st in items))
        m[f"{layer}.lu.fill_nnz"] = int(fill)
        m[f"{layer}.lu.fill_ratio"] = fill / a_nnz if a_nnz else 0.0

    m["spectral.eigenvalues.self_s"] = total("spectral.eigenvalues")
    m["spectral.eigenvalues.nonconverged"] = count("spectral.eigenvalues",
                                                   "nonconverged")
    m["spectral.localization.self_s"] = total("spectral.localization")

    m["hull.predicted_support.self_s"] = total("hull.predicted_support")
    m["hull.relative_convex_hull.self_s"] = total("hull.relative_convex_hull")
    m["hull.grid_oracle.self_s"] = total("hull.grid_oracle")
    m["hull.grid_oracle.points"] = int(total("hull.grid_oracle", "points"))

    m["wkb.build_quasimode.self_s"] = total("wkb.build_quasimode")
    m["wkb.residual.jet.self_s"] = total("wkb.residual.jet")
    m["wkb.residual.characteristic.self_s"] = total(
        "wkb.residual.characteristic")

    ens_s = total("sde.ensemble")
    ens_steps = int(total("sde.ensemble", "path_steps"))
    ens_paths = int(total("sde.ensemble", "paths"))
    m["sde.ensemble.self_s"] = ens_s
    m["sde.path_steps"] = ens_steps
    m["sde.max_path_steps"] = max(
        (s.attrs["max_path_steps"] for s, _ in by.get("sde.ensemble", [])),
        default=0)
    m["sde.ns_per_path_step"] = 1e9 * ens_s / ens_steps if ens_steps else 0.0
    m["sde.truncated_fraction"] = (total("sde.ensemble", "truncated")
                                   / ens_paths if ens_paths else 0.0)
    m["sde.pair.self_s"] = total("sde.pair")
    m["sde.pair.path_steps"] = int(total("sde.pair", "path_steps"))

    evo = by.get("evolution.evolve", [])
    steps = int(total("evolution.evolve", "steps"))
    m["evolution.evolve.self_s"] = total("evolution.evolve")
    m["evolution.steps"] = steps
    m["evolution.us_per_step"] = (
        1e6 * sum(s.duration for s, _ in evo) / steps if steps else 0.0)

    m["cli.run.self_s"] = total("cli.run")
    m["cli.write.s"] = total("cli.write")
    m["cli.svg.s"] = total("cli.svg")
    m["cli.artifact_bytes"] = int(total("cli.write", "bytes"))
    return m


def grid_manifests(spans: list[Span]) -> list[dict]:
    return [s.attrs["grid_manifest"] for s in spans
            if s.name.startswith("operators.assemble")]
