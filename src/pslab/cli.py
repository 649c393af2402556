"""Experiment runner: validate a JSON config, dispatch, write artifacts.

Usage: pslab <experiment> --config <file> [--out DIR]

Experiments: classify, hull, quasimode, pseudospectrum, spectrum, pseudomode,
exit-time, blowup.  Each one's params keys, kinds, defaults and bounds are
declared once in ``REGISTRY``: an integral float is accepted wherever an
integer is, and an undeclared key is an error.  A key is declared only while
some config, benchmark workload or test run sets it; a choice the lab makes
at one value is a constant in the code (the README lists them).  A config
that cannot be read or parsed exits with status 2, and so does one that fails
validation, naming the offending key; compute failures exit with status 1.
Files are written only when a run succeeds, so a failed run leaves no output
directory.  Outputs are deterministic for a fixed config and seed: a CSV file
has one header line, CRLF line ends, floats as %.16e (17 significant digits),
true/false and decimal ints; the manifest lists every written file with its
SHA-256 hash plus the verbatim config.  The output directory may be
overridden by --out or the PSLAB_OUT variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, GeometryError, PslabError, WrongSideError
from .geometry import (Disk, Ellipse, Interval, Polygon, boundary_frame,
                       classify_boundary)
from .operators import (MIN_CELLS, MIN_POINTS, conjugated_spectrum_oracle,
                        grid_operator)
# neither loads scipy; each runner imports the modules that do

# ===================================================================== #
#  config parsing and validation
# ===================================================================== #

def _has_bool(val) -> bool:
    return isinstance(val, bool) or (isinstance(val, list)
                                     and any(map(_has_bool, val)))


def numbers(val, key: str, shape: tuple = ()) -> np.ndarray:
    """val as a finite float array of the given shape (None: any length)."""
    try:
        arr = np.asarray(val)
    except ValueError:          # ragged nesting
        arr = None
    # numpy reads [1.0, true] as [1.0, 1.0]; JSON booleans are not numbers
    if (arr is None or _has_bool(val) or arr.dtype.kind not in "iuf"
            or arr.ndim != len(shape)
            or any(n is not None and n != m for n, m in zip(shape, arr.shape))
            or not np.all(np.isfinite(arr))):
        dims = "x".join("n" if n is None else str(n) for n in shape)
        raise ConfigError(key, f"expected {dims + ' numbers' if shape else 'a number'}")
    return arr.astype(float)


# the key a domain constructor's own check is about
_DOMAIN_SHAPE_KEY = {"interval": "domain.b", "disk": "domain.radius",
                     "ellipse": "domain.semi_axes", "polygon": "domain.vertices"}


def build_domain(block: dict):
    if not isinstance(block, dict):
        raise ConfigError("domain", "expected an object")
    kind = block.get("type")
    try:
        if kind == "interval":
            return Interval(float(numbers(block["a"], "domain.a")),
                            float(numbers(block["b"], "domain.b")))
        if kind == "disk":
            return Disk(numbers(block["center"], "domain.center", (2,)),
                        float(numbers(block["radius"], "domain.radius")))
        if kind == "ellipse":
            return Ellipse(numbers(block["center"], "domain.center", (2,)),
                           numbers(block["semi_axes"], "domain.semi_axes", (2,)),
                           float(numbers(block.get("angle", 0.0), "domain.angle")))
        if kind == "polygon":
            return Polygon(numbers(block["vertices"], "domain.vertices",
                                   (None, 2)))
    except KeyError as e:
        raise ConfigError(f"domain.{e.args[0]}", "missing key") from e
    except ConfigError:
        raise
    except PslabError as e:
        raise ConfigError(_DOMAIN_SHAPE_KEY[kind], str(e)) from e
    raise ConfigError("domain.type", f"unknown domain type {kind!r}")


def _need(ok: bool, key: str, message: str):
    if not ok:
        raise ConfigError(key, message)


REQUIRED = object()
# A declared params key: ``kind`` numbers (int or float), an array of them
# when ``shape`` is given ("d" is the domain dimension), or a nested block (a
# dict of Keys); a value in ``choices`` is taken as it is.  ``default`` is a
# value or a function of (the params read so far, the field X); a block's
# default is the block its keys' defaults fill in.  ``bound`` is (predicate,
# message); ``dim`` limits the key to domains of that dimension.
Key = namedtuple("Key", "kind default bound shape choices dim",
                 defaults=(float, REQUIRED, None, None, (), None))


def _read(val, name: str, key: Key, domain, X):
    if isinstance(key.kind, dict):
        return _read_block(val, key.kind, name, domain, X)
    if val in key.choices:
        return val
    _need(key.shape is not None or not key.choices, name,
          "must be " + " or ".join(key.choices))
    arr = numbers(val, name, tuple(domain.dimension if n == "d" else n
                                   for n in key.shape or ()))
    if key.kind is float:
        val = arr.tolist()
    else:
        _need(not np.any(arr % 1), name, "expected integers")
        if type(val) is not int:        # a JSON int stays exact past 2^53
            val = [int(v) for v in arr] if key.shape else int(arr)
    if key.bound:
        _need(key.bound[0](val), name, key.bound[1])
    return val


def _read_block(raw, keys: dict, prefix: str, domain, X) -> dict:
    """raw read against its declared keys: every key that applies to the
    domain present, int keys as int, float keys as float, arrays as lists."""
    _need(isinstance(raw, dict), prefix, "expected an object")
    keys = {n: k for n, k in keys.items() if k.dim in (None, domain.dimension)}
    for name in raw:
        _need(name in keys, f"{prefix}.{name}",
              f"unknown key for a {domain.dimension}-D domain")
    out = {}
    for name, key in keys.items():
        val = raw.get(name, key.default)
        _need(val is not REQUIRED, f"{prefix}.{name}", "missing key")
        if name in raw or isinstance(key.kind, dict):
            val = _read(val, f"{prefix}.{name}", key, domain, X)
        out[name] = val(out, X) if callable(val) else val
    return out


def validate(config: dict):
    """(domain, X, params) of a config: X is the field as a float array, and
    params holds every key the experiment declares, normalized, with its
    default where absent."""
    _need(isinstance(config, dict), "config", "expected a JSON object")
    exp = config.get("experiment")
    _need(exp in EXPERIMENTS, "experiment", f"must be one of {EXPERIMENTS}")
    _need(isinstance(config.get("output_dir", ""), str), "output_dir",
          "expected a path string")
    domain = build_domain(config.get("domain", {}))
    field = config.get("field", {"X": [1.0] * domain.dimension})
    _need(isinstance(field, dict) and "X" in field, "field.X", "missing key")
    X = numbers(field["X"], "field.X", (domain.dimension,))
    _need(np.linalg.norm(X) > 0.0 or exp == "hull", "field.X",
          "field must be nonzero")
    spec = REGISTRY[exp]
    params = _read_block(config.get("params", {}), spec.keys, "params",
                         domain, X)
    spec.check(domain, X, params)
    return domain, X, params


# ===================================================================== #
#  artifact writing
# ===================================================================== #

_CSV_ROWS = 4096       # rows formatted together by Artifacts.write_csv


def _cells(col: np.ndarray) -> list:
    """The CSV text of each cell of a column block."""
    if col.dtype.kind == "b":
        col = np.where(col, "true", "false")
    if col.dtype.kind != "f":
        return col.tolist()         # str and int cells format as %s
    bits = col.astype(np.float64).view(np.uint64)   # -0.0 and 0.0 differ
    bits, inv = np.unique(bits, return_inverse=True)   # format each once
    text = list(map("%.16e".__mod__, bits.view(np.float64).tolist()))
    return list(map(text.__getitem__, inv.tolist()))


class Artifacts:
    """A run's files, held with their hashes until ``finish`` writes them
    and the manifest: a run that fails creates no output directory."""

    def __init__(self, outdir: Path, raw_config: str):
        self.outdir = outdir
        self.raw_config = raw_config
        self.files: dict[str, bytes] = {}
        self.hashes: dict[str, str] = {}

    def write_bytes(self, name: str, data: bytes):
        self.files[name] = data
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, columns: dict):
        """columns: header -> 1-D array, all of one length.  Rows are
        formatted _CSV_ROWS at a time, which bounds the strings held."""
        cols = [np.asarray(c) for c in columns.values()]
        row = ",".join(["%s"] * len(cols)) + "\r\n"
        parts = [(",".join(columns) + "\r\n").encode()]
        for lo in range(0, len(cols[0]), _CSV_ROWS):
            cells = [_cells(c[lo:lo + _CSV_ROWS]) for c in cols]
            parts.append("".join(map(row.__mod__, zip(*cells))).encode())
        self.write_bytes(name, b"".join(parts))

    def write_json(self, name: str, obj):
        self.write_bytes(name, (json.dumps(obj, indent=2, sort_keys=True)
                                + "\n").encode())

    def finish(self):
        self.outdir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "pslab_version": __version__,
            "config_echo": self.raw_config,
            "files": dict(sorted(self.hashes.items())),
        }
        files = self.files | {"manifest.json": (json.dumps(
            manifest, indent=2, sort_keys=True) + "\n").encode()}
        for name, data in files.items():
            path = self.outdir / name
            # a new file each time: truncating a file written twice before
            # stalls the file system for tens of milliseconds, and so does
            # renaming a new file over it
            path.unlink(missing_ok=True)
            path.write_bytes(data)


# ===================================================================== #
#  SVG heatmap
# ===================================================================== #

_STOPS = np.array([
    (68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)
], dtype=float)


def _color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    x = v * (len(_STOPS) - 1)
    i = min(int(x), len(_STOPS) - 2)
    f = x - i
    rgb = (1 - f) * _STOPS[i] + f * _STOPS[i + 1]
    return "#%02x%02x%02x" % tuple(int(round(c)) for c in rgb)


def emit_svg_heatmap(re_values, im_values, grid,
                     field_norm: float | None = None, title: str = "") -> str:
    """Cell-per-value SVG of log10(grid) with a color bar and, given
    field_norm, the parabola Re z = (Im z)^2 / |X|^2."""
    grid = np.asarray(grid, dtype=float)
    re_values = np.asarray(re_values, dtype=float)
    im_values = np.asarray(im_values, dtype=float)
    if grid.ndim != 2 or grid.shape != (len(im_values), len(re_values)):
        raise ConfigError("grid", "ragged or mismatched heatmap grid")
    vals = np.log10(np.maximum(grid, 1e-300))
    vmin, vmax = float(vals.min()), float(vals.max())
    span = vmax - vmin or 1.0
    W, H, margin = 640, 480, 60
    cw = (W - 2 * margin) / len(re_values)
    ch = (H - 2 * margin) / len(im_values)

    def px(a):
        return margin + (a - re_values[0]) / max(re_values[-1] - re_values[0], 1e-300) \
            * (W - 2 * margin)

    def py(b):
        return H - margin - (b - im_values[0]) / max(im_values[-1] - im_values[0], 1e-300) \
            * (H - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W + 90}" '
             f'height="{H}" viewBox="0 0 {W + 90} {H}">']
    if title:
        parts.append(f'<text x="{W / 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for j, b in enumerate(im_values):
        for i, a in enumerate(re_values):
            c = _color((vals[j, i] - vmin) / span)
            x = margin + i * cw
            y = H - margin - (j + 1) * ch
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{ch + 0.5:.2f}" fill="{c}"/>')
    if field_norm is not None:
        pts = []
        for b in np.linspace(im_values[0], im_values[-1], 128):
            a = b * b / field_norm ** 2
            if re_values[0] <= a <= re_values[-1]:
                pts.append(f"{px(a):.2f},{py(b):.2f}")
        if pts:
            parts.append('<polyline points="' + " ".join(pts) +
                         '" fill="none" stroke="red" stroke-dasharray="6,4" '
                         'stroke-width="1.6"/>')
    # axes
    parts.append(f'<rect x="{margin}" y="{margin}" width="{W - 2 * margin}" '
                 f'height="{H - 2 * margin}" fill="none" stroke="black"/>')
    for a in np.linspace(re_values[0], re_values[-1], 5):
        parts.append(f'<text x="{px(a):.1f}" y="{H - margin + 18}" '
                     f'text-anchor="middle" font-size="11">{a:.2f}</text>')
    for b in np.linspace(im_values[0], im_values[-1], 5):
        parts.append(f'<text x="{margin - 8}" y="{py(b):.1f}" '
                     f'text-anchor="end" font-size="11">{b:.2f}</text>')
    parts.append(f'<text x="{W / 2}" y="{H - 12}" text-anchor="middle" '
                 f'font-size="12">Re z</text>')
    parts.append(f'<text x="16" y="{H / 2}" font-size="12" '
                 f'transform="rotate(-90 16 {H / 2})">Im z</text>')
    # color bar
    nbar = 32
    for k in range(nbar):
        y = H - margin - (k + 1) * (H - 2 * margin) / nbar
        parts.append(f'<rect x="{W + 10}" y="{y:.2f}" width="18" '
                     f'height="{(H - 2 * margin) / nbar + 0.5:.2f}" '
                     f'fill="{_color(k / (nbar - 1))}"/>')
    parts.append(f'<text x="{W + 36}" y="{margin + 10}" font-size="10">'
                 f'{vmax:.2f}</text>')
    parts.append(f'<text x="{W + 36}" y="{H - margin}" font-size="10">'
                 f'{vmin:.2f}</text>')
    parts.append(f'<text x="{W + 44}" y="{H / 2}" font-size="10" '
                 f'transform="rotate(-90 {W + 44} {H / 2})">log10 sigma_min</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ===================================================================== #
#  experiment implementations
# ===================================================================== #

def _xy(points, x="x", y="y") -> dict:
    """Columns x, y of (n, 1) or (n, 2) points; y is 0 in one dimension."""
    pts = np.pad(np.asarray(points, dtype=float), [(0, 0), (0, 1)])
    return {x: pts[:, 0], y: pts[:, 1]}


def run_classify(domain, X, params, art: Artifacts):
    s = classify_boundary(domain, X, params["n_samples"])
    art.write_csv("boundary.csv", {
        "t": s.t, **_xy(s.points), **_xy(s.normals, "nu_x", "nu_y"),
        "curvature": s.curvature, "class": s.classes})


def run_hull(domain, X, params, art: Artifacts):
    from .hull import (hausdorff_distance, predicted_support,
                       relative_convex_hull, relhull_grid_oracle)
    res, gens = params["resolution"], params["generators"]
    if gens == "gamma_plus":
        pred = predicted_support(domain, X, n_samples=params["n_samples"],
                                 resolution=res)
        hull, arcs = pred.hull, pred.hull_arcs
        a = np.reshape(pred.tight_arcs, (-1, 2))
        art.write_csv("tight_arcs.csv", {"t0": a[:, 0], "t1": a[:, 1]})
    else:
        hull = relative_convex_hull(domain, gens, resolution=res)
        arcs = hull.boundary_arcs()
    art.write_json("hull.geojson", hull.to_geojson())
    a = np.reshape(arcs, (-1, 2))
    art.write_csv("hull_arcs.csv", {"t0": a[:, 0], "t1": a[:, 1]})
    spacing = params["oracle_spacing"]
    if spacing is not None:
        oracle = relhull_grid_oracle(domain, hull.generators, spacing)
        art.write_csv("oracle_points.csv", _xy(oracle))
        d = hausdorff_distance(oracle, hull.rasterize(spacing))
        art.write_json("oracle_check.json",
                       {"spacing": spacing, "hausdorff": d,
                        "passed": bool(d <= 2 * spacing)})


def run_quasimode(domain, X, params, art: Artifacts):
    from .wkb import build_quasimode, quasimode_residual
    z, h = complex(*params["z"]), params["h"]
    q = build_quasimode(domain, X, params["x0"], z, h, order=params["order"],
                        n_max=params["n_max"], backend=params["backend"])
    rep = quasimode_residual(q)
    nx, ny = params["grid"]["nx"], params["grid"]["ny"]
    x0c = q.frame.x0
    half = 1.2 * q.cutoff.r_outer
    if domain.dimension == 1:
        pts = np.linspace(max(domain.a, x0c[0] - half),
                          min(domain.b, x0c[0] + half), nx)[:, None]
        vals = q.fields(pts)[0]
    else:
        xs = np.linspace(x0c[0] - half, x0c[0] + half, nx)
        ys = np.linspace(x0c[1] - half, x0c[1] + half, ny)
        GX, GY = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([GX.ravel(), GY.ravel()])
        inside = domain.contains(pts)
        vals = np.zeros(len(pts), dtype=complex)
        vals[inside] = q.fields(pts[inside])[0]
    art.write_csv("quasimode_grid.csv", {**_xy(pts), "re_u": vals.real,
                                         "im_u": vals.imag})
    seed = q.phases[0].seed
    art.write_json("quasimode_manifest.json", {
        "z": [z.real, z.imag], "h": h,
        "lambda": seed.lam, "c": seed.c,
        "alpha": list(seed.alpha), "beta": list(seed.beta),
        "order": params["order"], "n_max": params["n_max"],
        "radii": [q.cutoff.r_inner, q.cutoff.r_outer],
        "norm_u": rep.norm_u, "norm_pzu": rep.norm_pzu, "ratio": rep.ratio,
    })


def run_pseudospectrum(domain, X, params, art: Artifacts):
    from .spectral import pseudospectrum_scan
    summary = {}
    h_list = params["h_list"]
    grids = pseudospectrum_scan(domain, X, params["rect"],
                                params["resolution"], h_list)
    for h, g in zip(h_list, grids):
        re_z, im_z = np.meshgrid(g.re_values, g.im_values)
        art.write_csv(f"pseudospectrum_h{h:g}.csv", {
            "re_z": re_z.ravel(), "im_z": im_z.ravel(),
            "sigma_min": g.sigma.ravel(), "in_region": g.in_region.ravel()})
        svg = emit_svg_heatmap(g.re_values, g.im_values, g.sigma,
                               field_norm=float(np.linalg.norm(X)),
                               title=f"log10 sigma_min, h = {h:g}")
        art.write_bytes(f"heatmap_h{h:g}.svg", svg.encode())
        summary[str(h)] = {"min_sigma": float(g.sigma.min()),
                           "max_sigma": float(g.sigma.max()),
                           "n_at_floor": int(g.at_floor.sum()),
                           "n_nonconverged": int((~g.converged).sum())}
    art.write_json("scan_summary.json", summary)


def _spacing(domain, params) -> float:
    """params' dx, or L / (n + 1) on an interval: grid_operator's n again."""
    return params["dx"] if domain.dimension == 2 \
        else domain.diameter() / (params["n"] + 1)


def run_spectrum(domain, X, params, art: Artifacts):
    from .spectral import eigenvalues
    h, k = params["h"], params["k"]
    op = grid_operator(domain, h, X, _spacing(domain, params))
    # here, not in validate: in the plane n is the lattice's, known only
    # once the lattice is built
    _need(k <= op.n // 4, "params.k", f"need k <= n // 4 = {op.n // 4}")
    res = eigenvalues(op, k, sigma_shift=params["shift"])
    try:
        oracle = conjugated_spectrum_oracle(domain, h, X, k)
    except PslabError:
        oracle = np.full(k, np.nan)
    vals = res.values
    art.write_csv("eigenvalues.csv", {"re": vals.real, "im": vals.imag,
                                      "oracle": oracle[:len(vals)]})
    art.write_json("spectrum_summary.json",
                   {"converged": res.converged, "k": k, "h": h})


def run_pseudomode(domain, X, params, art: Artifacts):
    from .spectral import pseudomode_localization
    z, h = complex(*params["z"]), params["h"]
    op = grid_operator(domain, h, X, _spacing(domain, params))
    sm, prof = pseudomode_localization(op, z, X)
    edges = prof.radial_edges
    art.write_csv("radial_profile.csv", {"r0": edges[:-1], "r1": edges[1:],
                                         "mass": prof.radial_mass})
    art.write_csv("arc_profile.csv", {"t": prof.arc_centers,
                                      "mass": prof.arc_mass,
                                      "class": prof.arc_class})
    art.write_csv("pseudomode.csv", {**_xy(prof.node_points),
                                     "mass": prof.node_mass})
    art.write_json("pseudomode_summary.json", {
        "sigma_min": sm.value, "at_floor": sm.at_floor,
        "converged": sm.converged,
        "z": [z.real, z.imag], "h": h,
        "mass_by_class": prof.mass_by_class(),
    })


def run_exit_time(domain, X, params, art: Artifacts):
    from .sde import (exit_mgf_bvp_1d, mgf_estimate, simulate_exit_ensemble,
                      survival_probability)
    h, lam = params["h"], params["lambda"]
    ens = simulate_exit_ensemble(domain, np.asarray(params["b"]), h,
                                 params["x0"], params["dt"], params["seed"],
                                 params["n_paths"], params["t_max"])
    art.write_csv("samples.csv", {
        "tau": ens.tau, **_xy(ens.exit_points, "exit_x", "exit_y"),
        "truncated": ens.truncated})
    # validate() keeps lambda below 0.9 lambda_1 on an interval or a disk
    est = mgf_estimate(ens, lam, h)
    payload = {"lambda": lam, "h": h, "mgf": est.estimate,
               "se": est.std_error, "truncated_fraction": est.truncated_fraction,
               "n_paths": est.n_paths, "t_max": est.t_max}
    if domain.dimension == 1:
        try:
            payload["bvp_value"] = float(
                exit_mgf_bvp_1d(domain, params["b"][0], lam, h)(
                    params["x0"][0]))
        except PslabError:
            payload["bvp_value"] = None
    art.write_json("estimate.json", payload)
    if params["survival_s"] is not None:
        svs = [survival_probability(ens, s, lam) for s in params["survival_s"]]
        art.write_csv("survival.csv", {
            "s": params["survival_s"], "prob": [sv.probability for sv in svs],
            "lo": [sv.lower for sv in svs], "hi": [sv.upper for sv in svs]})


def _bump(bp: dict):
    """The BumpSpec of a validated params.bump block."""
    from .evolution import BumpSpec
    return BumpSpec(center=bp["center"], inner_radius=bp["a"],
                    delta=bp["delta"], cap_constant=bp["cap_constant"],
                    amplitude=bp["amplitude"])


def run_blowup(domain, X, params, art: Artifacts):
    from .evolution import (BLOWUP_THRESHOLD, bump_initial_data, evolve,
                            subsolution_check)
    h, mu, p = params["h"], params["mu"], params["p"]
    bp = params["bump"]
    spec = _bump(bp)
    op = grid_operator(domain, h, X, _spacing(domain, params))
    rep = bump_initial_data(spec, op.points, h)
    # start 2% above the bump; snapshot every 0.05 up to delta
    snapshots = np.round(np.arange(0.05, bp["delta"], 0.05), 10)
    res = evolve(op, mu, p, 1.02 * rep.values, params["dt"], params["t_end"],
                 snapshot_times=snapshots)
    # mu - lambda_1 from the conjugated form |X|^2/4 - h^2 Laplace: the
    # eigenvalues of the non-normal P are ill-conditioned like e^{|X| L/2h}
    spectral_bound = float(mu - conjugated_spectrum_oracle(domain, h, X, 1)[0])
    times = sorted(res.snapshots)
    art.write_csv("trajectory.csv", {
        "t": np.repeat(times, op.n), "x": np.tile(op.points[:, 0], len(times)),
        "u": np.reshape([res.snapshots[t] for t in times], -1)})
    report = {
        "blew_up": res.blew_up, "t_blowup": res.t_blowup,
        "threshold": BLOWUP_THRESHOLD, "spectral_bound": spectral_bound,
        # the bump as configured: keys left to their default are not echoed
        "parameters": {"h": h, "mu": mu, "p": p, "bump": {
            k: v for k, v in bp.items() if v is not None}},
        "bump_peak": rep.peak, "bump_cap": rep.cap,
    }
    if params["alpha"] is not None:
        comp = subsolution_check(res, spec, params["alpha"], X, op.points)
        report["subsolution"] = {
            "ok": comp.ok, "through_t": max(comp.checked_times, default=0.0),
            "worst_margin": comp.worst_margin,
        }
    art.write_json("blowup_report.json", report)


def _check_region(X, p, message="z must be strictly inside the region"):
    _need(p["z"][0] > p["z"][1] ** 2 / float(np.linalg.norm(X)) ** 2,
          "params.z", message)


def _check_quasimode(domain, X, p):
    from .wkb import MIN_CUTOFF, SpectralPoint, phase_seed
    _check_region(X, p, "no-quasimode condition violated: quasimodes exist "
                  "only for Re z > (Im z)^2/|X|^2; on the boundary parabola "
                  "there are none")
    _need(p["backend"] == "jet" or isinstance(domain, Disk), "params.backend",
          "the characteristic backend needs a disk domain")
    try:
        frame = boundary_frame(domain, X, p["x0"])
    except GeometryError as e:
        raise ConfigError("params.x0", str(e)) from e
    _need(frame.clearance >= MIN_CUTOFF * domain.diameter(), "params.x0",
          f"x0 lies {frame.clearance:.3g} from another polygon edge")
    try:
        phase_seed(frame, SpectralPoint(complex(*p["z"]), p["h"], X))
    except WrongSideError as e:
        raise ConfigError("params.x0", str(e)) from e
    except PslabError as e:
        raise ConfigError("params.z", str(e)) from e


def _check_grid(domain, p):
    """P's spacing (for a scan, its largest h / 8) leaves assembly at least
    MIN_POINTS interior points or MIN_CELLS cells across."""
    if "h_list" in p:
        dx, key = max(p["h_list"]) / 8, "params.h_list"
    else:
        dx = _spacing(domain, p)
        key = "params.n" if domain.dimension == 1 else "params.dx"
    if domain.dimension == 1:
        _need(round(domain.diameter() / dx) - 1 >= MIN_POINTS, key,
              f"need at least {MIN_POINTS} interior points")
    else:
        _need(domain.diameter() / dx >= MIN_CELLS, key,
              f"grid must resolve the boundary: >= {MIN_CELLS} cells across")


def _check_pseudospectrum(domain, X, p):
    _need(len({f"{h:g}" for h in p["h_list"]}) == len(p["h_list"]),
          "params.h_list", "h values must differ in their first six "
          "significant digits: each names its output files")
    _check_grid(domain, p)


def _check_pseudomode(domain, X, p):
    _check_region(X, p)
    _check_grid(domain, p)


def _check_spectrum(domain, X, p):
    _check_grid(domain, p)       # run_spectrum checks k against P's n


def _check_exit_time(domain, X, p):
    _need(p["dt"] <= p["h"] ** 2 / 4.0, "params.dt",
          "dt must not exceed h^2/4 to resolve the dynamics")
    _need(domain.contains(np.array([p["x0"]]))[0], "params.x0",
          "x0 must lie inside the domain")
    if isinstance(domain, (Interval, Disk)):
        from .sde import SUBCRITICAL_FRACTION
        # principal eigenvalue of the generator's conjugated form
        lam1 = conjugated_spectrum_oracle(domain, p["h"],
                                          -np.asarray(p["b"]), 1)[0]
        _need(p["lambda"] <= SUBCRITICAL_FRACTION * lam1, "params.lambda",
              f"lambda must not exceed {SUBCRITICAL_FRACTION:g} times the "
              f"principal eigenvalue {lam1:.6g}: the MGF may be infinite")
    _need(p["survival_s"] is None or p["lambda"] > 0, "params.lambda",
          "survival thresholds s / lambda need lambda > 0")


def _check_blowup(domain, X, p):
    _need(domain.dimension == 1, "domain", "blow-up runs on an interval")
    _check_grid(domain, p)
    # only then is I + (dt/h)(P - mu) an M-matrix, which keeps u >= 0
    peclet = float(np.linalg.norm(X)) * _spacing(domain, p) / (2.0 * p["h"])
    _need(peclet < 1.0, "params.n",
          f"grid Peclet |X| dx / 2h = {peclet:.3g} must be below 1")
    _need(p["alpha"] is None or 0 < p["alpha"] < p["mu"], "params.alpha",
          "the subsolution rate needs 0 < alpha < mu")
    spec = _bump(p["bump"])
    try:
        spec.validate_flow(domain, X)
    except GeometryError as e:
        raise ConfigError("params.bump.center", str(e)) from e
    try:
        spec.validate_cap(p["h"])
    except PslabError as e:
        raise ConfigError("params.bump.cap_constant" if p["bump"]["amplitude"]
                          is None else "params.bump.amplitude", str(e)) from e


def _default_t_max(p, X):
    from .sde import default_t_max
    return default_t_max(p["h"], p["lambda"]) if p["lambda"] > 0 else 100.0


POSITIVE = (lambda v: v > 0, "must be positive")
POSITIVE_FLOAT = Key(float, REQUIRED, POSITIVE)
Z, X0 = Key(shape=(2,)), Key(shape=("d",))
N = Key(int, 2000, POSITIVE, dim=1)
DX = Key(float, lambda p, X: p["h"] / 8, POSITIVE, dim=2)

# The experiment registry: its runner, a declaration of every params key the
# runner reads, and the conditions across keys, checked once all are read.
Experiment = namedtuple("Experiment", "run keys check",
                        defaults=[lambda domain, X, p: None])
REGISTRY = {
    "classify": Experiment(run_classify, {
        "n_samples": Key(int),
    }, lambda domain, X, p: _need(
        domain.dimension == 1 or p["n_samples"] >= 8, "params.n_samples",
        "need at least 8 samples")),
    "hull": Experiment(run_hull, {
        "generators": Key(shape=(None, 2), choices=("gamma_plus",)),
        "n_samples": Key(int, 1024, POSITIVE),
        "resolution": Key(float, None, POSITIVE),
        "oracle_spacing": Key(float, None, POSITIVE),
    }, lambda domain, X, p: _need(
        domain.dimension == 2, "domain", "hulls need a planar domain")),
    "quasimode": Experiment(run_quasimode, {
        "z": Z, "h": POSITIVE_FLOAT, "x0": X0,
        "order": Key(int, 4, (lambda v: v >= 2, "need an int >= 2")),
        "n_max": Key(int, 0, (lambda v: v >= 0, "need an int >= 0")),
        "backend": Key(default="jet", choices=("jet", "characteristic")),
        "grid": Key({"nx": Key(int, 160, POSITIVE),
                     "ny": Key(int, 120, POSITIVE)}, {}),
    }, _check_quasimode),
    "pseudospectrum": Experiment(run_pseudospectrum, {
        "h_list": Key(float, REQUIRED, (lambda hs: len(hs) and min(hs) > 0,
                                        "need positive h values"), (None,)),
        "rect": Key(float, REQUIRED, (lambda r: r[0] < r[1] and r[2] < r[3],
                                      "need [re0, re1, im0, im1]"), (4,)),
        "resolution": Key(int, REQUIRED, (lambda r: min(r) >= 1,
                                          "need [n_re, n_im] counts"), (2,)),
    }, _check_pseudospectrum),
    "spectrum": Experiment(run_spectrum, {
        "h": POSITIVE_FLOAT, "k": Key(int, REQUIRED, POSITIVE),
        "n": N, "dx": DX, "shift": Key(float, 0.0),
    }, _check_spectrum),
    "pseudomode": Experiment(run_pseudomode, {
        "z": Z, "h": POSITIVE_FLOAT, "dx": DX,
        "n": Key(int, lambda p, X: int(round(8 / p["h"])), POSITIVE, dim=1),
    }, _check_pseudomode),
    "exit-time": Experiment(run_exit_time, {
        "h": POSITIVE_FLOAT, "dt": POSITIVE_FLOAT,
        "n_paths": Key(int, REQUIRED, (lambda v: v >= 2,
                                       "need at least 2 paths")),
        # the first word of a path's Philox key
        "seed": Key(int, REQUIRED, (lambda v: 0 <= v < 2 ** 64,
                                    "seed must lie in [0, 2^64)")),
        "x0": X0, "b": Key(float, lambda p, X: (-X).tolist(), shape=("d",)),
        "lambda": Key(float, REQUIRED, (lambda v: v >= 0,
                                        "lambda must be nonnegative")),
        "t_max": Key(float, _default_t_max, POSITIVE),
        "survival_s": Key(float, None, shape=(None,)),
    }, _check_exit_time),
    "blowup": Experiment(run_blowup, {
        "h": POSITIVE_FLOAT, "mu": POSITIVE_FLOAT, "alpha": Key(float, None),
        "p": Key(float, REQUIRED, (lambda v: v in (2, 3),
                                   "supported powers are 2 and 3")),
        "bump": Key({"center": Key(shape=(1,)), "a": POSITIVE_FLOAT,
                     "delta": POSITIVE_FLOAT,
                     "cap_constant": Key(float, None, POSITIVE),
                     "amplitude": Key(float, None, POSITIVE)}),
        "n": N, "dt": Key(float, 2e-4, POSITIVE),
        "t_end": Key(float, 1.0, POSITIVE),
    }, _check_blowup),
}
EXPERIMENTS = tuple(REGISTRY)


# ===================================================================== #
#  entry point
# ===================================================================== #

def run(config_path: str, out_dir: str | None = None,
        experiment: str | None = None) -> int:
    """Run a config; given ``experiment``, the config must name it."""
    try:
        raw = Path(config_path).read_text(encoding="utf-8")
        config = json.loads(raw)
    # missing, a directory, not UTF-8, nested past the recursion limit
    except (OSError, ValueError, RecursionError) as e:
        print(f"config unreadable: {e}", file=sys.stderr)
        return 2
    named = config.get("experiment") if isinstance(config, dict) else None
    if experiment is not None and named != experiment:
        print(f"config experiment {named!r} does not match "
              f"command {experiment!r}", file=sys.stderr)
        return 2
    try:
        domain, X, params = validate(config)
    except ConfigError as e:
        print(f"validation failed: {e}", file=sys.stderr)
        return 2
    out = Path(os.environ.get("PSLAB_OUT") or out_dir
               or config.get("output_dir", "pslab_out"))
    art = Artifacts(out, raw)
    try:
        REGISTRY[named].run(domain, X, params, art)
    except ConfigError as e:       # a key only the built operator can check
        print(f"validation failed: {e}", file=sys.stderr)
        return 2
    except PslabError as e:
        print(f"compute failed: {e}", file=sys.stderr)
        return 1
    art.finish()
    print(f"wrote {len(art.hashes) + 1} files to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pslab",
        description="desk-scale experiments on boundary-driven pseudospectra")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    return run(args.config, out_dir=args.out, experiment=args.experiment)


if __name__ == "__main__":
    sys.exit(main())
