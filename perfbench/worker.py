"""One fresh workload process: set up, run passes until the time is up, check.

Started by run.py with the package source on PYTHONPATH.  It prints
``ready`` once the imports are done and every generated config has been
parsed and validated (the end of set-up), then runs whole passes over the
workload's steps until ``--seconds`` have elapsed, one caller and one pass at
a time; with ``--trace 1`` every pass is traced.  The outputs of the first
pass go through the oracle checks.  Results go to ``<work>/<mode>/result.json``
where mode is ``traced`` or ``untraced``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _setup(args):
    """Imports, config parsing and validation: what a user waits for."""
    import pslab.cli as cli
    import pslab.evolution  # noqa: F401  (imported lazily by the CLI)
    import pslab.sde  # noqa: F401
    import pslab.wkb  # noqa: F401

    w = workloads.build(args.workload, args.seed, args.toy)
    paths = {}
    for c in w.commands():
        if c.config is None:
            continue
        p = args.work / "configs" / f"{c.label}.json"
        cli.validate(json.loads(p.read_text()))
        paths[c.label] = p
    return w, paths


def _run_command(c, cfg_path, out: Path):
    """Returns (exit code, payload of an API call); the time is the caller's."""
    import pslab.cli as cli
    try:
        if c.config is not None:
            return cli.run(str(cfg_path), out_dir=str(out)), None
        return 0, c.call()
    except Exception:
        traceback.print_exc()
        return 1, None


def _hashes(c, out: Path, payload) -> dict:
    if c.config is None:
        return payload[0] if payload else {}
    manifest = out / "manifest.json"
    return json.loads(manifest.read_text())["files"] if manifest.exists() \
        else {}


def run_pass(w, paths, passdir: Path, tracer=None):
    """One pass over the steps; returns (timings/codes/hashes, payloads)."""
    rec = {"steps": {}, "codes": {}, "hashes": {}}
    payloads = {}
    t_pass = time.perf_counter()
    for step in w.steps:
        span = tracer.span(f"step.{step.metric}") if tracer else nullcontext()
        t0 = time.perf_counter()
        with span:
            for c in step.commands:
                code, payloads[c.label] = _run_command(
                    c, paths.get(c.label), passdir / c.label)
                rec["codes"][c.label] = code
        rec["steps"][step.metric] = time.perf_counter() - t0
    rec["wall_s"] = time.perf_counter() - t_pass
    for c in w.commands():
        rec["hashes"][c.label] = _hashes(c, passdir / c.label,
                                         payloads[c.label])
    return rec, payloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)

    w, paths = _setup(args)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    sys.stdout = sys.stderr      # the CLI's progress lines go to the log

    import tracing as tr
    traced = bool(args.trace)
    mode = args.work / ("traced" if traced else "untraced")
    passes, spans, layers, grids = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        passdir = mode / f"pass{k}"
        if not traced:
            rec, payloads = run_pass(w, paths, passdir)
        else:
            tracer = tr.Tracer()
            tracer.run_id = f"{w.name}-{w.seed}-pass{k}"
            remove = tr.instrument(tracer)
            try:
                rec, payloads = run_pass(w, paths, passdir, tracer)
            finally:
                remove()
            layers.append(tr.layer_metrics(tracer.spans))
            grids = tr.grid_manifests(tracer.spans)
            spans += [[s.name, s.start, s.end, s.parent, s.run_id]
                      for s in tracer.spans]
        passes.append(rec)
        if k == 0:
            # one pass from a fresh process, as a user runs the workload;
            # later passes in the same process only add heap fragmentation
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first_payloads = payloads
        else:
            shutil.rmtree(passdir, ignore_errors=True)
        k += 1

    ctx = {label: (p[1] if p else None)
           for label, p in first_payloads.items()}
    out = {c.label: mode / "pass0" / c.label for c in w.commands()}
    checks = []
    for c in w.commands():
        codes = [p["codes"][c.label] for p in passes]
        checks.append((f"exit_code[{c.label}]", all(x == 0 for x in codes),
                       f"codes={codes}"))
    # a traced process only has to match the untraced artifacts (run.py)
    if not traced and all(x[1] for x in checks):
        try:
            checks += workloads.check(w, out, ctx)
        except Exception as e:
            traceback.print_exc()
            checks.append(("oracle_checks_ran", False, repr(e)))

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "workload": w.name, "seed": w.seed, "toy": args.toy,
        "passes": [{k: v for k, v in p.items() if k != "codes"}
                   for p in passes],
        "peak_rss_mb": peak_rss_mb,
        "checks": [[n, bool(ok), d] for n, ok, d in checks],
        "layers": layers,
        "grid_manifests": grids,
        "env": {"numpy": np.__version__, "scipy": scipy.__version__,
                "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    (mode / "result.json").write_text(json.dumps(result, indent=1))
    if spans:
        (mode / "spans.json").write_text(json.dumps(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
