"""pslab benchmark: one workload, one seed, fresh processes, oracle-checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a pslab source tree (the package is taken from
``src/``).  The run times the set-up of several fresh processes (imports,
config parsing and validation), then starts one workload process that runs
whole passes over the workload's steps for ``--seconds`` and checks the
outputs against the repository's oracles.  It prints a report with every
metric by name and unit, each failing check by name, and as its last line a
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics from
a traced run with ``--trace 1``.  Working files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 5          # fresh set-up processes per run, besides the worker
TIME_LIMIT = 165.0      # seconds a whole run may take before it gives up

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return p, xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]
    return None


def summary(values, unit):
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
            "unit": unit}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PSLAB_OUT", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def spawn(args, work: Path, env: dict, log, trace: int, seconds: float,
          setup_only: bool = False):
    """Start a workload process; returns (process, seconds until ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--work", str(work),
           "--seconds", repr(seconds), "--trace", str(trace)]
    cmd += ["--toy"] * args.toy + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process failed during set-up")
    return proc, ready


def wait(proc, deadline: float):
    """Wait for a process until the deadline; kill it if it is still there."""
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_worker(args, work, env, log, trace, seconds, deadline):
    """One workload process to the end; returns (ready seconds, result)."""
    proc, ready = spawn(args, work, env, log, trace, seconds)
    wait(proc, deadline)
    res = work / ("traced" if trace else "untraced") / "result.json"
    if proc.returncode != 0 or not res.exists():
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return ready, json.loads(res.read_text())


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(list((root / "src").rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def replay_across_runs(root: Path, base: Path, result: dict) -> list:
    """Compare this run's artifact hashes with an earlier run of this source.

    The first run of a (source, workload, seed) records its hashes and
    returns no check; later runs are checked against that record.
    """
    key = source_digest(root)
    hashes = result["passes"][0]["hashes"]
    rec = base / "replay" / (f"{result['workload']}-{result['seed']}"
                             f"{'-toy' if result['toy'] else ''}.json")
    if rec.exists():
        old = json.loads(rec.read_text())
        if old["source"] == key:
            return [(f"replay[{label}]", old["hashes"].get(label) == h,
                     "identical to an earlier run" if
                     old["hashes"].get(label) == h else
                     "artifact hashes differ from an earlier run")
                    for label, h in hashes.items()]
    rec.parent.mkdir(parents=True, exist_ok=True)
    rec.write_text(json.dumps({"source": key, "hashes": hashes}))
    return []


def environment(result: dict, seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], **result["env"], "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pslab" / "cli.py").is_file():
        print("perfbench: run from the root of a pslab source tree "
              "(src/pslab not found)", file=sys.stderr)
        return 2

    base = root / ".perfbench_work"
    work = base / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, args.toy)
    for c in wl.commands():
        if c.config is not None:
            (work / "configs" / f"{c.label}.json").write_text(
                json.dumps(c.config, indent=1, sort_keys=True))

    env = child_env(root)
    setup, traced = [], None
    deadline = time.monotonic() + TIME_LIMIT
    with open(work / "worker.log", "w") as log:
        try:
            if args.trace:
                # an untraced and a traced process, each fresh, half the time
                _, result = run_worker(args, work, env, log, 0,
                                       args.seconds / 2, deadline)
                _, traced = run_worker(args, work, env, log, 1,
                                       args.seconds / 2, deadline)
            else:
                for _ in range(SETUP_RUNS):
                    proc, ready = spawn(args, work, env, log, 0, 0.0,
                                        setup_only=True)
                    wait(proc, deadline)
                    setup.append(ready)
                ready, result = run_worker(args, work, env, log, 0,
                                           args.seconds, deadline)
                setup.append(ready)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {e}", file=sys.stderr)
            sys.stderr.write((work / "worker.log").read_text()[-3000:])
            return 1

    checks = [tuple(c) for c in result["checks"]]
    checks += replay_across_runs(root, base, result)
    if traced is not None:
        checks += [(f"traced_{name}", ok, detail)
                   for name, ok, detail in traced["checks"]]
        first, other = result["passes"][0]["hashes"], \
            traced["passes"][0]["hashes"]
        for label in first:
            same = first[label] == other[label]
            checks.append((f"trace_replay[{label}]", same,
                           "traced artifacts identical to untraced" if same
                           else "traced artifacts differ from untraced"))
    failed = [c for c in checks if not c[1]]
    # `correct`: every command of every pass ran to completion and its
    # outputs could be checked.  Oracle and replay disagreements are program
    # defects: they count in `failed` and are named in the report.
    correct = not any(c[0].split("[")[0] in ("exit_code", "traced_exit_code",
                                             "oracle_checks_ran")
                      for c in failed)

    passes = result["passes"]
    report = {"wall_s": summary([p["wall_s"] for p in passes], "s")}
    if setup:
        report["setup_s"] = summary(setup, "s")
    report["peak_rss_mb"] = summary([result["peak_rss_mb"]], "MB")
    for step in wl.steps:
        report[step.metric] = summary([p["steps"][step.metric]
                                       for p in passes], "s")
    report["fail_fraction"] = summary([len(failed) / len(checks)], "1")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}" + (f" untraced + {len(traced['passes'])} "
                                     "traced" if traced else ""))
    print("environment " + json.dumps(environment(result, args.seed)))
    print(f"{'metric':40s} {'median':>14s} {'tail':>22s} {'n':>4s}  unit")
    for name, s in report.items():
        tail = "-" if s["tail"] is None else \
            f"p{s['tail']['p']:g}={s['tail']['value']:.6g}"
        print(f"{name:40s} {s['median']:14.6g} {tail:>22s} {s['n']:4d}  "
              f"{s['unit']}")
    print("wall_s per pass: " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    print(f"checks: {len(checks)} attempted, {len(failed)} failed, "
          f"fail_fraction {len(failed) / len(checks):.4g}")
    for name, ok, detail in checks:
        if not ok:
            print(f"  FAILED {name}: {detail}")

    if traced is not None:
        layers = {name: statistics.median(m[name] for m in traced["layers"])
                  for name in traced["layers"][0]}
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced["passes"])
            - report["wall_s"]["median"])
        print(f"tracing overhead: {layers['trace.overhead_s']:.4f} s per pass "
              "(traced minus untraced wall_s)")
        for g in traced["grid_manifests"]:
            print("grid " + json.dumps(g, sort_keys=True))
        for name, v in layers.items():
            print(f"  {name:44s} {v:.6g}")
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        metrics = {name: {"value": v, "unit": units[name]}
                   for name, v in layers.items()}
    else:
        metrics = {name: {"value": s["median"], "unit": s["unit"]}
                   for name, s in report.items()}
    keep = [m["name"] for m in BENCH["per_layer" if args.trace
                                     else "end_to_end"]]
    metrics = {k: metrics[k] for k in keep}
    print(json.dumps({"correct": correct, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
