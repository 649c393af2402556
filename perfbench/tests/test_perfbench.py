"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/tests

The end-to-end tests start real workload processes at toy sizes (about a
minute in all on two cores).
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = r"^[A-Za-z0-9_/%.-]{1,16}$"


def span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, "t")


def test_self_time_subtracts_children():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 4.0, 0),
             span("c", 2.0, 3.0, 1),
             span("d", 5.0, 6.5, 0)]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [span("a", 0.0, 10.0),
             span("b", 2.0, 5.0, 0),
             span("c", 4.0, 7.0, 0),      # overlaps b: union is [2, 7]
             span("d", 9.0, 12.0, 0)]     # runs past the parent's end
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans():
    t = tracing.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    assert [s.parent for s in t.spans] == [None, 0]
    assert all(s.end >= s.start for s in t.spans)
    assert tracing.self_times(t.spans)[1] == pytest.approx(t.spans[1].duration)


def test_lu_is_attributed_to_the_calling_layer():
    spans = [span("spectral.sigma_min", 0.0, 4.0),
             span("lu", 0.5, 1.5, 0),
             span("evolution.evolve", 5.0, 9.0),
             span("lu", 6.0, 6.5, 2),
             span("lu", 7.0, 7.5, 2)]
    for i, (fill, a) in zip((1, 3, 4), ((30, 10), (8, 4), (12, 4))):
        spans[i].attrs.update(fill_nnz=fill, a_nnz=a)
    spans[0].attrs.update(dense=False, iterations=7, nonconverged=True,
                          at_floor=False)
    spans[2].attrs.update(steps=100)
    m = tracing.layer_metrics(spans)
    assert m["spectral.lu.calls"] == 1 and m["evolution.lu.calls"] == 2
    assert m["spectral.lu.fill_ratio"] == pytest.approx(3.0)
    assert m["evolution.lu.fill_nnz"] == 20
    assert m["spectral.sigma_min.self_s"] == pytest.approx(3.0)
    assert m["spectral.sigma_min.nonconverged"] == 1
    assert m["evolution.us_per_step"] == pytest.approx(1e6 * 4.0 / 100)


def test_metric_names_and_units_are_valid():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert tracing.METRIC_NAME.match(m["name"]), m["name"]
        assert re.match(UNIT, m["unit"]), m["unit"]
    for w in workloads.WORKLOADS:
        for s in workloads.build(w, 1).steps:
            assert tracing.METRIC_NAME.match(s.metric)


def test_every_layer_metric_is_reported_and_every_layer_is_covered():
    produced = set(tracing.layer_metrics([])) | {"trace.overhead_s"}
    listed = {m["name"] for m in BENCH["per_layer"]}
    assert listed <= produced
    assert {n.split(".")[0] for n in listed} >= set(tracing.LAYERS)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50.0
    assert run.tail_percentile(list(range(1000)))[0] == 99.0


def test_seed_makes_the_inputs():
    a, b = workloads.build("exit_mc", 1), workloads.build("exit_mc", 1)
    c = workloads.build("exit_mc", 2)
    assert a.steps[0].commands[0].config == b.steps[0].commands[0].config
    assert a.steps[0].commands[0].config != c.steps[0].commands[0].config
    assert workloads.build("interval_1d", 3).params == \
        workloads.build("interval_1d", 3).params


def _run(capsys, monkeypatch, *args):
    monkeypatch.chdir(ROOT)
    code = run.main(list(args) + ["--seconds", "0", "--toy"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return out[:-1], json.loads(out[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_reported(name, capsys, monkeypatch):
    report, last = _run(capsys, monkeypatch, "--workload", name,
                        "--seed", "5", "--trace", "0")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    steps = [s.metric for s in workloads.build(name, 5, toy=True).steps]
    table = {line.split()[0]: line.split()[-1] for line in report
             if line.split() and line.split()[0] in
             ("wall_s", "setup_s", "peak_rss_mb", "fail_fraction", *steps)}
    assert set(table) == {"wall_s", "setup_s", "peak_rss_mb",
                          "fail_fraction", *steps}


def test_traced_run_reports_every_layer_metric(capsys, monkeypatch):
    report, last = _run(capsys, monkeypatch, "--workload", "interval_1d",
                        "--seed", "5", "--trace", "1")
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert last["metrics"]["spectral.sigma_min.calls"]["value"] > 0
    assert last["metrics"]["evolution.steps"]["value"] > 0
    assert any(line.startswith("tracing overhead") for line in report)
    assert not any("trace_replay[pseudospectrum]" in line for line in report)
