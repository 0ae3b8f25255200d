"""Self-tests of the benchmark harness (fast; no benchmark run)."""

import json
import os
import re
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import metrics, workloads  # noqa: E402
from perfbench.trace import Tracer, instrument  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    # linear interpolation: p90 of 0..n-1 has 10 samples above it
    # from n = 92 on
    assert metrics.tail_percentile(list(range(92)), 90) is not None
    assert metrics.tail_percentile(list(range(91)), 90) is None
    assert metrics.tail_percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert metrics.tail_percentile(list(range(19)), 50) is None
    assert metrics.tail_percentile([], 50) is None


def test_metric_names_and_units_are_well_formed():
    names = [m[0] for m in metrics.E2E] + [m[0] for m in metrics.LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
    for _, unit, better, *_ in metrics.E2E + metrics.LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
        assert better in ("lower", "higher")
    assert len(metrics.LAYER) <= 128 and len(metrics.E2E) <= 16


def test_result_line_refuses_a_missing_metric():
    units = {"a": "s", "b": "ms"}
    with pytest.raises(ValueError):
        metrics.result_line(1, 0, {"a": 1.0}, units)
    line = json.loads(metrics.result_line(2, 1, {"a": 1.0, "b": 2.0}, units))
    assert line["correct"] is False
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == [
        "train-des", "serve-specs", "sweep-analytic"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(metrics.E2E)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(metrics.LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("make", [
    lambda seed: workloads.train_ops(seed, 20),
    lambda seed: workloads.serve_trace(seed, 20),
    lambda seed: workloads.sweep_grid(seed),
])
def test_seed_fixes_the_operation_list(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_serve_trace_work_does_not_depend_on_the_seed():
    def shape(trace):
        keys = {json.dumps(s, sort_keys=True) for s in trace}
        modes = sorted(json.loads(k)["mode"] for k in keys)
        return len(trace), modes
    assert shape(workloads.serve_trace(1, 20)) == shape(
        workloads.serve_trace(2, 20))


def test_self_time_excludes_children():
    tracer = Tracer("t")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    self_ms = tracer.self_ms()
    outer_ms = 1e3 * (outer.end - outer.start)
    inner_ms = 1e3 * (inner.end - inner.start)
    assert inner.parent == outer.sid and outer.parent is None
    assert self_ms["outer"] == pytest.approx(outer_ms - inner_ms)
    assert self_ms["inner"] == pytest.approx(inner_ms)


def test_instrument_restores_the_program():
    import repro.api.session as session
    import repro.pipeline.backends.event as event
    from repro.graph.csr import CSRGraph

    before = (session.scaled_dataset, event.drive,
              CSRGraph.__dict__["from_edges"])
    with instrument(Tracer("t")):
        assert session.scaled_dataset is not before[0]
    assert (session.scaled_dataset, event.drive,
            CSRGraph.__dict__["from_edges"]) == before


def test_corrupted_store_record_trips_the_gate(tmp_path):
    from repro.api.spec import RunSpec
    from repro.service.store import ResultStore, run_key
    from repro.service.worker import evaluate_and_store

    from perfbench.runners import check_store_records

    spec = RunSpec.from_dict(workloads.serve_warm_specs(1)[0]).to_dict()
    store = ResultStore(str(tmp_path))
    evaluate_and_store(spec, store.root)
    job = SimpleNamespace(key=run_key(spec), spec=spec, source="computed")
    picked, bad = check_store_records(store, [job], seed=0)
    assert picked == [job.key] and bad == []
    path = store.path_for(job.key)
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(blob.replace(b'"elapsed_s":', b'"elapsed_s":1', 1))
    assert check_store_records(store, [job], seed=0)[1] == [job.key]
