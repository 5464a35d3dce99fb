"""run.py: its metric list and its per-layer arithmetic."""

import json
import time

import pytest

import run
from trace_cli import Tracer

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_children():
    tracer = Tracer()
    child = tracer.span("child", lambda: time.sleep(0.01))
    tracer.span("parent", lambda: [child() for _ in range(2)])()
    parent, first, second = tracer.spans
    assert first["parent"] == second["parent"] == 0

    def length(s):
        return s["end"] - s["start"]

    self_s = tracer.self_times()
    assert self_s[0] == pytest.approx(length(parent) - length(first) - length(second), abs=1e-12)
    assert self_s[1:] == [length(first), length(second)]


def span(name, start, end, parent=0, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "self_s": end - start,
            **attrs}


def test_layer_metrics_sums_and_ratios():
    doc = {
        "import_s": 1.5,
        "counts": {"rng.substreams": 10, "bhm.slice_steps": 4, "bhm.logdensity_evals": 22},
        "spans": [
            span("cli.main", 0.0, 10.0, parent=None, self_s=0.5),
            span("bootstrap.run", 0.0, 2.0, replicates=1000, store_bytes=2**21),
            span("ranking", 2.0, 3.0, scheme="by-average", kind="raw", samples=1000),
            span("ranking", 3.0, 5.0, scheme="by-average", kind="normalized", samples=1000),
            span("bhm.fit", 5.0, 9.0, chain_iterations=2000, ess_min=800.0, rhat_max=1.002),
            span("report.write", 9.0, 9.5, bytes=300),
        ],
    }
    m = run.layer_metrics([doc, doc])
    assert m["cli.import_s"] == 3.0
    assert m["cli.self_s"] == 1.0
    assert m["rng.substreams"] == 20
    assert m["bootstrap.run_s"] == 4.0
    assert m["bootstrap.replicates_per_s"] == 500.0
    assert m["bootstrap.store_mib"] == 2.0
    assert m["ranking.by-average.normalized_s"] == 4.0
    assert m["ranking.samples_per_s"] == 4000 / 6.0
    assert m["bhm.chain_1k_iter_s"] == 8.0 / 4.0
    assert m["bhm.evals_per_step"] == 5.5
    assert m["bhm.ess_per_s"] == 800.0 / 8.0
    assert m["report.bytes_written"] == 600
    assert m["weighting.cells_per_s"] == 0.0
    assert set(m) == set(run.PER_LAYER)
