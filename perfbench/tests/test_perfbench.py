"""Tests of the benchmark itself: span arithmetic, metric names, failure counting."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DECODE_D7_REFERENCE_LER,
    REPORT_IDS,
    WORKLOADS,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- self-time arithmetic -------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["a.inner", 15, 25, 1],
        ["b", 50, 70, 0],
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]
    # Self times of a span tree add up to the root's duration.
    assert sum(tracing.self_times(spans)) == 100


def test_same_name_nesting_counts_one_entry():
    spans = [
        ["store.probe", 0, 10, -1],  # contains() ...
        ["store.probe", 2, 8, 0],  # ... calling load()
        ["store.probe", 20, 25, -1],
    ]
    totals = tracing.span_totals(spans)["store.probe"]
    assert totals == {"self": 15, "inclusive": 15, "calls": 2}


def test_tracer_records_parents_and_restores_methods():
    class Base:
        def work(self, n):
            return n + 1

    class Child(Base):
        def outer(self):
            return self.work(1) + self.work(2)

    original = Base.work
    tracer = tracing.Tracer()
    tracer.wrap(Child, "outer", "outer")
    tracer.wrap(Child, "work", "work")  # inherited: patched on Child only
    assert Child().outer() == 5
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer", -1), ("work", 0), ("work", 0)]
    assert all(end >= start for _, start, end, _ in tracer.spans)
    tracer.uninstall()
    assert "work" not in vars(Child) and Base.work is original
    assert Child().outer() == 5 and len(tracer.spans) == 3


def test_layer_spans_cover_a_small_experiment():
    from repro.experiments.memory import MemoryExperiment
    from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator

    original_run = PackedLeakageFrameSimulator.run
    tracer, counters = tracing.Tracer(), tracing.Counters()
    tracing.install_layer_spans(tracer, counters)
    try:
        experiment = MemoryExperiment(distance=3, cycles=1, policy="eraser", seed=3)
        result = experiment.run(64)
    finally:
        tracer.uninstall()
    assert PackedLeakageFrameSimulator.run is original_run
    counts = counters.as_dict()
    assert counts["shots"] == 64 and counts["decoder"]["shots"] == 64
    metrics = tracing.layer_metrics(tracer.spans, counts, 1.0, 1.0, 0.5, 0.1)
    assert metrics["sim.calls"][0] > 0 and metrics["policy.calls"][0] > 0
    assert metrics["decoder.syndromes"][0] == 64
    # Every matched syndrome went through exactly one matcher tier.
    assert metrics["decoder.matched"][0] == sum(counts["tiers"].values())
    root = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in root] == ["experiment.run"]
    assert result.shots == 64


# -- metric names -----------------------------------------------------------
def test_benchmark_json_is_well_formed():
    bench = _bench()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_reported_metrics_match_benchmark_json():
    bench = _bench()
    timed = {"wall_s": 2.0, "shots": 10, "rss_mb": 100.0, "setup_s": 0.5}
    end_to_end = run.end_to_end_metrics([timed], [0.5])
    assert {k: v["unit"] for k, v in end_to_end.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    }
    counts = tracing.Counters().as_dict()
    layers = tracing.layer_metrics([], counts, 1.0, 1.0, 0.5, 0.1)
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]
    }


# -- output checks and failure counting ------------------------------------
def _valid_summaries():
    shots = 4096
    errors = round(DECODE_D7_REFERENCE_LER * shots)
    return {
        "decode-d7": {
            "shots": shots, "rounds": 70, "data_qubits": 49,
            "logical_errors": errors, "lpr": [0.01] * 210,
            "speculation_total": shots * 70 * 49,
            "decoder": {"shots": shots, "empty": 1, "dedup_hits": 2,
                        "cache_hits": 3, "matched": shots - 6},
        },
        "lpr-d7": {
            "shots": 16384, "rounds": 70, "data_qubits": 49,
            "logical_errors": -1, "lpr": [0.0, 0.02, 1.0] * 70,
            "speculation_total": 16384 * 70 * 49, "decoder": None,
        },
        "report-cold": {
            "listed_ids": list(REPORT_IDS),
            "stats": {"jobs_total": 107, "cache_hits": 18, "jobs_run": 89},
            "ler_values": [0.0, 0.12, 1.0], "shots": 17800,
        },
    }


CORRUPTIONS = [
    ("decode-d7", lambda s: s["decoder"].update(matched=s["decoder"]["matched"] - 1)),
    ("decode-d7", lambda s: s.update(logical_errors=s["shots"] // 2)),
    ("decode-d7", lambda s: s.update(logical_errors=0)),
    ("lpr-d7", lambda s: s.update(logical_errors=0)),
    ("lpr-d7", lambda s: s["lpr"].__setitem__(5, 1.5)),
    ("lpr-d7", lambda s: s["lpr"].__setitem__(7, -0.1)),
    ("lpr-d7", lambda s: s.update(speculation_total=s["speculation_total"] - 49)),
    ("report-cold", lambda s: s["listed_ids"].remove("fig8")),
    ("report-cold", lambda s: s["stats"].update(cache_hits=17)),
    ("report-cold", lambda s: s["ler_values"].append(1.25)),
    ("report-cold", lambda s: s["ler_values"].append(float("nan"))),
]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_valid_outputs_pass_their_check(workload):
    assert WORKLOADS[workload].check(_valid_summaries()[workload]) == []


@pytest.mark.parametrize("index", range(len(CORRUPTIONS)))
def test_corrupted_output_counts_as_failed_operation(index):
    workload, corrupt = CORRUPTIONS[index]
    summary = _valid_summaries()[workload]
    corrupt(summary)
    problems = WORKLOADS[workload].check(summary)
    assert problems
    good = {"problems": [], "wall_s": 1.0, "shots": 1, "rss_mb": 1.0}
    bad = dict(good, problems=problems)
    line = json.loads(run.result_line([good, bad, None], {}))
    assert line == {"correct": False, "attempted": 3, "failed": 2, "metrics": {}}
    assert json.loads(run.result_line([good], {}))["correct"] is True
