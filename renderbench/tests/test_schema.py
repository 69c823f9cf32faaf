"""Metric schema: names, units and types of everything a run prints,
and agreement with BENCHMARK.json."""

import json
import math
import os
import threading

import pytest

from renderbench import schema

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _filled(trace):
    report = schema.Report("drag", 1, trace)
    for k, metric in enumerate(schema.metrics_for(trace)):
        report.put(metric.name, k + 0.5, samples=k)
    report.attempted = 3
    report.failed = 1
    report.correct = False
    return report


def test_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in schema.END_TO_END + schema.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in schema.END_TO_END + schema.PER_LAYER:
        assert schema.NAME_RE.match(metric.name), metric.name
        assert schema.UNIT_RE.match(metric.unit), metric.unit
        assert metric.doc


def test_metrics_declare_a_direction():
    for metric in schema.END_TO_END + schema.PER_LAYER:
        assert metric.better in ("lower", "higher")
    setup = schema.ALL["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")


@pytest.mark.parametrize("trace", [False, True])
def test_payload_has_required_fields_and_stable_types(trace):
    payload = _filled(trace).payload()
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(payload["correct"], bool)
    assert isinstance(payload["attempted"], int)
    assert isinstance(payload["failed"], int)
    expected = {m.name: m.unit for m in schema.metrics_for(trace)}
    assert set(payload["metrics"]) == set(expected)
    for name, entry in payload["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == expected[name]
        assert type(entry["value"]) is float
        assert math.isfinite(entry["value"])


def test_last_rendered_line_is_the_json_payload():
    report = _filled(False)
    last = report.render().splitlines()[-1]
    assert json.loads(last) == report.payload()


def test_missing_unknown_and_non_finite_metrics_are_rejected():
    report = schema.Report("drag", 1, False)
    with pytest.raises(ValueError):
        report.payload()
    with pytest.raises(KeyError):
        report.put("no_such_metric", 1.0)
    with pytest.raises(ValueError):
        report.put("setup_s", float("nan"))


def test_reports_built_concurrently_agree():
    results = []

    def build():
        results.append(json.dumps(_filled(True).payload(), sort_keys=True))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(results) == 8 and len(set(results)) == 1


def test_benchmark_json_matches_the_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == [m.name for m in schema.END_TO_END]
    for metric in schema.END_TO_END:
        entry = e2e[metric.name]
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert entry["unit"] == metric.unit
        assert entry["better"] == metric.better
        assert 0 < entry["bound"] <= 0.25
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == [(m.name, m.unit, m.better) for m in schema.PER_LAYER]
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == [
        "drag", "animate", "serve"
    ]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
