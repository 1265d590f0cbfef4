"""Tests of the benchmark itself (not of the program it measures)."""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

from perfbench import gate
from perfbench.child import Client
from perfbench.metrics import END_TO_END, PER_LAYER, REPORTED_ONLY
from perfbench.tracer import Tracer, attribution, layer_walls, load_spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def test_metric_names_and_units_are_well_formed():
    specs = END_TO_END + REPORTED_ONLY + PER_LAYER
    names = [name for name, _, _ in specs]
    assert len(names) == len(set(names))
    for name, unit, better in specs:
        assert gate.NAME.fullmatch(name), name
        assert gate.UNIT.fullmatch(unit), (name, unit)
        assert better in ("lower", "higher"), name


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    as_specs = [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ]
    assert as_specs == PER_LAYER
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]
    ] == END_TO_END
    assert max(m["bound"] for m in declared["end_to_end"]) == next(
        m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s"
    )


def test_p95_needs_ten_samples_beyond_it():
    assert gate.tail_percentile(list(range(100))) is None
    assert gate.tail_percentile(list(range(180))) is None  # 9 beyond
    value = gate.tail_percentile(list(range(220)))
    assert value == pytest.approx(0.95 * 219)
    assert sum(1 for v in range(220) if v > value) >= 10
    assert gate.tail_percentile([]) is None


SWEEP_OUTPUT = """\
== sweep 'table1' — spec 0123456789ab ==
rotor  512   2      all_on_one  toward_node0     0  65536.0      no

note: completed in 0.74s (jobs=2, cache=/work/run-1/cold-table1)
computed=10 cached=0
"""


def test_masking_ignores_wall_times_and_cache_paths():
    other = SWEEP_OUTPUT.replace("0.74s", "12.01s").replace(
        "/work/run-1", "/elsewhere"
    )
    assert gate.digest(other) == gate.digest(SWEEP_OUTPUT)
    assert gate.digest(SWEEP_OUTPUT.replace("jobs=2", "jobs=1")) != (
        gate.digest(SWEEP_OUTPUT)
    )
    line = "backend=batch computed=30 cached=0 elapsed=2.77s\n"
    assert gate.digest(line) == gate.digest(line.replace("2.77", "3.10"))
    assert gate.accounting(SWEEP_OUTPUT + line) == (40, 0, 0)


def test_perturbed_output_fails_the_gate_and_raises_failed_ratio():
    pins = {"cold/table1": {"digest": gate.digest(SWEEP_OUTPUT), "cells": 10}}
    client = Client(cli_main=None, pinned=pins)
    client.judge("cold/table1", SWEEP_OUTPUT, warm=False)
    assert (client.cells, client.failed, client.errors) == (10, 0, [])
    client.judge("cold/table1", SWEEP_OUTPUT.replace("65536", "65537"),
                 warm=False)
    assert (client.cells, client.failed) == (20, 10)
    assert client.failed / client.cells == 0.5
    client.judge("cold/table1", None, warm=False)
    assert client.failed == 20
    assert len(client.errors) == 2


def test_warm_request_that_recomputes_fails():
    pins = {"warm/table1": {"digest": gate.digest(SWEEP_OUTPUT), "cells": 10}}
    verdict = gate.check_request(SWEEP_OUTPUT, pins["warm/table1"], True)
    assert verdict["failed"] == 10
    assert "computed" in verdict["error"]


@pytest.fixture
def fake_program(monkeypatch):
    """Two program modules: a layer module and a caller that imported a
    layer function by name (the binding the tracer must rebind)."""
    layer = types.ModuleType("repro._perfbench_fake_layer")

    def leaf(x):
        return sum(range(x))

    def middle(x):
        return layer.leaf(x) + layer.leaf(x)

    layer.leaf = leaf
    layer.middle = middle
    caller = types.ModuleType("repro._perfbench_fake_caller")
    caller.middle = middle
    monkeypatch.setitem(sys.modules, layer.__name__, layer)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    return layer, caller, leaf, middle


def test_tracer_wraps_rebinds_and_restores(fake_program, tmp_path):
    layer, caller, leaf, middle = fake_program
    tracer = Tracer(str(tmp_path))
    tracer.install([
        (layer.__name__, "leaf", "fake.leaf", None, None),
        (layer.__name__, "middle", "fake.middle", None, None),
        (layer.__name__, "absent", "fake.absent", None, None),
    ])
    try:
        assert caller.middle is layer.middle is not middle
        assert tracer.unresolved() == [f"{layer.__name__}.absent"]
        request = tracer.name_id("request")
        for _ in range(3):
            span = tracer.begin(request)
            caller.middle(2000)
            sum(range(20000))  # time outside any named layer
            tracer.end(span)
        caller.middle(10)  # outside any request: not attributed
        tracer.flush()
    finally:
        tracer.uninstall()
    assert (layer.leaf, layer.middle, caller.middle) == (leaf, middle, middle)

    spans, counts = load_spans(str(tmp_path))
    assert counts["fake.middle.calls"] == 4
    assert counts["fake.leaf.calls"] == 8
    result = attribution(spans)
    total = sum(result["layer_self_s"].values()) + result["unattributed_s"]
    assert total == pytest.approx(result["wall_s"], rel=1e-9, abs=1e-12)
    assert result["unattributed_s"] > 0
    assert set(result["layer_self_s"]) == {"fake.leaf", "fake.middle"}
    walls = layer_walls(spans)
    assert walls["fake.middle"] >= walls["fake.leaf"]
    assert walls["request"] == pytest.approx(result["wall_s"])


def test_run_refuses_fault_injection(monkeypatch):
    from perfbench import run

    monkeypatch.setenv("REPRO_FAULTS", "seed=1")
    with pytest.raises(run.BenchmarkError, match="REPRO_FAULTS"):
        run.preflight()


def test_prediction_table_covers_every_layer_metric():
    from perfbench.child import WORKLOADS

    with open(os.path.join(ROOT, "perfbench", "predictions.json")) as handle:
        table = json.load(handle)["predictions"]
    assert sorted(table) == sorted(name for name, _, _ in PER_LAYER)
    end_to_end = {name for name, _, _ in END_TO_END + REPORTED_ONLY}
    for prediction in table.values():
        for entry in prediction["moves"] + prediction["flat"]:
            assert entry["metric"] in end_to_end
            assert entry["workload"] in WORKLOADS
