"""Tests for the benchmark's own code: span arithmetic, wrapper lifetime, checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
from adjrmat import jsonio
from tracing import Span, Tracer, self_times, root_time

ROOT = Path(__file__).resolve().parent.parent
TINY = harness.Workload("a fast suite", (("verify", "su3", "--n", "3"),))


def _span(sid, parent, start, end, name="x"):
    return Span(name, sid, parent, {}, start, end)


def test_self_time_of_nested_spans():
    # 1 [0, 10] contains 2 [1, 4] (which contains 3 [2, 3]) and 4 [5, 9]; 5 [12, 13] is a second root
    spans = [
        _span(3, 2, 2.0, 3.0),
        _span(2, 1, 1.0, 4.0),
        _span(4, 1, 5.0, 9.0),
        _span(1, None, 0.0, 10.0),
        _span(5, None, 12.0, 13.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 1.0}
    assert root_time(spans) == 11.0
    # a 15 s command: the self times plus the time outside any span add up to it
    assert sum(selfs.values()) + (15.0 - root_time(spans)) == 15.0


def test_layer_metrics_sum_to_the_traced_pass():
    spans = [
        _span(2, 1, 1.0, 4.0, "rmatrix.build_R"),
        _span(1, None, 0.0, 10.0, "rmatrix.ybe_residual"),
        _span(3, None, 11.0, 12.0, "numerics.kron"),
    ]
    spans[1].attrs = {"mode": "matrix_free", "m": 8, "probes": 2}
    for s in spans:
        s.rss_mb = 0.0
    metrics = tracing.layer_metrics(spans, [20.0])
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in (*tracing.LAYERS, "cli"))
    assert layer_self == pytest.approx(20.0)
    assert metrics["rmatrix.ybe_residual.self_s"] == 7.0
    assert metrics["rmatrix.build_R.calls"] == 1.0
    assert metrics["cli.self_s"] == 9.0
    assert metrics["rmatrix.ybe_probe.flops"] == 2 * 2 * sum(
        tracing.einsum_flops(e, (8,) * 4, (8,) * 3) for e in tracing.YBE_PROBE_EXPRS
    )
    assert metrics["rmatrix.ybe_dense.flops"] == 0.0


def _originals():
    return {
        (key, name): vars(mod)[name]
        for key, mod in sys.modules.items()
        if mod is not None and (key == "adjrmat" or key.startswith("adjrmat."))
        for name in vars(mod)
        if callable(vars(mod)[name])
    }


def _run(tmp_path, monkeypatch, tracer):
    import adjrmat.cli as cli

    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    ledger = harness.Ledger(tmp_path)
    times = [[]]
    harness.run_pass(cli, "tiny", 7, tmp_path, ledger, times, 0, tracer)
    harness.run_pass(cli, "tiny", 7, tmp_path, ledger, times, 1)
    return ledger


def test_untraced_run_leaves_no_wrappers(tmp_path, monkeypatch):
    import adjrmat.cli  # noqa: F401  (loads every adjrmat module)

    before = _originals()
    ledger = _run(tmp_path, monkeypatch, None)
    assert tracing.wrapped_bindings() == []
    assert _originals() == before
    attempted, failed, problems = ledger.totals()
    assert failed == 0 and attempted > 0, problems


def test_traced_run_records_nested_spans_and_unbinds(tmp_path, monkeypatch):
    import adjrmat.cli  # noqa: F401

    before = _originals()
    tracer = Tracer()
    ledger = _run(tmp_path, monkeypatch, tracer)
    assert tracing.wrapped_bindings() == []
    assert _originals() == before
    # the traced pass's report is byte-identical to the untraced one
    attempted, failed, problems = ledger.totals()
    assert failed == 0, problems
    names = {s.name for s in tracer.spans}
    assert {"liealg.build_basis", "adjoint_tensor.build_decomposition", "spinchain.local_h"} <= names
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.context == {"workload": "tiny", "pass": 0, "n": 3}
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    # build_R inside local_h is a child span of it
    local = next(s for s in tracer.spans if s.name == "spinchain.local_h")
    assert any(s.parent == local.id and s.name == "rmatrix.build_R" for s in tracer.spans)
    assert next(s for s in tracer.spans if s.name == "adjoint_tensor.build_decomposition"
                ).attrs["bytes"] > 0


def test_changed_repeat_fails_every_outcome(tmp_path):
    ledger = harness.Ledger(tmp_path)
    report = {"checks": [{"id": "a", "pass": True}, {"id": "b", "pass": True}], "pass": True}
    argv = ("verify", "x", "--n", "3")
    for text in (json.dumps(report), json.dumps(report), json.dumps(report) + " "):
        out = tmp_path / "out.json"
        out.write_text(text)
        ledger.record(0, argv, 0, out)
    attempted, failed, problems = ledger.totals()
    assert (attempted, failed) == (6, 2)
    assert problems == ["verify x --n 3: output differs from the first pass"]


def test_failed_check_and_raising_command_count_as_failures():
    report = {"checks": [{"id": "a", "pass": True}, {"id": "b", "pass": False}], "pass": False}
    assert harness.evaluate(("verify", "x"), 1, json.dumps(report).encode())[:2] == (2, 1)
    assert harness.evaluate(("build", "rmatrix"), None, None)[:2] == (1, 1)


def test_projector_artifact_validation():
    # n = 3: projectors act on the 64-dimensional two-site space
    top = np.diag([1.0] * 32 + [0.0] * 32)
    payload = {"modules": [{"projector": jsonio.matrix_to_json(p)} for p in (top, np.eye(64) - top)]}
    argv = ("build", "projectors", "--n", "3")
    assert harness.evaluate(argv, 0, json.dumps(payload).encode()) == (1, 0, None)
    payload["modules"][1]["projector"] = jsonio.matrix_to_json(2.0 * (np.eye(64) - top))
    attempted, failed, problem = harness.evaluate(argv, 0, json.dumps(payload).encode())
    assert failed == 1 and "idempotent" in problem


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in harness.WORKLOADS.values()]
    assert spec["per_layer"] == tracing.per_layer_catalogue()
