"""Tests of the benchmark itself: its correctness gate, its tracer and its
refusals.  Run with ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

sys.path.insert(0, str(worker.SRC))

from okuboplane import suites  # noqa: E402
from okuboplane.collineation import Collineation  # noqa: E402
from okuboplane.plane import Plane  # noqa: E402
from okuboplane.scalar import QSqrt3  # noqa: E402

TINY_TRIALS = 1


def _bindings() -> dict:
    """Every object bound in an okuboplane namespace, in the classes the
    tracers patch, and in the suite table."""
    found = {}
    for module in tracer._package_modules():
        for attr, value in vars(module).items():
            found[(module.__name__, attr)] = value
    for cls in (Plane, QSqrt3, *tracer._collineation_classes(Collineation)):
        for attr, value in vars(cls).items():
            found[(cls.__qualname__, attr)] = value
    for command, fn in suites.SUITES.items():
        found[("SUITES", command)] = fn
    return found


def _traced_pass(name: str) -> tuple[worker.Pass, dict]:
    spans = tracer.SpanTracer()
    spans.install()
    try:
        result = worker.run_pass(worker.WORKLOADS[name], 0, TINY_TRIALS)
    finally:
        spans.uninstall()
    return result, spans.metrics()


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_tiny_budget_pass_has_no_failed_reports(name):
    result = worker.run_pass(worker.WORKLOADS[name], 0, TINY_TRIALS)
    assert result.reports and result.wall_s > 0
    assert worker.failed_reports(result, None) == 0


def test_workloads_together_run_every_suite_once():
    commands = [c for w in worker.WORKLOADS.values() for c in w.commands]
    assert sorted(commands) == sorted(suites.SUITES)


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_recorded_digest_matches_default_seed_and_budget(name):
    result = worker.measure_passes(name, worker.DEFAULT_SEED, 0, "none")
    assert result["digest"] == worker.WORKLOADS[name].digest
    assert result["passes"] == worker.INPUT_SETS
    assert result["attempted"] > 0 and result["failed"] == 0


def test_wrong_recorded_digest_fails_the_whole_run(monkeypatch):
    workload = dataclasses.replace(worker.WORKLOADS["identities"], digest="0" * 64)
    monkeypatch.setitem(worker.WORKLOADS, "identities", workload)
    result = worker.measure_passes("identities", worker.DEFAULT_SEED, 0, "none")
    assert result["failed"] == result["attempted"] > 0


def test_input_sets_differ_between_seeds():
    assert worker.input_seeds(0)[0] == 0
    assert len(set(worker.input_seeds(0) + worker.input_seeds(1))) == 2 * worker.INPUT_SETS


def test_wrong_digest_counts_every_report_as_failed():
    result = worker.run_pass(worker.WORKLOADS["identities"], 0, TINY_TRIALS)
    assert worker.failed_reports(result, "0" * 64) == len(result.reports)
    assert worker.failed_reports(result, result.digest) == 0


def test_failed_verdict_is_counted():
    result = worker.run_pass(worker.WORKLOADS["identities"], 0, TINY_TRIALS)
    result.reports[0] = dict(result.reports[0], verdict="fail")
    assert worker.failed_reports(result, None) == 1


def test_median_per_input_set_is_taken_over_all_processes():
    runs = [{"times": [[0.5, 0.7], [0.2]]}, {"times": [[0.4], [0.3, 0.1]]}, {"times": [[0.6], [0.9]]}]
    assert run.per_set_medians(runs, "times") == [0.55, 0.25]


def test_correction_rescales_to_the_reference_core():
    ref = worker.REFERENCE_S
    assert worker.corrected(1.0, ref, ref) == pytest.approx(1.0)
    assert worker.corrected(1.0, 1.5 * ref, 2.5 * ref) == pytest.approx(0.5)


def test_process_with_other_digest_fails_all_its_reports():
    runs = [{"digest": "a", "attempted": 5, "failed": 0},
            {"digest": "b", "attempted": 7, "failed": 0},
            {"digest": "a", "attempted": 3, "failed": 1}]
    assert run.count_failures(runs) == (15, 8)


@pytest.mark.parametrize("instrument", [tracer.SpanTracer, tracer.ScalarCounter])
def test_tracers_restore_every_original_binding(instrument):
    before = _bindings()
    tool = instrument()
    tool.install()
    try:
        during = _bindings()
        assert any(during[key] is not before[key] for key in before)
    finally:
        tool.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_span_tracer_sees_every_layer_and_changes_no_result():
    plain = worker.run_pass(worker.WORKLOADS["desargues"], 0, TINY_TRIALS)
    traced, metrics = _traced_pass("desargues")
    assert traced.digest == plain.digest
    for kind in tracer.KINDS:
        assert metrics[f"algebra.mul.{kind}.calls"] > 0
    assert metrics["plane.join.calls"] > 0 and metrics["plane.meet.calls"] > 0
    assert metrics["theorems.config.calls"] == 3  # one little-Desargues configuration per kind
    assert metrics["theorems.build_attempts_per_config"] >= 1
    assert metrics["suites.desargues_s"] > 0 and metrics["report.render_s"] > 0
    for name in ("plane.join", "plane.meet", "plane.incident"):
        assert 0 <= metrics[f"{name}.self_s"] <= metrics[f"{name}.incl_s"]


def test_identities_touch_neither_plane_nor_theorems():
    _, metrics = _traced_pass("identities")
    assert metrics["algebra.mul.okubo.calls"] > 0
    idle = [k for k in metrics if k.startswith(("plane.", "theorems.")) and metrics[k]]
    assert idle == []


def test_scalar_counter_sees_operations_and_bit_height():
    counter = tracer.ScalarCounter()
    counter.install()
    try:
        small = worker.run_pass(worker.WORKLOADS["identities"], 0, TINY_TRIALS)
        low = counter.metrics()["scalar.max_bits"]
        worker.run_pass(worker.WORKLOADS["desargues"], 0, TINY_TRIALS)
        high = counter.metrics()["scalar.max_bits"]
    finally:
        counter.uninstall()
    assert counter.metrics()["scalar.mul.calls"] > 0
    assert low < high
    assert worker.failed_reports(small, None) == 0


def test_benchmark_json_names_the_metrics_the_run_prints():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)


def _run_bench(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, *flags, "perfbench/run.py", "--workload", "identities",
            "--seed", "0", "--seconds", "1", "--trace", "0"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=60)


def test_refuses_optimized_interpreter():
    proc = _run_bench(BENCH.parent, "-O")
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_checkout_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
