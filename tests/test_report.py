import ast
import time
from pathlib import Path

import pytest

import okuboplane
from okuboplane.algebra import AlgebraKind
from okuboplane.plane import EqualLines, EqualPoints, NotVeronese, PostconditionViolation
from okuboplane.report import Build, TheoremReport, outcome_report
from okuboplane.scalar import ZeroInverse
from okuboplane.theorems import DegenerateConfig

OK = AlgebraKind.OKUBO
BROKEN = {"error": "PostconditionViolation", "detail": "join gave a bad line"}


def _outcomes(*items):
    """Yields ``items`` in order; an exception instance is raised instead."""

    def outcomes():
        for item in items:
            if isinstance(item, Exception):
                raise item
            yield item

    return outcomes()


def test_pass_report_keeps_failures_before_a_broken_postcondition():
    report = outcome_report("r", OK, 0, 4, _outcomes(
        None, {"x": 1}, PostconditionViolation("join gave a bad line"), {"x": 2},
    ), None)
    assert report.failures == [{"x": 1}, BROKEN]
    assert report.verdict == "fail"


def test_witness_report_never_takes_a_broken_postcondition_as_witness():
    report = outcome_report("r", OK, 0, 3, _outcomes(
        None, PostconditionViolation("join gave a bad line"), {"w": 1},
    ), "a witness")
    assert report.mode == "expect-witness"
    assert report.witnesses == []
    assert report.failures == [BROKEN]


def test_witness_report_stops_at_the_witness():
    report = outcome_report("r", OK, 0, 3, _outcomes(
        None, {"w": 1}, PostconditionViolation("never drawn"),
    ), "a witness")
    assert report.ok and report.witnesses == [{"w": 1}]


@pytest.mark.parametrize(
    "error", [NotVeronese, EqualPoints, EqualLines, DegenerateConfig, ZeroInverse])
def test_a_broken_identity_is_a_failure_in_either_mode(error):
    broken = {"error": error.__name__, "detail": "an identity broke"}
    passing = outcome_report("r", OK, 0, 3, _outcomes(
        {"x": 1}, error("an identity broke"), {"x": 2}), None)
    assert passing.failures == [{"x": 1}, broken]
    witness = outcome_report(
        "r", OK, 0, 3, _outcomes(None, error("an identity broke")), "a witness")
    assert witness.failures == [broken] and witness.witnesses == []


def test_text_line_counts_the_failures_of_a_failed_pass_report():
    report = TheoremReport(name="r", kind="okubo", seed=3, trials=5, failures=[{"x": 1}, BROKEN])
    assert report.text_line() == "FAIL  r  kind=okubo  trials=5  seed=3  [2 failure(s)]"


@pytest.mark.parametrize("make", [
    lambda outcomes: outcome_report("r", OK, 0, 1, outcomes, None),
    lambda outcomes: outcome_report("r", OK, 0, 1, outcomes, "a witness"),
])
def test_other_exceptions_propagate(make):
    with pytest.raises(ZeroDivisionError):
        make(_outcomes(ZeroDivisionError("bug")))


def test_build_row_times_its_build():
    def build(kind, trials, seed):
        time.sleep(0.005)
        return TheoremReport(name="r", kind=kind.value, seed=seed, trials=trials)

    assert Build((OK,), build).report(OK, OK, 1, 0).elapsed_ms >= 5


def test_only_the_report_module_reads_the_clock():
    # every report is timed by the one stopwatch of its row
    package = Path(okuboplane.__file__).parent
    for module in sorted(package.glob("*.py")):
        if module.name == "report.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & {"stopwatch", "_stopwatch", "perf_counter", "elapsed_ms"}, module.name
