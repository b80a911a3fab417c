import pytest

from okuboplane.algebra import AlgebraKind
from okuboplane.plane import PostconditionViolation
from okuboplane.report import pass_report, witness_report

OK = AlgebraKind.OKUBO
BROKEN = {"error": "PostconditionViolation", "detail": "join gave a bad line"}


def _outcomes(*items):
    """Yields ``items`` in order; an exception instance is raised instead."""

    def outcomes():
        for item in items:
            if isinstance(item, Exception):
                raise item
            yield item

    return outcomes


def test_pass_report_keeps_failures_before_a_broken_postcondition():
    report = pass_report("r", OK, 0, 4, _outcomes(
        None, {"x": 1}, PostconditionViolation("join gave a bad line"), {"x": 2},
    ))
    assert report.failures == [{"x": 1}, BROKEN]
    assert report.verdict == "fail"


def test_witness_report_never_takes_a_broken_postcondition_as_witness():
    report = witness_report("r", OK, 0, 3, _outcomes(
        None, PostconditionViolation("join gave a bad line"), {"w": 1},
    ), "a witness")
    assert report.mode == "expect-witness"
    assert report.witnesses == []
    assert report.failures == [BROKEN]


def test_witness_report_stops_at_the_witness():
    report = witness_report("r", OK, 0, 3, _outcomes(
        None, {"w": 1}, PostconditionViolation("never drawn"),
    ), "a witness")
    assert report.ok and report.witnesses == [{"w": 1}]


@pytest.mark.parametrize("make", [
    lambda outcomes: pass_report("r", OK, 0, 1, outcomes),
    lambda outcomes: witness_report("r", OK, 0, 1, outcomes, "a witness"),
])
def test_other_exceptions_propagate(make):
    with pytest.raises(ZeroDivisionError):
        make(_outcomes(ZeroDivisionError("bug")))
