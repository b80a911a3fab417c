"""Verification reports shared by the theorem harness, collineation checks
and the CLI.

A report either expects a property to hold on every trial (``expect-pass``,
failures are counterexamples to the property) or expects to find an exact
counterexample to a false statement (``expect-witness``, the found witness is
recorded and *absence* of one within budget is logged as a failure).  Either
way the invariant is the same: verdict is "pass" iff ``failures`` is empty.
An exception of ``BROKEN_IDENTITY`` raised while the outcomes are drawn, which
means that an identity the row relies on broke, ends the report with that
error as a failure, never as a witness.
The rows ``Check``, ``Scan`` and ``Build`` each make one report.  They are
``Frozen`` values, so a row is immutable and compares by its fields.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Iterable, Iterator, Optional

from .algebra import AlgebraKind, DegenerateAfterRetries, trial_rng
from .plane import EqualLines, EqualPoints, NotVeronese, PostconditionViolation
from .scalar import Frozen, ZeroInverse
from .theorems import DegenerateConfig

# a broken postcondition, a Veronese vector that is not one, a coincidence the
# geometry rules out, a zero divisor that cannot be zero, a draw whose rejection
# (say, a point off a line) holds for every candidate
BROKEN_IDENTITY = (
    PostconditionViolation, NotVeronese, EqualPoints, EqualLines, DegenerateConfig, ZeroInverse,
    DegenerateAfterRetries,
)


class TheoremReport:
    """One named report; ``mode`` is "expect-pass" or "expect-witness"."""

    def __init__(
        self, *, name: str, kind: str, seed: int, trials: int, mode: str = "expect-pass",
        failures: Optional[list[dict]] = None, witnesses: Optional[list[dict]] = None,
        elapsed_ms: float = 0.0,
    ) -> None:
        self.name, self.kind, self.seed, self.trials, self.mode = name, kind, seed, trials, mode
        self.failures = [] if failures is None else failures
        self.witnesses = [] if witnesses is None else witnesses
        self.elapsed_ms = elapsed_ms

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "trials": self.trials,
            "mode": self.mode,
            "verdict": self.verdict,
            "failures": self.failures,
            "witnesses": self.witnesses,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def text_line(self) -> str:
        tail = ""
        if self.mode == "expect-witness" and self.witnesses:
            tail = f"  [{len(self.witnesses)} witness(es) found]"
        elif self.failures:
            tail = f"  [{len(self.failures)} failure(s)]"
        return (
            f"{self.verdict.upper():4s}  {self.name}  kind={self.kind}"
            f"  trials={self.trials}  seed={self.seed}{tail}"
        )


def _stopwatch(make: Callable[[], TheoremReport]) -> TheoremReport:
    """The report ``make()`` returns, with ``elapsed_ms`` set to the time it
    took: every row's report is timed here, and only here."""
    start = time.perf_counter()
    report = make()
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _draw(outcomes: Iterable[Optional[dict]], first: bool) -> tuple[list[dict], list[dict]]:
    """The outcomes that are not None (only the first one if ``first``), and
    the record of the broken identity that ended the draw, if any."""
    found: list[dict] = []
    try:
        for outcome in outcomes:
            if outcome is not None:
                found.append(outcome)
                if first:
                    break
    except BROKEN_IDENTITY as exc:
        return found, [{"error": type(exc).__name__, "detail": str(exc)}]
    return found, []


def outcome_report(
    name: str, kind: AlgebraKind, seed: int, trials: int,
    outcomes: Iterable[Optional[dict]], missing: Optional[str],
) -> TheoremReport:
    """The report of a lazy stream of ``outcomes`` (None for a trial with
    nothing to record), which runs as it is drawn, in the row's stopwatch.
    expect-pass when ``missing`` is None: every outcome that is not None is a
    counterexample.  Otherwise expect-witness: the first outcome that is not
    None is the witness and the scan stops there; finding none is a failure
    that says what is ``missing``."""
    found, broken = _draw(outcomes, first=missing is not None)
    if missing is None:
        return TheoremReport(name=name, kind=kind.value, seed=seed, trials=trials,
                             failures=found + broken)
    missed = [] if found or broken else [{"reason": f"no witness found: {missing}"}]
    return TheoremReport(
        name=name, kind=kind.value, seed=seed, trials=trials, mode="expect-witness",
        failures=broken + missed, witnesses=found,
    )


class Check(Frozen):
    """A sampled row.  ``check(arg, rng)`` returns a failure, or a witness
    when ``missing`` is set (expect-witness: it says what finding none means).
    ``budget``, when given, turns the --trials value into the row's trial
    count (the --trials value itself otherwise), which must be at least one:
    a report that checked nothing cannot fail."""

    __slots__ = ("name", "kinds", "check", "budget", "missing")
    _optional = ("budget", "missing")

    def outcomes(self, arg, n: int, seed: int) -> Iterator[Optional[dict]]:
        return (self.check(arg, trial_rng(seed, i)) for i in range(n))

    def report(self, kind: AlgebraKind, arg, trials: int, seed: int) -> TheoremReport:
        n = trials if self.budget is None else self.budget(trials)
        if n < 1:
            raise ValueError(f"{self.name}: {trials} trials give {n}, and a report needs one")
        return _stopwatch(lambda: outcome_report(
            self.name, kind, seed, n, self.outcomes(arg, n, seed), self.missing))


class Scan(Check):
    """A row whose ``check(arg, n, seed)`` yields the outcomes itself: a
    basis scan, or a search that derives its own seeds.  ``check`` is a
    generator function, so nothing runs before the report draws the stream."""

    __slots__ = ()
    _fields = Check._fields

    def outcomes(self, arg, n: int, seed: int) -> Iterator[Optional[dict]]:
        return self.check(arg, n, seed)


class Build(Frozen):
    """A row whose report ``build(arg, trials, seed)`` makes whole, apart
    from its ``elapsed_ms``."""

    __slots__ = ("kinds", "build")

    def report(self, kind: AlgebraKind, arg, trials: int, seed: int) -> TheoremReport:
        return _stopwatch(lambda: self.build(arg, trials, seed))


def reports_to_json(reports: list[TheoremReport]) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2) + "\n"
