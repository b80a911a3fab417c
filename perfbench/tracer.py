"""Outside-in tracing of okuboplane: spans and counters recorded by wrapping
the package's public functions from outside, without editing its source.

Every module of the package that imported a wrapped function under any name
(``from .algebra import mul`` in plane, collineation, theorems, suites, ...)
gets the wrapper rebound in its namespace, so calls from every layer are seen.
``uninstall`` puts every original binding back.

Two instruments, each run in its own process by the benchmark:

* ``SpanTracer`` times the layers from ``algebra`` up (mul/norm/polar, plane,
  collineation, theorems, suites, report).  Its wrappers cost a few
  microseconds on calls that take hundreds, so self times stay honest.
* ``ScalarCounter`` counts ``QSqrt3`` operations and the largest bit length of
  their results.  Wrapping every scalar operation slows a pass by about 40%,
  so it only counts and is never combined with the span timings.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    ("scalar.mul.calls", "count"),
    ("scalar.add.calls", "count"),
    ("scalar.inv.calls", "count"),
    ("scalar.max_bits", "bits"),
    ("algebra.mul.okubo.calls", "count"),
    ("algebra.mul.okubo.self_s", "s"),
    ("algebra.mul.para.calls", "count"),
    ("algebra.mul.para.self_s", "s"),
    ("algebra.mul.octonion.calls", "count"),
    ("algebra.mul.octonion.self_s", "s"),
    ("algebra.mul.us_per_call", "us"),
    ("algebra.norm.calls", "count"),
    ("algebra.norm.self_s", "s"),
    ("algebra.polar.calls", "count"),
    ("algebra.polar.self_s", "s"),
    ("algebra.solve.calls", "count"),
    ("algebra.solve.incl_s", "s"),
    ("plane.join.calls", "count"),
    ("plane.join.incl_s", "s"),
    ("plane.join.self_s", "s"),
    ("plane.meet.calls", "count"),
    ("plane.meet.incl_s", "s"),
    ("plane.meet.self_s", "s"),
    ("plane.incident.calls", "count"),
    ("plane.incident.incl_s", "s"),
    ("plane.incident.self_s", "s"),
    ("plane.veronese.calls", "count"),
    ("plane.veronese.incl_s", "s"),
    ("plane.join_meet.raised", "count"),
    ("collineation.apply.calls", "count"),
    ("collineation.apply.incl_s", "s"),
    ("collineation.g2.incl_s", "s"),
    ("theorems.config.calls", "count"),
    ("theorems.config_ms.p50", "ms"),
    ("theorems.config_ms.p90", "ms"),
    ("theorems.falsify.incl_s", "s"),
    ("theorems.build_attempts_per_config", "ratio"),
    ("suites.identities_s", "s"),
    ("suites.plane-axioms_s", "s"),
    ("suites.veronese_s", "s"),
    ("suites.collineations_s", "s"),
    ("suites.isometry_s", "s"),
    ("suites.desargues_s", "s"),
    ("suites.ptr_s", "s"),
    ("suites.g2_s", "s"),
    ("report.render_s", "s"),
    ("trace.overhead_pct", "%"),
)

KINDS = ("okubo", "para", "octonion")


class Rebinder:
    """Replaces objects inside okuboplane and remembers how to put them back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def everywhere(self, original: object, replacement: object) -> None:
        """Rebind ``original`` under every name any okuboplane module gives it."""
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def attribute(self, owner: type, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def item(self, mapping: dict, key: str, replacement: object) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if name == "okuboplane" or name.startswith("okuboplane.")
    ]


def _collineation_classes(base: type) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class SpanTracer:
    """Calls, inclusive time and self time per span name.

    Self time is a span's duration minus the time its child spans cover.
    Inclusive time of a name nested inside itself (a composite collineation
    applying its steps) is counted once, at the outermost call.
    """

    def __init__(self) -> None:
        self._rebinder = Rebinder()
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_time: Counter = Counter()
        self.raised = 0
        self.config_ms: list[float] = []
        self.build_attempts = 0
        self.configs_built = 0
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._open_config: float | None = None

    def _span(self, fn, name, raises=(), after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the
        call's arguments; exceptions in ``raises`` are counted as they pass."""

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [0.0]
            self._stack.append(frame)
            self._depth[span] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except raises:
                self.raised += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._depth[span] -= 1
                self.calls[span] += 1
                self.self_time[span] += elapsed - frame[0]
                if not self._depth[span]:
                    self.incl[span] += elapsed
                if self._stack:
                    self._stack[-1][0] += elapsed
                if after is not None:
                    after(elapsed)

        return wrapper

    def _config_started(self, elapsed: float) -> None:
        self._close_config()
        self._open_config = elapsed
        self.configs_built += 1

    def _config_continued(self, elapsed: float) -> None:
        if self._open_config is not None:
            self._open_config += elapsed

    def _close_config(self) -> None:
        if self._open_config is not None:
            self.config_ms.append(self._open_config * 1000.0)
            self._open_config = None

    def _inside_build(self) -> bool:
        return bool(self._depth["theorems.build"] or self._depth["theorems.falsify"])

    def install(self) -> None:
        from okuboplane import algebra, cli, collineation, plane, report, suites, theorems
        from okuboplane.plane import EqualLines, EqualPoints

        bind = self._rebinder.everywhere
        bind(algebra.mul, self._span(algebra.mul, lambda args: f"algebra.mul.{args[0].value}"))
        bind(algebra.norm, self._span(algebra.norm, "algebra.norm"))
        bind(algebra.polar, self._span(algebra.polar, "algebra.polar"))
        bind(algebra.solve_left, self._span(algebra.solve_left, "algebra.solve"))
        bind(algebra.solve_right, self._span(algebra.solve_right, "algebra.solve"))

        attr = self._rebinder.attribute
        Plane = plane.Plane
        for method in ("join", "meet"):
            fn = Plane.__dict__[method]
            attr(Plane, method, self._span(fn, f"plane.{method}", raises=(EqualPoints, EqualLines)))
        attr(Plane, "incident", self._span(Plane.__dict__["incident"], "plane.incident"))
        for method in ("point_to_veronese", "line_to_veronese", "is_veronese", "normalize_veronese"):
            attr(Plane, method, self._span(Plane.__dict__[method], "plane.veronese"))
        bind(plane.beta, self._span(plane.beta, "plane.veronese"))

        for cls in _collineation_classes(collineation.Collineation):
            for method in ("apply_point", "apply_line"):
                if method in cls.__dict__:
                    attr(cls, method, self._span(cls.__dict__[method], "collineation.apply"))
        bind(collineation.g2_triple_check,
             self._span(collineation.g2_triple_check, "collineation.g2"))

        bind(theorems.little_desargues_build, self._span(
            theorems.little_desargues_build, "theorems.build", after=self._config_started))
        for fn, span in ((theorems.config_incidences, "theorems.incidences"),
                         (theorems.little_desargues_verify, "theorems.verify")):
            bind(fn, self._span(fn, span, after=self._config_continued))
        bind(theorems.desargues_falsify, self._span(theorems.desargues_falsify, "theorems.falsify"))
        bind(theorems.desargues_l1, self._count_falsify_configs(theorems.desargues_l1))
        # _build_config draws one rng per attempt; public seam for the retry count
        bind(algebra.trial_rng, self._count_build_attempts(algebra.trial_rng))

        for command in list(suites.SUITES):
            fn = suites.SUITES[command]
            wrapped = self._span(fn, f"suites.{command}")
            self._rebinder.item(suites.SUITES, command, wrapped)
            bind(fn, wrapped)

        bind(report.reports_to_json, self._span(report.reports_to_json, "report.render"))
        if hasattr(cli, "_write"):
            bind(cli._write, self._span(cli._write, "report.render"))

    def _count_falsify_configs(self, fn):
        def wrapper(*args, **kwargs):
            if self._depth["theorems.falsify"]:
                self.configs_built += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_build_attempts(self, fn):
        def wrapper(*args, **kwargs):
            if self._inside_build():
                self.build_attempts += 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        self._rebinder.restore()

    def metrics(self) -> dict[str, float]:
        """Per-layer values for everything recorded so far."""
        self._close_config()
        calls, incl, self_time = self.calls, self.incl, self.self_time
        out: dict[str, float] = {}
        mul_calls = mul_self = 0.0
        for kind in KINDS:
            span = f"algebra.mul.{kind}"
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_time[span]
            mul_calls += calls[span]
            mul_self += self_time[span]
        out["algebra.mul.us_per_call"] = mul_self / mul_calls * 1e6 if mul_calls else 0.0
        for span in ("algebra.norm", "algebra.polar"):
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_time[span]
        out["algebra.solve.calls"] = calls["algebra.solve"]
        out["algebra.solve.incl_s"] = incl["algebra.solve"]
        for span in ("plane.join", "plane.meet", "plane.incident"):
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.incl_s"] = incl[span]
            out[f"{span}.self_s"] = self_time[span]
        out["plane.veronese.calls"] = calls["plane.veronese"]
        out["plane.veronese.incl_s"] = incl["plane.veronese"]
        out["plane.join_meet.raised"] = self.raised
        out["collineation.apply.calls"] = calls["collineation.apply"]
        out["collineation.apply.incl_s"] = incl["collineation.apply"]
        out["collineation.g2.incl_s"] = incl["collineation.g2"]
        out["theorems.config.calls"] = len(self.config_ms)
        out["theorems.config_ms.p50"] = _percentile(self.config_ms, 50)
        out["theorems.config_ms.p90"] = _percentile(self.config_ms, 90)
        out["theorems.falsify.incl_s"] = incl["theorems.falsify"]
        out["theorems.build_attempts_per_config"] = (
            self.build_attempts / self.configs_built if self.configs_built else 0.0
        )
        for name, _ in PER_LAYER:
            if name.startswith("suites."):
                out[name] = incl[name[: -len("_s")]]
        out["report.render_s"] = incl["report.render"]
        return out


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class ScalarCounter:
    """Counts QSqrt3 multiplies, adds (add plus sub) and inverses, and the
    largest bit length of p, q or d over their results."""

    def __init__(self) -> None:
        self._rebinder = Rebinder()
        self.counts: Counter = Counter()
        self.max_bits = 0

    def _counted(self, fn, key):
        def wrapper(*args):
            out = fn(*args)
            self.counts[key] += 1
            bits = max(out.p.bit_length(), out.q.bit_length(), out.d.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits
            return out

        return wrapper

    def install(self) -> None:
        from okuboplane.scalar import QSqrt3

        for method, key in (("__mul__", "mul"), ("__add__", "add"), ("__sub__", "add"), ("inv", "inv")):
            self._rebinder.attribute(QSqrt3, method, self._counted(QSqrt3.__dict__[method], key))

    def uninstall(self) -> None:
        self._rebinder.restore()

    def metrics(self) -> dict[str, float]:
        return {
            "scalar.mul.calls": self.counts["mul"],
            "scalar.add.calls": self.counts["add"],
            "scalar.inv.calls": self.counts["inv"],
            "scalar.max_bits": self.max_bits,
        }
