"""One measuring process of the okuboplane benchmark.

``run.py`` starts this script in a fresh interpreter for every measurement,
so set-up, untraced passes, traced passes and scalar counting never share a
process.  It drives the package only through ``okuboplane.cli.main`` and
prints one JSON object on its last line of standard output.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py passes --workload W --seed N --seconds S \
        --instrument {none,spans,scalars}
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]
    trials: int
    # SHA-256 over the digests of the INPUT_SETS passes at DEFAULT_SEED, in
    # order, elapsed_ms stripped: the byte-identity contract of the reports.
    digest: str


# Together the three workloads run exactly the suites of `okuboplane all`.
WORKLOADS = {
    "identities": Workload(
        ("identities",), 8,
        "740c64f82129189769681ad4b33ff0b3a86bb7322af102e9c10f37feb244843c",
    ),
    "desargues": Workload(
        ("desargues",), 1,
        "5e643ab73fe38c55077071def563d06aaa0452d239c3395f63a7ae7345d54ba8",
    ),
    "geometry": Workload(
        ("plane-axioms", "veronese", "collineations", "isometry", "ptr", "g2"), 3,
        "8eea400634ff72b5e0b1d4d88a28ec7501e14e84703507bbe42eb2799cd0a244",
    ),
}
DEFAULT_SEED = 0
# A run cycles over this many input sets drawn from its seed, so that its
# figures average over many inputs instead of repeating one draw.
INPUT_SETS = 20


def input_seeds(seed: int) -> list[int]:
    """The package seeds of the input sets of a run: distinct for distinct
    run seeds, and the first one is the run seed itself."""
    return [seed * 1000 + j for j in range(INPUT_SETS)]


@dataclass
class Pass:
    wall_s: float
    reports: list[dict]

    @property
    def checks(self) -> int:
        """Trials behind the reports that assert a property on every trial."""
        return sum(r["trials"] for r in self.reports if r["mode"] == "expect-pass")

    @property
    def digest(self) -> str:
        stripped = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in self.reports]
        blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(workload: Workload, seed: int, trials: int) -> Pass:
    """Run each command of the workload once through the CLI entry point."""
    from okuboplane.cli import main

    wall = 0.0
    reports: list[dict] = []
    for command in workload.commands:
        argv = [command, "--kind", "all", "--seed", str(seed),
                "--trials", str(trials), "--format", "json"]
        out = io.StringIO()
        with redirect_stdout(out):
            start = perf_counter()
            main(argv)
            wall += perf_counter() - start
        reports.extend(json.loads(out.getvalue()))
    return Pass(wall, reports)


def failed_reports(result: Pass, expected_digest: str | None) -> int:
    """Reports whose verdict is not pass; every report of the pass when its
    digest differs from the expected one."""
    if expected_digest is not None and result.digest != expected_digest:
        return len(result.reports)
    return sum(r["verdict"] != "pass" for r in result.reports)


def cycle_digest(passes: list[Pass]) -> str:
    """One digest for the passes over a run's input sets, in order."""
    return hashlib.sha256("".join(p.digest for p in passes).encode()).hexdigest()


def expected_digest(workload: Workload, seed: int) -> str | None:
    return workload.digest if seed == DEFAULT_SEED else None


# The host shares its cores with other tenants and gives this process
# anywhere from all to about half of one, in spells of seconds to minutes,
# without reporting stolen time.  Every timing is therefore corrected by how
# fast a fixed reference loop ran right around it: REFERENCE_S is that loop's
# time on an uncontended core of the machine the benchmark was written on
# (2-vCPU Xeon VM, CPython 3.11.7).
REFERENCE_S = 0.85e-3
REFERENCE_SAMPLES = 4


def reference_s() -> float:
    """Time of one call of a fixed pure-Python loop that uses nothing of the
    package: big-integer arithmetic, tuples and a dict."""
    start = perf_counter()
    a, b, acc = 3**60 + 7, 5**40 + 11, 0
    rows = {}
    for i in range(2000):
        x = (a * (i + 1)) % b
        rows[i & 63] = (x, x >> 7)
        acc += sum(rows[i & 63]) & 1023
    return perf_counter() - start


def reference_time() -> float:
    """Mean time of the reference loop over a few calls, now."""
    return statistics.fmean(reference_s() for _ in range(REFERENCE_SAMPLES))


def corrected(wall_s: float, before: float, after: float) -> float:
    """A wall time rescaled to an uncontended core, by the reference times
    taken just before and just after it."""
    return wall_s * REFERENCE_S / ((before + after) / 2)


def measure_setup() -> dict:
    """Import the package and derive its lazily built tables, in this fresh
    interpreter."""
    before = reference_time()
    start = perf_counter()
    import okuboplane  # noqa: F401
    from okuboplane.algebra import AlgebraKind, gram, structure_table, trivolution_basis_images

    for kind in AlgebraKind:
        structure_table(kind)
    gram()
    trivolution_basis_images()
    raw = perf_counter() - start
    return {"setup_s": corrected(raw, before, reference_time()), "raw_s": raw}


def _instrumented_pass(workload: Workload, seed: int, tool) -> tuple[Pass, dict]:
    if tool is None:
        return run_pass(workload, seed, workload.trials), {}
    tool.install()
    try:
        result = run_pass(workload, seed, workload.trials)
    finally:
        tool.uninstall()
    return result, tool.metrics()


def measure_passes(name: str, seed: int, seconds: float, instrument: str) -> dict:
    """A warm-up pass, then passes cycling over the run's input sets until
    ``seconds`` have been measured, or exactly one cycle when counting scalar
    operations (the counts are exact).  The first cycle is always whole.

    Each pass's wall time is also corrected to an uncontended core by the
    reference loop run before and after it.  ``wall_s`` is the mean over the
    input sets of each one's median corrected pass: the mean averages out how
    much work a draw of inputs takes.

    Every pass goes through the correctness gate: its digest must equal that
    of the first pass over the same inputs (the warm-up, for the first set),
    and at the default seed the digest of the first cycle must equal the
    recorded one.
    """
    from tracer import ScalarCounter, SpanTracer

    tool_class = {"none": None, "spans": SpanTracer, "scalars": ScalarCounter}[instrument]
    workload = WORKLOADS[name]
    seeds = input_seeds(seed)
    warmup = run_pass(workload, seeds[0], workload.trials)
    visits: list[list[Pass]] = [[] for _ in seeds]
    times: list[list[float]] = [[] for _ in seeds]
    layers = []
    started = perf_counter()
    count = 0
    before = reference_time()
    while count < len(seeds) or (instrument != "scalars" and perf_counter() - started < seconds):
        j = count % len(seeds)
        result, metrics = _instrumented_pass(workload, seeds[j], tool_class and tool_class())
        after = reference_time()
        visits[j].append(result)
        times[j].append(corrected(result.wall_s, before, after))
        layers.append(metrics)
        before = after
        count += 1
    references = [warmup.digest] + [v[0].digest for v in visits[1:]]
    failed = failed_reports(warmup, references[0]) + sum(
        failed_reports(p, ref) for ref, v in zip(references, visits) for p in v)
    attempted = len(warmup.reports) + sum(len(p.reports) for v in visits for p in v)
    digest = cycle_digest([v[0] for v in visits])
    expected = expected_digest(workload, seed)
    if expected is not None and digest != expected:
        failed = attempted
    return {
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
        "passes": count,
        "times": times,
        "raw": [[p.wall_s for p in v] for v in visits],
        "checks": [v[0].checks for v in visits],
        "wall_s": statistics.fmean(statistics.median(t) for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": {key: statistics.median(m[key] for m in layers) for key in layers[0]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    timed = sub.add_parser("passes")
    timed.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    timed.add_argument("--seed", type=int, required=True)
    timed.add_argument("--seconds", type=float, required=True)
    timed.add_argument("--instrument", choices=("none", "spans", "scalars"), required=True)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("worker: refusing to run under -O, which strips the package's postconditions",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.mode == "setup":
        result = measure_setup()
    else:
        result = measure_passes(args.workload, args.seed, args.seconds, args.instrument)
    import okuboplane

    if Path(okuboplane.__file__).resolve().parent != SRC / "okuboplane":
        print(f"worker: measured okuboplane from {okuboplane.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
