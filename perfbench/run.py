"""Benchmark of the okuboplane verifier.

    python3 perfbench/run.py --workload {identities,desargues,geometry} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that has ``src/okuboplane``; the package
is measured from that source tree.  Closed loop, one client, one process at a
time: every measurement runs in a fresh interpreter started by this script.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of fresh
interpreters spread over the run), and ``wall_s``, ``checks_per_s`` and
``peak_rss_mb`` from three workers that each run a warm-up pass and then
timed passes over the run's input sets, for a third of ``--seconds`` each;
every input set counts with its median pass.  Timings are corrected for the
share of the core the host gave the process (see ``worker.REFERENCE_S``).
``--trace 1`` prints the per-layer metrics: half of ``--seconds`` untraced,
half with the span tracer, then one cycle over the input sets counting
scalar operations, each in its own process; the three must produce
byte-identical reports.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is 0 when the result
was measured (correct or not), 2 when the run could not measure the program.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from worker import INPUT_SETS, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
CHUNKS = 3
SETUP_PER_GAP = 3
# a run must end within 180 s; workers share what is left of this budget
RUN_BUDGET_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "checks_per_s": "1/s", "peak_rss_mb": "MB"}


class MeasurementError(RuntimeError):
    """A worker process failed; nothing was measured."""


def _worker(deadline: float, *args: str) -> dict:
    # imports read cached bytecode, as from an installed package, whatever
    # the caller's environment says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=HERE.parent, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise MeasurementError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(deadline: float, workload: str, seed: int, seconds: float, instrument: str) -> dict:
    return _worker(deadline, "passes", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--instrument", instrument)


def _setup_samples(deadline: float, count: int) -> list[dict]:
    return [_worker(deadline, "setup") for _ in range(count)]


def per_set_medians(runs: list[dict], key: str) -> list[float]:
    """The median pass time of each input set, over all the worker processes."""
    return [statistics.median(itertools.chain(*times))
            for times in zip(*(r[key] for r in runs), strict=True)]


def end_to_end(deadline: float, workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    _worker(deadline, "setup")  # untimed: leaves the bytecode cache as later runs see it
    # The timed passes are split over CHUNKS worker processes, with set-up
    # samples before, between and after them, so that neither a slow spell
    # of the host nor one process's memory layout decides a figure alone.
    setup: list[dict] = []
    runs = []
    for _ in range(CHUNKS):
        setup += _setup_samples(deadline, SETUP_PER_GAP)
        runs.append(_passes(deadline, workload, seed, seconds / CHUNKS, "none"))
    setup += _setup_samples(deadline, SETUP_PER_GAP)
    times = per_set_medians(runs, "times")
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_s": statistics.fmean(times),
        "checks_per_s": sum(runs[0]["checks"]) / sum(times),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    print(f"# {workload} seed={seed}: {sum(r['passes'] for r in runs)} timed passes over "
          f"{INPUT_SETS} input sets in {CHUNKS} processes, each after one warm-up; "
          f"{len(setup)} set-up samples; digest {runs[0]['digest']}")
    print(f"# uncorrected: setup_s {statistics.median(s['raw_s'] for s in setup):.4f}, "
          f"wall_s {statistics.fmean(per_set_medians(runs, 'raw')):.4f}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, runs


def per_layer(deadline: float, workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    untraced = _passes(deadline, workload, seed, seconds / 2, "none")
    traced = _passes(deadline, workload, seed, seconds / 2, "spans")
    counted = _passes(deadline, workload, seed, seconds, "scalars")
    values = {**traced["layers"], **counted["layers"]}
    untraced_wall = untraced["wall_s"]
    traced_wall = traced["wall_s"]
    values["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    print(f"# {workload} seed={seed}: untraced wall_s {untraced_wall:.4f} over "
          f"{untraced['passes']} passes, traced {traced_wall:.4f} over "
          f"{traced['passes']}, tracing overhead {values['trace.overhead_pct']:+.2f}%")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, [untraced, traced, counted]


def count_failures(runs: list[dict]) -> tuple[int, int]:
    """Reports attempted and failed over all worker processes of one run.

    Processes traced, counted or not must agree on every report byte: all
    reports of a process whose digest differs from the first one's fail.
    """
    reference = runs[0]["digest"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] if r["digest"] == reference else r["attempted"] for r in runs)
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if sys.flags.optimize:
        print("run.py: refusing to run under -O: it strips the package's assert "
              "postconditions, so a different program would be measured", file=sys.stderr)
        return 2
    if not (SRC / "okuboplane" / "cli.py").is_file():
        print(f"run.py: no okuboplane source at {SRC}", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        metrics, runs = measure(deadline, args.workload, args.seed, args.seconds)
    except (MeasurementError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    attempted, failed = count_failures(runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
