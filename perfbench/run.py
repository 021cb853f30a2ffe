"""fibpoly benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload word-scan --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; fibpoly is imported from its ``src``.
With ``--trace 0`` it first times set-up in fresh interpreters (the median
is setup_s), then runs the workload untraced in one more interpreter and
prints the end-to-end metrics.  With ``--trace 1`` the workload also runs a
traced section and the per-layer metrics are printed instead.  Metric names
and units come from BENCHMARK.json.  The last line of standard output is
the JSON result; it is printed only when every step ran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
# Fresh interpreters timed for setup_s before and after the workload, after
# one untimed warm-up; the machine's speed drifts, so they straddle the run.
SETUP_SAMPLES = 10
DEADLINE_S = 170


class BenchError(Exception):
    pass


def spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it reported ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", str(WORKER), str(ROOT), *args],
                            stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if ready != "ready\n":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {ready!r}")
    return proc, elapsed


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def time_setups(count: int, deadline: float) -> list[float]:
    samples = []
    for _ in range(count):
        proc, elapsed = spawn(["setup"])
        finish(proc, deadline)
        samples.append(elapsed)
    return samples


def measure(args, deadline: float) -> dict:
    setups = []
    if not args.trace:
        setups = time_setups(1 + SETUP_SAMPLES // 2, deadline)[1:]
    proc, elapsed = spawn(["run", args.workload, str(args.seed), str(args.seconds),
                           str(args.trace)])
    setups.append(elapsed)
    *lines, last = finish(proc, deadline).splitlines()
    if not args.trace:
        setups += time_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2, deadline)
    for line in lines:
        print(line)
    summary = json.loads(last)
    summary["setup_s"] = statistics.median(setups)
    summary["setup_samples"] = len(setups)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fibpoly" / "__init__.py").is_file():
        print(f"no fibpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        summary = measure(args, time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    values = summary.get("layers", summary)
    for problem in summary["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"decks: {summary['decks']}, ops: {summary['attempted']}, failed: {summary['failed']}")
    if not args.trace:
        print(f"latencies are each request's median over {summary['decks']} decks; "
              f"op_tail_ms is p{summary['tail_percentile']:.1f} over "
              f"{summary['attempted'] // summary['decks']} requests, "
              f"{summary['tail_beyond']} beyond it; "
              f"setup_s is the median of {summary['setup_samples']} interpreters")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:>32} {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
