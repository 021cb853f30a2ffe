"""Runs one workload's deck in a closed loop with one client and measures it.

Every operation calls ``cli.main(argv)`` (or a series library function)
in this process, with stdout sent to a sink that counts characters.  Whole
decks repeat until the summed operation time is nearest the requested
seconds.  Each operation starts on a freshly collected heap, as it would in
a fresh CLI process; the collection runs outside the timed region.  On the
first deck the sink also keeps the text, and each output is checked right
after its operation, outside the timed region; later decks must reproduce
the exit code and output size of the first.

The machine's speed drifts by tens of percent over seconds, so the figures
are taken over each request's median latency across the decks of a run:
a slow phase then moves a request's median only if it covers most of the
request's repeats.

Untraced decks give the end-to-end figures.  With tracing on, an untraced
and a traced section share the run's seconds; the traced spans give the
per-layer figures, and the two sections' throughputs give the tracing
overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import facts
from tracing import Tracer, layer_metrics
from workloads import Op, build_deck

# The op_tail_ms percentile leaves this many requests of the deck above it.
TAIL_BEYOND = 10


class CountingSink:
    """Stands in for stdout: counts the characters written (ASCII, so bytes)."""

    def __init__(self):
        self.count = 0

    def write(self, text: str) -> int:
        self.count += len(text)
        return len(text)

    def flush(self) -> None:
        pass


class CapturingSink(CountingSink):
    """Counts like CountingSink and keeps the text for checking."""

    def __init__(self):
        super().__init__()
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.count += len(text)
        self.parts.append(text)
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class Section:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    stdout_bytes: int = 0
    decks: int = 0

    def request_medians(self) -> list[float]:
        """Each deck entry's median latency over the decks of this section."""
        size = len(self.latencies) // self.decks
        return [statistics.median(self.latencies[i::size]) for i in range(size)]

    @property
    def ops_per_s(self) -> float:
        medians = self.request_medians()
        return len(medians) / sum(medians)


class Runner:
    def __init__(self, fibpoly, cli, deck: list[Op]):
        self.fibpoly, self.cli, self.deck = fibpoly, cli, deck
        self.reference: list[tuple | None] = [None] * len(deck)
        self.status: list[str] = [""] * len(deck)
        self.problems: list[str] = []
        self.asi: dict = {}

    def call(self, op: Op, out, err, tracer: Tracer | None):
        """One timed operation; returns (seconds, exit code, exception name, result)."""
        argv = op.argv if op.kind != "lib" else None
        code = exc_type = result = None
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        root = tracer.open(f"op.{op.kind}") if tracer else None
        start = time.perf_counter()
        try:
            if argv is None:
                result = getattr(self.fibpoly.series, f"series_{op.sub}_dp")(op.p, op.n)
                code = 0
            else:
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            exc_type = type(exc).__name__
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        sys.stdout, sys.stderr = saved
        return seconds, code, exc_type, result

    def classify(self, i: int, code, exc_type, out, err, result) -> str:
        """Check the first run of deck entry i; later runs must repeat its outcome."""
        op = self.deck[i]
        signature = (code, exc_type, out.count, len(result.terms) if result is not None else None)
        if self.reference[i] is not None:
            if signature != self.reference[i]:
                self.problems.append(f"{op.label()}: outcome {signature} differs from "
                                     f"the first deck's {self.reference[i]}")
                return "failed"
            return self.status[i]
        self.reference[i] = signature
        if exc_type or code != 0:
            if checks.matches_defect(op, code, exc_type, err.text()):
                status = "defect"
            else:
                status = "failed"
                cause = exc_type or f"exit {code}: {err.text().strip()[:200]}"
                self.problems.append(f"{op.label()}: {cause}")
        else:
            reason = checks.check_output(op, out.text(), result, self.asi)
            status = "ok" if reason is None else "failed"
            if reason:
                self.problems.append(f"{op.label()}: {reason}")
        self.status[i] = status
        return status

    def section(self, seconds: float, tracer: Tracer | None = None) -> Section:
        sec = Section()
        while True:
            for i, op in enumerate(self.deck):
                out = CapturingSink() if self.reference[i] is None else CountingSink()
                err = CapturingSink()
                gc.collect()
                elapsed, code, exc_type, result = self.call(op, out, err, tracer)
                sec.latencies.append(elapsed)
                sec.stdout_bytes += out.count
                sec.failed += self.classify(i, code, exc_type, out, err, result) != "ok"
                del out, err, result
            if self.asi:
                self.problems += checks.check_asi_identity(self.asi)
                self.asi = {}
            sec.decks += 1
            # Stop at the deck boundary nearest to the requested seconds.
            spent = sum(sec.latencies)
            if spent + spent / sec.decks / 2 >= seconds:
                return sec


def tail(medians: list[float]) -> tuple[float, float]:
    """The highest percentile of the request medians with TAIL_BEYOND above it."""
    ordered = sorted(medians)
    return ordered[-TAIL_BEYOND - 1], 100 * (1 - TAIL_BEYOND / len(ordered))


def run(root: str, fibpoly, cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    src = Path(root, "src").resolve()
    where = Path(fibpoly.__file__).resolve()
    print(f"fibpoly imported from {where}")
    if src not in where.parents:
        raise SystemExit(f"fibpoly resolved outside {src}: {where}")

    deck = build_deck(workload, seed)
    runner = Runner(fibpoly, cli, deck)
    defects = Counter(op.defect for op in deck if op.defect)
    print(f"{workload}, seed {seed}: {len(deck)} ops per deck "
          f"({', '.join(f'{k} {v}' for k, v in sorted(Counter(op.kind for op in deck).items()))}); "
          f"predicted defects: {dict(defects) or 'none'}")

    plain = runner.section(seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = plain.request_medians()
    tail_ms, tail_pct = tail(medians)
    summary = {
        "correct": not runner.problems,
        "problems": runner.problems,
        "attempted": len(plain.latencies),
        "failed": plain.failed,
        "decks": plain.decks,
        "ops_per_s": plain.ops_per_s,
        "op_p50_ms": 1000 * statistics.median(medians),
        "op_tail_ms": 1000 * tail_ms,
        "tail_percentile": tail_pct,
        "tail_beyond": TAIL_BEYOND,
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": plain.failed / len(plain.latencies),
    }

    if trace:
        tracer = Tracer()
        tracer.install(fibpoly)
        traced = runner.section(seconds / 2, tracer)
        # verify checks every word of length 1 .. nmax
        verified = traced.decks * sum(
            facts.words_through(op.p, op.n) - 1 for op in deck if op.kind == "verify")
        layers, shares = layer_metrics(tracer, traced.decks, verified, traced.stdout_bytes)
        layers["trace.untraced_ops_per_s"] = plain.ops_per_s
        layers["trace.traced_ops_per_s"] = traced.ops_per_s
        layers["trace.traced_over_untraced"] = traced.ops_per_s / plain.ops_per_s
        spans_path = Path(root, ".bench_out", f"spans-{workload}-seed{seed}.tsv.gz")
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path}")
        print("largest shares of self time: " + ", ".join(
            f"{name} {share:.1%}" for share, name in shares[:6]))
        summary.update(
            correct=not runner.problems,
            attempted=summary["attempted"] + len(traced.latencies),
            failed=summary["failed"] + traced.failed,
            layers=layers,
        )
    return summary
