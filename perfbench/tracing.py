"""Spans around fibpoly's public functions, installed from outside.

``Tracer.install`` replaces each public function of each fibpoly module,
in every module namespace that binds it, by a wrapper that records a span
(name, start, end, parent) in memory.  Three ``TruncatedSeries`` methods
are wrapped too.  Per-element helpers are left alone, because a span
around each would cost more than the helper; their time shows as self
time of their caller.  Generator functions are left alone because their
body runs outside the call.  Counters ride on the same wrappers so that
ratios are taken where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
import time
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate

# Called once per word or per digit.
SKIP = {"validate_alphabet", "is_valid_word", "successor_digits", "successors",
        "area", "semiperimeter", "inner_points", "parts_set", "entry"}
METHODS = {"series": ("TruncatedSeries.__mul__", "TruncatedSeries.to_text",
                      "TruncatedSeries.to_json_terms")}


def _is_univariate(gf) -> bool:
    return all(not (m.y or m.z or m.q) for part in (gf.numerator, gf.denominator) for m in part)


def _count_words_built(counts, args, result, seconds):
    counts["words.words_built"] += len(result)


def _count_transfer(counts, args, result, seconds):
    counts["series.transfer_terms"] += len(result.terms)


def _count_expand(counts, args, result, seconds):
    counts["series.expand_terms"] += len(result.terms)
    if _is_univariate(args[0]):
        counts["series.univariate_s"] += seconds


def _count_univariate(counts, args, result, seconds):
    counts["series.univariate_s"] += seconds


def _count_mul(counts, args, result, seconds):
    """Pairs tried by TruncatedSeries.__mul__, and the pairs within the x-bound."""
    left, right = args[0], args[1]
    bound = left.x_bound
    counts["series.mul_pairs"] += len(left.terms) * len(right.terms)
    right_x = Counter(m.x for m in right.terms)
    degrees = sorted(right_x)
    below = list(accumulate(right_x[d] for d in degrees))
    for x, k in Counter(m.x for m in left.terms).items():
        i = bisect_right(degrees, bound - x)
        if i:
            counts["series.mul_kept"] += k * below[i - 1]


COUNTERS = {
    "words.enumerate_words": _count_words_built,
    "series.series_F_dp": _count_transfer,
    "series.series_G_dp": _count_transfer,
    "series.expand_rational": _count_expand,
    "series.area_count_sequence": _count_univariate,
    "series.TruncatedSeries.__mul__": _count_mul,
}


class Tracer:
    """Spans and counters of one traced section, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; return its index."""
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        return index

    def close(self, index: int) -> float:
        """End the innermost open span; return its duration."""
        end = time.perf_counter()
        self.stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        return end - start

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.close(index)
            if count is not None:
                count(self.counts, args, result, seconds)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap fibpoly's public functions and the listed methods, everywhere they are bound."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in SKIP
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for path in METHODS.get(short, ()):
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(f"{short}.{path}", getattr(cls, method)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def write(self, path) -> None:
        """Write the spans as gzip-compressed TSV: index, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def times(self):
        """Inclusive seconds, self seconds and calls, by span name."""
        inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - children[i]
            calls[name] += 1
        return inclusive, own, calls


def layer_metrics(tracer: Tracer, decks: int, words_verified: int, stdout_bytes: int):
    """Per-layer metrics, per deck, and the self-time shares by span name."""
    inclusive, own, calls = tracer.times()
    counts = tracer.counts
    program_self = {k: v for k, v in own.items() if not k.startswith("op.")}
    total_self = sum(program_self.values()) or 1.0
    shares = sorted(((v / total_self, k) for k, v in program_self.items()), reverse=True)

    def per_deck(value):
        return value / decks

    bijections = [k for k in calls if k.startswith("bijections.")]
    metrics = {
        "words.enumerate_s": per_deck(inclusive["words.enumerate_words"]),
        "words.words_built": per_deck(counts["words.words_built"]),
        "words.count_s": per_deck(inclusive["words.count_words"]),
        "geometry.pick_report_calls": per_deck(calls["geometry.pick_report"]),
        "geometry.pick_report_s": per_deck(inclusive["geometry.pick_report"]),
        "geometry.aggregate_s": per_deck(inclusive["geometry.aggregate_stats"]),
        "oracle.lattice_stats_calls": per_deck(calls["oracle.lattice_stats"]),
        "oracle.lattice_stats_s": per_deck(inclusive["oracle.lattice_stats"]),
        "oracle.lattice_per_word": calls["oracle.lattice_stats"] / words_verified
        if words_verified else 0.0,
        "oracle.lattice_stats_self_share": program_self.get("oracle.lattice_stats", 0.0)
        / total_self,
        "oracle.brute_series_s": per_deck(inclusive["oracle.brute_force_generating_series"]),
        "oracle.area_search_s": per_deck(inclusive["oracle.brute_force_area_distribution"]),
        "series.transfer_s": per_deck(inclusive["series.series_F_dp"]
                                      + inclusive["series.series_G_dp"]),
        "series.transfer_terms": per_deck(counts["series.transfer_terms"]),
        "series.expand_s": per_deck(inclusive["series.expand_rational"]),
        "series.expand_terms": per_deck(counts["series.expand_terms"]),
        "series.remultiply_s": per_deck(inclusive["series.TruncatedSeries.__mul__"]),
        "series.mul_pairs": per_deck(counts["series.mul_pairs"]),
        "series.mul_kept_ratio": counts["series.mul_kept"] / counts["series.mul_pairs"]
        if counts["series.mul_pairs"] else 0.0,
        "series.univariate_s": per_deck(counts["series.univariate_s"]),
        "series.render_s": per_deck(inclusive["series.TruncatedSeries.to_text"]
                                    + inclusive["series.TruncatedSeries.to_json_terms"]),
        "bijections.calls": per_deck(sum(calls[k] for k in bijections)),
        "bijections.roundtrip_s": per_deck(sum(inclusive[k] for k in bijections)),
        "cli.self_s": per_deck(sum(v for k, v in own.items() if k.startswith("cli."))),
        "cli.stdout_bytes": per_deck(stdout_bytes),
        "trace.spans": per_deck(len(tracer.spans)),
    }
    return metrics, shares
