"""The workloads: seeded decks of fibpoly requests.

A deck is the list of operations one pass of a workload makes.  A run
repeats its deck in a closed loop with a single client: the next
operation starts when the previous one returns.  The seed jitters sizes
by 1-2% where cost is smooth in size, picks the free parameters (length
of a p=1 request, nmax of a p=1 verify, output formats) and shuffles the
order; the strata themselves are fixed, so decks built from different
seeds cost about the same and the end-to-end figures stay comparable
across seeds.  The largest request of a workload
is pinned, because it sets the workload's peak memory.

Requests that hit a known defect are kept in every deck and marked with
the defect they are predicted to hit; they count as failed operations.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from facts import exceeds_str_limit, word_count, words_through

RECURSION = "RecursionError"
STR_LIMIT = "int-str-limit"


@dataclass(frozen=True)
class Op:
    """One request: a CLI invocation, or a library call when kind is "lib".

    ``n`` is the word length (words, count), nmax (verify, tables) or the
    expansion order (series, lib); ``p`` is pmax for tables; ``sub`` is
    the series kind, or the table number for tables.
    """

    kind: str
    p: int
    n: int
    fmt: str = ""
    sub: str = ""
    defect: str | None = None

    @property
    def argv(self) -> list[str]:
        p, n = str(self.p), str(self.n)
        if self.kind == "verify":
            return ["verify", "--p", p, "--nmax", n, "--format", self.fmt]
        if self.kind in ("words", "count"):
            return [self.kind, "--p", p, "--n", n, "--format", self.fmt]
        if self.kind == "series":
            return ["series", "--p", p, "--kind", self.sub, "--order", n, "--format", self.fmt]
        if self.kind == "tables":
            return ["tables", "--which", self.sub, "--pmax", p, "--nmax", n, "--format", self.fmt]
        raise ValueError(f"{self.kind} is a library call, not a CLI request")

    def label(self) -> str:
        if self.kind == "lib":
            return f"series_{self.sub}_dp({self.p}, {self.n})"
        return " ".join(self.argv)


def _jitter(rng: random.Random, value: int, share: float) -> int:
    return max(1, round(value * rng.uniform(1 - share, 1 + share)))


def _nearest(p: int, target: float, sizes: range, size_of) -> int:
    """The n in ``sizes`` whose size_of(p, n) is nearest to target on a log scale."""
    return min(sizes, key=lambda n: abs(math.log(size_of(p, n) / target)))


def _p1_words(rng: random.Random, fmt: str) -> Op:
    """words --p 1 --n 1000..3000: the listing recurses once per digit."""
    n = rng.randint(1000, 3000)
    defect = RECURSION if n >= sys.getrecursionlimit() else None
    return Op("words", 1, n, fmt, defect=defect)


# word-scan: verify sized by words through nmax (series order stays <= 16),
# listings sized by word count with the 19513-word words --p 3 --n 17 pinned,
# and a few p=1 listings that recurse too deep.
VERIFY_WORD_TARGETS = (50, 75, 112, 169, 253, 380, 570)
LISTING_TARGETS = tuple(round(500 * 16 ** (k / 14)) for k in range(15))  # 500 .. 8000


def word_scan(rng: random.Random) -> list[Op]:
    ops = []
    # Verify cost roughly doubles per step of nmax, so these sizes are not
    # jittered: a flip between two steps would move the deck's cost.
    for p in range(2, 6):
        for k, target in enumerate(VERIFY_WORD_TARGETS):
            nmax = _nearest(p, target, range(1, 17), words_through)
            ops.append(Op("verify", p, nmax, ("plain", "json")[(k + rng.randrange(2)) % 2]))
    for k in range(4):
        ops.append(Op("verify", 1, rng.randint(8, 16), ("plain", "json")[k % 2]))
    # A listing's cost nearly doubles per step of n, so n is not jittered either.
    for k, target in enumerate(LISTING_TARGETS):
        p = 2 + k % 4
        n = _nearest(p, target, range(1, 40), word_count)
        ops.append(Op("words", p, n, ("plain", "json")[k % 2]))
    ops.append(Op("words", 3, 17, "json"))
    for k in range(3):
        ops.append(_p1_words(rng, ("plain", "json")[k % 2]))
    rng.shuffle(ops)
    return ops


# joint-series: (p, order) strata whose F / G series hold about 5k-30k terms,
# each once through the CLI and once as a library call, plus the pinned
# 148k-term series_F_dp(5, 100).
F_STRATA = ((2, 100), (3, 45), (3, 60), (3, 80), (4, 45), (5, 30), (5, 45), (6, 30),
            (7, 30), (8, 30))
G_STRATA = ((2, 100), (2, 160), (3, 100), (3, 160), (4, 100), (5, 80), (6, 60), (7, 80),
            (8, 60))


def joint_series(rng: random.Random) -> list[Op]:
    ops = []
    for sub, strata in (("F", F_STRATA), ("G", G_STRATA)):
        for k, (p, order) in enumerate(strata):
            ops.append(Op("series", p, _jitter(rng, order, 0.01), ("plain", "json")[k % 2], sub))
            ops.append(Op("lib", p, _jitter(rng, order, 0.01), sub=sub))
    ops.append(Op("lib", 5, 100, sub="F"))
    # The one request outside the series kernel keeps failed_ratio above
    # zero while the p=1 recursion defect stands.
    ops.append(_p1_words(rng, "plain"))
    rng.shuffle(ops)
    return ops


# sequences: A/S/I triples and D series at orders 500..3000, the four tables
# up to p=20 and nmax=500, and counts below and above the 4300-digit limit
# of int-to-str conversion, with count --p 2 --n 50000 pinned.
# Geometric orders with p cycling spread the A/S/I costs evenly, so the
# deck's median request does not sit in a gap between two cost clusters.
ASI_STRATA = tuple((2 + k % 7, round(500 * 6 ** (k / 11))) for k in range(12))
D_STRATA = ((2, 500), (3, 900), (4, 1300), (5, 1700), (6, 2100), (7, 2500), (8, 3000),
            (2, 3000))
TABLE_SIZES = ((5, 100), (10, 200), (20, 500))
COUNT_BELOW = tuple(round(500 * 26 ** (k / 9)) for k in range(10))  # 500 .. 13000
COUNT_ABOVE = ((3, 22000), (5, 28000), (6, 32000))


def sequences(rng: random.Random) -> list[Op]:
    ops = []
    for k, (p, order) in enumerate(ASI_STRATA):
        order = _jitter(rng, order, 0.01)
        for sub in "ASI":
            ops.append(Op("series", p, order, ("plain", "json")[k % 2], sub))
    for k, (p, order) in enumerate(D_STRATA):
        ops.append(Op("series", p, _jitter(rng, order, 0.01), ("plain", "json")[k % 2], "D"))
    for which in range(1, 5):
        for k, (pmax, nmax) in enumerate(TABLE_SIZES):
            fmt = ("csv", "json")[(which + k) % 2]
            ops.append(Op("tables", pmax, _jitter(rng, nmax, 0.02), fmt, str(which)))
    counts = [(2 + k % 7, _jitter(rng, n, 0.01)) for k, n in enumerate(COUNT_BELOW)]
    counts += [(p, _jitter(rng, n, 0.01)) for p, n in COUNT_ABOVE]
    counts.append((2, 50000))
    for k, (p, n) in enumerate(counts):
        defect = STR_LIMIT if exceeds_str_limit(word_count(p, n)) else None
        ops.append(Op("count", p, n, ("plain", "json")[k % 2], defect=defect))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"word-scan": word_scan, "joint-series": joint_series, "sequences": sequences}


def build_deck(workload: str, seed: int) -> list[Op]:
    """The deck of one workload; the same seed always gives the same deck."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
