"""The verification runner: every computation path cross-checked for one p.

The words of each length are enumerated once.  Each word gets one
closed-form report (``geometry.pick_report``) and one cell-set report
(``oracle.lattice_stats``), and every word-level check, the per-length
totals and both word-by-word oracle series are accumulated from those two
reports.  The oracle series are built from the cell-set report alone, so
they stay independent of the closed forms they are compared with.  This
is the only place the word-by-word F and G series are built: ``oracle``
imports nothing from ``series``, so the two meet only here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import bijections, geometry, oracle, series, words
from .series import Monomial
from .words import DEFAULT_WORD_CAP, FibWord


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _composition_inverts(w: FibWord, area: int) -> bool:
    composition = bijections.word_to_composition(w)
    return bijections.composition_to_word(composition) == w and composition.total() == area


def run_verification(p: int, n_max: int, cap: int = DEFAULT_WORD_CAP) -> list[CheckResult]:
    """Cross-check every computation path for one alphabet bound.

    Covers the per-word and aggregate lattice-point identities, equality
    of the transfer recurrence with the expanded closed forms, the
    specializations that recover plain word counts, the lattice oracle,
    both bijection roundtrips, and the area-count recurrence.

    Raises EnumerationCapError before any other work if the words of
    lengths 0 .. n_max number more than ``cap`` (counted only up to the
    first length that passes it), or if the pruned area search, which
    runs first, would visit more than ``cap`` words.
    """
    total_words = words.checked_total_word_count(p, n_max, cap)
    # the pruned area search counts its own words against the cap, so it
    # runs before any other work
    max_area = min(30, p * n_max)
    counted = oracle.brute_force_area_distribution(p, max_area, cap=cap)

    bad_pick = lattice_bad = binary_bad = 0
    comp_bad = int(not _composition_inverts(FibWord(p), 0))
    oracle_f: Counter = Counter({Monomial(): 1})
    oracle_g: Counter = Counter({Monomial(): 1})
    # per-length word counts and statistic totals, index n = 0 .. n_max
    count = [1] + [0] * n_max
    area, sper, inner = [0] * (n_max + 1), [0] * (n_max + 1), [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        for digits in words.iter_word_digits(p, n):
            w = FibWord(p, digits)
            pick = geometry.pick_report(w)
            lattice = oracle.lattice_stats(w)
            count[n] += 1
            area[n] += pick.area
            sper[n] += pick.sper
            inner[n] += pick.inn
            bad_pick += not pick.pick_holds
            lattice_bad += lattice != pick
            oracle_f[Monomial(x=n, y=lattice.area, z=lattice.sper)] += 1
            oracle_g[Monomial(x=n, q=lattice.inn)] += 1
            comp_bad += not _composition_inverts(w, pick.area)
            binary_bad += bijections.binary_to_word(bijections.word_to_binary(w)) != w

    area_seq = series.total_area_sequence(p, n_max)
    sper_seq = series.total_sper_sequence(p, n_max)
    inner_seq = series.total_inner_sequence(p, n_max)
    dp_f = series.series_F_dp(p, n_max)
    dp_g = series.series_G_dp(p, n_max)
    closed_f = series.expand_rational(series.closed_form_F(p), n_max)
    closed_g = series.expand_rational(series.closed_form_G(p), n_max)
    expected_counts = [words.count_words(p, n) for n in range(n_max + 1)]
    return [
        CheckResult(
            "pick-identity-per-word",
            bad_pick == 0,
            f"{total_words} words with n <= {n_max}, {bad_pick} violations",
        ),
        CheckResult(
            "aggregate-identity",
            count == expected_counts
            and all(count[n] == inner[n] + sper[n] - area[n] for n in range(1, n_max + 1)),
            f"n={n_max}: {count[n_max]} = {inner[n_max]} + {sper[n_max]} - {area[n_max]}",
        ),
        CheckResult(
            "totals-vs-series",
            (area[1:], sper[1:], inner[1:]) == (area_seq[1:], sper_seq[1:], inner_seq[1:]),
            f"three total series against enumerated sums, n <= {n_max}",
        ),
        CheckResult(
            "transfer-vs-closed-form",
            dp_f == closed_f and dp_g == closed_g,
            f"both joint series through x^{n_max}",
        ),
        CheckResult(
            "count-specialization",
            dp_f.layer_sums() == expected_counts and dp_g.layer_sums() == expected_counts,
            f"y=z=1 and q=1 recover word counts, n <= {n_max}",
        ),
        CheckResult(
            "lattice-oracle",
            lattice_bad == 0,
            f"cell-set statistics vs closed forms on {total_words - 1} words",
        ),
        CheckResult(
            "oracle-series",
            series.TruncatedSeries(n_max, oracle_f) == dp_f
            and series.TruncatedSeries(n_max, oracle_g) == dp_g,
            f"word-by-word series through x^{n_max}",
        ),
        CheckResult(
            "composition-roundtrip",
            comp_bad == 0,
            f"block splitting inverts on {total_words} words",
        ),
        CheckResult(
            "binary-roundtrip",
            binary_bad == 0,
            f"transition encoding inverts on {total_words - 1} words",
        ),
        CheckResult(
            "area-distribution",
            counted == series.area_count_sequence(p, max_area),
            f"parts recurrence vs pruned search, area <= {max_area}",
        ),
    ]
