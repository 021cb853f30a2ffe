"""Checks for the brute-force lattice oracle itself.

Expected values here were derived by hand on the lattice embedding
(cells, boundary edges, four-cell corners) so the oracle never certifies
itself against the code it exists to validate.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibpoly import (
    EnumerationCapError,
    FibWord,
    Monomial,
    PickReport,
    area_count_sequence,
    brute_force_area_distribution,
    lattice_stats,
    series_F_dp,
    series_G_dp,
)
from fibpoly import geometry
from fibpoly.verify import run_verification
from fibpoly.words import iter_word_digits


@pytest.mark.parametrize(
    "p, text, expected",
    [
        # staircase 3,2,1: 6 cells, 12 boundary edges, corner (1,1) is the
        # only point with all four neighbor cells present
        (3, "321", PickReport(6, 6, 1)),
        # single column of 4: 4 cells, perimeter 10, no interior corner
        (4, "4", PickReport(4, 5, 0)),
        # 3x3 square: 9 cells, perimeter 12, interior corners (1,1)..(2,2)
        (3, "333", PickReport(9, 6, 4)),
        # two columns 2,1: 3 cells, perimeter 8, no interior corner
        (2, "21", PickReport(3, 4, 0)),
        # 3,2,3,2,3: 13 cells, perimeter 20, two interior corners
        (3, "32323", PickReport(13, 10, 4)),
    ],
)
def test_lattice_stats_hand_counted(p, text, expected):
    assert lattice_stats(FibWord.from_text(p, text)) == expected


def edge_count_reference(w):
    """Lattice statistics by counting every cell's four edges and corners.

    A boundary edge is one that belongs to exactly one cell, and the inner
    points are taken from the set of all cell corners.
    """
    cells = {(i, j) for i, h in enumerate(w.digits, start=1) for j in range(1, h + 1)}
    edges = Counter()
    for i, j in cells:
        corners = [(i - 1, j - 1), (i, j - 1), (i, j), (i - 1, j)]
        for a, b in zip(corners, corners[1:] + corners[:1]):
            edges[frozenset((a, b))] += 1
    boundary = sum(1 for count in edges.values() if count == 1)
    points = {corner for i, j in cells for corner in ((i - 1, j - 1), (i, j - 1), (i, j), (i - 1, j))}
    inn = sum(
        all(c in cells for c in ((a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)))
        for a, b in points
    )
    return PickReport(area=len(cells), sper=boundary // 2, inn=inn)


def small_words():
    """Every word with p = 1..5 and length 1..12."""
    return [
        FibWord(p, digits)
        for p in range(1, 6)
        for n in range(1, 13)
        for digits in iter_word_digits(p, n)
    ]


def test_lattice_stats_matches_edge_count_on_all_small_words():
    for w in small_words():
        assert lattice_stats(w) == edge_count_reference(w), w


def restart_word(p, restarts):
    """The word that starts at p and, after each digit, restarts at p or steps down."""
    digits = [p]
    for restart in restarts:
        digits.append(p if restart or digits[-1] == 1 else digits[-1] - 1)
    return FibWord(p, tuple(digits))


@st.composite
def fib_words(draw):
    """A word with p <= 64 and length <= 40."""
    return restart_word(draw(st.integers(1, 64)), draw(st.lists(st.booleans(), max_size=39)))


@st.composite
def long_fib_words(draw):
    """A word with p <= 64 and a length drawn from 1 .. 300, so most words are long."""
    p, n = draw(st.integers(1, 64)), draw(st.integers(1, 300))
    return restart_word(p, draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))


@given(fib_words())
def test_lattice_stats_matches_edge_count_on_drawn_words(w):
    assert lattice_stats(w) == edge_count_reference(w)


@settings(max_examples=50, deadline=None)
@given(long_fib_words())
def test_lattice_stats_and_pick_report_on_long_drawn_words(w):
    assert lattice_stats(w) == edge_count_reference(w)
    assert geometry.pick_report(w) == PickReport(
        geometry.area(w), geometry.semiperimeter(w), geometry.inner_points(w)
    )


def test_lattice_stats_does_not_call_the_closed_forms(monkeypatch):
    sample = [w for w in small_words() if len(w.digits) <= 7]
    expected = [lattice_stats(w) for w in sample]

    def forbidden(w):
        raise AssertionError("the oracle must not use the closed forms")

    for name in ("area", "semiperimeter", "inner_points", "pick_report"):
        monkeypatch.setattr(geometry, name, forbidden)
    assert [lattice_stats(w) for w in sample] == expected


def test_lattice_stats_rejects_empty_word():
    with pytest.raises(ValueError):
        lattice_stats(FibWord(3, ()))


def oracle_series_passes(p, n_max):
    """Whether ``run_verification``'s word-by-word series equal the transfer series."""
    return {c.name: c.passed for c in run_verification(p, n_max)}["oracle-series"]


def test_oracle_series_area_sper_small():
    # p=2 words: 2 | 21, 22 | 212, 221, 222, statistics counted by hand
    assert series_F_dp(2, 3).terms == {
        Monomial(): 1,
        Monomial(x=1, y=2, z=3): 1,
        Monomial(x=2, y=3, z=4): 1,
        Monomial(x=2, y=4, z=4): 1,
        Monomial(x=3, y=5, z=6): 1,
        Monomial(x=3, y=5, z=5): 1,
        Monomial(x=3, y=6, z=5): 1,
    }
    assert oracle_series_passes(2, 3)


def test_oracle_series_inner_small():
    # p=3 words of length <= 2: 3 | 32, 33
    assert series_G_dp(3, 2).terms == {
        Monomial(): 1,
        Monomial(x=1): 1,
        Monomial(x=2, q=1): 1,
        Monomial(x=2, q=2): 1,
    }
    assert oracle_series_passes(3, 2)


def test_area_distribution_known_rows():
    assert brute_force_area_distribution(3, 10)[1:] == [0, 0, 1, 0, 1, 2, 0, 2, 3, 1]
    assert brute_force_area_distribution(5, 5)[5] == 1
    # digit sum 9 over blocks 2 and 21: 3+3+3 plus four orderings of 3,2,2,2
    assert brute_force_area_distribution(2, 9)[9] == 5


def test_area_distribution_counts_empty_word():
    assert brute_force_area_distribution(4, 0) == [1]


def test_area_distribution_respects_cap():
    with pytest.raises(EnumerationCapError):
        brute_force_area_distribution(2, 25, cap=50)


def test_area_distribution_deep_p1_search():
    # p = 1 words are 1^n, so the search reaches depth max_area
    assert brute_force_area_distribution(1, 3000) == area_count_sequence(1, 3000)
