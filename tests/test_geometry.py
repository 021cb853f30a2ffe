import pytest

from fibpoly import (
    FibWord,
    PickReport,
    area,
    enumerate_words,
    inner_points,
    lattice_stats,
    pick_report,
    render_ascii,
    semiperimeter,
)
from fibpoly.words import successor_digits

W = FibWord.from_text


@pytest.mark.parametrize(
    "p, text, expected",
    [
        (3, "32321", 11),
        (3, "", 0),
        (3, "3333", 12),
    ],
)
def test_area(p, text, expected):
    assert area(W(p, text)) == expected


@pytest.mark.parametrize(
    "p, text, expected",
    [
        (4, "4", 5),
        (3, "321", 6),
        (3, "32323", 10),
        (3, "", 0),
    ],
)
def test_semiperimeter(p, text, expected):
    assert semiperimeter(W(p, text)) == expected


@pytest.mark.parametrize(
    "p, text, expected",
    [
        (4, "4", 0),
        (3, "333", 4),
        (2, "21", 0),
        (3, "", 0),
    ],
)
def test_inner_points(p, text, expected):
    assert inner_points(W(p, text)) == expected


def test_pick_report_staircase():
    assert pick_report(W(3, "321")) == PickReport(6, 6, 1)
    assert pick_report(W(3, "321")).pick_holds


def test_pick_report_single_column():
    for p in range(1, 8):
        report = pick_report(FibWord(p, (p,)))
        assert report == PickReport(p, p + 1, 0)
        assert report.pick_holds


def test_pick_report_rejects_empty_word():
    with pytest.raises(ValueError):
        pick_report(FibWord(4, ()))


def test_pick_identity_standalone_triple():
    # 23 cells, half-perimeter 17, 7 interior points: 23 = 7 + 17 - 1
    assert PickReport(area=23, sper=17, inn=7).pick_holds
    assert not PickReport(area=23, sper=17, inn=8).pick_holds


def test_pick_identity_exhaustive():
    for p in range(1, 6):
        for n in range(1, 13):
            for w in enumerate_words(p, n):
                assert pick_report(w).pick_holds


def test_formulas_match_lattice_oracle():
    for p in range(1, 5):
        for n in range(1, 10):
            for w in enumerate_words(p, n):
                assert lattice_stats(w) == pick_report(w)


def test_appending_a_digit_grows_area_and_sper():
    for p in (2, 3, 4):
        for n in range(1, 7):
            for w in enumerate_words(p, n):
                for d in successor_digits(p, w.digits[-1]):
                    grown = FibWord(p, w.digits + (d,))
                    assert area(grown) > area(w)
                    assert semiperimeter(grown) > semiperimeter(w)


def test_render_ascii_staircase():
    assert render_ascii(W(3, "321")) == "#\n##\n###"
    assert render_ascii(W(2, "21")) == "#\n##"
    assert render_ascii(W(2, "")) == ""


def test_render_ascii_reset_column():
    assert render_ascii(W(2, "212")) == "# #\n###"


def test_render_ascii_custom_glyph():
    assert render_ascii(W(2, "21"), glyph="@") == "@\n@@"
    with pytest.raises(ValueError):
        render_ascii(W(2, "21"), glyph="ab")
