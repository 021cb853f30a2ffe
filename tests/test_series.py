import hashlib
import random
import sys

import pytest

from fibpoly import (
    Monomial,
    RationalGF,
    TruncatedSeries,
    area,
    area_count_sequence,
    brute_force_area_distribution,
    closed_form_F,
    closed_form_G,
    count_words,
    enumerate_words,
    expand_rational,
    gf_area_counts,
    gf_total_area,
    gf_total_inner,
    gf_total_sper,
    inner_points,
    parts_set,
    semiperimeter,
    series_F_dp,
    series_G_dp,
    total_area_sequence,
    total_inner_sequence,
    total_sper_sequence,
)
from fibpoly import series as series_module
from fibpoly.series import (
    _check_remultiplied,
    _convolve,
    _core,
    _divide,
    _divide_factored,
    _total_area_fraction,
    _total_inner_fraction,
    _total_sper_fraction,
)

M = Monomial
UNIT = Monomial()


def x_group(series, n):
    """Coefficient of x^n as a (y, z, q) Monomial -> coefficient dict."""
    return {m._replace(x=0): c for m, c in series.terms.items() if m.x == n}


def moment(series, variable, n):
    """Sum of coefficient times the ``variable`` exponent over the x^n terms."""
    return sum(c * getattr(m, variable) for m, c in series.terms.items() if m.x == n)


# ---------------------------------------------------------------------------
# ring operations


def test_truncation_kills_high_degrees():
    one_plus_x = TruncatedSeries(1, {UNIT: 1, M(x=1): 1})
    one_minus_x = TruncatedSeries(1, {UNIT: 1, M(x=1): -1})
    assert one_plus_x * one_minus_x == TruncatedSeries(1, {UNIT: 1})


def test_monomial_product():
    a = TruncatedSeries(2, {M(x=1, y=2, z=3): 1})
    b = TruncatedSeries(2, {M(x=1, y=1, z=1): 1})
    assert a * b == TruncatedSeries(2, {M(x=2, y=3, z=4): 1})


def test_bound_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(2, {UNIT: 1}) * TruncatedSeries(3, {UNIT: 1})


def _random_series(rng, x_bound):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = M(x=rng.randint(0, x_bound), y=rng.randint(0, 2), z=rng.randint(0, 2), q=rng.randint(0, 1))
        terms[mono] = rng.randint(-5, 5)
    return TruncatedSeries(x_bound, terms)


def _sum(a, b):
    """a + b, term by term through the ``terms`` views."""
    terms = dict(a.terms.items())
    for mono, c in b.terms.items():
        terms[mono] = terms.get(mono, 0) + c
    return TruncatedSeries(a.x_bound, terms)


def test_ring_laws_on_random_operands():
    rng = random.Random(20240615)
    for _ in range(60):
        bound = rng.randint(0, 5)
        a, b, c = (_random_series(rng, bound) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * TruncatedSeries(bound, {UNIT: 1}) == a
        assert a * _sum(b, c) == _sum(a * b, a * c)


# ---------------------------------------------------------------------------
# formal division


def test_expand_geometric_series():
    geo = RationalGF({UNIT: 1}, {UNIT: 1, M(x=1): -1})
    assert expand_rational(geo, 3) == TruncatedSeries(
        3, {UNIT: 1, M(x=1): 1, M(x=2): 1, M(x=3): 1}
    )


def test_expand_F2_low_order():
    series = expand_rational(closed_form_F(2), 2)
    assert series.terms == {
        UNIT: 1,
        M(x=1, y=2, z=3): 1,
        M(x=2, y=3, z=4): 1,
        M(x=2, y=4, z=4): 1,
    }


def test_expand_G3_low_order():
    series = expand_rational(closed_form_G(3), 2)
    assert series.terms == {
        UNIT: 1,
        M(x=1): 1,
        M(x=2, q=1): 1,
        M(x=2, q=2): 1,
    }


def test_rational_constant_term_must_be_one():
    with pytest.raises(ValueError):
        RationalGF({UNIT: 1}, {UNIT: 2, M(x=1): -1})
    with pytest.raises(ValueError):
        RationalGF({UNIT: 1}, {M(x=1): -1})


def test_expand_rejects_unbounded_denominator():
    # y-degree terms at x-degree zero cannot be divided out layer by layer
    with pytest.raises(ValueError):
        expand_rational(gf_area_counts(2), 5)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_F2_matches_display():
    gf = closed_form_F(2)
    assert gf.numerator == {
        UNIT: 1,
        M(x=1, y=2, z=1): -1,
        M(x=1, y=2, z=3): 1,
        M(x=2, y=3, z=3): -1,
        M(x=2, y=3, z=4): 1,
    }
    assert gf.denominator == {UNIT: 1, M(x=1, y=2, z=1): -1, M(x=2, y=3, z=3): -1}


def test_closed_form_F3_denominator():
    assert closed_form_F(3).denominator == {
        UNIT: 1,
        M(x=1, y=3, z=1): -1,
        M(x=2, y=5, z=3): -1,
        M(x=3, y=6, z=5): -1,
    }


def test_closed_form_F1_degenerate_case():
    gf = closed_form_F(1)
    assert gf.numerator == {UNIT: 1, M(x=1, y=1, z=1): -1, M(x=1, y=1, z=2): 1}
    assert gf.denominator == {UNIT: 1, M(x=1, y=1, z=1): -1}
    # cross-check against the unique word of each length
    series = expand_rational(gf, 6)
    expected = {UNIT: 1}
    expected.update({M(x=n, y=n, z=n + 1): 1 for n in range(1, 7)})
    assert series.terms == expected


def test_closed_form_G2_matches_display():
    gf = closed_form_G(2)
    assert gf.numerator == {UNIT: 1, M(x=1): 1, M(x=1, q=1): -1}
    assert gf.denominator == {UNIT: 1, M(x=1, q=1): -1, M(x=2): -1}


def test_closed_form_G3_matches_display():
    gf = closed_form_G(3)
    assert gf.numerator == {
        UNIT: 1,
        M(x=1): 1,
        M(x=1, q=2): -1,
        M(x=2, q=1): 1,
        M(x=2, q=2): -1,
    }
    assert gf.denominator == {
        UNIT: 1,
        M(x=3, q=1): -1,
        M(x=1, q=2): -1,
        M(x=2, q=2): -1,
    }


def test_closed_form_G4_expansion_third_order():
    series = expand_rational(closed_form_G(4), 3)
    assert x_group(series, 3) == {M(q=3): 1, M(q=4): 1, M(q=5): 1, M(q=6): 1}


# ---------------------------------------------------------------------------
# transfer recurrence


def test_dp_F_known_groups():
    assert x_group(series_F_dp(4, 3), 3) == {
        M(y=9, z=7): 1,
        M(y=11, z=7): 1,
        M(y=12, z=7): 1,
        M(y=11, z=8): 1,
    }
    assert series_F_dp(3, 1).terms == {UNIT: 1, M(x=1, y=3, z=4): 1}
    assert x_group(series_F_dp(2, 3), 3) == {
        M(y=5, z=5): 1,
        M(y=6, z=5): 1,
        M(y=5, z=6): 1,
    }


def test_dp_G_known_groups():
    assert x_group(series_G_dp(2, 4), 4) == {UNIT: 1, M(q=1): 2, M(q=2): 1, M(q=3): 1}
    assert x_group(series_G_dp(3, 3), 3) == {M(q=1): 1, M(q=2): 1, M(q=3): 1, M(q=4): 1}
    for p in (1, 2, 4):
        assert series_G_dp(p, 0) == TruncatedSeries(0, {UNIT: 1})


def test_dp_equals_closed_form():
    for p in range(1, 5):
        for bound in (0, 1, 4, 9):
            assert series_F_dp(p, bound) == expand_rational(closed_form_F(p), bound)
            assert series_G_dp(p, bound) == expand_rational(closed_form_G(p), bound)


def test_counting_specialization():
    for p in (*range(1, 9), 64):
        expected = [count_words(p, n) for n in range(11)]
        assert series_F_dp(p, 10).layer_sums() == expected
        assert series_G_dp(p, 10).layer_sums() == expected


def test_F_series_degree_bounds():
    for p in (2, 3, 4):
        series = series_F_dp(p, 8)
        for mono in series.terms:
            assert mono.y <= p * mono.x
            assert mono.z <= (p + 1) * mono.x


# ---------------------------------------------------------------------------
# univariate totals


def test_total_area_table_values():
    assert total_area_sequence(2, 5)[1:] == [2, 7, 16, 35, 70]
    assert total_area_sequence(5, 10)[10] == 20094
    assert total_area_sequence(3, 1)[1] == 3


def test_total_sper_table_values():
    assert total_sper_sequence(2, 5)[1:] == [3, 8, 16, 33, 63]
    assert total_sper_sequence(4, 5)[5] == 152
    assert total_sper_sequence(3, 1)[1] == 4


def test_total_inner_table_values():
    assert total_inner_sequence(2, 5)[1:] == [0, 1, 3, 7, 15]
    assert total_inner_sequence(4, 5)[5] == 124
    for p in (1, 2, 5):
        assert total_inner_sequence(p, 1)[1] == 0


def test_totals_match_enumerated_sums():
    for p in range(1, 5):
        areas = total_area_sequence(p, 8)
        spers = total_sper_sequence(p, 8)
        inners = total_inner_sequence(p, 8)
        for n in range(1, 9):
            words = enumerate_words(p, n)
            assert areas[n] == sum(area(w) for w in words)
            assert spers[n] == sum(semiperimeter(w) for w in words)
            assert inners[n] == sum(inner_points(w) for w in words)


def test_totals_match_series_moments():
    for p in (2, 3):
        joint_f = series_F_dp(p, 8)
        joint_g = series_G_dp(p, 8)
        for n in range(9):
            assert moment(joint_f, "y", n) == total_area_sequence(p, 8)[n]
            assert moment(joint_f, "z", n) == total_sper_sequence(p, 8)[n]
            assert moment(joint_g, "q", n) == total_inner_sequence(p, 8)[n]


def test_pick_identity_in_series_form():
    for p in range(1, 6):
        areas = total_area_sequence(p, 12)
        spers = total_sper_sequence(p, 12)
        inners = total_inner_sequence(p, 12)
        for n in range(1, 13):
            assert inners[n] + spers[n] - areas[n] == count_words(p, n)


# ---------------------------------------------------------------------------
# counts by area


def test_parts_set_values():
    assert parts_set(1) == (1,)
    assert parts_set(2) == (2, 3)
    assert parts_set(3) == (3, 5, 6)
    assert parts_set(4) == (4, 7, 9, 10)


def test_area_counts_known_values():
    assert area_count_sequence(3, 9)[9] == 3
    assert area_count_sequence(5, 5)[5] == 1
    # conflicts with the published table cell (p=2, n=9); the search oracle
    # confirms 5 is the correct count
    assert area_count_sequence(2, 9)[9] == 5


def test_area_counts_match_search_oracle():
    for p in range(1, 5):
        assert area_count_sequence(p, 25) == brute_force_area_distribution(p, 25)


def test_remultiplication_check_catches_a_wrong_coefficient():
    num, den = _total_area_fraction(3)
    coeffs = _divide(num, den, 20)
    _check_remultiplied(coeffs, num, den)
    for n in (0, 7, 20):
        wrong = list(coeffs)
        wrong[n] += 1
        with pytest.raises(ArithmeticError, match="re-multiplication check"):
            _check_remultiplied(wrong, num, den)
    # a denominator whose constant term is not 1 breaks the recurrence itself
    with pytest.raises(ArithmeticError, match="re-multiplication check"):
        _divide([1], [2, -1], 3)


def test_totals_denominators_factor_into_sparse_pieces():
    for p in range(1, 65):
        # core = 1 - 2x + x^(p+1) = (1 - x)(1 - x - ... - x^p)
        core = _core(p)
        assert core == _convolve([1, -1], [1] + [-1] * p)
        assert _convolve([1, -2, 1], _total_area_fraction(p)[1]) == _convolve(core, core)
        for fraction in (_total_sper_fraction(p), _total_inner_fraction(p)):
            assert _convolve([1, -1], _convolve(core, core)) == fraction[1]


@pytest.mark.parametrize("sequence, stages", [
    (total_area_sequence, 2), (total_sper_sequence, 3), (total_inner_sequence, 3)
])
def test_every_division_stage_is_rechecked(monkeypatch, sequence, stages):
    # a wrong coefficient in any stage's quotient fails that stage's check
    real = series_module._check_remultiplied
    for stage in range(stages):
        for n in (0, 7, 20):
            calls = []

            def perturbed(coeffs, num, den):
                if len(calls) == stage:
                    coeffs = list(coeffs)
                    coeffs[n] += 1
                calls.append(den)
                real(coeffs, num, den)

            monkeypatch.setattr(series_module, "_check_remultiplied", perturbed)
            with pytest.raises(ArithmeticError, match="re-multiplication check"):
                sequence(4, 20)
            assert len(calls) == stage + 1


def test_factors_must_multiply_out_to_the_denominator():
    core = _core(3)
    with pytest.raises(ArithmeticError, match="do not multiply out"):
        _divide_factored(_total_sper_fraction(3), [[1, -1], core], 10)
    # the area denominator is core^2 / (1 - x)^2, not core^2
    with pytest.raises(ArithmeticError, match="do not multiply out"):
        _divide_factored(_total_area_fraction(3), [core, core], 10)


def test_gf_area_counts_shape():
    gf = gf_area_counts(2)
    assert gf.numerator == {UNIT: 1}
    assert gf.denominator == {UNIT: 1, M(y=2): -1, M(y=3): -1}


def test_area_marginal_of_joint_series():
    # collecting the joint series by area reproduces the counts; words of
    # area <= n never have more than n columns, so x_bound n suffices
    for p in (2, 3):
        n = 25
        joint = series_F_dp(p, n)
        counts = area_count_sequence(p, n)
        for a in range(n + 1):
            total = sum(
                c for mono, c in joint.terms.items() if mono.y == a
            )
            assert total == counts[a]


# ---------------------------------------------------------------------------
# serialization


def test_to_text_canonical_example():
    series = expand_rational(closed_form_F(2), 2)
    assert series.to_text() == "1 + y^2*z^3*x + (y^3*z^4 + y^4*z^4)*x^2"


def test_to_text_trivial_cases():
    assert TruncatedSeries(3).to_text() == "0"
    assert TruncatedSeries(0, {UNIT: 1}).to_text() == "1"
    assert TruncatedSeries(2, {M(x=2): 3}).to_text() == "3*x^2"
    assert TruncatedSeries(1, {M(x=1): 1, UNIT: 1}).to_text() == "1 + x"
    assert TruncatedSeries(0, {UNIT: -1, M(y=1): 1}).to_text() == "-1 + y"
    assert TruncatedSeries(3, {UNIT: 1, M(x=3, y=1): -2}).to_text() == "1 - 2*y*x^3"
    assert TruncatedSeries(2, {M(x=2, y=1): -1, M(x=2, z=2): 5}).to_text() == "(-y + 5*z^2)*x^2"
    mixed = {UNIT: 1, M(x=1, q=1): -1, M(x=1, y=2): 1, M(x=2, y=1, q=1): -3}
    assert TruncatedSeries(2, mixed).to_text() == "1 + (-q + y^2)*x - 3*y*q*x^2"
    assert TruncatedSeries(2, {UNIT: 1, M(x=2): 1}).to_text() == "1 + x^2"


def test_json_terms_roundtrip():
    series = series_F_dp(3, 4)
    data = series.to_json_terms()
    decoded = {M(**entry["exponents"]): entry["coefficient"] for entry in data}
    assert len(decoded) == len(data)
    assert TruncatedSeries(4, decoded) == series
    degrees = [sum(entry["exponents"].values()) for entry in data]
    assert degrees == sorted(degrees)


def test_json_terms_keep_coefficients_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    huge = -(10 ** (limit + 700)) + 1
    data = TruncatedSeries(1, {UNIT: huge, M(x=1): 10**limit}).to_json_terms()
    assert data == [{"coefficient": huge, "exponents": {}},
                    {"coefficient": 10**limit, "exponents": {"x": 1}}]
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# pinned generating functions

GF_SHA256 = {
    gf_total_area: "414048f5d00aebed3d80310e6ed99131eef0264c7f8b57840fc4d22a7c8977c9",
    gf_total_sper: "83374ac3c542c0ade8119fdbd02394f5c4dec39c12d0831a0e7830d567187c0a",
    gf_total_inner: "7f22cf3fd68fa086bb7e0685ece710a370d0a2ffb0b37e18a355448ef0308aba",
    gf_area_counts: "5f65861c72248a03dfb3b08a07f0f95a5c076b9df51a0e27a2e75a0e7e059c42",
    closed_form_F: "e617640ac417289f18bcac625c9bf66b4d4e93de23c9a66a94619470a94abe8b",
    closed_form_G: "e52a60331831b752f7ce6d32987274498909f942a40cb1e823da14aa0782ac73",
}


@pytest.mark.parametrize("build", list(GF_SHA256), ids=lambda build: build.__name__)
def test_generating_functions_pinned(build):
    # one digest over p = 1..64 of the sorted numerator and denominator terms
    digest = hashlib.sha256()
    for p in range(1, 65):
        gf = build(p)
        for part in (gf.numerator, gf.denominator):
            digest.update(repr(sorted((tuple(m), c) for m, c in part.items())).encode() + b"\n")
    assert digest.hexdigest() == GF_SHA256[build]
