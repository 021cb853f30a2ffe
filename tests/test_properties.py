"""Property tests for the packed-exponent series kernel and the sequences.

The reference implementations below keep series as plain
``Monomial -> coefficient`` dicts, the representation the kernel replaced,
so every property compares the packed layers against the naive arithmetic.
The univariate sequences are compared against the series kernel, the parts
loop and the window loop they replaced.
"""

import json
from collections import deque
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibpoly.series import (
    MAX_FIELD_EXPONENT,
    Monomial,
    RationalGF,
    TruncatedSeries,
    area_count_sequence,
    closed_form_F,
    closed_form_G,
    column_transfer,
    expand_rational,
    gf_total_area,
    gf_total_inner,
    gf_total_sper,
    parts_set,
    sequence_terms_json,
    series_F_dp,
    series_G_dp,
    series_terms_json,
    total_area_sequence,
    total_inner_sequence,
    total_sper_sequence,
)
from fibpoly.words import fibonacci_number

M = Monomial
UNIT = Monomial()


def times(m1, m2):
    """Product of two monomials: the sum of their exponent vectors."""
    return Monomial(*map(add, m1, m2))


def single(**exponents):
    """The series of one monomial with coefficient 1, through x^0."""
    return TruncatedSeries(0, {Monomial(**exponents): 1})


def naive_mul(a, b, x_bound):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = times(m1, m2)
            if m.x <= x_bound:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def naive_transfer(p, x_bound, start, step):
    """Column transfer over Monomial dicts, one state per last-column height."""
    total = {UNIT: 1}
    state = {p: {start._replace(x=1): 1}} if x_bound else {}
    for length in range(1, x_bound + 1):
        if length > 1:
            new = {}
            for j, poly in state.items():
                targets = ([j - 1] if j > 1 else []) + [p]
                for i in targets:
                    w = step(j, i)._replace(x=1)
                    bucket = new.setdefault(i, {})
                    for m, c in poly.items():
                        m = times(m, w)
                        bucket[m] = bucket.get(m, 0) + c
            state = new
        for poly in state.values():
            for m, c in poly.items():
                total[m] = total.get(m, 0) + c
    return total


def f_step(j, i):
    return M(y=i, z=1 + max(i - j, 0))


def g_step(j, i):
    return M(q=min(i, j) - 1)


monomials = st.builds(
    Monomial,
    x=st.integers(0, 4),
    y=st.integers(0, 60),
    z=st.integers(0, 60),
    q=st.integers(0, 60),
)
term_dicts = st.dictionaries(monomials, st.integers(-50, 50), max_size=12)


@settings(deadline=None)
@given(p=st.integers(1, 8), order=st.integers(0, 12))
def test_transfer_equals_closed_form(p, order):
    assert series_F_dp(p, order) == expand_rational(closed_form_F(p), order)
    assert series_G_dp(p, order) == expand_rational(closed_form_G(p), order)


@pytest.mark.parametrize("p, order", [(2, 60), (5, 45)])
def test_transfer_equals_closed_form_at_higher_order(p, order):
    # long enough that each expansion divides through many layers
    assert series_F_dp(p, order) == expand_rational(closed_form_F(p), order)
    assert series_G_dp(p, order) == expand_rational(closed_form_G(p), order)


@given(terms=term_dicts, x_bound=st.integers(0, 4))
def test_json_terms_roundtrip(terms, x_bound):
    series = TruncatedSeries(x_bound, terms)
    data = series.to_json_terms()
    decoded = {Monomial(**entry["exponents"]): entry["coefficient"] for entry in data}
    assert len(decoded) == len(data)
    assert TruncatedSeries(x_bound, decoded) == series


def json_term(monomial, coefficient):
    """One term as the JSON writers emit it: zero exponents left out."""
    return {"coefficient": coefficient,
            "exponents": {var: e for var, e in monomial._asdict().items() if e}}


def field(top):
    # zeros and small exponents often, so that x-only and constant terms and
    # ties in total degree across x-layers come up
    return st.one_of(st.just(0), st.integers(0, 3), st.integers(0, top))


json_monomials = st.builds(
    Monomial,
    x=st.integers(0, 5),
    y=field(10**15),
    z=field(MAX_FIELD_EXPONENT),
    q=field(MAX_FIELD_EXPONENT),
)


@example(terms={}, x_bound=0)
@example(terms={UNIT: -7, M(x=2): 1, M(x=1, y=1): 2, M(y=2): 3}, x_bound=2)
@given(terms=st.dictionaries(json_monomials, st.integers(-10**30, 10**30), max_size=30),
       x_bound=st.integers(0, 5))
def test_series_terms_json_equals_json_dumps(terms, x_bound):
    series = TruncatedSeries(x_bound, terms)
    ordered = sorted(series.terms.items(), key=lambda item: (sum(item[0]), *item[0]))
    expected = json.dumps([json_term(m, c) for m, c in ordered], sort_keys=True)
    assert f"[{series_terms_json(series)}]" == expected


@example(coeffs=[], var="x")
@example(coeffs=[0, 0, -1], var="y")
@given(coeffs=st.lists(st.one_of(st.just(0), st.integers(-10**40, 10**40)), max_size=40),
       var=st.sampled_from(["x", "y"]))
def test_sequence_terms_json_equals_json_dumps(coeffs, var):
    terms = [json_term(Monomial(**{var: n}), c) for n, c in enumerate(coeffs) if c]
    expected = json.dumps(terms, sort_keys=True)
    assert f"[{sequence_terms_json(coeffs, var)}]" == expected


@given(a=term_dicts, b=term_dicts, x_bound=st.integers(0, 4))
def test_product_matches_monomial_arithmetic(a, b, x_bound):
    product = TruncatedSeries(x_bound, a) * TruncatedSeries(x_bound, b)
    clean = [{m: c for m, c in t.items() if c and m.x <= x_bound} for t in (a, b)]
    assert product.terms == naive_mul(*clean, x_bound)


@pytest.mark.parametrize(
    "build, reference",
    [
        (lambda: series_F_dp(3, 7), lambda: naive_transfer(3, 7, M(y=3, z=4), f_step)),
        (lambda: series_F_dp(1, 5), lambda: naive_transfer(1, 5, M(y=1, z=2), f_step)),
        (lambda: series_G_dp(4, 8), lambda: naive_transfer(4, 8, UNIT, g_step)),
        (lambda: expand_rational(closed_form_F(2), 9), lambda: naive_transfer(2, 9, M(y=2, z=3), f_step)),
    ],
)
def test_terms_view_equals_monomial_dict(build, reference):
    series = build()
    expected = reference()
    assert series.terms == expected
    assert dict(series.terms.items()) == expected
    assert len(series.terms) == len(expected)
    assert sorted(series.terms) == sorted(expected)
    assert all(series.terms.get(m, 0) == c for m, c in expected.items())


@given(z1=st.integers(0, MAX_FIELD_EXPONENT), z2=st.integers(0, MAX_FIELD_EXPONENT),
       field=st.sampled_from(["z", "q"]))
def test_product_overflow_is_exact(z1, z2, field):
    a = single(**{field: z1})
    b = single(**{field: z2})
    if z1 + z2 > MAX_FIELD_EXPONENT:
        with pytest.raises(ValueError):
            a * b
    else:
        assert a * b == single(**{field: z1 + z2})


def test_overflow_guard_on_packing():
    for field in ("z", "q"):
        with pytest.raises(ValueError):
            single(**{field: MAX_FIELD_EXPONENT + 1})
    with pytest.raises(ValueError):
        TruncatedSeries(1, {M(x=1, y=-1): 1})
    # y is the top field and never wraps
    big = single(y=2**40)
    assert (big * big).terms == {M(y=2**41): 1}


def test_overflow_guard_in_division_and_transfer():
    half = (MAX_FIELD_EXPONENT + 1) // 2
    gf = RationalGF({UNIT: 1}, {UNIT: 1, M(x=1, q=half): -1})
    assert expand_rational(gf, 1).terms.get(M(x=1, q=half), 0) == 1
    with pytest.raises(ValueError):
        expand_rational(gf, 2)
    weight = M(z=half)
    assert column_transfer(2, 1, weight, lambda j, i: weight).terms.get(M(x=1, z=half), 0) == 1
    with pytest.raises(ValueError):
        column_transfer(2, 2, weight, lambda j, i: weight)


# ---------------------------------------------------------------------------
# univariate sequences


def parts_loop_area_counts(p, max_area):
    """Counts of words by area from the parts recurrence, summed part by part."""
    parts = parts_set(p)
    counts = [1] + [0] * max_area
    for n in range(1, max_area + 1):
        counts[n] = sum(counts[n - part] for part in parts if part <= n)
    return counts


def window_fibonacci(p, n):
    """F(n) by the window loop alone: F(k+1) = 2 F(k) - F(k-p)."""
    if n <= 0:
        return 0
    if n == 1:
        return 1
    p = min(p, n)
    window = deque([1] + [0] * (p - 1) + [1], maxlen=p + 1)
    for _ in range(2, n + 1):
        window.append(2 * window[-1] - window[0])
    return window[-1]


@given(p=st.integers(1, 64), order=st.integers(0, 150))
def test_sequences_equal_series_expansion(p, order):
    for sequence, gf in (
        (total_area_sequence, gf_total_area),
        (total_sper_sequence, gf_total_sper),
        (total_inner_sequence, gf_total_inner),
    ):
        assert sequence(p, order) == expand_rational(gf(p), order).layer_sums()


@given(p=st.integers(1, 64), max_area=st.integers(0, 400))
def test_area_counts_equal_parts_loop(p, max_area):
    assert area_count_sequence(p, max_area) == parts_loop_area_counts(p, max_area)


@given(st.integers(1, 64).flatmap(lambda p: st.tuples(st.just(p), st.integers(-p + 2, 400))))
def test_fibonacci_equals_window_loop(case):
    p, n = case
    assert fibonacci_number(p, n) == window_fibonacci(p, n)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_fibonacci_equals_window_loop_at_large_n(p):
    assert fibonacci_number(p, 20000) == window_fibonacci(p, 20000)


@pytest.mark.parametrize("p", range(1, 17))
def test_fibonacci_on_both_sides_of_the_crossover(p):
    # the first n that takes the polynomial reduction (n >= 128 p, 3 n >= p^4)
    first = max(128 * p, -(-p**4 // 3))
    for n in (first - 1, first, first + 1):
        assert fibonacci_number(p, n) == window_fibonacci(p, n)
