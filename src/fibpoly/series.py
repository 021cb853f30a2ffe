"""Exact truncated series arithmetic and the rational generating functions.

Four variables are in play: x marks the number of columns (word length),
y the area, z the semi-perimeter, and q the number of inner points.  All
coefficients are exact Python integers and series are truncated by
x-degree only; y, z, q degrees stay finite on their own once x is bounded.

Two independent routes build the joint series: a column-by-column
transfer recurrence over the height of the last column (``series_F_dp``,
``series_G_dp``, both thin wrappers of ``column_transfer``) and formal
division of the closed rational forms (``closed_form_F``,
``closed_form_G`` fed to ``expand_rational``).  Their term-for-term
agreement is the central consistency check of the package.

Storage.  A ``TruncatedSeries`` keeps one dict per x-degree 0 .. x_bound.
Each dict maps a packed integer key to a nonzero coefficient; the key
holds the (y, z, q) exponents in fixed-width bit fields::

    key = y << 42 | z << 21 | q        (q in bits 0-19, z in bits 21-40)

so multiplying two monomials of the same or different x-layers is one
integer addition, and integer order of keys is lexicographic order on
(y, z, q).  z and q each get ``FIELD_BITS`` = 20 bits (exponents up to
``MAX_FIELD_EXPONENT`` = 2^20 - 1) plus one guard bit above the field;
y is the top field and is unbounded.  ``Monomial`` objects exist only at
the API boundary, in the ``terms`` view; ``to_text`` and the JSON writer
``series_terms_json`` read the packed layers themselves.

Overflow guard.  Packing a z or q exponent above the field, or any
negative exponent, raises ``ValueError``.  A sum of two stored keys can
carry a field only into its own guard bit, never into the next field, so
every layer a product produces (``__mul__``, the layer division in
``expand_rational``, each step of ``column_transfer``) is checked for set
guard bits and raises ``ValueError`` instead of wrapping silently.

Canonical term order is graded lexicographic with x > y > z > q; the text
rendering groups terms by x-degree, e.g. ``1 + y^2*z^3*x + (y^3*z^4 +
y^4*z^4)*x^2``.

Univariate sequences.  The totals by length (``total_area_sequence``,
``total_sper_sequence``, ``total_inner_sequence``) and the word counts by
area (``area_count_sequence``) have rational generating functions in one
variable (``gf_total_*`` in x, ``gf_area_counts`` in y).  Numerator and
denominator are built as ``list[int]`` coefficient lists, which the
``gf_*`` functions wrap as ``RationalGF``.  The sequences never touch
the series kernel: they read linear recurrences off denominator lists
and check each result by convolving it with that denominator again.
The totals are not divided by their published denominators, which are
dense at large p, but stage by stage by sparse factors, using
(1 - x)(1 - x - ... - x^p) = 1 - 2x + x^(p+1) = core:

    A:     num / (1 - x - ... - x^p)^2  = num (1 - x)^2 / core / core
    S, I:  num / ((1 - x) core^2)       = num / (1 - x) / core / core

Each stage is one division by a factor of one or two taps, checked by
re-multiplying by that factor, and the factors are tied to the published
denominator by an exact identity on the short lists, checked on every
call (``_divide_factored``).  Together these prove coefficients times
denominator equals numerator through the order, as for ``_divide``.
The counts by area (D) keep one division by their own denominator,
which is already sparse.
``sequence_text`` and ``sequence_terms_json`` write such a list in the
format of ``to_text`` and ``series_terms_json``.  Series text and sequence
text share one term joiner, ``_joined_terms``, which writes the signs;
``to_text`` hands it a multi-term x-layer as one parenthesized term.

JSON.  ``series_terms_json`` and ``sequence_terms_json`` write the items of
a JSON ``"terms"`` array as text, the same bytes as
``json.dumps(..., sort_keys=True)`` of one ``{"coefficient", "exponents"}``
dict per term, without building those dicts.  ``to_json_terms`` decodes
that text, so the term order has one definition.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter, defaultdict
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, repeat, zip_longest
from operator import add, mul, or_, sub
from typing import Callable, NamedTuple

from .words import parts_set, validate_alphabet


class Monomial(NamedTuple):
    """Exponent vector over the variables (x, y, z, q)."""

    x: int = 0
    y: int = 0
    z: int = 0
    q: int = 0


UNIT = Monomial()

Terms = dict[Monomial, int]

# ---------------------------------------------------------------------------
# packed (y, z, q) keys

FIELD_BITS = 20
MAX_FIELD_EXPONENT = (1 << FIELD_BITS) - 1
_Z_SHIFT = FIELD_BITS + 1
_Y_SHIFT = 2 * _Z_SHIFT
_GUARD_BITS = (1 << FIELD_BITS) | (1 << (FIELD_BITS + _Z_SHIFT))

Layer = dict[int, int]
_ONE: Layer = {0: 1}


def _pack(y: int, z: int, q: int) -> int:
    if z > MAX_FIELD_EXPONENT or q > MAX_FIELD_EXPONENT:
        raise ValueError(
            f"exponents z={z}, q={q} exceed the packed field limit {MAX_FIELD_EXPONENT}"
        )
    if y < 0 or z < 0 or q < 0:
        raise ValueError("exponents must be non-negative")
    return y << _Y_SHIFT | z << _Z_SHIFT | q


def _unpack(key: int) -> tuple[int, int, int]:
    return key >> _Y_SHIFT, key >> _Z_SHIFT & MAX_FIELD_EXPONENT, key & MAX_FIELD_EXPONENT


def _checked(layer: Layer) -> Layer:
    """Drop zero coefficients; reject a layer whose z or q field overflowed."""
    if 0 in layer.values():
        layer = {k: c for k, c in layer.items() if c}
    if reduce(or_, layer, 0) & _GUARD_BITS:
        raise ValueError(f"a z or q exponent exceeds the packed field limit {MAX_FIELD_EXPONENT}")
    return layer


def _mul_into(target: Layer, a: Layer, b: Layer, scale: int = 1) -> Layer:
    """target += scale * a * b for two layers, returning target.

    Zero coefficients are left in place for ``_checked`` to drop.
    """
    if len(a) < len(b):
        a, b = b, a
    get = target.get
    for kb, cb in b.items():
        cb *= scale
        if not target:
            # shifting by one monomial is injective: nothing to merge yet
            target.update({ka + kb: ca * cb for ka, ca in a.items()})
        elif cb == 1:
            for ka, ca in a.items():
                k = ka + kb
                target[k] = get(k, 0) + ca
        else:
            for ka, ca in a.items():
                k = ka + kb
                target[k] = get(k, 0) + ca * cb
    return target


class TermsView(Mapping):
    """Read-only ``Monomial -> coefficient`` view of a series, built on demand."""

    __slots__ = ("_layers",)

    def __init__(self, layers: list[Layer]):
        self._layers = layers

    def __len__(self) -> int:
        return sum(map(len, self._layers))

    def __iter__(self):
        for x, layer in enumerate(self._layers):
            for key in layer:
                yield Monomial(x, *_unpack(key))

    def __getitem__(self, mono) -> int:
        try:
            x, y, z, q = mono
            if not 0 <= x < len(self._layers):
                raise KeyError(mono)
            return self._layers[x][_pack(y, z, q)]
        except (TypeError, ValueError):
            raise KeyError(mono) from None

    def items(self) -> "_TermsItems":
        return _TermsItems(self)

    def __repr__(self) -> str:
        return f"TermsView({dict(self.items())!r})"


class _TermsItems(ItemsView):
    def __iter__(self):
        for x, layer in enumerate(self._mapping._layers):
            for key, c in layer.items():
                yield Monomial(x, *_unpack(key)), c


class TruncatedSeries:
    """Multivariate polynomial kept exactly through x-degree ``x_bound``.

    Stored terms never carry a zero coefficient or an x-degree above the
    bound; instances are treated as immutable.  ``terms`` is a read-only
    ``Monomial -> coefficient`` view over the packed layers.
    """

    __slots__ = ("x_bound", "_layers")

    def __init__(self, x_bound: int, terms: Mapping[Monomial, int] | None = None):
        if x_bound < 0:
            raise ValueError(f"x_bound must be >= 0, got {x_bound}")
        layers: list[Layer] = [{} for _ in range(x_bound + 1)]
        if terms:
            for mono, coeff in terms.items():
                x, y, z, q = mono if isinstance(mono, Monomial) else Monomial(*mono)
                if x < 0:
                    raise ValueError("exponents must be non-negative")
                if coeff and x <= x_bound:
                    layers[x][_pack(y, z, q)] = coeff
        self.x_bound = x_bound
        self._layers = layers

    @classmethod
    def _of(cls, x_bound: int, layers: list[Layer]) -> "TruncatedSeries":
        """Wrap already checked layers, one per x-degree 0 .. x_bound."""
        series = cls.__new__(cls)
        series.x_bound = x_bound
        series._layers = layers
        return series

    @property
    def terms(self) -> TermsView:
        return TermsView(self._layers)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The truncated product of two series with the same bound, layer by layer."""
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.x_bound != other.x_bound:
            raise ValueError(f"x_bound mismatch: {self.x_bound} != {other.x_bound}")
        bound = self.x_bound
        left = [(i, layer) for i, layer in enumerate(self._layers) if layer]
        right = [(j, layer) for j, layer in enumerate(other._layers) if layer]
        if len(left) < len(right):
            left, right = right, left
        out: list[Layer] = [{} for _ in range(bound + 1)]
        for i, layer_a in left:
            for j, layer_b in right:
                if i + j > bound:
                    break
                _mul_into(out[i + j], layer_a, layer_b)
        return TruncatedSeries._of(bound, [_checked(layer) for layer in out])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.x_bound == other.x_bound and self._layers == other._layers

    def __repr__(self) -> str:
        return f"TruncatedSeries(x_bound={self.x_bound}, {self.to_text()})"

    def layer_sums(self) -> list[int]:
        """Coefficients by x-degree of the series at y = z = q = 1."""
        return [sum(layer.values()) for layer in self._layers]

    def to_text(self) -> str:
        """Canonical text form, terms grouped by ascending x-degree."""
        ys, zs, qs = _factors("y"), _factors("z"), _factors("q")
        pairs: list[tuple[int, str]] = []
        for n, layer in enumerate(self._layers):
            if not layer:
                continue
            terms = [(c, (ys[y] + zs[z] + qs[q])[1:]) for _, _, y, z, q, c in _grlex_rows(layer)]
            if n == 0:
                pairs.extend(terms)
            elif len(terms) == 1:
                c, body = terms[0]
                pairs.append((c, (f"{body}*" if body else "") + _power("x", n)))
            else:
                pairs.append((1, f"({_joined_terms(terms)})*{_power('x', n)}"))
        return _joined_terms(pairs) or "0"

    def to_json_terms(self) -> list[dict]:
        """JSON-ready term list in ascending graded lexicographic order.

        Decoded from ``series_terms_json``, so both give the same terms in
        the same order; coefficients of any length pass.
        """
        with _unlimited_int_digits():
            return json.loads(f"[{series_terms_json(self)}]")


def series_terms_json(series: TruncatedSeries) -> str:
    """The items of the JSON ``"terms"`` array of a series, without the brackets.

    The text is what ``json.dumps(..., sort_keys=True)`` writes for the
    list of ``{"coefficient": c, "exponents": {...}}`` objects, zero
    exponents left out, in ascending (x + y + z + q, x, packed key) order.
    Each layer's keys are sorted as integers and each term goes into a
    bucket by total degree; x ascends across layers, so a bucket is
    already in (x, key) order.
    A coefficient past the int/str digit limit (``sys.set_int_max_str_digits``)
    raises ``ValueError``, as in ``json.dumps``; the CLI lifts the limit.
    """
    ys, zs, qs = _json_fields("y"), _json_fields("z"), _json_fields("q")
    buckets: defaultdict[int, list[str]] = defaultdict(list)
    for x, layer in enumerate(series._layers):
        xs = f', "x": {x}' if x else ""
        for key in sorted(layer):
            y, z, q = _unpack(key)
            exponents = (qs[q] + xs + ys[y] + zs[z])[2:]
            buckets[x + y + z + q].append(
                f'{{"coefficient": {layer[key]}, "exponents": {{{exponents}}}}}'
            )
    return ", ".join(chain.from_iterable(buckets[d] for d in sorted(buckets)))


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int/str digit limit (Python >= 3.10.7) and restore it on exit.

    Exact answers such as word counts and large series coefficients run
    past the default 4300 digits.  ``cli.main`` runs each command inside
    it; it is private so that perfbench's tracer, which wraps the public
    functions, leaves it alone.
    """
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _grlex_rows(layer: Layer) -> list[tuple[int, int, int, int, int, int]]:
    """(degree, key, y, z, q, coefficient) rows of one layer in grlex order.

    Keys order (y, z, q) lexicographically and are distinct, so sorting the
    rows compares degree and key only.
    """
    rows = []
    for key, c in layer.items():
        y, z, q = _unpack(key)
        rows.append((y + z + q, key, y, z, q, c))
    rows.sort()
    return rows


class _Memo(dict):
    """Texts by exponent, each made once by ``make(e)``."""

    def __init__(self, make: Callable[[int], str]):
        super().__init__()
        self.make = make

    def __missing__(self, e: int) -> str:
        text = self[e] = self.make(e)
        return text


def _factors(var: str) -> _Memo:
    """Memo of the "*var^e" factor texts: "" for e = 0, "*var" for e = 1."""
    return _Memo(lambda e: f"*{_power(var, e)}" if e else "")


def _json_fields(var: str) -> _Memo:
    """Memo of the ', "var": e' exponent texts: "" for e = 0."""
    return _Memo(lambda e: f', "{var}": {e}' if e else "")


def _power(var: str, e: int) -> str:
    return var if e == 1 else f"{var}^{e}"


def _term_text(coeff: int, body: str) -> str:
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    return f"{coeff}*{body}"


def _joined_terms(terms: list[tuple[int, str]]) -> str:
    pieces = []
    for i, (c, body) in enumerate(terms):
        text = _term_text(abs(c), body)
        if i == 0:
            pieces.append(f"-{text}" if c < 0 else text)
        else:
            pieces.append(f" - {text}" if c < 0 else f" + {text}")
    return "".join(pieces)


@dataclass(frozen=True, eq=True)
class RationalGF:
    """Ratio of two integer polynomials whose denominator has constant term 1."""

    numerator: Terms
    denominator: Terms

    def __post_init__(self):
        object.__setattr__(self, "numerator", {m: c for m, c in self.numerator.items() if c})
        object.__setattr__(self, "denominator", {m: c for m, c in self.denominator.items() if c})
        if self.denominator.get(UNIT, 0) != 1:
            raise ValueError("denominator constant term must be 1")


def expand_rational(gf: RationalGF, x_bound: int) -> TruncatedSeries:
    """Power-series expansion of ``gf`` in x, exact through x^x_bound.

    Requires every non-constant denominator term to have positive
    x-degree, so that coefficient extraction proceeds layer by layer; the
    result is verified by re-multiplication before it is returned.
    """
    denominator = TruncatedSeries(x_bound, gf.denominator)
    den = denominator._layers
    if den[0] != _ONE:
        raise ValueError(
            "denominator must be 1 plus terms of positive x-degree to expand by x"
        )
    numerator = TruncatedSeries(x_bound, gf.numerator)
    shifts = [k for k in range(1, x_bound + 1) if den[k]]

    layers: list[Layer] = []
    for n, layer in enumerate(numerator._layers):
        layer = dict(layer)
        for k in shifts:
            if k > n:
                break
            if layers[n - k]:
                _mul_into(layer, den[k], layers[n - k], -1)
        layers.append(_checked(layer))
    series = TruncatedSeries._of(x_bound, layers)

    if series * denominator != numerator:
        raise ArithmeticError("expansion failed the re-multiplication check")
    return series


def closed_form_F(p: int) -> RationalGF:
    """Rational form of the joint (length, area, semi-perimeter) series.

    Built from the column decomposition: a reset column of height p after
    a column of height j costs x y^p z^(p+1-j), and a descending run from
    p down to i contributes x^(p-i+1) y^((p+i)(p-i+1)/2) z^(2p-i+1) when
    it ends the polyomino.
    """
    validate_alphabet(p)
    denominator = Counter({UNIT: 1, Monomial(x=1, y=p, z=1): -1})
    for i in range(1, p):
        denominator[Monomial(x=p - i + 1, y=(p + i) * (p - i + 1) // 2, z=2 * p - 2 * i + 1)] -= 1
    numerator = denominator.copy()
    for i in range(1, p + 1):
        numerator[Monomial(x=p - i + 1, y=(p + i) * (p - i + 1) // 2, z=2 * p - i + 1)] += 1
    return RationalGF(numerator, denominator)


def closed_form_G(p: int) -> RationalGF:
    """Rational form of the joint (length, inner points) series."""
    validate_alphabet(p)
    denominator = Counter({UNIT: 1})
    for i in range(1, p + 1):
        tail = (p - i) * (p + i - 3)
        denominator[Monomial(x=p - i + 1, q=(tail + 2 * (i - 1)) // 2)] -= 1
    numerator = denominator.copy()
    for i in range(1, p + 1):
        numerator[Monomial(x=p - i + 1, q=(p - i) * (p + i - 3) // 2)] += 1
    return RationalGF(numerator, denominator)


def column_transfer(
    p: int, x_bound: int, start: Monomial, step: Callable[[int, int], Monomial]
) -> TruncatedSeries:
    """Series of all words, built one column at a time.

    Maintains, per height i of the last column, the series of polyominoes
    ending at that height.  ``start`` weighs the first column (height p);
    ``step(j, i)`` weighs a column of height i placed after one of height
    j, for the descent i = j - 1 and the reset i = p.  Weights are read in
    y, z, q only: every column contributes one x.  The empty word
    contributes 1.
    """
    validate_alphabet(p)
    if x_bound < 0:
        raise ValueError(f"x_bound must be >= 0, got {x_bound}")

    def weight(mono: Monomial) -> Layer:
        return {_pack(mono.y, mono.z, mono.q): 1}

    descents = {j: weight(step(j, j - 1)) for j in range(2, p + 1)}
    resets = {j: weight(step(j, p)) for j in range(1, p + 1)}
    state: dict[int, Layer] = {p: weight(start)}
    layers: list[Layer] = [{0: 1}]
    for length in range(1, x_bound + 1):
        if length > 1:
            top: Layer = {}
            for j, prev in state.items():
                _mul_into(top, prev, resets[j])
            state = {j - 1: _mul_into({}, prev, descents[j]) for j, prev in state.items() if j > 1}
            state[p] = top
        layer = dict(state[p])
        for i, poly in state.items():
            if i != p:
                _mul_into(layer, poly, _ONE)
        # coefficients are positive counts, so every state key is checked here
        layers.append(_checked(layer))
    return TruncatedSeries._of(x_bound, layers)


def series_F_dp(p: int, x_bound: int) -> TruncatedSeries:
    """Joint (length, area, semi-perimeter) series by column transfer.

    A column of height i adds y^i and one horizontal unit of
    semi-perimeter, plus the rise over the previous column: a descent to
    height i marks y^i z, a reset to height p after height j marks
    y^p z^(p+1-j).  Must agree with expanding ``closed_form_F`` exactly.
    """
    return column_transfer(
        p, x_bound, Monomial(y=p, z=p + 1), lambda j, i: Monomial(y=i, z=1 + max(i - j, 0))
    )


def series_G_dp(p: int, x_bound: int) -> TruncatedSeries:
    """Joint (length, inner points) series by the same column transfer.

    A new column of height i after a column of height j creates
    min(i, j) - 1 inner points, so descents to height i mark q^(i-1) and
    resets after height j mark q^(j-1).
    """
    return column_transfer(p, x_bound, UNIT, lambda j, i: Monomial(q=min(i, j) - 1))


# ---------------------------------------------------------------------------
# univariate generating functions as coefficient lists


def _poly(*terms: tuple[int, int]) -> list[int]:
    """Coefficient list of the sum of c * x^k over the (k, c) terms."""
    coeffs = [0] * (max(k for k, _ in terms) + 1)
    for k, c in terms:
        coeffs[k] += c
    return coeffs


def _convolve(a: list[int], b: list[int], size: int | None = None) -> list[int]:
    """Coefficients 0 .. size - 1 of the product of two polynomials, all of them by default.

    One shifted copy of ``b``, scaled by a(k), is added per nonzero a(k),
    so pass the sparser list first; a tap of +-1 adds or subtracts ``b``
    itself.
    """
    product = [0] * (len(a) + len(b) - 1 if size is None else size)
    for k, c in enumerate(a):
        if c:
            # the slice stops at the end of product, and map at the shorter input
            term = b if c in (1, -1) else map(mul, repeat(abs(c)), b)
            product[k : k + len(b)] = map(sub if c < 0 else add, product[k : k + len(b)], term)
    return product


def _univariate_gf(fraction: tuple[list[int], list[int]], var: str) -> RationalGF:
    """Wrap the coefficient lists (num, den) of a fraction in ``var`` alone."""
    num, den = ({Monomial(**{var: k}): c for k, c in enumerate(coeffs)} for coeffs in fraction)
    return RationalGF(num, den)


def _total_area_fraction(p: int) -> tuple[list[int], list[int]]:
    validate_alphabet(p)
    base = [1] + [-1] * p
    return [0] + [i * (2 * p - i + 1) // 2 for i in range(1, p + 1)], _convolve(base, base)


def gf_total_area(p: int) -> RationalGF:
    """Generating function whose x^n coefficient is the total area over length-n words.

    The displayed closed form carries a global factor 1/2; the numerator
    coefficients i(2p - i + 1) are always even, so the factor clears into
    exact integers here.
    """
    return _univariate_gf(_total_area_fraction(p), "x")


_ONE_MINUS_X = [1, -1]


def _core(p: int) -> list[int]:
    """core = 1 - 2x + x^(p+1) = (1 - x)(1 - x - ... - x^p), a factor of each totals denominator."""
    return _poly((0, 1), (1, -2), (p + 1, 1))


def _totals_denominator(p: int) -> list[int]:
    """(1 - x)(1 - 2x + x^(p+1))^2, the denominator of the semi-perimeter and inner totals."""
    core = _core(p)
    return _convolve(_ONE_MINUS_X, _convolve(core, core))


def _total_sper_fraction(p: int) -> tuple[list[int], list[int]]:
    """Numerator p x (1 - x)(1 - 2x - 2x^p + 3x^(p+1)) - (x - x^(p+1))(x - 1 - x^2 + x^(p+2))."""
    validate_alphabet(p)
    t1 = _convolve([0, p, -p], _poly((0, 1), (1, -2), (p, -2), (p + 1, 3)))
    t2 = _convolve(_poly((1, 1), (p + 1, -1)), _poly((0, -1), (1, 1), (2, -1), (p + 2, 1)))
    return [a - b for a, b in zip_longest(t1, t2, fillvalue=0)], _totals_denominator(p)


def gf_total_sper(p: int) -> RationalGF:
    """Generating function for the total semi-perimeter over length-n words."""
    return _univariate_gf(_total_sper_fraction(p), "x")


def _total_inner_fraction(p: int) -> tuple[list[int], list[int]]:
    validate_alphabet(p)
    raw = _poly(
        (1, 6 - 4 * p),
        (2, -(2 - 4 * p)),
        (p, -(3 - p) * p),
        (p + 1, -2 * (2 - p) ** 2),
        (p + 2, 2 - 5 * p + p * p),
        (2 * p + 1, 2),
    )
    if any(c % 2 for c in raw):
        raise AssertionError("inner-point numerator coefficients must be even")
    return [0] + [-c // 2 for c in raw], _totals_denominator(p)


def gf_total_inner(p: int) -> RationalGF:
    """Generating function for the total number of inner points over length-n words.

    As with the total area, the displayed form has a factor 1/2 and a
    denominator written with a (x - 1) factor; both are normalized away
    so that numerator and denominator are integer polynomials with
    denominator constant term 1.
    """
    return _univariate_gf(_total_inner_fraction(p), "x")


def _area_counts_fraction(p: int) -> tuple[list[int], list[int]]:
    return [1], _poly((0, 1), *((part, -1) for part in parts_set(p)))


def gf_area_counts(p: int) -> RationalGF:
    """Generating function (in y) counting words by area.

    The y^n coefficient counts the words of digit sum n, equivalently the
    compositions of n with parts in ``parts_set(p)``.  Because the
    denominator has y-degree terms at x-degree 0, this one is expanded by
    the integer recurrence (``area_count_sequence``), not by
    ``expand_rational``.
    """
    return _univariate_gf(_area_counts_fraction(p), "y")


# ---------------------------------------------------------------------------
# univariate sequences as integer recurrences


def _check_remultiplied(coeffs: list[int], num: list[int], den: list[int]) -> None:
    """Raise ArithmeticError unless coeffs * den equals num through len(coeffs) terms.

    The product is built as one shifted, scaled copy of ``coeffs`` per
    nonzero coefficient of ``den`` (``_convolve``), so its cost is the
    number of taps times len(coeffs) big-integer additions, done by
    ``map`` rather than by a Python loop per coefficient.  For the totals
    ``den`` is one sparse factor, 1 - x or core; ``_divide_factored``
    explains why checking every factor proves the identity for the whole
    denominator.
    """
    size = len(coeffs)
    if _convolve(den, coeffs, size) != num[:size] + [0] * (size - len(num)):
        raise ArithmeticError("expansion failed the re-multiplication check")


def _divide(num: list[int], den: list[int], order: int) -> list[int]:
    """Coefficients 0 .. order of num / den, for integer lists with den[0] == 1.

    Reads the linear recurrence off the denominator: the n-th coefficient
    is num[n] minus den[k] times the (n-k)-th, summed over the nonzero
    den[k], k >= 1, so the cost is one big-integer step per tap and
    coefficient.  The totals call it once per sparse factor of their
    denominators (``_divide_factored``); dividing by 1 - x is a running
    sum.  The result is verified by re-multiplication.
    """
    if order < 0:
        raise ValueError(f"x_bound must be >= 0, got {order}")
    coeffs = num[: order + 1] + [0] * (order + 1 - len(num))
    if den == _ONE_MINUS_X:
        coeffs = list(accumulate(coeffs))
    else:
        taps = [(k, -c) for k, c in enumerate(den) if k and c]
        for n in range(1, order + 1):
            value = coeffs[n]
            for k, c in taps:
                if k > n:
                    break
                value += c * coeffs[n - k]
            coeffs[n] = value
    _check_remultiplied(coeffs, num, den)
    return coeffs


def _divide_factored(
    fraction: tuple[list[int], list[int]], factors: list[list[int]], order: int
) -> list[int]:
    """Coefficients 0 .. order of num / den, divided by the factors of den one at a time.

    The factors must multiply out to den, which is checked exactly on the
    short lists first; each stage, c_1 = num / f_1, c_i = c_(i-1) / f_i,
    is checked by re-multiplying by its own factor.  The checks chain:
    through the order, c_1 f_1 = num and each later c_i f_i = c_(i-1), so
    the result times the product of the factors, which is den, equals num:
    the same identity that ``_divide`` checks on the multiplied-out
    denominator.
    """
    num, den = fraction
    if reduce(_convolve, factors) != den:
        raise ArithmeticError("the factors do not multiply out to the denominator")
    for factor in factors:
        num = _divide(num, factor, order)
    return num


def area_count_sequence(p: int, max_area: int) -> list[int]:
    """Counts of words by area for areas 0 .. max_area, expanding ``gf_area_counts``."""
    if max_area < 0:
        raise ValueError(f"max_area must be >= 0, got {max_area}")
    return _divide(*_area_counts_fraction(p), max_area)


def total_area_sequence(p: int, n_max: int) -> list[int]:
    """Total area over all words of length n, for n = 0 .. n_max."""
    num, den = _total_area_fraction(p)
    core = _core(p)
    # num / den = num (1 - x)^2 / core^2, with den (1 - x)^2 = core^2 checked;
    # (1 - x)^2 has constant term 1, so it is invertible as a power series
    # and cancels from the identity the stage checks prove
    lift = [1, -2, 1]
    return _divide_factored((_convolve(lift, num), _convolve(lift, den)), [core, core], n_max)


def total_sper_sequence(p: int, n_max: int) -> list[int]:
    """Total semi-perimeter over all words of length n, for n = 0 .. n_max."""
    fraction = _total_sper_fraction(p)
    core = _core(p)
    return _divide_factored(fraction, [_ONE_MINUS_X, core, core], n_max)


def total_inner_sequence(p: int, n_max: int) -> list[int]:
    """Total inner points over all words of length n, for n = 0 .. n_max."""
    fraction = _total_inner_fraction(p)
    core = _core(p)
    return _divide_factored(fraction, [_ONE_MINUS_X, core, core], n_max)


def sequence_text(coeffs: list[int], var: str) -> str:
    """Text form of the univariate series with these coefficients, as ``to_text`` writes it."""
    terms = [(c, _power(var, n) if n else "") for n, c in enumerate(coeffs) if c]
    return _joined_terms(terms) or "0"


def sequence_terms_json(coeffs: list[int], var: str) -> str:
    """The JSON ``"terms"`` items of the same series, as ``series_terms_json`` writes them."""
    terms = [f'{{"coefficient": {c}, "exponents": {{"{var}": {n}}}}}'
             for n, c in enumerate(coeffs) if c]
    if coeffs and coeffs[0]:
        terms[0] = f'{{"coefficient": {coeffs[0]}, "exponents": {{}}}}'
    return ", ".join(terms)
