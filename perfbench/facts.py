"""Numbers the benchmark derives on its own, without calling fibpoly.

Everything follows from the definition of a p-Fibonacci word: it starts
with p, and a digit d is followed by d - 1 (when d > 1) or by p.  So a word
is a run of descending blocks p, p-1, ..., i; words of length n are
compositions of n into parts 1..p, and words of area a are compositions of
a into block sums.  Output checks compare fibpoly against these values.
"""

from __future__ import annotations

import re
import sys
from collections import deque

_DECIMAL = re.compile(r"[0-9]+")
_CHUNK = 4000  # stays below the interpreter's int/str conversion limit


def word_count(p: int, n: int) -> int:
    """Number of words of length n: compositions of n into parts 1..p."""
    window = deque([1])
    total = value = 1
    for _ in range(n):
        value = total
        window.append(value)
        total += value
        if len(window) > p:
            total -= window.popleft()
    return value


def words_through(p: int, n_max: int) -> int:
    """Number of words of every length 0 .. n_max."""
    return sum(word_count(p, n) for n in range(n_max + 1))


def length_totals(p: int, n_max: int) -> list[tuple[int, int, int, int]]:
    """Per length n = 0 .. n_max: (word count, total area, total sper, total inner).

    A dynamic programme over the last digit.  Appending digit b after a
    adds b cells, one column plus the ascent max(0, b - a) to the
    semi-perimeter, and min(a, b) - 1 inner points.
    """
    rows = [(1, 0, 0, 0)]
    state = {p: (1, p, p + 1, 0)} if n_max >= 1 else {}
    for n in range(1, n_max + 1):
        if n > 1:
            nxt: dict[int, tuple[int, int, int, int]] = {}
            for a, (c, area, sper, inner) in state.items():
                for b in (a - 1, p) if a > 1 else (p,):
                    old = nxt.get(b, (0, 0, 0, 0))
                    nxt[b] = (
                        old[0] + c,
                        old[1] + area + c * b,
                        old[2] + sper + c * (1 + max(0, b - a)),
                        old[3] + inner + c * (min(a, b) - 1),
                    )
            state = nxt
        row = tuple(sum(v[i] for v in state.values()) for i in range(4))
        if row[0] != row[3] + row[2] - row[1]:
            raise AssertionError(f"count = inn + sper - area fails at p={p}, n={n}")
        rows.append(row)
    return rows


def area_counts(p: int, a_max: int) -> list[int]:
    """Number of words of area a, for a = 0 .. a_max."""
    blocks = [sum(range(p, p - length, -1)) for length in range(1, p + 1)]
    counts = [1] + [0] * a_max
    for a in range(1, a_max + 1):
        counts[a] = sum(counts[a - b] for b in blocks if b <= a)
    return counts


def is_word(p: int, text: str, n: int) -> bool:
    """True iff ``text`` spells a p-Fibonacci word of length n (p <= 9)."""
    if len(text) != n or not _DECIMAL.fullmatch(text):
        return False
    digits = [int(ch) for ch in text]
    if digits[0] != p:
        return False
    return all(b == p or (b == a - 1 and b >= 1) for a, b in zip(digits, digits[1:]))


def decimal_to_int(text: str) -> int:
    """Exact value of a decimal string of any length.

    Converts in chunks, so it works on numbers longer than the
    interpreter's int/str digit limit without raising that limit.
    """
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal number: {text[:40]!r}")
    value = 0
    for i in range(0, len(text), _CHUNK):
        chunk = text[i:i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def exceeds_str_limit(value: int) -> bool:
    """True iff str(value) raises under the interpreter's digit limit."""
    limit = sys.get_int_max_str_digits()
    return limit > 0 and abs(value) >= 10 ** limit
