"""Structure-preserving conversions for p-Fibonacci words.

Two constructive bijections are realized: words of area n correspond to
compositions of n with parts in ``parts_set(p)`` (split the word into its
maximal descending blocks and record each block sum), and words of length
n correspond to binary words of length n - 1 with no run of p ones (one
bit per transition: 1 for a descent, 0 for a reset to p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping

from .words import FibWord, parts_set, validate_alphabet


@cache
def _blocks(p: int) -> Mapping[int, tuple[int, ...]]:
    """Each block sum for p mapped to its descending block p, p-1, ..., i, built once per p."""
    return MappingProxyType(
        {part: tuple(range(p, i - 1, -1)) for part, i in zip(parts_set(p), range(p, 0, -1))}
    )


@dataclass(frozen=True)
class Composition:
    """Ordered parts, each a valid block sum for the alphabet bound p."""

    p: int
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        validate_alphabet(self.p)
        object.__setattr__(self, "parts", tuple(self.parts))
        blocks = _blocks(self.p)
        for part in self.parts:
            if part not in blocks:
                raise ValueError(
                    f"part {part} is not a block sum for p={self.p} "
                    f"(allowed: {sorted(blocks)})"
                )

    def total(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return ",".join(str(part) for part in self.parts)


@dataclass(frozen=True)
class BinaryWord:
    """Bit sequence with no run of p consecutive ones."""

    p: int
    bits: tuple[int, ...] = ()

    def __post_init__(self):
        validate_alphabet(self.p)
        object.__setattr__(self, "bits", tuple(self.bits))
        if not {*self.bits} <= {0, 1}:
            raise ValueError(f"bits must be 0 or 1: {list(self.bits)}")
        run = 0
        for bit in self.bits:
            run = run + 1 if bit else 0
            if run >= self.p:
                raise ValueError(f"binary word contains {self.p} consecutive ones")

    def __str__(self) -> str:
        return "".join(str(bit) for bit in self.bits)


def word_to_composition(w: FibWord) -> Composition:
    """Record the digit sum of each maximal descending block, in order.

    A block starts at every reset to p, so block sums land in
    ``parts_set(p)`` and add up to the area of the word; the empty word
    maps to the empty composition.
    """
    parts: list[int] = []
    current = 0
    for pos, d in enumerate(w.digits):
        if pos and d == w.p:
            parts.append(current)
            current = 0
        current += d
    if w.digits:
        parts.append(current)
    return Composition(w.p, tuple(parts))


def composition_to_word(c: Composition) -> FibWord:
    """Expand each part back into its descending block and concatenate.

    The part p + (p-1) + ... + i becomes the block p, p-1, ..., i; parts
    admitting no such expansion are rejected when the composition is built.
    """
    blocks = _blocks(c.p)
    digits: list[int] = []
    for part in c.parts:
        digits.extend(blocks[part])
    return FibWord(c.p, tuple(digits))


def word_to_binary(w: FibWord) -> BinaryWord:
    """One bit per transition of a non-empty word: 1 for a descent, 0 for a reset."""
    if not w.digits:
        raise ValueError("the empty word has no transition string")
    bits = tuple(1 if b == a - 1 else 0 for a, b in zip(w.digits, w.digits[1:]))
    return BinaryWord(w.p, bits)


def binary_to_word(b: BinaryWord) -> FibWord:
    """Rebuild the word: start at p, descend on 1, reset to p on 0."""
    digits = [b.p]
    for bit in b.bits:
        digits.append(digits[-1] - 1 if bit else b.p)
    return FibWord(b.p, tuple(digits))
