"""p-Fibonacci words: validation, counting, ordered enumeration and block sums.

A p-Fibonacci word is a word over the alphabet {1, ..., p} that starts
with the digit p and in which every digit is followed either by the next
smaller digit or by p (after a 1 only p may follow).  The words of length
n are counted by the p-generalized Fibonacci number with index n + 1, and
each word doubles as the column-height profile of a bargraph polyomino.

The alphabet bound p is capped at ``MAX_ALPHABET`` (statistic exponents
grow quadratically in p); adjust the module constant if you really need
larger alphabets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

MAX_ALPHABET = 64
DEFAULT_WORD_CAP = 10_000_000
# words turned into text at once by listing_chunks
LISTING_CHUNK = 4096
# byte values 0-9 to the ASCII digits, other bytes unchanged
_ASCII_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class EnumerationCapError(RuntimeError):
    """Raised when an enumeration would produce more words than allowed."""

    def __init__(self, count: int, cap: int, at_least: bool = False):
        bound = "at least " if at_least else ""
        super().__init__(f"enumeration would visit {bound}{count} words, cap is {cap}")
        self.count = count
        self.cap = cap


def validate_alphabet(p: int) -> None:
    """Reject alphabet bounds outside 1 <= p <= MAX_ALPHABET."""
    if p < 1:
        raise ValueError(f"alphabet bound p must be >= 1, got {p}")
    if p > MAX_ALPHABET:
        raise ValueError(f"alphabet bound p={p} exceeds the limit {MAX_ALPHABET}")


def parts_set(p: int) -> tuple[int, ...]:
    """The p distinct sums p + (p-1) + ... + i of a maximal descending block, ascending."""
    validate_alphabet(p)
    return tuple((p + i) * (p - i + 1) // 2 for i in range(p, 0, -1))


def fibonacci_number(p: int, n: int) -> int:
    """n-th p-generalized Fibonacci number, as an exact integer.

    Each term with index n > 1 is the sum of the previous p terms; the
    value is 1 at index 1 and 0 at indices -p+2 .. 0.  Indices below
    -p+2 are undefined and rejected.

    Two exact methods compute the term:

    * The window loop: F(k+1) = 2 F(k) - F(k-p) over the last p + 1
      terms, n big-int steps whose cost grows with the terms, so about n^2
      bit operations in all.
    * Polynomial reduction (Fiduccia, SIAM J. Comput. 1985): modulo the
      characteristic polynomial chi(x) = x^p - x^(p-1) - ... - x - 1,
      x^m = sum r_i x^i gives F(s + m) = sum r_i F(s + i).  From the
      initial window F(-p+2 .. 1) = 0, ..., 0, 1, F(n) is the x^(p-1)
      coefficient of x^(n+p-2) mod chi, found by square-and-multiply in
      about log2(n) squarings; each squaring is one big-int product of
      the p coefficients packed into one integer (Kronecker substitution).

    Crossover: the reduction runs when n >= 128 p and 3 n >= p^4, the
    window loop otherwise.  Measured on Python 3.11.7, 2-vCPU x86 VM, the
    reduction first beats the loop at n = 280 for p = 2, 550 for p = 5,
    870 for p = 8, 1700 for p = 10, 10000 for p = 15, 39000 for p = 20
    and 94000 for p = 25, and nowhere up to n = 150000 for p = 30; the
    rule errs towards the loop.  At p = 2, n = 50000 the reduction takes
    0.6 ms against the loop's 45 ms; at p = 64, n = 100000 the loop takes
    0.24 s against the reduction's 1.0 s.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if n < -p + 2:
        raise ValueError(f"index {n} is below the first defined index {-p + 2}")
    if n <= 0:
        return 0
    if n == 1:
        return 1
    # for p >= n every earlier term is summed, so a larger p gives the same value
    p = min(p, n)
    if n >= 128 * p and 3 * n >= p**4:
        residue = [1] + [0] * (p - 1)  # x^0
        for bit in bin(n + p - 2)[2:]:
            residue = _square_mod_chi(residue)
            if bit == "1":
                # times x: the top coefficient reaches x^p = x^(p-1) + ... + 1
                top = residue[-1]
                residue = [top] + [c + top for c in residue[:-1]]
        return residue[-1]
    # F(n+1) = 2 F(n) - F(n-p), over a window of the last p + 1 terms; the
    # seed is the window for indices -p+1 .. 1, where F(-p+1) = 1 makes the
    # first step give F(2) = F(1) = 1
    window = deque([1] + [0] * (p - 1) + [1], maxlen=p + 1)
    for _ in range(2, n + 1):
        window.append(2 * window[-1] - window[0])
    return window[-1]


def _square_mod_chi(residue: list[int]) -> list[int]:
    """Square a polynomial of degree < p modulo x^p - x^(p-1) - ... - 1, p = len(residue).

    Reduction only adds, so coefficients stay non-negative and the square
    is one integer product of the coefficients packed into byte slots wide
    enough for a sum of p products.
    """
    p = len(residue)
    width = (2 * max(residue).bit_length() + p.bit_length()) // 8 + 1
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in residue), "little")
    data = (packed * packed).to_bytes((2 * p - 1) * width, "little")
    coeffs = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    # x^d = x^(d-1) + ... + x^(d-p) for d >= p, folded from the top down;
    # carry is the sum of the folded coefficients of degrees d+1 .. d+p that are >= p
    carry = 0
    for d in range(2 * p - 2, -1, -1):
        coeffs[d] += carry
        if d >= p:
            carry += coeffs[d]
        if d <= p - 2:
            carry -= coeffs[d + p]
    return coeffs[:p]


def is_valid_word(p: int, digits: Sequence[int]) -> bool:
    """True iff ``digits`` is a p-Fibonacci word (the empty word is valid)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    digits = tuple(digits)
    if not digits:
        return True
    if digits[0] != p:
        return False
    for a, b in zip(digits, digits[1:]):
        if a == 1:
            if b != p:
                return False
        elif b != a - 1 and b != p:
            return False
    return True


@dataclass(frozen=True)
class FibWord:
    """A validated p-Fibonacci word.

    ``digits`` is the height profile of the induced bargraph polyomino:
    column i carries ``digits[i-1]`` unit cells.
    """

    p: int
    digits: tuple[int, ...] = ()

    def __post_init__(self):
        validate_alphabet(self.p)
        object.__setattr__(self, "digits", tuple(self.digits))
        if not is_valid_word(self.p, self.digits):
            raise ValueError(f"not a valid {self.p}-Fibonacci word: {list(self.digits)}")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        if self.p <= 9:
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)

    @classmethod
    def from_text(cls, p: int, text: str) -> "FibWord":
        """Parse the text ``str`` writes: ``32321``, or ``12,11,12`` when p > 9.

        Text for p > 9 is always split on commas, so ``10`` is one letter.
        """
        text = text.strip()
        if "," in text or (p > 9 and text):
            digits = tuple(int(part) for part in text.split(","))
        else:
            digits = tuple(int(ch) for ch in text)
        return cls(p, digits)


def successor_digits(p: int, last_digit: int | None) -> list[int]:
    """Digits that may extend a word ending in ``last_digit``, ascending.

    The empty word (``last_digit`` None) and a trailing 1 both admit only
    p; any other trailing digit admits the next smaller digit or p.
    """
    if last_digit is None or last_digit == 1:
        return [p]
    return [last_digit - 1, p]


def iter_word_digits(p: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the digit tuples of all length-n words in ascending lexicographic order."""
    validate_alphabet(p)
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    if n == 0:
        yield ()
        return
    # Depth-first over the successor tree with an explicit stack of
    # (depth, digit) choices.  The children are those of successor_digits,
    # inlined because this loop runs once per tree node; they are pushed
    # largest first, so they pop in ascending order.
    prefix: list[int] = []
    stack = [(1, p)]
    while stack:
        depth, d = stack.pop()
        del prefix[depth - 1 :]
        prefix.append(d)
        if depth == n:
            yield tuple(prefix)
        else:
            stack.append((depth + 1, p))
            if d > 1:
                stack.append((depth + 1, d - 1))


def count_words(p: int, n: int) -> int:
    """Number of p-Fibonacci words of length n, without enumerating them."""
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    return fibonacci_number(p, n + 1)


def checked_word_count(p: int, n: int, cap: int) -> int:
    """Number of length-n words, checked against ``cap`` before any word is made.

    A negative n, then p < 1, raise ValueError from ``count_words``; p above
    MAX_ALPHABET raises ValueError before the count, whose cost grows with
    p and n; a count above ``cap`` raises EnumerationCapError.
    """
    if n >= 0 and p > MAX_ALPHABET:
        validate_alphabet(p)
    expected = count_words(p, n)
    if expected > cap:
        raise EnumerationCapError(expected, cap)
    return expected


def checked_total_word_count(p: int, n_max: int, cap: int) -> int:
    """Number of words of lengths 0 .. n_max, checked against ``cap`` as it is summed.

    The sum stops at the first length that takes it past ``cap`` and
    raises EnumerationCapError; the error names "at least" that running
    total when longer lengths were left out, and the exact total when the
    last length was the one that passed the cap.
    """
    validate_alphabet(p)
    total = 0
    for n in range(n_max + 1):
        total += count_words(p, n)
        if total > cap:
            raise EnumerationCapError(total, cap, at_least=n < n_max)
    return total


def enumerate_words(p: int, n: int, cap: int = DEFAULT_WORD_CAP) -> list[FibWord]:
    """All words of length n in ascending lexicographic order.

    Raises EnumerationCapError before doing any work if the word count
    exceeds ``cap``.
    """
    checked_word_count(p, n, cap)
    return [FibWord(p, digits) for digits in iter_word_digits(p, n)]


def listing_chunks(p: int, n: int, sep: str) -> Iterator[str]:
    """The length-n words as text, ``sep`` between words, LISTING_CHUNK words per chunk.

    The chunks add up to ``sep.join(str(w) for w in enumerate_words(p, n))``
    while only one chunk of words is held at a time.  ``sep`` is ASCII
    with no character below "\\n".  No cap is checked here.
    """
    digits = iter_word_digits(p, n)
    joiner = sep.encode("ascii")
    lead = ""
    while chunk := list(islice(digits, LISTING_CHUNK)):
        if p <= 9:
            text = joiner.join(map(bytes, chunk)).translate(_ASCII_DIGITS).decode("ascii")
        else:
            text = sep.join([",".join(map(str, word)) for word in chunk])
        yield lead + text
        lead = sep
