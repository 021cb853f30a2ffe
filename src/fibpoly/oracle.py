"""Brute-force lattice computations used to cross-check every closed form.

Everything in this module is deliberately naive.  Statistics are counted
directly on an explicit cell set by neighbour lookup: a cell side is a
boundary edge when the cell across it is absent, and a lattice point is
inner when its four surrounding cells are all present.  Area counts come
from a pruned search over words.  None of it reuses the formula-based
implementations in ``geometry`` or ``series`` (digit sums, ascents,
minima of neighbouring digits), and nothing here imports ``series``:
independence is the point, so the duplication is intentional.
"""

from __future__ import annotations

from .geometry import PickReport
from .words import (
    DEFAULT_WORD_CAP,
    EnumerationCapError,
    FibWord,
    successor_digits,
    validate_alphabet,
)


def lattice_stats(w: FibWord) -> PickReport:
    """Statistics of a non-empty word counted on the embedded cell set.

    Cells are indexed (column, row) with rows starting at 1, and every
    statistic is read off the set by neighbour lookup.  A cell side is a
    boundary edge exactly when the cell across it is absent; the
    semi-perimeter is half the number of boundary edges.  An inner point is
    a lattice point whose four surrounding cells are all present; each is
    counted once, from the cell whose upper-right corner it is.  Nothing
    here uses the digit-based formulas of ``geometry``, so the report
    checks them instead of repeating them.
    """
    if not w.digits:
        raise ValueError("lattice statistics require a non-empty word")
    cells = {(i, j) for i, h in enumerate(w.digits, start=1) for j in range(1, h + 1)}

    boundary = inn = 0
    for i, j in cells:
        left, below = (i - 1, j) in cells, (i, j - 1) in cells
        right, above = (i + 1, j) in cells, (i, j + 1) in cells
        # each of the four sides with no cell across it is a boundary edge
        boundary += 4 - left - below - right - above
        inn += right and above and (i + 1, j + 1) in cells
    if boundary % 2:
        raise AssertionError("bargraph boundary length must be even")

    return PickReport(area=len(cells), sper=boundary // 2, inn=inn)


def brute_force_area_distribution(
    p: int, max_area: int, cap: int = DEFAULT_WORD_CAP
) -> list[int]:
    """Count words by digit sum, for sums 0 .. max_area, by pruned search.

    Every word whose digit sum fits the bound is visited exactly once;
    the count at sum 0 is 1 for the empty word.
    """
    validate_alphabet(p)
    if max_area < 0:
        raise ValueError(f"max_area must be >= 0, got {max_area}")

    counts = [0] * (max_area + 1)
    counts[0] = 1
    visited = 0
    # Depth-first search with an explicit stack of (last digit, digit sum)
    # nodes; each word is counted when it is pushed.
    stack: list[tuple[int | None, int]] = [(None, 0)]
    while stack:
        last, total = stack.pop()
        for d in successor_digits(p, last):
            s = total + d
            if s > max_area:
                continue
            counts[s] += 1
            visited += 1
            if visited > cap:
                raise EnumerationCapError(visited, cap)
            stack.append((d, s))
    return counts
