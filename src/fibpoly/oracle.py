"""Brute-force lattice computations used to cross-check every closed form.

Everything in this module is deliberately naive.  Statistics are counted
directly on an explicit cell set by neighbour lookup: a cell side is a
boundary edge when the cell across it is absent, and a lattice point is
inner when its four surrounding cells are all present.  The cell set is
held as one bit mask per column, so each lookup covers a whole column at
once and every count is a popcount.  Area counts come from a pruned search
over words.  None of it reuses the formula-based implementations in
``geometry`` or ``series`` (digit sums, ascents, minima of neighbouring
digits), and nothing here imports ``series``: independence is the point,
so the duplication is intentional.
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

    Cells are indexed (column, row) with rows starting at 1.  Column i is
    held as a bit mask ``col`` whose bit j-1 is cell (i, j), with empty
    columns 0 and n+1 on either side, and every statistic is read off the
    masks by neighbour lookup.  A cell side is a boundary edge exactly when
    the cell across it is absent, so the boundary edges of a column are the
    bits of ``col & ~nbr`` for each neighbour mask: the columns to the left
    and right, ``col << 1`` (the cells below) and ``col >> 1`` (the cells
    above).  The semi-perimeter is half the number of boundary edges.  An
    inner point is a lattice point whose four surrounding cells are all
    present; each is counted once, from the cell whose upper-right corner
    it is.  Nothing here uses the digit-based formulas of ``geometry``, so
    the report checks them instead of repeating them.
    """
    if not w.digits:
        raise ValueError("lattice statistics require a non-empty word")
    cols = [0, *[(1 << h) - 1 for h in w.digits], 0]

    area = boundary = inn = 0
    for left, col, right in zip(cols, cols[1:], cols[2:]):
        area += col.bit_count()
        # each cell side with no cell across it is a boundary edge
        boundary += (
            (col & ~left).bit_count()
            + (col & ~right).bit_count()
            + (col & ~(col << 1)).bit_count()
            + (col & ~(col >> 1)).bit_count()
        )
        # cells whose right, upper and upper-right neighbours are all present
        inn += (col & right & (col >> 1) & (right >> 1)).bit_count()
    if boundary % 2:
        raise AssertionError("bargraph boundary length must be even")

    return PickReport(area=area, sper=boundary // 2, inn=inn)


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
