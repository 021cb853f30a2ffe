"""Geometric statistics of the bargraph polyomino induced by a word.

Column i of the bargraph occupies the cells [i-1, i] x [j-1, j] for
j = 1 .. digits[i-1].  All statistics here are closed forms in the digit
sequence; the oracle module recomputes them directly on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import FibWord


@dataclass(frozen=True)
class PickReport:
    """Area, semi-perimeter and interior-point count of one polyomino."""

    area: int
    sper: int
    inn: int

    @property
    def pick_holds(self) -> bool:
        """Lattice-polygon identity: area equals inn + sper - 1."""
        return self.area == self.inn + self.sper - 1


def area(w: FibWord) -> int:
    """Number of unit cells: the digit sum."""
    return sum(w.digits)


def semiperimeter(w: FibWord) -> int:
    """Half the boundary length: length + first digit + sum of ascents."""
    if not w.digits:
        return 0
    ascents = sum(max(0, b - a) for a, b in zip(w.digits, w.digits[1:]))
    return len(w.digits) + w.digits[0] + ascents


def inner_points(w: FibWord) -> int:
    """Lattice points surrounded by four cells: sum of min(neighbor heights) - 1."""
    return sum(min(a, b) - 1 for a, b in zip(w.digits, w.digits[1:]))


def pick_report(w: FibWord) -> PickReport:
    """The three statistics of a non-empty word, from one pass over its digit pairs.

    The forms are those of ``area``, ``semiperimeter`` and ``inner_points``:
    the digit sum, length + first digit + sum of ascents, and the sum of
    min(neighbor heights) - 1; each is summed on its own.
    """
    d = w.digits
    if not d:
        raise ValueError("statistics report requires a non-empty word")
    ascents = inn = 0
    for a, b in zip(d, d[1:]):
        if b > a:
            ascents += b - a
        inn += (a if a < b else b) - 1
    return PickReport(area=sum(d), sper=len(d) + d[0] + ascents, inn=inn)


def render_ascii(w: FibWord, glyph: str = "#") -> str:
    """Monospace drawing of the bargraph, one character column per digit.

    Columns are bottom-aligned; the empty word renders as the empty string.
    """
    if len(glyph) != 1:
        raise ValueError("glyph must be a single character")
    if not w.digits:
        return ""
    top = max(w.digits)
    lines = []
    for level in range(top, 0, -1):
        lines.append("".join(glyph if h >= level else " " for h in w.digits).rstrip())
    return "\n".join(lines)


def render_svg(w: FibWord) -> str:
    """Self-contained SVG drawing of the bargraph, one 24-pixel rect per unit cell."""
    cell = 24
    n = len(w)
    height = max(w.digits) if w.digits else 0
    width_px, height_px = n * cell, height * cell
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width_px}" height="{height_px}" viewBox="0 0 {width_px} {height_px}">'
    ]
    for i, h in enumerate(w.digits, start=1):
        for j in range(1, h + 1):
            x = (i - 1) * cell
            y = (height - j) * cell
            lines.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                'fill="#8fbc8f" stroke="#333333" stroke-width="1"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines)
