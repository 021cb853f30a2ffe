"""Exact combinatorics of p-Fibonacci words and their bargraph polyominoes.

The package enumerates the words, computes area / semi-perimeter /
inner-point statistics of the polyominoes they induce, expands the
associated generating functions with exact integer arithmetic, realizes
the bijections with restricted compositions and with binary words
avoiding p consecutive ones, and cross-checks everything against a
deliberately naive lattice oracle.
"""

from .bijections import (
    BinaryWord,
    Composition,
    binary_to_word,
    composition_to_word,
    word_to_binary,
    word_to_composition,
)
from .geometry import (
    PickReport,
    area,
    inner_points,
    pick_report,
    render_ascii,
    semiperimeter,
)
from .oracle import (
    brute_force_area_distribution,
    lattice_stats,
)
from .series import (
    Monomial,
    RationalGF,
    TruncatedSeries,
    area_count_sequence,
    closed_form_F,
    closed_form_G,
    expand_rational,
    gf_area_counts,
    gf_total_area,
    gf_total_inner,
    gf_total_sper,
    series_F_dp,
    series_G_dp,
    total_area_sequence,
    total_inner_sequence,
    total_sper_sequence,
)
from .words import (
    DEFAULT_WORD_CAP,
    MAX_ALPHABET,
    EnumerationCapError,
    FibWord,
    count_words,
    enumerate_words,
    fibonacci_number,
    is_valid_word,
    parts_set,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryWord",
    "Composition",
    "DEFAULT_WORD_CAP",
    "EnumerationCapError",
    "FibWord",
    "MAX_ALPHABET",
    "Monomial",
    "PickReport",
    "RationalGF",
    "TruncatedSeries",
    "area",
    "area_count_sequence",
    "binary_to_word",
    "brute_force_area_distribution",
    "closed_form_F",
    "closed_form_G",
    "composition_to_word",
    "count_words",
    "enumerate_words",
    "expand_rational",
    "fibonacci_number",
    "gf_area_counts",
    "gf_total_area",
    "gf_total_inner",
    "gf_total_sper",
    "inner_points",
    "is_valid_word",
    "lattice_stats",
    "parts_set",
    "pick_report",
    "render_ascii",
    "semiperimeter",
    "series_F_dp",
    "series_G_dp",
    "total_area_sequence",
    "total_inner_sequence",
    "total_sper_sequence",
    "word_to_binary",
    "word_to_composition",
]
