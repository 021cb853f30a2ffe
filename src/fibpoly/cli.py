"""Command-line interface.

Commands: count, words, stats, series, tables, biject, verify, render.
All output is deterministic; JSON output (where offered) validates against
the schema shipped in ``schemas/cli_output.schema.json``.

Exit codes: 0 success, 2 invalid input, 3 verification failure,
4 enumeration cap exceeded, out of memory, or output stream closed (for
example by ``| head``).  The default cap of 10^7
words can be raised or lowered with --max-words or the FIBPOLY_MAX_WORDS
environment variable.

``words`` streams its listing in chunks of words, in memory that grows
with the word length n but not with the word count; the cap and the
alphabet bound are still checked before any output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import bijections, geometry, reference, series, words
from .verify import run_verification
from .words import DEFAULT_WORD_CAP, EnumerationCapError, FibWord

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3
EXIT_RESOURCE = 4

CAP_ENV_VAR = "FIBPOLY_MAX_WORDS"

SERIES_KINDS = {
    "F": "joint length/area/semi-perimeter series in x, y, z",
    "G": "joint length/inner-point series in x, q",
    "A": "total area by length (series in x)",
    "S": "total semi-perimeter by length (series in x)",
    "I": "total inner points by length (series in x)",
    "D": "word count by area (series in y)",
}


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _resolve_cap(args: argparse.Namespace) -> int:
    if args.max_words is not None:
        if args.max_words < 1:
            raise ValueError("--max-words must be >= 1")
        return args.max_words
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
        if cap < 1:
            raise ValueError(f"{CAP_ENV_VAR} must be >= 1, got {cap}")
        return cap
    return DEFAULT_WORD_CAP


# ---------------------------------------------------------------------------
# command handlers


def cmd_count(args: argparse.Namespace) -> int:
    value = words.count_words(args.p, args.n)
    if args.format == "json":
        _emit_json({"command": "count", "p": args.p, "n": args.n, "count": value})
    else:
        print(value)
    return EXIT_OK


def cmd_words(args: argparse.Namespace) -> int:
    count = words.checked_word_count(args.p, args.n, _resolve_cap(args))
    if args.format == "json":
        # json.dumps(..., sort_keys=True) of the payload, written piece by piece
        head = (f'{{"command": "words", "count": {count}, "n": {args.n}, '
                f'"p": {args.p}, "words": ["')
        sep, tail = '", "', '"]}\n'
    else:
        head, sep, tail = "", "\n", "\n"
    write = sys.stdout.write
    write(head)
    for chunk in words.listing_chunks(args.p, args.n, sep):
        write(chunk)
    write(tail)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    word = FibWord.from_text(args.p, args.word)
    report = geometry.pick_report(word)
    _emit_json(
        {
            "command": "stats",
            "p": args.p,
            "word": str(word),
            "area": report.area,
            "sper": report.sper,
            "inn": report.inn,
            "pick_holds": report.pick_holds,
        }
    )
    return EXIT_OK


def _build_sequence(p: int, kind: str, order: int) -> list[int]:
    """Coefficients 0 .. order of a univariate kind: A, S, I (in x) or D (in y)."""
    if kind == "A":
        return series.total_area_sequence(p, order)
    if kind == "S":
        return series.total_sper_sequence(p, order)
    if kind == "I":
        return series.total_inner_sequence(p, order)
    return series.area_count_sequence(p, order)


def cmd_series(args: argparse.Namespace) -> int:
    as_json = args.format == "json"
    if args.kind in ("F", "G"):
        closed_form = series.closed_form_F if args.kind == "F" else series.closed_form_G
        expansion = series.expand_rational(closed_form(args.p), args.order)
        output = expansion.to_json_terms() if as_json else expansion.to_text()
    else:
        coeffs = _build_sequence(args.p, args.kind, args.order)
        var = "y" if args.kind == "D" else "x"
        output = (series.sequence_json_terms(coeffs, var) if as_json
                  else series.sequence_text(coeffs, var))
    if as_json:
        _emit_json(
            {
                "command": "series",
                "p": args.p,
                "kind": args.kind,
                "order": args.order,
                "terms": output,
            }
        )
    else:
        print(output)
    return EXIT_OK


TABLE_KINDS = {1: "A", 2: "D", 3: "S", 4: "I"}


def table_discrepancies(which: int, rows: dict[int, list[int]]) -> list[dict]:
    """Cells where a computed row disagrees with the published table."""
    published = reference.PUBLISHED_TABLES[which]
    found = []
    for p, values in sorted(rows.items()):
        row = published.get(p)
        if row is None:
            continue
        for n, value in enumerate(values, start=1):
            if n <= len(row) and value != row[n - 1]:
                found.append({"p": p, "n": n, "computed": value, "published": row[n - 1]})
    return found


def cmd_tables(args: argparse.Namespace) -> int:
    if args.pmax < 2:
        raise ValueError("--pmax must be >= 2")
    if args.nmax < 1:
        raise ValueError("--nmax must be >= 1")
    kind = TABLE_KINDS[args.which]
    rows = {p: _build_sequence(p, kind, args.nmax)[1:] for p in range(2, args.pmax + 1)}
    discrepancies = table_discrepancies(args.which, rows)
    if args.format == "json":
        _emit_json(
            {
                "command": "tables",
                "which": args.which,
                "title": reference.TABLE_TITLES[args.which],
                "pmax": args.pmax,
                "nmax": args.nmax,
                "rows": [{"p": p, "values": values} for p, values in sorted(rows.items())],
                "discrepancies": discrepancies,
            }
        )
    else:
        print(",".join(map(str, ["p", *range(1, args.nmax + 1)])))
        for p, values in sorted(rows.items()):
            print(",".join(map(str, [p, *values])))
        for item in discrepancies:
            print(
                f"# mismatch vs published table {args.which}: p={item['p']} n={item['n']} "
                f"computed={item['computed']} published={item['published']}"
            )
    return EXIT_OK


def _parse_biject_source(args: argparse.Namespace) -> tuple[str, str, FibWord]:
    given = [
        (kind, value)
        for kind, value in (
            ("word", args.word),
            ("composition", args.composition),
            ("binary", args.binary),
        )
        if value is not None
    ]
    if len(given) != 1:
        raise ValueError("provide exactly one of --word, --composition, --binary")
    kind, value = given[0]
    if kind == "word":
        return kind, value, FibWord.from_text(args.p, value)
    if kind == "composition":
        parts = tuple(int(part) for part in value.split(",")) if value.strip() else ()
        return kind, value, bijections.composition_to_word(bijections.Composition(args.p, parts))
    bits = tuple(int(ch) for ch in value.strip())
    return kind, value, bijections.binary_to_word(bijections.BinaryWord(args.p, bits))


def cmd_biject(args: argparse.Namespace) -> int:
    from_kind, from_value, word = _parse_biject_source(args)
    if args.to == "word":
        converted = str(word)
    elif args.to == "composition":
        converted = str(bijections.word_to_composition(word))
    else:
        converted = str(bijections.word_to_binary(word))
    if args.format == "json":
        _emit_json(
            {
                "command": "biject",
                "p": args.p,
                "from_kind": from_kind,
                "from_value": from_value,
                "to_kind": args.to,
                "value": converted,
            }
        )
    else:
        print(converted)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    word = FibWord.from_text(args.p, args.word)
    if args.format == "svg":
        print(geometry.render_svg(word))
    else:
        drawing = geometry.render_ascii(word, glyph=args.glyph)
        if drawing:
            print(drawing)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification


def cmd_verify(args: argparse.Namespace) -> int:
    if args.nmax < 1:
        raise ValueError("--nmax must be >= 1")
    checks = run_verification(args.p, args.nmax, cap=_resolve_cap(args))
    all_passed = all(check.passed for check in checks)
    if args.format == "json":
        _emit_json(
            {
                "command": "verify",
                "p": args.p,
                "nmax": args.nmax,
                "all_passed": all_passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
                ],
            }
        )
    else:
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status}  {check.name:<24} {check.detail}")
        print(f"{'PASS' if all_passed else 'FAIL'}  overall")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibpoly",
        description="Enumerate p-Fibonacci words and compute exact statistics "
        "of their bargraph polyominoes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p(sp):
        sp.add_argument("--p", type=int, required=True, help="alphabet bound (>= 1)")

    def add_cap(sp):
        sp.add_argument(
            "--max-words",
            type=int,
            default=None,
            help=f"enumeration cap (default {DEFAULT_WORD_CAP}, env {CAP_ENV_VAR})",
        )

    sp = sub.add_parser("count", help="number of words of a given length")
    add_p(sp)
    sp.add_argument("--n", type=int, required=True, help="word length (>= 0)")
    sp.add_argument("--format", choices=["plain", "json"], default="plain")

    sp = sub.add_parser("words", help="list all words of a given length")
    add_p(sp)
    sp.add_argument("--n", type=int, required=True, help="word length (>= 0)")
    sp.add_argument("--format", choices=["plain", "json"], default="plain")
    add_cap(sp)

    sp = sub.add_parser("stats", help="area, semi-perimeter and inner points of one word")
    add_p(sp)
    sp.add_argument("--word", required=True, help="digit string, e.g. 32321")

    sp = sub.add_parser("series", help="expand a generating function")
    add_p(sp)
    sp.add_argument("--kind", choices=sorted(SERIES_KINDS), required=True,
                    help="; ".join(f"{k}: {v}" for k, v in SERIES_KINDS.items()))
    sp.add_argument("--order", type=int, required=True, help="expansion order (>= 0)")
    sp.add_argument("--format", choices=["plain", "json"], default="plain")

    sp = sub.add_parser("tables", help="reproduce a summary table")
    sp.add_argument("--which", type=int, choices=[1, 2, 3, 4], required=True)
    sp.add_argument("--pmax", type=int, default=5)
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("biject", help="convert between word, composition and binary forms")
    add_p(sp)
    sp.add_argument("--word", default=None)
    sp.add_argument("--composition", default=None, help="comma-separated parts, e.g. 6,5")
    sp.add_argument("--binary", default=None, help="bit string, e.g. 1010")
    sp.add_argument("--to", choices=["word", "composition", "binary"], required=True)
    sp.add_argument("--format", choices=["plain", "json"], default="plain")

    sp = sub.add_parser("verify", help="run all cross-checks for one alphabet bound")
    add_p(sp)
    sp.add_argument("--nmax", type=int, required=True, help="largest word length checked")
    sp.add_argument("--format", choices=["plain", "json"], default="plain")
    add_cap(sp)

    sp = sub.add_parser("render", help="draw the bargraph of one word")
    add_p(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    sp.add_argument("--glyph", default="#", help="cell character for ascii output")

    return parser


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int/str digit limit (Python >= 3.10.7) and restore it on exit.

    Exact answers such as word counts run past the default 4300 digits;
    the limit stays in force while argv is parsed.
    """
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call rather than at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a replaced ``cmd_*`` handler takes effect
    handler = globals()[f"cmd_{args.command}"]
    try:
        with _unlimited_int_digits():
            code = handler(args)
        # a reader that went away after the last write shows only on flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        print("fibpoly: output closed", file=sys.stderr)
        return EXIT_RESOURCE
    except EnumerationCapError as exc:
        print(f"fibpoly: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("fibpoly: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"fibpoly: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # main has reported the closed pipe, but the unwritten output is still
        # buffered; aim fd 1 at the null device so the flush at exit cannot
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
