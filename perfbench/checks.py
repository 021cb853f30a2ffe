"""Correctness checks for the output of each request class.

Each check compares what fibpoly printed (or returned) with numbers from
``facts``.  Parsers stream over the text with regular expressions and keep
only per-degree sums, so checking a large expansion allocates little.
A check returns None when the output is right and a reason when it is not.
"""

from __future__ import annotations

import json
import re

import facts
from workloads import RECURSION, STR_LIMIT, Op

# Reduction modulus for the count = inn + sper - area check across outputs.
_MOD = (1 << 61) - 1

_TOKEN = re.compile(r" ?(?:(\()|\)\*x(?:\^(\d+))?|([+-])|([^\s()+-]+))")
_JSON_TERM = re.compile(r'\{"coefficient": (-?\d+), "exponents": \{([^}]*)\}\}')
_JSON_EXP = re.compile(r'"([xyzq])": (\d+)')
_VARIABLES = "xyzq"


def _term(body: str, sign: int) -> tuple[int, tuple[int, int, int, int]]:
    factors = body.split("*")
    coeff = 1
    if factors[0].isdigit():
        coeff = int(factors.pop(0))
    exps = [0, 0, 0, 0]
    for factor in factors:
        var, _, exp = factor.partition("^")
        exps[_VARIABLES.index(var)] = int(exp) if exp else 1
    return sign * coeff, tuple(exps)


def parse_plain_series(text: str):
    """Yield (coefficient, (x, y, z, q)) from the canonical text rendering."""
    sign, group, pos = 1, None, 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"unparsed text at offset {pos}")
        pos = m.end()
        open_paren, close_exp, op, body = m.groups()
        if open_paren:
            group = []
        elif op:
            sign = -1 if op == "-" else 1
        elif body:
            term = _term(body, sign)
            sign = 1
            if group is None:
                yield term
            else:
                group.append(term)
        else:  # ")*x^n" closes a group of terms sharing x^n
            x = int(close_exp) if close_exp else 1
            for coeff, (_, y, z, q) in group:
                yield coeff, (x, y, z, q)
            group = None
    if pos != len(text):
        raise ValueError(f"unparsed text at offset {pos}")


def parse_json_series(text: str, op: Op):
    """Yield (coefficient, (x, y, z, q)) from a ``series --format json`` document."""
    head = text[:text.index('"terms"')]
    expected = f'"command": "series", "kind": "{op.sub}", "order": {op.n}, "p": {op.p}'
    if expected not in head:
        raise ValueError(f"header {head[:120]!r} lacks {expected!r}")
    seen = 0
    for m in _JSON_TERM.finditer(text):
        seen += 1
        exps = [0, 0, 0, 0]
        for var, exp in _JSON_EXP.findall(m.group(2)):
            exps[_VARIABLES.index(var)] = int(exp)
        yield int(m.group(1)), tuple(exps)
    if seen != text.count('"coefficient"'):
        raise ValueError("some JSON terms did not parse")


def _series_sums(terms, op: Op) -> list[list[int]]:
    """Per-degree sums: count, and the count weighted by each variable's exponent."""
    size = op.n + 1
    sums = [[0] * size for _ in range(5)]
    free = {"F": (0, 1, 2), "G": (0, 3)}.get(op.sub, (1,) if op.sub == "D" else (0,))
    for coeff, mono in terms:
        bad = [v for i, v in enumerate(_VARIABLES) if mono[i] and i not in free]
        if bad:
            raise ValueError(f"term carries variable {bad[0]} outside kind {op.sub}")
        degree = mono[1] if op.sub == "D" else mono[0]
        if degree > op.n:
            raise ValueError(f"term of degree {degree} beyond order {op.n}")
        sums[0][degree] += coeff
        for i in range(4):
            sums[i + 1][degree] += coeff * mono[i]
    return sums


def check_series(op: Op, terms, asi: dict) -> str | None:
    """F/G: y=z=1 and q=1 give the word counts, moments give the totals.
    A/S/I: coefficients are the totals by length.  D: counts by area."""
    sums = _series_sums(terms, op)
    if op.sub == "D":
        return None if sums[0] == facts.area_counts(op.p, op.n) else "area counts differ"
    totals = facts.length_totals(op.p, op.n)
    columns = list(zip(*totals))  # count, area, sper, inner by length
    if op.sub == "F":
        got = (sums[0], sums[2], sums[3])
        want = (list(columns[0]), list(columns[1]), list(columns[2]))
    elif op.sub == "G":
        got, want = (sums[0], sums[4]), (list(columns[0]), list(columns[3]))
    else:
        column = columns["ASI".index(op.sub) + 1]
        got, want = (sums[0],), (list(column),)
        residual = asi.setdefault((op.p, op.n), [c % _MOD for c in columns[0]])
        sign = 1 if op.sub == "A" else -1
        for i, value in enumerate(sums[0]):
            residual[i] = (residual[i] + sign * value) % _MOD
    for g, w, name in zip(got, want, ("sums", "moment 1", "moment 2")):
        if g != w:
            n = next(i for i, (a, b) in enumerate(zip(g, w)) if a != b)
            return f"{name} differ at x^{n}: {g[n]} != {w[n]}"
    return None


def check_asi_identity(asi: dict) -> list[str]:
    """count = inn + sper - area for every length n >= 1, across the A, S, I outputs."""
    return [
        f"count = inn + sper - area fails for p={p}, order {order}"
        for (p, order), residual in asi.items()
        if any(residual[1:])
    ]


def check_verify(op: Op, text: str) -> str | None:
    total = facts.words_through(op.p, op.n)
    words_detail = f"{total} words with n <= {op.n}, 0 violations"
    if op.fmt == "json":
        data = json.loads(text)
        if not (data["all_passed"] and all(c["passed"] for c in data["checks"])):
            return "verify reports a failed check"
        details = [c["detail"] for c in data["checks"] if c["name"] == "pick-identity-per-word"]
    else:
        lines = text.splitlines()
        if lines[-1] != "PASS  overall" or not all(line.startswith("PASS") for line in lines):
            return "verify reports a failed check"
        details = [line.split(None, 2)[2] for line in lines if "pick-identity-per-word" in line]
    return None if details == [words_detail] else f"expected {words_detail!r}, got {details}"


def check_words(op: Op, text: str) -> str | None:
    if op.fmt == "json":
        data = json.loads(text)
        listed = data["words"]
        if data["count"] != len(listed):
            return "count field disagrees with the listing"
    else:
        listed = text.splitlines()
    expected = facts.word_count(op.p, op.n)
    if len(listed) != expected:
        return f"{len(listed)} words listed, {expected} exist"
    if not all(facts.is_word(op.p, w, op.n) for w in listed):
        return "listing holds a word that is not a p-Fibonacci word of this length"
    if any(a >= b for a, b in zip(listed, listed[1:])):
        return "listing is not in strictly ascending order"
    return None


# The published table 2 has one misprinted cell, which fibpoly must report
# as a discrepancy; every other published cell agrees with the recurrences.
EXPECTED_DISCREPANCIES = {2: [{"p": 2, "n": 9, "computed": 5, "published": 4}]}


def check_tables(op: Op, text: str) -> str | None:
    which = int(op.sub)
    rows = {}
    for p in range(2, op.p + 1):
        if which == 2:
            rows[p] = facts.area_counts(p, op.n)[1:]
        else:
            column = {1: 1, 3: 2, 4: 3}[which]
            rows[p] = [row[column] for row in facts.length_totals(p, op.n)[1:]]
    expected = [d for d in EXPECTED_DISCREPANCIES.get(which, ()) if d["n"] <= op.n]
    if any(rows[d["p"]][d["n"] - 1] != d["computed"] for d in expected):
        raise AssertionError("the misprinted cell is not where the benchmark expects it")
    if op.fmt == "json":
        data = json.loads(text)
        got_rows = {row["p"]: row["values"] for row in data["rows"]}
        got_discrepancies = data["discrepancies"]
    else:
        lines = text.splitlines()
        if lines[0] != ",".join(["p"] + [str(n) for n in range(1, op.n + 1)]):
            return "unexpected CSV header"
        got_rows = {}
        got_discrepancies = []
        for line in lines[1:]:
            if line.startswith("# mismatch"):
                fields = dict(f.split("=") for f in line.split(": ", 1)[1].split())
                got_discrepancies.append({k: int(v) for k, v in fields.items()})
            else:
                p, *values = (int(v) for v in line.split(","))
                got_rows[p] = values
    if got_rows != rows:
        return "table rows differ from the recurrences"
    if got_discrepancies != expected:
        return f"discrepancies {got_discrepancies} != expected {expected}"
    return None


def check_count(op: Op, text: str) -> str | None:
    if op.fmt == "json":
        m = re.fullmatch(r'\{"command": "count", "count": (\d+), "n": (\d+), "p": (\d+)\}\n', text)
        if not m or (int(m.group(2)), int(m.group(3))) != (op.n, op.p):
            return "malformed count JSON"
        digits = m.group(1)
    else:
        digits = text.rstrip("\n")
    expected = facts.word_count(op.p, op.n)
    return None if facts.decimal_to_int(digits) == expected else "count differs from recurrence"


def check_output(op: Op, text: str, result, asi: dict) -> str | None:
    """Check a request that exited 0; ``result`` is the library return value."""
    try:
        if op.kind == "lib":
            if result.x_bound != op.n:
                return f"x_bound {result.x_bound} != {op.n}"
            return check_series(op, ((c, tuple(m)) for m, c in result.terms.items()), asi)
        if op.kind == "series":
            if op.fmt == "json":
                return check_series(op, parse_json_series(text, op), asi)
            return check_series(op, parse_plain_series(text.rstrip("\n")), asi)
        return {"verify": check_verify, "words": check_words, "tables": check_tables,
                "count": check_count}[op.kind](op, text)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def matches_defect(op: Op, code, exc_type: str | None, stderr: str) -> bool:
    """True iff a failed request failed the way its predicted defect does."""
    if op.defect == RECURSION:
        return exc_type == "RecursionError"
    if op.defect == STR_LIMIT:
        return code == 2 and "integer string conversion" in stderr
    return False
