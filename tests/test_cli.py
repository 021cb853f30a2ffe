import csv
import io
import json
import sys

import jsonschema
import pytest

from fibpoly import bijections, oracle, series
from fibpoly.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAILED,
    main,
    output_schema,
    render_svg,
    run_verification,
    table_discrepancies,
)
from fibpoly.geometry import PickReport
from fibpoly.words import FibWord, count_words


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(payload):
    jsonschema.validate(payload, output_schema())


# ---------------------------------------------------------------------------
# count / words / stats


def test_count_plain(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--n", "4")
    assert code == EXIT_OK
    assert out == "7\n"


def test_count_corner_cases(capsys):
    assert run_cli(capsys, "count", "--p", "2", "--n", "0")[1] == "1\n"
    assert run_cli(capsys, "count", "--p", "4", "--n", "5")[1] == "15\n"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--n", "4", "--format", "json")
    payload = json.loads(out)
    check_schema(payload)
    assert payload == {"command": "count", "p": 3, "n": 4, "count": 7}


def test_count_invalid_input(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "0", "--n", "4")
    assert code == EXIT_INVALID
    assert "p must be" in err


def test_count_huge_alphabet(capsys):
    # p >= n sums every earlier term: the answer must not cost memory in p
    code, out, _ = run_cli(capsys, "count", "--p", "100000000", "--n", "3")
    assert (code, out) == (EXIT_OK, "4\n")


def _decimal_digits(value):
    """str(value) past the int/str digit limit, with the limit restored after."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(saved)


def test_count_beyond_int_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    expected = _decimal_digits(count_words(2, 50000))
    assert len(expected) == 10450
    code, out, err = run_cli(capsys, "count", "--p", "2", "--n", "50000")
    assert (code, out, err) == (EXIT_OK, expected + "\n", "")
    code, out, _ = run_cli(capsys, "count", "--p", "2", "--n", "50000", "--format", "json")
    assert code == EXIT_OK
    assert out == f'{{"command": "count", "count": {expected}, "n": 50000, "p": 2}}\n'
    assert sys.get_int_max_str_digits() == limit


def test_argv_keeps_the_int_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit):
        main(["count", "--p", "2", "--n", "9" * (limit + 1)])
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == limit


def test_words_plain(capsys):
    code, out, _ = run_cli(capsys, "words", "--p", "3", "--n", "4")
    assert code == EXIT_OK
    assert out.splitlines() == ["3213", "3232", "3233", "3321", "3323", "3332", "3333"]
    assert run_cli(capsys, "words", "--p", "2", "--n", "1")[1] == "2\n"


def test_words_json(capsys):
    code, out, _ = run_cli(capsys, "words", "--p", "2", "--n", "3", "--format", "json")
    payload = json.loads(out)
    check_schema(payload)
    assert payload["words"] == ["212", "221", "222"]
    assert payload["count"] == 3


def test_words_p1_long_word(capsys):
    # one word per length for p = 1; enumeration must not recurse per digit
    code, out, _ = run_cli(capsys, "words", "--p", "1", "--n", "3000")
    assert code == EXIT_OK
    assert out == "1" * 3000 + "\n"


def test_words_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "words", "--p", "2", "--n", "60", "--max-words", "100")
    assert code == EXIT_RESOURCE
    assert "cap" in err


def test_words_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FIBPOLY_MAX_WORDS", "2")
    code, _, _ = run_cli(capsys, "words", "--p", "2", "--n", "5")
    assert code == EXIT_RESOURCE
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "words", "--p", "2", "--n", "5", "--max-words", "100")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 8


def test_stats_json(capsys):
    code, out, _ = run_cli(capsys, "stats", "--p", "3", "--word", "32321")
    payload = json.loads(out)
    check_schema(payload)
    assert payload["area"] == 11
    assert payload["pick_holds"] is True
    assert payload["inn"] + payload["sper"] - payload["area"] == 1


def test_stats_known_triple(capsys):
    _, out, _ = run_cli(capsys, "stats", "--p", "3", "--word", "321")
    payload = json.loads(out)
    assert (payload["area"], payload["sper"], payload["inn"]) == (6, 6, 1)


def test_stats_invalid_word(capsys):
    code, _, err = run_cli(capsys, "stats", "--p", "3", "--word", "3212")
    assert code == EXIT_INVALID
    assert "not a valid" in err


# ---------------------------------------------------------------------------
# series


def test_series_F_text(capsys):
    code, out, _ = run_cli(capsys, "series", "--p", "2", "--kind", "F", "--order", "3")
    assert code == EXIT_OK
    assert out.startswith("1 + y^2*z^3*x + (y^3*z^4 + y^4*z^4)*x^2")


def test_series_A_coefficients(capsys):
    _, out, _ = run_cli(capsys, "series", "--p", "2", "--kind", "A", "--order", "5")
    assert out.strip() == "2*x + 7*x^2 + 16*x^3 + 35*x^4 + 70*x^5"


def test_series_G4_tail(capsys):
    _, out, _ = run_cli(capsys, "series", "--p", "4", "--kind", "G", "--order", "3")
    assert out.strip().endswith("(q^3 + q^4 + q^5 + q^6)*x^3")


def test_series_D_counts_by_area(capsys):
    _, out, _ = run_cli(capsys, "series", "--p", "2", "--kind", "D", "--order", "9")
    assert out.strip() == "1 + y^2 + y^3 + y^4 + 2*y^5 + 2*y^6 + 3*y^7 + 4*y^8 + 5*y^9"


def test_series_json(capsys):
    _, out, _ = run_cli(
        capsys, "series", "--p", "3", "--kind", "G", "--order", "2", "--format", "json"
    )
    payload = json.loads(out)
    check_schema(payload)
    assert {"exponents": {"x": 2, "q": 2}, "coefficient": 1} in payload["terms"]


# ---------------------------------------------------------------------------
# tables


def parse_table_csv(text):
    rows = {}
    reader = csv.reader(
        line for line in text.splitlines() if line and not line.startswith("#")
    )
    header = next(reader)
    for row in reader:
        rows[int(row[0])] = [int(v) for v in row[1:]]
    return header, rows


def test_tables_csv_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "4")
    assert code == EXIT_OK
    header, rows = parse_table_csv(out)
    assert header == ["p"] + [str(n) for n in range(1, 11)]
    assert rows[5] == [0, 7, 26, 74, 190, 457, 1070, 2439, 5453, 12013]


def test_tables_sper_cell(capsys):
    _, out, _ = run_cli(capsys, "tables", "--which", "3")
    _, rows = parse_table_csv(out)
    assert rows[4][4] == 152


def test_tables_area_counts_flags_discrepancy(capsys):
    _, out, _ = run_cli(capsys, "tables", "--which", "2")
    _, rows = parse_table_csv(out)
    assert rows[2][8] == 5
    footnotes = [line for line in out.splitlines() if line.startswith("#")]
    assert footnotes == [
        "# mismatch vs published table 2: p=2 n=9 computed=5 published=4"
    ]


def test_tables_json_discrepancies(capsys):
    _, out, _ = run_cli(capsys, "tables", "--which", "2", "--format", "json")
    payload = json.loads(out)
    check_schema(payload)
    assert payload["discrepancies"] == [
        {"p": 2, "n": 9, "computed": 5, "published": 4}
    ]


def test_tables_other_tables_have_no_discrepancies(capsys):
    for which in (1, 3, 4):
        _, out, _ = run_cli(capsys, "tables", "--which", str(which), "--format", "json")
        assert json.loads(out)["discrepancies"] == []


def test_table_discrepancies_ignores_unpublished_cells():
    assert table_discrepancies(1, {9: [1, 2, 3]}) == []


# ---------------------------------------------------------------------------
# biject


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--word", "32321", "--to", "composition"), "5,6"),
        (("--composition", "6,5", "--to", "word"), "32132"),
        (("--word", "32323", "--to", "binary"), "1010"),
        (("--binary", "1010", "--to", "word"), "32323"),
        (("--composition", "5,6", "--to", "binary"), "1011"),
        (("--binary", "", "--to", "composition"), "3"),
    ],
)
def test_biject_conversions(capsys, argv, expected):
    code, out, _ = run_cli(capsys, "biject", "--p", "3", *argv)
    assert code == EXIT_OK
    assert out.strip() == expected


def test_biject_json(capsys):
    _, out, _ = run_cli(
        capsys, "biject", "--p", "3", "--word", "32321", "--to", "composition",
        "--format", "json",
    )
    payload = json.loads(out)
    check_schema(payload)
    assert payload["value"] == "5,6"


def test_biject_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "biject", "--p", "3", "--to", "word")
    assert code == EXIT_INVALID
    code, _, _ = run_cli(
        capsys, "biject", "--p", "3", "--word", "3", "--binary", "0", "--to", "word"
    )
    assert code == EXIT_INVALID


def test_biject_invalid_inputs(capsys):
    assert run_cli(capsys, "biject", "--p", "3", "--composition", "4", "--to", "word")[0] == EXIT_INVALID
    assert run_cli(capsys, "biject", "--p", "2", "--binary", "11", "--to", "word")[0] == EXIT_INVALID


# ---------------------------------------------------------------------------
# verify / render

# Complete outputs, pinned literally: the detail texts count the words
# differently (composition-roundtrip includes the empty word, the lattice
# and binary checks do not).
VERIFY_P3_N6 = (
    "PASS  pick-identity-per-word   52 words with n <= 6, 0 violations\n"
    "PASS  aggregate-identity       n=6: 24 = 143 + 251 - 370\n"
    "PASS  totals-vs-series         three total series against enumerated sums, n <= 6\n"
    "PASS  transfer-vs-closed-form  both joint series through x^6\n"
    "PASS  count-specialization     y=z=1 and q=1 recover word counts, n <= 6\n"
    "PASS  lattice-oracle           cell-set statistics vs closed forms on 51 words\n"
    "PASS  oracle-series            word-by-word series through x^6\n"
    "PASS  composition-roundtrip    block splitting inverts on 52 words\n"
    "PASS  binary-roundtrip         transition encoding inverts on 51 words\n"
    "PASS  area-distribution        parts recurrence vs pruned search, area <= 18\n"
    "PASS  overall\n"
)

VERIFY_P1_N12 = (
    "PASS  pick-identity-per-word   13 words with n <= 12, 0 violations\n"
    "PASS  aggregate-identity       n=12: 1 = 0 + 13 - 12\n"
    "PASS  totals-vs-series         three total series against enumerated sums, n <= 12\n"
    "PASS  transfer-vs-closed-form  both joint series through x^12\n"
    "PASS  count-specialization     y=z=1 and q=1 recover word counts, n <= 12\n"
    "PASS  lattice-oracle           cell-set statistics vs closed forms on 12 words\n"
    "PASS  oracle-series            word-by-word series through x^12\n"
    "PASS  composition-roundtrip    block splitting inverts on 13 words\n"
    "PASS  binary-roundtrip         transition encoding inverts on 12 words\n"
    "PASS  area-distribution        parts recurrence vs pruned search, area <= 12\n"
    "PASS  overall\n"
)

VERIFY_P5_N7_JSON = (
    '{"all_passed": true, "checks": ['
    '{"detail": "124 words with n <= 7, 0 violations", '
    '"name": "pick-identity-per-word", "passed": true}, '
    '{"detail": "n=7: 61 = 1070 + 856 - 1865", "name": "aggregate-identity", "passed": true}, '
    '{"detail": "three total series against enumerated sums, n <= 7", '
    '"name": "totals-vs-series", "passed": true}, '
    '{"detail": "both joint series through x^7", "name": "transfer-vs-closed-form", '
    '"passed": true}, '
    '{"detail": "y=z=1 and q=1 recover word counts, n <= 7", '
    '"name": "count-specialization", "passed": true}, '
    '{"detail": "cell-set statistics vs closed forms on 123 words", '
    '"name": "lattice-oracle", "passed": true}, '
    '{"detail": "word-by-word series through x^7", "name": "oracle-series", "passed": true}, '
    '{"detail": "block splitting inverts on 124 words", "name": "composition-roundtrip", '
    '"passed": true}, '
    '{"detail": "transition encoding inverts on 123 words", "name": "binary-roundtrip", '
    '"passed": true}, '
    '{"detail": "parts recurrence vs pruned search, area <= 30", '
    '"name": "area-distribution", "passed": true}], '
    '"command": "verify", "nmax": 7, "p": 5}\n'
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--p", "3", "--nmax", "6"), VERIFY_P3_N6),
        (("--p", "1", "--nmax", "12"), VERIFY_P1_N12),
        (("--p", "5", "--nmax", "7", "--format", "json"), VERIFY_P5_N7_JSON),
    ],
)
def test_verify_golden_output(capsys, argv, expected):
    assert run_cli(capsys, "verify", *argv) == (EXIT_OK, expected, "")


def _inner_off_by_one(real):
    def lattice_stats(w):
        r = real(w)
        return PickReport(r.area, r.sper, r.inn + 1) if str(w) == "3232" else r

    return lattice_stats


def _binary_of_other_word(real):
    def word_to_binary(w):
        return real(FibWord.from_text(3, "3233") if str(w) == "3232" else w)

    return word_to_binary


def _last_total_plus_one(real):
    def total_area_sequence(p, n_max):
        return [v + (n == n_max) for n, v in enumerate(real(p, n_max))]

    return total_area_sequence


@pytest.mark.parametrize(
    "module, attr, corrupt, failing",
    [
        (oracle, "lattice_stats", _inner_off_by_one, {"lattice-oracle", "oracle-series"}),
        (bijections, "word_to_binary", _binary_of_other_word, {"binary-roundtrip"}),
        (series, "total_area_sequence", _last_total_plus_one, {"totals-vs-series"}),
    ],
)
def test_verify_detects_corrupted_input(capsys, monkeypatch, module, attr, corrupt, failing):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--nmax", "6")
    assert code == EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert len(lines) == 11
    assert {line.split()[1] for line in lines if line.startswith("FAIL")} == failing | {"overall"}


def test_verify_cap_counts_words_through_nmax(capsys):
    # 33 words with n <= 6 for p = 2, and no single length has more than 13
    assert sum(count_words(2, n) for n in range(7)) == 33
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--nmax", "6", "--max-words", "20")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "33 words" in err


def test_verify_validates_p_before_the_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "65", "--nmax", "100", "--max-words", "5")
    assert code == EXIT_INVALID
    assert "exceeds the limit" in err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--nmax", "6")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert any("aggregate-identity" in line for line in lines)


def test_verify_trivial_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--nmax", "1")
    assert code == EXIT_OK


def test_verify_reports_worked_instance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "4", "--nmax", "5")
    assert code == EXIT_OK
    assert "15 = 124 + 152 - 261" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--nmax", "4", "--format", "json")
    payload = json.loads(out)
    check_schema(payload)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 10


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import fibpoly.cli as cli_module

    def broken(p, n_max, cap=None):
        return [cli_module.CheckResult("forced", False, "injected failure")]

    monkeypatch.setattr(cli_module, "run_verification", broken)
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--nmax", "2")
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL" in out


def test_run_verification_all_pass():
    assert all(check.passed for check in run_verification(2, 6))


def test_render_ascii(capsys):
    code, out, _ = run_cli(capsys, "render", "--p", "3", "--word", "321")
    assert code == EXIT_OK
    assert out == "#\n##\n###\n"


def test_render_invalid_word(capsys):
    assert run_cli(capsys, "render", "--p", "3", "--word", "3212")[0] == EXIT_INVALID


def test_render_svg(capsys):
    code, out, _ = run_cli(capsys, "render", "--p", "2", "--word", "22", "--format", "svg")
    assert code == EXIT_OK
    assert out.startswith("<svg ")
    assert out.count("<rect ") == 4
    assert 'xmlns="http://www.w3.org/2000/svg"' in out


def test_render_svg_deterministic():
    svg = render_svg(FibWord.from_text(2, "21"))
    assert svg == render_svg(FibWord.from_text(2, "21"))
    assert svg.count("<rect ") == 3


# ---------------------------------------------------------------------------
# determinism and schema hygiene


def test_repeated_invocations_are_byte_identical(capsys):
    cases = [
        ("words", "--p", "3", "--n", "5", "--format", "json"),
        ("series", "--p", "3", "--kind", "F", "--order", "4"),
        ("tables", "--which", "2", "--format", "json"),
        ("verify", "--p", "2", "--nmax", "4", "--format", "json"),
    ]
    for argv in cases:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_schema_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(output_schema())
