import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import fibpoly
from fibpoly import bijections, geometry, oracle, series
from fibpoly.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAILED,
    main,
    run_verification,
    table_discrepancies,
)
from fibpoly.geometry import PickReport, render_svg
from fibpoly.verify import CheckResult
from fibpoly.words import FibWord, count_words, enumerate_words


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def output_schema():
    """The JSON schema shipped as package data, which every JSON output conforms to."""
    path = resources.files("fibpoly").joinpath("schemas/cli_output.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def check_schema(payload):
    jsonschema.validate(payload, output_schema())


# ---------------------------------------------------------------------------
# count / words / stats


def test_all_names_resolve_and_star_import_binds_them():
    assert len(set(fibpoly.__all__)) == len(fibpoly.__all__)
    namespace = {}
    exec("from fibpoly import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fibpoly.__all__)
    for name in fibpoly.__all__:
        assert namespace[name] is getattr(fibpoly, name)


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


def test_words_validates_p_before_the_cap(capsys):
    # the 65-letter count at n = 200 is far over the cap, but p is the fault
    code, out, err = run_cli(capsys, "words", "--p", "65", "--n", "200")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "fibpoly: alphabet bound p=65 exceeds the limit 64\n"
    # a negative length is still reported first, before p
    assert run_cli(capsys, "words", "--p", "0", "--n", "-1") == (
        EXIT_INVALID, "", "fibpoly: word length must be >= 0, got -1\n"
    )


def test_words_json_writes_nothing_before_an_error(capsys):
    assert run_cli(capsys, "words", "--p", "65", "--n", "3", "--format", "json") == (
        EXIT_INVALID, "", "fibpoly: alphabet bound p=65 exceeds the limit 64\n"
    )
    code, out, _ = run_cli(capsys, "words", "--p", "2", "--n", "60", "--max-words", "100",
                           "--format", "json")
    assert (code, out) == (EXIT_RESOURCE, "")


def listing_reference(p, n, fmt):
    """The words output as one print per word, or one json.dumps of the whole payload."""
    found = [str(w) for w in enumerate_words(p, n)]
    if fmt == "plain":
        return "".join(f"{w}\n" for w in found)
    payload = {"command": "words", "p": p, "n": n, "count": len(found), "words": found}
    return json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("p", range(1, 13))
def test_words_listing_matches_reference(capsys, p, fmt):
    for n in range(0, 13):
        code, out, _ = run_cli(capsys, "words", "--p", str(p), "--n", str(n), "--format", fmt)
        assert code == EXIT_OK
        assert out == listing_reference(p, n, fmt), (p, n)


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_words_listing_across_chunk_boundaries(capsys, fmt):
    # one word short of a full 4096-word chunk, then two chunks and a short third
    for n, expected in ((13, 4095), (14, 8189)):
        assert count_words(12, n) == expected
        code, out, _ = run_cli(capsys, "words", "--p", "12", "--n", str(n), "--format", fmt)
        assert code == EXIT_OK
        assert out == listing_reference(12, n, fmt)


# sha256 of stdout, captured before the listing was streamed
PINNED_LISTINGS = {
    "words --p 3 --n 17 --format json":
        "53ede1526e2bf3bb86b10e021e3fc7d7128f66e95247243850678a3af65e875a",
    "words --p 3 --n 17 --format plain":
        "e161082e30997026150c3b78d44521f0ba51ac45e73b71fddee1ea2d921419f9",
    "words --p 12 --n 14 --format json":
        "4bdb565b3f5e689bd0ccbbbc5b9214b26a0b84e263b2e0c0b06f27077d33bc17",
    "words --p 12 --n 14 --format plain":
        "f1c7142c5feb816c9208f3ec1d46ef4f960bc4932a3c00e6429efebb0267002a",
}


@pytest.mark.parametrize("case", sorted(PINNED_LISTINGS))
def test_pinned_listing_output(capsys, case):
    code, out, _ = run_cli(capsys, *case.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LISTINGS[case]


def test_words_listing_memory_does_not_grow_with_the_word_count():
    # 410744 words; holding them all took about 145 MB of peak RSS
    assert count_words(3, 22) == 410744
    src = str(Path(fibpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # On Linux ru_maxrss carries the parent's peak across fork and exec, so
    # the child reads its own high-water mark, VmHWM, which exec resets.
    child = (
        "import resource, sys\n"
        "from fibpoly import cli\n"
        "code = cli.main(['words', '--p', '3', '--n', '22'])\n"
        "sys.stdout.flush()\n"
        "if sys.platform.startswith('linux'):\n"
        "    with open('/proc/self/status') as status:\n"
        "        peak = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "else:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "sys.stderr.write(f'{code} {peak}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=env, timeout=120, check=True)
    code, peak = map(int, proc.stderr.split())
    assert code == EXIT_OK
    # VmHWM is in kilobytes; ru_maxrss is in bytes on macOS and in kilobytes elsewhere
    peak_mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10
    assert peak_mb < 64


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


def test_stats_one_letter_word_above_p_9(capsys):
    code, out, _ = run_cli(capsys, "stats", "--p", "10", "--word", "10")
    assert code == EXIT_OK
    assert json.loads(out)["word"] == "10"


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


@pytest.mark.parametrize(
    "argv",
    ["tables --which 5", "series --p 2 --kind X --order 3"],
)
def test_argparse_rejects_unknown_table_and_kind(capsys, argv):
    # cmd_tables and cmd_series rely on these choices and check them no further
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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


def _semiperimeter_plus_one(real):
    def pick_report(w):
        r = real(w)
        return PickReport(r.area, r.sper + 1, r.inn)

    return pick_report


def _binary_of_other_word(real):
    def word_to_binary(w):
        return real(FibWord.from_text(3, "3233") if str(w) == "3232" else w)

    return word_to_binary


def _last_total_plus_one(real):
    def total_area_sequence(p, n_max):
        return [v + (n == n_max) for n, v in enumerate(real(p, n_max))]

    return total_area_sequence


def _last_layer_sum_plus_one(real):
    def layer_sums(self):
        sums = real(self)
        return sums[:-1] + [sums[-1] + 1]

    return layer_sums


def _last_area_count_plus_one(real):
    def area_count_sequence(p, max_area):
        counts = real(p, max_area)
        return counts[:-1] + [counts[-1] + 1]

    return area_count_sequence


def _closed_form_of_next_p(real):
    def closed_form_G(p):
        return real(p + 1)

    return closed_form_G


def _parts_5_5_to_other_word(real):
    def composition_to_word(c):
        return FibWord.from_text(3, "3233") if c.parts == (5, 5) else real(c)

    return composition_to_word


@pytest.mark.parametrize(
    "module, attr, corrupt, failing",
    [
        (oracle, "lattice_stats", _inner_off_by_one, {"lattice-oracle", "oracle-series"}),
        (bijections, "word_to_binary", _binary_of_other_word, {"binary-roundtrip"}),
        (series, "total_area_sequence", _last_total_plus_one, {"totals-vs-series"}),
        (series.TruncatedSeries, "layer_sums", _last_layer_sum_plus_one,
         {"count-specialization"}),
        (series, "area_count_sequence", _last_area_count_plus_one, {"area-distribution"}),
        (series, "closed_form_G", _closed_form_of_next_p, {"transfer-vs-closed-form"}),
        (bijections, "composition_to_word", _parts_5_5_to_other_word,
         {"composition-roundtrip"}),
        (geometry, "pick_report", _semiperimeter_plus_one,
         {"pick-identity-per-word", "aggregate-identity", "totals-vs-series", "lattice-oracle"}),
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


def test_verify_area_search_cap_stops_before_the_word_pass(capsys, monkeypatch):
    # 33 words through nmax pass the cap of 33, but the area search up to
    # area 12 visits 34 words; it must fail before any per-word work
    calls = []
    real = oracle.lattice_stats
    monkeypatch.setattr(oracle, "lattice_stats", lambda w: calls.append(w) or real(w))
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--nmax", "6", "--max-words", "33")
    assert (code, out, err) == (
        EXIT_RESOURCE, "", "fibpoly: enumeration would visit 34 words, cap is 33\n"
    )
    assert calls == []


@pytest.mark.parametrize("p, nmax, counted", [(1, 1_000_000, 1001), (3, 100_000, 1104)])
def test_verify_cap_stops_the_count_at_the_first_length_past_it(capsys, p, nmax, counted):
    # the word total passes 1000 after a few lengths; the lengths up to nmax
    # are not summed, so the refusal is quick and names a lower bound
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--p", str(p), "--nmax", str(nmax), "--max-words", "1000"
    )
    assert time.perf_counter() - start < 1.0
    message = f"fibpoly: enumeration would visit at least {counted} words, cap is 1000\n"
    assert (code, out, err) == (EXIT_RESOURCE, "", message)


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

    def broken(p, n_max, cap):
        return [CheckResult("forced", False, "injected failure")]

    monkeypatch.setattr(cli_module, "run_verification", broken)
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--nmax", "2")
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL" in out


def test_memory_error_exits_4_without_traceback(capsys, monkeypatch):
    import fibpoly.cli as cli_module

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli_module, "cmd_tables", exhausted)
    assert run_cli(capsys, "tables", "--which", "1") == (
        EXIT_RESOURCE, "", "fibpoly: out of memory\n"
    )


def test_main_builds_the_parser_once(capsys, monkeypatch):
    import fibpoly.cli as cli_module

    real = cli_module.build_parser
    built = []

    def counting():
        built.append(True)
        return real()

    monkeypatch.setattr(cli_module, "build_parser", counting)
    cli_module._parser.cache_clear()
    try:
        assert run_cli(capsys, "count", "--p", "3", "--n", "4")[:2] == (EXIT_OK, "7\n")
        assert run_cli(capsys, "count", "--p", "2", "--n", "5")[:2] == (EXIT_OK, "8\n")
    finally:
        cli_module._parser.cache_clear()
    assert len(built) == 1
    # the public builder still hands out a fresh parser on every call
    assert real() is not real()


@pytest.mark.parametrize(
    "argv, first_bytes",
    [
        # 19513 words of 18 bytes overflow the pipe, so the writer is still
        # running when the reader leaves after one line
        (["words", "--p", "3", "--n", "17"], b"32132132132132132\n"),
        # a short answer stays buffered until the final flush, which finds
        # the reader already gone
        (["count", "--p", "3", "--n", "17"], None),
        # the JSON listing is one 410 kB line; the reader leaves after its head
        (["words", "--p", "3", "--n", "17", "--format", "json"],
         b'{"command": "words", "count": 19513, "n": 17, "p": 3, "words": ["32132132132132132", '),
    ],
)
def test_closed_stdout_exits_4_without_traceback(argv, first_bytes):
    src = str(Path(fibpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # block-buffered stdout, as in a shell pipeline: output still buffered
    # after the pipe closed must not fail again at interpreter exit
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    if first_bytes is None:
        os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-m", "fibpoly", *argv],
                            stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    try:
        if first_bytes is not None:
            with os.fdopen(read_end, "rb") as out:
                assert out.read(len(first_bytes)) == first_bytes
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_RESOURCE
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err
    assert err == "fibpoly: output closed\n"


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


# ---------------------------------------------------------------------------
# pinned outputs of the univariate commands
#
# sha256 of stdout, one line per case, captured while the A/S/I/D series
# and the tables were still expanded by the multivariate series kernel and
# count ran the window loop alone; every case exits 0 with no stderr.

PINNED_STDOUT_SHA256 = """
series --p 1 --kind A --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind A --order 0 --format json 8893efc601d1df7bd414dad9b4e0f6a5783afc8700506bceb6e4e8593974ee58
series --p 1 --kind A --order 1 --format plain 73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac
series --p 1 --kind A --order 1 --format json 413daa4b5bd41bae96a91a8543da6314e046af9bd195bc10374f8b7d04898c14
series --p 1 --kind A --order 2 --format plain a3a68e58097bf2026ca3c3d5aa88c174dbc0539a569c50c32bce3cea6e8705bf
series --p 1 --kind A --order 2 --format json 0f5aff7ea69ab84db43841b154880a3c4bc6f5bf63ffae3a130e57bf56d99792
series --p 1 --kind A --order 7 --format plain ec4fb44244259ab48e9cdbae428ff7a121c4d16e7c7ff9ae6af034a262b1dc7b
series --p 1 --kind A --order 7 --format json cd417c417dc478985cfd5a5033d24f2b798f760a2a4129078c0c22a9a9a110cd
series --p 1 --kind A --order 40 --format plain 6ff48b1fa7fe0faf893332ec2a76259ab6a2b1105c81aecc3fed91f0224fcc69
series --p 1 --kind A --order 40 --format json c1cfbb53b8660e53ae80854c17183933b87efbd56c61569c68efaf4655ca38ce
series --p 1 --kind A --order 300 --format plain 2207c29012f67803528b61fbab8d8beb8fa07e2427c2a6e43c71b37776ad4fdf
series --p 1 --kind A --order 300 --format json f2262236ef1a25e091bb60dc8e51d661a89ddede394ecc0423c6cecf7285c9d9
series --p 1 --kind A --order 3000 --format plain 78534da4482edbb03945a334385b7147a488a4638e24615589570aba6d322531
series --p 1 --kind A --order 3000 --format json 44eed3f5dc0dbbf9ceac9e3a71943a95fc8ca43ea8f1dea3cbd5656688c0592e
series --p 2 --kind A --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 2 --kind A --order 0 --format json b44ad085f9d23d0789a5b26a8383c274a7aba7a605ce402dd04e9e26241f2da5
series --p 2 --kind A --order 1 --format plain 6329cfd7b8d3e3ae6ae5b9658c6448674f8a9a9ffc0e69bc0ec6b1bc417d38a7
series --p 2 --kind A --order 1 --format json b1b97196435f2abed1ea96d0babd93f8a0210b6060f892db7597c194384e7b96
series --p 2 --kind A --order 2 --format plain c0b2bfcf5a79365bd4fc5c87304fd251ab2303057df5c30b96369d46998c444f
series --p 2 --kind A --order 2 --format json 7eae66fb11f9704dc52ac2f49787c8f2b687ef9bb52f21d56ffd4a157551aeb4
series --p 2 --kind A --order 7 --format plain 89dcf5719f463bff82e177e4c57aaea42bbff47239dca652b8cbdd7426002e0d
series --p 2 --kind A --order 7 --format json e9c341811e130d4412edda241229e73b0a0b6c95c60873774756089fc4564c62
series --p 2 --kind A --order 40 --format plain e50e6907557cda5b773e1da1d52c1a612b4bb6a665a7889853d1994a74869c4b
series --p 2 --kind A --order 40 --format json 1473898c2825f35aa494d6dc304315733f3f1dc64f85bfdfbaab5b4741a1639d
series --p 2 --kind A --order 300 --format plain 9018da6a99c48a767800426afd9e6b8faffb9c084bccc9a3e29ebb77881f59c7
series --p 2 --kind A --order 300 --format json 4e8f6329b1fb5e595399e9da60b022b812c62fe6e7c6bbd2191b08508ddfe041
series --p 2 --kind A --order 3000 --format plain ca70b9ded5092a8cf6840f09662edab49cd8ad0d059dd6b1569be27ff6462cb7
series --p 2 --kind A --order 3000 --format json 6e082e77b0a9f48b871bf1f34dc0a03af8134a1644c3efea789bf2bbb5d51af0
series --p 3 --kind A --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 3 --kind A --order 0 --format json f4ec39bce18c2450851e4131288c38c3083da3c5013a35d79da09b0cfd11500b
series --p 3 --kind A --order 1 --format plain 30c4df7bd1aaabaff4020ada0d2436d46c7904d121a247b1b1be9d5906eabea1
series --p 3 --kind A --order 1 --format json 2cf26ab8616ef913b21122dbf1c7987a0d6f17c80ce3604e434994e9d61a559b
series --p 3 --kind A --order 2 --format plain 36c35fafae2ac0bec783da0f89e25bf4506a9217b5209124ca3038ca246ea3b4
series --p 3 --kind A --order 2 --format json a5fbb2c493138d1292f93f0b96aa28180acb656ffb251bf847c298e508ae12a7
series --p 3 --kind A --order 7 --format plain 0a923ec3147bb8cc296cb73a2a0283232d2901c1e823908b216b06f656f74eb3
series --p 3 --kind A --order 7 --format json 9acbbe88992f7f55fd80de1bd84b7d80e80db4568d6f96e92dacd0586c9e7239
series --p 3 --kind A --order 40 --format plain 1dfddb5f0b21b4a6739c6dd6efb413663769f0c78f0152632e2599b65e2a3ad3
series --p 3 --kind A --order 40 --format json 426999e74f221164df9848d95779d819eebcb33933c1ffc1fcda0a7230e83bb4
series --p 3 --kind A --order 300 --format plain 396eb28f4242b9e27953c6eed469d18ad000bacde153703ab4d21d2af447775e
series --p 3 --kind A --order 300 --format json f93d7cd2673f0ccaaaad50968f85dbee6cd8123c82ec50713df0e5f0f26d08e6
series --p 3 --kind A --order 3000 --format plain 367eb57ab48a4d4a0759ec8da27075b3c15c2f4221e9e1c3960ba67c0a3df43e
series --p 3 --kind A --order 3000 --format json 136fc6e8e3ee637a71d8450b14c8a226b9c34a2644cd2be565583049f52574e8
series --p 5 --kind A --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 5 --kind A --order 0 --format json 0e5c13df87106de4803ccff319425f3bf6f63c1455a41c8bafe816e28c5ea6f7
series --p 5 --kind A --order 1 --format plain 10ac51af725013eb513bd49370f81e8ae07db520e6a1599a0d547fd56d9dcb33
series --p 5 --kind A --order 1 --format json 532f961e548df9cc54a0bf534302caca774cdf98d65cb3d87b623c3bfd4aea80
series --p 5 --kind A --order 2 --format plain 2d49b913869e95822cb2ee33946d02abcacef2e9f850e1835ca1831b6b0f0f13
series --p 5 --kind A --order 2 --format json 6d13ebdc889486e16d2bdf06d2ba71a7951f6497f61494e2f13bbb4950fbfe51
series --p 5 --kind A --order 7 --format plain 8384be3fcfcef2737c37d7d91d829d1c9f9664bf49020df0dd950875c60ceb22
series --p 5 --kind A --order 7 --format json fab52e501392c3c37dc11013ab50ed115d69b522497094e7e1bed3bd9ed18696
series --p 5 --kind A --order 40 --format plain 467f1de19e4aa79e278f420cdc79942178ae621717ef0c2988ba06496ccf6506
series --p 5 --kind A --order 40 --format json 1226fa2246acdc1e03e775f483f3c96de24b417cd80f2f114156ee8fc24db862
series --p 5 --kind A --order 300 --format plain 057d61d8679eb4d9191c8f274385169f978cd2c626636cc3268253285d664b8c
series --p 5 --kind A --order 300 --format json f88838b1fb522ad26858b68cf8e67682e013287d21667a70adc951f27e8626ff
series --p 5 --kind A --order 3000 --format plain a56e0e95609ee4fe7ae02a6038e595d37d43643bd58affcd1829d84f1244c14c
series --p 5 --kind A --order 3000 --format json 9aefb8a5ef73268c9d0aec4c39adc6331061cdf809fc8cb2387e1bcb7a4332a5
series --p 8 --kind A --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 8 --kind A --order 0 --format json e20f792e96228b3a4a0d008d879df49d8ca5b308b6da7d8b38b65f7a0ee72e4e
series --p 8 --kind A --order 1 --format plain dab6736847d52d1750d2f20f11ea49b1a643e583430b0e03e5209ae8b43b8f0d
series --p 8 --kind A --order 1 --format json c020a6d246ac5d50301e1e9c79c57d27aabeda08454a3f6fbfb4a395c8097073
series --p 8 --kind A --order 2 --format plain 8f08629231c1a0f5fa75e2d50c4ee4ebdf4e658fb3007d38f62e7c6410e63263
series --p 8 --kind A --order 2 --format json 91af5ee93ea2d28e0de058f194ec7facc5e26bb1579292e47eadb7cddb4570d8
series --p 8 --kind A --order 7 --format plain 88136f9d605f329269589460b704417ae6659fbbd9d698a63352a25d26d9621a
series --p 8 --kind A --order 7 --format json 7939e27a9b7df913ffabfd14c618278207aab8b70a9b1e88e5ac6333581c58f4
series --p 8 --kind A --order 40 --format plain 822caeeab19267a60e5eaccbac58312715cfacb9c285e2bffddfbba5864ca8a3
series --p 8 --kind A --order 40 --format json 08c10eaa11d8cc7da3707a12eb16f2b862ab46be5684ede36dcc861eb8311e38
series --p 8 --kind A --order 300 --format plain 1f143f9393a782940e7374bab04224637096b316f7aa72e8fd7f5209ed9ae683
series --p 8 --kind A --order 300 --format json a765cbc3215cfb631f87b1fb843851f345b282262645cf1461889f0d846d2090
series --p 8 --kind A --order 3000 --format plain 7112323b096f9185fdf82e4567192d6bb5c8e4b4adc7de4158841782b1d36476
series --p 8 --kind A --order 3000 --format json 9486d4d53bf1993e42e40dd194b21e7b9df4f8ffb33d76020d9dd1731371e3f1
series --p 20 --kind A --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 20 --kind A --order 0 --format json e9424feb9c354fe12299844ee06b5c772d96fd697e2ad80d395c9ea6b3e4b80e
series --p 20 --kind A --order 1 --format plain 0f87faae8e0186e9a8fcccebe47c29217b3181308caa14c01749119888f2da3b
series --p 20 --kind A --order 1 --format json 0709875156f73e2eb8f72515365696c7830824763aaf96640abc8fd5a67e5cab
series --p 20 --kind A --order 2 --format plain 696120acd5c34b275ea380eef9128f8c216f3250f61a255b999b381db6180448
series --p 20 --kind A --order 2 --format json a1d381d6387bcc8789d1ebe59d764ad9ca616ff8e12a0b0b950702a55dd4802d
series --p 20 --kind A --order 7 --format plain f80cc5f49ad6c4d21afa8d7470a171a4734a596a0643f01a97351fc667dd5b90
series --p 20 --kind A --order 7 --format json 45efcaee62ba3c4603cc847bdbbf891317dd91ccf58057913686c8fb35cf0800
series --p 20 --kind A --order 40 --format plain 5c990ad108c3b77508871da133898f16a106611e933f3c4a5d639a177833b01b
series --p 20 --kind A --order 40 --format json f726dc53c41c0554808bd43a43365a7fcb059b4754e7501314f3cd10b929c0fb
series --p 20 --kind A --order 300 --format plain bad89e52740f2df2949a1fc77668ad66c3ec4013a1c7638ef8af0f2b88d668b5
series --p 20 --kind A --order 300 --format json 71633e4b68b088842d17cdddc7a3704b3bf6179259db4c3e4880db593b6ed100
series --p 20 --kind A --order 3000 --format plain d6b491ab2990df2ad43c11179022c09cf5f83d4bd88908774be3cb65658f41ce
series --p 20 --kind A --order 3000 --format json 7e43ad1e36cfb225ba82ab524ce567430bca6101f139c5cf68bbda13a7cea8ff
series --p 64 --kind A --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 64 --kind A --order 0 --format json ccdf3e4bedf2c30a8fbe8aa4bfd6d450188c4c2b3d345135a5e1e4217c3b82f2
series --p 64 --kind A --order 1 --format plain fa6b74a9acb219d4020e28b3cb8549f7b7f708d59129fa6ceb30bf0b62f2271a
series --p 64 --kind A --order 1 --format json 5e304ce776c360f2e209b07658f240d62bfc854392317412867ca919b77bc699
series --p 64 --kind A --order 2 --format plain 86bba936f9a53f96f2098eb777a3e1ec8e67290de07096e3e5433142b0ac8788
series --p 64 --kind A --order 2 --format json dd798fb600e531b9aef05b5c51958c4c49f08f2e262a034c590cc2e6ed56d85e
series --p 64 --kind A --order 7 --format plain 7463eefe890526bed33f54202756b44be957a4d3338c991236a97bea88129d62
series --p 64 --kind A --order 7 --format json 08ead42f38f0c47922f602f80a18696884c9dff4ab9db2e87b0c10efe1e64a14
series --p 64 --kind A --order 40 --format plain b736c42649dcaff0e88e40521e0644b6eaeea117124a80bc59c1c9cdd712c196
series --p 64 --kind A --order 40 --format json c2395be49ed54e7eb953e9c144f3643ca1551d812db44b5674fc37eeb78becf8
series --p 64 --kind A --order 300 --format plain c27d926d1f7cd252b1c1f47982655b244e4e0cf9141db74cfa39fbe4d8ee13ec
series --p 64 --kind A --order 300 --format json edcf8c502236276046e943c241e70ccd74b0d03223c057f8585b37a306e91db3
series --p 64 --kind A --order 3000 --format plain d453e42e57c36a850ddab93b72716ca8f5e0638ff9e9e21ec2b383b1dc3f0a57
series --p 64 --kind A --order 3000 --format json adfde524477640bcbf0c96de7efd485c25eb4c202e6c2cf729e72bc2e8394d8e
series --p 1 --kind S --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind S --order 0 --format json b77de8ffb77b7f04076cf50e8a8addd788c29df867a104024eba63c1a86e07ad
series --p 1 --kind S --order 1 --format plain 6329cfd7b8d3e3ae6ae5b9658c6448674f8a9a9ffc0e69bc0ec6b1bc417d38a7
series --p 1 --kind S --order 1 --format json 80b6ca6273b10dc04ef4d8d8e428979ed1693c0234972e7a2006085b9480ee9f
series --p 1 --kind S --order 2 --format plain 31acb00a70e041a37aa2e4ebc8f80e2658f14a45d2886d8963e1b6603da4cdbe
series --p 1 --kind S --order 2 --format json 3aeae55cb98a3515f76c1192c0a7230191f18a3f85c17f4702e17c7144b32191
series --p 1 --kind S --order 7 --format plain d88cd7d1ede7509471b98dc20007bda5b928466c1cced0dee316911d88267c43
series --p 1 --kind S --order 7 --format json 392b6cba78603f1017d631f40351d810abff527933408278c579a6c89989d8f9
series --p 1 --kind S --order 40 --format plain 2ebf7add94775dd046deaeeef9d506c2e08fb31481bbca9f2f63fa9fe31f44f4
series --p 1 --kind S --order 40 --format json 4d1ddfcab4c1224aff92291e9a511d66884ac2dede7ea86d5d080ef4c56537f8
series --p 1 --kind S --order 300 --format plain 7589b6afe912d020ca1d714f69d309e491447caef6a2d2642ffd1628aadb7b93
series --p 1 --kind S --order 300 --format json d6c5c3487fe53b98e929b4c7bd23404b83f9f5774de0c7faedcae085e0c9a261
series --p 1 --kind S --order 3000 --format plain dab9e0ccf4cc7b50a210b5881b288cf215ab98cc62cb5995a84e649e196e7405
series --p 1 --kind S --order 3000 --format json 8ec8658e3b3245b01fefba073a7fe6e5d275e26790a77fa9d4633d1acefc7830
series --p 2 --kind S --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 2 --kind S --order 0 --format json 9b79555ccb91a06fdea557087942cfb6b8289a21da72f90f0a4aac6d7eaadaff
series --p 2 --kind S --order 1 --format plain 30c4df7bd1aaabaff4020ada0d2436d46c7904d121a247b1b1be9d5906eabea1
series --p 2 --kind S --order 1 --format json a35535158ddd391ac89bbe9a3594281e5c6a42e05598650bc21e8e4cc810d4a4
series --p 2 --kind S --order 2 --format plain 47bba83e86640773a5a9a7e51913492e01f044556d1a87ad1de3141651454295
series --p 2 --kind S --order 2 --format json 5d7e37f40cd2b986c59430cf408e43f9f9440b3e67ce1876ff53de23f6256ab3
series --p 2 --kind S --order 7 --format plain 2fda7451e1478b8c903bdc5999d10fad50417c8c1bc1665ee11f13fcdfec881b
series --p 2 --kind S --order 7 --format json 5521f2fe1e8cf0b1ac0a426836586ef280fac7b1abfeb7b9ee7b080bbd328ba4
series --p 2 --kind S --order 40 --format plain 48d5f9506a057d00a722e39fea74919bcb90a3fa3bc9347dd571b616e93aa0f1
series --p 2 --kind S --order 40 --format json 9c1989866bb9cd05610f963d2eb4126d969e52da1e18db7bd037b5d92c1db160
series --p 2 --kind S --order 300 --format plain 30a998144bf3e6e475b66f6587e354ea58709c8a71170b186357f575b0dd00cf
series --p 2 --kind S --order 300 --format json 659c9f9269a03db8e3f5d03d5a5925dbf1005fbe479b16b6503c4ad7747bba05
series --p 2 --kind S --order 3000 --format plain 86d7a657951ce31bbc774ba973d6d92226f2baaddbd79ab791b55bac21334ef6
series --p 2 --kind S --order 3000 --format json 164c8f350d4d59725bb11e4a7245f0850392b2dc399db32592496568b14d67bc
series --p 3 --kind S --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 3 --kind S --order 0 --format json 3e8df89ea868449a55efd73f72855e0eb48517417ac2c97f20c5d2f82b087610
series --p 3 --kind S --order 1 --format plain 9e97ee120f9e721353b0d5c57b1dcf8830c65eb4e396f9d3448acd1599b60d24
series --p 3 --kind S --order 1 --format json 2cdee7f0171f39dda8480518a06ee77ec1ed807091fa54ff023da1b589a8c640
series --p 3 --kind S --order 2 --format plain 7d7fd38c9cb99e031299408a86536191487178af14923b87c72c6725f6f31d78
series --p 3 --kind S --order 2 --format json c1acc623a3f16aad60f14496c94ce22ea0a77d8f21912614acac98e05382c75b
series --p 3 --kind S --order 7 --format plain cd92c0983ff4881fc37eebb5f171ef75f96c9d357d5efeca9a9d23c5687080bb
series --p 3 --kind S --order 7 --format json ff7a557da511682ac06b098b21710e8bc3bab071ee1afcddea19ca3f58ee99ab
series --p 3 --kind S --order 40 --format plain 02f060e949c6363215929347574acf04106d1da001f6c9c0fef823cc3d162388
series --p 3 --kind S --order 40 --format json 3606a18329b6263bf375346ad739f38e7ff48f21e01eab7b14418a40f4351bf2
series --p 3 --kind S --order 300 --format plain b9ed5b41501e6dfdd300b993b6747b4cda813b26271fd99af13d89983576c5f7
series --p 3 --kind S --order 300 --format json 4187375144d608b062569e889c30abb649b2e1aec76174d7f0eaf92d56dfa8cf
series --p 3 --kind S --order 3000 --format plain 28780cdd8843186977e95634880344b08a0913cc54b2c6e260e5af82ee42c089
series --p 3 --kind S --order 3000 --format json 876e1e6c780540f2d860074850701f650d2c6f1439178136f8783cbf92dd492c
series --p 5 --kind S --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 5 --kind S --order 0 --format json 6865d3f59786c4d3ea8b4eace45e59c1867488a27272c7cd3194eca8cbb63695
series --p 5 --kind S --order 1 --format plain dd633bbc1569cb8641a839be2b51b257bab3439eb0239d4ac27ed3f44caf1bd6
series --p 5 --kind S --order 1 --format json 97dbe8e9a374c9321b9c5284733fa8971dcf833579d2463444ece6bcd71de53e
series --p 5 --kind S --order 2 --format plain 19e9dd7a9d307b7c2b82222bf6d2df6c8548a07f2835cea987f58f5c38e89ce4
series --p 5 --kind S --order 2 --format json 0466548e9c66c029b3ae94092f4dafb2a30b4348c2385907e30a4524dc8a771b
series --p 5 --kind S --order 7 --format plain 88e06a40ec87fc2850a41964eb6b10779108b78e32d7819d10724816b3eb08f7
series --p 5 --kind S --order 7 --format json 7d1d1a3375324d728722710940fe310e8064681cca4c1fa9926f0920b7314e35
series --p 5 --kind S --order 40 --format plain 0be9d8422d377550086f41f3bb4cfc3be52e8f5bf0d5713562422648cfcd26c8
series --p 5 --kind S --order 40 --format json 7449590522a556a80eaa51b14e56786c6487ecbec211efee2b8c9d3e8ef4f973
series --p 5 --kind S --order 300 --format plain 3c84c07b6a5fe88b73fcc409372b949b7ec481a80d23b0f21ed8849220502d12
series --p 5 --kind S --order 300 --format json 36e3b2a57025b11599d151f99119fc39c67450f77e21b49253cab481ad600a4d
series --p 5 --kind S --order 3000 --format plain ad3c9cd240099ca1f87b19cd7610b6aced79b856fcfb47308f0941a4aeaa9e47
series --p 5 --kind S --order 3000 --format json 6b8be4a6dadcc02f1cbae3bd7767c008ea97e9890f3d921b4a0b3b05bbbf983f
series --p 8 --kind S --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 8 --kind S --order 0 --format json 772342c9606f50b033f91fba651b66036509815e448b718ceab9bfc76b29895c
series --p 8 --kind S --order 1 --format plain 86ea2c5333500da85344d2e5ffb7ff7c9020b408a67a72fbb71b8d7440fd87de
series --p 8 --kind S --order 1 --format json 3c71008d3c2f190bcf704fe4baca9b59ed9f03089db9c200cd3891a5ee2f48fb
series --p 8 --kind S --order 2 --format plain c696b12148e30415906018abaab8673b72ca5ea347571fc19f4d676a4761544b
series --p 8 --kind S --order 2 --format json d4f8a55f4e3cb0941b6f0e56c271e5da3080632e7768edca65037b51e7115b08
series --p 8 --kind S --order 7 --format plain d069655db347e77cd78f25dbd8fb01f5f328c078a7ac9a1bfda7fcc723a2e61c
series --p 8 --kind S --order 7 --format json 0c0520fe0de2f278c12b288ecbc5a640eb48625ff876a21aff0eb3f1b1aebf8c
series --p 8 --kind S --order 40 --format plain 602d3d5f7e497f90ef0a2c3d98d2e03f424c3f1a5e1080e2bfe6750a5bed313b
series --p 8 --kind S --order 40 --format json 2aab2a74f7d0f1d0ab570d9895c4834d674590f96a611915d17eaa3cb7de388b
series --p 8 --kind S --order 300 --format plain cb5db293392bc6c651e8ea6bc0c06d197acd1795e05ce457066bbb677a586eab
series --p 8 --kind S --order 300 --format json 83f6757c97ba8b20196cbd2e07e4cd0f6cf67f9395f0194c6e835d4a4734ca4a
series --p 8 --kind S --order 3000 --format plain 90dd2f343130ff695f5c68f273a8128f7e649dc1efeac59b206355dacf0a7765
series --p 8 --kind S --order 3000 --format json a1a00684380f44483e651b656eb6037fc7afbe2d5cf51e291a3bdd7d16181d8e
series --p 20 --kind S --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 20 --kind S --order 0 --format json 4a2822f192ecf006881c323c963eeddf10f457eac407f310839fc0f4ec711e76
series --p 20 --kind S --order 1 --format plain 41cc4801e62aaaac2d4ce65ccdda064a82dbeaf0cb79d74ea71cb2b6bbc82274
series --p 20 --kind S --order 1 --format json 093b5e3998b7dc06f7953b2d52afa4bebebd0f9fcaf2757fd41008b7607d5f8f
series --p 20 --kind S --order 2 --format plain a2109ef3f3649dde31bb54306160e99cd7b75a07e77ec09d7f15cfe86ba79ef0
series --p 20 --kind S --order 2 --format json d810ba85e06105ac5489b25a67c39f2bc7cdb350da1ff15857df6c3fd3a527dc
series --p 20 --kind S --order 7 --format plain cf4ec3ec35b0c9fe3ce6f4ba494ea35274c05c328a2b34dd1ed69cf704e40e7b
series --p 20 --kind S --order 7 --format json 9e0ae16e0a1847a215667d84b3e608eee179214a8901796666e17b2cbefb6713
series --p 20 --kind S --order 40 --format plain e30d3e7d5b355ac71b672f7ff296debbd5791c4782d68c841ab45faace43c902
series --p 20 --kind S --order 40 --format json dbca7b435574b170323e5461cb180c0db6df1893cb37678e4a614dab3ec7914a
series --p 20 --kind S --order 300 --format plain 7e9989402bac7037186be3fa2c1bebf13cb3ef64de611947bbde24c83da52776
series --p 20 --kind S --order 300 --format json f03ef1f6d62865a670984dc779abd3cfbaa1225b4c9038e4c4bd392089a4b033
series --p 20 --kind S --order 3000 --format plain 2e5c0e35a6f347b0d03081643f4770ff14f25ca795071fae8acd544d241377ef
series --p 20 --kind S --order 3000 --format json 476573da075afff438adffc3e60ced7b6cfe844229262458ecf14b1cb42ece06
series --p 64 --kind S --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 64 --kind S --order 0 --format json 1abba1c3d55ab544dc61451eb84623299a71c72bffe87003c85608b7c7e3e16a
series --p 64 --kind S --order 1 --format plain 02249e2a776d078919726599c0fb91c7570b4439158312fe97d28b64f32e7d15
series --p 64 --kind S --order 1 --format json 7da27b18995a08b26a9a3e75865ec7dc84ade80263e5b52818042484ac94fb7f
series --p 64 --kind S --order 2 --format plain 88f99c48cea8b8bfac7d7b74229afbbd8a8626f6e4ab40f56ba5dbf354384815
series --p 64 --kind S --order 2 --format json 462e22d27bcad73572eeefed68468395f5df42b298a9faf2d49abd9b3bd54216
series --p 64 --kind S --order 7 --format plain 3291df86c8b2cf53aed262d762521bfbdec40da45eae9da872c61ce2f97f24b3
series --p 64 --kind S --order 7 --format json 52788482a17318cbe1f843bd9a092a45cfc6616a2c2df4a0370b1f4dfde422eb
series --p 64 --kind S --order 40 --format plain 86e568b717c2ab0c44ef8de8e4630db3f982965519d14eb62ad189eb89b1ef1a
series --p 64 --kind S --order 40 --format json 8ae7c808b104f0025151c5c2d8795e44feb2cfbe633fd05defea7e03e146f1e7
series --p 64 --kind S --order 300 --format plain 6ecf9d61798d07c85c208e311d0b7a50ea35b552e45396a68062a47169af33d8
series --p 64 --kind S --order 300 --format json 93bacd26bd79e3a8d8b1caafcbc2a3ed67107e4907b9f1320d41c54f0633f62f
series --p 64 --kind S --order 3000 --format plain ac6b30261e4a6ec82b32fa8645ef6eea570d3d5050545dd372701f3f34dd0385
series --p 64 --kind S --order 3000 --format json 3416a9fd53fc47fc44801df3bf280620439c709cf504081a6ebf8381182b8307
series --p 1 --kind I --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind I --order 0 --format json aa9939be855d643022dd26d8552eac8aa1542173a0b79c301ac9e355fd925d28
series --p 1 --kind I --order 1 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind I --order 1 --format json f4aba4c868a7f0d776ca2b607926a011095bf920e61516803d375c334738db1c
series --p 1 --kind I --order 2 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind I --order 2 --format json eb35003206f9ef496d3677c5467272d249d659e629de06e9a1c887cadf387920
series --p 1 --kind I --order 7 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind I --order 7 --format json c5024c3a943c68105fe0d8c848c4927e61a292a44e713650821bd9bee767f04f
series --p 1 --kind I --order 40 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind I --order 40 --format json 100451d3280e617d065b8e588a934dc0e67680fd0c4b669b4a3d53be1bd7c581
series --p 1 --kind I --order 300 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind I --order 300 --format json 0e927a926acd724ece6c7b5fdff6d7dc1a28767d5f63652f2e8a5f71e5814e3c
series --p 1 --kind I --order 3000 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 1 --kind I --order 3000 --format json 256a22f8ed67b550ea81105ae5d16e0d6ca80fbd43759d14e19e24dd92a72a79
series --p 2 --kind I --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 2 --kind I --order 0 --format json dd9166ad828b01b02c88e5309826a608907cbf47b7ab2d8de2b148dac64b7268
series --p 2 --kind I --order 1 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 2 --kind I --order 1 --format json f137b24888250cbc5a1faf3d97cfbd1c1195fa48d3bb6cf4a71458e0a9dbecd0
series --p 2 --kind I --order 2 --format plain 2431ec6348e23b79de40af9415112a46e773402c388c1e7356ce98ed30ea231c
series --p 2 --kind I --order 2 --format json 96f48e9f78e00ddc38101c16c4008bdddbdbbb56eb5d2eb76d7462e7a990e02f
series --p 2 --kind I --order 7 --format plain dca156a6e6bdf2543135ee103ba851f4b6523aef2821193346f81c77ffac4aec
series --p 2 --kind I --order 7 --format json 612d70b4db0264cf78923233595c20624e24c21fdafe40f6e4d6fe6506214e1d
series --p 2 --kind I --order 40 --format plain 90d6d69c98d982bb720eebd24c24a175c51d47ac5f90b6416c46ae19d210f460
series --p 2 --kind I --order 40 --format json c8673c6bb237101e5d892a15d1dfcb7ee9792436c959b0c250aa9cd2c1b04acb
series --p 2 --kind I --order 300 --format plain 9eeec9e4ba2b5cc57e1e73a7fc6d86181a281e20d843d85ddd11ec99b90dd074
series --p 2 --kind I --order 300 --format json 9ebc96f2162ad4f5a2298aab3f2c045c3668f444e4de96c36e99a533a41cb6f7
series --p 2 --kind I --order 3000 --format plain a85159aedcda8c85ac910a03092774ee843148676fde9e780bc8404dfe0a2d95
series --p 2 --kind I --order 3000 --format json 28dbf325c4a8faf6a0b7de0d7e2a823f387b28957016fa648c1c0fd291645789
series --p 3 --kind I --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 3 --kind I --order 0 --format json 8300fca59cb509edce5de25554992e603ae6094187fe175fa6f18866e4b386c6
series --p 3 --kind I --order 1 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 3 --kind I --order 1 --format json 52ac7d1125b1a42a11f83b6ea34b1b75c3da1927667761530cf60433da1fc1a9
series --p 3 --kind I --order 2 --format plain ad93e11ed69b260748c2b2bd76a95d5618177605a11af2092b803258dbc421d3
series --p 3 --kind I --order 2 --format json a7d21506f49dae3066f8840fbc0239a2538a876f9990694f58667e36a2b474cb
series --p 3 --kind I --order 7 --format plain 764c03138d50b850daa7a0a44958488c8839065bc71ce40f262aed38e853c034
series --p 3 --kind I --order 7 --format json 1f02b84932b321077fa2b59f52ea78ca903c9b7a0d56d30f4a6fe35cc51c7610
series --p 3 --kind I --order 40 --format plain b83e321d3f48d9534e3d37ac5a249df01a6b944077c3b7bbaec0fc8269cfe55a
series --p 3 --kind I --order 40 --format json 16823820b754622a413c8f63c6324f2f70ac227232de6c6e8c5f2985f5c81c6d
series --p 3 --kind I --order 300 --format plain ae928fdebbd7aedeb0c5639c6261aa46bac660c948754bc82fb7b14939105b8f
series --p 3 --kind I --order 300 --format json 17b24ca0a24cbd5992a80ba9d5745e1e8a0e86b9184085cec96efa1fc2d9cd5b
series --p 3 --kind I --order 3000 --format plain aea8b276e5d6e4ba44bdef45e0b35da881b4f8daec9f5f67c8caa32f1f78b6f8
series --p 3 --kind I --order 3000 --format json 45de35fd5249fe1c6d5b0b73f751affd777f9193dea03cccaf36259f897d81a5
series --p 5 --kind I --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 5 --kind I --order 0 --format json 25cea380433e672aef71f3e0bd1eb2e73fd735ef322a4c73365b4835233d7d6d
series --p 5 --kind I --order 1 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 5 --kind I --order 1 --format json eb2a12f0dbf90a00d8543bf725019bc2c70dd1d767a7aa35ce02ec7354af6da3
series --p 5 --kind I --order 2 --format plain 4d6a1e5767372a6464a9ff35b73ffda486c46f541fa664cc8033f6249179d918
series --p 5 --kind I --order 2 --format json 46d8ae47e7bbef30724fba7e839fe010562a71c845007c86b0b37df645b6e0da
series --p 5 --kind I --order 7 --format plain 7224936c85bff149fd4512ef87c2b253dd96731c8f5954b048599254ae56d35e
series --p 5 --kind I --order 7 --format json 1ef78543f6bf8a43788f449cff7bc04a6789010ef6841d68b5aa1ba4707f29fa
series --p 5 --kind I --order 40 --format plain a2ef00f874398fda3d90b4c89e8df54d4c7eccd5538a9082b54f1c4e4e520284
series --p 5 --kind I --order 40 --format json c0648884fd446b8a2c4e33566d895bebe8ff1a5b4755726d9d8cbdbecf268dc4
series --p 5 --kind I --order 300 --format plain db821f29fc536315ec6596bcbe9e8f61364135dd37aaaae1428fe568e71cfb82
series --p 5 --kind I --order 300 --format json 73d99d0496694a7d9d71cac24d5c6d164d82a8078685fefc951bf2f35c48ad7a
series --p 5 --kind I --order 3000 --format plain c40231e368a14c7e592c20dfb650f64456afe6d4729851d40393c651b85a8872
series --p 5 --kind I --order 3000 --format json 54a79ae9705158fc5a170ef32589d9c485304d382bc3eef5e42419e39e7884ab
series --p 8 --kind I --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 8 --kind I --order 0 --format json c3c25a3ef86a2e0628ba1de6b73c44603b93a07ad733121c3b996a6d1b73a2da
series --p 8 --kind I --order 1 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 8 --kind I --order 1 --format json 7236729ccc132172280849003f15e266340c245e7331f8b51ff0e71e729451a4
series --p 8 --kind I --order 2 --format plain 000fcd1f4727f8651b5c930a9a4e5d8c04871da320f1a86dd64a8941a0ba43c3
series --p 8 --kind I --order 2 --format json 655997663cc9cbc89660e176f5ef1d1b0f89b33e8fca47ef9c1f27b40af4b934
series --p 8 --kind I --order 7 --format plain 0bf60c81d3f954768df2b7cefd7d0a06970758170afd8c1bce8e4ef389e418cf
series --p 8 --kind I --order 7 --format json 8b4fc748975b5379756632b8b682eeb436168847113d5483e3bf130a4c97074c
series --p 8 --kind I --order 40 --format plain 56e47d9603393dcbad5221608aa82568dfd9ecd28a7a7cd8244faee00d882bd2
series --p 8 --kind I --order 40 --format json 079b6023e2767523c10c2df22afbfce2acd110a88736f76353054a20af4d3f9d
series --p 8 --kind I --order 300 --format plain 29410d3ae146f84050542fdcd4d5613c4fcd7b84d990be2e2e310ba7405dab77
series --p 8 --kind I --order 300 --format json 8f789b66a7efa77b6bbc15cee4c134335fa5d1ddd5e3e15cee79d277224356be
series --p 8 --kind I --order 3000 --format plain 13d91c51bcebf33cdafe281a5c9b33314d8736f6d136b03bede2bbe2b333582c
series --p 8 --kind I --order 3000 --format json 1a853b64437a946eed9257157f40bea4a38638025ccf3f38bbde8e45c9dcbe28
series --p 20 --kind I --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 20 --kind I --order 0 --format json 6aa7d7a240b0a31651ed6e487bc8c6b8706fb1be8f783783ccdbcdc77650c9a7
series --p 20 --kind I --order 1 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 20 --kind I --order 1 --format json 47be36eda18caf943c85d45ae0dc08a0c2a224048ce0c4101b55c667d6b982d8
series --p 20 --kind I --order 2 --format plain 03f6dd2b922ccc8b70dcb216fd0b3b75f478d3d5d96e1248d61f9b30fb50d8c7
series --p 20 --kind I --order 2 --format json d184310fceb7fd7e9a3150bdc8512fc516e4f3d4e8e1c5c88c47741fabd1d7d1
series --p 20 --kind I --order 7 --format plain 566e20f0e2e1ad8aae0944f6fe5f92afba6525b0ce78f4bdb8d71a13e79c5b27
series --p 20 --kind I --order 7 --format json 3811a6f39f7341824d533a553ea73f6e26c5e152b112a4048f7b96239b75959d
series --p 20 --kind I --order 40 --format plain 08c10e42ce66faded2e25fa042181f8e84532ccc96489642f576205c0c4fea94
series --p 20 --kind I --order 40 --format json b8c47acbe3906c76dd1afb51ba56ef5b3de9debe206e06373654f38b160713b3
series --p 20 --kind I --order 300 --format plain ba6559059ee2b09cdf8c29145d580f2747bdad719bbc6f378a8129e9dc95d20b
series --p 20 --kind I --order 300 --format json c79caaf32ed91d530f8e29edd6bd1668c71cb622763ebe7d644fb4d7203d0d7e
series --p 20 --kind I --order 3000 --format plain d3b053ff3aa8bbc22a7c8bf9d443171ba6b4de4e0ccb7f57d9710b15287e42c3
series --p 20 --kind I --order 3000 --format json 3f75c1d80bbc95b2612213b62773ac12be0f7839384415e0419f6f5a0995e1bc
series --p 64 --kind I --order 0 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 64 --kind I --order 0 --format json 0a895a997165ce51b18677920b86ff39cde1ddfaea0af995d9f5e8fb152990f3
series --p 64 --kind I --order 1 --format plain 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa
series --p 64 --kind I --order 1 --format json a2fb140f82698542ecb96139b2c6ea64f83a31d48f8932cb5de1d4f89c8698bc
series --p 64 --kind I --order 2 --format plain 33824a1acd0e1d4f3d455a3cb4d9ff4d336bff58732822d13dbcf0985ca2c5e7
series --p 64 --kind I --order 2 --format json d7bb0b87c8598b3503ff3f7744a8f0e668940dbc52ebd6f73bb2c2cac9379972
series --p 64 --kind I --order 7 --format plain 1f98404a0b5d4a21a6c365abdd310b6f5fe604de8f12995e1d9e7f0925beaa20
series --p 64 --kind I --order 7 --format json 8a7e1378768c033024b41a15028287644a1bf68ebb483e7c1cbf691c220ed3cb
series --p 64 --kind I --order 40 --format plain 2dc20f9e142b9ec53917861a38c51e8e9ef2347631e2c6f3da18a81347eb3918
series --p 64 --kind I --order 40 --format json 839fe35c0863079446a14560a04febc0fb5640dac50e3ab97697521b3b429181
series --p 64 --kind I --order 300 --format plain 8d8036b41a10fd81718ebf2bec3b71b5dc8588e7cebc59e0bc14b8b912243e69
series --p 64 --kind I --order 300 --format json 190247bd25863e46b8addf702f1cef5a8ea613f20c6d7c4708dba5b3e96f9cd7
series --p 64 --kind I --order 3000 --format plain 957207cc5b37a9ff1b318768cfefe2f7837498c28d5b16f52e46c2c84dbc251e
series --p 64 --kind I --order 3000 --format json ca19be4ee8e37e8ec9518b082b2e1231804517c23f581c6a68cb551171d25dce
series --p 1 --kind D --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 1 --kind D --order 0 --format json 35df2ef620d6115b8cec523c363bcf7862b2683fe1bbff1e156124077a77e493
series --p 1 --kind D --order 1 --format plain 9e401fd20b1cc39428093073f2c2e645a7cce63251517eb029c5e546791ca9c0
series --p 1 --kind D --order 1 --format json e07db434f8d384fb37001f66c1f24793c9eb3cb8ede6cd5479dd9f5484ecf564
series --p 1 --kind D --order 2 --format plain 93fd15c8a52050c5e7e81ba5397fb4bff09c0ec5847e8bfa52025639b290f6dc
series --p 1 --kind D --order 2 --format json c85ab82bd4991dc34cc05377696f6148fb0690c1267948cdcc3aa8b5c71c2577
series --p 1 --kind D --order 7 --format plain c9a1d3ca30d34dbaf16967150b896bacc16f0ede1353ca6f3ffffed49b8878ab
series --p 1 --kind D --order 7 --format json 6b332940cc74bf7f17a240fa3cd27e5ef17dff590685dfbd79afbc47dcd57ee5
series --p 1 --kind D --order 40 --format plain 3b51f9c2b5851f58227eac0396c9d54d8c7f7dbe2ed67954eda8b7a7365cab5b
series --p 1 --kind D --order 40 --format json b97af0ebb5b0b74c518e2892ef3ed65caec0b9bedc4ad8abe755abc20652f265
series --p 1 --kind D --order 300 --format plain 0039ec717b074958531c51b6e88808ff6f975ee120d15d847254d3865bf07179
series --p 1 --kind D --order 300 --format json cae64edaf4d12e94f3147275bece4233ef6ef55c51a1c650c3af95bc0386f4f9
series --p 1 --kind D --order 3000 --format plain ec4b0011b006fed1793dce570b0a7bf2d07fdaa5b8bdfed4b8bb5e9b2abc3740
series --p 1 --kind D --order 3000 --format json 5d7c10c978436fa9d54c53e0c7f58305059aa68b8f4426c2573dd97e064f86ab
series --p 2 --kind D --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 2 --kind D --order 0 --format json 5f9ce198fbeb1c92d9655635599c2da37ab887862ecfe41dacb477ece6006912
series --p 2 --kind D --order 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 2 --kind D --order 1 --format json c5c52b399f346ff24ee23f7f32d4209e5891d7ffcbe379907a31a7d8fb7f4453
series --p 2 --kind D --order 2 --format plain 0fb8a8a9a4a202ad774aa718ef6a3eb6b4c9ebf86536bc589cbe56c4b91ab0bb
series --p 2 --kind D --order 2 --format json 5e6095c8f957f37a1341cebfa3a9efcc7e5aa83b07173bb3029f7e988d1d906a
series --p 2 --kind D --order 7 --format plain e9b73d3a00c27db85a53d354a6a9aac585dd367a04e574e49d8f64f4b8188cb9
series --p 2 --kind D --order 7 --format json a0bd25453d43cdb458a60d70a44d82a9206ac500e58aa1a2cd86db505724beb2
series --p 2 --kind D --order 40 --format plain 27b8685a3ac5fa2b979db5a62b2ff9fb88d57c1cce1c7e8852c65c3e995ae2b2
series --p 2 --kind D --order 40 --format json 334777b3defde5567688894dfaf110f3fd6445837628da12ac578d6a99c8ad1f
series --p 2 --kind D --order 300 --format plain 7688dae684f1f2de5df47ccf42db773d140fe24eb3c6edd730ae6d29471977bb
series --p 2 --kind D --order 300 --format json df3ab56ee1866254b18adf3a2ff85aaf496289dc905d36c39d581cb242d7916f
series --p 2 --kind D --order 3000 --format plain 567691682736aad3bf98426038120bdac35bfd573b7c21426c775e1761463a1f
series --p 2 --kind D --order 3000 --format json 845921220ab1b06a4be20a398433f588e4ff3a79ba1e4ca440268fa956fa6181
series --p 3 --kind D --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 3 --kind D --order 0 --format json 043c158325699d5c81bd720b09f98c494a236f1a109561b4a280f2bde6514f47
series --p 3 --kind D --order 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 3 --kind D --order 1 --format json 40bf0044dc3c549f2bd9363f23f4513c3f926651e4b228a9e6a30c7c9d0d6627
series --p 3 --kind D --order 2 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 3 --kind D --order 2 --format json 2f15a23bd6a16c70042d673ba3f95c31915de05cf6881d9dbf6645ea4b9f2c96
series --p 3 --kind D --order 7 --format plain 453ffe529cce18bcba083abb171b6764c99b1647d04d4c2238acaa85d9bf3551
series --p 3 --kind D --order 7 --format json 4903011389966a93ba63f299752dd96d059a0722b34e383859686c58942b1f7a
series --p 3 --kind D --order 40 --format plain b0fd0beb7205854974f8f4830cf48a9fef554922fe9f36c0132dca6a16b47e80
series --p 3 --kind D --order 40 --format json d9f79862747b8770280bf894be726be6e3f7a615dab0ae58235bf08af16e55a3
series --p 3 --kind D --order 300 --format plain 84d23cddd915e7ba2990a4479df0ccde2356d0554121b67aba61049d67893ba4
series --p 3 --kind D --order 300 --format json a970c660a9432ca88f39fe70e2e4a366428c00c125619c596b130b701d6c962e
series --p 3 --kind D --order 3000 --format plain 3ba68cefbc90ccdd54ba7b2b3a3d7845c239e9c487a08515f9adacfca6bb3007
series --p 3 --kind D --order 3000 --format json 6aa944a6c453597560d1812fddc4fd451a22c54f706685c13aa75ec4c7323b55
series --p 5 --kind D --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 5 --kind D --order 0 --format json db9866aa68d2d18aaf1ed2dbf0afff3894a0a5574bc1f8911b3d25df003a7565
series --p 5 --kind D --order 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 5 --kind D --order 1 --format json 4496db6d25449a2bc94e8f5b68fb6773240b216505e8571d53d06a3c2ca7660d
series --p 5 --kind D --order 2 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 5 --kind D --order 2 --format json c5de24fb5e768dfcc84bd62948691cbbc404e703dbfacc8e101e36fe20519e19
series --p 5 --kind D --order 7 --format plain 68a48f69c47fe793195b0f36776a358a23561e8a0f96cfdecf5bbe12a12debeb
series --p 5 --kind D --order 7 --format json a97599efb2182fbf3d7aa6f2465a2c8f3fafab2c68c47e0518fe5ff2ca3903d5
series --p 5 --kind D --order 40 --format plain d0b53051202bda7ab59a4985d0b4fe370d76054ad713c50bf8b061ca191d40c7
series --p 5 --kind D --order 40 --format json 0f12efb60b620c827e324aab7e713191a58901e2f080f321fae47b83d5eae0c9
series --p 5 --kind D --order 300 --format plain 0244e1c5233f2d084ae49f915a9317a960dd58b875fda954eeccda431ea85725
series --p 5 --kind D --order 300 --format json 06c62936a42bb9e34e42f8afa5394028ba84e1589d60f1c7bdce719656022e54
series --p 5 --kind D --order 3000 --format plain 52933caf0f40a0856c9744dd68955d6f9f6a42ab83f4fe51e1c0473673e039d8
series --p 5 --kind D --order 3000 --format json f525d10d4031a81ddbb11634b8800f54b351d82176f192c44f5f06b46a7f2c8f
series --p 8 --kind D --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 8 --kind D --order 0 --format json c726aa83272f0cc23b11b807f84f41e7b7607c0163d5c6209534bfe73f715b0d
series --p 8 --kind D --order 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 8 --kind D --order 1 --format json 7376c4da795056062ef0f9079250fee216fdabd9cacf75c5eefa6ba0f9b826d0
series --p 8 --kind D --order 2 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 8 --kind D --order 2 --format json f9ed6397645731b4d30c5c01edfb8475b100652e15302a538db7bf61b64c9322
series --p 8 --kind D --order 7 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 8 --kind D --order 7 --format json 376ea049c7ba6c173710a3fe8a6d879237206d40f10ab916a80ed389693f131d
series --p 8 --kind D --order 40 --format plain ef7eb8ad541bfdc7b11ef2cf18baecfa78575fd41dc2bfae877971492b72a5c7
series --p 8 --kind D --order 40 --format json 450e3037fd22b3b2cb6c29dab8a349f0a2a48a57638a75ca3a97dcb1ac03702c
series --p 8 --kind D --order 300 --format plain d69d3428b411b7b4da0ec6068995f34219f72a0a01705e7c4a7f57cabdab0e96
series --p 8 --kind D --order 300 --format json a5b684ad6be052bfb2a33954999027c0edf24de66a67a718d10a31182d81e1f4
series --p 8 --kind D --order 3000 --format plain 9ca56eab6ab060d5c13a3fee5d0fd0a2672e6b3ed23625b6b27e4fa9a4360801
series --p 8 --kind D --order 3000 --format json 12f282934f3d1666efa5b3b521bae7d435c1bcead4145c0edcd8962f2facadaa
series --p 20 --kind D --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 20 --kind D --order 0 --format json 78392da989edb5cb825a9a5aee313066af05d18ccda2f440410811f5af084abf
series --p 20 --kind D --order 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 20 --kind D --order 1 --format json 003bf3b3b8ba5462196224ab6eabafe1ced80e49b369e87ac1b451581fe175ac
series --p 20 --kind D --order 2 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 20 --kind D --order 2 --format json a730d36d3385c63409ba9dcdb42a8f5d45fdb52fe8b287e5e7c0283af8cd3c81
series --p 20 --kind D --order 7 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 20 --kind D --order 7 --format json fd48fbd2913216466d30bdd7cbdabbaf58bfe6f1290dd9f903e8228a8ffbdf66
series --p 20 --kind D --order 40 --format plain 21a75bf6961e7df7957999007de807f5a7b744414e75a679491df6d6f5ff65ce
series --p 20 --kind D --order 40 --format json 4d34d0bd06954d56e0e987f4fed787b134d1bc40040ae25ff627b791fa68d51e
series --p 20 --kind D --order 300 --format plain bd45f1258d78cc1ccec8d9eb40e98591ff8e6082a9104115ce1eebba24378f81
series --p 20 --kind D --order 300 --format json f853f15285e458f348b1f9132fa4d8e42fdeb7590eac1d70b25bdc14ce0dda36
series --p 20 --kind D --order 3000 --format plain 23847cfcf7149d357e2a27aa5210a637142ce1e94ada66b1d560ecc7ee8765e6
series --p 20 --kind D --order 3000 --format json ea48fd7fe517f4e330a25f247801ec49423701bab8350e03fb751072c9e83cf7
series --p 64 --kind D --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 64 --kind D --order 0 --format json 5392ebe6015a22a181dff30e6fa08590f829497aea73ea2c869b05f253c26a1c
series --p 64 --kind D --order 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 64 --kind D --order 1 --format json 813737aa3407a0d04f1233c8843c467186bdb2ea49acd3d4ac92b8ad6cf759ae
series --p 64 --kind D --order 2 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 64 --kind D --order 2 --format json 13494dacc5127acf83a1eddb5a166c1006fc3b100f01b25c3160c51fa5802632
series --p 64 --kind D --order 7 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 64 --kind D --order 7 --format json a7723d8a26dd12c8bc9623cc143e7ff27e7a1baa85ac2af6b8cd113ddd0d7aae
series --p 64 --kind D --order 40 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 64 --kind D --order 40 --format json 259cc9db44c65a07207eb06aca8dccc95617454bccee1f8567ddea424a37aaf2
series --p 64 --kind D --order 300 --format plain 80fb1ab95df05cc760210afe17a7c37004aefdab670a1e521972f7758cef37b1
series --p 64 --kind D --order 300 --format json baf488f0ab37ab15c461955b3704486013677be0f237f80592740b0c46cd9f5b
series --p 64 --kind D --order 3000 --format plain a5e8e842a741487a29402708d2c05c3dbfe4d448f78fdcc8d33b48435f847515
series --p 64 --kind D --order 3000 --format json 33fa286c71c1438cfd869a06968a6a6323d79b2113e6a73eb78861fe07ee3322
tables --which 1 --pmax 20 --nmax 500 --format csv 26c0c6894dd5a45c2586b4ca2a3d24981a1e1813fbde537ca7251df83b1dd772
tables --which 1 --pmax 20 --nmax 500 --format json 9a4f4093740fd185e0635a13d0eda0decaa637ce4882ae3a0ba54e6e144000e7
tables --which 2 --pmax 20 --nmax 500 --format csv 54b97704e1a768d7cdfd3c92ff65d83b615e21594bbb2adf08dea9ab2d9c8e02
tables --which 2 --pmax 20 --nmax 500 --format json 95aca3aa5c19abc08ed2d5ae0a9484b17f692df78c0964ef0a11c8ad0044a560
tables --which 3 --pmax 20 --nmax 500 --format csv 79fabc505c27ceac26da32d98042bbc491981ee33b9d5691a23c487cb6d33223
tables --which 3 --pmax 20 --nmax 500 --format json c5971cf89ed341716b68b44bdd342fb23fd6008e3948d014f1b4e3a3bdf2977d
tables --which 4 --pmax 20 --nmax 500 --format csv 8b5bb0d03be43b5a345fa68b7438127161757c7e25f6b7c17ef41c82d4ffd679
tables --which 4 --pmax 20 --nmax 500 --format json a09a108009f5d8e0d69c11f28eee115f72a80b6a34a76c54992d1e73f5991793
count --p 1 --n 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 1 --n 0 --format json cc2026a028ffd0ce977aabe05ae886fefb2dfbcecff2ec6d1f2b283f70ede36b
count --p 1 --n 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 1 --n 1 --format json 2bd4e1b23a0499e432372bcc5d4e8455113c1ca977a6f598faa4ce0eecd984dc
count --p 1 --n 2 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 1 --n 2 --format json 51605d461870e323054a240bc43b12fa066b0348d3eb3238a7ec21c4e7fff901
count --p 1 --n 10 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 1 --n 10 --format json 41ec57ac4ca06a375b942265be6781bbfbcc39f8a7a28ac183c3ab93cb368871
count --p 1 --n 500 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 1 --n 500 --format json 5ed7a36dd6cdca003308133ff9240bb1cf66818e74fb206d4e37a1cff140e30d
count --p 1 --n 13000 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 1 --n 13000 --format json 3de1526c5049a58458cc37269ca8713cbee348b6455f9a279f5ea4109fce08ad
count --p 1 --n 50000 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 1 --n 50000 --format json 999bfbe710bde4f608b21b8f454e5cca1de16f441e7f75512b791868ec412714
count --p 2 --n 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 2 --n 0 --format json cd4c45da266efb21b89728947c669b1b8bee131c0067b2c4c50665f2d23113f9
count --p 2 --n 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 2 --n 1 --format json 8d4cb58d0d496c8e1b074ae0304a45a10cf587d398b93a2945cf0adb2cdff88c
count --p 2 --n 2 --format plain 53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3
count --p 2 --n 2 --format json 56b981a802a60c1afece0b77a32101ef7363b337b7a4928aab7534c66132e3d9
count --p 2 --n 10 --format plain 69a9cd8a9e12b122cdf59392131bf6c83e7360c2f745921e76f48a16f1cc541a
count --p 2 --n 10 --format json 2b7c9724024cbe8823291b35240b317425930dbbb183ddb63627583b8b8bd982
count --p 2 --n 500 --format plain 76b3333422ac5311ec30f0eb4ee6ae6eba2c9ea14fbb44e7678d91af6081d05d
count --p 2 --n 500 --format json aeac57b08c7ba18dac40473a9ac76ccf70e82500191e74d48947bdc099e41bd0
count --p 2 --n 13000 --format plain b6eab00bcb45c2284ec1c4813b5ee4eafd2679a697d4e21de610edb2209af848
count --p 2 --n 13000 --format json dd805076653c19f2139b4e568d200037cf7ab490cb8bf09829a9a113a6f69707
count --p 2 --n 50000 --format plain 43220e98dcf2256fb27ed2c3c7932c27aee6cba5a1a1fecb710b6ec098ef5040
count --p 2 --n 50000 --format json 4031cae925c8f4e5bfd355c8efea3fdd5a228f44df0eef71ec19c4c8bcd67aca
count --p 3 --n 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 3 --n 0 --format json ca7a2a83c690ca0ba3146d0d7301ad521e0389fb54247423087fc1c0ab4f85f9
count --p 3 --n 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 3 --n 1 --format json 2f76cb590630c26b8fcb94e71b1ca32194384b116e118acdf8be7e8092ed85ec
count --p 3 --n 2 --format plain 53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3
count --p 3 --n 2 --format json a89b5d06b49570ee40df377a27ff119388a03c79ca67c0f742be198675aa25e2
count --p 3 --n 10 --format plain 4b49373a681afd0aff95d86149a21d38f0ee15491391de5a73185a7c87c4b73e
count --p 3 --n 10 --format json 81895a0f471c1318bc06c49e29061b2416e8cc19c559b1409710c9bc894ab681
count --p 3 --n 500 --format plain 90810825fa1a868ad167c01930ae7987032f997c4251b744dec9ffc95a207453
count --p 3 --n 500 --format json 216651b53ab5f21eaf7825d21e28487b0f7afbfbda823ca05bb6aa34fac250fb
count --p 3 --n 13000 --format plain aec49d419ee3ab97f3431ae6dc86985af0f6c1262b9908c7bf29cf9c12c23765
count --p 3 --n 13000 --format json 025358daadd94a94ebdcb050133e8716a8b9a9672c2600afbac57cb257cfd804
count --p 3 --n 50000 --format plain 26f8c71fd33f54bb141d8093615ad515c2064d9c591515f77dccd9bebfbfd37c
count --p 3 --n 50000 --format json 1b12988f25e48072db4dd51899d0646ecc477e3f7e41c75700f1581ad5feba2b
count --p 7 --n 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 7 --n 0 --format json 6abb8285a60108f887271f967b435dea8cafbd6d562568695d1e3d67258153ee
count --p 7 --n 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 7 --n 1 --format json 7d2a7bc1ff5b42302c2349e39fa691a9a45e16d966e6269d43e00637ed4d89f7
count --p 7 --n 2 --format plain 53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3
count --p 7 --n 2 --format json 45625b5ea49ca62a2553feffe9a3af538d40cff130e68e091c6eb0c2d8f1bffa
count --p 7 --n 10 --format plain 81549590044d2f7b62378afe7234c54599e8cb643c760be28492c36d1aa5d90f
count --p 7 --n 10 --format json 12209365f5edcb7b283c8b066619938332c5a62d7077c57de286a2325fe822bf
count --p 7 --n 500 --format plain 5552f8753aa49d0f6b25d554ba14d3104537b77ecaf3c79b7ab80dded81b3f6c
count --p 7 --n 500 --format json ce69bb337383d9aa6fdd2f682be0346588b80dfbf0efb1c3d161f468231e36da
count --p 7 --n 13000 --format plain e5484e28536ed2fe598dd090e95f3d0716644f569761de5601d499bc823f9e10
count --p 7 --n 13000 --format json b853ab3feb80ebb765861789871a8c56b4b747f3c111588c7bbe4997adbe60d6
count --p 7 --n 50000 --format plain 17adda523a1340b8910f25687a44023a5c5aa232eeddb27de1ff00cc15bd8d7c
count --p 7 --n 50000 --format json 0f21cf742088fe6e819589036e64b8e554ca4d5ff6ca666aca61edea61be0ac5
count --p 64 --n 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 64 --n 0 --format json f566f42ee98fd26e3ffd0750d446642e2d5473e0ce7f4ff8c47d3358e04f3533
count --p 64 --n 1 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
count --p 64 --n 1 --format json 8ea6c803fb0577ad1c1b8e845dfe7a8d5e1f91046cdcbef0dd8e636dc8d58cfe
count --p 64 --n 2 --format plain 53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3
count --p 64 --n 2 --format json e01073210f21ae0f02ed0721940769d3465607e6668ee74120829f0da89928a7
count --p 64 --n 10 --format plain 240269e94afb4bbc4c643851e366bf4f0d870ff0753d250b854f748cf3516285
count --p 64 --n 10 --format json dbf7b6e1faad7b5173e578b39407f4a939d10fd821dee584bc190710b672c99a
count --p 64 --n 500 --format plain fa1db27b6c745d63fe4effbaf923722f65d2ede2a2d5a78ee6ffc41e3917ed87
count --p 64 --n 500 --format json 8ad44c65050a8c05450f8fdcdd26d22951fa4352cd390448c93b9f938c159fca
count --p 64 --n 13000 --format plain b21b0c3dd7a841958d7444127a8ce9dc3ba3cde4c5a23a96151cd0c5d81f4530
count --p 64 --n 13000 --format json 55d57baccf32f033f295fb2f7c324af12c1a9d569f4594702e92c54c4571fff2
count --p 64 --n 50000 --format plain 8794ea3c5ff248ca642798742fbcb13614d450edfba0a48db26f300937f7c27e
count --p 64 --n 50000 --format json dac13ce805d71f6b6b13a592caa2139e20fa801c0461dfcb5cc9152109d6c115
"""

PINNED_CASES = dict(line.rsplit(" ", 1) for line in PINNED_STDOUT_SHA256.strip().splitlines())


@pytest.mark.parametrize("case", list(PINNED_CASES))
def test_pinned_output(capsys, case):
    code, out, err = run_cli(capsys, *case.split())
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CASES[case]


# sha256 of stdout of the joint F/G series, one line per case, captured
# while ``to_text`` still kept its own sign loop; every case exits 0 with
# no stderr.

PINNED_JOINT_STDOUT_SHA256 = """
series --p 1 --kind F --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 1 --kind F --order 0 --format json 39d221d1cc0ac9bd0a1c14fecd0da217c26b291ca7b09ca6a1dc2763fdd2a02d
series --p 1 --kind F --order 1 --format plain 34378963f8f3b843eeb95a5743e2e52eae7eab381a70b67d72310af412e881cd
series --p 1 --kind F --order 1 --format json c4488e7975ca67ff636f3d8f7a75a54b46558d0e12ca3a62657cfeecf7b97eb6
series --p 1 --kind F --order 2 --format plain 4d9d27c8b859694cac71332efb86d5517e2b4cac201ff655c8913d38c189c3c3
series --p 1 --kind F --order 2 --format json b5dbcc7e0adb34d52998595468be7d32b83b9d16f15c726dadbe82218d55d966
series --p 1 --kind F --order 7 --format plain c5aa2306654919f014e8c96a131eb7d7f33ffed6b0183237d7fbeba4bd0bb3f0
series --p 1 --kind F --order 7 --format json 55454a63e0add83021c490439c64836aae27f71f71d68cc93278e00d124e392d
series --p 1 --kind F --order 30 --format plain e39f28f31a12b8f19a35b0730bb96ec6e3df89bf5e107eea3545932264296b17
series --p 1 --kind F --order 30 --format json ea7604f5c1a3d99ecaf345408480c0e19ed6db4249c08d4791184052f1d70c12
series --p 2 --kind F --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 2 --kind F --order 0 --format json 34973d8ac6d5bf809f839570e72608f43dfa5d7ff94118c0fa97a0864bfd7c9f
series --p 2 --kind F --order 1 --format plain 7d6c2c5951a2bc332aae00e44d6e280479df535bb8f257159a16324f7339d271
series --p 2 --kind F --order 1 --format json 8c287639e4322aa219d62c7f10a54818d650266f7a93b4d515852b4a74c28275
series --p 2 --kind F --order 2 --format plain 019fea8a2aa3a953840863728b6e16f49750fd2066a1a63f7d1f695efda91b86
series --p 2 --kind F --order 2 --format json 1dc8b02b894e77c3af596074a32d39a2fbce24c4d01be9dcf68cac7a8f555de2
series --p 2 --kind F --order 7 --format plain 2222de95c2b86a21e3e9048e8aa0142da0ae56d0a19d4347ba911a93e844675f
series --p 2 --kind F --order 7 --format json 253bcf11bbc7bcc11d9f12261e35a1a774e2ad1c023996d28392b723d5c35ada
series --p 2 --kind F --order 30 --format plain f32618d7e34c4a6829574c3bacc2143396511d19d2b72ba64370b0b245cce004
series --p 2 --kind F --order 30 --format json f72970a657b91adaa891d3c951810d1e0116ae6755b306529206bec782286a79
series --p 3 --kind F --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 3 --kind F --order 0 --format json 0eb0c5e2c46649e57bd9d37e190643198a90509bb758d8ae18cf7d5271ac2631
series --p 3 --kind F --order 1 --format plain 87b995cd433b2dab8a70790f05ea8e0f49a248310e0a2d54288b9d0a6ccfea23
series --p 3 --kind F --order 1 --format json 720c2d94cde47eec7ed541c53b182afc1a24a877bb0297286e2bbcd18ffaba9c
series --p 3 --kind F --order 2 --format plain 6e8287ba8001863c95f01285e04ade4b2c6e6bc63dd7bae1872d916466ce8266
series --p 3 --kind F --order 2 --format json e775f3a140b9d1233803a0da20f24ec8a0aea3127d6f39f10f9bab34e9689cc1
series --p 3 --kind F --order 7 --format plain 8a8928b605dcc5cc144fde3d2f110c6c276891c556f9b1126dbe5b7655b4dcec
series --p 3 --kind F --order 7 --format json 2a22fcf76ffd00027e060a8b98a89e0d6c94a918b00116f1ef59dc58d4504169
series --p 3 --kind F --order 30 --format plain 92e7b020e49b71a7acaa70b454200c36c26fa64e1bc7abb8ad797d9e14d17909
series --p 3 --kind F --order 30 --format json dfb569924b8ce16b3def4489abf2badfb5d0c04503130df10b6c07d795785fe3
series --p 5 --kind F --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 5 --kind F --order 0 --format json c9366b88fc7b78e2f28714425d0fafcf07e0831bb0166b2e989cf1ed5ded91a4
series --p 5 --kind F --order 1 --format plain 72bfbd9d989f5f52842bb94775d5cc43b2f3a82e9e48c05b0e9580ef5c39783e
series --p 5 --kind F --order 1 --format json ce1405678dae09be4f9b8a06ec2067ef983cbf6b0e9e91debf1f94547bd0cf0f
series --p 5 --kind F --order 2 --format plain e3de52c027f0b0700a11c29fa97fe5e4afce661d9f84146533fdc4d5489c53b0
series --p 5 --kind F --order 2 --format json 8f79de01f84c37a6126fe98cd1a6725cf0ca2200ab8b7e4dddb3bad969c2a83f
series --p 5 --kind F --order 7 --format plain 6bcab38a0700f7b8e9f798421f8bcf131868927dc5a5a8e3bfb82137ba879d57
series --p 5 --kind F --order 7 --format json 3374b136ccc0659cf18eab46446b467d7806cd12e85604286d7b5a9b61691427
series --p 5 --kind F --order 30 --format plain 48b88d4064f346af6f536f785f91d57c37a23b66f97711626d1331baccf8e052
series --p 5 --kind F --order 30 --format json 3dc77fd6485031547592f8d6a05ea3104cf67fb1c335001f28afe7603248de56
series --p 8 --kind F --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 8 --kind F --order 0 --format json 277c3f8ce5fe168db57044654978743d1fa212cbfca2214720dec0abd2701839
series --p 8 --kind F --order 1 --format plain b169ad3aed5a1f64b6c6164c53b4b4b24e16a06d3062f0cdbf7b49ec497cb97b
series --p 8 --kind F --order 1 --format json 26e218fe69ac70d6c3c3456b578f7433b4d3908996cb30f2665a8fc96e7c054e
series --p 8 --kind F --order 2 --format plain 2b3ab91e02c6544aa39d7334644e6191083911a493d955f5465b7bc766f7a03b
series --p 8 --kind F --order 2 --format json 29068be3a2b51f3cfa182dedd610cc8ac45626481ab3d1778ee7a77865565ed8
series --p 8 --kind F --order 7 --format plain 42582274e23d96ac6ff491dfda554698f5e7b9cb93fd6411a140a790d0212018
series --p 8 --kind F --order 7 --format json 794998a526cf9a10a0022adba6765a0e035602bf33250b3f036f16c0ff6459a6
series --p 8 --kind F --order 30 --format plain a317b9b67d6cf7601df4cebf9e8fea42647026638668dc270f602d3bec740ff0
series --p 8 --kind F --order 30 --format json 51b8cab7227d105b7b82dd736ef9bb027eb553c1983e933169916c23a1d88a52
series --p 1 --kind G --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 1 --kind G --order 0 --format json 68b7eb3c5dde5e334b679ad71025fde73690a14a2a4b5c2f971045013a57d561
series --p 1 --kind G --order 1 --format plain 5b23ed9cfc25ff3af61f35293c4473816c61150c2eae4ffc1cf0a4ed5eae11d1
series --p 1 --kind G --order 1 --format json 1364d717c5391b43883d5096b2455fb79443fca6eb4340d9b2d7b905611373ee
series --p 1 --kind G --order 2 --format plain d673c130a20b5a120a2421263fcc12f018fc9a9eb404677cc3fd044886006adf
series --p 1 --kind G --order 2 --format json 90c84bb433bb35de7709f1605f6c1d2c089c53d5a133a3472822a9ed4e296e26
series --p 1 --kind G --order 7 --format plain 42f2a62862929e126a768fe6269a278f9edf26490acf06b9b03ee769764bd5ce
series --p 1 --kind G --order 7 --format json 637fa589d092e5c13de111197eae6e18351000eba1ecf1253b81d37bc0c1b119
series --p 1 --kind G --order 30 --format plain dda02a8f0189d462983ec385361ef31ce02074a6842b41992926df7c0e50fafd
series --p 1 --kind G --order 30 --format json e52f43035d98ecea6f56d3d6515d2cda4136bafafdbbc7643fdb65adaea3f561
series --p 2 --kind G --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 2 --kind G --order 0 --format json f7195fbd686950b5ab5dc422def1bd16c40b4b742b213eb7e55158b378d0eb92
series --p 2 --kind G --order 1 --format plain 5b23ed9cfc25ff3af61f35293c4473816c61150c2eae4ffc1cf0a4ed5eae11d1
series --p 2 --kind G --order 1 --format json 31a8d371676f7bc593c0748fe63efdb7f4ad75312365e8595d5c4efaa225b6e0
series --p 2 --kind G --order 2 --format plain 1b4bedc69710312d3a8cb4a8492361f791474ddc60aea484d0da422abc333060
series --p 2 --kind G --order 2 --format json 3c99fe61486233aaff62287477bdaf11738161ed48b907b0a977f9cb1ea4701a
series --p 2 --kind G --order 7 --format plain a016cd2325b10d0d397f98df3d079223492dbe9cae1d5bdb81627c141514e1cb
series --p 2 --kind G --order 7 --format json 0c385829c0cdac579055cf6452d2f223359223f3bcf2b2d5c8fcc6e0c0b44eec
series --p 2 --kind G --order 30 --format plain 2a504c445343c862b1366583e59fc994000fe70214c8f150c2f30d7575f98422
series --p 2 --kind G --order 30 --format json 15eb06b190f5405c1ebe005a79ccb083e49ceb1009c2e54712f7e7fafe3f3f90
series --p 3 --kind G --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 3 --kind G --order 0 --format json b78959f410dcf8a390f2df933fe9fb8fd6c9927c32419506826488d0d1cee865
series --p 3 --kind G --order 1 --format plain 5b23ed9cfc25ff3af61f35293c4473816c61150c2eae4ffc1cf0a4ed5eae11d1
series --p 3 --kind G --order 1 --format json 3049b37e8aa67e8f92634ebe183e9a2012acb0f99d134e793dd4704df18575e9
series --p 3 --kind G --order 2 --format plain 08601cbb76bbd1df2b64281be4dfcb140e19040a319210f9b0fc78f295303b87
series --p 3 --kind G --order 2 --format json 71d25d2088bc9e20370b436bc3b903b6c3167f644fc8c40038546cea645fd18f
series --p 3 --kind G --order 7 --format plain 30ef1f7ef25386d42edd4fcd65f957c53eed6cdd3bde5fd4163d45b653c12019
series --p 3 --kind G --order 7 --format json a849432ee1998eeebb02557e46a2971e8a1bf1617de43c7027460687c3fcd3b6
series --p 3 --kind G --order 30 --format plain bbf07826152343e1f89757f79f759076ad6b123913e22ad8b880ad7a279a0809
series --p 3 --kind G --order 30 --format json afc210cbb0ba5a47276e6b7a7c49aca3c85e63827735a68d7cb5c19dcc02d2d1
series --p 5 --kind G --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 5 --kind G --order 0 --format json 9512d4ebf1b17fa73fbab6006e34fd7808c2c8ffd12c69f73086cf5e43965a0b
series --p 5 --kind G --order 1 --format plain 5b23ed9cfc25ff3af61f35293c4473816c61150c2eae4ffc1cf0a4ed5eae11d1
series --p 5 --kind G --order 1 --format json 4a3a6705e243eeb8eadddff6209eabb26ca04e339a6e2f856be9d6aba4b714af
series --p 5 --kind G --order 2 --format plain df9e5a9b1a511f1ea4abf6c0d7a1474aeefec6e9a0cfd031e3178752117d8376
series --p 5 --kind G --order 2 --format json e3a15d6c607172c3670d7d27c4488c922579729f0e6b410a4d665bc1d7e1e14d
series --p 5 --kind G --order 7 --format plain 27e6aa887b9ee83635a791ade600b9773628a596a02d4879cc597b14578d472b
series --p 5 --kind G --order 7 --format json 64984f7aa509af86bd66ba950538a6f668c8ebb450949960dd69d96398395315
series --p 5 --kind G --order 30 --format plain f515a6c63c31e41ddc085cb669416aaad27e192378260549c14877a634b5cb56
series --p 5 --kind G --order 30 --format json 0497b1d30bbe7e84f279e73bd6389d0282518c945999770ec58d3cd11b7b76c9
series --p 8 --kind G --order 0 --format plain 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
series --p 8 --kind G --order 0 --format json df58d9c907dc89021b28b5e0fff4a0953bf778ad63be8d259a6fe5a200ee5f81
series --p 8 --kind G --order 1 --format plain 5b23ed9cfc25ff3af61f35293c4473816c61150c2eae4ffc1cf0a4ed5eae11d1
series --p 8 --kind G --order 1 --format json cf8a6a9b98fdc5605ebc0a2cc977eda87caab0937c3003908ff4e238dfaae835
series --p 8 --kind G --order 2 --format plain 1b8aea82dd0a866977dc61a092beb8b5e06b804a257bf6731aba9e69f3768823
series --p 8 --kind G --order 2 --format json 1cc63bfcca340bf4f1356a5e2d29ca7c6e3889f1b8e6b6dbce793950f7f00b5c
series --p 8 --kind G --order 7 --format plain 6e3f6f5374ff60611369634e0e4f33836ca6a2ad0b0a21748efd34cbe9ffbc28
series --p 8 --kind G --order 7 --format json 9b3c0c892b66b77eb554d4ce6006c3c9336f3b6dd219de68f2c04aed07a91259
series --p 8 --kind G --order 30 --format plain d055c8eee66be89e7653a991d9adebec0023a7bae83bf7218e80871c93b763c5
series --p 8 --kind G --order 30 --format json 3845d39378277f4a429faf24026e3291c51afb64dee8baa98185713c61992561
"""

PINNED_JOINT_CASES = dict(
    line.rsplit(" ", 1) for line in PINNED_JOINT_STDOUT_SHA256.strip().splitlines()
)


@pytest.mark.parametrize("case", list(PINNED_JOINT_CASES))
def test_pinned_joint_series_output(capsys, case):
    code, out, err = run_cli(capsys, *case.split())
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JOINT_CASES[case]


@pytest.mark.parametrize(
    "argv, err",
    [
        ("series --p 2 --kind A --order -1", "x_bound must be >= 0, got -1"),
        ("series --p 2 --kind F --order -1", "x_bound must be >= 0, got -1"),
        ("series --p 2 --kind G --order -1", "x_bound must be >= 0, got -1"),
        ("series --p 0 --kind S --order 5", "alphabet bound p must be >= 1, got 0"),
        ("series --p 65 --kind I --order 5", "alphabet bound p=65 exceeds the limit 64"),
        ("series --p 0 --kind A --order -1", "alphabet bound p must be >= 1, got 0"),
        ("series --p 2 --kind D --order -1", "max_area must be >= 0, got -1"),
        ("series --p 65 --kind D --order -1", "max_area must be >= 0, got -1"),
        ("series --p 65 --kind D --order 5", "alphabet bound p=65 exceeds the limit 64"),
        ("series --p 65 --kind F --order 3 --format json",
         "alphabet bound p=65 exceeds the limit 64"),
        ("series --p 3 --kind A --order -1 --format json", "x_bound must be >= 0, got -1"),
        ("count --p 2 --n -1", "word length must be >= 0, got -1"),
        ("count --p 0 --n 3", "p must be >= 1, got 0"),
    ],
)
def test_pinned_invalid_input(capsys, argv, err):
    assert run_cli(capsys, *argv.split()) == (EXIT_INVALID, "", f"fibpoly: {err}\n")
