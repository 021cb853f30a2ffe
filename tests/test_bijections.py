import itertools

import pytest

from fibpoly import (
    BinaryWord,
    Composition,
    FibWord,
    area,
    area_count_sequence,
    binary_to_word,
    composition_to_word,
    count_words,
    enumerate_words,
    parts_set,
    word_to_binary,
    word_to_composition,
)

W = FibWord.from_text


# ---------------------------------------------------------------------------
# words <-> compositions


def test_word_to_composition_block_splitting():
    assert word_to_composition(W(3, "32321")).parts == (5, 6)
    assert word_to_composition(W(3, "")).parts == ()
    assert word_to_composition(W(3, "333")).parts == (3, 3, 3)
    assert word_to_composition(W(1, "111")).parts == (1, 1, 1)


def test_composition_to_word_block_expansion():
    assert str(composition_to_word(Composition(3, (6, 5)))) == "32132"
    assert str(composition_to_word(Composition(3, (5, 6)))) == "32321"
    assert str(composition_to_word(Composition(4, ()))) == ""


def test_composition_rejects_invalid_parts():
    with pytest.raises(ValueError):
        Composition(3, (4,))
    with pytest.raises(ValueError):
        Composition(2, (2, 1))


def test_block_tables_do_not_leak_across_p():
    # the block tables are kept per p: a part valid for one p stays invalid for another
    assert Composition(3, (5,)).parts == (5,)
    with pytest.raises(ValueError):
        Composition(2, (5,))
    assert Composition(64, (2080, 64)).total() == 2144
    with pytest.raises(ValueError):
        Composition(3, (2080,))
    for p in (1, 2, 3, 64, 3, 1):
        for n in range(1, 6):
            for w in enumerate_words(p, n):
                assert composition_to_word(word_to_composition(w)) == w
    assert str(composition_to_word(Composition(2, (3, 2)))) == "212"


def test_composition_total_is_area():
    for p in (2, 3, 4):
        for n in range(0, 9):
            for w in enumerate_words(p, n):
                assert word_to_composition(w).total() == area(w)


def _compositions(p, total):
    """All part tuples over parts_set(p) with the given sum, recursively."""
    if total == 0:
        yield ()
        return
    for part in parts_set(p):
        if part <= total:
            for rest in _compositions(p, total - part):
                yield (part,) + rest


def test_composition_roundtrip_words_first():
    for p in range(1, 6):
        for n in range(0, 13):
            for w in enumerate_words(p, n):
                assert composition_to_word(word_to_composition(w)) == w


def test_composition_roundtrip_compositions_first():
    for p in range(1, 6):
        for total in range(0, 31):
            seen = 0
            for parts in _compositions(p, total):
                c = Composition(p, parts)
                assert word_to_composition(composition_to_word(c)) == c
                seen += 1
            assert seen == area_count_sequence(p, 30)[total]


# ---------------------------------------------------------------------------
# words <-> binary words


def test_word_to_binary_descent_bits():
    assert str(word_to_binary(W(3, "32323"))) == "1010"
    assert str(word_to_binary(W(4, "4"))) == ""
    assert str(word_to_binary(W(3, "321"))) == "11"
    assert str(word_to_binary(W(1, "111"))) == "00"


def test_word_to_binary_rejects_empty_word():
    with pytest.raises(ValueError):
        word_to_binary(FibWord(3, ()))


def test_binary_to_word_rebuilds_digits():
    assert str(binary_to_word(BinaryWord(3, (1, 0, 1, 0)))) == "32323"
    assert str(binary_to_word(BinaryWord(4, ()))) == "4"
    assert str(binary_to_word(BinaryWord(3, (1, 0, 1, 1, 0, 1, 1)))) == "32321321"


def test_binary_word_rejects_long_runs():
    with pytest.raises(ValueError):
        BinaryWord(2, (1, 1))
    with pytest.raises(ValueError):
        BinaryWord(3, (0, 1, 1, 1, 0))
    with pytest.raises(ValueError):
        BinaryWord(1, (1,))
    with pytest.raises(ValueError):
        BinaryWord(2, (0, 2))


def test_binary_roundtrip_words_first():
    for p in range(1, 6):
        for n in range(1, 13):
            for w in enumerate_words(p, n):
                assert binary_to_word(word_to_binary(w)) == w


def _avoiding_bit_tuples(p, length):
    forbidden = "1" * p
    for bits in itertools.product((0, 1), repeat=length):
        if forbidden not in "".join(map(str, bits)):
            yield bits


def test_binary_roundtrip_bits_first():
    for p in range(1, 5):
        for length in range(0, 12):
            for bits in _avoiding_bit_tuples(p, length):
                b = BinaryWord(p, bits)
                assert word_to_binary(binary_to_word(b)) == b


def test_binary_cardinality_transport():
    # avoiding binary words of length n-1 are exactly as many as words of length n
    for p in range(1, 5):
        for n in range(1, 13):
            avoiding = sum(1 for _ in _avoiding_bit_tuples(p, n - 1))
            assert avoiding == count_words(p, n)
