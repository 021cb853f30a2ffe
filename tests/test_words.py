import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibpoly import (
    EnumerationCapError,
    FibWord,
    count_words,
    enumerate_words,
    fibonacci_number,
    is_valid_word,
)
from fibpoly import words as words_module
from fibpoly.words import iter_word_digits, listing_chunks, successor_digits


# ---------------------------------------------------------------------------
# fibonacci_number


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (4, 6, 15),
        (5, 0, 0),
        (4, 3, 2),
        (3, 5, 7),
        (2, 10, 55),
        (1, 7, 1),
        (3, -1, 0),
    ],
)
def test_fibonacci_values(p, n, expected):
    assert fibonacci_number(p, n) == expected


def test_fibonacci_doubling_below_p():
    # 2^(n-2) regime while the window still only sees the seed values
    for p in range(2, 9):
        for n in range(2, p + 1):
            assert fibonacci_number(p, n) == 2 ** (n - 2)


def test_fibonacci_recurrence_identity():
    for p in range(1, 7):
        values = {n: fibonacci_number(p, n) for n in range(-p + 2, 201)}
        for n in range(2, 201):
            assert values[n] == sum(values[n - i] for i in range(1, p + 1))


def test_fibonacci_huge_alphabet():
    # for p >= n every earlier term is summed; memory must not grow with p
    assert fibonacci_number(10**8, 40) == fibonacci_number(40, 40) == 2**38


def test_fibonacci_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fibonacci_number(0, 3)
    with pytest.raises(ValueError):
        fibonacci_number(3, -2)


# ---------------------------------------------------------------------------
# validity


@pytest.mark.parametrize(
    "p, digits, expected",
    [
        (3, [3, 2, 1, 3], True),
        (3, [2, 1], False),
        (3, [3, 2, 1, 2], False),
        (3, [], True),
        (3, [3, 3, 3], True),
        (3, [3, 1], False),
        (2, [2, 0], False),
        (2, [2, 5], False),
        (1, [1, 1, 1], True),
    ],
)
def test_is_valid_word(p, digits, expected):
    assert is_valid_word(p, digits) is expected


def test_validity_matches_exhaustive_filter():
    # every p-ary string passes is_valid_word iff enumeration produces it
    for p in range(1, 5):
        for n in range(0, 9):
            brute = {
                digits
                for digits in itertools.product(range(1, p + 1), repeat=n)
                if is_valid_word(p, digits)
            }
            assert brute == set(iter_word_digits(p, n))


def test_iter_word_digits_deep_p1():
    assert list(iter_word_digits(1, 3000)) == [(1,) * 3000]


def test_iter_word_digits_matches_successor_tree():
    def extend(p, n, prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for d in successor_digits(p, prefix[-1]):
            yield from extend(p, n, prefix + [d])

    for p in range(1, 6):
        for n in range(1, 9):
            assert list(iter_word_digits(p, n)) == list(extend(p, n, [p]))


def test_fibword_rejects_invalid_digits():
    with pytest.raises(ValueError):
        FibWord(3, (3, 2, 1, 2))
    with pytest.raises(ValueError):
        FibWord(0, ())
    with pytest.raises(ValueError):
        FibWord(100, ())


def test_fibword_text_roundtrip():
    w = FibWord.from_text(3, "32321")
    assert w.digits == (3, 2, 3, 2, 1)
    assert str(w) == "32321"
    assert FibWord.from_text(3, "") == FibWord(3, ())
    assert FibWord.from_text(3, "  ") == FibWord(3, ())
    assert FibWord.from_text(12, "12,11,12").digits == (12, 11, 12)
    assert FibWord.from_text(12, "") == FibWord(12, ())
    assert FibWord.from_text(3, "3,2,1").digits == (3, 2, 1)


def test_fibword_text_roundtrip_on_all_small_words():
    # one-letter words with p > 9 are written without a comma
    for p in range(1, 17):
        for n in range(6):
            for digits in iter_word_digits(p, n):
                w = FibWord(p, digits)
                assert FibWord.from_text(p, str(w)) == w


@st.composite
def fib_words(draw):
    """A word with p <= 64 and length <= 12: after each digit, restart at p or step down."""
    p = draw(st.integers(1, 64))
    digits = [p]
    for restart in draw(st.lists(st.booleans(), max_size=11)):
        digits.append(p if restart or digits[-1] == 1 else digits[-1] - 1)
    return FibWord(p, tuple(digits))


@settings(max_examples=50)
@given(fib_words())
def test_fibword_text_roundtrip_on_drawn_words(w):
    assert FibWord.from_text(w.p, str(w)) == w


# ---------------------------------------------------------------------------
# successors


@pytest.mark.parametrize(
    "p, last, expected",
    [
        (3, 1, [3]),
        (3, 3, [2, 3]),
        (2, 2, [1, 2]),
        (5, 4, [3, 5]),
        (1, 1, [1]),
        (3, None, [3]),
    ],
)
def test_successor_digits(p, last, expected):
    assert successor_digits(p, last) == expected


# ---------------------------------------------------------------------------
# enumeration and counting


def test_enumerate_known_listing():
    assert [str(w) for w in enumerate_words(3, 4)] == [
        "3213",
        "3232",
        "3233",
        "3321",
        "3323",
        "3332",
        "3333",
    ]
    assert [str(w) for w in enumerate_words(2, 3)] == ["212", "221", "222"]


def test_enumerate_length_zero_is_empty_word():
    for p in (1, 2, 5):
        assert enumerate_words(p, 0) == [FibWord(p, ())]


def test_enumerate_is_sorted_and_distinct():
    for p in (2, 3, 4):
        for n in range(0, 8):
            texts = [str(w) for w in enumerate_words(p, n)]
            assert texts == sorted(texts)
            assert len(texts) == len(set(texts))


def test_enumerate_count_matches_fibonacci():
    for p in range(1, 7):
        for n in range(0, 15):
            expected = fibonacci_number(p, n + 1)
            assert count_words(p, n) == expected
            assert len(enumerate_words(p, n)) == expected


def test_enumerate_respects_cap():
    with pytest.raises(EnumerationCapError) as info:
        enumerate_words(2, 40, cap=1000)
    assert info.value.count == count_words(2, 40)
    assert info.value.cap == 1000


def test_enumerate_validates_p_before_the_cap(monkeypatch):
    # 65 words of length 2, and far more of length 200: p is rejected either way
    for n in (2, 200):
        with pytest.raises(ValueError, match="exceeds the limit"):
            enumerate_words(65, n, cap=5)
    # and before the count, which would take minutes at this length
    counted = []
    monkeypatch.setattr(words_module, "count_words", lambda p, n: counted.append((p, n)))
    with pytest.raises(ValueError, match="exceeds the limit"):
        enumerate_words(65, 10**9, cap=5)
    assert counted == []


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 4096])
@pytest.mark.parametrize("p, sep", [(1, "\n"), (2, "\n"), (3, '", "'), (10, "\n"), (12, '", "')])
def test_listing_chunks_join_to_the_listing(monkeypatch, chunk, p, sep):
    # 5 words at p = 2, n = 4 and 8 at p = 2, n = 5: chunk sizes that divide
    # the word count and ones that leave a short last chunk
    monkeypatch.setattr(words_module, "LISTING_CHUNK", chunk)
    for n in range(0, 8):
        listed = [str(w) for w in enumerate_words(p, n)]
        chunks = list(listing_chunks(p, n, sep))
        assert len(chunks) == -(-len(listed) // chunk)
        assert "".join(chunks) == sep.join(listed)


def test_count_words_rejects_negative_length():
    with pytest.raises(ValueError):
        count_words(3, -1)
