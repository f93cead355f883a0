import pytest
from hypothesis import given, strategies as st

import juliazeta.words as words
from juliazeta.errors import DegeneracyError, WordLimitError
from juliazeta.words import (Word, aperiodic_necklace_count, enumerate_words,
                             lyndon_words, mobius)


def test_length_one():
    words = enumerate_words(1)
    assert [w.letters for w in words] == ["0", "1"]
    assert all(w.aperiodic for w in words)


def test_length_two():
    words = enumerate_words(2)
    assert [w.letters for w in words] == ["00", "01", "11"]
    assert [w.aperiodic for w in words] == [False, True, False]
    assert aperiodic_necklace_count(2) == 1


def test_length_four_counts():
    words = enumerate_words(4)
    assert sum(w.aperiodic for w in words) == 3 == (2 ** 4 - 2 ** 2) // 4
    assert aperiodic_necklace_count(4) == 3


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_word_length_cap():
    with pytest.raises(WordLimitError):
        enumerate_words(21)


def test_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word("012")
    with pytest.raises(ValueError):
        Word("")


@given(st.integers(min_value=1, max_value=12))
def test_necklace_representatives_are_canonical(n):
    words = enumerate_words(n)
    for w in words:
        assert w.letters == min(_rotations(w.letters))
        assert w.aperiodic == (w.period == n)
    # every binary word's canonical rotation appears exactly once
    assert len(words) == len(set(w.letters for w in words))
    total = sum(1 for k in range(2 ** n)
                if min(_rotations(format(k, f"0{n}b"))) == format(k, f"0{n}b"))
    assert len(words) == total


def _rotations(s):
    return [s[k:] + s[:k] for k in range(len(s))]


@given(st.integers(min_value=1, max_value=14))
def test_aperiodic_count_matches_burnside(n):
    # sum over divisors reconstructs 2^n points
    total = sum(d * aperiodic_necklace_count(d) for d in range(1, n + 1) if n % d == 0)
    assert total == 2 ** n


def test_lyndon_words_are_strictly_smallest_rotations():
    for n in range(1, 9):
        for s in lyndon_words(n):
            assert all(s < r for r in _rotations(s)[1:])


def test_necklace_count_identity_failure_raises(monkeypatch):
    monkeypatch.setattr(words, "mobius", lambda d: 1)   # 2^3 + 2 = 10 is not 3k
    with pytest.raises(DegeneracyError):
        aperiodic_necklace_count(3)
