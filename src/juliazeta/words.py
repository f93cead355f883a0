"""Binary itinerary words: canonical necklace representatives and
aperiodicity bookkeeping.

Prime periodic orbits of a two-branch system are indexed by aperiodic
binary necklaces; we represent each necklace by its lexicographically
minimal rotation.  Generation goes through Duval's algorithm for Lyndon
words (a necklace of length n is a Lyndon word of length d | n repeated
n/d times, and that repetition is already the minimal rotation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegeneracyError, WordLimitError

WORD_LENGTH_CAP = 20  # 2^n growth; matches the catalog hard cap


@dataclass(frozen=True)
class Word:
    """An itinerary over branch symbols {0, 1}; 0 is the principal branch."""

    letters: str

    def __post_init__(self):
        if not self.letters or self.letters.strip("01"):
            raise ValueError(f"word must be a nonempty string over 0/1: {self.letters!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    @property
    def period(self) -> int:
        """Minimal d dividing len such that the word is a d-block repeated."""
        n = len(self.letters)
        for d in range(1, n + 1):
            if n % d == 0 and self.letters == self.letters[:d] * (n // d):
                return d
        return n

    @property
    def aperiodic(self) -> bool:
        return self.period == len(self.letters)

    def rotated(self, k: int) -> "Word":
        w = self.letters
        k %= len(w)
        return Word(w[k:] + w[:k])


def lyndon_words(n: int):
    """Yield the binary Lyndon words of length exactly n (Duval), in
    lexicographic order."""
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            yield "".join("01"[b] for b in w)
        while len(w) < n:
            w.append(w[-m])
        while w and w[-1] == 1:
            w.pop()


def enumerate_words(n: int) -> list[Word]:
    """All canonical necklace representatives of length n, lex order.

    Aperiodic necklaces (``word.aperiodic``) are in bijection with prime
    orbits; their count is (1/n) * sum_{d|n} mu(d) 2^(n/d).
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if n > WORD_LENGTH_CAP:
        raise WordLimitError(f"word length {n} exceeds cap {WORD_LENGTH_CAP}")
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            out.extend(Word(w * (n // d)) for w in lyndon_words(d))
    out.sort(key=lambda w: w.letters)
    return out


def mobius(n: int) -> int:
    if n == 1:
        return 1
    m, p, nfac = n, 2, 0
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            nfac += 1
        else:
            p += 1
    if m > 1:
        nfac += 1
    return -1 if nfac % 2 else 1


def aperiodic_necklace_count(n: int) -> int:
    """(1/n) * sum_{d|n} mu(d) 2^(n/d)."""
    total = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise DegeneracyError(f"necklace count identity fails at n = {n}: {total} is not "
                              f"divisible by {n}")
    return total // n
