"""Run-length-constrained bit motifs: the enumeration sweep and exact counts.

A motif on N sites is a bit vector (d_1, ..., d_{N-1}).  In a mixed local
context (m bosonic and n fermionic states, mn != 0) every bit vector occurs.
In a purely bosonic context no m consecutive 1s may appear, and in a purely
fermionic one no n consecutive 0s; complementing the bits swaps the two
families, and counting either one yields shifted m-nacci numbers.

Motifs are packed into plain integers with d_1 in the highest bit, so that
ascending word order coincides with lexicographic order on the bit sequence.
The run rule is checked in one place, the sweep's AND-fold.  A pure
context's sweep splits each word into low bits and a high prefix, folds the
low words once and the prefixes once, and joins the runs that cross the
split by their lengths, so it costs the valid words, not the candidates.
No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "InfeasibleSizeError",
    "Motif",
    "bit_strings",
    "count",
    "count_by_enumeration",
    "count_half",
    "count_half_by_enumeration",
]

# low bits per block of a sweep: a pure context folds the 2^16 low words
# once, and a mixed one yields 2^16 words per block
_BLOCK_BITS = 16
# any enumeration sweeps at most 2^_ENUM_BITS candidate words; since
# _ENUM_BITS < 32, every word and every half key of a sweep is exact in uint32
_ENUM_BITS = 26


class InfeasibleSizeError(ValueError):
    """Raised when a brute-force path would exceed its configured cap."""


def _check_context(m: int, n: int) -> None:
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError(f"need m, n >= 0 with m + n >= 1, got m={m}, n={n}")


@dataclass(frozen=True)
class Motif:
    """Packed motif: bit d_i of an N-site motif sits at position N - 1 - i."""

    word: int
    sites: int

    def __post_init__(self) -> None:
        if self.sites < 1:
            raise ValueError(f"need at least one site, got {self.sites}")
        if not 0 <= self.word < (1 << self.length):
            raise ValueError(f"word {self.word} out of range for {self.sites} sites")

    @property
    def length(self) -> int:
        return self.sites - 1

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Motif":
        word = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"motif bits must be 0 or 1, got {b!r}")
            word = (word << 1) | b
        return cls(word, len(bits) + 1)

    def rapidities(self) -> tuple[int, ...]:
        """Positions i with d_i = 1, ascending."""
        length = self.length
        return tuple(i for i in range(1, length + 1) if (self.word >> (length - i)) & 1)

    def __str__(self) -> str:
        return bit_strings((self.word,), self.length)[0]


def bit_strings(words: Iterable[int], length: int) -> list[str]:
    """Each packed word as its `length` bits d_1 .. d_length, '' when there are none."""
    if not length:
        return ["" for _ in words]
    spec = f"0{length}b"
    return [format(w, spec) for w in words]


def count(N: int, m: int, n: int) -> int:
    """Number of valid motifs on N sites, by the run-length recursion."""
    _check_context(m, n)
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if m and n:
        return 1 << (N - 1)
    order = m or n
    vals = [1 << k for k in range(min(N, order))]
    while len(vals) < N:
        vals.append(sum(vals[-order:]))
    return vals[N - 1]


def _sweep_length(N: int, m: int, n: int) -> int:
    """Bits per candidate word of an N-site sweep, refused past 2^`_ENUM_BITS` candidates."""
    _check_context(m, n)
    length = N - 1
    if length > _ENUM_BITS:
        raise InfeasibleSizeError(f"2^{length} candidate words exceed cap 2^{_ENUM_BITS}")
    return length


def _run_free(words: np.ndarray, order: int) -> np.ndarray:
    """The words of `words` that hold no run of `order` consecutive 1s.

    A word holds such a run iff AND-folding `order` shifted copies leaves a set bit.
    """
    fold = words.copy()
    for _ in range(order - 1):
        fold &= fold >> 1
    return words[fold == 0]


def _valid_word_blocks(N: int, m: int, n: int) -> Iterator[np.ndarray]:
    """Yield ascending uint32 arrays of the valid words, in word order.

    Raises InfeasibleSizeError, before the first block, past 2^`_ENUM_BITS` candidates.
    A mixed context yields every word, 2^`_BLOCK_BITS` at a time.  A pure
    context splits each word into its high prefix and its s = min(length,
    `_BLOCK_BITS`) low bits, and runs the fold once over the 2^s low words
    and once over the high prefixes.  A run across the junction is a
    prefix's trailing run of 1s joined to a low word's leading run, and the
    valid lows with a leading run of at least c are a suffix of the
    ascending valid lows, so each valid prefix yields its block as one add
    to a prefix of them.  The fermionic rule is the bosonic one on the
    complement, which reverses word order: prefixes are read from the top,
    and each adds to a suffix of the complemented lows.
    """
    length = _sweep_length(N, m, n)
    if m and n:
        total = 1 << length
        offsets = np.arange(min(total, 1 << _BLOCK_BITS), dtype=np.uint32)
        for lo in range(0, total, offsets.size):
            yield offsets[: total - lo] + lo
        return
    # no word of `length` bits holds a longer run, and every shift below stays under 32
    order = min(m or n, length + 1)
    low_bits = min(length, _BLOCK_BITS)
    high_bits = length - low_bits
    lows = _run_free(np.arange(1 << low_bits, dtype=np.uint32), order)
    highs = _run_free(np.arange(1 << high_bits, dtype=np.uint32), order)
    # a prefix ending in a run of t 1s, highs & ~(highs + 1) = 2^t - 1, takes
    # the lows below the first one whose top order - t bits are all 1s:
    # top - (top >> (order - t)) = top - ((2^t << low_bits) >> order), which
    # takes every low when order - t > low_bits
    top = 1 << low_bits
    tails = (highs & ~(highs + 1)) + 1
    sizes = np.searchsorted(lows, top - ((tails << low_bits) >> order)).tolist()
    if m:
        for high, size in zip(highs.tolist(), sizes):
            yield lows[:size] + (high << low_bits)
        return
    flipped = (top - 1) - lows[::-1]
    high_top = (1 << high_bits) - 1
    for high, size in zip(reversed(highs.tolist()), reversed(sizes)):
        yield flipped[flipped.size - size :] + ((high_top - high) << low_bits)


def count_by_enumeration(N: int, m: int, n: int) -> int:
    """Brute-force count of the words the enumeration sweep yields.

    Oracle-grade cross-check for count(): the sweep checks the run rule by
    folding words, with no recursion.
    """
    return sum(arr.size for arr in _valid_word_blocks(N, m, n))


def count_half(N: int, m: int, n: int) -> int:
    """Number of distinct motif halves over all valid motifs on N sites.

    Mixed contexts admit every motif, so every half occurs: powers of three.
    A pure context of order r = m or n folds the run-length automaton, whose
    state is the length of the trailing run of 1s (of 0s when m = 0, which
    complements every bit and every half entry).  The fold reads d_i and
    d_{N-i} together as the half entry d_i + d_{N-i}; its state is the set
    of (left run, right run) pairs that some valid motif with these entries
    reaches, and each set counts the distinct entry strings that reach it.
    A set keeps only the pairs that no other pair of it matches or beats on
    both runs; it then holds at most two pairs, and r(r + 1)/2 sets occur.
    At the centre the runs meet: for odd N they join, and some a + b < r
    must hold; for even N a middle 0 separates them, and a middle 1 needs
    some a + b + 1 < r.
    """
    _check_context(m, n)
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if m and n:
        return 3 ** ((N - 1) // 2) if N % 2 else 2 * 3 ** ((N - 2) // 2)
    order = m or n
    states = {frozenset({(0, 0)}): 1}
    for _ in range((N - 1) // 2):
        folded: dict[frozenset, int] = {}
        for runs, ways in states.items():
            one = {(a + 1, 0) for a, _ in runs if a + 1 < order}
            one |= {(0, b + 1) for _, b in runs if b + 1 < order}
            two = {(a + 1, b + 1) for a, b in runs if max(a, b) + 1 < order}
            for succ in ({(0, 0)}, one, two):
                # shorter runs on both sides admit every continuation that longer ones do
                key = frozenset(
                    p for p in succ if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in succ)
                )
                if key:
                    folded[key] = folded.get(key, 0) + ways
        states = folded
    if N % 2:
        return sum(ways for runs, ways in states.items() if any(a + b < order for a, b in runs))
    return sum(ways * (1 + any(a + b + 1 < order for a, b in runs)) for runs, ways in states.items())


def count_half_by_enumeration(N: int, m: int, n: int) -> int:
    """Distinct motif halves counted by enumerating the valid motifs.

    With p = (N - 1)//2, the key of a word reads its half entries
    d_i + d_{N-i} <= 2 as base-3 digits, at place p - i, so no digit
    carries; even N doubles the key and adds the middle bit d_{N/2}.  The
    key is a sum of one weight per set bit.  Every block of the sweep
    shares the word's bits above its s = min(length, `_BLOCK_BITS`) low
    bits, so a block's keys are one table over the 2^s low values plus the
    key of its high prefix.  Each key marks one entry of a bool array, and
    the marked entries are the count.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    length = _sweep_length(N, m, n)
    p = length // 2
    even = N % 2 == 0
    # bit b is d_i with i = length - b, at digit place p - min(i, N - i); an
    # even N's middle bit gets place -1 and weight 1, below the doubled digits
    places = [p - min(length - b, b + 1) for b in range(length)]
    weights = [1 if k < 0 else 3**k << even for k in places]
    low_bits = min(length, _BLOCK_BITS)
    lows = highs = np.zeros(1, dtype=np.intp)
    for w in weights[:low_bits]:
        lows = np.concatenate([lows, lows + w])
    for w in weights[low_bits:]:
        highs = np.concatenate([highs, highs + w])
    seen = np.zeros(3**p << even, dtype=bool)
    low, key = np.empty_like(lows), np.empty_like(lows)
    for words in _valid_word_blocks(N, m, n):
        size = words.size
        np.bitwise_and(words, lows.size - 1, out=low[:size])
        np.take(lows, low[:size], out=key[:size])
        key[:size] += highs[words[0] >> low_bits]
        seen[key[:size]] = True
    return int(np.count_nonzero(seen))
