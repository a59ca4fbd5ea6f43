"""Run-length-constrained bit motifs: validation, enumeration, exact counts.

A motif on N sites is a bit vector (d_1, ..., d_{N-1}).  In a mixed local
context (m bosonic and n fermionic states, mn != 0) every bit vector occurs.
In a purely bosonic context no m consecutive 1s may appear, and in a purely
fermionic one no n consecutive 0s; complementing the bits swaps the two
families, and counting either one yields shifted m-nacci numbers.

Motifs are packed into plain integers with d_1 in the highest bit, so that
ascending word order coincides with lexicographic order on the bit sequence.
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
    "is_valid_word",
    "count",
    "count_by_enumeration",
    "count_half",
    "count_half_by_enumeration",
]

# candidate words per block: the uint32 temporaries of a block stay in cache,
# and far below the memory the exact kernels need; 2^18 was slower
_BLOCK = 1 << 16
# any enumeration sweeps at most 2^_ENUM_BITS candidate words; since
# _ENUM_BITS < 32, every word and every half key of a sweep is exact in uint32
_ENUM_BITS = 26


class InfeasibleSizeError(ValueError):
    """Raised when a brute-force path would exceed its configured cap."""


def _check_context(m: int, n: int) -> None:
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError(f"need m, n >= 0 with m + n >= 1, got m={m}, n={n}")


def is_valid_word(word, length: int, m: int, n: int, out=None):
    """Validity of a packed motif word of `length` bits in the (m, n) context.

    `word` is an int, giving a bool, or an unsigned integer array of words,
    giving a bool array; a mixed context admits every word and gives True.
    A word holds a run of r consecutive 1s iff AND-folding r shifted copies
    leaves a set bit; the fermionic rule is the bosonic one on the complement.
    `out`, for an array of words, is a (fold, shifted, valid) triple of
    arrays of its shape, two of its dtype and one bool: the fold runs in
    them and `valid` is returned, so that a sweep which passes the same
    triple for every block allocates nothing per block.
    """
    _check_context(m, n)
    if m and n:
        return True
    mask = (1 << length) - 1
    if out is None:
        w = word if m else ~word & mask
        for _ in range((m or n) - 1):
            w = w & (w >> 1)
        return w == 0
    fold, shifted, valid = out
    # a sweep's words are below 2^length, where the complement is an XOR
    w = word if m else np.bitwise_xor(word, mask, out=fold)
    for _ in range((m or n) - 1):
        np.right_shift(w, 1, out=shifted)
        w = np.bitwise_and(w, shifted, out=fold)
    return np.equal(w, 0, out=valid)


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


def _valid_word_blocks(N: int, m: int, n: int) -> Iterator[np.ndarray]:
    """Yield ascending uint32 arrays of the valid words, `_BLOCK` candidates at a time.

    Raises InfeasibleSizeError, before the first block, past 2^`_ENUM_BITS` candidates.
    The candidates and the validity filter's temporaries live in buffers
    made once per sweep, and each yielded array is the consumer's own:
    quarter-megabyte temporaries freed at every block would go back to the
    system and return as fresh pages.
    """
    length = _sweep_length(N, m, n)
    total = 1 << length
    offsets = np.arange(_BLOCK, dtype=np.uint32)
    if m and n:
        for lo in range(0, total, _BLOCK):
            yield offsets[: total - lo] + lo
        return
    size = min(_BLOCK, total)
    words, fold, shifted, valid = (np.empty(size, t) for t in (np.uint32, np.uint32, np.uint32, bool))
    for lo in range(0, total, _BLOCK):
        k = min(size, total - lo)
        np.add(offsets[:k], lo, out=words[:k])
        yield words[:k][is_valid_word(words[:k], length, m, n, out=(fold[:k], shifted[:k], valid[:k]))]


def count_by_enumeration(N: int, m: int, n: int) -> int:
    """Brute-force count by filtering all 2^(N-1) candidate words.

    Oracle-grade cross-check for count().
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

    With p = (N - 1)//2, a word's top p bits are d_1 .. d_p and its low p
    bits d_{N-p} .. d_{N-1}.  Two tables of 2^p entries read them as base-3
    digits, the low bits in reverse order, so their sum has the digit
    d_i + d_{N-i} <= 2 at place p - i and no digit carries.  Even N doubles
    the key and adds the middle bit d_{N/2}, which is bit p.  Each key marks
    one entry of a bool array, and the marked entries are the count.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    length = _sweep_length(N, m, n)
    p = length // 2
    first = last = np.zeros(1, dtype=np.uint32)
    for k in range(p):
        first = np.concatenate([first, first + 3**k])
        last = np.concatenate([last, last + 3 ** (p - 1 - k)])
    even = N % 2 == 0
    seen = np.zeros(3**p * (1 + even), dtype=bool)
    low = (1 << p) - 1
    for words in _valid_word_blocks(N, m, n):
        key = first[words >> (length - p)]
        key += last[words & low]
        if even:
            key *= 2
            key += (words >> p) & 1
        seen[key] = True
    return int(np.count_nonzero(seen))
