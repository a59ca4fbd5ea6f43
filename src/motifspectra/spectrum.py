"""Dispersion relations, motif energies, level sets and level-count bounds.

A dispersion assigns an energy eps(j) to each rapidity j = 1..N-1, and a
motif's energy is the sum of eps over its 1 bits.  Dispersions come in exact
flavours (integer, rational, or symbolic-linear in an irrational coupling
constant alpha, carried as an exact integer pair (E0, E1) = coefficients of
(alpha, 1)) and a floating-point table flavour for couplings only known
numerically.  Exact energies hash and sort exactly; float energies are one
level when their gap is within the round-off of the computation.

Every exact level polynomial, the sum over motifs of dim(V) q^E, comes from
one transfer-matrix kernel over the spins of the chain, fed with the
dispersion's band scaled to integers.  Each spin's row is one Python int
with a fixed-width slot per scaled energy; level counts without
degeneracies run the same loop with one-bit slots and OR.  A pure-fermionic
context (0, n) runs as its bosonic dual (n, 0), whose rows start at the
bottom of the band instead of near its middle, and the border-strip duality
E -> band sum - E reflects the result back.  A band too wide for packed
rows goes through a sparse kernel that keeps only the energies that occur;
it and the fiber table keep the (m, n) orientation, as the independent
cross-check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import motif as _motif
from . import tableau
from .motif import Motif, _check_context

__all__ = [
    "HSDispersion",
    "PFDispersion",
    "FIDispersion",
    "SymbolicAlphaDispersion",
    "NumericDispersion",
    "energy",
    "ground_state_energy",
    "level_set",
    "level_count",
    "level_count_by_enumeration",
    "average_degeneracy",
    "dispersion_from_coupling",
    "level_bounds",
]

# relative mismatch h[l] vs h[N-l] that dispersion_from_coupling tolerates
_EVEN_TOL = 1e-12
# widest packed transfer row, in bits: (band sum + 1) slots of the slot width
_PACKED_BOUND = 1 << 25


def _check_rapidity(j: int, sites: int) -> None:
    if not 1 <= j <= sites - 1:
        raise ValueError(f"rapidity {j} outside 1..{sites - 1}")


@dataclass(frozen=True)
class HSDispersion:
    """Quadratic band eps(j) = j (N - j) of the trigonometric exchange chain."""

    sites: int
    exact = True

    def eps(self, j: int) -> int:
        _check_rapidity(j, self.sites)
        return j * (self.sites - j)


@dataclass(frozen=True)
class PFDispersion:
    """Linear band eps(j) = j of the rational (oscillator) exchange chain."""

    sites: int
    exact = True

    def eps(self, j: int) -> int:
        _check_rapidity(j, self.sites)
        return j


@dataclass(frozen=True)
class FIDispersion:
    """Band eps(j) = j (alpha + j - 1) of the hyperbolic chain, rational alpha."""

    sites: int
    alpha: Fraction
    exact = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"need alpha > 0, got {self.alpha}")

    def eps(self, j: int) -> Fraction:
        _check_rapidity(j, self.sites)
        return j * (self.alpha + j - 1)


@dataclass(frozen=True)
class SymbolicAlphaDispersion:
    """Same band with alpha kept symbolic; energies are pairs (E0, E1)."""

    sites: int
    exact = True

    def eps(self, j: int) -> tuple[int, int]:
        _check_rapidity(j, self.sites)
        return (j, j * (j - 1))


@dataclass(frozen=True)
class NumericDispersion:
    """Tabulated float band; table[j - 1] holds eps(j) for j = 1..N-1."""

    sites: int
    table: tuple[float, ...]

    exact = False

    def __post_init__(self) -> None:
        if len(self.table) != self.sites - 1:
            raise ValueError(f"table must have {self.sites - 1} entries")
        object.__setattr__(self, "table", tuple(float(x) for x in self.table))

    def eps(self, j: int) -> float:
        _check_rapidity(j, self.sites)
        return self.table[j - 1]


def energy(motif: Motif, disp) -> int | Fraction | float | tuple[int, int]:
    """Sum of eps over the motif's rapidities."""
    if motif.sites != disp.sites:
        raise ValueError(f"motif has {motif.sites} sites, dispersion {disp.sites}")
    if isinstance(disp, SymbolicAlphaDispersion):
        e0 = e1 = 0
        for j in motif.rapidities():
            e0 += j
            e1 += j * (j - 1)
        return (e0, e1)
    total = 0
    for j in motif.rapidities():
        total += disp.eps(j)
    return total


def ground_state_energy(disp) -> int | Fraction | float | tuple[int, int]:
    """Energy of the all-ones motif: the reflection pivot between dual contexts."""
    return energy(Motif((1 << (disp.sites - 1)) - 1, disp.sites), disp)


def _level_width(values: np.ndarray) -> float:
    """Widest gap between float values that still counts as one level.

    32 eps times the bit length of the value count times the scale
    max(1, max |value|): a sum or an eigensolve over that many values moves
    each by a few eps of the scale per halving of its reduction.
    """
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    return 32 * sys.float_info.epsilon * values.size.bit_length() * scale


def _merge_float_levels(values, weights) -> list[tuple[float, int]]:
    """Group float values into ascending (level, total weight) pairs.

    Sorted values whose gap is at most `_level_width` form one level, the
    mean of its members.  A gap within a factor of 10 of the width, either
    way, is neither round-off nor a resolved level and raises ValueError,
    as does a nan or infinite value.
    """
    order = np.argsort(values, kind="stable")
    vals = np.asarray(values, dtype=float)[order]
    if vals.size == 0:
        return []
    if not np.isfinite(vals).all():
        raise ValueError("float levels must be finite")
    thresh = _level_width(vals)
    gaps = np.diff(vals) / thresh
    unclear = np.flatnonzero((gaps > 0.1) & (gaps <= 10))
    if unclear.size:
        k = unclear[0]
        raise ValueError(
            f"float levels {float(vals[k])!r} and {float(vals[k + 1])!r} are {gaps[k]:.3g} times "
            f"the round-off width {thresh:.3g} apart: too close to tell one level from two"
        )
    cuts = np.flatnonzero(gaps > 1) + 1
    degs = np.add.reduceat(np.asarray(weights, dtype=np.int64)[order], np.r_[0, cuts]).tolist()
    return [(float(level.mean()), d) for level, d in zip(np.split(vals, cuts), degs)]


def _band(disp) -> tuple[list[int], int, Callable[[int], object]]:
    """Integer band of an exact dispersion, its energy scale and exponent decoder.

    A motif's scaled energy is the sum of the band over its rapidities, and
    `decode` turns that sum back into the value `energy` gives the motif.
    Rational alpha scales the band by its denominator; symbolic alpha packs
    (E0, E1) as E0 * K + E1, with K one above the largest E1.
    """
    N = disp.sites
    js = range(1, N)
    if isinstance(disp, (HSDispersion, PFDispersion)):
        return [disp.eps(j) for j in js], 1, int
    if isinstance(disp, FIDispersion):
        b = disp.alpha.denominator
        # energy() adds Fractions onto an int 0, so only the empty motif stays int
        return [int(b * disp.eps(j)) for j in js], b, lambda e: Fraction(e, b) if e else 0
    if isinstance(disp, SymbolicAlphaDispersion):
        K = (N - 2) * (N - 1) * N // 3 + 1
        return [j * K + j * (j - 1) for j in js], 1, lambda e: divmod(e, K)
    raise TypeError(f"no integer band for {type(disp).__name__}")


def _transfer_cuts(N: int, m: int, n: int) -> list[int]:
    """Row t of the spin transfer matrix is entered without a descent from rows below cut[t]."""
    _check_context(m, n)
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    return [t + (t >= n) for t in range(m + n)]


def _sparse_level_polynomial(N: int, m: int, n: int, band: Sequence[int]) -> dict[int, int]:
    """Exact sum over valid motifs of dim(V) q^E as {E: total dimension}.

    E sums the nonnegative integer band over the motif's rapidities.  Column
    i of `z` holds the exponent support[i], and row t the configurations of
    the sites seen so far that end in spin t - n.  A step into spin t' is a
    descent, and multiplies by q^eps, from every spin above t' and from t'
    itself when it is fermionic: the rule of tableau.motif_of_spins.  Only
    exponents that occur are kept, so the cost follows the number of
    distinct partial energies, not the band's size.
    """
    cut = _transfer_cuts(N, m, n)
    k = len(cut)
    # exponents stay machine integers unless the largest sum would overflow
    support = np.zeros(1, dtype=np.int64 if sum(band) <= np.iinfo(np.int64).max else object)
    z = np.ones((k, 1), dtype=object)
    for e in band:
        below = np.zeros((k + 1, support.size), dtype=object)
        np.cumsum(z, axis=0, out=below[1:])
        stay = below[cut]
        shifted = support + e
        merged = np.concatenate((support, shifted))
        merged.sort(kind="stable")  # a merge of the two sorted runs
        merged = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
        z = np.zeros((k, merged.size), dtype=object)
        z[:, np.searchsorted(merged, support)] = stay
        z[:, np.searchsorted(merged, shifted)] += below[k] - stay
        support = merged
        occupied = (z != 0).any(axis=0)
        if not occupied.all():
            support, z = support[occupied], z[:, occupied]
    return dict(zip(support.tolist(), z.sum(axis=0).tolist()))


def _packed_rows(band: Sequence[int], cut: Sequence[int], width: int, op) -> int:
    """The transfer matrix of `_sparse_level_polynomial` with packed rows, reduced by `op`.

    Row t is one Python int whose `width`-bit slot E holds the configurations
    of the sites seen so far that end in spin t - n at scaled energy E.  The
    rows entered without a descent are a prefix of the rows and those entered
    through one are the matching suffix, shifted by the band entry's slots.
    `op` is + (slots count configurations; no slot may reach 2^width) or |
    (one-bit slots mark the energies that occur).

    Rows run to megabytes, so a step makes no pass over them that it can
    skip: prefix sums run only up to the largest cut and suffix sums only
    from the smallest, and a row entered from an empty prefix (cut 0) or an
    empty suffix (cut = number of rows) is the other sum alone, with no
    addition of 0.  A two-state context makes two `op` calls per site.
    """
    k = len(cut)
    lo, hi = min(cut), max(cut)
    z = [1] * k
    for e in band:
        below = list(itertools.accumulate(z[:hi], op))  # below[c - 1]: rows 0..c-1
        above = list(itertools.accumulate(reversed(z[lo:]), op))[::-1]  # above[c - lo]: rows c..k-1
        shift = width * e
        z = [
            above[0] << shift if c == 0 else below[-1] if c == k else op(below[c - 1], above[c - lo] << shift)
            for c in cut
        ]
    return functools.reduce(op, z)


def _slot_bytes(N: int, m: int, n: int) -> int:
    """Bytes per packed slot.

    No slot of a row, or of the rows' prefix and suffix sums, counts more
    than the (m+n)^N configurations, so none carries into the next.
    """
    return (((m + n) ** N).bit_length() + 7) // 8


def _level_polynomial(N: int, m: int, n: int, band: Sequence[int]) -> dict[int, int]:
    """Exact sum over valid motifs of dim(V) q^E as {E: total dimension}, by exponent.

    Rows of (band sum + 1) slots of `_slot_bytes` each run `_packed_rows`
    with +, when they fit in `_PACKED_BOUND` bits, and the coefficients are
    read back from the total in one pass.  A context with m = 0 runs with the
    cuts of (n, 0): complementing a motif's bits maps the valid (0, n) motifs
    onto the valid (n, 0) ones, with the same dimension and the energy
    band sum - E, so the dual's slots are read back in reverse.  A (0, n)
    row enters at about half the band sum and carries that many empty low
    slots; its dual's rows carry none, so they are about half as wide.
    Wider bands (an alpha with a large numerator or denominator) go through
    `_sparse_level_polynomial`.
    """
    cut = _transfer_cuts(N, m, n) if m else _transfer_cuts(N, n, 0)
    nbytes = _slot_bytes(N, m, n)
    slots = sum(band) + 1
    if slots * 8 * nbytes > _PACKED_BOUND:
        return _sparse_level_polynomial(N, m, n, band)
    # only the bytes outlive this line: the megabyte-wide int, kept through the
    # read-back, moved peak RSS by up to 4 MB with where the heap put it
    total = _packed_rows(band, cut, 8 * nbytes, operator.add).to_bytes(slots * nbytes, "little")
    raw = np.frombuffer(total, dtype=np.uint8).reshape(slots, nbytes)
    if not m:
        raw = raw[::-1]  # slot E of the dual holds exponent sum(band) - E
    exponents = np.flatnonzero(raw.any(axis=1))
    # each nonzero slot padded to whole little-endian 64-bit limbs, folded high to low
    limbs = -(-nbytes // 8)
    wide = np.zeros((exponents.size, 8 * limbs), dtype=np.uint8)
    wide[:, :nbytes] = raw[exponents]
    words = wide.view("<u8")
    coeffs = words[:, -1].tolist()
    for j in range(limbs - 2, -1, -1):
        coeffs = [(c << 64) | w for c, w in zip(coeffs, words[:, j].tolist())]
    return dict(zip(exponents.tolist(), coeffs))


def level_count(N: int, m: int, n: int, disp) -> int:
    """Number of distinct energies over the valid motifs of an exact dispersion.

    `_packed_rows` over the Boolean semiring: row t is a Python-int bitset
    with bit E set when some configuration of the sites seen so far ends in
    spin t - n at scaled energy E, and the count is the popcount of their OR.
    A context with m = 0 runs its dual (n, 0), as `_level_polynomial` does;
    reflecting the energies leaves their number unchanged.  A band whose
    one-bit rows pass `_PACKED_BOUND` (an alpha with a large numerator or
    denominator makes one) is counted as the term count of
    `_sparse_level_polynomial`, whose size follows the distinct energies
    rather than the band's width.
    """
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    band, _, _ = _band(disp)
    cut = _transfer_cuts(N, m, n) if m else _transfer_cuts(N, n, 0)
    if sum(band) + 1 > _PACKED_BOUND:
        return len(_sparse_level_polynomial(N, m, n, band))
    return _packed_rows(band, cut, 1, operator.or_).bit_count()


def _word_energies(words: np.ndarray, N: int, table: Sequence[float]) -> np.ndarray:
    """Float energies of an integer array of packed N-site motif words.

    Adds eps(j) in rapidity order, as `energy` does, and exact zeros for the
    bits that are clear, so every sum is bit-identical to `energy`'s.
    """
    acc = np.zeros(words.shape)
    for j, e in enumerate(table, 1):
        acc += np.where((words >> (N - 1 - j)) & 1, e, 0.0)
    return acc


def level_set(N: int, m: int, n: int, disp) -> list[tuple[int | Fraction | float | tuple[int, int], int]]:
    """Sorted distinct energies with their total degeneracies, summing to (m+n)^N.

    Exact dispersions go through the transfer-matrix kernel, which never
    lists spin configurations; float tables weight each motif's energy by
    its fiber dimension and merge levels by the round-off rule of
    `_merge_float_levels`.
    """
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    if disp.exact:
        band, _, decode = _band(disp)
        return [(decode(e), d) for e, d in sorted(_level_polynomial(N, m, n, band).items())]
    fibers = tableau._fiber_cache(N, m, n)
    words = np.fromiter(fibers, dtype=np.int64, count=len(fibers))
    return _merge_float_levels(_word_energies(words, N, disp.table), list(fibers.values()))


def level_count_by_enumeration(N: int, m: int, n: int, disp) -> int:
    """Number of distinct energies of a float table over the valid motifs.

    Levels merge by the round-off rule of `_merge_float_levels`.  Exact
    dispersions are counted by `level_count`.
    """
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    if disp.exact:
        raise TypeError(f"{type(disp).__name__} is exact: count its levels with level_count")
    energies = np.concatenate([_word_energies(w, N, disp.table) for w in _motif._valid_word_blocks(N, m, n)])
    return len(_merge_float_levels(energies, np.ones(energies.size, dtype=np.int64)))


def average_degeneracy(levels: Sequence[tuple[object, int]]) -> Fraction:
    """Total state count over the number of distinct levels, exactly."""
    if not levels:
        raise ValueError("empty level set")
    return Fraction(sum(d for _, d in levels), len(levels))


def dispersion_from_coupling(h: Sequence[float]) -> NumericDispersion:
    """Band of a periodic exchange chain from its even coupling table.

    `h` has length N with h[l] the coupling at site distance l (entry 0 is
    unused); it must satisfy h[l] = h[N-l].  The band is the discrete cosine
    sum eps(j) = sum_l (1 - cos(2 pi j l / N)) h[l], which is symmetric about
    the band center.
    """
    table = [float(x) for x in h]
    N = len(table)
    if N < 2:
        raise ValueError("need at least 2 sites")
    if not all(map(math.isfinite, table)):
        raise ValueError("couplings must be finite")
    scale = max(1.0, max(abs(x) for x in table))
    for l in range(1, N):
        if abs(table[l] - table[N - l]) > _EVEN_TOL * scale:
            raise ValueError(f"coupling not even: h[{l}] != h[{N - l}]")
    eps = [
        math.fsum((1.0 - math.cos(2 * math.pi * j * l / N)) * table[l] for l in range(1, N))
        for j in range(1, N)
    ]
    for j in range(1, N):
        a, b = eps[j - 1], eps[N - j - 1]
        if abs(a - b) > 1e-9 * max(1.0, abs(a)):
            raise AssertionError(f"band not symmetric at j={j}: {a} vs {b}")
    return NumericDispersion(N, tuple(eps))


def level_bounds(disp, m: int, n: int) -> int:
    """Upper bound on the number of distinct levels for the given context.

    Closed formulas exist for the two-state chains (exact for the linear
    band).
    """
    if (m, n) not in ((2, 0), (0, 2)):
        raise ValueError("closed bound requires a two-state pure context")
    N = disp.sites
    if isinstance(disp, PFDispersion):
        return (N * N - N % 2) // 4 + 1
    if isinstance(disp, HSDispersion):
        if N % 2 == 0:
            q, r = divmod(N * (N * N + 2), 12)
        else:
            q, r = divmod(N * (N * N - 1), 24)
        assert r == 0
        return q + 1
    if isinstance(disp, FIDispersion):
        a, b = disp.alpha.numerator, disp.alpha.denominator
        if N % 2 == 0:
            q, r = divmod(N * (2 * b * N * N + 3 * (a - b) * N - 2 * b), 12)
        else:
            q, r = divmod((N * N - 1) * (2 * b * N + 3 * (a - b)), 12)
        assert r == 0
        return q + 1
    if isinstance(disp, SymbolicAlphaDispersion):
        return max(N**5 // 6, 1)  # the lone empty motif of one site
    raise ValueError(f"no closed bound for dispersion {type(disp).__name__}")
