"""Dispersion relations, motif energies, level sets and level-count bounds.

A dispersion assigns an energy eps(j) to each rapidity j = 1..N-1, and a
motif's energy is the sum of eps over its 1 bits.  Dispersions come in exact
flavours (integer, rational, or symbolic-linear in an irrational coupling
constant alpha, carried as an exact integer pair (E0, E1) = coefficients of
(alpha, 1)) and a floating-point table flavour for couplings only known
numerically.  Exact energies hash and sort exactly; float energies are one
level when their gap is within the round-off of the computation.

Every level polynomial, the sum over motifs of dim(V) q^E, comes from one
transfer-matrix kernel over the spins of the chain, fed with the
dispersion's band scaled to integers.  Each spin's row is a numpy array
with one slot per scaled energy, updated in place: one lane of the
narrowest unsigned dtype while the (m+n)^N configurations fit 64 bits, and
past that several uint64 lanes of fewer bits, carried from lane to lane only
when an exact bound says a lane could overflow.  Level counts without
degeneracies run the same transfer on Python-int bitsets with OR.  A
pure-fermionic context (0, n) runs as its bosonic dual (n, 0), whose rows
start at the bottom of the band instead of near its middle, and the
border-strip duality E -> band sum - E reflects the result back.  The
polynomial leaves the kernel as two arrays, never as one Python int per
term: int64 exponents and each coefficient as little-endian 64-bit limbs,
gathered straight from the lanes of the total.  A band too wide for packed
rows goes through a sparse kernel that keeps only the energies that occur
and returns them as ascending arrays too, exponents and totals, in int64
while they fit and in Python ints past that; it and the fiber table keep
the (m, n) orientation, as the independent cross-check.

A float table runs on the same kernel over an integer band of keys: each
motif's word, or, when the table is mirrored, eps(j) = eps(N - j) as the
translational symmetry gives, its half entries d_i + d_(N-i) in base 3,
so that the motifs sharing them are one term.  The keys decode to float
energies, which merge into levels by round-off.
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
from .motif import InfeasibleSizeError, _check_context

__all__ = [
    "HSDispersion",
    "PFDispersion",
    "FIDispersion",
    "SymbolicAlphaDispersion",
    "NumericDispersion",
    "level_set",
    "level_count",
    "dispersion_from_coupling",
    "level_bounds",
]

# relative mismatch h[l] vs h[N-l] that dispersion_from_coupling tolerates
_EVEN_TOL = 1e-12
# widest packed transfer row, in bits: (band sum + 1) slots of the slot width
_PACKED_BOUND = 1 << 25
_INT64_MAX = np.iinfo(np.int64).max
_LIMB_MASK = (1 << 64) - 1
# slots per in-place update of a bosonic row and per carry pass: a few
# (lanes, _CHUNK) blocks stay in cache
_CHUNK = 1 << 14
# most rows a level table holds: the fiber table's (m+n)^N, and a float level
# set's min(band sum + 1, motif count), what its kernel keeps of the band
_TABLE_CAP = 1 << 24


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


def _exact_dispersion(kind: str, N: int, alpha: Fraction | None):
    """The exact dispersion of an hs, pf or fi chain on N sites; fi with no alpha keeps it symbolic."""
    if kind == "hs":
        return HSDispersion(N)
    if kind == "pf":
        return PFDispersion(N)
    return SymbolicAlphaDispersion(N) if alpha is None else FIDispersion(N, alpha)


def _level_width(values: np.ndarray, count: int | None = None) -> float:
    """Widest gap between float values that still counts as one level.

    32 eps times the bit length of the value count times the scale
    max(1, max |value|): a sum or an eigensolve over that many values moves
    each by a few eps of the scale per halving of its reduction.  The count
    is the size of `values` unless `count` gives the number of values they
    stand for, such as the motifs behind the folded terms of a level set.
    """
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    return 32 * sys.float_info.epsilon * (values.size if count is None else count).bit_length() * scale


def _merge_float_levels(values, weights, count: int | None = None) -> list[tuple[float, int]]:
    """Group float values into ascending (level, total weight) pairs.

    Sorted values whose gap is at most `_level_width` (of `count` values)
    form one level, the mean of its members.  A gap within a factor of 10
    of the width, either way, is neither round-off nor a resolved level and
    raises ValueError, as does a nan or infinite value.  The weights sum in
    their own dtype, so a total past int64 needs object weights.
    """
    order = np.argsort(values, kind="stable")
    vals = np.asarray(values, dtype=float)[order]
    if vals.size == 0:
        return []
    if not np.isfinite(vals).all():
        raise ValueError("float levels must be finite")
    thresh = _level_width(vals, count)
    gaps = np.diff(vals) / thresh
    unclear = np.flatnonzero((gaps > 0.1) & (gaps <= 10))
    if unclear.size:
        k = unclear[0]
        raise ValueError(
            f"float levels {float(vals[k])!r} and {float(vals[k + 1])!r} are {gaps[k]:.3g} times "
            f"the round-off width {thresh:.3g} apart: too close to tell one level from two"
        )
    starts = np.r_[0, np.flatnonzero(gaps > 1) + 1]
    degs = np.add.reduceat(np.asarray(weights)[order], starts).tolist()
    # one row sum per group of equal-size levels: numpy sums each row
    # pairwise, as mean() does, so each mean is the same double
    sizes = np.diff(np.r_[starts, vals.size])
    means = np.empty(starts.size)
    for k in set(sizes.tolist()):
        sel = sizes == k
        means[sel] = vals[starts[sel, None] + np.arange(k)].sum(axis=1) / k
    return list(zip(means.tolist(), degs))


def _band(disp) -> tuple[list[int], int, Callable]:
    """Integer band of a dispersion, its energy scale and exponent decoder.

    A motif's scaled energy is the sum of the band over its rapidities, and
    `decode` turns that sum back into the sum of eps over them.
    Rational alpha scales the band by its denominator; symbolic alpha packs
    (E0, E1) as E0 * K + E1, with K one above the largest E1.

    A float table's band is a key, and its decoder takes an array of keys.
    When the table equals its reverse, eps(j) = eps(N - j), a motif's energy
    depends only on its half entries h_i = d_i + d_(N-i), i <= (N - 1)//2:
    the band 3^(min(j, N - j) - 1) makes the key those entries in base 3,
    with an even N's middle bit d_(N/2) on top, and `_half_energies` adds
    h_i eps(i).  Any other table keys each motif by its word, the band
    2^(N-1-j), which `_word_energies` decodes.
    """
    N = disp.sites
    js = range(1, N)
    if isinstance(disp, NumericDispersion):
        table = disp.table
        if table == table[::-1]:
            return [3 ** (min(j, N - j) - 1) for j in js], 1, lambda keys: _half_energies(keys, table)
        return [1 << (N - 1 - j) for j in js], 1, lambda words: _word_energies(words, N, table)
    if isinstance(disp, (HSDispersion, PFDispersion)):
        return [disp.eps(j) for j in js], 1, int
    if isinstance(disp, FIDispersion):
        a, b = disp.alpha.numerator, disp.alpha.denominator
        # b * eps(j) = j (a + b (j - 1)); a sum of Fractions started from an
        # int 0 stays int only for the empty motif
        return [j * (a + b * (j - 1)) for j in js], b, lambda e: Fraction(e, b) if e else 0
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


def _sparse_level_polynomial(N: int, m: int, n: int, band: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Exact sum over valid motifs of dim(V) q^E as (ascending exponents E, total dimensions).

    E sums the nonnegative integer band over the motif's rapidities.  Column
    i of `z` holds the exponent support[i], and row t the configurations of
    the sites seen so far that end in spin t - n.  A step into spin t' is a
    descent, and multiplies by q^eps, from every spin above t' and from t'
    itself when it is fermionic: the rule of tableau.motif_of_spins.  Only
    exponents that occur are kept, so the cost follows the number of
    distinct partial energies, not the band's size.  The exponents are int64
    while the band sum fits and the counts while (m+n)^N fits, since no
    count, prefix sum or total exceeds it; past either, that array holds
    Python ints.
    """
    cut = _transfer_cuts(N, m, n)
    k = len(cut)
    # exponents and counts stay machine integers unless the largest would overflow
    support = np.zeros(1, dtype=np.int64 if sum(band) <= _INT64_MAX else object)
    counts = np.int64 if (m + n) ** N <= _INT64_MAX else object
    z = np.ones((k, 1), dtype=counts)
    for e in band:
        below = np.zeros((k + 1, support.size), dtype=counts)
        np.cumsum(z, axis=0, out=below[1:])
        stay = below[cut]
        shifted = support + e
        merged = np.concatenate((support, shifted))
        merged.sort(kind="stable")  # a merge of the two sorted runs
        merged = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
        z = np.zeros((k, merged.size), dtype=counts)
        z[:, np.searchsorted(merged, support)] = stay
        z[:, np.searchsorted(merged, shifted)] += below[k] - stay
        support = merged
        occupied = (z != 0).any(axis=0)
        if not occupied.all():
            support, z = support[occupied], z[:, occupied]
    return support, z.sum(axis=0)


def _packed_rows(band: Sequence[int], cut: Sequence[int]) -> int:
    """The energies that occur in the transfer matrix of `_sparse_level_polynomial`, as one bitset.

    Row t is one Python int with bit E set when some configuration of the
    sites seen so far ends in spin t - n at scaled energy E; the result is
    the OR of the rows.  The rows entered without a descent are a prefix of
    the rows and those entered through one are the matching suffix, shifted
    by the band entry.

    Rows run to megabytes, so a step makes no pass over them that it can
    skip: prefix ORs run only up to the largest cut and suffix ORs only
    from the smallest, and a row entered from an empty prefix (cut 0) or an
    empty suffix (cut = number of rows) is the other one alone.  A
    two-state context makes two ORs per site.
    """
    k = len(cut)
    lo, hi = min(cut), max(cut)
    or_ = operator.or_
    z = [1] * k
    for e in band:
        below = list(itertools.accumulate(z[:hi], or_))  # below[c - 1]: rows 0..c-1
        above = list(itertools.accumulate(reversed(z[lo:]), or_))[::-1]  # above[c - lo]: rows c..k-1
        z = [above[0] << e if c == 0 else below[-1] if c == k else or_(below[c - 1], above[c - lo] << e) for c in cut]
    return functools.reduce(or_, z)


def _slot_bytes(N: int, m: int, n: int) -> int:
    """Bytes of the largest count, (m+n)^N: the slot size that `_PACKED_BOUND` charges a polynomial row.

    No slot of a row, or of the rows' prefix sums, counts more than the
    (m+n)^N configurations.
    """
    return (((m + n) ** N).bit_length() + 7) // 8


def _lane_layout(count: int, rows: int) -> tuple[type, int, int]:
    """(dtype, lanes L, bits per lane B) of transfer rows whose counts reach `count`.

    While `count` fits 64 bits there is one lane, of the narrowest unsigned
    dtype that holds it, and no carry; B is then 64, the whole lane.  Past
    that there are L uint64 lanes of B bits, L = ceil(bits / (64 - h)) and
    B = ceil(bits / L) for the count's bit length and h = max(4, bit length
    of `rows`): a lane carried below 2^B takes at least one step, which
    multiplies it by at most `rows`, before it nears 2^64.
    """
    bits = count.bit_length()
    if bits <= 64:
        return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if bits <= 8 * t().itemsize), 1, 64
    lanes = -(-bits // (64 - max(4, rows.bit_length())))
    return np.uint64, lanes, -(-bits // lanes)


def _carry(row: np.ndarray, top: int, lane_bits: int, scratch: np.ndarray) -> None:
    """Carry each lane of `row`'s first `top` slots into the next, lowest first, leaving it below 2^lane_bits.

    The top lane keeps what it gets: it holds the count shifted down by
    every lower lane's bits, which the layout keeps below 2^lane_bits.
    Runs `_CHUNK` slots at a time through `scratch`.
    """
    mask = (1 << lane_bits) - 1
    for lo in range(0, top, _CHUNK):
        block = row[:, lo : min(lo + _CHUNK, top)]
        carry = scratch[0, : block.shape[1]]
        for lane in range(len(row) - 1):
            np.right_shift(block[lane], lane_bits, out=carry)
            block[lane] &= mask
            block[lane + 1] += carry


def _transfer_lanes(band: Sequence[int], cut: Sequence[int], count: int) -> tuple[np.ndarray, int]:
    """The transfer matrix of `_sparse_level_polynomial` on unsigned lanes: (total, bits per lane).

    Each of the k spin rows is one (lanes, band sum + 1) array of the
    `_lane_layout` for `count`, the number of configurations: slot E of
    row t holds, split over its lanes, the configurations of the sites seen
    so far that end in spin t - n at scaled energy E.  `cut` must end in k
    (m >= 1), so that the last row is entered from every row without a
    descent.  A step turns the rows into their prefix sums in place, T the
    last one, and then, from the top row down, makes row t into
    X + shift_e(T - X), with X the prefix sum ending at row cut[t] - 1.  A
    bosonic row is its own X: it is updated in place `_CHUNK` slots at a
    time, from the top chunk down, each chunk's T - X read before it is
    written, so no write lands on a slot still to be read.  A fermionic row
    takes the row below as X.  Only the slots that a nonzero count can
    reach so far are touched.

    No lane of a step exceeds k times the largest lane before it, since it
    is a sum of at most k of them.  The kernel keeps that bound as an exact
    Python int and runs one lane while it allows; before a step, or the
    closing sum, that could take a lane, or a lane plus the carry it
    receives, past 2^64 - 1, every row is carried (`_carry`) and the bound
    drops to 2^B - 1.  The total comes back carried, every lane below 2^B.
    """
    k = len(cut)
    dtype, lanes, lane_bits = _lane_layout(count, k)
    z = [np.zeros((lanes, sum(band) + 1), dtype) for _ in range(k)]
    for row in z:
        row[0, 0] = 1
    scratch = np.empty((lanes, _CHUNK), dtype)
    used, top, bound = 1, 1, 1  # lanes in use, slots in use, bound on every lane

    def grow() -> None:
        # the bound after one more sum of k lanes, carried first when it would overflow
        nonlocal used, bound
        grown = bound * k
        # a lane's carry in is at most (grown >> lane_bits) + 1: one more when
        # the carry the lane below received rounds its own carry up
        if grown + (grown >> lane_bits) >= _LIMB_MASK:
            used = lanes
            for row in z:
                _carry(row, top, lane_bits, scratch)
            grown = ((1 << lane_bits) - 1) * k
        bound = grown

    for e in band:
        grow()
        for below, row in itertools.pairwise(z):
            row[:used, :top] += below[:used, :top]
        total = z[-1][:used]
        top += e
        for t in range(k - 2, -1, -1):
            row = z[t][:used]
            if cut[t] == t + 1:
                # row[E] += (T - row)[E - e], top chunk first
                for hi in range(top, e, -_CHUNK):
                    lo = max(e, hi - _CHUNK)
                    gap = scratch[:used, : hi - lo]
                    np.subtract(total[:, lo - e : hi - e], row[:, lo - e : hi - e], out=gap)
                    row[:, lo:hi] += gap
            elif t:
                x = z[t - 1][:used]
                row[:, :e] = x[:, :e]
                np.subtract(total[:, : top - e], x[:, : top - e], out=row[:, e:top])
                row[:, e:top] += x[:, e:top]
            else:
                row[:, :e] = 0
                row[:, e:top] = total[:, : top - e]
    grow()
    total = z.pop()
    for row in z:
        total[:used] += row[:used]
    z.clear()
    if lanes > 1:
        _carry(total, top, lane_bits, scratch)
    return total, lane_bits


def _limbs(values: list, width: int, signed: bool) -> np.ndarray:
    """(len(values), width) little-endian 64-bit limbs of Python ints, two's complement when signed.

    Every value fits `width` limbs: the low limbs are masked off, and the top
    one, the value shifted down, fits a signed or unsigned 64-bit integer.
    """
    count = len(values)
    out = np.empty((count, width), np.uint64)
    for k in range(width - 1):
        out[:, k] = np.fromiter(((v >> 64 * k) & _LIMB_MASK for v in values), np.uint64, count)
    top = values if width == 1 else [v >> 64 * (width - 1) for v in values]
    out[:, -1] = np.fromiter(top, np.int64 if signed else np.uint64, count).view(np.uint64)
    return out


def _limb_ints(limbs: np.ndarray) -> list[int]:
    """The Python ints of (terms, width) unsigned little-endian 64-bit limbs, folded high to low."""
    ints = limbs[:, -1].tolist()
    for k in range(limbs.shape[1] - 2, -1, -1):
        ints = [(c << 64) | w for c, w in zip(ints, limbs[:, k].tolist())]
    return ints


def _trimmed(limbs: np.ndarray) -> np.ndarray:
    """(terms, limbs) uint64 limbs without the top columns that are zero in every row, keeping one."""
    width = limbs.shape[1]
    while width > 1 and not limbs[:, width - 1].any():
        width -= 1
    return np.ascontiguousarray(limbs[:, :width])


def _level_polynomial(N: int, m: int, n: int, band: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Exact sum over valid motifs of dim(V) q^E as (exponents, coefficient limbs).

    The exponents E ascend, as int64 (object only for a sparse band whose
    sums pass int64), and row i of the (terms, limbs) uint64 array holds the
    coefficient of exponent i in little-endian 64-bit limbs, as few as the
    largest coefficient needs.  `_limb_ints` folds them to Python ints.

    Rows of (band sum + 1) slots run `_transfer_lanes` when (band sum + 1)
    slots of `_slot_bytes` fit in `_PACKED_BOUND` bits.  Every row but the
    total is dropped before the read-back, which takes the slots where some
    lane is nonzero and gathers their B-bit lanes straight into 64-bit limbs
    (one lane is the one limb), with no per-term Python object.  A context
    with m = 0 runs with the cuts of (n, 0): complementing a motif's bits
    maps the valid (0, n) motifs onto the valid (n, 0) ones, with the same
    dimension and the energy band sum - E, so the dual's slots are read back
    in reverse.  A (0, n) row enters at about half the band sum; its dual's
    rows start at the bottom, so a step touches about half as many slots.
    Wider bands (an alpha with a large numerator or denominator) go through
    `_sparse_level_polynomial`, whose exponents are kept as they are; its
    int64 totals are one limb each, and its Python-int totals (past 2^63)
    are split into limbs.
    """
    cut = _transfer_cuts(N, m, n) if m else _transfer_cuts(N, n, 0)
    count = (m + n) ** N
    slots = sum(band) + 1
    if slots * 8 * _slot_bytes(N, m, n) > _PACKED_BOUND:
        exponents, totals = _sparse_level_polynomial(N, m, n, band)
        if totals.dtype == object:
            return exponents, _trimmed(_limbs(totals.tolist(), -(-count.bit_length() // 64), signed=False))
        return exponents, totals.view(np.uint64)[:, None]
    total, lane_bits = _transfer_lanes(band, cut, count)
    if not m:
        total = total[:, ::-1]  # slot E of the dual holds exponent sum(band) - E
    if len(total) == 1:
        exponents = np.flatnonzero(total[0])
        return exponents, total[0, exponents].astype(np.uint64)[:, None]
    exponents = np.flatnonzero(total.any(axis=0))
    limbs = np.zeros((exponents.size, -(-lane_bits * len(total) // 64)), np.uint64)
    for lane, values in enumerate(total[:, exponents]):
        limb, shift = divmod(lane_bits * lane, 64)
        limbs[:, limb] |= values << shift
        if shift + lane_bits > 64:
            limbs[:, limb + 1] |= values >> (64 - shift)
    return exponents, _trimmed(limbs)


def level_count(N: int, m: int, n: int, disp) -> int:
    """Number of distinct energies over the valid motifs of an exact dispersion.

    `_packed_rows` runs the transfer over the Boolean semiring: row t is a
    Python-int bitset with bit E set when some configuration of the sites
    seen so far ends in spin t - n at scaled energy E, and the count is the
    popcount of their OR.  One bit per slot keeps these rows 8 to 64 times
    narrower than the lanes of `_transfer_lanes`, and an OR of Python ints
    runs a machine word per 64 slots, so the counts stay on bitsets.  A
    context with m = 0 runs its dual (n, 0), as `_level_polynomial` does;
    reflecting the energies leaves their number unchanged.  A band whose
    one-bit rows pass `_PACKED_BOUND` (an alpha with a large numerator or
    denominator makes one) is counted as the term count of
    `_sparse_level_polynomial`, whose size follows the distinct energies
    rather than the band's width.
    """
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    if not disp.exact:
        raise TypeError(f"{type(disp).__name__} is a float table: its levels merge in level_set")
    band, _, _ = _band(disp)
    cut = _transfer_cuts(N, m, n) if m else _transfer_cuts(N, n, 0)
    if sum(band) + 1 > _PACKED_BOUND:
        return len(_sparse_level_polynomial(N, m, n, band)[0])
    return _packed_rows(band, cut).bit_count()


def _word_energies(words: np.ndarray, N: int, table: Sequence[float]) -> np.ndarray:
    """Float energies of an integer array of packed N-site motif words.

    Adds eps(j) in rapidity order, and exact zeros for the bits that are
    clear, so every sum is bit-identical to adding eps over the rapidities.
    """
    acc = np.zeros(words.shape)
    for j, e in enumerate(table, 1):
        acc += np.where((words >> (N - 1 - j)) & 1, e, 0.0)
    return acc


def _half_energies(keys: np.ndarray, table: Sequence[float]) -> np.ndarray:
    """Float energies of an integer array of half keys of a mirrored N-site table.

    Base-3 digit i - 1 of a key is the half entry h_i = d_i + d_(N-i), and an
    even N's top digit is the middle bit d_(N/2); each digit adds h_i eps(i),
    an exact zero when it is 0, in rapidity order.  Keys past int64 come as
    an object array of Python ints.
    """
    acc = np.zeros(keys.shape)
    for e in table[: (len(table) + 1) // 2]:
        digit = keys % 3
        keys = keys // 3
        acc += np.array([0.0, e, e + e])[digit.astype(np.intp, copy=False)]
    return acc


def level_set(N: int, m: int, n: int, disp) -> list[tuple[int | Fraction | float | tuple[int, int], int]]:
    """Sorted distinct energies with their total degeneracies, summing to (m+n)^N.

    Every dispersion goes through the transfer-matrix kernel, which never
    lists spin configurations, over the band of `_band`.  An exact band's
    exponents decode to the exact energies.  A float table's exponents are
    its keys: each motif's word, or for a mirrored table its half entries,
    so that the motifs that share them are one term.  Their energies,
    weighted by the coefficients, merge by the round-off rule of
    `_merge_float_levels` at the width of the motif count, the values a
    sum over every motif would merge.  A float table is refused, with
    InfeasibleSizeError, when the terms the kernel could hold,
    min(band sum + 1, motif count), pass `_TABLE_CAP`.
    """
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    band, _, decode = _band(disp)
    if not disp.exact:
        motifs = _motif.count(N, m, n)
        held = min(sum(band) + 1, motifs)
        if held > _TABLE_CAP:
            raise InfeasibleSizeError(f"min(band sum + 1, motifs) = {held} float terms exceed cap {_TABLE_CAP}")
    exponents, limbs = _level_polynomial(N, m, n, band)
    if disp.exact:
        return [(decode(e), d) for e, d in zip(exponents.tolist(), _limb_ints(limbs))]
    # one limb, and level totals in uint64, while (m+n)^N fits 64 bits
    weights = limbs[:, 0] if (m + n) ** N <= _LIMB_MASK else np.array(_limb_ints(limbs), dtype=object)
    return _merge_float_levels(decode(exponents), weights, motifs)


def level_count_by_enumeration(N: int, m: int, n: int, disp) -> int:
    """Number of distinct energies of a float table, summed over every valid motif word.

    The sweep reference for the float `level_set`, which counts the same
    levels on the transfer kernel: each word of the enumeration sweep gets
    its `_word_energies` sum, and levels merge by the round-off rule of
    `_merge_float_levels`.  Exact dispersions are counted by `level_count`.
    No program path calls it; `bench/tracer.py` times it by name.
    """
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    if disp.exact:
        raise TypeError(f"{type(disp).__name__} is exact: count its levels with level_count")
    energies = np.concatenate([_word_energies(w, N, disp.table) for w in _motif._valid_word_blocks(N, m, n)])
    return len(_merge_float_levels(energies, np.ones(energies.size, dtype=np.int64)))


def dispersion_from_coupling(h: Sequence[float]) -> NumericDispersion:
    """Band of a periodic exchange chain from its even coupling table.

    `h` has length N with h[l] the coupling at site distance l (entry 0 is
    unused); it must satisfy h[l] = h[N-l].  The band is the discrete cosine
    sum eps(j) = sum_l (1 - cos(2 pi j l / N)) h[l], which is symmetric about
    the band center.  Once that symmetry is checked to round-off, the table
    is made exact by the mean of eps(j) and eps(N - j), so that `level_set`
    folds it to the motifs' half entries.
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
    # each entry and its mirror image become their mean, the same double both ways round
    return NumericDispersion(N, tuple((a + b) / 2 for a, b in zip(eps, reversed(eps))))


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
