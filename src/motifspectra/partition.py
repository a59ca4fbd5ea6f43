"""Exact partition functions of two-state fermionic chains as sparse q-polynomials.

The partition functions come from the transfer-matrix kernel in `spectrum`
with exact integer coefficients; rational couplings a/b are handled by
scaling every exponent by the common denominator b, recorded in
QPolynomial.scale.  A QPolynomial is built only from the kernel's two
arrays, or from those `load_terms` reads back, and holds them as they are:
ascending exponents and 64-bit coefficient limbs.  The level summary and
the binary term dump read them with numpy and make no Python int per term;
`sorted_terms` folds the limbs to Python ints on request.
The tests check the kernel against an enumeration oracle that assembles
the same polynomial term by term from motif energies and fiber dimensions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO

import numpy as np

from . import spectrum

__all__ = [
    "QPolynomial",
    "LevelSummary",
    "hs_partition",
    "fi_partition",
    "levels",
    "dump_terms",
    "load_terms",
]


class QPolynomial:
    """Sparse polynomial in q with positive integer coefficients, held as the kernel's arrays.

    `exponents` ascend, each the exponent times `scale`: int64, or an object
    array of Python ints when they pass int64.  `coefficients` is a
    (terms, limbs) uint64 array: row i holds the coefficient of exponents[i]
    in little-endian 64-bit limbs, as few as the largest coefficient needs.
    The constructor takes both arrays as they are, from
    `spectrum._level_polynomial` or `load_terms`, and checks only the scale;
    its repr shows the three.  `sorted_terms` folds the limbs back to Python
    ints; the count, the largest coefficient and the sum are read off the
    arrays.
    """

    __slots__ = ("exponents", "coefficients", "scale")

    def __init__(self, exponents: np.ndarray, coefficients: np.ndarray, scale: int) -> None:
        if scale < 1:
            raise ValueError(f"need scale >= 1, got {scale}")
        self.exponents, self.coefficients, self.scale = exponents, coefficients, scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return (
            self.scale == other.scale
            and self.exponents.tolist() == other.exponents.tolist()
            and np.array_equal(self.coefficients, other.coefficients)
        )

    def __repr__(self) -> str:
        return f"QPolynomial({self.exponents!r}, {self.coefficients!r}, {self.scale!r})"

    def term_count(self) -> int:
        return len(self.exponents)

    def value_at_one(self) -> int:
        """The sum of the coefficients: column sums of the limbs' 32-bit halves, carried once."""
        c = self.coefficients
        total = 0
        for shift, half in ((0, c & 0xFFFFFFFF), (32, c >> 32)):
            for k, s in enumerate(half.sum(axis=0, dtype=np.uint64).tolist()):
                total += s << (64 * k + shift)
        return total

    def sorted_terms(self) -> list[tuple]:
        """(exponent, coefficient) pairs by ascending exponent, the limbs folded once by `spectrum._limb_ints`."""
        return list(zip(self.exponents.tolist(), spectrum._limb_ints(self.coefficients)))

    def max_coefficient(self) -> int:
        """The largest coefficient: the rows that hold each limb column's maximum, from the top limb down."""
        rows = self.coefficients
        if not rows.size:
            raise ValueError("empty polynomial has no largest coefficient")
        for k in range(rows.shape[1] - 1, -1, -1):
            col = rows[:, k]
            rows = rows[col == col.max()]
        return spectrum._limb_ints(rows[:1])[0]


def _su02_polynomial(disp) -> QPolynomial:
    band, scale, _ = spectrum._band(disp)
    return QPolynomial(*spectrum._level_polynomial(disp.sites, 0, 2, band), scale)


def hs_partition(N: int) -> QPolynomial:
    """Partition function of the N-site two-state fermionic trigonometric chain."""
    return _su02_polynomial(spectrum.HSDispersion(N))


def fi_partition(N: int, alpha) -> QPolynomial:
    """Partition function of the N-site two-state fermionic hyperbolic chain.

    Exponents are scaled by the denominator of alpha so they stay integral.
    """
    return _su02_polynomial(spectrum.FIDispersion(N, alpha))


@dataclass(frozen=True)
class LevelSummary:
    count: int
    max_degeneracy: int
    average: Fraction


def levels(qp: QPolynomial) -> LevelSummary:
    """Distinct-level count, largest degeneracy and exact average degeneracy."""
    if not qp.term_count():
        raise ValueError("empty polynomial")
    return LevelSummary(qp.term_count(), qp.max_coefficient(), Fraction(qp.value_at_one(), qp.term_count()))


_MAGIC = b"MSQP"
_VERSION = 1
_HEAD = struct.Struct("<4sBQQ")
_LENGTH = struct.Struct("<I")
_LIMB = np.dtype("<u8")
_INT64_MIN = np.iinfo(np.int64).min
_BYTE_EDGES = np.array([1 << 8 * k for k in range(8)], _LIMB)  # a limb >= 256^k has more than k bytes
_ONES = np.array([int.from_bytes(b"\x01" * k, "little") for k in range(9)], _LIMB)  # k low bytes 1
_CHUNK = 1 << 14  # terms per record array: a few hundred kB of rows and mask


def _byte_lengths(limbs: np.ndarray) -> np.ndarray:
    """Bytes of each row's unsigned value up to its highest nonzero byte; 0 for zero."""
    lengths = np.searchsorted(_BYTE_EDGES, limbs[:, 0], side="right")
    for k in range(1, limbs.shape[1]):
        high = limbs[:, k] != 0
        lengths[high] = 8 * k + np.searchsorted(_BYTE_EDGES, limbs[high, k], side="right")
    return lengths


def _byte_mask(lengths: np.ndarray, width: int) -> np.ndarray:
    """(len(lengths), width) limbs whose bytes are 1 below each row's length and 0 from it on."""
    return np.stack([_ONES[np.clip(lengths - 8 * k, 0, 8)] for k in range(width)], axis=1)


def _records(e: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The dump records of these terms, in order, as one uint8 array.

    `e` and `c` hold the exponents and coefficients as little-endian 64-bit
    limbs, the exponents in two's complement.  Each term gets a record of
    fixed width holding both length prefixes and every limb; a second record
    of the same layout, whose bytes are 1 where they belong to the term's
    dump record, compacts them as one boolean mask.
    """
    e_width, c_width = e.shape[1], c.shape[1]
    negative = e[:, -1].view("<i8") < 0
    mag = np.where(negative[:, None], ~e, e)
    carry = negative  # -e = ~e + 1, carried up through the limbs
    for k in range(e_width):
        mag[:, k] += carry
        carry = carry & (mag[:, k] == 0)
    # (bit_length(|e|) + 8) // 8 bytes are those of 2|e|, and at least one
    doubled = mag << 1
    doubled[:, 1:] |= mag[:, :-1] >> 63
    el = np.maximum(_byte_lengths(doubled), 1)
    cl = _byte_lengths(c)  # coefficients are positive
    record = [("el", "<u4"), ("e", _LIMB, (e_width,)), ("cl", "<u4"), ("c", _LIMB, (c_width,))]
    rows, keep = np.empty(len(e), record), np.empty(len(e), record)
    rows["el"], rows["e"], rows["cl"], rows["c"] = el, e, cl, c
    keep["el"] = keep["cl"] = 0x01010101
    keep["e"], keep["c"] = _byte_mask(el, e_width), _byte_mask(cl, c_width)
    return rows.view(np.uint8)[keep.view(np.bool_)]


def dump_terms(qp: QPolynomial, fh: BinaryIO) -> None:
    """Binary term dump: little-endian, length-prefixed integer records.

    Layout: magic "MSQP", u8 version, u64 term count, u64 scale, then per
    term (sorted by exponent) u32 byte length el + signed little-endian
    exponent and u32 byte length cl + unsigned little-endian coefficient,
    with el = (bit_length(|e|) + 8) // 8 and cl = (bit_length(c) + 7) // 8.

    The records are built by numpy from the polynomial's arrays, which are
    already sorted: the coefficient limbs as they are, and int64 exponents as
    one limb each (two when -2^63 is among them; exponents past int64 are
    split into as many limbs as the widest needs).  They are written in chunks of `_CHUNK` terms, each chunk
    one array.
    """
    exps = qp.exponents
    if exps.dtype == object:
        values = exps.tolist()
        # the extreme exponents need the longest records
        e_bytes = max((values[0].bit_length() + 8) // 8, (values[-1].bit_length() + 8) // 8)
        e = spectrum._limbs(values, -(-e_bytes // 8), signed=True)
    elif len(exps) and exps[0] == _INT64_MIN:
        # -2^63 alone takes 9 bytes: a second limb carries the sign
        e = np.stack([exps.view(_LIMB), (exps >> 63).view(_LIMB)], axis=1)
    else:
        e = exps.view(_LIMB)[:, None]
    fh.write(_HEAD.pack(_MAGIC, _VERSION, len(e), qp.scale))
    for start in range(0, len(e), _CHUNK):
        fh.write(_records(e[start : start + _CHUNK], qp.coefficients[start : start + _CHUNK]))


def _gathered_limbs(body: np.ndarray, at: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(len(at), limbs) little-endian 64-bit limbs of the byte strings body[at : at + sizes], zero-extended."""
    longest = int(sizes.max(initial=0))
    out = np.zeros((len(at), 8 * max(1, -(-longest // 8))), np.uint8)
    for k in range(longest):
        has = sizes > k
        out[has, k] = body[at[has] + k]
    return out.view(_LIMB)


def load_terms(fh: BinaryIO) -> QPolynomial:
    """Inverse of dump_terms; raises ValueError on a truncated or overlong dump,
    on exponents that do not strictly ascend, as dump_terms writes them, and
    on a zero coefficient.

    The dump is read once.  One Python scan finds where each record starts,
    since each record's offset depends on the length prefix before it; numpy
    then gathers the values' bytes into limbs, exponents into int64 when every
    one takes at most 8 bytes.
    """
    data = fh.read()
    if len(data) < _HEAD.size:
        raise ValueError(f"truncated term dump: wanted {_HEAD.size} header bytes, got {len(data)}")
    magic, version, count, scale = _HEAD.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("bad magic")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    length = _LENGTH.unpack_from
    # where each record's length prefixes start, exponent and coefficient in
    # turn, then the end; a prefix takes 4 bytes, so the data holds no more
    starts = np.empty(min(2 * count, (len(data) - _HEAD.size) // 4) + 1, np.int64)
    pos = _HEAD.size
    try:
        for i in range(2 * count):
            size = length(data, pos)[0]
            starts[i] = pos
            pos += 4 + size
    except struct.error:
        raise ValueError(f"truncated term dump: a length prefix runs past byte {len(data)}") from None
    if pos > len(data):
        raise ValueError(f"truncated term dump: the last record ends at byte {pos} of {len(data)}")
    if pos < len(data):
        raise ValueError("trailing bytes after the last term")
    starts[-1] = pos
    sizes = (np.diff(starts) - 4).reshape(count, 2)
    at = starts[:-1].reshape(count, 2) + 4
    body = np.frombuffer(data, np.uint8)
    if sizes[:, 0].max(initial=0) <= 8:
        # sign-extend each exponent from its top byte
        shift = 64 - 8 * np.maximum(sizes[:, 0], 1)
        exps = (_gathered_limbs(body, at[:, 0], sizes[:, 0])[:, 0].view("<i8") << shift) >> shift
    else:
        spans = zip(at[:, 0].tolist(), sizes[:, 0].tolist())
        values = [int.from_bytes(data[a : a + n], "little", signed=True) for a, n in spans]
        # int64 when every one fits; the order is checked below
        fits = _INT64_MIN <= min(values) and max(values) < -_INT64_MIN
        exps = np.array(values, np.int64) if fits else np.fromiter(values, object, count)
    fall = np.flatnonzero(exps[1:] <= exps[:-1])
    if fall.size:
        raise ValueError(f"term dump exponents do not strictly ascend: {exps[fall[0] + 1]} after {exps[fall[0]]}")
    coefficients = spectrum._trimmed(_gathered_limbs(body, at[:, 1], sizes[:, 1]))
    zero = np.flatnonzero(~coefficients.any(axis=1))
    if zero.size:
        raise ValueError(f"nonpositive coefficient 0 at exponent {exps[zero[0]]}")
    return QPolynomial(exps, coefficients, scale)
