"""Exact partition functions of two-state fermionic chains as sparse q-polynomials.

The partition functions come from the transfer-matrix kernel in `spectrum`
with exact integer coefficients; rational couplings a/b are handled by
scaling every exponent by the common denominator b, recorded in
QPolynomial.scale.  The tests check the kernel against an enumeration
oracle that assembles the same polynomial term by term from motif energies
and fiber dimensions.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True, eq=True)
class QPolynomial:
    """Sparse polynomial in q: maps scaled exponent -> positive coefficient.

    Integer keys represent the exponent times `scale`; symbolic-alpha spectra
    use (E0, E1) integer pairs as keys with scale 1.
    """

    terms: dict
    scale: int = 1

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"need scale >= 1, got {self.scale}")
        if self.terms and min(self.terms.values()) <= 0:
            e, c = next((e, c) for e, c in self.terms.items() if c <= 0)
            raise ValueError(f"nonpositive coefficient {c} at exponent {e}")

    def term_count(self) -> int:
        return len(self.terms)

    def value_at_one(self) -> int:
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple]:
        return sorted(self.terms.items())

    def max_coefficient(self) -> int:
        return max(self.terms.values())


def _su02_polynomial(disp) -> QPolynomial:
    band, scale, _ = spectrum._band(disp)
    return QPolynomial(spectrum._level_polynomial(disp.sites, 0, 2, band), scale)


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
    if not qp.terms:
        raise ValueError("empty polynomial")
    return LevelSummary(qp.term_count(), qp.max_coefficient(), Fraction(qp.value_at_one(), qp.term_count()))


_MAGIC = b"MSQP"
_VERSION = 1
_HEAD = struct.Struct("<4sBQQ")
_LENGTH = struct.Struct("<I")
_LIMB = np.dtype("<u8")
_LIMB_MASK = (1 << 64) - 1
_BYTE_EDGES = np.array([1 << 8 * k for k in range(8)], _LIMB)  # a limb >= 256^k has more than k bytes
_ONES = np.array([int.from_bytes(b"\x01" * k, "little") for k in range(9)], _LIMB)  # k low bytes 1
_CHUNK = 1 << 14  # terms per record array: a few hundred kB of rows and mask


def _limbs(values: list, width: int, signed: bool) -> np.ndarray:
    """(len(values), width) little-endian 64-bit limbs of Python ints, two's complement when signed.

    Every value fits `width` limbs: the low limbs are masked off, and the top
    one, the value shifted down, fits a signed or unsigned 64-bit integer.
    """
    count = len(values)
    out = np.empty((count, width), _LIMB)
    for k in range(width - 1):
        out[:, k] = np.fromiter(((v >> 64 * k) & _LIMB_MASK for v in values), _LIMB, count)
    top = values if width == 1 else [v >> 64 * (width - 1) for v in values]
    out[:, -1] = np.fromiter(top, "<i8" if signed else _LIMB, count).view(_LIMB)
    return out


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


def _records(exps: list, coeffs: list, e_width: int, c_width: int) -> np.ndarray:
    """The dump records of these terms, in order, as one uint8 array.

    Each term gets a record of fixed width holding both length prefixes and
    every limb; a second record of the same layout, whose bytes are 1 where
    they belong to the term's dump record, compacts them as one boolean mask.
    """
    e, c = _limbs(exps, e_width, signed=True), _limbs(coeffs, c_width, signed=False)
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
    rows, keep = np.empty(len(exps), record), np.empty(len(exps), record)
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

    The records are built by numpy over 64-bit limbs, as many per value as
    the widest exponent and coefficient need, in chunks of `_CHUNK` terms:
    each chunk is one array, written as it is built.
    """
    if not all(issubclass(t, int) for t in set(map(type, qp.terms))):
        raise TypeError("only integer-exponent polynomials can be dumped")
    exps = sorted(qp.terms)
    fh.write(_HEAD.pack(_MAGIC, _VERSION, len(exps), qp.scale))
    if not exps:
        return
    # the extreme exponents and the largest coefficient need the longest records
    e_bytes = max((exps[0].bit_length() + 8) // 8, (exps[-1].bit_length() + 8) // 8)
    c_bytes = (qp.max_coefficient().bit_length() + 7) // 8
    e_width, c_width = -(-e_bytes // 8), -(-c_bytes // 8)
    coefficient = qp.terms.__getitem__
    for start in range(0, len(exps), _CHUNK):
        chunk = exps[start : start + _CHUNK]
        fh.write(_records(chunk, list(map(coefficient, chunk)), e_width, c_width))


def load_terms(fh: BinaryIO) -> QPolynomial:
    """Inverse of dump_terms; raises ValueError on a truncated or overlong dump
    and on exponents that do not strictly ascend, as dump_terms writes them.

    The dump is read once and walked in place.
    """
    data = fh.read()
    if len(data) < _HEAD.size:
        raise ValueError(f"truncated term dump: wanted {_HEAD.size} header bytes, got {len(data)}")
    magic, version, count, scale = _HEAD.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("bad magic")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    length, from_bytes = _LENGTH.unpack_from, int.from_bytes
    terms: dict = {}
    pos = _HEAD.size
    last = -math.inf
    try:
        for _ in range(count):
            (size,) = length(data, pos)
            pos += 4 + size
            e = from_bytes(data[pos - size : pos], "little", signed=True)
            if e <= last:
                raise ValueError(f"term dump exponents do not strictly ascend: {e} after {last}")
            last = e
            (size,) = length(data, pos)
            pos += 4 + size
            terms[e] = from_bytes(data[pos - size : pos], "little")
    except struct.error:
        raise ValueError(f"truncated term dump: a length prefix runs past byte {len(data)}") from None
    if pos > len(data):
        raise ValueError(f"truncated term dump: the last record ends at byte {pos} of {len(data)}")
    if pos < len(data):
        raise ValueError("trailing bytes after the last term")
    return QPolynomial(terms, scale)
