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
        for e, c in self.terms.items():
            if c <= 0:
                raise ValueError(f"nonpositive coefficient {c} at exponent {e}")

    def term_count(self) -> int:
        return len(self.terms)

    def value_at_one(self) -> int:
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple]:
        return sorted(self.terms.items())

    def energies(self) -> list[Fraction]:
        return [Fraction(e, self.scale) for e in sorted(self.terms)]

    def max_coefficient(self) -> int:
        return max(self.terms.values())

    def reflected(self, pivot) -> "QPolynomial":
        """Exponent reflection e -> pivot - e (pivot in scaled units)."""
        if isinstance(pivot, tuple):
            flipped = {tuple(p - x for p, x in zip(pivot, e)): c for e, c in self.terms.items()}
        else:
            flipped = {pivot - e: c for e, c in self.terms.items()}
        return QPolynomial(flipped, self.scale)


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


def dump_terms(qp: QPolynomial, fh: BinaryIO) -> None:
    """Binary term dump: little-endian, length-prefixed integer records.

    Layout: magic "MSQP", u8 version, u64 term count, u64 scale, then per
    term (sorted by exponent) u32 byte length + signed little-endian exponent
    and u32 byte length + unsigned little-endian coefficient.  The dump is
    built in one bytearray and written once.
    """
    items = qp.sorted_terms()
    if any(not isinstance(e, int) for e, _ in items):
        raise TypeError("only integer-exponent polynomials can be dumped")
    out = bytearray(_HEAD.pack(_MAGIC, _VERSION, len(items), qp.scale))
    if items:
        # the extreme exponents and the largest coefficient need the longest records
        widest = max(
            (items[0][0].bit_length() + 8) // 8,
            (items[-1][0].bit_length() + 8) // 8,
            (qp.max_coefficient().bit_length() + 7) // 8,
        )
        prefix = [_LENGTH.pack(k) for k in range(widest + 1)]
        for e, c in items:
            el = (e.bit_length() + 8) // 8  # room for the sign bit: 0 takes one byte
            cl = (c.bit_length() + 7) // 8  # coefficients are positive
            # in place: a list of per-term records held 10 MB more at fi 5/2, N = 60
            out += prefix[el]
            out += e.to_bytes(el, "little", signed=True)
            out += prefix[cl]
            out += c.to_bytes(cl, "little")
    fh.write(out)


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
