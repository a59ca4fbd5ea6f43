"""Exact partition functions of two-state fermionic chains as sparse q-polynomials.

The partition functions come from the transfer-matrix kernel in `spectrum`
with exact integer coefficients; rational couplings a/b are handled by
scaling every exponent by the common denominator b, recorded in
QPolynomial.scale.  The tests check the kernel against an enumeration
oracle that assembles the same polynomial term by term from motif energies
and fiber dimensions.
"""

from __future__ import annotations

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


def dump_terms(qp: QPolynomial, fh: BinaryIO) -> None:
    """Binary term dump: little-endian, length-prefixed integer records.

    Layout: magic "MSQP", u8 version, u64 term count, u64 scale, then per
    term (sorted by exponent) u32 byte length + signed little-endian exponent
    and u32 byte length + unsigned little-endian coefficient.
    """
    items = qp.sorted_terms()
    if any(not isinstance(e, int) for e, _ in items):
        raise TypeError("only integer-exponent polynomials can be dumped")
    fh.write(_MAGIC + struct.pack("<BQQ", _VERSION, len(items), qp.scale))
    for e, c in items:
        eb = e.to_bytes(max(1, (e.bit_length() + 8) // 8), "little", signed=True)
        cb = c.to_bytes(max(1, (c.bit_length() + 7) // 8), "little")
        fh.write(struct.pack("<I", len(eb)) + eb + struct.pack("<I", len(cb)) + cb)


def _read_exact(fh: BinaryIO, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated term dump: wanted {size} bytes, got {len(data)}")
    return data


def load_terms(fh: BinaryIO) -> QPolynomial:
    """Inverse of dump_terms; raises ValueError on a truncated or overlong dump."""
    head = _read_exact(fh, 4 + struct.calcsize("<BQQ"))
    if head[:4] != _MAGIC:
        raise ValueError("bad magic")
    version, count, scale = struct.unpack("<BQQ", head[4:])
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    terms: dict = {}
    for _ in range(count):
        (elen,) = struct.unpack("<I", _read_exact(fh, 4))
        e = int.from_bytes(_read_exact(fh, elen), "little", signed=True)
        (clen,) = struct.unpack("<I", _read_exact(fh, 4))
        terms[e] = int.from_bytes(_read_exact(fh, clen), "little")
    if fh.read(1):
        raise ValueError("trailing bytes after the last term")
    return QPolynomial(terms, scale)
