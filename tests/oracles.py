"""Brute-force oracles that only the tests use.

Each one recomputes, by enumeration or element by element, what a fast path
in `motifspectra` computes another way:

* `enumerated_partition` assembles the level polynomial term by term from
  motif energies and fiber dimensions, as {exponent: coefficient} and the
  scale, against the transfer-matrix kernel.  Its fiber dimensions come
  from the same kernel over a binary band, so the descent rule itself is
  checked independently by the tests' count of spin configurations;
* `polynomial` builds a `QPolynomial` from {exponent: coefficient},
  splitting the Python-int coefficients into limbs: the tests' hand-made
  polynomials, against the kernel's arrays and the term dump; `terms`
  reads one back as {exponent: coefficient};
* `level_count_by_enumeration` counts the distinct exact energies over every
  valid motif word, against `spectrum.level_count`;
* `graded_permutation` applies one graded transposition to one basis state,
  against the vectorized Hamiltonian assembly;
* `packed_rows` runs the packed transfer loop on Python-int rows with full
  prefix and suffix sums, every one started from 0: with + against the
  in-place lane kernel `spectrum._transfer_lanes`, and with | against
  `spectrum._packed_rows`, which skips the passes whose result it already
  holds;
* `profile_weight` sums the paper's multinomials over cluster-size profiles,
  against the run-length automaton of `anyon.motif_weights`;
* `su2_half_count` and `su2_half_count_series` evaluate the paper's
  third-order recursion for two-state half counts, against the folded
  automaton of `motif.count_half`;
* `dumped_terms` encodes a term dump record by record with `int.to_bytes`,
  against the numpy record builder of `partition.dump_terms`;
* `emitted_by_row` prints a CLI table one row at a time, and `json.dump`s
  it to the stream, against the block writer of `cli._emit`;
* `fiber_table` reads the fiber table back as {word: dimension}, the
  form the tests look dimensions up in, and `fiber_rows` lists
  `tableau --sites` rows from it, sorted, and from each motif's bits,
  against the rows formatted straight from the table's columns;
* `valid_word` runs the run-length rule on one int word, against the
  enumeration sweep `motif._valid_word_blocks`, which folds low words and
  high prefixes apart and joins the runs across the split;
* `enumerate_motifs` builds one `Motif` per word of the enumeration sweep,
  and `listed_rows` the `motifs --list` rows from them, against the rows
  formatted straight from the sweep's words;
* `energy` sums eps over a motif's rapidities, and `ground_state_energy`
  over every rapidity, against the integer bands of the exact kernels;
* `reflected` maps the exponents e of a level polynomial to pivot - e, for
  the duality between a context and its conjugate;
* `half` lists a motif's symmetrized half entries d_i + d_{N-i}, against
  the keys of `motif.count_half_by_enumeration`;
* `complement` flips every bit of a motif, the duality between (m, n) and
  (n, m), against the dual spins of `tableau` and the motif words of the
  conjugate context;
* `strip_of_motif` and `motif_of_strip` map a motif to the column heights
  of its border strip and back, against `tableau.tableau_lines`;
* `haldane_weight` counts k-particle states at exclusion statistics g,
  against the two-state weights of `anyon.motif_weights`;
* `binet` evaluates order-m Fibonacci numbers from the characteristic
  roots, against `fibnum.fib`, and `translational_growth_ratio` the
  two-state per-site ratio of the translational over the generic bound,
  against the quotient of the two asymptotic floors in `fibnum`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
import sys
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from motifspectra import __version__, cli, fibnum, spectrum, tableau
from motifspectra import motif as _motif
from motifspectra.motif import Motif
from motifspectra.partition import QPolynomial
from motifspectra.spectrum import FIDispersion, SymbolicAlphaDispersion


def enumerate_motifs(N: int, m: int, n: int) -> Iterator[Motif]:
    """Valid motifs in lexicographic bit order."""
    for block in _motif._valid_word_blocks(N, m, n):
        for word in block.tolist():
            yield Motif(word, N)


def valid_word(word: int, length: int, m: int, n: int) -> bool:
    """Validity of one packed motif word of `length` bits in the (m, n) context.

    A word holds a run of r consecutive 1s iff AND-folding r shifted copies
    leaves a set bit; the fermionic rule is the bosonic one on the complement.
    """
    if m and n:
        return True
    w = word if m else ~word & ((1 << length) - 1)
    for _ in range((m or n) - 1):
        w &= w >> 1
    return w == 0


def fiber_table(N: int, m: int, n: int) -> dict[int, int]:
    """The fiber table as {motif word: fiber dimension}, from the cached table's rows."""
    return dict(tableau._fiber_cache(N, m, n).tolist())


def _bits(mot: Motif) -> tuple[int, ...]:
    """(d_1, ..., d_{N-1}); d_i sits at bit N - 1 - i of the word."""
    return tuple((mot.word >> (mot.sites - 1 - i)) & 1 for i in range(1, mot.sites))


def complement(mot: Motif) -> Motif:
    """The motif with every bit flipped: the dual of a motif between (m, n) and (n, m)."""
    return Motif(mot.word ^ ((1 << mot.length) - 1), mot.sites)


def listed_rows(N: int, m: int, n: int) -> list[tuple]:
    """`motifs --list` rows: index, bits, ones and rapidities of each `Motif`."""
    return [
        (k, str(mot), mot.word.bit_count(), cli._joined(mot.rapidities()))
        for k, mot in enumerate(enumerate_motifs(N, m, n))
    ]


def energy(motif: Motif, disp) -> int | Fraction | float | tuple[int, int]:
    """Sum of eps over the motif's rapidities; symbolic alpha sums (E0, E1) pairs."""
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


def reflected(terms: dict, pivot: int) -> dict:
    """Exponent reflection e -> pivot - e of {exponent: coefficient} (pivot in scaled units)."""
    return {pivot - e: c for e, c in terms.items()}


def polynomial(terms: dict, scale: int = 1) -> QPolynomial:
    """The QPolynomial of {integer exponent: positive coefficient}.

    Exponents are int64 when every one fits, as the kernel and `load_terms`
    make them, and Python ints otherwise; each coefficient takes as many
    64-bit limbs as the largest needs, and at least one.
    """
    exps = sorted(terms)
    coeffs = [terms[e] for e in exps]
    fits = all(-(2**63) <= e < 2**63 for e in exps)
    width = max(1, -(-max(coeffs, default=0).bit_length() // 64))
    exponents = np.array(exps, np.int64) if fits else np.array(exps, object)
    return QPolynomial(exponents, spectrum._limbs(coeffs, width, signed=False), scale)


def terms(qp: QPolynomial) -> dict:
    """{exponent: coefficient} of a QPolynomial, Python-int coefficients, by ascending exponent."""
    return dict(qp.sorted_terms())


def half(mot: Motif) -> tuple[int, ...]:
    """Symmetrized half of a motif: entries d_i + d_{N-i}, middle bit kept for even N."""
    bits, N = (0, *_bits(mot)), mot.sites
    entries = [bits[i] + bits[N - i] for i in range(1, (N - 1) // 2 + 1)]
    if N % 2 == 0:
        entries.append(bits[N // 2])
    return tuple(entries)


def strip_of_motif(motif: Motif) -> tuple[int, ...]:
    """Column heights of the border strip cut by the motif's rapidities."""
    cuts = (0, *motif.rapidities(), motif.sites)
    return tuple(b - a for a, b in itertools.pairwise(cuts))


def motif_of_strip(columns) -> Motif:
    """Inverse of strip_of_motif."""
    cols = tuple(columns)
    if not cols or any(k < 1 for k in cols):
        raise ValueError(f"column heights must be positive, got {cols!r}")
    n_sites = sum(cols)
    word = 0
    pos = 0
    for k in cols[:-1]:
        pos += k
        word |= 1 << (n_sites - 1 - pos)
    return Motif(word, n_sites)


def haldane_weight(orbitals: int, k: int, g: Fraction | int) -> int:
    """Number of k-particle states in `orbitals` orbitals at statistics g.

    This is the binomial C(orbitals - (g - 1)(k - 1), k); the top argument
    must come out integral, and a negative top means no states.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return 1
    top = Fraction(orbitals) - Fraction(g) * (k - 1) + (k - 1)
    if top.denominator != 1:
        raise ValueError(f"non-integral binomial argument {top} for g = {g}, k = {k}")
    t = int(top)
    if t < 0:
        return 0
    return math.comb(t, k) if t >= k else 0


def binet(m: int, n: int) -> float:
    """Closed-form order-m Fibonacci value from the characteristic roots."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    total = 0j
    for z in fibnum.characteristic_roots(m).roots:
        total += (z - 1) / ((m + 1) * z - 2 * m) * z ** (n - m + 1)
    return total.real


def translational_growth_ratio() -> float:
    """Per-site growth of the translational over the generic minimum bound."""
    tc = fibnum.su2_translational_constants()
    return 2 / ((math.sqrt(5) - 1) * math.sqrt(tc.root))


def enumerated_partition(N: int, m: int, n: int, disp) -> tuple[dict, int]:
    """Oracle assembly: sum of dim(V) q^E over the valid motifs, as {E: coefficient} and the scale.

    E is the energy times the scale, or the (E0, E1) pair of symbolic alpha.
    Works for any exact dispersion; float tables have no exact exponents and
    are rejected.
    """
    if not disp.exact:
        raise TypeError("enumerated_partition needs an exact dispersion")
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    scale = disp.alpha.denominator if isinstance(disp, spectrum.FIDispersion) else 1
    terms: dict = {}
    for word, dim in fiber_table(N, m, n).items():
        e = energy(Motif(word, N), disp)
        if isinstance(e, tuple):
            key: object = e
        else:
            scaled = e * scale
            if isinstance(scaled, Fraction):
                if scaled.denominator != 1:
                    raise ValueError(f"energy {e} not integral at scale {scale}")
                scaled = scaled.numerator
            key = scaled
        terms[key] = terms.get(key, 0) + dim
    return terms, scale


def level_count_by_enumeration(N: int, m: int, n: int, disp) -> int:
    """Number of distinct energies of an exact dispersion over the valid motifs.

    Exact dispersions sum their integer band over each block of motif words
    in int64; rational alpha counts the symbolic (E0, E1) keys, which fit
    int64 whatever alpha is, and then distinct alpha E0 + E1.
    """
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    fi = isinstance(disp, FIDispersion)
    band, _, decode = spectrum._band(SymbolicAlphaDispersion(N) if fi else disp)
    seen: set[int] = set()
    for words in _motif._valid_word_blocks(N, m, n):
        acc = np.zeros(words.shape, dtype=np.int64)
        for j, e in enumerate(band, 1):
            # widened first: a uint32 bit times a band entry past uint32 raises
            acc += ((words >> (N - 1 - j)) & 1).astype(np.int64) * e
        seen.update(np.unique(acc).tolist())
    if fi:
        a, b = disp.alpha.numerator, disp.alpha.denominator
        return len({a * e0 + b * e1 for e0, e1 in map(decode, seen)})
    return len(seen)


def graded_permutation(state: int, i: int, j: int, m: int, n: int) -> tuple[int, int]:
    """Apply the graded transposition of sites i < j (1-based) to a basis state.

    States are base-(m+n) encodings with site p in digit p-1 and spin value
    digit - n; digits below n are fermionic.  Returns (new_state, sign).
    """
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got i={i}, j={j}")
    base = m + n
    if base < 1 or m < 0 or n < 0:
        raise ValueError(f"bad context ({m}, {n})")
    di = (state // base ** (i - 1)) % base
    dj = (state // base ** (j - 1)) % base
    fi, fj = di < n, dj < n
    if fi and fj:
        sign = -1
    elif fi != fj:
        between = sum((state // base**p) % base < n for p in range(i, j - 1))
        sign = -1 if between % 2 else 1
    else:
        sign = 1
    new = state + (dj - di) * base ** (i - 1) + (di - dj) * base ** (j - 1)
    return new, sign


def packed_rows(band: Sequence[int], cut: Sequence[int], width: int, op) -> int:
    """The transfer matrix of `_sparse_level_polynomial` with packed rows, reduced by `op`.

    Row t is one Python int whose `width`-bit slot E holds the configurations
    of the sites seen so far that end in spin t - n at scaled energy E.  The
    rows entered without a descent are a prefix of the rows and those entered
    through one are the matching suffix, shifted by the band entry's slots.
    `op` is + (slots count configurations; no slot may reach 2^width) or |
    (one-bit slots mark the energies that occur).
    """
    z = [1] * len(cut)
    for e in band:
        below = list(itertools.accumulate(z, op, initial=0))
        above = list(itertools.accumulate(reversed(z), op, initial=0))[::-1]
        shift = width * e
        z = [op(below[c], above[c] << shift) for c in cut]
    return functools.reduce(op, z)


def profile_weight(N: int, m: int, k: int) -> int:
    """Motifs on N sites (N - 1 slots) with k ones and no run of m ones, by profiles.

    A profile assigns j_i clusters of i+1 consecutive ones (i = 1..m-2, so
    clusters of size 2..m-1); the remaining ones are isolated.  Clusters and
    singletons are then placed among the zeros multinomially.
    """
    fact = [math.factorial(i) for i in range(N + 1)]
    total = 0

    def rec(i: int, used: int, weighted: int, denom: int) -> None:
        nonlocal total
        if i > m - 2:
            j0 = k - used
            t1 = N - 2 * k + weighted
            if j0 >= 0 and t1 >= 0:
                total += fact[N - k] // (fact[t1] * fact[j0] * denom)
            return
        for j in range((k - used) // (i + 1) + 1):
            rec(i + 1, used + (i + 1) * j, weighted + i * j, denom * fact[j])

    if 0 <= k <= N:
        rec(1, 0, 0, 1)
    return total


@functools.lru_cache(maxsize=None)
def _mu(r: int) -> int:
    # mu_r = 2 mu_{r-1} + mu_{r-2} - mu_{r-3}, mu_0 = 1 and mu_r = 0 for r < 0
    if r < 0:
        return 0
    if r == 0:
        return 1
    return 2 * _mu(r - 1) + _mu(r - 2) - _mu(r - 3)


def su2_half_count(N: int) -> int:
    """Distinct halves of the two-state bosonic motifs on N sites, closed form."""
    r = N // 2
    return _mu(r) if N % 2 else _mu(r) - _mu(r - 2)


def su2_half_count_series(r_max: int) -> tuple[list[int], list[int]]:
    """Two-state half counts by half length r = 1..r_max: (N = 2r + 1, N = 2r)."""
    rs = range(1, r_max + 1)
    return [su2_half_count(2 * r + 1) for r in rs], [su2_half_count(2 * r) for r in rs]


def dumped_terms(qp: QPolynomial) -> bytes:
    """The `partition.dump_terms` byte layout, one record at a time."""
    items = qp.sorted_terms()
    out = bytearray(struct.pack("<4sBQQ", b"MSQP", 1, len(items), qp.scale))
    for e, c in items:
        el = (e.bit_length() + 8) // 8  # room for the sign bit: 0 takes one byte
        cl = (c.bit_length() + 7) // 8  # coefficients are positive
        out += struct.pack("<I", el) + e.to_bytes(el, "little", signed=True)
        out += struct.pack("<I", cl) + c.to_bytes(cl, "little")
    return bytes(out)


def emitted_by_row(args, columns: list[str], rows: list[tuple]) -> None:
    """Write a CLI table as `cli._emit` does, one print per CSV row."""
    cfg = cli._config(args)
    if args.format == "json":
        payload = {
            "meta": {"tool": "motifspectra", "version": __version__, "config": cfg},
            "rows": [{c: cli._jsonable(v) for c, v in zip(columns, row)} for row in rows],
        }
        json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ": "), allow_nan=False)
        sys.stdout.write("\n")
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(cli._cell(v) for v in row))
        print("config: " + json.dumps(cfg, sort_keys=True), file=sys.stderr)


def fiber_rows(N: int, m: int, n: int) -> list[tuple[str, int]]:
    """`tableau --sites` rows: each motif's bits, one by one, and its fiber dimension."""
    table = fiber_table(N, m, n)
    return [("".join(map(str, _bits(Motif(w, N)))), table[w]) for w in sorted(table)]
