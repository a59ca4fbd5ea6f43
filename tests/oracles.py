"""Brute-force oracles that only the tests use.

Each one recomputes, by enumeration or element by element, what a fast path
in `motifspectra` computes another way:

* `enumerated_partition` assembles the level polynomial term by term from
  motif energies and fiber dimensions, against the transfer-matrix kernel.
  Its fiber dimensions come from the same kernel over a binary band, so the
  descent rule itself is checked independently by the tests' count of spin
  configurations;
* `level_count_by_enumeration` counts the distinct exact energies over every
  valid motif word, against `spectrum.level_count`;
* `graded_permutation` applies one graded transposition to one basis state,
  against the vectorized Hamiltonian assembly;
* `packed_rows` runs the packed transfer loop with full prefix and suffix
  sums, every one started from 0, against `spectrum._packed_rows`, which
  skips the passes whose result it already holds;
* `profile_weight` sums the paper's multinomials over cluster-size profiles,
  against the run-length automaton of `anyon.motif_weights`;
* `su2_half_count` and `su2_half_count_series` evaluate the paper's
  third-order recursion for two-state half counts, against the folded
  automaton of `motif.count_half`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from motifspectra import motif as _motif
from motifspectra import spectrum, tableau
from motifspectra.motif import Motif
from motifspectra.partition import QPolynomial
from motifspectra.spectrum import FIDispersion, SymbolicAlphaDispersion


def enumerated_partition(N: int, m: int, n: int, disp) -> QPolynomial:
    """Oracle assembly: sum of dim(V) q^E over the valid motifs.

    Works for any exact dispersion; float tables have no exact exponents and
    are rejected.
    """
    if not disp.exact:
        raise TypeError("enumerated_partition needs an exact dispersion")
    if disp.sites != N:
        raise ValueError(f"dispersion is for {disp.sites} sites, not {N}")
    scale = disp.alpha.denominator if isinstance(disp, spectrum.FIDispersion) else 1
    terms: dict = {}
    for word, dim in tableau._fiber_cache(N, m, n).items():
        e = spectrum.energy(Motif(word, N), disp)
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
    return QPolynomial(terms, scale)


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
