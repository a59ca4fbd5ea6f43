"""Statistical weights of motif excitations and exclusion-statistics fits.

The number of motifs of N sites (N-1 slots) with exactly k ones, under the
constraint that no m consecutive ones appear, is a combinatorial weight
w_k(N).  All weights of one N come from one run of the run-length automaton
over the slots, each of its m states holding a polynomial in the number of
ones.  Summed over k they reproduce the generalized Fibonacci count and the
paper's single sum over cluster profiles, and for large N they behave like
an ideal gas of particles with a fractional exclusion statistics parameter
that the fit below extracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fibnum import fib

__all__ = [
    "IdentityError",
    "WeightTable",
    "motif_weights",
    "verify_identities",
    "FitResult",
    "statistics_fit",
]


class IdentityError(AssertionError):
    """A combinatorial identity that must hold exactly failed to."""


@dataclass(frozen=True)
class WeightTable:
    """Counts of valid motifs by number of ones, for one (sites, order)."""

    weights: tuple[int, ...]

    def total(self) -> int:
        return sum(self.weights)


def _weight_polynomial(length: int, m: int, kmax: int) -> list[int]:
    """Words of `length` bits with no run of m ones, counted by ones up to kmax.

    The run-length automaton: state r is the length of the word's trailing
    run of ones, 0..m-1, and holds the polynomial, coefficient k counting
    the words with k ones that end in that state.  A 0 sends every state to
    state 0; a 1 moves state r to r + 1 and raises the degree by one.
    """
    runs = [[1] + [0] * kmax] + [[0] * (kmax + 1) for _ in range(m - 1)]
    for _ in range(length):
        runs = [[sum(c) for c in zip(*runs)]] + [[0] + p[:-1] for p in runs[:-1]]
    return [sum(c) for c in zip(*runs)]


def motif_weights(N: int, m: int) -> WeightTable:
    """Weights w_k = number of valid motifs on N sites with k ones, order m.

    Motifs here have N - 1 slots; validity forbids m consecutive ones.  The
    weights are the run-length automaton's polynomial; for m = 2 each weight
    is the binomial C(N - k, k).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    weights = _weight_polynomial(N - 1, m, (m - 1) * N // m)
    while len(weights) > 1 and weights[-1] == 0:
        weights.pop()
    return WeightTable(tuple(weights))


def _diagonal_total(N: int, m: int, fact: list[int]) -> int:
    """Total motif count as a single sum over cluster profiles of all sizes."""
    total = 0

    def rec(i: int, slots: int, ones: int, denom: int) -> None:
        nonlocal total
        if i > m - 1:
            total += fact[N - ones] // (fact[N - slots] * denom)
            return
        j = 0
        while slots + (i + 1) * j <= N:
            rec(i + 1, slots + (i + 1) * j, ones + i * j, denom * fact[j])
            j += 1

    rec(1, 0, 0, 1)
    return total


def verify_identities(m: int, N: int) -> dict[str, int]:
    """Check that the weight table satisfies its two exact sum rules.

    The weights must total both the diagonal single-sum form and the
    generalized Fibonacci number counting all valid motifs.  Raises
    IdentityError on any mismatch; returns the common totals.
    """
    table = motif_weights(N, m)
    total = table.total()
    fact = [math.factorial(i) for i in range(N + 1)]
    diagonal = _diagonal_total(N, m, fact)
    fibonacci = fib(m, N + m - 1)
    if total != diagonal:
        raise IdentityError(f"weight total {total} != diagonal form {diagonal} at m={m}, N={N}")
    if total != fibonacci:
        raise IdentityError(f"weight total {total} != fibonacci {fibonacci} at m={m}, N={N}")
    return {"total": total, "diagonal": diagonal, "fibonacci": fibonacci}


@dataclass(frozen=True)
class FitResult:
    """Exclusion-statistics estimate from two orbital counts."""

    samples: tuple[tuple[int, Fraction], ...]
    g_infinity: Fraction
    g: Fraction


def statistics_fit(m: int, k: int, orbital_counts: tuple[int, int]) -> FitResult:
    """Fit the statistics parameter from the k-one weights at two sizes.

    For each orbital count the deviation of the weight from the free value
    orbitals^k / k! is reduced to G = (orbitals / (k (k - 1))) times
    (k! w_k / orbitals^k - 1); a two-point Richardson extrapolation in
    1/orbitals gives the limit, and g = 1/2 - G_infinity.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    n1, n2 = orbital_counts
    if n1 == n2 or n1 < 2 * k or n2 < 2 * k:
        raise ValueError(f"need two distinct orbital counts >= {2 * k}, got {orbital_counts}")
    samples = []
    for orbitals in (n1, n2):
        w = _weight_polynomial(orbitals, m, k)[k]
        ratio = Fraction(math.factorial(k) * w, orbitals**k)
        G = Fraction(orbitals, k * (k - 1)) * (ratio - 1)
        samples.append((orbitals, G))
    (a1, g1), (a2, g2) = samples
    g_inf = Fraction(a2 * g2 - a1 * g1, a2 - a1)
    return FitResult(tuple(samples), g_inf, Fraction(1, 2) - g_inf)
