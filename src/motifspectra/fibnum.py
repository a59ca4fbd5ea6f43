"""Generalized Fibonacci numbers, characteristic roots, degeneracy formulas.

The order-m sequence starts with m-1 zeros and a single 1, after which each
term is the sum of its m predecessors.  Counts of run-constrained motifs are
shifted copies of these sequences, so the minimum average degeneracy of an
N-site chain with m local states is m^N over an m-nacci number; its large-N
behaviour is controlled by the dominant root of x^m - x^{m-1} - ... - 1,
found by one Newton run and pinned to the double of smallest exact residual.

The translation-invariant refinement divides by the distinct motif halves
instead, exact at every order; its asymptotics for two bosonic states follow
their own cubic characteristic polynomial, whose root and prefactors
`su2_translational_constants` holds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import motif as _motif

__all__ = [
    "RootData",
    "TranslationalConstants",
    "fib",
    "fib_table",
    "dominant_root",
    "characteristic_roots",
    "min_avg_degeneracy",
    "min_avg_degeneracy_translational",
    "min_avg_degeneracy_asymptotic",
    "min_avg_degeneracy_translational_asymptotic",
    "su2_translational_constants",
]


def fib_table(m: int, n_max: int) -> list[int]:
    """Order-m generalized Fibonacci numbers F_0..F_{n_max}."""
    if m < 2:
        raise ValueError(f"need order m >= 2, got {m}")
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    vals = [0] * (m - 1) + [1]
    while len(vals) <= n_max:
        vals.append(sum(vals[-m:]))
    return vals[: n_max + 1]


def fib(m: int, n: int) -> int:
    return fib_table(m, n)[n]


def _exact_p(m: int, x: float) -> Fraction:
    """x^m - x^(m-1) - ... - x - 1 at the double x, exactly, by Horner over num / den."""
    num, den = x.as_integer_ratio()
    acc = scale = 1
    for _ in range(m):
        scale *= den
        acc = acc * num - scale
    return Fraction(acc, scale)


def dominant_root(m: int) -> float:
    """Largest real root of x^m - x^(m-1) - ... - 1: the double of smallest exact |p|.

    Newton on (x - 1) p(x) = x^(m+1) - 2x^m + 1 from x = 2: on [lambda, 2]
    that function is increasing and convex, so the iterates fall until
    round-off stops them.  Both sides of the step are divided by x^(m-1),
    which overflows no double.  From the last iterate, steps of one double
    towards smaller exact |p| end at the double with the smallest |p| of
    all, and p must change sign across it.
    """
    if m < 2:
        raise ValueError(f"need order m >= 2, got {m}")
    x = 2.0
    while (nxt := x - (x * (x - 2) + x ** (1 - m)) / ((m + 1) * x - 2 * m)) < x:
        x = nxt
    while True:
        down, up = math.nextafter(x, 0.0), math.nextafter(x, 4.0)
        best = min((x, down, up), key=lambda y: abs(_exact_p(m, y)))
        if best == x:
            break
        x = best
    if not _exact_p(m, down) < 0 < _exact_p(m, up):
        raise AssertionError(f"p of order {m} does not change sign across {x!r}")
    return x


@dataclass(frozen=True)
class RootData:
    """Characteristic-root summary for one sequence order."""

    dominant: float
    gamma: float  # prefactor of the minimum-average-degeneracy asymptotics
    coefficient: float  # leading coefficient of the m-nacci growth
    kappa: float  # decay exponent from the subdominant root moduli
    roots: tuple[complex, ...]  # all roots, dominant last


@functools.lru_cache(maxsize=None)
def characteristic_roots(m: int) -> RootData:
    lam = dominant_root(m)
    gamma = m + 1 - (m - 1) / (lam - 1)
    coeff = lam ** (1 - m) / gamma
    # the subdominant roots: every root of x^m - x^(m-1) - ... - 1 but the one nearest lambda
    roots = [complex(z) for z in np.roots([1.0] + [-1.0] * m)]
    roots.pop(min(range(m), key=lambda k: abs(roots[k] - lam)))
    kappa = -math.log(min(abs(z) for z in roots))
    return RootData(lam, gamma, coeff, kappa, (*roots, complex(lam)))


def min_avg_degeneracy(N: int, m: int, n: int) -> Fraction:
    """(m+n)^N over the motif count: every chain has a level this degenerate."""
    return Fraction((m + n) ** N, _motif.count(N, m, n))


def min_avg_degeneracy_translational(N: int, m: int, n: int) -> Fraction:
    """(m+n)^N over the distinct-half count, for translation-covariant spectra."""
    return Fraction((m + n) ** N, _motif.count_half(N, m, n))


def min_avg_degeneracy_asymptotic(N: int, m: int) -> float:
    """Large-N form gamma_m (m / dominant)^N of min_avg_degeneracy(N, m, 0)."""
    data = characteristic_roots(m)
    return data.gamma * (m / data.dominant) ** N


@dataclass(frozen=True)
class TranslationalConstants:
    """Constants of the two-state translation-invariant half count asymptotics."""

    root: float  # dominant root of x^3 - 2x^2 - x + 1
    odd_coeff: float
    even_coeff: float


@functools.lru_cache(maxsize=1)
def su2_translational_constants() -> TranslationalConstants:
    phi = math.atan(3 * math.sqrt(3)) / 3
    c = math.sqrt(7) * math.cos(phi)
    denom = 21 * (1 + 2 * math.cos(2 * phi))
    return TranslationalConstants(
        root=(2 / 3) * (1 + c),
        odd_coeff=4 * (1 + c) ** 2 / denom,
        even_coeff=(4 * (1 + c) ** 2 - 9) / denom,
    )


def min_avg_degeneracy_translational_asymptotic(N: int) -> float:
    """Large-N form of min_avg_degeneracy_translational(N, 2, 0)."""
    tc = su2_translational_constants()
    prefactor = math.sqrt(tc.root) / tc.odd_coeff if N % 2 else 1 / tc.even_coeff
    return prefactor * (2 / math.sqrt(tc.root)) ** N
