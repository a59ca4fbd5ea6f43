"""Numerical oracle: exchange Hamiltonians, block spectra, formula comparison.

Chains are specified by their site couplings J_ij and act on the full
(m+n)^N product basis through graded transpositions: swapping two fermionic
spins picks up a minus sign, and swapping a bosonic with a fermionic spin
picks one up when an odd number of fermionic spins sits strictly between
them.  A transposition keeps how many sites hold each local state, so
H = sum_{i<j} J_ij (1 - S_ij) is block diagonal by occupation vector.  Each
block is assembled and diagonalized on its own, exactly, and the union of
the block spectra is what every closed-form level set is checked against.

The coupling kinds: trigonometric (hs), rational through oscillator nodes
(pf), hyperbolic through log-scaled Laguerre nodes (fi), and the elliptic
family interpolating between them (k^2 -> 0 degenerates to hs entrywise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import spectrum
from .motif import InfeasibleSizeError

__all__ = [
    "DIMENSION_CAP",
    "ChainSpec",
    "elliptic_K",
    "elliptic_E",
    "jacobi_sn",
    "hermite_zeros",
    "laguerre_zeros",
    "coupling_matrix",
    "coupling_table",
    "build_hamiltonian",
    "eigenvalues",
    "chain_eigenvalues",
    "cluster_levels",
    "formula_dispersion",
    "compare",
    "CompareReport",
    "numeric_average_degeneracy",
]

DIMENSION_CAP = 20000
# relative residual of the trace and Frobenius checks in eigenvalues
_INVARIANT_TOL = 1e-8
_KINDS = ("hs", "pf", "fi", "elliptic")


@dataclass(frozen=True)
class ChainSpec:
    """One diagonalizable chain: coupling kind, size and local context."""

    kind: str
    sites: int
    m: int
    n: int
    alpha: Fraction | None = None
    ksq: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {_KINDS}")
        if self.sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.sites}")
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError(f"bad context ({self.m}, {self.n})")
        if self.kind == "fi":
            object.__setattr__(self, "alpha", Fraction(self.alpha))
            if self.alpha <= 0:
                raise ValueError(f"need alpha > 0, got {self.alpha}")
        if self.kind == "elliptic":
            if self.ksq is None or not 0.0 <= self.ksq < 1.0:
                raise ValueError(f"need 0 <= ksq < 1, got {self.ksq}")


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus k, via the AGM."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"need 0 <= k < 1, got {k}")
    a, b = 1.0, math.sqrt(1.0 - k * k)
    while abs(a - b) > 1e-15 * a:
        a, b = (a + b) / 2, math.sqrt(a * b)
    return math.pi / (2 * a)


def elliptic_E(k: float) -> float:
    """Complete elliptic integral of the second kind, modulus k, via the AGM."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"need 0 <= k < 1, got {k}")
    a, b, c = 1.0, math.sqrt(1.0 - k * k), k
    s = c * c / 2
    pw = 0.5
    for _ in range(60):
        if c == 0.0 or abs(c) < 1e-18 * a:
            break
        a, b, c = (a + b) / 2, math.sqrt(a * b), (a - b) / 2
        pw *= 2
        s += pw * c * c
    return math.pi / (2 * a) * (1 - s)


def jacobi_sn(u: float, k: float) -> float:
    """Jacobi sn(u, k) by the descending AGM/Landen phase recursion.

    The argument is reduced over the real period 4K first.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"need 0 <= k < 1, got {k}")
    if k == 0.0:
        return math.sin(u)
    period = 4 * elliptic_K(k)
    u = math.remainder(u, period)
    a_seq = [1.0]
    c_seq = [k]
    b = math.sqrt(1.0 - k * k)
    while c_seq[-1] > 1e-15 * a_seq[-1]:
        a, b, c = (a_seq[-1] + b) / 2, math.sqrt(a_seq[-1] * b), (a_seq[-1] - b) / 2
        a_seq.append(a)
        c_seq.append(c)
        if len(a_seq) > 60:
            break
    phi = 2 ** (len(a_seq) - 1) * a_seq[-1] * u
    for i in range(len(a_seq) - 1, 0, -1):
        s = max(-1.0, min(1.0, c_seq[i] / a_seq[i] * math.sin(phi)))
        phi = (phi + math.asin(s)) / 2
    return math.sin(phi)


def hermite_zeros(N: int) -> np.ndarray:
    """Zeros of the degree-N Hermite polynomial (physicists' convention).

    Eigenvalues of the symmetric tridiagonal recurrence matrix with
    off-diagonal sqrt(k/2) (Golub-Welsch).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if N == 1:
        return np.zeros(1)
    off = np.sqrt(np.arange(1, N) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def laguerre_zeros(N: int, a: float) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_N^(a), a > -1."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if a <= -1:
        raise ValueError(f"need a > -1, got {a}")
    diag = 2 * np.arange(N) + a + 1
    if N == 1:
        return diag.astype(float)
    k = np.arange(1, N)
    off = np.sqrt(k * (k + a))
    return np.linalg.eigvalsh(np.diag(diag.astype(float)) + np.diag(off, 1) + np.diag(off, -1))


def coupling_matrix(chain: ChainSpec) -> np.ndarray:
    """Symmetric J_ij matrix of the chain, zero diagonal."""
    N = chain.sites
    J = np.zeros((N, N))
    if chain.kind == "hs":
        for i in range(N):
            for j in range(i + 1, N):
                J[i, j] = 0.5 / math.sin(math.pi * (i - j) / N) ** 2
    elif chain.kind == "pf":
        xi = hermite_zeros(N)
        for i in range(N):
            for j in range(i + 1, N):
                J[i, j] = 1.0 / (xi[i] - xi[j]) ** 2
    elif chain.kind == "fi":
        zeta = 0.5 * np.log(laguerre_zeros(N, float(chain.alpha) - 1))
        for i in range(N):
            for j in range(i + 1, N):
                J[i, j] = 0.5 / math.sinh(zeta[i] - zeta[j]) ** 2
    else:
        k = math.sqrt(chain.ksq)
        bigk = elliptic_K(k)
        for i in range(N):
            for j in range(i + 1, N):
                J[i, j] = 0.5 / jacobi_sn(2 * (i - j) * bigk / N, k) ** 2
    return J + J.T


def coupling_table(chain: ChainSpec) -> list[float]:
    """Distance table h with h[l] = J_{i,i+l} for translation-invariant kinds."""
    if chain.kind not in ("hs", "elliptic"):
        raise ValueError(f"couplings of kind {chain.kind!r} are not translation invariant")
    J = coupling_matrix(chain)
    return [0.0] + [float(J[0, l]) for l in range(1, chain.sites)]


def _check_size(N: int, base: int) -> None:
    """Raise InfeasibleSizeError, before anything is allocated, when H would not fit.

    With budget = DIMENSION_CAP, the side of the one dense matrix the cap
    allows, two bounds hold, checked in this order so that the second needs
    only small integers once the first has passed:

    * steps: assembly makes one vectorized pass per site pair, N(N-1)/2, and
      diagonalization one eigensolve per sector, C(N + base - 1, N); together
      at most `budget`;
    * words: the basis arrays take at most 4N + 16 int64 words per state
      ((m+n)^N states), the couplings N^2, and the blocks one entry per pair
      of states with equal occupation, P_d(j) = sum_k C(j, k)^2 P_{d-1}(j - k)
      over the first d local states; together at most budget^2.  The words
      bound also keeps the largest block's side below `budget`.

    Checking and diagonalizing a block adds a few transient copies of that
    one block.
    """
    budget = DIMENSION_CAP
    pairs = N * (N - 1) // 2
    if pairs > budget or pairs + math.comb(N + base - 1, N) > budget:
        raise InfeasibleSizeError(f"more than {budget} site pairs and occupation sectors")
    words = budget**2
    basis = base**N * (4 * N + 16) + N * N
    if basis > words:
        raise InfeasibleSizeError(f"basis arrays take more than {words} words")
    entries = [1] * (N + 1)
    for _ in range(base - 1):
        entries = [sum(math.comb(j, k) ** 2 * entries[j - k] for k in range(j + 1)) for j in range(N + 1)]
    if basis + entries[N] > words:
        raise InfeasibleSizeError(f"basis arrays and occupation blocks take more than {words} words")


def build_hamiltonian(chain: ChainSpec) -> list[np.ndarray]:
    """Diagonal blocks of H = sum_{i<j} J_ij (1 - S_ij), one per occupation sector.

    Blocks are ordered by the smallest state of their sector, and the states
    of a block ascend.
    """
    base = chain.m + chain.n
    N = chain.sites
    _check_size(N, base)
    J = coupling_matrix(chain)
    dim = base**N
    idx = np.arange(dim, dtype=np.int64)
    digits = [(idx // base**p) % base for p in range(N)]
    # a sector's key is its smallest state, the one whose digits descend from site 1
    powers = base ** np.arange(N, dtype=np.int64)
    key = np.sort(np.stack(digits, axis=1), axis=1)[:, ::-1] @ powers
    order = np.argsort(key, kind="stable")
    _, start, size = np.unique(key[order], return_index=True, return_counts=True)
    sector = np.empty(dim, np.int64)
    sector[order] = np.repeat(np.arange(size.size), size)
    rank = np.empty(dim, np.int64)
    rank[order] = idx - np.repeat(start, size)
    # the blocks share one flat buffer; row[s] is where the row of state s starts
    offset = np.concatenate(([0], np.cumsum(size * size)[:-1]))
    row = offset[sector] + rank * size[sector]
    flat = np.zeros(int((size * size).sum()))
    flat[row + rank] = J[np.triu_indices(N, 1)].sum()
    if chain.n:
        ferm = [d < chain.n for d in digits]
        prefix = []
        run = np.zeros(dim, np.int64)
        for p in range(N):
            run = run + ferm[p]
            prefix.append(run)
    for i in range(N):
        for j in range(i + 1, N):
            Jij = J[i, j]
            di, dj = digits[i], digits[j]
            swapped = idx + (dj - di) * base**i + (di - dj) * base**j
            if chain.n == 0:
                sign = 1.0
            elif chain.m == 0:
                sign = -1.0
            else:
                fi, fj = ferm[i], ferm[j]
                between = prefix[j - 1] - prefix[i]
                neg = (fi & fj) | ((fi ^ fj) & ((between & 1) == 1))
                sign = np.where(neg, -1.0, 1.0)
            flat[row[swapped] + rank] -= Jij * sign
    blocks = [flat[o : o + k * k].reshape(k, k) for o, k in zip(offset, size)]
    for block in blocks:
        scale = max(1.0, float(np.abs(block).max()))
        skew = float(np.abs(block - block.T).max())
        if skew > 1e-12 * scale:
            raise AssertionError(f"assembled block not symmetric: |H - H^T| = {skew}")
    return blocks


def chain_eigenvalues(chain: ChainSpec) -> np.ndarray:
    """All eigenvalues of the chain's H, ascending: the union of its block spectra."""
    return np.sort(np.concatenate([eigenvalues(block) for block in build_hamiltonian(chain)]))


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Cross-checked against the exact similarity invariants: the eigenvalue sum
    must reproduce the trace and the sum of squares the Frobenius norm.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) * a.shape[0])
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    lam = np.linalg.eigvalsh(a)
    if abs(float(lam.sum()) - float(np.trace(a))) > _INVARIANT_TOL * scale:
        raise AssertionError("eigenvalue sum does not reproduce the trace")
    fro2 = float((a * a).sum())
    if abs(float(lam @ lam) - fro2) > _INVARIANT_TOL * max(1.0, scale**2):
        raise AssertionError("eigenvalue squares do not reproduce the Frobenius norm")
    return lam


def cluster_levels(values: np.ndarray) -> list[tuple[float, int]]:
    """Group eigenvalues into ascending (level, multiplicity) pairs.

    The round-off rule of `spectrum._merge_float_levels` decides which
    values are one level, and raises ValueError on a gap it cannot call.
    """
    return spectrum._merge_float_levels(values, np.ones(np.size(values), dtype=np.int64))


def formula_dispersion(chain: ChainSpec):
    """Closed-form dispersion whose motif level set matches the chain."""
    N = chain.sites
    if chain.kind == "hs":
        return spectrum.HSDispersion(N)
    if chain.kind == "pf":
        return spectrum.PFDispersion(N)
    if chain.kind == "fi":
        return spectrum.FIDispersion(N, chain.alpha)
    if (chain.m, chain.n) == (1, 1):
        return spectrum.dispersion_from_coupling(coupling_table(chain))
    raise ValueError("elliptic couplings have a closed dispersion only for (m, n) = (1, 1)")


@dataclass(frozen=True)
class CompareReport:
    matched: bool
    max_energy_error: float
    degeneracies_match: bool
    levels_numeric: tuple[tuple[float, int], ...]
    levels_formula: tuple[tuple[float, int], ...]
    mismatch: str | None = None


def compare(chain: ChainSpec, disp=None) -> CompareReport:
    """Diagonalize the chain and match its levels against the motif formula.

    Energies agree when they differ by at most the round-off width that
    clusters the eigenvalues.
    """
    if disp is None:
        disp = formula_dispersion(chain)
    eigs = chain_eigenvalues(chain)
    numeric = tuple(cluster_levels(eigs))
    formula = tuple((float(e), d) for e, d in spectrum.level_set(chain.sites, chain.m, chain.n, disp))
    if len(numeric) != len(formula):
        mismatch = f"level count {len(numeric)} != {len(formula)}"
        return CompareReport(False, math.inf, False, numeric, formula, mismatch)
    pairs = list(zip(numeric, formula))
    max_err = max(abs(en - ef) for (en, _), (ef, _) in pairs)
    thresh = spectrum._level_width(eigs)
    wrong = [f"degeneracy {dn} != {df} at level {ef}" for (_, dn), (ef, df) in pairs if dn != df]
    if max_err > thresh:
        wrong.append(f"max energy error {max_err} above {thresh}")
    deg_ok = all(dn == df for (_, dn), (_, df) in pairs)
    return CompareReport(not wrong, max_err, deg_ok, numeric, formula, wrong[0] if wrong else None)


def numeric_average_degeneracy(chain: ChainSpec) -> Fraction:
    """(m+n)^N over the number of distinct numerical levels."""
    count = len(cluster_levels(chain_eigenvalues(chain)))
    return Fraction((chain.m + chain.n) ** chain.sites, count)
