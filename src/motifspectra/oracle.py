"""Numerical oracle: exchange Hamiltonians, block spectra, formula comparison.

Chains are specified by their site couplings J_ij and act on the full
(m+n)^N product basis through graded transpositions: swapping two fermionic
spins picks up a minus sign, and swapping a bosonic with a fermionic spin
picks one up when an odd number of fermionic spins sits strictly between
them.  A transposition keeps how many sites hold each local state, so
H = sum_{i<j} J_ij (1 - S_ij) is block diagonal by occupation vector.  hs and
elliptic couplings depend only on i - j mod N, so the graded cyclic shift
commutes with H as well and splits every occupation sector into momentum
blocks.  Each occupation × momentum block is assembled and diagonalized on
its own, and the union of the block spectra is what every closed-form level
set is checked against.

The coupling kinds: trigonometric (hs), rational through oscillator nodes
(pf), hyperbolic through log-scaled Laguerre nodes (fi), and the elliptic
family interpolating between them (k^2 -> 0 degenerates to hs entrywise).
Each kind is one pair function J(i, j) filled over the pairs i < j.  The
elliptic functions K, E and sn read one AGM sequence, `_agm`, with one
stopping rule; the quadrature nodes are eigenvalues of one tridiagonal
recurrence matrix at every N.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fibnum, spectrum
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


_AGM_STEPS = 60  # the AGM takes at most 9 steps for any double 0 <= k < 1


def _agm(k: float) -> tuple[list[float], list[float]]:
    """The AGM of 1 and sqrt(1 - k^2): the a_n and c_n = (a_{n-1} - b_{n-1})/2, c_0 = k.

    Runs until c_N <= 1e-15 a_N, and raises past `_AGM_STEPS` steps.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"need 0 <= k < 1, got {k}")
    a, b, c = [1.0], math.sqrt(1.0 - k * k), [k]
    while c[-1] > 1e-15 * a[-1]:
        if len(a) > _AGM_STEPS:
            raise AssertionError(f"AGM of modulus {k!r} did not converge in {_AGM_STEPS} steps")
        a.append((a[-1] + b) / 2)
        c.append((a[-2] - b) / 2)
        b = math.sqrt(a[-2] * b)
    return a, c


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus k: pi / (2 a_N)."""
    a, _ = _agm(k)
    return math.pi / (2 * a[-1])


def elliptic_E(k: float) -> float:
    """Complete elliptic integral of the second kind, modulus k: K (1 - sum 2^(n-1) c_n^2)."""
    a, c = _agm(k)
    return math.pi / (2 * a[-1]) * (1 - math.fsum(2.0 ** (i - 1) * x * x for i, x in enumerate(c)))


def jacobi_sn(u: float, k: float) -> float:
    """Jacobi sn(u, k) by the descending Landen phase recursion over the AGM.

    The argument is reduced over the real period 4K = 2 pi / a_N first.
    """
    a, c = _agm(k)
    u = math.remainder(u, 2 * math.pi / a[-1])
    phi = 2 ** (len(a) - 1) * a[-1] * u
    for i in range(len(a) - 1, 0, -1):
        phi = (phi + math.asin(max(-1.0, min(1.0, c[i] / a[i] * math.sin(phi))))) / 2
    return math.sin(phi)


def hermite_zeros(N: int) -> np.ndarray:
    """Zeros of the degree-N Hermite polynomial (physicists' convention).

    Eigenvalues of the symmetric tridiagonal recurrence matrix with
    off-diagonal sqrt(k/2) (Golub-Welsch).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    off = np.sqrt(np.arange(1, N) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def laguerre_zeros(N: int, a: float) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_N^(a), a > -1."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if a <= -1:
        raise ValueError(f"need a > -1, got {a}")
    diag = 2 * np.arange(N) + a + 1
    k = np.arange(1, N)
    off = np.sqrt(k * (k + a))
    return np.linalg.eigvalsh(np.diag(diag.astype(float)) + np.diag(off, 1) + np.diag(off, -1))


def coupling_matrix(chain: ChainSpec) -> np.ndarray:
    """Symmetric J_ij matrix of the chain, zero diagonal."""
    N = chain.sites
    if chain.kind == "hs":
        pair = lambda i, j: 0.5 / math.sin(math.pi * (i - j) / N) ** 2
    elif chain.kind == "pf":
        xi = hermite_zeros(N)
        pair = lambda i, j: 1.0 / (xi[i] - xi[j]) ** 2
    elif chain.kind == "fi":
        zeta = 0.5 * np.log(laguerre_zeros(N, float(chain.alpha) - 1))
        pair = lambda i, j: 0.5 / math.sinh(zeta[i] - zeta[j]) ** 2
    else:
        k = math.sqrt(chain.ksq)
        bigk = elliptic_K(k)
        pair = lambda i, j: 0.5 / jacobi_sn(2 * (i - j) * bigk / N, k) ** 2
    J = np.zeros((N, N))
    for i, j in itertools.combinations(range(N), 2):
        J[i, j] = pair(i, j)
    return J + J.T


def coupling_table(chain: ChainSpec) -> list[float]:
    """Distance table h with h[l] = J_{i,i+l} for translation-invariant kinds."""
    if chain.kind not in ("hs", "elliptic"):
        raise ValueError(f"couplings of kind {chain.kind!r} are not translation invariant")
    J = coupling_matrix(chain)
    return [0.0] + [float(J[0, l]) for l in range(1, chain.sites)]


def _check_size(N: int, base: int, G: int) -> None:
    """Raise InfeasibleSizeError, before anything is allocated, when H would not fit.

    With budget = DIMENSION_CAP, the side of the one dense matrix the cap
    allows, and G the order of the shift group, two bounds hold, checked in
    this order so that the second needs only small integers once the first
    has passed:

    * steps: assembly makes one vectorized pass per site pair, N(N-1)/2, and
      diagonalization one eigensolve per (occupation sector, momentum q <= G/2)
      block, at most C(N + base - 1, N) (G//2 + 1); together at most `budget`;
    * words: the orbit sweep, which holds all G shifts of every state at
      once, takes at most 3G + N + 12 int64 words per state ((m+n)^N
      states), the representatives 5N + 16 words each (R orbits in
      all), the block layouts and one site pair's matrix elements 16 words
      per representative and momentum, R (G//2 + 1), and the couplings N^2;
      the blocks at most G O_s^2 words per sector s with O_s orbits, since a
      block of one q has at most O_s rows and the q <= G/2 blocks, complex
      ones counting twice, number G; together at most budget^2.  O_s comes
      from Burnside's lemma: T^k fixes the states that repeat with period
      gcd(k, N).  The words bound also keeps the largest block's side below
      `budget`.

    Checking and diagonalizing a block adds a few transient copies of that
    one block.
    """
    budget = DIMENSION_CAP
    pairs = N * (N - 1) // 2
    if pairs > budget or pairs + math.comb(N + base - 1, N) * (G // 2 + 1) > budget:
        raise InfeasibleSizeError(f"more than {budget} site pairs and blocks over occupation sectors and momenta")
    shifts = Counter(math.gcd(k, N) for k in range(G))
    orbits = blocks = 0
    for sector in itertools.combinations_with_replacement(range(base), N):
        counts = Counter(sector).values()
        fixed = sum(
            t * math.factorial(g) // math.prod(math.factorial(c * g // N) for c in counts)
            for g, t in shifts.items()
            if all(c * g % N == 0 for c in counts)
        )
        orbits += fixed // G
        blocks += G * (fixed // G) ** 2
    words = budget**2
    arrays = base**N * (3 * G + N + 12) + orbits * (5 * N + 16) + orbits * (G // 2 + 1) * 16 + N * N
    if arrays > words:
        raise InfeasibleSizeError(f"state and orbit arrays take more than {words} words")
    if arrays + blocks > words:
        raise InfeasibleSizeError(f"arrays and blocks take more than {words} words")


def _orbits(base: int, N: int, n: int, G: int) -> tuple[np.ndarray, ...]:
    """Every state's orbit under the graded cyclic shift T and its first G - 1 powers.

    T moves digit N-1 to digit 0 and every other digit up by one.  It picks
    up a minus sign exactly when the moved spin is fermionic (digit < n) and
    the state's fermion count is even, the sign of carrying that spin past
    the other fermions, so T^N = 1.  Returns per state `rep`, the smallest
    state of its orbit, `back` and `sign` with T^back |s> = sign |rep>, and
    `period` and `chi` with T^period |s> = chi |s>.  G = 1 gives every
    state its own orbit.
    """
    idx = np.arange(base**N, dtype=np.int64)
    k = np.arange(G, dtype=np.int64)[:, None]
    cut = base ** (N - k)
    image = idx % cut * base**k + idx // cut
    # T^k carries the top k digits past the others: -1 when they hold an odd
    # number of fermions and the state an even number
    flips = np.zeros(image.shape, bool)
    if n and G > 1:
        fermions = (idx // base ** np.arange(N - 1, -1, -1, dtype=np.int64)[:, None]) % base < n
        top = np.cumsum(fermions[: G - 1], axis=0) % 2 == 1
        flips[1:] = top & (fermions.sum(axis=0) % 2 == 0)
    back = image.argmin(axis=0)
    rep = np.take_along_axis(image, back[None], axis=0)[0]
    # the first k >= 1 with T^k |s> = +-|s>; T^G = 1
    home = np.concatenate((image[1:] == idx, np.ones((1, idx.size), bool)))
    period = home.argmax(axis=0) + 1
    sign = np.where(np.take_along_axis(flips, back[None], axis=0)[0], -1.0, 1.0)
    chi = np.where(np.take_along_axis(flips, period[None] % G, axis=0)[0], -1, 1)
    return rep, back, sign, period, chi


def build_hamiltonian(chain: ChainSpec) -> list[np.ndarray]:
    """Diagonal blocks of H = sum_{i<j} J_ij (1 - S_ij), one per occupation sector and momentum.

    T is the graded cyclic shift (`_orbits`), of order G = N for hs and
    elliptic chains and G = 1 for pf and fi chains.  Block (sector, q) acts
    on |r, q> = p^(-1/2) sum_{a<p} e^(-2 pi i q a / G) T^a |r> over the
    orbits of the sector: r is the smallest state of its orbit, p its period
    and T^p |r> = chi |r>; the orbit carries q iff e^(-2 pi i q p / G) chi = 1,
    and T |r, q> = e^(2 pi i q / G) |r, q>.
    A graded swap S_ij |r> = (graded sign) |s>, with T^d |s> = sigma |r'>,
    adds -J_ij (graded sign) sigma e^(-2 pi i q d / G) sqrt(p_r / p_r') at
    (r', r).

    Only q <= G/2 is built: the block of G - q is the complex conjugate of
    the block of q.  Blocks at q = 0 and q = G/2 are real symmetric; the
    others are complex Hermitian and each stands also for its conjugate.
    Blocks are ordered by q, then by the smallest state of their sector, and
    their representatives ascend; empty blocks are left out.  pf and fi
    chains (G = 1) get one real block per occupation sector.
    """
    m, n, N = chain.m, chain.n, chain.sites
    # hs and elliptic couplings depend only on i - j mod N; pf and fi chains
    # have the trivial group
    base, G = m + n, (N if chain.kind in ("hs", "elliptic") else 1)
    _check_size(N, base, G)
    J = coupling_matrix(chain)
    rep, back, sign, period, chi = _orbits(base, N, n, G)
    reps = np.flatnonzero(rep == np.arange(rep.size))
    powers = base ** np.arange(N, dtype=np.int64)
    digits = reps[:, None] // powers % base
    # a sector's key is its smallest state, the one whose digits descend from site 1
    key = np.sort(digits, axis=1)[:, ::-1] @ powers
    order = np.argsort(key, kind="stable")
    reps, digits = reps[order], digits[order]
    _, start, count = np.unique(key[order], return_index=True, return_counts=True)
    sector = np.repeat(np.arange(start.size), count)
    where = np.empty(rep.size, np.int64)
    where[reps] = np.arange(reps.size)
    where = where[rep]
    period, negative = period[reps], chi[reps] < 0
    # the real blocks (q = 0 and G/2) share one buffer, the complex ones another;
    # each momentum's blocks follow one another in order of their sector
    layouts, by_q = [], {}
    for real in (True, False):
        qs = [q for q in range(G // 2 + 1) if (2 * q % G == 0) == real]
        if not qs:
            continue
        momenta = np.array(qs)[:, None]
        allowed = (2 * momenta * period + G * negative) % (2 * G) == 0
        size = np.add.reduceat(allowed, start, axis=1, dtype=np.int64)
        before = np.cumsum(allowed, axis=1) - allowed
        local = before - before[:, start][:, sector]
        area = size * size
        offset = np.cumsum(area).reshape(area.shape) - area
        head = offset[:, sector] + local * size[:, sector]
        angle = (2 * np.pi / G) * (momenta * np.arange(G) % G)
        phase = np.cos(angle) if real else np.exp(-1j * angle)
        flat = np.zeros(int(area.sum()), float if real else complex)
        flat[(head + local)[allowed]] = J[np.triu_indices(N, 1)].sum()
        layouts.append((allowed, allowed.all(), head, local, phase, flat))
        for k, q in enumerate(qs):
            by_q[q] = [flat[o : o + z * z].reshape(z, z) for o, z in zip(offset[k], size[k]) if z]
    blocks = [block for q in sorted(by_q) for block in by_q[q]]
    # one vectorized pass per site pair adds its elements to every block
    digits = digits.T.copy()
    if n and m:
        ferm = digits < n
        prefix = np.cumsum(ferm, axis=0)
    root = np.sqrt(period)
    for i, j in itertools.combinations(range(N), 2):
        di, dj = digits[i], digits[j]
        swapped = reps + (dj - di) * powers[i] + (di - dj) * powers[j]
        if n == 0:
            graded = 1.0
        elif m == 0:
            graded = -1.0
        else:
            fi, fj = ferm[i], ferm[j]
            between = prefix[j - 1] - prefix[i]
            neg = (fi & fj) | ((fi ^ fj) & ((between & 1) == 1))
            graded = np.where(neg, -1.0, 1.0)
        row = where[swapped]
        w = -J[i, j] * graded
        if G > 1:
            w = w * sign[swapped] * root / root[row]
            d = back[swapped]
        for allowed, everywhere, head, local, phase, flat in layouts:
            at = np.take(head, row, axis=1)
            at += local
            # with G = 1 every phase is 1 and every orbit carries q = 0
            v = w * phase[:, d] if G > 1 else w
            if not everywhere:
                keep = allowed[:, row] & allowed
                at, v = at[keep], v[keep]
            # positions (row[r], r) of one pair and momentum are distinct
            flat[at] += v
    return blocks


def chain_eigenvalues(chain: ChainSpec) -> np.ndarray:
    """All eigenvalues of the chain's H, ascending: the union of its block spectra.

    A complex block's spectrum counts twice, once for its conjugate block.
    """
    parts = []
    for block in build_hamiltonian(chain):
        lam = eigenvalues(block)
        parts += [lam, lam] if np.iscomplexobj(block) else [lam]
    return np.sort(np.concatenate(parts))


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric or complex Hermitian matrix, ascending.

    Cross-checked against the exact similarity invariants: the eigenvalue sum
    must reproduce the (real) trace and the sum of squares the Frobenius
    norm sum |a_ij|^2.
    """
    a = np.asarray(a) if np.iscomplexobj(a) else np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    top = float(np.abs(a).max())
    # refused before the Hermitian check, whose inf - inf would warn
    if not math.isfinite(top):
        raise ValueError("matrix is not finite")
    # each check is written so that a nan fails it
    if not float(np.abs(a - a.conj().T).max()) <= 1e-12 * max(1.0, top):
        raise ValueError("matrix is not Hermitian")
    scale = max(1.0, top * a.shape[0])
    lam = np.linalg.eigvalsh(a)
    if not abs(float(lam.sum()) - float(np.trace(a).real)) <= _INVARIANT_TOL * scale:
        raise AssertionError("eigenvalue sum does not reproduce the trace")
    fro2 = float((a * a.conj()).real.sum())
    if not abs(float(lam @ lam) - fro2) <= _INVARIANT_TOL * max(1.0, scale**2):
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
    clusters the eigenvalues.  An elliptic chain other than su(1|1) has no
    formula level set: given no `disp`, it is checked against the motif
    floor instead, and matches when its numerical average degeneracy lies
    strictly below `fibnum.min_avg_degeneracy`, the split multiplets of a
    chain without Yangian symmetry.  Such a report has no formula levels, a
    nan energy error and no matched degeneracies.
    """
    eigs = chain_eigenvalues(chain)
    numeric = tuple(cluster_levels(eigs))
    if disp is None and chain.kind == "elliptic" and (chain.m, chain.n) != (1, 1):
        N, m, n = chain.sites, chain.m, chain.n
        avg, floor = Fraction((m + n) ** N, len(numeric)), fibnum.min_avg_degeneracy(N, m, n)
        mismatch = None
        if not avg < floor:
            mismatch = f"average degeneracy {float(avg):.6g} not below the motif floor {float(floor):.6g}"
        return CompareReport(mismatch is None, math.nan, False, numeric, (), mismatch)
    if disp is None:
        disp = formula_dispersion(chain)
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
