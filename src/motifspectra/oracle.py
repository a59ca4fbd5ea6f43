"""Numerical oracle: exchange Hamiltonians, block spectra, formula comparison.

Chains are specified by their site couplings J_ij and act on the full
(m+n)^N product basis through graded transpositions: swapping two fermionic
spins picks up a minus sign, and swapping a bosonic with a fermionic spin
picks one up when an odd number of fermionic spins sits strictly between
them.  A transposition keeps how many sites hold each local state, so
H = sum_{i<j} J_ij (1 - S_ij) is block diagonal by occupation vector.  hs and
elliptic couplings depend only on i - j mod N, so the graded cyclic shift
commutes with H as well and splits every occupation sector into momentum
blocks.  Relabeling the local states within the bosons, or within the
fermions, keeps every graded sign, so sectors that are relabelings of each
other share their spectrum, momentum by momentum: one sector per
relabeling orbit is built.  Its occupation × momentum blocks are assembled
together, one vectorized pass per chunk of site pairs, and blocks of equal
side and dtype are diagonalized together in checked stacks.  Each block's
spectrum, repeated once per sector and conjugate momentum it stands for,
joins the union of the block spectra that every closed-form level set is
checked against.  Counting the distinct levels of an su(m|0) chain needs
only the most balanced sector.

The coupling kinds: trigonometric (hs), rational through oscillator nodes
(pf), hyperbolic through log-scaled Laguerre nodes (fi), and the elliptic
family interpolating between them (k^2 -> 0 degenerates to hs entrywise).
Each kind is one pair function J(i, j), filled over the pairs i < j, or for
hs and elliptic chains over the N - 1 distances j - i.  The
elliptic functions K and sn read one AGM sequence, `_agm`, with one
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
from .motif import InfeasibleSizeError, _check_context

__all__ = [
    "DIMENSION_CAP",
    "ChainSpec",
    "elliptic_K",
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
# site pairs whose matrix elements one assembly pass computes and adds
_PAIR_CHUNK = 32
# matrix entries of one stack of equal-sized blocks that one eigensolve takes
_STACK_ENTRIES = 2**16


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
        _check_context(self.m, self.n)
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
    """Symmetric J_ij matrix of the chain, zero diagonal.

    hs and elliptic couplings depend on i - j alone, so their pair function
    is evaluated once per distance, at (0, d), and spread over the matrix.
    """
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
    if chain.kind in ("hs", "elliptic"):
        h = np.array([0.0] + [pair(0, d) for d in range(1, N)])
        return h[np.abs(np.subtract.outer(np.arange(N), np.arange(N)))]
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

    * steps: the site pairs, N(N-1)/2, which assembly visits in passes of
      `_PAIR_CHUNK` pairs, and the (occupation sector, momentum q <= G/2)
      blocks, at most C(N + base - 1, N) (G//2 + 1), which are solved in
      stacks of equal side; together at most `budget`;
    * words: the orbit sweep, which holds all G shifts of every state at
      once, takes at most 3G + N + 12 int64 words per state ((m+n)^N
      states), the representatives 5N + 16 words each (R orbits in all),
      the block layouts 16 words per representative and momentum,
      R (G//2 + 1), one pass's matrix elements 16 words per representative,
      momentum and site pair of the pass, R (G//2 + 1) min(`_PAIR_CHUNK`,
      N(N-1)/2), and the couplings N^2; the blocks at most G O_s^2 words per
      sector s with O_s orbits, since a block of one q has at most O_s rows
      and the q <= G/2 blocks, complex ones counting twice, number G;
      together at most budget^2.  O_s comes from Burnside's lemma: T^k fixes
      the states that repeat with period gcd(k, N).  The words bound also
      keeps the largest block's side below `budget`.

    Checking and diagonalizing adds a few transient copies of one stack of
    blocks, at most `_STACK_ENTRIES` entries or one block.
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
    # the block layouts, and one pass's matrix elements, per representative and momentum
    elements = orbits * (G // 2 + 1) * 16 * (1 + min(_PAIR_CHUNK, pairs))
    arrays = base**N * (3 * G + N + 12) + orbits * (5 * N + 16) + elements + N * N
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


def _arrangements(counts) -> int:
    """Distinct orderings of a sequence of occupations."""
    return math.factorial(len(counts)) // math.prod(map(math.factorial, Counter(counts).values()))


def build_hamiltonian(chain: ChainSpec, *, _balanced: bool = False) -> list[tuple[np.ndarray, int]]:
    """Diagonal blocks of H = sum_{i<j} J_ij (1 - S_ij), as (block, copies) pairs.

    H commutes with relabeling the local states within the fermions, digits
    [0, n), and within the bosons, digits [n, m+n): a relabeling keeps every
    graded sign.  So two occupation sectors that are such relabelings of
    each other have the same spectrum, momentum by momentum, and only one
    sector of each orbit is built: the one whose occupations do not increase
    over the fermionic digits and do not increase over the bosonic digits.

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
    `copies` is how many blocks of the whole H share the block's spectrum:
    the distinct orderings of its sector's bosonic occupations, times those
    of its fermionic occupations, times 2 for a complex block.  Over every
    block, copies times side sums to (m+n)^N.  Blocks are ordered by q, then
    by the smallest state of their sector, and their representatives
    ascend; empty blocks are left out.  pf and fi chains (G = 1) get one
    real block per built sector.

    Assembly visits the site pairs in passes of `_PAIR_CHUNK`: each pass
    computes the elements of its pairs for every representative and
    momentum at once and adds them to the blocks in pair order, so every
    block is the same double for double at any chunk size.

    With `_balanced`, for n = 0 only, just the most balanced sector is
    built: occupations ceil(N/m) ... floor(N/m), not increasing.  Every
    su(m) irrep has a positive Kostka number at that weight, so its blocks
    hold every distinct level of H, but not their multiplicities.
    `_check_size` charges every sector either way.
    """
    m, n, N = chain.m, chain.n, chain.sites
    if _balanced and n:
        raise ValueError("the balanced sector holds every level only for n = 0")
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
    keys, inverse = np.unique(key, return_inverse=True)
    occupied = ((keys[:, None] // powers % base)[:, :, None] == np.arange(base)).sum(axis=1)
    if _balanced:
        kept = (occupied == [N // m + (d < N % m) for d in range(m)]).all(axis=1)
    else:
        falls = lambda c: (np.diff(c, axis=1) <= 0).all(axis=1)
        kept = falls(occupied[:, :n]) & falls(occupied[:, n:])
    copies = [_arrangements(c[:n]) * _arrangements(c[n:]) for c in occupied[kept].tolist()]
    built = kept[inverse]
    reps, digits, key = reps[built], digits[built], key[built]
    order = np.argsort(key, kind="stable")
    reps, digits = reps[order], digits[order]
    _, start, count = np.unique(key[order], return_index=True, return_counts=True)
    sector = np.repeat(np.arange(start.size), count)
    # states of the sectors left out keep an unused entry
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
            by_q[q] = [
                (flat[o : o + z * z].reshape(z, z), c if real else 2 * c)
                for o, z, c in zip(offset[k], size[k], copies)
                if z
            ]
    blocks = [pair for q in sorted(by_q) for pair in by_q[q]]
    # one vectorized pass per chunk of site pairs adds their elements to every block
    digits = digits.T.copy()
    if n and m:
        ferm = digits < n
        prefix = np.cumsum(ferm, axis=0)
    root = np.sqrt(period)
    first, second = np.triu_indices(N, 1)
    for lo in range(0, first.size, _PAIR_CHUNK):
        i, j = first[lo : lo + _PAIR_CHUNK], second[lo : lo + _PAIR_CHUNK]
        di, dj = digits[i], digits[j]
        swapped = reps + (dj - di) * powers[i, None] + (di - dj) * powers[j, None]
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
        w = -J[i, j, None] * graded
        if G > 1:
            w = w * sign[swapped] * root / root[row]
            d = back[swapped]
        for allowed, everywhere, head, local, phase, flat in layouts:
            at = np.take(head, row, axis=1)
            at += local[:, None]
            # with G = 1 every phase is 1 and every orbit carries q = 0
            v = w * phase[:, d] if G > 1 else w
            if not everywhere:
                keep = allowed[:, row] & allowed[:, None]
                at, v = at[keep], v[keep]
            # np.add.at adds in index order, by momentum, then pair, then
            # representative; a position belongs to one momentum, so it gets
            # its elements in pair order whatever the chunk size
            np.add.at(flat, at, v)
    return blocks


def _block_spectra(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues of (block, copies) pairs, one checked solve per stack of blocks.

    Blocks of one side and dtype are stacked and solved together, at most
    `_STACK_ENTRIES` matrix entries (or one block) to a stack.  Returns
    (eigenvalues, copies) per stack: one row of eigenvalues, and one entry
    of copies, per block.
    """
    groups: dict = {}
    for block, copies in pairs:
        groups.setdefault((block.shape[0], block.dtype), []).append((block, copies))
    out = []
    for (side, _), group in groups.items():
        step = max(1, _STACK_ENTRIES // (side * side))
        for k in range(0, len(group), step):
            blocks, copies = zip(*group[k : k + step])
            # a block alone is solved in place: a copy would add a whole large block to the peak
            stack = blocks[0][None] if len(blocks) == 1 else np.stack(blocks)
            out.append((eigenvalues(stack), np.array(copies)))
    return out


def chain_eigenvalues(chain: ChainSpec) -> np.ndarray:
    """All eigenvalues of the chain's H, ascending, each with its multiplicity.

    Each built block's spectrum counts `copies` times (`build_hamiltonian`):
    once for itself and once for each relabeled sector and conjugate
    momentum block it stands for.  Blocks of equal side and dtype are
    solved as stacks (`_block_spectra`).
    """
    parts, states = [], 0
    for lam, copies in _block_spectra(build_hamiltonian(chain)):
        parts.append(np.repeat(lam, copies, axis=0).ravel())
        states += int(copies.sum()) * lam.shape[1]
    if states != (chain.m + chain.n) ** chain.sites:
        raise AssertionError(f"blocks and their copies span {states} states, not (m+n)^N")
    return np.sort(np.concatenate(parts))


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric or complex Hermitian matrix, ascending.

    `a` is one matrix (z, z) or a stack of them (..., z, z), and the result
    has shape (z,) or (..., z).  Each matrix is cross-checked against the
    exact similarity invariants: its eigenvalue sum must reproduce its
    (real) trace and its sum of squares its Frobenius norm sum |a_ij|^2.
    The checks read each matrix and its eigenvalues divided by that
    matrix's own max(1, max |a_ij|), so that no sum overflows and a small
    matrix is not judged at a large one's scale; the eigensolve reads a.
    """
    a = np.asarray(a) if np.iscomplexobj(a) else np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"need a square matrix or a stack of them, got shape {a.shape}")
    top = np.abs(a).max(axis=(-2, -1))
    # refused before the Hermitian check, whose inf - inf would warn
    if not np.isfinite(top).all():
        raise ValueError("matrix is not finite")
    unit = np.maximum(1.0, top)
    b = a / unit[..., None, None]
    # each check is written so that a nan fails it
    if not (np.abs(b - b.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) <= 1e-12).all():
        raise ValueError("matrix is not Hermitian")
    # max(1, top z) / unit, without forming top z
    scale = np.maximum(1.0 / unit, top / unit * a.shape[-1])
    lam = np.linalg.eigvalsh(a)
    mu = lam / unit[..., None]
    if not (abs(mu.sum(axis=-1) - np.trace(b, axis1=-2, axis2=-1).real) <= _INVARIANT_TOL * scale).all():
        raise AssertionError("eigenvalue sum does not reproduce the trace")
    squares = np.einsum("...ij,...ij->...", b.conj(), b).real
    if not (abs(np.einsum("...i,...i->...", mu, mu) - squares) <= _INVARIANT_TOL * scale**2).all():
        raise AssertionError("eigenvalue squares do not reproduce the Frobenius norm")
    return lam


def cluster_levels(values: np.ndarray) -> list[tuple[float, int]]:
    """Group eigenvalues into ascending (level, multiplicity) pairs.

    The round-off rule of `spectrum._merge_float_levels` decides which
    values are one level, and raises ValueError on a gap it cannot call.
    """
    return spectrum._merge_float_levels(values, np.ones(np.size(values), dtype=np.int64))


def formula_dispersion(chain: ChainSpec):
    """Closed-form dispersion whose motif level set matches the chain; elliptic chains have one only for su(1|1)."""
    if chain.kind != "elliptic":
        return spectrum._exact_dispersion(chain.kind, chain.sites, chain.alpha)
    if (chain.m, chain.n) == (1, 1):
        return spectrum.dispersion_from_coupling(coupling_table(chain))
    return None


@dataclass(frozen=True)
class CompareReport:
    matched: bool
    max_energy_error: float
    degeneracies_match: bool
    levels_numeric: tuple[tuple[float, int], ...]
    levels_formula: tuple[tuple[float, int], ...]
    mismatch: str | None = None


def compare(chain: ChainSpec) -> CompareReport:
    """Diagonalize the chain and match its levels against the motif formula.

    Energies agree when they differ by at most the round-off width that
    clusters the eigenvalues.  A chain that `formula_dispersion` maps to None
    is checked against the motif floor instead, and matches when its
    numerical average degeneracy lies strictly below
    `fibnum.min_avg_degeneracy`, the split multiplets of a chain without
    Yangian symmetry.  Such a report has no formula levels, a nan energy
    error and no matched degeneracies.
    """
    eigs = chain_eigenvalues(chain)
    numeric = tuple(cluster_levels(eigs))
    disp = formula_dispersion(chain)
    if disp is None:
        N, m, n = chain.sites, chain.m, chain.n
        avg, floor = Fraction((m + n) ** N, len(numeric)), fibnum.min_avg_degeneracy(N, m, n)
        mismatch = None
        if not avg < floor:
            mismatch = f"average degeneracy {float(avg):.6g} not below the motif floor {float(floor):.6g}"
        return CompareReport(mismatch is None, math.nan, False, numeric, (), mismatch)
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
    """(m+n)^N over the number of distinct numerical levels.

    The levels are clustered from the built blocks' spectra, each block once,
    whose union holds every level; for n = 0 the most balanced occupation
    sector alone is built (`build_hamiltonian`).  The blocks are solved in
    stacks of equal side, as in `chain_eigenvalues`.
    """
    blocks = build_hamiltonian(chain, _balanced=not chain.n)
    values = np.concatenate([lam.ravel() for lam, _ in _block_spectra(blocks)])
    count = len(cluster_levels(values))
    return Fraction((chain.m + chain.n) ** chain.sites, count)
