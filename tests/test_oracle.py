"""Special functions, Hamiltonian assembly and the diagonalization oracle."""

import math
import time
from collections import Counter
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from motifspectra import fibnum, motif, oracle, spectrum
from motifspectra.motif import InfeasibleSizeError
from motifspectra.oracle import ChainSpec
import oracles

scipy_special = pytest.importorskip("scipy.special")


def test_elliptic_integrals_at_zero():
    assert abs(oracle.elliptic_K(0.0) - math.pi / 2) < 1e-15


@pytest.mark.parametrize("ksq", [0.1, 0.5, 0.9, 0.99])
def test_elliptic_integrals_against_scipy(ksq):
    # scipy parametrizes by m = k^2
    assert abs(oracle.elliptic_K(math.sqrt(ksq)) - scipy_special.ellipk(ksq)) < 1e-12


def test_elliptic_modulus_range():
    with pytest.raises(ValueError):
        oracle.elliptic_K(1.0)
    with pytest.raises(ValueError):
        oracle.jacobi_sn(0.5, -0.1)


def test_sn_degenerates_to_sine():
    for u in (-2.0, 0.3, 1.7):
        assert abs(oracle.jacobi_sn(u, 0.0) - math.sin(u)) < 1e-15
    # below half the period the reduction and the descent are exact
    for u in np.linspace(-math.pi, math.pi, 1001)[1:-1]:
        assert oracle.jacobi_sn(float(u), 0.0) == math.sin(u)


def test_agm_stops_within_its_bound():
    for k in (0.0, 0.5, 1 - 2**-53):
        a, c = oracle._agm(k)
        assert len(a) == len(c) <= oracle._AGM_STEPS
        assert c[0] == k and a[0] == 1.0
        assert c[-1] <= 1e-15 * a[-1]
    # K grows like log(4 / k') as k -> 1, and k' = sqrt(2^-52) here
    k = 1 - 2**-53
    assert abs(oracle.elliptic_K(k) - math.log(4 * 2**26)) < 1e-12


@pytest.mark.parametrize("ksq", [0.1, 0.5, 0.9])
def test_sn_against_scipy(ksq):
    k = math.sqrt(ksq)
    for u in np.linspace(-10, 10, 41):
        want = scipy_special.ellipj(u, ksq)[0]
        assert abs(oracle.jacobi_sn(float(u), k) - want) < 1e-10


def test_sn_symmetries():
    k = math.sqrt(0.7)
    bigk = oracle.elliptic_K(k)
    for u in (0.3, 1.1, 2.9):
        assert abs(oracle.jacobi_sn(u + 4 * bigk, k) - oracle.jacobi_sn(u, k)) < 1e-9
        assert abs(oracle.jacobi_sn(2 * bigk - u, k) - oracle.jacobi_sn(u, k)) < 1e-9
        assert abs(oracle.jacobi_sn(-u, k) + oracle.jacobi_sn(u, k)) < 1e-9


def test_hermite_zeros_degree_three():
    z = oracle.hermite_zeros(3)
    want = [-math.sqrt(1.5), 0.0, math.sqrt(1.5)]
    assert np.allclose(z, want, atol=1e-12)


@pytest.mark.parametrize("N", [1, 2, 5, 9, 12])
def test_hermite_zeros_against_scipy(N):
    want = scipy_special.roots_hermite(N)[0]
    assert np.allclose(oracle.hermite_zeros(N), want, atol=1e-9)


def test_laguerre_zeros_closed_form():
    # L_2^(2)(x) = (x^2 - 8x + 12)/2 vanishes at 2 and 6
    assert np.allclose(oracle.laguerre_zeros(2, 2.0), [2.0, 6.0], atol=1e-10)


@pytest.mark.parametrize("N,a", [(1, 0.5), (4, 2.0), (8, 1.5), (10, 0.0)])
def test_laguerre_zeros_against_scipy(N, a):
    want = scipy_special.roots_genlaguerre(N, a)[0]
    assert np.allclose(oracle.laguerre_zeros(N, a), want, atol=1e-8)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec("xx", 4, 2, 0)
    with pytest.raises(ValueError):
        ChainSpec("hs", 1, 2, 0)
    with pytest.raises(ValueError):
        ChainSpec("fi", 4, 2, 0, alpha=0)
    with pytest.raises(ValueError):
        ChainSpec("elliptic", 4, 2, 0)
    with pytest.raises(ValueError):
        ChainSpec("elliptic", 4, 2, 0, ksq=1.0)


def test_elliptic_coupling_degenerates_to_trigonometric():
    for N in (4, 7):
        Jhs = oracle.coupling_matrix(ChainSpec("hs", N, 2, 0))
        Jell = oracle.coupling_matrix(ChainSpec("elliptic", N, 2, 0, ksq=0.0))
        assert np.abs(Jhs - Jell).max() < 1e-10


def test_coupling_tables_are_even():
    for chain in (ChainSpec("hs", 9, 2, 0), ChainSpec("elliptic", 8, 2, 0, ksq=0.5)):
        h = oracle.coupling_table(chain)
        N = chain.sites
        assert h[0] == 0.0
        for l in range(1, N):
            assert abs(h[l] - h[N - l]) < 1e-12 * max(1.0, abs(h[l]))
    with pytest.raises(ValueError):
        oracle.coupling_table(ChainSpec("pf", 6, 2, 0))


@pytest.mark.parametrize("N", [2, 3, 8, 13])
def test_translation_invariant_couplings_match_their_pair_function(N):
    # filled from the N - 1 distances, every entry is the pair function's double
    k = math.sqrt(0.5)
    bigk = oracle.elliptic_K(k)
    for kind, pair in (
        ("hs", lambda i, j: 0.5 / math.sin(math.pi * (i - j) / N) ** 2),
        ("elliptic", lambda i, j: 0.5 / oracle.jacobi_sn(2 * (i - j) * bigk / N, k) ** 2),
    ):
        J = oracle.coupling_matrix(ChainSpec(kind, N, 2, 0, ksq=0.5 if kind == "elliptic" else None))
        want = np.array([[pair(min(i, j), max(i, j)) if i != j else 0.0 for j in range(N)] for i in range(N)])
        assert np.array_equal(J, want)


def test_graded_sign_examples():
    # two bosons commute, two fermions anticommute
    assert oracles.graded_permutation(0, 1, 2, 2, 0)[1] == 1
    base = 2  # su(1|1): digit 0 fermionic, digit 1 bosonic
    ff = 0 * base + 0  # fermion at both sites
    assert oracles.graded_permutation(ff, 1, 2, 1, 1) == (ff, -1)
    # boson and fermion with one fermion strictly between
    state = 1 + 0 * base + 0 * base**2  # digits (1, 0, 0) = boson, fermion, fermion
    new, sign = oracles.graded_permutation(state, 1, 3, 1, 1)
    assert new == 0 + 0 * base + 1 * base**2
    assert sign == -1
    # same swap with a boson between picks no sign
    state = 1 + 1 * base + 0 * base**2
    new, sign = oracles.graded_permutation(state, 1, 3, 1, 1)
    assert sign == 1


def test_graded_permutation_is_involution():
    for m, n in ((2, 0), (1, 1), (2, 1)):
        base = m + n
        for state in range(base**4):
            for i, j in ((1, 2), (1, 4), (2, 3)):
                new, s1 = oracles.graded_permutation(state, i, j, m, n)
                back, s2 = oracles.graded_permutation(new, i, j, m, n)
                assert back == state
                assert s1 * s2 == 1


def _scalar_hamiltonian(chain: ChainSpec) -> np.ndarray:
    """Reference assembly, one matrix element at a time."""
    base = chain.m + chain.n
    dim = base**chain.sites
    J = oracle.coupling_matrix(chain)
    H = np.zeros((dim, dim))
    for state in range(dim):
        for i in range(1, chain.sites + 1):
            for j in range(i + 1, chain.sites + 1):
                new, sign = oracles.graded_permutation(state, i, j, chain.m, chain.n)
                H[state, state] += J[i - 1, j - 1]
                H[new, state] -= J[i - 1, j - 1] * sign
    return H


def _sectors(chain: ChainSpec) -> list[list[int]]:
    """Basis states grouped by occupation, sectors by smallest state, states ascending."""
    base = chain.m + chain.n
    groups: dict[tuple[int, ...], list[int]] = {}
    for state in range(base**chain.sites):
        digits = [(state // base**p) % base for p in range(chain.sites)]
        groups.setdefault(tuple(digits.count(d) for d in range(base)), []).append(state)
    return sorted(groups.values())


def _occupation(chain: ChainSpec, state: int) -> tuple[int, ...]:
    """How many sites of the state hold each local state."""
    base = chain.m + chain.n
    digits = [(state // base**p) % base for p in range(chain.sites)]
    return tuple(digits.count(d) for d in range(base))


def _representative(chain: ChainSpec, occupation: tuple[int, ...]) -> tuple[int, ...]:
    """The occupation sorted down within the fermionic digits and within the bosonic ones."""
    n = chain.n
    return tuple(sorted(occupation[:n], reverse=True) + sorted(occupation[n:], reverse=True))


def _shift_matrix(chain: ChainSpec) -> np.ndarray:
    """The graded cyclic shift T as a dense matrix.

    Built by carrying the spin of site N down to site 1 through the graded
    transpositions of neighbours, S_12 S_23 ... S_{N-1,N}.
    """
    base, N = chain.m + chain.n, chain.sites
    T = np.zeros((base**N, base**N))
    for state in range(base**N):
        new, sign = state, 1
        for i in range(N - 1, 0, -1):
            new, s = oracles.graded_permutation(new, i, i + 1, chain.m, chain.n)
            sign *= s
        T[new, state] = sign
    return T


def _momentum_blocks(chain: ChainSpec, H: np.ndarray) -> list[tuple[int, tuple[int, ...], np.ndarray]]:
    """(q, occupation, H projected onto the test's own momentum basis), for every sector.

    In `build_hamiltonian`'s order: by q, then by the sector's smallest state.

    For hs and elliptic chains the vector of orbit representative r at
    momentum q is sum_{k<N} e^(-2 pi i q k / N) T^k |r>, normalized, kept
    when it is not zero; pf and fi chains have the trivial group, so their
    basis is the sector's states at q = 0.
    """
    G = chain.sites if chain.kind in ("hs", "elliptic") else 1
    T = _shift_matrix(chain) if G > 1 else np.eye(H.shape[0])
    blocks = []
    for q in range(G // 2 + 1):
        for states in _sectors(chain):
            vectors = []
            seen = set()
            for r in states:
                if r in seen:
                    continue
                v, phi = np.zeros(H.shape[0]), np.zeros(H.shape[0], complex)
                v[r] = 1.0
                for k in range(G):
                    seen.update(np.flatnonzero(v).tolist())
                    phi += np.exp(-2j * np.pi * q * k / G) * v
                    v = T @ v
                if np.linalg.norm(phi) > 1e-9:
                    vectors.append(phi / np.linalg.norm(phi))
            if vectors:
                V = np.array(vectors).T
                blocks.append((q, _occupation(chain, states[0]), V.conj().T @ H @ V))
    return blocks


_ASSEMBLY_CHAINS = [
    ChainSpec("hs", 4, 2, 0),
    ChainSpec("hs", 4, 1, 1),
    ChainSpec("hs", 5, 2, 1),
    ChainSpec("hs", 6, 0, 2),
    ChainSpec("pf", 4, 2, 1),
    ChainSpec("fi", 4, 0, 2, alpha=3),
    ChainSpec("elliptic", 4, 1, 2, ksq=0.5),
    ChainSpec("elliptic", 5, 1, 2, ksq=0.5),
    ChainSpec("elliptic", 5, 3, 0, ksq=0.5),
    ChainSpec("elliptic", 4, 2, 2, ksq=0.5),
]


@pytest.mark.parametrize("chain", _ASSEMBLY_CHAINS)
def test_vectorized_assembly_matches_scalar(chain):
    slow = _scalar_hamiltonian(chain)
    sectors = _sectors(chain)
    label = np.empty(slow.shape[0], int)
    for k, states in enumerate(sectors):
        label[states] = k
    # graded transpositions conserve the occupation vector
    assert np.count_nonzero(slow[label[:, None] != label[None, :]]) == 0
    blocks = [block for block, _ in oracle.build_hamiltonian(chain)]
    # one sector is built per relabeling orbit
    want = [(q, w) for q, occ, w in _momentum_blocks(chain, slow) if _representative(chain, occ) == occ]
    assert [b.shape for b in blocks] == [w.shape for _, w in want]
    for block, (q, expected) in zip(blocks, want):
        assert np.abs(block - expected).max() < 1e-12 * max(1.0, np.abs(expected).max())
        # only the blocks at q = 0 and q = N/2 are real
        assert np.iscomplexobj(block) == (2 * q % chain.sites != 0 and chain.kind in ("hs", "elliptic"))
    if chain.kind in ("pf", "fi"):
        kept = [s for s in sectors if _representative(chain, _occupation(chain, s[0])) == _occupation(chain, s[0])]
        assert [b.shape for b in blocks] == [(len(s), len(s)) for s in kept]


@pytest.mark.parametrize(
    "chain",
    [
        # 45 and 36 site pairs: more than one pass at the default chunk
        ChainSpec("hs", 10, 2, 0),
        ChainSpec("hs", 9, 0, 2),
        ChainSpec("elliptic", 9, 3, 0, ksq=0.5),
        ChainSpec("elliptic", 9, 2, 1, ksq=0.5),
        ChainSpec("elliptic", 6, 1, 2, ksq=0.5),
        ChainSpec("pf", 9, 2, 1),
        ChainSpec("fi", 10, 0, 2, alpha=3),
        ChainSpec("hs", 2, 1, 1),
    ],
)
def test_assembly_does_not_depend_on_pair_chunk(monkeypatch, chain):
    runs = [(False, oracle.build_hamiltonian(chain))]
    if chain.n == 0:
        runs.append((True, oracle.build_hamiltonian(chain, _balanced=True)))
    # one pair per pass is the plain loop over the site pairs
    monkeypatch.setattr(oracle, "_PAIR_CHUNK", 1)
    for balanced, built in runs:
        reference = oracle.build_hamiltonian(chain, _balanced=balanced)
        assert len(built) == len(reference)
        for (block, copies), (want, want_copies) in zip(built, reference):
            assert block.dtype == want.dtype and copies == want_copies
            assert np.array_equal(block, want)


@pytest.mark.parametrize("chain", _ASSEMBLY_CHAINS)
def test_relabeled_sectors_share_their_representatives_spectrum(chain):
    projected = _momentum_blocks(chain, _scalar_hamiltonian(chain))
    spectra = {(q, occ): np.linalg.eigvalsh(w) for q, occ, w in projected}
    for (q, occ), lam in spectra.items():
        want = spectra[q, _representative(chain, occ)]
        assert lam.shape == want.shape
        assert np.abs(lam - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    # copies: the sectors of the orbit, times 2 for the conjugate momentum G - q
    G = chain.sites if chain.kind in ("hs", "elliptic") else 1
    orbit = Counter(_representative(chain, _occupation(chain, s[0])) for s in _sectors(chain))
    built = oracle.build_hamiltonian(chain)
    kept = [(q, occ) for q, occ, _ in projected if _representative(chain, occ) == occ]
    assert len(built) == len(kept)
    for (block, copies), (q, occ) in zip(built, kept):
        assert copies == orbit[occ] * (1 if 2 * q % G == 0 else 2)
    assert sum(copies * block.shape[0] for block, copies in built) == (chain.m + chain.n) ** chain.sites


@pytest.mark.parametrize("m,N", [(2, 8), (2, 10), (2, 12), (3, 6), (3, 7)])
def test_balanced_sector_counts_every_level(m, N):
    # criterion 6's su(m|0) chains: every su(m) irrep holds the most balanced weight
    chain = ChainSpec("elliptic", N, m, 0, ksq=0.5)
    full = oracle.cluster_levels(oracle.chain_eigenvalues(chain))
    assert oracle.numeric_average_degeneracy(chain) == Fraction(m**N, len(full))
    # one sector, occupations ceil(N/m) ... floor(N/m), and its relabelings
    occupation = [N // m + (d < N % m) for d in range(m)]
    states = math.factorial(N) // math.prod(map(math.factorial, occupation))
    relabelings = math.comb(m, N % m)
    balanced = oracle.build_hamiltonian(chain, _balanced=True)
    assert sum(copies * block.shape[0] for block, copies in balanced) == relabelings * states
    with pytest.raises(ValueError, match="n = 0"):
        oracle.build_hamiltonian(ChainSpec("elliptic", N, m, 1, ksq=0.5), _balanced=True)


@pytest.mark.parametrize(
    "chain",
    [
        ChainSpec(kind, N, m, n, ksq=0.5 if kind == "elliptic" else None)
        for kind in ("hs", "elliptic")
        for m, n, N in ((2, 1, 5), (1, 2, 5), (0, 2, 6), (1, 2, 4))
    ],
)
def test_graded_shift_commutes_with_hamiltonian(chain):
    T = _shift_matrix(chain)
    H = _scalar_hamiltonian(chain)
    assert np.abs(T @ H - H @ T).max() < 1e-12 * np.abs(H).max()
    assert np.array_equal(np.linalg.matrix_power(T, chain.sites), np.eye(T.shape[0]))


@pytest.mark.parametrize(
    "m,n,N", [(2, 0, 10), (0, 2, 9), (1, 1, 8), (2, 1, 6), (3, 0, 6), (2, 2, 5), (1, 2, 6), (1, 2, 5)]
)
@pytest.mark.parametrize("kind", ["hs", "pf", "fi", "elliptic"])
def test_sector_union_matches_dense_spectrum(kind, m, n, N):
    alpha = Fraction(5, 2) if kind == "fi" else None
    ksq = 0.5 if kind == "elliptic" else None
    chain = ChainSpec(kind, N, m, n, alpha=alpha, ksq=ksq)
    dense = np.linalg.eigvalsh(_scalar_hamiltonian(chain))
    union = oracle.chain_eigenvalues(chain)
    assert union.shape == dense.shape
    assert np.abs(union - dense).max() <= 1e-12 * np.abs(dense).max()


def test_dimension_cap():
    with pytest.raises(InfeasibleSizeError):
        oracle.build_hamiltonian(ChainSpec("hs", 20, 2, 0))


def _words(chain: ChainSpec) -> int:
    """The words `_check_size` charges, from the test's own orbit enumeration.

    3G + N + 12 words a state, 5N + 16 a representative, 16 a representative
    and momentum q <= G/2, 16 a representative, momentum and site pair of
    one assembly pass, N^2 couplings, and G O_s^2 block entries per sector
    with O_s orbits.
    """
    N, base = chain.sites, chain.m + chain.n
    G = N if chain.kind in ("hs", "elliptic") else 1
    orbits = blocks = 0
    for states in _sectors(chain):
        seen, count = set(), 0
        for state in states:
            if state not in seen:
                count += 1
                digits = [(state // base**p) % base for p in range(N)]
                for k in range(G):
                    seen.add(sum(d * base ** ((p + k) % N) for p, d in enumerate(digits)))
        orbits += count
        blocks += G * count**2
    elements = orbits * (G // 2 + 1) * 16 * (1 + min(oracle._PAIR_CHUNK, N * (N - 1) // 2))
    return base**N * (3 * G + N + 12) + orbits * (5 * N + 16) + elements + N * N + blocks


@pytest.mark.parametrize(
    "chain", [ChainSpec("hs", 8, 2, 0), ChainSpec("pf", 5, 2, 1), ChainSpec("elliptic", 6, 1, 2, ksq=0.5)]
)
def test_block_storage_cap(monkeypatch, chain):
    # state and orbit arrays, couplings and momentum blocks together take
    # at most DIMENSION_CAP^2 words
    words = _words(chain)
    side = math.isqrt(words - 1) + 1
    monkeypatch.setattr(oracle, "DIMENSION_CAP", side)
    oracle.build_hamiltonian(chain)
    monkeypatch.setattr(oracle, "DIMENSION_CAP", side - 1)
    with pytest.raises(InfeasibleSizeError, match="words"):
        oracle.build_hamiltonian(chain)


@pytest.mark.parametrize(
    "chain",
    [
        ChainSpec("hs", 12, 2, 0),
        ChainSpec("hs", 14, 2, 0),
        ChainSpec("elliptic", 7, 2, 2, ksq=0.5),
        ChainSpec("pf", 12, 2, 0),
        ChainSpec("fi", 9, 0, 2, alpha=3),
    ],
)
def test_storage_bound_covers_what_assembly_allocates(chain):
    tracemalloc.start()
    try:
        blocks = oracle.build_hamiltonian(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # checking a block adds a few transient copies of it
    assert peak <= 8 * _words(chain) + 3 * max(b.nbytes for b, _ in blocks)


@pytest.mark.parametrize("chain", [ChainSpec("hs", 20, 1, 0), ChainSpec("hs", 2, 30, 0), ChainSpec("pf", 20, 1, 0)])
def test_step_cap(monkeypatch, chain):
    # site pairs (one assembly pass each) and (sector, momentum q <= G/2)
    # blocks (one eigensolve each) number at most DIMENSION_CAP together
    G = chain.sites if chain.kind in ("hs", "elliptic") else 1
    steps = math.comb(chain.sites, 2) + len(_sectors(chain)) * (G // 2 + 1)
    monkeypatch.setattr(oracle, "DIMENSION_CAP", steps)
    oracle.build_hamiltonian(chain)
    monkeypatch.setattr(oracle, "DIMENSION_CAP", steps - 1)
    with pytest.raises(InfeasibleSizeError, match="sectors"):
        oracle.build_hamiltonian(chain)


class _Admitted(Exception):
    pass


def _refuse_to_assemble(*args):
    raise _Admitted


@pytest.mark.parametrize(
    "chain,reason",
    [
        # 9.8e7 and 1.1e7 sectors, blocks of at most 2 and 6
        (ChainSpec("hs", 2, 14000, 0), "sectors"),
        (ChainSpec("hs", 3, 400, 0), "sectors"),
        # 5e13 site pairs, refused without the factorial of 10^7
        (ChainSpec("hs", 10**7, 2, 0), "sectors"),
        # 6.7e7 states of 116 words each
        (ChainSpec("hs", 26, 2, 0), "orbit arrays take"),
        # momentum blocks of at most 2704 rows, but 5.1e8 entries
        (ChainSpec("hs", 18, 2, 0), "and blocks take"),
        # pf has no momentum: sector blocks of C(16, 8) = 12870, 6e8 entries
        (ChainSpec("pf", 16, 2, 0), "and blocks take"),
    ],
)
def test_size_caps_at_default_refuse_before_allocating(monkeypatch, chain, reason):
    monkeypatch.setattr(oracle, "coupling_matrix", lambda *a: pytest.fail("assembled"))
    t0 = time.perf_counter()
    with pytest.raises(InfeasibleSizeError, match=reason):
        oracle.build_hamiltonian(chain)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "chain", [ChainSpec("hs", 17, 2, 0), ChainSpec("elliptic", 17, 2, 0, ksq=0.5), ChainSpec("pf", 15, 2, 0)]
)
def test_size_caps_at_default_admit_the_edge(monkeypatch, chain):
    # the last su(2|0) sizes that fit: 1.5e8 words with momentum, 1.6e8 without
    monkeypatch.setattr(oracle, "coupling_matrix", _refuse_to_assemble)
    with pytest.raises(_Admitted):
        oracle.build_hamiltonian(chain)


def test_eigenvalues_checks_symmetry():
    with pytest.raises(ValueError):
        oracle.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        oracle.eigenvalues(np.zeros((2, 3)))
    # symmetric but not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        oracle.eigenvalues(np.array([[1.0, 1j], [1j, 1.0]]))
    # the skew is measured against the largest entry, not that times the dimension
    lopsided = np.eye(4)
    lopsided[0, 1] = 2e-12
    with pytest.raises(ValueError, match="Hermitian"):
        oracle.eigenvalues(lopsided)


def test_eigenvalues_refuses_nan(monkeypatch):
    for a in ([[1.0, math.nan], [math.nan, 2.0]], [[1.0, 0.0], [0.0, math.nan]]):
        with pytest.raises(ValueError, match="not finite"):
            oracle.eigenvalues(np.array(a))
    # a nan eigenvalue fails the trace check
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), math.nan))
    with pytest.raises(AssertionError, match="trace"):
        oracle.eigenvalues(np.eye(2))


def test_eigenvalues_refuses_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in ([[1.0, 0.0], [0.0, math.inf]], [[1.0, -math.inf], [-math.inf, 1.0]]):
            with pytest.raises(ValueError, match="not finite"):
                oracle.eigenvalues(np.array(a))


def test_eigenvalues_checks_scale_with_the_largest_entry():
    # the trace and Frobenius sums of the unscaled matrix overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle.eigenvalues(np.array([[1e200, 0.0], [0.0, 1.0]])).tolist() == [1.0, 1e200]
        with pytest.raises(ValueError, match="not Hermitian"):
            oracle.eigenvalues(np.array([[1.0, 1e308], [-1e308, 1.0]]))
    # the skew tolerance is still 1e-12 of the largest entry
    lopsided = 1e200 * np.eye(4)
    lopsided[0, 1] = 2e188
    with pytest.raises(ValueError, match="Hermitian"):
        oracle.eigenvalues(lopsided)
    lopsided[0, 1] = 0.5e188
    lopsided[1, 0] = 0.0
    assert oracle.eigenvalues(lopsided).shape == (4,)


def test_eigenvalues_on_known_matrix():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(oracle.eigenvalues(a), [1.0, 3.0], atol=1e-12)


def test_eigenvalues_on_complex_hermitian_matrix():
    # sigma_y has eigenvalues -1 and 1; a unitary rotation keeps them
    a = np.array([[2.0, -1j, 0.0], [1j, 2.0, 0.0], [0.0, 0.0, 5.0]])
    assert np.allclose(oracle.eigenvalues(a), [1.0, 3.0, 5.0], atol=1e-12)
    u = np.linalg.qr(np.arange(9).reshape(3, 3) + 1j * np.eye(3) + np.eye(3))[0]
    rotated = u @ a @ u.conj().T
    assert np.iscomplexobj(rotated) and np.abs(rotated.imag).max() > 0.1
    assert np.allclose(oracle.eigenvalues(rotated), [1.0, 3.0, 5.0], atol=1e-12)


def test_stacked_eigenvalues_check_each_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    for imag in (0.0, 1j):
        for side in (1, 3, 40):
            x = rng.normal(size=(4, side, side)) + imag * rng.normal(size=(4, side, side))
            stack = x + x.conj().swapaxes(-2, -1)
            lam = oracle.eigenvalues(stack)
            assert lam.shape == (4, side)
            for k in range(4):
                assert np.array_equal(lam[k], oracle.eigenvalues(stack[k]))
    with pytest.raises(ValueError, match="square"):
        oracle.eigenvalues(np.zeros(3))
    # one bad matrix among good ones is refused with the single-matrix message
    skew = np.eye(4)
    skew[0, 1] = 1.0
    lopsided = np.eye(4)
    lopsided[0, 1] = 2e-12
    hole = np.eye(4)
    hole[2, 2] = math.nan
    for bad, message in ((skew, "not Hermitian"), (lopsided, "not Hermitian"), (hole, "not finite")):
        for at in (0, 2):
            stack = np.stack([2.0 * np.eye(4)] * 3)
            stack[at] = bad
            with pytest.raises(ValueError, match=message):
                oracle.eigenvalues(stack)
    # each matrix is checked at its own scale: the O(1) one is not judged at 1e200
    big = 1e200 * np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle.eigenvalues(np.stack([big, np.eye(4)])).tolist() == [[1e200] * 4, [1.0] * 4]
        for stack in (np.stack([big, lopsided]), np.stack([lopsided, big])):
            with pytest.raises(ValueError, match="Hermitian"):
                oracle.eigenvalues(stack)
    big[0, 1] = 2e188
    with pytest.raises(ValueError, match="Hermitian"):
        oracle.eigenvalues(np.stack([np.eye(4), big]))
    # the trace check of the O(1) matrix keeps its own tolerance
    solve = np.linalg.eigvalsh

    def off_by_a_little(a):
        lam = solve(a)
        lam[..., -1, 0] += 1e-6
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", off_by_a_little)
    with pytest.raises(AssertionError, match="trace"):
        oracle.eigenvalues(np.stack([1e200 * np.eye(4), np.eye(4)]))


@pytest.mark.parametrize("entries", [None, 1, 200])
@pytest.mark.parametrize(
    "chain", [ChainSpec("hs", 10, 2, 0), ChainSpec("elliptic", 7, 2, 1, ksq=0.5), ChainSpec("pf", 8, 2, 1)]
)
def test_stacked_spectra_match_single_solves(monkeypatch, chain, entries):
    built = oracle.build_hamiltonian(chain)
    single = np.sort(np.concatenate([np.repeat(oracle.eigenvalues(b), c) for b, c in built]))
    if entries is not None:
        monkeypatch.setattr(oracle, "_STACK_ENTRIES", entries)
    assert np.array_equal(oracle.chain_eigenvalues(chain), single)
    # one stack per side and dtype, split where it would pass the entry cap
    shapes = Counter((b.shape[0], b.dtype) for b, _ in built)
    per_stack = {z: max(1, oracle._STACK_ENTRIES // (z * z)) for z, _ in shapes}
    assert len(oracle._block_spectra(built)) == sum(-(-k // per_stack[z]) for (z, _), k in shapes.items())

def test_cluster_levels():
    # the energies of the su(1|1) motifs of 3 sites under the band (1, 1 + delta);
    # the round-off width is 32 eps * 3 * 2 = 4.3e-14
    for delta, degeneracies in ((1e-15, [1, 2, 1]), (1e-11, [1, 1, 1, 1])):
        out = oracle.cluster_levels(np.array([2.0 + delta, 1.0, 0.0, 1.0 + delta]))
        assert [d for _, d in out] == degeneracies
        assert out[1][0] == (np.mean([1.0, 1.0 + delta]) if len(out) == 3 else 1.0)
    with pytest.raises(ValueError, match=r"2\.3\d times the round-off width"):
        oracle.cluster_levels(np.array([2.0 + 1e-13, 1.0, 0.0, 1.0 + 1e-13]))
    assert oracle.cluster_levels(np.array([])) == []
    # nan sorts last and would join the level before it
    with pytest.raises(ValueError, match="finite"):
        oracle.cluster_levels(np.array([1.0, 2.0, math.nan]))


@pytest.mark.parametrize(
    "chain",
    [
        ChainSpec("hs", 6, 2, 0),
        ChainSpec("hs", 5, 2, 1),
        ChainSpec("hs", 6, 1, 1),
        ChainSpec("pf", 6, 2, 0),
        ChainSpec("pf", 5, 0, 2),
        ChainSpec("fi", 6, 2, 0, alpha=3),
        ChainSpec("fi", 5, 0, 2, alpha=Fraction(5, 2)),
    ],
)
def test_compare_matches_formula(chain):
    report = oracle.compare(chain)
    assert report.matched, report.mismatch
    assert report.max_energy_error < 1e-8
    assert report.degeneracies_match


def test_compare_tolerates_only_round_off(monkeypatch):
    # an error of 1e-10 of the band passed a width of 1e-7 of the scale
    N = 6
    for stretch, matched in ((1.0, True), (1 + 1e-10, False)):
        disp = spectrum.NumericDispersion(N, tuple(j * (N - j) * stretch for j in range(1, N)))
        monkeypatch.setattr(oracle, "formula_dispersion", lambda chain: disp)
        report = oracle.compare(ChainSpec("hs", N, 2, 0))
        assert report.degeneracies_match
        assert report.matched == matched, report.mismatch


def test_round_off_width_resolves_close_levels():
    # a width of 1e-7 of the scale merged these to 444, 272 and 477 levels
    report = oracle.compare(ChainSpec("elliptic", 12, 1, 1, ksq=0.1))
    assert report.matched, report.mismatch
    assert len(report.levels_numeric) == motif.count_half(12, 1, 1) == 486
    # the average degeneracy clusters each built block once: fewer values, a narrower width
    for m, n, N, count in ((2, 1, 8, 275), (2, 0, 12, 493), (2, 1, 7, 98), (1, 1, 12, 486)):
        chain = ChainSpec("elliptic", N, m, n, ksq=0.1)
        assert len(oracle.cluster_levels(oracle.chain_eigenvalues(chain))) == count
        assert oracle.numeric_average_degeneracy(chain) == Fraction((m + n) ** N, count)


def test_elliptic_su2_beyond_criterion_6():
    # the momentum blocks make N = 14 cheap; 1780 levels under the round-off rule
    chain = ChainSpec("elliptic", 14, 2, 0, ksq=0.5)
    avg = oracle.numeric_average_degeneracy(chain)
    assert avg == Fraction(2**14, 1780)
    assert avg < fibnum.min_avg_degeneracy(14, 2, 0)


def test_compare_detects_wrong_dispersion(monkeypatch):
    monkeypatch.setattr(oracle, "formula_dispersion", lambda chain: spectrum.PFDispersion(chain.sites))
    report = oracle.compare(ChainSpec("hs", 5, 2, 0))
    assert not report.matched


def test_compare_without_formula_checks_the_motif_floor():
    # elliptic su(2|0) has no closed dispersion; criterion 6's claim is checked instead
    report = oracle.compare(ChainSpec("elliptic", 8, 2, 0, ksq=0.5))
    assert report.matched and report.mismatch is None
    assert len(report.levels_numeric) == 43 and report.levels_formula == ()
    assert math.isnan(report.max_energy_error) and not report.degeneracies_match
    assert Fraction(2**8, 43) < fibnum.min_avg_degeneracy(8, 2, 0)
    # ksq = 0 is the Yangian-invariant hs chain: not below the floor
    report = oracle.compare(ChainSpec("elliptic", 7, 3, 0, ksq=0.0))
    assert not report.matched
    assert "not below the motif floor" in report.mismatch


def test_graded_mirror_spectra():
    for kind, kw in (("hs", {}), ("elliptic", {"ksq": 0.5})):
        for m, n in ((2, 0), (1, 1), (2, 1)):
            c1 = ChainSpec(kind, 5, m, n, **kw)
            c2 = ChainSpec(kind, 5, n, m, **kw)
            e1 = oracle.chain_eigenvalues(c1)
            e2 = oracle.chain_eigenvalues(c2)
            J = oracle.coupling_matrix(c1)
            full = float(np.triu(J, 1).sum()) * 2
            assert np.abs(np.sort(full - e1) - e2).max() < 1e-10


def test_numeric_average_degeneracy_matches_formula_count():
    chain = ChainSpec("hs", 6, 2, 0)
    avg = oracle.numeric_average_degeneracy(chain)
    lv = spectrum.level_set(6, 2, 0, spectrum.HSDispersion(6))
    assert avg == Fraction(2**6, len(lv))


def test_formula_dispersion_routing():
    assert isinstance(oracle.formula_dispersion(ChainSpec("hs", 6, 2, 0)), spectrum.HSDispersion)
    assert isinstance(oracle.formula_dispersion(ChainSpec("pf", 6, 2, 0)), spectrum.PFDispersion)
    fi = oracle.formula_dispersion(ChainSpec("fi", 6, 2, 0, alpha=Fraction(5, 2)))
    assert isinstance(fi, spectrum.FIDispersion)
    ell = oracle.formula_dispersion(ChainSpec("elliptic", 6, 1, 1, ksq=0.5))
    assert isinstance(ell, spectrum.NumericDispersion)
    assert oracle.formula_dispersion(ChainSpec("elliptic", 6, 2, 0, ksq=0.5)) is None


def test_elliptic_su11_compare():
    report = oracle.compare(ChainSpec("elliptic", 7, 1, 1, ksq=0.5))
    assert report.matched, report.mismatch
