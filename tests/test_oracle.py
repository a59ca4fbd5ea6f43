"""Special functions, Hamiltonian assembly and the diagonalization oracle."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from motifspectra import oracle, spectrum
from motifspectra.motif import InfeasibleSizeError
from motifspectra.oracle import ChainSpec

scipy_special = pytest.importorskip("scipy.special")


def test_elliptic_integrals_at_zero():
    assert abs(oracle.elliptic_K(0.0) - math.pi / 2) < 1e-15
    assert abs(oracle.elliptic_E(0.0) - math.pi / 2) < 1e-15


@pytest.mark.parametrize("ksq", [0.1, 0.5, 0.9, 0.99])
def test_elliptic_integrals_against_scipy(ksq):
    # scipy parametrizes by m = k^2
    assert abs(oracle.elliptic_K(math.sqrt(ksq)) - scipy_special.ellipk(ksq)) < 1e-12
    assert abs(oracle.elliptic_E(math.sqrt(ksq)) - scipy_special.ellipe(ksq)) < 1e-12


def test_elliptic_modulus_range():
    with pytest.raises(ValueError):
        oracle.elliptic_K(1.0)
    with pytest.raises(ValueError):
        oracle.jacobi_sn(0.5, -0.1)


def test_sn_degenerates_to_sine():
    for u in (-2.0, 0.3, 1.7):
        assert abs(oracle.jacobi_sn(u, 0.0) - math.sin(u)) < 1e-15


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


def test_graded_sign_examples():
    # two bosons commute, two fermions anticommute
    assert oracle.graded_permutation(0, 1, 2, 2, 0)[1] == 1
    base = 2  # su(1|1): digit 0 fermionic, digit 1 bosonic
    ff = 0 * base + 0  # fermion at both sites
    assert oracle.graded_permutation(ff, 1, 2, 1, 1) == (ff, -1)
    # boson and fermion with one fermion strictly between
    state = 1 + 0 * base + 0 * base**2  # digits (1, 0, 0) = boson, fermion, fermion
    new, sign = oracle.graded_permutation(state, 1, 3, 1, 1)
    assert new == 0 + 0 * base + 1 * base**2
    assert sign == -1
    # same swap with a boson between picks no sign
    state = 1 + 1 * base + 0 * base**2
    new, sign = oracle.graded_permutation(state, 1, 3, 1, 1)
    assert sign == 1


def test_graded_permutation_is_involution():
    for m, n in ((2, 0), (1, 1), (2, 1)):
        base = m + n
        for state in range(base**4):
            for i, j in ((1, 2), (1, 4), (2, 3)):
                new, s1 = oracle.graded_permutation(state, i, j, m, n)
                back, s2 = oracle.graded_permutation(new, i, j, m, n)
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
                new, sign = oracle.graded_permutation(state, i, j, chain.m, chain.n)
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


@pytest.mark.parametrize(
    "chain",
    [
        ChainSpec("hs", 4, 2, 0),
        ChainSpec("hs", 4, 1, 1),
        ChainSpec("pf", 4, 2, 1),
        ChainSpec("fi", 4, 0, 2, alpha=3),
        ChainSpec("elliptic", 4, 1, 2, ksq=0.5),
        ChainSpec("elliptic", 5, 3, 0, ksq=0.5),
    ],
)
def test_vectorized_assembly_matches_scalar(chain):
    slow = _scalar_hamiltonian(chain)
    sectors = _sectors(chain)
    label = np.empty(slow.shape[0], int)
    for k, states in enumerate(sectors):
        label[states] = k
    # graded transpositions conserve the occupation vector
    assert np.count_nonzero(slow[label[:, None] != label[None, :]]) == 0
    blocks = oracle.build_hamiltonian(chain)
    assert [b.shape for b in blocks] == [(len(s), len(s)) for s in sectors]
    for block, states in zip(blocks, sectors):
        assert np.abs(block - slow[np.ix_(states, states)]).max() < 1e-12


@pytest.mark.parametrize("m,n,N", [(2, 0, 10), (0, 2, 9), (1, 1, 8), (2, 1, 6), (3, 0, 6)])
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
    # the cap bounds the largest occupation block, C(8, 4) = 70 for su(2|0) at N = 8
    with pytest.raises(InfeasibleSizeError):
        oracle.build_hamiltonian(ChainSpec("hs", 8, 2, 0), cap=69)
    blocks = oracle.build_hamiltonian(ChainSpec("hs", 8, 2, 0), cap=70)
    assert max(b.shape[0] for b in blocks) == 70
    with pytest.raises(InfeasibleSizeError):
        oracle.build_hamiltonian(ChainSpec("hs", 20, 2, 0))


@pytest.mark.parametrize("chain", [ChainSpec("hs", 8, 2, 0), ChainSpec("pf", 5, 2, 1)])
def test_block_storage_cap(monkeypatch, chain):
    # basis arrays (4N + 16 words a state), couplings and block entries
    # together take at most max(cap, DIMENSION_CAP)^2 words
    N, base = chain.sites, chain.m + chain.n
    sectors = _sectors(chain)
    words = base**N * (4 * N + 16) + N * N + sum(len(s) ** 2 for s in sectors)
    side = math.isqrt(words - 1) + 1
    cap = max(len(s) for s in sectors)
    monkeypatch.setattr(oracle, "DIMENSION_CAP", side)
    oracle.build_hamiltonian(chain, cap=cap)
    monkeypatch.setattr(oracle, "DIMENSION_CAP", side - 1)
    with pytest.raises(InfeasibleSizeError, match="words"):
        oracle.build_hamiltonian(chain, cap=cap)


@pytest.mark.parametrize("chain", [ChainSpec("hs", 20, 1, 0), ChainSpec("hs", 2, 30, 0)])
def test_step_cap(monkeypatch, chain):
    # site pairs (one assembly pass each) and sectors (one eigensolve each)
    # number at most max(cap, DIMENSION_CAP) together
    steps = math.comb(chain.sites, 2) + len(_sectors(chain))
    monkeypatch.setattr(oracle, "DIMENSION_CAP", steps)
    oracle.build_hamiltonian(chain, cap=1 if chain.m == 1 else 2)
    monkeypatch.setattr(oracle, "DIMENSION_CAP", steps - 1)
    with pytest.raises(InfeasibleSizeError, match="sectors"):
        oracle.build_hamiltonian(chain, cap=1 if chain.m == 1 else 2)


@pytest.mark.parametrize(
    "chain,reason",
    [
        # 9.8e7 and 1.1e7 sectors, blocks of at most 2 and 6
        (ChainSpec("hs", 2, 14000, 0), "sectors"),
        (ChainSpec("hs", 3, 400, 0), "sectors"),
        # 5e13 site pairs, refused without the factorial of 10^7
        (ChainSpec("hs", 10**7, 2, 0), "sectors"),
        # 4.2e6 states of 104 words each
        (ChainSpec("hs", 22, 2, 0), "basis arrays take"),
        # blocks of at most C(16, 8) = 12870, but C(32, 16) = 6e8 entries
        (ChainSpec("hs", 16, 2, 0), "occupation blocks take"),
    ],
)
def test_size_caps_at_default_refuse_before_allocating(monkeypatch, chain, reason):
    monkeypatch.setattr(oracle, "coupling_matrix", lambda *a: pytest.fail("assembled"))
    t0 = time.perf_counter()
    with pytest.raises(InfeasibleSizeError, match=reason):
        oracle.build_hamiltonian(chain)
    assert time.perf_counter() - t0 < 1.0


def test_eigenvalues_checks_symmetry():
    with pytest.raises(ValueError):
        oracle.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        oracle.eigenvalues(np.zeros((2, 3)))


def test_eigenvalues_on_known_matrix():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(oracle.eigenvalues(a), [1.0, 3.0], atol=1e-12)


def test_cluster_levels():
    vals = np.array([1.0, 1.0 + 1e-9, 2.0, 2.0, 5.0])
    out = oracle.cluster_levels(vals, tol=1e-7)
    assert [d for _, d in out] == [2, 2, 1]
    assert abs(out[0][0] - 1.0) < 1e-9
    assert oracle.cluster_levels(np.array([])) == []


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


def test_compare_detects_wrong_dispersion():
    report = oracle.compare(ChainSpec("hs", 5, 2, 0), disp=spectrum.PFDispersion(5))
    assert not report.matched


def test_compare_rejects_unsupported_formula_before_diagonalizing(monkeypatch):
    monkeypatch.setattr(oracle, "build_hamiltonian", lambda *a, **k: pytest.fail("diagonalized"))
    with pytest.raises(ValueError, match=r"\(m, n\) = \(1, 1\)"):
        oracle.compare(ChainSpec("elliptic", 8, 2, 0, ksq=0.5))


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
    with pytest.raises(ValueError):
        oracle.formula_dispersion(ChainSpec("elliptic", 6, 2, 0, ksq=0.5))


def test_elliptic_su11_compare():
    report = oracle.compare(ChainSpec("elliptic", 7, 1, 1, ksq=0.5))
    assert report.matched, report.mismatch
