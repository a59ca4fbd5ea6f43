"""Dispersion relations, exact level sets and level-count bounds."""

import operator
import os
import platform
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from motifspectra import motif, oracle, spectrum
from motifspectra.spectrum import (
    FIDispersion,
    HSDispersion,
    NumericDispersion,
    PFDispersion,
    SymbolicAlphaDispersion,
)
import oracles


def test_energy_examples():
    mot = motif.Motif.from_bits((1, 0, 1))
    assert oracles.energy(mot, HSDispersion(4)) == 6
    assert oracles.energy(mot, PFDispersion(4)) == 4
    assert oracles.energy(mot, FIDispersion(4, 3)) == Fraction(18)
    assert oracles.energy(mot, SymbolicAlphaDispersion(4)) == (4, 6)
    empty = motif.Motif.from_bits((0, 0, 0))
    assert oracles.energy(empty, HSDispersion(4)) == 0


def test_ground_state_energy_is_full_band():
    assert oracles.ground_state_energy(HSDispersion(4)) == 10
    assert oracles.ground_state_energy(PFDispersion(5)) == 10
    assert oracles.ground_state_energy(FIDispersion(3, Fraction(5, 2))) == Fraction(19, 2)


def test_fi_alpha_validation():
    with pytest.raises(ValueError):
        FIDispersion(4, 0)
    with pytest.raises(ValueError):
        FIDispersion(4, Fraction(-1, 2))


def test_hs_level_set_small():
    lv = spectrum.level_set(4, 2, 0, HSDispersion(4))
    assert lv == [(0, 5), (3, 6), (4, 4), (6, 1)]
    assert Fraction(2**4, spectrum.level_count(4, 2, 0, HSDispersion(4))) == Fraction(4)


def test_pf_level_set_small():
    lv = spectrum.level_set(4, 2, 0, PFDispersion(4))
    assert lv == [(0, 5), (1, 3), (2, 4), (3, 3), (4, 1)]


def test_degeneracies_always_sum_to_state_count():
    for m, n in ((2, 0), (0, 2), (1, 1), (2, 1)):
        for N in (3, 5, 6):
            lv = spectrum.level_set(N, m, n, HSDispersion(N))
            assert sum(d for _, d in lv) == (m + n) ** N


@pytest.mark.parametrize("make", [HSDispersion, PFDispersion, lambda N: FIDispersion(N, Fraction(5, 2))])
def test_duality_reflects_level_sets(make):
    for m, n in ((2, 0), (3, 0), (2, 1)):
        for N in (3, 5, 8):
            disp = make(N)
            pivot = oracles.ground_state_energy(disp)
            direct = spectrum.level_set(N, m, n, disp)
            # the kernel runs (0, n) as (n, 0), so the dual side comes from the fiber table
            mirrored = sorted((pivot - e, d) for e, d in fiber_level_set(N, n, m, disp))
            assert direct == mirrored


def test_hs_odd_size_energies_are_even():
    for N in (5, 7):
        for e, _ in spectrum.level_set(N, 2, 0, HSDispersion(N)):
            assert e % 2 == 0


def test_sites_mismatch_rejected():
    with pytest.raises(ValueError):
        spectrum.level_set(5, 2, 0, HSDispersion(4))
    with pytest.raises(ValueError):
        oracles.level_count_by_enumeration(5, 2, 0, HSDispersion(4))
    with pytest.raises(ValueError):
        spectrum.level_count_by_enumeration(5, 1, 1, NumericDispersion(4, (1.0, 2.0, 3.0)))


def test_level_count_by_enumeration_takes_float_tables_only():
    with pytest.raises(TypeError, match="level_count"):
        spectrum.level_count_by_enumeration(4, 2, 0, HSDispersion(4))


def test_level_count_by_enumeration_matches_level_set():
    for N in (4, 6, 9):
        for disp in (HSDispersion(N), PFDispersion(N), FIDispersion(N, Fraction(5, 2))):
            for m, n in ((2, 0), (1, 1)):
                by_enum = oracles.level_count_by_enumeration(N, m, n, disp)
                assert by_enum == len(spectrum.level_set(N, m, n, disp))


def test_symbolic_counts_dominate_rational_ones():
    for N in (8, 10, 12):
        sym = oracles.level_count_by_enumeration(N, 2, 0, SymbolicAlphaDispersion(N))
        for alpha in (3, Fraction(5, 2), Fraction(7, 3)):
            rat = oracles.level_count_by_enumeration(N, 2, 0, FIDispersion(N, alpha))
            assert sym >= rat


def test_enumeration_oracle_takes_bands_past_uint32(monkeypatch):
    # motif words come in uint32; a band entry of 2^32 or more, or a negative
    # one, times a uint32 bit raises unless the bit is widened first
    N = 9
    band = [(-1) ** j * (j << 33) + j for j in range(1, N)]
    monkeypatch.setattr(spectrum, "_band", lambda disp: (band, 1, int))
    expect = len({sum(band[j - 1] for j in mt.rapidities()) for mt in oracles.enumerate_motifs(N, 2, 0)})
    assert oracles.level_count_by_enumeration(N, 2, 0, HSDispersion(N)) == expect


def test_symbolic_count_matches_python_fallback():
    N = 9
    fast = oracles.level_count_by_enumeration(N, 2, 0, SymbolicAlphaDispersion(N))
    slow = len(
        {oracles.energy(mt, SymbolicAlphaDispersion(N)) for mt in oracles.enumerate_motifs(N, 2, 0)}
    )
    assert fast == slow


def test_dispersion_from_coupling_recovers_hs():
    import math

    N = 8
    h = [0.0] + [0.5 / math.sin(math.pi * l / N) ** 2 for l in range(1, N)]
    disp = spectrum.dispersion_from_coupling(h)
    for j in range(1, N):
        assert abs(disp.eps(j) - j * (N - j)) < 1e-8


def test_dispersion_from_coupling_rejects_uneven_table():
    with pytest.raises(ValueError):
        spectrum.dispersion_from_coupling([0.0, 1.0, 2.0, 1.5])


def test_dispersion_from_coupling_rejects_non_finite_couplings():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            spectrum.dispersion_from_coupling([0.0, 1.0, bad, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_numeric_dispersion_refuses_non_finite_energies(bad):
    # nan sorts last and would gather every motif that touches it into one level
    disp = NumericDispersion(4, (1.0, bad, 2.0))
    with pytest.raises(ValueError, match="finite"):
        spectrum.level_set(4, 2, 0, disp)
    with pytest.raises(ValueError, match="finite"):
        spectrum.level_count_by_enumeration(4, 2, 0, disp)


def test_numeric_dispersion_merges_close_levels():
    # motif energies 0, 1, 1 + delta, 2 + delta; the round-off width is 32 eps * 3 * 2 = 4.3e-14
    for delta, degeneracies in ((1e-15, [2, 4, 2]), (1e-11, [2, 2, 2, 2])):
        disp = NumericDispersion(3, (1.0, 1.0 + delta))
        assert spectrum.level_count_by_enumeration(3, 1, 1, disp) == len(degeneracies)
        lv = spectrum.level_set(3, 1, 1, disp)
        assert [d for _, d in lv] == degeneracies
        assert lv[1][0] == (np.mean([1.0, 1.0 + delta]) if len(lv) == 3 else 1.0)
    disp = NumericDispersion(3, (1.0, 1.0 + 1e-13))
    with pytest.raises(ValueError, match=r"2\.3\d times the round-off width"):
        spectrum.level_set(3, 1, 1, disp)
    with pytest.raises(ValueError, match=r"2\.3\d times the round-off width"):
        spectrum.level_count_by_enumeration(3, 1, 1, disp)


@st.composite
def level_groups(draw):
    """Sorted float values in well-separated levels of 1 to 40 members, and the level sizes."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    centers = np.cumsum(draw(st.lists(st.floats(1.0, 1e3), min_size=len(sizes), max_size=len(sizes))))
    jitter = st.floats(-1e-15, 1e-15)
    values = [c * (1 + draw(jitter)) for c, k in zip(centers.tolist(), sizes) for _ in range(k)]
    return sorted(values), sizes


@given(level_groups())
@example(([1.0], [1]))
@example(([c * (1 + k * 1e-16) for c, size in ((0.1, 7), (5.3, 8), (9.7, 9)) for k in range(size)], [7, 8, 9]))
def test_level_means_match_per_level_mean(case):
    # the pairwise summation of mean() switches at 8 members
    values, sizes = case
    levels = spectrum._merge_float_levels(np.array(values), np.ones(len(values), dtype=np.int64))
    assert [d for _, d in levels] == sizes
    split = np.split(np.array(values), np.cumsum(sizes)[:-1])
    assert [e for e, _ in levels] == [float(level.mean()) for level in split]


@pytest.mark.parametrize("N,count", [(15, 2187), (16, 4374)])
def test_elliptic_susy_counts_past_twelve_sites(N, count):
    # 2^N over these is 14.98; a relative merge width of 1e-9 gave 17.59 and 16.40
    disp = oracle.formula_dispersion(oracle.ChainSpec("elliptic", N, 1, 1, ksq=0.5))
    assert len(spectrum.level_set(N, 1, 1, disp)) == count == motif.count_half(N, 1, 1)
    assert spectrum.level_count_by_enumeration(N, 1, 1, disp) == count


def test_unresolvable_float_levels_raise():
    # two su(1|1) energies at ksq 0.1 and 13 sites lie 0.19 round-off widths
    # (2e-14 of the scale) apart; two at ksq 0.5 and 20 sites lie 9.7 widths
    # of the 2^19 motifs apart, which would be 12 widths of the 2 * 3^9 half keys
    for N, ksq in ((13, 0.1), (20, 0.5)):
        disp = oracle.formula_dispersion(oracle.ChainSpec("elliptic", N, 1, 1, ksq=ksq))
        with pytest.raises(ValueError, match=r"[0-9.]+ times the round-off width"):
            spectrum.level_count_by_enumeration(N, 1, 1, disp)
        with pytest.raises(ValueError, match=r"[0-9.]+ times the round-off width"):
            spectrum.level_set(N, 1, 1, disp)


@st.composite
def float_cases(draw):
    """(N, m, n, float dispersion) with m + n <= 4, N <= 10; tables hold zeros and negatives, and some are mirrored."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1 if m == 0 else 0, 4 - m))
    N = draw(st.integers(1, 10))
    entry = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e3, 1e3), st.floats(-1e-6, 1e-6))
    table = draw(st.lists(entry, min_size=N - 1, max_size=N - 1))
    if draw(st.booleans()):
        # eps(N - j) = eps(j): level_set folds the motifs to their half entries
        table = table[: N // 2] + table[: (N - 1) // 2][::-1]
    return N, m, n, NumericDispersion(N, tuple(table))


@given(float_cases())
@example((10, 1, 1, NumericDispersion(10, (0.1, -0.2, 0.0, 0.3, -0.0, 1e-12, -1.5, 2.0, 0.1))))
@example((3, 1, 1, NumericDispersion(3, (1.0, 1.0 + 1e-12))))
@example((10, 1, 1, NumericDispersion(10, (0.1, -0.2, 0.0, 1e-12, 2.0, 1e-12, -0.0, -0.2, 0.1))))
def test_word_energies_match_energy(case):
    N, m, n, disp = case
    words = np.concatenate(list(motif._valid_word_blocks(N, m, n)))
    got = spectrum._word_energies(words, N, disp.table).tolist()
    assert got == [oracles.energy(motif.Motif(w, N), disp) for w in words.tolist()]

    def levels(path):
        # both paths give one answer, or both find a gap they cannot resolve
        try:
            return path()
        except ValueError as exc:
            assert "round-off width" in str(exc)
            return None

    by_kernel = levels(lambda: spectrum.level_set(N, m, n, disp))
    by_sweep = levels(lambda: spectrum.level_count_by_enumeration(N, m, n, disp))
    assert (None if by_kernel is None else len(by_kernel)) == by_sweep
    if by_kernel is None:
        return
    # the fiber table's assembly: each motif's energy in rapidity order, weighted by its dimension
    fibers = oracles.fiber_table(N, m, n)
    energies = np.array([oracles.energy(motif.Motif(w, N), disp) for w in fibers])
    want = spectrum._merge_float_levels(energies, np.array(list(fibers.values())))
    assert [d for _, d in by_kernel] == [d for _, d in want]
    width = spectrum._level_width(energies)
    assert all(abs(e - f) <= width for (e, _), (f, _) in zip(by_kernel, want))


MIRRORED = (1.0, 2.5, 4.0, 7.0, 4.0, 2.5, 1.0)


@pytest.mark.parametrize(
    "m,n,table,held",
    [
        (1, 1, MIRRORED, 2 * 3**3),  # half keys, fewer than the 2^7 motifs
        (2, 0, MIRRORED, 34),  # motifs, fewer than the half keys
        (2, 0, tuple(float(j) for j in range(1, 8)), 34),  # motifs, fewer than the 2^7 words
        (1, 1, tuple(float(j) for j in range(1, 8)), 2**7),  # words, one per motif
    ],
)
def test_float_cap_charges_what_the_kernel_holds(m, n, table, held, monkeypatch):
    N, disp = 8, NumericDispersion(8, table)
    band, _, _ = spectrum._band(disp)
    assert min(sum(band) + 1, motif.count(N, m, n)) == held
    monkeypatch.setattr(spectrum, "_TABLE_CAP", held)
    assert sum(d for _, d in spectrum.level_set(N, m, n, disp)) == (m + n) ** N
    monkeypatch.setattr(spectrum, "_TABLE_CAP", held - 1)
    refusal = f"min(band sum + 1, motifs) = {held} float terms exceed cap {held - 1}"
    with pytest.raises(motif.InfeasibleSizeError, match=re.escape(refusal)):
        spectrum.level_set(N, m, n, disp)


def test_float_cap_admits_a_wide_band_of_few_motifs():
    # su(1|0) has one motif, the empty one, under a word band of 2^29 slots;
    # the fiber table's cap on (m+n)^N = 1 admitted it too
    N = 30
    disp = NumericDispersion(N, tuple(float(j) for j in range(1, N)))
    assert sum(spectrum._band(disp)[0]) + 1 > spectrum._TABLE_CAP
    assert spectrum.level_set(N, 1, 0, disp) == [(0.0, 1)]
    # at 100 sites both bands sum past int64, and su(0|1)'s one motif sets every bit
    for table in (tuple(float(j) for j in range(1, 100)), tuple(float(min(j, 100 - j)) for j in range(1, 100))):
        disp = NumericDispersion(100, table)
        assert spectrum.level_set(100, 1, 0, disp) == [(0.0, 1)]
        assert spectrum.level_set(100, 0, 1, disp) == [(sum(table), 1)]


def test_level_bounds_examples():
    assert spectrum.level_bounds(PFDispersion(10), 2, 0) == 26
    assert spectrum.level_bounds(PFDispersion(9), 2, 0) == 21
    assert spectrum.level_bounds(HSDispersion(4), 2, 0) == 7
    assert spectrum.level_bounds(HSDispersion(5), 2, 0) == 6
    assert spectrum.level_bounds(FIDispersion(4, 3), 2, 0) == 19
    assert spectrum.level_bounds(SymbolicAlphaDispersion(4), 2, 0) == 4**5 // 6


def test_level_bounds_dominate_counts():
    for N in (6, 9, 12):
        for disp in (
            HSDispersion(N),
            PFDispersion(N),
            FIDispersion(N, 3),
            FIDispersion(N, Fraction(5, 2)),
            SymbolicAlphaDispersion(N),
        ):
            count = oracles.level_count_by_enumeration(N, 2, 0, disp)
            assert count <= spectrum.level_bounds(disp, 2, 0)
            assert count <= spectrum.level_bounds(disp, 0, 2)


@pytest.mark.parametrize("m, n", [(2, 0), (0, 2)])
def test_level_bounds_dominate_level_counts_from_one_site(m, n):
    makers = [HSDispersion, PFDispersion, SymbolicAlphaDispersion]
    makers += [lambda N, a=a: FIDispersion(N, a) for a in (Fraction(5, 2), 3, Fraction(1, 3), Fraction(7, 3))]
    for N in range(1, 31):
        for make in makers:
            disp = make(N)
            assert spectrum.level_count(N, m, n, disp) <= spectrum.level_bounds(disp, m, n)


def test_pf_bound_is_sharp():
    for N in (5, 8, 11):
        count = oracles.level_count_by_enumeration(N, 2, 0, PFDispersion(N))
        assert count == spectrum.level_bounds(PFDispersion(N), 2, 0)


def test_level_bounds_need_two_state_context():
    with pytest.raises(ValueError):
        spectrum.level_bounds(HSDispersion(6), 3, 0)
    with pytest.raises(ValueError):
        spectrum.level_bounds(HSDispersion(6), 1, 1)


def test_level_count_for_alpha_beyond_int64():
    disp = FIDispersion(6, Fraction(10**18, 7))  # scaled energies overflow int64
    plain = {oracles.energy(mt, disp) for mt in oracles.enumerate_motifs(6, 2, 0)}
    assert oracles.level_count_by_enumeration(6, 2, 0, disp) == len(plain)


def polynomial_terms(N, m, n, band) -> list[tuple]:
    """The (exponent, coefficient) pairs of `_level_polynomial`, in its order, folded to Python ints."""
    exponents, limbs = spectrum._level_polynomial(N, m, n, band)
    return list(zip(exponents.tolist(), spectrum._limb_ints(limbs)))


def sparse_terms(N, m, n, band) -> list[tuple]:
    """The (exponent, total) pairs of `_sparse_level_polynomial`, in its order."""
    exponents, totals = spectrum._sparse_level_polynomial(N, m, n, band)
    return list(zip(exponents.tolist(), totals.tolist()))


@st.composite
def exact_cases(draw):
    """(N, m, n, dispersion) with m + n <= 4 and N <= 8, over every exact band."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1 if m == 0 else 0, 4 - m))
    N = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("hs", "pf", "fi", "symbolic")))
    if kind == "hs":
        disp = HSDispersion(N)
    elif kind == "pf":
        disp = PFDispersion(N)
    elif kind == "fi":
        disp = FIDispersion(N, draw(st.fractions(Fraction(1, 4), 4, max_denominator=4)))
    else:
        disp = SymbolicAlphaDispersion(N)
    return N, m, n, disp


# wide, sparse bands: a large alpha numerator or denominator, and a band whose
# scaled sums overflow int64
WIDE_BANDS = [
    (10, 0, 2, FIDispersion(10, 10**9)),
    (9, 2, 1, FIDispersion(9, Fraction(10**9 + 7, 1000))),
    (8, 1, 2, FIDispersion(8, Fraction(3183, 10000))),
    (6, 2, 0, FIDispersion(6, Fraction(10**18, 7))),
]


@given(exact_cases())
@example(WIDE_BANDS[0])
@example(WIDE_BANDS[1])
@example(WIDE_BANDS[2])
@example(WIDE_BANDS[3])
def test_kernel_matches_enumerated_partition(case):
    N, m, n, disp = case
    band, scale, decode = spectrum._band(disp)
    got = dict(polynomial_terms(N, m, n, band))
    want, want_scale = oracles.enumerated_partition(N, m, n, disp)
    if isinstance(disp, SymbolicAlphaDispersion):
        got = {decode(e): c for e, c in got.items()}
    assert got == want
    assert scale == want_scale


@given(st.integers(2, 60), st.integers(1, 10**6), st.integers(1, 10**6))
def test_fi_band_is_scaled_dispersion(N, p, q):
    disp = FIDispersion(N, Fraction(p, q))
    band, scale, _ = spectrum._band(disp)
    assert scale == disp.alpha.denominator
    assert band == [int(scale * disp.eps(j)) for j in range(1, N)]


def fiber_level_set(N, m, n, disp):
    """Reference: every motif's energy weighted by its fiber dimension."""
    levels: dict = {}
    for word, dim in oracles.fiber_table(N, m, n).items():
        e = oracles.energy(motif.Motif(word, N), disp)
        levels[e] = levels.get(e, 0) + dim
    return sorted(levels.items())


@given(exact_cases())
@example((8, 2, 0, FIDispersion(8, Fraction(5, 2))))
@example(WIDE_BANDS[0])
@example(WIDE_BANDS[3])
def test_level_set_matches_fiber_assembly(case):
    N, m, n, disp = case
    got = spectrum.level_set(N, m, n, disp)
    want = fiber_level_set(N, m, n, disp)
    assert got == want
    assert [(type(e), type(d)) for e, d in got] == [(type(e), type(d)) for e, d in want]


# every wide band but alpha = 3183/10000 sums past the packed-row bound, so
# level_count and _level_polynomial take the sparse polynomial kernel
FALLBACK_BANDS = [WIDE_BANDS[0], WIDE_BANDS[1], WIDE_BANDS[3]]


@given(exact_cases())
@example(WIDE_BANDS[0])
@example(WIDE_BANDS[1])
@example(WIDE_BANDS[2])
@example(WIDE_BANDS[3])
def test_level_count_matches_polynomial_and_enumeration(case):
    N, m, n, disp = case
    band, _, _ = spectrum._band(disp)
    count = spectrum.level_count(N, m, n, disp)
    assert count == len(polynomial_terms(N, m, n, band))
    assert count == oracles.level_count_by_enumeration(N, m, n, disp)


@given(exact_cases())
@example(WIDE_BANDS[0])
@example(WIDE_BANDS[1])
@example(WIDE_BANDS[2])
@example(WIDE_BANDS[3])
@example((66, 0, 2, HSDispersion(66)))  # 9-byte slots: read back slot by slot
@example((40, 2, 1, HSDispersion(40)))  # 3^40 < 2^64: 8-byte slots through uint64
@example((30, 0, 2, FIDispersion(30, Fraction(5, 2))))
@example((200, 0, 2, PFDispersion(200)))  # 26-byte slots: four limbs
@example((12, 0, 1, HSDispersion(12)))  # pure-fermionic contexts run reflected from (n, 0)
@example((20, 0, 3, HSDispersion(20)))
@example((14, 0, 4, FIDispersion(14, Fraction(5, 2))))
@example((20, 0, 2, SymbolicAlphaDispersion(20)))
def test_packed_kernel_matches_sparse_kernel(case):
    N, m, n, disp = case
    band, _, _ = spectrum._band(disp)
    sparse = sparse_terms(N, m, n, band)
    assert polynomial_terms(N, m, n, band) == sparse
    assert spectrum.level_count(N, m, n, disp) == len(sparse)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fermionic_context_runs_its_bosonic_dual(n, monkeypatch):
    N, disp = 9, HSDispersion(9)
    band, _, _ = spectrum._band(disp)
    calls = []
    lanes, bits = spectrum._transfer_lanes, spectrum._packed_rows
    monkeypatch.setattr(spectrum, "_transfer_lanes", lambda *a: calls.append(a[1]) or lanes(*a))
    monkeypatch.setattr(spectrum, "_packed_rows", lambda *a: calls.append(a[1]) or bits(*a))
    spectrum._level_polynomial(N, 0, n, band)
    assert calls == [spectrum._transfer_cuts(N, n, 0)]
    calls.clear()
    spectrum.level_count(N, 0, n, disp)
    assert calls == [spectrum._transfer_cuts(N, n, 0)]


def test_fixed_examples_take_the_packed_path():
    assert spectrum._slot_bytes(66, 0, 2) == 9
    assert spectrum._slot_bytes(40, 2, 1) == 8
    assert spectrum._slot_bytes(200, 0, 2) == 26
    examples = ((66, 0, 2, HSDispersion(66)), (40, 2, 1, HSDispersion(40)), (200, 0, 2, PFDispersion(200)))
    for N, m, n, disp in examples:
        band, _, _ = spectrum._band(disp)
        assert (sum(band) + 1) * 8 * spectrum._slot_bytes(N, m, n) <= spectrum._PACKED_BOUND


def kernel_cuts(N, m, n):
    """The cuts the packed kernels run: those of (n, 0) for a context with m = 0."""
    return spectrum._transfer_cuts(N, m, n) if m else spectrum._transfer_cuts(N, n, 0)


def slot_values(total: int, width: int, slots: int) -> list[int]:
    """The `width`-bit slots 0..slots-1 of a packed row, by whole bytes."""
    size = -(-width // 8)
    assert width == 8 * size
    raw = total.to_bytes(slots * size, "little")
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


def lane_values(total: np.ndarray, lane_bits: int) -> list[int]:
    """Each slot's count from `_transfer_lanes`' lanes: lane l holds its bits from lane_bits * l up."""
    values = [0] * total.shape[1]
    for lane in total[::-1].tolist():
        values = [(v << lane_bits) + x for v, x in zip(values, lane)]
    return values


def reference_terms(N, m, n, band) -> list[tuple]:
    """(exponent, coefficient) pairs of the level polynomial from the `+` rows of `oracles.packed_rows`."""
    width = 8 * spectrum._slot_bytes(N, m, n)
    total = oracles.packed_rows(band, kernel_cuts(N, m, n), width, operator.add)
    coefficients = slot_values(total, width, sum(band) + 1)
    if not m:
        coefficients.reverse()  # slot E of the dual holds exponent sum(band) - E
    return [(e, c) for e, c in enumerate(coefficients) if c]


@st.composite
def lane_cases(draw):
    """(N, m, n, band) over every context with m + n <= 5 and N <= 10, bands with zero entries."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1 if m == 0 else 0, 5 - m))
    N = draw(st.integers(1, 10))
    return N, m, n, draw(st.lists(st.integers(0, 7), min_size=N - 1, max_size=N - 1))


@given(lane_cases())
@example((10, 5, 0, [0] * 9))
@example((10, 0, 5, [7, 0, 7, 0, 7, 0, 7, 0, 7]))
@example((10, 2, 3, [1, 0, 2, 0, 3, 0, 4, 0, 5]))
def test_lane_kernel_matches_reference(case):
    N, m, n, band = case
    assert polynomial_terms(N, m, n, band) == reference_terms(N, m, n, band)


@given(lane_cases())
@example((10, 2, 0, [1, 0, 2, 6, 3, 0, 5, 7, 4]))  # 0 <= e < chunk, with rows of several chunks
@example((10, 1, 2, [7, 7, 0, 1, 7, 7, 0, 1, 7]))
@example((10, 0, 3, [0, 7, 7, 7, 0, 7, 7, 7, 0]))
def test_lane_kernel_matches_reference_in_small_chunks(case):
    N, m, n, band = case
    # hypothesis runs many cases per fixture, so the patch is made here
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_CHUNK", 7)
        assert polynomial_terms(N, m, n, band) == reference_terms(N, m, n, band)


@given(lane_cases())
@example((10, 1, 0, [7] * 9))  # one row: the empty motif alone, reach 0
@example((10, 0, 1, [7] * 9))  # its dual: the full motif, at the band sum
@example((10, 3, 0, [0] * 9))
@example((10, 0, 2, [7, 0, 7, 0, 7, 0, 7, 0, 7]))
@example((10, 2, 3, [1, 0, 2, 0, 3, 0, 4, 0, 5]))  # mixed: the band sum
def test_reach_is_the_highest_motif_energy(case):
    N, m, n, band = case
    cut = kernel_cuts(N, m, n)
    reach = spectrum._reaches(band, cut)[-1]
    assert reach == spectrum._packed_rows(band, cut).bit_length() - 1
    disp = SimpleNamespace(sites=N, eps=lambda j: band[j - 1])
    # the kernel's context: (n, 0) for m = 0, whose motifs are the complements of (0, n)'s
    kernel = (m, n) if m else (n, 0)
    assert reach == max(oracles.energy(mt, disp) for mt in oracles.enumerate_motifs(N, *kernel))
    # the polynomial spans the context's own energies, read back from the reach
    energies = [oracles.energy(mt, disp) for mt in oracles.enumerate_motifs(N, m, n)]
    exponents = [e for e, _ in polynomial_terms(N, m, n, band)]
    assert (exponents[0], exponents[-1]) == (min(energies), max(energies))


LANE_EDGES = [
    (63, 2, 0),  # 2^63: one uint64 lane
    (64, 2, 0),  # 2^64: two lanes, the last sum the first past one lane
    (65, 2, 0),
    (32, 4, 0),  # 4^32 = 2^64
    (64, 1, 1),  # a fermionic row on two lanes
    (21, 8, 0),  # 8^21 = 2^63 with eight rows
    (21, 3, 5),
    (21, 0, 8),
]


@pytest.mark.parametrize(
    "band_of", [lambda N: spectrum._band(HSDispersion(N))[0], lambda N: [0] * (N - 1)], ids=["hs", "zero"]
)
@pytest.mark.parametrize("N,m,n", LANE_EDGES)
def test_lane_kernel_at_the_lane_edges(N, m, n, band_of):
    band = band_of(N)
    terms = polynomial_terms(N, m, n, band)
    assert terms == reference_terms(N, m, n, band)
    assert sum(c for _, c in terms) == (m + n) ** N


def test_lane_kernel_carries_at_the_packed_edge():
    # hs su(0|2) at N = 118: two 60-bit lanes from site 64 on, carried every four sites
    band = spectrum._band(HSDispersion(118))[0]
    assert spectrum._lane_layout(2**118, 2)[1:] == (2, 60)
    assert polynomial_terms(118, 0, 2, band) == reference_terms(118, 0, 2, band)


@pytest.mark.parametrize(
    "count,rows,layout",
    [
        (2**8 - 1, 2, (np.uint8, 1, 64)),
        (2**8, 2, (np.uint16, 1, 64)),
        (2**63, 8, (np.uint64, 1, 64)),
        (2**64, 4, (np.uint64, 2, 33)),
        (2**118, 2, (np.uint64, 2, 60)),
        (2**200, 2, (np.uint64, 4, 51)),
        (32**40, 32, (np.uint64, 4, 51)),  # h = 6 bits of headroom for 32 rows
    ],
)
def test_lane_layout(count, rows, layout):
    assert spectrum._lane_layout(count, rows) == layout


@st.composite
def transfer_steps(draw):
    """(band, cut, count) over every context with m + n <= 5 and N <= 10, as the packed kernels run it."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1 if m == 0 else 0, 5 - m))
    N = draw(st.integers(1, 10))
    band = draw(st.lists(st.integers(0, 7), min_size=N - 1, max_size=N - 1))
    return band, kernel_cuts(N, m, n), (m + n) ** N


@given(transfer_steps())
@example(([0, 0, 3], [1, 2], 8))
@example(([5, 0, 7, 0], [1, 2, 3], 3**5))
def test_packed_step_matches_reference(case):
    band, cut, count = case
    reaches = spectrum._reaches(band, cut)
    total, lane_bits = spectrum._transfer_lanes(band, cut, count, reaches)
    width = 8 * ((count.bit_length() + 7) // 8)
    reference = slot_values(oracles.packed_rows(band, cut, width, operator.add), width, sum(band) + 1)
    # the lanes hold the slots up to the reach, and every reference slot past it is empty
    slots = reaches[-1] + 1
    assert total.shape[1] == slots
    assert lane_values(total, lane_bits) == reference[:slots]
    assert not any(reference[slots:])
    assert spectrum._packed_rows(band, cut) == oracles.packed_rows(band, cut, 1, operator.or_)


@pytest.mark.parametrize("m,n", [(0, 2), (2, 0)])
@pytest.mark.parametrize("op", [operator.or_])
def test_packed_step_makes_two_op_calls_per_site(m, n, op, monkeypatch):
    N = 12
    band, _, _ = spectrum._band(HSDispersion(N))
    cut = spectrum._transfer_cuts(N, m, n)
    calls = []

    def counting(a, b):
        calls.append(1)
        return op(a, b)

    monkeypatch.setattr(spectrum, "operator", SimpleNamespace(or_=counting))
    assert spectrum._packed_rows(band, cut) == oracles.packed_rows(band, cut, 1, op)
    assert len(calls) == 2 * (N - 1) + 1
    calls.clear()
    oracles.packed_rows(band, cut, 1, counting)
    assert len(calls) == 6 * (N - 1) + 1


@pytest.fixture
def sparse_calls(monkeypatch):
    """Arguments of every call to the sparse polynomial kernel."""
    calls = []
    kernel = spectrum._sparse_level_polynomial
    monkeypatch.setattr(spectrum, "_sparse_level_polynomial", lambda *a: calls.append(a) or kernel(*a))
    return calls


@pytest.mark.parametrize("case", FALLBACK_BANDS)
def test_level_count_of_wide_band_takes_fallback(case, sparse_calls):
    N, m, n, disp = case
    band, _, _ = spectrum._band(disp)
    assert sum(band) + 1 > spectrum._PACKED_BOUND
    plain = {oracles.energy(mt, disp) for mt in oracles.enumerate_motifs(N, m, n)}
    assert spectrum.level_count(N, m, n, disp) == len(plain)
    assert len(sparse_calls) == 1
    assert len(polynomial_terms(N, m, n, band)) == len(plain)
    assert len(sparse_calls) == 2


def test_packed_bound_edge(sparse_calls, monkeypatch):
    N, m, n, disp = 9, 2, 1, FIDispersion(9, Fraction(5, 2))
    band, _, _ = spectrum._band(disp)
    slots = sum(band) + 1
    width = 8 * spectrum._slot_bytes(N, m, n)
    monkeypatch.setattr(spectrum, "_PACKED_BOUND", slots)
    count_at = spectrum.level_count(N, m, n, disp)
    assert sparse_calls == []
    monkeypatch.setattr(spectrum, "_PACKED_BOUND", slots - 1)
    count_past = spectrum.level_count(N, m, n, disp)
    assert len(sparse_calls) == 1
    assert count_at == count_past == oracles.level_count_by_enumeration(N, m, n, disp)
    monkeypatch.setattr(spectrum, "_PACKED_BOUND", slots * width)
    poly_at = dict(polynomial_terms(N, m, n, band))
    assert len(sparse_calls) == 1
    monkeypatch.setattr(spectrum, "_PACKED_BOUND", slots * width - 1)
    poly_past = dict(polynomial_terms(N, m, n, band))
    assert len(sparse_calls) == 2
    assert poly_at == poly_past == oracles.enumerated_partition(N, m, n, disp)[0]


def reach_charge(N, m, n, band) -> int:
    """The bits `_PACKED_BOUND` charges a polynomial's rows: reach + 1 slots of `_slot_bytes`."""
    return (spectrum._reaches(band, kernel_cuts(N, m, n))[-1] + 1) * 8 * spectrum._slot_bytes(N, m, n)


@pytest.mark.parametrize("m,n,last", [(2, 0, 140), (0, 2, 140), (3, 0, 116), (0, 3, 116)])
def test_packed_edge_of_pure_contexts(m, n, last):
    # arithmetic only: past the edge the sparse kernel takes seconds.  The band
    # sum's charge stopped hs su(2) at N = 118 and su(3) at N = 105
    band_of = lambda N: spectrum._band(HSDispersion(N))[0]
    assert reach_charge(last, m, n, band_of(last)) <= spectrum._PACKED_BOUND
    assert reach_charge(last + 1, m, n, band_of(last + 1)) > spectrum._PACKED_BOUND


@pytest.mark.parametrize("m,n", [(2, 0), (0, 2), (3, 0), (0, 3)])
def test_packed_bound_charges_the_reach(m, n, sparse_calls, monkeypatch):
    N, disp = 12, HSDispersion(12)
    band, _, _ = spectrum._band(disp)
    charge = reach_charge(N, m, n, band)
    assert charge < (sum(band) + 1) * 8 * spectrum._slot_bytes(N, m, n)
    monkeypatch.setattr(spectrum, "_PACKED_BOUND", charge)
    at = polynomial_terms(N, m, n, band)
    assert sparse_calls == []
    monkeypatch.setattr(spectrum, "_PACKED_BOUND", charge - 1)
    past = polynomial_terms(N, m, n, band)
    assert len(sparse_calls) == 1
    assert dict(at) == dict(past) == oracles.enumerated_partition(N, m, n, disp)[0]


@pytest.mark.parametrize("entry", [2**61, 2**62])
def test_dual_exponents_past_int64_take_the_sparse_kernel(entry, sparse_calls):
    # su(0|1)'s one motif takes every rapidity: its dual reaches 0, and the
    # read-back puts the band sum, 3 * entry, on the int64 edge
    exponents, limbs = spectrum._level_polynomial(4, 0, 1, [entry] * 3)
    assert exponents.tolist() == [3 * entry]
    assert spectrum._limb_ints(limbs) == [1]
    assert len(sparse_calls) == (3 * entry > 2**63 - 1)


def test_symbolic_count_past_old_bitset_bound_stays_packed(sparse_calls):
    t0 = time.monotonic()
    assert spectrum.level_count(41, 2, 0, SymbolicAlphaDispersion(41)) == 380814
    assert time.monotonic() - t0 < 0.5
    assert sparse_calls == []


def test_level_count_rejects_bad_input():
    with pytest.raises(ValueError):
        spectrum.level_count(5, 2, 0, HSDispersion(4))
    with pytest.raises(ValueError):
        spectrum.level_count(4, 0, 0, HSDispersion(4))
    with pytest.raises(TypeError):
        spectrum.level_count(2, 2, 0, NumericDispersion(2, (1.0,)))


@pytest.mark.parametrize(
    "band_of", [lambda N: spectrum._band(PFDispersion(N))[0], lambda N: [0] * (N - 1)], ids=["pf", "zero"]
)
@pytest.mark.parametrize("m,n", [(8, 0), (3, 5), (0, 8)])
@pytest.mark.parametrize("N", [20, 21])
def test_sparse_kernel_at_the_int64_edge(N, m, n, band_of):
    # 8^20 = 2^60 keeps the counts in int64, 8^21 = 2^63 needs object; the
    # zero band puts every configuration in one coefficient, 2^63 at N = 21
    band = band_of(N)
    exponents, totals = spectrum._sparse_level_polynomial(N, m, n, band)
    assert totals.dtype == (np.int64 if N == 20 else object)
    assert polynomial_terms(N, m, n, band) == list(zip(exponents.tolist(), totals.tolist()))
    assert sum(totals.tolist()) == (m + n) ** N
    # an object array's totals are Python ints, not wrapped int64
    assert {type(c) for c in totals.tolist()} == {int}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the fault count is glibc's heap behaviour")
def test_packed_kernel_reuses_heap_pages():
    # a fresh interpreter, whose heap has never held a block of the rows'
    # size: the lane rows are allocated once and updated in place (3.8k faults)
    code = (
        "import resource\n"
        "from motifspectra import spectrum\n"
        "band = spectrum._band(spectrum.HSDispersion(100))[0]\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "spectrum._level_polynomial(100, 0, 2, band)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) < 6000


# A fresh interpreter's own peak RSS in kB.  VmHWM, not ru_maxrss: a spawned
# child's ru_maxrss starts at the spawning process's peak, so under pytest it
# hid a call's whole growth.
_PEAK_KB = (
    "def peak_kb():\n"
    "    return next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
def test_lane_kernel_keeps_narrow_rows_at_the_admission_edge():
    # fi alpha 83880, su(0|2), N = 10: the dual reaches 2097140, so its rows
    # hold 2097141 slots, just inside the packed bound (alpha 83881 is past
    # it).  Counts up to 2^10 run on uint16 lanes, which add 7.9 MB to a fresh
    # interpreter's peak RSS; uint64 lanes add 31.7 MB.  The bound, 13 MB,
    # leaves the narrow lanes a margin of 5 MB and catches uint64 lanes.
    code = _PEAK_KB + (
        "from motifspectra import spectrum\n"
        "def reach(alpha):\n"
        "    band = spectrum._band(spectrum.FIDispersion(10, alpha))[0]\n"
        "    return spectrum._reaches(band, spectrum._transfer_cuts(10, 2, 0))[-1]\n"
        "slot_bits = 8 * spectrum._slot_bytes(10, 0, 2)\n"
        "assert (reach(83880) + 1) * slot_bits <= spectrum._PACKED_BOUND < (reach(83881) + 1) * slot_bits\n"
        "band = spectrum._band(spectrum.FIDispersion(10, 83880))[0]\n"
        "before = peak_kb()\n"
        "spectrum._level_polynomial(10, 0, 2, band)\n"
        "print(peak_kb() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) <= 13 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
def test_float_level_set_reads_the_fiber_table_as_arrays():
    # elliptic su(1|1), ksq 0, N = 20: 2^19 motifs.  Reading the fiber
    # table's two int64 columns added about 37 MB to a fresh interpreter's
    # peak RSS, and a {word: dim} dict of the table 73 MB; the kernel over the
    # mirrored band holds 2 * 3^9 half keys and adds about 3 MB
    code = _PEAK_KB + (
        "from motifspectra import oracle, spectrum\n"
        "disp = oracle.formula_dispersion(oracle.ChainSpec('elliptic', 20, 1, 1, ksq=0.0))\n"
        "before = peak_kb()\n"
        "levels = spectrum.level_set(20, 1, 1, disp)\n"
        "assert sum(d for _, d in levels) == 2**20\n"
        "print(peak_kb() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) <= 55 * 1024


def test_float_level_set_sums_degeneracies_past_64_bits():
    # su(4|4) at 22 sites: 8^22 = 2^66 states over 2 * 3^10 half keys
    N = 22
    disp = NumericDispersion(N, tuple(min(j, N - j) ** 1.5 for j in range(1, N)))
    levels = spectrum.level_set(N, 4, 4, disp)
    assert sum(d for _, d in levels) == 8**N
    assert {type(d) for _, d in levels} == {int}


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
def test_float_level_set_folds_its_mirrored_band():
    # elliptic su(1|1), ksq 0, N = 24: the kernel folds the 2^23 motifs to
    # 2 * 3^11 half keys and adds about 20 MB to a fresh interpreter's peak
    # RSS; the fiber table's 2^23 rows added 561 MB
    code = _PEAK_KB + (
        "from motifspectra import oracle, spectrum\n"
        "disp = oracle.formula_dispersion(oracle.ChainSpec('elliptic', 24, 1, 1, ksq=0.0))\n"
        "before = peak_kb()\n"
        "levels = spectrum.level_set(24, 1, 1, disp)\n"
        "assert sum(d for _, d in levels) == 2**24\n"
        "print(peak_kb() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) <= 40 * 1024
