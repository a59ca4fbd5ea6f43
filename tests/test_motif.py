"""Motif validity, enumeration, counting and half-motif reductions."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from motifspectra import fibnum, motif, spectrum


def _is_valid(bits, m, n):
    return oracles.valid_word(motif.Motif.from_bits(bits).word, len(bits), m, n)


def test_validity_examples():
    assert _is_valid((1, 0, 1), 2, 0)
    assert not _is_valid((1, 1, 0), 2, 0)
    assert _is_valid((1, 1, 0), 3, 0)
    assert not _is_valid((1, 1, 1), 3, 0)
    # the zero-run rule is the mirror constraint
    assert not _is_valid((0, 0, 1), 0, 2)
    assert _is_valid((0, 1, 0), 0, 3)
    # mixed contexts accept everything
    assert _is_valid((1, 1, 1, 0, 0, 0), 1, 1)


def test_validity_matches_word_form():
    for m, n in ((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 4), (1, 1), (2, 1)):
        # the sweep's block fold, in buffers reused across blocks of 8 candidates
        with mock.patch.object(motif, "_BLOCK", 8):
            swept = set(np.concatenate(list(motif._valid_word_blocks(7, m, n))).tolist())
        for bits in product((0, 1), repeat=6):
            text = "".join(map(str, bits))
            # no run of m 1s, or of n 0s, in a pure context
            want = bool(m and n) or ("1" * m not in text if m else "0" * n not in text)
            word = motif.Motif.from_bits(bits).word
            assert oracles.valid_word(word, 6, m, n) == (word in swept) == want, (text, m, n)


@pytest.mark.parametrize("context", [(m, 0) for m in range(1, 5)] + [(0, n) for n in range(1, 5)])
@pytest.mark.parametrize("block", [3, 1 << 16])
def test_sweep_matches_valid_word(context, block):
    m, n = context
    with mock.patch.object(motif, "_BLOCK", block):
        for length in range(13):
            words = np.concatenate(list(motif._valid_word_blocks(length + 1, m, n))).tolist()
            assert words == [w for w in range(1 << length) if oracles.valid_word(w, length, m, n)], length


def test_motif_accessors():
    mot = motif.Motif.from_bits((0, 0, 1, 1, 0, 1))
    assert mot.sites == 7
    assert mot.length == 6
    assert str(mot) == "001101"
    assert mot.rapidities() == (3, 4, 6)
    assert mot.word.bit_count() == 3
    assert str(oracles.complement(mot)) == "110010"


def test_str_lists_the_bits():
    for N in range(1, 13):
        for word in range(1 << (N - 1)):
            mot = motif.Motif(word, N)
            ones = set(mot.rapidities())
            assert str(mot) == "".join("1" if i in ones else "0" for i in range(1, N))


def test_enumeration_is_lexicographic():
    mots = list(oracles.enumerate_motifs(6, 2, 0))
    words = [mt.word for mt in mots]
    assert words == sorted(words)
    bit_rows = [str(mt) for mt in mots]
    assert bit_rows == sorted(bit_rows)
    assert all(oracles.valid_word(mt.word, mt.length, 2, 0) for mt in mots)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_count_equals_mnacci(m):
    for N in range(1, 19):
        assert motif.count(N, m, 0) == fibnum.fib(m, N + m - 1)


def test_count_cross_checks():
    for m, n in ((2, 0), (3, 0), (5, 0), (0, 2), (0, 3), (1, 1), (2, 1), (2, 2)):
        for N in range(1, 15):
            assert motif.count(N, m, n) == motif.count_by_enumeration(N, m, n)


def test_count_mixed_is_free():
    for N in range(1, 20):
        assert motif.count(N, 1, 1) == 2 ** (N - 1)
        assert motif.count(N, 3, 2) == 2 ** (N - 1)


def test_bad_context_rejected():
    with pytest.raises(ValueError):
        motif.count(5, 0, 0)
    with pytest.raises(ValueError):
        motif.count(5, -1, 2)
    with pytest.raises(ValueError):
        motif.count(0, 2, 0)


def test_dual_is_involution_and_bijection():
    for N in range(2, 15):
        valid_m = {mt.word for mt in oracles.enumerate_motifs(N, 2, 0)}
        valid_n = {mt.word for mt in oracles.enumerate_motifs(N, 0, 2)}
        assert len(valid_m) == len(valid_n)
        image = set()
        for word in valid_m:
            mt = motif.Motif(word, N)
            dd = oracles.complement(oracles.complement(mt))
            assert dd == mt
            image.add(oracles.complement(mt).word)
        assert image == valid_n


def test_half_entries():
    mot = motif.Motif.from_bits((1, 0, 0, 1, 0, 1))  # N = 7, pairs (d1,d6) (d2,d5) (d3,d4)
    assert oracles.half(mot) == (2, 0, 1)
    even = motif.Motif.from_bits((1, 0, 1, 0, 0))  # N = 6, middle d3 kept
    assert oracles.half(even) == (1, 0, 1)


def _unconstrained_pair_vectors(r):
    """Half vectors whose 2 entries only neighbor 0 entries."""
    for v in product((0, 1, 2), repeat=r):
        if all(
            not (v[i] == 2 and v[i + 1] >= 1) and not (v[i + 1] == 2 and v[i] >= 1)
            for i in range(r - 1)
        ):
            yield v


def _brute_mu(r):
    return sum(1 for v in _unconstrained_pair_vectors(r) if v[-1] != 2)


def _brute_mu_tilde(r):
    total = 0
    for v in _unconstrained_pair_vectors(r):
        last = v[-1]
        if last == 0 or (last == 1 and (r == 1 or v[-2] == 0)):
            total += 1
    return total


def test_half_count_series_against_characterization():
    odd, even = oracles.su2_half_count_series(8)
    assert odd == [_brute_mu(r) for r in range(1, 9)]
    assert even == [_brute_mu_tilde(r) for r in range(1, 9)]


def test_half_count_series_values():
    odd, even = oracles.su2_half_count_series(6)
    assert odd == [2, 5, 11, 25, 56, 126]
    assert even == [2, 4, 9, 20, 45, 101]


def test_half_count_against_enumeration():
    # N = 1 and 2 give one-entry digit tables
    contexts = [(m, n) for m in range(5) for n in range(5 - m) if m + n >= 1]
    for (m, n), N in product(contexts, range(1, 21)):
        assert motif.count_half(N, m, n) == motif.count_half_by_enumeration(N, m, n), (N, m, n)
    # at and below the cap, where the keys reach 3^13
    for (m, n), N in product(((2, 0), (0, 2)), (26, 27)):
        assert motif.count_half(N, m, n) == motif.count_half_by_enumeration(N, m, n), (N, m, n)


def test_half_count_order_two_matches_closed_form():
    for N in range(1, 200):
        assert motif.count_half(N, 2, 0) == motif.count_half(N, 0, 2) == oracles.su2_half_count(N)


def test_half_count_mixed_powers_of_three():
    for N in range(2, 16):
        expect = 3 ** ((N - 1) // 2) if N % 2 else 2 * 3 ** ((N - 2) // 2)
        assert motif.count_half(N, 1, 1) == expect
        assert motif.count_half_by_enumeration(N, 1, 1) == expect


def test_half_count_higher_order_matches_enumeration():
    for order in (3, 4, 5):
        for N in range(1, 15):
            assert motif.count_half(N, order, 0) == motif.count_half_by_enumeration(N, order, 0)


@given(st.integers(1, 5), st.integers(1, 22), st.booleans())
@example(3, 22, False)
@example(5, 21, True)
@example(4, 2, False)
def test_half_count_automaton_matches_enumeration(order, N, bosonic):
    m, n = (order, 0) if bosonic else (0, order)
    assert motif.count_half(N, m, n) == motif.count_half_by_enumeration(N, m, n)


def test_half_count_past_the_enumeration_cap():
    # 2^39 candidate words: the enumeration oracle refuses, the automaton does not
    with pytest.raises(motif.InfeasibleSizeError):
        motif.count_half_by_enumeration(40, 3, 0)
    assert motif.count_half(40, 3, 0) == motif.count_half(40, 0, 3) == 335576513
    # per-site growth of the order-3 half count
    growth = math.sqrt(motif.count_half(402, 3, 0) / motif.count_half(400, 3, 0))
    assert round(growth, 5) == 1.64852


def test_half_count_order_one():
    # a single-letter alphabet leaves only the all-zeros motif
    for N in range(2, 10):
        assert motif.count_half(N, 1, 0) == 1
        assert motif.count(N, 1, 0) == 1


@given(
    st.sampled_from([(m, n) for m in range(5) for n in range(5 - m) if m + n >= 1]),
    st.integers(1, 12),
    st.sampled_from([1, 7, 1 << 16]),
)
@example((2, 0), 12, 1)
@example((0, 3), 12, 7)
@example((2, 1), 12, 1)
def test_word_blocks_do_not_depend_on_block_size(context, N, block):
    m, n = context
    length = N - 1
    with mock.patch.object(motif, "_BLOCK", block):
        blocks = list(motif._valid_word_blocks(N, m, n))
        half_count = motif.count_half_by_enumeration(N, m, n)
    assert all(b.dtype == np.uint32 for b in blocks)
    words = np.concatenate(blocks).tolist()
    assert words == sorted(words)
    assert words == [w for w in range(1 << length) if oracles.valid_word(w, length, m, n)]
    assert half_count == len({oracles.half(motif.Motif(w, N)) for w in words})


def test_enumeration_blocks_stay_small():
    tracemalloc.start()
    try:
        assert motif.count_by_enumeration(26, 2, 0) == motif.count(26, 2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the faults come from glibc returning freed heap")
def test_enumeration_sweep_reuses_its_buffers():
    # a fresh interpreter: the fermionic filter's temporaries, freed at every
    # block, faulted in about 49k fresh pages over the 2^25 candidates
    code = (
        "import resource\n"
        "from motifspectra import motif\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "motif.count_by_enumeration(26, 0, 2)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) < 2000


def test_every_enumeration_has_one_cap():
    # 2^26 candidate words (N = 27) are admitted: the first block comes back
    assert next(motif._valid_word_blocks(27, 2, 0))[:3].tolist() == [0, 1, 2]
    assert str(next(oracles.enumerate_motifs(27, 1, 1))) == "0" * 26
    # 2^27 are refused, before any block is made
    table = tuple(float(j) for j in range(1, 28))
    for sweep in (
        lambda: motif.count_by_enumeration(28, 2, 0),
        lambda: list(oracles.enumerate_motifs(28, 0, 3)),
        lambda: motif.count_half_by_enumeration(28, 1, 1),
        lambda: spectrum.level_count_by_enumeration(28, 1, 1, spectrum.NumericDispersion(28, table)),
    ):
        with pytest.raises(motif.InfeasibleSizeError, match="exceed cap"):
            sweep()


def test_half_count_refuses_past_the_cap_before_its_tables():
    # the key array alone would take 3^13 bytes at N = 28
    tracemalloc.start()
    try:
        with pytest.raises(motif.InfeasibleSizeError, match="exceed cap"):
            motif.count_half_by_enumeration(28, 2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
