"""Exclusion-statistics weights, sum rules and the statistics fit."""

import math
from collections import Counter
from fractions import Fraction

import oracles
import pytest

from motifspectra import anyon, fibnum, motif


def test_haldane_weight_limits():
    # g = 1 is Fermi counting, g = 0 is Bose counting
    assert oracles.haldane_weight(5, 2, 1) == math.comb(5, 2)
    assert oracles.haldane_weight(5, 2, 0) == math.comb(6, 2)
    assert oracles.haldane_weight(7, 0, 3) == 1
    # semionic g needs an even orbital correction to stay integral
    assert oracles.haldane_weight(5, 3, Fraction(1, 2)) == math.comb(6, 3)
    with pytest.raises(ValueError):
        oracles.haldane_weight(5, 2, Fraction(1, 2))


def test_haldane_weight_exhaustion():
    # at g = 2 the orbitals run out beyond k = (orbitals + 1) // 2
    assert oracles.haldane_weight(4, 2, 2) == 3
    assert oracles.haldane_weight(4, 3, 2) == 0
    assert oracles.haldane_weight(3, 4, 2) == 0


def test_motif_weights_small():
    assert anyon.motif_weights(5, 2).weights == (1, 4, 3)
    assert anyon.motif_weights(4, 3).weights == (1, 3, 3)
    table = anyon.motif_weights(6, 2)
    assert table.weights[3] == 1
    assert len(table.weights) == 4


def test_order_two_weights_are_binomials():
    for N in range(1, 30):
        table = anyon.motif_weights(N, 2)
        for k, w in enumerate(table.weights):
            assert w == math.comb(N - k, k)
        assert len(table.weights) - 1 == N // 2
        # and they agree with Haldane counting at g = 2 on N - 1 orbitals
        for k in range(2, len(table.weights)):
            assert oracles.haldane_weight(N - 1, k, 2) == table.weights[k]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_weights_match_enumeration_histogram(m):
    for N in range(2, 15):
        hist = Counter(mt.word.bit_count() for mt in oracles.enumerate_motifs(N, m, 0))
        table = anyon.motif_weights(N, m)
        assert dict(hist) == {k: w for k, w in enumerate(table.weights) if w}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_identities(m):
    for N in range(1, 25):
        report = anyon.verify_identities(m, N)
        assert report["total"] == fibnum.fib(m, N + m - 1)


def test_weights_match_profile_sum():
    for m in range(2, 7):
        for N in range(1, 41):
            table = anyon.motif_weights(N, m)
            # no motif has more ones than the table lists
            padded = list(table.weights) + [0] * (N + 1 - len(table.weights))
            assert padded == [oracles.profile_weight(N, m, k) for k in range(N + 1)]


def test_total_matches_motif_count():
    for m in (2, 3, 5):
        for N in range(1, 15):
            assert anyon.motif_weights(N, m).total() == motif.count(N, m, 0)


def test_statistics_fit_m2_is_exact_anyon():
    fit = anyon.statistics_fit(2, 4, (40, 80))
    assert isinstance(fit.g, Fraction)
    assert abs(float(fit.g) - 2) < 0.01
    better = anyon.statistics_fit(2, 4, (200, 400))
    assert abs(float(better.g) - 2) < 4e-4


@pytest.mark.parametrize(
    ("m", "samples", "g"),
    [
        (2, (Fraction(-44353, 30000), Fraction(-178703, 120000)), Fraction(39999, 20000)),
        (3, (Fraction(-30197, 60000), Fraction(-120397, 240000)), Fraction(40001, 40000)),
    ],
)
def test_statistics_fit_pinned(m, samples, g):
    fit = anyon.statistics_fit(m, 3, (200, 400))
    assert fit.samples == tuple(zip((200, 400), samples))
    assert fit.g == g


@pytest.mark.parametrize("m", [3, 4, 5])
def test_statistics_fit_higher_order_is_fermionic(m):
    fit = anyon.statistics_fit(m, 4, (200, 400))
    assert abs(float(fit.g) - 1) < 1e-3


def test_statistics_fit_validation():
    with pytest.raises(ValueError):
        anyon.statistics_fit(2, 1, (40, 80))
    with pytest.raises(ValueError):
        anyon.statistics_fit(2, 4, (40, 40))
    with pytest.raises(ValueError):
        anyon.statistics_fit(2, 4, (4, 80))


def test_weight_table_validation():
    with pytest.raises(ValueError):
        anyon.motif_weights(0, 2)
    with pytest.raises(ValueError):
        anyon.motif_weights(5, 1)
