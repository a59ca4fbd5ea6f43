"""Spin configurations, border strips and fiber dimensions."""

from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from motifspectra import motif, tableau
from motifspectra.motif import InfeasibleSizeError

CONTEXTS = [(2, 0), (3, 0), (0, 2), (0, 3), (1, 1), (2, 1), (1, 2)]


def test_worked_example():
    spins = (-3, 1, 1, 0, -2, -1, -1)
    mot = tableau.motif_of_spins(spins, 3, 3)
    assert str(mot) == "001101"
    assert mot.rapidities() == (3, 4, 6)
    assert oracles.strip_of_motif(mot) == (3, 1, 2, 1)
    assert tableau.dual_spins(spins) == (2, -2, -2, -1, 1, 0, 0)


def test_descent_rule():
    # a descent marks the slot; equal values mark it only for fermionic spins
    assert str(tableau.motif_of_spins((1, 0), 2, 0)) == "1"
    assert str(tableau.motif_of_spins((0, 1), 2, 0)) == "0"
    assert str(tableau.motif_of_spins((0, 0), 2, 0)) == "0"
    assert str(tableau.motif_of_spins((-1, -1), 0, 1)) == "1"
    assert str(tableau.motif_of_spins((-1, -1, 0), 1, 1)) == "10"


def test_validate_spins_range():
    with pytest.raises(ValueError):
        tableau.motif_of_spins((0, 2), 2, 0)
    with pytest.raises(ValueError):
        tableau.motif_of_spins((-1, 0), 2, 0)
    with pytest.raises(ValueError):
        tableau.motif_of_spins((), 2, 0)


def test_strip_round_trip():
    for N in range(2, 9):
        for mot in oracles.enumerate_motifs(N, 1, 1):
            strip = oracles.strip_of_motif(mot)
            assert sum(strip) == N
            assert all(k >= 1 for k in strip)
            assert oracles.motif_of_strip(strip) == mot


@st.composite
def motifs(draw):
    """Any motif word on up to 40 sites, valid or not."""
    N = draw(st.integers(1, 40))
    return motif.Motif(draw(st.integers(0, (1 << (N - 1)) - 1)), N)


@given(motifs())
def test_strip_round_trip_random(mot):
    strip = oracles.strip_of_motif(mot)
    assert sum(strip) == mot.sites
    assert len(strip) == len(mot.rapidities()) + 1
    assert oracles.motif_of_strip(strip) == mot


@given(st.lists(st.integers(1, 6), min_size=1, max_size=12))
def test_motif_of_strip_round_trip_random(columns):
    assert oracles.strip_of_motif(oracles.motif_of_strip(columns)) == tuple(columns)


@st.composite
def graded_spins(draw):
    """(spins, m, n) with m + n <= 5 and up to 12 sites."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1 if m == 0 else 0, 5 - m))
    spins = draw(st.lists(st.integers(-n, m - 1), min_size=1, max_size=12))
    return tuple(spins), m, n


@given(graded_spins())
def test_dual_spins_involution_conjugates_motif(case):
    spins, m, n = case
    dual = tableau.dual_spins(spins)
    assert tableau.dual_spins(dual) == spins
    mot = tableau.motif_of_spins(spins, m, n)
    assert tableau.motif_of_spins(dual, n, m) == oracles.complement(mot)
    length = len(spins) - 1
    assert oracles.valid_word(mot.word, length, m, n)
    assert oracles.valid_word(oracles.complement(mot).word, length, n, m)


def test_dual_spins_is_involution():
    for spins in product(range(-1, 2), repeat=5):
        assert tableau.dual_spins(tableau.dual_spins(spins)) == spins


@pytest.mark.parametrize("m,n", [(2, 0), (1, 1), (2, 1), (0, 2)])
def test_dual_spins_dualizes_motif(m, n):
    for N in (3, 5, 8):
        for spins in product(range(-n, m), repeat=N):
            mot = tableau.motif_of_spins(spins, m, n)
            dmot = tableau.motif_of_spins(tableau.dual_spins(spins), n, m)
            assert dmot == oracles.complement(mot)


@pytest.mark.parametrize("m,n", CONTEXTS)
def test_fiber_dimensions_sum_to_state_count(m, n):
    for N in (2, 4, 6):
        sizes = oracles.fiber_table(N, m, n)
        assert sum(sizes.values()) == (m + n) ** N
        # `tableau --sites` lists the table in place of the valid motifs
        assert sorted(sizes) == [mot.word for mot in oracles.enumerate_motifs(N, m, n)]
        assert 0 not in sizes.values()


@pytest.mark.parametrize("m,n", [(m, k - m) for k in range(1, 5) for m in range(k + 1)])
@given(st.integers(1, 7))
@example(1)
def test_fiber_sizes_against_direct_count(m, n, N):
    # the independent check of the descent rule the fiber kernel runs on
    direct: dict[int, int] = {}
    for spins in product(range(-n, m), repeat=N):
        w = tableau.motif_of_spins(spins, m, n).word
        direct[w] = direct.get(w, 0) + 1
    assert direct == oracles.fiber_table(N, m, n)


def test_invalid_motif_has_empty_fiber():
    bad = motif.Motif.from_bits((1, 1, 0))
    assert not oracles.valid_word(bad.word, bad.length, 2, 0)
    assert tableau.module_dimension(bad, 2, 0) == 0


def test_dimension_duality():
    for m, n in ((2, 0), (2, 1), (1, 1)):
        for N in (3, 5, 6):
            for mot in oracles.enumerate_motifs(N, m, n):
                d1 = tableau.module_dimension(mot, m, n)
                d2 = tableau.module_dimension(oracles.complement(mot), n, m)
                assert d1 == d2


def test_fiber_table_is_read_only_and_shared():
    table = tableau._fiber_cache(6, 2, 1)
    assert table.shape == (motif.count(6, 2, 1), 2)
    words, dims = table.T
    for write in (
        lambda: table.__setitem__((0, 1), 5),
        lambda: dims.__setitem__(0, 5),
        lambda: table[:, 0].__setitem__(0, 5),
        lambda: table.T.__setitem__((1, 0), 5),
    ):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert tableau._fiber_cache(6, 2, 1) is table
    assert oracles.fiber_table(6, 2, 1) == dict(zip(words.tolist(), dims.tolist()))


@pytest.mark.parametrize("m,n", CONTEXTS + [(3, 2), (1, 0), (0, 1)])
def test_fiber_table_has_one_row_per_motif(m, n):
    for N in (1, 2, 5, 9):
        assert len(tableau._fiber_cache(N, m, n)) == motif.count(N, m, n)


@pytest.mark.parametrize("m,n", [(2, 0), (3, 0), (0, 2), (2, 1), (1, 1)])
def test_module_dimension_at_the_table_edges(m, n):
    N = 9
    table = oracles.fiber_table(N, m, n)
    words = sorted(table)
    cases = [words[0], words[-1]]
    # a word between two valid ones: invalid in a pure context, valid in a mixed one
    cases += [w + 1 for w, v in zip(words, words[1:]) if v > w + 1][:1]
    cases += [w for w in range(1 << (N - 1)) if w not in table][:3]
    for w in cases:
        assert tableau.module_dimension(motif.Motif(w, N), m, n) == table.get(w, 0), (w, m, n)
    assert tableau.module_dimension(motif.Motif(0, 1), m, n) == oracles.fiber_table(1, m, n)[0] == m + n


def test_module_dimension_of_invalid_motifs():
    # su(0|2), N = 4: words 0 and 1 come before the first valid word, and 4 between 3 and 5
    assert oracles.fiber_table(4, 0, 2) == {2: 1, 3: 3, 5: 4, 6: 3, 7: 5}
    for w in (0, 1, 4):
        assert tableau.module_dimension(motif.Motif(w, 4), 0, 2) == 0
    # su(2|0): 3 lies between 2 and 4, and 6 and 7 past the last valid word
    assert oracles.fiber_table(4, 2, 0) == {0: 5, 1: 3, 2: 4, 4: 3, 5: 1}
    for w in (3, 6, 7):
        assert tableau.module_dimension(motif.Motif(w, 4), 2, 0) == 0


def test_fiber_cap_enforced():
    with pytest.raises(InfeasibleSizeError):
        tableau._fiber_cache(30, 2, 0)


def test_fiber_cap_edge():
    sizes = oracles.fiber_table(24, 2, 0)  # (m+n)^N = FIBER_CAP
    assert len(sizes) == motif.count(24, 2, 0) == 75025
    assert sum(sizes.values()) == tableau.FIBER_CAP
    for N, m, n in ((25, 2, 0), (16, 3, 0)):
        with pytest.raises(InfeasibleSizeError, match="exceeds cap"):
            tableau._fiber_cache(N, m, n)
    # the context is checked before (m+n)^N = 2^30 meets the cap
    with pytest.raises(ValueError, match="need m, n >= 0") as exc:
        tableau._fiber_cache(30, -1, 3)
    assert not isinstance(exc.value, InfeasibleSizeError)


def test_tableau_lines_cover_all_spins():
    spins = (-3, 1, 1, 0, -2, -1, -1)
    lines = tableau.tableau_lines(spins, 3, 3)
    assert len(lines) == 4  # rows of the strip with column lengths (3,1,2,1)
    tokens = " ".join(lines).split()
    assert sorted(tokens) == sorted(str(s) for s in spins)
    # the columns, drawn right to left, are the strip cut by the motif's rapidities
    width = len(lines[0])
    heights = [sum(bool(line.ljust(width)[k : k + 4].strip()) for line in lines) for k in range(0, width, 4)]
    assert heights[::-1] == list(oracles.strip_of_motif(tableau.motif_of_spins(spins, 3, 3)))
