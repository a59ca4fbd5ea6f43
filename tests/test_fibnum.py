"""Generalized Fibonacci numbers, characteristic roots and degeneracy floors."""

import math
from fractions import Fraction

import pytest

import oracles
from motifspectra import fibnum, motif


def test_fib_small_orders():
    assert fibnum.fib_table(2, 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fibnum.fib_table(3, 10) == [0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81]
    assert fibnum.fib_table(4, 9) == [0, 0, 0, 1, 1, 2, 4, 8, 15, 29]


def test_fib_rejects_bad_order():
    with pytest.raises(ValueError):
        fibnum.fib(1, 5)
    with pytest.raises(ValueError):
        fibnum.fib_table(0, 5)


def test_fib_matches_motif_count():
    for m in (2, 3, 4, 6):
        for N in range(1, 16):
            assert fibnum.fib(m, N + m - 1) == motif.count(N, m, 0)


def test_dominant_root_closed_forms():
    golden = (1 + math.sqrt(5)) / 2
    assert abs(fibnum.dominant_root(2) - golden) < 1e-12
    # order 3: the tribonacci constant
    assert abs(fibnum.dominant_root(3) - 1.839286755214161) < 1e-10


# pinned: table1, criterion 1 and dmin --asymptotic print these doubles
ROOTS = {
    2: "0x1.9e3779b97f4a8p+0",
    3: "0x1.d6db7f2d9c5c1p+0",
    4: "0x1.ed74b39db65a8p+0",
    5: "0x1.f7486236056f3p+0",
    6: "0x1.fbcc15d16a071p+0",
    7: "0x1.fdf15d9738b6dp+0",
    8: "0x1.fefbe63ec2891p+0",
    9: "0x1.ff7edbff38818p+0",
    10: "0x1.ffbfaf6395a32p+0",
    11: "0x1.ffdfe9e882305p+0",
    12: "0x1.ffeff9fc8599bp+0",
    13: "0x1.fff7fe5f7dcf8p+0",
    14: "0x1.fffbff8fed2c4p+0",
}


@pytest.mark.parametrize("m", sorted(ROOTS))
def test_dominant_root_pinned(m):
    assert fibnum.dominant_root(m) == float.fromhex(ROOTS[m])


def exact_p(m, x):
    q = Fraction(x)
    return q**m - sum(q**k for k in range(m))


@pytest.mark.parametrize("m", range(2, 61))
def test_dominant_root_brackets_a_sign_change(m):
    lam = fibnum.dominant_root(m)
    down, up = math.nextafter(lam, 0.0), math.nextafter(lam, 4.0)
    assert exact_p(m, down) < 0 < exact_p(m, up)
    # no double has a smaller residual than the one returned
    assert abs(exact_p(m, lam)) <= min(abs(exact_p(m, down)), abs(exact_p(m, up)))


def test_high_orders_have_roots():
    # no double brings |p| below 1e-12 at these orders, so no residual threshold ends the search
    assert round(oracles.binet(15, 20)) == fibnum.fib(15, 20) == 32
    lam = fibnum.characteristic_roots(30).dominant
    assert abs((2 - lam) - lam**-30) < 1e-15  # lambda = 2 - lambda^(-m)
    assert fibnum.dominant_root(100) == 2.0


@pytest.mark.parametrize("m", range(2, 11))
def test_root_bounds_and_gamma_identity(m):
    rd = fibnum.characteristic_roots(m)
    lam = rd.dominant
    assert 2 * m / (m + 1) < lam < 2
    gamma = m + 1 - (m - 1) / (lam - 1)
    assert abs(rd.gamma - gamma) < 1e-10
    assert 1 < rd.gamma < 2
    # gamma = lambda^(1-m) / c ties the three constants together
    assert abs(rd.coefficient * rd.gamma * lam ** (m - 1) - 1) < 1e-9
    assert rd.kappa > 0


def test_roots_monotone_in_order():
    lams = [fibnum.characteristic_roots(m).dominant for m in range(2, 11)]
    assert all(a < b for a, b in zip(lams, lams[1:]))
    gammas = [fibnum.characteristic_roots(m).gamma for m in range(2, 11)]
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_all_roots_solve_characteristic_polynomial(m):
    rd = fibnum.characteristic_roots(m)
    assert len(rd.roots) == m
    for z in rd.roots:
        p = z**m - sum(z**k for k in range(m))
        assert abs(p) < 1e-8
    assert abs(sum(rd.roots) - 1) < 1e-8
    assert rd.roots[-1] == rd.dominant
    assert all(abs(z) < 1 for z in rd.roots[:-1])


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_binet_reproduces_integers(m):
    for n in range(m, 81):
        exact = fibnum.fib(m, n)
        approx = oracles.binet(m, n)
        if exact:
            assert abs(approx - exact) / exact < 1e-9
        else:
            assert abs(approx) < 1e-9


def test_min_avg_degeneracy_values():
    assert fibnum.min_avg_degeneracy(10, 2, 0) == Fraction(1024, 89)
    assert fibnum.min_avg_degeneracy(4, 2, 0) == Fraction(16, 5)
    assert fibnum.min_avg_degeneracy(4, 1, 1) == Fraction(2)
    # duality: the floor only depends on {m, n} as a set
    for N in (5, 9):
        assert fibnum.min_avg_degeneracy(N, 3, 0) == fibnum.min_avg_degeneracy(N, 0, 3)


def test_min_avg_degeneracy_translational_values():
    assert fibnum.min_avg_degeneracy_translational(9, 2, 0) == Fraction(512, 25)
    assert fibnum.min_avg_degeneracy_translational(8, 2, 0) == Fraction(256, 20)
    assert fibnum.min_avg_degeneracy_translational(7, 1, 1) == Fraction(128, 27)
    # every pure order has a half count
    halves = motif.count_half_by_enumeration(8, 3, 0)
    assert fibnum.min_avg_degeneracy_translational(8, 3, 0) == Fraction(3**8, halves)


def test_translational_floor_exceeds_generic():
    for N in range(4, 20):
        assert fibnum.min_avg_degeneracy_translational(N, 2, 0) > fibnum.min_avg_degeneracy(N, 2, 0)


def test_su2_translational_constants():
    tc = fibnum.su2_translational_constants()
    assert abs(tc.root - 2.246979603717467) < 1e-12
    assert abs(tc.odd_coeff - 0.97869358) < 1e-7
    assert abs(tc.even_coeff - 0.78485132) < 1e-7
    # the root solves x^3 - 2x^2 - x + 1 = 0
    x = tc.root
    assert abs(x**3 - 2 * x**2 - x + 1) < 1e-12


def test_asymptotic_floor_converges():
    for m in (2, 3):
        exact = float(fibnum.min_avg_degeneracy(40, m, 0))
        approx = fibnum.min_avg_degeneracy_asymptotic(40, m)
        assert abs(approx / exact - 1) < 1e-4


def test_translational_asymptotic_converges():
    for N in (29, 30, 39, 40):
        exact = float(fibnum.min_avg_degeneracy_translational(N, 2, 0))
        approx = fibnum.min_avg_degeneracy_translational_asymptotic(N)
        assert abs(approx / exact - 1) < 1e-2


def test_growth_ratio():
    r = oracles.translational_growth_ratio()
    tc = fibnum.su2_translational_constants()
    assert abs(r - 2 / ((math.sqrt(5) - 1) * math.sqrt(tc.root))) < 1e-14
    assert abs(r - 1.07941) < 1e-5
    # it is the large-N ratio of successive floor quotients
    q = [
        fibnum.min_avg_degeneracy_translational_asymptotic(N)
        / fibnum.min_avg_degeneracy_asymptotic(N, 2)
        for N in (47, 49)
    ]
    assert abs(q[1] / q[0] - r**2) < 1e-6
