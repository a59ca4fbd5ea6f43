"""End to end acceptance suite.

Ten independent checks at fixed tolerances and runtime budgets.  Each test
prints a single PASS or FAIL line on the terminal (bypassing capture) so the
outcome of every criterion is visible in any pytest run.
"""

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from motifspectra import anyon, fibnum, motif, oracle, partition, spectrum
from motifspectra.cli import main as cli_main
import oracles


TABLE1_LAMBDA = (1.61803, 1.83929, 1.92756, 1.96595, 1.98358, 1.99196, 1.99603, 1.99803, 1.99902)
TABLE1_GAMMA = (1.38197, 1.61702, 1.76571, 1.85899, 1.91654, 1.95139, 1.97211, 1.98420, 1.99116)


def _finish(k, problems, t0, limit, capsys):
    elapsed = time.monotonic() - t0
    if elapsed >= limit:
        problems.append(f"runtime {elapsed:.2f} s exceeds the {limit} s budget")
    verdict = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {k}: {verdict} ({elapsed:.2f} s)")
    assert not problems, "; ".join(problems)


def test_criterion_01_root_table(capsys):
    t0 = time.monotonic()
    problems = []
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(["table1"])
    if code != 0:
        problems.append(f"table1 exited {code}")
    lines = out.getvalue().strip().splitlines()[1:]
    if len(lines) != 9:
        problems.append(f"expected 9 rows, got {len(lines)}")
    for line, lam_ref, gamma_ref in zip(lines, TABLE1_LAMBDA, TABLE1_GAMMA):
        m, lam, gamma = line.split(",")[:3]
        if abs(float(lam) - lam_ref) > 1e-5:
            problems.append(f"lambda_{m}: {lam} vs {lam_ref}")
        if abs(float(gamma) - gamma_ref) > 1e-5:
            problems.append(f"gamma_{m}: {gamma} vs {gamma_ref}")
    _finish(1, problems, t0, 1.0, capsys)


def test_criterion_02_counts_match_recursion(capsys):
    t0 = time.monotonic()
    problems = []
    for m in (2, 3, 4, 5, 6):
        for N in range(2, 23):
            closed = motif.count(N, m, 0)
            brute = motif.count_by_enumeration(N, m, 0)
            rec = fibnum.fib(m, N + m - 1)
            if not (closed == brute == rec):
                problems.append(f"m={m} N={N}: {closed} / {brute} / {rec}")
    _finish(2, problems, t0, 60.0, capsys)


def test_criterion_03_rational_level_sets_are_intervals(capsys):
    t0 = time.monotonic()
    problems = []
    for N in range(2, 19):
        disp = spectrum.PFDispersion(N)
        energies = {oracles.energy(mot, disp) for mot in oracles.enumerate_motifs(N, 2, 0)}
        top = (N * N - N % 2) // 4
        if energies != set(range(top + 1)):
            problems.append(f"N={N}: level set is not 0..{top}")
    _finish(3, problems, t0, 30.0, capsys)


def test_criterion_04_trigonometric_partition_recursion(capsys):
    t0 = time.monotonic()
    problems = []
    counts = {}
    for N in range(2, 51):
        qp = partition.hs_partition(N)
        counts[N] = qp.term_count()
        if qp.value_at_one() != 2**N:
            problems.append(f"N={N}: Z(1) != 2^{N}")
        bound = spectrum.level_bounds(spectrum.HSDispersion(N), 2, 0)
        if counts[N] > bound:
            problems.append(f"N={N}: {counts[N]} levels exceed the bound {bound}")
    for N in range(2, 13):
        brute, _ = oracles.enumerated_partition(N, 0, 2, spectrum.HSDispersion(N))
        if oracles.terms(partition.hs_partition(N)) != brute:
            problems.append(f"N={N}: partition support differs from enumeration")
    window = range(30, 51)
    poly_slope = np.polyfit([math.log(N) for N in window], [math.log(counts[N]) for N in window], 1)[0]
    if not 2.7 <= poly_slope <= 3.3:
        problems.append(f"level count slope {poly_slope:.3f} outside [2.7, 3.3]")
    fib_slope = np.polyfit(list(window), [math.log(fibnum.fib(2, N + 1)) for N in window], 1)[0]
    target = math.log(fibnum.characteristic_roots(2).dominant)
    if abs(fib_slope - target) > 0.02 * target:
        problems.append(f"count growth slope {fib_slope:.5f} vs {target:.5f}")
    _finish(4, problems, t0, 120.0, capsys)


def test_criterion_05_numerics_match_formulas(capsys):
    t0 = time.monotonic()
    problems = []
    cases = (("hs", 2, 0, None), ("pf", 2, 0, None), ("fi", 0, 2, 3))
    for kind, m, n, alpha in cases:
        for N in range(2, 9):
            chain = oracle.ChainSpec(kind, N, m, n, alpha=alpha)
            report = oracle.compare(chain)
            if not report.matched:
                problems.append(f"{kind} su({m}|{n}) N={N}: {report.mismatch}")
            elif report.max_energy_error >= 1e-7:
                problems.append(f"{kind} su({m}|{n}) N={N}: error {report.max_energy_error:.2e}")
    _finish(5, problems, t0, 120.0, capsys)


def test_criterion_06_elliptic_beats_the_floor(capsys):
    t0 = time.monotonic()
    problems = []
    cases = ((2, 0, (8, 10, 12)), (3, 0, (6, 7)), (2, 1, (6, 7)))
    for m, n, sizes in cases:
        for N in sizes:
            chain = oracle.ChainSpec("elliptic", N, m, n, ksq=0.5)
            avg = oracle.numeric_average_degeneracy(chain)
            floor = fibnum.min_avg_degeneracy(N, m, n)
            if not avg < floor:
                problems.append(f"su({m}|{n}) N={N}: {float(avg):.4f} not below {float(floor):.4f}")
    _finish(6, problems, t0, 300.0, capsys)


def test_criterion_07_supersymmetric_elliptic_counts(capsys):
    t0 = time.monotonic()
    problems = []
    for N in range(2, 15):
        chain = oracle.ChainSpec("elliptic", N, 1, 1, ksq=0.5)
        disp = oracle.formula_dispersion(chain)
        got = spectrum.level_count_by_enumeration(N, 1, 1, disp)
        want = motif.count_half(N, 1, 1)
        if got != want:
            problems.append(f"N={N}: enumeration gives {got}, closed form {want}")
    for N in range(4, 11):
        chain = oracle.ChainSpec("elliptic", N, 1, 1, ksq=0.5)
        levels = oracle.cluster_levels(oracle.chain_eigenvalues(chain))
        want = motif.count_half(N, 1, 1)
        if len(levels) != want:
            problems.append(f"N={N}: diagonalization gives {len(levels)} levels, not {want}")
    _finish(7, problems, t0, 180.0, capsys)


def test_criterion_08_weight_identities(capsys):
    t0 = time.monotonic()
    problems = []
    for N in range(2, 61):
        try:
            anyon.verify_identities(2, N)
        except anyon.IdentityError as exc:
            problems.append(f"m=2 N={N}: {exc}")
        for k, w in enumerate(anyon.motif_weights(N, 2).weights):
            if w != math.comb(N - k, k):
                problems.append(f"N={N} k={k}: weight {w} != C({N - k},{k})")
    for m in (3, 4, 5):
        for N in range(2, 41):
            try:
                anyon.verify_identities(m, N)
            except anyon.IdentityError as exc:
                problems.append(f"m={m} N={N}: {exc}")
    _finish(8, problems, t0, 30.0, capsys)


def test_criterion_09_translational_counts_and_constants(capsys):
    t0 = time.monotonic()
    problems = []
    for N in range(2, 26):
        folded = motif.count_half(N, 2, 0)
        brute = motif.count_half_by_enumeration(N, 2, 0)
        if folded != brute:
            problems.append(f"N={N}: {folded} != {brute}")
    consts = fibnum.su2_translational_constants()
    for name, got, want in (
        ("root", consts.root, 2.24698),
        ("odd coefficient", consts.odd_coeff, 0.97869),
        ("even coefficient", consts.even_coeff, 0.78485),
    ):
        if abs(got - want) > 1e-5:
            problems.append(f"{name}: {got:.6f} vs {want}")
    ratio = oracles.translational_growth_ratio()
    if abs(ratio - 1.07941) > 1e-4:
        problems.append(f"growth ratio {ratio:.6f} vs 1.07941")
    _finish(9, problems, t0, 30.0, capsys)


def test_criterion_10_asymptotic_form(capsys):
    t0 = time.monotonic()
    problems = []
    for m in (2, 3):
        exact = float(fibnum.min_avg_degeneracy(60, m, 0))
        approx = fibnum.min_avg_degeneracy_asymptotic(60, m)
        if abs(exact / approx - 1) > 1e-3:
            problems.append(f"m={m}: ratio {exact / approx:.6f}")
    _finish(10, problems, t0, 1.0, capsys)
