"""Command line interface: formats, determinism, exit codes, file outputs."""

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from motifspectra import cli, fibnum, oracle, partition, spectrum, tableau
from motifspectra.cli import main
import oracles


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_table1_values_parse():
    code, out, err = run_cli("table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,lambda,gamma,coefficient,kappa"
    assert len(lines) == 10
    for line in lines[1:]:
        m, lam, gamma, coeff, kappa = line.split(",")
        rd = fibnum.characteristic_roots(int(m))
        assert abs(float(lam) - rd.dominant) < 1e-5
        assert abs(float(gamma) - rd.gamma) < 1e-5
    assert "config" in err


def test_output_is_deterministic():
    first = run_cli("spectrum", "--chain", "hs", "--sites", "8", "--levels", "--format", "json")
    second = run_cli("spectrum", "--chain", "hs", "--sites", "8", "--levels", "--format", "json")
    assert first == second
    assert first[0] == 0


def test_json_meta_echoes_config():
    code, out, _ = run_cli("motifs", "--sites", "9", "--m", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["tool"] == "motifspectra"
    assert doc["meta"]["config"]["sites"] == 9
    assert doc["meta"]["config"]["m"] == 3
    assert doc["rows"][0]["count"] == 149


def test_json_meta_echoes_symbolic_alpha():
    argv = ("spectrum", "--chain", "fi", "--alpha", "irrational", "--sites", "4", "--levels")
    code, out, _ = run_cli(*argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["config"]["alpha"] == "irrational"
    code, _, err = run_cli(*argv)
    assert code == 0 and '"alpha": "irrational"' in err


def test_motifs_brute_cross_check():
    code, out, _ = run_cli("motifs", "--sites", "10", "--m", "2", "--brute")
    assert code == 0
    assert out.splitlines()[1] == "10,2,0,89,89"
    code, out, _ = run_cli("motifs", "--sites", "9", "--m", "2", "--half-count", "--brute")
    assert code == 0
    assert out.splitlines()[1] == "9,2,0,25,25"


def test_motifs_list():
    code, out, _ = run_cli("motifs", "--sites", "4", "--m", "2", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,bits,ones,rapidities"
    assert lines[1] == "0,000,0,"
    assert lines[-1] == "4,101,2,1;3"
    assert len(lines) == 6


def test_motifs_list_rows_match_per_motif_rows():
    # one site lists the lone empty motif, with empty bits and rapidities
    for sites, (m, n) in [(1, (2, 0)), (9, (2, 0)), (9, (0, 3)), (1, (1, 1)), (9, (1, 1))]:
        code, out, _ = run_cli("motifs", "--sites", str(sites), "--m", str(m), "--n", str(n), "--list")
        assert code == 0
        rows = oracles.listed_rows(sites, m, n)
        assert out == "index,bits,ones,rapidities\n" + "".join(",".join(map(cli._cell, r)) + "\n" for r in rows)


def test_tableau_spins_row():
    code, out, _ = run_cli("tableau", "--spins=-3,1,1,0,-2,-1,-1", "--m", "3", "--n", "3")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[1] == "001101"
    assert row[2] == "3;4;6"
    assert row[3] == "2;-2;-2;-1;1;0;0"
    assert int(row[4]) > 0


def test_tableau_art():
    code, out, _ = run_cli("tableau", "--spins=-3,1,1,0,-2,-1,-1", "--m", "3", "--n", "3", "--art")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_tableau_dims_table():
    code, out, _ = run_cli("tableau", "--sites", "4", "--m", "2", "--n", "0")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert sum(int(line.split(",")[1]) for line in lines) == 2**4


@pytest.mark.parametrize("sites,m,n", [(1, 2, 0), (2, 2, 0), (2, 0, 3), (14, 2, 1)])
def test_tableau_dims_rows_match_motif_bits(sites, m, n):
    code, out, _ = run_cli("tableau", "--sites", str(sites), "--m", str(m), "--n", str(n))
    assert code == 0
    assert out == "bits,dimension\n" + "".join(f"{b},{d}\n" for b, d in oracles.fiber_rows(sites, m, n))


def _table(rows: int) -> list[tuple]:
    """A table of every cell kind a handler returns: int, str, float, nan, bool and a big int."""
    return [
        (k, f"{k}/7", k / 7, float("nan") if k % 5 == 3 else 1.0, k % 2 == 0, 3 ** (k % 90))
        for k in range(rows)
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
def test_emit_matches_per_row_writer(fmt, rows):
    args = argparse.Namespace(format=fmt, sites=rows, alpha=Fraction(5, 2), func=None, dump_terms=None)
    columns = ["index", "fraction", "value", "maybe", "even", "power"]
    written = []
    for emit in (cli._emit, oracles.emitted_by_row):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            emit(args, columns, _table(rows))
        written.append((out.getvalue(), err.getvalue()))
    assert written[0] == written[1]
    assert written[0][0].count("\n") == (1 if fmt == "json" else rows + 1)


def test_closed_pipe_ends_quietly():
    # `motifspectra motifs --sites 22 --m 2 --list | head -1`: far more rows than a pipe holds
    argv = [sys.executable, "-m", "motifspectra.cli", "motifs", "--sites", "22", "--m", "2", "--list"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"index,bits,ones,rapidities\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


def test_tableau_rejects_no_sites():
    with pytest.raises(SystemExit) as exc:
        run_cli("tableau", "--sites", "0")
    assert exc.value.code == 2


def test_dmin_rows():
    code, out, _ = run_cli("dmin", "--sites", "10", "--translational", "--asymptotic")
    assert code == 0
    lines = out.strip().splitlines()
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["generic", "translational", "asymptotic", "translational asymptotic"]
    assert lines[1].split(",")[1] == "1024/89"


def test_dmin_translational_higher_order():
    code, out, _ = run_cli("dmin", "--sites", "12", "--m", "3", "--translational")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["generic,59049/103,573.291", "translational,531441/280,1898"]


def test_fib_table():
    code, out, _ = run_cli("fib", "--m", "3", "--upto", "8")
    assert code == 0
    assert out.strip().splitlines()[-1] == "8,24"


def test_spectrum_levels_and_bounds():
    code, out, _ = run_cli("spectrum", "--chain", "pf", "--sites", "6", "--levels")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "energy,degeneracy"
    assert len(lines) == 1 + 10  # levels 0..9
    code, out, _ = run_cli("spectrum", "--chain", "hs", "--sites", "6", "--bounds")
    assert code == 0
    assert out.splitlines()[1] == "6,2,0,20"
    code, out, _ = run_cli("spectrum", "--chain", "fi", "--alpha", "5/2", "--sites", "5", "--avg-deg")
    assert code == 0


def test_spectrum_symbolic_levels():
    code, out, _ = run_cli("spectrum", "--chain", "fi", "--alpha", "irrational", "--sites", "4", "--levels")
    assert code == 0
    assert out.splitlines()[0] == "alpha_coeff,const_coeff,degeneracy"


def test_partition_dump_round_trip(tmp_path):
    target = tmp_path / "terms.bin"
    code, out, _ = run_cli("partition", "--chain", "hs", "--sites", "12", "--dump-terms", str(target))
    assert code == 0
    with open(target, "rb") as fh:
        qp = partition.load_terms(fh)
    assert qp.terms == partition.hs_partition(12).terms


def test_partition_dumps_exponents_past_int64(tmp_path):
    target = tmp_path / "wide.bin"
    alpha = 10**30
    argv = ("partition", "--chain", "fi", "--alpha", str(alpha), "--sites", "3", "--dump-terms", str(target))
    code, out, _ = run_cli(*argv)
    assert code == 0
    qp = partition.fi_partition(3, alpha)
    assert sum(e >= 2**63 for e in qp.terms) == 3
    assert out.splitlines()[1] == f"3,3,{target}"
    assert target.read_bytes() == oracles.dumped_terms(qp)
    with open(target, "rb") as fh:
        assert partition.load_terms(fh) == qp


def test_partition_rows_are_the_su02_level_set():
    # from N = 3 on, no (0, 2) motif is all 0s: only N <= 2 has the zero exponent
    for sites in (12, 9, 2):
        for flags, qp in (
            (("--chain", "hs"), partition.hs_partition(sites)),
            (("--chain", "fi", "--alpha", "5/2"), partition.fi_partition(sites, Fraction(5, 2))),
        ):
            flags = (*flags, "--sites", str(sites))
            code, out, _ = run_cli("partition", *flags)
            assert code == 0
            # the rows as the level polynomial gave them: exponent over scale, coefficient
            rows = [(str(Fraction(e, qp.scale)), c) for e, c in qp.sorted_terms()]
            assert (rows[0][0] == "0") == (sites == 2)
            assert out == "energy,degeneracy\n" + "".join(f"{e},{c}\n" for e, c in rows)
            code, levels, _ = run_cli("spectrum", *flags, "--m", "0", "--n", "2", "--levels")
            assert code == 0 and levels == out
            code, out, _ = run_cli("partition", *flags, "--format", "json")
            assert code == 0
            assert json.loads(out)["rows"] == [{"energy": e, "degeneracy": c} for e, c in rows]


def test_partition_levels_only():
    code, out, _ = run_cli("partition", "--chain", "fi", "--alpha", "3", "--sites", "8", "--levels-only")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "8"
    assert int(row[1]) == partition.fi_partition(8, 3).term_count()


def test_partition_levels_only_checks_the_state_count(monkeypatch):
    # the summary's degeneracies must add up to the 2^N states
    monkeypatch.setattr(partition, "hs_partition", lambda N: oracles.polynomial({0: 2**N - 1, 3: 2}))
    code, out, err = run_cli("partition", "--chain", "hs", "--sites", "6", "--levels-only")
    assert code == 1 and out == ""
    assert "level degeneracies sum to 65, expected 64" in err


def test_diag_compare_exit_codes():
    code, out, _ = run_cli("diag", "--chain", "hs", "--sites", "5", "--compare")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "true"
    code, _, err = run_cli("diag", "--chain", "elliptic", "--sites", "5", "--compare")
    assert code == 2  # missing --ksq
    # su(2|0) elliptic has no formula level set: it must fall below the motif floor
    code, out, _ = run_cli("diag", "--chain", "elliptic", "--ksq", "0.5", "--sites", "8", "--compare")
    assert code == 0
    assert out.splitlines()[1] == "elliptic,8,2,0,true,nan,43"
    # at ksq = 0 the chain is hs, Yangian-invariant, and stays above the floor
    code, out, err = run_cli("diag", "--chain", "elliptic", "--ksq", "0", "--sites", "8", "--compare")
    assert code == 1
    assert out.splitlines()[1] == "elliptic,8,2,0,false,nan,19"
    assert "not below the motif floor" in err


def test_anyon_subcommand():
    code, out, _ = run_cli("anyon", "--m", "2", "--sites", "5", "--weights")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,1", "1,4", "2,3"]
    code, out, _ = run_cli("anyon", "--m", "3", "--sites", "12", "--identities")
    assert code == 0
    code, out, _ = run_cli("anyon", "--m", "2", "--fit-g", "--k", "3", "--orbitals", "60,120")
    assert code == 0
    g = float(out.splitlines()[1].split(",")[-1])
    assert abs(g - 2) < 0.01


def test_figure_outputs(tmp_path):
    prefix = str(tmp_path / "lv")
    code, out, _ = run_cli("figure", "--name", "fig5", "--max-sites", "16", "--output", prefix)
    assert code == 0
    csv_text = (tmp_path / "lv.csv").read_text()
    assert csv_text.startswith("series,x,y\n")
    svg_text = (tmp_path / "lv.svg").read_text()
    assert svg_text.startswith("<svg ")
    assert svg_text.rstrip().endswith("</svg>")
    assert "polyline" in svg_text
    # determinism of the file outputs
    prefix2 = str(tmp_path / "lv2")
    run_cli("figure", "--name", "fig5", "--max-sites", "16", "--output", prefix2)
    assert (tmp_path / "lv2.csv").read_text() == csv_text
    assert (tmp_path / "lv2.svg").read_text() == svg_text


def test_figure_supersymmetric(tmp_path):
    prefix = str(tmp_path / "susy")
    code, _, _ = run_cli("figure", "--name", "fig4", "--max-sites", "8", "--output", prefix)
    assert code == 0
    lines = (tmp_path / "susy.csv").read_text().strip().splitlines()
    assert any(line.startswith("elliptic average,") for line in lines)


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("nonsense")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("motifs")
    assert exc.value.code == 2
    code, _, err = run_cli("anyon", "--m", "2", "--fit-g", "--k", "3", "--orbitals", "4,x")
    assert code == 2
    assert "--orbitals" in err
    out_of_range = [
        ((command, "--chain", "fi", f"--alpha={alpha}", "--sites", "4"), reason)
        for command in ("spectrum", "partition", "diag")
        for alpha, reason in (("1/0", "zero denominator"), ("-1", "alpha > 0"), ("0", "alpha > 0"))
    ]
    out_of_range += [
        (("motifs", "--sites", "-3", "--list"), "at least 1 site"),
        (("motifs", "--sites", "0"), "at least 1 site"),
        (("dmin", "--sites", "0"), "at least 1 site"),
        (("spectrum", "--chain", "hs", "--sites", "0"), "at least 1 site"),
        (("partition", "--chain", "hs", "--sites", "0"), "at least 1 site"),
        (("anyon", "--m", "2", "--sites", "0"), "at least 1 site"),
        (("diag", "--chain", "hs", "--sites", "1"), "at least 2 sites"),
        (("fib", "--m", "3", "--upto", "-1"), "upto >= 0"),
        (("figure", "--name", "fig4", "--ksq", "1"), "0 <= ksq < 1"),
        (("figure", "--name", "fig2", "--max-sites", "-5"), "at least 1 site"),
        (("figure", "--name", "fig3", "--max-sites", "0"), "at least 1 site"),
        (("motifs", "--sites", "5", "--m", "-1"), "m >= 0"),
        (("tableau", "--sites", "5", "--n", "-2"), "n >= 0"),
        (("dmin", "--sites", "5", "--m", "-1", "--n", "3"), "m >= 0"),
        (("spectrum", "--chain", "hs", "--sites", "4", "--n", "-1"), "n >= 0"),
        (("diag", "--chain", "hs", "--sites", "6", "--m", "0", "--n", "0"), "m + n >= 1"),
        (("motifs", "--sites", "5", "--m", "0"), "m + n >= 1"),
        (("tableau", "--spins", "0,0", "--m", "0", "--n", "0"), "m + n >= 1"),
        (("tableau", "--m", "2"), "one of the arguments --spins --sites is required"),
        (("tableau", "--spins=0,1", "--sites", "2"), "not allowed with argument"),
        (("tableau", "--spins=a,b"), "need comma-separated integer spins, got 'a,b'"),
        (("tableau", "--spins=,"), "need at least one spin, got ','"),
        (("spectrum", "--chain", "fi", "--alpha=x", "--sites", "4"), "need a fraction such as 5/2"),
        (("anyon", "--m", "2", "--fit-g", "--k", "-1", "--orbitals", "10,20"), "k >= 2"),
        (("anyon", "--m", "2", "--fit-g", "--k", "1", "--orbitals", "10,20"), "k >= 2"),
        (("anyon", "--m", "1", "--sites", "4"), "m >= 2"),
        (("fib", "--m", "1", "--upto", "3"), "m >= 2"),
    ]
    for ksq in ("nan", "inf", "-0.1", "1.5"):
        out_of_range.append((("diag", "--chain", "elliptic", "--sites", "6", f"--ksq={ksq}"), "0 <= ksq < 1"))
    for argv, reason in out_of_range:
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stdout(out), redirect_stderr(err):
            main(list(argv))
        assert exc.value.code == 2, argv
        assert reason in err.getvalue(), argv
        assert out.getvalue() == "", argv
        # the message names the flag, not the function that parses it
        assert "_parse" not in err.getvalue(), argv
    # a coupling flag the chain does not read, or one it needs and lacks
    unfit = [
        (("spectrum", "--chain", "fi", "--sites", "5"), "--chain fi needs --alpha"),
        (("partition", "--chain", "fi", "--sites", "5"), "--chain fi needs --alpha"),
        (("diag", "--chain", "fi", "--sites", "5"), "--chain fi needs --alpha"),
        (("diag", "--chain", "elliptic", "--sites", "5"), "--chain elliptic needs --ksq"),
        (("partition", "--chain", "fi", "--alpha", "irrational", "--sites", "5"), "partition needs a numeric"),
        (("diag", "--chain", "fi", "--alpha", "generic", "--sites", "5"), "diag needs a numeric"),
        (("spectrum", "--chain", "hs", "--alpha", "3", "--sites", "5"), "--chain hs takes no --alpha"),
        (("spectrum", "--chain", "pf", "--alpha", "irrational", "--sites", "5"), "--chain pf takes no --alpha"),
        (("partition", "--chain", "hs", "--alpha", "3", "--sites", "5"), "--chain hs takes no --alpha"),
        (("diag", "--chain", "hs", "--ksq", "0.5", "--sites", "5"), "--chain hs takes no --ksq"),
        (("diag", "--chain", "pf", "--alpha", "3", "--sites", "5"), "--chain pf takes no --alpha"),
        (("diag", "--chain", "fi", "--alpha", "3", "--ksq", "0.5", "--sites", "5"), "--chain fi takes no --ksq"),
        (("diag", "--chain", "elliptic", "--ksq", "0.5", "--alpha", "3", "--sites", "5"), "takes no --alpha"),
        (("figure", "--name", "fig5", "--ksq", "0.5"), "figure fig5 takes no --ksq"),
        (("tableau", "--sites", "4", "--art"), "--art needs --spins"),
        (("anyon", "--m", "2", "--fit-g", "--k", "3"), "--fit-g needs --k and --orbitals"),
        (("anyon", "--m", "2", "--fit-g", "--k", "3", "--orbitals", "1,2,3"), "two comma-separated counts"),
        (("anyon", "--m", "2", "--identities"), "this action needs --sites"),
    ]
    for argv, reason in unfit:
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert reason in err, argv


def refuse_constants(token):
    raise ValueError(f"not strict JSON: {token}")


def test_json_output_is_strict(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    invocations = [
        "motifs --sites 6 --list",
        "motifs --sites 9 --half-count --brute",
        "tableau --sites 4 --m 2 --n 1",
        "tableau --spins=-3,1,1,0,-2,-1,-1 --m 3 --n 3",
        "fib --m 3 --upto 8",
        "dmin --sites 10 --translational --asymptotic",
        "dmin --sites 10 --m 30 --asymptotic",
        "table1",
        "spectrum --chain hs --sites 8 --levels",
        "spectrum --chain fi --alpha irrational --sites 5 --levels",
        "spectrum --chain pf --sites 9 --bounds",
        "partition --chain fi --alpha 5/2 --sites 8 --levels-only",
        "partition --chain hs --sites 6",
        "diag --chain pf --sites 5",
        "diag --chain elliptic --ksq 0.5 --sites 6 --m 2 --n 0 --compare",
        "anyon --m 2 --sites 5 --weights",
        "anyon --m 2 --fit-g --k 3 --orbitals 60,120",
        "figure --name fig5 --max-sites 8",
    ]
    rows = {}
    for argv in invocations:
        code, out, err = run_cli(*argv.split(), "--format", "json")
        assert code == 0, (argv, err)
        rows[argv] = json.loads(out, parse_constant=refuse_constants)["rows"]
    # a chain without a formula level set has no energy error: nan in CSV, null in JSON
    compare = rows["diag --chain elliptic --ksq 0.5 --sites 6 --m 2 --n 0 --compare"]
    assert compare[0]["max_error"] is None and compare[0]["matched"] is True
    # a level-count mismatch has an infinite one
    monkeypatch.setattr(oracle, "formula_dispersion", lambda chain: spectrum.PFDispersion(chain.sites))
    code, out, err = run_cli("diag", "--chain", "hs", "--sites", "5", "--compare", "--format", "json")
    assert code == 1 and "level count" in err
    row = json.loads(out, parse_constant=refuse_constants)["rows"][0]
    assert row["max_error"] is None and row["matched"] is False
    code, out, _ = run_cli("diag", "--chain", "hs", "--sites", "5", "--compare")
    assert out.splitlines()[1].split(",")[5] == "inf"


def test_dmin_asymptotic_at_high_order():
    code, out, err = run_cli("dmin", "--sites", "10", "--m", "30", "--asymptotic")
    assert code == 0, err
    assert out.splitlines()[1:] == ["generic,1153300781250,1.1533e+12", "asymptotic,,1.1533e+12"]


@pytest.mark.parametrize("action", ["--brute", "--list"])
def test_motif_sweeps_past_the_cap_fail_fast(action):
    start = time.perf_counter()
    code, out, err = run_cli("motifs", "--sites", "28", "--m", "2", action)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "exceed cap" in err


def test_figure_rejects_flag_its_builder_does_not_take(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("figure", "--name", "fig3", "--ksq", "0.3")
    assert (code, out) == (2, "")
    assert "takes no --ksq" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "--name", "fig3", "--max-sites", "2"),  # nothing to plot
        ("figure", "--name", "fig4", "--ksq", "0.1", "--max-sites", "13"),  # unresolvable levels
        ("figure", "--name", "fig2", "--max-sites", "5"),  # no su(2|0) sizes
        ("figure", "--name", "fig5", "--max-sites", "4"),  # no odd sizes
    ],
)
def test_failed_figure_writes_no_file(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert list(tmp_path.iterdir()) == []
    # a figure left without a whole family names it
    family = {"fig2": "su(2|0) average", "fig5": "count, odd sizes"}.get(argv[2])
    assert family is None or f"no points in series {family!r}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "--chain", "hs", "--sites", "5", "--dump-terms", "{missing}/x.bin"),
        ("figure", "--name", "fig5", "--max-sites", "8", "--output", "{missing}/x"),
    ],
)
def test_unwritable_output_exits_one(tmp_path, argv):
    missing = tmp_path / "missing"
    code, out, err = run_cli(*(arg.format(missing=missing) for arg in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not missing.exists()


def test_computational_failure_exits_one():
    code, _, err = run_cli("spectrum", "--chain", "hs", "--sites", "6", "--m", "3", "--bounds")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("sites,m", [("2", "14000"), ("10000000", "2")])
def test_diag_refuses_oversized_chain(sites, m):
    code, out, err = run_cli("diag", "--chain", "hs", "--sites", sites, "--m", m)
    assert code == 1
    assert out == ""
    assert "sectors" in err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


ROOT = Path(__file__).resolve().parent.parent


def readme_examples() -> tuple[str, ...]:
    """The README's command lines, after the program name and before any comment."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return tuple(
        " ".join(line.split("#")[0].split()[1:]) for line in lines if line.startswith("motifspectra ")
    )


def bench_module(name: str):
    """A module of the bench harness, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_exist():
    # `bench/run.py --trace 1` patches these attributes and reads the fiber cache's statistics
    tracer = bench_module("tracer")
    for module_name, attr, _ in tracer.SPANS:
        assert callable(getattr(importlib.import_module(f"motifspectra.{module_name}"), attr)), attr
    assert callable(tableau._fiber_cache.cache_info)


def test_readme_examples_run_as_documented(tmp_path, monkeypatch):
    workloads = bench_module("workloads")
    examples = readme_examples()
    assert examples == workloads.README_EXAMPLES
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        code, out, err = run_cli(*argv.split())
        assert code == 0, (argv, err)
        assert out


def test_parser_is_built_once():
    cli._build_parser.cache_clear()
    first = run_cli("motifs", "--sites", "9", "--m", "3")
    assert run_cli("tableau", "--sites", "4")[0] == 0
    # refused calls leave nothing in the parser for the next call to see
    with pytest.raises(SystemExit):
        run_cli("motifs", "--sites", "9", "--list", "--half-count")
    with pytest.raises(SystemExit):
        run_cli("tableau", "--spins=0,1", "--sites", "2")
    assert run_cli("motifs", "--sites", "9", "--m", "3") == first
    assert cli._build_parser.cache_info().misses == 1


def test_bench_jobs_reproduce_their_references(tmp_path, monkeypatch):
    # every bench job checked by digest, replayed in order: stdout, written files, loaded polynomial
    worker, workloads = bench_module("worker"), bench_module("workloads")
    references = json.loads((ROOT / "bench" / "references.json").read_text())["jobs"]
    monkeypatch.chdir(tmp_path)
    replayed = 0
    for jobs in workloads.WORKLOADS.values():
        for job in jobs():
            if job["check"] in ("exact", "poly"):
                observed = worker.observe(job, worker.run_job(job, cli, partition))
                assert observed == references[job["id"]], job["id"]
                replayed += 1
    assert replayed == 31
