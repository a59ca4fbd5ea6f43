"""Command line interface: formats, determinism, exit codes, file outputs."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from motifspectra import fibnum, partition
from motifspectra.cli import main


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


def test_dmin_rows():
    code, out, _ = run_cli("dmin", "--sites", "10", "--translational", "--asymptotic")
    assert code == 0
    lines = out.strip().splitlines()
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["generic", "translational", "asymptotic", "translational asymptotic"]
    assert lines[1].split(",")[1] == "1024/89"


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


def test_partition_levels_only():
    code, out, _ = run_cli("partition", "--chain", "fi", "--alpha", "3", "--sites", "8", "--levels-only")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "8"
    assert int(row[1]) == partition.fi_partition(8, 3).term_count()


def test_diag_compare_exit_codes():
    code, out, _ = run_cli("diag", "--chain", "hs", "--sites", "5", "--compare")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "true"
    code, _, err = run_cli("diag", "--chain", "elliptic", "--sites", "5", "--compare")
    assert code == 2  # missing --ksq
    code, _, err = run_cli("diag", "--chain", "elliptic", "--ksq", "0.5", "--sites", "8", "--compare")
    assert code == 1
    assert "closed dispersion only for (m, n) = (1, 1)" in err


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
