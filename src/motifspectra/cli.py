"""Command line front end.

Every subcommand prints a small table to stdout, as CSV (default) or as a
JSON document with a meta block echoing the tool version and the parsed
configuration.  Output is deterministic: identical invocations produce
byte-identical stdout.  Exit status 0 means success, 1 a computational
check that failed (a cross-check mismatch or a broken identity), 2 a usage
error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from fractions import Fraction

from . import __version__, anyon, fibnum, figures, motif, oracle, partition, spectrum, tableau

_TOOL = "motifspectra"


def _parse_alpha(text: str) -> Fraction | None:
    """Fraction like '3' or '5/2', or None for the symbolic generic value."""
    if text.lower() in ("irrational", "symbolic", "generic"):
        return None
    return Fraction(text)


def _parse_spins(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def _config(args: argparse.Namespace) -> dict:
    out = {}
    for k, v in vars(args).items():
        if k == "func" or v is None:
            continue
        out[k] = str(v) if isinstance(v, Fraction) else v
    return out


def _emit(args: argparse.Namespace, columns: list[str], rows: list[tuple]) -> None:
    cfg = _config(args)
    if args.format == "json":
        payload = {
            "meta": {"tool": _TOOL, "version": __version__, "config": cfg},
            "rows": [{c: _jsonable(v) for c, v in zip(columns, row)} for row in rows],
        }
        json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ": "))
        sys.stdout.write("\n")
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(_cell(v) for v in row))
        print("config: " + json.dumps(cfg, sort_keys=True), file=sys.stderr)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _cmd_motifs(args: argparse.Namespace) -> int:
    N, m, n = args.sites, args.m, args.n
    if args.list:
        rows = []
        for k, mot in enumerate(motif.enumerate_motifs(N, m, n)):
            rows.append((k, str(mot), mot.ones(), ";".join(map(str, mot.rapidities()))))
        _emit(args, ["index", "bits", "ones", "rapidities"], rows)
        return 0
    if args.half_count:
        val = motif.count_half(N, m, n)
        if args.brute:
            brute = motif.count_half_by_enumeration(N, m, n)
            if brute != val:
                return _fail(f"half count {val} != enumerated {brute}")
            _emit(args, ["sites", "m", "n", "half_count", "enumerated"], [(N, m, n, val, brute)])
        else:
            _emit(args, ["sites", "m", "n", "half_count"], [(N, m, n, val)])
        return 0
    val = motif.count(N, m, n)
    if args.brute:
        brute = motif.count_by_enumeration(N, m, n)
        if brute != val:
            return _fail(f"count {val} != enumerated {brute}")
        _emit(args, ["sites", "m", "n", "count", "enumerated"], [(N, m, n, val, brute)])
    else:
        _emit(args, ["sites", "m", "n", "count"], [(N, m, n, val)])
    return 0


def _cmd_tableau(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    if args.spins is not None:
        spins = args.spins
        mot = tableau.motif_of_spins(spins, m, n)
        if args.art:
            for line in tableau.tableau_lines(spins, m, n):
                print(line)
            return 0
        dim = tableau.module_dimension(mot, m, n)
        rows = [
            (
                ";".join(map(str, spins)),
                str(mot),
                ";".join(map(str, mot.rapidities())),
                ";".join(map(str, tableau.dual_spins(spins))),
                dim,
            )
        ]
        _emit(args, ["spins", "bits", "rapidities", "dual_spins", "dimension"], rows)
        return 0
    N = args.sites
    if N is None:
        print("error: need --spins or --sites", file=sys.stderr)
        return 2
    sizes = tableau.fiber_sizes(N, m, n)
    rows = []
    for mot in motif.enumerate_motifs(N, m, n):
        rows.append((str(mot), sizes.get(mot.word, 0)))
    total = sum(d for _, d in rows)
    if total != (m + n) ** N:
        return _fail(f"fiber dimensions sum to {total}, expected {(m + n) ** N}")
    _emit(args, ["bits", "dimension"], rows)
    return 0


def _cmd_fib(args: argparse.Namespace) -> int:
    table = fibnum.fib_table(args.m, args.upto)
    _emit(args, ["n", "value"], list(enumerate(table)))
    return 0


def _cmd_dmin(args: argparse.Namespace) -> int:
    N, m, n = args.sites, args.m, args.n
    rows = [("generic", str(fibnum.min_avg_degeneracy(N, m, n)), float(fibnum.min_avg_degeneracy(N, m, n)))]
    if args.translational:
        v = fibnum.min_avg_degeneracy_translational(N, m, n)
        rows.append(("translational", str(v), float(v)))
    if args.asymptotic:
        if n == 0:
            rows.append(("asymptotic", "", fibnum.min_avg_degeneracy_asymptotic(N, m)))
        elif m == 0:
            rows.append(("asymptotic", "", fibnum.min_avg_degeneracy_asymptotic(N, n)))
        else:
            return _fail("asymptotic form exists only for pure contexts")
        if args.translational and (m, n) in ((2, 0), (0, 2)):
            rows.append(
                ("translational asymptotic", "", fibnum.min_avg_degeneracy_translational_asymptotic(N))
            )
    _emit(args, ["kind", "exact", "value"], rows)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for m in range(2, 11):
        rd = fibnum.characteristic_roots(m)
        rows.append(
            (m, f"{rd.dominant:.5f}", f"{rd.gamma:.5f}", f"{rd.coefficient:.5f}", f"{rd.kappa:.5f}")
        )
    _emit(args, ["m", "lambda", "gamma", "coefficient", "kappa"], rows)
    return 0


def _make_dispersion(chain: str, N: int, alpha: Fraction | None):
    if chain == "hs":
        return spectrum.HSDispersion(N)
    if chain == "pf":
        return spectrum.PFDispersion(N)
    if alpha is None:
        return spectrum.SymbolicAlphaDispersion(N)
    return spectrum.FIDispersion(N, alpha)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    N, m, n = args.sites, args.m, args.n
    disp = _make_dispersion(args.chain, N, args.alpha)
    if args.bounds:
        bound = spectrum.level_bounds(disp, m, n)
        _emit(args, ["sites", "m", "n", "bound"], [(N, m, n, bound)])
        return 0
    lv = spectrum.level_set(N, m, n, disp)
    if args.avg_deg:
        avg = spectrum.average_degeneracy(lv)
        _emit(
            args,
            ["sites", "m", "n", "levels", "average", "value"],
            [(N, m, n, len(lv), str(avg), float(avg))],
        )
        return 0
    if isinstance(disp, spectrum.SymbolicAlphaDispersion):
        rows = [(e[0], e[1], d) for e, d in lv]
        _emit(args, ["alpha_coeff", "const_coeff", "degeneracy"], rows)
    else:
        _emit(args, ["energy", "degeneracy"], [(e, d) for e, d in lv])
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    N = args.sites
    if args.chain == "hs":
        qp = partition.hs_partition(N)
    else:
        if args.alpha is None:
            return _fail("the partition function needs a rational coupling parameter")
        qp = partition.fi_partition(N, args.alpha)
    if args.dump_terms:
        with open(args.dump_terms, "wb") as fh:
            partition.dump_terms(qp, fh)
        _emit(args, ["sites", "terms", "file"], [(N, qp.term_count(), args.dump_terms)])
        return 0
    if args.levels_only:
        s = partition.levels(qp)
        _emit(
            args,
            ["sites", "count", "max_degeneracy", "average", "value"],
            [(N, s.count, s.max_degeneracy, str(s.average), float(s.average))],
        )
        return 0
    rows = [(str(e), c) for (e, c) in zip(qp.energies(), (c for _, c in qp.sorted_terms()))]
    _emit(args, ["energy", "degeneracy"], rows)
    return 0


def _cmd_diag(args: argparse.Namespace) -> int:
    if args.chain == "fi" and args.alpha is None:
        print("error: diagonalization needs a numeric --alpha", file=sys.stderr)
        return 2
    if args.chain == "elliptic" and args.ksq is None:
        print("error: elliptic couplings need --ksq", file=sys.stderr)
        return 2
    chain = oracle.ChainSpec(args.chain, args.sites, args.m, args.n, alpha=args.alpha, ksq=args.ksq)
    if args.compare:
        report = oracle.compare(chain, cluster_tol=args.cluster_tol)
        rows = [
            (
                args.chain,
                args.sites,
                args.m,
                args.n,
                report.matched,
                report.max_energy_error,
                len(report.levels_numeric),
            )
        ]
        _emit(args, ["chain", "sites", "m", "n", "matched", "max_error", "levels"], rows)
        if not report.matched:
            return _fail(report.mismatch or "levels do not match")
        return 0
    lam = oracle.chain_eigenvalues(chain)
    rows = [(e, d) for e, d in oracle.cluster_levels(lam, args.cluster_tol)]
    _emit(args, ["energy", "multiplicity"], rows)
    return 0


def _cmd_anyon(args: argparse.Namespace) -> int:
    m = args.m
    if args.fit_g:
        if args.k is None or args.orbitals is None:
            print("error: --fit-g needs --k and --orbitals", file=sys.stderr)
            return 2
        try:
            counts = tuple(int(t) for t in args.orbitals.split(","))
        except ValueError:
            counts = ()
        if len(counts) != 2:
            print("error: --orbitals wants two comma-separated counts", file=sys.stderr)
            return 2
        fit = anyon.statistics_fit(m, args.k, counts)
        (a1, g1), (a2, g2) = fit.samples
        rows = [(m, args.k, a1, str(g1), a2, str(g2), str(fit.g_infinity), str(fit.g), float(fit.g))]
        _emit(
            args,
            ["m", "k", "orbitals1", "G1", "orbitals2", "G2", "G_infinity", "g", "value"],
            rows,
        )
        return 0
    if args.sites is None:
        print("error: this action needs --sites", file=sys.stderr)
        return 2
    if args.identities:
        try:
            report = anyon.verify_identities(m, args.sites)
        except anyon.IdentityError as exc:
            return _fail(str(exc))
        _emit(
            args,
            ["m", "sites", "total", "diagonal", "fibonacci"],
            [(m, args.sites, report["total"], report["diagonal"], report["fibonacci"])],
        )
        return 0
    table = anyon.motif_weights(args.sites, m)
    _emit(args, ["k", "weight"], list(enumerate(table.weights)))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    builder, title, xlabel, ylabel, logy = figures.FIGURES[args.name]
    kwargs = {}
    params = inspect.signature(builder).parameters
    if args.max_sites is not None and "max_sites" in params:
        kwargs["max_sites"] = args.max_sites
    if args.ksq is not None and "ksq" in params:
        kwargs["ksq"] = args.ksq
    series = builder(**kwargs)
    prefix = args.output if args.output else args.name
    csv_path = prefix + ".csv"
    svg_path = prefix + ".svg"
    with open(csv_path, "w") as fh:
        fh.write("series,x,y\n")
        for s in series:
            for x, y in zip(s.xs, s.ys):
                fh.write(f"{s.label},{x:.6g},{y:.6g}\n")
    svg = figures.render_svg(series, title, xlabel, ylabel, logy)
    with open(svg_path, "w") as fh:
        fh.write(svg)
    _emit(
        args,
        ["file", "bytes"],
        [(csv_path, os.path.getsize(csv_path)), (svg_path, os.path.getsize(svg_path))],
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_TOOL,
        description="Exact spectra, degeneracies and counting bounds of motif-solvable chains.",
    )
    parser.add_argument("--version", action="version", version=f"{_TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    p = add("motifs", _cmd_motifs, "count or list run-constrained motifs")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=0)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--list", action="store_true")
    g.add_argument("--count", action="store_true")
    g.add_argument("--half-count", action="store_true")
    p.add_argument("--brute", action="store_true", help="cross-check against enumeration")

    p = add("tableau", _cmd_tableau, "spin configurations, motifs and fiber dimensions")
    p.add_argument("--spins", type=_parse_spins, default=None, help="comma-separated spin values")
    p.add_argument("--sites", type=int, default=None, help="list dimensions of all motifs")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--art", action="store_true", help="print the border-strip rendering")

    p = add("fib", _cmd_fib, "generalized Fibonacci numbers")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--upto", type=int, required=True)

    p = add("dmin", _cmd_dmin, "minimum average degeneracy bounds")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--translational", action="store_true")
    p.add_argument("--asymptotic", action="store_true")

    add("table1", _cmd_table1, "characteristic constants for orders 2..10")

    p = add("spectrum", _cmd_spectrum, "exact level sets from closed dispersions")
    p.add_argument("--chain", choices=("hs", "pf", "fi"), required=True)
    p.add_argument("--alpha", type=_parse_alpha, default=None)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=0)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--levels", action="store_true")
    g.add_argument("--avg-deg", action="store_true")
    g.add_argument("--bounds", action="store_true")

    p = add("partition", _cmd_partition, "level polynomials from the transfer-matrix kernel")
    p.add_argument("--chain", choices=("hs", "fi"), required=True)
    p.add_argument("--alpha", type=_parse_alpha, default=None)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--levels-only", action="store_true")
    p.add_argument("--dump-terms", metavar="FILE", default=None)

    p = add("diag", _cmd_diag, "diagonalization by occupation block and formula comparison")
    p.add_argument("--chain", choices=("hs", "pf", "fi", "elliptic"), required=True)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--alpha", type=_parse_alpha, default=None)
    p.add_argument("--ksq", type=float, default=None)
    p.add_argument("--compare", action="store_true")
    p.add_argument("--cluster-tol", type=float, default=1e-7)

    p = add("anyon", _cmd_anyon, "statistical weights and exclusion statistics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sites", type=int, default=None)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--weights", action="store_true")
    g.add_argument("--identities", action="store_true")
    g.add_argument("--fit-g", action="store_true")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--orbitals", default=None, help="two comma-separated orbital counts")

    p = add("figure", _cmd_figure, "write a figure as CSV plus SVG")
    p.add_argument("--name", choices=sorted(figures.FIGURES), required=True)
    p.add_argument("--max-sites", type=int, default=None)
    p.add_argument("--ksq", type=float, default=None)
    p.add_argument("--output", default=None, help="output path prefix (default: the name)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, AssertionError, NotImplementedError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
