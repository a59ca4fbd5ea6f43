"""Command line front end.

Every subcommand prints a small table to stdout, as CSV (default) or as a
JSON document with a meta block echoing the tool version and the parsed
configuration.  Output is deterministic: identical invocations produce
byte-identical stdout.  Exit status 0 means success, 1 a computational
check that failed (a cross-check mismatch or a broken identity), 2 a usage
error.

`main` owns the boundary.  The argparse types and groups and `_flag_error`
decide every usage error before a handler runs.  A handler `_cmd_*` returns
its table as (columns, rows) for `main` to write, or raises for exit 1;
only `tableau --art` prints itself, and `diag --compare` writes its row
before it raises on a mismatch.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, anyon, fibnum, figures, motif, oracle, partition, spectrum, tableau

_TOOL = "motifspectra"
_SYMBOLIC = object()  # --alpha irrational: the generic coupling, kept symbolic
# the coupling flags each chain reads
_CHAIN_FLAGS = {"hs": (), "pf": (), "fi": ("alpha",), "elliptic": ("ksq",)}
_Table = tuple[list[str], list[tuple]]  # a handler's (columns, rows)


def _parse_alpha(text: str):
    """Fraction like '3' or '5/2', or `_SYMBOLIC` for the generic value."""
    if text.lower() in ("irrational", "symbolic", "generic"):
        return _SYMBOLIC
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"need a fraction such as 5/2, or irrational, got {text!r}") from None


def _checked(convert, ok, need: str):
    """Argparse type: `convert` the text, and make a value failing `ok` a usage error."""

    def parse(text: str):
        value = convert(text)
        if value is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return value

    # argparse names the type in its "invalid <type> value" message
    parse.__name__ = convert.__name__
    return parse


def _parse_spins(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated integer spins, got {text!r}") from None


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _joined(values) -> str:
    return ";".join(map(str, values))


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float) and not math.isfinite(v):
        return None  # strict JSON has no nan or infinity
    return v


def _config(args: argparse.Namespace) -> dict:
    out = {}
    for k, v in vars(args).items():
        if k == "func" or v is None or v is _SYMBOLIC:
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
        json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ": "), allow_nan=False)
        sys.stdout.write("\n")
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(_cell(v) for v in row))
        print("config: " + json.dumps(cfg, sort_keys=True), file=sys.stderr)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _orbital_counts(text: str) -> tuple[int, ...]:
    """The comma-separated orbital counts of --orbitals, or () when one is not an integer."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        return ()


def _cmd_motifs(args: argparse.Namespace) -> _Table:
    N, m, n = args.sites, args.m, args.n
    if args.list:
        rows = []
        for k, mot in enumerate(motif.enumerate_motifs(N, m, n)):
            rows.append((k, str(mot), mot.ones(), _joined(mot.rapidities())))
        return ["index", "bits", "ones", "rapidities"], rows
    if args.half_count:
        name, count, enumerated = "half_count", motif.count_half, motif.count_half_by_enumeration
    else:
        name, count, enumerated = "count", motif.count, motif.count_by_enumeration
    val = count(N, m, n)
    if not args.brute:
        return ["sites", "m", "n", name], [(N, m, n, val)]
    brute = enumerated(N, m, n)
    if brute != val:
        raise AssertionError(f"{name.replace('_', ' ')} {val} != enumerated {brute}")
    return ["sites", "m", "n", name, "enumerated"], [(N, m, n, val, brute)]


def _cmd_tableau(args: argparse.Namespace) -> _Table | None:
    m, n = args.m, args.n
    if args.spins is not None:
        spins = args.spins
        mot = tableau.motif_of_spins(spins, m, n)
        if args.art:
            for line in tableau.tableau_lines(spins, m, n):
                print(line)
            return None
        dim = tableau.module_dimension(mot, m, n)
        row = (_joined(spins), str(mot), _joined(mot.rapidities()), _joined(tableau.dual_spins(spins)), dim)
        return ["spins", "bits", "rapidities", "dual_spins", "dimension"], [row]
    N = args.sites
    rows = [(str(motif.Motif(word, N)), d) for word, d in sorted(tableau.fiber_sizes(N, m, n).items())]
    total = sum(d for _, d in rows)
    if total != (m + n) ** N:
        raise AssertionError(f"fiber dimensions sum to {total}, expected {(m + n) ** N}")
    return ["bits", "dimension"], rows


def _cmd_fib(args: argparse.Namespace) -> _Table:
    return ["n", "value"], list(enumerate(fibnum.fib_table(args.m, args.upto)))


def _cmd_dmin(args: argparse.Namespace) -> _Table:
    N, m, n = args.sites, args.m, args.n
    generic = fibnum.min_avg_degeneracy(N, m, n)
    rows = [("generic", str(generic), float(generic))]
    if args.translational:
        v = fibnum.min_avg_degeneracy_translational(N, m, n)
        rows.append(("translational", str(v), float(v)))
    if args.asymptotic:
        if m and n:
            raise ValueError("asymptotic form exists only for pure contexts")
        rows.append(("asymptotic", "", fibnum.min_avg_degeneracy_asymptotic(N, m or n)))
        if args.translational and (m, n) in ((2, 0), (0, 2)):
            rows.append(
                ("translational asymptotic", "", fibnum.min_avg_degeneracy_translational_asymptotic(N))
            )
    return ["kind", "exact", "value"], rows


def _cmd_table1(args: argparse.Namespace) -> _Table:
    rows = []
    for m in range(2, 11):
        rd = fibnum.characteristic_roots(m)
        rows.append(
            (m, f"{rd.dominant:.5f}", f"{rd.gamma:.5f}", f"{rd.coefficient:.5f}", f"{rd.kappa:.5f}")
        )
    return ["m", "lambda", "gamma", "coefficient", "kappa"], rows


def _make_dispersion(chain: str, N: int, alpha):
    if chain == "hs":
        return spectrum.HSDispersion(N)
    if chain == "pf":
        return spectrum.PFDispersion(N)
    if alpha is _SYMBOLIC:
        return spectrum.SymbolicAlphaDispersion(N)
    return spectrum.FIDispersion(N, alpha)


def _cmd_spectrum(args: argparse.Namespace) -> _Table:
    N, m, n = args.sites, args.m, args.n
    disp = _make_dispersion(args.chain, N, args.alpha)
    if args.bounds:
        return ["sites", "m", "n", "bound"], [(N, m, n, spectrum.level_bounds(disp, m, n))]
    if args.avg_deg:
        count = spectrum.level_count(N, m, n, disp)
        avg = Fraction((m + n) ** N, count)
        return ["sites", "m", "n", "levels", "average", "value"], [(N, m, n, count, str(avg), float(avg))]
    lv = spectrum.level_set(N, m, n, disp)
    if isinstance(disp, spectrum.SymbolicAlphaDispersion):
        return ["alpha_coeff", "const_coeff", "degeneracy"], [(e[0], e[1], d) for e, d in lv]
    return ["energy", "degeneracy"], lv


def _cmd_partition(args: argparse.Namespace) -> _Table:
    N = args.sites
    qp = partition.hs_partition(N) if args.chain == "hs" else partition.fi_partition(N, args.alpha)
    if args.dump_terms:
        with open(args.dump_terms, "wb") as fh:
            partition.dump_terms(qp, fh)
        return ["sites", "terms", "file"], [(N, qp.term_count(), args.dump_terms)]
    if args.levels_only:
        s = partition.levels(qp)
        columns = ["sites", "count", "max_degeneracy", "average", "value"]
        return columns, [(N, s.count, s.max_degeneracy, str(s.average), float(s.average))]
    return ["energy", "degeneracy"], [(str(e), c) for e, (_, c) in zip(qp.energies(), qp.sorted_terms())]


def _cmd_diag(args: argparse.Namespace) -> _Table | None:
    chain = oracle.ChainSpec(args.chain, args.sites, args.m, args.n, alpha=args.alpha, ksq=args.ksq)
    if not args.compare:
        return ["energy", "multiplicity"], oracle.cluster_levels(oracle.chain_eigenvalues(chain))
    report = oracle.compare(chain)
    levels = len(report.levels_numeric)
    rows = [(args.chain, args.sites, args.m, args.n, report.matched, report.max_energy_error, levels)]
    # the row is printed on a mismatch too, before the exit 1
    _emit(args, ["chain", "sites", "m", "n", "matched", "max_error", "levels"], rows)
    if not report.matched:
        raise AssertionError(report.mismatch or "levels do not match")
    return None


def _cmd_anyon(args: argparse.Namespace) -> _Table:
    m = args.m
    if args.fit_g:
        fit = anyon.statistics_fit(m, args.k, _orbital_counts(args.orbitals))
        (a1, g1), (a2, g2) = fit.samples
        columns = ["m", "k", "orbitals1", "G1", "orbitals2", "G2", "G_infinity", "g", "value"]
        return columns, [(m, args.k, a1, str(g1), a2, str(g2), str(fit.g_infinity), str(fit.g), float(fit.g))]
    if args.identities:
        report = anyon.verify_identities(m, args.sites)
        columns = ["m", "sites", "total", "diagonal", "fibonacci"]
        return columns, [(m, args.sites, report["total"], report["diagonal"], report["fibonacci"])]
    return ["k", "weight"], list(enumerate(anyon.motif_weights(args.sites, m).weights))


def _cmd_figure(args: argparse.Namespace) -> _Table:
    builder, title, xlabel, ylabel = figures.FIGURES[args.name]
    kwargs = {k: getattr(args, k) for k in ("max_sites", "ksq") if getattr(args, k) is not None}
    series = builder(**kwargs)
    svg = figures.render_svg(series, title, xlabel, ylabel)
    prefix = args.output if args.output else args.name
    csv_path = prefix + ".csv"
    svg_path = prefix + ".svg"
    with open(csv_path, "w") as fh:
        fh.write("series,x,y\n")
        for s in series:
            for x, y in zip(s.xs, s.ys):
                fh.write(f"{s.label},{x:.6g},{y:.6g}\n")
    with open(svg_path, "w") as fh:
        fh.write(svg)
    return ["file", "bytes"], [(csv_path, os.path.getsize(csv_path)), (svg_path, os.path.getsize(svg_path))]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog=_TOOL,
        description="Exact spectra, degeneracies and counting bounds of motif-solvable chains.",
    )
    parser.add_argument("--version", action="version", version=f"{_TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sites = _checked(int, lambda v: v >= 1, "at least 1 site")
    ksq = _checked(float, lambda v: 0.0 <= v < 1.0, "0 <= ksq < 1")
    alpha = _checked(_parse_alpha, lambda v: v is _SYMBOLIC or v > 0, "alpha > 0")
    bosons = _checked(int, lambda v: v >= 0, "m >= 0")
    fermions = _checked(int, lambda v: v >= 0, "n >= 0")
    order = _checked(int, lambda v: v >= 2, "m >= 2")

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    p = add("motifs", _cmd_motifs, "count or list run-constrained motifs")
    p.add_argument("--sites", type=sites, required=True)
    p.add_argument("--m", type=bosons, default=2)
    p.add_argument("--n", type=fermions, default=0)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--list", action="store_true")
    g.add_argument("--count", action="store_true")
    g.add_argument("--half-count", action="store_true")
    p.add_argument("--brute", action="store_true", help="cross-check against enumeration")

    p = add("tableau", _cmd_tableau, "spin configurations, motifs and fiber dimensions")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--spins", type=_parse_spins, default=None, help="comma-separated spin values")
    g.add_argument("--sites", type=sites, default=None, help="list dimensions of all motifs")
    p.add_argument("--m", type=bosons, default=2)
    p.add_argument("--n", type=fermions, default=0)
    p.add_argument("--art", action="store_true", help="print the border-strip rendering of --spins")

    p = add("fib", _cmd_fib, "generalized Fibonacci numbers")
    p.add_argument("--m", type=order, required=True)
    p.add_argument("--upto", type=_checked(int, lambda v: v >= 0, "upto >= 0"), required=True)

    p = add("dmin", _cmd_dmin, "minimum average degeneracy bounds")
    p.add_argument("--sites", type=sites, required=True)
    p.add_argument("--m", type=bosons, default=2)
    p.add_argument("--n", type=fermions, default=0)
    p.add_argument("--translational", action="store_true")
    p.add_argument("--asymptotic", action="store_true")

    add("table1", _cmd_table1, "characteristic constants for orders 2..10")

    p = add("spectrum", _cmd_spectrum, "exact level sets from closed dispersions")
    p.add_argument("--chain", choices=("hs", "pf", "fi"), required=True)
    p.add_argument("--alpha", type=alpha, default=None)
    p.add_argument("--sites", type=sites, required=True)
    p.add_argument("--m", type=bosons, default=2)
    p.add_argument("--n", type=fermions, default=0)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--levels", action="store_true")
    g.add_argument("--avg-deg", action="store_true")
    g.add_argument("--bounds", action="store_true")

    p = add("partition", _cmd_partition, "level polynomials from the transfer-matrix kernel")
    p.add_argument("--chain", choices=("hs", "fi"), required=True)
    p.add_argument("--alpha", type=alpha, default=None)
    p.add_argument("--sites", type=sites, required=True)
    p.add_argument("--levels-only", action="store_true")
    p.add_argument("--dump-terms", metavar="FILE", default=None)

    p = add("diag", _cmd_diag, "diagonalization by occupation × momentum block and formula comparison")
    p.add_argument("--chain", choices=("hs", "pf", "fi", "elliptic"), required=True)
    p.add_argument("--sites", type=_checked(int, lambda v: v >= 2, "at least 2 sites"), required=True)
    p.add_argument("--m", type=bosons, default=2)
    p.add_argument("--n", type=fermions, default=0)
    p.add_argument("--alpha", type=alpha, default=None)
    p.add_argument("--ksq", type=ksq, default=None)
    p.add_argument("--compare", action="store_true")

    p = add("anyon", _cmd_anyon, "statistical weights and exclusion statistics")
    p.add_argument("--m", type=order, required=True)
    p.add_argument("--sites", type=sites, default=None)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--weights", action="store_true")
    g.add_argument("--identities", action="store_true")
    g.add_argument("--fit-g", action="store_true")
    p.add_argument("--k", type=_checked(int, lambda v: v >= 2, "k >= 2"), default=None)
    p.add_argument("--orbitals", default=None, help="two comma-separated orbital counts")

    p = add("figure", _cmd_figure, "write a figure as CSV plus SVG")
    p.add_argument("--name", choices=sorted(figures.FIGURES), required=True)
    p.add_argument("--max-sites", type=sites, default=None)
    p.add_argument("--ksq", type=ksq, default=None)
    p.add_argument("--output", default=None, help="output path prefix (default: the name)")

    return parser


def _flag_error(args: argparse.Namespace) -> str | None:
    """Why a parsed flag does not fit the command or its chain, or None when all fit.

    A figure takes the flags of its builder.  A chain takes the coupling
    flag it reads, --alpha (fi) or --ksq (elliptic), needs it, and takes no
    other; `spectrum` also takes the symbolic --alpha, which `partition`
    and `diag` cannot compute with.  `tableau --art` renders --spins, and
    each `anyon` action needs the flags it reads.
    """
    if args.command == "tableau" and args.art and args.spins is None:
        return "--art needs --spins"
    if args.command == "anyon" and args.fit_g:
        if args.k is None or args.orbitals is None:
            return "--fit-g needs --k and --orbitals"
        if len(_orbital_counts(args.orbitals)) != 2:
            return "--orbitals wants two comma-separated counts"
    elif args.command == "anyon" and args.sites is None:
        return "this action needs --sites"
    if args.command == "figure":
        params = inspect.signature(figures.FIGURES[args.name][0]).parameters
        for k in ("max_sites", "ksq"):
            if getattr(args, k) is not None and k not in params:
                return f"figure {args.name} takes no --{k.replace('_', '-')}"
        return None
    if not hasattr(args, "chain"):
        return None
    uses = _CHAIN_FLAGS[args.chain]
    for flag in ("alpha", "ksq"):
        given = getattr(args, flag, None) is not None
        if given and flag not in uses:
            return f"--chain {args.chain} takes no --{flag}"
        if not given and flag in uses:
            return f"--chain {args.chain} needs --{flag}"
    if args.alpha is _SYMBOLIC and args.command != "spectrum":
        return f"{args.command} needs a numeric --alpha"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "n") and args.m + args.n < 1:
        parser.error(f"need m + n >= 1, got m={args.m}, n={args.n}")
    message = _flag_error(args)
    if message:
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        table = args.func(args)
        if table is not None:
            _emit(args, *table)
    except (ValueError, AssertionError, NotImplementedError, OSError) as exc:
        return _fail(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
