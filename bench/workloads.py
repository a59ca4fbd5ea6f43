"""Job lists of the three benchmark workloads.

A job is a dict with a unique `id`, an `argv` for `motifspectra.cli.main`
(or `call` naming a library call) and a `check` naming how its output is
verified against `references.json`:

* `exact`: exit code, stdout and every written file compared by sha256;
* `levels`: `diag` output; level count and multiplicities exactly, energies
  to a relative tolerance (BLAS round-off moves the printed digits);
* `compare`: `diag --compare` output; `matched=true` and the level count;
* `poly`: a loaded q-polynomial compared by digest.

The order is fixed: the N=22 spectra share one cold fiber table, a dump is
read back by the next job, and the process's peak RSS depends on what ran
before the largest job (heap the interpreter keeps), by 10 % between orders.
"""

from __future__ import annotations

KNOWN_DEFECT = "elliptic couplings have a closed dispersion only for (m, n) = (1, 1)"


def _cli(job_id: str, argv: str, check: str = "exact", files: tuple[str, ...] = ()) -> dict:
    return {"id": job_id, "argv": argv.split(), "check": check, "files": list(files)}


def _exact_large() -> list[dict]:
    # Each exact layer at the size where it is busiest: fibers ~36 %,
    # hs_partition ~30 %, level_set ~23 %, the oracle 0 %.
    return [
        _cli("partition-hs-100", "partition --chain hs --sites 100 --levels-only"),
        _cli(
            "partition-fi-60-dump",
            "partition --chain fi --alpha 5/2 --sites 60 --dump-terms fi60.bin",
            files=("fi60.bin",),
        ),
        {"id": "load-fi-60", "call": "load_terms", "path": "fi60.bin", "check": "poly", "files": []},
        _cli("spectrum-hs-22", "spectrum --chain hs --sites 22 --levels"),
        _cli("spectrum-pf-22", "spectrum --chain pf --sites 22 --avg-deg"),
        _cli("spectrum-fi3-22", "spectrum --chain fi --alpha 3 --sites 22 --avg-deg"),
        _cli("spectrum-fisym-14-m3", "spectrum --chain fi --alpha irrational --sites 14 --m 3 --avg-deg"),
        _cli("tableau-14-m2n1", "tableau --sites 14 --m 2 --n 1"),
        _cli("motifs-26-brute", "motifs --sites 26 --m 2 --brute"),
        _cli("motifs-25-half-brute", "motifs --sites 25 --m 2 --half-count --brute"),
    ]


def _oracle_dense() -> list[dict]:
    # Acceptance criterion 6's elliptic chains plus five formula comparisons:
    # the eigensolve and Hamiltonian assembly dominate.
    out = []
    for m, n, sizes in ((2, 0, (8, 10, 12)), (3, 0, (6, 7)), (2, 1, (6, 7))):
        for N in sizes:
            argv = f"diag --chain elliptic --ksq 0.5 --sites {N} --m {m} --n {n}"
            out.append(_cli(f"diag-elliptic-{m}{n}-{N}", argv, check="levels"))
    for job_id, argv in (
        ("compare-hs-20-10", "diag --chain hs --sites 10 --m 2 --n 0 --compare"),
        ("compare-pf-20-10", "diag --chain pf --sites 10 --m 2 --n 0 --compare"),
        ("compare-fi3-02-10", "diag --chain fi --alpha 3 --sites 10 --m 0 --n 2 --compare"),
        ("compare-hs-21-7", "diag --chain hs --sites 7 --m 2 --n 1 --compare"),
        ("compare-elliptic-11-10", "diag --chain elliptic --ksq 0.5 --sites 10 --m 1 --n 1 --compare"),
    ):
        out.append(_cli(job_id, argv, check="compare"))
    return out


# The README's command-line examples, verbatim after the program name.
README_EXAMPLES = (
    "motifs --sites 22 --m 3 --brute",
    "motifs --sites 6 --m 2 --list",
    "motifs --sites 9 --m 2 --half-count --brute",
    "tableau --spins=-3,1,1,0,-2,-1,-1 --m 3 --n 3",
    "tableau --spins=-3,1,1,0,-2,-1,-1 --m 3 --n 3 --art",
    "tableau --sites 6 --m 2 --n 0",
    "fib --m 4 --upto 30",
    "dmin --sites 12 --translational --asymptotic",
    "table1",
    "spectrum --chain hs --sites 10 --levels",
    "spectrum --chain fi --alpha 5/2 --sites 8 --avg-deg",
    "spectrum --chain fi --alpha irrational --sites 6 --levels",
    "spectrum --chain pf --sites 12 --bounds",
    "partition --chain hs --sites 40 --levels-only",
    "partition --chain fi --alpha 3 --sites 20 --dump-terms terms.bin",
    "diag --chain elliptic --ksq 0.5 --sites 8 --m 2 --n 0 --compare",
    "anyon --m 3 --sites 20 --identities",
    "anyon --m 2 --fit-g --k 3 --orbitals 200,400",
    "figure --name fig2 --output fig2",
)


def _readme_sweep() -> list[dict]:
    # Many small CLI calls: ~95 hs_partition calls with N from 4 to 60, the
    # level_count_by_enumeration sweep and per-invocation CLI and figure cost.
    out = []
    for k, argv in enumerate(README_EXAMPLES):
        files: tuple[str, ...] = ()
        if "--dump-terms" in argv:
            files = ("terms.bin",)
        elif argv.startswith("figure"):
            files = ("fig2.csv", "fig2.svg")
        job = _cli(f"readme-{k:02d}", argv, files=files)
        if argv.startswith("diag"):
            # The known defect: exits 1 after diagonalizing.  Once fixed it
            # must give the level count of the same chain in oracle-dense.
            job.update(check="compare", same_chain="diag-elliptic-20-8")
        out.append(job)
    for name, max_sites in (("fig3", 40), ("fig4", 14), ("fig5", 60)):
        argv = f"figure --name {name} --max-sites {max_sites}"
        out.append(_cli(f"{name}-{max_sites}", argv, files=(f"{name}.csv", f"{name}.svg")))
    return out


WORKLOADS = {
    "exact-large": _exact_large,
    "oracle-dense": _oracle_dense,
    "readme-sweep": _readme_sweep,
}
