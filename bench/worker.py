"""One pass over a workload's job list in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD TRACE WORKDIR

Run from the root of a checkout: `motifspectra` is imported from its `src/`.
The jobs run in WORKDIR, one at a time in this process, each an in-process
`motifspectra.cli.main(argv)` call or one library call.  The module caches
start cold because the interpreter is new.  The last stdout line is a JSON
record: the CLOCK_MONOTONIC time the first job started (the parent measures
set-up from its spawn time), the job-list wall time scaled to the reference
host speed (see CALIBRATION_S) and unscaled, peak RSS, what each job gave,
reduced to what its check compares, and, when TRACE is 1, the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

# Host speed on a shared machine drifts by tens of percent within seconds
# (on a shared 2-vCPU Xeon VM a fixed pure-Python loop ranged 0.22-0.36 s;
# CPU time followed wall time and steal time was ~3 %).  Each job's time is
# therefore scaled to a reference speed by calibration kernels timed just
# before and just after it: an interpreter loop, a numpy pass over two 4 MB
# arrays (which stay allocated, so peak RSS includes them) and a big-integer
# product, the three kinds of work in the exact layers.  A pure-Python loop
# alone over-corrected the BLAS-bound oracle-dense workload.  CALIBRATION_S
# holds each kernel's time at the reference speed.
CALIBRATION_S = {"python": 0.004, "memory": 0.0007, "bigint": 0.0025}


class Calibration:
    """Current host speed relative to the reference speed."""

    def __init__(self, numpy) -> None:
        self._numpy = numpy
        self._a = numpy.linspace(0.0, 1.0, 500_000)
        self._b = numpy.empty_like(self._a)
        self._big = 7**30000

    def _python(self) -> None:
        acc = 0
        for i in range(50_000):
            acc += i * i % 7

    def _memory(self) -> None:
        self._numpy.multiply(self._a, 1.0001, out=self._b)
        self._b.sum()

    def _bigint(self) -> None:
        (self._big * self._big) // 12345

    def slowdown(self) -> float:
        """Mean over the kernels of time / reference time; each kernel's time
        is the best of three, so an interrupt does not count as a slow host."""
        total = 0.0
        for name, ref in CALIBRATION_S.items():
            kernel = getattr(self, "_" + name)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            total += best / ref
        return total / len(CALIBRATION_S)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return _sha256(fh.read())
    except FileNotFoundError:
        return None


def poly_digest(qp) -> str:
    text = f"{qp.scale}\n" + "".join(f"{e} {c}\n" for e, c in qp.sorted_terms())
    return _sha256(text.encode())


def _csv_rows(stdout: str) -> list[list[str]]:
    return [line.split(",") for line in stdout.splitlines()[1:]]


def run_job(job: dict, cli, partition) -> dict:
    """Run one job; never raises for a failure of the program."""
    out, err = io.StringIO(), io.StringIO()
    value = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if "call" in job:
                with open(job["path"], "rb") as fh:
                    value = partition.load_terms(fh)
                code = 0
            else:
                code = cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            traceback.print_exc(file=err)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "value": value}


def observe(job: dict, raw: dict) -> dict:
    """Reduce a job's raw output to what its check compares."""
    obs: dict = {"exit": raw["exit"]}
    if raw["exit"] != 0:
        lines = raw["stderr"].strip().splitlines()
        obs["error"] = lines[-1] if lines else ""
        return obs
    check = job["check"]
    if check == "exact":
        obs["stdout"] = _sha256(raw["stdout"].encode())
        obs["files"] = {name: _file_digest(name) for name in job["files"]}
    elif check == "poly":
        obs["poly"] = poly_digest(raw["value"])
    try:
        if check == "levels":
            rows = _csv_rows(raw["stdout"])
            obs["energies"] = [float(e) for e, _ in rows]
            obs["multiplicities"] = [int(d) for _, d in rows]
        elif check == "compare":
            ((chain, sites, m, n, matched, _, levels),) = _csv_rows(raw["stdout"])
            obs.update(chain=[chain, sites, m, n], matched=matched == "true", levels=int(levels))
    except ValueError:
        return {"exit": None, "error": "unparseable output"}
    return obs


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            threads = int(get())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def run_workload(workload: str, trace: bool, workdir: str) -> dict:
    """Set up, run the job list in `workdir` and report what each job gave."""
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy

    import motifspectra
    from motifspectra import cli, figures, motif, oracle, partition, spectrum, tableau

    import workloads

    if not os.path.abspath(motifspectra.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise RuntimeError(f"motifspectra imported from {motifspectra.__file__}, not this checkout")
    jobs = workloads.WORKLOADS[workload]()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        modules = {
            "cli": cli,
            "figures": figures,
            "motif": motif,
            "oracle": oracle,
            "partition": partition,
            "spectrum": spectrum,
            "tableau": tableau,
        }
        tracing.install(tracer, modules)
    os.chdir(workdir)
    start = time.monotonic()
    calibration = Calibration(numpy)
    slow = [calibration.slowdown()]
    raws, job_s = [], []
    for job in jobs:
        t0 = time.perf_counter()
        raws.append(run_job(job, cli, partition))
        job_s.append(time.perf_counter() - t0)
        slow.append(calibration.slowdown())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "start": start,
        "wall_s": sum(t * 2 / (a + b) for t, a, b in zip(job_s, slow, slow[1:])),
        "raw_wall_s": sum(job_s),
        "peak_rss_mb": peak_kb / 1024,
        "observations": {job["id"]: observe(job, raw) for job, raw in zip(jobs, raws)},
        "layers": tracer.metrics() if tracer else None,
        "environment": environment(numpy),
    }


def main(argv: list[str]) -> int:
    workload, trace, workdir = argv
    print(json.dumps(run_workload(workload, trace == "1", workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
