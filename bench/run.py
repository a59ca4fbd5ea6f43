"""motifspectra benchmark: closed-loop workloads with checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time.  Each repetition is a fresh interpreter
(`bench/worker.py`) that imports `motifspectra` from `src/`, so the module
caches start cold, and runs the whole job list of the workload (see
`bench/workloads.py`) in a fresh working directory under `.bench_work/`.
Repetitions continue while another one fits in S seconds.  Every job's
output is checked against `bench/references.json`.

With --trace 0 the last stdout line reports, as medians over repetitions:
`wall_s` (the job list, set-up excluded; each job's time is scaled to a
reference host speed by calibration kernels timed around it, because the
speed of a shared host drifts by tens of percent, and the unscaled median
goes to stderr), `setup_s` (interpreter start, imports and job preparation
up to the first job), `peak_rss_mb` (the repetition process's maximum RSS),
and `pass_frac` (jobs whose output was right over jobs attempted).

With --trace 1, repetitions alternate between untraced and traced
(`bench/tracer.py`); the per-layer metrics are medians over the traced ones
and `trace.overhead_s` is the traced minus the untraced median `wall_s`.

The inputs are the fixed job lists the references were recorded for, in a
fixed order (see `bench/workloads.py` for why), so every --seed gives the
same inputs.

BLAS runs with BLAS_THREADS threads (capped at the usable cores) on both
sides of any comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ENERGY_RTOL = 1e-5  # `diag` prints 6 significant digits; a last-digit flip is below this
BLAS_THREADS = 2
BUDGET_S = 165  # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def checkout_ok() -> bool:
    """True when run from the root of a checkout with the package source."""
    if os.path.isfile(os.path.join("src", "motifspectra", "__init__.py")):
        return True
    print("error: run from the root of a motifspectra checkout (no src/motifspectra)", file=sys.stderr)
    return False


def blas_threads() -> int:
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("MOTIFSPECTRA_JOBS", "PYTHONPATH")}
    env.update({k: str(blas_threads()) for k in BLAS_ENV})
    return env


def work_base() -> str:
    base = os.path.abspath(".bench_work")
    os.makedirs(base, exist_ok=True)
    return base


def run_rep(workload: str, trace: bool, base: str, timeout: float) -> dict | None:
    """One repetition in a fresh interpreter; None when it crashed or timed out."""
    workdir = tempfile.mkdtemp(dir=base)
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(int(trace)), workdir]
    spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {workload} repetition exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        print(f"error: {workload} worker exited {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["start"] - spawn
    report["traced"] = trace
    return report


def verdict(job: dict, obs: dict, ref: dict) -> str:
    """'pass', 'known-defect' (the recorded failure, reproduced) or 'wrong'."""
    if ref["exit"] != 0:
        if obs["exit"] == ref["exit"] and workloads.KNOWN_DEFECT in obs.get("error", ""):
            return "known-defect"
        # A fixed defect passes once it matches the level count of the same chain.
        ok = obs["exit"] == 0 and obs.get("matched") is True and obs.get("levels") == ref["levels"]
        return "pass" if ok else "wrong"
    if obs["exit"] != 0:
        return "wrong"
    check = job["check"]
    if check == "levels":
        if obs["multiplicities"] != ref["multiplicities"]:
            return "wrong"
        scale = max([1.0] + [abs(e) for e in ref["energies"]])
        close = all(abs(a - b) <= ENERGY_RTOL * scale for a, b in zip(obs["energies"], ref["energies"]))
        return "pass" if close else "wrong"
    if check == "compare":
        ok = obs["matched"] and obs["levels"] == ref["levels"] and obs["chain"] == ref["chain"]
        return "pass" if ok else "wrong"
    keys = {"exact": ("stdout", "files"), "poly": ("poly",)}[check]
    return "pass" if all(obs[k] == ref[k] for k in keys) else "wrong"


def _value(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True, help="accepted; the job lists are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not checkout_ok():
        return 2
    with open(os.path.join(BENCH, "references.json")) as fh:
        refs = json.load(fh)["jobs"]
    jobs = workloads.WORKLOADS[args.workload]()

    reps: list[dict | None] = []
    t0 = time.monotonic()
    base = work_base()
    try:
        while True:
            trace = bool(args.trace) and len(reps) % 2 == 1
            elapsed = time.monotonic() - t0
            reps.append(run_rep(args.workload, trace, base, BUDGET_S - elapsed))
            elapsed = time.monotonic() - t0
            per_rep = elapsed / len(reps)
            if reps[-1] is None or elapsed + per_rep > BUDGET_S:
                break
            if elapsed + per_rep > args.seconds and len(reps) >= 1 + args.trace:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    done = [r for r in reps if r is not None]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        return 1
    statuses = [[verdict(j, r["observations"][j["id"]], refs[j["id"]]) for j in jobs] for r in done]
    crashed = len(reps) - len(done)
    attempted = len(jobs) * len(reps)
    passed = sum(s.count("pass") for s in statuses)
    correct = (
        crashed == 0
        and all(s in ("pass", "known-defect") for run in statuses for s in run)
        and all(run == statuses[0] for run in statuses)  # traced and untraced agree
    )
    for run in statuses:
        for job, status in zip(jobs, run):
            if status == "wrong":
                print(f"error: {job['id']} gave the wrong output", file=sys.stderr)
    env = done[0]["environment"]
    print("environment: " + json.dumps(env, sort_keys=True), file=sys.stderr)
    raw = statistics.median(r["raw_wall_s"] for r in plain)
    print(f"unscaled wall time, median: {raw:.3f} s", file=sys.stderr)
    if env["blas_threads"] not in (None, blas_threads()):
        print(f"error: BLAS runs {env['blas_threads']} threads, not {blas_threads()}", file=sys.stderr)
        return 1

    if args.trace:
        units = tracer.layer_metrics()
        metrics = {
            name: _value(statistics.median(r["layers"][name] for r in traced), unit)
            for name, unit in units.items()
            if name != "trace.overhead_s"
        }
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_s"] = _value(overhead, "s")
    else:
        metrics = {
            "wall_s": _value(statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": _value(statistics.median(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": _value(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "pass_frac": _value(passed / attempted, "fraction"),
        }
    result = {"correct": correct, "attempted": attempted, "failed": attempted - passed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
