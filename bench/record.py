"""Record the job references the benchmark checks outputs against.

Usage, from the root of a checkout: python3 bench/record.py

Runs every workload's jobs once and writes `bench/references.json` (what each
job gave) and `bench/environment.json` (the machine it was recorded on).  The
committed references were recorded at the commit that added the benchmark;
record again only when a change of output is intended, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

import run
import worker
import workloads


def main() -> int:
    if not run.checkout_ok():
        return 2
    refs: dict = {}
    env = None
    base = run.work_base()
    try:
        for name in workloads.WORKLOADS:
            report = run.run_rep(name, False, base, timeout=600)
            if report is None:
                return 1
            refs.update(report["observations"])
            env = report["environment"]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    sys.path.insert(0, "src")
    from motifspectra import partition

    expected = worker.poly_digest(partition.fi_partition(60, Fraction(5, 2)))
    if refs["load-fi-60"]["poly"] != expected:
        raise AssertionError("loaded term dump differs from the recursion's polynomial")
    # The README example known to fail must pass, once fixed, with the level
    # count of the same chain without --compare.
    defect = next(job for job in workloads.WORKLOADS["readme-sweep"]() if "same_chain" in job)
    if workloads.KNOWN_DEFECT not in refs[defect["id"]].get("error", ""):
        raise AssertionError(f"{defect['id']} no longer fails the known way; review before recording")
    refs[defect["id"]]["levels"] = len(refs[defect["same_chain"]]["multiplicities"])
    for job_id, ref in refs.items():
        if ref["exit"] != 0 and job_id != defect["id"]:
            raise AssertionError(f"{job_id} exited {ref['exit']}: {ref.get('error')}")
        if ref.get("matched") is False:
            raise AssertionError(f"{job_id} did not match its formula")
    with open(os.path.join(run.BENCH, "references.json"), "w") as fh:
        json.dump({"jobs": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(run.BENCH, "environment.json"), "w") as fh:
        json.dump(env, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} job references", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
