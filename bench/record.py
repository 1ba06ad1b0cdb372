"""Record the benchmark of a pspect checkout in a BENCH_<date>_<sha>.json file.

Runs ``perfbench/run.py --trace 0`` of the checkout on each workload at
seeds 11, 12 and 13 (never the confirmation seed 7919), one run at a
time, and writes the median of every end-to-end metric per workload,
each run's values, the host speed, the versions and nproc:

    python3 bench/record.py                     # the checkout this file is in
    python3 bench/record.py --checkout DIR --out bench

The file is named after the checkout's commit; ``-dirty`` marks a
working tree with uncommitted changes, and ``src_sha256`` names the
measured sources exactly either way.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys

WORKLOADS = ("eig_cold", "verify_shared", "branch_nonlinear")
SEEDS = (11, 12, 13)
HERE = os.path.dirname(os.path.abspath(__file__))


def _git(checkout, *args):
    out = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256(checkout):
    h = hashlib.sha256()
    src = os.path.join(checkout, "src", "pspect")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".c")):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_once(checkout, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "30", "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    speed = re.search(r"^host speed ([0-9.]+) of the reference", out.stdout, re.M)
    versions = re.search(r"^python (\S+) numpy (\S+) scipy (\S+)", out.stdout, re.M)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "host_speed": float(speed.group(1)),
        "versions": dict(zip(("python", "numpy", "scipy"), versions.groups())),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", default=os.path.dirname(HERE))
    ap.add_argument("--out", default=HERE)
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    os.makedirs(args.out, exist_ok=True)

    sha = _git(checkout, "rev-parse", "--short", "HEAD") or "unknown"
    dirty = bool(_git(checkout, "status", "--porcelain", "--untracked-files=no"))
    workloads = {}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(checkout, workload, seed))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        workloads[workload] = {
            "median": {k: statistics.median(r["metrics"][k] for r in runs)
                       for k in runs[0]["metrics"]},
            "units": runs[0]["units"],
            "runs": [{k: v for k, v in r.items() if k not in ("units", "versions")}
                     for r in runs],
        }
        versions = runs[0]["versions"]
    date = datetime.date.today().isoformat()
    name = f"BENCH_{date}_{sha}{'-dirty' if dirty else ''}.json"
    record = {
        "date": date,
        "commit": sha,
        "dirty": dirty,
        "src_sha256": _src_sha256(checkout),
        "command": "perfbench/run.py --seconds 30 --trace 0",
        "seeds": list(SEEDS),
        "versions": versions,
        "nproc": os.cpu_count(),
        "host_speed_median": statistics.median(
            r["host_speed"] for w in workloads.values() for r in w["runs"]),
        "workloads": workloads,
    }
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
