#!/usr/bin/env python3
"""Digest the outputs of a fixed set of pspect CLI tasks, or compare two digests.

    python3 bench/same_bytes.py [--checkout DIR] --out FILE
    python3 bench/same_bytes.py --compare FILE_A FILE_B

The first form runs 75 tasks through ``pspect.cli.main`` in one process,
importing pspect from DIR/src and the task lists from
DIR/perfbench/workloads.py (DIR defaults to the checkout this file is
in): the six shipped configs (configs/*.json), the preamble of each
workload, and cycle 0 of seeds 1-3 of each workload.  For each task it
writes to FILE the exit code (or the type and message of what
``cli.main`` raised), standard error, and the sha256 of every output
file.  It takes a few seconds.

The second form prints each task whose record differs between two such
files and exits 1 if any does, 0 if all are identical.  Run the first
form twice, on one checkout or on two (a change and its parent), then
compare: a change that claims the same bits must leave every task
identical.
"""

from __future__ import annotations

import os
import sys

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import tempfile  # noqa: E402

SEEDS = (1, 2, 3)
HERE = os.path.dirname(os.path.abspath(__file__))


def tasks(checkout, workloads, cos_weight):
    """(name, command, config path or None, config or None) of every task."""
    for path in sorted(glob.glob(os.path.join(checkout, "configs", "*.json"))):
        with open(path) as fh:
            command = json.load(fh)["task"]["kind"]
        yield f"configs/{os.path.basename(path)}", command, path, None
    for workload in workloads.WORKLOADS:
        drawn = [("preamble", workloads.preamble(workload, cos_weight))]
        drawn += [(f"seed{seed}/c0", workloads.cycle(workload, seed, 0, cos_weight))
                  for seed in SEEDS]
        for part, listed in drawn:
            for i, task in enumerate(listed):
                shipped = task.shipped and os.path.join(checkout, task.shipped)
                yield f"{workload}/{part}/{i} {task.stratum}", task.command, shipped, task.config


def run_task(cli, command, cfg_path, config, out_dir):
    if cfg_path is None:
        cfg_path = out_dir + ".json"
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, "--config", cfg_path, "--out", out_dir])
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
    files = {}
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "stderr": err.getvalue(), "files": dict(sorted(files.items()))}


def digest(checkout):
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import workloads

    from pspect import Weight, cli

    cos = Weight.from_function(lambda r: math.cos(3.0 * math.pi * r))
    cos_weight = {"breakpoints": list(cos.breakpoints), "coeffs": [list(c) for c in cos.coeffs]}
    records = {}
    with tempfile.TemporaryDirectory() as work:
        for i, (name, command, cfg_path, config) in enumerate(
                tasks(checkout, workloads, cos_weight)):
            records[name] = run_task(cli, command, cfg_path, config,
                                     os.path.join(work, f"t{i}"))
    return records


def compare(path_a, path_b) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    differ = [name for name in {**a, **b} if a.get(name) != b.get(name)]
    for name in differ:
        print(f"differs: {name}")
        for key in ("exit", "stderr", "files"):
            rec_a, rec_b = a.get(name, {}), b.get(name, {})
            if rec_a.get(key) != rec_b.get(key):
                print(f"  {key}: {rec_a.get(key)!r} != {rec_b.get(key)!r}")
    print(f"{len(a)} and {len(b)} tasks, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", default=os.path.dirname(HERE))
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        ap.error("--out or --compare is required")
    records = digest(os.path.abspath(args.checkout))
    with open(args.out, "w") as fh:
        json.dump(records, fh, indent=1)
    print(f"{len(records)} tasks digested to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
