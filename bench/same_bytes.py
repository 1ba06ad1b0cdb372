#!/usr/bin/env python3
"""Digest the outputs of a fixed set of pspect CLI tasks, or compare two digests.

    python3 bench/same_bytes.py [--checkout DIR] [--out FILE] [--keep DIR]
    python3 bench/same_bytes.py --compare FILE_A FILE_B
    python3 bench/same_bytes.py --values DIR_A DIR_B

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

With --keep DIR the first form also keeps each task's output files, in
DIR/t<i>/, and writes DIR/tasks.json: each task's name, its directory,
exit code and standard error.  The third form compares the values of two
such directories (a change and its parent): it lists each task whose exit
code, output file set, non-numeric text or count of numbers differs, and
prints, for every file and for standard error whose numbers moved, how
many moved and the largest relative difference among them, with its pair
of numbers (a residual near zero can move by 100 % where an eigenvalue
moves by 1e-14).  It is a report: it exits 0 whatever differs,
since a change may move the last digits of its values by design.
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
import re  # noqa: E402
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


# a number that is not part of a word: "mu_4" and "p1.3" hold none
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)")


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


def digest(checkout, keep=None):
    """The record of every task; with keep, the tasks write their outputs
    under that directory and its tasks.json lists them."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import workloads

    from pspect import Weight, cli

    cos = Weight.from_function(lambda r: math.cos(3.0 * math.pi * r))
    cos_weight = {"breakpoints": list(cos.breakpoints), "coeffs": [list(c) for c in cos.coeffs]}
    records, kept = {}, {}
    with tempfile.TemporaryDirectory() as work:
        if keep:
            os.makedirs(keep, exist_ok=True)
            work = keep
        for i, (name, command, cfg_path, config) in enumerate(
                tasks(checkout, workloads, cos_weight)):
            records[name] = run_task(cli, command, cfg_path, config,
                                     os.path.join(work, f"t{i}"))
            kept[name] = {"dir": f"t{i}", "exit": records[name]["exit"],
                          "stderr": records[name]["stderr"]}
    if keep:
        with open(os.path.join(keep, "tasks.json"), "w") as fh:
            json.dump(kept, fh, indent=1)
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


def split_numbers(text):
    """(text with every number replaced by '#', the numbers as floats)."""
    return NUMBER.sub("#", text), [float(n) for n in NUMBER.findall(text)]


def moved_numbers(xs, ys):
    """How many of the paired numbers differ, and the largest relative
    difference among them with its pair ((0, None) where none differs)."""
    moved = [(abs(x - y) / max(abs(x), abs(y)), x, y) for x, y in zip(xs, ys) if x != y]
    return len(moved), max(moved, default=(0.0, None, None))


def output_files(out_dir):
    """{path relative to out_dir: text} of every file a task wrote."""
    files = {}
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, encoding="utf-8", errors="replace") as fh:
                files[os.path.relpath(path, out_dir)] = fh.read()
    return files


def compare_values(dir_a, dir_b) -> int:
    with open(os.path.join(dir_a, "tasks.json")) as fh:
        a = json.load(fh)
    with open(os.path.join(dir_b, "tasks.json")) as fh:
        b = json.load(fh)
    differ, moved, overall = 0, 0, 0.0
    for name in {**a, **b}:
        if name not in a or name not in b:
            differ += 1
            print(f"differs: {name}\n  only in {dir_a if name in a else dir_b}")
            continue
        rec_a, rec_b = a[name], b[name]
        files_a = output_files(os.path.join(dir_a, rec_a["dir"]))
        files_b = output_files(os.path.join(dir_b, rec_b["dir"]))
        texts = {"stderr": (rec_a["stderr"], rec_b["stderr"])}
        for rel in sorted(set(files_a) & set(files_b)):
            texts[rel] = (files_a[rel], files_b[rel])
        reasons, numbers = [], []
        if rec_a["exit"] != rec_b["exit"]:
            reasons.append(f"exit: {rec_a['exit']!r} != {rec_b['exit']!r}")
        if set(files_a) != set(files_b):
            reasons.append(f"files: {sorted(files_a)} != {sorted(files_b)}")
        for what, (text_a, text_b) in texts.items():
            (skeleton_a, xs), (skeleton_b, ys) = split_numbers(text_a), split_numbers(text_b)
            if len(xs) != len(ys):
                reasons.append(f"{what}: {len(xs)} != {len(ys)} numbers")
            elif skeleton_a != skeleton_b:
                reasons.append(f"{what}: the text around the numbers differs")
            else:
                count, (worst, x, y) = moved_numbers(xs, ys)
                if count:
                    numbers.append(f"{what}: {count} of {len(xs)} numbers moved, largest "
                                   f"relative difference {worst:.3g} ({x:.17g} -> {y:.17g})")
                    overall = max(overall, worst)
        differ += bool(reasons)
        moved += bool(numbers) and not reasons
        if reasons or numbers:
            print(f"{'differs' if reasons else 'numbers moved'}: {name}")
            for line in reasons + numbers:
                print(f"  {line}")
    print(f"{len(a)} and {len(b)} tasks: {differ} differ beyond their numbers, "
          f"{moved} differ only in numbers (largest relative difference {overall:.3g})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", default=os.path.dirname(HERE))
    ap.add_argument("--out")
    ap.add_argument("--keep", metavar="DIR")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    ap.add_argument("--values", nargs=2, metavar="DIR")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.values:
        return compare_values(*args.values)
    if not (args.out or args.keep):
        ap.error("--out, --keep, --compare or --values is required")
    keep = args.keep and os.path.abspath(args.keep)
    records = digest(os.path.abspath(args.checkout), keep)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
    print(f"{len(records)} tasks digested" + (f" to {args.out}" if args.out else "")
          + (f", their outputs kept in {keep}" if keep else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
