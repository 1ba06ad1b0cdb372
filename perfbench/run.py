#!/usr/bin/env python3
"""pspect benchmark: seeded CLI tasks, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload eig_cold|verify_shared|branch_nonlinear
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; pspect is imported from ``src/``.  One
process, one client, a closed loop: each task is one ``pspect.cli.main``
call on a generated config, timed alone, its outputs checked after the
clock stops.  BLAS threads are pinned to 1.

--trace 0 runs the workload's preamble and then a number of cycles set
by S (see workloads.cycles_for), and prints the end-to-end metrics.  The
work is sized from S, not cut by a clock, so every commit runs the same
tasks for a seed and task counts and failure fractions stay comparable.
Every task runs under a host speed meter (hostspeed.py) and its time
is reported at the reference host speed.
--trace 1 runs a fixed task set (the preamble and cycle 0) untraced,
then traced, then its cheapest healthy task traced again; it asserts
that the traced outputs are byte-identical to the untraced ones and that
the counts of the repeated task match, and prints the per-layer metrics.
The last line of standard output is one JSON object.
See README.md for the metric definitions.
"""

from __future__ import annotations

import os
import sys

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "PSPECT_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIRM_SEED = 7919  # keep unused while writing a change; confirm claims on it
# printed but not reported: eig_cold never enters nodal or greens, so
# these times would read exactly 0 on every run of it
TEXT_ONLY = ("nodal.self_s", "greens.self_s")
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hostspeed\n"
    "with hostspeed.Meter() as meter:\n"
    "    import pspect\n"
    "    from pspect import Problem, Weight, shoot\n"
    "    shoot(Problem.linear(2.0, 1, Weight.constant(1.0), 2.0), 1.0)\n"
    "print(repr(meter.seconds), repr(meter.scaled))\n"
)


@dataclass
class Record:
    task: workloads.Task
    latency: float  # seconds measured
    scaled: float  # seconds at the reference host speed (hostspeed.py)
    code: object
    outcome: checks.Outcome
    digest: dict = field(default_factory=dict)
    size: int = 0
    counts: dict = field(default_factory=dict)


def measure_setup() -> list:
    """(seconds, seconds at the reference host speed) to import pspect and
    finish one shot, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    here = os.path.dirname(os.path.abspath(__file__))
    runs = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, here], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        runs.append(tuple(map(float, out.stdout.split())))
    return runs


def _digest(out_dir):
    digest, size = {}, 0
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digest, size


def run_task(cli, task, out_dir, golden) -> Record:
    os.makedirs(out_dir)
    if task.config is None:
        cfg_path = os.path.join(ROOT, task.shipped)
    else:
        cfg_path = out_dir + ".json"
        with open(cfg_path, "w") as fh:
            json.dump(task.config, fh)
    err = io.StringIO()
    exc = None
    with hostspeed.Meter() as meter:
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main([task.command, "--config", cfg_path, "--out", out_dir])
        except (Exception, SystemExit) as e:  # a raising task is a failed task
            code, exc = None, e
    if exc is not None:
        outcome = checks.Outcome()
        outcome.fail(f"{type(exc).__name__}: {exc}")
    else:
        outcome = checks.check(task, out_dir, golden)
        if code != 0:
            lines = err.getvalue().strip().splitlines()
            outcome.reasons.insert(0, f"exit code {code}: {lines[0] if lines else ''}")
    digest, size = _digest(out_dir)
    return Record(task, meter.seconds, meter.scaled, code, outcome, digest, size)


def describe(i, rec):
    o = rec.outcome
    state = "FAIL " + " | ".join(dict.fromkeys(o.reasons)) if o.failed else "ok"
    if o.wrong:
        state = "WRONG " + state
    if rec.task.known_defect and o.failed:
        state = f"known defect ({rec.task.known_defect}): {state}"
    return (f"task {i:3d} {rec.task.stratum:16s} {rec.latency:8.3f} s ({rec.scaled:8.3f} s)  "
            f"exit={rec.code}  "
            f"results={o.results:3d}  {state}")


def quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics.  With 3 to 16 tasks of mixed cost a single order
    statistic jumps between strata from run to run; this estimate does not.
    """
    from scipy.special import betainc

    xs = sorted(xs)
    n = len(xs)
    cdf = [betainc(q * (n + 1), (1 - q) * (n + 1), i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


def timed_run(cli, args, cos_weight, golden, work):
    records = []
    start = perf_counter()
    for i, task in enumerate(workloads.preamble(args.workload, cos_weight)):
        records.append(run_task(cli, task, os.path.join(work, f"pre{i}"), golden))
    cycles = workloads.cycles_for(args.workload, args.seconds)
    for index in range(cycles):
        for i, task in enumerate(workloads.cycle(args.workload, args.seed, index, cos_weight)):
            out = os.path.join(work, f"c{index}-{i}")
            records.append(run_task(cli, task, out, golden))
            shutil.rmtree(out)
    lat = [r.scaled for r in records]
    p90 = quantile(lat, 0.9)
    n_failed = sum(r.outcome.failed for r in records)
    results = sum(r.outcome.results for r in records)
    metrics = {
        "results_per_s": (results / sum(lat), "1/s"),
        "task_p50_s": (quantile(lat, 0.5), "s"),
        "task_tail_s": (p90, "s"),
        "ok_frac": (1.0 - n_failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = [r.latency for r in records]
    notes = [f"cycles {cycles}, tasks {len(records)}, wall {perf_counter() - start:.1f} s, "
             f"task_tail_s is the p90 with "
             f"{sum(x > p90 for x in lat)} of {len(records)} tasks beyond it",
             f"fail_frac {n_failed / len(records):.4f} ({n_failed} of {len(records)})",
             f"host speed {sum(lat) / sum(raw):.3f} of the reference; measured seconds: "
             f"results_per_s {results / sum(raw):.6g}, task_p50_s {quantile(raw, 0.5):.6g}, "
             f"task_tail_s {quantile(raw, 0.9):.6g}"]
    return records, metrics, notes, []


def traced_run(cli, args, cos_weight, golden, work):
    from tracing import Tracer

    tasks = workloads.preamble(args.workload, cos_weight) + workloads.cycle(
        args.workload, args.seed, 0, cos_weight)
    plain = [run_task(cli, t, os.path.join(work, f"plain{i}"), golden)
             for i, t in enumerate(tasks)]
    tracer = Tracer().install()
    traced = []
    try:
        for i, task in enumerate(tasks):
            tracer.begin_task()
            before = tracer.counts()
            rec = run_task(cli, task, os.path.join(work, f"traced{i}"), golden)
            rec.counts = {k: v - before[k] for k, v in tracer.counts().items()}
            traced.append(rec)
    finally:
        tracer.uninstall()
    healthy = [i for i, r in enumerate(plain) if not r.outcome.failed] or range(len(tasks))
    j = min(healthy, key=lambda i: plain[i].latency)
    again = Tracer().install()
    try:
        rec = run_task(cli, tasks[j], os.path.join(work, "again"), golden)
    finally:
        again.uninstall()
    problems = [f"task {i}: traced outputs differ from untraced"
                for i, (a, b) in enumerate(zip(plain, traced)) if a.digest != b.digest]
    if again.counts() != traced[j].counts:
        problems.append(f"task {j}: counts differ between two traced runs")
    if rec.digest != plain[j].digest:
        problems.append(f"task {j}: repeated run wrote other bytes")
    overhead = sum(r.scaled for r in traced) / sum(r.scaled for r in plain)
    metrics = tracer.metrics(sum(r.size for r in traced), overhead)
    notes = [f"tasks {len(tasks)}, untraced {sum(r.latency for r in plain):.3f} s, traced "
             f"{sum(r.latency for r in traced):.3f} s; repeated task {j} ({tasks[j].stratum})",
             "outputs byte-identical traced/untraced and counts repeated: "
             + ("yes" if not problems else "NO")]
    wrong = [r for r in plain + [rec] if r.outcome.wrong and not r.task.known_defect]
    return traced, metrics, notes, problems + [f"{r.task.stratum}: wrong" for r in wrong]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pspect", "__init__.py")):
        print(f"pspect sources not found under {SRC}; run from a pspect checkout",
              file=sys.stderr)
        return 2

    setup = measure_setup()
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import pspect
    from pspect import Problem, Weight, cli, shoot

    shoot(Problem.linear(2.0, 1, Weight.constant(1.0), 2.0), 1.0)  # warm-up, untimed
    cos = Weight.from_function(lambda r: math.cos(3.0 * math.pi * r))
    cos_weight = {"breakpoints": list(cos.breakpoints), "coeffs": [list(c) for c in cos.coeffs]}
    golden = checks.read_csv(os.path.join(ROOT, "tests", "golden", "spectrum.csv"))[2]

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = traced_run if args.trace else timed_run
        records, metrics, notes, problems = run(cli, args, cos_weight, golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    if not args.trace:
        metrics["setup_s"] = (statistics.median(scaled for _, scaled in setup), "s")

    print(f"pspect {pspect.__version__} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} confirm_seed={CONFIRM_SEED}")
    print(f"python {platform.python_version()} numpy {numpy.__version__} scipy "
          f"{scipy.__version__} nproc {os.cpu_count()} loadavg "
          f"{' '.join(f'{x:.2f}' for x in os.getloadavg())} threads "
          + " ".join(f"{k}={v}" for k, v in PINNED.items()))
    print("setup_s samples (measured/at reference speed) "
          + " ".join(f"{t:.4f}/{scaled:.4f}" for t, scaled in setup))
    for i, rec in enumerate(records):
        print(describe(i, rec))
    for note in notes:
        print(note)
    for problem in problems:
        print("PROBLEM " + problem)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    correct = not problems and not any(
        r.outcome.wrong and not r.task.known_defect for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.outcome.failed for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in TEXT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
