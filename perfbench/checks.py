"""Output checks, independent of pspect's own code.

Each check reads the files a CLI task wrote and returns an Outcome:
how many results it validated, and why it failed if it did.  A failure
is `wrong` when a returned value contradicts an oracle (closed form,
golden file, zero count, ordering, sign, residual); a task that raises,
exits with an unexpected code or returns a partial result fails without
being wrong.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

from workloads import closed_form_mu

REL_TOL = 1e-8  # closed form and golden values
RESIDUAL_TOL = 1e-6  # nodal fixed-point residual
BRANCH_END_TOL = 1e-3  # branch ends against mu_k / f0 and mu_k / finf


@dataclass
class Outcome:
    results: int = 0
    reasons: list = field(default_factory=list)
    wrong: bool = False

    def fail(self, reason, wrong=False):
        self.reasons.append(reason)
        self.wrong = self.wrong or wrong

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


def read_csv(path):
    """(comment lines, header, rows) of a pspect CSV."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(body))
    return comments, rows[0], rows[1:]


def _profile_zeros(path):
    """Sign changes of u on an (r, u, uprime) profile, their simplicity, sup|u|, u(0), u(1).

    Through a terminal stretch where the weight has the wrong sign the
    computed tail is known only to about the size of the terminal miss
    u(1), and it can cross zero there.  As in the package's numerical
    notes, a trailing crossing is such an artifact when u never rebounds
    above 100 |u(1)| after it and its slope is below 1e-3 sup|u'|.
    """
    _, _, rows = read_csv(path)
    u = [float(r[1]) for r in rows]
    up = [float(r[2]) for r in rows]
    sup_u = max(abs(x) for x in u)
    sup_up = max(abs(x) for x in up) or 1.0
    crossings, last = [], None
    for i, x in enumerate(u[:-1]):
        if abs(x) <= 1e-12 * sup_u:
            continue
        if last is not None and (x > 0) != (u[last] > 0):
            crossings.append((i, max(abs(up[last]), abs(up[i]))))
        last = i
    noise = 100.0 * abs(u[-1])
    while crossings:
        i, slope = crossings[-1]
        if max(abs(x) for x in u[i:]) <= noise and slope < 1e-3 * sup_up:
            crossings.pop()
        else:
            break
    simple = all(slope >= 1e-6 * sup_up for _, slope in crossings)
    return len(crossings), simple, sup_u, u[0], u[-1]


def check_eig(task, out_dir, golden_rows):
    res = Outcome()
    try:
        _, _, rows = read_csv(os.path.join(out_dir, "spectrum.csv"))
    except OSError as exc:
        res.fail(f"no spectrum.csv ({exc.__class__.__name__})")
        return res
    e = task.expect
    for nu in e.get("nus", ["+", "-"]):
        sgn = 1 if nu == "+" else -1
        mine = [r for r in rows if r[1] == nu]
        ks = [int(r[0]) for r in mine]
        if ks != list(range(1, len(ks) + 1)):
            res.fail(f"nu={nu}: indices {ks} not 1..n", wrong=True)
            continue
        if "K" in e and len(ks) < e["K"]:
            res.fail(f"nu={nu}: partial, {len(ks)} of {e['K']} eigenvalues")
        prev = 0.0
        for r in mine:
            k, mu, nz = int(r[0]), float(r[2]), int(r[3])
            why = []
            if not sgn * mu > sgn * prev:
                why.append("order or sign")
            prev = mu
            if nz != k - 1:
                why.append(f"zero_count {nz}")
            prof = os.path.join(out_dir, f"eigfun_k{k}_{'plus' if nu == '+' else 'minus'}.csv")
            zeros, simple, _, _, _ = _profile_zeros(prof)
            if zeros != k - 1 or not simple:
                why.append(f"profile has {zeros} zeros, simple={simple}")
            if e.get("closed_form"):
                cf = closed_form_mu(e["p"], k)
                if abs(mu - cf) > REL_TOL * cf:
                    why.append(f"closed form {cf!r}")
            if why:
                res.fail(f"mu_{k}^{nu}={mu!r}: " + ", ".join(why), wrong=True)
            else:
                res.results += 1
    if e.get("golden"):
        want = {(r[0], r[1]): float(r[2]) for r in golden_rows}
        got = {(r[0], r[1]): float(r[2]) for r in rows}
        if set(got) != set(want) or any(
                abs(got[key] - mu) > REL_TOL * abs(mu) for key, mu in want.items()):
            res.fail("demo rows differ from tests/golden/spectrum.csv", wrong=True)
            res.results = 0
    return res


def check_verify(task, out_dir):
    res = Outcome()
    try:
        with open(os.path.join(out_dir, "report.txt")) as fh:
            heads = [ln for ln in fh.read().splitlines() if ln.startswith("[")]
    except OSError as exc:
        res.fail(f"no report.txt ({exc.__class__.__name__})")
        return res
    res.results = sum(1 for ln in heads if ln.startswith("[PASS] "))
    bad = [ln for ln in heads if not ln.startswith("[PASS] ")]
    if bad:
        res.fail("; ".join(bad))
    if len(heads) != task.expect["checks"]:
        res.fail(f"{len(heads)} of {task.expect['checks']} checks reported")
    return res


def check_branch(task, out_dir):
    res = Outcome()
    cfg = task.config
    k, sigma = cfg["task"]["k"], cfg["task"]["sigma"]
    name = f"branch_k{k}_{'plus' if sigma == '+' else 'minus'}"
    try:
        _, _, rows = read_csv(os.path.join(out_dir, name + ".csv"))
        with open(os.path.join(out_dir, name + ".svg")) as fh:
            svg_ok = fh.read().rstrip().endswith("</svg>")
    except OSError as exc:
        res.fail(f"missing branch output ({exc.__class__.__name__})")
        return res
    p, f = cfg["problem"]["p"], cfg["task"]["f"]
    a_min, a_max, ratio = (cfg["task"][key] for key in ("alpha_min", "alpha_max", "ratio"))
    want = math.ceil(math.log(a_max / a_min) / math.log(ratio)) + 1
    sgn = 1 if sigma == "+" else -1
    ends = None
    if task.expect.get("closed_form"):
        mu = closed_form_mu(p, k)
        ends = (mu / f["f0"], mu / f["finf"])
    good = 0
    for r in rows:
        gamma, alpha, sup, zeros = float(r[0]), float(r[1]), float(r[2]), int(r[3])
        ok = zeros == k - 1 and gamma > 0 and sgn * alpha > 0 and sup >= abs(alpha) * (1 - 1e-6)
        if ends is not None:
            lo, hi = min(ends), max(ends)
            ok &= lo * (1 - BRANCH_END_TOL) <= gamma <= hi * (1 + BRANCH_END_TOL)
        good += ok
    if good != len(rows):
        res.fail(f"{len(rows) - good} of {len(rows)} branch points fail zero count, sign "
                 "or gamma range", wrong=True)
    if ends is not None and rows:
        g0, ginf = float(rows[0][0]), float(rows[-1][0])
        if abs(g0 - ends[0]) > BRANCH_END_TOL * ends[0] or abs(ginf - ends[1]) > BRANCH_END_TOL * ends[1]:
            res.fail(f"branch ends {g0!r}, {ginf!r} vs mu_k/f0, mu_k/finf {ends}", wrong=True)
    if len(rows) != want:
        res.fail(f"partial branch: {len(rows)} of {want} points")
    if not svg_ok:
        res.fail("svg not closed", wrong=True)
    if not res.wrong:
        res.results = good
    return res


def check_nodal(task, out_dir):
    res = Outcome()
    k, sigma = task.expect["k"], task.expect["sigma"]
    path = os.path.join(out_dir, f"nodal_k{k}_{'plus' if sigma == '+' else 'minus'}.csv")
    try:
        comments, _, _ = read_csv(path)
    except OSError as exc:
        res.fail(f"no nodal solution ({exc.__class__.__name__})")
        return res
    info = dict(kv.split("=", 1) for kv in comments[-1][2:].split())
    zeros, simple, sup_u, u0, u1 = _profile_zeros(path)
    why = []
    if int(info["zeros"]) != k - 1 or zeros != k - 1 or not simple:
        why.append(f"zeros {info['zeros']} (profile {zeros}, simple={simple})")
    if float(info["residual"]) > RESIDUAL_TOL:
        why.append(f"residual {info['residual']}")
    if (u0 > 0) != (sigma == "+"):
        why.append("sign of u(0)")
    if abs(u1) > RESIDUAL_TOL * sup_u:
        why.append(f"u(1) = {u1!r}")
    if why:
        res.fail("nodal solution: " + ", ".join(why), wrong=True)
    else:
        res.results = 1
    return res


def check(task, out_dir, golden_rows):
    if task.command == "eig":
        return check_eig(task, out_dir, golden_rows)
    if task.command == "verify":
        return check_verify(task, out_dir)
    if task.command == "branch":
        return check_branch(task, out_dir)
    return check_nodal(task, out_dir)
