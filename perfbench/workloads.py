"""Seeded task lists for the three workloads.

A workload is a fixed cycle of strata.  Each stratum draws one pspect
config from a narrow parameter box, so every cycle has the same mix of
task kinds and costs while no instance repeats: the inputs change with
the seed and the cycle number, the mix does not.  That keeps run-to-run
spread small although single tasks cost from 0.05 s to several seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

UNIT = {"expr": "poly", "coeffs": [1.0]}
ONE_MINUS_2R = {"expr": "poly", "coeffs": [1.0, -2.0]}
# the sign-changing cubic with a tiny negative part near r = 1 whose
# negative sequence pspect 0.1.0 does not find (see README)
HARD_CUBIC = (0.86, -0.18, 0.10, -0.94)

# mu_1^+ of m = 1 - 2r at p = 2.5, N = 2 (tests/golden/spectrum.csv), used
# only to place gamma inside the admissible interval of a nodal task
MU1_LIN_P25_N2 = 24.089004666181442


@dataclass
class Task:
    """One CLI invocation and what its output is checked against."""

    stratum: str
    command: str  # eig | verify | branch | nodal
    config: dict | None  # None: run the shipped config named in `shipped`
    expect: dict = field(default_factory=dict)
    shipped: str | None = None
    known_defect: str = ""  # how pspect 0.1.0 fails on this stratum, see README


def pi_p(p: float) -> float:
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


def closed_form_mu(p: float, k: int) -> float:
    """mu_k for m = 1, N = 1: (p - 1) ((2k - 1) pi_p / 2)^p."""
    return (p - 1.0) * ((2 * k - 1) * pi_p(p) / 2.0) ** p


def _eig(stratum, p, N, weight, nus, known_defect="", failing="", **expect):
    """One task per sign, so that no single task is long; `known_defect`
    applies to the sign in `failing` (to every sign if that is empty)."""
    return [Task(stratum + nu if len(nus) > 1 else stratum, "eig",
                 {"problem": {"p": p, "N": N, "weight": weight},
                  "task": {"kind": "eig", "K": 6, "nu": [nu], "profiles": True}},
                 dict(expect, K=6, nus=[nu], p=p),
                 known_defect=known_defect if nu in (failing or nu) else "")
            for nu in nus]


def _cubic(rng):
    """A(r0 - r)(1 + b r + c r^2): one sign change at r0, both parts wide."""
    r0, a = rng.uniform(0.45, 0.55), rng.uniform(1.0, 1.2)
    b, c = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
    return {"expr": "poly",
            "coeffs": [a * r0, a * (r0 * b - 1.0), a * (r0 * c - b), -a * c]}


def eig_cold(rng, cos_weight):
    both = ["+", "-"]
    return [
        *_eig("unit_lowp", rng.uniform(1.20, 1.22), 1, UNIT, ["+"], closed_form=True),
        *_eig("unit_midp", rng.uniform(2.5, 2.7), 1, UNIT, ["+"], closed_form=True),
        *_eig("unit_highp", rng.uniform(4.6, 6.0), 1, UNIT, ["+"], closed_form=True,
              known_defect="scan ceiling: no eigenvalue found"),
        *_eig("lin_N2", rng.uniform(2.4, 2.5), 2, ONE_MINUS_2R, both),
        *_eig("lin_N1_highp", rng.uniform(4.0, 4.2), 1, ONE_MINUS_2R, both,
              known_defect="scan ceiling: no nu=+ eigenvalue found", failing="+"),
        *_eig("cos_N2", rng.uniform(2.3, 2.5), 2, cos_weight, both),
        *_eig("cubic_N3", rng.uniform(2.4, 2.6), 3, _cubic(rng), both),
        *_eig("cubic_hard", rng.uniform(2.62, 2.64), 2,
              {"expr": "poly",
               "coeffs": [c + rng.uniform(-1e-3, 1e-3) for c in HARD_CUBIC]}, both,
              known_defect="scan ceiling: no nu=- eigenvalue found", failing="-"),
    ]


def verify_battery(rng, stratum, p, N):
    """The shipped verify_default.json battery, moved to (m, p, N).

    m = 1 - r/r0 with r0 drawn near 1/2; the zero-proliferation window
    moves with r0 and the p grid with p.  The comparison weight stays
    1 - r, as shipped, and b2 is raised from 62 to 150 so that the Sturm
    comparison forces an extra zero for N = 2 as well.
    """
    r0 = rng.uniform(0.48, 0.52)
    weight = {"expr": "poly", "coeffs": [1.0, -1.0 / r0]}
    f = _f(rng)
    checks = [
        {"check": "spectrum_structure", "K": 4, "nu": ["+", "-"]},
        {"check": "weight_monotonicity", "weight2": {"expr": "poly", "coeffs": [1.0, -1.0]},
         "K": 3},
        {"check": "p_continuity", "p_grid": [round(p + d, 12) for d in (-0.2, -0.1, 0.0, 0.1, 0.2)],
         "K": 2, "nu": ["+"]},
        {"check": "sturm", "b1": {"expr": "poly", "coeffs": [22.0]},
         "b2": {"expr": "poly", "coeffs": [150.0]}},
        {"check": "zero_proliferation", "window": [0.2 * r0, 0.8 * r0],
         "multipliers": [40, 160, 640, 2560, 10240, 40960]},
        {"check": "crossing_index", "K": 4},
        {"check": "nodal_intervals", "f": f, "k": 1},
        {"check": "bifurcation_points", "g": {"c": 1.0, "delta": 1.0}, "ks": [1],
         "nu": ["+", "-"], "alphas": [0.1, 0.01, 0.001]},
    ]
    cfg = {"problem": {"p": p, "N": N, "weight": weight},
           "task": {"kind": "verify", "checks": checks}}
    return Task(stratum, "verify", cfg, {"checks": len(checks)})


def verify_shared(rng, cos_weight):
    return [
        verify_battery(rng, "battery_N1", rng.uniform(2.4, 2.6), 1),
        verify_battery(rng, "battery_N2", rng.uniform(2.4, 2.6), 2),
        verify_battery(rng, "battery_N1_lowp", rng.uniform(2.0, 2.2), 1),
    ]


def _f(rng):
    return {"family": "rational", "f0": rng.uniform(0.9, 1.1),
            "finf": rng.uniform(1.9, 2.3), "q": rng.uniform(1.8, 2.2)}


def _branch(rng, stratum, p, N, weight, k, sigma, **expect):
    cfg = {"problem": {"p": p, "N": N, "weight": weight},
           "task": {"kind": "branch", "k": k, "sigma": sigma, "nu": "+", "f": _f(rng),
                    "alpha_min": 1e-3, "alpha_max": 1e3, "ratio": 1.25}}
    return Task(stratum, "branch", cfg, dict(expect, k=k))


def _nodal(rng, stratum, p, N, weight, k, sigma, mu_k):
    f = _f(rng)
    # strictly between mu_k / finf and mu_k / f0, where solutions exist
    t = rng.uniform(0.25, 0.75)
    gamma = mu_k / (f["f0"] + t * (f["finf"] - f["f0"]))
    cfg = {"problem": {"p": p, "N": N, "weight": weight},
           "task": {"kind": "nodal", "gamma": gamma, "k": k, "sigma": sigma, "f": f}}
    return Task(stratum, "nodal", cfg, {"k": k, "sigma": sigma})


def branch_nonlinear(rng, cos_weight):
    p1, p2, p3 = rng.uniform(2.2, 2.4), rng.uniform(2.2, 2.4), rng.uniform(2.2, 2.4)
    return [
        _branch(rng, "branch_unit_k1", p1, 1, UNIT, 1, "+", closed_form=True),
        _branch(rng, "branch_unit_k2", p2, 1, UNIT, 2, "-", closed_form=True),
        _branch(rng, "branch_lin_k1", p3, 1, ONE_MINUS_2R, 1, "-"),
        _branch(rng, "branch_lin_N2", p3, 2, ONE_MINUS_2R, 1, "+"),
        _nodal(rng, "nodal_unit", p1, 1, UNIT, 2, rng.choice("+-"), closed_form_mu(p1, 2)),
        _nodal(rng, "nodal_lin", 2.5, 2, ONE_MINUS_2R, 1, rng.choice("+-"), MU1_LIN_P25_N2),
    ]


WORKLOADS = {
    "eig_cold": eig_cold,
    "verify_shared": verify_shared,
    "branch_nonlinear": branch_nonlinear,
}

# cycles per 30 s of --seconds; with pspect 0.1.0 on a 2-core x86-64
# virtual machine a cycle takes about 16 s, 17 s and 8 s at the host's
# usual speed, and the eig_cold preamble 6 s
CYCLES_PER_30S = {"eig_cold": 1, "verify_shared": 1, "branch_nonlinear": 2}


def cycles_for(workload: str, seconds: float) -> int:
    """The work of a run is sized from --seconds, not cut by a clock."""
    return max(1, round(seconds * CYCLES_PER_30S[workload] / 30.0))


def cycle(workload: str, seed: int, index: int, cos_weight) -> list:
    """The tasks of cycle `index` of a run; same arguments, same tasks."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return WORKLOADS[workload](rng, cos_weight)


def preamble(workload: str, cos_weight) -> list:
    """Fixed tasks run once at the start of every run.

    The shipped demo, checked against the golden file, and two instances
    of cos 3 pi r whose failure in pspect 0.1.0 is erratic in p (it comes
    and goes within windows of width 1e-3 to 1e-1), so they are not drawn:
    at p = 1.3, N = 2 brentq raises a RuntimeError for nu = -, and at
    p = 2.25, N = 1 mu_6^- is not found.  Only the failing sequence is
    requested: at p = 1.3 the CLI raises before writing either, and at
    p = 2.25 the positive one is healthy.
    """
    if workload != "eig_cold":
        return []
    return [Task("demo_eig", "eig", None, {"golden": True}, shipped="configs/demo_eig.json"),
            *_eig("cos_N2_p1.3", 1.3, 2, cos_weight, ["-"],
                  known_defect="brentq RuntimeError for nu=-"),
            *_eig("cos_N1_p2.25", 2.25, 1, cos_weight, ["-"],
                  known_defect="mu_6^- not found")]
