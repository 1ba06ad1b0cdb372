"""The branch sweep of ROADMAP item 4 as a regression floor.

96 branches of the rational f (q = 1) at p = 2: the weights cos 3 pi r
and 1 - b r (b = 2, 4, 8), N = 1 and 2, k = 1 to 3, (f0, finf) = (2, 0.5)
and (0.5, 2), both signs of u(0), over u(0) from 1e-2 to 1e3 with ratio
1.25.  ``tests/golden/branch_sweep.json`` holds each case's point count
and the diagnostic that ended it, as recorded before the secant
predictor of ``trace_branch``; no case may end earlier than that.

    PYTHONPATH=src python tests/test_branch_sweep.py   # rewrites the golden file
"""

import functools
import json
import math
import os

from pspect.nodal import Nonlinearity, trace_branch
from pspect.spectrum import compute_spectrum
from pspect.weights import Weight

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "branch_sweep.json")
P = 2.0
WEIGHTS = ("cos3", "1-2r", "1-4r", "1-8r")
FS = ((2.0, 0.5), (0.5, 2.0))
CASES = [(w, n_dim, k, f0, finf, sigma) for w in WEIGHTS for n_dim in (1, 2)
         for k in (1, 2, 3) for f0, finf in FS for sigma in "+-"]


def _key(case):
    w, n_dim, k, f0, finf, sigma = case
    return f"{w} N={n_dim} k={k} f0={f0:g} finf={finf:g} {sigma}"


def _weight(name):
    if name == "cos3":
        return Weight.from_function(lambda r: math.cos(3.0 * math.pi * r))
    return Weight.poly([1.0, -float(name[2:-1])])


@functools.cache
def _spectrum(w, n_dim):
    return _weight(w), compute_spectrum(P, n_dim, _weight(w), 3, ("+",))


def _trace(case):
    w, n_dim, k, f0, finf, sigma = case
    m, spec = _spectrum(w, n_dim)
    f = Nonlinearity.rational(P, f0=f0, finf=finf, q=1.0)
    br = trace_branch(P, n_dim, m, f, k, sigma, alpha_min=1e-2, alpha_max=1e3, spectrum=spec)
    return {"points": len(br.points), "stop": br.diagnostics[0] if br.truncated else ""}


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_no_branch_of_the_sweep_ends_earlier():
    golden = _golden()
    assert sorted(golden) == sorted(map(_key, CASES))
    traced = {_key(case): _trace(case) for case in CASES}
    shorter = {key: (traced[key], golden[key]) for key in golden
               if traced[key]["points"] < golden[key]["points"]}
    assert shorter == {}
    reached = [key for key, got in traced.items() if not got["stop"]]
    assert len(reached) >= sum(not want["stop"] for want in golden.values())
    # a healthy continuum that a predictor without its retry cut in half
    assert "1-2r N=1 k=2 f0=2 finf=0.5 +" in reached


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump({_key(case): _trace(case) for case in CASES}, fh, indent=1)
        fh.write("\n")
