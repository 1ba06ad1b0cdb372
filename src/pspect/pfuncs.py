"""Scalar p-calculus: the exponent check and ``pi_p``, the half period of
the generalized sine sin_p, the solution of

    (phi_p(u'))' + (p-1) phi_p(u) = 0,   u(0) = 0, u'(0) = 1,

with phi_p(s) = |s|^{p-2} s.
"""

from __future__ import annotations

import math


def _pval(p) -> float:
    """The exponent as a float, validated: 1 < p < inf."""
    pv = float(p)
    if not (math.isfinite(pv) and pv > 1.0):
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {pv!r}")
    return pv


def pi_p(p) -> float:
    """Half period of sin_p: 2*pi / (p*sin(pi/p)).

    Equals twice the arclength integral integral_0^1 (1-s^p)^{-1/p} ds
    (Gamma-function evaluation of the beta integral).
    """
    pv = _pval(p)
    return 2.0 * math.pi / (pv * math.sin(math.pi / pv))
