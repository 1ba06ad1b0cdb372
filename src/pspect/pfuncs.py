"""Scalar p-calculus.

The building blocks for everything else in the package:

* ``phi_p(s) = |s|^{p-2} s``, the odd power map, and its inverse (which is
  the same map for the conjugate exponent p' = p/(p-1)),
* ``pi_p``, the half period of the generalized sine,
* ``sin_p``, the generalized sine, defined here as the solution of

      (phi_p(u'))' + (p-1) phi_p(u) = 0,   u(0) = 0, u'(0) = 1.

With this normalization the first integral is the exact identity

      |u(x)|^p + |u'(x)|^p = 1,

which the tests lean on.  Other conventions in circulation rescale the
argument (e.g. the solution of (phi_p(u'))' + phi_p(u) = 0 is
``sin_p(x / (p-1)^{1/p})`` in ours); translate accordingly.

On the quarter period [0, pi_p/2] the function is the inverse of the
arclength integral

      x(u) = integral_0^u (1 - s^p)^{-1/p} ds,

which in closed form is (pi_p/2) * I(1/p, 1-1/p; u^p) with I the
regularized incomplete beta function.  We invert through
``scipy.special.betaincinv``, then extend by the reflection
sin_p(pi_p - x) = sin_p(x) and by antiperiodicity over the half period
(full period 2 pi_p).  This sidesteps integrating the defining ODE, which
degenerates at the extrema for p != 2.
"""

from __future__ import annotations

import math

import numpy as np


def _pval(p) -> float:
    """The exponent as a float, validated: 1 < p < inf."""
    pv = float(p)
    if not (math.isfinite(pv) and pv > 1.0):
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {pv!r}")
    return pv


def phi_p(s, p):
    """The odd power map |s|^{p-2} s.

    Evaluated as |s|^{p-1} * sign(s), which is total: no division by zero
    at s = 0 when p < 2.  Works on scalars and arrays.
    """
    pv = _pval(p)
    s_arr = np.asarray(s, dtype=float)
    out = np.sign(s_arr) * np.abs(s_arr) ** (pv - 1.0)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def phi_p_inv(s, p):
    """Inverse of phi_p, i.e. phi_{p'} for the conjugate exponent."""
    pv = _pval(p)
    return phi_p(s, pv / (pv - 1.0))


def pi_p(p) -> float:
    """Half period of sin_p: 2*pi / (p*sin(pi/p)).

    Equals twice the arclength integral integral_0^1 (1-s^p)^{-1/p} ds
    (Gamma-function evaluation of the beta integral).
    """
    pv = _pval(p)
    return 2.0 * math.pi / (pv * math.sin(math.pi / pv))


def sin_p(x, p):
    """Generalized sine and its derivative, ``(value, derivative)``.

    Defined on all of R by quarter-period inversion plus the symmetries
    sin_p(pi_p - x) = sin_p(x) and sin_p(x + pi_p) = -sin_p(x).
    Accepts scalars or arrays.  The only caller of scipy in the package,
    which it imports here so that importing pspect loads none of it.
    """
    from scipy.special import betaincinv

    pv = _pval(p)
    half = pi_p(pv)
    quarter = 0.5 * half
    period = 2.0 * half

    x_arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or x_arr.ndim == 0

    t = np.mod(x_arr, period)
    sgn = np.where(t < half, 1.0, -1.0)
    t = np.where(t >= half, t - half, t)
    # fold [0, half] onto [0, quarter]; derivative flips sign on the way down
    dsgn = np.where(t > quarter, -1.0, 1.0)
    tau = np.where(t > quarter, half - t, t)

    # on the quarter period, u^p solves I(1/p, 1-1/p; u^p) = tau/quarter for
    # the regularized incomplete beta I.  The derivative needs 1 - u^p,
    # which cancels catastrophically near the extremum; by the reflection
    # I_x(a, b) = 1 - I_{1-x}(b, a) it equals the inverse beta at swapped
    # parameters of the complementary abscissa (quarter - tau)/quarter,
    # formed exactly from the folded argument.
    a = 1.0 / pv
    b = 1.0 - a
    y = np.clip(tau / quarter, 0.0, 1.0)
    yc = np.clip((quarter - tau) / quarter, 0.0, 1.0)
    w = betaincinv(a, b, y)  # u^p
    s = betaincinv(b, a, yc)  # 1 - u^p, cancellation free
    u = np.where(y <= 0.5, w, 1.0 - s) ** (1.0 / pv)
    du = s ** (1.0 / pv)

    val = sgn * u
    der = sgn * dsgn * du
    if scalar:
        return float(val), float(der)
    return val, der
