"""Adaptive Dormand-Prince 5(4) stepper for the radial first-order system.

Specialized to a two-component real system y = (u, v) with a scalar
right-hand side callback f(r, u, v) -> (du, dv) operating on plain
floats.  The per-step quartic interpolant (the standard DP dense-output
polynomial) is stored for every accepted step, so trajectories can be
evaluated anywhere afterwards; that is what zero location and profile
resampling run on.

This is the Python stepper, the reference the compiled kernel
(``_kernel``, ``_rk45_kernel.c``) is held to: the kernel ports its start
and loop operation for operation and so gives the same bits, and every
shot of the library runs on the kernel.  The tests' reference
(``tests/reference.py``) marches here, and ``perfbench/tracing.py`` looks
:func:`integrate` up by name.  :class:`DenseOutput` reads the kernel's
shots as well.

The loop deliberately avoids numpy; shots are ~1e2..1e3 steps of
trivially cheap arithmetic, where array machinery costs more than the
math.  For the same reason it keeps the dense coefficients in flat lists
of floats (two start values and eight theta-polynomial coefficients per
step, u before v) and makes them one array at the end; the kernel fills
an array of the same layout, and both hand it to :class:`DenseOutput`.

The right-hand side is a callable argument, so a caller can wrap f to
count or time its evaluations without touching the loop.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IntegrationError

# Dormand-Prince coefficients
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84

# error weights (5th minus embedded 4th order)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# dense-output polynomial: the theta^j coefficient of a step is h times a
# fixed combination of the stages; theta^1 is h * k1, k2 enters no power
_D21, _D23, _D24, _D25, _D26, _D27 = (
    -8048581381 / 2820520608,
    131558114200 / 32700410799,
    -1754552775 / 470086768,
    127303824393 / 49829197408,
    -282668133 / 205662961,
    40617522 / 29380423,
)
_D31, _D33, _D34, _D35, _D36, _D37 = (
    8663915743 / 2820520608,
    -68118460800 / 10900136933,
    14199869525 / 1410260304,
    -318862633887 / 49829197408,
    2019193451 / 616988883,
    -110615467 / 29380423,
)
_D41, _D43, _D44, _D45, _D46, _D47 = (
    -12715105075 / 11282082432,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


class StepCounts(NamedTuple):
    """Work of one integration: step attempts and right-hand side calls."""

    accepted: int
    rejected: int
    rhs_calls: int

    @classmethod
    def of(cls, accepted: int, rejected: int) -> "StepCounts":
        # f runs once at t0, once in the initial step guess and six times
        # per attempted step (k1 of the next step is k7 of this one)
        return cls(accepted, rejected, 2 + 6 * (accepted + rejected))


class DenseOutput:
    """Piecewise-quartic interpolant over the n accepted steps of a march.

    Built from one flat block of 12 n + 1 floats, as both loops leave it:
    the n + 1 nodes (the left ends of the steps, then the final t), the
    start values (u0, v0 per step), the step sizes, and the
    theta^1..theta^4 coefficients of u, then of v, per step.  A call reads
    (u, v) at each t of an array of any shape, 0-d too, as ``dense_at`` does.
    """

    __slots__ = ("block", "n", "_np")

    def __init__(self, block: np.ndarray, n: int):
        self.block, self.n = block, n
        self._np = (
            block[:n],
            block[n + 1:3 * n + 1].reshape(-1, 2),
            block[3 * n + 1:4 * n + 1],
            block[4 * n + 1:12 * n + 1].reshape(-1, 2, 4),
        )

    def segments(self, t: np.ndarray) -> np.ndarray:
        """The step each t is evaluated on: the last whose left node is <= t,
        or the first step for a t before it."""
        return np.maximum(np.searchsorted(self._np[0], t, side="right") - 1, 0)

    def __call__(self, t):
        shape, t = np.shape(t), np.asarray(t, dtype=float).reshape(-1)
        ts, y0s, hs, coef = self._np
        idx = self.segments(t)
        th = (t - ts[idx]) / hs[idx]
        c = coef[idx]  # (n, 2, 4)
        acc = c[:, :, 3]
        for j in (2, 1, 0):
            acc = acc * th[:, None] + c[:, :, j]
        return (y0s[idx] + acc * th[:, None]).T.reshape((2, *shape))


def _initial_step(f, t0, y0, f0, t_end, rtol, atol_u, atol_v):
    scale_u = atol_u + rtol * abs(y0[0])
    scale_v = atol_v + rtol * abs(y0[1])
    d0 = math.hypot(y0[0] / scale_u, y0[1] / scale_v) / math.sqrt(2)
    d1 = math.hypot(f0[0] / scale_u, f0[1] / scale_v) / math.sqrt(2)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    u1 = y0[0] + h0 * f0[0]
    v1 = y0[1] + h0 * f0[1]
    f1 = f(t0 + h0, u1, v1)
    d2 = (
        math.hypot((f1[0] - f0[0]) / scale_u, (f1[1] - f0[1]) / scale_v)
        / math.sqrt(2)
        / h0
    )
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0)


def _underflow(t: float) -> IntegrationError:
    return IntegrationError(f"step size underflow at r = {t:.6e}")


def integrate(f, t0, t_end, y0, *, rtol, atol, blowup_limit):
    """March from t0 to t_end; returns (ts, dense, blowup_t, steps).

    ts: the accepted nodes (an array).  blowup_t is the radius where |u|
    first reached blowup_limit (integration stops there), or None if
    t_end was reached.  steps: the :class:`StepCounts` of the march.
    Raises IntegrationError on step-size underflow.
    """
    t, u, v = t0, float(y0[0]), float(y0[1])
    fu, fv = f(t0, u, v)

    # atol may be per-component (u, v); homothetic scalings of the linear
    # problem then reproduce exactly scaled trajectories
    atol_u, atol_v = (atol, atol) if np.isscalar(atol) else atol

    h = _initial_step(f, t0, (u, v), (fu, fv), t_end, rtol, atol_u, atol_v)
    h_min = 16 * abs(t_end - t0) * 2.3e-16 + 1e-300

    seg_t, seg_y0, seg_h, seg_coef = [], [], [], []
    blowup_t = None
    rejected = 0

    while t < t_end:
        if h < h_min:
            raise _underflow(t)
        if t + h > t_end:
            h = t_end - t

        k1u, k1v = fu, fv
        k2u, k2v = f(t + _C2 * h, u + h * _A21 * k1u, v + h * _A21 * k1v)
        k3u, k3v = f(
            t + _C3 * h,
            u + h * (_A31 * k1u + _A32 * k2u),
            v + h * (_A31 * k1v + _A32 * k2v),
        )
        k4u, k4v = f(
            t + _C4 * h,
            u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
            v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v),
        )
        k5u, k5v = f(
            t + _C5 * h,
            u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u),
            v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v),
        )
        k6u, k6v = f(
            t + h,
            u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u),
            v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v),
        )
        u1 = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        v1 = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        k7u, k7v = f(t + h, u1, v1)

        err_u = h * (
            _E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u
        )
        err_v = h * (
            _E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v
        )
        scale_u = atol_u + rtol * max(abs(u), abs(u1))
        scale_v = atol_v + rtol * max(abs(v), abs(v1))
        norm = math.sqrt(0.5 * ((err_u / scale_u) ** 2 + (err_v / scale_v) ** 2))

        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** (-0.2))
            rejected += 1
            continue

        # accept: store the dense quartic for this step; each sum starts
        # from 0.0 and adds the stage terms in stage order
        seg_t.append(t)
        seg_y0 += (u, v)
        seg_h.append(h)
        seg_coef += (
            h * (0.0 + k1u),
            h * (0.0 + _D21 * k1u + _D23 * k3u + _D24 * k4u + _D25 * k5u + _D26 * k6u + _D27 * k7u),
            h * (0.0 + _D31 * k1u + _D33 * k3u + _D34 * k4u + _D35 * k5u + _D36 * k6u + _D37 * k7u),
            h * (0.0 + _D41 * k1u + _D43 * k3u + _D44 * k4u + _D45 * k5u + _D46 * k6u + _D47 * k7u),
            h * (0.0 + k1v),
            h * (0.0 + _D21 * k1v + _D23 * k3v + _D24 * k4v + _D25 * k5v + _D26 * k6v + _D27 * k7v),
            h * (0.0 + _D31 * k1v + _D33 * k3v + _D34 * k4v + _D35 * k5v + _D36 * k6v + _D37 * k7v),
            h * (0.0 + _D41 * k1v + _D43 * k3v + _D44 * k4v + _D45 * k5v + _D46 * k6v + _D47 * k7v),
        )

        t_new = t + h

        if abs(u1) >= blowup_limit:
            blowup_t = t_new
            t = t_new
            u, v = u1, v1
            break

        t = t_new
        u, v = u1, v1
        fu, fv = k7u, k7v  # FSAL

        factor = _MAX_FACTOR if norm == 0.0 else min(_MAX_FACTOR, _SAFETY * norm ** (-0.2))
        h *= factor

    accepted = len(seg_h)
    steps = StepCounts.of(accepted, rejected)
    block = np.array(seg_t + [t] + seg_y0 + seg_h + seg_coef, dtype=float)
    return block[:accepted + 1], DenseOutput(block, accepted), blowup_t, steps
