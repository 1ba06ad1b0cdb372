"""The Python reference of pspect's compiled shots: the oracle of the
bit-identity battery.

pspect runs every shot, probe and root solve on its compiled kernel
(``pspect._kernel``).  This module computes them in Python, operation for
operation as the kernel does, from the library's own pieces: m(r)
(:func:`weight_at`), the start from the origin series
(:func:`origin_startup`), the Dormand-Prince march
of ``pspect._rk45.integrate`` on the first-order system (:func:`system`),
the post-pass in numpy (:func:`scan_reference`) with each sign change of
u refined by ``radial_ivp.brentq`` (:func:`locate_zeros`), the tail filter
the kernel runs on every shot (:func:`drop_noise_tail_zeros`) and the zero
rules of ``radial_ivp``.  :func:`shoot`, :func:`probe`
and :func:`solve_miss` put them together as ``radial_ivp``'s functions of
those names do on the kernel, which must give their bits, or raise their
exceptions with the same type and message.

A test edits the march by monkeypatching ``reference.integrate``, and runs
whole searches on the reference with :func:`route`.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from pspect import nodal, radial_ivp, spectrum
from pspect._rk45 import integrate
from pspect.errors import PreconditionError
from pspect.radial_ivp import (
    BLOWUP_LIMIT,
    BLOWUP_MISS,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    PROBE_SAMPLES,
    ZERO_RTOL,
    ZERO_XTOL,
    Probe,
    Trajectory,
    _sgnpow,
    brentq,
)
from pspect.weights import _poly_eval

TAIL_NOISE_FACTOR = 1e-7
TAIL_SLOPE_FACTOR = 1e-3


def weight_at(m, r: float) -> float:
    """m(r) of the ``Weight`` m at the float r, as the kernel's ``weight()``
    reads it: bisect_right over the breakpoints, clamped to a piece, then
    Horner on that piece."""
    i = min(max(bisect_right(m.breakpoints, r) - 1, 0), len(m.coeffs) - 1)
    return _poly_eval(m.coeffs[i], r - m.breakpoints[i])


def origin_startup(problem, alpha: float, eps: float):
    """Series values (u(eps), v(eps)) used to step off the singular origin,
    with W(0, alpha) the w(lam, m(0), 0, alpha) of the right-hand side's
    ``make``."""
    if not 0.0 < eps <= 1e-4:
        raise PreconditionError(f"startup radius must lie in (0, 1e-4], got {eps}")
    w0 = problem.rhs.make(problem.p)(problem.lam, weight_at(problem.m, 0.0), 0.0, alpha)
    n = problem.N
    pc = problem.p_conj
    u_eps = alpha - _sgnpow(w0 / n, pc - 1.0) * eps**pc / pc
    v_eps = -w0 * eps**n / n
    return u_eps, v_eps


def system(p, n_dim, w, lam, m):
    """First-order system (u', v') for any right-hand side
    W = w(lam, m(r), r, u) (the w of an RHS class's ``make``) at the
    parameter lam, on the ``Weight`` m."""
    e_inv = 1.0 / (p - 1.0)

    if n_dim == 1:

        def f(r, u, v):
            return _sgnpow(v, e_inv), -w(lam, weight_at(m, r), r, u)

    elif n_dim == 2:

        def f(r, u, v):
            return _sgnpow(v / r, e_inv), -r * w(lam, weight_at(m, r), r, u)

    else:

        def f(r, u, v):
            rn = r ** (n_dim - 1)
            return _sgnpow(v / rn, e_inv), -rn * w(lam, weight_at(m, r), r, u)

    return f


def shoot(problem, alpha, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, n_samples=513,
          blowup_limit=BLOWUP_LIMIT):
    """``radial_ivp.shoot``: the Python start and stepper on the w of the
    right-hand side's ``make`` at problem's lam, then the numpy post-pass."""
    if alpha == 0.0:
        raise PreconditionError("initial value alpha must be nonzero")
    p, n_dim, eps = problem.p, problem.N, radial_ivp.DEFAULT_EPS
    e_inv = 1.0 / (p - 1.0)
    f = system(p, n_dim, problem.rhs.make(p), problem.lam, problem.m)
    _, dense, blowup_radius, steps = integrate(
        f, eps, 1.0, origin_startup(problem, alpha, eps), rtol=rtol, atol=atol,
        blowup_limit=blowup_limit)
    r_end = blowup_radius if blowup_radius is not None else 1.0
    grid, u, v, sup_u, terminal, sup_uprime, pairs = post_pass(dense, eps, r_end, n_samples,
                                                               n_dim, e_inv)
    zeros = radial_ivp._crossings(pairs, sup_uprime)
    return Trajectory(p=p, N=n_dim, alpha=float(alpha), r=grid, u=u, v=v, zeros=zeros,
                      terminal=terminal if blowup_radius is None else None,
                      blowup_radius=blowup_radius, sup_u=sup_u, sup_uprime=sup_uprime,
                      steps=steps, dense=dense)


def probe(problem, alpha, *, rtol, atol, blowup_limit=BLOWUP_LIMIT):
    """``radial_ivp.probe``: the probe of the whole shot."""
    return reduce(shoot(problem, alpha, rtol=rtol, atol=atol, n_samples=PROBE_SAMPLES,
                        blowup_limit=blowup_limit))


def reduce(traj):
    """The probe of the shot traj, read on PROBE_SAMPLES samples: D, or
    BLOWUP_MISS signed by u where a shot that blew up stopped, and Z."""
    blowup = traj.blowup_radius is not None
    d = math.copysign(BLOWUP_MISS, traj.u[-1]) if blowup else traj.terminal_u
    return Probe(d, len(traj.interior_zeros), blowup, traj.sup_u, traj.steps)


def solve_miss(problem, alpha, a, b, ends, *, in_alpha=False, rtol, atol, xtol, xrtol,
               blowup_limit=BLOWUP_LIMIT, n_shot=513, trial=None):
    """``radial_ivp.solve_miss``: Brent's method over :func:`probe` (or over
    trial, a function of the same arguments), in the parameter of
    problem's right-hand side at u(0) = alpha, or in u(0); then the root,
    the probe there, :func:`shoot` there (None where n_shot is 0; the
    library asks for no other n_shot than 0 and shoot's 513) and the trials
    in order, as (x, probe) pairs.  Where Brent's method does not converge,
    its RuntimeError carries those trials as ``trials``."""
    pr_a, pr_b = ends
    seen = {a: pr_a, b: pr_b}
    trials = []

    def miss(x):
        at = (problem, x) if in_alpha else (problem.at(x), alpha)
        pr = seen[x] = (trial or probe)(*at, rtol=rtol, atol=atol, blowup_limit=blowup_limit)
        trials.append((x, pr))
        return pr.d

    try:
        root = brentq(miss, a, b, xtol=xtol, rtol=xrtol, fa=pr_a.d, fb=pr_b.d)
    except RuntimeError as exc:
        exc.trials = trials
        raise
    if n_shot == 0:
        return root, seen[root], None, trials
    at = (problem, root) if in_alpha else (problem.at(root), alpha)
    return root, seen[root], shoot(*at, rtol=rtol, atol=atol, blowup_limit=blowup_limit), trials


def route(monkeypatch):
    """Run the library's shots, probes and root solves on this reference."""
    for module in (radial_ivp, nodal, spectrum):
        for name in ("shoot", "probe", "solve_miss"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, globals()[name])


def post_pass(dense, eps, r_end, n_samples, n_dim, e_inv):
    """What ``_kernel.scan`` returns: the grid, u and v on it, sup |u|,
    (u(1), v(1)), sup |u'| and the zeros the tail filter keeps, as (r, u')
    pairs (:func:`scan_reference`, :func:`locate_zeros`, then
    :func:`drop_noise_tail_zeros`)."""
    grid, u, v, tail_max, terminal, sup_uprime, brackets = scan_reference(
        dense, eps, r_end, n_samples, n_dim, e_inv)
    sup_u = float(tail_max[0])
    pairs = drop_noise_tail_zeros(locate_zeros(brackets, n_dim, e_inv), grid, tail_max, sup_u,
                                  sup_uprime)
    return grid, u, v, sup_u, terminal, sup_uprime, pairs


def drop_noise_tail_zeros(pairs, grid, tail_max, sup_u, sup_uprime):
    """The (r, u') pairs of a shot's zeros without its trailing noise
    crossings: the tail filter ``kept_zeros`` of ``_rk45_kernel.c``, whose
    comment says why it exists.  A trailing zero goes while the maximum of
    |u| over the grid from it on is below TAIL_NOISE_FACTOR sup |u| and its
    slope below TAIL_SLOPE_FACTOR sup |u'|."""
    kept = list(pairs)
    while kept:
        r, uprime = kept[-1]
        idx = int(np.searchsorted(grid, r))
        tail = tail_max[idx] if idx < len(grid) else 0.0
        if tail < TAIL_NOISE_FACTOR * sup_u and abs(uprime) < TAIL_SLOPE_FACTOR * sup_uprime:
            kept.pop()
        else:
            break
    return kept


def quartics(dense, i):
    """Rows (left node, step size, u0, the theta^1..theta^4 coefficients of
    u, v0, those of v) of the steps i of the ``DenseOutput`` dense."""
    ts, y0s, hs, coef = dense._np
    return np.column_stack((ts[i], hs[i], y0s[i, 0], coef[i, 0], y0s[i, 1], coef[i, 1]))


def scan_reference(dense, eps, r_end, n_samples, n_dim, e_inv):
    """What ``_kernel.scan`` computes, in numpy.

    Returns the sample grid (a uniform grid united with the nodes of the
    accepted steps), u and v on it, the maximum of |u| over the grid from
    each point on, (u(1), v(1)), sup |u'| and one record per sign change
    of u over the nodes and the step midpoints up to r_end: the interval's
    ends a and b, u(a), u(b), v(b), and the quartics of the step that
    holds a (:func:`quartics`).

    sup |u'| is pow(M, e_inv), M the largest |v| / rn over the grid, with
    rn = max(r, 1e-300) ** (n_dim - 1) as :func:`locate_zeros` takes it: a
    NaN makes it NaN, and an overflowing power inf.  Both powers are
    libm's, as in the kernel; numpy's array power need not round alike.
    """
    ts = dense.block[:dense.n + 1]
    grid = np.union1d(np.linspace(eps, r_end, n_samples), ts)
    u, v = dense(grid)
    tail_max = np.maximum.accumulate(np.abs(u)[::-1])[::-1]

    nodes = np.union1d(ts, 0.5 * (ts[:-1] + ts[1:]))
    nodes = nodes[nodes <= r_end]
    uu, vv = dense(nodes)
    # u vanishes at the left node, or changes sign across the interval (signs
    # compared, not multiplied: a product underflows to -0.0 or overflows)
    ua, ub = uu[:-1], uu[1:]
    k = np.flatnonzero((ua == 0.0) | ((ua < 0.0) & (ub > 0.0)) | ((ua > 0.0) & (ub < 0.0)))
    records = np.column_stack((nodes[k], nodes[k + 1], uu[k], uu[k + 1], vv[k + 1],
                               quartics(dense, dense.segments(nodes[k]))))
    rn = np.array([max(r, 1e-300) ** (n_dim - 1) for r in grid.tolist()])
    with np.errstate(all="ignore"):
        sup_uprime = float(np.max(np.abs(v) / rn) ** e_inv)  # a numpy scalar power is libm's
    return grid, u, v, tail_max, tuple(dense(1.0).tolist()), sup_uprime, records.tolist()


def quartic_on_step(t, b, yb, t0, h, y0, c0, c1, c2, c3):
    """u or v at t in a bracket [a, b] of one step: the step's quartic, and
    y(b) = yb at the right end, which the dense output evaluates on the
    next step where b is a node."""
    if t == b:
        return yb
    th = (t - t0) / h
    return y0 + th * (c0 + th * (c1 + th * (c2 + th * c3)))


def locate_zeros(brackets, n_dim, e_inv):
    """Refine each sign-change record of :func:`scan_reference` to a zero:
    (r, u'(r)) pairs, as ``_kernel.scan`` returns them."""
    zeros = []
    for a, b, ua, ub, vb, t0, h, u0, c0, c1, c2, c3, v0, d0, d1, d2, d3 in brackets:
        if ua == 0.0:
            rz = a
        else:
            rz = brentq(quartic_on_step, a, b, args=(b, ub, t0, h, u0, c0, c1, c2, c3),
                        xtol=ZERO_XTOL, rtol=ZERO_RTOL)
        if zeros and abs(rz - zeros[-1][0]) < 10 * ZERO_XTOL:
            continue
        vz = quartic_on_step(rz, b, vb, t0, h, v0, d0, d1, d2, d3)
        rn = max(rz, 1e-300) ** (n_dim - 1)
        zeros.append((float(rz), float(_sgnpow(vz / rn, e_inv))))
    return zeros
