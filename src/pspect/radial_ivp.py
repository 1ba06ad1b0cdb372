"""Initial-value integration of the radial equations.

The second-order problems handled here all have the divergence form

    (r^{N-1} phi_p(u'))' + r^{N-1} W(r, u) = 0,    u'(0) = 0,

with W one of

    linear      W = mu * m(r) * phi_p(u)
    nonlinear   W = gamma * m(r) * f(u)
    perturbed   W = mu * m(r) * phi_p(u) + g(r, u; mu)

Written as a first-order system in (u, v) with v = r^{N-1} phi_p(u'):

    u' = phi_p_inv(v / r^{N-1}),    v' = -r^{N-1} W(r, u).

The coefficient is singular at r = 0, so integration starts at a small
radius eps from the two-term series

    u(eps) = alpha - phi_{p'}(W(0, alpha)/N) * eps^{p'} / p',
    v(eps) = -W(0, alpha) * eps^N / N,

whose error is O(eps^{p'+1}); with the default eps = 1e-6 the startup is
far below integrator tolerance.  Stepping is the package's own adaptive
Dormand-Prince 5(4) with quartic dense output.

This module picks the path of each shot.  Where the right-hand side has a
compiled form (``compiled``: the linear problem, the nonlinear one with a
built-in ``Nonlinearity`` family and the perturbed one with the built-in
``Perturbation``), :func:`shoot` is one kernel call (``_kernel.shoot``):
the start, the march with that right-hand side written into the loop and
the read-out, to the bits of the Python path.  The Python path serves any
other f or g, a missing compiler and every shot the kernel hands back
(where Python would raise): the Python start
(:func:`origin_startup`), the Python stepper (``_rk45.integrate``) on the
right-hand side ``_system`` builds, then ``_scan_reference`` in numpy and
``_locate_zeros``.  ``_shot`` builds the one block (``_kernel.Shot``) the
kernel's shots, probes and root solves take.

A shot is read off its dense output: the samples on a uniform grid
united with the accepted steps, the running maxima of |u| behind them,
u(1), max|u'| and the zeros of u.  Each sign change of u over the step
nodes and midpoints is refined by Brent's method (:func:`brentq`) to
1e-12 in r on the quartic of its step.  max|u'| is
pow(max |v| / r^(N-1), 1/(p-1)) over the grid, each power libm's, in C
and in the references alike.  A zero is simple when
|u'(r_z)| >= 1e-8 * max|u'|, and the trajectory is flagged, not
repaired, when a degenerate (u = u' = 0) point is met, since IVP
uniqueness can fail there for p != 2.  Every shot runs behind a blow-up
guard: the march stops where |u| first reaches blowup_limit, which
math.inf puts off until u overflows.

Searches consume a shot through :func:`probe`, which reduces it to the
miss D = u(1) and the count Z of ``Trajectory.interior_zeros`` (the one
interior-zero rule) and owns the one rule for a shot that blew up.
Where the right-hand side has a compiled form, a probe is one kernel
call (``_kernel.probe``): the start at the origin, the march, the
post-pass, the tail filter and the count, with no trajectory built and
no Python f called.  The kernel hands the probe back where Python would
raise; the probe is then the reduction of the whole shot
(``_shoot_and_reduce``), to the same bits.

The nodal root solves (the gamma of a branch point, the mu of a
perturbed solution, the amplitude of a nodal solution) go through
:func:`solve_miss`: Brent's method on D over a bracket whose ends the
caller has probed.  Where the right-hand side has a compiled form, the
whole solve is one kernel call (``_kernel.solve``), each trial a kernel
probe; else, and where the kernel hands it back, it is :func:`brentq`
over :func:`probe`, with the same root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernel
from ._rk45 import DenseOutput, StepCounts, _underflow, integrate
from .errors import IntegrationError, PreconditionError
from .pfuncs import _pval
from .weights import Weight

DEFAULT_EPS = 1e-6
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
BLOWUP_LIMIT = 1e12
BLOWUP_MISS = 1e12  # |D| reported for a shot that blew up, whatever the guard
BOUNDARY_MARGIN = 1e-6  # zeros within this of r = 1 are not interior
SIMPLICITY_FACTOR = 1e-8
ZERO_XTOL = 1e-12
ZERO_RTOL = 8.9e-16  # the rtol of a zero's refinement
TAIL_NOISE_FACTOR = 1e-7
TAIL_SLOPE_FACTOR = 1e-3
PROBE_SAMPLES = 65  # grid of the shot a probe reads
# _rk45_kernel.c repeats BLOWUP_MISS, ZERO_XTOL, ZERO_RTOL, BOUNDARY_MARGIN and the TAIL_ factors
# (tests/test_radial_ivp.py::test_kernel_constants_match_python compares them)


def _sgnpow(x: float, e: float) -> float:
    if x > 0.0:
        return x**e
    if x < 0.0:
        return -((-x) ** e)
    return 0.0


# ---------------------------------------------------------------------------
# right-hand sides: make(p, m_eval) builds w(r, u) for ``_system``, and
# compiled(p, N, m) the same right-hand side as a ``_kernel.Rhs``, or None
# where only the Python stepper computes it


def _kernel_params(fn):
    """What fn hands the kernel (``kernel_params()`` of nodal's built-in
    Nonlinearity and Perturbation), or None."""
    params = getattr(fn, "kernel_params", None)
    return None if params is None else params()


@dataclass(frozen=True)
class LinearRHS:
    mu: float

    def make(self, p: float, m_eval):
        mu, e = self.mu, p - 1.0

        def w(r, u):
            return mu * m_eval(r) * _sgnpow(u, e)

        return w

    def compiled(self, p, n_dim, m):
        return _kernel.rhs(p, n_dim, m, self.mu, _kernel.LINEAR, p - 1.0)


@dataclass(frozen=True)
class NonlinearRHS:
    gamma: float
    f: object  # callable u -> f(u), see nodal.Nonlinearity

    def make(self, p: float, m_eval):
        gamma, f = self.gamma, self.f

        def w(r, u):
            return gamma * m_eval(r) * f(u)

        return w

    def compiled(self, p, n_dim, m):
        family = _kernel_params(self.f)  # (family, e, f0, finf, q)
        return None if family is None else _kernel.rhs(p, n_dim, m, self.gamma, *family)


@dataclass(frozen=True)
class PerturbedRHS:
    mu: float
    g: object  # callable (r, u, mu) -> g, see nodal.Perturbation

    def make(self, p: float, m_eval):
        mu, g, e = self.mu, self.g, p - 1.0

        def w(r, u):
            return mu * m_eval(r) * _sgnpow(u, e) + g(m_eval(r), r, u, mu)

        return w

    def compiled(self, p, n_dim, m):
        term = _kernel_params(self.g)  # (c, p - 1 + delta)
        return None if term is None else _kernel.rhs(
            p, n_dim, m, self.mu, _kernel.PERTURBED, p - 1.0, gc=term[0], ge=term[1])


@dataclass(frozen=True)
class Problem:
    """Geometry (p, N), weight m and right-hand side of one radial problem."""

    p: float
    N: int
    m: Weight
    rhs: object

    def __post_init__(self):
        object.__setattr__(self, "p", _pval(self.p))
        if int(self.N) != self.N or self.N < 1:
            raise PreconditionError(f"dimension N must be an integer >= 1, got {self.N}")
        object.__setattr__(self, "N", int(self.N))

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @classmethod
    def linear(cls, p, N, m: Weight, mu: float) -> "Problem":
        return cls(p, N, m, LinearRHS(float(mu)))

    @classmethod
    def nonlinear(cls, p, N, m: Weight, gamma: float, f) -> "Problem":
        return cls(p, N, m, NonlinearRHS(float(gamma), f))

    @classmethod
    def perturbed(cls, p, N, m: Weight, mu: float, g) -> "Problem":
        return cls(p, N, m, PerturbedRHS(float(mu), g))

    def with_mu(self, mu: float) -> "Problem":
        """The linear problem with this geometry and weight at parameter mu."""
        return replace(self, rhs=LinearRHS(float(mu)))

    def at(self, lam: float) -> "Problem":
        """This problem with the parameter of its right-hand side (mu or
        gamma) set to lam."""
        name = "gamma" if isinstance(self.rhs, NonlinearRHS) else "mu"
        return replace(self, rhs=replace(self.rhs, **{name: float(lam)}))

    def rhs_at_origin(self, alpha: float) -> float:
        """W(0, alpha), the coefficient entering the startup series."""
        w = self.rhs.make(self.p, self.m.eval_scalar)
        return w(0.0, alpha)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class ZeroCrossing:
    r: float
    uprime: float
    degenerate: bool  # |u'(r)| < SIMPLICITY_FACTOR * sup |u'|: not a simple zero


@dataclass(frozen=True)
class Trajectory:
    """Dense-output record of one shot from the origin."""

    p: float
    N: int
    alpha: float
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    zeros: tuple
    terminal: tuple | None  # (u(1), v(1)), None if the shot blew up
    blowup_radius: float | None
    sup_u: float
    sup_uprime: float  # max |u'| over the sample grid r
    steps: StepCounts
    dense: object = field(repr=False, default=None)

    @property
    def degenerate(self) -> bool:
        """Some zero is not simple: a degenerate (u = u' = 0) point was met."""
        return any(z.degenerate for z in self.zeros)

    def eval(self, r):
        y = self.dense(np.asarray(r, dtype=float))
        return y[0], y[1]

    def uprime(self, r):
        r_arr = np.asarray(r, dtype=float)
        _, v = self.eval(r_arr)
        e = 1.0 / (self.p - 1.0)
        w = v / np.maximum(r_arr, 1e-300) ** (self.N - 1)
        return np.sign(w) * np.abs(w) ** e

    @property
    def terminal_u(self) -> float:
        if self.terminal is None:
            raise IntegrationError(
                f"shot blew up at r = {self.blowup_radius:.6e}, no terminal value"
            )
        return self.terminal[0]

    @property
    def interior_zeros(self) -> tuple:
        """The zeros below 1 - BOUNDARY_MARGIN; a zero nearer r = 1 is not interior."""
        return tuple(z for z in self.zeros if z.r < 1.0 - BOUNDARY_MARGIN)


# ---------------------------------------------------------------------------
# startup and shooting


def origin_startup(problem: Problem, alpha: float, eps: float):
    """Series values (u(eps), v(eps)) used to step off the singular origin."""
    if not 0.0 < eps <= 1e-4:
        raise PreconditionError(f"startup radius must lie in (0, 1e-4], got {eps}")
    w0 = problem.rhs_at_origin(alpha)
    n = problem.N
    pc = problem.p_conj
    u_eps = alpha - _sgnpow(w0 / n, pc - 1.0) * eps**pc / pc
    v_eps = -w0 * eps**n / n
    return u_eps, v_eps


def _system(p, n_dim, w):
    """First-order system (u', v') for any right-hand side W = w(r, u)."""
    e_inv = 1.0 / (p - 1.0)

    if n_dim == 1:

        def f(r, u, v):
            return _sgnpow(v, e_inv), -w(r, u)

    elif n_dim == 2:

        def f(r, u, v):
            return _sgnpow(v / r, e_inv), -r * w(r, u)

    else:

        def f(r, u, v):
            rn = r ** (n_dim - 1)
            return _sgnpow(v / rn, e_inv), -rn * w(r, u)

    return f


def shoot(
    problem: Problem,
    alpha: float,
    *,
    eps: float = DEFAULT_EPS,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_samples: int = 513,
    blowup_limit: float = BLOWUP_LIMIT,
) -> Trajectory:
    """Integrate one shot with u(0) = alpha, u'(0) = 0 from the origin to r = 1.

    The boundary condition at r = 1 is *not* imposed; the terminal value
    u(1) is the miss that eigenvalue and amplitude scans drive to zero.
    The march stops where |u| first reaches blowup_limit.

    Where the right-hand side has a compiled form, the kernel starts,
    marches and reads the shot in one call (``_kernel.shoot``), calling no
    Python f.  It hands a shot back where Python would raise, and then, or
    without a compiled form, the shot takes the Python path: the Python
    start and stepper, then ``_scan_reference`` and ``_locate_zeros``, with
    the same result.
    """
    if alpha == 0.0:
        raise PreconditionError("initial value alpha must be nonzero")

    p, n_dim = problem.p, problem.N
    shot = _shot(problem, alpha, eps, rtol, atol, blowup_limit, n_samples)
    out = None if shot is None else _kernel.shoot(shot)
    if out is None:
        e_inv = 1.0 / (p - 1.0)
        f = _system(p, n_dim, problem.rhs.make(p, problem.m.scalar_fn()))
        _, dense, blowup_radius, steps = integrate(
            f, eps, 1.0, origin_startup(problem, alpha, eps), rtol=rtol, atol=atol,
            blowup_limit=blowup_limit)
        r_end = blowup_radius if blowup_radius is not None else 1.0
        *scan, brackets = _scan_reference(dense, eps, r_end, n_samples, n_dim, e_inv)
        scan.append(_locate_zeros(brackets, n_dim, e_inv))
    else:
        status, r, accepted, rejected, block, scan = out
        if status == _kernel.UNDERFLOW:
            raise _underflow(r)
        dense, steps = DenseOutput(block, accepted), StepCounts.of(accepted, rejected)
        blowup_radius = r if status == _kernel.BLOWUP else None
    grid, u_samp, v_samp, tail_max, terminal, sup_uprime, pairs = scan
    sup_u = float(tail_max[0])
    zeros = _drop_noise_tail_zeros(_crossings(pairs, sup_uprime), grid, tail_max, sup_u,
                                   sup_uprime)

    return Trajectory(
        p=p,
        N=n_dim,
        alpha=float(alpha),
        r=grid,
        u=u_samp,
        v=v_samp,
        zeros=zeros,
        terminal=terminal if blowup_radius is None else None,
        blowup_radius=blowup_radius,
        sup_u=sup_u,
        sup_uprime=sup_uprime,
        steps=steps,
        dense=dense,
    )


def _shot(problem, alpha, eps, rtol, atol, blowup_limit, n_samples):
    """The shot of problem from u(0) = alpha as the kernel takes it (a
    ``_kernel.Shot``), or None where the right-hand side has no compiled
    form.  atol may be per-component (u, v), as ``integrate`` takes it."""
    rhs = problem.rhs.compiled(problem.p, problem.N, problem.m)
    if rhs is None:
        return None
    atol_u, atol_v = (atol, atol) if np.isscalar(atol) else atol
    return _kernel.Shot(rhs, alpha, problem.m.eval_scalar(0.0), problem.p_conj, eps, rtol,
                        atol_u, atol_v, blowup_limit, n_samples)


@dataclass(frozen=True)
class Probe:
    """The miss D = u(1) and interior zero count Z of one shot.

    A shot that blew up reports d = +-BLOWUP_MISS, signed by u where it
    stopped, and z counts the zeros of the traversed range only.  steps
    is the work of the shot (accepted and rejected steps, RHS calls).
    """

    d: float
    z: int
    blowup: bool
    sup_u: float
    steps: StepCounts


def probe(problem: Problem, alpha: float, *, rtol: float, atol: float,
          blowup_limit: float = BLOWUP_LIMIT) -> Probe:
    """Shoot with u(0) = alpha and reduce the shot to a :class:`Probe`.

    Where the right-hand side has a compiled form, the kernel starts,
    marches and reduces the shot in one call (``_kernel.probe``), calling
    no Python f and building no trajectory.  It hands a shot back where
    Python would raise, and then, or without a compiled form, the probe is
    the reduction of the whole shot (:func:`_shoot_and_reduce`), with the
    same result.
    """
    shot = _shot(problem, alpha, DEFAULT_EPS, rtol, atol, blowup_limit, PROBE_SAMPLES)
    out = None if shot is None else _kernel.probe(shot)
    if out is not None:
        status, record = out
        if status == _kernel.UNDERFLOW:
            raise _underflow(record[0])
        return _recorded(record)
    return _shoot_and_reduce(problem, alpha, rtol=rtol, atol=atol, blowup_limit=blowup_limit)


def solve_miss(problem: Problem, alpha: float, a: float, b: float, ends, *, in_alpha=False,
               rtol: float, atol: float, xtol: float, xrtol: float):
    """The root x in [a, b] of the miss D(x) = ``probe(...).d``, by Brent's
    method (:func:`brentq` with tolerances xtol and xrtol), and the
    :class:`Probe` there.

    x is the parameter of problem's right-hand side (mu or gamma) at
    u(0) = alpha, or u(0) itself where in_alpha.  ends are the probes at a
    and b, which are not shot again.  Where the right-hand side has a
    compiled form, the whole solve is one kernel call (``_kernel.solve``),
    every trial a kernel probe, and the probe at the root is read off its
    trial.  Where the kernel hands the solve back (a trial that Python
    would raise on, a NaN miss, or no convergence), or without a compiled
    form, the solve is Brent's method over :func:`probe`, with the same
    root or the same exception.
    """
    pr_a, pr_b = ends
    shot = _shot(problem, 0.0 if in_alpha else alpha, DEFAULT_EPS, rtol, atol, BLOWUP_LIMIT,
                 PROBE_SAMPLES)
    out = None if shot is None else _kernel.solve(shot, in_alpha, a, b, pr_a.d, pr_b.d, xtol,
                                                  xrtol)
    if out is not None:
        root, record = out
        if record is None:
            return root, pr_a if root == a else pr_b
        return root, _recorded(record)

    seen = {a: pr_a, b: pr_b}

    def miss(x):
        pr = seen[x] = _probe_at(problem, alpha, x, in_alpha, rtol, atol)
        return pr.d

    root = brentq(miss, a, b, xtol=xtol, rtol=xrtol, fa=pr_a.d, fb=pr_b.d)
    return root, seen[root]


def _recorded(record) -> Probe:
    """The :class:`Probe` of a kernel probe's record (``_kernel.probe``)."""
    d, sup_u, z, blowup, accepted, rejected = record
    return Probe(d, int(z), bool(blowup), sup_u, StepCounts.of(int(accepted), int(rejected)))


def _probe_at(problem, alpha, x, in_alpha, rtol, atol) -> Probe:
    """The probe at u(0) = x (in_alpha) or at parameter x and u(0) = alpha."""
    if in_alpha:
        return probe(problem, x, rtol=rtol, atol=atol)
    return probe(problem.at(x), alpha, rtol=rtol, atol=atol)


def _shoot_and_reduce(problem, alpha, *, rtol, atol, blowup_limit=BLOWUP_LIMIT) -> Probe:
    """The probe of the whole shot: the path where the kernel cannot take
    it, and the reference of ``_kernel.probe``."""
    traj = shoot(problem, alpha, rtol=rtol, atol=atol, n_samples=PROBE_SAMPLES,
                 blowup_limit=blowup_limit)
    blowup = traj.blowup_radius is not None
    d = math.copysign(BLOWUP_MISS, traj.u[-1]) if blowup else traj.terminal_u
    return Probe(d, len(traj.interior_zeros), blowup, traj.sup_u, traj.steps)


def _scan_reference(dense, eps, r_end, n_samples, n_dim, e_inv):
    """What ``_kernel.scan`` computes, in numpy; shots take it where the
    kernel does not load.

    Returns the sample grid (a uniform grid united with the nodes of the
    accepted steps), u and v on it, the maximum of |u| over the grid from
    each point on, (u(1), v(1)), sup |u'| and one record per sign change
    of u over the nodes and the step midpoints up to r_end: the interval's
    ends a and b, u(a), u(b), v(b), and the quartics of the step that
    holds a (``DenseOutput.quartics``).

    sup |u'| is pow(M, e_inv), M the largest |v| / rn over the grid, with
    rn = max(r, 1e-300) ** (n_dim - 1) as :func:`_locate_zeros` takes it: a
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
    # u vanishes at the left node, or changes sign across the interval
    k = np.flatnonzero((uu[:-1] == 0.0) | (uu[:-1] * uu[1:] < 0.0))
    records = np.column_stack((nodes[k], nodes[k + 1], uu[k], uu[k + 1], vv[k + 1],
                               dense.quartics(dense.segments(nodes[k]))))
    rn = np.array([max(r, 1e-300) ** (n_dim - 1) for r in grid.tolist()])
    with np.errstate(all="ignore"):
        sup_uprime = float(np.max(np.abs(v) / rn) ** e_inv)  # a numpy scalar power is libm's
    return grid, u, v, tail_max, dense.eval_scalar(1.0), sup_uprime, records.tolist()


def _quartic_on_step(t, b, yb, t0, h, y0, c0, c1, c2, c3):
    """u or v at t in a bracket [a, b] of one step: the step's quartic, and
    y(b) = yb at the right end, which the dense output evaluates on the
    next step where b is a node."""
    if t == b:
        return yb
    th = (t - t0) / h
    return y0 + th * (c0 + th * (c1 + th * (c2 + th * c3)))


def brentq(f, a, b, args=(), xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100,
           fa=None, fb=None):
    """A zero of f in [a, b] by Brent's method, taking the steps and giving
    the bits of scipy.optimize.brentq; unlike scipy's, it leaves no
    reference cycle behind (scipy wraps f in a function that refers to
    itself), so nothing of a shot waits for the cyclic collector.  fa and
    fb, where given, are f(a) and f(b), and f is not called there."""
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre, *args) if fa is None else fa
    fcur = f(xcur, *args) if fb is None else fb
    if fpre != fpre or fcur != fcur:
        raise ValueError("f is NaN at an end of the bracket")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur, *args)
        if fcur != fcur:
            raise ValueError(f"f is NaN at x={xcur}")
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _locate_zeros(brackets, n_dim, e_inv):
    """Refine each sign-change record of ``_scan_reference`` to a zero:
    (r, u'(r)) pairs, as ``_kernel.scan`` returns them."""
    zeros = []
    for a, b, ua, ub, vb, t0, h, u0, c0, c1, c2, c3, v0, d0, d1, d2, d3 in brackets:
        if ua == 0.0:
            rz = a
        else:
            rz = brentq(_quartic_on_step, a, b, args=(b, ub, t0, h, u0, c0, c1, c2, c3),
                        xtol=ZERO_XTOL, rtol=ZERO_RTOL)
        if zeros and abs(rz - zeros[-1][0]) < 10 * ZERO_XTOL:
            continue
        vz = _quartic_on_step(rz, b, vb, t0, h, v0, d0, d1, d2, d3)
        rn = max(rz, 1e-300) ** (n_dim - 1)
        zeros.append((float(rz), float(_sgnpow(vz / rn, e_inv))))
    return zeros


def _crossings(pairs, sup_uprime):
    simple = SIMPLICITY_FACTOR * sup_uprime
    return [ZeroCrossing(r, up, abs(up) < simple) for r, up in pairs]


def _drop_noise_tail_zeros(zeros, grid, tail_max, sup_u, sup_uprime):
    """Discard trailing crossings the solution never recovers from.

    An indefinite weight makes the terminal stretch of a near-eigenvalue
    shot non-oscillatory with an exponentially small true solution; the
    parameter sensitivity of that tail is exponential, so at the double-
    precision resolution of the eigenvalue the computed tail hovers at a
    noise floor and can flicker in sign.  A flicker crossing shows both
    signatures at once: |u| never rebounds above a small fraction of the
    sup-norm afterwards, and the slope at the crossing has collapsed
    relative to the shot's slope scale.  Genuine nodal zeros fail both
    tests by orders of magnitude.
    """
    kept = list(zeros)
    while kept:
        z = kept[-1]
        idx = int(np.searchsorted(grid, z.r))
        tail = tail_max[idx] if idx < len(grid) else 0.0
        if (
            tail < TAIL_NOISE_FACTOR * sup_u
            and abs(z.uprime) < TAIL_SLOPE_FACTOR * sup_uprime
        ):
            kept.pop()
        else:
            break
    return tuple(kept)
