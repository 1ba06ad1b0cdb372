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
radius eps = DEFAULT_EPS from the two-term series

    u(eps) = alpha - phi_{p'}(W(0, alpha)/N) * eps^{p'} / p',
    v(eps) = -W(0, alpha) * eps^N / N,

whose error is O(eps^{p'+1}); with eps = 1e-6 the startup is far below
integrator tolerance.  Stepping is adaptive Dormand-Prince 5(4) with
quartic dense output, off which ``Trajectory.eval`` reads u and u' at
given radii in one pass.

Every shot runs on the compiled kernel (``_kernel``): :func:`shoot`,
:func:`probe` and :func:`solve_miss` are one kernel call each, which
finishes or raises.  Where the right-hand side has a fused form
(``compiled``: the linear problem, the nonlinear one with a built-in
``Nonlinearity`` family and the perturbed one with the built-in
``Perturbation``), that form is written into the kernel's loop and no
Python f runs; any other right-hand side (a hand-built f, a
``Perturbation`` subclass, an RHS class with ``make`` alone) is called
back from the loop: its ``make`` builds w(lam, m, r, u) once per kernel
call, and the kernel passes it the shot's lam and m(r), as it passes the
fused forms.  The parameter lam (mu or gamma) is the problem's
(``Problem.lam``), and m(r) is the kernel's ``weight()`` alone.
``_rhs`` builds the right-hand side (``_kernel.Rhs``), whose w the
fixed-point residual of ``nodal`` evaluates too (``_kernel.apply_w``),
and ``_shot`` the one block (``_kernel.Shot``) the kernel's shots,
probes and root solves take; it rejects an N for which eps^(N-1) is not
a normal float (N >= 53 at 1e-6).  The kernel gives the bits of the
Python reference in ``tests/reference.py`` (the Python start,
``_rk45.integrate`` and the numpy post-pass), or raises its exceptions.

A shot is read off its dense output: the samples on a uniform grid
united with the accepted steps, sup |u| over them, u(1), max|u'| and the
zeros of u.  Each sign change of u over the step nodes and midpoints is
refined by Brent's method (:func:`brentq`) to 1e-12 in r on the quartic
of its step.  max|u'| is pow(max |v| / r^(N-1), 1/(p-1)) over the grid,
each power libm's.  The tail filter is the kernel's (``kept_zeros``): it
drops trailing crossings under a noise floor with a collapsed slope, and
a shot returns only the zeros it keeps.  A
zero is simple when |u'(r_z)| >= 1e-8 * max|u'|, and the trajectory is
flagged, not repaired, when a degenerate (u = u' = 0) point is met,
since IVP uniqueness can fail there for p != 2.  Every shot runs behind
a blow-up guard: the march stops where |u| first reaches blowup_limit,
which math.inf puts off until u overflows.

Searches consume a shot through :func:`probe`, which reduces it to the
miss D = u(1) and the count Z of ``Trajectory.interior_zeros`` (the one
interior-zero rule), owns the one rule for a shot that blew up and
builds no trajectory.  Every root solve (the loose and the tight mu of
an eigenvalue, the gamma of a branch point, the mu of a perturbed
solution, the amplitude of a nodal solution) goes through
:func:`solve_miss`: Brent's method on D over a bracket whose ends the
caller has probed, each trial a kernel probe; it returns the trajectory
at the root too, read off the root's own trial (or none, for a caller
that needs only the root: the loose eigenvalue solves), and the trials.
A shot or probe from alpha = 0 raises before any kernel call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernel
from ._rk45 import DenseOutput, StepCounts
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
PROBE_SAMPLES = 65  # grid of the shot a probe reads
SHOT_SAMPLES = 513  # uniform samples of a trajectory (shoot's default)
# _rk45_kernel.c repeats BLOWUP_MISS, ZERO_XTOL, ZERO_RTOL and BOUNDARY_MARGIN, and
# tests/reference.py its TAIL_ factors (test_kernel_constants_match_python compares them)


def _sgnpow(x: float, e: float) -> float:
    if x > 0.0:
        return x**e
    if x < 0.0:
        return -((-x) ** e)
    return 0.0


# ---------------------------------------------------------------------------
# right-hand sides: make(p) builds w(lam, m, r, u) of m = m(r), and
# compiled(p, N, m, lam) the same right-hand side as a fused ``_kernel.Rhs``,
# or None where the kernel calls make's w back


def _kernel_params(fn):
    """What fn hands the kernel (``kernel_params()`` of nodal's built-in
    Nonlinearity and Perturbation), or None."""
    params = getattr(fn, "kernel_params", None)
    return None if params is None else params()


@dataclass(frozen=True)
class LinearRHS:
    def make(self, p: float):
        e = p - 1.0

        def w(lam, m, r, u):
            return lam * m * _sgnpow(u, e)

        return w

    def compiled(self, p, n_dim, m, lam):
        return _kernel.rhs(p, n_dim, m, lam, _kernel.LINEAR, p - 1.0)


@dataclass(frozen=True)
class NonlinearRHS:
    f: object  # callable u -> f(u), see nodal.Nonlinearity

    def make(self, p: float):
        f = self.f

        def w(lam, m, r, u):
            return lam * m * f(u)

        return w

    def compiled(self, p, n_dim, m, lam):
        family = _kernel_params(self.f)  # (family, e, f0, finf, q)
        return None if family is None else _kernel.rhs(p, n_dim, m, lam, *family)


@dataclass(frozen=True)
class PerturbedRHS:
    g: object  # callable (m(r), r, u, mu) -> g, see nodal.Perturbation

    def make(self, p: float):
        g, e = self.g, p - 1.0

        def w(lam, m, r, u):
            return lam * m * _sgnpow(u, e) + g(m, r, u, lam)

        return w

    def compiled(self, p, n_dim, m, lam):
        term = _kernel_params(self.g)  # (c, p - 1 + delta)
        return None if term is None else _kernel.rhs(
            p, n_dim, m, lam, _kernel.PERTURBED, p - 1.0, gc=term[0], ge=term[1])


@dataclass(frozen=True)
class Problem:
    """Geometry (p, N), weight m, right-hand side and its parameter lam (mu
    or gamma) of one radial problem."""

    p: float
    N: int
    m: Weight
    rhs: object
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "p", _pval(self.p))
        if int(self.N) != self.N or self.N < 1:
            raise PreconditionError(f"dimension N must be an integer >= 1, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @classmethod
    def linear(cls, p, N, m: Weight, mu: float) -> "Problem":
        return cls(p, N, m, LinearRHS(), mu)

    @classmethod
    def nonlinear(cls, p, N, m: Weight, gamma: float, f) -> "Problem":
        return cls(p, N, m, NonlinearRHS(f), gamma)

    @classmethod
    def perturbed(cls, p, N, m: Weight, mu: float, g) -> "Problem":
        return cls(p, N, m, PerturbedRHS(g), mu)

    def at(self, lam: float) -> "Problem":
        """This problem with its parameter set to lam."""
        return replace(self, lam=lam)


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
        """(u, u') at r, from one read of the dense output."""
        r_arr = np.asarray(r, dtype=float)
        u, v = self.dense(r_arr)
        w = v / np.maximum(r_arr, 1e-300) ** (self.N - 1)
        return u, np.sign(w) * np.abs(w) ** (1.0 / (self.p - 1.0))

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
# shooting


def shoot(
    problem: Problem,
    alpha: float,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_samples: int = SHOT_SAMPLES,
    blowup_limit: float = BLOWUP_LIMIT,
) -> Trajectory:
    """Integrate one shot with u(0) = alpha, u'(0) = 0 from the origin to r = 1.

    The boundary condition at r = 1 is *not* imposed; the terminal value
    u(1) is the miss that eigenvalue and amplitude scans drive to zero.
    The march starts at r = DEFAULT_EPS, read at the call, and stops where
    |u| first reaches blowup_limit.  The kernel starts, marches and reads
    the shot in one call (``_kernel.shoot``).
    """
    if alpha == 0.0:
        raise PreconditionError("initial value alpha must be nonzero")
    return _trajectory(problem, alpha, _kernel.shoot(
        _shot(problem, alpha, rtol, atol, blowup_limit, n_samples)))


def _trajectory(problem, alpha, shot) -> Trajectory:
    """The :class:`Trajectory` from u(0) = alpha of a shot of problem's p
    and N, as ``_kernel.shoot`` returns it."""
    status, r, accepted, rejected, block, scan = shot
    dense, steps = DenseOutput(block, accepted), StepCounts.of(accepted, rejected)
    blowup_radius = r if status == _kernel.BLOWUP else None
    grid, u_samp, v_samp, sup_u, terminal, sup_uprime, pairs = scan
    return Trajectory(
        p=problem.p,
        N=problem.N,
        alpha=float(alpha),
        r=grid,
        u=u_samp,
        v=v_samp,
        zeros=_crossings(pairs, sup_uprime),
        terminal=terminal if blowup_radius is None else None,
        blowup_radius=blowup_radius,
        sup_u=sup_u,
        sup_uprime=sup_uprime,
        steps=steps,
        dense=dense,
    )


def _rhs(problem):
    """(rhs, callback): problem's right-hand side as the kernel takes it (a
    ``_kernel.Rhs``): its fused form and None, or else that of the
    ``_kernel.Callback`` of the w of its ``make``, and the callback.  The
    Rhs reads problem's weight: keep problem alive."""
    p, n_dim, m, lam = problem.p, problem.N, problem.m, problem.lam
    compiled = getattr(problem.rhs, "compiled", None)
    rhs = None if compiled is None else compiled(p, n_dim, m, lam)
    if rhs is not None:
        return rhs, None
    callback = _kernel.Callback(problem.rhs.make(p))
    return _kernel.rhs(p, n_dim, m, lam, _kernel.CALLBACK, 0.0, callback=callback), callback


def _shot(problem, alpha, rtol, atol, blowup_limit, n_samples):
    """The shot of problem from u(0) = alpha as the kernel takes it (a
    ``_kernel.Shot``, with the right-hand side of :func:`_rhs`).  atol may
    be per-component (u, v), as :func:`shoot` takes it.  Raises a
    PreconditionError where eps^(N-1) is not a normal float."""
    if n_samples < 0:  # numpy's linspace, which the reference samples on
        raise ValueError(f"Number of samples, {n_samples}, must be non-negative.")
    eps = DEFAULT_EPS
    if eps ** (problem.N - 1) < sys.float_info.min:
        n_max = 1 + int(math.log(sys.float_info.min) / math.log(eps))
        raise PreconditionError(
            f"dimension N = {problem.N} takes r^(N-1) at the start radius {eps:g} below the "
            f"smallest normal float: N <= {n_max} is supported")
    rhs, callback = _rhs(problem)
    atol_u, atol_v = (atol, atol) if np.isscalar(atol) else atol
    shot = _kernel.Shot(rhs, alpha, problem.p_conj, eps, rtol, atol_u, atol_v, blowup_limit,
                        n_samples)
    shot.callback = callback
    return shot


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

    The kernel starts, marches and reduces the shot in one call
    (``_kernel.probe``), building no trajectory.
    """
    if alpha == 0.0:
        raise PreconditionError("initial value alpha must be nonzero")
    return _recorded(_kernel.probe(_shot(problem, alpha, rtol, atol, blowup_limit,
                                         PROBE_SAMPLES)))


def solve_miss(problem: Problem, alpha: float, a: float, b: float, ends, *, in_alpha=False,
               rtol: float, atol: float, xtol: float, xrtol: float,
               blowup_limit: float = BLOWUP_LIMIT, n_shot: int = SHOT_SAMPLES):
    """The root x in [a, b] of the miss D(x) = ``probe(...).d``, by Brent's
    method (:func:`brentq` with tolerances xtol and xrtol), the
    :class:`Probe` there, the :class:`Trajectory` there, which is
    ``shoot(problem.at(x), alpha, rtol=rtol, atol=atol, n_samples=n_shot)``
    (or ``shoot(problem, x, ...)`` where in_alpha) to its bits, and the
    trials of Brent's method in order, as (x, :class:`Probe`) pairs.  With
    n_shot = 0 the solve builds no trajectory and returns None in its place.

    x is the parameter of problem's right-hand side (mu or gamma) at
    u(0) = alpha, or u(0) itself where in_alpha.  ends are the probes at a
    and b, which are not shot again.  Every probe and the trajectory stop
    where |u| reaches blowup_limit.  The whole solve is one kernel call
    (``_kernel.solve``), every trial a kernel probe; the probe at the root
    is read off its trial, and so is the trajectory, unless the root is a
    bracket end or a trial older than the last three.  Where Brent's method
    does not converge, the RuntimeError it raises carries its trials as
    ``trials``, so that the caller can account for them.
    """
    pr_a, pr_b = ends
    if n_shot < 0:  # as shoot's n_samples
        raise ValueError(f"Number of samples, {n_shot}, must be non-negative.")
    shot = _shot(problem, 0.0 if in_alpha else alpha, rtol, atol, blowup_limit, PROBE_SAMPLES)
    try:
        solved = _kernel.solve(shot, in_alpha, a, b, pr_a.d, pr_b.d, xtol, xrtol, n_shot)
    except RuntimeError as exc:
        if hasattr(exc, "log"):  # Brent's method did not converge
            exc.trials = _trials(exc.log)
        raise
    root = solved.root
    pr = (pr_a if root == a else pr_b) if solved.record is None else _recorded(solved.record)
    traj = None if solved.shot is None else _trajectory(problem, root if in_alpha else alpha,
                                                         solved.shot)
    return root, pr, traj, _trials(solved.log)


def _trials(log):
    """The (x, :class:`Probe`) pairs of the rows of a solve's trial log."""
    return [(row[0], _recorded(row[1:])) for row in log]


def _recorded(record) -> Probe:
    """The :class:`Probe` of a kernel probe's record (``_kernel.probe``)."""
    d, sup_u, z, blowup, accepted, rejected = record
    return Probe(d, int(z), bool(blowup), sup_u, StepCounts.of(int(accepted), int(rejected)))


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


def _crossings(pairs, sup_uprime):
    simple = SIMPLICITY_FACTOR * sup_uprime
    return tuple(ZeroCrossing(r, up, abs(up) < simple) for r, up in pairs)
