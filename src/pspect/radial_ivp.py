"""Initial-value integration of the radial equations.

The second-order problems handled here all have the divergence form

    (r^{N-1} phi_p(u'))' + r^{N-1} W(r, u) = 0,    u'(0) = 0,

with W one of

    linear      W = mu * m(r) * phi_p(u)
    nonlinear   W = gamma * m(r) * f(u)
    perturbed   W = mu * m(r) * phi_p(u) + g(r, u; mu)
    source      W = h(r)                       (auxiliary problem, u-independent)

Written as a first-order system in (u, v) with v = r^{N-1} phi_p(u'):

    u' = phi_p_inv(v / r^{N-1}),    v' = -r^{N-1} W(r, u).

The coefficient is singular at r = 0, so integration starts at a small
radius eps from the two-term series

    u(eps) = alpha - phi_{p'}(W(0, alpha)/N) * eps^{p'} / p',
    v(eps) = -W(0, alpha) * eps^N / N,

whose error is O(eps^{p'+1}); with the default eps = 1e-6 the startup is
far below integrator tolerance.  Stepping is the package's own adaptive
Dormand-Prince 5(4) with quartic dense output (``_rk45``).  Every problem
builds its right-hand side with ``_system``; each RHS class also gives the
stepper its compiled form (``compiled``): the linear problem, the
nonlinear one with a built-in ``Nonlinearity`` family and the perturbed
one with the built-in ``Perturbation`` then run on the compiled kernel
with that right-hand side written into its loop, to the same bits.  The
source problem, any other f or g, and a shot the kernel hands back take
the Python stepper.  Sign changes of u are
located on the dense output by bracketed root finding to 1e-12 in r;
each zero is checked against the simplicity threshold
|u'(r_z)| >= 1e-8 * max|u'| and the trajectory is flagged, not repaired,
when a degenerate (u = u' = 0) point is met, since IVP uniqueness can
fail there for p != 2.

Searches consume a shot through :func:`probe`, which reduces it to the
miss D = u(1) and the count Z of ``Trajectory.interior_zeros`` (the one
interior-zero rule) and owns the one rule for a shot that blew up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from . import _kernel
from ._rk45 import StepCounts, integrate
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
TAIL_NOISE_FACTOR = 1e-7
TAIL_SLOPE_FACTOR = 1e-3


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
        return _kernel.Rhs(p, n_dim, m, self.mu, _kernel.LINEAR, p - 1.0)


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
        return None if family is None else _kernel.Rhs(p, n_dim, m, self.gamma, *family)


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
        return None if term is None else _kernel.Rhs(
            p, n_dim, m, self.mu, _kernel.PERTURBED, p - 1.0, gc=term[0], ge=term[1])


@dataclass(frozen=True)
class SourceRHS:
    h: object  # callable r -> h(r)

    def make(self, p: float, m_eval):
        h = self.h

        def w(r, u):
            return h(r)

        return w

    def compiled(self, p, n_dim, m):
        return None


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

    @classmethod
    def source(cls, p, N, h) -> "Problem":
        return cls(p, N, Weight.constant(0.0), SourceRHS(h))

    def with_mu(self, mu: float) -> "Problem":
        """The linear problem with this geometry and weight at parameter mu."""
        return replace(self, rhs=LinearRHS(float(mu)))

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
    degenerate: bool


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
    degenerate: bool
    blowup_radius: float | None
    sup_u: float
    sup_uprime: float
    steps: StepCounts
    dense: object = field(repr=False, default=None)

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
    """
    if alpha == 0.0:
        raise PreconditionError("initial value alpha must be nonzero")

    p, n_dim, rhs = problem.p, problem.N, problem.rhs
    e_inv = 1.0 / (p - 1.0)
    f = _system(p, n_dim, rhs.make(p, problem.m.scalar_fn()))

    y0 = origin_startup(problem, alpha, eps)
    ts, dense, blowup_radius, steps = integrate(
        f, eps, 1.0, y0, rtol=rtol, atol=atol, blowup_limit=blowup_limit,
        compiled=rhs.compiled(p, n_dim, problem.m)
    )
    r_end = blowup_radius if blowup_radius is not None else 1.0

    # sample on a uniform grid united with the accepted steps
    grid = np.union1d(np.linspace(eps, r_end, n_samples), ts)
    ys = dense(grid)
    u_samp, v_samp = ys[0], ys[1]

    rn_grid = np.maximum(grid, 1e-300) ** (n_dim - 1)
    up_samp = np.sign(v_samp) * np.abs(v_samp / rn_grid) ** e_inv
    sup_u = float(np.max(np.abs(u_samp)))
    sup_up = float(np.max(np.abs(up_samp)))

    zeros, degenerate = _locate_zeros(
        dense, ts, p, n_dim, sup_up, r_end
    )
    zeros, degenerate = _drop_noise_tail_zeros(zeros, grid, u_samp, sup_u, sup_up)

    terminal = None
    if blowup_radius is None:
        terminal = dense.eval_scalar(1.0)

    return Trajectory(
        p=p,
        N=n_dim,
        alpha=float(alpha),
        r=grid,
        u=u_samp,
        v=v_samp,
        zeros=zeros,
        terminal=terminal,
        degenerate=degenerate,
        blowup_radius=blowup_radius,
        sup_u=sup_u,
        sup_uprime=sup_up,
        steps=steps,
        dense=dense,
    )


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
    """Shoot with u(0) = alpha and reduce the shot to a :class:`Probe`."""
    traj = shoot(problem, alpha, rtol=rtol, atol=atol, n_samples=65,
                 blowup_limit=blowup_limit)
    blowup = traj.blowup_radius is not None
    d = math.copysign(BLOWUP_MISS, traj.u[-1]) if blowup else traj.terminal_u
    return Probe(d, len(traj.interior_zeros), blowup, traj.sup_u, traj.steps)


def _locate_zeros(dense, ts, p, n_dim, sup_uprime, r_end):
    """Bracket sign changes of u between accepted steps (plus midpoints), refine."""
    nodes = np.union1d(ts, 0.5 * (ts[:-1] + ts[1:]))
    nodes = nodes[nodes <= r_end]
    uu = dense(nodes)[0]
    # u vanishes at the left node, or changes sign across the interval
    candidates = np.flatnonzero((uu[:-1] == 0.0) | (uu[:-1] * uu[1:] < 0.0))

    e_inv = 1.0 / (p - 1.0)
    threshold = SIMPLICITY_FACTOR * sup_uprime

    # brentq wraps its function in a closure that refers to itself; handed
    # dense.u_scalar directly, that cycle would keep the whole dense output
    # alive until the cyclic garbage collector runs
    holder = [dense]

    def u_at(t):
        return holder[0].u_scalar(t)

    zeros = []
    degenerate = False
    try:
        for i in candidates:
            a = nodes[i]
            if uu[i] == 0.0:
                rz = a
            else:
                rz = brentq(u_at, a, nodes[i + 1], xtol=ZERO_XTOL, rtol=8.9e-16)
            vz = dense.eval_scalar(rz)[1]
            rn = max(rz, 1e-300) ** (n_dim - 1)
            upz = _sgnpow(vz / rn, e_inv)
            degen = abs(upz) < threshold
            degenerate = degenerate or degen
            if zeros and abs(rz - zeros[-1].r) < 10 * ZERO_XTOL:
                continue
            zeros.append(ZeroCrossing(r=float(rz), uprime=float(upz), degenerate=degen))
    finally:
        holder.clear()
    return tuple(zeros), degenerate


def _drop_noise_tail_zeros(zeros, grid, u_samp, sup_u, sup_uprime):
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
        tail_max = float(np.max(np.abs(u_samp[idx:]))) if idx < len(u_samp) else 0.0
        if (
            tail_max < TAIL_NOISE_FACTOR * sup_u
            and abs(z.uprime) < TAIL_SLOPE_FACTOR * sup_uprime
        ):
            kept.pop()
        else:
            break
    return tuple(kept), any(z.degenerate for z in kept)
