"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's own computational
paths: quadrature by scipy.integrate.quad, reference trajectories by a
fixed-step classical RK4 loop, closed forms assembled from first
principles, the first eigenvalue by direct minimization of the Rayleigh
quotient, and the residual of a profile by finite differences of its
flux.  The library is compared against these, never the other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.linalg import solveh_banded

from pspect.errors import PreconditionError
from pspect.greens import GpProfile, as_source
from pspect.pfuncs import _pval
from pspect.radial_ivp import Problem
from pspect.weights import Weight


# ---------------------------------------------------------------------------
# the source problem, W = h(r): shot on the library's Python path, it is
# compared with the explicit solution operator G_p


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


def source_problem(p, N, h) -> Problem:
    """The radial problem (r^{N-1} phi_p(u'))' + r^{N-1} h(r) = 0, whose
    right-hand side does not depend on u."""
    return Problem(p, N, Weight.constant(0.0), SourceRHS(h))


# ---------------------------------------------------------------------------
# generalized-sine arclength quadrature


def pi_p_quadrature(p: float) -> float:
    """2 * integral_0^1 (1 - s^p)^{-1/p} ds with the singularity removed.

    Substituting 1 - s = tau^{p'} turns the integrand into the bounded
    expression p' * r(tau)^{-1/p}, r(tau) = (1 - (1 - tau^{p'})^p)/tau^{p'}.
    """
    pc = p / (p - 1.0)

    def integrand(tau):
        if tau == 0.0:
            return pc * p ** (-1.0 / p)
        w = tau**pc
        if w >= 1.0:
            ratio = 1.0 / w
        else:
            ratio = -math.expm1(p * math.log1p(-w)) / w
        return pc * ratio ** (-1.0 / p)

    val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 2.0 * val


def arclength(p: float, u: float) -> float:
    """integral_0^u (1 - s^p)^{-1/p} ds by direct adaptive quadrature (u < 1)."""

    def integrand(s):
        return (1.0 - s**p) ** (-1.0 / p)

    val, _ = integrate.quad(integrand, 0.0, u, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def lambda_k_closed(p: float, k: int) -> float:
    """Unit-weight one-dimensional eigenvalues from the quadrature half period:
    (p-1) * ((2k-1) * pi_p / 2)^p."""
    return (p - 1.0) * ((2 * k - 1) * pi_p_quadrature(p) / 2.0) ** p


def sinp_ode_residual(p: float, k: int, n: int = 40001) -> float:
    """Relative ODE residual of the closed-form eigenfunction substitution.

    u(x) = sin_p((2k-1) pi_p (1-x)/2) should satisfy
    (phi_p(u'))' + lam phi_p(u) = 0 with lam = (p-1)((2k-1) pi_p/2)^p.
    The flux phi_p(u') is differentiated with a fourth-order stencil;
    small neighborhoods of the degeneracies are excluded: at zeros of u
    the flux derivative loses smoothness for p < 2, at extrema of u for
    p > 2 (fractional-power corrections in both cases).
    """
    from pspect.pfuncs import pi_p, sin_p

    pip = pi_p(p)
    omega = (2 * k - 1) * pip / 2.0
    lam = (p - 1.0) * omega**p

    x = np.linspace(0.0, 1.0, n)
    h = x[1] - x[0]
    u, du_arg = sin_p(omega * (1.0 - x), p)
    uprime = -omega * du_arg
    flux = np.sign(uprime) * np.abs(uprime) ** (p - 1.0)

    i = np.arange(2, n - 2)
    dflux = (-flux[i + 2] + 8 * flux[i + 1] - 8 * flux[i - 1] + flux[i - 2]) / (12 * h)
    res = dflux + lam * np.sign(u[i]) * np.abs(u[i]) ** (p - 1.0)

    mask = (np.abs(u[i]) > 0.05) & (np.abs(du_arg[i]) > 0.05)
    return float(np.max(np.abs(res[mask])) / lam)


# ---------------------------------------------------------------------------
# fixed-step RK4 reference integrator


def rk4_shot(p, N, m_eval, mu, alpha, n_steps: int = 40000, eps: float = 1e-6):
    """Classical fixed-step RK4 on the radial first-order system.

    Independent of the adaptive machinery under test: plain loop, fixed
    grid, the same startup series (which is just the series, not code
    under test).  Returns (r_grid, u_grid, zero_count_interior).
    """
    e_inv = 1.0 / (p - 1.0)

    def sgnpow(x, e):
        if x > 0:
            return x**e
        if x < 0:
            return -((-x) ** e)
        return 0.0

    def f(r, u, v):
        rn = r ** (N - 1)
        w = mu * m_eval(r) * sgnpow(u, p - 1.0)
        return sgnpow(v / rn, e_inv), -rn * w

    w0 = mu * m_eval(0.0) * sgnpow(alpha, p - 1.0)
    pc = p / (p - 1.0)
    u = alpha - sgnpow(w0 / N, pc - 1.0) * eps**pc / pc
    v = -w0 * eps**N / N

    h = (1.0 - eps) / n_steps
    r = eps
    us = [u]
    rs = [r]
    zeros = 0
    for _ in range(n_steps):
        k1u, k1v = f(r, u, v)
        k2u, k2v = f(r + h / 2, u + h / 2 * k1u, v + h / 2 * k1v)
        k3u, k3v = f(r + h / 2, u + h / 2 * k2u, v + h / 2 * k2v)
        k4u, k4v = f(r + h, u + h * k3u, v + h * k3v)
        u_new = u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v_new = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        r += h
        if u_new * u < 0 and r < 1.0 - 1e-6:
            zeros += 1
        u, v = u_new, v_new
        us.append(u)
        rs.append(r)
    return np.asarray(rs), np.asarray(us), zeros


# ---------------------------------------------------------------------------
# Rayleigh quotient oracle


@dataclass
class RayleighResult:
    value: float
    converged: bool
    grad_norm: float
    iterations: int
    r: np.ndarray = field(repr=False, default=None)
    u: np.ndarray = field(repr=False, default=None)


P_MIN_RAYLEIGH = 1.3  # rayleigh_mu1 refuses p at or below this


def rayleigh_mu1(
    problem: Problem,
    nu: str = "+",
    *,
    n_grid: int = 4096,
    stall_tol: float = 1e-8,
    max_iter: int = 500,
) -> RayleighResult:
    """First eigenvalue by direct minimization of the Rayleigh quotient.

    Minimizes  int r^{N-1} |u'|^p  /  int r^{N-1} m |u|^p  over grid
    functions with u(1) = 0 and positive weighted denominator, by descent
    in an H^1-like metric (each step solves a tridiagonal system, the
    p = 2 stiffness preconditioner) with amplitude renormalization and a
    backtracking line search; stops when the quotient stalls.  Entirely
    independent of the shooting machinery, as a cross-check must be.

    nu='-' is the exact mirror: minus the value for the negated weight.

    Refuses p <= P_MIN_RAYLEIGH with PreconditionError: there the descent
    stops at ``max_iter`` short of the minimum (relative error 7.1e-3 at
    p = 1.2 and 3.6e-4 at p = 1.3 against the m = 1 closed form), too far
    off for a cross-check; at p = 1.5 it converges in 177 iterations.
    """
    if problem.p <= P_MIN_RAYLEIGH:
        raise PreconditionError(
            f"rayleigh_mu1 does not converge for p <= {P_MIN_RAYLEIGH}, got p = {problem.p}")
    if nu == "-":
        res = rayleigh_mu1(
            problem_with_weight(problem, problem.m.negated()),
            "+",
            n_grid=n_grid,
            stall_tol=stall_tol,
            max_iter=max_iter,
        )
        return RayleighResult(
            value=-res.value,
            converged=res.converged,
            grad_norm=res.grad_norm,
            iterations=res.iterations,
            r=res.r,
            u=res.u,
        )
    if not problem.m.in_M():
        raise PreconditionError("weight has no positive part, mu_1^+ undefined")

    p, n_dim = problem.p, problem.N
    m = problem.m
    M = n_grid
    h = 1.0 / M
    r_nodes = np.linspace(0.0, 1.0, M + 1)
    r_mid = 0.5 * (r_nodes[:-1] + r_nodes[1:])

    w_num = h * r_mid ** (n_dim - 1)  # one per difference d_i, i = 1..M
    q = h * r_nodes ** (n_dim - 1)
    q[0] *= 0.5
    q = q[:M]  # nodes 0..M-1 (u_M = 0 fixed)
    mv = m(r_nodes[:M])

    qm = q * mv

    def quotient(u):
        d = np.diff(np.append(u, 0.0)) / h
        num = float(np.dot(w_num, np.abs(d) ** p))
        den = float(np.dot(qm, np.abs(u) ** p))
        return num, den

    def quotient_and_grad(u):
        d = np.diff(np.append(u, 0.0)) / h
        phid = np.sign(d) * np.abs(d) ** (p - 1.0)
        num = float(np.dot(w_num, np.abs(d) ** p))
        den = float(np.dot(qm, np.abs(u) ** p))
        gnum = np.empty_like(u)
        t = w_num * phid / h
        gnum[0] = -p * t[0]
        gnum[1:] = p * (t[:-1] - t[1:])
        gden = p * qm * np.sign(u) * np.abs(u) ** (p - 1.0)
        return num, den, gnum, gden

    # p=2 stiffness in banded (upper) form for the descent metric:
    # B[0,0] = c2[0], B[j,j] = c2[j-1] + c2[j], B[j-1,j] = -c2[j-1]
    c2 = r_mid ** (n_dim - 1) / h
    ab = np.zeros((2, M))
    ab[1, 0] = c2[0]
    ab[1, 1:] = c2[:-1] + c2[1:]
    ab[0, 1:] = -c2[:-1]

    def precondition(g):
        return solveh_banded(ab, g)

    starts = _rayleigh_starts(m, r_nodes[:M])
    best = None
    for u0 in starts:
        res = _descend(
            u0, quotient, quotient_and_grad, precondition, stall_tol,
            max_iter, p,
        )
        if res is not None and (best is None or res[0] < best[0]):
            best = res
    if best is None:
        raise PreconditionError(
            "no admissible start vector (positive weighted denominator)"
        )
    value, u, grad_norm, iters, converged = best
    return RayleighResult(
        value=value,
        converged=converged,
        grad_norm=grad_norm,
        iterations=iters,
        r=r_nodes[:M],
        u=u,
    )


def problem_with_weight(problem: Problem, m: Weight) -> Problem:
    return Problem(problem.p, problem.N, m, problem.rhs)


def _rayleigh_starts(m: Weight, r):
    """One bump per positive island of the weight, plus the combined profile."""
    starts = []
    mv = np.asarray(m(r))
    pos = np.maximum(mv, 0.0)
    if pos.max() > 0:
        combined = pos * (1.0 - r)
        if combined.max() > 0:
            starts.append(combined / combined.max())
    for a, b in m.positive_intervals:
        if b - a < 1e-6:
            continue
        bump = np.maximum(1.0 - np.abs((r - 0.5 * (a + b)) / (0.5 * (b - a))), 0.0)
        bump *= 1.0 - r
        if bump.max() > 0:
            starts.append(bump / bump.max())
    return starts


def _descend(u0, quotient, quotient_and_grad, precondition, stall_tol,
             max_iter, p):
    u = u0.copy()
    num, den = quotient(u)
    if den <= 0:
        return None
    u = u / den ** (1.0 / p)  # amplitude renormalization: D(u) = 1
    num, den, gnum, gden = quotient_and_grad(u)
    rq = num / den
    stalls = 0
    grad_norm = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = (gnum - rq * gden) / den
        z = precondition(grad)
        gz = float(np.dot(grad, z))
        grad_norm = math.sqrt(abs(gz))
        if gz <= 0:
            break

        def psi(t):
            num2, den2 = quotient(u - t * z)
            if den2 <= 0:
                return 1e30
            return num2 / den2

        t_best, rq_try = _line_minimize(psi, rq)
        if t_best is None or rq_try >= rq - 1e-16 * abs(rq):
            break
        u = u - t_best * z
        _, den = quotient(u)
        u = u / den ** (1.0 / p)
        num, den, gnum, gden = quotient_and_grad(u)
        rq_prev, rq = rq, num / den
        if abs(rq_prev - rq) <= stall_tol * max(1.0, abs(rq)):
            stalls += 1
            if stalls >= 2:
                break
        else:
            stalls = 0
    converged = stalls >= 2
    return rq, u, grad_norm, it, converged


def _line_minimize(psi, psi0, t0: float = 1.0):
    """Bracket and parabolically refine min psi(t) for t > 0."""
    # expand or shrink to find t with psi(t) < psi0
    t = t0
    val = psi(t)
    if val >= psi0:
        for _ in range(50):
            t *= 0.5
            val = psi(t)
            if val < psi0:
                break
        else:
            return None, psi0
    else:
        while True:
            t2 = 2.0 * t
            val2 = psi(t2)
            if val2 >= val:
                break
            t, val = t2, val2
    # golden-section refinement on [0, 2t]
    a, b = 0.0, 2.0 * t
    inv_gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_gr * (b - a)
    d = a + inv_gr * (b - a)
    fc, fd = psi(c), psi(d)
    for _ in range(40):
        if b - a < 1e-3 * (1.0 + b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_gr * (b - a)
            fc = psi(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_gr * (b - a)
            fd = psi(d)
    t_best = c if fc < fd else d
    f_best = min(fc, fd)
    if f_best < val:
        return t_best, f_best
    return t, val


# ---------------------------------------------------------------------------
# residual check


def residual(p, N, h, u, uprime=None, *, n: int = 2001, edge_skip: int = 4) -> float:
    """Sup-norm of (r^{N-1} phi_p(u'))' + r^{N-1} h over an interior grid.

    The flux r^{N-1} phi_p(u') is assembled at the profile's own nodes
    (it is smooth even where u' has half-power kinks), splined, resampled
    on a uniform grid and differentiated with a five-point fourth-order
    stencil; the first and last few points are excluded.
    """
    pv = _pval(p)
    n_dim = int(N)
    src = as_source(h)
    r_nodes, up_nodes = _profile_derivative_nodes(u, uprime)

    flux_nodes = r_nodes ** (n_dim - 1) * np.sign(up_nodes) * np.abs(up_nodes) ** (
        pv - 1.0
    )
    flux_spline = CubicSpline(r_nodes, flux_nodes)

    rs = np.linspace(float(r_nodes[0]), float(r_nodes[-1]), n)
    dh = rs[1] - rs[0]
    flux = flux_spline(rs)

    i = np.arange(2, n - 2)
    dflux = (-flux[i + 2] + 8 * flux[i + 1] - 8 * flux[i - 1] + flux[i - 2]) / (12 * dh)
    res = dflux + rs[i] ** (n_dim - 1) * src(rs[i])
    keep = slice(edge_skip, len(i) - edge_skip if edge_skip else None)
    return float(np.max(np.abs(res[keep])))


def _thin(r, v, min_gap: float = 1e-6):
    """Drop nodes closer than min_gap (deep graded-ladder rungs destabilize splines)."""
    keep = [0]
    for i in range(1, len(r)):
        if r[i] - r[keep[-1]] >= min_gap or i == len(r) - 1:
            keep.append(i)
    idx = np.asarray(keep)
    return r[idx], v[idx]


def _profile_derivative_nodes(u, uprime):
    """Node set (r, u') to build the flux on."""
    if isinstance(u, GpProfile):
        return _thin(u.r, u.uprime)
    if isinstance(u, tuple) and len(u) == 2 and not callable(u[0]):
        r_s = np.asarray(u[0], float)
        if uprime is not None:
            return _thin(r_s, np.asarray(uprime, float) if not callable(uprime)
                         else np.asarray(uprime(r_s), float))
        spline = CubicSpline(r_s, np.asarray(u[1], float))
        return _thin(r_s, spline.derivative()(r_s))
    if callable(u):
        rs = np.linspace(0.0, 1.0, 4097)
        if uprime is not None:
            return rs, np.asarray(uprime(rs), float)
        spline = CubicSpline(rs, np.asarray(u(rs), float))
        return rs, spline.derivative()(rs)
    raise PreconditionError(f"cannot interpret profile of type {type(u)!r}")
