"""Solution operator of the auxiliary source problem.

For an integrable source h on (0, 1), the problem

    -(r^{N-1} phi_p(u'))' = r^{N-1} h(r),    u'(0) = u(1) = 0,

has the unique solution, written explicitly by two quadratures,

    u(r) = integral_r^1 phi_{p'}( t^{1-N} * H(t) ) dt,
    H(t) = integral_0^t s^{N-1} h(s) ds.

This explicit form is better conditioned than solving the boundary value
problem, and it is the package's independent residual oracle: nodal
solutions found by shooting are re-derived through it (fixed point of
u = G_p(source(u))) and compared.

Numerics: the cumulative inner integral H is accumulated with composite
Gauss-Legendre panels aligned to the source's breakpoints and carried
between the panel nodes by a piecewise cubic Hermite interpolant.  Its
slopes at a panel's ends are the end values of that panel's Gauss
interpolant of s^{N-1} h, one-sided, so a jump of h at a breakpoint is
honoured.  The outer integrand inherits half-power kinks at the roots of
H (and a corner at the origin for N > 1); the roots are found by Brent's
method in the panels whose node values of H change sign, and the outer
panel set is graded geometrically toward those points before the same
composite rule is applied to each outer panel's two halves.  The
near-origin factor t^{1-N} H(t) is evaluated from the series
H(t) ~ h(0) t^N / N + h'(0) t^{N+1} / (N+1) below t = 1e-4, which is
cancellation free.  The profile u is carried between its nodes by the
cubic Hermite interpolant of its values and its exact slopes.
"""

from __future__ import annotations


from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .pfuncs import _pval
from .radial_ivp import brentq
from .weights import Weight

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)
# the Lagrange basis of the Gauss nodes at -1 and +1: vals @ _GAUSS_ENDS
# are a panel's Gauss interpolant at its two ends
_GAUSS_ENDS = np.array([[np.prod((end - np.delete(_GAUSS_X, j))
                                 / (_GAUSS_X[j] - np.delete(_GAUSS_X, j)))
                         for end in (-1.0, 1.0)] for j in range(10)])

SERIES_RADIUS = 1e-4


# ---------------------------------------------------------------------------
# sources


@dataclass(frozen=True)
class SourceTerm:
    """Normalized source: vectorized evaluator plus smoothness breakpoints."""

    eval_vec: object = field(repr=False)
    breakpoints: tuple = ()

    def __call__(self, r):
        return self.eval_vec(np.asarray(r, dtype=float))

    def value0(self) -> float:
        return float(self.eval_vec(np.array([0.0]))[0])

    def slope0(self) -> float:
        v = self.eval_vec(np.array([0.0, 1e-6]))
        return float((v[1] - v[0]) / 1e-6)


def as_source(h) -> SourceTerm:
    """Accept a SourceTerm, a Weight or a callable."""
    if isinstance(h, SourceTerm):
        return h
    if isinstance(h, Weight):
        return SourceTerm(eval_vec=h.__call__, breakpoints=tuple(h.breakpoints[1:-1]))
    if callable(h):
        return SourceTerm(eval_vec=lambda r: np.asarray(h(r), dtype=float))
    raise PreconditionError(f"cannot interpret source term of type {type(h)!r}")


# ---------------------------------------------------------------------------
# the operator


class _Hermite:
    """Piecewise cubic Hermite interpolant through the values y at the nodes
    x, with slope s0[i] at the left end of panel i and s1[i] at its right
    end; it extends the end panels' cubics beyond [x[0], x[-1]]."""

    def __init__(self, x, y, s0, s1):
        dx = np.diff(x)
        secant = np.diff(y) / dx
        self.x = x
        # power-basis coefficients in d = t - x[i], one row per power
        self.coef = np.stack((y[:-1], s0, (3.0 * secant - 2.0 * s0 - s1) / dx,
                              (s0 + s1 - 2.0 * secant) / dx**2))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.x) - 2)
        c0, c1, c2, c3 = (c.take(i) for c in self.coef)
        d = t - self.x.take(i)
        return ((c3 * d + c2) * d + c1) * d + c0


@dataclass(frozen=True)
class GpProfile:
    """Profile returned by the solution operator: u, u' and the kinks (the
    interior roots of H)."""

    p: float
    N: int
    r: np.ndarray
    u: np.ndarray
    uprime: np.ndarray
    kinks: tuple = ()
    _spline: _Hermite = field(repr=False, default=None)

    def __call__(self, r):
        """u at r, which must lie in [self.r[0], self.r[-1]]: beyond the ends
        the end panels' cubics are no profile."""
        r = np.asarray(r, dtype=float)
        if np.any((r < self.r[0]) | (r > self.r[-1])):
            raise ValueError(f"the profile is defined on [{self.r[0]:g}, {self.r[-1]:g}], "
                             f"got r from {np.min(r):g} to {np.max(r):g}")
        return self._spline(r)


def apply_Gp(p, N, h) -> GpProfile:
    """Apply the solution operator to a source term.

    Returns the profile on a graded grid including r = 0 and r = 1, with
    u(1) = 0 exactly (cumulative suffix sums) and u'(0) = 0 from the
    origin series.
    """
    pv = _pval(p)
    n_dim = int(N)
    if n_dim < 1:
        raise PreconditionError("N must be >= 1")
    pc = pv / (pv - 1.0)
    src = as_source(h)

    h0, h1 = src.value0(), src.slope0()

    H, H_vals = _cumulative_inner(src, _panel_nodes(src.breakpoints, 2048), n_dim)

    def w_of(t):
        """t^{1-N} H(t), series below the cancellation radius."""
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        small = t < SERIES_RADIUS
        ts = t[small]
        out[small] = h0 * ts / n_dim + h1 * ts**2 / (n_dim + 1.0)
        tl = t[~small]
        out[~small] = H(tl) / tl ** (n_dim - 1)
        return out

    def g_of(t):
        w = w_of(t)
        return np.sign(w) * np.abs(w) ** (pc - 1.0)

    kinks = _h_roots(H, H_vals)
    out_nodes = _outer_nodes(src.breakpoints, kinks)

    halves = _composite_segments(g_of, _bisect_nodes(out_nodes))
    seg = halves[0::2] + halves[1::2]

    # u(r_i) = sum of segment integrals from r_i to 1
    u_vals = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
    up_vals = -g_of(out_nodes)
    up_vals[0] = 0.0

    return GpProfile(
        p=pv,
        N=n_dim,
        r=out_nodes,
        u=u_vals,
        uprime=up_vals,
        kinks=kinks,
        _spline=_Hermite(out_nodes, u_vals, up_vals[:-1], up_vals[1:]),
    )


def _panel_nodes(breakpoints, n: int):
    nodes = np.union1d(np.linspace(0.0, 1.0, n + 1), np.asarray(breakpoints, float))
    return nodes[(nodes >= 0.0) & (nodes <= 1.0)]


def _bisect_nodes(nodes):
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return np.union1d(nodes, mids)


def _gauss_values(fn, nodes):
    """Half-widths of the panels [nodes_i, nodes_{i+1}] and fn at their
    10 Gauss-Legendre points, one row per panel."""
    a = nodes[:-1]
    half = 0.5 * (nodes[1:] - a)
    mid = a + half
    pts = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    return half, fn(pts.ravel()).reshape(pts.shape)


def _composite_segments(fn, nodes):
    """Gauss-Legendre(10) on every [nodes_i, nodes_{i+1}], vectorized."""
    half, vals = _gauss_values(fn, nodes)
    return half * (vals @ _GAUSS_W)


def _cumulative_inner(src, nodes, n_dim):
    """The Hermite interpolant of H and its values at the panel nodes, by
    cumulative composite quadrature of s^{N-1} h."""

    def f(s):
        return s ** (n_dim - 1) * src.eval_vec(s)

    half, vals = _gauss_values(f, nodes)
    H_vals = np.concatenate(([0.0], np.cumsum(half * (vals @ _GAUSS_W))))
    ends = vals @ _GAUSS_ENDS
    return _Hermite(nodes, H_vals, ends[:, 0], ends[:, 1]), H_vals


def _h_roots(H, vals):
    """Interior roots of H, the half-power kink locations of the outer
    integrand: one by Brent's method on each panel's cubic whose node
    values change sign."""
    sign = np.sign(vals)
    roots = []
    for i in np.flatnonzero(sign[1:-1] * sign[2:] < 0.0) + 1:
        (a, b), (fa, fb) = H.x[i:i + 2].tolist(), vals[i:i + 2].tolist()
        c0, c1, c2, c3 = H.coef[:, i].tolist()
        roots.append(brentq(lambda t: ((c3 * (t - a) + c2) * (t - a) + c1) * (t - a) + c0,
                            a, b, xtol=0.0, fa=fa, fb=fb))
    return tuple(z for z in roots if 1e-12 < z < 1.0 - 1e-12)


def _outer_nodes(breakpoints, kinks):
    nodes = [np.linspace(0.0, 1.0, 1025), np.asarray(breakpoints, float)]
    # graded ladder into the origin (series zone and the t^{1-N} corner)
    nodes.append(SERIES_RADIUS * 2.0 ** -np.arange(0, 28, dtype=float))
    for z in kinks:
        delta = 2e-3
        ladder = z + delta * 2.0 ** -np.arange(0, 40, dtype=float)
        ladder = np.concatenate((ladder, z - delta * 2.0 ** -np.arange(0, 40, dtype=float)))
        nodes.append(ladder[(ladder > 0.0) & (ladder < 1.0)])
        nodes.append(np.array([z]))
    out = np.union1d(np.concatenate(nodes), np.array([0.0, 1.0]))
    return out[(out >= 0.0) & (out <= 1.0)]
