"""Nodal solutions and bifurcation branches of the nonlinear problem.

The parameter-dependent problem

    (r^{N-1} phi_p(u'))' + gamma * r^{N-1} * m(r) * f(u) = 0,
    u'(0) = u(1) = 0,

with f continuous, f(s) s > 0 off zero, and finite positive limits
f_0 and f_inf of f(s)/phi_p(s) at 0 and infinity, has for each nodal
class (k zeros minus one, sign near the origin) a solution branch
connecting gamma = mu_k^nu / f_0 at zero amplitude to
gamma = mu_k^nu / f_inf at infinite amplitude, where mu_k^nu are the
eigenvalues of the linearization weight problem.  Nodal solutions exist
exactly when gamma lies between those endpoints.

Everything here drives the shooting integrator:

* find_nodal probes initial amplitudes alpha of one sign over a
  geometric grid in ascending |alpha| and solves the miss u(1; alpha)
  between neighbours, shooting each amplitude only when its bracket comes
  up: it stops at the first class-k root.  The homogeneous degenerate
  case f = c phi_p at an eigenvalue (every amplitude solves) is detected,
  where f0 = finf, by a scan of the whole grid, and reported rather than
  solved.
* trace_branch walks the amplitude grid solving u(1; gamma, alpha) = 0
  in gamma at every alpha, in widening windows: from the third point on
  around the secant prediction through the last two points in log
  |alpha|, the first window as wide as the last step in gamma (1e-4 to
  10 % of the center), doubling up to 80 %; where that solve would end
  the branch, once more around the previous gamma from 10 % to 80 %,
  whose outcome stands.  Folds in gamma are handled by the windows.  The
  branch is truncated with a diagnostic that names the cause: no window
  changes sign, none holds a class-k root, or the shot at the root is
  rejected.
* verify_bifurcation_points checks that small-amplitude solutions of the
  perturbed linear problem localize the parameter near mu_k^nu, the
  numerical shadow of bifurcation from the trivial line.

Each root solve is ``radial_ivp.solve_miss`` on a bracket whose ends
were probed here: one kernel call, which also returns the shot at the
root, so that the root is not shot again.  The policy stays here, one
rule for the three searches (``_class_root``): a bracket is admitted
where u(1) changes sign and an end has the k-class count, and the root
is the one where the count steps from k - 1 to k.  A root's shot is
accepted by ``_rejection``.

"Unbounded continuum" is operationalized as: traced up to sup-norm 1e3
without bracket loss.  The topological statement itself is not
machine-checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from . import _kernel
from .errors import PreconditionError
from .greens import apply_Gp
from .pfuncs import _pval
from .radial_ivp import DEFAULT_ATOL, DEFAULT_RTOL, Problem
from .radial_ivp import Trajectory, _rhs, _sgnpow, probe, shoot, solve_miss
from .radial_ivp import brentq  # noqa: F401  (perfbench/tracing.py counts nodal.brentq calls)
from .report import CheckReport
from .spectrum import Spectrum, compute_spectrum
from .weights import Weight

BOUNDARY_TOL = 1e-9
HOMOGENEOUS_TOL = 1e-8


# ---------------------------------------------------------------------------
# nonlinearities and perturbations


@dataclass(frozen=True)
class Nonlinearity:
    """Continuous f with declared limits f(s)/phi_p(s) -> f0, finf.

    ``family`` records the parameters of a built-in family, (family, e,
    f0, finf, q) in the terms of ``_kernel.Rhs``, so that its shots run
    on the compiled kernel.  Only :meth:`rational` and :meth:`phi` set
    it: it is None for any fn given to the constructor.
    """

    fn: object = field(repr=False)
    f0: float
    finf: float
    family: tuple | None = field(default=None, init=False, repr=False)

    def __call__(self, u: float) -> float:
        return self.fn(u)

    def kernel_params(self):
        """The family, where the compiled kernel computes this f exactly."""
        return self.family if type(self) is Nonlinearity else None

    @property
    def odd(self) -> bool:
        """f(-s) = -f(s) to the bit, as for every built-in family: a
        solution u then gives the solution -u.  False for any other fn,
        which need not be odd."""
        return self.kernel_params() is not None

    @classmethod
    def rational(cls, p, f0: float = 1.0, finf: float = 2.0, q: float = 2.0):
        """The built-in family phi_p(u) * (f0 + finf |u|^q) / (1 + |u|^q)."""
        pv = _pval(p)
        if not (f0 > 0 and finf > 0 and q > 0):
            raise PreconditionError("rational family needs f0, finf, q > 0")
        e = pv - 1.0

        def fn(u):
            if u == 0.0:
                return 0.0
            au = abs(u)
            num = f0 + finf * au**q
            if num == math.inf:  # the same ratio, written so that it stays finite
                ratio = finf + (f0 - finf) / (1.0 + au**q)
            else:
                ratio = num / (1.0 + au**q)
            return math.copysign(au**e * ratio, u)

        return cls._built_in(fn, float(f0), float(finf),
                             (_kernel.RATIONAL, e, float(f0), float(finf), float(q)))

    @classmethod
    def phi(cls, p):
        """The homogeneous map itself (f0 = finf = 1): the eigenvalue problem,
        whose shots at gamma are the kernel's LINEAR ones at mu = gamma."""
        e = _pval(p) - 1.0
        return cls._built_in(lambda u: _sgnpow(u, e), 1.0, 1.0, (_kernel.LINEAR, e))

    @classmethod
    def _built_in(cls, fn, f0, finf, family):
        f = cls(fn=fn, f0=f0, finf=finf)
        object.__setattr__(f, "family", family)
        return f

    def validate(self, p):
        """Numerical checks of sign condition and the two declared limits (5 %)."""
        pv = _pval(p)
        for s in np.concatenate((-np.logspace(-6, 6, 25), np.logspace(-6, 6, 25))):
            if not self.fn(float(s)) * s > 0.0:
                raise PreconditionError(f"f(s) s > 0 fails at s = {s:g}")
        for s_abs, target, name in ((1e-6, self.f0, "f0"), (1e6, self.finf, "finf")):
            for s in (s_abs, -s_abs):
                ratio = self.fn(s) / _sgnpow(s, pv - 1.0)
                if abs(ratio - target) > 0.05 * target:
                    raise PreconditionError(
                        f"declared {name} = {target:g} but f/phi_p = {ratio:g} "
                        f"at s = {s:g}"
                    )
        return self


@dataclass(frozen=True)
class Perturbation:
    """The built-in family g(r, u; mu) = c * m(r) * |u|^{p-1+delta} sign(u).

    With delta > 0 this is o(|u|^{p-1}) near u = 0 uniformly in r and in
    mu on bounded sets, which is what the bifurcation statements need.
    """

    p: float
    c: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", _pval(self.p))
        if not self.delta > 0:
            raise PreconditionError("perturbation exponent delta must be > 0")
        if not (math.isfinite(self.c) and math.isfinite(self.delta)):
            raise PreconditionError("perturbation c and delta must be finite")

    def __call__(self, mval, r, u, mu) -> float:
        return self.c * mval * _sgnpow(u, self.p - 1.0 + self.delta)

    def kernel_params(self):
        """(c, p - 1 + delta) for the compiled kernel; None for a subclass,
        which may compute g otherwise."""
        if type(self) is not Perturbation:
            return None
        return float(self.c), self.p - 1.0 + self.delta

    @property
    def odd(self) -> bool:
        """g(r, -u; mu) = -g(r, u; mu) to the bit; False for a subclass."""
        return self.kernel_params() is not None


# ---------------------------------------------------------------------------
# nodal solutions at fixed gamma


@dataclass(frozen=True)
class NodalSolution:
    k: int
    sigma: str
    gamma: float
    alpha: float
    trajectory: Trajectory
    residual: float

    @property
    def zeros(self) -> tuple:
        return tuple(z.r for z in self.trajectory.interior_zeros)


@dataclass
class NodalSearch:
    """Outcome of one amplitude scan: a solution or the scan evidence.

    scanned is (first, last) of the amplitudes probed, and counts_seen the
    interior zero count of each probe (-1 for one that blew up) -> how many
    probes read it.  A scan that finds a solution probes the grid up to the
    bracket of that solution only; one that finds none probes all of it.
    """

    solution: NodalSolution | None
    scanned: tuple
    counts_seen: dict
    degenerate_homogeneous: bool = False
    diagnostics: list = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.solution is not None


def _amplitude_grid(sigma, alpha_min, alpha_max, ratio):
    """Geometric amplitudes of sign sigma, from alpha_min until alpha_max is passed."""
    if sigma not in ("+", "-"):
        raise PreconditionError("sigma must be '+' or '-'")
    if not ratio > 1.0:
        raise PreconditionError(f"amplitude ratio must be > 1, got {ratio}")
    if not 0 < alpha_min < alpha_max:
        raise PreconditionError(
            f"need 0 < alpha_min < alpha_max, got alpha_min = {alpha_min:g} "
            f"and alpha_max = {alpha_max:g}"
        )
    n_steps = int(math.ceil(math.log(alpha_max / alpha_min) / math.log(ratio)))
    return ((1 if sigma == "+" else -1) * alpha_min * ratio ** np.arange(n_steps + 1)).tolist()


def find_nodal(
    p,
    N,
    m: Weight,
    f: Nonlinearity,
    gamma: float,
    k: int,
    sigma: str,
    *,
    alpha_min: float = 1e-4,
    alpha_max: float = 1e4,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> NodalSearch:
    """Search the amplitude axis of one sign for a k-class nodal solution.

    The amplitudes form a geometric grid of ratio 1.25 from alpha_min to
    alpha_max.  Neighbours bracket the roots of u(1; alpha) in ascending
    |alpha|, and an amplitude is shot when its bracket comes up, so the
    search ends at the first root in the k-class that the shot there
    accepts; a solution carries its fixed-point residual.  Where f0 = finf,
    so that f may be homogeneous, the whole grid is probed first: a run of
    three amplitudes with |u(1)| <= HOMOGENEOUS_TOL * sup |u| is reported
    as the homogeneous degeneracy.
    """
    if gamma == 0.0:
        raise PreconditionError("gamma must be nonzero")
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if not m.in_M():
        raise PreconditionError("weight is not admissible: meas{m > 0} = 0")
    f.validate(p)
    alphas = _amplitude_grid(sigma, alpha_min, alpha_max, 1.25)
    problem = Problem.nonlinear(p, N, m, gamma, f)
    probes = []  # the grid probes shot so far, in the order of alphas

    def grid():
        """(alpha, probe) along the grid, each amplitude shot once, when first reached."""
        for i, a in enumerate(alphas):
            if i == len(probes):
                probes.append(probe(problem, a, rtol=rtol, atol=atol))
            yield a, probes[i]

    # homogeneous degeneracy: a run of direct hits means every alpha solves;
    # only f = c phi_p can do that, and such an f has f0 = finf
    degenerate = False
    if f.f0 == f.finf:
        hits = [abs(pr.d) <= HOMOGENEOUS_TOL * pr.sup_u for _, pr in grid()]
        degenerate = any(
            hits[i] and hits[i + 1] and hits[i + 2] for i in range(len(hits) - 2)
        )

    diagnostics = []
    solution = None

    if degenerate:
        diagnostics.append(
            "homogeneous degeneracy: u(1; alpha) vanishes along the whole scan "
            "(gamma is an eigenvalue of the homogeneous problem); returning the "
            "first amplitude with u(1) = 0"
        )
        for a, pr in grid():
            if abs(pr.d) <= _bc_tol(pr.sup_u) and _in_class(pr, k):
                traj = shoot(problem, a, rtol=rtol, atol=atol)
                solution = _package_solution(problem, traj, k, sigma, gamma, a)
                break

    # neighbouring amplitudes bracket the roots, past a rejected one too; an
    # amplitude is shot when its bracket comes up, so the scan stops at the
    # first class-k root
    brackets = ((a, b, pr_a, pr_b) for (a, pr_a), (b, pr_b) in pairwise(grid()))
    while solution is None:
        root, traj, _ = _class_root(problem, None, brackets, k, 1e-15, 8.9e-16, rtol, atol)
        if root is None:
            break
        rejection = _rejection(traj, k)
        if rejection:
            diagnostics.append(f"the root alpha = {root:g} {rejection}")
        else:
            solution = _package_solution(problem, traj, k, sigma, gamma, root)

    counts_seen = {}
    for pr in probes:
        z = -1 if pr.blowup else pr.z  # a truncated count is not comparable
        counts_seen[z] = counts_seen.get(z, 0) + 1
    scanned = (alphas[0], alphas[len(probes) - 1])

    if solution is None and not degenerate:
        blown = counts_seen.get(-1, 0)
        blown_note = f", {blown} blew up before r = 1" if blown else ""
        diagnostics.append(
            f"scanned alpha in [{scanned[0]:g}, {scanned[1]:g}] "
            f"({len(probes)} shots{blown_note}); interior zero counts seen: "
            f"{sorted(c for c in counts_seen if c >= 0)}"
        )

    return NodalSearch(
        solution=solution,
        scanned=scanned,
        counts_seen=counts_seen,
        degenerate_homogeneous=degenerate,
        diagnostics=diagnostics,
    )


def _bc_tol(sup_u) -> float:
    """The solve tolerance of u(1) for a solution of sup-norm sup_u."""
    return max(BOUNDARY_TOL, 1e-12 * sup_u)


def _in_class(pr, k) -> bool:
    """The probe crossed all of [0, 1] with the k-class count of k - 1 zeros."""
    return not pr.blowup and pr.z == k - 1


def _rejection(traj, k) -> str:
    """Why the shot at a root is no k-class solution, or "" where it is one:
    u(1) above the solve tolerance, or a zero count other than k - 1."""
    if not abs(traj.terminal_u) <= _bc_tol(traj.sup_u):
        return f"leaves |u(1)| = {abs(traj.terminal_u):.3g} > {_bc_tol(traj.sup_u):.3g}"
    z = len(traj.interior_zeros)
    return "" if z == k - 1 else f"has {z} interior zeros"


def _class_root(problem, alpha, brackets, k, xtol, xrtol, rtol, atol):
    """(root, trajectory, changed): the first root of the miss D over
    brackets whose probe is in the k-class, and the shot there, or None,
    None; and whether any bracket's D changed sign.  brackets yields (a, b,
    probe at a, probe at b), a and b values of the parameter of problem at
    u(0) = alpha, or of u(0) where alpha is None; one is admitted where D
    changes sign and an end is in class.  Where the solve lands outside the
    class, :func:`_count_step` finds the step of the count from k - 1 to k,
    where a class-k root sits, between the in-class end and the root, and
    that pair is solved again."""
    changed = False
    for a, b, pr_a, pr_b in brackets:
        if not pr_a.d * pr_b.d < 0:
            continue
        changed = True
        pair = ((a, pr_a), (b, pr_b)) if _in_class(pr_a, k) or _in_class(pr_b, k) else None
        while pair is not None:
            (a, pr_a), (b, pr_b) = pair
            root, pr, traj, _ = solve_miss(problem, alpha, a, b, (pr_a, pr_b),
                                           in_alpha=alpha is None, rtol=rtol, atol=atol,
                                           xtol=xtol, xrtol=xrtol)
            if _in_class(pr, k):
                return root, traj, changed
            inside = (a, pr_a) if _in_class(pr_a, k) else (b, pr_b)
            pair = _count_step(problem, alpha, k, inside, (root, pr), rtol, atol)
    return None, None, changed


def _count_step(problem, alpha, k, inside, outside, rtol, atol):
    """Bisect on the k-class between inside, an in-class (x, probe), and
    outside, at least once, until the outside end reads z = k and D changes
    sign across the pair: the pair (inside, outside) then, or None once the
    two are adjacent doubles.  Without the first bisection a solve of the
    pair may land next to the last root again and again."""
    (x_in, pr_in), (x_out, pr_out) = inside, outside
    while True:
        mid = 0.5 * (x_in + x_out)
        if mid in (x_in, x_out):
            return None
        pr = (probe(problem, mid, rtol=rtol, atol=atol) if alpha is None
              else probe(problem.at(mid), alpha, rtol=rtol, atol=atol))
        if _in_class(pr, k):
            x_in, pr_in = mid, pr
        else:
            x_out, pr_out = mid, pr
        if not pr_out.blowup and pr_out.z == k and pr_in.d * pr_out.d < 0:
            return (x_in, pr_in), (x_out, pr_out)


def _package_solution(problem, traj, k, sigma, gamma, alpha):
    return NodalSolution(
        k=k,
        sigma=sigma,
        gamma=gamma,
        alpha=alpha,
        trajectory=traj,
        residual=solution_residual(problem, traj),
    )


def solution_residual(problem: Problem, traj: Trajectory) -> float:
    """Fixed-point residual through the solution operator.

    Rebuilds the source gamma * m(r) * f(u(r)) from the trajectory, by
    the w the march computes (``_kernel.apply_w``), applies the explicit
    solution operator and returns the relative sup-norm difference.
    Independent of the shooting integrator's stepping, which is the point.
    """
    rhs, callback = _rhs(problem)  # reads problem's weight, which outlives the calls

    def source(r):
        r_arr = np.asarray(r, dtype=float)
        uu = traj.dense(np.clip(r_arr, traj.r[0], traj.r[-1]))[0]
        return _kernel.apply_w(rhs, r_arr, uu, callback)

    prof = apply_Gp(problem.p, problem.N, source)
    rs = np.linspace(traj.r[0], 1.0, 257)
    diff = np.max(np.abs(traj.dense(rs)[0] - prof(rs)))
    return float(diff / max(1.0, traj.sup_u))


# ---------------------------------------------------------------------------
# branch tracing


@dataclass(frozen=True)
class BranchPoint:
    gamma: float
    alpha: float
    sup_norm: float
    zeros: int


@dataclass
class Branch:
    k: int
    sigma: str
    nu: str
    points: list
    gamma_zero_estimate: float | None = None  # bifurcation end, alpha -> 0
    gamma_inf_estimate: float | None = None  # asymptote end, alpha -> inf
    truncated: bool = False
    diagnostics: list = field(default_factory=list)


def trace_branch(
    p,
    N,
    m: Weight,
    f: Nonlinearity,
    k: int,
    sigma: str,
    nu: str = "+",
    *,
    alpha_min: float = 1e-3,
    alpha_max: float = 1e3,
    ratio: float = 1.25,
    spectrum: Spectrum | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Branch:
    """Trace the (gamma, alpha) curve of one nodal class over an amplitude grid.

    Parametrized by amplitude with a one-dimensional gamma solve per
    point; this follows folds in gamma naturally.  The first two points
    are solved in windows around the previous gamma (mu_k / f0 at the
    first); from the third on, around the secant prediction through the
    last two points in log |alpha|, in a first window of the last step
    in gamma (see :func:`_solve_gamma`).  Where the predicted solve would
    end the branch, the point is solved once more around the previous
    gamma, and that outcome stands.  Folds in alpha are not expected for
    the built-in family; they would surface as bracket loss and truncate
    the branch.
    """
    f.validate(p)
    alphas = _amplitude_grid(sigma, alpha_min, alpha_max, ratio)
    alphas[-1] = math.copysign(alpha_max, alphas[0])
    if spectrum is None:
        spectrum = compute_spectrum(p, N, m, k, (nu,), rtol=rtol, atol=atol)
    mu_k = spectrum.mu(k, nu)

    branch = Branch(k=k, sigma=sigma, nu=nu, points=[])
    gamma_prev = mu_k / f.f0

    for a in alphas:
        solved = None
        if len(branch.points) >= 2:
            center, step = _secant(branch.points[-2:], a)
            solved = _solve_gamma(p, N, m, f, a, center, k, rtol, atol, step)
        if solved is None or solved[2]:  # no prediction, or one that ends the branch
            solved = _solve_gamma(p, N, m, f, a, gamma_prev, k, rtol, atol)
        gamma_a, traj, stop = solved
        if stop:
            branch.truncated = True
            branch.diagnostics.append(stop)
            break
        branch.points.append(
            BranchPoint(
                gamma=gamma_a,
                alpha=a,
                sup_norm=traj.sup_u,
                zeros=len(traj.interior_zeros),
            )
        )
        gamma_prev = gamma_a

    if branch.points:
        branch.gamma_zero_estimate = branch.points[0].gamma
        branch.gamma_inf_estimate = branch.points[-1].gamma
    return branch


def _secant(points, alpha):
    """(center, w): the gamma at alpha on the secant through the two branch
    points, in log |alpha|, and the last step in gamma relative to it,
    clamped to [1e-4, 0.1]."""
    before, last = points
    center = last.gamma + (last.gamma - before.gamma) * (
        math.log(alpha / last.alpha) / math.log(last.alpha / before.alpha))
    step = abs(last.gamma - before.gamma) / abs(center) if center else math.inf
    return center, min(max(step, 1e-4), 0.1)


def _solve_gamma(p, N, m, f, alpha, gamma_center, k, rtol, atol, w=0.1):
    """Root of gamma -> u(1; gamma, alpha) in the windows gamma_center -+
    w |gamma_center|, w doubling up to 80 % (from 10 % by default):
    (gamma, trajectory, stop), stop "" for a point of the branch, else the
    diagnostic that ends the branch there.  The trajectory is the solve's
    own shot at the root."""
    problem = Problem.nonlinear(p, N, m, gamma_center, f)
    windows = _windows(problem, alpha, gamma_center, w, 0.8, rtol, atol)
    root, traj, changed = _class_root(problem, alpha, windows, k, 1e-15, 8.9e-16, rtol, atol)
    if root is None:
        cause = f"holds a class-{k} root" if changed else "changes sign"
        return None, None, (
            f"no gamma bracket within 80 % of {gamma_center:.8g} {cause} at "
            f"alpha = {alpha:g}; branch truncated")
    rejection = _rejection(traj, k)
    if rejection:
        return root, traj, (
            f"gamma = {root:.10g} {rejection} at alpha = {alpha:g} "
            f"(last gamma {gamma_center:.8g}); branch truncated")
    return root, traj, ""


def _windows(problem, alpha, center, w, w_max, rtol, atol):
    """The brackets center -+ w |center|, w doubling up to w_max, with their
    end probes at u(0) = alpha."""
    while w <= w_max:
        lo, hi = center - w * abs(center), center + w * abs(center)
        yield (lo, hi, probe(problem.at(lo), alpha, rtol=rtol, atol=atol),
               probe(problem.at(hi), alpha, rtol=rtol, atol=atol))
        w *= 2.0


# ---------------------------------------------------------------------------
# bifurcation points of the perturbed linear problem


def verify_bifurcation_points(
    p,
    N,
    m: Weight,
    g: Perturbation,
    ks,
    nus=("+", "-"),
    *,
    alphas=(1e-1, 1e-2, 1e-3),
    spectrum: Spectrum | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> CheckReport:
    """Small-amplitude solutions of the perturbed problem localize mu_k^nu.

    For each index, sign and amplitude the parameter solving
    u(1; mu, alpha) = 0 with the right zero count is located near
    mu_k^nu; the offsets must be within 1e-2 * |mu_k^nu| at the
    smallest amplitude, shrink monotonically as alpha decreases, and the
    two sub-branches (alpha > 0 and alpha < 0) must both exist.  For an
    odd g (``g.odd``) the alpha < 0 sub-branch is the negation of the
    alpha > 0 one, to the bit, and is read off it instead of solved.
    """
    ks = list(ks)
    if spectrum is None:
        spectrum = compute_spectrum(p, N, m, max(ks), nus, rtol=rtol, atol=atol)
    mus = {(k, nu): spectrum.mu(k, nu) for nu in nus for k in ks}

    rep = CheckReport("bifurcation_points", True)
    alphas = sorted(alphas, reverse=True)  # largest first, offsets must shrink
    for nu in nus:
        for k in ks:
            mu_k = mus[k, nu]
            plus = _perturbed_offsets(p, N, m, g, mu_k, k, 1, alphas, rtol, atol)
            # an odd g makes -u the '-' sub-branch's solution, to the bit
            minus = plus if g.odd else _perturbed_offsets(p, N, m, g, mu_k, k, -1, alphas,
                                                          rtol, atol)
            for sgn, sub, (offsets, missed) in ((1, "+", plus), (-1, "-", minus)):
                if missed is not None:
                    rep.passed = False
                    rep.add(
                        f"k={k} nu={nu} sub-branch {sub}: no parameter found "
                        f"near mu={mu_k:.6g} at alpha={sgn * missed:g}"
                    )
                    continue
                within = offsets[-1] <= 1e-2 * abs(mu_k)
                # below the floor the offset is root-finder noise, not a
                # bifurcation distance (the g = 0 case sits there entirely)
                floor = 1e-8 * abs(mu_k)
                shrinking = all(
                    b < a or b <= floor for a, b in zip(offsets, offsets[1:])
                )
                rep.passed &= within and shrinking
                rep.add(
                    f"k={k} nu={nu} sub-branch {sub}: offsets "
                    + ", ".join(f"{o:.3e}" for o in offsets)
                    + f" (alpha = {', '.join(f'{a:g}' for a in alphas)});"
                    + f" within 0.01|mu|: {within}, shrinking: {shrinking}"
                )
                rep.data[(k, nu, sub)] = list(offsets)
    return rep


def _perturbed_offsets(p, N, m, g, mu_k, k, sgn, alphas, rtol, atol):
    """(offsets, None): |mu - mu_k| at u(0) = sgn * a for each a of alphas,
    or (None, a) with the first a where no parameter is found."""
    offsets = []
    for a in alphas:
        mu_found = _locate_perturbed_parameter(p, N, m, g, mu_k, k, sgn * a, rtol, atol)
        if mu_found is None:
            return None, a
        offsets.append(abs(mu_found - mu_k))
    return offsets, None


def _locate_perturbed_parameter(p, N, m, g, mu_k, k, alpha, rtol, atol):
    """The nearest mu to mu_k within 40 % whose solution at u(0) = alpha
    lies in the k-class, or None."""
    problem = Problem.perturbed(p, N, m, mu_k, g)
    windows = _windows(problem, alpha, mu_k, 0.05, 0.4, rtol, atol)
    return _class_root(problem, alpha, windows, k, 1e-14, 1e-13, rtol, atol)[0]


# ---------------------------------------------------------------------------
# admissible gamma intervals


@dataclass(frozen=True)
class GammaInterval:
    """One open interval of the existence statement, kept in stated order.

    lo/hi are reported exactly as the theorem writes them, so lo >= hi is
    possible and flags the interval as empty (a legitimate outcome the
    caller must surface, not an error).
    """

    nu: str
    lo: float
    hi: float
    ordering: str  # 'finf_first' or 'f0_first'

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi


def gamma_intervals(spectrum: Spectrum, f0: float, finf: float, k: int,
                    n: int | None = None) -> list:
    """The four admissible-gamma intervals for nodal classes k..n.

    With n = k these are the single-class intervals; with n > k the
    multi-class form, one pair of solutions for every class in between.
    Both orderings of (f0, finf) are always reported; empty intervals
    (including all four when f0 = finf) stay in the list with their
    empty flag set.
    """
    if not (f0 > 0 and finf > 0):
        raise PreconditionError("f0 and finf must be positive")
    if n is None:
        n = k
    if not 1 <= k <= n:
        raise PreconditionError("need 1 <= k <= n")
    mu_k_pos = spectrum.mu(k, "+")
    mu_n_pos = spectrum.mu(n, "+")
    out = [
        GammaInterval("+", mu_n_pos / finf, mu_k_pos / f0, "finf_first"),
        GammaInterval("+", mu_n_pos / f0, mu_k_pos / finf, "f0_first"),
    ]
    if "-" in spectrum.results:
        mu_k_neg = spectrum.mu(k, "-")
        mu_n_neg = spectrum.mu(n, "-")
        out.append(GammaInterval("-", mu_k_neg / f0, mu_n_neg / finf, "finf_first"))
        out.append(GammaInterval("-", mu_k_neg / finf, mu_n_neg / f0, "f0_first"))
    return out
