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

* find_nodal scans initial amplitudes alpha of one sign over a geometric
  grid, looks for sign changes of the miss u(1; alpha) among shots with
  the requested interior zero count, and bisects.  The homogeneous
  degenerate case f = phi_p at an eigenvalue (every amplitude solves) is
  detected and reported rather than bisected.
* trace_branch walks the amplitude grid solving the scalar equation
  u(1; gamma, alpha) = 0 in gamma at every alpha, warm-starting each
  bracket at the previous point; folds in gamma are handled by the
  bracket.  The branch is truncated with a diagnostic that names the
  cause: no bracket changes sign, the root leaves u(1) above the
  tolerance, or the zero count changed (the continuation beyond a split
  is not traced).
* verify_bifurcation_points checks that small-amplitude solutions of the
  perturbed linear problem localize the parameter near mu_k^nu, the
  numerical shadow of bifurcation from the trivial line.

Each root solve is ``radial_ivp.solve_miss`` on a bracket whose ends
were probed here: one kernel call where f or g is built in.  The policy
stays here: the amplitude grid, the widening brackets of the gamma and
mu solves, the class checks at the ends and the acceptance of a root.

"Unbounded continuum" is operationalized as: traced up to sup-norm 1e3
without bracket loss.  The topological statement itself is not
machine-checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .errors import PreconditionError
from .greens import apply_Gp
from .pfuncs import _pval
from .radial_ivp import DEFAULT_ATOL, DEFAULT_RTOL, Problem
from .radial_ivp import Trajectory, _kernel_params, probe, shoot, solve_miss
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
    on the compiled kernel; it is None for any other fn.
    """

    fn: object = field(repr=False)
    f0: float
    finf: float
    family: tuple | None = field(default=None, repr=False)

    def __call__(self, u: float) -> float:
        return self.fn(u)

    def kernel_params(self):
        """The family, where the compiled kernel computes this f exactly."""
        return self.family if type(self) is Nonlinearity else None

    @classmethod
    def rational(cls, p, f0: float = 1.0, finf: float = 2.0, q: float = 2.0):
        """The built-in family phi_p(u) * (f0 + finf |u|^q) / (1 + |u|^q)."""
        pv = _pval(p)
        if f0 <= 0 or finf <= 0 or q <= 0:
            raise PreconditionError("rational family needs f0, finf, q > 0")
        e = pv - 1.0

        def fn(u):
            if u == 0.0:
                return 0.0
            au = abs(u)
            ratio = (f0 + finf * au**q) / (1.0 + au**q)
            return math.copysign(au**e * ratio, u)

        return cls(fn=fn, f0=float(f0), finf=float(finf),
                   family=(_kernel.RATIONAL, e, float(f0), float(finf), float(q)))

    @classmethod
    def phi(cls, p):
        """The homogeneous map itself (f0 = finf = 1): the eigenvalue problem."""
        pv = _pval(p)
        e = pv - 1.0

        def fn(u):
            if u == 0.0:
                return 0.0
            return math.copysign(abs(u) ** e, u)

        return cls(fn=fn, f0=1.0, finf=1.0, family=(_kernel.PHI, e))

    def validate(self, p):
        """Numerical checks of sign condition and the two declared limits (5 %)."""
        pv = _pval(p)
        for s in np.concatenate((-np.logspace(-6, 6, 25), np.logspace(-6, 6, 25))):
            if not self.fn(float(s)) * s > 0.0:
                raise PreconditionError(f"f(s) s > 0 fails at s = {s:g}")
        for s_abs, target, name in ((1e-6, self.f0, "f0"), (1e6, self.finf, "finf")):
            for s in (s_abs, -s_abs):
                ratio = self.fn(s) / math.copysign(abs(s) ** (pv - 1.0), s)
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
        if self.delta <= 0:
            raise PreconditionError("perturbation exponent delta must be > 0")

    def __call__(self, mval, r, u, mu) -> float:
        if u == 0.0:
            return 0.0
        return self.c * mval * math.copysign(abs(u) ** (self.p - 1.0 + self.delta), u)

    def kernel_params(self):
        """(c, p - 1 + delta) for the compiled kernel; None for a subclass,
        which may compute g otherwise."""
        if type(self) is not Perturbation:
            return None
        return float(self.c), self.p - 1.0 + self.delta


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
    """Outcome of one amplitude scan: a solution or the scan evidence."""

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
    if not 0 < alpha_min < alpha_max:
        raise PreconditionError(
            f"need 0 < alpha_min < alpha_max, got alpha_min = {alpha_min:g} "
            f"and alpha_max = {alpha_max:g}"
        )
    n_steps = int(math.ceil(math.log(alpha_max / alpha_min) / math.log(ratio)))
    return (1 if sigma == "+" else -1) * alpha_min * ratio ** np.arange(n_steps + 1)


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
    alpha_max; a solution carries its fixed-point residual.
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

    probes = [(a, probe(problem, a, rtol=rtol, atol=atol)) for a in map(float, alphas)]

    counts_seen = {}
    for _, pr in probes:
        z = -1 if pr.blowup else pr.z  # a truncated count is not comparable
        counts_seen[z] = counts_seen.get(z, 0) + 1

    # homogeneous degeneracy: a run of direct hits means every alpha solves
    hits = [abs(pr.d) <= HOMOGENEOUS_TOL * max(1.0, pr.sup_u) for _, pr in probes]
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
        for a, pr in probes:
            if _solves_bc(pr.d, pr.sup_u) and _in_class(pr, k):
                traj = shoot(problem, a, rtol=rtol, atol=atol)
                solution = _package_solution(problem, traj, k, sigma, gamma, a)
                break

    if solution is None:
        # a zero crosses the boundary exactly at the root, so a valid
        # bracket shows count k-1 on one side (k or k-2 on the other)
        for (a1, pr1), (a2, pr2) in zip(probes, probes[1:]):
            if pr1.blowup or pr2.blowup:  # counts not comparable
                continue
            if (pr1.z != k - 1 and pr2.z != k - 1) or pr1.d * pr2.d >= 0:
                continue
            root, _ = solve_miss(problem, None, a1, a2, (pr1, pr2), in_alpha=True,
                                 rtol=rtol, atol=atol, xtol=1e-15, xrtol=8.9e-16)
            traj = shoot(problem, root, rtol=rtol, atol=atol)
            z = len(traj.interior_zeros)
            if z == k - 1 and _solves_bc(traj.terminal_u, traj.sup_u):
                solution = _package_solution(problem, traj, k, sigma, gamma, root)
                break
            diagnostics.append(
                f"bracket ({a1:g}, {a2:g}) converged to alpha={root:g} but "
                f"zero count {z} or miss {traj.terminal_u:g} disqualified it"
            )

    if solution is None and not degenerate:
        blown = counts_seen.get(-1, 0)
        blown_note = f", {blown} blew up before r = 1" if blown else ""
        diagnostics.append(
            f"scanned alpha in [{alphas[0]:g}, {alphas[-1]:g}] "
            f"({len(alphas)} shots{blown_note}); interior zero counts seen: "
            f"{sorted(c for c in counts_seen if c >= 0)}"
        )

    return NodalSearch(
        solution=solution,
        scanned=(float(alphas[0]), float(alphas[-1])),
        counts_seen=counts_seen,
        degenerate_homogeneous=degenerate,
        diagnostics=diagnostics,
    )


def _bc_tol(sup_u) -> float:
    """The solve tolerance of u(1) for a solution of sup-norm sup_u."""
    return max(BOUNDARY_TOL, 1e-12 * sup_u)


def _solves_bc(u1, sup_u) -> bool:
    """u(1) = u1 meets the boundary condition, to the solve tolerance."""
    return abs(u1) <= _bc_tol(sup_u)


def _in_class(pr, k) -> bool:
    """The probe crossed all of [0, 1] with the k-class count of k - 1 zeros."""
    return not pr.blowup and pr.z == k - 1


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

    Rebuilds the source gamma * m(r) * f(u(r)) from the trajectory,
    applies the explicit solution operator and returns the relative
    sup-norm difference.  Independent of the shooting integrator's
    internals, which is the point.
    """
    rhs = problem.rhs
    m = problem.m
    params = _kernel_params(rhs.f)  # f of a built-in family runs on the kernel

    def source(r):
        r_arr = np.asarray(r, dtype=float)
        uu = traj.dense(np.clip(r_arr, traj.r[0], traj.r[-1]))[0]
        fv = None if params is None else _kernel.apply_f(params, uu)
        if fv is None:
            fv = np.array([rhs.f(float(x)) for x in np.atleast_1d(uu)]).reshape(np.shape(uu))
        return rhs.gamma * m(r_arr) * fv

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

    @property
    def gammas(self) -> np.ndarray:
        return np.array([pt.gamma for pt in self.points])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([pt.alpha for pt in self.points])


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
    point (warm-started from the previous point); this follows folds in
    gamma naturally.  Folds in alpha are not expected for the built-in
    family; they would surface as bracket loss and truncate the branch.
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
        gamma_a, traj, stop = _solve_gamma(p, N, m, f, float(a), gamma_prev, k, rtol, atol)
        if stop:
            branch.truncated = True
            branch.diagnostics.append(stop)
            break
        branch.points.append(
            BranchPoint(
                gamma=gamma_a,
                alpha=float(a),
                sup_norm=traj.sup_u,
                zeros=len(traj.interior_zeros),
            )
        )
        gamma_prev = gamma_a

    if branch.points:
        branch.gamma_zero_estimate = branch.points[0].gamma
        branch.gamma_inf_estimate = branch.points[-1].gamma
    return branch


def _solve_gamma(p, N, m, f, alpha, gamma_center, k, rtol, atol):
    """Root of gamma -> u(1; gamma, alpha) near a warm-started center.

    The bracket starts at +-10 % of the center and doubles up to 90 %.
    Returns (gamma, trajectory, stop): stop is "" for a point of the
    branch, else the diagnostic that ends the branch there, naming why:
    no bracket changes sign, the root leaves u(1) above the tolerance, or
    the zero count changed.
    """
    problem = Problem.nonlinear(p, N, m, gamma_center, f)
    roots = _bracketed_roots(problem, alpha, gamma_center, k, 0.1, 0.9, 1e-15, 8.9e-16,
                             rtol, atol)
    for root, _ in roots:
        traj = shoot(problem.at(root), alpha, rtol=rtol, atol=atol)
        z = len(traj.interior_zeros)
        u1 = traj.terminal_u
        if not _solves_bc(u1, traj.sup_u):
            return root, traj, (
                f"gamma = {root:.10g} leaves |u(1)| = {abs(u1):.3g} > "
                f"{_bc_tol(traj.sup_u):.3g} at alpha = {alpha:g} "
                f"(last gamma {gamma_center:.8g}); branch truncated")
        if z != k - 1:
            return root, traj, f"zero count changed to {z} at alpha = {alpha:g}; branch split off"
        return root, traj, ""
    return None, None, (
        f"no gamma bracket within 90 % of {gamma_center:.8g} changes sign at "
        f"alpha = {alpha:g}; branch truncated")


def _bracketed_roots(problem, alpha, center, k, w, w_max, xtol, xrtol, rtol, atol):
    """Roots of u(1) = 0 in the parameter of problem (gamma or mu) at
    u(0) = alpha, nearest the center first.

    The brackets are center -+ w |center|, w doubling while w <= w_max;
    each whose ends change sign, one of them in the k-class, is solved.
    Yields (root, the probe there).
    """
    while w <= w_max:
        lo, hi = center - w * abs(center), center + w * abs(center)
        pr_lo = probe(problem.at(lo), alpha, rtol=rtol, atol=atol)
        pr_hi = probe(problem.at(hi), alpha, rtol=rtol, atol=atol)
        if pr_lo.d * pr_hi.d < 0 and (_in_class(pr_lo, k) or _in_class(pr_hi, k)):
            yield solve_miss(problem, alpha, lo, hi, (pr_lo, pr_hi), rtol=rtol, atol=atol,
                             xtol=xtol, xrtol=xrtol)
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
    two sub-branches (alpha > 0 and alpha < 0) must both exist.
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
            for sgn, sub in ((1, "+"), (-1, "-")):
                offsets = []
                for a in alphas:
                    mu_found = _locate_perturbed_parameter(
                        p, N, m, g, mu_k, k, sgn * a, rtol, atol
                    )
                    if mu_found is None:
                        rep.passed = False
                        rep.add(
                            f"k={k} nu={nu} sub-branch {sub}: no parameter found "
                            f"near mu={mu_k:.6g} at alpha={sgn * a:g}"
                        )
                        offsets = None
                        break
                    offsets.append(abs(mu_found - mu_k))
                if offsets is None:
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
                rep.data[(k, nu, sub)] = offsets
    return rep


def _locate_perturbed_parameter(p, N, m, g, mu_k, k, alpha, rtol, atol):
    """The nearest mu to mu_k within 40 % whose solution at u(0) = alpha
    lies in the k-class, or None."""
    problem = Problem.perturbed(p, N, m, mu_k, g)
    roots = _bracketed_roots(problem, alpha, mu_k, k, 0.05, 0.45, 1e-14, 1e-13, rtol, atol)
    return next((root for root, pr in roots if _in_class(pr, k)), None)


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

    def contains(self, gamma: float) -> bool:
        return self.lo < gamma < self.hi


def gamma_intervals(spectrum: Spectrum, f0: float, finf: float, k: int,
                    n: int | None = None) -> list:
    """The four admissible-gamma intervals for nodal classes k..n.

    With n = k these are the single-class intervals; with n > k the
    multi-class form, one pair of solutions for every class in between.
    Both orderings of (f0, finf) are always reported; empty intervals
    (including all four when f0 = finf) stay in the list with their
    empty flag set.
    """
    if f0 <= 0 or finf <= 0:
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
