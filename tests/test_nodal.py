import math

import numpy as np
import pytest

from pspect import _kernel, nodal, radial_ivp
from pspect.errors import PreconditionError, SpectrumIncomplete
from pspect.nodal import (
    Nonlinearity,
    Perturbation,
    find_nodal,
    gamma_intervals,
    solution_residual,
    trace_branch,
    verify_bifurcation_points,
)
from pspect.radial_ivp import Problem, shoot
from pspect.spectrum import compute_spectrum
from pspect.weights import Weight

import reference

M1 = Weight.constant(1.0)
M_LIN = Weight.poly([1.0, -2.0])
LAM1 = (math.pi / 2) ** 2
LAM2 = (3 * math.pi / 2) ** 2

F_REF = Nonlinearity.rational(2.0, f0=1.0, finf=2.0, q=2.0)


# ---------------------------------------------------------------------------
# nonlinearity family


def test_rational_family_limits_and_sign():
    f = F_REF.validate(2.0)
    assert f(0.0) == 0.0
    # f(u) = u (1 + 2u^2) / (1 + u^2)
    for u in (0.5, -2.0, 10.0):
        want = u * (1 + 2 * u**2) / (1 + u**2)
        assert abs(f(u) - want) < 1e-14 * abs(want)
    # |u|^2.2 = 1e308 is finite where 2 |u|^2.2 is not: f(u) is 2 u, not inf
    f = Nonlinearity.rational(2.0, f0=1.0, finf=2.0, q=2.2)
    assert f(1e140) == 2e140 and f(-1e140) == -2e140


def test_rational_family_general_p_limits():
    for p in (1.5, 3.0):
        f = Nonlinearity.rational(p, f0=0.7, finf=4.0, q=1.5)
        f.validate(p)


def test_validate_rejects_wrong_declared_limits():
    f = Nonlinearity(fn=lambda u: 2.0 * u, f0=1.0, finf=1.0)
    with pytest.raises(PreconditionError):
        f.validate(2.0)


def test_validate_rejects_sign_violation():
    f = Nonlinearity(fn=lambda u: u - 2e-6, f0=1.0, finf=1.0)
    with pytest.raises(PreconditionError):
        f.validate(2.0)


def test_rational_family_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        Nonlinearity.rational(2.0, f0=-1.0)
    with pytest.raises(PreconditionError):
        Perturbation(2.0, delta=0.0)


# NaN fails every comparison: each check reads "not x > 0", so that a NaN
# fails it where it is given


@pytest.mark.parametrize("name", ["f0", "finf", "q"])
def test_rational_family_rejects_a_nan_parameter(name):
    with pytest.raises(PreconditionError, match=r"rational family needs f0, finf, q > 0"):
        Nonlinearity.rational(2.0, **{name: math.nan})


@pytest.mark.parametrize("kw, message", [
    ({"delta": math.nan}, "perturbation exponent delta must be > 0"),
    ({"delta": math.inf}, "perturbation c and delta must be finite"),
    ({"c": math.nan}, "perturbation c and delta must be finite"),
    ({"c": -math.inf}, "perturbation c and delta must be finite"),
])
def test_perturbation_rejects_non_finite_parameters(kw, message):
    with pytest.raises(PreconditionError, match=message):
        Perturbation(2.0, **kw)


def test_perturbation_takes_the_power_of_sgnpow():
    # 0.0 at a NaN u, as the kernel's PERTURBED w and phi_p have it
    g = Perturbation(2.5, c=3.0, delta=0.5)
    assert math.copysign(1.0, g(0.7, 0.2, math.nan, 1.0)) == 1.0
    assert g(0.7, 0.2, math.nan, 1.0) == 0.0
    assert g(0.7, 0.2, -2.0, 1.0) == 3.0 * 0.7 * -(2.0 ** 2.0)


@pytest.mark.parametrize("f0, finf", [(math.nan, 2.0), (1.0, math.nan)])
def test_gamma_intervals_reject_a_nan_limit(f0, finf):
    spec = compute_spectrum(2.0, 1, M1, 1, nus=("+",))
    with pytest.raises(PreconditionError, match="f0 and finf must be positive"):
        gamma_intervals(spec, f0, finf, 1)


# the kernel computes f of the built-in families to the bits of the Python f
# (the fixed-point residual evaluates f there), and raises what it raises

F_VALUES = np.array([0.0, -0.0, 1e-300, -3e-9, 0.37, -1.0, 2.5, -41.0, 7e17, -3e120,
                     1e139, -1e140, math.inf, -math.inf, math.nan])


def outcome(apply, *args):
    """The bytes of apply(*args), or the type and message of what it raises."""
    try:
        return np.asarray(apply(*args), dtype=np.float64).tobytes()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.kernel
@pytest.mark.parametrize("f", [F_REF, Nonlinearity.rational(2.5, 1.1, 2.3, 2.2),
                               Nonlinearity.phi(1.3), Nonlinearity.phi(4.0),
                               Nonlinearity.rational(2.0, 1.0, 2.0, 2.2)])
def test_kernel_f_matches_python_f(f):
    prob = Problem.nonlinear(2.0, 1, M1, 1.0, f)  # lam = m = 1: w is f, to the bit
    rhs, _ = radial_ivp._rhs(prob)  # reads prob's weight, which prob keeps alive
    ran = []
    for k in range(1, len(F_VALUES) + 1):
        got = outcome(lambda u: _kernel.apply_w(rhs, np.zeros_like(u), u), F_VALUES[:k])
        assert got == outcome(lambda u: np.array([f(float(x)) for x in u]), F_VALUES[:k])
        ran.append(isinstance(got, bytes))
    assert ran[:9] == [True] * 9  # up to the first value near overflow


# the residual's source is the march's w (_kernel.apply_w), of every family:
# the bits of the w of make, on the reference's m(r), or what it raises

COS3 = Weight.from_function(lambda r: math.cos(3.0 * math.pi * r), n_pieces=16)
W_PROBLEMS = {
    "linear": lambda m: Problem.linear(2.5, 2, m, 7.0),
    "rational": lambda m: Problem.nonlinear(1.7, 1, m, -3.0,
                                            Nonlinearity.rational(1.7, 1.1, 2.3, 2.2)),
    "perturbed": lambda m: Problem.perturbed(3.0, 3, m, 5.0, Perturbation(3.0, -2.0, 0.5)),
    "callback": lambda m: Problem.nonlinear(
        2.0, 1, m, 4.0, Nonlinearity(fn=lambda u: u * abs(u) - 0.5 * u, f0=1.0, finf=1.0)),
}


@pytest.mark.kernel
@pytest.mark.parametrize("m", [M_LIN, COS3], ids=["linear", "cos3"])
@pytest.mark.parametrize("name", list(W_PROBLEMS))
def test_apply_w_is_the_w_of_make(name, m):
    prob = W_PROBLEMS[name](m)
    rhs, callback = radial_ivp._rhs(prob)  # reads m, which the test keeps alive
    assert (callback is not None) == (name == "callback") == (rhs.family == _kernel.CALLBACK)
    w = prob.rhs.make(prob.p)
    rs = np.concatenate((np.linspace(0.0, 1.0, len(F_VALUES)), COS3.breakpoints[1:6]))
    us = np.concatenate((F_VALUES, [0.3, -0.2, 1e-5, -4.0, 1e3]))
    ran = []
    for k in range(1, len(rs) + 1):
        got = outcome(_kernel.apply_w, rhs, rs[:k], us[:k], callback)
        want = outcome(lambda: [w(prob.lam, reference.weight_at(m, r), r, u)
                                for r, u in zip(rs[:k].tolist(), us[:k].tolist())])
        assert got == want
        ran.append(isinstance(got, bytes))
    assert ran[:9] == [True] * 9


class _Raised(Exception):
    pass


def _f_raising_below_zero(u):
    if u < 0.0:
        raise _Raised(u)
    return u


@pytest.mark.kernel
def test_apply_w_raises_the_callbacks_own_exception():
    prob = Problem.nonlinear(2.0, 1, M_LIN, 1.0,
                             Nonlinearity(fn=_f_raising_below_zero, f0=1.0, finf=1.0))
    rhs, callback = radial_ivp._rhs(prob)
    with pytest.raises(_Raised) as info:
        _kernel.apply_w(rhs, np.full(4, 0.5), np.array([1.0, -2.0, -3.0, 4.0]), callback)
    assert info.value.args == (-2.0,)  # the first u it raises on


@pytest.mark.kernel
@pytest.mark.parametrize("f", [F_REF, Nonlinearity.phi(2.5), Nonlinearity.rational(1.5, 2.0, 0.5)])
def test_residual_on_the_kernel_matches_python_f(f):
    prob = Problem.nonlinear(2.0, 2, M_LIN, 30.0, f)
    traj = shoot(prob, 0.8)
    got = solution_residual(prob, traj)
    hand_built = Nonlinearity(fn=f.fn, f0=f.f0, finf=f.finf)
    assert got == solution_residual(Problem.nonlinear(2.0, 2, M_LIN, 30.0, hand_built), traj)
    assert got == solution_residual(prob, reference.shoot(prob, 0.8))


# ---------------------------------------------------------------------------
# find_nodal


def test_find_nodal_reference_interval():
    # gamma in (lam1/finf, lam1/f0) = (1.2337, 2.4674)
    for gamma in (1.5, 2.0):
        for sigma in ("+", "-"):
            search = find_nodal(2.0, 1, M1, F_REF, gamma, 1, sigma)
            assert search.found
            sol = search.solution
            assert len(sol.zeros) == 0
            assert sol.residual <= 1e-6
            assert abs(sol.trajectory.terminal_u) <= 1e-9
            assert (sol.alpha > 0) == (sigma == "+")


def test_find_nodal_second_class():
    search = find_nodal(2.0, 1, M1, F_REF, 15.0, 2, "+")
    assert search.found
    assert len(search.solution.zeros) == 1
    assert search.solution.residual <= 1e-6


def test_find_nodal_outside_interval_reports():
    # gamma = 3 > lam1/f0: no small-amplitude positive ground state; the
    # scan evidence is reported, absence is reported as scan evidence, not proved
    search = find_nodal(2.0, 1, M1, F_REF, 3.0, 1, "+")
    assert not search.found
    assert search.diagnostics
    assert search.scanned[0] > 0


def test_find_nodal_homogeneous_degeneracy():
    f = Nonlinearity.phi(2.0)
    search = find_nodal(2.0, 1, M1, f, LAM1, 1, "+")
    assert search.degenerate_homogeneous
    assert search.found
    assert abs(search.solution.trajectory.terminal_u) <= 1e-9
    assert any("homogeneous" in d for d in search.diagnostics)


def test_find_nodal_sign_changing_weight():
    spec = compute_spectrum(2.0, 1, M_LIN, 1, nus=("+",))
    gamma = 0.75 * spec.mu(1, "+")
    search = find_nodal(2.0, 1, M_LIN, F_REF, gamma, 1, "+")
    assert search.found
    assert search.solution.residual <= 1e-6


def test_find_nodal_blown_up_probes_counted_as_minus_one():
    # every amplitude probe passes the 1e12 guard on the negative stretch
    # of 1 - 8r: each is tallied under -1, none is bracketed, and the
    # diagnostic lists no comparable zero count
    f = Nonlinearity.phi(2.0)
    search = find_nodal(2.0, 1, Weight.poly([1.0, -8.0]), f, 3e4, 1, "+")
    assert search.counts_seen == {-1: 84}
    assert not search.found
    assert search.diagnostics[-1].endswith("interior zero counts seen: []")
    assert "(84 shots, 84 blew up before r = 1)" in search.diagnostics[-1]


def full_grid_root(p, n_dim, m, f, gamma, k, sigma):
    """The first accepted class-k root of the default amplitude grid, as
    (alpha, trajectory), or None: every amplitude probed first, then
    nodal._class_root over every bracket, past a rejected root too."""
    rtol, atol = radial_ivp.DEFAULT_RTOL, radial_ivp.DEFAULT_ATOL
    alphas = nodal._amplitude_grid(sigma, 1e-4, 1e4, 1.25)
    problem = Problem.nonlinear(p, n_dim, m, gamma, f)
    probes = [radial_ivp.probe(problem, a, rtol=rtol, atol=atol) for a in alphas]
    brackets = zip(alphas, alphas[1:], probes, probes[1:])
    while True:
        root, traj, _ = nodal._class_root(problem, None, brackets, k, 1e-15, 8.9e-16,
                                          rtol, atol)
        if root is None or not nodal._rejection(traj, k):
            return None if root is None else (root, traj)


def _battery_cases():
    """(p, N, m, f, gamma) at the middle of each non-empty k = 1 interval of
    the verify battery's 1 - r/r0 weight, at p = 2.1 and 2.5, N = 1 and 2."""
    m = Weight.poly([1.0, -1.0 / 0.49])
    for p in (2.1, 2.5):
        f = Nonlinearity.rational(p, f0=1.05, finf=2.1, q=1.9)
        for n_dim in (1, 2):
            spec = compute_spectrum(p, n_dim, m, 1)
            for iv in gamma_intervals(spec, f.f0, f.finf, 1):
                if not iv.empty:
                    yield p, n_dim, m, f, 0.5 * (iv.lo + iv.hi)


def test_lazy_scan_returns_the_full_grid_root_to_the_bit():
    mu1m = compute_spectrum(2.0, 1, M_LIN, 1).mu(1, "-")
    cases = [(2.0, 1, M_LIN, F_REF, 4.0, 1, "+"),  # configs/demo_nodal.json
             (2.0, 1, M1, F_REF, 15.0, 2, "+"),
             (2.0, 1, M1, F_REF, 15.0, 2, "-"),
             (2.0, 1, M_LIN, F_REF, 0.7 * mu1m, 1, "+"),
             (2.0, 1, M_LIN, F_REF, 0.7 * mu1m, 1, "-")]
    battery = list(_battery_cases())
    assert len(battery) == 8  # both signs of nu at each (p, N)
    cases += [(*case, 1, sigma) for case in battery for sigma in "+-"]
    for case in cases:
        want = full_grid_root(*case)
        assert want is not None, case
        got = find_nodal(*case).solution
        assert got.alpha == want[0], case
        traj = want[1]
        assert got.trajectory.terminal_u == traj.terminal_u, case
        assert got.zeros == tuple(z.r for z in traj.interior_zeros), case
        p, n_dim, m, f, gamma = case[:5]
        problem = Problem.nonlinear(p, n_dim, m, gamma, f)
        assert got.residual == solution_residual(problem, traj), case


def test_lazy_scan_probes_up_to_the_first_class_root_only(monkeypatch):
    calls = []

    def counted(problem, alpha, **kw):
        calls.append(alpha)
        return radial_ivp.probe(problem, alpha, **kw)

    monkeypatch.setattr(nodal, "probe", counted)
    search = find_nodal(2.0, 1, M_LIN, F_REF, 4.0, 1, "+")  # configs/demo_nodal.json
    assert search.found and len(calls) == 42
    assert search.scanned == (1e-4, calls[-1]) and sum(search.counts_seen.values()) == 42
    # a search that finds nothing still probes the whole grid
    calls.clear()
    search = find_nodal(2.0, 1, M1, F_REF, 3.0, 1, "+")
    assert not search.found and len(calls) == 84
    assert search.diagnostics == ["scanned alpha in [0.0001, 11054.3] (84 shots); "
                                  "interior zero counts seen: [1]"]


@pytest.mark.parametrize("alpha_min", [1e-8, 1e-10])
def test_find_nodal_small_alpha_min_is_no_homogeneous_degeneracy(alpha_min):
    # f0 = 1 and finf = 2: no gamma makes every amplitude solve, yet at tiny
    # alpha |u(1)| is tiny too, under an absolute hit tolerance and under
    # the solve tolerance's floor
    search = find_nodal(2.0, 1, M_LIN, F_REF, 4.0, 1, "+", alpha_min=alpha_min)
    assert not search.degenerate_homogeneous
    assert search.found and search.diagnostics == []
    assert abs(search.solution.alpha - 0.81045160479464) < 1e-12


@pytest.mark.parametrize("alpha_min", [1e-9, 1e-12])
def test_homogeneous_hits_are_relative_to_the_amplitude(alpha_min):
    f = Nonlinearity.phi(2.0)
    search = find_nodal(2.0, 1, M1, f, 1.3 * LAM1, 1, "+", alpha_min=alpha_min)
    assert not search.degenerate_homogeneous and not search.found
    assert len(search.diagnostics) == 1
    assert search.diagnostics[0].startswith(f"scanned alpha in [{alpha_min:g}, ")
    assert search.diagnostics[0].endswith("interior zero counts seen: [1]")
    # at the eigenvalue every amplitude solves, the smallest ones too
    search = find_nodal(2.0, 1, M1, f, LAM1, 1, "+", alpha_min=alpha_min)
    assert search.degenerate_homogeneous and search.found


@pytest.mark.parametrize("alpha_min, alpha_max", [(1e2, 1e-2), (1.0, 1.0)])
def test_amplitude_range_must_increase(alpha_min, alpha_max):
    named = f"alpha_min = {alpha_min:g} and alpha_max = {alpha_max:g}"
    with pytest.raises(PreconditionError, match=named):
        find_nodal(2.0, 1, M1, F_REF, 2.0, 1, "+", alpha_min=alpha_min, alpha_max=alpha_max)
    with pytest.raises(PreconditionError, match=named):
        trace_branch(2.0, 1, M1, F_REF, 1, "+", alpha_min=alpha_min, alpha_max=alpha_max)


@pytest.mark.parametrize("ratio", [0.5, 1.0, math.nan])
def test_branch_amplitude_ratio_must_exceed_one(ratio):
    with pytest.raises(PreconditionError, match=f"amplitude ratio must be > 1, got {ratio}"):
        trace_branch(2.0, 1, Weight.poly([1.0]), Nonlinearity.rational(2.0), 1, "+",
                     ratio=ratio)


def test_find_nodal_preconditions():
    with pytest.raises(PreconditionError):
        find_nodal(2.0, 1, M1, F_REF, 0.0, 1, "+")
    with pytest.raises(PreconditionError):
        find_nodal(2.0, 1, M1, F_REF, 2.0, 0, "+")
    with pytest.raises(PreconditionError):
        find_nodal(2.0, 1, M1, F_REF, 2.0, 1, "x")


# ---------------------------------------------------------------------------
# branch tracing


def test_branch_homogeneous_is_constant_gamma():
    f = Nonlinearity.phi(2.0)
    br = trace_branch(2.0, 1, M1, f, 1, "+", alpha_min=1e-2, alpha_max=1e2)
    gs = np.array([pt.gamma for pt in br.points])
    assert not br.truncated
    assert np.max(np.abs(gs - LAM1)) <= 1e-8 * LAM1


def test_branch_reference_endpoints():
    br = trace_branch(2.0, 1, M1, F_REF, 1, "+", alpha_min=1e-3, alpha_max=1e3)
    assert not br.truncated
    assert abs(br.gamma_zero_estimate * F_REF.f0 / LAM1 - 1.0) <= 0.02
    assert abs(br.gamma_inf_estimate * F_REF.finf / LAM1 - 1.0) <= 0.05
    # amplitude-parametrized points, strictly increasing alpha
    alphas = [pt.alpha for pt in br.points]
    assert np.all(np.diff(alphas) > 0)
    # the zero count never changes along the branch
    assert all(pt.zeros == 0 for pt in br.points)


def test_branch_minus_mirrors_plus_for_odd_f():
    bp = trace_branch(2.0, 1, M1, F_REF, 1, "+", alpha_min=1e-2, alpha_max=1e2)
    bm = trace_branch(2.0, 1, M1, F_REF, 1, "-", alpha_min=1e-2, alpha_max=1e2)
    assert len(bp.points) == len(bm.points)
    for a, b in zip(bp.points, bm.points):
        assert abs(a.gamma - b.gamma) <= 1e-9 * abs(a.gamma)
        assert abs(a.alpha + b.alpha) < 1e-15
    # disjoint point sets (opposite amplitude signs)
    assert not (set((p.gamma, p.alpha) for p in bp.points)
                & set((p.gamma, p.alpha) for p in bm.points))


def test_branch_second_class():
    br = trace_branch(2.0, 1, M1, F_REF, 2, "+", alpha_min=1e-2, alpha_max=1e2)
    assert not br.truncated
    assert abs(br.gamma_zero_estimate - LAM2) <= 0.02 * LAM2
    assert all(pt.zeros == 1 for pt in br.points)


def test_branch_negative_eigenvalue_sequence():
    # the gamma < 0 branch runs from mu_1^-/f_0 toward mu_1^-/f_inf
    spec = compute_spectrum(2.0, 1, M_LIN, 1)
    mu1m = spec.mu(1, "-")
    br = trace_branch(2.0, 1, M_LIN, F_REF, 1, "+", nu="-", alpha_min=1e-2,
                      alpha_max=1e2, spectrum=spec)
    assert not br.truncated
    assert br.gamma_zero_estimate < 0
    assert abs(br.gamma_zero_estimate - mu1m / F_REF.f0) <= 0.02 * abs(mu1m)
    assert abs(br.gamma_inf_estimate - mu1m / F_REF.finf) <= 0.05 * abs(mu1m)
    assert all(pt.zeros == 0 for pt in br.points)


class _ShiftedSpectrum:
    """A spectrum whose mu_k is the true one times factor."""

    def __init__(self, spec, factor):
        self.spec, self.factor = spec, factor

    def mu(self, k, nu):
        return self.factor * self.spec.mu(k, nu)


def test_branch_names_a_missing_bracket():
    # warm-started at 100 mu_1, the +-20 % and +-80 % windows change sign,
    # but their ends count 4 and 5, and 2 and 7 zeros: no end is in the
    # k = 1 class (mu_3 < 0.2 * 100 mu_1), so no root is solved for
    spec = _ShiftedSpectrum(compute_spectrum(2.0, 1, M1, 1, ("+",)), 100.0)
    br = trace_branch(2.0, 1, M1, F_REF, 1, "+", alpha_min=1e-2, alpha_max=1e2,
                      spectrum=spec)
    assert br.truncated and br.points == []
    assert br.diagnostics == [
        f"no gamma bracket within 80 % of {spec.mu(1, '+'):.8g} holds a class-1 root at "
        "alpha = 0.01; branch truncated"
    ]


COS3 = Weight.from_function(lambda r: math.cos(3.0 * math.pi * r))
F_DOWN = Nonlinearity.rational(2.0, f0=2.0, finf=0.5, q=1.0)


def test_branch_walks_to_the_class_root_of_a_bracket_with_three():
    # at alpha = 6.46235 the +-10 % window of C_2^+ around the previous
    # gamma holds three roots of u(1) (the next test); the window around
    # the secant prediction, 205.868, is solved onto the class root
    # directly.  Brackets further up are still narrowed onto the step of
    # the count from 1 to 2.
    br = trace_branch(2.0, 2, COS3, F_DOWN, 2, "+", alpha_min=1e-2, alpha_max=1e3)
    assert not br.truncated and len(br.points) == 53
    assert all(pt.zeros == 1 for pt in br.points)
    assert br.points[29].alpha == 1e-2 * 1.25**29
    assert br.points[29].gamma == 205.66713929195834


@pytest.mark.kernel
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_class_root_walk_runs_on_the_kernel_to_the_bits_of_python(monkeypatch, kernel):
    if not kernel:
        reference.route(monkeypatch)
    walks = _spy_walks(monkeypatch)
    gamma, traj, stop = nodal._solve_gamma(2.0, 2, COS3, F_DOWN, 1e-2 * 1.25**29,
                                           192.89577223740824, 2, 1e-10, 1e-12)
    assert len(walks) == 1 and walks[0] is not None  # one narrowing, then the solve
    assert stop == "" and len(traj.interior_zeros) == 1
    assert gamma == 205.6671392919584


def _spy_walks(monkeypatch):
    """The list of what each _count_step call returns, from here on."""
    walks, step = [], nodal._count_step

    def spy(*args):
        walks.append(step(*args))
        return walks[-1]

    monkeypatch.setattr(nodal, "_count_step", spy)
    return walks


def _spy_kernel_solves(monkeypatch):
    """The list of what each ``_kernel.solve`` call returns, from here on."""
    solved, solve = [], _kernel.solve

    def spy(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(_kernel, "solve", spy)
    return solved


def test_branch_gives_up_a_bracket_without_a_class_root(monkeypatch):
    # C_3^+ at alpha = 0.01: only the +-80 % window is admitted, its ends
    # counting 1 and 2 zeros, and Brent's method lands on gamma = 71.23, a
    # root with one zero.  Between the in-class end and that root no probe
    # counts 3, and the narrowing gives the bracket up at adjacent doubles.
    # (u(0) = 0.01 is no small amplitude for this class: the shot's
    # sup-norm is 0.76, so the class-3 root is far from mu_3 / f0.)
    spec = compute_spectrum(2.0, 2, COS3, 3, ("+",))
    walks = _spy_walks(monkeypatch)
    br = trace_branch(2.0, 2, COS3, F_DOWN, 3, "+", alpha_min=1e-2, alpha_max=1e3,
                      spectrum=spec)
    assert walks == [None]
    assert br.truncated and br.points == []
    assert br.diagnostics == [
        f"no gamma bracket within 80 % of {spec.mu(3, '+') / 2:.8g} holds a class-3 root "
        "at alpha = 0.01; branch truncated"
    ]


@pytest.mark.kernel
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_nodal_solves_probe_no_shot_twice(monkeypatch, kernel):
    # the bracket ends are probed once, by the caller; the solve and the
    # in-class check at its root take them as they are.  On the reference
    # every trial of Brent's method is a probe as well; on the kernel the
    # probe at a root is read off the solve, never shot again, also where
    # its tail filter reads sup |u'|.  The trajectory at a root comes with
    # the solve: on the reference one shot there, and on the kernel none,
    # as the solve reads it off the root's own trial instead of marching it
    # again.
    if not kernel:
        reference.route(monkeypatch)
    keys, real = [], radial_ivp.probe
    shots, real_shoot = [], radial_ivp.shoot
    roots, solve = [], radial_ivp.solve_miss
    solved = _spy_kernel_solves(monkeypatch)

    def spy(problem, alpha, *, rtol, atol, **kw):
        keys.append((problem, alpha, rtol, atol))
        return real(problem, alpha, rtol=rtol, atol=atol, **kw)

    def shoot_spy(problem, alpha, **kw):
        if "n_samples" not in kw:  # a trajectory's shot, not the reference's probe
            shots.append((problem, alpha))
        return real_shoot(problem, alpha, **kw)

    def solve_spy(problem, alpha, a, b, ends, *, in_alpha=False, **kw):
        solved = solve(problem, alpha, a, b, ends, in_alpha=in_alpha, **kw)
        roots.append((problem, solved[0]) if in_alpha else (problem.at(solved[0]), alpha))
        return solved

    for module in (radial_ivp, nodal, reference):
        monkeypatch.setattr(module, "probe", spy)
        monkeypatch.setattr(module, "shoot", shoot_spy)
    monkeypatch.setattr(nodal, "solve_miss", solve_spy)
    # the spectra are computed first: the runs spy on the nodal solves alone
    spec = compute_spectrum(2.0, 1, M_LIN, 1)
    m_steep = Weight.poly([1.0, -8.0])
    spec_steep = compute_spectrum(2.0, 1, m_steep, 1, ("+",))
    runs = (
        lambda: trace_branch(2.0, 1, M_LIN, F_REF, 1, "+", alpha_min=1e-2, alpha_max=1e2,
                             ratio=4.0, spectrum=spec),
        lambda: find_nodal(2.0, 1, M_LIN, F_REF, 0.7 * spec.mu(1, "-"), 1, "+"),
        lambda: verify_bifurcation_points(2.0, 1, M_LIN, Perturbation(2.0), [1], ("+",),
                                          alphas=(1e-1, 1e-2), spectrum=spec),
        # the shot at the root, mu = 67.56, has one sign change, under the
        # noise floor with a collapsed slope, which the tail filter drops
        lambda: verify_bifurcation_points(2.0, 1, m_steep, Perturbation(2.0), [1], ("+",),
                                          alphas=(1e-1,), spectrum=spec_steep),
    )
    for run in runs:
        keys.clear()
        shots.clear()
        roots.clear()
        solved.clear()
        run()
        assert keys and roots and len(set(keys)) == len(keys)
        at_roots = [key for key in keys if key[:2] in roots]
        assert len(at_roots) == (0 if kernel else len(roots))
        assert [key for key in shots if key in roots] == ([] if kernel else roots)
        assert [s.marched for s in solved] == [False] * (len(roots) if kernel else 0)
    problem, alpha = roots[0]  # alpha = 0.1; the odd g's '-' half is read off it
    shot = shoot(problem, alpha, n_samples=radial_ivp.PROBE_SAMPLES)
    assert shot.zeros == () and len(reference.scan_reference(
        shot.dense, radial_ivp.DEFAULT_EPS, 1.0, radial_ivp.PROBE_SAMPLES, 1, 1.0)[-1]) == 1


def test_find_nodal_negative_gamma():
    spec = compute_spectrum(2.0, 1, M_LIN, 1)
    mu1m = spec.mu(1, "-")
    gamma = 0.7 * mu1m  # inside (mu_1^-/f_0, mu_1^-/f_inf) = (mu1m, mu1m/2)
    for sigma in ("+", "-"):
        search = find_nodal(2.0, 1, M_LIN, F_REF, gamma, 1, sigma)
        assert search.found
        sol = search.solution
        assert len(sol.zeros) == 0
        assert sol.residual <= 1e-6
        assert (sol.alpha > 0) == (sigma == "+")


# ---------------------------------------------------------------------------
# bifurcation points


def test_bifurcation_points_power_perturbation():
    g = Perturbation(2.0, c=1.0, delta=1.0)
    rep = verify_bifurcation_points(2.0, 1, M_LIN, g, [1], ("+", "-"))
    assert rep.passed
    for key, offsets in rep.data.items():
        # g ~ |u|^p: the parameter offset scales linearly with amplitude
        assert offsets[-1] <= 0.05 * offsets[0]


def test_bifurcation_points_zero_perturbation_recovers_eigenvalue():
    g = Perturbation(2.0, c=0.0, delta=1.0)
    spec = compute_spectrum(2.0, 1, M_LIN, 1, nus=("+",))
    rep = verify_bifurcation_points(
        2.0, 1, M_LIN, g, [1], ("+",), alphas=(1e-2, 1e-3), spectrum=spec
    )
    assert rep.passed
    for offsets in rep.data.values():
        assert all(o <= 1e-7 * abs(spec.mu(1, "+")) for o in offsets)


# ---------------------------------------------------------------------------
# the sign halves of an odd f or g


class _Scaled(Perturbation):
    """The power perturbation as a subclass: not known to be odd."""


def test_only_the_built_in_families_are_odd():
    assert F_REF.odd and Nonlinearity.phi(2.5).odd and Perturbation(2.5).odd
    assert not Nonlinearity(fn=F_REF.fn, f0=F_REF.f0, finf=F_REF.finf).odd
    assert not _Scaled(2.5).odd


def test_the_constructor_takes_no_family():
    # a family given with some other fn would run the family's f on the
    # kernel, the fn on the Python path, and read as odd
    with pytest.raises(TypeError):
        Nonlinearity(fn=lambda u: u**3, f0=1.0, finf=2.0, family=F_REF.family)
    assert Nonlinearity(fn=F_REF.fn, f0=F_REF.f0, finf=F_REF.finf).family is None
    assert F_REF.family[0] == _kernel.RATIONAL
    assert Nonlinearity.phi(2.5).family == (_kernel.LINEAR, 1.5)


@pytest.mark.kernel
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("f, p, n_dim", [(F_REF, 2.0, 1),
                                         (Nonlinearity.rational(2.5, 1.1, 2.3, 2.2), 2.5, 2)])
def test_odd_f_gives_the_minus_solution_as_the_negated_plus_one(monkeypatch, kernel, f, p,
                                                                 n_dim):
    if not kernel:
        reference.route(monkeypatch)
    mu = compute_spectrum(p, n_dim, M_LIN, 1, ("+",)).mu(1, "+")
    gamma = mu / (0.5 * (f.f0 + f.finf))
    plus = find_nodal(p, n_dim, M_LIN, f, gamma, 1, "+").solution
    minus = find_nodal(p, n_dim, M_LIN, f, gamma, 1, "-").solution
    assert minus.alpha == -plus.alpha and minus.residual == plus.residual
    assert minus.zeros == plus.zeros
    assert np.array_equal(minus.trajectory.u, -plus.trajectory.u)


@pytest.mark.kernel
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_odd_g_gives_the_same_parameter_at_minus_alpha(monkeypatch, kernel):
    if not kernel:
        reference.route(monkeypatch)
    p, g = 2.5, Perturbation(2.5, c=1.0, delta=0.5)
    spec = compute_spectrum(p, 1, M_LIN, 2)
    for k, nu in ((1, "+"), (2, "-")):
        mu_k = spec.mu(k, nu)
        for alpha in (0.3, 0.01):
            got = [nodal._locate_perturbed_parameter(p, 1, M_LIN, g, mu_k, k, a, 1e-10, 1e-12)
                   for a in (alpha, -alpha)]
            assert got[0] is not None and got[0] != mu_k and got[0] == got[1]


@pytest.mark.parametrize("odd", [True, False], ids=["built-in", "subclass"])
def test_bifurcation_points_solve_the_minus_half_only_for_a_g_not_known_odd(monkeypatch, odd):
    calls, locate = [], nodal._locate_perturbed_parameter

    def spy(*args):
        calls.append(args[6])  # alpha
        return locate(*args)

    monkeypatch.setattr(nodal, "_locate_perturbed_parameter", spy)
    g = (Perturbation if odd else _Scaled)(2.0)
    spec = compute_spectrum(2.0, 1, M_LIN, 1, ("+",))
    rep = verify_bifurcation_points(2.0, 1, M_LIN, g, [1], ("+",), alphas=(1e-1, 1e-2),
                                    spectrum=spec)
    assert calls == ([1e-1, 1e-2] if odd else [1e-1, 1e-2, -1e-1, -1e-2])
    assert rep.passed and rep.data[1, "+", "-"] == rep.data[1, "+", "+"]
    assert rep.lines[1] == rep.lines[0].replace("sub-branch +", "sub-branch -")


def test_bifurcation_points_mirror_a_miss_with_its_sign(monkeypatch):
    monkeypatch.setattr(nodal, "_locate_perturbed_parameter", lambda *args: None)
    spec = compute_spectrum(2.0, 1, M_LIN, 1, ("+",))
    rep = verify_bifurcation_points(2.0, 1, M_LIN, Perturbation(2.0), [1], ("+",),
                                    spectrum=spec)
    assert not rep.passed and not rep.data
    assert [line.rsplit(" at ", 1)[1] for line in rep.lines] == ["alpha=0.1", "alpha=-0.1"]


# ---------------------------------------------------------------------------
# gamma intervals


def test_gamma_intervals_reference_arithmetic():
    spec = compute_spectrum(2.0, 1, M1, 3, nus=("+",))
    ivs = gamma_intervals(spec, 1.0, 2.0, 1)
    finf_first = next(i for i in ivs if i.ordering == "finf_first" and i.nu == "+")
    assert abs(finf_first.lo - LAM1 / 2) <= 1e-8 * LAM1
    assert abs(finf_first.hi - LAM1) <= 1e-8 * LAM1
    assert not finf_first.empty
    assert finf_first.lo < 2.0 < finf_first.hi
    f0_first = next(i for i in ivs if i.ordering == "f0_first" and i.nu == "+")
    assert f0_first.empty


def test_gamma_intervals_all_empty_when_limits_equal():
    spec = compute_spectrum(2.0, 1, M1, 2, nus=("+",))
    assert all(iv.empty for iv in gamma_intervals(spec, 1.5, 1.5, 1))


def test_gamma_intervals_multi_class_empty_case_surfaced():
    # k=1, n=3, f0=1, finf=10: (lam3/10, lam1) = (6.1685, 2.4674), empty
    spec = compute_spectrum(2.0, 1, M1, 3, nus=("+",))
    ivs = gamma_intervals(spec, 1.0, 10.0, 1, n=3)
    finf_first = next(i for i in ivs if i.ordering == "finf_first")
    assert abs(finf_first.lo - 6.168502750680849) < 1e-6
    assert abs(finf_first.hi - 2.4674011002723395) < 1e-6
    assert finf_first.empty


def test_gamma_intervals_negative_side():
    spec = compute_spectrum(2.0, 1, M_LIN, 2)
    ivs = gamma_intervals(spec, 1.0, 2.0, 1)
    neg = [i for i in ivs if i.nu == "-"]
    assert len(neg) == 2
    nonempty = [i for i in neg if not i.empty]
    assert len(nonempty) == 1
    assert nonempty[0].hi < 0


def test_multi_class_interval_yields_all_pairs():
    # decreasing ratio family (f0 > finf): the multi-class interval
    # (mu_n/f0, mu_k/finf) is nonempty for k=1, n=2, and one gamma inside
    # it carries a solution pair for every class in between
    spec = compute_spectrum(2.0, 1, M1, 2, nus=("+",))
    ivs = gamma_intervals(spec, 10.0, 1.0, 1, n=2)
    f0_first = next(i for i in ivs if i.ordering == "f0_first" and i.nu == "+")
    assert not f0_first.empty
    assert abs(f0_first.lo - LAM2 / 10.0) < 1e-6
    assert abs(f0_first.hi - LAM1) < 1e-6
    gamma = 2.3
    assert f0_first.lo < gamma < f0_first.hi
    f = Nonlinearity.rational(2.0, f0=10.0, finf=1.0, q=2.0)
    for k in (1, 2):
        for sigma in ("+", "-"):
            s = find_nodal(2.0, 1, M1, f, gamma, k, sigma)
            assert s.found
            assert len(s.solution.zeros) == k - 1
            assert s.solution.residual <= 1e-6


def test_gamma_intervals_guards():
    spec = compute_spectrum(2.0, 1, M1, 2, nus=("+",))
    with pytest.raises(PreconditionError):
        gamma_intervals(spec, -1.0, 2.0, 1)
    with pytest.raises(PreconditionError):
        gamma_intervals(spec, 1.0, 2.0, 2, n=1)
    with pytest.raises(SpectrumIncomplete):
        gamma_intervals(spec, 1.0, 2.0, 5)
