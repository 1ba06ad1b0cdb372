import ctypes
import gc
import inspect
import math
import re
import shlex
import shutil
import sysconfig
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from pspect import _kernel, _rk45, radial_ivp
from pspect._rk45 import DenseOutput, integrate
from pspect.errors import IntegrationError, PreconditionError
from pspect.nodal import Nonlinearity, Perturbation
from pspect.pfuncs import pi_p, sin_p
from pspect.radial_ivp import (
    LinearRHS,
    NonlinearRHS,
    PerturbedRHS,
    Problem,
    origin_startup,
    probe,
    shoot,
)
from pspect.weights import Weight

from oracles import rk4_shot, source_problem

M1 = Weight.constant(1.0)
M_LIN = Weight.poly([1.0, -2.0])


def test_shot_cosine_ground_state():
    # p=2, N=1, m=1, mu=(pi/2)^2: u = cos(pi r / 2)
    traj = shoot(Problem.linear(2.0, 1, M1, (math.pi / 2) ** 2), 1.0)
    assert abs(traj.terminal_u) <= 1e-9
    assert len(traj.interior_zeros) == 0
    rs = np.linspace(1e-6, 1.0, 100)
    u, _ = traj.eval(rs)
    assert np.max(np.abs(u - np.cos(math.pi * rs / 2))) < 1e-9


def test_shot_cosine_one_zero():
    traj = shoot(Problem.linear(2.0, 1, M1, (3 * math.pi / 2) ** 2), 1.0)
    interior = traj.interior_zeros
    assert len(interior) == 1
    assert abs(interior[0].r - 1.0 / 3.0) <= 1e-9


def test_shot_against_fixed_step_reference():
    # independent fixed-step RK4 oracle at high resolution
    p, n_dim, mu = 3.0, 2, 10.0
    traj = shoot(Problem.linear(p, n_dim, M1, mu), 1.0)
    _, us, zeros = rk4_shot(p, n_dim, M1.eval_scalar, mu, 1.0, n_steps=60000)
    assert abs(traj.terminal_u - us[-1]) < 1e-7
    assert len(traj.interior_zeros) == zeros


def test_shot_sign_changing_weight_against_reference():
    p, n_dim, mu = 2.5, 3, 50.0
    traj = shoot(Problem.linear(p, n_dim, M_LIN, mu), 1.0)
    _, us, zeros = rk4_shot(p, n_dim, M_LIN.eval_scalar, mu, 1.0, n_steps=60000)
    assert abs(traj.terminal_u - us[-1]) < 1e-7
    assert len(traj.interior_zeros) == zeros


def test_origin_startup_cosine_series():
    # p=2, N=1, m=1, mu=1: u(eps) = 1 - eps^2/2 + O(eps^3)
    prob = Problem.linear(2.0, 1, M1, 1.0)
    for eps in (1e-6, 1e-5):
        u_eps, v_eps = origin_startup(prob, 1.0, eps)
        assert abs(u_eps - (1.0 - eps**2 / 2)) < 2 * eps**3
        assert abs(v_eps + eps) < eps**2


def test_origin_startup_robustness():
    # halving the startup radius changes the terminal value negligibly
    prob = Problem.linear(2.5, 2, M_LIN, 30.0)
    t1 = shoot(prob, 1.0, eps=1e-4).terminal_u
    t2 = shoot(prob, 1.0, eps=5e-5).terminal_u
    assert abs(t1 - t2) <= 1e-9


def test_origin_startup_odd_mirror():
    prob = Problem.linear(2.5, 1, M1, 7.0)
    up, vp = origin_startup(prob, 1.0, 1e-5)
    um, vm = origin_startup(prob, -1.0, 1e-5)
    assert um == -up and vm == -vp


def test_startup_eps_validation():
    prob = Problem.linear(2.0, 1, M1, 1.0)
    with pytest.raises(PreconditionError):
        origin_startup(prob, 1.0, 1e-3)
    with pytest.raises(PreconditionError):
        origin_startup(prob, 1.0, 0.0)


def test_shoot_rejects_zero_amplitude():
    with pytest.raises(PreconditionError):
        shoot(Problem.linear(2.0, 1, M1, 1.0), 0.0)


def test_dimension_validation():
    with pytest.raises(PreconditionError):
        Problem.linear(2.0, 0, M1, 1.0)
    with pytest.raises(PreconditionError):
        Problem.linear(2.0, 1.5, M1, 1.0)


@pytest.mark.parametrize("p,n_dim", [(2.0, 1), (2.5, 3), (1.5, 1)])
def test_linear_scaling_invariance(p, n_dim):
    # c*alpha shot equals c times the alpha shot for the linear problem;
    # the absolute tolerances are scaled homothetically (u by c, the flux
    # variable by c^{p-1}) so the comparison probes the homogeneity of the
    # map, not the error-controller floor
    prob = Problem.linear(p, n_dim, M_LIN, 20.0)
    c = 3.7
    t1 = shoot(prob, 1.0)
    t2 = shoot(prob, c, atol=(1e-12 * c, 1e-12 * c ** (p - 1.0)))
    rs = np.linspace(1e-6, 1.0, 200)
    u1, _ = t1.eval(rs)
    u2, _ = t2.eval(rs)
    scale = np.max(np.abs(u2))
    assert np.max(np.abs(u2 - c * u1)) <= 1e-9 * scale


def test_odd_symmetry():
    prob = Problem.linear(2.5, 2, M_LIN, 35.0)
    tp = shoot(prob, 1.0)
    tm = shoot(prob, -1.0)
    rs = np.linspace(1e-6, 1.0, 150)
    up, _ = tp.eval(rs)
    um, _ = tm.eval(rs)
    assert np.max(np.abs(um + up)) <= 1e-9 * np.max(np.abs(up))
    assert len(tp.interior_zeros) == len(tm.interior_zeros)


def test_zero_count_stable_under_tolerance_tightening():
    battery = [
        (2.0, 1, M1, 130.0),
        (2.5, 1, M_LIN, 300.0),
        (1.5, 1, M1, 40.0),
        (3.0, 3, M_LIN, 900.0),
    ]
    for p, n_dim, m, mu in battery:
        prob = Problem.linear(p, n_dim, m, mu)
        loose = shoot(prob, 1.0, rtol=1e-9, atol=1e-11)
        tight = shoot(prob, 1.0, rtol=1e-10, atol=1e-12)
        assert len(loose.interior_zeros) == len(tight.interior_zeros)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [2, 3])
def test_zeros_match_generalized_sine(p, k):
    # at mu = lambda_k the shot is sin_p((2k-1) pi_p (1-r)/2); its interior
    # zeros sit at r = 1 - 2j/(2k-1)
    pip = pi_p(p)
    mu = (p - 1.0) * ((2 * k - 1) * pip / 2.0) ** p
    traj = shoot(Problem.linear(p, 1, M1, mu), 1.0)
    expected = sorted(1.0 - 2.0 * j / (2 * k - 1) for j in range(1, k))
    got = sorted(z.r for z in traj.interior_zeros)
    assert len(got) == len(expected)
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-8


def test_zero_derivative_recording():
    traj = shoot(Problem.linear(2.0, 1, M1, (3 * math.pi / 2) ** 2), 1.0)
    z = traj.interior_zeros[0]
    # u = cos(3 pi r/2): u'(1/3) = -3 pi/2 sin(pi/2) = -3 pi/2
    assert abs(z.uprime + 3 * math.pi / 2) < 1e-6
    assert not z.degenerate
    assert not traj.degenerate


def test_brentq_takes_scipys_steps():
    # radial_ivp.brentq stands in for scipy's, to its bits and its errors
    rng = np.random.default_rng(3)

    def outcome(solver, f, a, b, args, **kw):
        try:
            return solver(f, a, b, args=args, **kw)
        except (ValueError, RuntimeError) as exc:
            return type(exc)

    cases = []
    for _ in range(400):  # one step's quartic, as _locate_zeros meets it
        t0, h = rng.random(), 10.0 ** rng.uniform(-6, -1)
        a = t0 + 0.5 * h * rng.random()
        b = a + h * rng.uniform(0.01, 0.5)
        c = rng.normal(size=5) * 10.0 ** rng.uniform(-12, 2, size=5)
        c[0] -= radial_ivp._quartic_on_step(0.5 * (a + b), math.inf, 0.0, t0, h, *c)
        ub = radial_ivp._quartic_on_step(b, math.inf, 0.0, t0, h, *c)
        cases.append((radial_ivp._quartic_on_step, a, b, (b, ub, t0, h, *c)))
    for k in (1, 3, 9):  # a root of order k; at orders 3 and 9 it runs out of iterations
        cases += [(lambda x, r, k=k: (x - r) ** k, r - 1.5, r + 0.7, (r,)) for r in (0.3, -2.0)]
    cases += [(lambda x: x, 0.0, 1.0, ()), (lambda x: x - 1.0, 0.0, 1.0, ()),
              (lambda x: x * x + 1.0, -1.0, 1.0, ()), (lambda x: math.nan, 0.0, 1.0, ())]
    for f, a, b, args in cases:
        for kw in ({}, dict(xtol=radial_ivp.ZERO_XTOL, rtol=8.9e-16), dict(xtol=1e-14, rtol=1e-13)):
            want = outcome(scipy_brentq, f, a, b, args, **kw)
            got = outcome(radial_ivp.brentq, f, a, b, args, **kw)
            assert got == want, (a, b, args, kw, got, want)
            if isinstance(got, float):
                assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_blowup_reported():
    # enormous negative-region coefficient forces |u| past the guard
    prob = Problem.linear(2.0, 1, Weight.poly([1.0, -8.0]), 3.0e4)
    traj = shoot(prob, 1.0)
    assert traj.blowup_radius is not None
    assert 0 < traj.blowup_radius <= 1.0
    assert traj.terminal is None
    with pytest.raises(Exception):
        traj.terminal_u


def test_probe_blowup_rule():
    # m = -1, p = 2: u = alpha cosh(sqrt(mu) r) passes the default guard
    # at r ~ 0.897; the miss is 1e12 signed by u, the count covers [0, 0.897)
    prob = Problem.linear(2.0, 1, Weight.constant(-1.0), 1e3)
    assert shoot(prob, 1.0).blowup_radius == pytest.approx(0.897, abs=1e-3)
    for alpha in (1.0, -1.0):
        pr = probe(prob, alpha, rtol=1e-10, atol=1e-12)
        assert pr.blowup
        assert pr.d == math.copysign(1e12, alpha)
        assert pr.z == 0
        assert pr.sup_u >= 1e12


def test_probe_matches_its_shot():
    prob = Problem.linear(2.0, 1, M_LIN, 50.0)
    traj = shoot(prob, 1.0, n_samples=65)
    pr = probe(prob, 1.0, rtol=1e-10, atol=1e-12)
    assert not pr.blowup
    assert (pr.d, pr.z, pr.sup_u) == (traj.terminal_u, len(traj.interior_zeros),
                                      traj.sup_u)


def test_trajectory_uprime_consistency():
    prob = Problem.linear(2.0, 1, M1, 4.0)
    traj = shoot(prob, 1.0)
    rs = np.linspace(0.1, 0.9, 17)
    up = traj.uprime(rs)
    assert np.max(np.abs(up + 2 * np.sin(2 * rs))) < 1e-8


# ---------------------------------------------------------------------------
# a shot on the compiled kernel (_kernel.shoot: the start, the step loop with
# the right-hand side fused into it, and the post-pass) gives the bits of the
# Python path (the Python start and stepper with the generic closure, then
# the numpy post-pass)

FUSED_WEIGHTS = {
    "constant": Weight.constant(0.7),
    "linear": M_LIN,
    "quadratic": Weight.poly([0.5, 1.0, -3.0]),
    "cubic": Weight.poly([0.86, -0.18, 0.10, -0.94]),
    "quartic": Weight.poly([1.0, -0.5, -2.0, 0.3, 0.2]),
    "piecewise": Weight.from_function(lambda r: math.cos(3 * math.pi * r), n_pieces=16),
}


@dataclass(frozen=True)
class _PythonRHS:
    """A right-hand side under another type with no compiled form, so that
    shoot takes the Python path."""

    rhs: object

    def make(self, p, m_eval):
        return self.rhs.make(p, m_eval)

    def compiled(self, p, n_dim, m):
        return None


def _on_python_path(prob):
    return replace(prob, rhs=_PythonRHS(prob.rhs))


def _same_bits(a, b):
    """Equal as IEEE doubles, sign bits included (-0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_kernel_matches_reference(prob, *, alpha=1.0, blowup_limit=math.inf, **kw):
    """The shot of prob from u(0) = alpha is the same on the kernel and on
    the Python path (with a blow-up guard of inf, which stops the march
    only where u overflows, unless one is given); returns the shot."""
    got = shoot(prob, alpha, blowup_limit=blowup_limit, **kw)
    assert_same_shot(got, shoot(_on_python_path(prob), alpha, blowup_limit=blowup_limit, **kw))
    assert type(got.steps.accepted) is type(got.steps.rhs_calls) is int
    return got


@pytest.mark.parametrize("weight", sorted(FUSED_WEIGHTS))
@pytest.mark.parametrize("n_dim", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [1.2, 2.0, 2.5, 6.0])
def test_fused_linear_rhs_matches_generic(p, n_dim, weight):
    m = FUSED_WEIGHTS[weight]
    for mu in (37.5, -0.3):
        for rtol, atol in ((1e-10, 1e-12), (1e-6, 1e-8)):
            assert_kernel_matches_reference(Problem.linear(p, n_dim, m, mu),
                                            rtol=rtol, atol=atol)


@pytest.mark.kernel
@pytest.mark.parametrize(
    "p,n_dim,weight,mu",
    [
        (2.0, 1, "constant", 120.0),
        (1.2, 2, "linear", 90.0),
        (2.5, 3, "cubic", 400.0),
        (6.0, 5, "quartic", 3.0e4),
        (2.5, 2, "piecewise", -250.0),
        (3.0, 1, "quadratic", 60.0),
    ],
)
def test_fused_shoot_matches_generic(p, n_dim, weight, mu):
    m = FUSED_WEIGHTS[weight]
    fused = shoot(Problem.linear(p, n_dim, m, mu), 1.0)
    generic = shoot(_on_python_path(Problem.linear(p, n_dim, m, mu)), 1.0)
    assert np.array_equal(fused.r, generic.r)
    assert np.array_equal(fused.u, generic.u)
    assert np.array_equal(fused.v, generic.v)
    assert fused.terminal == generic.terminal
    assert [z.r for z in fused.zeros] == [z.r for z in generic.zeros]
    assert fused.blowup_radius == generic.blowup_radius
    assert fused.steps == generic.steps


COS64 = Weight.from_function(lambda r: math.cos(3 * math.pi * r))
needs_kernel = pytest.mark.skipif(_kernel.load() is None, reason="no compiled kernel")


@pytest.mark.parametrize(
    "p,n_dim,weight,mu",
    [
        (2.5, 1, "linear", 13872.2),
        (2.5, 1, "linear", -13872.2),
        (1.2, 2, "cos64", 5000.0),
        (1.5, 1, "cos64", -1625.6),
        (6.0, 3, "cubic", 1625.6),
        (4.0, 5, "quartic", -358.5),
    ],
)
@pytest.mark.parametrize("blowup_limit", [1e12, 1e100])
def test_kernel_matches_reference_at_large_mu(p, n_dim, weight, mu, blowup_limit):
    m = COS64 if weight == "cos64" else FUSED_WEIGHTS[weight]
    for rtol, atol in ((1e-10, 1e-12), (1e-6, 1e-8)):
        assert_kernel_matches_reference(Problem.linear(p, n_dim, m, mu), rtol=rtol, atol=atol,
                                        blowup_limit=blowup_limit)


def _spy(monkeypatch, name):
    """What each call of ``_kernel.<name>`` returns, as it returns: None
    means handed back or not loaded."""
    seen, fn = [], getattr(_kernel, name)

    def spy(*args):
        out = fn(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(_kernel, name, spy)
    return seen


@pytest.fixture
def shoot_results(monkeypatch):
    return _spy(monkeypatch, "shoot")


# nonlinear and perturbed shots: each (p, N, weight) of the grid takes the
# next rational parameters, perturbation and amplitudes in turn, so the
# grid covers every value of each
RATIONAL_PARAMS = [(f0, finf, q) for f0 in (0.9, 1.1) for finf in (1.9, 2.3)
                   for q in (1.8, 2.0, 2.2)]
PERTURBATIONS = [(c, delta) for c in (0.0, 1.0) for delta in (0.5, 1.0)]
AMPLITUDES = [s * 10.0**k for k in range(-3, 4) for s in (1.0, -1.0)]  # the branch grid's range
GRID_P, GRID_N = [1.2, 2.0, 2.5, 6.0], [1, 2, 3, 5]


@pytest.mark.parametrize("weight", sorted(FUSED_WEIGHTS))
@pytest.mark.parametrize("n_dim", GRID_N)
@pytest.mark.parametrize("p", GRID_P)
def test_kernel_matches_reference_on_nonlinear_and_perturbed_shots(p, n_dim, weight,
                                                                   shoot_results):
    i = (GRID_P.index(p) * len(GRID_N) + GRID_N.index(n_dim)) * len(FUSED_WEIGHTS) \
        + sorted(FUSED_WEIGHTS).index(weight)
    m = FUSED_WEIGHTS[weight]
    f0, finf, q = RATIONAL_PARAMS[i % len(RATIONAL_PARAMS)]
    c, delta = PERTURBATIONS[i % len(PERTURBATIONS)]
    lam = 37.5 if i % 3 else -0.3
    shots = [
        (Problem.nonlinear(p, n_dim, m, lam, Nonlinearity.rational(p, f0, finf, q)), i),
        (Problem.nonlinear(p, n_dim, m, lam, Nonlinearity.phi(p)), i + 5),
        (Problem.perturbed(p, n_dim, m, lam, Perturbation(p, c, delta)), i + 9),
    ]
    for prob, j in shots:
        for tols in ((1e-10, 1e-12), (1e-6, 1e-8)):
            # shoot's guard: a superlinear g blows up in finite r
            assert_kernel_matches_reference(prob, alpha=AMPLITUDES[j % len(AMPLITUDES)],
                                            rtol=tols[0], atol=tols[1], blowup_limit=1e12)
    if _kernel.load() is not None:
        assert len(shoot_results) == 6 and None not in shoot_results


def test_kernel_uses_the_exponents_f_and_g_captured(shoot_results):
    # f and g keep the p they were built with, whatever the problem's p
    for rhs in (Nonlinearity.rational(3.0, 1.1, 2.3, 2.2), Nonlinearity.phi(1.5),
                Perturbation(4.0, 1.0, 0.5)):
        make = Problem.nonlinear if isinstance(rhs, Nonlinearity) else Problem.perturbed
        for alpha in (1e-3, -1.0, 10.0):
            assert_kernel_matches_reference(make(2.0, 3, M_LIN, 37.5, rhs), alpha=alpha,
                                            blowup_limit=1e12)
    if _kernel.load() is not None:
        assert len(shoot_results) == 9 and None not in shoot_results


def _raised_on_both_paths(prob, alpha, **kw):
    """What shoot raises on the kernel and on the Python path."""
    return [_raised(lambda: shoot(prob, alpha, **kw)),
            _raised(lambda: shoot(_on_python_path(prob), alpha, **kw))]


@pytest.mark.kernel
@needs_kernel
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_kernel_hands_overflowing_shots_to_the_python_stepper(shoot_results):
    # with a guard of inf u and v reach inf; Python's inf ** e is inf
    # without an error, the kernel stops at an infinite power, and the
    # Python path repeats the shot, whose last samples are NaN
    shot = assert_kernel_matches_reference(Problem.linear(1.2, 1, M1, -1e6), rtol=1e-6,
                                           atol=1e-8)
    assert shoot_results == [None]
    assert shot.blowup_radius is not None and math.isnan(shot.sup_u)


@pytest.mark.kernel
@needs_kernel
def test_kernel_step_underflow_raises_the_python_error(shoot_results):
    errors = _raised_on_both_paths(Problem.linear(2.0, 1, M1, 10.0), 1.0, rtol=1e-100,
                                   atol=1e-150)
    assert errors == [(IntegrationError, "step size underflow at r = 1.000000e-06")] * 2
    assert [out[0] for out in shoot_results] == [_kernel.UNDERFLOW]


@pytest.mark.kernel
@needs_kernel
def test_kernel_grows_its_buffers(monkeypatch, shoot_results):
    monkeypatch.setattr(_kernel, "FIRST_CAPACITY", 3)
    assert_kernel_matches_reference(Problem.linear(2.5, 1, M_LIN, 13872.2), rtol=1e-6,
                                    atol=1e-8)
    assert shoot_results[0][2] > 100  # accepted steps


@pytest.mark.parametrize("broken", ["no compiler", "unwritable cache"])
def test_shots_fall_back_to_the_python_stepper(monkeypatch, tmp_path, broken):
    prob = Problem.linear(2.5, 3, FUSED_WEIGHTS["cubic"], 400.0)
    want = shoot(prob, 1.0)
    if broken == "no compiler":
        get = sysconfig.get_config_var
        fake_cc = str(tmp_path / "no-such-cc")
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: fake_cc if name == "CC" else get(name))
        monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path))
    else:
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path / "file" / "cache"))
    _kernel.load.cache_clear()
    try:
        assert _kernel.load() is None
        got = shoot(prob, 1.0)
    finally:
        _kernel.load.cache_clear()
    assert_same_shot(got, want)


def assert_same_shot(got, want):
    # as IEEE bits, so that a NaN of a shot that overflows matches
    for a, b in ((got.r, want.r), (got.u, want.u), (got.v, want.v), (got.sup_u, want.sup_u),
                 (got.sup_uprime, want.sup_uprime)):
        assert _same_bits(a, b)
    assert (got.terminal is None) == (want.terminal is None)
    assert got.terminal is None or _same_bits(got.terminal, want.terminal)
    assert [(z.r, z.uprime, z.degenerate) for z in got.zeros] == \
        [(z.r, z.uprime, z.degenerate) for z in want.zeros]
    assert got.degenerate == want.degenerate
    assert (got.blowup_radius, got.steps) == (want.blowup_radius, want.steps)
    assert got.dense.n == want.dense.n and _same_bits(got.dense.block, want.dense.block)


# ---------------------------------------------------------------------------
# the compiled post-pass of a shot (_kernel.scan, which _kernel.shoot runs
# after the march) gives the bits of its numpy reference
# (radial_ivp._scan_reference, then _locate_zeros), on any block; the
# reduction of a shot to its probe on the kernel (_kernel.reduce, which
# _kernel.probe runs after the march) gives the probe of the whole shot
# (radial_ivp._shoot_and_reduce)


@pytest.fixture
def scan_results(monkeypatch):
    return _spy(monkeypatch, "scan")


@pytest.fixture
def probe_results(monkeypatch):
    return _spy(monkeypatch, "probe")


def _on_both_paths(monkeypatch, fn):
    """fn() with the kernel's shots and probes, then on the Python path."""
    got = fn()
    with monkeypatch.context() as mp:
        for name in ("shoot", "probe"):
            mp.setattr(_kernel, name, lambda shot: None)
        want = fn()
    return got, want


def assert_same_probe(got, want):
    assert _same_bits(got.d, want.d) and _same_bits(got.sup_u, want.sup_u)
    assert (got.z, got.blowup, got.steps) == (want.z, want.blowup, want.steps)
    assert type(got.d) is type(got.sup_u) is float and type(got.z) is int


def assert_reduction_matches(shot, prob, want):
    """The kernel's reduction of the shot's block is the probe want."""
    r_end = 1.0 if shot.blowup_radius is None else shot.blowup_radius
    e_inv = 1.0 / (prob.p - 1.0)
    reading = _kernel.reduce(shot.dense.block, shot.dense.n, EPS, r_end,
                             radial_ivp.PROBE_SAMPLES, prob.N, e_inv)
    if reading is not None:
        blowup = shot.blowup_radius is not None
        d = math.copysign(radial_ivp.BLOWUP_MISS, reading.u_end) if blowup else reading.u1
        assert_same_probe(radial_ivp.Probe(d, reading.z, blowup, reading.sup_u, shot.steps),
                          want)
    return reading


def assert_post_pass_matches_reference(monkeypatch, prob, alpha, *, rtol=1e-10, atol=1e-12,
                                       blowup_limit=radial_ivp.BLOWUP_LIMIT, n_samples=513,
                                       fused=True):
    """The shot is the same on both paths, and so is what the post-pass on
    the kernel and its reference return for its block; the probe of prob is
    the probe of the whole shot on both paths, fused (unless the march is
    edited) and reduced from the shot's block on the kernel.  Returns the
    shot and the kernel's reduction of the probe's shot (None where it hands
    back)."""
    tols = dict(rtol=rtol, atol=atol, blowup_limit=blowup_limit)
    got, want = _on_both_paths(monkeypatch,
                                lambda: shoot(prob, alpha, n_samples=n_samples, **tols))
    assert_same_shot(got, want)
    reduced, reference = _on_both_paths(
        monkeypatch, lambda: radial_ivp._shoot_and_reduce(prob, alpha, **tols))
    assert_same_probe(reduced, reference)
    if fused:
        assert_same_probe(probe(prob, alpha, **tols), reference)
    probe_shot = shoot(prob, alpha, n_samples=radial_ivp.PROBE_SAMPLES, **tols)
    reading = assert_reduction_matches(probe_shot, prob, reference)
    r_end = 1.0 if got.blowup_radius is None else got.blowup_radius
    scan = _kernel.scan(got.dense.block, got.dense.n, EPS, r_end, n_samples, prob.N,
                        1.0 / (prob.p - 1.0))
    if scan is not None:
        *samples, brackets = radial_ivp._scan_reference(got.dense, EPS, r_end, n_samples,
                                                        prob.N, 1.0 / (prob.p - 1.0))
        assert len(samples) == 6
        for a, b in zip(scan, samples):  # grid, u, v, tail maxima, u(1), sup |u'|
            assert _same_bits(a, b)
        zeros = radial_ivp._locate_zeros(brackets, prob.N, 1.0 / (prob.p - 1.0))
        assert _same_bits(scan[6], zeros) and len(scan[6]) == len(zeros)
    return got, reading


def _hand_built_rational(p):
    f = Nonlinearity.rational(p, f0=1.1, finf=2.3, q=2.2)
    return Nonlinearity(fn=f.fn, f0=f.f0, finf=f.finf)


EPS = radial_ivp.DEFAULT_EPS
H0 = 2.0  # a constant source: u = alpha - H0 r^2 / 2 for p = 2, N = 1
POST_PASS_CASES = {
    # m = -1: u passes the 1e12 guard at r ~ 0.897
    "blowup": (Problem.linear(2.0, 1, Weight.constant(-1.0), 1e3), 1.0, {}),
    # 67 steps of (r_end - eps) / 67 from eps miss r_end = 0.3189; numpy's
    # linspace puts its last point on r_end
    "blowup-68-samples": (Problem.linear(2.0, 1, Weight.poly([1.0, -8.0]), 3.0e4), 1.0,
                          dict(n_samples=68)),
    # mu_1^+ of 1 - 8r: the tail filter drops the one sign change of the
    # shot, an interior zero below the noise floor with a collapsed slope;
    # the kernel decides that itself
    "noise-tail": (Problem.linear(2.0, 1, Weight.poly([1.0, -8.0]), 67.67648508344031), 1.0,
                   dict(blowup_limit=1e100, n_samples=65)),
    "cos64-N1": (Problem.linear(1.5, 1, COS64, -1625.6), 1.0, {}),
    "cos64-N2": (Problem.linear(1.2, 2, COS64, 5000.0), 1.0, dict(rtol=1e-8, atol=1e-10)),
    "linear-N1": (Problem.linear(2.5, 1, M_LIN, 300.0), -1.0, {}),
    "linear-N2": (Problem.linear(2.5, 2, M_LIN, 900.0), 1.0, dict(n_samples=65)),
    "linear-N3": (Problem.linear(3.0, 3, M_LIN, 900.0), 1.0, {}),
    # 5,819 accepted steps: the fused probe grows its buffer past 4,096 steps
    "long-shot": (Problem.linear(1.2, 1, M1, 250.0), 1.0, {}),
    "rational-N2": (Problem.nonlinear(2.5, 2, M_LIN, 37.5, Nonlinearity.rational(2.5)), 3.0, {}),
    "perturbed-N3": (Problem.perturbed(2.0, 3, M_LIN, 300.0, Perturbation(2.0)), 0.5, {}),
    # the Python stepper: u(eps) = alpha - H0 eps^2 / 2 is exactly 0.0, a zero at a node
    "source-zero-at-node": (source_problem(2.0, 1, lambda r: H0), H0 * EPS**2 / 2, {}),
    "hand-built-f": (Problem.nonlinear(2.5, 2, M_LIN, 300.0, _hand_built_rational(2.5)), 1.0,
                     {}),
    # |u|^2.2 passes the largest double: Python raises OverflowError, and the
    # kernel hands the shot back
    "rational-handed-back": (Problem.nonlinear(2.0, 1, Weight.constant(-1.0), 50.0,
                                               Nonlinearity.rational(2.0, 1.0, 0.5, 2.2)),
                             1e139, dict(blowup_limit=1e300)),
}
RAISING = {"rational-handed-back": OverflowError}


def assert_raises_alike(monkeypatch, prob, alpha, error, **kw):
    """Every path raises the same error, and the kernel hands the shot back."""
    raised = []
    for fn in (lambda: shoot(prob, alpha, **kw), lambda: probe(prob, alpha, **kw),
               lambda: radial_ivp._shoot_and_reduce(prob, alpha, **kw)):
        for run in _on_both_paths(monkeypatch, lambda fn=fn: _raised(fn)):
            raised.append(run)
    assert raised == [raised[0]] * len(raised) and raised[0][0] is error
    return raised[0]


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.kernel
@pytest.mark.parametrize("case", sorted(POST_PASS_CASES))
def test_post_pass_matches_reference(monkeypatch, scan_results, probe_results, shoot_results,
                                     case):
    prob, alpha, kw = POST_PASS_CASES[case]
    if case in RAISING:
        kw = dict(dict(rtol=1e-10, atol=1e-12), **kw)
        assert_raises_alike(monkeypatch, prob, alpha, RAISING[case], **kw)
        if _kernel.load() is not None:
            # the kernel hands back the shot, the probe and the shot of the
            # probe's shoot-and-reduce
            assert probe_results == [None] and shoot_results == [None] * 3
        return
    shot, reading = assert_post_pass_matches_reference(monkeypatch, prob, alpha, **kw)
    if case.startswith("blowup"):
        assert shot.blowup_radius is not None and shot.terminal is None
    elif case == "noise-tail":
        brackets = radial_ivp._scan_reference(shot.dense, EPS, 1.0, 65, 1, 1.0)[-1]
        assert len(brackets) == 1 and shot.zeros == ()
        assert reading.z == 0 if _kernel.load() else reading is None
    elif case == "source-zero-at-node":
        assert shot.u[0] == 0.0 and shot.zeros[0].r == EPS
    elif case == "long-shot":
        assert shot.steps.accepted > _kernel.FIRST_CAPACITY
    else:
        assert shot.zeros
    if _kernel.load() is not None:
        # the fused probe is one kernel call where the right-hand side has a
        # compiled form, else a shot
        has_form = prob.rhs.compiled(prob.p, prob.N, prob.m) is not None
        assert len(probe_results) == has_form and None not in probe_results
        # so are the shot, the probe's shot in shoot-and-reduce and the shot
        # for _kernel.reduce; the explicit scan reads the first again
        assert len(shoot_results) == 3 * has_form and None not in shoot_results
        assert len(scan_results) == 1 and None not in scan_results


@pytest.mark.kernel
def test_post_pass_on_the_kernel_where_a_compiler_is(shoot_results):
    shoot(Problem.linear(2.5, 1, M_LIN, 300.0), 1.0)
    assert len(shoot_results) == 1
    assert (shoot_results[0] is not None) == _has_compiler()


@pytest.mark.kernel
@needs_kernel
def test_sup_uprime_takes_libm_powers_on_both_passes():
    # numpy's array power need not round as libm's pow does; the kernel and
    # its reference take r^(N-1) and the outer power with libm's, so they
    # agree by bits on shots where array powers would not.  Each shot here
    # has u = 1 and a constant v on each of its 8 steps, random in units of
    # the step's first r^(N-1), so that |u'| peaks at a random node.
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        n, n_dim, e_inv = 8, int(rng.integers(1, 6)), 1.0 / (rng.uniform(1.2, 6.0) - 1.0)
        nodes = np.concatenate(([EPS], np.sort(rng.uniform(EPS, 1.0, n - 1)), [1.0]))
        v = rng.uniform(-1.0, 1.0, n) * 10.0**rng.integers(-3, 4) * nodes[:n]**(n_dim - 1)
        starts = np.column_stack((np.ones(n), v))
        block = np.concatenate((nodes, starts.ravel(), np.diff(nodes), np.zeros(8 * n)))
        got = _kernel.scan(block, n, EPS, 1.0, 9, n_dim, e_inv)[5]
        want = radial_ivp._scan_reference(DenseOutput(block, n), EPS, 1.0, 9, n_dim, e_inv)[5]
        assert _same_bits(got, want)


@needs_kernel
def test_post_pass_refuses_a_block_of_another_size():
    for pass_ in (lambda b: _kernel.scan(b, 1, EPS, 1.0, 65, 1, 1.0),
                  lambda b: _kernel.reduce(b, 1, EPS, 1.0, 65, 1, 1.0)):
        with pytest.raises(ValueError, match="dense block of 1 steps holds 13"):
            pass_(np.zeros(12))


CUT = np.nextafter(1.0, 0.0)  # 1 ulp below r = 1


def _zero_last_ulp(n, b):
    """The last step ends at CUT, and a step of 1 ulp follows, with u = 0 on
    it: its midpoint rounds to 1, the node after it, and u is 0.0 at both."""
    u_cut, v_cut = DenseOutput(b, n).eval_scalar(CUT)
    return n + 1, np.concatenate((
        b[:n], [CUT, 1.0],                                  # nodes
        b[n + 1:3 * n + 1], [0.0, v_cut],                   # start values
        b[3 * n + 1:4 * n], [CUT - b[n - 1], 1.0 - CUT],    # step sizes
        b[4 * n + 1:], [0.0] * 4 + [1e-17] * 4,             # coefficients
    ))


def _nan_inside(n, b):
    """One step in the middle has NaN coefficients, its neighbours do not."""
    b = b.copy()
    b[4 * n + 1 + 8 * (n // 2):4 * n + 1 + 8 * (n // 2 + 1)] = math.nan
    return n, b


def _twin_zero(n, b):
    """Step k = n // 2 has u = theta - 1, which vanishes at its end, and the
    step after it starts at u = 1e-300 and falls: the sign changes on both
    sides of their common node refine to zeros within 10 ZERO_XTOL."""
    b, k = b.copy(), n // 2
    for i, (u0, c0) in ((k, (-1.0, 1.0)), (k + 1, (1e-300, -1.0))):
        b[n + 1 + 2 * i] = u0
        b[4 * n + 1 + 8 * i:4 * n + 1 + 8 * i + 4] = (c0, 0.0, 0.0, 0.0)
    return n, b


NEAR_ONE = 1.0 - 2e-7


def _zero_near_one(n, b):
    """The last step ends at NEAR_ONE, and a step to 1 follows on which
    u = 2 theta - 1 and v is constant: a zero at 1 - 1e-7, which is not
    interior, with |u| back to 1 at r = 1, above the noise floor."""
    _, v_end = DenseOutput(b, n).eval_scalar(NEAR_ONE)
    return n + 1, np.concatenate((
        b[:n], [NEAR_ONE, 1.0],                                 # nodes
        b[n + 1:3 * n + 1], [-1.0, v_end],                      # start values
        b[3 * n + 1:4 * n], [NEAR_ONE - b[n - 1], 1.0 - NEAR_ONE],  # step sizes
        b[4 * n + 1:], [2.0, 0.0, 0.0, 0.0] + [0.0] * 4,        # coefficients
    ))


STEEP_FROM = 0.999


def _steep_zero_under_noise(n, b):
    """The steps that start below STEEP_FROM, the last cut to end there, and
    a step to 1 on which u = 1e-12 (2 theta - 1) and v is the v of largest
    magnitude among the start values: an interior zero at 0.9995 with |u|
    under the noise floor after it, and a slope that has not collapsed."""
    k = int(np.searchsorted(b[:n], STEEP_FROM))  # the steps kept
    vs = b[n + 2:3 * n + 1:2]
    v_big = vs[np.argmax(np.abs(vs))]
    return k + 1, np.concatenate((
        b[:k], [STEEP_FROM, 1.0],                                   # nodes
        b[n + 1:n + 1 + 2 * k], [-1e-12, v_big],                    # start values
        b[3 * n + 1:3 * n + k], [STEEP_FROM - b[k - 1], 1.0 - STEEP_FROM],  # step sizes
        b[4 * n + 1:4 * n + 1 + 8 * k], [2e-12, 0.0, 0.0, 0.0] + [0.0] * 4,  # coefficients
    ))


def _edited(integrate_fn, edit):
    """integrate_fn with edit(n, block) -> (n, block) applied to its dense output."""

    def integrate_edited(*args, **kwargs):
        _, dense, blowup_t, steps = integrate_fn(*args, **kwargs)
        n, block = edit(dense.n, dense.block)
        return block[:n + 1], DenseOutput(block, n), blowup_t, steps

    return integrate_edited


@pytest.mark.kernel
@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("edit", [_zero_last_ulp, _nan_inside, _twin_zero, _zero_near_one,
                                  _steep_zero_under_noise])
def test_post_pass_matches_reference_on_edited_shots(monkeypatch, scan_results, edit, n_dim):
    # the kernel's shots and probes never see an edited march: every shot
    # takes the Python path, and the kernel's post-pass and reduction of the
    # edited block stand in for them
    monkeypatch.setattr(radial_ivp, "integrate", _edited(radial_ivp.integrate, edit))
    monkeypatch.setattr(_kernel, "shoot", lambda shot: None)
    prob = Problem.linear(2.5, n_dim, M_LIN, 300.0)
    shot, reading = assert_post_pass_matches_reference(monkeypatch, prob, 1.0, fused=False)
    if edit is _zero_last_ulp:
        assert 0.5 * (CUT + 1.0) == 1.0 and shot.dense.block[shot.dense.n - 1] == CUT
        assert shot.terminal[0] == 0.0 and shot.zeros[-1].r == CUT
    elif edit is _nan_inside:
        assert math.isnan(shot.sup_u) and not math.isnan(shot.u[-1])
    elif edit is _twin_zero:
        node = shot.dense.block[shot.dense.n // 2 + 1]
        brackets = radial_ivp._scan_reference(shot.dense, EPS, 1.0, 513, n_dim, 1 / 1.5)[-1]
        assert sum(abs(a - node) < 1e-9 or abs(b - node) < 1e-9 for a, b, *_ in brackets) == 2
        assert sum(abs(z.r - node) < 10 * radial_ivp.ZERO_XTOL for z in shot.zeros) == 1
    elif edit is _zero_near_one:
        assert 1.0 - radial_ivp.BOUNDARY_MARGIN < shot.zeros[-1].r < 1.0
        assert len(shot.interior_zeros) == len(shot.zeros) - 1
    else:  # the tail filter reads the slope of the last zero, and keeps it
        last = shot.zeros[-1]
        assert abs(last.r - 0.9995) < 1e-12 and shot.interior_zeros[-1] == last
        assert np.max(np.abs(shot.u[shot.r > last.r])) < radial_ivp.TAIL_NOISE_FACTOR * shot.sup_u
        assert abs(last.uprime) >= radial_ivp.TAIL_SLOPE_FACTOR * shot.sup_uprime
        assert reading is None or reading.z == len(shot.interior_zeros)
    if _kernel.load() is not None:
        assert reading is not None
        assert len(scan_results) == 1 and None not in scan_results


def assert_probe_matches_shoot_and_reduce(prob, alpha, **kw):
    try:
        want = radial_ivp._shoot_and_reduce(prob, alpha, **kw)
    except IntegrationError:  # step size underflow
        assert _raised(lambda: probe(prob, alpha, **kw)) == \
            _raised(lambda: radial_ivp._shoot_and_reduce(prob, alpha, **kw))
        return
    assert_same_probe(probe(prob, alpha, **kw), want)


@pytest.mark.kernel
@pytest.mark.parametrize("weight", sorted(FUSED_WEIGHTS) + ["cos64"])
@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("p", GRID_P)
def test_probe_matches_shoot_and_reduce(p, n_dim, weight, probe_results):
    m = COS64 if weight == "cos64" else FUSED_WEIGHTS[weight]
    i = GRID_P.index(p) * 3 + n_dim
    f0, finf, q = RATIONAL_PARAMS[i % len(RATIONAL_PARAMS)]
    c, delta = PERTURBATIONS[i % len(PERTURBATIONS)]
    calls = 0
    for (rtol, atol), limit in (((1e-10, 1e-12), radial_ivp.BLOWUP_LIMIT),
                                ((1e-6, 1e-8), 1e100)):  # the tight and the loose tolerances
        for mu in (37.5, -0.3, 900.0, -2500.0):
            for alpha in (1.0, -2.5e-3):
                assert_probe_matches_shoot_and_reduce(Problem.linear(p, n_dim, m, mu), alpha,
                                                      rtol=rtol, atol=atol, blowup_limit=limit)
        for j, gamma in enumerate((37.5, -0.3)):
            alpha = AMPLITUDES[(i + j) % len(AMPLITUDES)]
            for prob in (
                Problem.nonlinear(p, n_dim, m, gamma, Nonlinearity.rational(p, f0, finf, q)),
                Problem.nonlinear(p, n_dim, m, gamma, Nonlinearity.phi(p)),
                Problem.perturbed(p, n_dim, m, gamma, Perturbation(p, c, delta)),
            ):
                assert_probe_matches_shoot_and_reduce(prob, alpha, rtol=rtol, atol=atol,
                                                      blowup_limit=limit)
        calls += 8 + 6
    if _kernel.load() is not None:
        assert len(probe_results) == calls and None not in probe_results


@pytest.mark.kernel
def test_probe_does_not_shoot_where_a_compiler_is(monkeypatch):
    shots = []
    monkeypatch.setattr(radial_ivp, "shoot", lambda *a, **kw: shots.append(a) or shoot(*a, **kw))
    prob = Problem.nonlinear(2.5, 2, M_LIN, 37.5, Nonlinearity.rational(2.5))
    pr = probe(prob, 1.0, rtol=1e-10, atol=1e-12)
    assert len(shots) == (not _has_compiler())
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert_same_probe(probe(prob, 1.0, rtol=1e-10, atol=1e-12), pr)
    assert len(shots) == 1 + (not _has_compiler())


@pytest.mark.kernel
def test_compiled_probe_calls_no_python_f(monkeypatch):
    # the kernel starts the shot as well: no right-hand side is made in
    # Python, so no Python f runs; the Python path makes two per probe
    made = []
    for cls in (LinearRHS, radial_ivp.NonlinearRHS, radial_ivp.PerturbedRHS):
        monkeypatch.setattr(cls, "make", lambda self, *args, make=cls.make:
                            made.append(self) or make(self, *args))
    probs = [Problem.linear(2.5, 2, M_LIN, 37.5),
             Problem.nonlinear(2.5, 3, M_LIN, 37.5, Nonlinearity.rational(2.5)),
             Problem.nonlinear(2.5, 1, M_LIN, 37.5, Nonlinearity.phi(2.5)),
             Problem.perturbed(2.5, 2, M_LIN, 37.5, Perturbation(2.5))]
    kernel = [probe(prob, 1.0, rtol=1e-10, atol=1e-12) for prob in probs]
    assert len(made) == (0 if _has_compiler() else 2 * len(probs))
    monkeypatch.setattr(_kernel, "load", lambda: None)
    for prob, pr in zip(probs, kernel):
        assert_same_probe(probe(prob, 1.0, rtol=1e-10, atol=1e-12), pr)
    assert len(made) == (2 if _has_compiler() else 4) * len(probs)


@pytest.mark.kernel
@needs_kernel
def test_probe_step_underflow_raises_the_python_error(probe_results):
    kw = dict(rtol=1e-100, atol=1e-150)
    prob = Problem.linear(2.0, 1, M1, 10.0)
    errors = [_raised(lambda: probe(prob, 1.0, **kw)),
              _raised(lambda: radial_ivp._shoot_and_reduce(prob, 1.0, **kw))]
    assert errors == [(IntegrationError, "step size underflow at r = 1.000000e-06")] * 2
    assert [out[0] for out in probe_results] == [_kernel.UNDERFLOW]


def test_hand_built_nonlinearity_takes_the_python_stepper(shoot_results):
    built_in = Nonlinearity.rational(2.5, f0=1.1, finf=2.3, q=2.2)
    hand_built = Nonlinearity(fn=built_in.fn, f0=built_in.f0, finf=built_in.finf)
    got = shoot(Problem.nonlinear(2.5, 2, M_LIN, 37.5, hand_built), 1.0)
    assert shoot_results == []
    want = shoot(Problem.nonlinear(2.5, 2, M_LIN, 37.5, built_in), 1.0)
    assert len(shoot_results) == (_kernel.load() is not None) and None not in shoot_results
    assert_same_shot(got, want)


class _DoubledPerturbation(Perturbation):
    def __call__(self, mval, r, u, mu):
        return 2.0 * super().__call__(mval, r, u, mu)


def test_perturbation_subclass_stays_on_the_python_stepper(shoot_results):
    prob = Problem.perturbed(2.0, 1, M_LIN, 30.0, _DoubledPerturbation(2.0))
    doubled = shoot(prob, 0.5)
    assert shoot_results == []
    plain = shoot(Problem.perturbed(2.0, 1, M_LIN, 30.0, Perturbation(2.0)), 0.5)
    assert doubled.terminal != plain.terminal  # its own __call__ ran


@pytest.mark.kernel
@needs_kernel
def test_kernel_hands_back_a_rational_shot_whose_power_overflows(shoot_results):
    # u starts at 1e139, where |u|^2.2 is finite, and grows like cosh(5 r)
    # under m = -1 until |u|^2.2 passes the largest double; Python raises
    # OverflowError there, so the kernel hands the shot back (finf < 1, so
    # that finf |u|^q does not overflow first, to inf without an error)
    f = Nonlinearity.rational(2.0, f0=1.0, finf=0.5, q=2.2)
    prob = Problem.nonlinear(2.0, 1, Weight.constant(-1.0), 50.0, f)
    raised = _raised_on_both_paths(prob, 1e139, blowup_limit=math.inf)
    assert raised[0] == raised[1] and raised[0][0] is OverflowError
    assert shoot_results == [None]


def _has_compiler():
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return bool(cc) and shutil.which(cc[0]) is not None


def _c_constants():
    """The #define values and enum members of the kernel source, by name."""
    with open(_kernel.SOURCE) as fh:
        source = fh.read()
    values = {name: eval(value) for name, value in  # a number, or a quotient of two
              re.findall(r"^#define (\w+) (\(?-?[\d.e-]+(?: / [\d.]+)?\)?)\s", source, re.M)}
    for body in re.findall(r"enum \{(.*?)\}", source, re.S):
        values.update((name, int(v)) for name, v in re.findall(r"(\w+) = (\d+)", body))
    return values


def _c_struct_fields(name):
    """(field, C type) of the typedef struct name of the kernel source, in order."""
    with open(_kernel.SOURCE) as fh:
        source = re.sub(r"/\*.*?\*/", "", fh.read(), flags=re.S)
    body = re.search(r"typedef struct \{([^}]*)\} " + name + ";", source).group(1)
    fields = []
    for decl in filter(None, (d.strip() for d in body.split(";"))):
        c_type, names = re.fullmatch(r"((?:const )?\w+ ?\*?)\s*(.*)", decl, re.S).groups()
        fields += [(n.strip(), c_type.strip()) for n in names.split(",")]
    return fields


C_TYPES = {"int64_t": ctypes.c_int64, "int": ctypes.c_int, "double": ctypes.c_double,
           "const double *": ctypes.c_void_p, "const int64_t *": ctypes.c_void_p,
           "Rhs": _kernel.Rhs}


@pytest.mark.kernel
def test_kernel_structs_match_ctypes():
    # ctypes lays out _kernel.Rhs and _kernel.Shot by their field lists; a
    # field added, dropped or retyped on one side only shifts every field
    # after it
    for struct in (_kernel.Rhs, _kernel.Shot):
        c = [(name, C_TYPES[c_type]) for name, c_type in _c_struct_fields(struct.__name__)]
        assert c == list(struct._fields_)


@pytest.mark.kernel
def test_kernel_constants_match_python():
    # _rk45_kernel.c repeats these; a value changed on one side only would
    # break the bit-identity of the two paths
    c = _c_constants()
    brent_maxiter = inspect.signature(radial_ivp.brentq).parameters["maxiter"].default
    assert _kernel.BRENT_MAXITER == brent_maxiter
    python = {
        "BLOWUP_MISS": radial_ivp.BLOWUP_MISS,
        "ZERO_XTOL": radial_ivp.ZERO_XTOL, "ZERO_RTOL": radial_ivp.ZERO_RTOL,
        "BRENT_MAXITER": brent_maxiter,
        "BOUNDARY_MARGIN": radial_ivp.BOUNDARY_MARGIN,
        "TAIL_NOISE_FACTOR": radial_ivp.TAIL_NOISE_FACTOR,
        "TAIL_SLOPE_FACTOR": radial_ivp.TAIL_SLOPE_FACTOR,
        "LOG_ROW": _kernel.LOG_ROW,
    }
    python.update((f"PSPECT_{name}", getattr(_kernel, name))
                  for name in ("END", "BLOWUP", "UNDERFLOW", "FULL", "RERUN"))
    python.update((name, getattr(_kernel, name))
                  for name in ("LINEAR", "PHI", "RATIONAL", "PERTURBED"))
    # the Dormand-Prince coefficients and step-size factors of _rk45
    python.update((name, getattr(_rk45, "_" + name))
                  for name in c if hasattr(_rk45, "_" + name))
    assert len(python) == 17 + 48 + 3
    assert {name: c.get(name) for name in python} == python
    assert sorted(n for n in c if n.startswith("PSPECT_")) == sorted(
        n for n in python if n.startswith("PSPECT_"))


@pytest.mark.kernel
def test_kernel_in_use_where_a_compiler_is(shoot_results):
    has_cc = _has_compiler()
    assert (_kernel.load() is not None) == has_cc
    assert shoot(Problem.linear(2.0, 1, M1, 120.0), 1.0).steps.accepted > 10
    assert len(shoot_results) == 1 and (shoot_results[0] is not None) == has_cc


def _marches(monkeypatch):
    """The calls of the Python stepper from shoot."""
    calls = []
    monkeypatch.setattr(radial_ivp, "integrate",
                        lambda *a, **kw: calls.append(a) or integrate(*a, **kw))
    return calls


@pytest.mark.kernel
def test_nonlinear_and_perturbed_shots_on_the_kernel_where_a_compiler_is(monkeypatch):
    # no Python f runs: the Python stepper is not called
    marches = _marches(monkeypatch)
    for prob in (Problem.nonlinear(2.5, 2, M_LIN, 37.5, Nonlinearity.rational(2.5)),
                 Problem.perturbed(2.5, 2, M_LIN, 37.5, Perturbation(2.5))):
        assert shoot(prob, 1.0).steps.accepted > 10
    assert len(marches) == (0 if _has_compiler() else 2)


@pytest.mark.kernel
def test_shoot_raises_and_hands_back_alike_on_both_paths(shoot_results):
    prob = Problem.linear(2.5, 2, M_LIN, 37.5)
    for alpha, kw, message in (
            (0.0, {}, "initial value alpha must be nonzero"),
            (1.0, dict(eps=1e-3), "startup radius must lie in (0, 1e-4], got 0.001"),
            (1.0, dict(eps=0.0), "startup radius must lie in (0, 1e-4], got 0.0")):
        assert _raised_on_both_paths(prob, alpha, **kw) == [(PreconditionError, message)] * 2
    # a grid of one sample: the kernel hands the shot back to the Python path
    assert_kernel_matches_reference(prob, n_samples=1)
    assert shoot_results == [None] * 3  # the two radii and the grid


@pytest.mark.kernel
@pytest.mark.parametrize("blowup_limit", [radial_ivp.BLOWUP_LIMIT, math.inf])
def test_compiled_shoot_is_one_kernel_call(monkeypatch, shoot_results, blowup_limit):
    # the kernel starts, marches and reads the shot: no right-hand side is
    # made in Python and the Python stepper is not called
    made, marches = [], _marches(monkeypatch)
    for cls in (LinearRHS, NonlinearRHS, PerturbedRHS):
        monkeypatch.setattr(cls, "make", lambda self, *args, make=cls.make:
                            made.append(self) or make(self, *args))
    probs = [Problem.linear(2.5, 2, M_LIN, 37.5),
             Problem.nonlinear(2.5, 3, M_LIN, 37.5, Nonlinearity.rational(2.5)),
             Problem.nonlinear(2.5, 1, M_LIN, 37.5, Nonlinearity.phi(2.5)),
             Problem.perturbed(2.5, 2, M_LIN, 37.5, Perturbation(2.5))]
    shots = [shoot(prob, 1.0, blowup_limit=blowup_limit) for prob in probs]
    on_kernel = _has_compiler()
    assert len(shoot_results) == len(probs) and (None in shoot_results) != on_kernel
    assert (len(made), len(marches)) == ((0, 0) if on_kernel else (len(probs), len(probs)))
    monkeypatch.setattr(_kernel, "load", lambda: None)
    for prob, shot in zip(probs, shots):
        assert_same_shot(shoot(prob, 1.0, blowup_limit=blowup_limit), shot)


def test_discarded_shots_release_their_dense_output():
    # a shot must leave nothing on a reference cycle, such as the one
    # scipy's brentq wrapper makes by referring to itself through a closure
    # cell, or it lives until the cyclic collector runs
    prob = Problem.linear(2.0, 1, M1, (9 * math.pi / 2) ** 2)  # 4 interior zeros
    kw = dict(rtol=1e-6, atol=1e-8, n_samples=65)  # fewer steps: tracing is slow
    assert len(shoot(prob, 1.0, **kw).interior_zeros) == 4
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = shoot(prob, 1.0, **kw)
        one_shot = tracemalloc.get_traced_memory()[0] - base
        del kept
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            shoot(prob, 1.0, **kw)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert grown < 2 * one_shot, (grown, one_shot)


# ---------------------------------------------------------------------------
# one kernel call per root solve of the miss (radial_ivp.solve_miss), to
# the bits of Brent's method over probe


@pytest.mark.kernel
@needs_kernel
def test_hypot_port_matches_math_hypot():
    rng = np.random.default_rng(20261018)
    n = 100_000
    # normal-range magnitudes from 1e-307 to 1e308, ratios up to 1e20, both signs
    e1 = rng.uniform(-307.0, 308.0, n)
    e2 = np.clip(e1 + rng.uniform(-20.0, 20.0, n), -307.0, 308.0)
    signs = rng.choice((-1.0, 1.0), (2, n))
    pairs = list(zip((signs[0] * 10.0**e1).tolist(), (signs[1] * 10.0**e2).tolist()))
    pairs += [(float(a), float(b)) for a in range(-12, 13) for b in range(-12, 13)]
    pairs += [(z, x) for z in (0.0, -0.0) for x in (0.0, -0.0, 1.0, -3.5, 1e-300, 1e308)]
    pairs += [(y, x) for x, y in pairs[-12:]]
    mismatched = [(x, y) for x, y in pairs
                  if not _same_bits(_kernel.hypot(x, y), math.hypot(x, y))]
    assert mismatched == []


@pytest.mark.kernel
@needs_kernel
@pytest.mark.parametrize("x,y", [(5e-324, 1.0), (1.0, -2.2e-308), (math.inf, 1.0),
                                 (1.0, -math.inf), (math.nan, 0.0), (math.inf, math.nan)])
def test_hypot_port_hands_back_subnormal_and_non_finite_inputs(x, y):
    assert _kernel.hypot(x, y) is None and _kernel.hypot(y, x) is None


@pytest.fixture
def solve_results(monkeypatch):
    return _spy(monkeypatch, "solve")


SOLVE_WEIGHTS = {"constant": M1, "linear": M_LIN, "cos64": COS64}
TIGHT = dict(rtol=1e-10, atol=1e-12)
XTOL = dict(xtol=1e-15, xrtol=8.9e-16)  # those of the gamma and amplitude solves


def _first_bracket(probe_at, xs):
    """The first pair of neighbours in xs across which the miss changes sign,
    with their probes."""
    a, pr_a = xs[0], probe_at(xs[0])
    for b in xs[1:]:
        pr_b = probe_at(b)
        if pr_a.d * pr_b.d < 0:
            return a, b, pr_a, pr_b
        a, pr_a = b, pr_b
    raise AssertionError("no bracket")


def assert_solve_matches_brentq_over_probe(prob, alpha, bracket, in_alpha=False, **xtol):
    """solve_miss returns the root of Brent's method over probe and the probe
    there, or raises what it raises."""
    a, b, pr_a, pr_b = bracket
    tried = {}

    def miss(x):
        tried[x] = radial_ivp._probe_at(prob, alpha, x, in_alpha, TIGHT["rtol"], TIGHT["atol"])
        return tried[x].d

    def want():
        root = radial_ivp.brentq(miss, a, b, xtol=xtol["xtol"], rtol=xtol["xrtol"],
                                 fa=pr_a.d, fb=pr_b.d)
        return root, tried.get(root) or (pr_a if root == a else pr_b)

    def got():
        return radial_ivp.solve_miss(prob, alpha, a, b, (pr_a, pr_b), in_alpha=in_alpha,
                                     **TIGHT, **xtol)

    try:
        root_want, pr_want = want()
    except Exception:
        assert _raised(got) == _raised(want)
        return None
    root, pr = got()
    assert _same_bits(root, root_want) and type(root) is float
    assert_same_probe(pr, pr_want)
    return root


@pytest.mark.kernel
@pytest.mark.parametrize("weight", sorted(SOLVE_WEIGHTS))
@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("p", GRID_P[:3] + [6.0])
def test_solve_matches_brentq_over_probe(p, n_dim, weight, solve_results):
    m = SOLVE_WEIGHTS[weight]
    lams = [2.0**k for k in range(-2, 18)]
    for prob, alpha in ((Problem.nonlinear(p, n_dim, m, 1.0, Nonlinearity.phi(p)), 1.0),
                        (Problem.nonlinear(p, n_dim, m, 1.0, Nonlinearity.rational(p)), 1.0),
                        (Problem.perturbed(p, n_dim, m, 1.0, Perturbation(p)), 0.5)):
        # in gamma or mu, on the first sign change from below
        bracket = _first_bracket(lambda x: probe(prob.at(x), alpha, **TIGHT), lams)
        root = assert_solve_matches_brentq_over_probe(prob, alpha, bracket, **XTOL)
        if prob.rhs.compiled(p, n_dim, m).family == _kernel.PHI:
            continue  # u(1) is homogeneous in alpha: no root in alpha
        # in alpha, at the parameter that root gives alpha
        at_root = prob.at(root)
        bracket = _first_bracket(lambda x: probe(at_root, x, **TIGHT), [alpha / 2, alpha * 2])
        assert_solve_matches_brentq_over_probe(at_root, None, bracket, in_alpha=True, **XTOL)
    if _kernel.load() is not None:
        assert len(solve_results) == 5 and None not in solve_results


@pytest.mark.kernel
def test_solve_through_shots_that_blow_up(monkeypatch, solve_results):
    # on 1 - 8r the shots from mu = 2048 and 4096 pass the blow-up limit with
    # opposite signs, and so does every trial between them: the root is
    # where the sign of the blow-up flips
    prob = Problem.perturbed(2.0, 1, Weight.poly([1.0, -8.0]), 1.0, Perturbation(2.0))
    probes = []
    monkeypatch.setattr(radial_ivp, "probe", lambda *a, **kw: probes.append(probe(*a, **kw))
                        or probes[-1])
    bracket = _first_bracket(lambda x: probe(prob.at(x), 0.5, **TIGHT), [2048.0, 4096.0])
    root = assert_solve_matches_brentq_over_probe(prob, 0.5, bracket, xtol=1e-14, xrtol=1e-13)
    assert 2048.0 < root < 4096.0 and len(probes) > 10
    assert all(pr.blowup and abs(pr.d) == radial_ivp.BLOWUP_MISS for pr in probes)
    assert len(solve_results) == 1 and (solve_results[0] is None) == (_kernel.load() is None)


@pytest.mark.kernel
@needs_kernel
def test_solve_grows_its_buffers(monkeypatch, solve_results):
    monkeypatch.setattr(_kernel, "FIRST_CAPACITY", 3)
    prob = Problem.nonlinear(2.5, 2, M_LIN, 1.0, Nonlinearity.rational(2.5))
    bracket = _first_bracket(lambda x: probe(prob.at(x), 1.0, **TIGHT), [2.0, 200.0])
    assert_solve_matches_brentq_over_probe(prob, 1.0, bracket, **XTOL)
    assert len(solve_results) == 1 and solve_results[0] is not None


def _fake_probe(d):
    return radial_ivp.Probe(d, 0, False, 1.0, radial_ivp.StepCounts.of(0, 0))


@pytest.mark.kernel
@needs_kernel
@pytest.mark.parametrize("case", ["nan-end", "no-convergence", "underflow"])
def test_solve_hands_back_what_python_raises_on(case, solve_results):
    prob = Problem.nonlinear(2.0, 1, M1, 1.0, Nonlinearity.rational(2.0))
    tols = dict(TIGHT)
    if case == "underflow":
        tols = dict(rtol=1e-100, atol=1e-150)
    bracket = (1.0, 4.0, *(probe(prob.at(x), 1.0, **TIGHT) for x in (1.0, 4.0)))
    xtol = dict(XTOL, xtol=0.0, xrtol=0.0) if case == "no-convergence" else XTOL
    if case == "nan-end":
        bracket = (*bracket[:2], _fake_probe(math.nan), bracket[3])
    a, b, pr_a, pr_b = bracket
    raised = _raised(lambda: radial_ivp.solve_miss(prob, 1.0, a, b, (pr_a, pr_b), **tols,
                                                   **xtol))
    want = _raised(lambda: radial_ivp.brentq(
        lambda x: probe(prob.at(x), 1.0, **tols).d, a, b, xtol=xtol["xtol"],
        rtol=xtol["xrtol"], fa=pr_a.d, fb=pr_b.d))
    assert raised == want == {
        "nan-end": (ValueError, "f is NaN at an end of the bracket"),
        "no-convergence": (RuntimeError, "Failed to converge after 100 iterations."),
        "underflow": (IntegrationError, "step size underflow at r = 1.000000e-06"),
    }[case]
    assert solve_results == [None]


def test_solve_without_a_compiled_form_is_brentq_over_probe(monkeypatch, solve_results):
    built_in = Nonlinearity.rational(2.5, f0=1.1, finf=2.3, q=2.2)
    hand_built = Nonlinearity(fn=built_in.fn, f0=built_in.f0, finf=built_in.finf)
    roots = []
    for f in (hand_built, built_in):
        prob = Problem.nonlinear(2.5, 2, M_LIN, 1.0, f)
        bracket = _first_bracket(lambda x: probe(prob.at(x), 1.0, **TIGHT), [2.0, 200.0])
        roots.append(assert_solve_matches_brentq_over_probe(prob, 1.0, bracket, **XTOL))
    assert roots[0] == roots[1]
    assert len(solve_results) == 1  # the built-in f only
