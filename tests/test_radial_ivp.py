import ctypes
import gc
import glob
import inspect
import math
import os
import re
import subprocess
import sys
import sysconfig
import threading
import tracemalloc
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from pspect import _kernel, _rk45, radial_ivp
from pspect._rk45 import DenseOutput
from pspect.errors import IntegrationError, PreconditionError
from pspect.nodal import Nonlinearity, Perturbation
from pspect.pfuncs import pi_p
from pspect.radial_ivp import (
    LinearRHS,
    NonlinearRHS,
    PerturbedRHS,
    Problem,
    probe,
    shoot,
)
from pspect.weights import Weight

import reference
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
    _, us, zeros = rk4_shot(p, n_dim, partial(reference.weight_at, M1), mu, 1.0, n_steps=60000)
    assert abs(traj.terminal_u - us[-1]) < 1e-7
    assert len(traj.interior_zeros) == zeros


def test_shot_sign_changing_weight_against_reference():
    p, n_dim, mu = 2.5, 3, 50.0
    traj = shoot(Problem.linear(p, n_dim, M_LIN, mu), 1.0)
    _, us, zeros = rk4_shot(p, n_dim, partial(reference.weight_at, M_LIN), mu, 1.0,
                          n_steps=60000)
    assert abs(traj.terminal_u - us[-1]) < 1e-7
    assert len(traj.interior_zeros) == zeros


def _start(monkeypatch, prob, alpha, eps):
    """(u(eps), v(eps)) where the kernel's shot of prob starts, at eps."""
    monkeypatch.setattr(radial_ivp, "DEFAULT_EPS", eps)
    shot = shoot(prob, alpha)
    assert shot.r[0] == eps
    return shot.u[0], shot.v[0]


def test_origin_startup_cosine_series(monkeypatch):
    # p=2, N=1, m=1, mu=1: u(eps) = 1 - eps^2/2 + O(eps^3)
    prob = Problem.linear(2.0, 1, M1, 1.0)
    for eps in (1e-6, 1e-5):
        u_eps, v_eps = _start(monkeypatch, prob, 1.0, eps)
        assert abs(u_eps - (1.0 - eps**2 / 2)) < 2 * eps**3
        assert abs(v_eps + eps) < eps**2
        assert (u_eps, v_eps) == reference.origin_startup(prob, 1.0, eps)


def test_origin_startup_robustness(monkeypatch):
    # halving the startup radius changes the terminal value negligibly
    prob = Problem.linear(2.5, 2, M_LIN, 30.0)
    terminal = []
    for eps in (1e-4, 5e-5):
        monkeypatch.setattr(radial_ivp, "DEFAULT_EPS", eps)
        shot = shoot(prob, 1.0)
        assert shot.r[0] == eps  # the radius is read at the call
        terminal.append(shot.terminal_u)
    assert abs(terminal[0] - terminal[1]) <= 1e-9


def test_origin_startup_odd_mirror(monkeypatch):
    prob = Problem.linear(2.5, 1, M1, 7.0)
    up, vp = _start(monkeypatch, prob, 1.0, 1e-5)
    um, vm = _start(monkeypatch, prob, -1.0, 1e-5)
    assert um == -up and vm == -vp


def test_startup_eps_validation():
    # the reference's start takes eps as an argument, and checks it
    prob = Problem.linear(2.0, 1, M1, 1.0)
    with pytest.raises(PreconditionError):
        reference.origin_startup(prob, 1.0, 1e-3)
    with pytest.raises(PreconditionError):
        reference.origin_startup(prob, 1.0, 0.0)


def test_shoot_rejects_zero_amplitude():
    with pytest.raises(PreconditionError):
        shoot(Problem.linear(2.0, 1, M1, 1.0), 0.0)


def test_probe_rejects_zero_amplitude_before_the_kernel(probe_results):
    with pytest.raises(PreconditionError, match="initial value alpha must be nonzero"):
        probe(Problem.linear(2.0, 1, M1, 1.0), 0.0, rtol=1e-10, atol=1e-12)
    assert probe_results == []


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
    for _ in range(400):  # one step's quartic, as the zero refinement meets it
        t0, h = rng.random(), 10.0 ** rng.uniform(-6, -1)
        a = t0 + 0.5 * h * rng.random()
        b = a + h * rng.uniform(0.01, 0.5)
        c = rng.normal(size=5) * 10.0 ** rng.uniform(-12, 2, size=5)
        c[0] -= reference.quartic_on_step(0.5 * (a + b), math.inf, 0.0, t0, h, *c)
        ub = reference.quartic_on_step(b, math.inf, 0.0, t0, h, *c)
        cases.append((reference.quartic_on_step, a, b, (b, ub, t0, h, *c)))
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
    up = traj.eval(rs)[1]
    assert np.max(np.abs(up + 2 * np.sin(2 * rs))) < 1e-8


# ---------------------------------------------------------------------------
# a shot on the compiled kernel (_kernel.shoot: the start, the step loop with
# the right-hand side fused into it or called back, and the post-pass) gives
# the bits of the Python reference (tests/reference.py: the Python start and
# stepper on the w of make, then the numpy post-pass)

FUSED_WEIGHTS = {
    "constant": Weight.constant(0.7),
    "linear": M_LIN,
    "quadratic": Weight.poly([0.5, 1.0, -3.0]),
    "cubic": Weight.poly([0.86, -0.18, 0.10, -0.94]),
    "quartic": Weight.poly([1.0, -0.5, -2.0, 0.3, 0.2]),
    "piecewise": Weight.from_function(lambda r: math.cos(3 * math.pi * r), n_pieces=16),
}

# each right-hand side class under a type whose compiled is None: the kernel
# calls its w back instead of running its fused form
_CALLED_BACK = {cls: type(f"{cls.__name__}CalledBack", (cls,), {"compiled": None})
                for cls in (LinearRHS, NonlinearRHS, PerturbedRHS)}


def _called_back(prob):
    rhs = prob.rhs
    return replace(prob, rhs=_CALLED_BACK[type(rhs)](*(getattr(rhs, f.name)
                                                       for f in fields(rhs))))


def _same_bits(a, b):
    """Equal as IEEE doubles, sign bits included (-0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_kernel_matches_reference(prob, *, alpha=1.0, blowup_limit=math.inf, **kw):
    """The shot of prob from u(0) = alpha is the same on the kernel and on
    the reference (with a blow-up guard of inf, which stops the march only
    where u overflows, unless one is given); returns the shot."""
    got = shoot(prob, alpha, blowup_limit=blowup_limit, **kw)
    assert_same_shot(got, reference.shoot(prob, alpha, blowup_limit=blowup_limit, **kw))
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
    generic = reference.shoot(Problem.linear(p, n_dim, m, mu), 1.0)
    assert np.array_equal(fused.r, generic.r)
    assert np.array_equal(fused.u, generic.u)
    assert np.array_equal(fused.v, generic.v)
    assert fused.terminal == generic.terminal
    assert [z.r for z in fused.zeros] == [z.r for z in generic.zeros]
    assert fused.blowup_radius == generic.blowup_radius
    assert fused.steps == generic.steps


COS64 = Weight.from_function(lambda r: math.cos(3 * math.pi * r))


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
    """What each call of ``_kernel.<name>`` returns, as it returns; a call
    that raises leaves nothing."""
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


def _grid_problems(p, n_dim, weight):
    """The index of (p, n_dim, weight) on the grid, and its rational,
    phi and perturbed problems at lam 37.5 or -0.3, each with the index of
    its amplitude."""
    i = (GRID_P.index(p) * len(GRID_N) + GRID_N.index(n_dim)) * len(FUSED_WEIGHTS) \
        + sorted(FUSED_WEIGHTS).index(weight)
    m = FUSED_WEIGHTS[weight]
    f0, finf, q = RATIONAL_PARAMS[i % len(RATIONAL_PARAMS)]
    c, delta = PERTURBATIONS[i % len(PERTURBATIONS)]
    lam = 37.5 if i % 3 else -0.3
    return i, [
        (Problem.nonlinear(p, n_dim, m, lam, Nonlinearity.rational(p, f0, finf, q)), i),
        (Problem.nonlinear(p, n_dim, m, lam, Nonlinearity.phi(p)), i + 5),
        (Problem.perturbed(p, n_dim, m, lam, Perturbation(p, c, delta)), i + 9),
    ]


@pytest.mark.parametrize("weight", sorted(FUSED_WEIGHTS))
@pytest.mark.parametrize("n_dim", GRID_N)
@pytest.mark.parametrize("p", GRID_P)
def test_kernel_matches_reference_on_nonlinear_and_perturbed_shots(p, n_dim, weight,
                                                                   shoot_results):
    for prob, j in _grid_problems(p, n_dim, weight)[1]:
        for tols in ((1e-10, 1e-12), (1e-6, 1e-8)):
            # shoot's guard: a superlinear g blows up in finite r
            assert_kernel_matches_reference(prob, alpha=AMPLITUDES[j % len(AMPLITUDES)],
                                            rtol=tols[0], atol=tols[1], blowup_limit=1e12)
    assert len(shoot_results) == 6


def test_kernel_uses_the_exponents_f_and_g_captured(shoot_results):
    # f and g keep the p they were built with, whatever the problem's p
    for rhs in (Nonlinearity.rational(3.0, 1.1, 2.3, 2.2), Nonlinearity.phi(1.5),
                Perturbation(4.0, 1.0, 0.5)):
        make = Problem.nonlinear if isinstance(rhs, Nonlinearity) else Problem.perturbed
        for alpha in (1e-3, -1.0, 10.0):
            assert_kernel_matches_reference(make(2.0, 3, M_LIN, 37.5, rhs), alpha=alpha,
                                            blowup_limit=1e12)
    assert len(shoot_results) == 9


def _raised_on_both_paths(prob, alpha, **kw):
    """What shoot raises on the kernel and on the reference."""
    return [_raised(lambda: shoot(prob, alpha, **kw)),
            _raised(lambda: reference.shoot(prob, alpha, **kw))]


@pytest.mark.kernel
def test_kernel_hands_overflowing_shots_to_the_python_stepper(shoot_results):
    # with a guard of inf u and v reach inf; an infinite power of an
    # infinite base raises nothing in Python, so the kernel marches on, to
    # the reference's bits: its last samples are NaN
    shot = assert_kernel_matches_reference(Problem.linear(1.2, 1, M1, -1e6), rtol=1e-6,
                                           atol=1e-8)
    assert len(shoot_results) == 1
    assert shot.blowup_radius is not None and math.isnan(shot.sup_u)


@pytest.mark.kernel
def test_kernel_step_underflow_raises_the_python_error(shoot_results):
    errors = _raised_on_both_paths(Problem.linear(2.0, 1, M1, 10.0), 1.0, rtol=1e-100,
                                   atol=1e-150)
    assert errors == [(IntegrationError, "step size underflow at r = 1.000000e-06")] * 2
    assert shoot_results == []


@pytest.mark.kernel
def test_kernel_grows_its_buffers(monkeypatch, shoot_results):
    monkeypatch.setattr(_kernel, "_capacity", 3)
    assert_kernel_matches_reference(Problem.linear(2.5, 1, M_LIN, 13872.2), rtol=1e-6,
                                    atol=1e-8)
    assert shoot_results[0][2] > 100  # accepted steps


@pytest.mark.kernel
def test_kernel_starts_at_the_largest_capacity_a_call_needed(monkeypatch):
    # a probe of 5,819 steps outgrows the first buffers (4,096 steps) and
    # marches again in larger ones; every later call starts at the larger
    # capacity and marches once, to the same bits
    monkeypatch.setattr(_kernel, "_capacity", _kernel.FIRST_CAPACITY)
    lib, calls = _kernel.load(), []

    class Counting:
        def __getattr__(self, name):
            def call(*args):
                calls.append(name)
                return getattr(lib, name)(*args)
            return call

    monkeypatch.setattr(_kernel, "load", Counting)
    prob = Problem.linear(1.2, 1, M1, 250.0)
    first = probe(prob, 1.0, rtol=1e-10, atol=1e-12)
    assert first.steps.accepted == 5819 and calls == ["pspect_probe"] * 2
    second = probe(prob, 1.0, rtol=1e-10, atol=1e-12)
    assert calls == ["pspect_probe"] * 3
    assert_same_probe(second, first)
    assert_same_shot(shoot(prob, 1.0), reference.shoot(prob, 1.0))
    assert calls == ["pspect_probe"] * 3 + ["pspect_shoot"]


def _fresh_kernel(monkeypatch, cache_dir, xdg):
    """The kernel built afresh on its next use, into cache_dir or, where
    that cannot be written, the user cache under XDG_CACHE_HOME = xdg
    (None: unset)."""
    monkeypatch.setattr(_kernel, "CACHE_DIR", str(cache_dir))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    _kernel._loaded.cache_clear()


@pytest.mark.parametrize("broken", ["no compiler", "unwritable cache"])
def test_shots_fall_back_to_the_python_stepper(monkeypatch, tmp_path, broken):
    # the compiler is required: without one the first shot raises an
    # OSError naming the command and the source, and a failed build is not
    # tried again; where the package's cache cannot be written, the
    # library is built into the user's cache
    prob = Problem.linear(2.5, 3, FUSED_WEIGHTS["cubic"], 400.0)
    want = shoot(prob, 1.0)
    try:
        if broken == "no compiler":
            get = sysconfig.get_config_var
            fake_cc = str(tmp_path / "no-such-cc")
            monkeypatch.setattr(sysconfig, "get_config_var",
                                lambda name: fake_cc if name == "CC" else get(name))
            _fresh_kernel(monkeypatch, tmp_path, tmp_path / "xdg")
            with pytest.raises(OSError) as first:
                shoot(prob, 1.0)
            message = str(first.value)
            assert fake_cc in message and _kernel.SOURCE in message
            assert "No such file or directory" in message  # what running it said
            runs = []
            monkeypatch.setattr(subprocess, "run", lambda *a, **kw: runs.append(a))
            with pytest.raises(OSError) as again:
                probe(prob, 1.0, rtol=1e-10, atol=1e-12)
            assert again.value is first.value and runs == []
            assert not (tmp_path / "xdg").exists()
        else:
            (tmp_path / "file").write_text("")
            _fresh_kernel(monkeypatch, tmp_path / "file" / "cache", tmp_path / "xdg")
            assert_same_shot(shoot(prob, 1.0), want)
            assert os.listdir(tmp_path / "xdg" / "pspect") == [os.path.basename(_kernel._build())]
            monkeypatch.setenv("HOME", str(tmp_path / "home"))
            for xdg in ("", None):  # unset: the home's cache
                _fresh_kernel(monkeypatch, tmp_path / "file" / "cache", xdg)
                assert _kernel._cache_dirs()[1] == str(tmp_path / "home" / ".cache" / "pspect")
    finally:
        _kernel._loaded.cache_clear()


def test_threads_that_load_the_kernel_at_once_build_it_once(monkeypatch, tmp_path):
    # the first shots of a verify command come from several lanes at once:
    # one builds and loads the library, the others wait for it
    builds, build = [], _kernel._build

    def counted():
        builds.append(threading.get_ident())
        return build()

    monkeypatch.setattr(_kernel, "_build", counted)
    _fresh_kernel(monkeypatch, tmp_path / "cache", tmp_path / "xdg")
    start, libs = threading.Barrier(4, timeout=60), []

    def load():
        start.wait()
        libs.append(_kernel.load())

    threads = [threading.Thread(target=load) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)  # one build
            assert not thread.is_alive()
        assert len(builds) == 1 and len(libs) == 4
        assert all(lib is libs[0] for lib in libs)
        assert os.listdir(tmp_path / "cache") == [os.path.basename(build())]
    finally:
        _kernel._loaded.cache_clear()


def test_import_builds_nothing():
    # the kernel is built, or found, at the first shot or read of m(r), not
    # at import, nor where a Weight is built, combined or partitioned by sign
    src = os.path.dirname(os.path.dirname(_kernel.__file__))
    code = ("import math, pspect, pspect.cli; from pspect import _kernel, Weight; "
            "m = Weight.from_function(lambda r: math.cos(3 * math.pi * r)); "
            "d = (m - Weight.poly([1.0, -2.0])).negated().scaled(2.0).shifted(0.5); "
            "d.in_M(); d.fingerprint(); print(_kernel._loaded.cache_info().currsize); "
            "d(0.5); print(_kernel._loaded.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "0\n1\n"


class _RecordingLinearRHS:
    """LinearRHS with no fused form, so that the kernel calls its w back; w
    records each (r, m) it is passed."""

    def __init__(self):
        self.seen = []

    def make(self, p):
        seen, w_linear = self.seen, LinearRHS().make(p)

        def w(lam, m, r, u):
            seen.append((r, m))
            return w_linear(lam, m, r, u)

        return w


@pytest.mark.kernel
@pytest.mark.parametrize("m", [M_LIN, COS64], ids=["1-2r", "cos3"])
def test_a_called_back_rhs_receives_the_kernels_weight(m):
    rhs = _RecordingLinearRHS()
    traj = shoot(Problem(2.5, 2, m, rhs, 30.0), 1.0)
    assert len(rhs.seen) > 100
    assert all(float.hex(got) == float.hex(reference.weight_at(m, r)) for r, got in rhs.seen)
    fused = shoot(Problem.linear(2.5, 2, m, 30.0), 1.0)
    assert traj.u.tobytes() == fused.u.tobytes() and traj.v.tobytes() == fused.v.tobytes()


def test_a_build_removes_the_libraries_of_other_keys(monkeypatch, tmp_path):
    stale = tmp_path / "_rk45_kernel-0123456789abcdef.so"
    stale.write_bytes(b"")
    other = tmp_path / "other.so"
    other.write_bytes(b"")
    # a library a concurrent build has removed between the listing and the unlink
    gone = str(tmp_path / "_rk45_kernel-fedcba9876543210.so")
    listed = glob.glob
    monkeypatch.setattr(glob, "glob", lambda pattern: listed(pattern) + [gone])
    monkeypatch.setattr(_kernel, "CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))  # no library to find there
    path = _kernel._build()
    assert sorted(os.listdir(tmp_path)) == sorted([os.path.basename(path), "other.so"])
    assert _kernel._build() == path  # a cached library is loaded as it is


@pytest.mark.kernel
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_a_small_shot_keeps_its_zeros(kernel):
    # the post-pass compares the signs of u at the nodes: their product
    # underflows to -0.0 where |u| is below about 1e-162 on both sides
    on = radial_ivp if kernel else reference
    prob = Problem.linear(2.0, 1, M1, (1.5 * math.pi) ** 2)  # u = alpha cos(3 pi r / 2)
    for alpha in (1.0, 1e-150, 1e-170):
        assert on.probe(prob, alpha, rtol=radial_ivp.DEFAULT_RTOL, atol=1e-12 * alpha).z == 1
        zeros = on.shoot(prob, alpha, atol=1e-12 * alpha).interior_zeros
        assert len(zeros) == 1 and abs(zeros[0].r - 1.0 / 3.0) < 1e-8


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
# after the march) gives the bits of the reference's post-pass
# (reference.scan_reference, then locate_zeros), on any block; the
# reduction of a shot to its probe on the kernel (_kernel.reduce, which
# _kernel.probe runs after the march) gives the reference's probe of the
# whole shot


@pytest.fixture
def scan_results(monkeypatch):
    return _spy(monkeypatch, "scan")


@pytest.fixture
def probe_results(monkeypatch):
    return _spy(monkeypatch, "probe")


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
    blowup = shot.blowup_radius is not None
    d = math.copysign(radial_ivp.BLOWUP_MISS, reading.u_end) if blowup else reading.u1
    assert_same_probe(radial_ivp.Probe(d, reading.z, blowup, reading.sup_u, shot.steps), want)
    return reading


def assert_post_pass_matches_reference(prob, alpha, *, rtol=1e-10, atol=1e-12,
                                       blowup_limit=radial_ivp.BLOWUP_LIMIT, n_samples=513,
                                       edited=False):
    """The shot and the probe of prob are the same on the kernel and on the
    reference (unless the reference's march is edited), and so is what the
    post-pass on the kernel and the reference's return for the reference
    shot's block, and the kernel's reduction of the block of the
    reference's probe.  Returns the reference's shot and that reduction."""
    tols = dict(rtol=rtol, atol=atol, blowup_limit=blowup_limit)
    want = reference.shoot(prob, alpha, n_samples=n_samples, **tols)
    want_probe = reference.probe(prob, alpha, **tols)
    if not edited:
        assert_same_shot(shoot(prob, alpha, n_samples=n_samples, **tols), want)
        assert_same_probe(probe(prob, alpha, **tols), want_probe)
    probe_shot = reference.shoot(prob, alpha, n_samples=radial_ivp.PROBE_SAMPLES, **tols)
    reading = assert_reduction_matches(probe_shot, prob, want_probe)
    r_end = 1.0 if want.blowup_radius is None else want.blowup_radius
    e_inv = 1.0 / (prob.p - 1.0)
    scan = _kernel.scan(want.dense.block, want.dense.n, EPS, r_end, n_samples, prob.N, e_inv)
    post_pass = reference.post_pass(want.dense, EPS, r_end, n_samples, prob.N, e_inv)
    assert len(scan) == len(post_pass) == 7
    # grid, u, v, sup |u|, u(1), sup |u'| and the zeros the tail filter keeps
    for a, b in zip(scan, post_pass):
        assert _same_bits(a, b)
    return want, reading


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
    # called back: u(eps) = alpha - H0 eps^2 / 2 is exactly 0.0, a zero at a node
    "source-zero-at-node": (source_problem(2.0, 1, lambda r: H0), H0 * EPS**2 / 2, {}),
    "hand-built-f": (Problem.nonlinear(2.5, 2, M_LIN, 300.0, _hand_built_rational(2.5)), 1.0,
                     {}),
    # |u|^2.2 passes the largest double: Python raises OverflowError, and so
    # does the kernel
    "rational-handed-back": (Problem.nonlinear(2.0, 1, Weight.constant(-1.0), 50.0,
                                               Nonlinearity.rational(2.0, 1.0, 0.5, 2.2)),
                             1e139, dict(blowup_limit=1e300)),
}
RAISING = {"rational-handed-back": OverflowError}


def assert_raises_alike(prob, alpha, error, **kw):
    """The shot and the probe raise the same error on the kernel and on the
    reference."""
    raised = [_raised(lambda fn=fn: fn(prob, alpha, **kw))
              for fn in (shoot, reference.shoot, probe, reference.probe)]
    assert raised == [raised[0]] * len(raised) and raised[0][0] is error
    return raised[0]


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.kernel
@pytest.mark.parametrize("case", sorted(POST_PASS_CASES))
def test_post_pass_matches_reference(scan_results, probe_results, shoot_results, case):
    prob, alpha, kw = POST_PASS_CASES[case]
    if case in RAISING:
        kw = dict(dict(rtol=1e-10, atol=1e-12), **kw)
        assert_raises_alike(prob, alpha, RAISING[case], **kw)
        assert probe_results == shoot_results == []
        return
    shot, reading = assert_post_pass_matches_reference(prob, alpha, **kw)
    if case.startswith("blowup"):
        assert shot.blowup_radius is not None and shot.terminal is None
    elif case == "noise-tail":
        brackets = reference.scan_reference(shot.dense, EPS, 1.0, 65, 1, 1.0)[-1]
        assert len(brackets) == 1 and shot.zeros == ()
        assert reading.z == 0
        assert shoot_results[0][5][6] == []  # the kernel hands back no zero to filter
    elif case == "source-zero-at-node":
        assert shot.u[0] == 0.0 and shot.zeros[0].r == EPS
    elif case == "long-shot":
        assert shot.steps.accepted > _kernel.FIRST_CAPACITY
    else:
        assert shot.zeros
    # one kernel call each for the shot, the probe and the explicit scan
    assert len(shoot_results) == len(probe_results) == len(scan_results) == 1


@pytest.mark.kernel
def test_root_shot_of_a_solve_holds_the_zeros_it_keeps(monkeypatch):
    # Brent's method over [mu - 1e-8, mu + 1e-8] about the noise-tail
    # case's mu lands on mu itself, whose shot has one sign change under
    # the noise floor: the kernel drops it from the root's shot, as the
    # reference's filter does
    prob, alpha, kw = POST_PASS_CASES["noise-tail"]
    mu, tols = prob.lam, dict(rtol=1e-10, atol=1e-12, blowup_limit=kw["blowup_limit"])
    ends = [probe(prob.at(x), alpha, **tols) for x in (mu - 1e-8, mu + 1e-8)]
    solved = _spy(monkeypatch, "solve")
    root, _, traj, _ = radial_ivp.solve_miss(prob, alpha, mu - 1e-8, mu + 1e-8, ends,
                                             xtol=2e-12, xrtol=8.881784197001252e-16, **tols)
    assert root == mu and len(solved) == 1 and solved[0].shot[5][6] == []
    want = reference.shoot(prob, alpha, **tols)
    assert traj.zeros == want.zeros == ()
    assert len(reference.scan_reference(want.dense, EPS, 1.0, 513, 1, 1.0)[-1]) == 1


@pytest.mark.kernel
def test_post_pass_on_the_kernel_where_a_compiler_is(shoot_results):
    shot = shoot(Problem.linear(2.5, 1, M_LIN, 300.0), 1.0)
    assert len(shoot_results) == 1 and shoot_results[0][1] == 1.0  # the r where it stopped
    assert _same_bits(shot.r, shoot_results[0][5][0])  # the kernel's grid


@pytest.mark.kernel
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
        want = reference.scan_reference(DenseOutput(block, n), EPS, 1.0, 9, n_dim, e_inv)[5]
        assert _same_bits(got, want)


def test_post_pass_refuses_a_block_of_another_size():
    for pass_ in (lambda b, n: _kernel.scan(b, n, EPS, 1.0, 65, 1, 1.0),
                  lambda b, n: _kernel.reduce(b, n, EPS, 1.0, 65, 1, 1.0)):
        with pytest.raises(ValueError, match="dense block of 1 steps holds 13"):
            pass_(np.zeros(12), 1)
        with pytest.raises(ValueError, match="one step or more, got 0"):
            pass_(np.zeros(1), 0)


@pytest.mark.kernel
def test_dense_output_reads_a_0d_t_as_a_one_element_array():
    shot = shoot(Problem.linear(2.5, 2, FUSED_WEIGHTS["piecewise"], 37.5), 1.0, **TIGHT)
    dense, nodes = shot.dense, shot.dense.block[:shot.dense.n + 1]
    ts = np.concatenate(([0.0, -1.0, 1.5, math.nan], nodes, 0.5 * (nodes[:-1] + nodes[1:])))
    for t in ts.tolist():
        got = dense(t)
        assert got.shape == (2,) and _same_bits(got, dense(np.array([t]))[:, 0])
    # u(1) and v(1) of the kernel's post-pass are the dense output's at r = 1
    assert _same_bits(dense(1.0), shot.terminal)
    # and an array of any shape is read value by value
    grid = ts[:24].reshape(2, 3, 4)
    assert _same_bits(dense(grid), dense(ts[:24]).reshape(2, 2, 3, 4))


CUT = np.nextafter(1.0, 0.0)  # 1 ulp below r = 1


def _zero_last_ulp(n, b):
    """The last step ends at CUT, and a step of 1 ulp follows, with u = 0 on
    it: its midpoint rounds to 1, the node after it, and u is 0.0 at both."""
    u_cut, v_cut = DenseOutput(b, n)(CUT).tolist()
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
    _, v_end = DenseOutput(b, n)(NEAR_ONE).tolist()
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
    # the kernel's shots and probes never see an edited march: the
    # reference's march is edited, and the kernel's post-pass and reduction
    # of the edited block are held to the reference's
    monkeypatch.setattr(reference, "integrate", _edited(reference.integrate, edit))
    prob = Problem.linear(2.5, n_dim, M_LIN, 300.0)
    shot, reading = assert_post_pass_matches_reference(prob, 1.0, edited=True)
    if edit is _zero_last_ulp:
        assert 0.5 * (CUT + 1.0) == 1.0 and shot.dense.block[shot.dense.n - 1] == CUT
        assert shot.terminal[0] == 0.0 and shot.zeros[-1].r == CUT
    elif edit is _nan_inside:
        assert math.isnan(shot.sup_u) and not math.isnan(shot.u[-1])
    elif edit is _twin_zero:
        node = shot.dense.block[shot.dense.n // 2 + 1]
        brackets = reference.scan_reference(shot.dense, EPS, 1.0, 513, n_dim, 1 / 1.5)[-1]
        assert sum(abs(a - node) < 1e-9 or abs(b - node) < 1e-9 for a, b, *_ in brackets) == 2
        assert sum(abs(z.r - node) < 10 * radial_ivp.ZERO_XTOL for z in shot.zeros) == 1
    elif edit is _zero_near_one:
        assert 1.0 - radial_ivp.BOUNDARY_MARGIN < shot.zeros[-1].r < 1.0
        assert len(shot.interior_zeros) == len(shot.zeros) - 1
    else:  # the tail filter reads the slope of the last zero, and keeps it
        last = shot.zeros[-1]
        assert abs(last.r - 0.9995) < 1e-12 and shot.interior_zeros[-1] == last
        assert np.max(np.abs(shot.u[shot.r > last.r])) < reference.TAIL_NOISE_FACTOR * shot.sup_u
        assert abs(last.uprime) >= reference.TAIL_SLOPE_FACTOR * shot.sup_uprime
        assert reading.z == len(shot.interior_zeros)
    assert len(scan_results) == 1


def assert_probe_matches_shoot_and_reduce(prob, alpha, **kw):
    """The kernel's probe is the reference's reduction of the kernel's shot
    (which the shots above hold to the reference's), or raises what the
    shot raises; returns whether it returned."""
    def reduced():
        return reference.reduce(shoot(prob, alpha, n_samples=radial_ivp.PROBE_SAMPLES, **kw))

    try:
        want = reduced()
    except IntegrationError:  # step size underflow
        assert _raised(lambda: probe(prob, alpha, **kw)) == _raised(reduced)
        return False
    assert_same_probe(probe(prob, alpha, **kw), want)
    return True


@pytest.mark.kernel
@pytest.mark.parametrize("weight", sorted(FUSED_WEIGHTS) + ["cos64"])
@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("p", GRID_P)
def test_probe_matches_shoot_and_reduce(p, n_dim, weight, probe_results):
    m = COS64 if weight == "cos64" else FUSED_WEIGHTS[weight]
    i = GRID_P.index(p) * 3 + n_dim
    f0, finf, q = RATIONAL_PARAMS[i % len(RATIONAL_PARAMS)]
    c, delta = PERTURBATIONS[i % len(PERTURBATIONS)]
    returned = 0
    for (rtol, atol), limit in (((1e-10, 1e-12), radial_ivp.BLOWUP_LIMIT),
                                ((1e-6, 1e-8), 1e100)):  # the tight and the loose tolerances
        for mu in (37.5, -0.3, 900.0, -2500.0):
            for alpha in (1.0, -2.5e-3):
                returned += assert_probe_matches_shoot_and_reduce(
                    Problem.linear(p, n_dim, m, mu), alpha, rtol=rtol, atol=atol,
                    blowup_limit=limit)
        for j, gamma in enumerate((37.5, -0.3)):
            alpha = AMPLITUDES[(i + j) % len(AMPLITUDES)]
            for prob in (
                Problem.nonlinear(p, n_dim, m, gamma, Nonlinearity.rational(p, f0, finf, q)),
                Problem.nonlinear(p, n_dim, m, gamma, Nonlinearity.phi(p)),
                Problem.perturbed(p, n_dim, m, gamma, Perturbation(p, c, delta)),
            ):
                returned += assert_probe_matches_shoot_and_reduce(prob, alpha, rtol=rtol,
                                                                  atol=atol, blowup_limit=limit)
    assert len(probe_results) == returned > 0


@pytest.mark.kernel
def test_probe_does_not_shoot_where_a_compiler_is(monkeypatch):
    shots = []
    monkeypatch.setattr(radial_ivp, "shoot", lambda *a, **kw: shots.append(a) or shoot(*a, **kw))
    prob = Problem.nonlinear(2.5, 2, M_LIN, 37.5, Nonlinearity.rational(2.5))
    pr = probe(prob, 1.0, rtol=1e-10, atol=1e-12)
    assert shots == []
    assert_same_probe(pr, reference.probe(prob, 1.0, rtol=1e-10, atol=1e-12))


def _spy_makes(monkeypatch):
    """The right-hand sides whose make runs, from here on."""
    made = []
    for cls in (LinearRHS, NonlinearRHS, PerturbedRHS):
        monkeypatch.setattr(cls, "make", lambda self, *args, make=cls.make:
                            made.append(self) or make(self, *args))
    return made


FUSED_PROBLEMS = [Problem.linear(2.5, 2, M_LIN, 37.5),
                  Problem.nonlinear(2.5, 3, M_LIN, 37.5, Nonlinearity.rational(2.5)),
                  Problem.nonlinear(2.5, 1, M_LIN, 37.5, Nonlinearity.phi(2.5)),
                  Problem.perturbed(2.5, 2, M_LIN, 37.5, Perturbation(2.5))]


@pytest.mark.kernel
def test_compiled_probe_calls_no_python_f(monkeypatch):
    # the kernel starts the shot as well: no right-hand side is made in
    # Python, so no Python f runs; the reference makes two per probe
    made = _spy_makes(monkeypatch)
    kernel = [probe(prob, 1.0, rtol=1e-10, atol=1e-12) for prob in FUSED_PROBLEMS]
    assert made == []
    for prob, pr in zip(FUSED_PROBLEMS, kernel):
        assert_same_probe(reference.probe(prob, 1.0, rtol=1e-10, atol=1e-12), pr)
    assert len(made) == 2 * len(FUSED_PROBLEMS)


@pytest.mark.kernel
def test_probe_step_underflow_raises_the_python_error(probe_results):
    kw = dict(rtol=1e-100, atol=1e-150)
    prob = Problem.linear(2.0, 1, M1, 10.0)
    errors = [_raised(lambda: probe(prob, 1.0, **kw)),
              _raised(lambda: reference.probe(prob, 1.0, **kw))]
    assert errors == [(IntegrationError, "step size underflow at r = 1.000000e-06")] * 2
    assert probe_results == []


def test_hand_built_nonlinearity_takes_the_python_stepper(shoot_results):
    # a hand-built f has no fused form: the kernel calls it back, to the
    # bits of the reference and of the built-in family it copies
    built_in = Nonlinearity.rational(2.5, f0=1.1, finf=2.3, q=2.2)
    hand_built = Nonlinearity(fn=built_in.fn, f0=built_in.f0, finf=built_in.finf)
    prob = Problem.nonlinear(2.5, 2, M_LIN, 37.5, hand_built)
    got = assert_kernel_matches_reference(prob, blowup_limit=radial_ivp.BLOWUP_LIMIT)
    assert len(shoot_results) == 1
    assert_same_shot(got, shoot(Problem.nonlinear(2.5, 2, M_LIN, 37.5, built_in), 1.0))


class _DoubledPerturbation(Perturbation):
    def __call__(self, mval, r, u, mu):
        return 2.0 * super().__call__(mval, r, u, mu)


def test_perturbation_subclass_stays_on_the_python_stepper(shoot_results):
    # a Perturbation subclass is called back, its own __call__ included
    prob = Problem.perturbed(2.0, 1, M_LIN, 30.0, _DoubledPerturbation(2.0))
    doubled = assert_kernel_matches_reference(prob, alpha=0.5,
                                              blowup_limit=radial_ivp.BLOWUP_LIMIT)
    assert len(shoot_results) == 1
    plain = shoot(Problem.perturbed(2.0, 1, M_LIN, 30.0, Perturbation(2.0)), 0.5)
    assert doubled.terminal != plain.terminal  # its own __call__ ran


@pytest.mark.kernel
def test_kernel_hands_back_a_rational_shot_whose_power_overflows(shoot_results):
    # u starts at 1e139, where |u|^2.2 is finite, and grows like cosh(5 r)
    # under m = -1 until |u|^2.2 passes the largest double; Python raises
    # OverflowError there, and so does the kernel.  With finf = 2,
    # finf |u|^q overflows first, and f stays finite there
    for finf in (0.5, 2.0):
        f = Nonlinearity.rational(2.0, f0=1.0, finf=finf, q=2.2)
        prob = Problem.nonlinear(2.0, 1, Weight.constant(-1.0), 50.0, f)
        raised = _raised_on_both_paths(prob, 1e139, blowup_limit=math.inf)
        assert raised[0] == raised[1] and raised[0][0] is OverflowError
    assert shoot_results == []


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
           "const int *": ctypes.c_void_p, "callback": _kernel.WFUNC, "Rhs": _kernel.Rhs}


@pytest.mark.kernel
def test_kernel_structs_match_ctypes():
    # ctypes lays out _kernel.Rhs and _kernel.Shot by their field lists; a
    # field added, dropped or retyped on one side only shifts every field
    # after it
    for struct in (_kernel.Rhs, _kernel.Shot):
        c = [(name, C_TYPES[c_type]) for name, c_type in _c_struct_fields(struct.__name__)]
        assert c == list(struct._fields_)


STATUSES = ("END", "BLOWUP", "UNDERFLOW", "FULL", "OVERFLOW", "DIV_ZERO", "ZERO_POW", "RAISED",
            "ALPHA_ZERO", "NAN_END", "SAME_SIGN", "NAN_AT", "NO_CONVERGENCE")


@pytest.mark.kernel
def test_kernel_constants_match_python():
    # _rk45_kernel.c repeats these; a value changed on one side only would
    # break the bit-identity of the kernel and the reference
    c = _c_constants()
    brent_maxiter = inspect.signature(radial_ivp.brentq).parameters["maxiter"].default
    assert _kernel.BRENT_MAXITER == brent_maxiter
    python = {
        "BLOWUP_MISS": radial_ivp.BLOWUP_MISS,
        "ZERO_XTOL": radial_ivp.ZERO_XTOL, "ZERO_RTOL": radial_ivp.ZERO_RTOL,
        "BRENT_MAXITER": brent_maxiter,
        "BOUNDARY_MARGIN": radial_ivp.BOUNDARY_MARGIN,
        "TAIL_NOISE_FACTOR": reference.TAIL_NOISE_FACTOR,
        "TAIL_SLOPE_FACTOR": reference.TAIL_SLOPE_FACTOR,
        "LOG_ROW": _kernel.LOG_ROW, "RING": _kernel.RING,
    }
    python.update((f"PSPECT_{name}", getattr(_kernel, name)) for name in STATUSES)
    python.update((name, getattr(_kernel, name))
                  for name in ("LINEAR", "RATIONAL", "PERTURBED", "CALLBACK"))
    # the Dormand-Prince coefficients and step-size factors of _rk45
    python.update((name, getattr(_rk45, "_" + name))
                  for name in c if hasattr(_rk45, "_" + name))
    assert len(python) == 26 + 48 + 3
    assert {name: c.get(name) for name in python} == python
    assert sorted(n for n in c if n.startswith("PSPECT_")) == sorted(
        n for n in python if n.startswith("PSPECT_"))


@pytest.mark.kernel
def test_kernel_in_use_where_a_compiler_is(shoot_results):
    assert isinstance(_kernel.load(), ctypes.CDLL)
    assert shoot(Problem.linear(2.0, 1, M1, 120.0), 1.0).steps.accepted > 10
    assert len(shoot_results) == 1


def _marches(monkeypatch):
    """The calls of the Python stepper, from here on."""
    calls, integrate = [], _rk45.integrate
    monkeypatch.setattr(_rk45, "integrate",
                        lambda *a, **kw: calls.append(a) or integrate(*a, **kw))
    return calls


@pytest.mark.kernel
def test_nonlinear_and_perturbed_shots_on_the_kernel_where_a_compiler_is(monkeypatch):
    # no Python f runs: the Python stepper is not called, and no library
    # module holds it
    marches = _marches(monkeypatch)
    for prob in (Problem.nonlinear(2.5, 2, M_LIN, 37.5, Nonlinearity.rational(2.5)),
                 Problem.perturbed(2.5, 2, M_LIN, 37.5, Perturbation(2.5))):
        assert shoot(prob, 1.0).steps.accepted > 10
    assert marches == []
    assert [name for name, mod in sys.modules.items() if name.startswith("pspect.")
            and name != "pspect._rk45" and "integrate" in vars(mod)] == []


@pytest.mark.kernel
def test_shoot_raises_and_hands_back_alike_on_both_paths(shoot_results):
    prob = Problem.linear(2.5, 2, M_LIN, 37.5)
    assert _raised_on_both_paths(prob, 0.0) == [
        (PreconditionError, "initial value alpha must be nonzero")] * 2
    # grids of one and of no uniform sample: numpy's linspace on the kernel
    for n_samples in (1, 0):
        shot = assert_kernel_matches_reference(prob, n_samples=n_samples)
        assert len(shot.r) == shot.dense.n + 1  # the nodes alone: the one sample is a node
    assert len(shoot_results) == 2
    assert _raised_on_both_paths(prob, 1.0, n_samples=-1) == [
        (ValueError, "Number of samples, -1, must be non-negative.")] * 2


@pytest.mark.kernel
@pytest.mark.parametrize("blowup_limit", [radial_ivp.BLOWUP_LIMIT, math.inf])
def test_compiled_shoot_is_one_kernel_call(monkeypatch, shoot_results, blowup_limit):
    # the kernel starts, marches and reads the shot: no right-hand side is
    # made in Python and the Python stepper is not called
    made, marches = _spy_makes(monkeypatch), _marches(monkeypatch)
    shots = [shoot(prob, 1.0, blowup_limit=blowup_limit) for prob in FUSED_PROBLEMS]
    assert len(shoot_results) == len(FUSED_PROBLEMS)
    assert (made, marches) == ([], [])
    for prob, shot in zip(FUSED_PROBLEMS, shots):
        assert_same_shot(reference.shoot(prob, 1.0, blowup_limit=blowup_limit), shot)


def assert_shots_released(prob):
    """Shots of prob leave nothing on a reference cycle: twenty of them
    grow the traced memory by less than two kept shots."""
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


COSINE_4 = Problem.linear(2.0, 1, M1, (9 * math.pi / 2) ** 2)  # 4 interior zeros


def test_discarded_shots_release_their_dense_output():
    # a shot must leave nothing on a reference cycle, such as the one
    # scipy's brentq wrapper makes by referring to itself through a closure
    # cell, or it lives until the cyclic collector runs
    assert_shots_released(COSINE_4)


def test_called_back_shots_release_their_callback():
    # nor does the callback of a right-hand side without a fused form
    assert_shots_released(_called_back(COSINE_4))


# ---------------------------------------------------------------------------
# one kernel call per root solve of the miss (radial_ivp.solve_miss), to
# the bits of Brent's method over the reference's probe


@pytest.mark.kernel
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
    # subnormal magnitudes, alone and with normal ones
    tiny = (signs[0] * 10.0 ** rng.uniform(-323.5, -308.0, n)).tolist()
    pairs += list(zip(tiny[:n // 2], tiny[n // 2:])) + [(t, x) for t, (x, _) in
                                                         zip(tiny, pairs[:1000])]
    mismatched = [(x, y) for x, y in pairs
                  if not _same_bits(_kernel.hypot(x, y), math.hypot(x, y))]
    assert mismatched == []


@pytest.mark.kernel
@pytest.mark.parametrize("x,y", [(5e-324, 1.0), (1.0, -2.2e-308), (math.inf, 1.0),
                                 (1.0, -math.inf), (math.nan, 0.0), (math.inf, math.nan)])
def test_hypot_port_hands_back_subnormal_and_non_finite_inputs(x, y):
    # the rest of vector_norm: inf before NaN, and subnormals scaled to normals
    for a, b in ((x, y), (y, x), (x, 2e-320), (-3e-315, x)):
        assert _same_bits(_kernel.hypot(a, b), math.hypot(a, b)), (a, b)


@pytest.fixture
def solve_results(monkeypatch):
    return _spy(monkeypatch, "solve")


SOLVE_WEIGHTS = {"constant": M1, "linear": M_LIN, "cos64": COS64}
TIGHT = dict(rtol=1e-10, atol=1e-12)
LOOSE = dict(rtol=1e-6, atol=1e-8)
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


def _solved(solve, prob, alpha, bracket, in_alpha, tols, xtol, **kw):
    """(root, probe) of solve over the bracket (a, b, probe at a, probe at b),
    or the (type, message) of what it raises."""
    a, b, pr_a, pr_b = bracket
    try:
        return solve(prob, alpha, a, b, (pr_a, pr_b), in_alpha=in_alpha, **tols, **xtol, **kw)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_solve(got, want):
    if isinstance(want[0], type):  # both raised
        assert got == want
        return
    assert _same_bits(got[0], want[0]) and type(got[0]) is float
    assert_same_probe(got[1], want[1])
    assert_same_shot(got[2], want[2])
    assert_same_trials(got[3], want[3])


def assert_same_trials(got, want):
    """The trials of two solves, (x, probe) pairs in order, are the same to the bits."""
    assert len(got) == len(want)
    for (x, pr), (x_want, pr_want) in zip(got, want):
        assert _same_bits(x, x_want) and type(x) is float
        assert_same_probe(pr, pr_want)


def assert_solve_matches_brentq_over_probe(prob, alpha, bracket, in_alpha=False,
                                           trial=radial_ivp.probe, **xtol):
    """solve_miss returns the root of the reference's Brent's method over
    the kernel's probe (which the probes above hold to the reference's), or
    over the reference's probe where trial is None, the probe there and the
    reference's shot there, or raises what it raises; returns the root."""
    got = _solved(radial_ivp.solve_miss, prob, alpha, bracket, in_alpha, TIGHT, xtol)
    want = _solved(reference.solve_miss, prob, alpha, bracket, in_alpha, TIGHT, xtol,
                   trial=trial)
    assert_same_solve(got, want)
    return got[0]


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
        if prob.rhs.compiled(p, n_dim, m, prob.lam).family == _kernel.LINEAR:
            continue  # u(1) is homogeneous in alpha: no root in alpha
        # in alpha, at the parameter that root gives alpha
        at_root = prob.at(root)
        bracket = _first_bracket(lambda x: probe(at_root, x, **TIGHT), [alpha / 2, alpha * 2])
        assert_solve_matches_brentq_over_probe(at_root, None, bracket, in_alpha=True, **XTOL)
    assert len(solve_results) == 5


@pytest.mark.kernel
@pytest.mark.parametrize("weight", ["linear", "piecewise"])
@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("p", [1.2, 2.5, 6.0])
def test_phi_at_gamma_is_the_linear_problem_at_mu_gamma(p, n_dim, weight):
    # gamma m phi_p(u) is the linear term at mu = gamma: a shot, a probe and a
    # solve of the nonlinear problem with f = phi_p are the linear ones
    m = FUSED_WEIGHTS[weight]
    phi = Nonlinearity.phi(p)
    for lam, alpha in ((3.7, 1.0), (-20.0, -0.3), (150.0, 40.0)):
        nonlinear = Problem.nonlinear(p, n_dim, m, lam, phi)
        linear = Problem.linear(p, n_dim, m, lam)
        assert_same_shot(shoot(nonlinear, alpha, blowup_limit=1e12, **TIGHT),
                         shoot(linear, alpha, blowup_limit=1e12, **TIGHT))
        assert_same_probe(probe(nonlinear, alpha, **LOOSE), probe(linear, alpha, **LOOSE))
    bracket = _first_bracket(lambda x: probe(linear.at(x), 1.0, **TIGHT),
                             [2.0**k for k in range(-2, 18)])
    assert_same_solve(_solved(radial_ivp.solve_miss, nonlinear, 1.0, bracket, False, TIGHT, XTOL),
                      _solved(radial_ivp.solve_miss, linear, 1.0, bracket, False, TIGHT, XTOL))


@pytest.mark.kernel
def test_solve_through_shots_that_blow_up(monkeypatch, solve_results):
    # on 1 - 8r the shots from mu = 2048 and 4096 pass the blow-up limit with
    # opposite signs, and so does every trial between them: the root is
    # where the sign of the blow-up flips
    prob = Problem.perturbed(2.0, 1, Weight.poly([1.0, -8.0]), 1.0, Perturbation(2.0))
    probes = []
    bracket = _first_bracket(lambda x: probe(prob.at(x), 0.5, **TIGHT), [2048.0, 4096.0])
    root = assert_solve_matches_brentq_over_probe(
        prob, 0.5, bracket, trial=lambda *a, **kw: probes.append(probe(*a, **kw)) or probes[-1],
        xtol=1e-14, xrtol=1e-13)
    assert 2048.0 < root < 4096.0 and len(probes) > 10
    assert all(pr.blowup and abs(pr.d) == radial_ivp.BLOWUP_MISS for pr in probes)
    assert len(solve_results) == 1


@pytest.mark.kernel
def test_solve_grows_its_buffers(monkeypatch, solve_results):
    monkeypatch.setattr(_kernel, "_capacity", 3)
    prob = Problem.nonlinear(2.5, 2, M_LIN, 1.0, Nonlinearity.rational(2.5))
    bracket = _first_bracket(lambda x: probe(prob.at(x), 1.0, **TIGHT), [2.0, 200.0])
    assert_solve_matches_brentq_over_probe(prob, 1.0, bracket, **XTOL)
    assert len(solve_results) == 1


def _fake_probe(d):
    return radial_ivp.Probe(d, 0, False, 1.0, radial_ivp.StepCounts.of(0, 0))


class _NanAbove(Perturbation):
    """The power perturbation, NaN for mu above 2.5: the miss of a trial
    there is NaN."""

    def __call__(self, mval, r, u, mu):
        return math.nan if mu > 2.5 else super().__call__(mval, r, u, mu)


@pytest.mark.kernel
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
    raised = _solved(radial_ivp.solve_miss, prob, 1.0, bracket, False, tols, xtol)
    want = _solved(reference.solve_miss, prob, 1.0, bracket, False, tols, xtol)
    assert raised == want == {
        "nan-end": (ValueError, "f is NaN at an end of the bracket"),
        "no-convergence": (RuntimeError, "Failed to converge after 100 iterations."),
        "underflow": (IntegrationError, "step size underflow at r = 1.000000e-06"),
    }[case]
    assert solve_results == []
    if case == "no-convergence":  # the trials go with the error, as the reference makes them
        a, b, pr_a, pr_b = bracket
        trials = []
        for solve in (radial_ivp.solve_miss, reference.solve_miss):
            with pytest.raises(RuntimeError) as raised:
                solve(prob, 1.0, a, b, (pr_a, pr_b), **tols, **xtol)
            trials.append(raised.value.trials)
        assert_same_trials(*trials)
        assert len(trials[0]) == _kernel.BRENT_MAXITER


@pytest.mark.kernel
@pytest.mark.parametrize("case", ["same-sign", "nan-trial", "alpha-zero"])
def test_solve_raises_what_brentq_over_probe_raises(case):
    prob = Problem.perturbed(2.0, 1, M1, 1.0, Perturbation(2.0))
    in_alpha, alpha, ends = False, 0.5, (1.0, 4.0, _fake_probe(-1.0), _fake_probe(1.0))
    if case == "same-sign":
        ends = (*ends[:3], _fake_probe(-2.0))
    elif case == "nan-trial":  # the first trial, at mu = 2.5 + 1 / 3, is NaN
        prob = Problem.perturbed(2.0, 1, M1, 1.0, _NanAbove(2.0))
        ends = (1.0, 4.0, _fake_probe(-1.0), _fake_probe(0.5))
    else:  # bisection from (-1, 1) tries u(0) = 0
        in_alpha, alpha, ends = True, None, (-1.0, 1.0, _fake_probe(-1.0), _fake_probe(1.0))
    got = _solved(radial_ivp.solve_miss, prob, alpha, ends, in_alpha, TIGHT, XTOL)
    assert got == _solved(reference.solve_miss, prob, alpha, ends, in_alpha, TIGHT, XTOL)
    assert got == {
        "same-sign": (ValueError, "f(a) and f(b) must have different signs"),
        "nan-trial": (ValueError, f"f is NaN at x={4.0 - 3.0 * 1.5 / 1.5 * (2 / 3) / 2}"),
        "alpha-zero": (PreconditionError, "initial value alpha must be nonzero"),
    }[case]


def test_solve_without_a_compiled_form_is_brentq_over_probe(solve_results):
    built_in = Nonlinearity.rational(2.5, f0=1.1, finf=2.3, q=2.2)
    hand_built = Nonlinearity(fn=built_in.fn, f0=built_in.f0, finf=built_in.finf)
    roots = []
    for f in (hand_built, built_in):
        prob = Problem.nonlinear(2.5, 2, M_LIN, 1.0, f)
        bracket = _first_bracket(lambda x: probe(prob.at(x), 1.0, **TIGHT), [2.0, 200.0])
        roots.append(assert_solve_matches_brentq_over_probe(prob, 1.0, bracket, trial=None,
                                                            **XTOL))
    assert roots[0] == roots[1]
    assert len(solve_results) == 2  # the hand-built f is called back from the kernel's solve


@pytest.mark.kernel
def test_called_back_right_hand_side_is_made_once_per_call(monkeypatch):
    # the kernel passes a called-back w the shot's lam, as it passes it the
    # fused forms: one make per probe, and one per solve in gamma whatever
    # its trials
    built_in = Nonlinearity.rational(2.5)
    hand_built = Nonlinearity(fn=built_in.fn, f0=built_in.f0, finf=built_in.finf)
    fused, called_back = (Problem.nonlinear(2.5, 2, M_LIN, 1.0, f) for f in (built_in, hand_built))
    a, b, *ends = _first_bracket(lambda x: probe(called_back.at(x), 1.0, **TIGHT), [2.0, 200.0])
    made = _spy_makes(monkeypatch)
    probe(called_back.at(a), 1.0, **TIGHT)
    assert len(made) == 1
    root, _, _, trials = radial_ivp.solve_miss(called_back, 1.0, a, b, ends, **TIGHT, **XTOL)
    assert len(made) == 2 and len(trials) > 1
    assert root == radial_ivp.solve_miss(fused, 1.0, a, b, ends, **TIGHT, **XTOL)[0]


# the shot at a root comes with the solve: read off the root's own trial
# where that is one of the last three, and marched again only where it is
# not, with the bits of shoot either way

ROOT_SHOT_F = Nonlinearity.rational(2.0, f0=2.0, finf=0.5, q=1.0)


def _root_shot_problem(family):
    """A problem of the fused RATIONAL or PERTURBED family, or of a
    hand-built f the kernel calls back, and its u(0)."""
    if family == "perturbed":
        return Problem.perturbed(2.5, 2, M_LIN, 1.0, Perturbation(2.5)), 0.5
    f = Nonlinearity.rational(2.5, f0=1.1, finf=2.3, q=2.2)
    if family == "callback":
        f = Nonlinearity(fn=f.fn, f0=f.f0, finf=f.finf)
    return Problem.nonlinear(2.5, 2, M_LIN, 1.0, f), 1.0


def assert_root_shot_is_shoot(prob, alpha, bracket, in_alpha, marched, solve_results):
    """The trajectory solve_miss returns is shoot's at the root, array for
    array and by bits, and the kernel marched the root again exactly where
    marched says; returns the root."""
    root, _, traj, _ = _solved(radial_ivp.solve_miss, prob, alpha, bracket, in_alpha, TIGHT,
                               XTOL)
    at = (prob, root) if in_alpha else (prob.at(root), alpha)
    assert_same_shot(traj, shoot(*at, **TIGHT))
    assert traj.alpha == at[1] and (traj.p, traj.N) == (prob.p, prob.N)
    assert solve_results[-1].marched is marched
    return root


@pytest.mark.kernel
@pytest.mark.parametrize("family", ["rational", "perturbed", "callback"])
def test_solve_reads_the_shot_at_the_root_off_its_trial(family, solve_results):
    prob, alpha = _root_shot_problem(family)
    bracket = _first_bracket(lambda x: probe(prob.at(x), alpha, **TIGHT),
                             [2.0**k for k in range(-2, 18)])
    root = assert_root_shot_is_shoot(prob, alpha, bracket, False, False, solve_results)
    if family == "perturbed":
        return  # the perturbed miss is near-homogeneous in u(0) at this mu
    at_root = prob.at(root * 1.01)
    bracket = _first_bracket(lambda x: probe(at_root, x, **TIGHT), [alpha / 8, alpha * 8])
    assert_root_shot_is_shoot(at_root, None, bracket, True, False, solve_results)
    assert len(solve_results) == 2


@pytest.mark.kernel
@pytest.mark.parametrize("end", [0, 1])
def test_solve_marches_a_root_at_a_bracket_end(end, solve_results):
    # D = 0 at an end is the root, and no trial was shot there
    prob = Problem.nonlinear(2.0, 1, M_LIN, 1.0, ROOT_SHOT_F)
    ends = [probe(prob.at(x), 1.0, **TIGHT) for x in (2.0, 40.0)]
    ends[end] = _fake_probe(0.0)
    root = assert_root_shot_is_shoot(prob, 1.0, (2.0, 40.0, *ends), False, True,
                                     solve_results)
    assert root == (2.0, 40.0)[end] and solve_results[-1].trials == 0


@pytest.mark.kernel
def test_solve_marches_a_root_older_than_three_trials(solve_results):
    # a point of the 1 - 2r branch of C_2^+: Brent's method returns its
    # contrapoint, a trial more than three before the last of 17
    prob = Problem.nonlinear(2.0, 1, M_LIN, 1.0, ROOT_SHOT_F)
    alpha, a, b = 3.308722450212111, 152.01529603044537, 173.48059116377254
    bracket = (a, b, *(probe(prob.at(x), alpha, **TIGHT) for x in (a, b)))
    assert_root_shot_is_shoot(prob, alpha, bracket, False, True, solve_results)
    solved = solve_results[-1]
    assert solved.record is not None and solved.trials == 17


@pytest.mark.kernel
@pytest.mark.parametrize("case", ["trial", "end", "older"])
def test_solve_without_a_shot_at_the_root(case, solve_results):
    # n_shot = 0, as the loose eigenvalue solves ask (stopped at xrtol 1e-7):
    # no shot at the root, neither read off its trial nor marched again
    # where the root is a bracket end or an older trial; the root, its
    # probe and the trials are those of the solve with a shot, to the bits
    prob, alpha = Problem.nonlinear(2.0, 1, M_LIN, 1.0, ROOT_SHOT_F), 1.0
    xtol = dict(xtol=1e-15, xrtol=1e-7)
    if case == "trial":
        bracket = _first_bracket(lambda x: probe(prob.at(x), alpha, **LOOSE),
                                 [2.0**k for k in range(-2, 18)])
    elif case == "end":
        bracket = (2.0, 40.0, _fake_probe(0.0), probe(prob.at(40.0), alpha, **LOOSE))
    else:  # the contrapoint of test_solve_marches_a_root_older_than_three_trials
        alpha, a, b = 3.308722450212111, 152.01529603044537, 173.48059116377254
        bracket, xtol = (a, b, *(probe(prob.at(x), alpha, **TIGHT) for x in (a, b))), XTOL
    tols = TIGHT if case == "older" else LOOSE
    got = _solved(radial_ivp.solve_miss, prob, alpha, bracket, False, tols, xtol, n_shot=0)
    want = _solved(reference.solve_miss, prob, alpha, bracket, False, tols, xtol, n_shot=0)
    assert got[2] is None and want[2] is None
    assert solve_results[-1].shot is None and solve_results[-1].marched is False
    with_shot = _solved(radial_ivp.solve_miss, prob, alpha, bracket, False, tols, xtol)
    assert solve_results[-1].marched is (case != "trial")
    for solved in (want, with_shot):
        assert _same_bits(got[0], solved[0]) and type(got[0]) is float
        assert_same_probe(got[1], solved[1])
        assert_same_trials(got[3], solved[3])
    assert len(solve_results) == 2


def test_solve_rejects_a_negative_shot_size(solve_results):
    prob = Problem.nonlinear(2.0, 1, M_LIN, 1.0, ROOT_SHOT_F)
    with pytest.raises(ValueError, match=r"Number of samples, -1, must be non-negative"):
        radial_ivp.solve_miss(prob, 1.0, 2.0, 40.0, (_fake_probe(-1.0), _fake_probe(1.0)),
                              **TIGHT, **XTOL, n_shot=-1)
    assert solve_results == []


# ---------------------------------------------------------------------------
# a right-hand side without a fused form runs on the kernel's CALLBACK
# family: its shots, probes and solves give the bits of the fused form of
# the same right-hand side, and what its w raises is raised as it was


@pytest.mark.kernel
@pytest.mark.parametrize("weight", sorted(FUSED_WEIGHTS))
@pytest.mark.parametrize("n_dim", GRID_N)
@pytest.mark.parametrize("p", GRID_P)
def test_called_back_rhs_matches_its_fused_form(p, n_dim, weight):
    # each cell of the grid shoots and probes all four right-hand sides, and
    # solves one of them in turn, in lam and, where u(1) is not homogeneous
    # in u(0), in u(0)
    i, problems = _grid_problems(p, n_dim, weight)
    lam = 37.5 if i % 2 else -0.3
    problems.insert(0, (Problem.linear(p, n_dim, FUSED_WEIGHTS[weight], lam), i + 3))
    for prob, j in problems:
        alpha, called_back = AMPLITUDES[j % len(AMPLITUDES)], _called_back(prob)
        assert_same_shot(shoot(called_back, alpha, blowup_limit=1e12, **TIGHT),
                         shoot(prob, alpha, blowup_limit=1e12, **TIGHT))
        assert_same_probe(probe(called_back, alpha, **LOOSE), probe(prob, alpha, **LOOSE))
    prob = problems[i % len(problems)][0]
    alpha = 0.5 if isinstance(prob.rhs, PerturbedRHS) else 1.0
    bracket = _first_bracket(lambda x: probe(prob.at(x), alpha, **LOOSE),
                             [2.0**k for k in range(-2, 18)])
    fused = _solved(radial_ivp.solve_miss, prob, alpha, bracket, False, LOOSE, XTOL)
    assert_same_solve(_solved(radial_ivp.solve_miss, _called_back(prob), alpha, bracket, False,
                              LOOSE, XTOL), fused)
    compiled = prob.rhs.compiled(p, n_dim, prob.m, prob.lam)
    if compiled.family == _kernel.LINEAR or isinstance(fused[0], type):
        return
    at_root = prob.at(fused[0])
    bracket = _first_bracket(lambda x: probe(at_root, x, **LOOSE), [alpha / 2, alpha * 2])
    assert_same_solve(_solved(radial_ivp.solve_miss, _called_back(at_root), None, bracket, True,
                              LOOSE, XTOL),
                      _solved(radial_ivp.solve_miss, at_root, None, bracket, True, LOOSE, XTOL))


class _Raises:
    """fn(u) until |u| passes 0.5, then its one ValueError; counts the calls
    after it raised."""

    def __init__(self, fn):
        self.fn, self.error, self.raised, self.after = fn, ValueError("|u| > 0.5"), False, 0

    def __call__(self, u):
        self.after += self.raised
        if abs(u) > 0.5:
            self.raised = True
            raise self.error
        return self.fn(u)


def _raising_problem(kind):
    """A problem of m = -1 whose shot from u(0) = 0.1 grows past 0.5, with a
    hand-built f (kind "f") or a Perturbation subclass's g ("g") that raises
    there, and its _Raises."""
    raises = _Raises(Nonlinearity.phi(2.0).fn)
    if kind == "f":
        return Problem.nonlinear(2.0, 1, Weight.constant(-1.0), 50.0,
                                 Nonlinearity(fn=raises, f0=1.0, finf=1.0)), raises

    class RaisingPerturbation(Perturbation):
        def __call__(self, mval, r, u, mu):
            raises(u)
            return super().__call__(mval, r, u, mu)

    return Problem.perturbed(2.0, 1, Weight.constant(-1.0), 50.0,
                             RaisingPerturbation(2.0)), raises


@pytest.mark.kernel
@pytest.mark.parametrize("kind", ["f", "g"])
@pytest.mark.parametrize("call", ["shoot", "probe", "solve_miss"])
def test_callback_raises_its_own_exception(kind, call):
    # the very object f or g raised, and f or g is not called after it
    prob, raises = _raising_problem(kind)
    run = {
        "shoot": lambda: shoot(prob, 0.1),
        "probe": lambda: probe(prob, 0.1, **TIGHT),
        "solve_miss": lambda: radial_ivp.solve_miss(
            prob, 0.1, 40.0, 60.0, (_fake_probe(-1.0), _fake_probe(1.0)), **TIGHT, **XTOL),
    }[call]
    with pytest.raises(ValueError) as info:
        run()
    assert info.value is raises.error and (raises.raised, raises.after) == (True, 0)


@pytest.mark.kernel
@pytest.mark.parametrize("cast", [int, np.float64], ids=["int", "numpy.float64"])
def test_callback_takes_the_float_of_what_f_returns(cast):
    def f(u):  # f of one sign on each side of 0
        return int(math.copysign(3.0, u)) if cast is int else cast(u) ** 3

    def as_float(u):
        return float(f(u))

    got, want = (shoot(Problem.nonlinear(2.0, 2, M_LIN, 7.5, Nonlinearity(fn=fn, f0=1.0, finf=1.0)),
                       0.8) for fn in (f, as_float))
    assert type(f(0.3)) is cast
    assert_same_shot(got, want)
