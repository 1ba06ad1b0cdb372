import math
from functools import partial

import numpy as np
import pytest

from pspect.errors import PreconditionError
from pspect.greens import SourceTerm, apply_Gp, as_source
from pspect.radial_ivp import Problem, shoot
from pspect.spectrum import find_eigenvalues
from pspect.weights import Weight

from oracles import residual, source_problem
from reference import weight_at


def test_laplace_closed_form():
    # p=2, N=1, h=1: u = (1 - r^2)/2
    prof = apply_Gp(2.0, 1, Weight.constant(1.0))
    rs = np.linspace(0, 1, 101)
    assert np.max(np.abs(prof(rs) - (1 - rs**2) / 2)) < 1e-12
    assert abs(prof.u[-1]) == 0.0
    assert prof.uprime[0] == 0.0


@pytest.mark.parametrize("r", [-0.1, 1.0 + 1e-12, [0.5, 2.0]])
def test_profile_outside_its_grid_is_an_error(r):
    prof = apply_Gp(2.0, 1, Weight.constant(1.0))
    with pytest.raises(ValueError, match=r"defined on \[0, 1\]"):
        prof(r)
    assert prof(0.0) == prof.u[0] and abs(prof(1.0)) < 1e-15  # the ends are in


@pytest.mark.parametrize("p,n_dim", [(2.5, 3), (1.5, 2), (3.0, 1), (2.0, 3)])
def test_general_closed_form_constant_source(p, n_dim):
    # h=1: u = N^{-1/(p-1)} (1 - r^{p'})/p'
    pc = p / (p - 1.0)
    prof = apply_Gp(p, n_dim, Weight.constant(1.0))
    rs = np.linspace(0, 1, 101)
    exact = n_dim ** (-1.0 / (p - 1.0)) * (1 - rs**pc) / pc
    assert np.max(np.abs(prof(rs) - exact)) < 1e-10


@pytest.mark.parametrize("n_dim", [1, 2, 3])
def test_closed_form_constant_source_p4(n_dim):
    # p = 4: u' = -N^{-1/3} r^{1/3} has an infinite curvature at the origin
    p = 4.0
    pc = p / (p - 1.0)
    prof = apply_Gp(p, n_dim, Weight.constant(1.0))
    rs = np.linspace(0, 1, 1001)
    exact = n_dim ** (-1.0 / (p - 1.0)) * (1 - rs**pc) / pc
    assert np.max(np.abs(prof(rs) - exact)) < 1e-9


def test_value_at_origin_of_a_sign_changing_source():
    # u(0) = integral_0^1 phi_{5/3}(t/3 - t^2/2) dt, by mpmath to 30 digits
    prof = apply_Gp(2.5, 3, Weight.poly([1.0, -2.0]))
    assert abs(prof.u[0] - 0.016394373644277280) < 5e-10


def test_kinks_are_the_roots_of_H():
    # H(t) = t^3/3 - t^4/2 changes sign only at 2/3; near the origin it is
    # tiny but positive, so nothing but the origin ladder is graded there
    prof = apply_Gp(2.5, 3, Weight.poly([1.0, -2.0]))
    assert prof.kinks == pytest.approx((2.0 / 3.0,), abs=1e-13)
    assert np.count_nonzero((prof.r > 1e-5) & (prof.r < 1e-4)) == 3


def test_kink_after_a_jump_of_the_source():
    # h = 1 on [0, 1/2), -3 on [1/2, 1], N = 1, p = 2: H = t, then 2 - 3t,
    # whose slope jumps at the breakpoint; u is piecewise quadratic
    h = SourceTerm(eval_vec=lambda r: np.where(r < 0.5, 1.0, -3.0), breakpoints=(0.5,))
    prof = apply_Gp(2.0, 1, h)
    assert prof.kinks == pytest.approx((2.0 / 3.0,), abs=1e-13)
    rs = np.linspace(0, 1, 401)
    exact = np.where(rs < 0.5, -rs**2 / 2, 0.5 - 2.0 * rs + 1.5 * rs**2)
    assert np.max(np.abs(prof(rs) - exact)) < 1e-12


def test_homogeneity():
    # G_p(c h) = c^{1/(p-1)} G_p(h)
    rng = np.random.default_rng(11)
    rs = np.linspace(0, 1, 101)
    for p in (1.5, 2.5):
        for _ in range(3):
            coeffs = rng.uniform(-1, 1, 4)
            c = float(rng.uniform(0.1, 30.0))
            h = Weight.poly(coeffs)
            u1 = apply_Gp(p, 2, h)(rs)
            u2 = apply_Gp(p, 2, h.scaled(c))(rs)
            scale = c ** (1.0 / (p - 1.0))
            ref = np.max(np.abs(scale * u1)) + 1e-300
            assert np.max(np.abs(u2 - scale * u1)) <= 1e-9 * ref


def test_monotonicity_in_source():
    h1 = Weight.poly([0.5, 0.2])
    h2 = Weight.poly([0.8, 0.4])
    rs = np.linspace(0, 1, 201)
    u1 = apply_Gp(2.5, 2, h1)(rs)
    u2 = apply_Gp(2.5, 2, h2)(rs)
    assert np.all(u2 >= u1 - 1e-10)


def test_agreement_with_shooting():
    # shoot the source problem with alpha matched to G_p(h)(0)
    p, n_dim = 2.5, 2
    h = Weight.poly([1.0, -2.0])
    prof = apply_Gp(p, n_dim, h)
    prob = source_problem(p, n_dim, partial(weight_at, h))
    traj = shoot(prob, float(prof.u[0]))
    rs = np.linspace(1e-5, 1.0, 300)
    u_shot, _ = traj.eval(rs)
    assert np.max(np.abs(u_shot - prof(rs))) < 1e-7


def test_eigenfunction_fixed_point():
    # h = mu_1 * m * phi_p(u_1) reproduces u_1 (the fixed-point property)
    p, n_dim = 2.0, 1
    m = Weight.poly([1.0, -2.0])
    res = find_eigenvalues(Problem.linear(p, n_dim, m, math.nan), 1, "+")
    mu1 = res.values[0]
    traj = res.eigenpairs[0].trajectory

    def source(r):
        r_arr = np.clip(np.asarray(r, float), traj.r[0], traj.r[-1])
        uu = traj.dense(r_arr)[0]
        return mu1 * m(np.asarray(r, float)) * np.sign(uu) * np.abs(uu) ** (p - 1)

    prof = apply_Gp(p, n_dim, source)
    rs = np.linspace(1e-5, 1.0, 257)
    u_eig, _ = traj.eval(rs)
    assert np.max(np.abs(u_eig - prof(rs))) <= 1e-6 * np.max(np.abs(u_eig))


def test_residual_exact_pair():
    res = residual(
        2.0, 1, Weight.constant(1.0),
        lambda r: (1 - np.asarray(r) ** 2) / 2,
        lambda r: -np.asarray(r),
    )
    assert res <= 1e-8


def test_residual_detects_perturbation():
    res = residual(
        2.0, 1, Weight.constant(1.0),
        lambda r: (1 - np.asarray(r) ** 2) / 2 + 1e-3 * np.sin(np.pi * np.asarray(r)),
        lambda r: -np.asarray(r) + 1e-3 * np.pi * np.cos(np.pi * np.asarray(r)),
    )
    assert res > 1e-3


def test_residual_zero_pair():
    res = residual(
        2.5, 3, Weight.constant(0.0),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )
    assert res == 0.0


def test_residual_of_operator_output():
    h = Weight.poly([1.0, -2.0])  # sign-changing: exercises the kink grading
    for p, n_dim in ((2.5, 3), (1.5, 2)):
        prof = apply_Gp(p, n_dim, h)
        assert residual(p, n_dim, h, prof) <= 1e-7


def test_source_normalization_forms():
    s1 = as_source(Weight.constant(1.0))
    assert s1.value0() == 1.0
    s2 = as_source(lambda r: np.asarray(r) ** 2)
    assert abs(s2(np.array([0.5]))[0] - 0.25) < 1e-15
    assert as_source(s2) is s2
    for unsupported in (object(), 1.0, (np.linspace(0, 1, 33), np.linspace(0, 1, 33))):
        with pytest.raises(PreconditionError, match="cannot interpret source term"):
            as_source(unsupported)
