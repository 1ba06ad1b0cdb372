import math

import numpy as np
import pytest

from pspect.pfuncs import _pval, pi_p

from oracles import arclength, phi_p, phi_p_inv, pi_p_quadrature, sin_p, sinp_ode_residual


@pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, math.inf, math.nan])
def test_exponent_rejects_bad_p(bad):
    with pytest.raises(ValueError):
        _pval(bad)


def test_phi_p_examples():
    assert phi_p(1.0, 2.5) == 1.0
    assert abs(phi_p(-2.0, 2.5) - (-(2.0**1.5))) < 1e-15
    assert phi_p(0.0, 1.5) == 0.0


def test_phi_p_odd_and_monotone():
    rng = np.random.default_rng(7)
    for p in (1.3, 2.0, 3.7):
        s = rng.uniform(-5, 5, 200)
        assert np.allclose(phi_p(-s, p), -phi_p(s, p), rtol=0, atol=0)
        pairs = np.sort(rng.uniform(-10, 10, (100, 2)), axis=1)
        lo, hi = pairs[:, 0], pairs[:, 1]
        distinct = hi - lo > 1e-12
        assert np.all(phi_p(lo[distinct], p) < phi_p(hi[distinct], p))


def test_phi_p_inv_round_trip():
    assert abs(phi_p_inv(phi_p(3.7, 3.0), 3.0) - 3.7) < 1e-12 * 3.7
    for p in (1.5, 2.0, 2.5, 4.0):
        assert phi_p_inv(1.0, p) == 1.0
    assert phi_p_inv(-8.0, 2.0) == -8.0
    rng = np.random.default_rng(3)
    s = rng.uniform(-20, 20, 50)
    for p in (1.2, 2.6, 5.0):
        assert np.max(np.abs(phi_p_inv(phi_p(s, p), p) - s)) < 1e-12 * 20


def test_pi_p_closed_form_vs_quadrature():
    assert abs(pi_p(2.0) - math.pi) < 1e-14
    for p in (1.5, 2.0, 2.5, 3.0, 7.0):
        assert abs(pi_p(p) - pi_p_quadrature(p)) < 1e-10


def test_pi_p_reference_values():
    # quadrature oracle values, frozen
    assert abs(pi_p(1.5) - 4.8367983046245806) < 1e-12
    assert abs(pi_p(3.0) - 2.4183991523122903) < 1e-12


def test_sin_p_initial_and_quarter_period():
    for p in (1.5, 2.0, 3.0):
        v, d = sin_p(0.0, p)
        assert v == 0.0 and d == 1.0
        v, d = sin_p(pi_p(p) / 2.0, p)
        assert abs(v - 1.0) < 1e-14 and abs(d) < 1e-7


def test_sin_p_classical_reduction():
    xs = np.array([0.3, 1.1, 2.9])
    v, d = sin_p(xs, 2.0)
    assert np.max(np.abs(v - np.sin(xs))) < 1e-12
    assert np.max(np.abs(d - np.cos(xs))) < 1e-12


def test_sin_p_pythagorean_identity_on_grid():
    for p in (1.5, 2.0, 2.5, 3.0):
        xs = np.linspace(0.0, 2.0 * pi_p(p), 1000)
        v, d = sin_p(xs, p)
        assert np.max(np.abs(np.abs(v) ** p + np.abs(d) ** p - 1.0)) < 1e-9


def test_sin_p_symmetries():
    for p in (1.5, 2.7):
        pip = pi_p(p)
        xs = np.linspace(0.01, pip - 0.01, 57)
        v1, _ = sin_p(xs, p)
        v2, _ = sin_p(pip - xs, p)
        assert np.max(np.abs(v1 - v2)) < 1e-13
        v3, _ = sin_p(xs + pip, p)
        assert np.max(np.abs(v3 + v1)) < 1e-13
        v4, _ = sin_p(xs + 2 * pip, p)
        assert np.max(np.abs(v4 - v1)) < 1e-12


def test_sin_p_inverts_arclength_integral():
    # x -> sin_p(x) -> integral recovers x (independent quadrature)
    for p in (1.5, 2.5):
        for x in (0.2, 0.7, 1.1):
            v, _ = sin_p(x, p)
            assert abs(arclength(p, v) - x) < 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("k", [1, 2])
def test_sin_p_substitution_solves_the_ode(p, k):
    # u(x) = sin_p((2k-1) pi_p (1-x)/2) has u'(0) = 0, u(1) = 0 and solves
    # the unit-weight equation with lam = (p-1)((2k-1) pi_p/2)^p
    pip = pi_p(p)
    omega = (2 * k - 1) * pip / 2.0
    v0, d0 = sin_p(omega, p)  # x = 0
    assert abs(d0) < 1e-7  # u'(0) ~ sin_p'(omega) = 0
    v1, _ = sin_p(0.0, p)
    assert v1 == 0.0
    assert sinp_ode_residual(p, k) <= 1e-6
