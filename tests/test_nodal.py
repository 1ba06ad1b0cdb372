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


# the kernel computes f of the built-in families to the bits of the Python f
# (the fixed-point residual evaluates f there); where Python would raise it
# declines, and the Python f runs

F_VALUES = np.array([0.0, -0.0, 1e-300, -3e-9, 0.37, -1.0, 2.5, -41.0, 7e17, -3e120,
                     1e139, math.inf, -math.inf, math.nan])


@pytest.mark.parametrize("f", [F_REF, Nonlinearity.rational(2.5, 1.1, 2.3, 2.2),
                               Nonlinearity.phi(1.3), Nonlinearity.phi(4.0)])
def test_kernel_f_matches_python_f(f):
    def python_f(u):
        try:
            return np.array([f(float(x)) for x in u])
        except (OverflowError, ZeroDivisionError):
            return None

    ran = []
    for k in range(1, len(F_VALUES) + 1):
        u = F_VALUES[:k]
        got, want = _kernel.apply_f(f.kernel_params(), u), python_f(u)
        ran.append(got is not None)
        if got is not None:
            assert want is not None and got.tobytes() == want.tobytes()
    if _kernel.load() is not None:
        assert ran[:9] == [True] * 9  # up to the first value near overflow


@pytest.mark.parametrize("f", [F_REF, Nonlinearity.phi(2.5), Nonlinearity.rational(1.5, 2.0, 0.5)])
def test_residual_on_the_kernel_matches_python_f(monkeypatch, f):
    prob = Problem.nonlinear(2.0, 2, M_LIN, 30.0, f)
    traj = shoot(prob, 0.8)
    got = solution_residual(prob, traj)
    hand_built = Nonlinearity(fn=f.fn, f0=f.f0, finf=f.finf)
    assert got == solution_residual(Problem.nonlinear(2.0, 2, M_LIN, 30.0, hand_built), traj)
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert got == solution_residual(prob, traj)


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


@pytest.mark.parametrize("alpha_min, alpha_max", [(1e2, 1e-2), (1.0, 1.0)])
def test_amplitude_range_must_increase(alpha_min, alpha_max):
    named = f"alpha_min = {alpha_min:g} and alpha_max = {alpha_max:g}"
    with pytest.raises(PreconditionError, match=named):
        find_nodal(2.0, 1, M1, F_REF, 2.0, 1, "+", alpha_min=alpha_min, alpha_max=alpha_max)
    with pytest.raises(PreconditionError, match=named):
        trace_branch(2.0, 1, M1, F_REF, 1, "+", alpha_min=alpha_min, alpha_max=alpha_max)


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
    gs = br.gammas
    assert not br.truncated
    assert np.max(np.abs(gs - LAM1)) <= 1e-8 * LAM1


def test_branch_reference_endpoints():
    br = trace_branch(2.0, 1, M1, F_REF, 1, "+", alpha_min=1e-3, alpha_max=1e3)
    assert not br.truncated
    assert abs(br.gamma_zero_estimate * F_REF.f0 / LAM1 - 1.0) <= 0.02
    assert abs(br.gamma_inf_estimate * F_REF.finf / LAM1 - 1.0) <= 0.05
    # amplitude-parametrized points, strictly increasing alpha
    alphas = br.alphas
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
    # warm-started at 100 mu_1, no bracket within 90 % has an end in the
    # k = 1 class (mu_3 < 0.2 * 100 mu_1), so no root is solved for
    spec = _ShiftedSpectrum(compute_spectrum(2.0, 1, M1, 1, ("+",)), 100.0)
    br = trace_branch(2.0, 1, M1, F_REF, 1, "+", alpha_min=1e-2, alpha_max=1e2,
                      spectrum=spec)
    assert br.truncated and br.points == []
    assert br.diagnostics == [
        f"no gamma bracket within 90 % of {spec.mu(1, '+'):.8g} changes sign at "
        "alpha = 0.01; branch truncated"
    ]


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_nodal_solves_probe_no_shot_twice(monkeypatch, kernel):
    # the bracket ends are probed once, by the caller; the solve and the
    # in-class check at its root take them as they are.  Without the
    # kernel every trial of Brent's method is a probe as well.
    if not kernel:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    keys, real = [], radial_ivp.probe

    def spy(problem, alpha, *, rtol, atol, **kw):
        keys.append((problem, alpha, rtol, atol))
        return real(problem, alpha, rtol=rtol, atol=atol, **kw)

    monkeypatch.setattr(radial_ivp, "probe", spy)
    monkeypatch.setattr(nodal, "probe", spy)
    spec = compute_spectrum(2.0, 1, M_LIN, 1)
    runs = (
        lambda: trace_branch(2.0, 1, M_LIN, F_REF, 1, "+", alpha_min=1e-2, alpha_max=1e2,
                             ratio=4.0, spectrum=spec),
        lambda: find_nodal(2.0, 1, M_LIN, F_REF, 0.7 * spec.mu(1, "-"), 1, "+"),
        lambda: verify_bifurcation_points(2.0, 1, M_LIN, Perturbation(2.0), [1], ("+",),
                                          alphas=(1e-1, 1e-2), spectrum=spec),
    )
    for run in runs:
        keys.clear()
        run()
        assert keys and len(set(keys)) == len(keys)


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
# gamma intervals


def test_gamma_intervals_reference_arithmetic():
    spec = compute_spectrum(2.0, 1, M1, 3, nus=("+",))
    ivs = gamma_intervals(spec, 1.0, 2.0, 1)
    finf_first = next(i for i in ivs if i.ordering == "finf_first" and i.nu == "+")
    assert abs(finf_first.lo - LAM1 / 2) <= 1e-8 * LAM1
    assert abs(finf_first.hi - LAM1) <= 1e-8 * LAM1
    assert not finf_first.empty
    assert finf_first.contains(2.0)
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
    assert f0_first.contains(gamma)
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
