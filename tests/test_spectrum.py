import gc
import math
import sys
import threading
from functools import partial
from types import SimpleNamespace

import pytest
from scipy.special import jn_zeros

from pspect import _kernel, spectrum
from pspect.errors import NegativeSequenceAbsent, PreconditionError, SpectrumIncomplete
from pspect.radial_ivp import DEFAULT_ATOL, DEFAULT_RTOL, Probe, Problem, probe
from pspect.spectrum import (
    SCAN_ATOL,
    SCAN_RTOL,
    Spectrum,
    _polish_root,
    _Prober,
    closed_form_mu,
    compute_spectrum,
    crossing_index,
    find_eigenvalues,
    shared_shots,
    verify_p_continuity,
    verify_sturm,
    verify_weight_monotonicity,
    verify_zero_proliferation,
)
from pspect.weights import Weight

import reference
from oracles import lambda_k_closed, rayleigh_mu1, rk4_shot

M1 = Weight.constant(1.0)
M_LIN = Weight.poly([1.0, -2.0])


def eig_problem(p, n_dim, m):
    return Problem.linear(p, n_dim, m, math.nan)


def miss(problem, mu, **kw):
    """(D, Z) of the alpha = 1 shot at mu, at the default tolerances."""
    pr = probe(problem.at(mu), 1.0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, **kw)
    return pr.d, pr.z


# ---------------------------------------------------------------------------
# miss function


def test_miss_ground_state():
    d, z = miss(eig_problem(2.0, 1, M1), (math.pi / 2) ** 2)
    assert abs(d) < 1e-9
    assert z == 0


def test_miss_cos2r():
    d, z = miss(eig_problem(2.0, 1, M1), 4.0)
    assert abs(d - math.cos(2.0)) < 1e-9
    assert z == 1  # zero at pi/4 < 1


def test_miss_mu_zero_trivial_shot():
    d, z = miss(eig_problem(2.0, 1, M1), 0.0)
    assert d == pytest.approx(1.0, abs=1e-12)
    assert z == 0


def test_miss_against_fixed_step_reference():
    p, n_dim, mu = 2.5, 3, 50.0
    d, z = miss(eig_problem(p, n_dim, M_LIN), mu)
    _, us, zeros = rk4_shot(p, n_dim, partial(reference.weight_at, M_LIN), mu, 1.0,
                          n_steps=60000)
    assert abs(d - us[-1]) < 1e-7
    assert z == zeros


def test_miss_blowup_reports_signed_sentinel():
    # m = -1, p = 2: u = cosh(sqrt(mu) r) passes the default 1e12 guard
    # at r ~ 0.897, so the miss is the sentinel +1e12 and no zero was seen;
    # under the searches' 1e100 guard the miss is u(1) = cosh(sqrt(1000))
    prob = eig_problem(2.0, 1, Weight.constant(-1.0))
    assert miss(prob, 1e3) == (1e12, 0)
    d, z = miss(prob, 1e3, blowup_limit=_Prober.BLOWUP)
    assert d == pytest.approx(math.cosh(math.sqrt(1e3)), rel=1e-8)
    assert z == 0


def test_prober_keeps_truncated_count_of_blown_up_probe():
    # the alpha = 1 probe passes the prober's 1e100 guard before the
    # negative stretch (0.939, 1] is reached: the miss is +1e12 and the
    # zero count over the traversed range (0) is kept, not replaced by -1
    m = Weight.poly([0.86, -0.18, 0.10, -0.94])
    node = _Prober(eig_problem(2.5, 3, m), -1, 10).loose(1e7)
    assert node.d == 1e12
    assert node.z == 0


def test_prober_charges_a_repeated_probe_once():
    # a search pays once per (|mu|, rtol, atol): asking again, or asking
    # for the tight probe at the loose tolerances, costs nothing more
    prober = _Prober(eig_problem(2.0, 1, M_LIN), 1, 3)
    prober.loose(5.0)
    prober.loose(5.0)
    assert prober.tight(5.0, SCAN_RTOL, SCAN_ATOL) == prober.loose(5.0).d
    assert prober.count == 1
    prober.tight(5.0, DEFAULT_RTOL, DEFAULT_ATOL)
    prober.tight(5.0, DEFAULT_RTOL, DEFAULT_ATOL)
    assert prober.count == 2


# ---------------------------------------------------------------------------
# eigenvalue sequences


def test_unit_weight_p2_closed_form():
    res = find_eigenvalues(eig_problem(2.0, 1, M1), 3, "+")
    exact = [((2 * k - 1) * math.pi / 2) ** 2 for k in (1, 2, 3)]
    assert res.complete
    for got, want in zip(res.values, exact):
        assert abs(got - want) <= 1e-9 * want


def test_unit_weight_p3_first_eigenvalue():
    res = find_eigenvalues(eig_problem(3.0, 1, M1), 1, "+")
    want = lambda_k_closed(3.0, 1)  # quadrature-oracle closed form
    assert abs(want - 3.536095247000315) < 1e-10  # frozen oracle value
    assert abs(res.values[0] - want) <= 1e-9 * want


def test_unit_weight_planar_disc_bessel():
    # N=2, p=2, m=1: u = J_0(sqrt(mu) r), so mu_k = j_{0,k}^2
    from scipy.special import jn_zeros

    res = find_eigenvalues(eig_problem(2.0, 2, M1), 3, "+")
    for got, want in zip(res.values, jn_zeros(0, 3) ** 2):
        assert abs(got - want) <= 1e-9 * want


def test_largest_dimension_matches_the_bessel_zeros():
    # N = 52, p = 2, m = 1: u = r^(-25) J_25(sqrt(mu) r), so mu_k = j_{25,k}^2
    from scipy.special import jn_zeros

    res = find_eigenvalues(eig_problem(2.0, 52, M1), 2, "+")
    assert res.complete
    for got, want in zip(res.values, jn_zeros(25, 2) ** 2):
        assert abs(got - want) <= 1e-8 * want


@pytest.mark.parametrize("n_dim", [53, 60])
def test_dimension_whose_start_radius_power_is_subnormal_raises(n_dim):
    # 1e-6 ** (N - 1) is below the smallest normal float from N = 53 on
    with pytest.raises(PreconditionError, match=f"dimension N = {n_dim} .* N <= 52 is"):
        find_eigenvalues(eig_problem(2.0, n_dim, M1), 2, "+")
    with pytest.raises(PreconditionError, match="N <= 52 is supported"):
        probe(eig_problem(2.0, n_dim, M1).at(1.0), 1.0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL)


def test_low_p_and_high_dimension():
    res = find_eigenvalues(eig_problem(1.2, 1, M1), 2, "+")
    assert res.complete
    assert all(len(ep.zeros) == ep.k - 1 for ep in res.eigenpairs)
    res5 = find_eigenvalues(eig_problem(2.5, 5, M_LIN), 2, "+")
    assert res5.complete
    assert all(len(ep.zeros) == ep.k - 1 for ep in res5.eigenpairs)


@pytest.mark.parametrize("p, tolerances, stop", [
    (1.006, {}, "OverflowError: "),
    (2.0, {"rtol": 1e-30, "atol": 1e-300}, "IntegrationError: step size underflow at r = "),
])
def test_an_error_in_a_shot_ends_the_search_partial(p, tolerances, stop):
    # a shot that raises stops the search as the budget does: the result is
    # partial, keeps its validated prefix and names the error
    res = find_eigenvalues(eig_problem(p, 1, M1), 6, "+", **tolerances)
    assert not res.complete
    assert res.message.startswith(stop)
    assert res.message.endswith(f"; largest validated index {len(res.values)}")


# m = 1, p = 2: mu_k^+ = j_{N/2-1,k}^2, the squared zeros of the Bessel
# function of order N/2 - 1, ((k - 1/2) pi)^2 at N = 1 and (k pi)^2 at N = 3

def bessel_mu(n_dim, K):
    if n_dim == 1:
        return [((k - 0.5) * math.pi) ** 2 for k in range(1, K + 1)]
    if n_dim == 3:
        return [(k * math.pi) ** 2 for k in range(1, K + 1)]
    return [float(j) ** 2 for j in jn_zeros(n_dim // 2 - 1, K)]


# the tail filter drops genuine zeros of a shot whose amplitude decays like
# r^(-(N-1)/2), and constant tolerances lose its flux (ROADMAP item 20)
BESSEL_KNOWN = [
    pytest.param(26, 6, marks=pytest.mark.xfail(
        strict=True, reason="complete, with mu_6 2.6e-8 off (item 20)")),
    pytest.param(48, 3, marks=pytest.mark.xfail(
        strict=True, reason="complete, with mu_3 120 % off (item 20)")),
]


@pytest.mark.parametrize("n_dim, K", [(n, 6) for n in (1, 2, 3, 4, 8, 12, 16, 20, 22)]
                         + BESSEL_KNOWN)
def test_unit_weight_matches_the_bessel_zeros(n_dim, K):
    res = find_eigenvalues(eig_problem(2.0, n_dim, M1), K, "+")
    for k, (mu, want) in enumerate(zip(res.values, bessel_mu(n_dim, K)), 1):
        assert abs(mu - want) <= 1e-8 * want, (k, mu, want)
    assert res.complete, res.message


def test_eigenfunction_nodal_structure():
    res = find_eigenvalues(eig_problem(2.0, 1, M_LIN), 3, "+")
    for ep in res.eigenpairs:
        assert len(ep.zeros) == ep.k - 1
        assert not ep.trajectory.degenerate
        assert ep.boundary_residual < 1e-8


def test_negative_sequence_and_mirror_reduction():
    spec = compute_spectrum(2.0, 1, M_LIN, 4)
    mirror = find_eigenvalues(eig_problem(2.0, 1, M_LIN.negated()), 4, "+")
    for k in range(1, 5):
        a = spec.mu(k, "-")
        b = -mirror.mu(k)
        assert abs(a - b) <= 1e-10 * abs(b)


def test_negative_sequence_absent_for_positive_weight():
    with pytest.raises(NegativeSequenceAbsent):
        find_eigenvalues(eig_problem(2.0, 1, M1), 2, "-")


def test_second_eigenvalue_against_independent_sweep():
    # fixed-step oracle: D changes sign across the reported mu_2 and the
    # reported value sits in a tiny bracket of sign change
    res = find_eigenvalues(eig_problem(2.0, 1, M_LIN), 2, "+")
    mu2 = res.mu(2)

    def oracle_d(mu):
        _, us, _ = rk4_shot(2.0, 1, partial(reference.weight_at, M_LIN), mu, 1.0, n_steps=40000)
        return us[-1]

    delta = 1e-5 * mu2
    assert oracle_d(mu2 - delta) * oracle_d(mu2 + delta) < 0


def test_spectrum_homogeneity_in_weight():
    c = 2.0
    res1 = find_eigenvalues(eig_problem(2.0, 1, M_LIN), 3, "+")
    res2 = find_eigenvalues(eig_problem(2.0, 1, M_LIN.scaled(c)), 3, "+")
    for a, b in zip(res1.values, res2.values):
        assert abs(b - a / c) <= 1e-9 * abs(a / c)


def test_values_independent_of_scan_density(monkeypatch):
    res1 = find_eigenvalues(eig_problem(2.5, 1, M_LIN), 3, "+")
    monkeypatch.setattr(spectrum, "SCAN_RATIO", 1.34)
    res2 = find_eigenvalues(eig_problem(2.5, 1, M_LIN), 3, "+")
    assert res2.probes_used != res1.probes_used  # the denser scan ran
    for a, b in zip(res1.values, res2.values):
        assert abs(a - b) <= 1e-9 * abs(a)


def test_strict_interlacing_and_ordering():
    spec = compute_spectrum(2.5, 2, M_LIN, 4)
    pos = spec.values("+")
    neg = spec.values("-")
    assert all(b > a for a, b in zip(pos, pos[1:]))
    assert all(b < a for a, b in zip(neg, neg[1:]))
    assert pos[0] > 0 > neg[0]


@pytest.fixture
def budget_30(monkeypatch):
    monkeypatch.setattr(spectrum, "DEFAULT_BUDGET", 30)


def test_budget_exhaustion_reports_partial(budget_30):
    res = find_eigenvalues(eig_problem(2.0, 1, M_LIN), 6, "+")
    assert not res.complete
    assert "budget" in res.message or len(res.eigenpairs) < 6


def test_budget_stop_named_in_message(budget_30):
    res = find_eigenvalues(eig_problem(2.0, 1, M_LIN), 6, "+")
    assert not res.complete
    assert res.message.startswith("scan budget of 30 probes exhausted")
    assert "ceiling" not in res.message


def test_spectrum_missing_index_raises_with_stop_reason(budget_30):
    res = find_eigenvalues(eig_problem(2.0, 1, M_LIN), 6, "+")
    spec = Spectrum(p=2.0, N=1, results={"+": res})
    assert spec.mu(1, "+") == res.values[0]
    with pytest.raises(SpectrumIncomplete) as err:
        spec.mu(2, "+")
    assert str(err.value).startswith(
        "mu_2^+ not validated: scan budget of 30 probes exhausted"
    )
    with pytest.raises(SpectrumIncomplete):
        res.mu(2)


def test_eigenvalues_are_searched_on_a_linear_problem():
    prob = Problem.perturbed(2.0, 1, M1, 1.0, lambda mval, r, u, mu: 0.0)
    with pytest.raises(PreconditionError, match="linear problem"):
        find_eigenvalues(prob, 1, "+")


def test_compute_spectrum_skips_absent_negative_sequence():
    spec = compute_spectrum(2.0, 1, M1, 1)
    assert list(spec.results) == ["+"]
    with pytest.raises(NegativeSequenceAbsent):
        spec.mu(1, "-")


def test_compute_spectrum_keeps_narrow_negative_part(monkeypatch):
    # negative only on (0.49999, 0.50001), narrower than a 10,000-point grid's spacing
    monkeypatch.setattr(spectrum, "DEFAULT_BUDGET", 5)
    hat = Weight((0, 0.49998, 0.5, 0.50002, 1), ((-1,), (-1, 1e5), (1, -1e5), (-1,)))
    spec = compute_spectrum(2.0, 1, hat.negated(), 1, ("-",))
    assert list(spec.results) == ["-"]


def test_tiny_weight_keeps_its_negative_sequence(monkeypatch):
    monkeypatch.setattr(spectrum, "DEFAULT_BUDGET", 1)
    spec = compute_spectrum(2.0, 1, Weight.poly([1e-15, -2e-15]), 1)
    assert list(spec.results) == ["+", "-"]


def test_polish_root_without_tight_bracket_returns_none():
    class NoSignChange:
        def tight(self, x, rtol, atol):
            return 1.0

    assert _polish_root(NoSignChange(), 5.0, 4.0, 6.0, 1e-10, 1e-12) is None


def test_polish_root_falls_back_to_the_loose_bracket():
    # the tight D changes sign over the loose bracket (4, 6) but not within
    # the first window, +-3 SCAN_RTOL x0, of the loose root 5: the polish
    # solves on (4, 6) after the four tight probes of its two windows
    class FarRoot:
        def __init__(self):
            self.tight_probes, self.solves = [], []

        def tight(self, x, rtol, atol):
            self.tight_probes.append(x)
            return 1.0 if x < 5.9 else -1.0

        def solve(self, a, b, rtol, atol):
            self.solves.append((a, b))
            return 5.9, "eigenfunction"

    prober = FarRoot()
    assert _polish_root(prober, 5.0, 4.0, 6.0, 1e-10, 1e-12) == (5.9, "eigenfunction")
    assert prober.solves == [(4.0, 6.0)]
    assert len(prober.tight_probes) == 4


def test_bracket_index_is_one_more_than_the_smaller_end_count():
    # D = (0.5 - x)(2.5 - x)(4.5 - x) over hand-made scan nodes (x, D, Z):
    # (0, 1) steps the count from 0 to 1, (2, 3) keeps it at 1 and so
    # gets index 2, and (4, 5), between counts K = 2 and K + 1, is never
    # solved; the eigenfunction at each root has the zeros of its index
    roots = {0.5: 0, 2.5: 1, 4.5: 2}

    def miss(x):
        return math.prod(r - x for r in roots)

    class Scripted:
        def __init__(self):
            self.asked = []

        def loose_root(self, a, b):
            self.asked.append((a, b))
            return next(r for r in roots if a < r < b)

        def tight(self, x, rtol, atol):
            self.asked.append((x, x))
            return miss(x)

        def solve(self, a, b, rtol, atol):
            self.asked.append((a, b))
            root = next(r for r in roots if a < r < b)
            zeros = tuple(SimpleNamespace(r=0.1 * (i + 1)) for i in range(roots[root]))
            return root, SimpleNamespace(interior_zeros=zeros, blowup_radius=None, terminal_u=0.0)

        def _charge(self):
            pass

        def fill(self, brackets, rtol, atol):
            pass

    counts = [0, 1, 1, 1, 2, 3]
    nodes = [spectrum._Node(float(x), miss(x), z) for x, z in enumerate(counts)]
    prober, found = Scripted(), {}
    spectrum._classify_brackets(nodes, prober, found, 2, DEFAULT_RTOL, DEFAULT_ATOL)
    assert {k: x for k, (x, _) in found.items()} == {1: 0.5, 2: 2.5}
    assert prober.asked and all(b < 4.0 for _, b in prober.asked)


def test_scan_ceiling_stop_named_in_message():
    # m = 1, N = 1, p = 5: the scan passes its ceiling 1e4 (1 + seed)
    # long before mu_6 (about 9e5), with the probe budget barely touched
    res = find_eigenvalues(eig_problem(5.0, 1, M1), 6, "+")
    assert not res.complete
    assert res.probes_used < 100
    assert res.message.startswith("scan ceiling |mu| = ")
    assert "largest |mu| probed" in res.message
    assert "budget" not in res.message


def spy_solves(monkeypatch):
    """(rtol, result) of every ``solve_miss`` call the search makes."""
    solves, real = [], spectrum.solve_miss

    def spy(*args, **kw):
        solves.append((kw["rtol"], real(*args, **kw)))
        return solves[-1][1]

    monkeypatch.setattr(spectrum, "solve_miss", spy)
    return solves


def by_root(solved):
    """Solves in the order of their roots, that is of their indices: the
    lanes of a search solve its brackets in no fixed order."""
    return sorted(solved, key=lambda s: s[0])


def test_loose_roots_stop_at_the_scan_tolerance(monkeypatch):
    # a loose root only centres the tight windows: its solve stops at
    # xrtol = SCAN_RTOL (29 trials here, 68 when it ran to 8.9e-16), builds
    # no shot, and still lands within the first window, 3 SCAN_RTOL x0, of
    # the polished root
    solves = spy_solves(monkeypatch)
    res = find_eigenvalues(eig_problem(2.6, 1, M1), 6, "+")
    assert res.complete
    loose = by_root(solved for rtol, solved in solves if rtol == SCAN_RTOL)
    tight = by_root(solved for rtol, solved in solves if rtol == DEFAULT_RTOL)
    assert len(loose) == len(tight) == 6 and len(solves) == 12
    assert sum(len(trials) for *_, trials in loose) <= 35
    assert all(traj is None for _, _, traj, _ in loose)
    for (x0, *_), (root, *_), mu in zip(loose, tight, res.values):
        assert root == mu and abs(x0 - root) <= 3 * SCAN_RTOL * x0
    for k, mu in enumerate(res.values, 1):
        assert abs(mu - closed_form_mu(2.6, k)) <= 1e-10 * mu


@pytest.mark.parametrize("rtol,most_trials,error", [
    # the tight shots carry some 1e-11 relative of integration error, so
    # the tight solve stops at xrtol = 1e-3 rtol (1e-13) and its window is
    # +-3 SCAN_RTOL x0: 13 tight trials, against 37 when it ran to
    # 8.9e-16 in a +-1e-6 x0 window, for the same closed-form error
    (DEFAULT_RTOL, 15, 2e-11),
    # at rtol = 1e-13 the stop clamps at 8.9e-16: 31 trials (36 before)
    (1e-13, 40, 1e-11),
])
def test_tight_roots_stop_at_the_resolution_of_their_shots(monkeypatch, rtol, most_trials,
                                                           error):
    solves = spy_solves(monkeypatch)
    res = find_eigenvalues(eig_problem(2.6, 1, M1), 6, "+", rtol=rtol)
    assert res.complete
    loose = by_root(solved for tol, solved in solves if tol == SCAN_RTOL)
    tight = by_root(solved for tol, solved in solves if tol == rtol)
    assert len(loose) == len(tight) == 6
    assert sum(len(trials) for *_, trials in tight) <= most_trials
    for (x0, *_), (root, *_) in zip(loose, tight):
        assert abs(x0 - root) <= 3 * SCAN_RTOL * x0
    for k, mu in enumerate(res.values, 1):
        assert abs(mu - closed_form_mu(2.6, k)) <= error * mu


COS3 = Weight.from_function(lambda r: math.cos(3.0 * math.pi * r))


@pytest.mark.parametrize("p,nu,kept,message", [
    # complete with zero counts 0, 1, 2, 3, 1, 5 before the certificate
    (1.2995, "+", 4, "index 5 not certified: its eigenfunction's zero count is 1, "
                     "k - 1 = 4 required (boundary residual "),
    # mu_4^- had the eigenfunction of mu_3^- (2 zeros)
    (1.3, "-", 3, "index 4 not certified: its eigenfunction's zero count is 2, "
                  "k - 1 = 3 required (boundary residual "),
])
def test_index_certificate_ends_the_search(p, nu, kept, message):
    res = find_eigenvalues(eig_problem(p, 2, COS3), 6, nu)
    assert not res.complete
    assert res.message.startswith(message)
    assert res.message.endswith(f"); largest validated index {kept}")
    assert [ep.k for ep in res.eigenpairs] == list(range(1, kept + 1))
    assert [len(ep.zeros) for ep in res.eigenpairs] == list(range(kept))


def test_blown_up_eigenfunction_ends_the_search():
    # m = 1 - 8r, p = 2, N = 1: the shot of mu_6^+ grows past the probe
    # guard on the negative stretch (1/8, 1], so index 6 is not certified
    res = find_eigenvalues(eig_problem(2.0, 1, Weight.poly([1.0, -8.0])), 6, "+")
    assert not res.complete
    assert res.message.startswith(
        "index 6 not certified: its eigenfunction's shot grows past 1e+100 at r = ")
    assert res.message.endswith(" there); largest validated index 5")
    assert [len(ep.zeros) for ep in res.eigenpairs] == list(range(5))


# ---------------------------------------------------------------------------
# lanes: the first bracket of each index solved ahead on threads


def overflow_near(mu):
    """spectrum.probe, but raising the OverflowError of a shot for a tight
    probe within 1e-6 relative of |mu|: a polish window of that root."""
    def raising(problem, alpha, *, rtol, atol, **kw):
        if rtol == DEFAULT_RTOL and abs(abs(problem.lam) - mu) <= 1e-6 * mu:
            raise OverflowError("math range error")
        return probe(problem, alpha, rtol=rtol, atol=atol, **kw)

    return raising


def no_convergence_around(mu):
    """spectrum.solve_miss, but with Brent's method giving up, after its
    trials, on the loose solve of the bracket that holds |mu|."""
    real = spectrum.solve_miss

    def solve(problem, alpha, a, b, ends, **kw):
        solved = real(problem, alpha, a, b, ends, **kw)
        if kw["rtol"] == SCAN_RTOL and min(a, b) < mu < max(a, b):
            exc = RuntimeError("Failed to converge after 100 iterations.")
            exc.trials = solved[3]
            raise exc
        return solved

    return solve


def unit_search():
    return [find_eigenvalues(eig_problem(2.6, 1, M1), 6, "+")]


def shared_battery():
    with shared_shots():
        return [find_eigenvalues(eig_problem(2.0, 1, M_LIN), K, nu)
                for K, nu in ((3, "+"), (6, "+"), (3, "-"), (6, "-"), (6, "+"))]


# case -> (attributes of spectrum patched, the searches, how the first one stops)
LANE_CASES = {
    "unit_weight": ({}, unit_search, ""),
    "certificate_stop": (
        {}, lambda: [find_eigenvalues(eig_problem(1.3, 2, COS3), 6, "-")],
        "index 4 not certified: its eigenfunction's zero count is 2"),
    "blowup_stop": (
        {}, lambda: [find_eigenvalues(eig_problem(2.0, 1, Weight.poly([1.0, -8.0])), 6, "+")],
        "index 6 not certified: its eigenfunction's shot grows past 1e+100"),
    "budget_stop": ({"DEFAULT_BUDGET": 60}, unit_search, "scan budget of 60 probes exhausted"),
    "overflow_partial": (
        {}, lambda: [find_eigenvalues(eig_problem(1.006, 1, M1), 6, "+")], "OverflowError: "),
    "tight_overflow": ({"probe": overflow_near(closed_form_mu(2.6, 4))}, unit_search,
                       "OverflowError: math range error; largest validated index 3"),
    "no_convergence": (
        {"solve_miss": no_convergence_around(closed_form_mu(2.6, 3))}, unit_search,
        "Brent's method did not converge on the bracket |mu| in ["),
    "shared_battery": ({}, shared_battery, ""),
}


def outcome(res):
    """What a search returns, its values and zeros to the bit."""
    return ([(ep.k, ep.mu.hex(), [z.hex() for z in ep.zeros]) for ep in res.eigenpairs],
            res.message, res.complete, res.probes_used)


@pytest.mark.parametrize("case", LANE_CASES)
def test_one_lane_and_many_give_the_same_bits(monkeypatch, case):
    # the search decides everything in its own order on the memo the lanes
    # fill, so its values, zeros, stop and probe count are those of one lane
    patches, searches, stop = LANE_CASES[case]
    for name, value in patches.items():
        monkeypatch.setattr(spectrum, name, value)
    threads = set(threading.enumerate())
    outcomes, interval = [], sys.getswitchinterval()
    for lanes in (1, 4):  # more lanes than cores, switching threads often
        monkeypatch.setattr(spectrum, "_usable_cpus", lambda: lanes)
        sys.setswitchinterval(1e-6)
        try:
            outcomes.append([outcome(res) for res in searches()])
        finally:
            sys.setswitchinterval(interval)
        assert set(threading.enumerate()) == threads  # every lane has ended
    assert outcomes[0] == outcomes[1]
    message = outcomes[0][0][1]
    assert message.startswith(stop) if stop else message == ""


def test_lanes_solve_on_threads_of_their_own(monkeypatch):
    solvers, real = set(), spectrum.solve_miss

    def solve(*args, **kw):
        solvers.add(threading.get_ident())
        return real(*args, **kw)

    monkeypatch.setattr(spectrum, "solve_miss", solve)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    assert find_eigenvalues(eig_problem(2.6, 1, M1), 6, "+").complete
    assert len(solvers) == 2


def slow_counting_probe(monkeypatch, seconds=0.05):
    """spectrum.probe, held for the given seconds; returns the list of the
    |mu| it was called at."""
    calls, real = [], spectrum.probe

    def slow(problem, alpha, **kw):
        calls.append(abs(problem.lam))
        threading.Event().wait(seconds)  # the other asker arrives meanwhile
        return real(problem, alpha, **kw)

    monkeypatch.setattr(spectrum, "probe", slow)
    return calls


def ask_at_once(n, ask):
    """ask() from n threads released together; what each got or raised."""
    start, got = threading.Barrier(n, timeout=60), [None] * n

    def run(i):
        start.wait()
        try:
            got[i] = ask()
        except Exception as exc:
            got[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    return got


def test_probe_asked_by_two_threads_at_once_is_shot_once(monkeypatch):
    # the memo holds a probe being shot as pending: the second asker waits
    # for that shot instead of shooting its own
    calls = slow_counting_probe(monkeypatch)
    prober = _Prober(eig_problem(2.0, 1, M1), 1, 100)
    got = ask_at_once(2, lambda: prober.tight(3.0, DEFAULT_RTOL, DEFAULT_ATOL))
    assert calls == [3.0]
    assert got[0] == got[1] == probe(eig_problem(2.0, 1, M1).at(3.0), 1.0, rtol=DEFAULT_RTOL,
                                     atol=DEFAULT_ATOL, blowup_limit=_Prober.BLOWUP).d


def test_probe_that_raises_is_shot_again_by_each_asker(monkeypatch):
    # nothing is held for a shot that raised: the waiting asker shoots it
    # itself and raises as it would alone
    calls = slow_counting_probe(monkeypatch)
    prober = _Prober(eig_problem(1.001, 1, M1), 1, 100)
    got = ask_at_once(2, lambda: prober.tight(1e5, DEFAULT_RTOL, DEFAULT_ATOL))
    assert calls == [1e5, 1e5]
    assert [type(exc) for exc in got] == [OverflowError, OverflowError]


def test_lanes_never_outnumber_the_usable_cpus(monkeypatch):
    # checks on lanes whose searches ask for lanes of their own: lanes are
    # one level deep, so each nested job runs on its check's thread, and
    # no more jobs run at once than there are usable CPUs
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 3)
    threads, interval = set(threading.enumerate()), sys.getswitchinterval()
    running, most, count = set(), [0], threading.Lock()

    def leaf():
        with count:
            running.add(threading.get_ident())
            most[0] = max(most[0], len(running))
        threading.Event().wait(0.002)
        with count:
            running.discard(threading.get_ident())
        return threading.get_ident()

    def check():
        return threading.get_ident(), spectrum._on_lanes([leaf] * 4)

    sys.setswitchinterval(1e-6)
    try:
        outcomes = spectrum._on_lanes([check] * 40)
    finally:
        sys.setswitchinterval(interval)
    assert all(exc is None for _, exc in outcomes)
    for (caller, nested), _ in outcomes:
        assert nested == [(caller, None)] * 4
    assert len({caller for (caller, _), _ in outcomes}) == 3 and most[0] <= 3
    assert set(threading.enumerate()) == threads


def test_lanes_return_each_jobs_value_or_exception_in_job_order(monkeypatch):
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 4)

    def fails():
        raise ZeroDivisionError("job 1")

    outcomes = spectrum._on_lanes([lambda: "job 0", fails, lambda: "job 2"])
    assert [value for value, _ in outcomes] == ["job 0", None, "job 2"]
    assert outcomes[0][1] is None and str(outcomes[1][1]) == "job 1"
    assert spectrum._on_lanes([lambda: 0], least=2) is None  # one lane where two are asked


def test_lanes_see_the_callers_shared_shots(monkeypatch):
    # a thread starts in an empty context; each lane runs in a copy of
    # the caller's, so the searches of a command's checks share its probes
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    both = threading.Barrier(2, timeout=60)  # one job on each lane

    def job():
        both.wait()
        return threading.get_ident(), spectrum._shared_probes.get()

    with shared_shots():
        memo = spectrum._shared_probes.get()
        seen = [value for value, _ in spectrum._on_lanes([job, job])]
    assert seen[0][0] != seen[1][0]
    assert [memo_seen for _, memo_seen in seen] == [memo, memo]


@pytest.mark.parametrize("k", range(1, 7))
def test_scan_count_agrees_with_the_sign_of_D(k):
    # m = 1, N = 1, p = 2, just past mu_k: the zero that entered through
    # r = 1 at mu_k lies within BOUNDARY_MARGIN of it, so the probe counts
    # k - 1 zeros while D already has the sign (-1)^k of k zeros; the scan
    # node counts k, the number of eigenvalues below |mu|
    x = closed_form_mu(2.0, k) * (1.0 + 1e-6)
    prob = eig_problem(2.0, 1, M1)
    raw = probe(prob.at(x), 1.0, rtol=SCAN_RTOL, atol=SCAN_ATOL, blowup_limit=_Prober.BLOWUP)
    assert raw.z == k - 1 and (raw.d < 0) == (k % 2 == 1)
    node = _Prober(prob, 1, 10).loose(x)
    assert (node.d, node.z) == (raw.d, k)


@pytest.mark.parametrize("n_dim,p", [
    # the pair mu_5^-, mu_6^- at p = 1.39 lies 1.1e-7 apart (relative),
    # closer than the first window of the polish
    (1, 1.39), (1, 1.4), (1, 1.85), (1, 2.25), (1, 3.0), (3, 1.9), (3, 2.2),
    # at p = 2.55 a bracket end just below mu_6^- reads a loose D of the
    # wrong sign: the polish window, not clipped to the bracket, reaches it
    (1, 1.5), (1, 1.8), (1, 2.55),
])
def test_close_pairs_are_bracketed(n_dim, p):
    res = find_eigenvalues(eig_problem(p, n_dim, COS3), 6, "-")
    assert res.complete, res.message
    assert [len(ep.zeros) for ep in res.eigenpairs] == list(range(6))


def test_unbracketed_index_ends_the_search(monkeypatch):
    # without the splitter the first close pair of cos 3 pi r, N = 1,
    # p = 2.25 (-), mu_2^- and mu_3^- (610.9 and 616.4), shares one scan gap
    # whose count steps by two with no sign change of D
    monkeypatch.setattr(spectrum, "_split_gaps", lambda nodes, prober: nodes)
    res = find_eigenvalues(eig_problem(2.25, 1, COS3), 6, "-")
    assert not res.complete
    assert res.message.startswith("index 2 still unbracketed after refinement (")
    assert res.message.endswith(" probes); largest validated index 1")


# ---------------------------------------------------------------------------
# probes shared among the searches of one block


def summary(res):
    return (res.values, [ep.zeros for ep in res.eigenpairs],
            [ep.boundary_residual for ep in res.eigenpairs], res.probes_used,
            res.complete, res.message)


@pytest.mark.parametrize("nu", ["+", "-"])
def test_shared_shots_leave_results_unchanged(nu):
    prob = eig_problem(2.0, 1, M_LIN)
    alone = find_eigenvalues(prob, 2, nu)
    with shared_shots():
        find_eigenvalues(prob, 3, nu)
        shared = find_eigenvalues(prob, 2, nu)
    assert summary(shared) == summary(alone)


def test_shared_shots_repeat_search_shoots_no_probe(monkeypatch):
    tols, solves = [], []

    def counting_probe(problem, alpha, **kw):
        tols.append(kw["rtol"])
        return probe(problem, alpha, **kw)

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    probe, solve = spectrum.probe, _kernel.solve
    monkeypatch.setattr(spectrum, "probe", counting_probe)
    monkeypatch.setattr(_kernel, "solve", counting_solve)
    prob = eig_problem(2.0, 1, M_LIN)
    alone = find_eigenvalues(prob, 2, "+")
    once, solved_once = len(tols), len(solves)
    assert SCAN_RTOL in tols and DEFAULT_RTOL in tols  # loose and tight probes
    assert solved_once == 4  # a loose and a tight solve per root
    find_eigenvalues(prob, 2, "+")
    # outside the block each search shoots and solves its own
    assert (len(tols), len(solves)) == (2 * once, 2 * solved_once)
    with shared_shots():
        find_eigenvalues(prob, 3, "+")
        before = (len(tols), len(solves))
        res = find_eigenvalues(prob, 2, "+")
    assert (len(tols), len(solves)) == before
    assert res.probes_used == alone.probes_used


def test_shared_shots_keep_the_probe_budget(monkeypatch):
    prob = eig_problem(2.0, 1, M_LIN)
    with monkeypatch.context() as mp:
        mp.setattr(spectrum, "DEFAULT_BUDGET", 30)
        alone = find_eigenvalues(prob, 6, "+")
    with shared_shots():
        find_eigenvalues(prob, 4, "+")
        with monkeypatch.context() as mp:
            mp.setattr(spectrum, "DEFAULT_BUDGET", 30)
            shared = find_eigenvalues(prob, 6, "+")
    assert shared.message.startswith("scan budget of 30 probes exhausted")
    assert summary(shared) == summary(alone)


REFERENCE_SEARCHES = {
    "1-2r+": (2.45, 2, M_LIN, "+", None),
    "1-2r-": (2.45, 2, M_LIN, "-", None),
    # named for the bracket [143.28, 146.54] where Brent's method once did
    # not converge; the search now ends at mu_4^-, whose eigenfunction fails
    # its index certificate
    "cos3-no-convergence": (1.3, 2, COS3, "-", None),
    # mu_5^- and mu_6^- lie 6.2e-6 apart (relative): the scan's split of
    # their gap, down to 1e-10, brackets both
    "cos3-close-pair": (2.25, 1, COS3, "-", None),
    # the budget runs out among the trials of a solve
    "1-2r-budget": (2.45, 2, M_LIN, "+", 30),
    "hard-cubic-ceiling": (2.63, 2, Weight.poly([0.86, -0.18, 0.10, -0.94]), "-", None),
}


@pytest.mark.kernel
@pytest.mark.parametrize("case", sorted(REFERENCE_SEARCHES))
def test_search_on_the_kernel_is_the_search_on_the_reference(monkeypatch, case):
    # the root solves run on the kernel, each trial charged in turn; on the
    # reference each trial is a probe of its own (reference.route), and
    # both searches return the same values, zeros, residuals, probe count,
    # completeness and message
    p, n_dim, m, nu, budget = REFERENCE_SEARCHES[case]
    if budget is not None:
        monkeypatch.setattr(spectrum, "DEFAULT_BUDGET", budget)
    kernel = find_eigenvalues(eig_problem(p, n_dim, m), 6, nu)
    reference.route(monkeypatch)
    python = find_eigenvalues(eig_problem(p, n_dim, m), 6, nu)
    assert repr(summary(kernel)) == repr(summary(python))
    assert kernel.complete is (case in ("1-2r+", "1-2r-", "cos3-close-pair"))
    assert {
        "cos3-no-convergence": "index 4 not certified: its eigenfunction's zero count is 2, "
                               "k - 1 = 3 required (boundary residual 1.324e-10); largest "
                               "validated index 3",
        "1-2r-budget": "scan budget of 30 probes exhausted; largest validated index 1",
        "hard-cubic-ceiling": "scan ceiling |mu| = 3.1663e+09 reached after 31 probes "
                              "(largest |mu| probed 3.84512e+09); largest validated index 0",
    }.get(case, "") == kernel.message


# ---------------------------------------------------------------------------
# Rayleigh quotient oracle


def test_rayleigh_unit_weight_examples():
    r1 = rayleigh_mu1(eig_problem(2.0, 1, M1))
    want = (math.pi / 2) ** 2
    assert abs(r1.value - want) <= 1e-6 * want
    r3 = rayleigh_mu1(eig_problem(2.0, 3, M1))
    shoot_mu = find_eigenvalues(eig_problem(2.0, 3, M1), 1, "+").values[0]
    assert abs(r3.value - shoot_mu) <= 1e-6 * shoot_mu


def test_rayleigh_matches_shooting_for_sign_changing_weight():
    for nu in ("+", "-"):
        res = find_eigenvalues(eig_problem(2.5, 1, M_LIN), 1, nu)
        ray = rayleigh_mu1(eig_problem(2.5, 1, M_LIN), nu)
        assert abs(ray.value - res.values[0]) <= 1e-6 * abs(res.values[0])
        assert ray.converged


def test_rayleigh_mirror_symmetry_exact():
    a = rayleigh_mu1(eig_problem(2.0, 1, M_LIN), "-")
    b = rayleigh_mu1(eig_problem(2.0, 1, M_LIN.negated()), "+")
    assert a.value == -b.value


@pytest.mark.parametrize("nu", ["+", "-"])
def test_rayleigh_refuses_p_where_it_does_not_converge(nu):
    with pytest.raises(PreconditionError, match=r"p <= 1\.3, got p = 1\.2$"):
        rayleigh_mu1(eig_problem(1.2, 1, M_LIN), nu)


def test_rayleigh_rejects_weight_without_positive_part():
    with pytest.raises(PreconditionError):
        rayleigh_mu1(eig_problem(2.0, 1, Weight.constant(-1.0)), "+")


# ---------------------------------------------------------------------------
# verification operations


def test_weight_monotonicity_scaling_exact():
    rep = verify_weight_monotonicity(2.0, 1, M1, M1.scaled(2.0), 2)
    assert rep.passed
    for k in (1, 2):
        a, b = rep.data[f"mu_{k}^+"]
        assert abs(b - a / 2.0) <= 1e-9 * abs(b)


def test_weight_monotonicity_strict_decrease():
    rep = verify_weight_monotonicity(2.0, 1, M_LIN, Weight.poly([1.0, -1.0]), 3)
    assert rep.passed


def test_weight_monotonicity_equal_weights_not_applicable():
    rep = verify_weight_monotonicity(2.0, 1, M_LIN, M_LIN, 2)
    assert rep.not_applicable
    assert any("equal weights" in line for line in rep.lines)


def test_weight_monotonicity_precondition():
    with pytest.raises(PreconditionError):
        verify_weight_monotonicity(2.0, 1, Weight.poly([1.0, -1.0]), M_LIN, 2)


def test_sturm_comparison_cosines():
    b1 = Weight.constant((3 * math.pi / 2) ** 2)
    b2 = Weight.constant((5 * math.pi / 2) ** 2)
    rep = verify_sturm(2.0, 1, b1, b2)
    assert rep.passed
    assert rep.data["z1"] == 1 and rep.data["z2"] == 2


def test_sturm_comparison_scaled_eigencoefficient():
    lam3 = closed_form_mu(2.5, 3)
    rep = verify_sturm(2.5, 1, Weight.constant(lam3), Weight.constant(1.5 * lam3))
    assert rep.passed
    assert rep.data["z2"] >= rep.data["z1"] + 1


def test_sturm_small_coefficient_gains_first_zero():
    lam1 = closed_form_mu(2.0, 1)
    rep = verify_sturm(2.0, 1, Weight.constant(0.25 * lam1),
                       Weight.constant(1.44 * lam1))
    assert rep.passed
    assert rep.data["z1"] == 0 and rep.data["z2"] >= 1


@pytest.mark.parametrize("p, b1, b2", [(2.0, 1.0, 2.0), (3.0, 22.0, 62.0),
                                       (4.5, 22.0, 62.0)])
def test_sturm_comparison_without_extra_zero(p, b1, b2):
    # cos r and cos(sqrt 2 r) have no zero in (0, 1); at p = 3 and 4.5 the
    # shipped pair gives one zero each: the larger coefficient moves the
    # zeros inward but adds none on [0, 1]
    rep = verify_sturm(p, 1, Weight.constant(b1), Weight.constant(b2))
    assert rep.passed
    assert rep.data["z1"] == rep.data["z2"]
    assert all(r2 < r1 for r1, r2 in zip(rep.data["zeros1"], rep.data["zeros2"]))


def test_sturm_precondition_violation():
    with pytest.raises(PreconditionError):
        verify_sturm(2.0, 1, Weight.constant(9.0), Weight.constant(4.0))
    with pytest.raises(PreconditionError):
        verify_sturm(2.0, 1, Weight.poly([1.0, -2.0]), Weight.constant(4.0))


def test_pointwise_preconditions_see_a_narrow_spike():
    # m1 = 1 rises to 3 on (0.49998, 0.50002), above m2 = 2 on a stretch
    # narrower than a 4096-point grid's spacing
    m1 = Weight((0, 0.49998, 0.5, 0.50002, 1), ((1.0,), (1.0, 1e5), (3.0, -1e5), (1.0,)))
    m2 = Weight.constant(2.0)
    with pytest.raises(PreconditionError, match="m1 <= m2"):
        verify_weight_monotonicity(2.0, 1, m1, m2, 1)
    with pytest.raises(PreconditionError, match="0 < b1"):
        verify_sturm(2.0, 1, m1, m2)


def test_zero_proliferation_window_sees_a_narrow_dip():
    # m = 1 dips to -1 on (0.49998, 0.50002), inside the window (0.3, 0.7)
    # and narrower than a 4096-point grid's spacing
    m = Weight((0, 0.49998, 0.5, 0.50002, 1), ((1.0,), (1.0, -1e5), (-1.0, 1e5), (1.0,)))
    assert m.negative_intervals
    with pytest.raises(PreconditionError, match="inside"):
        verify_zero_proliferation(2.0, 1, m, (0.3, 0.7), [10, 100, 1000])
    rep = verify_zero_proliferation(2.0, 1, m, (0.1, 0.4), [10, 100, 1000])
    assert rep.data["counts"]


def test_zero_proliferation_unit_weight_counts():
    multipliers = [((2 * k - 1) * math.pi / 2) ** 2 for k in (1, 2, 3, 4)]
    rep = verify_zero_proliferation(2.0, 1, M1, (0.0, 1.0), multipliers)
    assert rep.passed
    assert rep.data["counts"] == [0, 1, 2, 3]


def test_zero_proliferation_growth():
    rep = verify_zero_proliferation(
        2.0, 1, M_LIN, (0.1, 0.4), [10 * 4**j for j in range(1, 7)]
    )
    assert rep.passed
    counts = rep.data["counts"]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]


def test_zero_proliferation_single_multiplier_degenerate():
    rep = verify_zero_proliferation(2.0, 1, M_LIN, (0.1, 0.4), [50.0])
    assert rep.passed
    assert any("degenerate" in line for line in rep.lines)


def test_zero_proliferation_rejects_unknown_keywords():
    with pytest.raises(TypeError):
        verify_zero_proliferation(2.0, 1, M1, [0.1, 0.9], [10, 100, 1000],
                                  rtl=1e-3, atoll=5)


def test_zero_proliferation_window_precondition():
    with pytest.raises(PreconditionError):
        verify_zero_proliferation(2.0, 1, M_LIN, (0.3, 0.7), [10.0, 40.0])


# ---------------------------------------------------------------------------
# continuity in p


def test_p_continuity_unit_weight_matches_closed_form():
    grid = [1.8, 1.9, 2.0, 2.1, 2.2]
    rep = verify_p_continuity(1, M1, 2, grid)
    assert rep.passed
    curves = rep.data["curves_+"]
    for k in (1, 2):
        for p, mu in zip(grid, curves[k]):
            want = closed_form_mu(p, k)
            assert abs(mu - want) <= 1e-6 * want


def test_p_continuity_curves_are_the_spectra_at_each_p():
    # the verify_default shape: every curve value is what compute_spectrum
    # returns at that p, to the last bit
    grid = [1.8, 1.9, 2.0, 2.1, 2.2]
    curves = verify_p_continuity(1, M_LIN, 2, grid).data["curves_+"]
    for i, p in enumerate(grid):
        spec = compute_spectrum(p, 1, M_LIN, 2, ("+",))
        for k in (1, 2):
            assert curves[k][i] == spec.mu(k, "+")


def test_p_continuity_single_point_grid():
    rep = verify_p_continuity(1, M1, 2, [2.0])
    assert rep.passed
    assert any("trivially continuous" in line for line in rep.lines)


def test_p_continuity_sign_changing_weight():
    grid = [round(1.7 + 0.1 * i, 10) for i in range(7)]
    rep = verify_p_continuity(1, M_LIN, 2, grid, nus=("+", "-"))
    assert rep.passed


def test_p_continuity_rejects_bad_grid():
    with pytest.raises(PreconditionError):
        verify_p_continuity(1, M1, 1, [0.9, 1.5])


@pytest.mark.parametrize("grid", [[2.0, 2.0], [1.5, 2.0, 1.5]])
def test_p_continuity_rejects_a_repeated_point(grid):
    # a repeated neighbour used to divide by a zero step
    with pytest.raises(PreconditionError, match="p grid must not repeat a point"):
        verify_p_continuity(1, M1, 1, grid)


# ---------------------------------------------------------------------------
# crossing index


def test_crossing_index_alternation():
    spec = compute_spectrum(2.0, 1, M_LIN, 4)
    pos = spec.values("+")
    neg = spec.values("-")
    assert crossing_index(spec, 0.5 * pos[0]) == 1
    assert crossing_index(spec, 0.5 * (pos[0] + pos[1])) == -1
    assert crossing_index(spec, 0.5 * (pos[1] + pos[2])) == 1
    assert crossing_index(spec, 0.5 * neg[0]) == 1  # inside (mu_1^-, mu_1^+)
    assert crossing_index(spec, 0.5 * (neg[0] + neg[1])) == -1
    assert crossing_index(spec, 0.5 * (neg[1] + neg[2])) == 1


def test_crossing_index_flips_across_each_eigenvalue():
    spec = compute_spectrum(2.5, 1, M_LIN, 4)
    vals = spec.values("+")
    gaps = [0.5 * vals[0]] + [0.5 * (a + b) for a, b in zip(vals, vals[1:])]
    signs = [crossing_index(spec, g) for g in gaps]
    for a, b in zip(signs, signs[1:]):
        assert b == -a


def test_crossing_index_guards():
    spec = compute_spectrum(2.0, 1, M_LIN, 2)
    with pytest.raises(PreconditionError):
        crossing_index(spec, spec.values("+")[0])  # on an eigenvalue
    with pytest.raises(PreconditionError):
        crossing_index(spec, 10.0 * spec.values("+")[-1])  # beyond range


def test_searches_leave_no_reference_cycle():
    # a search's root solves must not keep the prober and its probes on a
    # reference cycle (scipy's brentq wrapper refers to itself), or they
    # live until the cyclic collector runs
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        compute_spectrum(2.5, 1, Weight.poly([1.0, -2.0]), 3)
        gc.collect()
        cyclic = [type(o) for o in gc.garbage if isinstance(o, (_Prober, Probe))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert cyclic == []
