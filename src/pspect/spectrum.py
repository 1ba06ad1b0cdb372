"""Eigenvalue sequences of the weighted radial p-Laplacian.

The eigenvalue problem on the unit interval (radial variable of the unit
ball in R^N),

    (r^{N-1} phi_p(u'))' + mu * m(r) * r^{N-1} phi_p(u) = 0,
    u'(0) = u(1) = 0,

with a continuous weight m whose positive part has positive measure,
carries two sequences of simple eigenvalues,

    0 < mu_1^+ < mu_2^+ < ...        (always),
    0 > mu_1^- > mu_2^- > ...        (iff the negative part has positive
                                      measure too),

and the eigenfunction of mu_k^nu has exactly k-1 simple interior zeros.
The solver is a shooting scan: with the normalization u(0) = 1 the miss
function D(mu) = u(1; mu) vanishes exactly at eigenvalues, and the
interior zero count Z(mu) of the shot steps from k-1 to k across mu_k
(the new zero enters through r = 1 at the root).  As u(0) = 1, sign D =
(-1)^Z, so where a zero still within the boundary margin of r = 1 leaves
the parities at odds the scan counts it: each node's Z is the number of
eigenvalues below its |mu|, and a step of Z by one carries a sign change
of D.  For an indefinite weight D need not be monotone between
eigenvalues, so the scan records (D, Z) on an expanding grid, splits
every gap whose count steps by two or more down to a floor of 1e-10 and
brackets the sign changes of D.  One rule gives each bracket its index
before anything is solved: k = 1 + the smaller zero count of its ends.
Only the brackets of k <= K are solved, each once.  Once the scan is
done the brackets are independent, and the first of each index is
solved ahead on lanes, one per CPU the process may run on (no
option sets their number): the lanes fill the search's memo of probes
and solves, largest index first, and the search then runs its own solves
in order on that memo, charging its budget and meeting every stop as it
would alone.  The grid marches at a loose integrator tolerance, and the
loose root of each bracket is solved only to that tolerance (SCAN_RTOL),
since it only centres the tight window of +-3 SCAN_RTOL; every reported
eigenvalue is re-bracketed in that window and polished at the tight
tolerance, Brent's method stopping at 1e-3 of it (the resolution the
tight shots support), so the final values are independent of how the
scan got there.  An index is validated only where its eigenfunction
reaches r = 1 with exactly k-1 interior zeros and every index below it
is validated; the first index whose eigenfunction fails that
certificate ends the search with a partial result.

A caveat that the scan cannot remove: completeness of the computed list
("no other eigenvalues") is certified only within the scanned range at
the scan resolution.

Every eigenvalue here comes from that one search, through
:func:`compute_spectrum`.  Also here: the structural verification
operations (weight monotonicity, continuity in p, Sturm comparison, zero
proliferation), which read their eigenvalues from such spectra, and the
degree crossing index.

Lanes are threads: the kernel releases the GIL for each shot.  One
helper, :func:`_on_lanes`, runs them, for a search's brackets and for
the checks and searches of ``pspect verify`` alike.  Lanes are one level
deep: a search inside a check runs on its check's lane, and the lanes
never outnumber the usable CPUs.  The memo of a search, and the
one :func:`shared_shots` keeps for a block of searches, computes each
probe and solve once, however many lanes ask for it at the same time.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import IntegrationError, NegativeSequenceAbsent, PreconditionError, SpectrumIncomplete
from .pfuncs import pi_p
from .radial_ivp import DEFAULT_ATOL, DEFAULT_RTOL, SHOT_SAMPLES
from .radial_ivp import LinearRHS, Problem, Trajectory, probe, shoot, solve_miss
from .radial_ivp import brentq  # noqa: F401  (perfbench/tracing.py counts spectrum.brentq calls)
from .report import CheckReport
from .weights import Weight

SCAN_RTOL = 1e-7
SCAN_ATOL = 1e-9
SCAN_RATIO = 1.8  # of consecutive |mu| of the expanding scan
DEFAULT_BUDGET = 4000  # probes of one search


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class Eigenpair:
    k: int
    nu: str
    mu: float
    trajectory: Trajectory
    zeros: tuple
    boundary_residual: float


@dataclass
class EigenResult:
    nu: str
    requested: int
    eigenpairs: list
    complete: bool
    probes_used: int
    message: str = ""

    @property
    def values(self) -> list:
        return [ep.mu for ep in self.eigenpairs]

    def mu(self, k: int) -> float:
        for ep in self.eigenpairs:
            if ep.k == k:
                return ep.mu
        reason = self.message or f"the search asked for {self.requested} eigenvalues"
        raise SpectrumIncomplete(f"mu_{k}^{self.nu} not validated: {reason}")


CAVEAT = (
    "completeness is certified only within the scanned range at the scan "
    "resolution; the problem's full spectrum claim is not machine-checkable"
)

NEGATIVE_ABSENT = "negative sequence absent: meas{m < 0} = 0 for this weight"


@dataclass
class Spectrum:
    """The eigenvalue searches of one (p, N, weight) instance, by sign.

    ``results`` holds the search of each requested sign the weight has;
    a sign missing from it reads as an absent negative sequence.
    """

    p: float
    N: int
    results: dict = field(default_factory=dict)  # nu -> EigenResult

    def _result(self, nu: str) -> EigenResult:
        if nu not in self.results:
            if nu == "-":
                raise NegativeSequenceAbsent(NEGATIVE_ABSENT)
            raise SpectrumIncomplete(f"nu={nu} sequence not computed")
        return self.results[nu]

    def values(self, nu: str) -> list:
        return self._result(nu).values

    def mu(self, k: int, nu: str) -> float:
        return self._result(nu).mu(k)


def compute_spectrum(p, N, m: Weight, K: int, nus=("+", "-"), *, rtol: float = DEFAULT_RTOL,
                     atol: float = DEFAULT_ATOL) -> Spectrum:
    """Run find_eigenvalues for each requested sign the weight has."""
    prob = Problem.linear(p, N, m, math.nan)
    spec = Spectrum(p=float(prob.p), N=prob.N)
    for nu in nus:
        if nu == "-" and not m.negative_intervals:
            continue
        spec.results[nu] = find_eigenvalues(prob, K, nu, rtol=rtol, atol=atol)
    return spec


# ---------------------------------------------------------------------------
# eigenvalue scan


@dataclass
class _Node:
    x: float  # |mu|
    d: float
    z: int


# axis (p, N, weight, sign) -> _Memo of its probes and solves, inside shared_shots()
_shared_probes = contextvars.ContextVar("shared_probes", default=None)


@contextmanager
def shared_shots():
    """Share (D, Z) probes among the eigenvalue searches run inside the block.

    A search reuses every probe an earlier search of the block shot on
    the same axis (p, N, weight, sign) at the same |mu| and tolerances,
    and every root solve.  Probes are deterministic, so each search
    returns what it returns alone, charges its budget for every probe it
    asks for and reports the same probe count.  Searches that run at the
    same time on lanes (:func:`_on_lanes`, which hands each lane the
    block), as the checks of ``pspect verify`` do, each on its check's
    lane, share the memo too, and each probe and solve is computed once
    (:class:`_Memo`).  The probes are dropped when the block ends.
    """
    token = _shared_probes.set(_Memo())
    try:
        yield
    finally:
        _shared_probes.reset(token)


class _Memo:
    """Values by key, each computed once, also where threads ask for it
    at the same time (a single-flight memo).

    The first thread that asks for a key it does not hold computes it;
    until the value is in, the key is pending, and the threads that ask
    for it meanwhile wait for that value.  Where the computation raises,
    the waiting threads compute it themselves, each raising as it would
    alone; nothing is held for the key.
    """

    def __init__(self):
        self._values = {}
        self._pending = {}  # key -> lock its computing thread holds
        self._lock = threading.Lock()

    def __contains__(self, key):
        return key in self._values

    def add(self, key, value):
        """Hold value for key unless a value is held already."""
        self._values.setdefault(key, value)

    def get(self, key, compute):
        """The value of key, compute() run for it where no thread has it."""
        while True:
            try:
                return self._values[key]
            except KeyError:
                pass
            with self._lock:
                if key in self._values:
                    continue
                flight = self._pending.get(key)
                if flight is None:
                    flight = self._pending[key] = threading.Lock()
                    flight.acquire()
                    break
            with flight:  # the value is in, or its computation raised
                pass
        try:
            return self._values.setdefault(key, compute())
        finally:
            with self._lock:
                del self._pending[key]
            flight.release()


class _Prober:
    """Memoized (D, Z) probes and root solves along one sign axis.

    Linear shots cannot blow up at a finite radius, they only grow, and
    through a long one-signed stretch the genuine amplitude can dwarf the
    general-purpose guard of :func:`shoot`; probes therefore run with the
    guard moved out of the way (1e100 keeps the flux far from overflow).
    A shot that still grows past it stops there: as a probe its D is u
    at the stop, and as an eigenfunction it fails :func:`_certificate`.

    A probe is one kernel call (``radial_ivp.probe``), and so is a root
    solve (:meth:`loose_root` and :meth:`solve`: ``radial_ivp.solve_miss``,
    Brent's method on the kernel, each trial a kernel probe).  The memo
    (a :class:`_Memo`, which computes each entry once however many lanes
    ask for it) holds each probe under (|mu|, rtol, atol), the trials of
    every solve among them, and each solve under (a, b, rtol, atol,
    xrtol); outside :func:`shared_shots` it is private to the search.  A
    search solves each bracket once, so the solve memo serves only the
    later searches of a :func:`shared_shots` block.  A search charges its
    budget once for each (|mu|, rtol, atol) it asks for, whether or not
    the memo already held the probe: a solve charges its bracket ends,
    then its trials in their order, as Brent's method over single probes
    would, so the budget runs out at the same trial.

    :meth:`fill` solves brackets ahead on lanes that fill the memo and
    charge nothing; the search's own solves then read them from the memo
    and charge them in its order, so what it returns, its probe count and
    where it stops do not depend on the lanes.
    """

    BLOWUP = 1e100

    def __init__(self, problem, sgn, budget):
        self.problem = problem
        self.sgn = sgn
        self.budget = budget
        self.count = 0
        self.charged = set()  # (|mu|, rtol, atol) keys this search has paid for
        shared = _shared_probes.get()
        axis = (problem.p, problem.N, problem.m, sgn)
        self.probes = _Memo() if shared is None else shared.get(axis, _Memo)

    def _charge(self):
        self.count += 1
        if self.count > self.budget:
            raise _ScanStopped(f"scan budget of {self.budget} probes exhausted")

    def _charge_once(self, key):
        if key not in self.charged:
            self._charge()
            self.charged.add(key)

    def _probe(self, x, rtol, atol):
        key = (x, rtol, atol)
        self._charge_once(key)
        return self.probes.get(key, lambda: probe(
            self.problem.at(self.sgn * x), 1.0, rtol=rtol, atol=atol, blowup_limit=self.BLOWUP))

    def loose(self, x) -> _Node:
        pr = self._probe(x, SCAN_RTOL, SCAN_ATOL)
        # u(0) = 1, so sign u(1) = (-1)^(zeros in (0, 1)): where the parity
        # of z disagrees with D, the zero that entered at the last eigenvalue
        # is still within BOUNDARY_MARGIN of r = 1, uncounted.  Counting it
        # makes z the number of eigenvalues below x.  A blown-up probe
        # agrees already: its D is u where the shot stopped.
        return _Node(x, pr.d, pr.z + (pr.z % 2 != (pr.d < 0)))

    def tight(self, x, rtol, atol) -> float:
        return self._probe(x, rtol, atol).d

    def loose_root(self, a, b) -> float:
        """|mu| of the root of D over [a, b] at the scan tolerances, Brent's
        method stopped at xrtol = SCAN_RTOL.

        The loose root only centres the window of :func:`_polish_root`,
        and the loose shots' own error (integration error of some 1e-8
        relative) is of that order already, so the solve stops there and
        builds no trajectory.  Raises RuntimeError where Brent's method does
        not converge, after charging the trials it made.
        """
        return self._solve(a, b, SCAN_RTOL, SCAN_ATOL, SCAN_RTOL, 0)[0]

    def solve(self, a, b, rtol, atol):
        """(|mu|, trajectory there) of the root of D over [a, b] by Brent's
        method to xtol 1e-15 and xrtol max(1e-3 rtol, 8.9e-16) (1e-13 at the
        default rtol), probes and trajectory at the tolerances.

        The tight shots carry an integration error of some 1e-11 relative
        in mu, so past 1e-3 rtol the sign of D flips at rounding noise and
        further trials only chase it.  The trajectory is read off the
        root's trial.  Raises RuntimeError where Brent's method does not
        converge, after charging the trials it made.
        """
        return self._solve(a, b, rtol, atol, max(1e-3 * rtol, 8.9e-16), SHOT_SAMPLES)

    def _solve(self, a, b, rtol, atol, xrtol, n_shot):
        """(|mu|, trajectory) of :func:`radial_ivp.solve_miss` over [a, b]
        with xtol 1e-15 and xrtol, the trajectory of n_shot samples (None
        where n_shot is 0).

        The solve runs in lam = sgn |mu| over [sgn a, sgn b], on the ends'
        memoized probes; for nu = '-' its iterates are the negatives of
        those in |mu|, to the bit.
        """
        pr_a, pr_b = self._probe(a, rtol, atol), self._probe(b, rtol, atol)
        sgn = self.sgn

        def solved():
            try:
                root, _, traj, trials = solve_miss(
                    self.problem, 1.0, sgn * a, sgn * b, (pr_a, pr_b), rtol=rtol, atol=atol,
                    xtol=1e-15, xrtol=xrtol, blowup_limit=self.BLOWUP, n_shot=n_shot)
                return sgn * root, traj, trials, ""
            except RuntimeError as exc:
                return None, None, exc.trials, str(exc)

        x, traj, trials, failure = self.probes.get((a, b, rtol, atol, xrtol), solved)
        for lam, pr in trials:
            key = (sgn * lam, rtol, atol)
            self._charge_once(key)
            self.probes.add(key, pr)
        if failure:
            raise RuntimeError(failure)
        return x, traj

    def fill(self, brackets, rtol, atol):
        """Solve ahead, into the memo, the loose root and its polish of
        each bracket (a, b) the memo holds no loose solve of, on lanes
        (:func:`_on_lanes`): the calling thread and one thread for each
        other usable CPU, nothing where one CPU is usable or where the
        search itself runs on a lane (a verify check's, say).

        The brackets are listed in ascending index, and the lanes take
        them from the last, the largest and costliest first.  A lane runs
        :meth:`loose_root` and :func:`_polish_root` on a :class:`_Lane`
        view of this prober, which charges nothing, and what they raise is
        dropped: the search's own solve of the bracket replays the memo,
        charges it and raises the same at the same point.  Every lane has
        ended when fill returns.
        """
        view = _Lane(self)
        _on_lanes([partial(_fill_one, view, a, b, rtol, atol) for a, b in reversed(brackets)
                   if (a, b, SCAN_RTOL, SCAN_ATOL, SCAN_RTOL) not in self.probes], least=2)


def _fill_one(view, a, b, rtol, atol):
    _polish_root(view, view.loose_root(a, b), a, b, rtol, atol)


class _Lane(_Prober):
    """A lane's view of a search's :class:`_Prober`: the same memo, no
    budget."""

    def __init__(self, prober):
        self.problem, self.sgn, self.probes = prober.problem, prober.sgn, prober.probes

    def _charge_once(self, key):
        pass


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# True while a thread runs a lane of _on_lanes, the caller's own among them
_in_lane = contextvars.ContextVar("in_lane", default=False)


def _on_lanes(jobs, least=1):
    """Run jobs (callables of no argument) on lanes: the calling thread
    and one thread for each other usable CPU (:func:`_usable_cpus`, read
    at each call), at most one lane per job.  Returns the (value,
    exception) of each job in job order, the exception None where the
    job returned; a job's ``Exception`` does not end its lane.

    Lanes are one level deep: a call made inside a lane, by a job, runs
    its jobs on the calling thread, so the threads of a call never
    outnumber the usable CPUs.  The lanes take the jobs in their order.
    Each thread runs in a copy of the caller's context, so jobs see the
    caller's :func:`shared_shots` block.  Where fewer than least lanes
    can run, nothing runs and None is returned; where a thread cannot be
    started, the lanes already running do its share.  Every lane has
    ended when this returns.
    """
    threads = 0 if _in_lane.get() else max(0, min(len(jobs), _usable_cpus()) - 1)
    if threads + 1 < least:
        return None
    todo = list(reversed(range(len(jobs))))
    outcomes = [None] * len(jobs)

    def lane():
        token = _in_lane.set(True)
        try:
            while todo:
                try:
                    i = todo.pop()
                except IndexError:  # another lane took the last
                    return
                try:
                    outcomes[i] = (jobs[i](), None)
                except Exception as exc:  # the caller's to raise or drop
                    outcomes[i] = (None, exc)
        finally:
            _in_lane.reset(token)

    started = []
    try:
        for _ in range(threads):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(lane,))
            thread.start()  # RuntimeError where the system starts no more threads
            started.append(thread)
    except RuntimeError:
        pass
    try:
        lane()
    finally:
        todo.clear()
        for thread in started:
            thread.join()
    return outcomes


class _ScanStopped(Exception):
    """The probe budget, the scan ceiling, a root solve that did not
    converge or a failed index certificate ended a search; str() says
    which."""


def _seed_scale(problem: Problem, sgn: int) -> float:
    """Order-of-magnitude guess for |mu_1| from the m=1 closed form."""
    p, n = problem.p, problem.N
    lam1 = (p - 1.0) * (0.5 * pi_p(p)) ** p
    rs = np.linspace(0.0, 1.0, 2049)
    mv = problem.m(rs)
    part = np.maximum(sgn * mv, 0.0)
    mass = float(np.trapezoid(part * n * rs ** (n - 1), rs))
    return lam1 / max(mass, 1e-8)


def find_eigenvalues(
    problem: Problem,
    K: int,
    nu: str = "+",
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> EigenResult:
    """First K eigenvalues of one sign, with eigenfunctions and nodal classes.

    problem must be linear; its mu is ignored.  The scan steps |mu| by
    SCAN_RATIO and the search stops after DEFAULT_BUDGET probes, both read
    at the call.

    Raises NegativeSequenceAbsent when nu='-' is requested but the weight
    has no negative part.  When the probe budget, the scan ceiling, a root
    solve that does not converge, an eigenfunction without k-1 interior
    zeros or whose shot blows up (the index certificate) or a shot's
    ArithmeticError or IntegrationError stops the search, or an index
    stays without a tight bracket after the scan's split of the gaps, the
    result is returned partial, the message naming that stop reason and
    the largest validated index.
    """
    if K < 1:
        raise PreconditionError("K must be >= 1")
    if not isinstance(problem.rhs, LinearRHS):
        raise PreconditionError("eigenvalues are searched on a linear problem")
    if nu not in ("+", "-"):
        raise PreconditionError("nu must be '+' or '-'")
    if not problem.m.in_M():
        raise PreconditionError("weight is not admissible: meas{m > 0} = 0")
    if nu == "-" and not problem.m.negative_intervals:
        raise NegativeSequenceAbsent(NEGATIVE_ABSENT)

    sgn = 1 if nu == "+" else -1
    prober = _Prober(problem, sgn, DEFAULT_BUDGET)
    message = ""
    complete = True
    found: dict[int, tuple[float, Trajectory]] = {}
    stop = ""

    try:
        nodes = _scan(prober, K, _seed_scale(problem, sgn), SCAN_RATIO)
        _classify_brackets(nodes, prober, found, K, rtol, atol)
    except _ScanStopped as exc:
        complete = False
        stop = str(exc)
    except (ArithmeticError, IntegrationError) as exc:
        complete = False
        stop = f"{type(exc).__name__}: {exc}"

    certified, _ = _certificate(found, K)
    largest = len(certified)
    if largest < K:
        complete = False
        if not stop:
            stop = (
                f"index {largest + 1} still unbracketed after refinement "
                f"({prober.count} probes)"
            )
        message = f"{stop}; largest validated index {largest}"

    pairs = []
    for k, zeros in enumerate(certified, 1):
        mu_abs, traj = found[k]
        pairs.append(
            Eigenpair(
                k=k,
                nu=nu,
                mu=sgn * mu_abs,
                trajectory=traj,
                zeros=zeros,
                boundary_residual=abs(traj.terminal_u),
            )
        )
    values = [ep.mu * sgn for ep in pairs]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise RuntimeError("eigenvalue ordering violated, scan inconsistent")
    return EigenResult(
        nu=nu,
        requested=K,
        eigenpairs=pairs,
        complete=complete,
        probes_used=prober.count,
        message=message,
    )


def _scan(prober: _Prober, K: int, seed: float, ratio: float):
    """Expanding (D, Z) grid until Z >= K, its count steps split by
    :func:`_split_gaps`."""
    nodes = [_Node(0.0, 1.0, 0)]
    x = 0.25 * seed
    ceiling = 1e4 * (1.0 + seed)
    while True:
        nodes.append(prober.loose(x))
        if nodes[-1].z >= K:
            break
        if x > ceiling:
            raise _ScanStopped(
                f"scan ceiling |mu| = {ceiling:.6g} reached after {prober.count} "
                f"probes (largest |mu| probed {x:.6g})"
            )
        x *= ratio
        ceiling = 1e4 * (1.0 + _first_root_scale(nodes, seed))
    return _split_gaps(nodes, prober)


def _first_root_scale(nodes, seed):
    for a, b in zip(nodes, nodes[1:]):
        if a.d * b.d < 0:
            return b.x
    return seed


def _split_gaps(nodes, prober):
    """Insert probes until adjacent zero counts differ by at most one, or
    the gap is narrower than 1e-10 relative to max(1, |mu|).

    Each count agrees in parity with its D (:meth:`_Prober.loose`), so a
    count step of one carries a sign change of D; only steps of two or
    more are split.  Close pairs of an indefinite weight (eigenfunctions
    localized on different positivity islands) can lie 1e-7 apart,
    relative (cos 3 pi r, N = 1, p = 1.39, nu = '-'); a node strictly
    between mu_k and mu_k+1 has count k and the sign opposite to both
    ends, so it brackets both.  A step of two at a single parameter (an
    interior tangency of the shot) is never resolved; whatever sign
    changes exist at the floor are still bracketed and classified.
    """
    while True:
        out = [nodes[0]]
        for nxt in nodes[1:]:
            cur = out[-1]
            if abs(nxt.z - cur.z) >= 2 and (nxt.x - cur.x) > 1e-10 * max(1.0, nxt.x):
                out.append(prober.loose(0.5 * (cur.x + nxt.x)))
            out.append(nxt)
        if len(out) == len(nodes):
            return nodes
        nodes = out


def _classify_brackets(nodes, prober, found, K, rtol, atol):
    """Solve the root of every D sign change of index k <= K at tight
    tolerance.

    One rule gives a bracket [a, b] its index before anything is solved:
    k = min(a.z, b.z) + 1.  Across mu_k the zero count steps from k-1 to
    k, the new zero entering through r = 1 exactly at the root.  A bracket
    of index above K is skipped, and so is one whose index is found: the
    brackets run in ascending |mu| and the counts never fall along the
    scan, so the root found first is the smaller.  After each root,
    :func:`_certificate`, the only other word on the index, checks the
    eigenfunctions of the indices found so far, and the first that fails
    ends the search.

    Each root takes two solves on the kernel: the loose one over the
    bracket (:meth:`_Prober.loose_root`, which stops at the scan tolerance
    and builds no shot), then the tight one of :func:`_polish_root`
    (:meth:`_Prober.solve`), whose root's trajectory is the eigenfunction.
    The search charges one probe more for that shot, as for a shot of its
    own.  :meth:`_Prober.fill` first solves the first bracket of each index
    on lanes, and the loop below finds those solves in the memo.
    """
    brackets, firsts = [], {}  # (k, a, b) of each sign change of index k <= K; k -> first
    for a, b in zip(nodes, nodes[1:]):
        k = min(a.z, b.z) + 1
        if a.d * b.d < 0 and k <= K:
            brackets.append((k, a, b))
            firsts.setdefault(k, (a.x, b.x))
    prober.fill(list(firsts.values()), rtol, atol)
    for k, a, b in brackets:
        if k in found:
            continue
        try:
            x_loose = prober.loose_root(a.x, b.x)
            polished = _polish_root(prober, x_loose, a.x, b.x, rtol, atol)
        except RuntimeError:  # Brent's method did not converge
            raise _ScanStopped(
                f"Brent's method did not converge on the bracket |mu| in "
                f"[{a.x:.10g}, {b.x:.10g}]"
            ) from None
        if polished is None:
            continue  # no tight bracket: the index stays unbracketed
        prober._charge()  # the eigenfunction's shot
        found[k] = polished
        _, failure = _certificate(found, K)
        if failure:
            raise _ScanStopped(failure)


def _certificate(found, K):
    """The zeros of the eigenfunctions of indices 1, 2, ... up to K that
    found holds, while each reaches r = 1 and has exactly k - 1 interior
    zeros after :func:`_trim_tail_artifacts`, and the failure of the first
    that does not ("" where none fails).

    The index is the eigenfunction's nodal class: a root whose
    eigenfunction has another zero count is not mu_k, whatever its bracket
    said, so an index is validated only with every index below it.
    """
    certified = []
    for k in range(1, K + 1):
        if k not in found:
            break
        traj = found[k][1]
        if traj.blowup_radius is not None:
            return certified, (
                f"index {k} not certified: its eigenfunction's shot grows past "
                f"{_Prober.BLOWUP:.0e} at r = {traj.blowup_radius:.6e} "
                f"(zero count {len(traj.interior_zeros)} there)")
        zeros = _trim_tail_artifacts(traj, k)
        if len(zeros) != k - 1:
            return certified, (
                f"index {k} not certified: its eigenfunction's zero count is {len(zeros)}, "
                f"k - 1 = {k - 1} required (boundary residual {abs(traj.terminal_u):.3e})")
        certified.append(zeros)
    return certified, ""


def _trim_tail_artifacts(traj: Trajectory, k: int):
    """Remove trailing mu-resolution artifacts from an eigenfunction's zeros.

    The eigenvalue is known only to the root-finder resolution; through a
    terminal non-oscillatory stretch the tail of the shot is determined
    only to a noise scale of order the terminal miss |u(1)| (its
    parameter sensitivity is exponential there), and that noise can cross
    zero.  With the index k already fixed by the bracket, a surplus
    trailing crossing whose rebound stays within two orders of the
    terminal miss and whose slope has collapsed is that artifact.  Real
    nodal zeros, including weak ones of near-degenerate eigenfunctions,
    rebound far above the terminal noise and survive.
    """
    noise = 100.0 * abs(traj.terminal_u)
    interior = list(traj.interior_zeros)
    while len(interior) > k - 1:
        z = interior[-1]
        idx = int(np.searchsorted(traj.r, z.r))
        tail_max = float(np.max(np.abs(traj.u[idx:]))) if idx < len(traj.u) else 0.0
        if tail_max <= noise and abs(z.uprime) < 1e-3 * traj.sup_uprime:
            interior.pop()
        else:
            break
    return tuple(z.r for z in interior)


def _polish_root(prober, x0, lo, hi, rtol, atol):
    """Re-bracket the loose root at tight tolerance and solve there:
    (root, its trajectory), both from one tight solve on the kernel
    (:meth:`_Prober.solve`, Brent's method to xtol 1e-15 and xrtol
    max(1e-3 rtol, 8.9e-16)).

    Two windows: +-max(3 SCAN_RTOL x0, 1e-12) around the loose root, then
    the full loose bracket.  The loose root is off by its solve's stop at
    SCAN_RTOL plus its shots' integration error (measured offsets are at
    most 1.7e-8 relative), so the first window almost always holds the
    root, and the secant step from its ends lands close to it.  The first
    window is not clipped to the bracket: the bracket's ends carry loose
    signs of D, wrong within that same error of a root, so a root can lie
    just outside them.  A window that holds both roots of a close pair
    shows no sign change and falls back to the bracket.  None when neither
    window changes sign at tight tolerance: the loose root is never
    returned unpolished.
    """
    w = max(3.0 * SCAN_RTOL * x0, 1e-12)
    for a, b in ((x0 - w, x0 + w), (lo, hi)):
        if prober.tight(a, rtol, atol) * prober.tight(b, rtol, atol) < 0:
            return prober.solve(a, b, rtol, atol)
    return None


# ---------------------------------------------------------------------------
# verification operations


def verify_weight_monotonicity(p, N, m1: Weight, m2: Weight, K: int, *,
                               margin: float = 1e-8, rtol: float = DEFAULT_RTOL,
                               atol: float = DEFAULT_ATOL) -> CheckReport:
    """Strict decrease of both eigenvalue sequences when the weight increases."""
    gain = m2 - m1
    if not gain.positive_intervals and not gain.negative_intervals:
        rep = CheckReport("weight_monotonicity", True, not_applicable=True)
        rep.add("not applicable (equal weights)")
        return rep
    if gain.negative_intervals:
        raise PreconditionError("weight monotonicity requires m1 <= m2 pointwise")
    for m in (m1, m2):
        if not m.in_M():
            raise PreconditionError("both weights must lie in M(I)")

    # m1 <= m2, so m1 has a negative part wherever m2 has one
    s2 = compute_spectrum(p, N, m2, K, rtol=rtol, atol=atol)
    s1 = compute_spectrum(p, N, m1, K, tuple(s2.results), rtol=rtol, atol=atol)
    rep = CheckReport("weight_monotonicity", True)
    for nu in ("+", "-"):
        if nu not in s2.results:
            rep.add("negative sequences skipped (a weight has no negative part)")
            continue
        for k in range(1, K + 1):
            a, b = s1.mu(k, nu), s2.mu(k, nu)
            gap = a - b
            ok = gap > margin
            rep.passed &= ok
            rep.add(
                f"mu_{k}^{nu}: m1 -> {a:.10g}, m2 -> {b:.10g}, "
                f"decrease {gap:.3e} {'>' if ok else '<='} {margin:g}"
            )
            rep.data[f"mu_{k}^{nu}"] = (a, b)
    return rep


def closed_form_mu(p, k: int) -> float:
    """m = 1, N = 1 eigenvalues: (p-1) * ((2k-1) pi_p / 2)^p."""
    return (p - 1.0) * ((2 * k - 1) * pi_p(p) / 2.0) ** p


def verify_p_continuity(N, m: Weight, K: int, p_grid, *, nus=("+",),
                        rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> CheckReport:
    """Compute mu_k^nu along a p-grid; jumps must behave like a continuous curve.

    Each grid point gets its own :func:`compute_spectrum` search, so
    every value on a curve is the one that search returns at that p.  Two
    bounds per curve: (a) each consecutive jump at most a Lipschitz bound
    C * step, with C taken from the unit-weight closed-form slope
    rescaled to the curve's own magnitude and padded by a factor 10; (b)
    self-consistency, no jump beyond 10 times the curve's median secant
    slope.  For the unit weight the curve is also compared pointwise
    against the closed form.
    """
    p_grid = [float(p) for p in p_grid]
    if any(p <= 1.0 for p in p_grid):
        raise PreconditionError("p grid must lie in (1, inf)")
    if len(set(p_grid)) < len(p_grid):
        raise PreconditionError("p grid must not repeat a point")
    rep = CheckReport("p_continuity", True)
    if len(p_grid) <= 1:
        rep.add("single-point grid: trivially continuous")
        rep.not_applicable = False
        return rep

    is_unit = _is_unit_weight(m)
    for nu in nus:
        if nu == "-" and not m.negative_intervals:
            rep.add("negative sequence skipped (weight has no negative part)")
            continue
        curves = {k: [] for k in range(1, K + 1)}
        for p in p_grid:
            spec = compute_spectrum(p, N, m, K, (nu,), rtol=rtol, atol=atol)
            for k in curves:
                curves[k].append(spec.mu(k, nu))
        rep.data[f"curves_{nu}"] = curves
        for k in range(1, K + 1):
            mus = curves[k]
            jumps = [abs(b - a) for a, b in zip(mus, mus[1:])]
            steps = [abs(b - a) for a, b in zip(p_grid, p_grid[1:])]
            # closed-form Lipschitz estimate, rescaled to this curve
            cf = [closed_form_mu(p, k) for p in p_grid]
            cf_slope = max(abs(b - a) / s for a, b, s in zip(cf, cf[1:], steps))
            scale = abs(mus[0]) / cf[0]
            c_bound = 10.0 * cf_slope * scale
            worst = max(j / s for j, s in zip(jumps, steps))
            ok_c = worst <= c_bound
            slopes = sorted(j / s for j, s in zip(jumps, steps))
            median_slope = slopes[len(slopes) // 2]
            ok_med = worst <= 10.0 * median_slope or worst == 0.0
            rep.passed &= ok_c and ok_med
            rep.add(
                f"mu_{k}^{nu}: max secant {worst:.4g} "
                f"{'<=' if ok_c else '>'} C = {c_bound:.4g} (closed-form scaled), "
                f"{'<=' if ok_med else '>'} 10 x median "
                f"{median_slope:.4g}"
            )
            if is_unit and nu == "+":
                dev = max(
                    abs(mu - w) / w for w, mu in zip(cf, mus)
                )
                okc = dev <= 1e-6
                rep.passed &= okc
                rep.add(
                    f"mu_{k} vs closed form: max rel dev {dev:.3e} "
                    f"{'<=' if okc else '>'} 1e-6"
                )
    rep.add(CAVEAT)
    return rep


def _is_unit_weight(m: Weight) -> bool:
    rs = np.linspace(0.0, 1.0, 257)
    return bool(np.max(np.abs(m(rs) - 1.0)) < 1e-14)


def _positive_inside(m: Weight) -> bool:
    """m > 0 on (0, 1) but for isolated zeros: {m > 0} spans the breakpoints."""
    return m.positive_intervals == ((m.breakpoints[0], m.breakpoints[-1]),)


def verify_sturm(p, N, b1: Weight, b2: Weight, *, rtol=DEFAULT_RTOL,
                 atol=DEFAULT_ATOL) -> CheckReport:
    """Comparison: a strictly larger positive coefficient moves every zero inward.

    u1 and u2 solve the radial equation with coefficients b1 and b2 and
    u(0) = 1, u'(0) = 0.  From 0 < b1 < b2 the Sturm comparison theorem
    gives that the i-th zero of u2 lies strictly before the i-th zero
    of u1, so u2 has at least as many zeros in (0, 1).  It does not give
    u2 an extra zero on the bounded interval [0, 1].
    """
    if not (_positive_inside(b1) and _positive_inside(b2 - b1)):
        raise PreconditionError(
            "Sturm comparison requires 0 < b1(r) < b2(r) on (0, 1)"
        )

    def interior_zeros(b):
        traj = shoot(Problem.linear(p, N, b, 1.0), 1.0, rtol=rtol, atol=atol,
                     n_samples=65)
        return [z.r for z in traj.interior_zeros]

    r1, r2 = interior_zeros(b1), interior_zeros(b2)
    z1, z2 = len(r1), len(r2)
    ahead = all(a2 < a1 for a1, a2 in zip(r1, r2))
    rep = CheckReport("sturm_comparison", z2 >= z1 and ahead)
    rep.add(
        f"zeros(u1) = {z1}, zeros(u2) = {z2}, need zeros(u2) >= zeros(u1) "
        f"and the i-th zero of u2 before the i-th zero of u1 for i <= {z1}: "
        f"{'yes' if ahead else 'no'}"
    )
    rep.data.update(z1=z1, z2=z2, zeros1=tuple(r1), zeros2=tuple(r2))
    return rep


def verify_zero_proliferation(p, N, m: Weight, interval, multipliers, *,
                              rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> CheckReport:
    """Zero counts on a positive-weight window grow without bound in t * m."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise PreconditionError("window [a, b] must have positive length")
    if not any(lo <= a and b <= hi for lo, hi in m.positive_intervals):
        raise PreconditionError("window [a, b] must lie inside {m > 0}")
    ts = [float(t) for t in multipliers]
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise PreconditionError("multipliers must be strictly increasing")

    counts = []
    for t in ts:
        traj = shoot(
            Problem.linear(p, N, m, t), 1.0, n_samples=65, rtol=rtol, atol=atol
        )
        if traj.blowup_radius is not None and traj.blowup_radius < b:
            raise PreconditionError(
                f"shot blew up at r={traj.blowup_radius:.4g} before "
                f"traversing the window"
            )
        # a boundary zero (u(1) = 0 at an eigen-coefficient) is not an
        # interior oscillation; keep the count semantics interior
        counts.append(sum(1 for z in traj.interior_zeros if a <= z.r <= b))

    rep = CheckReport("zero_proliferation", True)
    if len(ts) == 1:
        rep.add(f"single multiplier t={ts[0]:g}: count {counts[0]} (degenerate check)")
        rep.data["counts"] = counts
        return rep
    nondec = all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    growth = counts[-1] >= counts[0] + len(ts) / 2.0
    rep.passed = nondec and growth
    rep.add(f"multipliers: {ts}")
    rep.add(f"window counts: {counts} (nondecreasing: {nondec})")
    rep.add(
        f"growth: count[last] = {counts[-1]} needs >= count[first] + J/2 = "
        f"{counts[0] + len(ts) / 2:.1f}: {growth}"
    )
    rep.data["counts"] = counts
    return rep


def crossing_index(spectrum: Spectrum, mu: float) -> int:
    """Sign (-1)^beta of the topological degree between eigenvalues.

    beta counts the eigenvalues crossed: mu_k^+ < mu for mu > 0, or
    mu_k^- > mu for mu < 0.  Errors out when mu sits within 1e-8
    (relative, absolute below 1) of an eigenvalue or beyond the validated
    range of the spectrum.
    """
    sgn, nu, name = (1, "+", "positive") if mu >= 0 else (-1, "-", "negative")
    values = spectrum.values(nu)
    if not values or sgn * mu >= sgn * values[-1]:
        raise PreconditionError(f"mu beyond the validated range of the {name} sequence")
    if any(abs(mu - v) <= 1e-8 * max(1.0, abs(v)) for v in values):
        raise PreconditionError("mu too close to an eigenvalue")
    beta = sum(1 for v in values if sgn * v < sgn * mu)
    return 1 if beta % 2 == 0 else -1
