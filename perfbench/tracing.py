"""Per-layer tracing of pspect from outside the package.

Wrappers are installed on the module attributes pspect calls through,
so nothing inside ``src/`` changes.  Spans and counters stay in memory;
the caller reads them once the traced pass has ended.  A layer's self
time is the duration of its spans minus the time covered by their child
spans, so nested calls are charged to the innermost layer.

Layers are named after the modules: ``rk45`` (the step loop in
``pspect._rk45``; a metric name may not start with an underscore),
``rhs`` (the closure ``radial_ivp.shoot`` hands to ``integrate``),
``radial_ivp`` (``shoot`` minus its children: sampling, zero location,
tail filtering), ``spectrum``, ``nodal``, ``greens``, ``weights``,
``pfuncs`` and ``cli`` (``cli.main`` minus the library calls under it).
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# modules whose public functions become spans of the layer of that name
LAYER_MODULES = ("spectrum", "nodal", "greens", "radial_ivp", "pfuncs")

# counts that must repeat exactly when the same task runs twice
COUNT_KEYS = (
    "rk45.calls", "rk45.steps_accepted", "rk45.steps_rejected",
    "radial_ivp.rhs_calls", "radial_ivp.shots_loose", "radial_ivp.shots_tight",
    "radial_ivp.zero_solves", "radial_ivp.blowups", "spectrum.searches",
    "spectrum.eigs", "spectrum.search_shots_loose", "spectrum.search_shots_tight",
    "spectrum.root_solves", "spectrum.repeat_searches",
    "spectrum.continuation_fallbacks", "nodal.calls", "nodal.solutions",
    "nodal.shots", "nodal.root_solves", "greens.calls",
)

_NODAL_ENTRY = ("find_nodal", "trace_branch", "verify_bifurcation_points")
_RAISED = object()


class Tracer:
    """Installs the wrappers and accumulates self times and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.count = Counter()
        self.shot_s = 0.0  # inclusive shoot time, for ms per shot
        self._stack = [[0.0]]  # child time of each open span, root first
        self._ctx = []  # open searches owning the shots: [loose, tight]
        self._p_trace = []  # find_eigenvalues calls per open p-continuation
        self._seen = {}  # search key -> largest K, within one task
        self._undo = []
        self._scan_rtol = None
        self._tols = None

    # -- installation -------------------------------------------------

    def install(self):
        from pspect import _rk45, cli, radial_ivp, spectrum, weights

        self._scan_rtol = spectrum.SCAN_RTOL
        self._tols = (radial_ivp.DEFAULT_RTOL, radial_ivp.DEFAULT_ATOL)
        mods = [m for n, m in sys.modules.items()
                if n == "pspect" or n.startswith("pspect.")]
        for layer in LAYER_MODULES:
            mod = sys.modules[f"pspect.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    self._everywhere(mods, fn, self._span(layer, name, fn))
        self._everywhere(mods, _rk45.integrate, self._integrate(_rk45.integrate))
        self._set(cli, "main", self._span("cli", "main", cli.main))
        for name in ("__call__", "in_M", "min_on"):
            fn = getattr(weights.Weight, name)
            self._set(weights.Weight, name, self._span("weights", name, fn))
        for mod, key in ((radial_ivp, "radial_ivp.zero_solves"),
                         (spectrum, "spectrum.root_solves"),
                         (sys.modules["pspect.nodal"], "nodal.root_solves")):
            self._set(mod, "brentq", self._counted(mod.brentq, key))
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _set(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _everywhere(self, mods, orig, new):
        for mod in mods:
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, name, new)

    # -- wrappers -----------------------------------------------------

    def _counted(self, fn, key):
        count = self.count

        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, layer, name, fn):
        if name in _NODAL_ENTRY:
            before, after = self._before_nodal, self._after_nodal
        else:
            before = getattr(self, f"_before_{name}", None)
            after = getattr(self, f"_after_{name}", None)
        stack, self_s = self._stack, self.self_s

        def wrapper(*args, **kwargs):
            note = before(args, kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            out = _RAISED
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt
                if after:
                    after(note, out, dt)

        return wrapper

    def _integrate(self, fn):
        stack, self_s, count = self._stack, self.self_s, self.count

        def wrapper(f, t0, t_end, y0, **kwargs):
            cell = [0, 0.0]

            def rhs(r, u, v):
                s = perf_counter()
                out = f(r, u, v)
                cell[1] += perf_counter() - s
                cell[0] += 1
                return out

            frame = [0.0]
            stack.append(frame)
            out = _RAISED
            s0 = perf_counter()
            try:
                out = fn(rhs, t0, t_end, y0, **kwargs)
                return out
            finally:
                dt = perf_counter() - s0
                stack.pop()
                self_s["rk45"] += dt - frame[0] - cell[1]
                self_s["rhs"] += cell[1]
                stack[-1][0] += dt
                count["rk45.calls"] += 1
                count["radial_ivp.rhs_calls"] += cell[0]
                if out is not _RAISED:
                    # one f call at the start and one in the initial step
                    # guess, then six per attempted step (FSAL reuses k7)
                    accepted = len(out[0]) - 1
                    count["rk45.steps_accepted"] += accepted
                    count["rk45.steps_rejected"] += (cell[0] - 2) // 6 - accepted

        return wrapper

    # -- hooks: before(args, kwargs) -> note; after(note, out, dt) ------

    def _before_shoot(self, args, kwargs):
        loose = kwargs.get("rtol", self._tols[0]) >= self._scan_rtol
        self.count["radial_ivp.shots_loose" if loose else "radial_ivp.shots_tight"] += 1
        if self._ctx:
            self._ctx[-1][0 if loose else 1] += 1

    def _after_shoot(self, note, traj, dt):
        self.shot_s += dt
        if traj is not _RAISED and traj.blowup_radius is not None:
            self.count["radial_ivp.blowups"] += 1

    def _before_find_eigenvalues(self, args, kwargs):
        problem, K = args[0], args[1]
        nu = args[2] if len(args) > 2 else kwargs.get("nu", "+")
        key = (float(problem.p), problem.N, problem.m.fingerprint(), nu,
               kwargs.get("tol_rel", self._tols[0]),
               kwargs.get("tol_abs", self._tols[1]))
        if self._seen.get(key, 0) >= K:
            self.count["spectrum.repeat_searches"] += 1
        self._seen[key] = max(K, self._seen.get(key, 0))
        self.count["spectrum.searches"] += 1
        if self._p_trace:
            self._p_trace[-1] += 1
        ctx = [0, 0]
        self._ctx.append(ctx)
        return ctx

    def _after_find_eigenvalues(self, ctx, result, dt):
        self._ctx.pop()
        self.count["spectrum.search_shots_loose"] += ctx[0]
        self.count["spectrum.search_shots_tight"] += ctx[1]
        if result is not _RAISED:
            self.count["spectrum.eigs"] += len(result.eigenpairs)

    def _before_trace_eigenvalues_in_p(self, args, kwargs):
        self._p_trace.append(0)

    def _after_trace_eigenvalues_in_p(self, note, result, dt):
        # the first search is the first grid point; later ones are fallbacks
        self.count["spectrum.continuation_fallbacks"] += max(0, self._p_trace.pop() - 1)

    def _before_nodal(self, args, kwargs):
        self.count["nodal.calls"] += 1
        ctx = [0, 0]
        self._ctx.append(ctx)
        return ctx

    def _after_nodal(self, ctx, result, dt):
        self._ctx.pop()
        self.count["nodal.shots"] += ctx[0] + ctx[1]
        if result is _RAISED:
            return
        if hasattr(result, "found"):  # find_nodal
            self.count["nodal.solutions"] += int(result.found)
        elif hasattr(result, "points"):  # trace_branch
            self.count["nodal.solutions"] += len(result.points)
        else:  # verify_bifurcation_points: one per located parameter
            self.count["nodal.solutions"] += sum(len(v) for v in result.data.values())

    def _before_apply_Gp(self, args, kwargs):
        self.count["greens.calls"] += 1

    # -- task bookkeeping and results --------------------------------

    def begin_task(self):
        """Repeat searches are counted within one task only."""
        self._seen = {}

    def counts(self) -> dict:
        return {k: self.count[k] for k in COUNT_KEYS}

    def metrics(self, bytes_written: int, overhead: float) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        c, s = self.count, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        shots = c["radial_ivp.shots_loose"] + c["radial_ivp.shots_tight"]
        steps = c["rk45.steps_accepted"] + c["rk45.steps_rejected"]
        return {
            "rk45.calls": (c["rk45.calls"], "count"),
            "rk45.self_s": (s["rk45"], "s"),
            "rk45.steps_accepted": (c["rk45.steps_accepted"], "count"),
            "rk45.steps_rejected": (c["rk45.steps_rejected"], "count"),
            "rk45.steps_per_shot": (ratio(steps, c["rk45.calls"]), "count"),
            "radial_ivp.rhs_calls": (c["radial_ivp.rhs_calls"], "count"),
            "radial_ivp.rhs_s": (s["rhs"], "s"),
            "radial_ivp.rhs_us_per_call": (1e6 * ratio(s["rhs"], c["radial_ivp.rhs_calls"]), "us"),
            "radial_ivp.shots_loose": (c["radial_ivp.shots_loose"], "count"),
            "radial_ivp.shots_tight": (c["radial_ivp.shots_tight"], "count"),
            "radial_ivp.self_s": (s["radial_ivp"], "s"),
            "radial_ivp.ms_per_shot": (1e3 * ratio(self.shot_s, shots), "ms"),
            "radial_ivp.zero_solves": (c["radial_ivp.zero_solves"], "count"),
            "radial_ivp.blowups": (c["radial_ivp.blowups"], "count"),
            "spectrum.searches": (c["spectrum.searches"], "count"),
            "spectrum.self_s": (s["spectrum"], "s"),
            "spectrum.shots_per_eig_loose": (
                ratio(c["spectrum.search_shots_loose"], c["spectrum.eigs"]), "count"),
            "spectrum.shots_per_eig_tight": (
                ratio(c["spectrum.search_shots_tight"], c["spectrum.eigs"]), "count"),
            "spectrum.root_solves": (c["spectrum.root_solves"], "count"),
            "spectrum.repeat_searches": (c["spectrum.repeat_searches"], "count"),
            "spectrum.continuation_fallbacks": (c["spectrum.continuation_fallbacks"], "count"),
            "nodal.calls": (c["nodal.calls"], "count"),
            "nodal.self_s": (s["nodal"], "s"),
            "nodal.shots_per_solution": (ratio(c["nodal.shots"], c["nodal.solutions"]), "count"),
            "nodal.root_solves": (c["nodal.root_solves"], "count"),
            "greens.calls": (c["greens.calls"], "count"),
            "greens.self_s": (s["greens"], "s"),
            "weights.self_s": (s["weights"], "s"),
            "pfuncs.self_s": (s["pfuncs"], "s"),
            "cli.self_s": (s["cli"], "s"),
            "cli.bytes_written": (bytes_written, "bytes"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
