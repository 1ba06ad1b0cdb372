"""Command-line front end.

    pspect eig|nodal|branch|verify|gp --config <path> [--out <dir>]
           [--tol-rel <x>]

A run is described by one JSON config file (schema below, strictly
validated, unknown keys rejected).  CSV is the canonical output (17
significant digits, LF line endings, a header comment carrying the
config hash and the tolerances); the branch SVG is a hand-emitted
polyline convenience.  Output files are written atomically (temp file
plus rename) and repeated runs with the same config and version produce
byte-identical bytes.

Exit codes: 0 ok, 1 config or usage error, 2 partial result (including
an eigenvalue a command needs that its search did not validate),
3 verification failure.

Config schema::

    {
      "problem": {"p": 2.0, "N": 1, "weight": <weight>},
      "task": {"kind": "eig" | "nodal" | "branch" | "verify" | "gp", ...},
      "tolerances": {"tol_rel": 1e-10, "tol_abs": 1e-12},   # optional
      "output": {"dir": "out"}                               # optional
    }

    <weight> = {"expr": "poly", "coeffs": [c0, c1, ...]}         # global poly
             | {"breakpoints": [0, ..., 1], "coeffs": [[...], ...]}
               # piecewise, ascending powers of (r - left breakpoint)

Task blocks::

    eig:    {"kind": "eig", "K": 3, "nu": ["+", "-"], "profiles": true}
    nodal:  {"kind": "nodal", "gamma": 2.0, "k": 1, "sigma": "+",
             "f": {"family": "rational", "f0": 1, "finf": 2, "q": 2}}
    branch: {"kind": "branch", "k": 1, "sigma": "+", "nu": "+",
             "f": {...}, "alpha_min": 1e-3, "alpha_max": 1e3, "ratio": 1.25}
    gp:     {"kind": "gp", "h": <weight>}
    verify: {"kind": "verify", "checks": [<check>, ...]}

A sign is "+" or "-".  "sigma" and the branch "nu" are one sign; every
other "nu" is a non-empty list of distinct signs.  "profiles" is a
boolean and "output.dir" a non-empty string.  Numbers are finite;
"tol_rel", "tol_abs" and --tol-rel are > 0; "f" and "g" must be accepted
by the library.  An optional key left out takes the library's default,
except the eig "nu" (["+"]), "profiles" (true) and the
spectrum_structure "nu" (["+", "-"]).

Check blocks (each uses the problem block unless stated)::

    {"check": "spectrum_structure", "K": 4, "nu": ["+", "-"]}
    {"check": "weight_monotonicity", "weight2": <weight>, "K": 3}
    {"check": "p_continuity", "p_grid": [1.5, 2.0, 2.5], "K": 2, "nu": ["+"]}
    {"check": "sturm", "b1": <weight>, "b2": <weight>}
    {"check": "zero_proliferation", "window": [a, b], "multipliers": [...]}
    {"check": "crossing_index", "K": 4}
    {"check": "nodal_intervals", "f": {...}, "k": 1}
    {"check": "bifurcation_points", "g": {"c": 1.0, "delta": 1.0},
     "ks": [1, 2], "nu": ["+", "-"], "alphas": [0.1, 0.01, 0.001]}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, PreconditionError, SpectrumIncomplete
from .nodal import (
    Nonlinearity,
    Perturbation,
    find_nodal,
    gamma_intervals,
    trace_branch,
    verify_bifurcation_points,
)
from .greens import apply_Gp
from .radial_ivp import DEFAULT_ATOL, DEFAULT_RTOL
from .report import CheckReport
from .spectrum import (
    compute_spectrum,
    crossing_index,
    shared_shots,
    verify_p_continuity,
    verify_sturm,
    verify_weight_monotonicity,
    verify_zero_proliferation,
)
from .weights import Weight

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# config loading and validation


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}")
    for key in sorted(required):  # a set: its order changes from run to run
        if key not in obj:
            _fail(path, f"missing required key '{key}'")


def _built(make, path, *args, **kw):
    """make(*args, **kw); what it rejects is a config error at path."""
    try:
        return make(*args, **kw)
    except (ValueError, TypeError, OverflowError) as exc:  # incl. PreconditionError
        _fail(path, str(exc))


def _f_from(spec, p) -> Nonlinearity:
    if spec["family"] == "phi":
        return Nonlinearity.phi(p)
    return Nonlinearity.rational(p, **{k: v for k, v in spec.items() if k != "family"})


def _given(block, *keys, **renamed):
    """The keyword arguments a config block sets: keys by their own name,
    renamed ones as library name = config key."""
    names = {**{key: key for key in keys}, **renamed}
    return {name: block[key] for name, key in names.items() if key in block}


def _is_number(x) -> bool:
    # json.loads reads NaN, Infinity and integers too large for a float
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _is_sign(x) -> bool:
    return x in ("+", "-")


def _list_of(ok, length=None):
    def check(x):
        return (isinstance(x, list) and len(x) >= 1 and all(map(ok, x))
                and (length is None or len(x) == length))

    return check


# the type of each value, wherever the key is allowed
_NUMBER = ("a number", _is_number)
_NUMBERS = ("a non-empty list of numbers", _list_of(_is_number))
_POSITIVE = ("a number > 0", lambda x: _is_number(x) and x > 0)
_SIGN = ("'+' or '-'", _is_sign)
_VALUE_TYPES = {
    "K": ("an integer >= 1", _is_index),
    "k": ("an integer >= 1", _is_index),
    "ks": ("a non-empty list of integers >= 1", _list_of(_is_index)),
    "window": ("a list of two numbers", _list_of(_is_number, 2)),
    "p_grid": _NUMBERS,
    "multipliers": _NUMBERS,
    "alphas": _NUMBERS,
    "alpha_min": _POSITIVE,  # the alpha grids are geometric
    "alpha_max": _POSITIVE,
    "tol_rel": _POSITIVE,
    "tol_abs": _POSITIVE,
    "ratio": ("a number > 1", lambda x: _is_number(x) and x > 1),
    "nu": ("a non-empty list of distinct signs '+', '-'",
           lambda x: _list_of(_is_sign)(x) and len(set(x)) == len(x)),
    "sigma": _SIGN,
    "profiles": ("true or false", lambda x: isinstance(x, bool)),
    "dir": ("a non-empty string", lambda x: isinstance(x, str) and x != ""),
    **dict.fromkeys(("gamma", "f0", "finf", "q", "c", "delta"), _NUMBER),
}
_BRANCH_TYPES = {**_VALUE_TYPES, "nu": _SIGN}  # one branch follows one sequence
_WEIGHT_KEYS = ("weight2", "b1", "b2", "h")


def _check_values(block, path, p, types=_VALUE_TYPES):
    for key, value in block.items():
        where = f"{path}.{key}"
        if key in _WEIGHT_KEYS:
            _built(Weight.from_spec, where, value)
        elif key == "f":
            _require_keys(value, {"family", "f0", "finf", "q"}, {"family"}, where)
            if value["family"] not in ("rational", "phi"):
                _fail(where, f"unknown nonlinearity family {value['family']!r}")
            _check_values(value, where, p)
            _built(_f_from, where, value, p)
        elif key == "g":
            _require_keys(value, {"c", "delta"}, set(), where)
            _check_values(value, where, p)
            _built(Perturbation, where, p, **value)
        elif key in types:
            what, ok = types[key]
            if not ok(value):
                _fail(where, f"must be {what}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    _require_keys(
        cfg, {"problem", "task", "tolerances", "output"}, {"problem", "task"}, "config"
    )
    prob = cfg["problem"]
    _require_keys(prob, {"p", "N", "weight"}, {"p", "N", "weight"}, "problem")
    p = prob["p"]
    if not (_is_number(p) and p > 1):
        _fail("problem.p", "must be a number > 1")
    if not _is_index(prob["N"]):
        _fail("problem.N", "must be an integer >= 1")
    _built(Weight.from_spec, "problem.weight", prob["weight"])

    task = cfg["task"]
    if not isinstance(task, dict) or "kind" not in task:
        _fail("task", "must be an object with a 'kind'")
    kind = task["kind"]
    if kind not in _COMMANDS:
        _fail("task.kind", f"unknown kind {kind!r}")
    allowed, required, _ = _COMMANDS[kind]
    _require_keys(task, allowed | {"kind"}, required, "task")
    _check_values(task, "task", p, _BRANCH_TYPES if kind == "branch" else _VALUE_TYPES)
    if kind == "verify":
        if not isinstance(task["checks"], list):
            _fail("task.checks", "must be a list")
        for i, chk in enumerate(task["checks"]):
            if not isinstance(chk, dict) or "check" not in chk:
                _fail(f"task.checks[{i}]", "must be an object with a 'check'")
            name = chk["check"]
            if name not in _CHECKS:
                _fail(f"task.checks[{i}].check", f"unknown check {name!r}")
            allowed, required, _ = _CHECKS[name]
            _require_keys(chk, allowed | {"check"}, required, f"task.checks[{i}]")
            _check_values(chk, f"task.checks[{i}]", p)

    for block, keys in (("tolerances", {"tol_rel", "tol_abs"}), ("output", {"dir"})):
        if block in cfg:
            _require_keys(cfg[block], keys, set(), block)
            _check_values(cfg[block], block, p)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _tols(cfg, rtol=None) -> dict:
    """The integrator tolerances: --tol-rel over the config over the defaults."""
    given = cfg.get("tolerances", {})
    if rtol is None:
        rtol = given.get("tol_rel", DEFAULT_RTOL)
    elif not _POSITIVE[1](rtol):
        _fail("--tol-rel", f"must be {_POSITIVE[0]}")
    return {"rtol": rtol, "atol": given.get("tol_abs", DEFAULT_ATOL)}


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _header(cfg, kind, tols) -> list:
    """The first lines of every output: version, config hash, tolerances."""
    return [
        f"pspect v{__version__} task={kind}",
        f"config_sha256={config_hash(cfg)}",
        f"tol_rel={_fmt(tols['rtol'])} tol_abs={_fmt(tols['atol'])}",
    ]


def _write_csv(path, comments, columns, rows, trailer=()):
    """Comment lines ('# '), the column names, the rows, trailing comments."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    lines.extend(f"# {c}" for c in trailer)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_profile(path, comments, traj):
    """u and u' of a shot at 513 equally spaced radii from its start to r = 1."""
    rs = np.linspace(traj.r[0], 1.0, 513)
    uu, _ = traj.eval(rs)
    up = traj.uprime(rs)
    _write_csv(path, comments, ("r", "u", "uprime"),
               zip(map(float, rs), map(float, uu), map(float, up)))


def write_polyline_svg(path, xs, ys, xlabel, ylabel, title):
    """Minimal deterministic SVG: one polyline plus axis ticks."""
    W, H, ML, MB, MT, MR = 640, 480, 70, 50, 30, 20
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 < 1e-300:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-300:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(x):
        return ML + (x - x0) / (x1 - x0) * (W - ML - MR)

    def sy(y):
        return H - MB - (y - y0) / (y1 - y0) * (H - MB - MT)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<text x="{W // 2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" height="{H - MB - MT}" '
        'fill="none" stroke="black"/>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{H - MB}" x2="{sx(xv):.2f}" '
            f'y2="{H - MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{H - MB + 18}" text-anchor="middle" '
            f'font-size="11">{xv:.6g}</text>'
        )
        parts.append(
            f'<line x1="{ML - 5}" y1="{sy(yv):.2f}" x2="{ML}" y2="{sy(yv):.2f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{ML - 8}" y="{sy(yv):.2f}" text-anchor="end" '
            f'font-size="11">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{W // 2}" y="{H - 8}" text-anchor="middle" font-size="12">'
        f"{xlabel}</text>"
    )
    parts.append(
        f'<text x="14" y="{H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {H // 2})">{ylabel}</text>'
    )
    pts = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4"/>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


_SIGMA_NAME = {"+": "plus", "-": "minus"}


# ---------------------------------------------------------------------------
# commands: (task block, p, N, m, tolerances, header lines, out_dir) -> exit code


def cmd_eig(task, p, n_dim, m, tols, header, out_dir) -> int:
    nus = task.get("nu", ["+"])
    spec = compute_spectrum(p, n_dim, m, task["K"], nus, **tols)
    exit_code = EXIT_OK
    pairs = []
    for nu in nus:
        res = spec.results.get(nu)
        if res is None:
            print("negative sequence absent", file=sys.stderr)
            exit_code = EXIT_PARTIAL
            continue
        if not res.complete:
            print(f"partial spectrum for nu={nu}: {res.message}", file=sys.stderr)
            exit_code = EXIT_PARTIAL
        pairs.extend(res.eigenpairs)

    _write_csv(
        os.path.join(out_dir, "spectrum.csv"),
        header,
        ("k", "nu", "mu", "zero_count", "residual"),
        ((ep.k, ep.nu, ep.mu, len(ep.zeros), ep.boundary_residual) for ep in pairs),
    )
    if task.get("profiles", True):
        for ep in pairs:
            _write_profile(
                os.path.join(out_dir, f"eigfun_k{ep.k}_{_SIGMA_NAME[ep.nu]}.csv"),
                header + [f"k={ep.k} nu={ep.nu} mu={_fmt(ep.mu)}"],
                ep.trajectory,
            )
    return exit_code


def cmd_nodal(task, p, n_dim, m, tols, header, out_dir) -> int:
    search = find_nodal(
        p,
        n_dim,
        m,
        _f_from(task["f"], p),
        task["gamma"],
        task["k"],
        task["sigma"],
        **_given(task, "alpha_min", "alpha_max"),
        **tols,
    )
    if not search.found:
        report = header + [f"degenerate_homogeneous={search.degenerate_homogeneous}"]
        report = [f"# {line}" for line in report + search.diagnostics]
        report.append("no solution found; scan evidence above")
        _atomic_write(os.path.join(out_dir, "nodal_report.txt"), "\n".join(report) + "\n")
        return EXIT_PARTIAL
    sol = search.solution
    _write_profile(
        os.path.join(out_dir, f"nodal_k{sol.k}_{_SIGMA_NAME[sol.sigma]}.csv"),
        header
        + [
            f"gamma={_fmt(sol.gamma)} alpha={_fmt(sol.alpha)} "
            f"zeros={len(sol.zeros)} residual={_fmt(sol.residual)}"
        ],
        sol.trajectory,
    )
    return EXIT_OK


def cmd_branch(task, p, n_dim, m, tols, header, out_dir) -> int:
    branch = trace_branch(
        p,
        n_dim,
        m,
        _f_from(task["f"], p),
        task["k"],
        task["sigma"],
        **_given(task, "nu", "alpha_min", "alpha_max", "ratio"),
        **tols,
    )
    name = f"branch_k{branch.k}_{_SIGMA_NAME[branch.sigma]}"
    trailer = []
    if branch.gamma_zero_estimate is not None:
        trailer.append(f"gamma_0={_fmt(branch.gamma_zero_estimate)}")
        trailer.append(f"gamma_inf={_fmt(branch.gamma_inf_estimate)}")
    _write_csv(
        os.path.join(out_dir, f"{name}.csv"),
        header,
        ("gamma", "alpha", "sup_norm", "zeros"),
        (
            (pt.gamma, pt.alpha, pt.sup_norm, pt.zeros)
            for pt in branch.points
        ),
        trailer + branch.diagnostics,
    )
    if branch.points:
        write_polyline_svg(
            os.path.join(out_dir, f"{name}.svg"),
            [pt.gamma for pt in branch.points],
            [pt.sup_norm for pt in branch.points],
            "gamma",
            "sup norm",
            f"branch k={branch.k} sigma={branch.sigma} nu={branch.nu}",
        )
    if branch.truncated:
        for d in branch.diagnostics:
            print(d, file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_gp(task, p, n_dim, m, tols, header, out_dir) -> int:
    prof = apply_Gp(p, n_dim, Weight.from_spec(task["h"]))
    _write_csv(
        os.path.join(out_dir, "gp_profile.csv"),
        header + [f"quad_error={_fmt(prof.quad_error)}"],
        ("r", "u", "uprime"),
        zip(map(float, prof.r), map(float, prof.u), map(float, prof.uprime)),
    )
    return EXIT_OK


def cmd_verify(task, p, n_dim, m, tols, header, out_dir) -> int:
    lines = [f"pspect v{__version__} verification report", *header[1:], ""]
    any_fail = False
    for chk in task["checks"]:
        name = chk["check"]
        try:
            rep = _CHECKS[name][2](chk, p, n_dim, m, tols)
        except PreconditionError as exc:
            lines.append(f"[PRECONDITION VIOLATION] {name}: {exc}")
            any_fail = True
            continue
        lines.append(rep.render())
        if not rep.passed and not rep.not_applicable:
            any_fail = True
    _atomic_write(os.path.join(out_dir, "report.txt"), "\n".join(lines) + "\n")
    return EXIT_VERIFY if any_fail else EXIT_OK


# ---------------------------------------------------------------------------
# checks: (check block, p, N, m, tolerances) -> CheckReport


def _check_spectrum_structure(chk, p, n_dim, m, tols):
    nus = chk.get("nu", ["+", "-"])
    rep = CheckReport("spectrum_structure", True)
    spec = compute_spectrum(p, n_dim, m, chk["K"], nus, **tols)
    for nu in nus:
        res = spec.results.get(nu)
        if res is None:
            rep.add("nu=-: negative sequence absent (weight has no negative part)")
            continue
        if not res.complete:
            rep.passed = False
            rep.add(f"nu={nu}: incomplete ({res.message})")
            continue
        vals = res.values
        sgn = 1 if nu == "+" else -1
        ordered = all(sgn * b > sgn * a for a, b in zip(vals, vals[1:]))
        sign_ok = all(sgn * v > 0 for v in vals)
        rep.passed &= ordered and sign_ok
        rep.add(
            f"nu={nu}: values {['%.8g' % v for v in vals]} "
            f"(strictly ordered: {ordered}, sign: {sign_ok})"
        )
        for ep in res.eigenpairs:
            n_zeros = len(ep.zeros)
            simple = not ep.trajectory.degenerate
            ok = n_zeros == ep.k - 1 and simple
            rep.passed &= ok
            rep.add(
                f"  k={ep.k}: {n_zeros} interior zeros (want {ep.k - 1}), "
                f"all simple: {simple}, |u(1)|={ep.boundary_residual:.2e}"
            )
    return rep


def _check_crossing_index(chk, p, n_dim, m, tols):
    K = chk["K"]
    rep = CheckReport("crossing_index", True)
    spec = compute_spectrum(p, n_dim, m, K + 1, **tols)
    for nu in spec.results:
        vals = [spec.mu(k, nu) for k in range(1, K + 2)]
        prev = None
        gaps = [0.5 * vals[0]] + [0.5 * (a + b) for a, b in zip(vals, vals[1:])]
        for i, mu in enumerate(gaps):
            idx = crossing_index(spec, mu)
            want = 1 if i % 2 == 0 else -1
            ok = idx == want
            rep.passed &= ok
            rep.add(
                f"nu={nu} gap {i} (mu={mu:.6g}): index {idx:+d} expected {want:+d}"
            )
            if prev is not None:
                rep.passed &= idx == -prev
            prev = idx
    return rep


def _check_nodal_intervals(chk, p, n_dim, m, tols):
    f, k = _f_from(chk["f"], p), chk["k"]
    rep = CheckReport("nodal_intervals", True)
    spec = compute_spectrum(p, n_dim, m, k, **tols)
    for iv in gamma_intervals(spec, f.f0, f.finf, k):
        if iv.empty:
            rep.add(
                f"nu={iv.nu} {iv.ordering}: ({iv.lo:.6g}, {iv.hi:.6g}) empty "
                "(reported, vacuous)"
            )
            continue
        gamma = 0.5 * (iv.lo + iv.hi)
        for sigma in ("+", "-"):
            search = find_nodal(p, n_dim, m, f, gamma, k, sigma, **tols)
            ok = search.found and len(search.solution.zeros) == k - 1
            rep.passed &= ok
            rep.add(
                f"nu={iv.nu} gamma={gamma:.6g} sigma={sigma}: "
                + (
                    f"found alpha={search.solution.alpha:.6g}, "
                    f"residual={search.solution.residual:.2e}"
                    if search.found
                    else "not found"
                )
            )
    return rep


# check -> (keys besides "check", required keys, run)
_CHECKS = {
    "spectrum_structure": ({"K", "nu"}, {"K"}, _check_spectrum_structure),
    "weight_monotonicity": (
        {"weight2", "K"},
        {"weight2", "K"},
        lambda chk, p, n_dim, m, tols: verify_weight_monotonicity(
            p, n_dim, m, Weight.from_spec(chk["weight2"]), chk["K"], **tols),
    ),
    "p_continuity": (
        {"p_grid", "K", "nu"},
        {"p_grid", "K"},
        lambda chk, p, n_dim, m, tols: verify_p_continuity(
            n_dim, m, chk["K"], chk["p_grid"], **_given(chk, nus="nu"), **tols),
    ),
    "sturm": (
        {"b1", "b2"},
        {"b1", "b2"},
        lambda chk, p, n_dim, m, tols: verify_sturm(
            p, n_dim, Weight.from_spec(chk["b1"]), Weight.from_spec(chk["b2"]), **tols),
    ),
    "zero_proliferation": (
        {"window", "multipliers"},
        {"window", "multipliers"},
        lambda chk, p, n_dim, m, tols: verify_zero_proliferation(
            p, n_dim, m, chk["window"], chk["multipliers"], **tols),
    ),
    "crossing_index": ({"K"}, {"K"}, _check_crossing_index),
    "nodal_intervals": ({"f", "k"}, {"f", "k"}, _check_nodal_intervals),
    "bifurcation_points": (
        {"g", "ks", "nu", "alphas"},
        {"g", "ks"},
        lambda chk, p, n_dim, m, tols: verify_bifurcation_points(
            p, n_dim, m, Perturbation(p, **chk["g"]), chk["ks"],
            **_given(chk, "alphas", nus="nu"), **tols),
    ),
}


# ---------------------------------------------------------------------------
# entry point


# task kind -> (keys besides "kind", required keys, command)
_COMMANDS = {
    "eig": ({"K", "nu", "profiles"}, {"K"}, cmd_eig),
    "nodal": (
        {"gamma", "k", "sigma", "f", "alpha_min", "alpha_max"},
        {"gamma", "k", "sigma", "f"},
        cmd_nodal,
    ),
    "branch": (
        {"k", "sigma", "nu", "f", "alpha_min", "alpha_max", "ratio"},
        {"k", "sigma", "f"},
        cmd_branch,
    ),
    "verify": ({"checks"}, {"checks"}, cmd_verify),
    "gp": ({"h"}, {"h"}, cmd_gp),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pspect",
        description="spectrum, nodal solutions and branches of the radial "
        "p-Laplacian with sign-changing weight",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol-rel", type=float, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        # argparse has printed its message; exit 2 would read "partial result"
        return EXIT_CONFIG

    try:
        cfg = load_config(args.config)
        if cfg["task"]["kind"] != args.command:
            raise ConfigError(
                f"config task kind {cfg['task']['kind']!r} does not match "
                f"command {args.command!r}"
            )
        tols = _tols(cfg, args.tol_rel)
        out_dir = args.out or cfg.get("output", {}).get("dir", ".")
        os.makedirs(out_dir, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    prob = cfg["problem"]
    command = _COMMANDS[args.command][2]
    header = _header(cfg, args.command, tols)
    try:
        with shared_shots():
            return command(cfg["task"], float(prob["p"]), prob["N"],
                           Weight.from_spec(prob["weight"]), tols, header, out_dir)
    except SpectrumIncomplete as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARTIAL
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY if args.command == "verify" else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
