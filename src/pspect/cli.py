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
boolean and "output.dir" a non-empty string.

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
    for key in required:
        if key not in obj:
            _fail(path, f"missing required key '{key}'")


def _weight_from(spec, path) -> Weight:
    try:
        return Weight.from_spec(spec)
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))


def _f_from(spec, p) -> Nonlinearity:
    if spec["family"] == "phi":
        return Nonlinearity.phi(p)
    return Nonlinearity.rational(
        p, spec.get("f0", 1.0), spec.get("finf", 2.0), spec.get("q", 2.0)
    )


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _is_sign(x) -> bool:
    return x in ("+", "-")


def _list_of(ok, length=None):
    def check(x):
        return (isinstance(x, list) and len(x) >= 1 and all(map(ok, x))
                and (length is None or len(x) == length))

    return check


# what the commands convert with int() or float(), wherever the key is allowed
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
    "ratio": ("a number > 1", lambda x: _is_number(x) and x > 1),
    "nu": ("a non-empty list of distinct signs '+', '-'",
           lambda x: _list_of(_is_sign)(x) and len(set(x)) == len(x)),
    "sigma": _SIGN,
    "profiles": ("true or false", lambda x: isinstance(x, bool)),
    "dir": ("a non-empty string", lambda x: isinstance(x, str) and x != ""),
    **dict.fromkeys(("gamma", "tol_rel", "tol_abs", "f0", "finf", "q", "c", "delta"),
                    _NUMBER),
}
_BRANCH_TYPES = {**_VALUE_TYPES, "nu": _SIGN}  # one branch follows one sequence
_WEIGHT_KEYS = ("weight2", "b1", "b2", "h")


def _check_values(block, path, types=_VALUE_TYPES):
    for key, value in block.items():
        where = f"{path}.{key}"
        if key in _WEIGHT_KEYS:
            _weight_from(value, where)
        elif key == "f":
            _require_keys(value, {"family", "f0", "finf", "q"}, {"family"}, where)
            if value["family"] not in ("rational", "phi"):
                _fail(where, f"unknown nonlinearity family {value['family']!r}")
            _check_values(value, where)
        elif key == "g":
            _require_keys(value, {"c", "delta"}, set(), where)
            _check_values(value, where)
        elif key in types:
            what, ok = types[key]
            if not ok(value):
                _fail(where, f"must be {what}")


_TASK_KEYS = {
    "eig": ({"kind", "K", "nu", "profiles"}, {"K"}),
    "nodal": (
        {"kind", "gamma", "k", "sigma", "f", "alpha_min", "alpha_max"},
        {"gamma", "k", "sigma", "f"},
    ),
    "branch": (
        {"kind", "k", "sigma", "nu", "f", "alpha_min", "alpha_max", "ratio"},
        {"k", "sigma", "f"},
    ),
    "gp": ({"kind", "h"}, {"h"}),
    "verify": ({"kind", "checks"}, {"checks"}),
}

_CHECK_KEYS = {
    "spectrum_structure": ({"check", "K", "nu"}, {"K"}),
    "weight_monotonicity": ({"check", "weight2", "K"}, {"weight2", "K"}),
    "p_continuity": ({"check", "p_grid", "K", "nu"}, {"p_grid", "K"}),
    "sturm": ({"check", "b1", "b2"}, {"b1", "b2"}),
    "zero_proliferation": (
        {"check", "window", "multipliers"},
        {"window", "multipliers"},
    ),
    "crossing_index": ({"check", "K"}, {"K"}),
    "nodal_intervals": ({"check", "f", "k"}, {"f", "k"}),
    "bifurcation_points": (
        {"check", "g", "ks", "nu", "alphas"},
        {"g", "ks"},
    ),
}


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
    if not (_is_number(prob["p"]) and prob["p"] > 1):
        _fail("problem.p", "must be a number > 1")
    if not _is_index(prob["N"]):
        _fail("problem.N", "must be an integer >= 1")
    _weight_from(prob["weight"], "problem.weight")

    task = cfg["task"]
    if not isinstance(task, dict) or "kind" not in task:
        _fail("task", "must be an object with a 'kind'")
    kind = task["kind"]
    if kind not in _TASK_KEYS:
        _fail("task.kind", f"unknown kind {kind!r}")
    allowed, required = _TASK_KEYS[kind]
    _require_keys(task, allowed, required, "task")
    _check_values(task, "task", _BRANCH_TYPES if kind == "branch" else _VALUE_TYPES)
    if kind == "verify":
        if not isinstance(task["checks"], list):
            _fail("task.checks", "must be a list")
        for i, chk in enumerate(task["checks"]):
            if not isinstance(chk, dict) or "check" not in chk:
                _fail(f"task.checks[{i}]", "must be an object with a 'check'")
            name = chk["check"]
            if name not in _CHECK_KEYS:
                _fail(f"task.checks[{i}].check", f"unknown check {name!r}")
            a, r = _CHECK_KEYS[name]
            _require_keys(chk, a, r, f"task.checks[{i}]")
            _check_values(chk, f"task.checks[{i}]")

    if "tolerances" in cfg:
        _require_keys(cfg["tolerances"], {"tol_rel", "tol_abs"}, set(), "tolerances")
        _check_values(cfg["tolerances"], "tolerances")
    if "output" in cfg:
        _require_keys(cfg["output"], {"dir"}, set(), "output")
        _check_values(cfg["output"], "output")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_header(task: str, cfg_hash: str, tols) -> list:
    return [
        f"# pspect v{__version__} task={task}",
        f"# config_sha256={cfg_hash}",
        f"# tol_rel={_fmt(tols[0])} tol_abs={_fmt(tols[1])}",
    ]


def _write_csv(path, header_lines, columns, rows, trailer=()):
    lines = list(header_lines)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    lines.extend(trailer)
    _atomic_write(path, "\n".join(lines) + "\n")


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
# commands


def _problem_bits(cfg):
    prob = cfg["problem"]
    m = Weight.from_spec(prob["weight"])
    return float(prob["p"]), int(prob["N"]), m


def _tols(cfg, tol_rel_override=None):
    tols = cfg.get("tolerances", {})
    tol_rel = tol_rel_override if tol_rel_override else tols.get("tol_rel", DEFAULT_RTOL)
    tol_abs = tols.get("tol_abs", DEFAULT_ATOL)
    return float(tol_rel), float(tol_abs)


def cmd_eig(cfg, out_dir, tols) -> int:
    p, n_dim, m = _problem_bits(cfg)
    task = cfg["task"]
    K = int(task["K"])
    nus = task.get("nu", ["+"])
    profiles = task.get("profiles", True)
    cfg_hash = config_hash(cfg)

    spec = compute_spectrum(p, n_dim, m, K, nus, tol_rel=tols[0], tol_abs=tols[1])
    exit_code = EXIT_OK
    rows = []
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
        for ep in res.eigenpairs:
            rows.append((ep.k, ep.nu, ep.mu, len(ep.zeros), ep.boundary_residual))
            pairs.append(ep)

    header = _csv_header("eig", cfg_hash, tols)
    _write_csv(
        os.path.join(out_dir, "spectrum.csv"),
        header,
        ("k", "nu", "mu", "zero_count", "residual"),
        rows,
    )
    if profiles:
        for ep in pairs:
            traj = ep.trajectory
            rs = np.linspace(traj.r[0], 1.0, 513)
            uu, _ = traj.eval(rs)
            up = traj.uprime(rs)
            _write_csv(
                os.path.join(
                    out_dir, f"eigfun_k{ep.k}_{_SIGMA_NAME[ep.nu]}.csv"
                ),
                header + [f"# k={ep.k} nu={ep.nu} mu={_fmt(ep.mu)}"],
                ("r", "u", "uprime"),
                zip(map(float, rs), map(float, uu), map(float, up)),
            )
    return exit_code


def cmd_nodal(cfg, out_dir, tols) -> int:
    p, n_dim, m = _problem_bits(cfg)
    task = cfg["task"]
    f = _f_from(task["f"], p)
    cfg_hash = config_hash(cfg)
    kw = {}
    if "alpha_min" in task:
        kw["alpha_min"] = float(task["alpha_min"])
    if "alpha_max" in task:
        kw["alpha_max"] = float(task["alpha_max"])
    search = find_nodal(
        p,
        n_dim,
        m,
        f,
        float(task["gamma"]),
        int(task["k"]),
        task["sigma"],
        rtol=tols[0],
        atol=tols[1],
        **kw,
    )
    header = _csv_header("nodal", cfg_hash, tols)
    report = list(header)
    report.append(f"# degenerate_homogeneous={search.degenerate_homogeneous}")
    for d in search.diagnostics:
        report.append(f"# {d}")
    if not search.found:
        report.append("no solution found; scan evidence above")
        _atomic_write(os.path.join(out_dir, "nodal_report.txt"), "\n".join(report) + "\n")
        return EXIT_PARTIAL
    sol = search.solution
    traj = sol.trajectory
    rs = np.linspace(traj.r[0], 1.0, 513)
    uu, _ = traj.eval(rs)
    up = traj.uprime(rs)
    sig = _SIGMA_NAME[sol.sigma]
    _write_csv(
        os.path.join(out_dir, f"nodal_k{sol.k}_{sig}.csv"),
        header
        + [
            f"# gamma={_fmt(sol.gamma)} alpha={_fmt(sol.alpha)} "
            f"zeros={len(sol.zeros)} residual={_fmt(sol.residual)}"
        ],
        ("r", "u", "uprime"),
        zip(map(float, rs), map(float, uu), map(float, up)),
    )
    return EXIT_OK


def cmd_branch(cfg, out_dir, tols) -> int:
    p, n_dim, m = _problem_bits(cfg)
    task = cfg["task"]
    f = _f_from(task["f"], p)
    k = int(task["k"])
    sigma = task["sigma"]
    nu = task.get("nu", "+")
    alpha_range = (
        float(task.get("alpha_min", 1e-3)),
        float(task.get("alpha_max", 1e3)),
    )
    cfg_hash = config_hash(cfg)
    branch = trace_branch(
        p,
        n_dim,
        m,
        f,
        k,
        sigma,
        alpha_range,
        nu,
        ratio=float(task.get("ratio", 1.25)),
        rtol=tols[0],
        atol=tols[1],
    )
    sig = _SIGMA_NAME[sigma]
    trailer = []
    if branch.gamma_zero_estimate is not None:
        trailer.append(f"# gamma_0={_fmt(branch.gamma_zero_estimate)}")
        trailer.append(f"# gamma_inf={_fmt(branch.gamma_inf_estimate)}")
    for d in branch.diagnostics:
        trailer.append(f"# {d}")
    _write_csv(
        os.path.join(out_dir, f"branch_k{k}_{sig}.csv"),
        _csv_header("branch", cfg_hash, tols),
        ("gamma", "alpha", "sup_norm", "zeros"),
        (
            (pt.gamma, pt.alpha, pt.sup_norm, pt.zeros)
            for pt in branch.points
        ),
        trailer,
    )
    if branch.points:
        write_polyline_svg(
            os.path.join(out_dir, f"branch_k{k}_{sig}.svg"),
            [pt.gamma for pt in branch.points],
            [pt.sup_norm for pt in branch.points],
            "gamma",
            "sup norm",
            f"branch k={k} sigma={sigma} nu={nu}",
        )
    if branch.truncated:
        for d in branch.diagnostics:
            print(d, file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_gp(cfg, out_dir, tols) -> int:
    p, n_dim, _ = _problem_bits(cfg)
    h = Weight.from_spec(cfg["task"]["h"])
    prof = apply_Gp(p, n_dim, h)
    cfg_hash = config_hash(cfg)
    _write_csv(
        os.path.join(out_dir, "gp_profile.csv"),
        _csv_header("gp", cfg_hash, tols) + [f"# quad_error={_fmt(prof.quad_error)}"],
        ("r", "u", "uprime"),
        zip(map(float, prof.r), map(float, prof.u), map(float, prof.uprime)),
    )
    return EXIT_OK


def cmd_verify(cfg, out_dir, tols) -> int:
    p, n_dim, m = _problem_bits(cfg)
    checks = cfg["task"]["checks"]
    cfg_hash = config_hash(cfg)
    lines = [
        f"pspect v{__version__} verification report",
        f"config_sha256={cfg_hash}",
        f"tol_rel={_fmt(tols[0])} tol_abs={_fmt(tols[1])}",
        "",
    ]
    any_fail = False
    for chk in checks:
        name = chk["check"]
        try:
            rep = _run_check(name, chk, p, n_dim, m, tols)
        except PreconditionError as exc:
            lines.append(f"[PRECONDITION VIOLATION] {name}: {exc}")
            any_fail = True
            continue
        lines.append(rep.render())
        if not rep.passed and not rep.not_applicable:
            any_fail = True
    _atomic_write(os.path.join(out_dir, "report.txt"), "\n".join(lines) + "\n")
    return EXIT_VERIFY if any_fail else EXIT_OK


def _run_check(name, chk, p, n_dim, m, tols):
    kw = {"tol_rel": tols[0], "tol_abs": tols[1]}
    if name == "spectrum_structure":
        return _check_spectrum_structure(p, n_dim, m, int(chk["K"]),
                                         chk.get("nu", ["+", "-"]), kw)
    if name == "weight_monotonicity":
        m2 = Weight.from_spec(chk["weight2"])
        return verify_weight_monotonicity(p, n_dim, m, m2, int(chk["K"]), **kw)
    if name == "p_continuity":
        return verify_p_continuity(
            n_dim, m, int(chk["K"]), chk["p_grid"], nus=tuple(chk.get("nu", ["+"])),
            **kw,
        )
    if name == "sturm":
        return verify_sturm(
            p, n_dim, Weight.from_spec(chk["b1"]), Weight.from_spec(chk["b2"]),
            rtol=tols[0], atol=tols[1],
        )
    if name == "zero_proliferation":
        return verify_zero_proliferation(
            p, n_dim, m, chk["window"], chk["multipliers"],
            rtol=tols[0], atol=tols[1],
        )
    if name == "crossing_index":
        return _check_crossing_index(p, n_dim, m, int(chk["K"]), kw)
    if name == "nodal_intervals":
        f = _f_from(chk["f"], p)
        return _check_nodal_intervals(p, n_dim, m, f, int(chk["k"]), kw)
    if name == "bifurcation_points":
        g_spec = chk.get("g", {})
        g = Perturbation(p, c=g_spec.get("c", 1.0), delta=g_spec.get("delta", 1.0))
        return verify_bifurcation_points(
            p, n_dim, m, g, chk["ks"], tuple(chk.get("nu", ["+", "-"])),
            alphas=tuple(chk.get("alphas", (1e-1, 1e-2, 1e-3))),
            rtol=tols[0], atol=tols[1],
        )
    raise ConfigError(f"unknown check {name!r}")


def _check_spectrum_structure(p, n_dim, m, K, nus, kw):
    rep = CheckReport("spectrum_structure", True)
    spec = compute_spectrum(p, n_dim, m, K, nus, **kw)
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


def _check_crossing_index(p, n_dim, m, K, kw):
    rep = CheckReport("crossing_index", True)
    spec = compute_spectrum(p, n_dim, m, K + 1, **kw)
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


def _check_nodal_intervals(p, n_dim, m, f, k, kw):
    rep = CheckReport("nodal_intervals", True)
    spec = compute_spectrum(p, n_dim, m, k, **kw)
    for iv in gamma_intervals(spec, f.f0, f.finf, k):
        if iv.empty:
            rep.add(
                f"nu={iv.nu} {iv.ordering}: ({iv.lo:.6g}, {iv.hi:.6g}) empty "
                "(reported, vacuous)"
            )
            continue
        gamma = 0.5 * (iv.lo + iv.hi)
        for sigma in ("+", "-"):
            search = find_nodal(
                p, n_dim, m, f, gamma, k, sigma,
                rtol=kw["tol_rel"], atol=kw["tol_abs"],
            )
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


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "eig": cmd_eig,
    "nodal": cmd_nodal,
    "branch": cmd_branch,
    "verify": cmd_verify,
    "gp": cmd_gp,
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
        out_dir = args.out or cfg.get("output", {}).get("dir", ".")
        os.makedirs(out_dir, exist_ok=True)
        tols = _tols(cfg, args.tol_rel)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with shared_shots():
            return _COMMANDS[args.command](cfg, out_dir, tols)
    except SpectrumIncomplete as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARTIAL
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY if args.command == "verify" else EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
