import importlib.util
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import pspect
from pspect import _rk45, cli, nodal, spectrum, weights
from pspect.nodal import Nonlinearity, Perturbation
from pspect.radial_ivp import Problem, shoot
from pspect.weights import Weight

from oracles import rayleigh_mu1

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, "..", "configs")


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("k,") or line.startswith("r,") or line.startswith("gamma,"):
                continue
            rows.append(line.split(","))
    return rows


UNIT_EIG = {
    "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0]}},
    "task": {"kind": "eig", "K": 3, "nu": ["+"], "profiles": False},
}


def test_eig_closed_form_first_row(tmp_path):
    cfg = write_cfg(tmp_path, UNIT_EIG)
    out = str(tmp_path / "out")
    assert cli.main(["eig", "--config", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "spectrum.csv"))
    k, nu, mu, zc, res = rows[0]
    assert (k, nu, zc) == ("1", "+", "0")
    assert abs(float(mu) - 2.4674011002723395) < 1e-7
    assert float(res) < 1e-9


def test_eig_negative_sequence_absent_exit_2(tmp_path, capsys):
    cfg_dict = json.loads(json.dumps(UNIT_EIG))
    cfg_dict["task"]["nu"] = ["-"]
    cfg = write_cfg(tmp_path, cfg_dict)
    out = str(tmp_path / "out")
    assert cli.main(["eig", "--config", cfg, "--out", out]) == 2
    assert "negative sequence absent" in capsys.readouterr().err


def test_eig_partial_names_scan_ceiling(tmp_path, capsys):
    cfg_dict = json.loads(json.dumps(UNIT_EIG))
    cfg_dict["problem"]["p"] = 5.0
    cfg_dict["task"]["K"] = 6
    cfg = write_cfg(tmp_path, cfg_dict)
    out = str(tmp_path / "out")
    assert cli.main(["eig", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "partial spectrum for nu=+: scan ceiling |mu| = " in err
    assert "largest |mu| probed" in err and "budget" not in err


def test_eig_golden_file_and_rayleigh_cross_check(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["eig", "--config", os.path.join(CONFIGS, "demo_eig.json"), "--out", out]
    )
    assert code == 0
    got = read_rows(os.path.join(out, "spectrum.csv"))
    golden = read_rows(os.path.join(HERE, "golden", "spectrum.csv"))
    assert len(got) == len(golden)
    for g_row, w_row in zip(got, golden):
        assert g_row[0] == w_row[0] and g_row[1] == w_row[1] and g_row[3] == w_row[3]
        mu_g, mu_w = float(g_row[2]), float(w_row[2])
        assert abs(mu_g - mu_w) <= 1e-8 * abs(mu_w)
    # the golden mu_1^[+-] themselves are cross-checked by the variational oracle
    with open(os.path.join(CONFIGS, "demo_eig.json")) as fh:
        dem = json.load(fh)
    m = Weight.from_spec(dem["problem"]["weight"])
    prob = Problem.linear(dem["problem"]["p"], dem["problem"]["N"], m, math.nan)
    for nu in ("+", "-"):
        mu1 = next(float(r[2]) for r in golden if r[0] == "1" and r[1] == nu)
        ray = rayleigh_mu1(prob, nu)
        assert abs(ray.value - mu1) <= 1e-6 * abs(mu1)


def test_eig_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, UNIT_EIG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["eig", "--config", cfg, "--out", out1]) == 0
    assert cli.main(["eig", "--config", cfg, "--out", out2]) == 0
    b1 = open(os.path.join(out1, "spectrum.csv"), "rb").read()
    b2 = open(os.path.join(out2, "spectrum.csv"), "rb").read()
    assert b1 == b2


def test_config_weight_built_once(tmp_path, monkeypatch):
    # validation builds the problem's weight, and the command runs on that
    # weight: one sign partition, not one more for the command
    calls, partition = [], weights._sign_partition
    monkeypatch.setattr(weights, "_sign_partition",
                        lambda *args: calls.append(args) or partition(*args))
    cfg = write_cfg(tmp_path, UNIT_EIG)
    assert cli.main(["eig", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_eig_profiles_emitted(tmp_path):
    cfg_dict = json.loads(json.dumps(UNIT_EIG))
    cfg_dict["task"]["profiles"] = True
    cfg_dict["task"]["K"] = 2
    cfg = write_cfg(tmp_path, cfg_dict)
    out = str(tmp_path / "out")
    assert cli.main(["eig", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "eigfun_k1_plus.csv"))
    assert os.path.exists(os.path.join(out, "eigfun_k2_plus.csv"))
    rows = read_rows(os.path.join(out, "eigfun_k1_plus.csv"))
    rs = np.array([float(r[0]) for r in rows])
    us = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(us - np.cos(math.pi * rs / 2))) < 1e-8


def test_csv_headers_carry_hash_and_tolerances(tmp_path):
    cfg = write_cfg(tmp_path, UNIT_EIG)
    out = str(tmp_path / "out")
    cli.main(["eig", "--config", cfg, "--out", out, "--tol-rel", "1e-9"])
    head = open(os.path.join(out, "spectrum.csv")).read().splitlines()[:3]
    assert head[0].startswith("# pspect v")
    assert head[1].startswith("# config_sha256=")
    assert "tol_rel=1.0000000000000001e-09" in head[2] or "tol_rel=1e-09" in head[2]


def test_branch_constant_gamma_for_homogeneous_family(tmp_path):
    cfg = {
        "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0]}},
        "task": {
            "kind": "branch", "k": 1, "sigma": "+", "nu": "+",
            "f": {"family": "phi"},
            "alpha_min": 1e-2, "alpha_max": 1e2,
        },
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["branch", "--config", path, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "branch_k1_plus.csv"))
    gammas = np.array([float(r[0]) for r in rows])
    lam1 = (math.pi / 2) ** 2
    assert np.max(np.abs(gammas - lam1)) < 1e-7 * lam1


def test_branch_reference_endpoint_comments(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["branch", "--config", os.path.join(CONFIGS, "demo_branch.json"), "--out", out]
    )
    assert code == 0
    text = open(os.path.join(out, "branch_k1_plus.csv")).read()
    gamma0 = float(text.split("# gamma_0=")[1].splitlines()[0])
    lam1 = (math.pi / 2) ** 2
    assert abs(gamma0 - lam1) <= 0.02 * lam1
    assert "# gamma_inf=" in text
    assert os.path.exists(os.path.join(out, "branch_k1_plus.svg"))
    svg = open(os.path.join(out, "branch_k1_plus.svg")).read()
    assert "<polyline" in svg and "<svg" in svg


def test_branch_determinism(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfgp = os.path.join(CONFIGS, "demo_branch.json")
    assert cli.main(["branch", "--config", cfgp, "--out", out1]) == 0
    assert cli.main(["branch", "--config", cfgp, "--out", out2]) == 0
    assert (
        open(os.path.join(out1, "branch_k1_plus.csv"), "rb").read()
        == open(os.path.join(out2, "branch_k1_plus.csv"), "rb").read()
    )


def test_malformed_config_line_column_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": {"p": 2.0,\n  "weight": }}')
    out = str(tmp_path / "out")
    assert cli.main(["eig", "--config", str(bad), "--out", out]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg_dict = json.loads(json.dumps(UNIT_EIG))
    cfg_dict["task"]["extra_knob"] = 1
    cfg = write_cfg(tmp_path, cfg_dict)
    assert cli.main(["eig", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "extra_knob" in capsys.readouterr().err


def test_malformed_weight_spec_rejected(tmp_path, capsys):
    cfg_dict = json.loads(json.dumps(UNIT_EIG))
    cfg_dict["problem"]["weight"] = {"expr": "poly", "coeffs": [1.0], "junk": 2}
    cfg = write_cfg(tmp_path, cfg_dict)
    assert cli.main(["eig", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "problem.weight" in capsys.readouterr().err


VERIFY_LIN = {
    "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0, -2.0]}},
    "task": {"kind": "verify", "checks": []},
}


def _eig_task(**kw):
    return dict(UNIT_EIG, task=dict(UNIT_EIG["task"], **kw))


def _branch_task(**kw):
    return dict(UNIT_EIG, task=dict({"kind": "branch", "k": 1, "sigma": "+",
                                     "f": {"family": "phi"}}, **kw))


MALFORMED_VALUES = [
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "crossing_index", "K": "four"}]}), "task.checks[0].K"),
    (dict(UNIT_EIG, task={"kind": "eig", "K": "six"}), "task.K"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "p_continuity", "p_grid": "abc", "K": 2}]}), "task.checks[0].p_grid"),
    (dict(UNIT_EIG, problem=dict(UNIT_EIG["problem"], N=True)), "problem.N"),
    (dict(UNIT_EIG, tolerances={"tol_rel": "1e-8"}), "tolerances.tol_rel"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "sturm", "b1": {"expr": "poly", "coeffs": ["x"]},
         "b2": {"expr": "poly", "coeffs": [2.0]}}]}), "task.checks[0].b1"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "bifurcation_points", "g": {"delta": "1"}, "ks": [1]}]}),
     "task.checks[0].g.delta"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "zero_proliferation", "window": [0.1], "multipliers": [1, 2]}]}),
     "task.checks[0].window"),
    (dict(UNIT_EIG, task={"kind": "gp", "h": "abc"}), "task.h"),
    (_branch_task(ratio=1.0), "task.ratio"),
    # signs: a list of distinct signs where several sequences are searched,
    # one sign where a command follows one sequence or one amplitude sign
    (_eig_task(nu="+-"), "task.nu", "string"),
    (_eig_task(nu=["+", "+"]), "task.nu", "repeated"),
    (_eig_task(nu=[]), "task.nu", "empty"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "spectrum_structure", "K": 2, "nu": ["x"]}]}), "task.checks[0].nu"),
    (_branch_task(nu=["+"]), "task.nu", "branch-list"),
    (_branch_task(sigma="x"), "task.sigma"),
    (_eig_task(profiles="no"), "task.profiles"),
    (dict(UNIT_EIG, output={"dir": 5}), "output.dir"),
    # json.loads reads NaN, Infinity and integers too large for a float
    (dict(UNIT_EIG, problem=dict(UNIT_EIG["problem"], p=math.inf)), "problem.p", "Infinity"),
    (dict(UNIT_EIG, problem=dict(UNIT_EIG["problem"], p=10**400)), "problem.p", "huge-int"),
    (dict(UNIT_EIG, task={"kind": "nodal", "gamma": math.nan, "k": 1, "sigma": "+",
                          "f": {"family": "phi"}}), "task.gamma", "NaN"),
    (dict(UNIT_EIG, problem=dict(UNIT_EIG["problem"], weight={
        "expr": "poly", "coeffs": [1.0, math.nan]})), "problem.weight", "NaN"),
    (dict(UNIT_EIG, problem=dict(UNIT_EIG["problem"], weight={
        "expr": "poly", "coeffs": [10**400]})), "problem.weight", "huge-int"),
    (dict(UNIT_EIG, task={"kind": "gp", "h": {"expr": "poly", "coeffs": [math.nan]}}),
     "task.h", "NaN"),
    # tolerances are > 0
    (dict(UNIT_EIG, tolerances={"tol_rel": -1e-10}), "tolerances.tol_rel", "negative"),
    (dict(UNIT_EIG, tolerances={"tol_abs": 0.0}), "tolerances.tol_abs", "zero"),
    # f and g the library rejects
    (dict(UNIT_EIG, task={"kind": "nodal", "gamma": 2.0, "k": 1, "sigma": "+",
                          "f": {"family": "rational", "f0": -1}}), "task.f", "nodal"),
    (_branch_task(f={"family": "rational", "f0": -1}), "task.f", "branch"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "nodal_intervals", "f": {"family": "rational", "f0": -1}, "k": 1}]}),
     "task.checks[0].f"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "bifurcation_points", "g": {"delta": 0}, "ks": [1]}]}),
     "task.checks[0].g"),
    # check values a library precondition rejects
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "p_continuity", "p_grid": [0.9, 2.0], "K": 1}]}),
     "task.checks[0].p_grid", "p-le-1"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "p_continuity", "p_grid": [2.0, 2.0], "K": 1}]}),
     "task.checks[0].p_grid", "repeated"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "zero_proliferation", "window": [0.4, 0.1], "multipliers": [1, 2]}]}),
     "task.checks[0].window", "decreasing"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "zero_proliferation", "window": [0.1, 0.4], "multipliers": [160, 40]}]}),
     "task.checks[0].multipliers", "decreasing"),
    (dict(VERIFY_LIN, task={"kind": "verify", "checks": [
        {"check": "bifurcation_points", "g": {"c": 1.0, "delta": 1.0}, "ks": [1],
         "alphas": [0.1, 0]}]}), "task.checks[0].alphas", "zero"),
]


@pytest.mark.parametrize("cfg_dict, path", [case[:2] for case in MALFORMED_VALUES],
                         ids=["=".join(case[1:]) for case in MALFORMED_VALUES])
def test_malformed_config_value_rejected(tmp_path, capsys, cfg_dict, path):
    cfg = write_cfg(tmp_path, cfg_dict)
    command = cfg_dict["task"]["kind"]
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1e-10", "nan"])
def test_tol_rel_option_must_be_positive(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path, UNIT_EIG)
    out = tmp_path / "out"
    assert cli.main(["eig", "--config", cfg, "--out", str(out), f"--tol-rel={value}"]) == 1
    assert capsys.readouterr().err == "config error: --tol-rel: must be a number > 0\n"
    assert not out.exists()


@pytest.mark.parametrize("task", [
    {"kind": "nodal", "gamma": 2.0, "k": 1, "sigma": "+", "f": {"family": "phi"}},
    {"kind": "branch", "k": 1, "sigma": "+", "f": {"family": "phi"}},
], ids=lambda task: task["kind"])
def test_decreasing_amplitude_range_rejected(tmp_path, capsys, task):
    cfg = write_cfg(tmp_path, dict(UNIT_EIG, task=dict(task, alpha_min=1e2, alpha_max=1e-2)))
    assert cli.main([task["kind"], "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: ")
    assert "alpha_min = 100" in err and "alpha_max = 0.01" in err
    assert "Traceback" not in err


LIBRARY_DEFAULTS = [
    # (minimal task, the keys it leaves to the library)
    ({"kind": "nodal", "gamma": 4.0, "k": 1, "sigma": "+", "f": {"family": "rational"}},
     {"f": {"family": "rational", "f0": 1.0, "finf": 2.0, "q": 2.0},
      "alpha_min": 1e-4, "alpha_max": 1e4}),
    ({"kind": "branch", "k": 1, "sigma": "-", "f": {"family": "rational"}},
     {"f": {"family": "rational", "f0": 1.0, "finf": 2.0, "q": 2.0},
      "nu": "+", "alpha_min": 1e-3, "alpha_max": 1e3, "ratio": 1.25}),
    ({"kind": "verify", "checks": [
        {"check": "p_continuity", "p_grid": [1.9, 2.0, 2.1], "K": 1},
        {"check": "bifurcation_points", "g": {}, "ks": [1]}]},
     {"checks": [
         {"check": "p_continuity", "p_grid": [1.9, 2.0, 2.1], "K": 1, "nu": ["+"]},
         {"check": "bifurcation_points", "g": {"c": 1.0, "delta": 1.0}, "ks": [1],
          "nu": ["+", "-"], "alphas": [0.1, 0.01, 0.001]}]}),
]


@pytest.mark.parametrize("task, defaults", LIBRARY_DEFAULTS,
                         ids=[task["kind"] for task, _ in LIBRARY_DEFAULTS])
def test_omitted_keys_take_the_library_defaults(tmp_path, capsys, task, defaults):
    problem = {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0, -2.0]}}
    runs = []
    for name, cfg in (
        ("minimal", {"problem": problem, "task": task}),
        ("spelled", {"problem": problem, "task": dict(task, **defaults),
                     "tolerances": {"tol_rel": 1e-10, "tol_abs": 1e-12}}),
    ):
        out = tmp_path / name
        code = cli.main([task["kind"], "--config", write_cfg(tmp_path, cfg, name + ".json"),
                         "--out", str(out)])
        files = {
            f.name: [line for line in f.read_text().splitlines() if "config_sha256=" not in line]
            for f in sorted(out.iterdir())
        }
        runs.append((code, capsys.readouterr(), files))
    assert runs[0][2]
    assert runs[0] == runs[1]


def test_usage_error_exits_1(tmp_path, capsys):
    # argparse would exit 2, which the exit-code table reserves for a partial result
    cfg = write_cfg(tmp_path, UNIT_EIG)
    assert cli.main(["eig", "--config", cfg, "--threads", "2"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert cli.main(["eig"]) == 1
    assert "--config" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eig", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_command_kind_mismatch_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, UNIT_EIG)
    assert cli.main(["branch", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_verify_empty_checks_exit_0(tmp_path):
    cfg = {
        "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0]}},
        "task": {"kind": "verify", "checks": []},
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", path, "--out", out]) == 0
    report = open(os.path.join(out, "report.txt")).read()
    assert "verification report" in report


def test_verify_sturm_violation_exit_3(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["verify", "--config", os.path.join(CONFIGS, "verify_sturm_bad.json"),
         "--out", out]
    )
    assert code == 3
    report = open(os.path.join(out, "report.txt")).read()
    assert "PRECONDITION VIOLATION" in report


# 1 - 2r at p = 4.5, N = 1: the scan ceiling stops every search after 18
# probes with no index validated
PARTIAL_PROBLEM = {"p": 4.5, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0, -2.0]}}
RATIONAL_F = {"family": "rational", "f0": 1.0, "finf": 2.0, "q": 2.0}


def test_branch_unvalidated_eigenvalue_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": PARTIAL_PROBLEM,
        "task": {"kind": "branch", "k": 6, "sigma": "+", "f": RATIONAL_F},
    })
    out = str(tmp_path / "out")
    assert cli.main(["branch", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mu_6^+ not validated: scan ceiling |mu| = ")
    assert "Traceback" not in err


def test_branch_bracket_loss_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0, -8.0]}},
        "task": {"kind": "branch", "k": 1, "sigma": "+", "f": {"family": "rational"},
                 "alpha_min": 10, "alpha_max": 400, "ratio": 1.5},
    })
    out = str(tmp_path / "out")
    assert cli.main(["branch", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    # the bracket changes sign; its root is as close as a double gets, but
    # |u(1)| stays above the tolerance, and the diagnostic says so
    assert err.startswith("gamma = 33.83598571 leaves |u(1)| = 1.02e-09 > 1e-09 "
                          "at alpha = 384.434 (last gamma 33.83")
    assert err.endswith("); branch truncated\n")
    lines = open(os.path.join(out, "branch_k1_plus.csv")).read().splitlines()
    assert lines[-1] == "# " + err.rstrip("\n")
    assert [row[3] for row in read_rows(os.path.join(out, "branch_k1_plus.csv"))] == ["0"] * 9


def test_eig_root_solve_that_does_not_converge_is_partial_exit_2(tmp_path, capsys,
                                                                 monkeypatch):
    # Brent's method gives up on the bracket of mu_2^- (its RuntimeError
    # carrying the trials it made): the search stops there
    weight = Weight.poly([1.0, -2.0])
    mu_2 = spectrum.find_eigenvalues(Problem.linear(2.0, 1, weight, math.nan), 3, "-").mu(2)
    brackets, real = [], spectrum.solve_miss

    def solve(problem, alpha, a, b, ends, **kw):
        solved = real(problem, alpha, a, b, ends, **kw)
        if kw["rtol"] == spectrum.SCAN_RTOL and min(a, b) < mu_2 < max(a, b):
            brackets.append((a, b))
            exc = RuntimeError("Failed to converge after 100 iterations.")
            exc.trials = solved[3]
            raise exc
        return solved

    monkeypatch.setattr(spectrum, "solve_miss", solve)
    cfg = write_cfg(tmp_path, {
        "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0, -2.0]}},
        "task": {"kind": "eig", "K": 3, "nu": ["-"]},
    })
    out = str(tmp_path / "out")
    assert cli.main(["eig", "--config", cfg, "--out", out]) == 2
    a, b = (-x for x in brackets[-1])
    assert capsys.readouterr().err == (
        "partial spectrum for nu=-: Brent's method did not converge on the bracket "
        f"|mu| in [{a:.10g}, {b:.10g}]; largest validated index 1\n")
    assert [row[0] for row in read_rows(os.path.join(out, "spectrum.csv"))] == ["1"]


def test_eig_index_certificate_failure_is_partial_exit_2(tmp_path, capsys):
    # cos 3 pi r, N = 2, p = 1.3: the root the search classifies as mu_4^-
    # has an eigenfunction with 2 interior zeros, that of index 3
    cos = Weight.from_function(lambda r: math.cos(3.0 * math.pi * r))
    weight = {"breakpoints": list(cos.breakpoints), "coeffs": [list(c) for c in cos.coeffs]}
    cfg = write_cfg(tmp_path, {
        "problem": {"p": 1.3, "N": 2, "weight": weight},
        "task": {"kind": "eig", "K": 6, "nu": ["-"]},
    })
    out = str(tmp_path / "out")
    assert cli.main(["eig", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "partial spectrum for nu=-: index 4 not certified: its eigenfunction's zero count is "
        "2, k - 1 = 3 required (boundary residual 1.324e-10); largest validated index 3\n")
    rows = read_rows(os.path.join(out, "spectrum.csv"))
    assert [(row[0], row[3]) for row in rows] == [("1", "0"), ("2", "1"), ("3", "2")]


def test_eig_blown_up_eigenfunction_is_partial_exit_2(tmp_path, capsys):
    # m = 1 - 8r, p = 2, N = 1: the shot of mu_6^+ grows past the probe
    # guard on the negative stretch, so index 6 is not certified
    cfg = write_cfg(tmp_path, {
        "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0, -8.0]}},
        "task": {"kind": "eig", "K": 6, "nu": ["+"]},
    })
    out = str(tmp_path / "out")
    assert cli.main(["eig", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "partial spectrum for nu=+: index 6 not certified: its eigenfunction's shot grows "
        "past 1e+100 at r = 9.093876e-01 (zero count 6 there); largest validated index 5\n")
    assert [row[0] for row in read_rows(os.path.join(out, "spectrum.csv"))] == list("12345")


@pytest.mark.parametrize("check", [
    {"check": "weight_monotonicity", "K": 6,
     "weight2": {"expr": "poly", "coeffs": [1.0, -1.0]}},
    {"check": "p_continuity", "p_grid": [4.5, 4.6], "K": 6},
    {"check": "nodal_intervals", "f": RATIONAL_F, "k": 6},
    {"check": "bifurcation_points", "g": {"c": 1.0, "delta": 1.0}, "ks": [6]},
    {"check": "crossing_index", "K": 5},
], ids=lambda chk: chk["check"])
def test_verify_unvalidated_eigenvalue_reported(tmp_path, check):
    sturm = {"check": "sturm", "b1": {"expr": "poly", "coeffs": [22.0]},
             "b2": {"expr": "poly", "coeffs": [62.0]}}
    cfg = write_cfg(tmp_path, {
        "problem": PARTIAL_PROBLEM,
        "task": {"kind": "verify", "checks": [sturm, check]},
    })
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 3
    lines = open(os.path.join(out, "report.txt")).read().splitlines()
    assert any(line.endswith("] sturm_comparison") for line in lines)
    assert lines[-1].startswith(f"[PRECONDITION VIOLATION] {check['check']}: mu_")
    assert " not validated: scan ceiling |mu| = " in lines[-1]


def test_verify_shot_error_is_the_checks_failed_line(tmp_path):
    # at p = 1.001 the sturm and zero_proliferation checks' own shots
    # overflow: each reads as its failed line, and the battery runs on
    cfg = json.load(open(os.path.join(CONFIGS, "verify_default.json")))
    cfg["problem"]["p"] = 1.001
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 3
    lines = open(os.path.join(out, "report.txt")).read().splitlines()
    for check in ("sturm", "zero_proliferation"):
        assert any(line.startswith(f"[FAIL] {check}: OverflowError: ") for line in lines)
    assert lines[-1].startswith("[PRECONDITION VIOLATION] bifurcation_points: mu_1^+ ")


def shipped(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


def default_battery(**problem):
    cfg = shipped("verify_default.json")
    cfg["problem"].update(problem)
    return cfg


def raising_checks(monkeypatch):
    # p_continuity, the third check, raises what cmd_verify does not catch
    # after its searches; zero_proliferation, a later one, raises such an
    # error at once, in the round of checks that read no spectrum, before
    # p_continuity runs
    checks = dict(cli._CHECKS)
    run = checks["p_continuity"][2]

    def late_runtime_error(*args):
        run(*args)
        raise RuntimeError("p_continuity broke")

    def early_runtime_error(*args):
        raise RuntimeError("zero_proliferation broke")

    checks["p_continuity"] = checks["p_continuity"][:2] + (late_runtime_error,)
    checks["zero_proliferation"] = checks["zero_proliferation"][:2] + (early_runtime_error,)
    monkeypatch.setattr(cli, "_CHECKS", checks)
    return default_battery()


# case -> its config, made with the case's patches in place
VERIFY_LANE_CASES = {
    "default": lambda mp: shipped("verify_default.json"),
    "sturm_bad": lambda mp: shipped("verify_sturm_bad.json"),
    "p_1.001": lambda mp: default_battery(p=1.001),
    "uncaught_mid_battery": raising_checks,
}


@pytest.mark.parametrize("case", VERIFY_LANE_CASES)
def test_verify_is_the_same_on_one_lane_and_on_many(tmp_path, monkeypatch, capsys, case):
    # the checks run on lanes, and cmd_verify reads their reports and
    # exceptions in check order once every lane has ended: the report,
    # the exit code and stderr are those of one lane
    cfg = write_cfg(tmp_path, VERIFY_LANE_CASES[case](monkeypatch))
    threads = set(threading.enumerate())
    outcomes, interval = [], sys.getswitchinterval()
    for lanes in (1, 4):  # more lanes than cores, switching threads often
        monkeypatch.setattr(spectrum, "_usable_cpus", lambda: lanes)
        out = tmp_path / f"out{lanes}"
        sys.setswitchinterval(1e-6)
        try:
            code = cli.main(["verify", "--config", cfg, "--out", str(out)])
        except RuntimeError as exc:
            code = f"RuntimeError: {exc}"
        finally:
            sys.setswitchinterval(interval)
        assert set(threading.enumerate()) == threads  # every lane has ended
        report = out / "report.txt"
        outcomes.append((code, capsys.readouterr().err,
                         report.read_bytes() if report.exists() else None))
    assert outcomes[0] == outcomes[1]
    code, err, report = outcomes[0]
    if case == "default":
        assert code == 0 and err == ""
    elif case == "sturm_bad":
        assert code == 3 and b"[PRECONDITION VIOLATION] sturm: " in report
    elif case == "p_1.001":
        assert code == 3 and b"\n[FAIL] sturm: OverflowError: " in report
    else:
        assert (code, err, report) == ("RuntimeError: p_continuity broke", "", None)


def test_verify_checks_run_on_threads_of_their_own(tmp_path, monkeypatch):
    # the checks, and the searches of the spectra they read, run on lanes
    runners, checks, search = set(), dict(cli._CHECKS), cli.compute_spectrum
    for name, (keys, required, run) in checks.items():
        def spy(*args, run=run):
            runners.add(threading.get_ident())
            return run(*args)

        checks[name] = (keys, required, spy)

    def searching(*args, **kw):
        runners.add(threading.get_ident())
        return search(*args, **kw)

    monkeypatch.setattr(cli, "_CHECKS", checks)
    monkeypatch.setattr(cli, "compute_spectrum", searching)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", os.path.join(CONFIGS, "verify_default.json"),
                     "--out", out]) == 0
    assert len(runners) == 2


def test_verify_searches_each_spectrum_first_at_its_largest_K(tmp_path, monkeypatch):
    # cli._SPECTRA names the spectra each check reads: the battery searches
    # each once, at the largest K any check asks for, before a check's own
    # search of it, which then asks for no larger K and replays the memo
    searches, find = [], spectrum.find_eigenvalues

    def spy(problem, K, nu="+", **kw):
        searches.append(((problem.p, problem.N, problem.m, nu), K))
        return find(problem, K, nu, **kw)

    monkeypatch.setattr(spectrum, "find_eigenvalues", spy)
    assert cli.main(["verify", "--config", os.path.join(CONFIGS, "verify_default.json"),
                     "--out", str(tmp_path)]) == 0
    first = {}
    for axis, K in searches:
        first.setdefault(axis, K)
    assert len(searches) > 2 * len(first)  # the checks' own searches follow
    assert all(K <= first[axis] for axis, K in searches)


def searched_ahead(frame):
    """Whether the frame runs inside a search the verify battery makes
    ahead of its checks (the search of cli._run_checks)."""
    while frame is not None:
        if frame.f_code.co_name == "search" and frame.f_globals is vars(cli):
            return True
        frame = frame.f_back
    return False


def monotonicity_battery(mp):
    cfg = shipped("verify_default.json")
    cfg["task"]["checks"] = [chk for chk in cfg["task"]["checks"]
                             if chk["check"] == "weight_monotonicity"]
    return cfg


@pytest.mark.parametrize("battery", [monotonicity_battery, VERIFY_LANE_CASES["default"]],
                         ids=["weight_monotonicity", "default"])
def test_verify_searches_ahead_only_the_spectra_its_checks_read(tmp_path, monkeypatch, battery):
    # a spectrum searched ahead is worth its shots only where a check's
    # own search replays it; m = 1 - 2r has both signs, weight2 = 1 - r
    # only +, and weight_monotonicity searches m for weight2's signs alone
    ahead, read, find = set(), set(), spectrum.find_eigenvalues

    def spy(problem, K, nu="+", **kw):
        axis = (problem.p, problem.N, problem.m, nu)
        (ahead if searched_ahead(sys._getframe(1)) else read).add(axis)
        return find(problem, K, nu, **kw)

    monkeypatch.setattr(spectrum, "find_eigenvalues", spy)
    cfg = write_cfg(tmp_path, battery(monkeypatch))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert ahead and ahead <= read


def perfbench_tracer():
    """The Tracer of perfbench/tracing.py, the benchmark's per-layer counts."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(HERE, "..", "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("case", ["default", "p_1.001"])
def test_verify_traces_the_same_counts_on_one_lane_and_on_many(tmp_path, monkeypatch, case):
    # the tracer counts a shot to whatever search is open, on any thread,
    # and a search as a repeat where one of no smaller K came first: as no
    # check shoots while a search runs and each spectrum is searched first
    # at its largest K, every count is the same however the lanes run
    cfg = write_cfg(tmp_path, VERIFY_LANE_CASES[case](monkeypatch))
    tracer, counts, interval = perfbench_tracer()().install(), [], sys.getswitchinterval()
    try:
        for lanes in (1, 4, 4):  # the first run counts on one lane, and meets every key
            monkeypatch.setattr(spectrum, "_usable_cpus", lambda: lanes)
            tracer.begin_task()
            before = tracer.counts()
            sys.setswitchinterval(1e-6)
            try:
                cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
            finally:
                sys.setswitchinterval(interval)
            counts.append({key: n - before[key] for key, n in tracer.counts().items()})
    finally:
        tracer.uninstall()
    assert counts[0]["spectrum.searches"] > 0
    assert counts[1] == counts[0] and counts[2] == counts[0]


def test_verify_incomplete_spectrum_structure_fails(tmp_path):
    # the check runs the searches itself: their stop is a FAIL line, not a precondition
    cfg = write_cfg(tmp_path, {
        "problem": PARTIAL_PROBLEM,
        "task": {"kind": "verify", "checks": [{"check": "spectrum_structure", "K": 6}]},
    })
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 3
    lines = open(os.path.join(out, "report.txt")).read().splitlines()
    assert lines[-3] == "[FAIL] spectrum_structure"
    for nu, line in zip("+-", lines[-2:]):
        assert line.startswith(f"    nu={nu}: incomplete (scan ceiling |mu| = ")
        assert line.endswith("; largest validated index 0)")


def test_verify_small_suite_passes(tmp_path):
    cfg = {
        "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0, -2.0]}},
        "task": {
            "kind": "verify",
            "checks": [
                {"check": "spectrum_structure", "K": 2, "nu": ["+", "-"]},
                {"check": "sturm",
                 "b1": {"expr": "poly", "coeffs": [22.0]},
                 "b2": {"expr": "poly", "coeffs": [62.0]}},
                {"check": "crossing_index", "K": 2},
            ],
        },
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", path, "--out", out]) == 0
    report = open(os.path.join(out, "report.txt")).read()
    assert report.count("[PASS]") == 3
    assert "[FAIL]" not in report


def test_gp_closed_form(tmp_path):
    cfg = {
        "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0]}},
        "task": {"kind": "gp", "h": {"expr": "poly", "coeffs": [1.0]}},
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["gp", "--config", path, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "gp_profile.csv"))
    rs = np.array([float(r[0]) for r in rows])
    us = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(us - (1 - rs**2) / 2)) < 1e-10


def test_nodal_command_reference(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["nodal", "--config", os.path.join(CONFIGS, "demo_nodal.json"), "--out", out]
    )
    assert code == 0
    files = os.listdir(out)
    assert any(f.startswith("nodal_k1_") for f in files)


NO_SCIPY = """
import os, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import pspect
from pspect import cli
configs, out = sys.argv[1:]
for command, name in (("eig", "demo_eig"), ("branch", "demo_branch"),
                      ("nodal", "demo_nodal"), ("gp", "demo_gp"),
                      ("verify", "verify_default")):
    code = cli.main([command, "--config", os.path.join(configs, name + ".json"),
                     "--out", os.path.join(out, name)])
    assert code == 0, (name, code)
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
assert sys.modules["scipy"] is None and not loaded, loaded
"""


def test_commands_run_without_scipy(tmp_path):
    # pspect depends on numpy alone; scipy serves only the tests' oracles:
    # the library and the eig, branch, nodal, gp and verify commands
    # import none of it
    src = os.path.dirname(os.path.dirname(pspect.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", NO_SCIPY, CONFIGS, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_nodal_none_found_exit_2(tmp_path):
    cfg = {
        "problem": {"p": 2.0, "N": 1, "weight": {"expr": "poly", "coeffs": [1.0]}},
        "task": {
            "kind": "nodal", "gamma": 3.0, "k": 1, "sigma": "+",
            "f": {"family": "rational", "f0": 1.0, "finf": 2.0, "q": 2.0},
        },
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["nodal", "--config", path, "--out", out]) == 2
    assert os.path.exists(os.path.join(out, "nodal_report.txt"))


def test_shared_shots_end_with_the_command(tmp_path, monkeypatch):
    probes = []

    def counting_probe(*args, **kw):
        probes.append(kw["rtol"])
        return probe(*args, **kw)

    probe = spectrum.probe
    monkeypatch.setattr(spectrum, "probe", counting_probe)
    check = {"check": "spectrum_structure", "K": 2, "nu": ["+", "-"]}
    counts = []
    for checks in ([check], [check, check], [check, check]):
        cfg = write_cfg(tmp_path, dict(VERIFY_LIN, task={"kind": "verify",
                                                         "checks": checks}))
        before = len(probes)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        counts.append(len(probes) - before)
    # the repeated check reuses every probe of the first; the next command
    # starts with no probe from the last one
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


@pytest.mark.parametrize("odd", [True, False], ids=["built-in", "hand-built"])
def test_nodal_intervals_solve_the_minus_half_only_for_an_f_not_known_odd(monkeypatch, odd):
    sigmas, find = [], cli.find_nodal

    def spy(*args, **kw):
        sigmas.append(args[6])
        return find(*args, **kw)

    def hand_built(spec, p):
        f = Nonlinearity.rational(p, **{k: v for k, v in spec.items() if k != "family"})
        return Nonlinearity(fn=f.fn, f0=f.f0, finf=f.finf)

    monkeypatch.setattr(cli, "find_nodal", spy)
    if not odd:
        monkeypatch.setattr(cli, "_f_from", hand_built)
    chk = {"check": "nodal_intervals", "f": {"family": "rational", "f0": 1.0, "finf": 2.0,
                                             "q": 2.0}, "k": 1}
    rep = cli._check_nodal_intervals(chk, 2.0, 1, Weight.poly([1.0, -2.0]),
                                     {"rtol": 1e-10, "atol": 1e-12})
    assert sigmas == (["+", "+"] if odd else ["+", "-", "+", "-"])  # two non-empty intervals
    assert rep.passed
    solved = [line for line in rep.lines if "found" in line]
    assert len(solved) == 4
    for plus, minus in zip(solved[0::2], solved[1::2]):
        assert minus == plus.replace("sigma=+: found alpha=", "sigma=-: found alpha=-")


def test_verify_report_is_the_same_with_the_minus_halves_solved(tmp_path, monkeypatch):
    # the built-in f and g are odd, so the sigma = - halves are read off the
    # + ones; solving them anew gives the same report, byte for byte
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def spy(*args, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(module, name, spy)

    count(cli, "find_nodal")
    count(nodal, "_locate_perturbed_parameter")

    def report(name):
        calls.clear()
        out = tmp_path / name
        assert cli.main(["verify", "--config", os.path.join(CONFIGS, "verify_default.json"),
                         "--out", str(out)]) == 0
        return (out / "report.txt").read_bytes(), sorted(calls)

    read_off, calls_read_off = report("read_off")
    monkeypatch.setattr(Nonlinearity, "odd", property(lambda self: False))
    monkeypatch.setattr(Perturbation, "odd", property(lambda self: False))
    solved, calls_solved = report("solved")
    assert solved == read_off
    assert calls_solved == sorted(calls_read_off * 2) and calls_read_off


@pytest.mark.parametrize("problem, tolerances, code, line", [
    ({"p": 2.0, "N": 60}, {}, 1, "precondition violation: dimension N = 60 takes r^(N-1) at the "
     "start radius 1e-06 below the smallest normal float: N <= 52 is supported"),
    ({"p": 1.001, "N": 1}, {}, 2, "OverflowError: "),
    ({"p": 2.0, "N": 1}, {"tol_rel": 1e-30, "tol_abs": 1e-300}, 2,
     "IntegrationError: step size underflow at r = "),
])
def test_a_run_stopped_by_an_error_prints_one_line(tmp_path, capsys, problem, tolerances, code,
                                                   line):
    # configs the CLI accepts whose runs used to end in a traceback; a shot's
    # error ends the search partial (exit 2), its line naming the error
    cfg = {"problem": {**problem, "weight": {"expr": "poly", "coeffs": [1.0]}},
           "task": {"kind": "eig", "K": 2}, "tolerances": tolerances}
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["eig", "--config", path, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    partial = "partial spectrum for nu=+: " if code == 2 else ""
    assert err.startswith(partial + line) and err.count("\n") == 1


def test_a_profile_reads_its_shot_once(tmp_path, monkeypatch):
    calls = []
    read = _rk45.DenseOutput.__call__
    monkeypatch.setattr(_rk45.DenseOutput, "__call__",
                        lambda self, t: calls.append(np.shape(t)) or read(self, t))
    traj = shoot(Problem.linear(2.5, 2, Weight.poly([1.0, -2.0]), 40.0), 1.0)
    calls.clear()
    cli._write_profile(str(tmp_path / "profile.csv"), ["head"], traj)
    assert calls == [(513,)]


class _Profiled:
    """A stand-in shot whose u and u' at the profile's radii are given."""

    def __init__(self, u, uprime):
        self.r, self._u, self._uprime = np.array([1e-6]), u, uprime

    def eval(self, rs):
        return self._u[:rs.size], self._uprime[:rs.size]


@pytest.mark.parametrize("rows", [
    [(1, "+", 0.1, 2, np.float64(-2.5e-320)), (2, "-", -0.0, 0, math.nan)],
    [(True, None, math.inf, np.int64(3), np.float32(0.1)), ("a%sb", (1, 2), 1e17, -7, 5e-324)],
    [],
])
def test_csv_rows_format_a_float_as_fmt_and_any_other_value_as_str(tmp_path, rows):
    # each float as _fmt writes it (numpy's float64 is one) and str of any
    # other value, a '%' inside a value included, whether its column holds
    # floats only ('%.17g') or not ('%s')
    path = tmp_path / "rows.csv"
    cli._write_csv(str(path), ["head"], ("a", "b", "c", "d", "e"), iter(rows), ["tail"])
    want = ["# head", "a,b,c,d,e"]
    want += [",".join(cli._fmt(v) if isinstance(v, float) else str(v) for v in row)
             for row in rows]
    assert path.read_bytes() == ("\n".join(want + ["# tail"]) + "\n").encode()


def test_profile_writes_the_bytes_of_each_value_formatted_alone(tmp_path):
    # the profile is formatted in one pass; its bytes are those of _fmt on
    # each value, signed zeros, subnormals, large integers and non-finite
    # values included
    special = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308 / 3, 1e16, 1e17,
               -1e17, 123456789012345678.0, math.inf, -math.inf, math.nan, -math.nan, 0.1]
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 2 * 513, dtype=np.uint64).view(np.float64)
    u = np.concatenate((special, bits[:513 - len(special)]))
    uprime = np.concatenate((special[::-1], bits[513:1026 - len(special)]))
    comments = ["pspect test", "k=1 nu=+ mu=1"]
    got = tmp_path / "got.csv"
    cli._write_profile(str(got), comments, _Profiled(u, uprime))
    rs = np.linspace(1e-6, 1.0, 513)
    want = ["# pspect test", "# k=1 nu=+ mu=1", "r,u,uprime"]
    want += [",".join(map(cli._fmt, row)) for row in zip(rs, u, uprime)]
    assert got.read_bytes() == ("\n".join(want) + "\n").encode()
    rows = got.read_text().splitlines()[3:]
    assert [row.split(",")[1] for row in rows[:len(special)]] == [
        "-0", "0", "4.9406564584124654e-324", "-2.4999721679567075e-320",
        "7.4169128616906696e-309", "10000000000000000", "1e+17", "-1e+17",
        "1.2345678901234568e+17", "inf", "-inf", "nan", "nan", "0.10000000000000001"]
