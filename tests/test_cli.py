import csv
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from skeldp import density, evaluate, skeleton, solver, structures
from skeldp.cli import main

MERTON_CFG = {
    "skeleton": {"epsilon_k": 1.0 / 3, "d": 1, "horizon_T": 1.0},
    "problem": {"kind": "portfolio", "r": 0.03, "alpha": 0.05, "sigma": 0.3,
                "gamma_util": 0.5, "x0": 1.0, "a_bar": 1.0},
    "solve": {"action_grid": {"lo": -1, "hi": 1, "n": 9}, "depth": 4, "Q": 2,
              "epsilon_total": 0.01, "collapse": True},
    "evaluate": {"n_paths": 1500},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_all(out_dir):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            found[name] = fh.read()
    return found


def test_density_subcommand(tmp_path):
    out = str(tmp_path / "d")
    rc = main(["density", "--out-dir", out, "--x", "0.6366,1.5", "--terms", "25",
               "--quiet"])
    assert rc == 0
    with open(os.path.join(out, "density.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "f", "bound", "cdf"]
    x, f = float(rows[1][0]), float(rows[1][1])
    # both series representations at the near-crossover point
    ell = np.arange(25)
    small = 2 / np.sqrt(2 * np.pi * x**3) * np.sum(
        (-1.0) ** ell * (2 * ell + 1) * np.exp(-(2 * ell + 1) ** 2 / (2 * x)))
    large = (np.pi / 2) * np.sum(
        (-1.0) ** ell * (2 * ell + 1) * np.exp(-np.pi**2 * x * (2 * ell + 1) ** 2 / 8))
    assert abs(small - large) <= 1e-10
    assert f == pytest.approx(small, abs=1e-10)
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_density_subcommand_tiny_x_rows_are_zero(tmp_path):
    out = str(tmp_path / "d")
    assert main(["density", "--out-dir", out, "--x", "1e-300,1e-120,0.5",
                 "--quiet"]) == 0
    with open(os.path.join(out, "density.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    assert [[float(v) for v in row[1:3]] for row in rows[:2]] == [[0.0, 0.0]] * 2
    assert float(rows[2][1]) > 0


def test_density_non_number_x_exit_1(tmp_path, capsys):
    out = str(tmp_path / "d")
    assert main(["density", "--out-dir", out, "--x", "0.5,abc", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --x must be comma-separated numbers")
    assert "Traceback" not in err
    assert os.listdir(out) == []


def test_missing_config_exit_1(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("command, base, where, key, value", [
    ("solve", "merton", ("solve",), "surprise", 1),
    ("solve", "merton", ("solve",), "refine_iters", -1),
    ("kernel", "merton", ("kernel",), "rule", "gauss"),
    ("solve", "merton", ("problem",), "surprise", 1),
    ("solve", "pdsde", ("problem", "drift"), "scael", 5.0),
    ("solve", "pdsde", ("problem", "payoff"), "sacle", 3),
    ("solve", "merton", ("solve",), "time_bin_width", 0.01),
    ("solve", "merton", ("solve",), "state_bin_width", 0.001),
    ("solve", "fbm", ("problem",), "d_H", 1.0),
    ("portfolio", "merton", ("evaluate",), "g_terms", 8),
], ids=["solve-surprise", "solve-refine_iters", "kernel-rule", "problem-surprise",
        "drift-parameter", "payoff-parameter", "solve-time_bin_width",
        "solve-state_bin_width", "fbm-d_H", "portfolio-g_terms"])
def test_unknown_key_exit_1(tmp_path, capsys, command, base, where, key, value):
    cfg = json.loads(json.dumps({"merton": MERTON_CFG, "pdsde": PDSDE_CFG,
                                 "fbm": FBM_CFG}[base]))
    section = cfg
    for name in where:
        section = section.setdefault(name, {})
    section[key] = value
    rc = main([command, "--config", write_cfg(tmp_path, cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: unknown keys in {'.'.join(where)}: "
                          f"['{key}']")
    assert "Traceback" not in err


def test_unknown_coefficient_name_exit_1(tmp_path, capsys):
    cfg = {
        "skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 1.0},
        "problem": {"kind": "pd_sde", "drift": {"name": "no_such_drift"},
                    "diffusion": "constant", "x0": [0.0]},
        "solve": {"action_grid": [0.0], "depth": 2, "Q": 2},
    }
    rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "no_such_drift" in capsys.readouterr().err


def test_resource_cap_exit_3(tmp_path, capsys):
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"].update(depth=9, Q=8, collapse=False,
                        action_grid={"lo": -1, "hi": 1, "n": 41},
                        node_cap=1000)
    rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 3


def test_overflowing_functional_exit_2(tmp_path, capsys):
    cfg = {
        "skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 1.0},
        "problem": {"kind": "pd_sde", "drift": {"name": "linear", "scale": 1e308},
                    "diffusion": "constant", "x0": [1.0]},
        "solve": {"action_grid": [0.0], "depth": 2, "Q": 2},
    }
    with np.errstate(over="ignore"):
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


def test_fbm_solve_subcommand(tmp_path):
    from skeldp.solver import SolveConfig, backward_dp, build_tree
    from skeldp.structures import FbmSpec, FbmStructure, _payoff_from_config

    cfg = {
        "skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 1.0},
        "problem": {"kind": "fbm", "H": 0.75, "sigma": 0.5,
                    "drift": {"name": "action_linear", "scale": 1.0}, "x0": 0.0},
        "solve": {"action_grid": [-1.0, 0.0, 1.0], "depth": 2, "Q": 2},
    }
    out = str(tmp_path / "fb")
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out-dir", out,
                 "--quiet"]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["node_counts"] == [1, 12, 144]
    # a hand-written drift gives the registry's tree
    spec = FbmSpec(H=0.75, sigma=0.5, drift=lambda t, path, a: a, x0=0.0)
    res = backward_dp(build_tree(
        FbmStructure(spec, 0.5, 1.0), _payoff_from_config("terminal_tanh", 1.0),
        0.5, SolveConfig(action_grid=np.array([-1.0, 0.0, 1.0]), depth=2, Q=2)))
    assert summary["root_value"] == res.report.root_value


def test_solve_threads_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, MERTON_CFG)
    out1, out8 = str(tmp_path / "t1"), str(tmp_path / "t8")
    assert main(["solve", "--config", cfg_path, "--out-dir", out1,
                 "--seed", "7", "--threads", "1", "--quiet"]) == 0
    assert main(["solve", "--config", cfg_path, "--out-dir", out8,
                 "--seed", "7", "--threads", "8", "--quiet"]) == 0
    assert read_all(out1) == read_all(out8)


def test_evaluate_threads_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, MERTON_CFG)
    out1, out8 = str(tmp_path / "e1"), str(tmp_path / "e8")
    assert main(["evaluate", "--config", cfg_path, "--out-dir", out1,
                 "--seed", "7", "--threads", "1", "--quiet"]) == 0
    assert main(["evaluate", "--config", cfg_path, "--out-dir", out8,
                 "--seed", "7", "--threads", "8", "--quiet"]) == 0
    assert read_all(out1) == read_all(out8)


def test_portfolio_summary_fields(tmp_path):
    cfg_path = write_cfg(tmp_path, MERTON_CFG)
    out = str(tmp_path / "p")
    assert main(["portfolio", "--config", cfg_path, "--out-dir", out,
                 "--seed", "3", "--quiet"]) == 0
    with open(os.path.join(out, "portfolio_summary.json")) as fh:
        summary = json.load(fh)
    for field in ["root_value", "extracted_fraction", "merton_fraction",
                  "fraction_gap", "mc_mean", "mc_se", "const_grid_value",
                  "stage_argmax_policy"]:
        assert field in summary
    for field in ["certified_epsilon", "stage_slack", "grid_term"]:
        assert field not in summary
    assert summary["merton_fraction"] == pytest.approx(0.4444444, abs=1e-6)
    assert len(summary["stage_argmax_policy"]) == 4


def test_portfolio_and_evaluate_report_one_estimator(tmp_path):
    """`portfolio` and `evaluate` value the solved policy on the same paths
    through one Monte Carlo, so their mean and se agree to the bit."""
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"].update(action_grid={"lo": -1, "hi": 1, "n": 11}, depth=5, Q=4)
    cfg_path = write_cfg(tmp_path, cfg)
    got = {}
    for command, name in (("portfolio", "portfolio_summary.json"),
                          ("evaluate", "evaluate_metrics.json")):
        out = str(tmp_path / command)
        assert main([command, "--config", cfg_path, "--out-dir", out,
                     "--seed", "3", "--threads", "2", "--quiet"]) == 0
        with open(os.path.join(out, name)) as fh:
            summary = json.load(fh)
        got[command] = (summary["mc_mean"], summary["mc_se"], summary["n_paths"])
    assert got["portfolio"] == got["evaluate"]


def test_budget_epsilon_flag_is_a_usage_error_exit_1(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, MERTON_CFG)
    out = str(tmp_path / "o")
    # the flag only ever set solve.epsilon_total, which no solve reads
    for command in ("solve", "evaluate", "sweep", "portfolio"):
        assert main([command, "--config", cfg_path, "--out-dir", out,
                     "--epsilon", "0.5", "--quiet"]) == 1
        assert ("configuration error: unrecognized arguments: --epsilon 0.5"
                in capsys.readouterr().err)
    assert main(["solve", "--config", cfg_path, "--out-dir", out, "--bogus", "1"]) == 1
    assert "configuration error: " in capsys.readouterr().err
    assert not os.path.exists(out)
    # on skeleton and kernel it still overrides skeleton.epsilon_k
    assert main(["skeleton", "--config", cfg_path, "--out-dir", out, "--seed", "12",
                 "--epsilon", "0.5", "--quiet"]) == 0
    with open(os.path.join(out, "skeleton.csv")) as fh:
        path = skeleton.path_from_csv(fh.read(), 0.5, 1)
    ref = skeleton.sample_skeleton(skeleton.SkeletonConfig(0.5, 1, 1.0), 12)
    assert np.array_equal(path.delta_t, ref.delta_t)


def _too_few_paths_exit_1(tmp_path, capsys, monkeypatch, command, n_paths, output):
    def refuse(*args, **kwargs):
        pytest.fail("n_paths must be refused before the solve")

    monkeypatch.setattr(solver, "build_tree", refuse)
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["evaluate"]["n_paths"] = n_paths
    out = str(tmp_path / "o")
    assert main([command, "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "n_paths" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, output))


@pytest.mark.parametrize("n_paths", [0, 1])
def test_portfolio_too_few_paths_exit_1(tmp_path, capsys, monkeypatch, n_paths):
    _too_few_paths_exit_1(tmp_path, capsys, monkeypatch, "portfolio", n_paths,
                          "portfolio_summary.json")


@pytest.mark.parametrize("n_paths", [0, 1])
def test_evaluate_too_few_paths_exit_1(tmp_path, capsys, monkeypatch, n_paths):
    _too_few_paths_exit_1(tmp_path, capsys, monkeypatch, "evaluate", n_paths,
                          "evaluate_metrics.json")


@pytest.mark.parametrize("command", ["solve", "portfolio"])
def test_int64_bins_round_trip_through_policy_csv(tmp_path, monkeypatch, command):
    """Wealth bins past 2^30 (any int64 bin) go through value_policy.csv:
    evaluating the dumped CSV gives the metrics of solving in process.
    Action 0 with Q 1 moves wealth by r delta_t alone: one cell a layer."""
    monkeypatch.setattr(structures._PortfolioCollapse, "bin_width", 1e-12)
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"].update(action_grid=[0.0], depth=2, Q=1)
    cfg["evaluate"]["n_paths"] = 40
    out = str(tmp_path / "o")
    assert main([command, "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 0
    policy = os.path.join(out, "value_policy.csv")
    with open(policy) as fh:
        wealth = [int(row[1].split(" ")[1]) for row in list(csv.reader(fh))[1:]]
    assert len(wealth) == 3 and max(wealth) >= 2**30
    metrics = {}
    for name, esec in [("csv", {"policy_csv": policy}), ("solve", {})]:
        ecfg = {**cfg, "evaluate": {"n_paths": 40, **esec}}
        eout = str(tmp_path / name)
        assert main(["evaluate", "--config", write_cfg(tmp_path, ecfg, name + ".json"),
                     "--out-dir", eout, "--seed", "3", "--quiet"]) == 0
        metrics[name] = read_all(eout)["evaluate_metrics.json"]
    assert metrics["csv"] == metrics["solve"]


@pytest.mark.parametrize("collapse", [False, True])
@pytest.mark.parametrize("command", ["solve", "portfolio", "evaluate"])
def test_grid_outside_a_bar_exit_1(tmp_path, capsys, command, collapse):
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["problem"]["a_bar"] = 0.5
    cfg["solve"].update(action_grid=[-1.0, 1.0], depth=2, collapse=collapse)
    out = str(tmp_path / "o")
    assert main([command, "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    if command == "portfolio" and not collapse:   # refused before any tree is built
        assert err.startswith("configuration error: portfolio rollouts need "
                              "solve.collapse: true")
    else:
        assert err.startswith("configuration error: action_grid leaves [-0.5, 0.5]")
    assert os.listdir(out) == []


def test_policy_csv_evaluation_gets_build_tree_checks(tmp_path, capsys):
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"]["depth"] = 2
    out_solve = str(tmp_path / "s")
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out-dir",
                 out_solve, "--quiet"]) == 0
    cfg["problem"]["a_bar"] = 0.5
    cfg["evaluate"]["policy_csv"] = os.path.join(out_solve, "value_policy.csv")
    out = str(tmp_path / "e")
    assert main(["evaluate", "--config", write_cfg(tmp_path, cfg, "ev.json"),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: action_grid leaves [-0.5, 0.5]")
    assert os.listdir(out) == []


_ROOT_KEY = "0 0"       # the root bin of MERTON_CFG
# one node per layer down to MERTON_CFG's depth 4; rows are lines 2-6
_ONE_NODE_CSV = "depth,node_key,value,action\n" + "".join(
    f"{d},{_ROOT_KEY},2.0,{'0.5' if d < 4 else ''}\n" for d in range(5))


@pytest.mark.parametrize("text, where", [
    ("", "header"),
    ("depth,node_key,value,action\n", "no node rows"),
    ("depth,node_key,value,action\n0,0 0,2.0\n", "line 2"),
    ("depth,node_key,value,action\nzero,0 0,2.0,0.5\n", "line 2"),
    (_ONE_NODE_CSV.replace(f"1,{_ROOT_KEY},2.0,0.5", f"1,{_ROOT_KEY},2.0,"), "line 3"),
    (_ONE_NODE_CSV.replace(f"1,{_ROOT_KEY},2.0,0.5", f"1,{_ROOT_KEY},2.0,nan"), "line 3"),
    (_ONE_NODE_CSV.replace(f"1,{_ROOT_KEY},2.0,0.5", f"1,{_ROOT_KEY},2.0,7.5"),
     "line 3: action 7.5 leaves [-1.0, 1.0]"),
    (_ONE_NODE_CSV.replace(f"2,{_ROOT_KEY},2.0,0.5", f"2,{_ROOT_KEY},inf,0.5"), "line 4"),
    (_ONE_NODE_CSV + f"-1,{_ROOT_KEY},2.0,0.5\n", "line 7"),
    (_ONE_NODE_CSV.replace(f"2,{_ROOT_KEY},", "2,4611686020574871552,"),
     "line 4: node_key '4611686020574871552' is not 2 bin indices"),
    (_ONE_NODE_CSV.replace(f"2,{_ROOT_KEY},", "2,0 0 0,"), "line 4: node_key"),
    (_ONE_NODE_CSV.replace(f"2,{_ROOT_KEY},", "2,0  0,"), "line 4"),
    (_ONE_NODE_CSV.replace(f"2,{_ROOT_KEY},", "2,0 1e3,"), "line 4"),
    (_ONE_NODE_CSV.replace(f"2,{_ROOT_KEY},", f"2,0 {2**63},"), "line 4"),
], ids=["empty", "header-only", "three-columns", "non-integer-depth", "blank-action",
        "nan-action", "action-outside-a-bar", "infinite-value", "negative-depth",
        "packed-key", "three-bins", "double-space", "float-bin", "bin-past-int64"])
def test_malformed_policy_csv_exit_1(tmp_path, capsys, text, where):
    policy = tmp_path / "value_policy.csv"
    policy.write_text(text)
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["evaluate"]["policy_csv"] = str(policy)
    out = str(tmp_path / "e")
    assert main(["evaluate", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and where in err
    assert "Traceback" not in err
    assert os.listdir(out) == []


def test_policy_csv_huge_bin_box_exit_3(tmp_path, capsys):
    # a 2^31 x 2^31-cell depth-1 box, refused before anything is allocated
    # (numpy refuses an array that size itself, so no run of this test
    # can allocate it)
    policy = tmp_path / "value_policy.csv"
    policy.write_text("depth,node_key,value,action\n0,0 0,2.0,0.5\n"
                      f"1,{-2**30} {-2**30},2.0,\n1,{2**30 - 1} {2**30 - 1},2.0,\n")
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"]["depth"] = 1
    cfg["evaluate"]["policy_csv"] = str(policy)
    out = str(tmp_path / "e")
    assert main(["evaluate", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: collapse layer bin box too large "
                          f"(estimate {2**62})")
    assert os.listdir(out) == []


@pytest.mark.parametrize("solve", [
    {"depth": 1.5},
    {"depth": True},
    {"depth": -1},
    {"Q": 0},
    {"Q": 2.0},
    {"node_cap": 0},
    {"action_grid": {"lo": 1, "hi": -1, "n": 5}},
    {"action_grid": [0.0, float("nan")]},
    {"collapse": "false"},
    {"refine": 1},
    {"collapse": False, "refine": True},
], ids=["fractional-depth", "bool-depth", "negative-depth", "zero-Q", "float-Q",
        "zero-node-cap", "descending-grid", "nan-grid", "string-collapse", "int-refine",
        "refine-without-collapse"])
def test_bad_solve_values_exit_1(tmp_path, capsys, solve):
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"].update({"depth": 2, **solve})
    out = str(tmp_path / "o")
    assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and next(iter(solve)) in err
    assert "Traceback" not in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("command, where, value", [
    ("evaluate", ("evaluate", "n_paths"), 2.5),
    ("evaluate", ("evaluate", "n_paths"), "300"),
    ("solve", ("skeleton", "d"), 1.5),
    ("solve", ("skeleton", "d"), True),
    ("skeleton", ("skeleton", "n_steps"), 4.5),
    ("solve", ("solve", "action_grid", "n"), 9.5),
    ("kernel", ("kernel", "Q"), 2.5),
], ids=["fractional-n-paths", "string-n-paths", "fractional-d", "bool-d",
        "fractional-n-steps", "fractional-grid-n", "fractional-kernel-Q"])
def test_non_integer_counts_exit_1(tmp_path, capsys, command, where, value):
    cfg = json.loads(json.dumps(MERTON_CFG))
    section = cfg
    for key in where[:-1]:
        section = section.setdefault(key, {})
    section[where[-1]] = value
    out = str(tmp_path / "o")
    assert main([command, "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {'.'.join(where)} must be an integer")
    assert "Traceback" not in err


PD_CFG = {
    "skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 1.0},
    "problem": {"kind": "pd_sde", "drift": {"name": "linear", "scale": 0.2},
                "diffusion": "constant", "x0": [1.0]},
    "solve": {"action_grid": [0.0], "depth": 2, "Q": 2},
}
FBM_CFG = {
    "skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 1.0},
    "problem": {"kind": "fbm", "H": 0.75, "sigma": 0.5, "drift": "action_linear",
                "x0": 0.0},
    "solve": {"action_grid": [0.0], "depth": 2, "Q": 2},
}
DELETE = object()


@pytest.mark.parametrize("command, base, where, value", [
    ("solve", MERTON_CFG, ("problem", "r"), DELETE),
    ("solve", FBM_CFG, ("problem", "H"), DELETE),
    ("solve", PD_CFG, ("problem", "drift"), DELETE),
    ("solve", MERTON_CFG, ("skeleton",), DELETE),
    ("solve", MERTON_CFG, ("solve", "depth"), DELETE),
    ("solve", MERTON_CFG, ("skeleton", "epsilon_k"), "a third"),
    ("solve", MERTON_CFG, ("problem", "r"), "three percent"),
    ("solve", MERTON_CFG, ("problem", "x0"), "one"),
    ("solve", PD_CFG, ("problem", "drift", "scale"), "small"),
    ("solve", MERTON_CFG, ("solve", "action_grid", "lo"), "minus one"),
    ("solve", MERTON_CFG, ("problem",), [MERTON_CFG["problem"]]),
    ("kernel", MERTON_CFG, ("kernel", "lags"), ["none"]),
    ("sweep", MERTON_CFG, ("sweep", "eps_list"), ["a half"]),
    ("evaluate", MERTON_CFG, ("evaluate", "antithetic"), "false"),
    ("skeleton", MERTON_CFG, ("skeleton", "epsilon_k"), 10**400),
    ("solve", MERTON_CFG, ("solve", "action_grid", "lo"), -10**400),
    ("kernel", MERTON_CFG, ("kernel", "lags"), [10**400]),
    ("sweep", MERTON_CFG, ("sweep", "eps_list"), [0.5, 10**400]),
], ids=["missing-r", "missing-H", "missing-drift", "missing-skeleton", "missing-depth",
        "string-epsilon", "string-r", "string-x0", "string-drift-scale",
        "string-grid-lo", "list-problem", "string-kernel-lag", "string-sweep-eps",
        "string-antithetic", "huge-integer-epsilon", "huge-integer-grid-lo",
        "huge-integer-kernel-lag", "huge-integer-sweep-eps"])
def test_malformed_config_exit_1(tmp_path, capsys, command, base, where, value):
    cfg = json.loads(json.dumps(base))
    section = cfg
    for key in where[:-1]:
        section = section.setdefault(key, {})
    if value is DELETE:
        del section[where[-1]]
    else:
        section[where[-1]] = value
    out = str(tmp_path / "o")
    assert main([command, "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and ".".join(where) in err
    assert "Traceback" not in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exit_1(tmp_path, capsys, seed):
    out = str(tmp_path / "sk")
    assert main(["skeleton", "--config", write_cfg(tmp_path, MERTON_CFG), "--out-dir", out,
                 "--seed", seed, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: seed must be in [0, 2**64)")
    assert "Traceback" not in err


def test_nonpositive_a_bar_exit_1(tmp_path, capsys):
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["problem"]["a_bar"] = -1.0
    assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: a_bar must be > 0, got -1.0")


def test_output_key_sets_pinned(tmp_path):
    """Every summary holds exactly the solve report's fields plus its extras."""
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"]["depth"] = 2
    cfg["evaluate"]["n_paths"] = 20
    cfg["sweep"] = {"eps_list": [0.5, 1.0 / 3]}
    cfg_path = write_cfg(tmp_path, cfg)

    def run(command, name):
        out = str(tmp_path / command)
        assert main([command, "--config", cfg_path, "--out-dir", out, "--quiet"]) == 0
        with open(os.path.join(out, name)) as fh:
            return fh.read()

    report = {"root_value", "root_action", "refined_gain_max", "node_counts",
              "depth", "Q", "eps_k"}
    assert report == {f.name for f in dataclasses.fields(solver.SolveReport)}
    assert set(json.loads(run("solve", "summary.json"))) == report
    assert set(json.loads(run("portfolio", "portfolio_summary.json"))) == report | {
        "merton_fraction", "const_grid_value", "const_grid_action",
        "extracted_fraction", "fraction_gap", "mc_mean", "mc_se", "n_paths",
        "stage_argmax_policy"}
    assert set(json.loads(run("evaluate", "evaluate_metrics.json"))) == {
        "mc_mean", "mc_se", "mc_ci_half", "n_paths", "root_value", "gap_root_minus_mc"}
    assert run("sweep", "sweep.csv").splitlines()[0] == "eps_k,root_value,root_action"


def test_timing_flag_is_a_usage_error_exit_1(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["solve", "--config", write_cfg(tmp_path, MERTON_CFG),
                 "--out-dir", out, "--timing", "--quiet"]) == 1
    assert ("configuration error: unrecognized arguments: --timing"
            in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_sweep_subcommand(tmp_path):
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["sweep"] = {"eps_list": [0.5, 1.0 / 3]}
    cfg["solve"]["depth"] = 3
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps_k", "root_value", "root_action"]
    assert "certified_epsilon" not in rows[0]
    assert len(rows) == 3


def test_kernel_subcommand_mass(tmp_path):
    cfg = {"skeleton": {"epsilon_k": 1.0, "d": 2, "horizon_T": 1.0},
           "kernel": {"lags": [0.0, 0.5], "Q": 2}}
    out = str(tmp_path / "k")
    assert main(["kernel", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 0
    with open(os.path.join(out, "kernel_mass.json")) as fh:
        mass = json.load(fh)
    assert mass["total_mass"] == pytest.approx(1.0, abs=1e-12)
    assert mass["first_fire"]["2"] > 0.5


@pytest.mark.parametrize("lags", [[float("nan")], [-0.5], [float("nan"), 0.0],
                                  [float("inf"), 0.0]],
                         ids=["nan-d1", "negative-d1", "nan-d2", "infinite-d2"])
def test_bad_kernel_lags_exit_1(tmp_path, capsys, lags):
    cfg = {"skeleton": {"epsilon_k": 0.5, "d": len(lags), "horizon_T": 1.0},
           "kernel": {"lags": lags, "Q": 2}}
    out = str(tmp_path / "k")
    assert main(["kernel", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: lags must be finite and >= 0")
    assert "Traceback" not in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_1(tmp_path, capsys, threads):
    out = str(tmp_path / "e")
    assert main(["evaluate", "--config", write_cfg(tmp_path, MERTON_CFG), "--out-dir", out,
                 "--threads", threads, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: --threads must be >= 1, got {threads}")
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value", [("epsilon_k", float("nan")),
                                        ("horizon_T", float("inf"))],
                         ids=["nan-epsilon", "infinite-horizon"])
def test_non_finite_skeleton_exit_1(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["skeleton"][key] = value
    out = str(tmp_path / "sk")
    assert main(["skeleton", "--config", write_cfg(tmp_path, cfg), "--out-dir", out,
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} must be finite and > 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("collapse", [False, True], ids=["full", "collapse"])
@pytest.mark.parametrize("base, where, value", [
    ("merton", ("alpha",), float("nan")),
    ("merton", ("r",), float("nan")),
    ("merton", ("sigma",), float("inf")),
    ("merton", ("x0",), float("nan")),
    ("merton", ("alpha",), 10**400),
    ("pdsde", ("diffusion", "value"), float("nan")),
    ("pdsde", ("x0",), [float("-inf")]),
    ("pdsde", ("payoff", "scale"), float("nan")),
    ("fbm", ("sigma",), float("nan")),
], ids=["nan-alpha", "nan-r", "infinite-sigma", "nan-x0", "huge-integer-alpha",
        "nan-diffusion-value", "infinite-pd-x0", "nan-payoff-scale", "nan-fbm-sigma"])
def test_non_finite_problem_exit_1(tmp_path, capsys, collapse, base, where, value):
    """json reads NaN and Infinity: every problem number, functional
    parameters included, is refused by its key before any solve."""
    cfg = json.loads(json.dumps({"merton": MERTON_CFG, "pdsde": PDSDE_CFG,
                                 "fbm": FBM_CFG}[base]))
    cfg["solve"]["collapse"] = collapse
    section = cfg["problem"]
    for key in where[:-1]:
        section = section[key]
    section[where[-1]] = value
    out = str(tmp_path / "o")
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out-dir", out,
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: problem.{'.'.join(where)} must be finite")
    assert "Traceback" not in err
    assert os.listdir(out) == []


def test_skeleton_subcommand_roundtrip(tmp_path):
    cfg_path = write_cfg(tmp_path, MERTON_CFG)
    out = str(tmp_path / "sk")
    assert main(["skeleton", "--config", cfg_path, "--out-dir", out,
                 "--seed", "12", "--quiet"]) == 0
    from skeldp.skeleton import path_from_csv
    with open(os.path.join(out, "skeleton.csv")) as fh:
        path = path_from_csv(fh.read(), 1.0 / 3, 1)
    # 17-significant-digit serialization round-trips exactly
    from skeldp.skeleton import SkeletonConfig, sample_skeleton
    ref = sample_skeleton(SkeletonConfig(1.0 / 3, 1, 1.0), 12)
    assert np.array_equal(path.delta_t, ref.delta_t)
    # at d = 1 that is row 0 of chunk 0 of the Monte Carlo's seed-12 draws
    block = sample_skeleton(SkeletonConfig(1.0 / 3, 1, 1.0), 12, chunk=0, size=3)
    assert np.array_equal(path.delta_t, block.delta_t[0])
    assert np.array_equal(path.signs, block.signs[0])


def test_manifest_contents(tmp_path):
    cfg_path = write_cfg(tmp_path, MERTON_CFG)
    out = str(tmp_path / "m")
    assert main(["solve", "--config", cfg_path, "--out-dir", out,
                 "--seed", "42", "--quiet"]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["seed"] == 42
    assert man["command"] == "solve"
    assert "config_sha256" in man and len(man["config_sha256"]) == 64
    assert "skeldp" in man["versions"]


def test_output_reproducible_from_manifest_alone(tmp_path):
    cfg_path = write_cfg(tmp_path, MERTON_CFG)
    out = str(tmp_path / "r1")
    assert main(["solve", "--config", cfg_path, "--out-dir", out,
                 "--seed", "42", "--quiet"]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        man = json.load(fh)
    # rebuild the run purely from the manifest
    cfg2_path = write_cfg(tmp_path, man["config"], "from_manifest.json")
    out2 = str(tmp_path / "r2")
    assert main([man["command"], "--config", cfg2_path, "--out-dir", out2,
                 "--seed", str(man["seed"]), "--quiet"]) == 0
    a, b = read_all(out), read_all(out2)
    assert a["summary.json"] == b["summary.json"]
    assert a["value_policy.csv"] == b["value_policy.csv"]


def test_evaluate_from_policy_csv(tmp_path):
    cfg_path = write_cfg(tmp_path, MERTON_CFG)
    out_solve = str(tmp_path / "ps")
    assert main(["solve", "--config", cfg_path, "--out-dir", out_solve,
                 "--seed", "2", "--quiet"]) == 0
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["evaluate"]["policy_csv"] = os.path.join(out_solve, "value_policy.csv")
    out_eval = str(tmp_path / "pe")
    assert main(["evaluate", "--config", write_cfg(tmp_path, cfg, "ev.json"),
                 "--out-dir", out_eval, "--seed", "2", "--quiet"]) == 0
    with open(os.path.join(out_eval, "evaluate_metrics.json")) as fh:
        metrics = json.load(fh)
    # the re-loaded policy evaluates like the in-process one
    out_ref = str(tmp_path / "pr")
    assert main(["evaluate", "--config", cfg_path, "--out-dir", out_ref,
                 "--seed", "2", "--quiet"]) == 0
    with open(os.path.join(out_ref, "evaluate_metrics.json")) as fh:
        ref = json.load(fh)
    assert metrics["mc_mean"] == pytest.approx(ref["mc_mean"], rel=1e-12)
    assert metrics["root_value"] == pytest.approx(ref["root_value"], rel=1e-12)


def test_collapse_solve_and_csv_evaluate_bytes_pinned(tmp_path):
    """The node_key column, the summary and a CSV-driven evaluation."""
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"].update(depth=3, Q=4, refine=True,
                        action_grid={"lo": -1, "hi": 1, "n": 21})
    cfg["evaluate"]["n_paths"] = 600
    out_solve = str(tmp_path / "s")
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out-dir",
                 out_solve, "--seed", "5", "--quiet"]) == 0
    cfg["evaluate"]["policy_csv"] = os.path.join(out_solve, "value_policy.csv")
    out_eval = str(tmp_path / "e")
    assert main(["evaluate", "--config", write_cfg(tmp_path, cfg, "ev.json"),
                 "--out-dir", out_eval, "--seed", "5", "--quiet"]) == 0
    solved, evaluated = read_all(out_solve), read_all(out_eval)
    rows = list(csv.reader(solved["value_policy.csv"].decode().splitlines()))
    assert rows[1][:2] == ["0", "0 0"]               # the root bin (0, 0)
    without_keys = "".join(",".join([r[0]] + r[2:]) + "\n" for r in rows).encode()
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in [
        ("value_policy.csv", solved["value_policy.csv"]),
        ("value_policy.csv without node_key", without_keys),
        ("summary.json", solved["summary.json"]),
        ("evaluate_metrics.json", evaluated["evaluate_metrics.json"])]}
    # the CSV re-recorded when node_key became the space-separated bins
    # (a5818cbd... with packed keys); without its node_key column it is the
    # packed-key CSV's, byte for byte.  The summary re-recorded when the
    # certificate fields were deleted; the evaluation re-recorded when each
    # Monte Carlo chunk became one sample_skeleton block (mc_mean
    # 2.0120629016557356, mc_se 2.2667496725837155e-3), then for the merged
    # centred variance (mc_se 2.2667496725885476e-3, mc_mean unchanged)
    assert digests == {
        "value_policy.csv":
            "6d2be5d406d8c486fc90f71baaf9e854a97697764940f4b2de2023f914f4822a",
        "value_policy.csv without node_key":
            "17734c387d7661ff3bb06e7f4355ac933d14ac59dcc98d9542a1fa5195e6fa87",
        "summary.json":
            "3112fe302778048179c71a9b3a17508c024b3fc1b30eb6795b435a47107cafc2",
        "evaluate_metrics.json":
            "dd69b3a0e3d75895927b474f2a47aeaf324318e52f7d385b67d2d71112b8e44f",
    }


PDSDE_CFG = {
    "skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 2.0},
    "problem": {"kind": "pd_sde", "drift": {"name": "linear", "scale": 0.2},
                "diffusion": {"name": "constant", "value": 0.6}, "x0": [0.5],
                "payoff": {"name": "running_max_tanh"}},
    "solve": {"action_grid": [-1.0, 0.0, 1.0], "depth": 3, "Q": 2},
    "evaluate": {"n_paths": 300},
}

FBM_CFG = {
    "skeleton": {"epsilon_k": 0.5, "d": 1, "horizon_T": 1.0},
    "problem": {"kind": "fbm", "H": 0.75, "sigma": 0.5,
                "drift": {"name": "action_linear", "scale": 1.0}, "x0": 0.0},
    "solve": {"action_grid": [-1.0, 0.0, 1.0], "depth": 2, "Q": 2},
}


def _digests(tmp_path, command, cfg, name):
    out = str(tmp_path / name)
    assert main([command, "--config", write_cfg(tmp_path, cfg, name + ".json"),
                 "--out-dir", out, "--seed", "5", "--quiet"]) == 0
    return {f: hashlib.sha256(blob).hexdigest()
            for f, blob in read_all(out).items() if f != "manifest.json"}


def test_full_solve_and_evaluate_bytes_pinned(tmp_path):
    """value_policy.csv's history keys, the summaries and a full-mode MC."""
    # recorded on the solver that still keyed full-mode nodes by history
    # tuples; the summaries re-recorded when the certificate fields were
    # deleted, the evaluation when each Monte Carlo chunk became one
    # sample_skeleton block (mc_mean 0.6601554984163842, mc_se
    # 9.29462940367641e-3), then for the merged centred variance (mc_se
    # 9.294629403676202e-3); the fBm solve re-recorded on the cumulative
    # z-rule Phi table (root 0.43665681245151255 -> 0.43665681219695024)
    assert _digests(tmp_path, "solve", PDSDE_CFG, "pd") == {
        "value_policy.csv":
            "b0ca88ad81c1a288664ae56695316662755b0911a4f34ea5a71de5e08108a7dc",
        "summary.json":
            "cafc39fb624fc8a8fc0de6c05c90ee3f6f852c1462d720a4436610202e1175f4",
    }
    assert _digests(tmp_path, "solve", FBM_CFG, "fbm") == {
        "value_policy.csv":
            "278607c98e3aca7b53d0717c4b184001893e0255cfa3fd19ee1c6b21655f00e8",
        "summary.json":
            "17730fdc80f5a8cd4d3fa326f6c22c93ac3bde132cdcf59c10346507e94322e2",
    }
    assert _digests(tmp_path, "evaluate", PDSDE_CFG, "pde") == {
        "evaluate_metrics.json":
            "d28ed0c44b832845033752397b96a03e6b90ab08e2bff2ad20b67fe7cbf56bef",
    }


def test_drift_of_wrong_shape_exit_1(tmp_path, capsys, monkeypatch):
    # one value per row, (N,), where the batched contract asks for (N, n)
    monkeypatch.setitem(structures.drift_registry, "per_row",
                        lambda: lambda t, path, a: path(t)[:, 0])
    cfg = json.loads(json.dumps(PDSDE_CFG))
    cfg["problem"]["drift"] = {"name": "per_row"}
    assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: drift returned shape (3,)")
    assert "Traceback" not in err


def test_evaluate_antithetic_takes_effect_in_both_modes(tmp_path):
    cfg = json.loads(json.dumps(PDSDE_CFG))
    cfg["evaluate"]["antithetic"] = True
    out = str(tmp_path / "a")
    assert main(["evaluate", "--config", write_cfg(tmp_path, cfg), "--out-dir", out,
                 "--seed", "5", "--quiet"]) == 0
    with open(os.path.join(out, "evaluate_metrics.json")) as fh:
        anti = json.load(fh)
    skel = cfg["skeleton"]
    struct, payoff = structures.structure_from_config(
        cfg["problem"], skel["epsilon_k"], skel["horizon_T"])
    tree = solver.build_tree(struct, payoff, skel["epsilon_k"], solver.SolveConfig(
        action_grid=np.array(cfg["solve"]["action_grid"]), depth=3, Q=2))
    res = solver.backward_dp(tree)
    skel_cfg = skeleton.SkeletonConfig(skel["epsilon_k"], 1, skel["horizon_T"], 3)
    mc = {flag: evaluate.policy_mc_value(struct, payoff, res, tree, skel_cfg, 300, 5,
                                         antithetic=flag) for flag in (False, True)}
    assert (anti["mc_mean"], anti["mc_se"]) == (mc[True].mean, mc[True].se)
    assert mc[True].mean != mc[False].mean
    # collapse mode: recorded when each Monte Carlo chunk became one
    # sample_skeleton block (mc_mean 2.0151394922960573, mc_se
    # 1.484422771045604e-4), then for the merged centred variance (mc_se
    # 1.4844227709653806e-4)
    col = json.loads(json.dumps(MERTON_CFG))
    col["evaluate"]["antithetic"] = True
    assert _digests(tmp_path, "evaluate", col, "col") == {
        "evaluate_metrics.json":
            "5e70d828af2ce1de5a98a76f63c6620d7e42198e9df756a3c5925d25601bcd8c",
    }


def test_portfolio_refuses_antithetic_exit_1(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("antithetic must be refused before the solve")

    monkeypatch.setattr(solver, "build_tree", refuse)
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["evaluate"]["antithetic"] = True
    out = str(tmp_path / "o")
    assert main(["portfolio", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "antithetic" in err
    assert not os.path.exists(os.path.join(out, "portfolio_summary.json"))


def test_portfolio_refuses_full_tree_exit_1(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a full tree must be refused before the solve")

    monkeypatch.setattr(solver, "build_tree", refuse)
    cfg = json.loads(json.dumps(MERTON_CFG))
    cfg["solve"]["collapse"] = False
    out = str(tmp_path / "o")
    assert main(["portfolio", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "collapse" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "portfolio_summary.json"))
