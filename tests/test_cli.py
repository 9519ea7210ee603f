import dataclasses
import json
import math
import os

import numpy as np
import pytest

from mlmckit import cli, models
from mlmckit.cli import RunConfig, main
from mlmckit.executor import QoIModel

BENCH_FLAGS = ["--delta", "7.36e7", "--err", "9.60e6", "--alpha", "1.07"]


def _write(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # The default output paths are relative, so a command given no --out
    # writes into the test's own directory, never into the checkout.
    monkeypatch.chdir(tmp_path)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_all_strategies(tmp_path, capsys):
    out = tmp_path / "plans.json"
    rc = main(["plan", *BENCH_FLAGS, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    for name in ("ClassicalMC", "S1", "S2", "S3", "S4"):
        assert name in text
    payload = json.loads(out.read_text())
    assert set(payload) == {"plans"}
    by_name = {p["strategy"]: p for p in payload["plans"]}
    assert by_name["ClassicalMC"]["M"] == [59]
    assert by_name["S1"]["M"] == [11, 48, 210]
    assert by_name["S1"]["M_total"] == [11, 59, 258]
    assert by_name["S2"]["M"] == [11, 191]
    assert by_name["S3"]["M"] == [876, 763, 210]
    assert by_name["S4"]["M"] == [11, 763]
    assert by_name["S1"]["relative_load"] == 22.40625
    assert by_name["S1"]["inputs"]["alpha"] == 1.07


def test_plan_single_strategy_and_cap(tmp_path):
    out = tmp_path / "p.json"
    rc = main(["plan", *BENCH_FLAGS, "--strategy", "s2", "--max-levels", "1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["plans"]) == 1
    assert payload["plans"][0]["M"] == [59]


def test_plan_flag_errors(tmp_path, capsys):
    assert main(["plan", "--err", "1.0", "--alpha", "1.0"]) == 2  # missing --delta
    assert main(["plan", "--delta", "-3", "--err", "1.0", "--alpha", "1.0"]) == 2
    assert main(["plan", "--delta", "10", "--err", "1.0", "--alpha", "0.0",
                 "--strategy", "s1"]) == 2  # singular level count
    assert main(["plan", *BENCH_FLAGS, "--r1", "0.5"]) == 2  # flag removed
    out = tmp_path / "p.json"
    for strategy in ("mc", "s1"):  # mc ignored the cap and exited 0
        flags = ["--strategy", strategy, "--max-levels", "0", "--out", str(out)]
        assert main(["plan", *BENCH_FLAGS, *flags]) == 2
        assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--delta", "10", "--err", "inf", "--alpha", "1.0"],
        ["--delta", "inf", "--err", "1.0", "--alpha", "1.0"],
        ["--delta", "10", "--err", "1.0", "--alpha", "1.0", "--sigma", "inf"],
        ["--delta", "10", "--err", "1.0", "--alpha", "1e308"],
    ],
)
def test_plan_inputs_that_are_not_finite_or_overflow_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "plans.json"
    assert main(["plan", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# pilot
# ---------------------------------------------------------------------------

def test_pilot_writes_parameters(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale", "spec": {"max_level": 8}}})
    out = tmp_path / "params.json"
    rc = main(["pilot", "--config", str(cfg), "--samples", "256", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    params = json.loads(out.read_text())
    assert params["alpha"] == pytest.approx(1.0, abs=1e-12)
    assert params["delta"] > 0 and params["e"] > 0


def test_pilot_uses_the_configured_workers(tmp_path, monkeypatch):
    from mlmckit import cli

    seen = []
    pilot = cli.pilot_estimate_parameters

    def spy(*args, **kwargs):
        seen.append(kwargs.get("workers"))
        return pilot(*args, **kwargs)

    monkeypatch.setattr(cli, "pilot_estimate_parameters", spy)
    outs = []
    # A config without workers passes None, the executor's default.
    for workers in (1, 2, None):
        cfg = tmp_path / f"cfg{workers}.json"
        _write(cfg, {"model": {"kind": "two_scale"}, "workers": workers})
        outs.append(tmp_path / f"params{workers}.json")
        rc = main(["pilot", "--config", str(cfg), "--samples", "40000", "--out", str(outs[-1])])
        assert rc == 0
    assert seen == [1, 2, None]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert RunConfig.from_json_dict({"model": {"kind": "two_scale"}}).workers is None
    # The inline pilot of ``run`` passes them too.
    cfg = _two_scale_cfg(tmp_path, workers=2)
    assert main(["run", "--config", str(cfg)]) == 0
    assert seen == [1, 2, None, 2]


def test_pilot_degenerate_model_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "gbm", "spec": {"vol": 0.0}}})
    rc = main(["pilot", "--config", str(cfg), "--samples", "64"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, S0, what",
    [
        (["run", "--strategy", "mc"], 1e308, "term 1"),  # the mean's fsum overflows
        (["pilot"], 1e307, "pilot"),  # a squared deviation overflows
    ],
)
def test_statistics_that_overflow_exit_3(tmp_path, capsys, argv, S0, what):
    cfg = tmp_path / "cfg.json"
    _write(cfg, {
        "model": {"kind": "gbm", "spec": {"S0": S0}},
        "parameters": {"delta": 1.0, "e": 0.1, "alpha": 1.0},
        "pilot_samples": 64,
        "workers": 1,
    })
    assert main([argv[0], "--config", str(cfg), *argv[1:], "--out", "out.json"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {what} statistics overflow a float")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["pilot", "run"])
@pytest.mark.parametrize(
    "entry",
    [
        {"workers": [1]},
        {"base_seed": {}},
        {"pilot_samples": 1e400},
        {"strategy": ["s1"]},
        {"plan": 5},
        {"parameters": {"delta": [1], "e": 0.1, "alpha": 1.0}},
        {"out": 7},
        {"sample_log": 7},
        {"log_samples": True},  # the switch went; a sample_log path alone logs
    ],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, command, entry):
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "strategy": "s1", **entry})
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_forcing_range_that_is_not_a_pair_exits_2_and_names_it(tmp_path, capsys):
    # Its stderr was only "error: too many values to unpack (expected 2)".
    cfg = tmp_path / "cfg.json"
    model = {"kind": "burgers", "spec": {"forcing": {"k_range": [1, 2, 3]}}}
    _write(cfg, {"model": model, "strategy": "s1"})
    assert main(["run", "--config", str(cfg), "--out", "r.json"]) == 2
    assert capsys.readouterr().err == (
        "error: k_range must be an integer interval [lo, hi], got [1, 2, 3]\n"
    )
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "two_scale", "spec": {"max_level": 3.5}},
        {"kind": "gbm", "spec": {"max_level": 3.5}},
        {"kind": "gbm", "spec": {"vol": float("nan")}},
        {"kind": "gbm", "spec": {"r_drift": float("inf")}},
        {"kind": "gbm", "spec": {"vol": True}},
        {"kind": "two_scale", "spec": {"alpha": float("nan")}},
        {"kind": "two_scale", "spec": {"amp": True}},
        {"kind": "two_scale", "spec": {"max_lvl": 4}},
        {"kind": "burgers", "spec": {"forcing": {"HH": 1.0, "k_rnage": [1, 2]}}},
        {"kind": "burgers", "spec": {"forcing": {"H": "5"}}},
        {"kind": "burgers", "spec": {"forcing": {"H": float("nan")}}},
        {"kind": "burgers", "spec": {"forcing": {"H": float("inf")}}},
        {"kind": "burgers", "spec": {"forcing": {"H": True}}},
        {"kind": "burgers", "spec": {"forcing": {"H": 5.0, "Lx": 1.0}}},
        {"kind": "burgers", "spec": {"forcing": {"H": 5.0, "Ly": 1.0}}},
        {"kind": "burgers", "spec": {"viscosity": float("inf")}},
        {"kind": "burgers", "spec": {"viscosity": True}},
        {"kind": "gbm", "sepc": {"vol": 0.3}},
        {"kind": "two_scale", "spec": False},
        {"kind": "two_scale", "spec": []},
    ],
    ids=[
        "two_scale_max_level",
        "gbm_max_level",
        "gbm_vol",
        "gbm_r_drift",
        "gbm_vol_bool",
        "two_scale_alpha",
        "two_scale_amp_bool",
        "two_scale_unknown_key",
        "burgers_forcing_unknown_key",
        "burgers_forcing_string",
        "burgers_forcing_nan",
        "burgers_forcing_inf",
        "burgers_forcing_bool",
        "burgers_forcing_Lx",
        "burgers_forcing_Ly",
        "burgers_viscosity_inf",
        "burgers_viscosity_bool",
        "model_unknown_key",
        "spec_false",
        "spec_list",
    ],
)
def test_model_spec_values_a_run_cannot_use_exit_2(tmp_path, capsys, model):
    # A two_scale "max_level": 3.5 was truncated to 3 and ran; a misspelt
    # two_scale, forcing or model key was ignored and the run took the
    # defaults, and so did a spec of false or [].
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "strategy": "s1"}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"strategy": "s1"}, 'config is missing the required "model" entry'),
        ({"model": {"kind": "two_scale"}}, 'config needs a "strategy" when no plan is embedded'),
    ],
    ids=["no_model", "no_plan_nor_strategy"],
)
def test_run_config_without_a_required_entry_exits_2(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    _write(cfg, config)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_pilot_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["pilot", "--config", str(cfg)]) == 2
    _write(cfg, {"model": {"kind": "heat"}})
    assert main(["pilot", "--config", str(cfg)]) == 2
    _write(cfg, {"model": {"kind": "two_scale"}, "bogus_key": 1})
    assert main(["pilot", "--config", str(cfg)]) == 2
    _write(cfg, {"model": {"kind": "gbm", "spec": {"vol": True}}})  # ran as vol = 1
    assert main(["pilot", "--config", str(cfg), "--out", str(tmp_path / "p.json")]) == 2
    assert main(["pilot", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "-1"],
        ["run", "--workers", "0"],
        ["pilot", "--samples", "1"],
        ["pilot", "--seed", "-3"],
    ],
)
def test_flag_values_out_of_range_exit_2(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "strategy": "s1"})
    assert main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["pilot", "run"])
def test_a_command_parses_its_config_once(tmp_path, monkeypatch, command):
    # The config's model was built three times (to validate the config, to
    # validate the flag overrides, to run), then twice (to check, to run).
    from mlmckit import cli

    build, built = cli.model_from_config, []

    def spy(d):
        built.append(d)
        return build(d)

    monkeypatch.setattr(cli, "model_from_config", spy)
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "strategy": "s1", "pilot_samples": 64})
    assert main([command, "--config", str(cfg), "--seed", "3"]) == 0
    # Once, after the outputs are checked: the run uses the model it checked.
    assert len(built) == 1


@pytest.mark.parametrize(
    "command, entry, key",
    [
        ("run", {"parameters": {"delta": 1.0}}, "parameters"),
        ("run", {"plan": {"strategy": "S1", "error_bound_multiplier": 1.0}}, "plan"),
        # A pilot ignores the plan, but every entry is built before any work.
        ("pilot", {"plan": {"strategy": "S1", "error_bound_multiplier": 1.0}}, "plan"),
    ],
    ids=["parameters_without_e", "plan_without_M", "pilot_plan_without_M"],
)
def test_an_entry_of_the_wrong_shape_exits_2_as_malformed(
    tmp_path, capsys, command, entry, key
):
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "strategy": "s1", **entry})
    assert main([command, "--config", str(cfg), "--out", "out.json"]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed {key} ")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_an_unwritable_out_exits_2_before_the_model_is_built(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "model_from_config", built.append)
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "strategy": "s1"})
    assert main(["run", "--config", str(cfg), "--out", "/nonexistent/dir/r.json"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write /nonexistent/dir/r.json: no directory /nonexistent/dir\n"
    )
    assert built == []


def test_two_outputs_that_name_one_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "strategy": "s1"})
    argv = ["run", "--config", str(cfg), "--sample-log", "r.json", "--out", "./r.json"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cannot write r.json: it is the same file as ./r.json\n"
    )


NO_DIR = "/nonexistent/dir/x.json"


@pytest.mark.parametrize(
    "argv, entries",
    [
        (["plan", *BENCH_FLAGS, "--out", NO_DIR], {}),
        (["pilot", "--out", NO_DIR], {}),
        (["pilot", "--out", "."], {}),
        (["run", "--out", NO_DIR], {}),
        (["run", "--out", "."], {}),
        (["run", "--out", ""], {}),
        (["run", "--sample-log", NO_DIR], {}),
        (["run"], {"out": NO_DIR}),
        (["run"], {"sample_log": NO_DIR}),
        # A sample log at the report's path: the report overwrote the log.
        (["run"], {"sample_log": "r.json", "out": "r.json"}),
        (["run", "--sample-log", "r.json", "--out", "./r.json"], {}),
        # An output at the config's path: the output overwrote the config.
        (["run", "--out", "cfg.json"], {}),
        (["pilot", "--out", "cfg.json"], {}),
        (["run"], {"out": "cfg.json"}),
        (["run"], {"sample_log": "cfg.json"}),
    ],
)
def test_an_output_that_cannot_be_written_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, argv, entries
):
    monkeypatch.chdir(tmp_path)
    calls = []
    evaluate = models.TwoScaleModel.evaluate_levels

    def spy(self, levels, seeds):
        calls.append(len(seeds))
        return evaluate(self, levels, seeds)

    monkeypatch.setattr(models.TwoScaleModel, "evaluate_levels", spy)
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "strategy": "s1", "pilot_samples": 64, **entries})
    config = cfg.read_bytes()
    if argv[0] != "plan":
        argv = [argv[0], "--config", str(cfg), *argv[1:]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert calls == []
    assert os.listdir(tmp_path) == ["cfg.json"]
    assert cfg.read_bytes() == config


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _two_scale_cfg(tmp_path, **extra):
    cfg = tmp_path / "run.json"
    body = {
        "model": {"kind": "two_scale", "spec": {"max_level": 10}},
        "strategy": "s1",
        "pilot_samples": 200,
        "base_seed": 17,
        "out": str(tmp_path / "report.json"),
    }
    body.update(extra)
    _write(cfg, body)
    return cfg


def test_run_inline_pilot_then_plan(tmp_path, capsys):
    cfg = _two_scale_cfg(tmp_path)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["plan"]["strategy"] == "S1"
    assert report["plan"]["inputs"]["alpha"] == pytest.approx(1.0, abs=1e-12)
    assert report["estimated_std_error"] > 0
    assert report["a_priori_error_bound"] == pytest.approx(
        report["plan"]["error_bound_multiplier"] * report["plan"]["inputs"]["e"]
    )
    out = capsys.readouterr().out
    assert "wall time" in out
    assert "wrote" in out


def test_run_with_explicit_parameters_skips_pilot(tmp_path):
    cfg = _two_scale_cfg(
        tmp_path,
        parameters={"delta": 2.0, "e": 0.25, "alpha": 1.0, "sigma": 1.0},
        strategy="s2",
    )
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["plan"]["strategy"] == "S2"
    assert report["plan"]["inputs"]["delta"] == 2.0


def test_run_with_embedded_plan(tmp_path):
    plans = tmp_path / "plans.json"
    assert main(["plan", "--delta", "2.0", "--err", "0.25", "--alpha", "1.0",
                 "--strategy", "s2", "--out", str(plans)]) == 0
    plan = json.loads(plans.read_text())["plans"][0]
    cfg = _two_scale_cfg(tmp_path, plan=plan, strategy="s2")
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["plan"]["M"] == plan["M"]


def test_run_strategy_plan_mismatch_exits_2(tmp_path, capsys):
    plans = tmp_path / "plans.json"
    main(["plan", "--delta", "2.0", "--err", "0.25", "--alpha", "1.0",
          "--strategy", "s2", "--out", str(plans)])
    plan = json.loads(plans.read_text())["plans"][0]
    cfg = _two_scale_cfg(tmp_path, plan=plan, strategy="s1")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_every_plan_the_plan_command_writes_runs_embedded(tmp_path):
    plans = tmp_path / "plans.json"
    assert main(["plan", "--delta", "2.0", "--err", "0.25", "--alpha", "1.0",
                 "--out", str(plans)]) == 0
    written = json.loads(plans.read_text())["plans"]
    assert len(written) == 5
    for plan in written:
        cfg = _two_scale_cfg(tmp_path, plan=plan, strategy=None)
        assert main(["run", "--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["plan"] == plan


@pytest.mark.parametrize(
    "parameters",
    [
        {"delta": "0.5", "e": True, "alpha": 1},
        {"delta": 1.0, "e": "0.1", "alpha": 1.0},
        {"delta": 1.0, "e": 0.1, "alpha": False},
        {"delta": 1.0, "e": 0.1, "alpha": 1.0, "sigma": "1"},
    ],
)
def test_run_parameters_that_are_bools_or_strings_exit_2(tmp_path, capsys, parameters):
    # {"delta": "0.5", "e": true, "alpha": 1} once ran with e = 1.0.
    cfg = _two_scale_cfg(tmp_path, parameters=parameters)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# A two-term plan: load 1 (1 + 1/8) + 3/8.
TWO_TERMS = {"strategy": "S2", "L": 2, "M": [1, 3], "M_total": [1, 4],
             "error_bound_multiplier": 4.0, "relative_load": 1.5, "inputs": None}


@pytest.mark.parametrize(
    "entry",
    [
        # Bools and numeric strings: {"L": "2", "M": [true, "3"], ...} once ran
        # as L = 2 and M = (1, 3).
        {"L": "2"},
        {"L": 2.5},
        {"M": [True, "3"]},
        {"M": [1, "3"]},
        {"M_total": [True, 4]},
        {"error_bound_multiplier": "4"},
        {"error_bound_multiplier": True},
        {"relative_load": "1.5"},
        # Copies of what M gives that contradict it.
        {"L": 3},
        {"M_total": [1, 3]},
        {"relative_load": 1.25},
        # A classical plan has one term; this one ran M[0] and reported M.
        {"strategy": "ClassicalMC"},
        # An unknown key was ignored and the plan ran.
        {"bogus": 1},
    ],
)
def test_run_embedded_plan_with_bad_fields_exits_2(tmp_path, capsys, entry):
    cfg = _two_scale_cfg(tmp_path, plan=TWO_TERMS, strategy=None)
    assert main(["run", "--config", str(cfg)]) == 0
    cfg = _two_scale_cfg(tmp_path, plan={**TWO_TERMS, **entry}, strategy=None)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "bad.json")]) == 2
    (key,) = entry
    assert key in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


def test_run_reruns_byte_identical(tmp_path):
    cfg = _two_scale_cfg(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # a different seed must change the payload
    out3 = tmp_path / "r3.json"
    assert main(["run", "--config", str(cfg), "--seed", "99", "--out", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_run_classical_strategy(tmp_path):
    # From an inline pilot and from explicit parameters: a classical run is
    # at level 1, the level its plan is sized and priced for.
    params = {"delta": 1.5, "e": 0.05, "alpha": 1.0}
    for extra in ({}, {"parameters": params}):
        cfg = _two_scale_cfg(tmp_path, strategy="mc", **extra)
        assert main(["run", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["plan"]["strategy"] == "ClassicalMC"
        assert report["plan"]["L"] == 1
        assert report["seeds"]["terms"][0]["levels"] == [1]
        assert report["plan"]["relative_load"] == report["realized_load"]
        # planning inputs survive onto the executed classical report
        assert report["a_priori_error_bound"] == 2.0 * report["plan"]["inputs"]["e"]
    assert report["plan"]["inputs"]["e"] == params["e"]


def test_a_config_naming_classical_level_exits_2(tmp_path, capsys):
    # The key ran level 2 under the level-1 plan, and its report read a
    # relative_load of 100.0 next to a realized_load of 12.5.
    cfg = _two_scale_cfg(
        tmp_path, strategy="mc", parameters={"delta": 1.0, "e": 0.1, "alpha": 1.0},
        classical_level=2,
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown config keys: ['classical_level']" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_whole_number_floats_in_a_config_run_as_integers(tmp_path, capsys):
    # A whole-number float such as "workers": 2.0 once ran the whole
    # ensemble and then exited 2.
    reports = []
    for number in (2, 2.0):
        cfg = _two_scale_cfg(
            tmp_path, strategy="mc", workers=number, pilot_samples=200.0, base_seed=17.0,
        )
        assert main(["run", "--config", str(cfg)]) == 0
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]
    raw = {"model": {"kind": "two_scale"}, "pilot_samples": 300.0, "workers": 2.0}
    cfg = RunConfig.from_json_dict(raw)
    assert (cfg.pilot_samples, cfg.workers) == (300, 2)
    assert type(cfg.pilot_samples) is int and type(cfg.workers) is int
    for bad in (2.5, True):
        cfg = _two_scale_cfg(tmp_path, strategy="mc", workers=bad)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "workers must be an integer" in capsys.readouterr().err


def test_run_sample_log_flag(tmp_path):
    log = tmp_path / "log.csv"
    cfg = _two_scale_cfg(tmp_path)
    rc = main(["run", "--config", str(cfg), "--sample-log", str(log)])
    assert rc == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "term,level,sample_index,seed,value"
    report = json.loads((tmp_path / "report.json").read_text())
    expected = sum(
        t["count"] * len(t["levels"]) for t in report["seeds"]["terms"]
    )
    assert len(lines) == 1 + expected


def test_a_sample_log_path_in_the_config_turns_the_log_on(tmp_path):
    # A config whose only log entry was "sample_log" ran without a log.
    cfg = _two_scale_cfg(tmp_path, sample_log=str(tmp_path / "config.csv"))
    assert main(["run", "--config", str(cfg)]) == 0
    cfg = _two_scale_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--sample-log", str(tmp_path / "flag.csv")]) == 0
    logged = (tmp_path / "config.csv").read_bytes()
    assert logged.startswith(b"term,level,sample_index,seed,value\r\n")
    assert logged == (tmp_path / "flag.csv").read_bytes()


def test_the_removed_log_samples_flag_exits_2(tmp_path, capsys):
    cfg = _two_scale_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--log-samples"]) == 2
    assert "error: unrecognized arguments: --log-samples" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


class OverflowModel(QoIModel):
    """U = s 1e308 at level 1 and -s 1e308 at levels 2 and 3: finite values
    whose coupled difference of levels 1 and 2 overflows.  s is +1, or with
    ``alternate`` +-1 by a seed's parity (base seed 0's first four seeds
    alternate)."""

    max_level = 3

    def __init__(self, alternate):
        self.alternate = alternate

    def evaluate_many(self, level, seeds):
        seeds = np.asarray(seeds, dtype=np.uint64)
        s = 1.0 - 2.0 * (seeds % 2) if self.alternate else np.ones(seeds.size)
        return (1e308 if level == 1 else -1e308) * s


@pytest.mark.parametrize("alternate", [False, True], ids=["equal", "alternating"])
@pytest.mark.parametrize(
    "argv", [["run", "--workers", "1"], ["run", "--workers", "2"], ["pilot", "--samples", "4"]]
)
def test_a_coupled_difference_that_overflows_exits_3(
    tmp_path, capsys, monkeypatch, argv, alternate
):
    # Equal signs wrote a report holding the non-JSON Infinity; alternating
    # ones raised "-inf + inf in fsum", which exited 2 as a usage error.
    monkeypatch.setattr(cli, "model_from_config", lambda d: OverflowModel(alternate))
    plan = {**TWO_TERMS, "M": [4, 1], "M_total": [4, 5], "relative_load": 4.625}
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "plan": plan})
    assert main([argv[0], "--config", str(cfg), *argv[1:], "--out", "r.json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: levels 1-2 coupled difference overflows a float at seed ")
    assert not (tmp_path / "r.json").exists()


def test_run_parameters_with_an_unknown_key_exit_2(tmp_path, capsys):
    # A misspelt sigma was ignored: the S3 run planned with sigma = 1.0.
    parameters = {"delta": 1.4, "e": 0.05, "alpha": 1.0, "sigme": 3.0}
    cfg = _two_scale_cfg(tmp_path, parameters=parameters, strategy="s3")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown parameters keys: ['sigme']" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("strategy", ["s1", "mc"])
def test_run_parameters_whose_plan_overflows_exit_2(tmp_path, capsys, strategy):
    cfg = _two_scale_cfg(
        tmp_path, parameters={"delta": 1e300, "e": 1e-300, "alpha": 1.0}, strategy=strategy
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot size a plan")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "command, entry",
    [
        ("run", {"strategy": "mc", "parameters": {"delta": 1.0, "e": 3e-9, "alpha": 1.0}}),
        ("pilot", {"pilot_samples": 1e17}),
        ("run", {"strategy": "s1", "pilot_samples": 1e17}),
    ],
    ids=["run_plan", "pilot", "run_inline_pilot"],
)
def test_a_plan_or_pilot_too_large_to_allocate_exits_2(tmp_path, capsys, command, entry):
    # A term of 1.1e17 values (789 PiB) and a pilot of 1e17 (1.39 EiB): past
    # what a 64-bit address space can map, so the allocation fails at once.
    # Each printed numpy's traceback and exited 1.
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, **entry})
    assert main([command, "--config", str(cfg), "--out", "out.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def test_run_model_failure_exits_4(tmp_path, capsys):
    cfg = tmp_path / "burgers.json"
    plan = {
        "strategy": "S1",
        "L": 1,
        "M": [2],
        "M_total": [2],
        "error_bound_multiplier": 3.0,
        "relative_load": 2.0,
        "inputs": None,
    }
    _write(cfg, {
        "model": {
            "kind": "burgers",
            "spec": {
                "cells_at_finest": 32,
                "max_level": 1,
                "forcing": {"H": 500.0, "k_range": [2, 6], "l_range": [4, 20]},
            },
        },
        "plan": plan,
        "out": str(tmp_path / "r.json"),
    })
    rc = main(["run", "--config", str(cfg)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "level=1" in err and "seed=" in err


def test_run_plan_deeper_than_model_exits_2(tmp_path, capsys):
    cfg = _two_scale_cfg(tmp_path, model={"kind": "two_scale", "spec": {"max_level": 2}})
    # the inline pilot needs 3 levels, so this dies while planning
    assert main(["run", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_run_embedded_plan_deeper_than_model_exits_2(tmp_path, capsys):
    plan = {
        "strategy": "S1",
        "L": 3,
        "M": [8, 8, 8],
        "M_total": [8, 16, 16],
        "error_bound_multiplier": 3.0,
        "relative_load": 10.25,
        "inputs": None,
    }
    cfg = _two_scale_cfg(
        tmp_path, model={"kind": "two_scale", "spec": {"max_level": 2}}, plan=plan
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "max_level=2" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _fake_report(strategy, load, estimate=1.0):
    return {
        "plan": {"strategy": strategy, "L": 1, "M": [1], "M_total": [1],
                 "error_bound_multiplier": 2.0, "relative_load": load,
                 "inputs": None},
        "term_stats": [],
        "estimate": estimate,
        "estimated_std_error": 0.01,
        "a_priori_error_bound": 0.5,
        "realized_load": load,
        "seeds": {},
    }


def test_report_table_prints_each_reports_own_fields(tmp_path, capsys):
    a = tmp_path / "mc.json"
    b = tmp_path / "s1.json"
    _write(a, _fake_report("ClassicalMC", 100.0))
    _write(b, _fake_report("S1", 38.0))
    rc = main(["report", str(a), str(b)])
    assert rc == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    # No savings column: load is the DOF law's count, not a measured cost.
    assert header.split() == ["report", "strategy", "estimate", "std_err", "bound", "load"]
    assert rule == "-" * len(header)
    assert [row.split()[1:] for row in rows] == [
        ["ClassicalMC", "1", "0.01", "0.5", "100"],
        ["S1", "1", "0.01", "0.5", "38"],
    ]


def test_a_null_realized_load_prints_a_dash_in_the_load_column(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write(a, {**_fake_report("ClassicalMC", 100.0), "realized_load": None})
    _write(b, _fake_report("S1", 38.0))
    assert main(["report", str(a), str(b)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[-1] for row in rows] == ["-", "38"]


def test_report_on_real_run_output(tmp_path, capsys):
    cfg = _two_scale_cfg(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["report", str(tmp_path / "report.json")]) == 0
    assert "S1" in capsys.readouterr().out


def test_report_malformed_exits_5(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["report", str(bad)]) == 5
    _write(bad, {"estimate": 1.0})  # missing fields
    assert main(["report", str(bad)]) == 5
    _write(bad, {**_fake_report("S1", 10.0), "realized_load": "noon"})
    assert main(["report", str(bad)]) == 5
    _write(bad, {**_fake_report("S1", 10.0), "estimate": True})  # printed as 1
    assert main(["report", str(bad)]) == 5
    # Each of these once printed a traceback and exited 1, or printed "nan".
    for entry in (
        {"estimate": 10**400},  # too large for a float
        {"realized_load": -(10**400)},
        {"estimated_std_error": math.nan},
        *({"plan": {**_fake_report("S1", 10.0)["plan"], "strategy": s}}
          for s in (None, ["S1"], {"S1": 1})),
    ):
        _write(bad, {**_fake_report("S1", 10.0), **entry})
        assert main(["report", str(bad)]) == 5
        assert "error: malformed report: " in capsys.readouterr().err
    # Past the interpreter's digit limit, and not UTF-8: both once exited 2.
    bad.write_text('{"estimate": ' + "1" * 5000 + "}")
    assert main(["report", str(bad)]) == 5
    bad.write_bytes(b'{"estimate": "\xff"}')
    assert main(["report", str(bad)]) == 5
    assert main(["report", str(tmp_path / "absent.json")]) == 5
    _write(bad, [_fake_report("S1", 10.0)])
    capsys.readouterr()
    assert main(["report", str(bad)]) == 5
    assert capsys.readouterr().err == f"error: malformed report: {bad}: report must be a JSON object\n"


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_round_trip():
    raw = {
        "model": {"kind": "two_scale", "spec": {"max_level": 6}},
        "strategy": "s3",
        "parameters": {"delta": 1.0, "e": 0.1, "alpha": 1.0, "sigma": 1.0},
        "pilot_samples": 128,
        "base_seed": 9,
        "workers": 2,
        "sample_log": "s.csv",
        "out": "r.json",
    }
    cfg = RunConfig.from_json_dict(raw)
    assert {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)} == {**raw, "plan": None}


def test_run_config_checks_itself_when_built():
    # A RunConfig built directly took workers=0, which only the executor rejected.
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        RunConfig(model={"kind": "two_scale"}, workers=0)
    with pytest.raises(ValueError, match="strategy must be one of"):
        RunConfig(model={"kind": "two_scale"}, strategy="s9")
    with pytest.raises(ValueError, match="out must be a path"):
        RunConfig(model={"kind": "two_scale"}, out=None)
    assert RunConfig(model={"kind": "two_scale"}, base_seed=3.0).base_seed == 3


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig.from_json_dict({"model": {"kind": "two_scale"}, "strategy": "s9"})
    with pytest.raises(ValueError):
        RunConfig.from_json_dict({"model": {"kind": "two_scale"}, "workers": 0})
    with pytest.raises(ValueError):
        RunConfig.from_json_dict({"model": {"kind": "two_scale"}, "pilot_samples": 1})
    with pytest.raises(ValueError):
        RunConfig.from_json_dict([1, 2])
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_json_dict({"model": {"kind": "two_scale"}, "hierarchy": {"r1": 1.0}})
