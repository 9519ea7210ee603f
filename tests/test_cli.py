import dataclasses
import json

import pytest

from mlmckit.cli import RunConfig, main

BENCH_FLAGS = ["--delta", "7.36e7", "--err", "9.60e6", "--alpha", "1.07"]


def _write(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


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
        {"sample_log": 7, "log_samples": True},
    ],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, monkeypatch, command, entry):
    monkeypatch.chdir(tmp_path)  # the default output paths are relative
    cfg = tmp_path / "cfg.json"
    _write(cfg, {"model": {"kind": "two_scale"}, "strategy": "s1", **entry})
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "two_scale", "spec": {"max_level": 3.5}},
        {"kind": "gbm", "spec": {"max_level": 3.5}},
        {"kind": "gbm", "spec": {"vol": float("nan")}},
        {"kind": "gbm", "spec": {"r_drift": float("inf")}},
        {"kind": "two_scale", "spec": {"alpha": float("nan")}},
        {"kind": "two_scale", "spec": {"max_lvl": 4}},
        {"kind": "burgers", "spec": {"forcing": {"Lx": 1.0, "HH": 1.0, "k_rnage": [1, 2]}}},
        {"kind": "burgers", "spec": {"forcing": {"H": "5", "Lx": 1.0, "Ly": 1.0}}},
    ],
    ids=[
        "two_scale_max_level",
        "gbm_max_level",
        "gbm_vol",
        "gbm_r_drift",
        "two_scale_alpha",
        "two_scale_unknown_key",
        "burgers_forcing_unknown_key",
        "burgers_forcing_string",
    ],
)
def test_model_spec_values_a_run_cannot_use_exit_2(tmp_path, capsys, model):
    # A two_scale "max_level": 3.5 was truncated to 3 and ran; a misspelt
    # two_scale or forcing key was ignored and the run took the defaults.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "strategy": "s1"}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r.json").exists()


def test_pilot_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["pilot", "--config", str(cfg)]) == 2
    _write(cfg, {"model": {"kind": "heat"}})
    assert main(["pilot", "--config", str(cfg)]) == 2
    _write(cfg, {"model": {"kind": "two_scale"}, "bogus_key": 1})
    assert main(["pilot", "--config", str(cfg)]) == 2
    assert main(["pilot", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


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
    cfg = _two_scale_cfg(tmp_path, strategy="mc", classical_level=1)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["plan"]["strategy"] == "ClassicalMC"
    assert report["plan"]["L"] == 1
    # planning inputs survive onto the executed classical report
    assert report["a_priori_error_bound"] is not None


def test_whole_number_floats_in_a_config_run_as_integers(tmp_path, capsys):
    # "classical_level": 2.0 once ran the whole ensemble and then exited 2.
    reports = []
    for number in (2, 2.0):
        cfg = _two_scale_cfg(
            tmp_path, strategy="mc", classical_level=number, workers=number,
            pilot_samples=200.0, base_seed=17.0,
        )
        assert main(["run", "--config", str(cfg)]) == 0
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["seeds"]["terms"][0]["levels"] == [2]
    raw = {"model": {"kind": "two_scale"}, "classical_level": 3.0, "workers": 2.0}
    cfg = RunConfig.from_json_dict(raw)
    assert (cfg.classical_level, cfg.workers) == (3, 2)
    assert type(cfg.classical_level) is int and type(cfg.workers) is int
    for bad in (2.5, True):
        cfg = _two_scale_cfg(tmp_path, strategy="mc", classical_level=bad)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "classical_level must be an integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("strategy", ["s1", "mc"])
def test_run_parameters_whose_plan_overflows_exit_2(tmp_path, capsys, strategy):
    cfg = _two_scale_cfg(
        tmp_path, parameters={"delta": 1e300, "e": 1e-300, "alpha": 1.0}, strategy=strategy
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot size a plan")
    assert not (tmp_path / "report.json").exists()


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
                "forcing": {"H": 500.0, "Lx": 1.0, "Ly": 1.0,
                            "k_range": [2, 6], "l_range": [4, 20]},
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
        "relative_load": 8.0,
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


def test_report_table_with_savings(tmp_path, capsys):
    a = tmp_path / "mc.json"
    b = tmp_path / "s1.json"
    _write(a, _fake_report("ClassicalMC", 100.0))
    _write(b, _fake_report("S1", 38.0))
    rc = main(["report", str(a), str(b)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ClassicalMC" in out and "S1" in out
    assert "0.0%" in out
    assert "62.0%" in out


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
    assert main(["report", str(tmp_path / "absent.json")]) == 5
    capsys.readouterr()


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
        "classical_level": 2,
        "workers": 2,
        "log_samples": True,
        "sample_log": "s.csv",
        "out": "r.json",
    }
    cfg = RunConfig.from_json_dict(raw)
    assert {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)} == {**raw, "plan": None}


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
