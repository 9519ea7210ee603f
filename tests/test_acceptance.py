"""End-to-end acceptance gate.

Eight binding checks covering the full surface: golden planning tables,
error-bound multipliers, parameter-estimation round trips, oracle
bracketing on the GBM testbed, inter-level variance decay on both solver
testbeds, load savings against the classical baseline, the random
topography field's statistical law, and byte-level run determinism.
Expected values are frozen; tolerances are pinned next to each assert.
"""

import json
import math
import time

import numpy as np
import pytest

from mlmckit.cli import main
from mlmckit.executor import pilot_estimate_parameters, run_classical_mc, run_mlmc
from mlmckit.models import (
    BurgersModel,
    GBMModel,
    TopographySpec,
    evaluate_topography,
    sample_topography,
)
from mlmckit.planner import LevelPlan, plan_for_strategy
from mlmckit.stats import SolutionParameters, estimate_fine_error, unbiased_variance
from mlmckit.models import TwoScaleModel

BENCH = SolutionParameters(delta=7.36e7, e=9.60e6, alpha=1.07, sigma=1.0)


# ---------------------------------------------------------------------------
# 1. golden planning table from the benchmark inputs
# ---------------------------------------------------------------------------

def test_golden_plan_table(tmp_path):
    out = tmp_path / "plans.json"
    t0 = time.monotonic()
    rc = main([
        "plan",
        "--delta", "7.36e7",
        "--err", "9.60e6",
        "--alpha", "1.07",
        "--sigma", "1.0",
        "--strategy", "all",
        "--out", str(out),
    ])
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert elapsed < 1.0
    plans = {p["strategy"]: p for p in json.loads(out.read_text())["plans"]}

    assert plans["ClassicalMC"]["M"] == [59]
    assert plans["ClassicalMC"]["relative_load"] == pytest.approx(59.0, abs=0.1)

    assert plans["S1"]["L"] == 3
    assert plans["S1"]["M"] == [11, 48, 210]
    assert plans["S1"]["relative_load"] == pytest.approx(22.4, abs=0.1)

    assert plans["S2"]["L"] == 2
    assert plans["S2"]["M"] == [11, 191]
    assert plans["S2"]["relative_load"] == pytest.approx(36.3, abs=0.1)

    assert plans["S3"]["L"] == 3
    assert plans["S3"]["M"] == [876, 763, 210]
    assert plans["S3"]["relative_load"] == pytest.approx(1096.1, abs=0.5)

    assert plans["S4"]["L"] == 2
    assert plans["S4"]["M"] == [11, 763]
    assert plans["S4"]["relative_load"] == pytest.approx(107.75, abs=1.0)

    # the implementation is deterministic, so also pin the exact loads
    assert plans["S1"]["relative_load"] == 22.40625
    assert plans["S2"]["relative_load"] == 36.25
    assert plans["S3"]["relative_load"] == 1096.078125
    assert plans["S4"]["relative_load"] == 107.75


# ---------------------------------------------------------------------------
# 2. error-bound multipliers
# ---------------------------------------------------------------------------

def test_error_bound_multipliers_exact():
    assert plan_for_strategy("ClassicalMC", BENCH).error_bound_multiplier == 2.0
    s1 = plan_for_strategy("S1", BENCH)
    assert s1.error_bound_multiplier == float(s1.L + 2) == 5.0
    assert plan_for_strategy("S2", BENCH).error_bound_multiplier == 4.0
    assert plan_for_strategy("S3", BENCH).error_bound_multiplier == 4.0  # 3 + 1/sigma
    assert plan_for_strategy("S4", BENCH).error_bound_multiplier == 4.0
    half = SolutionParameters(delta=BENCH.delta, e=BENCH.e, alpha=BENCH.alpha, sigma=0.5)
    assert plan_for_strategy("S3", half).error_bound_multiplier == 5.0
    assert plan_for_strategy("S4", half).error_bound_multiplier == 5.0


# ---------------------------------------------------------------------------
# 3. parameter-estimation round trip
# ---------------------------------------------------------------------------

def test_estimation_round_trip_on_synthetic_model():
    t0 = time.monotonic()
    params = pilot_estimate_parameters(TwoScaleModel(alpha=1.0), 10_000, base_seed=0)
    assert params.alpha == pytest.approx(1.0, abs=0.05)
    # error inversion is exact on constructed inputs
    for delta_12, alpha in [(1.0, 1.0), (3.7e5, 0.42), (2.0994, 1.07)]:
        e = estimate_fine_error(delta_12, alpha)
        assert e * math.sqrt(2.0 * (1.0 + 4.0**alpha)) == pytest.approx(
            delta_12, rel=1e-14
        )
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 4. oracle bracketing on the GBM testbed
# ---------------------------------------------------------------------------

def test_gbm_pipeline_brackets_exact_mean():
    model = GBMModel()  # S0=1, drift 0.05, vol 0.2, T=1, 256 steps, 4 levels
    exact = math.exp(0.05)
    t0 = time.monotonic()
    hits = 0
    for rep in range(100):
        params = pilot_estimate_parameters(model, 256, base_seed=rep)
        plan = plan_for_strategy("S2", params, max_levels=model.max_level)
        report = run_mlmc(model, plan, base_seed=rep)
        if abs(report.estimate - exact) <= report.a_priori_error_bound:
            hits += 1
    elapsed = time.monotonic() - t0
    assert hits >= 95, f"only {hits}/100 replications bracketed {exact}"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 5. inter-level variance decay on both solver testbeds
# ---------------------------------------------------------------------------

def _difference_spreads(model, levels, seeds):
    u = {lv: np.asarray(model.evaluate_many(lv, seeds)) for lv in levels}
    return [
        math.sqrt(unbiased_variance((u[l] - u[l + 1]).tolist()))
        for l in levels[:-1]
    ]


def test_variance_decay_gbm():
    seeds = np.arange(2024, 2024 + 64, dtype=np.uint64)
    spreads = _difference_spreads(GBMModel(), [1, 2, 3, 4], seeds)
    assert spreads[0] < spreads[1] < spreads[2]


def test_variance_decay_burgers():
    seeds = np.arange(2024, 2024 + 64, dtype=np.uint64)
    spreads = _difference_spreads(BurgersModel(), [1, 2, 3, 4], seeds)
    assert spreads[0] < spreads[1] < spreads[2]


# ---------------------------------------------------------------------------
# 6. load savings against the classical baseline at matched accuracy
# ---------------------------------------------------------------------------

def test_multilevel_saves_load_at_matched_accuracy():
    model = GBMModel()
    plan = plan_for_strategy("S1", BENCH)  # (11, 48, 210) across 3 of the 4 levels
    classical_m = plan_for_strategy("ClassicalMC", BENCH).M[0]  # 59 finest-level solves

    mc = run_classical_mc(model, 1, classical_m, base_seed=0)
    ml = run_mlmc(model, plan, base_seed=0)

    combined_se = math.hypot(mc.estimated_std_error, ml.estimated_std_error)
    assert abs(mc.estimate - ml.estimate) <= 3.0 * combined_se
    assert ml.realized_load <= 0.45 * mc.realized_load
    assert ml.realized_load / mc.realized_load == pytest.approx(0.3798, abs=1e-3)


# ---------------------------------------------------------------------------
# 7. random topography field statistics
# ---------------------------------------------------------------------------

def test_topography_field_statistical_law():
    spec = TopographySpec()
    assert spec.coefficient_count == 578

    # vanishing on the meridional boundaries: 100 probes x 100 seeds
    rng = np.random.default_rng(12345)
    xs = rng.uniform(0.0, spec.Lx, size=100)
    for seed in range(100):
        sample = sample_topography(spec, seed)
        south = evaluate_topography(sample, xs, np.zeros_like(xs))
        north = evaluate_topography(sample, xs, np.full_like(xs, spec.Ly))
        assert np.all(south == 0.0)
        assert np.max(np.abs(north)) < 1e-9  # sin(l pi) float residue only

    # pointwise Monte Carlo mean at 10 probes: zero within 4 sigma / sqrt(N)
    n = 10_000
    probe_x = (np.arange(10) + 0.5) * spec.Lx / 10.0
    probe_y = (np.arange(10) + 0.5) * spec.Ly / 10.0
    acc = np.zeros(10)
    for seed in range(n):
        acc += evaluate_topography(sample_topography(spec, seed), probe_x, probe_y)
    mean = acc / n
    for j in range(10):
        sd = math.sqrt(
            sum(
                (spec.H / (k * k + l * l)) ** 2
                * math.sin(math.pi * l * probe_y[j] / spec.Ly) ** 2
                for k in range(spec.k_range[0], spec.k_range[1] + 1)
                for l in range(spec.l_range[0], spec.l_range[1] + 1)
            )
        )
        assert abs(mean[j]) <= 4.0 * sd / math.sqrt(n)


# ---------------------------------------------------------------------------
# 8. byte-identical reports across worker counts
# ---------------------------------------------------------------------------

def test_reports_byte_identical_for_any_worker_count(tmp_path):
    model = TwoScaleModel()
    # None is the default, the usable CPUs.  The pilot and the coarse term
    # span several chunks, so the helpers take some of them.
    workers = (1, 2, 3, 4, None)
    pilots = [pilot_estimate_parameters(model, 40000, base_seed=3, workers=w) for w in workers]
    assert all(p == pilots[0] for p in pilots)
    params = pilots[0]
    base = plan_for_strategy("S2", params, max_levels=model.max_level)
    plan = LevelPlan(
        strategy=base.strategy,
        L=2,
        M=(6000, 40000),
        M_total=(6000, 46000),
        error_bound_multiplier=base.error_bound_multiplier,
        relative_load=0.0,
        inputs=params,
    )
    payloads, logs = set(), set()
    for i, w in enumerate(workers):
        log = tmp_path / f"samples{i}.csv"
        report = run_mlmc(model, plan, base_seed=42, workers=w, sample_log_path=str(log))
        payloads.add(json.dumps(report.to_json_dict()))
        logs.add(log.read_bytes())
    assert len(payloads) == len(logs) == 1

    # and end to end through the command-line front end
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "gbm"},
        "strategy": "s2",
        "pilot_samples": 128,
        "base_seed": 7,
    }))
    outs = []
    for flags, name in [(["--workers", "1"], "a.json"), (["--workers", "4"], "b.json"), ([], "c.json")]:
        out = tmp_path / name
        rc = main(["run", "--config", str(cfg), *flags, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
