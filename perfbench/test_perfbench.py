"""Tests of the benchmark itself, at small sizes: every workload passes its
checks, a biased model makes each workload's checks fail, a failed call is
counted without stopping the run, and the tracer's solve counts add up."""

import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402
from mlmckit import cli  # noqa: E402
from mlmckit.executor import QoIModel  # noqa: E402

SMALL = {
    "gbm_capped": lambda tmp: workloads.GbmCapped(pilot_samples=256, e_factor=4.0),
    "twoscale_cli": lambda tmp: workloads.TwoScaleCli(
        e_divisor=3.0, pilot_samples=256, out_dir=str(tmp)
    ),
}


def small(name, tmp_path):
    return SMALL[name](tmp_path).setup()


def test_every_workload_has_a_small_size():
    assert sorted(SMALL) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_passes_its_checks(name, tmp_path):
    calls, rounds, layers, failure = run.measure(small(name, tmp_path), 5, 0.0, trace=False)
    assert failure is None
    assert (calls.failed, len(rounds), layers) == (0, 1, [])
    r = rounds[0]
    assert 0 < r.run_s <= r.pipeline_s and r.classical_s > 0 and r.solves > 0


class Biased(QoIModel):
    """Adds a constant to every QoI of ``model``."""

    def __init__(self, model, bias):
        self.model = model
        self.bias = bias
        self.max_level = model.max_level

    def evaluate(self, level, seed):
        return self.model.evaluate(level, seed) + self.bias

    def evaluate_many(self, level, seeds):
        return self.model.evaluate_many(level, seeds) + self.bias

    def cost_hint(self, level):
        return self.model.cost_hint(level)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_biased_model_fails_the_checks(name, tmp_path, monkeypatch):
    real = workloads.model_from_config

    def biased(d):
        return Biased(real(d), 0.5)

    monkeypatch.setattr(workloads, "model_from_config", biased)
    monkeypatch.setattr(cli, "model_from_config", biased)
    w = small(name, tmp_path)
    r = w.round(run.round_seed(5, 0), workloads.Calls())
    with pytest.raises(workloads.CheckFailed):
        w.check(r.outputs)
        w.check_pooled()


class Failing(Biased):
    """Raises on every evaluation."""

    def evaluate(self, level, seed):
        raise FloatingPointError("blow-up")

    def evaluate_many(self, level, seeds):
        raise FloatingPointError("blow-up")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_failed_call_is_counted_and_the_run_goes_on(name, tmp_path, monkeypatch):
    real = workloads.model_from_config

    def failing(d):
        return Failing(real(d), 0.0)

    monkeypatch.setattr(workloads, "model_from_config", failing)
    monkeypatch.setattr(cli, "model_from_config", failing)
    calls, rounds, layers, failure = run.measure(small(name, tmp_path), 5, 0.0, trace=False)
    assert (calls.attempted, calls.failed, rounds, failure) == (1, 1, [], None)


def test_traced_solves_add_up(tmp_path):
    w = small("gbm_capped", tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        r = w.round(run.round_seed(5, 0), workloads.Calls())
    m = tracer.metrics()
    assert set(m) | {"trace.overhead_s"} == {name for name, _ in tracing.PER_LAYER}
    report, classical = r.outputs["report"], r.outputs["classical"]
    expected = (
        3 * w.pilot_samples
        + workloads.solves_in(report.seeds)
        + w.classical_repeats * classical.term_stats[0].count
    )
    assert sum(m[f"models.solves.l{n}"] for n in tracing.LEVELS) == expected
    assert m["bits.normal_lanes.normals"] == 256 * expected
    assert m["planner.L"] == report.plan.L
    assert 0 < m["executor.run_mlmc.self_s"] < m["executor.run_mlmc.s"]
    assert m["cli.run.s"] == 0


def test_traced_cli_round_reaches_every_cli_entry_point(tmp_path):
    w = small("twoscale_cli", tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        r = w.round(run.round_seed(5, 0), workloads.Calls())
    m = tracer.metrics()
    assert min(m["cli.pilot.s"], m["cli.run.s"], m["cli.report.s"], m["cli.json.bytes"]) > 0
    assert m["cli.run.s"] > m["executor.run_mlmc.s"] + m["executor.run_classical_mc.s"]
    assert m["planner.L"] == r.outputs["report"]["plan"]["L"]
