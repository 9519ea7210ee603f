"""Pinned SHA-256 digests of the sampling kernel's output and of run files.

The kernel digests were computed on the straightforward, allocate-per-ufunc
implementation of ``normal_lanes`` and the GBM batch path.  Any rewrite of
those kernels (in-place arithmetic, tiling, a different batch size) must
leave every bit of the output unchanged.  1000 seeds is deliberately not a
multiple of the GBM tile, so a partial last tile is covered.  The Burgers
integrator digests were computed with the scalar stepper, one seed at a
time, and the per-seed ``default_rng`` forcing that preceded the counter
lanes; the batched stepper must reproduce them from that forcing.  The
Burgers ``evaluate_many`` digests pin the forcing drawn from counter
lanes; they were computed one seed at a time and in one batch, with the
same bytes.

The report and sample-log digests were computed with the list-and-generator
statistics and the ``csv.writer`` sample log; the array statistics and the
column-built log must reproduce them byte for byte.  The classical report
digests were computed while ``run_classical_mc`` still assembled its own
report instead of sharing ``run_mlmc``'s term loop.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from mlmckit._bits import counter_seeds, normal_lanes
from mlmckit.cli import main
from mlmckit.executor import pilot_estimate_parameters, run_classical_mc, run_mlmc
from mlmckit.models import BurgersModel, BurgersSpec, GBMModel, TwoScaleModel, _burgers_integrate
from mlmckit.planner import plan_for_strategy

SEEDS = counter_seeds(2024, 0, 1000)


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def test_normal_lanes_bytes_are_pinned():
    z = normal_lanes(SEEDS, 256)
    assert z.shape == (1000, 256)
    assert _digest(z) == "48a28554acdb65f009b36e890d74adc75371790516b8fb7c1cf57fd928036a9a"


GBM_DIGESTS = {
    1: "cfc7b25b3b7b86f6aced419cd6b050c14ffad7f502f8e543453d8e02f4d2842f",
    2: "4833891d95edac724592e2505485371ca3d5d2e5fda9683d59ca33713da72739",
    3: "9e17a0e5d9c171216ef28bb7541c22b9234f1e46abc9421ae3bc64fdb1a39946",
    4: "2a011d14926663622e381526f3faf5c729a372b57f733b21c511c0d209ad9b0d",
}


@pytest.mark.parametrize("level", sorted(GBM_DIGESTS))
def test_gbm_evaluate_many_bytes_are_pinned(level):
    values = GBMModel().evaluate_many(level, SEEDS)
    assert values.shape == (1000,)
    assert _digest(values) == GBM_DIGESTS[level]


BURGERS_DIGESTS = {
    1: "2e840db375bf5f0d6786574e8145b6266cd227ad4dc0fc8f7e9dc16e2330be6f",
    2: "6d94d4a2bd38f780a81184b6c128d695c5f95ef5f1c76a439882b2bc26a67a83",
    3: "633093270508461e17e242802f51db854934c5c3ec4acbe3abba0752225b098e",
    4: "e4c15c1e47d40efae026f219662c5ce74e7f77a52d42d0bd12ab0b5e5cc02662",
}


def _generator_forcing(spec, seed, n):
    """The Burgers forcing as it was drawn before counter lanes, a reference
    copy: per seed, a ``default_rng`` draws a and b for every (k, l) mode,
    k-major, l-minor, a before b, and the l-sums of the weighted draws are
    the coefficients."""
    f = spec.forcing
    k = np.arange(f.k_range[0], f.k_range[1] + 1, dtype=float)
    l = np.arange(f.l_range[0], f.l_range[1] + 1, dtype=float)
    w = f.H / (k[:, None] ** 2 + l[None, :] ** 2)
    draws = np.random.default_rng(seed).standard_normal(2 * k.size * l.size)
    draws = draws.reshape(k.size, l.size, 2)
    A = (w * draws[:, :, 0]).sum(axis=1)
    B = (w * draws[:, :, 1]).sum(axis=1)
    x = (np.arange(n) + 0.5) * (spec.domain_length / n)
    phase = 2.0 * np.pi * np.outer(k, x) / spec.domain_length
    return A @ np.cos(phase) + B @ np.sin(phase)


@pytest.mark.parametrize("level", sorted(BURGERS_DIGESTS))
def test_burgers_integrator_bytes_are_pinned(level):
    # The batched stepper, driven by the first model's forcing, still gives
    # the scalar stepper's bits.
    spec = BurgersSpec()
    n, T = spec.cells_at_level(level), spec.time_horizon
    f = np.stack([_generator_forcing(spec, int(s), n) for s in SEEDS[:32]])
    values, _ = _burgers_integrate(
        np.zeros_like(f), f, spec.domain_length / n, spec.viscosity, T, 0.5 * T
    )
    assert values.shape == (32,)
    assert _digest(values) == BURGERS_DIGESTS[level]


# The forcing drawn from 2 n_k counter lanes per seed.
BURGERS_LANE_DIGESTS = {
    1: "a9e70d8ef2e23bdfd58da059dcd976521dacc25bb7981d5b8828cfbb8fea3196",
    2: "f39d978bf28e1ed396700db3d91409b91cbca00e25ae9347604b0bf4d4d96fbf",
    3: "f7fa87a73e187bd320658000881adf9eeead2389933a116cbf826c7e5047355d",
    4: "d5102642e7700fd9762aeb1ffdf21094126594a061f3730dea0cae42e56d2873",
}


@pytest.mark.parametrize("level", sorted(BURGERS_LANE_DIGESTS))
def test_burgers_evaluate_many_bytes_are_pinned(level):
    values = BurgersModel().evaluate_many(level, SEEDS[:32])
    assert values.shape == (32,)
    assert _digest(values) == BURGERS_LANE_DIGESTS[level]


def _report_digest(report):
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _two_scale_s3_plan(e_divisor):
    model = TwoScaleModel()
    params = pilot_estimate_parameters(model, 512, base_seed=11, workers=2)
    params = dataclasses.replace(params, e=params.e / e_divisor)
    return model, plan_for_strategy("S3", params, max_levels=model.max_level)


def test_two_scale_s3_report_bytes_are_pinned():
    model, plan = _two_scale_s3_plan(8.0)
    assert plan.L == 6 and sum(plan.M) == 181960
    report = run_mlmc(model, plan, base_seed=12, workers=2)
    assert _report_digest(report) == (
        "489d099bab2b690153453716b45e5d3e2e41da50a6acba210e3490b3abb99cbb"
    )


def test_gbm_s2_report_bytes_are_pinned():
    model = GBMModel()
    params = pilot_estimate_parameters(model, 256, base_seed=5)
    plan = plan_for_strategy("S2", params, max_levels=4)
    assert plan.M == (5, 38, 261, 55198)
    report = run_mlmc(model, plan, base_seed=5)
    assert _report_digest(report) == (
        "8faaa5838422da9040d40562b4b01b4127e387e8c1d28a971af090133031d152"
    )


def test_sample_log_bytes_are_pinned(tmp_path):
    model, plan = _two_scale_s3_plan(2.0)
    assert plan.M == (2560, 3240, 2560, 640)
    run_mlmc(model, plan, base_seed=3, workers=2, sample_log_path=str(tmp_path / "a.csv"))
    run_classical_mc(model, 2, 5000, base_seed=3, sample_log_path=str(tmp_path / "b.csv"))
    assert _file_digest(tmp_path / "a.csv") == (
        "d999e3a00d139e565d381caa419151cdf3714382a15aaa50f17c00e07dad3c5d"
    )
    assert _file_digest(tmp_path / "b.csv") == (
        "13cfa68cc6d84a25f195b7b98b4831c43b37df10a97acd25e3b7a375ea57f1e9"
    )


def test_classical_report_bytes_are_pinned():
    report = run_classical_mc(TwoScaleModel(), 2, 5000, base_seed=3, workers=2)
    assert _report_digest(report) == (
        "4c1bc015d1e944ff7f947c890ec051fa987381c31adc88b8bbfb7ae8f5de20fd"
    )


# A TwoScale classical run from a 512-sample pilot at seed 7, written as
# the CLI writes a report.
CLASSICAL_FILE_DIGEST = "2204e07d332452ec2928ec7c8a006b9bdb2fcaf3e41d3cddc9b45a57e51dc636"


def test_cli_classical_report_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "two_scale"},
        "strategy": "s3",
        "pilot_samples": 512,
        "base_seed": 7,
        "workers": 2,
        "out": str(tmp_path / "report.json"),
    }))
    assert main(["run", "--config", str(cfg), "--strategy", "mc"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["plan"]["inputs"] is not None
    # A CLI classical run is at level 1, the level its plan prices.
    assert report["seeds"]["terms"][0]["levels"] == [1]
    assert _file_digest(tmp_path / "report.json") == CLASSICAL_FILE_DIGEST


@pytest.mark.parametrize("workers", [1, 2])
def test_run_mlmc_of_a_classical_plan_is_the_cli_report(tmp_path, workers):
    model = TwoScaleModel()
    params = pilot_estimate_parameters(model, 512, base_seed=7, workers=2)
    plan = plan_for_strategy("ClassicalMC", params, max_levels=model.max_level)
    report = run_mlmc(model, plan, base_seed=7, workers=workers)
    assert report.a_priori_error_bound is not None
    path = tmp_path / "report.json"
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    assert _file_digest(path) == CLASSICAL_FILE_DIGEST
