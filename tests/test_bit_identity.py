"""Pinned SHA-256 digests of the sampling kernel's output and of run files.

The kernel digests were computed on the straightforward, allocate-per-ufunc
implementation of ``normal_lanes`` and the GBM batch path.  Any rewrite of
those kernels (in-place arithmetic, tiling, a different batch size) must
leave every bit of the output unchanged.  1000 seeds is deliberately not a
multiple of the GBM tile, so a partial last tile is covered.  The Burgers
digests were computed with the scalar stepper, one seed at a time; the
batched stepper must reproduce them.

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
from mlmckit.models import BurgersModel, GBMModel, TwoScaleModel
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


@pytest.mark.parametrize("level", sorted(BURGERS_DIGESTS))
def test_burgers_evaluate_many_bytes_are_pinned(level):
    values = BurgersModel().evaluate_many(level, SEEDS[:32])
    assert values.shape == (32,)
    assert _digest(values) == BURGERS_DIGESTS[level]


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


def test_cli_classical_report_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "two_scale"},
        "strategy": "s3",
        "pilot_samples": 512,
        "base_seed": 7,
        "classical_level": 2,
        "workers": 2,
        "out": str(tmp_path / "report.json"),
    }))
    assert main(["run", "--config", str(cfg), "--strategy", "mc"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["plan"]["inputs"] is not None
    assert _file_digest(tmp_path / "report.json") == (
        "8b6b629b1ce00329b9131029af3a6338fae8187ec7b515effa1dc308fe35be3c"
    )
