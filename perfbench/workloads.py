"""The benchmark's workloads: one pilot -> plan -> run round each, and its checks.

Each workload is set up once (parse its run config, build its model), then
runs rounds from ``round(seed, calls)``.  A round calls into mlmckit in a
closed loop, one call after the other, and returns its timings and outputs;
``check(outputs)`` then tests the outputs against independent computations
or properties the method must have, outside the timed region and outside
any tracing.  Estimates are not tested one round at a time: ``check`` records
each one's distance from its target, and ``check_pooled()`` tests the mean
distance over all rounds of the run once, at the end.  A failed check raises
:class:`CheckFailed`.

The constructor arguments are the workload's sizes.  The defaults are what
the benchmark measures; the tests pass smaller ones.
"""

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, replace

from scipy.special import gammaincinv

from mlmckit import cli, executor, planner
from mlmckit.cli import RunConfig
from mlmckit.models import GBMSpec, model_from_config

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# A run makes one pooled mean check per estimated quantity, so a correct
# program fails it with probability P(|Z| > 4) = 6e-5.  The chi-square
# variance checks run on every term of every round, thousands of them in a
# set of runs, so each gets a far smaller false-alarm probability.
_N_SE = 4.0
_CHI2_P = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with what it must be."""


class CallFailed(Exception):
    """A call into mlmckit raised, or a CLI call exited with a non-zero code."""


class Calls:
    """Counts the calls into mlmckit that a run attempted and that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise CallFailed(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc

    def cli(self, *argv):
        """``mlmckit.cli.main(argv)`` with its console output captured; a
        non-zero exit code is a failed call."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self(cli.main, [str(a) for a in argv])
        if code != 0:
            self.failed += 1
            raise CallFailed(f"mlmckit {argv[0]} exited {code}: {out.getvalue()}")
        return out.getvalue()


@dataclass
class Round:
    pipeline_s: float  # pilot -> plan -> MLMC run, up to a finished report
    run_s: float  # the MLMC run alone
    classical_s: float  # classical MC at level 1 at matched accuracy
    solves: int  # level solves in the MLMC run
    outputs: dict


def solves_in(seed_ledger):
    """Level solves of a run: term l counts ``count * len(levels)``."""
    return sum(t["count"] * len(t["levels"]) for t in seed_ledger["terms"])


class Deviations:
    """Distances of independent estimates from their targets, tested together.

    Rounds use disjoint seeds, so the mean of n distances has standard error
    sqrt(sum of squared standard errors) / n.  Pooling a run's rounds makes
    a bias easier to see than one round does, at one test per quantity.
    """

    def __init__(self):
        self.by_name = {}

    def add(self, what, estimate, std_error, target):
        self.by_name.setdefault(what, []).append((estimate - target, std_error))

    def check(self):
        for what, pairs in self.by_name.items():
            n = len(pairs)
            mean = math.fsum(d for d, _ in pairs) / n
            std_error = math.sqrt(math.fsum(se * se for _, se in pairs)) / n
            if not abs(mean) <= _N_SE * std_error:
                raise CheckFailed(
                    f"{what}: mean distance from target over {n} rounds is {mean!r}, "
                    f"{abs(mean) / std_error:.2f} standard errors ({std_error:.4g})"
                )


def check_variance(what, sample_var, count, exact_var):
    """Sample variance of ``count`` normals against its closed form, by chi-square."""
    dof = count - 1
    lo = 2.0 * gammaincinv(dof / 2.0, _CHI2_P / 2.0) / dof
    hi = 2.0 * gammaincinv(dof / 2.0, 1.0 - _CHI2_P / 2.0) / dof
    ratio = sample_var / exact_var
    if not lo <= ratio <= hi:
        raise CheckFailed(
            f"{what}: sample variance / closed form = {ratio:.4g}, outside "
            f"[{lo:.4g}, {hi:.4g}] for {count} samples"
        )


def two_scale_term_variance(spec, term, L):
    """Closed-form variance of term ``term`` of an L-term TwoScale run."""
    scale = spec["amp"] * 2.0 ** (spec["alpha"] * (term - 1))
    if term < L:
        return (scale * (2.0 ** spec["alpha"] - 1.0)) ** 2
    return 1.0 + scale**2


# TwoScale's parameters, stated in full so that the checks read them from
# the config and not from the model under test.
TWO_SCALE = {"kind": "two_scale", "spec": {"max_level": 16, "alpha": 1.0, "amp": 0.5}}


class Workload:
    """A run config, the model it builds, and one round of calls into mlmckit."""

    name = None
    why = None
    # TwoScale's classical run takes 10-50 ms, so one call per round would
    # time mostly scheduler noise.  That workload repeats it on the same
    # inputs, which give the same bytes, and takes the median time.
    classical_repeats = 1

    def config(self):
        """The run config (the CLI's format) that set-up parses."""
        raise NotImplementedError

    def setup(self):
        self.cfg = RunConfig.from_json_dict(self.config())
        self.model = model_from_config(self.cfg.model)
        self.deviations = Deviations()
        return self

    def round(self, seed, calls):
        raise NotImplementedError

    def check(self, outputs):
        raise NotImplementedError

    def check_pooled(self):
        self.deviations.check()

    def time_classical(self, call):
        """``call()`` made ``classical_repeats`` times: (last result, median seconds)."""
        times = []
        for _ in range(self.classical_repeats):
            t0 = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - t0)
        return result, statistics.median(times)


class GbmCapped(Workload):
    """Pilot, plan and run through the Python API, then classical MC."""

    name = "gbm_capped"
    why = (
        "default GBM, S2 capped at 4 levels: the closure puts ~7e4 samples of 256 "
        "fine normals on the coarsest term, so the _bits RNG kernel dominates"
    )

    def __init__(self, pilot_samples=4096, e_factor=1.0):
        self.pilot_samples = pilot_samples
        self.e_factor = e_factor

    def config(self):
        return {
            "model": {"kind": "gbm", "spec": {}},
            "strategy": "s2",
            "pilot_samples": self.pilot_samples,
            "workers": 1,
        }

    def round(self, seed, calls):
        cfg, model = self.cfg, self.model
        t0 = time.perf_counter()
        pilot = calls(executor.pilot_estimate_parameters, model, cfg.pilot_samples, seed)
        params = replace(pilot, e=pilot.e * self.e_factor)
        plan = calls(planner.plan_for_strategy, "S2", params, max_levels=model.max_level)
        t1 = time.perf_counter()
        report = calls(executor.run_mlmc, model, plan, seed)
        t2 = time.perf_counter()
        classical_plan = calls(planner.plan_for_strategy, "ClassicalMC", params)
        classical, classical_s = self.time_classical(
            lambda: calls(executor.run_classical_mc, model, 1, classical_plan.M[0], seed + 1)
        )
        return Round(
            pipeline_s=t2 - t0,
            run_s=t2 - t1,
            classical_s=classical_s,
            solves=solves_in(report.seeds),
            outputs={"report": report, "classical": classical},
        )

    def check(self, out):
        spec = GBMSpec.from_json_dict(self.cfg.model["spec"])
        n1 = spec.steps_at_level(1)
        # The mean of the level-1 Euler scheme, which both estimators target.
        euler_mean = spec.S0 * (1.0 + spec.r_drift * spec.T / n1) ** n1
        for key in ("report", "classical"):
            r = out[key]
            self.deviations.add(f"gbm {key}", r.estimate, r.estimated_std_error, euler_mean)


class TwoScaleCli(Workload):
    """Pilot, S3 run, classical run and report through ``mlmckit.cli.main``."""

    name = "twoscale_cli"
    why = (
        "TwoScale through mlmckit.cli.main, S3 over a 7-level ladder with 2 workers: two "
        "normals per solve, so CLI, executor chunking, threads and stats aggregation dominate"
    )
    classical_repeats = 8

    def __init__(self, e_divisor=20.0, pilot_samples=4096, out_dir=None):
        self.e_divisor = e_divisor
        self.pilot_samples = pilot_samples
        self.dir = out_dir or os.path.join(OUT, self.name)

    def path(self, name):
        return os.path.join(self.dir, name)

    def config(self):
        return {
            "model": TWO_SCALE,
            "strategy": "s3",
            "pilot_samples": self.pilot_samples,
            "workers": 2,
        }

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        with open(self.path("pilot.json"), "w") as fh:
            json.dump(self.config(), fh)
        return super().setup()

    def read(self, name):
        with open(self.path(name)) as fh:
            return json.load(fh)

    def round(self, seed, calls):
        p = self.path
        t0 = time.perf_counter()
        calls.cli("pilot", "--config", p("pilot.json"), "--seed", seed, "--out", p("params.json"))
        params = self.read("params.json")
        params["e"] /= self.e_divisor
        with open(p("run.json"), "w") as fh:
            json.dump(dict(self.config(), parameters=params), fh)
        t1 = time.perf_counter()
        calls.cli("run", "--config", p("run.json"), "--seed", seed, "--out", p("mlmc.json"))
        t2 = time.perf_counter()
        _, classical_s = self.time_classical(
            lambda: calls.cli(
                "run", "--config", p("run.json"), "--seed", seed + 1, "--strategy", "mc",
                "--out", p("classical.json"),
            )
        )
        table = calls.cli("report", p("mlmc.json"), p("classical.json"))
        report = self.read("mlmc.json")
        return Round(
            pipeline_s=t2 - t0,
            run_s=t2 - t1,
            classical_s=classical_s,
            solves=solves_in(report["seeds"]),
            outputs={
                "table": table,
                "alpha": self.read("params.json")["alpha"],
                "report": report,
                "classical": self.read("classical.json"),
            },
        )

    def check(self, out):
        spec, r, c = self.cfg.model["spec"], out["report"], out["classical"]
        if "S3" not in out["table"] or "ClassicalMC" not in out["table"]:
            raise CheckFailed(f"report table lacks a run:\n{out['table']}")
        self.deviations.add("two-scale MLMC", r["estimate"], r["estimated_std_error"], 0.0)
        self.deviations.add(
            "two-scale classical", c["estimate"], c["estimated_std_error"], 0.0
        )
        L = r["plan"]["L"]
        for t in r["term_stats"]:
            check_variance(
                f"two-scale term {t['term_index']}", t["variance"], t["count"],
                two_scale_term_variance(spec, t["term_index"], L),
            )
        (ct,) = c["term_stats"]
        check_variance(
            "two-scale classical", ct["variance"], ct["count"], 1.0 + spec["amp"] ** 2
        )
        if not abs(out["alpha"] - spec["alpha"]) <= 1e-9:
            raise CheckFailed(f"two-scale pilot alpha {out['alpha']!r} != {spec['alpha']}")


WORKLOADS = {w.name: w for w in (GbmCapped, TwoScaleCli)}
