"""Command-line front end: ``plan``, ``pilot``, ``run`` and ``report``.

Exit codes: 0 success, 2 invalid flags or config (an output path that
cannot be written or that names the config included, found before any
work), 3 a pilot that cannot plan or run statistics that overflow a float,
4 model evaluation failure, 5 malformed report file.

Every command is deterministic given its flags and base seed; rerunning
writes byte-identical JSON.  ``run`` writes the per-evaluation CSV sample
log only to a ``sample_log`` path, named in the config or by
``--sample-log``; there is no separate switch.  Wall-clock timing is
printed to the console only, never into the deterministic payload.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

from ._checks import _finite, _known_keys, _whole
from .executor import (
    DegenerateModelError,
    ModelEvaluationError,
    pilot_estimate_parameters,
    run_classical_mc,
    run_mlmc,
)
from .models import model_from_config
from .planner import LevelPlan, StrategyId, plan_for_strategy
from .stats import SolutionParameters

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_MODEL_FAILURE = 4
EXIT_BAD_REPORT = 5

_STRATEGY_FLAGS = {
    "mc": StrategyId.CLASSICAL_MC,
    "s1": StrategyId.S1,
    "s2": StrategyId.S2,
    "s3": StrategyId.S3,
    "s4": StrategyId.S4,
}


class _BadReport(ValueError):
    """A report file the ``report`` command cannot read; maps to exit code 5."""

    def __str__(self):
        return f"malformed report: {super().__str__()}"


# The exit code of each error a command raises, most specific first:
# DegenerateModelError is a ValueError too.
_EXIT_CODES = (
    (_BadReport, EXIT_BAD_REPORT),
    (DegenerateModelError, EXIT_DEGENERATE),
    (ModelEvaluationError, EXIT_MODEL_FAILURE),
    (ValueError, EXIT_USAGE),
)


def _sig4(x):
    if x is None:
        return "-"
    return format(x, ".4g")


def _check_writable(*paths, config=None):
    """Raise ValueError, before any work, for an output that cannot be written.

    An existing path must be a writable file, a new one needs a writable
    directory, and no two may name one file, nor the ``config`` the command
    read.  A None path is skipped.
    Nothing is opened: no output is created or truncated before the config
    and its entries are known good, so a command that fails on them leaves
    every output as it was.
    """
    seen = {} if config is None else {os.path.realpath(config): f"the config {config}"}
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.basename(path) or os.path.isdir(path):
            reason = "not a file path"
        elif os.path.exists(path):
            reason = None if os.access(path, os.W_OK) else "it is not writable"
        elif not os.path.isdir(parent):
            reason = f"no directory {parent}"
        else:
            reason = None if os.access(parent, os.W_OK) else f"directory {parent} is not writable"
        real = os.path.realpath(path)
        if reason is None and real in seen:
            reason = f"it is the same file as {seen[real]}"
        if reason is not None:
            raise ValueError(f"cannot write {path}: {reason}")
        seen[real] = path


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


@dataclass
class RunConfig:
    """Parsed ``run``/``pilot`` configuration file, checked when built.

    The plan is either embedded (``plan``), derived from explicit
    ``parameters``, or computed inline from a pilot of ``pilot_samples``
    realizations when neither is present.  A ``sample_log`` path turns the
    CSV sample log on.
    """

    model: dict
    strategy: Optional[str] = None
    plan: Optional[dict] = None
    parameters: Optional[dict] = None
    pilot_samples: int = 256
    base_seed: int = 0
    workers: Optional[int] = None
    sample_log: Optional[str] = None
    out: str = "report.json"

    def __post_init__(self):
        if self.strategy not in (None, *_STRATEGY_FLAGS):
            raise ValueError(
                f"strategy must be one of {sorted(_STRATEGY_FLAGS)}, got {self.strategy!r}"
            )
        # Whole-number fields become ints here, once, so that 2.0 in a config
        # file runs exactly as 2 does.
        for key, low in (("pilot_samples", 2), ("base_seed", 0), ("workers", 1)):
            # workers stays None, the executor's default: the usable CPUs.
            if getattr(self, key) is not None:
                setattr(self, key, _whole(key, getattr(self, key), low, None))
        for key in ("sample_log", "out"):
            value = getattr(self, key)
            if not (isinstance(value, str) or key == "sample_log" and value is None):
                raise ValueError(f"{key} must be a path, got {value!r}")

    @classmethod
    def from_json_dict(cls, d):
        _known_keys("config", d, [f.name for f in fields(cls)])
        if "model" not in d:
            raise ValueError('config is missing the required "model" entry')
        return cls(**{k: v for k, v in d.items() if v is not None or k == "model"})


def _load_config(args, keys):
    """The config at ``args.config``; a set flag whose dest is in ``keys`` replaces that entry."""
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {args.config} is not valid JSON: {exc}")
    if isinstance(raw, dict):
        raw.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    return RunConfig.from_json_dict(raw)


def _build(cfg):
    """The model, embedded plan and parameters (None where absent), each built even
    where a command ignores it; a shape error raises ValueError("malformed ...")."""
    key = "model"
    try:
        model = model_from_config(cfg.model)
        key = "plan"
        plan = None if cfg.plan is None else LevelPlan.from_json_dict(cfg.plan)
        key = "parameters"
        params = (
            None if cfg.parameters is None else SolutionParameters.from_json_dict(cfg.parameters)
        )
    except (AttributeError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {key} {getattr(cfg, key)!r}: {exc!r}") from exc
    return model, plan, params


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def cmd_plan(args):
    _check_writable(args.out)
    params = SolutionParameters(
        delta=args.delta, e=args.err, alpha=args.alpha, sigma=args.sigma
    )
    if args.strategy == "all":
        chosen = list(StrategyId)
    else:
        chosen = [_STRATEGY_FLAGS[args.strategy]]
    plans = [plan_for_strategy(s, params, max_levels=args.max_levels) for s in chosen]

    header = f"{'strategy':<12} {'L':>2}  {'M':<28} {'bound/e':>7} {'load':>10}"
    print(header)
    print("-" * len(header))
    for plan in plans:
        m_str = " ".join(str(m) for m in plan.M)
        print(
            f"{plan.strategy.value:<12} {plan.L:>2}  {m_str:<28} "
            f"{_sig4(plan.error_bound_multiplier):>7} {_sig4(plan.relative_load):>10}"
        )
    _write_json(args.out, {"plans": [p.to_json_dict() for p in plans]})
    return EXIT_OK


# ---------------------------------------------------------------------------
# pilot
# ---------------------------------------------------------------------------

def cmd_pilot(args):
    cfg = _load_config(args, ("pilot_samples", "base_seed"))
    _check_writable(args.out, config=args.config)
    model, _, _ = _build(cfg)
    params = pilot_estimate_parameters(
        model, cfg.pilot_samples, cfg.base_seed, workers=cfg.workers
    )

    print(
        f"pilot ({cfg.pilot_samples} coupled samples, seed {cfg.base_seed}): "
        f"delta={_sig4(params.delta)} alpha={_sig4(params.alpha)} e={_sig4(params.e)}"
    )
    _write_json(args.out, params.to_json_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _resolve_plan(cfg, model, plan, params):
    """Plan precedence: embedded plan > explicit parameters > inline pilot."""
    if plan is not None:
        if cfg.strategy is not None and _STRATEGY_FLAGS[cfg.strategy] is not plan.strategy:
            raise ValueError(
                f"config strategy {cfg.strategy!r} does not match the embedded "
                f"plan's strategy {plan.strategy.value!r}"
            )
        return plan
    if cfg.strategy is None:
        raise ValueError('config needs a "strategy" when no plan is embedded')
    if params is None:
        params = pilot_estimate_parameters(
            model, cfg.pilot_samples, cfg.base_seed, workers=cfg.workers
        )
    return plan_for_strategy(_STRATEGY_FLAGS[cfg.strategy], params, max_levels=model.max_level)


def cmd_run(args):
    cfg = _load_config(args, ("base_seed", "strategy", "out", "workers", "sample_log"))
    _check_writable(cfg.out, cfg.sample_log, config=args.config)
    model, plan, params = _build(cfg)
    plan = _resolve_plan(cfg, model, plan, params)
    if plan.strategy is StrategyId.CLASSICAL_MC:
        # Classical MC at the finest level: the level its plan is sized and priced for.
        report = replace(
            run_classical_mc(
                model, 1, plan.M[0], cfg.base_seed,
                workers=cfg.workers, sample_log_path=cfg.sample_log,
            ),
            plan=plan,
        )
    else:
        report = run_mlmc(
            model, plan, cfg.base_seed, workers=cfg.workers, sample_log_path=cfg.sample_log
        )

    print(
        f"{plan.strategy.value}: estimate={_sig4(report.estimate)} "
        f"std_error={_sig4(report.estimated_std_error)} "
        f"bound={_sig4(report.a_priori_error_bound)} "
        f"load={_sig4(report.realized_load)}"
    )
    print(f"wall time: {report.wall_time:.3f}s")
    _write_json(cfg.out, report.to_json_dict())
    if cfg.sample_log is not None:
        print(f"wrote {cfg.sample_log}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_REPORT_KEYS = ("estimate", "estimated_std_error", "a_priori_error_bound", "realized_load")


def _read_report(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError, or an int past the digit limit
        raise _BadReport(f"{path}: {exc}")
    if not isinstance(raw, dict):
        raise _BadReport(f"{path}: report must be a JSON object")
    missing = [k for k in _REPORT_KEYS if k not in raw]
    if missing:
        raise _BadReport(f"{path}: missing report fields {missing}")
    try:
        out = {k: None if raw[k] is None else _finite(k, raw[k]) for k in _REPORT_KEYS}
    except ValueError as exc:
        raise _BadReport(f"{path}: {exc}")
    if not isinstance(raw.get("plan"), dict) or not isinstance(raw["plan"].get("strategy"), str):
        raise _BadReport(f"{path}: missing or malformed plan")
    out["strategy"] = raw["plan"]["strategy"]
    out["path"] = path
    return out


def cmd_report(args):
    rows = [_read_report(p) for p in args.reports]

    header = (
        f"{'report':<24} {'strategy':<12} {'estimate':>12} {'std_err':>10} "
        f"{'bound':>10} {'load':>10} {'savings':>8}"
    )
    print(header)
    print("-" * len(header))
    base_load = rows[0]["realized_load"]
    for row in rows:
        if base_load and row["realized_load"] is not None:
            savings = f"{(1.0 - row['realized_load'] / base_load) * 100.0:.1f}%"
        else:
            savings = "-"
        print(
            f"{row['path']:<24} {row['strategy']:<12} {_sig4(row['estimate']):>12} "
            f"{_sig4(row['estimated_std_error']):>10} {_sig4(row['a_priori_error_bound']):>10} "
            f"{_sig4(row['realized_load']):>10} {savings:>8}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mlmckit",
        description="Plan and execute multilevel Monte Carlo ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="size sampling plans from (delta, e, alpha)")
    p_plan.add_argument("--delta", type=float, required=True, help="QoI spread")
    p_plan.add_argument("--err", type=float, required=True, help="target fine-level error e")
    p_plan.add_argument("--alpha", type=float, required=True, help="per-level decay exponent")
    p_plan.add_argument("--sigma", type=float, default=1.0, help="slack exponent (strategies 3/4)")
    p_plan.add_argument(
        "--strategy",
        choices=["all"] + sorted(_STRATEGY_FLAGS),
        default="all",
    )
    p_plan.add_argument("--max-levels", type=int, default=None, dest="max_levels")
    p_plan.add_argument("--out", default="plans.json", help="plans JSON path")
    p_plan.set_defaults(func=cmd_plan)

    p_pilot = sub.add_parser("pilot", help="estimate (delta, e, alpha) from coupled pilots")
    p_pilot.add_argument("--config", required=True, help="model config JSON")
    p_pilot.add_argument(
        "--samples", type=int, dest="pilot_samples", metavar="SAMPLES", help="pilot sample count"
    )
    p_pilot.add_argument("--seed", type=int, dest="base_seed", metavar="SEED", help="base seed")
    p_pilot.add_argument("--out", default="parameters.json", help="parameters JSON path")
    p_pilot.set_defaults(func=cmd_pilot)

    p_run = sub.add_parser("run", help="execute a plan (or pilot+plan inline)")
    p_run.add_argument("--config", required=True, help="run config JSON")
    p_run.add_argument(
        "--seed", type=int, dest="base_seed", metavar="SEED", help="base seed override"
    )
    p_run.add_argument(
        "--strategy", choices=sorted(_STRATEGY_FLAGS), default=None, help="strategy override"
    )
    p_run.add_argument("--out", default=None, help="report JSON path override")
    p_run.add_argument(
        "--workers", type=int, default=None,
        help="worker threads, the caller included (default: usable CPUs; 1 is serial)",
    )
    p_run.add_argument(
        "--sample-log", default=None, dest="sample_log",
        help="write the per-evaluation CSV log to this path (overrides the config's)",
    )
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize report files side by side")
    p_rep.add_argument("reports", nargs="+", help="report JSON paths")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, ModelEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
