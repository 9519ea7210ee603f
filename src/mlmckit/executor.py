"""Coupled-ensemble execution over pluggable stochastic QoI models.

A model maps (level, seed) to one scalar QoI evaluation, deterministically:
the same seed at two adjacent levels must resolve the same underlying
random realization, which is what makes the telescoping difference terms
cheap to estimate.  The executor owns seed derivation, scheduling,
aggregation, and the run report; models own only the physics.

Determinism contract: reports are byte-identical for a given
(model, plan, base_seed) regardless of worker count.  Sample ids are a
pure function of (base_seed, global counter); aggregation always happens
on the fully assembled per-term arrays, with correctly rounded sums equal
to ``math.fsum`` bit for bit (see :mod:`mlmckit.stats` for the fallbacks
to ``math.fsum`` itself).

The chunk loop: the pilot, ``run_mlmc`` and ``run_classical_mc`` all
evaluate samples through one loop, on one thread pool per call when
``workers > 1``.  A term's samples are split into fixed chunks of
``_CHUNK`` seeds.  Each chunk task derives its own seeds from
(base_seed, counter), evaluates them at every level of its term back to
back, in ascending order, on one thread, with one ``evaluate_many`` call
per level (models may rely on that, for example to reuse a draw), checks
that each level's values are finite, and writes the coupled difference
straight into the term's values.  Per-level values are kept only for a
sample log and for the pilot, which needs its three levels.

On ``perfbench``'s ``twoscale_cli`` workload (2 vCPUs, ten alternating
50 s runs of each side) this loop, with the lane-major ``normal_lanes``,
took the median ``run_s`` from 0.130 to 0.087 s, against a per-term seed
array, level matrix, difference pass and finiteness pass over 4096-seed
chunks.

Failures: a raised error and a non-finite value follow one rule.  The run
fails with a :class:`ModelEvaluationError` naming the first failing chunk
in sample order, the lowest failing level of that chunk, and its first
failing seed at that level.
"""

import math
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._bits import MASK64, counter_seeds, mix64_int
from .planner import LevelPlan, StrategyId, relative_dof
from .stats import (
    LevelTermStats,
    SolutionParameters,
    estimate_alpha,
    estimate_fine_error,
    mc_mean,
    unbiased_variance,
)

# Pilot realizations are drawn from a salted sub-stream so a subsequent run
# with the same base_seed never reuses them.
_PILOT_SALT = 0x70696C6F74C0FFEE

# Fixed scheduling granularity: chunk boundaries must not depend on the
# worker count, or the "same bytes for any workers" guarantee would hinge
# on floating-point aggregation order.  (It does not — aggregation is done
# on the assembled arrays — but fixed chunks also keep model-side batching
# deterministic.)  The size is measured on twoscale_cli (2 vCPUs, four
# alternating 20 s runs): median run_s 0.153 s for the old 4096-seed loop,
# 0.139 s for this loop at 8192 seeds and 0.117 s at 16384.  32768 ran
# faster still, but the workload's 31 070-sample classical run then fits one
# chunk and skips the pool, which cut mlmc_speedup by a third, and peak RSS
# rose by a tenth.
_CHUNK = 16384


class ModelEvaluationError(RuntimeError):
    """A sample evaluation failed; carries the offending (level, seed)."""

    def __init__(self, level, seed, detail):
        self.level = level
        self.seed = seed
        super().__init__(
            f"model evaluation failed at level={level}, seed={seed}: {detail}"
        )


class DegenerateModelError(ValueError):
    """Pilot statistics unusable for planning (e.g. zero variance)."""


class QoIModel(ABC):
    """Deterministic stochastic-solver facade.

    ``evaluate(level, seed)`` must return the same float on every call, and
    the same ``seed`` at different levels must resolve the same underlying
    realization (exact coupling).  ``max_level`` is the coarsest level the
    model can run.
    """

    max_level: int = 1

    @abstractmethod
    def evaluate(self, level, seed):
        """One QoI evaluation at ``level`` for the realization ``seed``."""

    def cost_hint(self, level):
        """Relative cost of one solve at ``level`` (finest solve = 1)."""
        return relative_dof(level)

    def evaluate_many(self, level, seeds):
        """Vectorizable batch path; the default just loops ``evaluate``."""
        return np.asarray([self.evaluate(level, int(s)) for s in seeds], dtype=float)


@dataclass(frozen=True)
class RunReport:
    """Everything a finished ensemble reports.

    ``wall_time`` (seconds) is informational and deliberately left out of
    :meth:`to_json_dict` so that report files are byte-stable across
    machines and worker counts.
    """

    plan: LevelPlan
    term_stats: tuple
    estimate: float
    estimated_std_error: Optional[float]
    realized_load: float
    wall_time: float
    seeds: dict

    @property
    def a_priori_error_bound(self):
        if self.plan.inputs is None:
            return None
        return self.plan.error_bound_multiplier * self.plan.inputs.e

    def to_json_dict(self):
        return {
            "plan": self.plan.to_json_dict(),
            "term_stats": [t.to_json_dict() for t in self.term_stats],
            "estimate": self.estimate,
            "estimated_std_error": self.estimated_std_error,
            "a_priori_error_bound": self.a_priori_error_bound,
            "realized_load": self.realized_load,
            "seeds": self.seeds,
        }


def _check_base_seed(base_seed):
    if not isinstance(base_seed, int) or isinstance(base_seed, bool):
        raise ValueError(f"base_seed must be an integer, got {base_seed!r}")
    if not 0 <= base_seed <= MASK64:
        raise ValueError(f"base_seed must fit in 64 bits, got {base_seed}")


def _check_workers(workers):
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _whole(name, value, low, high):
    """``value`` as an int within ``low..high`` (no upper limit if None); 2.0 is 2."""
    try:
        ok = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok or value < low or (high is not None and value > high):
        within = f">= {low}" if high is None else f"within {low}..{high}"
        raise ValueError(f"{name} must be an integer {within}, got {value!r}")
    return int(value)


def _pool(workers):
    """One thread pool for a whole call, or no pool for a single worker."""
    return ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def _evaluate_chunk(model, level, chunk):
    try:
        out = np.asarray(model.evaluate_many(level, chunk), dtype=float)
    except ModelEvaluationError:
        raise
    except Exception as exc:
        # Locate the offending sample so the abort is actionable.
        for s in chunk:
            try:
                model.evaluate(level, int(s))
            except Exception as inner:
                raise ModelEvaluationError(level, int(s), inner) from inner
        raise ModelEvaluationError(level, None, exc) from exc
    if out.shape != (len(chunk),):
        raise ModelEvaluationError(
            level, None, f"batch returned shape {out.shape} for {len(chunk)} seeds"
        )
    return out


def _evaluate_term(model, levels, base_seed, start, count, pool, keep=False):
    """Evaluate ``count`` realizations, counters ``start`` onwards, at ``levels``.

    Returns ``(values, rows)``.  ``values`` holds the coupled differences
    ``U[levels[0]] - U[levels[1]]``, or the values at the only level.  With
    ``keep``, ``rows`` holds one row of values per level; otherwise None.

    This is the executor's one loop over samples.  Each chunk task derives
    its own seeds, evaluates them at every level in ascending order, checks
    each level's values are finite and writes its slice of ``values``.
    """
    values = np.empty(count)
    rows = np.empty((len(levels), count)) if keep else None

    def run_chunk(i):
        seeds = counter_seeds(base_seed, start + i, min(_CHUNK, count - i))
        done = slice(i, i + len(seeds))
        for j, level in enumerate(levels):
            out = _evaluate_chunk(model, level, seeds)
            finite = np.isfinite(out)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise ModelEvaluationError(
                    level, int(seeds[bad]), f"non-finite value {out[bad]!r}"
                )
            if j == 0:
                values[done] = out
            elif j == 1:
                values[done] -= out
            if keep:
                rows[j, done] = out
            # Each level's values are in place now; free them before the
            # next level is evaluated.
            del out, finite

    starts = range(0, count, _CHUNK)
    if pool is not None and len(starts) > 1:
        list(pool.map(run_chunk, starts))
    else:
        for i in starts:
            run_chunk(i)
    return values, rows


def _term_stats(term_index, values):
    mean = mc_mean(values)
    var = unbiased_variance(values) if len(values) >= 2 else None
    return LevelTermStats(term_index=term_index, mean=mean, variance=var, count=len(values))


def _std_error(term_stats):
    contribs = []
    for t in term_stats:
        if t.variance is None:
            return None
        contribs.append(t.variance / t.count)
    return math.sqrt(math.fsum(contribs))


def _write_sample_log(path, terms):
    """Write one CSV row per (term, sample_index, level), in that order.

    ``terms`` holds ``(term, seeds, per_level)`` with ``per_level`` mapping
    each level the term touches, in ascending order, to its values.  Rows
    end in CRLF, as ``csv.writer``'s do; no field needs quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write("term,level,sample_index,seed,value\r\n")
        for term, seeds, per_level in terms:
            keys = [f"{idx},{seed}," for idx, seed in enumerate(seeds.tolist())]
            cols = [
                [f"{term},{lv},{key}{x!r}\r\n" for key, x in zip(keys, vals.tolist())]
                for lv, vals in per_level.items()
            ]
            fh.writelines(map("".join, zip(*cols)))


def _run_terms(model, plan, term_levels, base_seed, workers, sample_log_path):
    """Run every term of ``plan`` and assemble its report.

    Term t draws ``plan.M[t-1]`` realizations, the next ones of the counter
    stream, and evaluates each at every level of ``term_levels[t-1]`` (one or
    two levels); a two-level term's values are the coupled differences.
    """
    t0 = time.perf_counter()
    stats = []
    seed_ledger = []
    log_terms = []
    load = 0.0
    start = 0
    with _pool(workers) as pool:
        for term, (count, levels) in enumerate(zip(plan.M, term_levels), start=1):
            values, rows = _evaluate_term(
                model, levels, base_seed, start, count, pool, keep=sample_log_path is not None
            )
            if sample_log_path is not None:
                seeds = counter_seeds(base_seed, start, count)
                log_terms.append((term, seeds, dict(zip(levels, rows))))
            stats.append(_term_stats(term, values))
            load += count * math.fsum(model.cost_hint(lv) for lv in levels)
            seed_ledger.append(
                {
                    "term_index": term,
                    "levels": levels,
                    "start_index": start,
                    "count": count,
                    "first_seed": int(counter_seeds(base_seed, start, 1)[0]),
                    "last_seed": int(counter_seeds(base_seed, start + count - 1, 1)[0]),
                }
            )
            start += count
            # Free the term's arrays before the next term allocates its own.
            del values, rows

    if sample_log_path is not None:
        _write_sample_log(sample_log_path, log_terms)
    term_stats = tuple(stats)
    return RunReport(
        plan=plan,
        term_stats=term_stats,
        estimate=math.fsum(t.mean for t in term_stats),
        estimated_std_error=_std_error(term_stats),
        realized_load=load,
        wall_time=time.perf_counter() - t0,
        seeds={"base_seed": base_seed, "terms": seed_ledger},
    )


def run_mlmc(model, plan, base_seed, workers=1, sample_log_path=None):
    """Execute a multilevel plan: coupled difference terms plus coarse term.

    Term l < L draws M[l-1] realizations and evaluates each at levels l and
    l+1 (same seed — exact coupling); the last term evaluates at level L
    only.  Realizations are disjoint across terms by the counter scheme.
    """
    _check_base_seed(base_seed)
    _check_workers(workers)
    if plan.strategy is StrategyId.CLASSICAL_MC:
        raise ValueError("classical plans are executed with run_classical_mc")
    if plan.L > model.max_level:
        raise ValueError(
            f"plan has L={plan.L} levels but the model stops at "
            f"max_level={model.max_level}"
        )
    term_levels = [[l, l + 1] for l in range(1, plan.L)] + [[plan.L]]
    return _run_terms(model, plan, term_levels, base_seed, workers, sample_log_path)


def run_classical_mc(model, level, M, base_seed, workers=1, sample_log_path=None):
    """Plain Monte Carlo at a single level: a one-term run of ``M`` samples.

    The report's plan is the classical plan for ``M`` without inputs.
    """
    _check_base_seed(base_seed)
    _check_workers(workers)
    M = _whole("M", M, 1, None)
    level = _whole("level", level, 1, model.max_level)
    plan = LevelPlan(
        strategy=StrategyId.CLASSICAL_MC,
        L=1,
        M=(M,),
        M_total=(M,),
        error_bound_multiplier=2.0,
        relative_load=float(M),
        inputs=None,
    )
    return _run_terms(model, plan, [[level]], base_seed, workers, sample_log_path)


def pilot_estimate_parameters(model, pilot_samples, base_seed, workers=1):
    """Estimate (delta, e, alpha) from coupled pilots at the three finest levels.

    Each pilot realization is evaluated at levels 1, 2 and 3; the spread of
    the fine QoI is taken at level 2 (the second-finest), the decay exponent
    from the two adjacent difference spreads, and the fine-level error from
    the sizing identity.  Pilot seeds come from a salted sub-stream so they
    are never reused by a later run with the same base_seed.
    """
    _check_base_seed(base_seed)
    _check_workers(workers)
    if pilot_samples < 2:
        raise ValueError(f"pilot needs at least 2 samples, got {pilot_samples}")
    if model.max_level < 3:
        raise ValueError(
            f"pilot needs levels 1..3 but the model stops at {model.max_level}"
        )
    pilot_base = mix64_int(base_seed ^ _PILOT_SALT)
    with _pool(workers) as pool:
        d12, (_, u2, u3) = _evaluate_term(
            model, [1, 2, 3], pilot_base, 0, pilot_samples, pool, keep=True
        )

    var_12 = unbiased_variance(d12)
    var_23 = unbiased_variance(u2 - u3)
    var_u = unbiased_variance(u2)
    if var_12 == 0.0 or var_23 == 0.0 or var_u == 0.0:
        raise DegenerateModelError(
            "pilot variance is zero: a deterministic (or exactly coupled) "
            "model cannot be planned from pilot statistics"
        )
    delta_12 = math.sqrt(var_12)
    delta_23 = math.sqrt(var_23)
    alpha = estimate_alpha(delta_12, delta_23)
    if alpha < 0:
        raise DegenerateModelError(
            f"pilot decay exponent is negative (alpha={alpha:.4g}): coupled "
            "differences grow toward finer levels, nothing to plan"
        )
    return SolutionParameters(
        delta=math.sqrt(var_u),
        e=estimate_fine_error(delta_12, alpha),
        alpha=alpha,
        sigma=1.0,
    )
