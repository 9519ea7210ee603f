"""Coupled-ensemble execution over pluggable stochastic QoI models.

A model maps a level and a batch of seeds to one scalar QoI per seed,
deterministically: the same seed at two adjacent levels must resolve the
same underlying random realization, which is what makes the telescoping
difference terms cheap to estimate.  The executor owns seed derivation,
scheduling, aggregation, and the run report; models own only the physics.

Determinism contract: reports are byte-identical for a given
(model, plan, base_seed) regardless of worker count.  Sample ids are a
pure function of (base_seed, global counter); aggregation always happens
on the fully assembled per-term arrays, with correctly rounded sums equal
to ``math.fsum`` bit for bit (see :mod:`mlmckit.stats` for the fallbacks
to ``math.fsum`` itself).

The chunk loop: the pilot, ``run_mlmc`` and ``run_classical_mc`` all
evaluate samples through one loop.  ``workers`` defaults to the usable
CPUs (the process's affinity mask), resolved once per call; ``workers=1``
runs serially without a pool.  The calling thread works as one of the
workers, next to at most ``workers - 1`` helpers from one thread pool per
call, so a call never runs more threads than ``workers`` or than the
chunks of its largest term.  A term's samples are split into fixed chunks
of ``_CHUNK`` seeds, handed out in sample order from one shared counter.
Each chunk derives its own seeds from (base_seed, counter), evaluates them
at every level of its term back to back, in ascending order, on one
thread, with one ``evaluate_many`` call per level (models may rely on that,
for example to reuse a draw), checks that each level's values are finite,
and writes the coupled difference straight into the term's values.
Per-level values are kept only for a sample log and for the pilot, which
needs its three levels.  Chunk boundaries and aggregation do not depend on
the worker count, so neither do the bytes of any report.

On 2 vCPUs the default of two workers took ``gbm_capped``'s median
``run_s`` from 0.251 to 0.145 s (1.73x, ten alternating 50 s runs against
one worker), while TwoScale stays nearly flat (a 7-level S3 ``run_mlmc``
took a median 39 ms at one worker and 35 ms at two).

Failures: a raised error and a non-finite value follow one rule.  The run
fails with a :class:`ModelEvaluationError` naming the first failing chunk
in sample order, the lowest failing level of that chunk, and its first
failing seed at that level, unless the model raises that error itself.
A raised error is traced to its seed by halving the batch, in O(log chunk)
calls (see :func:`_evaluate_chunk`).  Once a chunk fails no further chunk
is handed out; the lowest failing chunk is raised after every chunk before
it has finished, so the error does not depend on the worker count.
"""

import math
import os
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._bits import MASK64, counter_seeds, mix64_int
from .planner import LevelPlan, StrategyId, _classical_plan, relative_dof
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
    """Deterministic stochastic-solver facade, evaluated a batch at a time.

    ``evaluate_many(level, seeds)`` returns a ``(len(seeds),)`` float array
    whose every value is fixed by its seed alone, and the same seed at
    different levels must resolve the same underlying realization (exact
    coupling).  A model names a failing seed by raising
    :class:`ModelEvaluationError`; otherwise the executor halves a batch
    that raises until it finds the seed (see :func:`_evaluate_chunk`).
    ``max_level`` is the coarsest level the model can run.
    """

    max_level: int = 1

    @abstractmethod
    def evaluate_many(self, level, seeds):
        """QoI evaluations at ``level`` for the realizations ``seeds``."""

    def cost_hint(self, level):
        """Relative cost of one solve at ``level`` (finest solve = 1)."""
        return relative_dof(level)


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


def _usable_cpus():
    """The CPUs this process may run on, or the machine's count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _check_workers(workers):
    """``workers`` as a thread count: the usable CPUs for None."""
    if workers is None:
        return _usable_cpus()
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


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


def _helpers(workers, largest):
    """Helper threads for a call whose largest term has ``largest`` samples.

    The caller works too, so a call runs on at most ``workers`` threads and
    never on more threads than its largest term has chunks.
    """
    return min(workers, -(-largest // _CHUNK)) - 1


def _pool(helpers):
    """One thread pool of ``helpers`` threads for a whole call, or none."""
    return ThreadPoolExecutor(max_workers=helpers) if helpers > 0 else nullcontext()


def _evaluate_chunk(model, level, seeds):
    """``model``'s values at ``level`` for ``seeds``, all finite, or the failure.

    The executor's failure rule lives here alone.  A batch that raises is
    split in two and each half evaluated the same way, in order, so the
    first failing seed, raised or non-finite, is named in at most
    2 * ceil(log2(len(seeds))) + 1 ``evaluate_many`` calls.  That evaluates
    up to about 2 * len(seeds) seeds beyond the failing batch, where
    one-seed batches would evaluate len(seeds) seeds in as many calls.  A
    batch that raises while both its halves succeed, or that returns the
    wrong shape, names no seed.
    """
    try:
        out = np.asarray(model.evaluate_many(level, seeds), dtype=float)
    except ModelEvaluationError:
        raise
    except Exception as exc:
        if len(seeds) == 1:
            raise ModelEvaluationError(level, int(seeds[0]), exc) from exc
        half = len(seeds) // 2
        _evaluate_chunk(model, level, seeds[:half])
        _evaluate_chunk(model, level, seeds[half:])
        raise ModelEvaluationError(level, None, exc) from exc
    if out.shape != (len(seeds),):
        raise ModelEvaluationError(
            level, None, f"batch returned shape {out.shape} for {len(seeds)} seeds"
        )
    finite = np.isfinite(out)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ModelEvaluationError(level, int(seeds[bad]), f"non-finite value {out[bad]!r}")
    return out


def _evaluate_term(model, levels, base_seed, start, count, pool, helpers, keep=False):
    """Evaluate ``count`` realizations, counters ``start`` onwards, at ``levels``.

    Returns ``(values, rows)``.  ``values`` holds the coupled differences
    ``U[levels[0]] - U[levels[1]]``, or the values at the only level.  With
    ``keep``, ``rows`` holds one row of values per level; otherwise None.

    This is the executor's one loop over samples.  The calling thread and
    up to ``helpers`` threads of ``pool`` take chunk indices in sample
    order from one shared counter.  Each chunk derives its own seeds,
    evaluates them at every level in ascending order through
    :func:`_evaluate_chunk` and writes its slice of ``values``.  A failing
    chunk is recorded by index and stops the hand-out; the lowest one is
    raised once every thread has finished its chunk.
    """
    values = np.empty(count)
    rows = np.empty((len(levels), count)) if keep else None
    chunks = -(-count // _CHUNK)
    lock = threading.Lock()
    handed = 0  # chunks handed out so far
    stop = chunks  # no chunk at or past this index is handed out
    failures = {}  # chunk index -> the error it raised

    def run_chunk(i):
        seeds = counter_seeds(base_seed, start + i, min(_CHUNK, count - i))
        done = slice(i, i + len(seeds))
        for j, level in enumerate(levels):
            out = _evaluate_chunk(model, level, seeds)
            if j == 0:
                values[done] = out
            elif j == 1:
                values[done] -= out
            if keep:
                rows[j, done] = out
            # Each level's values are in place now; free them before the
            # next level is evaluated.
            del out

    def work():
        nonlocal handed, stop
        while True:
            with lock:
                k = handed
                if k >= stop:
                    return
                handed += 1
            try:
                run_chunk(k * _CHUNK)
            except Exception as exc:
                with lock:
                    failures[k] = exc
                    stop = min(stop, k)

    futures = [pool.submit(work) for _ in range(min(helpers, chunks - 1))]
    try:
        work()
    finally:
        # Every chunk is out by now, unless the caller was interrupted.
        with lock:
            stop = 0
        for f in futures:
            f.result()
    if failures:
        raise failures[min(failures)]
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
    helpers = _helpers(workers, max(plan.M))
    with _pool(helpers) as pool:
        for term, (count, levels) in enumerate(zip(plan.M, term_levels), start=1):
            values, rows = _evaluate_term(
                model, levels, base_seed, start, count, pool, helpers,
                keep=sample_log_path is not None,
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


def run_mlmc(model, plan, base_seed, workers=None, sample_log_path=None):
    """Execute a multilevel plan: coupled difference terms plus coarse term.

    Term l < L draws M[l-1] realizations and evaluates each at levels l and
    l+1 (same seed — exact coupling); the last term evaluates at level L
    only.  Realizations are disjoint across terms by the counter scheme.

    ``workers`` threads evaluate the chunks, the calling thread among them:
    None (the default) means the usable CPUs, 1 a serial run without a
    pool.  The report's bytes do not depend on it.
    """
    _check_base_seed(base_seed)
    workers = _check_workers(workers)
    if plan.strategy is StrategyId.CLASSICAL_MC:
        raise ValueError("classical plans are executed with run_classical_mc")
    if plan.L > model.max_level:
        raise ValueError(
            f"plan has L={plan.L} levels but the model stops at "
            f"max_level={model.max_level}"
        )
    term_levels = [[l, l + 1] for l in range(1, plan.L)] + [[plan.L]]
    return _run_terms(model, plan, term_levels, base_seed, workers, sample_log_path)


def run_classical_mc(model, level, M, base_seed, workers=None, sample_log_path=None):
    """Plain Monte Carlo at a single level: a one-term run of ``M`` samples.

    The report's plan is the classical plan for ``M`` without inputs;
    ``workers`` is as for :func:`run_mlmc`.
    """
    _check_base_seed(base_seed)
    workers = _check_workers(workers)
    M = _whole("M", M, 1, None)
    level = _whole("level", level, 1, model.max_level)
    return _run_terms(model, _classical_plan(M), [[level]], base_seed, workers, sample_log_path)


def pilot_estimate_parameters(model, pilot_samples, base_seed, workers=None):
    """Estimate (delta, e, alpha) from coupled pilots at the three finest levels.

    Each pilot realization is evaluated at levels 1, 2 and 3; the spread of
    the fine QoI is taken at level 2 (the second-finest), the decay exponent
    from the two adjacent difference spreads, and the fine-level error from
    the sizing identity.  Pilot seeds come from a salted sub-stream so they
    are never reused by a later run with the same base_seed.  ``workers`` is
    as for :func:`run_mlmc`.
    """
    _check_base_seed(base_seed)
    workers = _check_workers(workers)
    pilot_samples = _whole("pilot_samples", pilot_samples, 2, None)
    if model.max_level < 3:
        raise ValueError(
            f"pilot needs levels 1..3 but the model stops at {model.max_level}"
        )
    pilot_base = mix64_int(base_seed ^ _PILOT_SALT)
    helpers = _helpers(workers, pilot_samples)
    with _pool(helpers) as pool:
        d12, (_, u2, u3) = _evaluate_term(
            model, [1, 2, 3], pilot_base, 0, pilot_samples, pool, helpers, keep=True
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
