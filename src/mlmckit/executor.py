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
chunks of its largest term.  :func:`_chunk_size` splits a term by its
sample count alone into chunks that are equal but for a smaller last one:
one chunk per 512 samples begun, up to eight chunks, so eight from 3585 to
131 072 samples, and chunks of at most ``_CHUNK`` = 16 384 seeds beyond.
The chunks are handed out in sample order from one shared counter.  Each
chunk derives its own seeds from (base_seed, counter), evaluates them at
every level of its term in one ``evaluate_levels`` call, checks that the
values are finite, and writes the coupled difference straight into the
term's values.
Per-level values are kept only for a sample log and for the pilot, which
needs its three levels.  Chunk boundaries and aggregation do not depend on
the worker count, so neither do the bytes of any report.

On 2 vCPUs the default of two workers took ``gbm_capped``'s median
``run_s`` from 0.251 to 0.145 s (1.73x, ten alternating 50 s runs against
one worker).  Cutting every term into up to eight chunks, where fixed
16384-seed chunks ran its 4096-sample pilot on one thread, then took its
median ``pipeline_s`` from 0.172 to 0.146 s (ten alternating 50 s pairs,
all ten won; traced, the pilot went from 34 to 18.5 ms).  TwoScale gains
less from a second worker: ``twoscale_cli``'s 7-level S3 ``run_mlmc``
took 21.0-21.5 ms at one worker and 14.7-15.5 ms at two, because each
term's statistics (three exact sums, about 3 ms per run) run on the
calling thread after the term, while only the draws (``normal_lanes``,
about 15 ms per run on one thread) are shared.

Failures: a raised error and a non-finite value follow one rule.  The run
fails with a :class:`ModelEvaluationError` naming the first failing chunk
in sample order, the lowest failing level of that chunk, and its first
failing seed at that level, unless the model raises that error itself.
A raised error is traced to its seed by halving the chunk at each level in
turn, in O(log chunk) calls (see :func:`_evaluate_chunk`).  Once a chunk
fails no further chunk is handed out; the lowest failing chunk is raised
after every chunk before it has finished.  Chunks are cut by sample count alone, so the error does
not depend on the worker count.  Statistics that overflow a float (a
term's mean or variance, their sums over terms, or the pilot's variances)
raise :class:`DegenerateModelError` naming the terms or the pilot.  So does
a coupled difference of two finite values that overflows: it names its two
levels and its seed, and a chunk's is checked in that chunk, under the same
first-failing-chunk rule.
"""

import math
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._bits import MASK64, counter_seeds, mix64_int
from ._checks import _usable_cpus, _whole
from .planner import LevelPlan, StrategyId, _classical_plan, load
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

# Scheduling granularity (see _chunk_size).  Chunk boundaries depend on a
# term's sample count alone, never on the worker count, so model-side
# batching is the same for any workers.  _CHUNK caps a chunk: on
# twoscale_cli (2 vCPUs, four alternating 20 s runs) fixed chunks of 4096,
# 8192 and 16384 seeds gave a median run_s of 0.153, 0.139 and 0.117 s;
# 32768 ran faster still, but rose peak RSS by a tenth.  _SPLIT chunks per
# term keep every thread of up to _SPLIT busy to the end of a term, where
# fixed 16384-seed chunks left GBM's 4096-sample pilot on one thread and
# its 74 930-sample closure term ending on one.  A term gets one chunk per
# _CHUNK_STEP samples begun, up to _SPLIT, which bounds the per-chunk cost
# (seed derivation, a lock, one model call) that small terms pay.
_CHUNK = 16384
_SPLIT = 8
_CHUNK_STEP = 512


class ModelEvaluationError(RuntimeError):
    """A sample evaluation failed; carries the offending (level, seed)."""

    def __init__(self, level, seed, detail):
        self.level = level
        self.seed = seed
        super().__init__(
            f"model evaluation failed at level={level}, seed={seed}: {detail}"
        )


class DegenerateModelError(ValueError):
    """Statistics unusable: a pilot that cannot plan (e.g. zero variance),
    or a pilot's or run's coupled differences or statistics that overflow a
    float."""


@contextmanager
def _no_overflow(what):
    """Raise an OverflowError of ``what``'s statistics as DegenerateModelError."""
    try:
        yield
    except OverflowError as exc:
        raise DegenerateModelError(f"{what} statistics overflow a float: {exc}") from exc


class QoIModel(ABC):
    """Deterministic stochastic-solver facade, evaluated a batch at a time.

    ``evaluate_many(level, seeds)`` returns a ``(len(seeds),)`` float array
    whose every value is fixed by its seed alone, and the same seed at
    different levels must resolve the same underlying realization (exact
    coupling).  A model names a failing seed by raising
    :class:`ModelEvaluationError`; otherwise the executor halves a batch
    that raises until it finds the seed (see :func:`_evaluate_chunk`).
    ``max_level`` is the coarsest level the model can run.

    The executor calls ``evaluate_levels(levels, seeds)`` once per chunk,
    for every level of its term.  A model may override it to share work
    between the levels of one realization, such as its draw; it must equal
    the stacked ``evaluate_many`` rows bit for bit.
    """

    max_level: int = 1

    @abstractmethod
    def evaluate_many(self, level, seeds):
        """QoI evaluations at ``level`` for the realizations ``seeds``."""

    def evaluate_levels(self, levels, seeds):
        """A ``(len(levels), len(seeds))`` array: row i is ``evaluate_many(levels[i], seeds)``."""
        return np.stack([np.asarray(self.evaluate_many(lv, seeds), dtype=float) for lv in levels])


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


def _chunk_size(count):
    """Seeds per chunk of a ``count``-sample term; only the last chunk is smaller.

    The term is cut into ``max(ceil(count / _CHUNK), min(_SPLIT,
    ceil(count / _CHUNK_STEP)))`` chunks, as equal as whole seeds allow.
    """
    n = max(-(-count // _CHUNK), min(_SPLIT, -(-count // _CHUNK_STEP)))
    return -(-count // n)


def _helpers(workers, largest):
    """Helper threads for a call whose largest term has ``largest`` samples.

    The caller works too, so a call runs on at most ``workers`` threads and
    never on more threads than its largest term has chunks.
    """
    return min(workers, -(-largest // _chunk_size(largest))) - 1


def _pool(helpers):
    """One thread pool of ``helpers`` threads for a whole call, or none."""
    return ThreadPoolExecutor(max_workers=helpers) if helpers > 0 else nullcontext()


def _evaluate_chunk(model, levels, seeds):
    """``model``'s values at ``levels`` for ``seeds``, all finite, or the failure.

    The executor's failure rule lives here alone: the lowest failing level,
    and its first failing seed.  A non-finite value is found by the
    row-major ``argmin`` over the ``(levels, seeds)`` array.  A call that
    raises is followed, at each level in ascending order, by the same
    search over the two halves of the seeds, one level per call, until a
    half fails.  So a one-level chunk of n seeds names its first failing
    seed, raised or non-finite, in at most 2 * ceil(log2(n)) + 1
    ``evaluate_levels`` calls, and a two-level chunk in at most
    2 * ceil(log2(n)) + 3.  Beyond the failing call, that evaluates the n
    seeds once more at each level below the failing one and up to about 2n
    at the failing level, where one-seed batches would take n calls per
    level.  A call that raises while all its halves succeed, or that
    returns the wrong shape, names no seed, at its lowest level.
    """
    try:
        out = np.asarray(model.evaluate_levels(levels, seeds), dtype=float)
    except ModelEvaluationError:
        raise
    except Exception as exc:
        if len(levels) == 1 and len(seeds) == 1:
            raise ModelEvaluationError(levels[0], int(seeds[0]), exc) from exc
        half = len(seeds) // 2
        parts = (seeds[:half], seeds[half:]) if half else (seeds,)
        for level in levels:
            for part in parts:
                _evaluate_chunk(model, (level,), part)
        raise ModelEvaluationError(levels[0], None, exc) from exc
    if out.shape != (len(levels), len(seeds)):
        raise ModelEvaluationError(
            levels[0], None,
            f"batch returned shape {out.shape} for {len(levels)} levels of {len(seeds)} seeds",
        )
    finite = np.isfinite(out)
    if not finite.all():
        row, col = np.unravel_index(np.argmin(finite), out.shape)
        raise ModelEvaluationError(
            levels[row], int(seeds[col]), f"non-finite value {out[row, col]!r}"
        )
    return out


def _difference(what, fine, coarse, base_seed, start):
    """``fine - coarse`` of the samples of counters ``start`` onwards.

    Two finite values can differ by more than a float holds; the first
    such sample raises DegenerateModelError naming ``what`` and its seed.
    """
    with np.errstate(over="ignore"):
        diff = fine - coarse
    finite = np.isfinite(diff)
    if not finite.all():
        seed = counter_seeds(base_seed, start + int(np.argmin(finite)), 1)[0]
        raise DegenerateModelError(f"{what} coupled difference overflows a float at seed {seed}")
    return diff


def _evaluate_term(model, levels, base_seed, start, count, pool, helpers, keep=False):
    """Evaluate ``count`` realizations, counters ``start`` onwards, at ``levels``.

    Returns ``(values, rows)``.  ``values`` holds the coupled differences
    ``U[levels[0]] - U[levels[1]]``, or the values at the only level.  With
    ``keep``, ``rows`` holds one row of values per level; otherwise None.

    This is the executor's one loop over samples.  The calling thread and
    up to ``helpers`` threads of ``pool`` take chunk indices in sample
    order from one shared counter.  Each chunk derives its own seeds,
    evaluates them at every level through :func:`_evaluate_chunk` and
    writes its slice of ``values``; a coupled difference that overflows
    raises :class:`DegenerateModelError`.  A failing chunk is recorded by index
    and stops the hand-out; the lowest one is raised once every thread has
    finished its chunk.
    """
    values = np.empty(count)
    rows = np.empty((len(levels), count)) if keep else None
    size = _chunk_size(count)
    chunks = -(-count // size)
    lock = threading.Lock()
    handed = 0  # chunks handed out so far
    stop = chunks  # no chunk at or past this index is handed out
    failures = {}  # chunk index -> the error it raised

    def run_chunk(i):
        seeds = counter_seeds(base_seed, start + i, min(size, count - i))
        done = slice(i, i + len(seeds))
        out = _evaluate_chunk(model, levels, seeds)
        if len(levels) > 1:
            what = f"levels {levels[0]}-{levels[1]}"
            values[done] = _difference(what, out[0], out[1], base_seed, start + i)
        else:
            values[done] = out[0]
        if keep:
            rows[:, done] = out

    def work():
        nonlocal handed, stop
        while True:
            with lock:
                k = handed
                if k >= stop:
                    return
                handed += 1
            try:
                run_chunk(k * size)
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

    ``terms`` holds ``(term, base_seed, start, per_level)``: the term's
    samples are counters ``start`` onwards, and ``per_level`` maps each
    level the term touches, in ascending order, to its values.  Rows are
    formatted 4096 samples at a time and end in CRLF, as ``csv.writer``'s
    do; no field needs quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write("term,level,sample_index,seed,value\r\n")
        for term, base_seed, start, per_level in terms:
            count = len(next(iter(per_level.values())))
            for lo in range(0, count, 4096):
                hi = min(lo + 4096, count)
                seeds = counter_seeds(base_seed, start + lo, hi - lo)
                keys = [f"{idx},{seed}," for idx, seed in enumerate(seeds.tolist(), start=lo)]
                cols = [
                    [f"{term},{lv},{key}{x!r}\r\n" for key, x in zip(keys, vals[lo:hi].tolist())]
                    for lv, vals in per_level.items()
                ]
                fh.writelines(map("".join, zip(*cols)))


def _run_terms(model, plan, term_levels, base_seed, workers, sample_log_path):
    """Run every term of ``plan`` and assemble its report.

    Term t draws ``plan.M[t-1]`` realizations, the next ones of the counter
    stream, and evaluates each at every level of ``term_levels[t-1]`` (one or
    two levels); a two-level term's values are the coupled differences.  The
    realized load is :func:`~mlmckit.planner.load` of those solves.
    """
    t0 = time.perf_counter()
    stats = []
    seed_ledger = []
    log_terms = []
    start = 0
    helpers = _helpers(workers, max(plan.M))
    with _pool(helpers) as pool:
        for term, (count, levels) in enumerate(zip(plan.M, term_levels), start=1):
            values, rows = _evaluate_term(
                model, levels, base_seed, start, count, pool, helpers,
                keep=sample_log_path is not None,
            )
            if sample_log_path is not None:
                log_terms.append((term, base_seed, start, dict(zip(levels, rows))))
            with _no_overflow(f"term {term}"):
                stats.append(_term_stats(term, values))
            seed_ledger.append(
                {
                    "term_index": term,
                    "levels": list(levels),
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
    with _no_overflow(f"terms 1-{len(term_stats)}"):
        estimate = math.fsum(t.mean for t in term_stats)
        std_error = _std_error(term_stats)
    return RunReport(
        plan=plan,
        term_stats=term_stats,
        estimate=estimate,
        estimated_std_error=std_error,
        realized_load=load(plan.M, term_levels),
        wall_time=time.perf_counter() - t0,
        seeds={"base_seed": base_seed, "terms": seed_ledger},
    )


def run_mlmc(model, plan, base_seed, workers=None, sample_log_path=None):
    """Execute a multilevel plan: coupled difference terms plus coarse term.

    Term t draws M[t-1] realizations and evaluates each at the levels of
    ``plan.term_levels[t-1]``: levels t and t+1 (same seed — exact coupling),
    or level L alone for the last term.  Realizations are disjoint across
    terms by the counter scheme.

    ``workers`` threads evaluate the chunks, the calling thread among them:
    None (the default) means the usable CPUs, 1 a serial run without a
    pool.  The report's bytes do not depend on it.
    """
    base_seed = _whole("base_seed", base_seed, 0, MASK64)
    workers = _usable_cpus() if workers is None else _whole("workers", workers, 1, None)
    if plan.strategy is StrategyId.CLASSICAL_MC:
        raise ValueError("classical plans are executed with run_classical_mc")
    if plan.L > model.max_level:
        raise ValueError(
            f"plan has L={plan.L} levels but the model stops at "
            f"max_level={model.max_level}"
        )
    return _run_terms(model, plan, plan.term_levels, base_seed, workers, sample_log_path)


def run_classical_mc(model, level, M, base_seed, workers=None, sample_log_path=None):
    """Plain Monte Carlo at a single level: a one-term run of ``M`` samples.

    The report's plan is the classical plan for ``M`` without inputs;
    ``workers`` is as for :func:`run_mlmc`.
    """
    base_seed = _whole("base_seed", base_seed, 0, MASK64)
    workers = _usable_cpus() if workers is None else _whole("workers", workers, 1, None)
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
    base_seed = _whole("base_seed", base_seed, 0, MASK64)
    workers = _usable_cpus() if workers is None else _whole("workers", workers, 1, None)
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

    d23 = _difference("pilot levels 2-3", u2, u3, pilot_base, 0)
    with _no_overflow("pilot"):
        var_12 = unbiased_variance(d12)
        var_23 = unbiased_variance(d23)
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
