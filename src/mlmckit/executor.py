"""Coupled-ensemble execution over pluggable stochastic QoI models.

A model maps a level and a batch of seeds to one scalar QoI per seed,
deterministically: the same seed at two adjacent levels must resolve the
same underlying random realization, which is what makes the telescoping
difference terms cheap to estimate.  The executor owns seed derivation,
scheduling, aggregation, and the run report; models own only the physics.

Determinism contract: reports are byte-identical for a given
(model, plan, base_seed) regardless of worker count.  Sample ids are a
pure function of (base_seed, global counter).

The pilot and :func:`run_mlmc`, which runs every plan, evaluate samples
through one chunk loop, one hand-out over every chunk of every term.  Each
rule of that run path is stated once, where it is decided: the chunk split
at :func:`_chunk_size` and ``_CHUNK``; workers, the chunk hand-out and when
a term's statistics are taken at :func:`_call` and :func:`_evaluate_terms`;
the failure rule at :func:`_evaluate_chunk` and :func:`_no_overflow`;
exact sums in :mod:`mlmckit.stats`; the sample log at
:func:`_write_sample_log`.
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
from .planner import LevelPlan, _classical_plan, load
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
    """Statistics unusable: a pilot that cannot plan (the rule is in
    :func:`pilot_estimate_parameters`), a pilot's or run's coupled
    difference that overflows a float, or a run's statistics that do."""


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
    the stacked ``evaluate_many`` rows bit for bit, for any tuple of levels:
    a row depends on its own level alone, never on which other levels are
    asked for or in what order.
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


@contextmanager
def _call(base_seed, workers, largest):
    """Check a call's ``base_seed`` and ``workers``; hold its one thread pool.

    Yields ``(base_seed, pool, helpers)``: the seed as an int, and a pool of
    ``helpers`` threads (None when there are none) for a call whose largest
    term has ``largest`` samples.  ``workers`` None means the usable CPUs.
    The caller works too, so a call runs on at most ``workers`` threads and
    never on more threads than its largest term has chunks.
    """
    base_seed = _whole("base_seed", base_seed, 0, MASK64)
    workers = _usable_cpus() if workers is None else _whole("workers", workers, 1, None)
    helpers = min(workers, -(-largest // _chunk_size(largest))) - 1
    with ThreadPoolExecutor(max_workers=helpers) if helpers > 0 else nullcontext() as pool:
        yield base_seed, pool, helpers


def _evaluate_chunk(model, levels, seeds, into):
    """Write ``model``'s term values at ``levels`` for ``seeds`` into ``into``, or raise.

    ``into`` is the caller's ``(max(1, len(levels) - 1), len(seeds))`` slice
    of a term's values: the coupled differences ``U[levels[i]] -
    U[levels[i+1]]``, one row per adjacent pair, or the values at the only
    level.  Returns the ``(levels, seeds)`` values.

    The executor's failure rule lives here alone.  A chunk is tested once,
    by ``isfinite`` over ``into``: a difference is finite only if both its
    values are.  A chunk that fails is searched for the lowest non-finite
    level and its first seed (the row-major ``argmin`` over the values),
    else for the lowest pair whose difference overflows a float and its
    first seed, which raises DegenerateModelError.  A call that raises is
    followed, at each level in ascending order, by the same search over
    the two halves of the seeds, one level per call, until a half fails.
    So a one-level chunk of n seeds names its first failing seed, raised
    or non-finite, in at most 2 * ceil(log2(n)) + 1 ``evaluate_levels``
    calls, and a two-level chunk in at most 2 * ceil(log2(n)) + 3.  Beyond
    the failing call, that evaluates the n seeds once more at each level
    below the failing one and up to about 2n at the failing level, where
    one-seed batches would take n calls per level.  A call that raises
    while all its halves succeed, or that returns the wrong shape, names no
    seed, at its lowest level.
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
                _evaluate_chunk(model, (level,), part, np.empty((1, len(part))))
        raise ModelEvaluationError(levels[0], None, exc) from exc
    if out.shape != (len(levels), len(seeds)):
        raise ModelEvaluationError(
            levels[0], None,
            f"batch returned shape {out.shape} for {len(levels)} levels of {len(seeds)} seeds",
        )
    if len(levels) == 1:
        into[...] = out
    else:
        # Values not yet known finite: inf - inf must not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(out[:-1], out[1:], out=into)
    if not np.isfinite(into).all():
        # The lowest non-finite value, else the lowest difference that overflows.
        bad = out if not np.isfinite(out).all() else into
        row, col = np.unravel_index(np.argmin(np.isfinite(bad)), bad.shape)
        level, seed = levels[row], int(seeds[col])
        if bad is out:
            raise ModelEvaluationError(level, seed, f"non-finite value {float(out[row, col])!r}")
        raise DegenerateModelError(
            f"levels {level}-{levels[row + 1]} coupled difference overflows a float at seed {seed}"
        )
    return out


def _allocate(what, rows, count):
    """An empty ``(rows, count)`` float array; MemoryError names ``what`` and ``count``."""
    try:
        return np.empty((rows, count))
    except MemoryError as exc:
        raise MemoryError(f"{exc}: {what} has {count} samples") from exc


def _evaluate_terms(model, terms, base_seed, buffers, pool, helpers, take):
    """Evaluate every term of ``terms``, each ``(levels, start, count, rows)``.

    Term i draws ``count`` realizations, counters ``start`` onwards, and
    writes their values at ``levels``, as :func:`_evaluate_chunk` defines
    them, into ``buffers[i % len(buffers)]`` and, unless ``rows`` is None,
    one row of values per level into ``rows``.  ``take(i, values)`` is
    called once all of term i's values are in, and its results are returned
    in term order.  The caller allocates every array before the first
    chunk.

    This is the executor's one loop over samples.  The calling thread and
    up to ``helpers`` threads of ``pool`` take chunks from one shared
    counter, in sample order across every term.  Each chunk derives its own
    seeds and writes its slices through :func:`_evaluate_chunk`.  Only the
    calling thread calls ``take``, in term order, between its own chunks,
    so a helper may start the next term while the caller sums the last.  A
    chunk of term i is handed out only once ``take`` has returned for term
    ``i - len(buffers)``, so no buffer is overwritten before it is summed.
    A failure, of a chunk or of ``take``, is recorded and stops the
    hand-out; ``take`` still runs for every complete term below the lowest
    failing chunk.  Once every thread has finished its chunk, the first
    failure in sample order is raised, a term's ``take`` ranking after its
    own chunks and before the next term's.
    """
    steps = []  # (term, first sample, samples) of every chunk, in sample order
    left = []  # chunks of each term not in yet
    for t, (_, _, count, _) in enumerate(terms):
        size = _chunk_size(count)
        steps += [(t, i, min(size, count - i)) for i in range(0, count, size)]
        left.append(-(-count // size))
    cond = threading.Condition()
    handed = finished = taken = 0  # chunks handed out, chunks finished, terms taken
    stop = len(terms)  # the lowest term with a failure
    failures = {}  # (term, first sample) -> error; a term's take ranks at (term, count)
    results = []

    def run(t, i, n):
        levels, start, count, rows = terms[t]
        values = buffers[t % len(buffers)]
        if not n:
            results.append(take(t, values[:, :count]))
            return
        seeds = counter_seeds(base_seed, start + i, n)
        out = _evaluate_chunk(model, levels, seeds, values[:, i : i + n])
        if rows is not None:
            rows[:, i : i + n] = out

    def work(caller=False):
        # Record the step this thread last ran and pick its next one under
        # one lock, then run it outside.  Only the caller takes a term, as
        # the step (term, count, 0).
        nonlocal handed, finished, taken, stop
        step = error = None
        while True:
            with cond:
                if step is not None:
                    t, i, n = step
                    if error is not None:
                        failures[t, i] = error
                        stop = min(stop, t)
                    if n:
                        left[t] -= 1
                        finished += 1
                    else:
                        taken += 1
                    if not n or not left[t] or failures:  # what a waiter waits for
                        cond.notify_all()
                while True:
                    if caller and taken < stop and not left[taken]:
                        step = taken, terms[taken][2], 0
                        break
                    if failures or handed == len(steps):
                        if not caller or finished == handed and (failures or taken == len(terms)):
                            return
                    elif steps[handed][0] < taken + len(buffers):
                        step = steps[handed]
                        handed += 1
                        break
                    cond.wait()
            error = None
            try:
                run(*step)
            except BaseException as exc:  # recorded, so no thread waits on the step forever
                error = exc

    futures = [pool.submit(work) for _ in range(helpers)]
    try:
        work(caller=True)
    finally:
        # Stop the hand-out, also if the caller was interrupted, so each
        # helper returns once its chunk is done.
        with cond:
            handed = len(steps)
            cond.notify_all()
        for f in futures:
            f.result()
    if failures:
        raise failures[min(failures)]
    return results


def _term_stats(term_index, values):
    with _no_overflow(f"term {term_index}"):
        mean = mc_mean(values)
        var = unbiased_variance(values, mean) if len(values) >= 2 else None
    return LevelTermStats(term_index=term_index, mean=mean, variance=var, count=len(values))


def _std_error(term_stats):
    if any(t.variance is None for t in term_stats):
        return None
    return math.sqrt(math.fsum(t.variance / t.count for t in term_stats))


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
    two levels); a two-level term's values are the coupled differences.
    Every term's chunks go through one :func:`_evaluate_terms` hand-out.  A
    term's statistics are taken on the calling thread once all its values
    are in, in term order, while helpers may evaluate the next term, so
    they do not depend on the worker count.  The sample log is written once
    every term has succeeded.  The realized load is
    :func:`~mlmckit.planner.load` of those solves.
    """
    t0 = time.perf_counter()
    with _call(base_seed, workers, max(plan.M)) as (base_seed, pool, helpers):
        # Every array the run fills is allocated before its first chunk, so
        # a run that cannot fit fails before it evaluates a sample.  With
        # helpers, the terms take turns at two buffers, each sized by the
        # largest term that uses it, so a helper can evaluate the next term
        # while the caller sums the last.
        names = [f"term {t} (levels {list(lv)})" for t, lv in enumerate(term_levels, start=1)]
        turns = 2 if helpers and len(plan.M) > 1 else 1
        largest = [max(range(p, len(plan.M), turns), key=plan.M.__getitem__) for p in range(turns)]
        buffers = [_allocate(names[t], 1, plan.M[t]) for t in largest]
        kept = [
            _allocate(name, len(levels), count) if sample_log_path is not None else None
            for name, levels, count in zip(names, term_levels, plan.M)
        ]
        starts = [sum(plan.M[:t]) for t in range(len(plan.M))]
        terms = list(zip(term_levels, starts, plan.M, kept))
        stats = _evaluate_terms(
            model, terms, base_seed, buffers, pool, helpers,
            lambda t, values: _term_stats(t + 1, values[0]),
        )
    if sample_log_path is not None:
        _write_sample_log(sample_log_path, [
            (term, base_seed, start, dict(zip(levels, rows)))
            for term, (levels, start, _, rows) in enumerate(terms, start=1)
        ])
    seed_ledger = [
        {
            "term_index": term,
            "levels": list(levels),
            "start_index": start,
            "count": count,
            "first_seed": int(counter_seeds(base_seed, start, 1)[0]),
            "last_seed": int(counter_seeds(base_seed, start + count - 1, 1)[0]),
        }
        for term, (levels, start, count, _) in enumerate(terms, start=1)
    ]
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
    """Execute any plan: coupled difference terms plus the coarse term.

    Term t draws M[t-1] realizations and evaluates each at the levels of
    ``plan.term_levels[t-1]``: levels t and t+1 (same seed — exact coupling),
    or level L alone for the last term.  A ClassicalMC plan is one term at
    level 1, the level it is sized and priced for.  Realizations are
    disjoint across terms by the counter scheme.

    ``workers`` threads evaluate the chunks, the calling thread among them:
    None (the default) means the usable CPUs, 1 a serial run without a
    pool.
    """
    if plan.L > model.max_level:
        raise ValueError(
            f"plan has L={plan.L} levels but the model stops at "
            f"max_level={model.max_level}"
        )
    return _run_terms(model, plan, plan.term_levels, base_seed, workers, sample_log_path)


def run_classical_mc(model, level, M, base_seed, workers=None, sample_log_path=None):
    """Plain Monte Carlo of ``M`` samples at ``level``, which no plan names.

    :func:`run_mlmc` runs a ClassicalMC plan at level 1; this runs its one
    term at any level.  The report's plan is the classical plan for ``M``
    without inputs, so it has no a-priori bound; ``workers`` is as for
    :func:`run_mlmc`.
    """
    plan = _classical_plan(M)  # checks M, before the level
    level = _whole("level", level, 1, model.max_level)
    return _run_terms(model, plan, [[level]], base_seed, workers, sample_log_path)


def pilot_estimate_parameters(model, pilot_samples, base_seed, workers=None):
    """Estimate (delta, e, alpha) from coupled pilots at the three finest levels.

    Each pilot realization is evaluated at levels 1, 2 and 3; the spread of
    the fine QoI is taken at level 2 (the second-finest), the decay exponent
    from the two adjacent difference spreads, and the fine-level error from
    the sizing identity.  Pilot seeds come from a salted sub-stream so they
    are never reused by a later run with the same base_seed.  ``workers`` is
    as for :func:`run_mlmc`.

    The pilot's one failure rule: a zero spread, an alpha outside
    [0, inf), or a float overflow anywhere in deriving (delta, e, alpha)
    from the pilot's values raises :class:`DegenerateModelError` naming the
    pilot (CLI exit 3), rather than a plan.  A coupled difference that
    overflows is the run path's rule (:func:`_evaluate_chunk`).
    """
    pilot_samples = _whole("pilot_samples", pilot_samples, 2, None)
    if model.max_level < 3:
        raise ValueError(
            f"pilot needs levels 1..3 but the model stops at {model.max_level}"
        )
    with _call(base_seed, workers, pilot_samples) as (base_seed, pool, helpers):
        pilot_base = mix64_int(base_seed ^ _PILOT_SALT)
        diffs = _allocate("the pilot", 2, pilot_samples)
        rows = _allocate("the pilot", 3, pilot_samples)
        pilot = [([1, 2, 3], 0, pilot_samples, rows)]
        _evaluate_terms(model, pilot, pilot_base, [diffs], pool, helpers, lambda t, values: None)
    with _no_overflow("pilot"):
        delta_12, delta_23, delta = [math.sqrt(unbiased_variance(v)) for v in (*diffs, rows[1])]
        if 0.0 in (delta_12, delta_23, delta):
            raise DegenerateModelError(
                "pilot variance is zero: a deterministic (or exactly coupled) "
                "model cannot be planned from pilot statistics"
            )
        alpha = estimate_alpha(delta_12, delta_23)
        if not 0.0 <= alpha < math.inf:
            raise DegenerateModelError(
                f"pilot decay exponent alpha={alpha:.4g} is outside [0, inf): coupled "
                "differences grow toward finer levels, or shrink past the float range"
            )
        return SolutionParameters(
            delta=delta, e=estimate_fine_error(delta_12, alpha), alpha=alpha, sigma=1.0
        )
