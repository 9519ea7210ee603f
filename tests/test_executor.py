import hashlib
import json
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mlmckit import _checks, executor, models
from mlmckit._bits import counter_seeds, normal_lanes
from mlmckit.executor import (
    DegenerateModelError,
    ModelEvaluationError,
    QoIModel,
    pilot_estimate_parameters,
    run_classical_mc,
    run_mlmc,
)
from mlmckit.models import GBMModel, GBMSpec, TwoScaleModel
from mlmckit.planner import LevelPlan, StrategyId, plan_for_strategy
from mlmckit.stats import SolutionParameters, unbiased_variance


# The executor's largest chunk, and a term of eight chunks.
CHUNK = executor._CHUNK
SPAN = 2 * CHUNK + 808


def _chunks(count):
    """Seed counts of the chunks a ``count``-sample term is split into."""
    size = executor._chunk_size(count)
    return [min(size, count - i) for i in range(0, count, size)]


def _starts(count):
    """Sample index of each chunk's first seed in a ``count``-sample term."""
    return list(range(0, count, executor._chunk_size(count)))


def _plan(strategy, M, inputs=None, multiplier=4.0):
    return LevelPlan(strategy, tuple(M), multiplier, inputs)


class LevelBlindModel(QoIModel):
    """Same value at every level: all coupled difference terms vanish."""

    def __init__(self, max_level=8):
        self.max_level = max_level

    def evaluate_many(self, level, seeds):
        return normal_lanes(np.asarray(seeds, dtype=np.uint64), 1)[:, 0]


class ConstantModel(QoIModel):
    max_level = 8

    def evaluate_many(self, level, seeds):
        return np.full(len(seeds), 1.5)


class TwoScaleBatches(QoIModel):
    """A TwoScaleModel behind the default ``evaluate_levels``, which calls
    ``evaluate_many`` once per level, so a subclass can watch or poison
    each level's batch by overriding ``evaluate_many``."""

    def __init__(self, **kw):
        self.two_scale = TwoScaleModel(**kw)
        self.max_level = self.two_scale.max_level

    def evaluate_many(self, level, seeds):
        return self.two_scale.evaluate_many(level, seeds)


class RecorderModel(TwoScaleBatches):
    """Two-scale model that logs every (level, seed) it is asked for."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = []

    def evaluate_many(self, level, seeds):
        self.calls.extend((level, int(s)) for s in seeds)
        return super().evaluate_many(level, seeds)


class PoisonModel(TwoScaleBatches):
    """Returns NaN (or raises) for one specific (level, seed) pair."""

    def __init__(self, poison_level, poison_seed, raise_instead=False, **kw):
        super().__init__(**kw)
        self.poison = (poison_level, poison_seed)
        self.raise_instead = raise_instead

    def evaluate_many(self, level, seeds):
        out = super().evaluate_many(level, seeds)
        for i, s in enumerate(np.asarray(seeds, dtype=np.uint64)):
            if (level, int(s)) == self.poison:
                if self.raise_instead:
                    raise RuntimeError("solver diverged")
                out[i] = math.nan
        return out


# ---------------------------------------------------------------------------
# coupled execution
# ---------------------------------------------------------------------------

def test_level_blind_model_gives_zero_difference_terms():
    plan = _plan(StrategyId.S1, (40, 30, 20))
    report = run_mlmc(LevelBlindModel(), plan, base_seed=7)
    assert len(report.term_stats) == 3
    for t in report.term_stats[:-1]:
        assert t.mean == 0.0
        assert t.variance == 0.0
    coarse = report.term_stats[-1]
    assert report.estimate == coarse.mean
    assert report.estimated_std_error == pytest.approx(
        math.sqrt(coarse.variance / coarse.count), rel=1e-15
    )


@pytest.mark.parametrize("strategy", list(StrategyId))
def test_realized_load_is_the_plan_load(strategy):
    # The planner's DOF law over the solves the ledger records, bit for bit.
    plan = plan_for_strategy(strategy, SolutionParameters(delta=1.0, e=0.1, alpha=1.0))
    report = run_mlmc(TwoScaleModel(max_level=plan.L), plan, base_seed=0)
    assert report.realized_load == plan.relative_load
    solves = [0] * plan.L
    for term in report.seeds["terms"]:
        for level in term["levels"]:
            solves[level - 1] += term["count"]
    assert tuple(solves) == plan.M_total


def test_realized_load_is_exact():
    report = run_mlmc(TwoScaleModel(), _plan(StrategyId.S1, (5, 4, 3)), base_seed=0)
    # 5 (1 + 1/8) + 4 (1/8 + 1/64) + 3/64, all powers of two: exact
    assert report.realized_load == 6.234375


def test_estimate_is_sum_of_term_means():
    plan = _plan(StrategyId.S2, (64, 256))
    report = run_mlmc(TwoScaleModel(), plan, base_seed=3)
    assert report.estimate == pytest.approx(
        math.fsum(t.mean for t in report.term_stats), rel=1e-15
    )
    # true mean of the synthetic model is 0; sanity-bound the estimate
    assert abs(report.estimate) < 1.0


def test_a_priori_bound_needs_inputs():
    p = SolutionParameters(delta=2.0, e=0.5, alpha=1.0)
    with_inputs = run_mlmc(TwoScaleModel(), _plan(StrategyId.S2, (8, 16), inputs=p), 0)
    assert with_inputs.a_priori_error_bound == 4.0 * 0.5
    without = run_mlmc(TwoScaleModel(), _plan(StrategyId.S2, (8, 16)), 0)
    assert without.a_priori_error_bound is None


def test_run_mlmc_rejections():
    model = TwoScaleModel(max_level=2)
    with pytest.raises(ValueError):
        run_mlmc(model, _plan(StrategyId.S1, (4, 4, 4)), 0)  # L > max_level
    with pytest.raises(ValueError):
        run_mlmc(model, _plan(StrategyId.S2, (4, 4)), 0, workers=0)
    for bad_seed in (-1, 2**64, True, 1.5):
        with pytest.raises(ValueError):
            run_mlmc(model, _plan(StrategyId.S2, (4, 4)), bad_seed)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "2"])
def test_every_runner_rejects_bad_worker_counts(bad):
    model = TwoScaleModel()
    with pytest.raises(ValueError):
        run_mlmc(model, _plan(StrategyId.S2, (4, 4)), 0, workers=bad)
    with pytest.raises(ValueError):
        run_classical_mc(model, 1, 10, 0, workers=bad)
    with pytest.raises(ValueError):
        pilot_estimate_parameters(model, 64, 0, workers=bad)


def test_whole_number_floats_run_as_the_integers():
    # The API rejected base_seed=3.0 and workers=2.0, which a config took.
    model, plan = TwoScaleModel(), _plan(StrategyId.S2, (SPAN, 300))
    runs = [
        (
            json.dumps(run_mlmc(model, plan, seed, workers=w).to_json_dict()),
            json.dumps(run_classical_mc(model, 2, SPAN, seed, workers=w).to_json_dict()),
            pilot_estimate_parameters(model, 4096, seed, workers=w),
        )
        for seed, w in ((3, 2), (3.0, 2.0))
    ]
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# one pass per term, the caller plus one thread pool per call
# ---------------------------------------------------------------------------

@pytest.fixture
def pools(monkeypatch):
    """Counts the thread pools the executor builds."""
    built = []

    class CountingPool(executor.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor, "ThreadPoolExecutor", CountingPool)
    return built


@pytest.mark.parametrize(
    "count",
    [1, 2, 511, 512, 513, 1000, 4095, 4096, 4097, 9000, SPAN, 74930]
    + [8 * CHUNK - 1, 8 * CHUNK, 8 * CHUNK + 1, 10 * CHUNK, 10 * CHUNK + 5, 100 * CHUNK + 3],
)
def test_chunks_are_equal_but_the_last_and_at_most_chunk(count):
    sizes = _chunks(count)
    assert sum(sizes) == count
    assert max(sizes) <= CHUNK
    assert sizes[:-1] == [sizes[0]] * (len(sizes) - 1)
    assert 1 <= sizes[-1] <= sizes[0]
    # One chunk per 512 samples begun, up to eight, and beyond eight only
    # as many as keep each within CHUNK.
    assert len(sizes) == max(math.ceil(count / CHUNK), min(8, math.ceil(count / 512)))


def test_chunk_sizes_depend_on_the_sample_count_alone():
    assert _chunks(4096) == [512] * 8  # the default pilot, on eight chunks
    assert _chunks(74930) == [9367] * 7 + [9361]
    assert _chunks(8 * CHUNK) == [CHUNK] * 8
    assert _chunks(500) == [500]

    class BatchSizes(TwoScaleBatches):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def evaluate_many(self, level, seeds):
            self.sizes.append((level, len(seeds)))
            return super().evaluate_many(level, seeds)

    for workers in (1, 2, 3, None):
        model = BatchSizes()
        run_classical_mc(model, 1, SPAN, 0, workers=workers)
        run_mlmc(model, _plan(StrategyId.S2, (CHUNK + 1, 700)), 0, workers=workers)
        pilot_estimate_parameters(model, 4096, 0, workers=workers)
        expect = (
            [(1, n) for n in _chunks(SPAN)]
            + [(lv, n) for n in _chunks(CHUNK + 1) for lv in (1, 2)]
            + [(2, n) for n in _chunks(700)]
            + [(lv, n) for n in _chunks(4096) for lv in (1, 2, 3)]
        )
        assert sorted(model.sizes) == sorted(expect)


def test_one_pool_per_call_with_workers(pools):
    # The caller works too, so a pool holds workers - 1 helpers, and no more
    # than the largest term has chunks after the caller's.
    model = TwoScaleModel()
    run_mlmc(model, _plan(StrategyId.S1, (SPAN, 5000, 4097, 300)), 0, workers=2)
    assert pools == [1]
    pools.clear()
    pilot_estimate_parameters(model, SPAN, 0, workers=2)
    assert pools == [1]
    pools.clear()
    run_classical_mc(model, 1, SPAN, 0, workers=3)
    assert pools == [2]
    pools.clear()
    run_classical_mc(model, 1, SPAN, 0, workers=16)
    assert pools == [len(_chunks(SPAN)) - 1]
    pools.clear()
    # A call whose every term is one chunk runs on the caller alone.
    one = executor._CHUNK_STEP
    assert _chunks(one) == [one]
    run_mlmc(model, _plan(StrategyId.S1, (one, 300, 200, 100)), 0, workers=2)
    pilot_estimate_parameters(model, one, 0, workers=2)
    run_classical_mc(model, 1, one, 0, workers=3)
    assert pools == []


def test_a_4096_sample_pilot_runs_on_two_threads(pools):
    class MeetsAHelper(TwoScaleBatches):
        """Each thread's first batch waits until a second thread has started one."""

        def __init__(self):
            super().__init__()
            self.meet = threading.Barrier(2, timeout=5)
            self.lock = threading.Lock()
            self.threads = set()

        def evaluate_many(self, level, seeds):
            with self.lock:
                first = threading.get_ident() not in self.threads
                self.threads.add(threading.get_ident())
            if first:
                self.meet.wait()
            return super().evaluate_many(level, seeds)

    model = MeetsAHelper()
    params = pilot_estimate_parameters(model, 4096, 21, workers=2)
    assert pools == [1]
    assert len(model.threads) == 2
    assert params == pilot_estimate_parameters(TwoScaleModel(), 4096, 21, workers=1)


def test_no_pool_for_one_worker(pools):
    model = TwoScaleModel()
    for count in (9000, SPAN):
        run_mlmc(model, _plan(StrategyId.S1, (count, 5000, 300)), 0, workers=1)
        pilot_estimate_parameters(model, count, 0, workers=1)
        run_classical_mc(model, 1, count, 0, workers=1)
    assert pools == []


@pytest.mark.parametrize("cpus", [1, 3])
def test_default_workers_are_the_usable_cpus(pools, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    model = TwoScaleModel()
    run_mlmc(model, _plan(StrategyId.S2, (SPAN, 300)), 0)
    pilot_estimate_parameters(model, SPAN, 0)
    run_classical_mc(model, 1, SPAN, 0)
    assert pools == ([cpus - 1] * 3 if cpus > 1 else [])
    # Without an affinity call the machine's CPU count is used.
    pools.clear()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    run_classical_mc(model, 1, SPAN, 0)
    assert pools == ([cpus - 1] if cpus > 1 else [])


@pytest.mark.parametrize("workers", [2, 4, None])
def test_a_call_runs_on_at_most_workers_threads_and_chunks(workers):
    class ThreadCounter(TwoScaleBatches):
        def __init__(self):
            super().__init__()
            self.threads = set()
            self.alive = []

        def evaluate_many(self, level, seeds):
            self.threads.add(threading.get_ident())
            self.alive.append(threading.active_count())
            return super().evaluate_many(level, seeds)

    usable = _checks._usable_cpus() if workers is None else workers
    for M in ((SPAN, CHUNK + 1, 300), (executor._CHUNK_STEP, 300)):
        model = ThreadCounter()
        before = threading.active_count()
        run_mlmc(model, _plan(StrategyId.S1, M), 0, workers=workers)
        most = min(usable, len(_chunks(max(M))))
        assert len(model.threads) <= most
        assert max(model.alive) <= before + most - 1
def test_more_workers_than_cores_fill_every_sample(tmp_path):
    # Chunk tasks write into disjoint columns of one shared array; a lost or
    # misplaced write would change the logged values.
    plan = _plan(StrategyId.S1, (10 * 4096 + 7, 2 * 4096, 5))
    many = (os.cpu_count() or 1) + 2
    logs = [tmp_path / "one.csv", tmp_path / "many.csv"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers, log in zip((1, many), logs):
            run_mlmc(TwoScaleModel(), plan, 4, workers=workers, sample_log_path=str(log))
    finally:
        sys.setswitchinterval(interval)
    assert logs[0].read_bytes() == logs[1].read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_each_level_of_a_chunk_is_one_batch_call(workers):
    class BatchRecorder(TwoScaleBatches):
        def __init__(self):
            super().__init__()
            self.batches = []
            self.by_thread = {}

        def evaluate_many(self, level, seeds):
            batch = (level, len(seeds), int(seeds[0]))
            self.batches.append(batch)
            self.by_thread.setdefault(threading.get_ident(), []).append(batch)
            return super().evaluate_many(level, seeds)

    for count in (9000, SPAN):
        model = BatchRecorder()
        run_mlmc(model, _plan(StrategyId.S2, (count, 100)), 0, workers=workers)
        seeds = counter_seeds(0, 0, count + 100)
        sizes = _chunks(count)
        coarse = (2, 100, int(seeds[count]))
        expect = {
            (lv, size, int(seeds[i])) for i, size in zip(_starts(count), sizes) for lv in (1, 2)
        } | {coarse}
        assert len(model.batches) == len(expect)
        assert set(model.batches) == expect
        # The coarse term starts only once every chunk of the first has finished.
        assert model.batches[-1] == coarse
        if workers == 1:
            # One chunk at every level of the term before the next chunk.
            assert [lv for lv, _, _ in model.batches] == [1, 2] * len(sizes) + [2]
            assert list(model.by_thread) == [threading.get_ident()]
        # On whichever thread a chunk runs, its two levels are consecutive
        # calls there, level 1 first.
        for calls in model.by_thread.values():
            pairs = [c for c in calls if c != coarse]
            assert [lv for lv, _, _ in pairs] == [1, 2] * (len(pairs) // 2)
            assert [c[1:] for c in pairs[0::2]] == [c[1:] for c in pairs[1::2]]


# A report digest and pilot estimates for terms of SPAN samples at 16384-seed
# chunks, computed with 4096-seed chunks.
_SPAN_DIGEST = "14b76edd9d955faeda6dd2dace7581d4abb632c36d4943e12bf48588666857f0"
_SPAN_PILOT = (1.4115110276813985, 0.1584910056845404)


@pytest.fixture
def draws(monkeypatch):
    """Counts TwoScale's normal draws, as the seed count of each."""
    seen = []

    def counting(seeds, n):
        seen.append(len(seeds))
        return normal_lanes(seeds, n)

    monkeypatch.setattr(models, "normal_lanes", counting)
    return seen


@pytest.mark.parametrize("workers", [1, 3])
def test_a_coupled_term_draws_each_chunk_once(draws, workers):
    # The digests were computed with 4096-seed chunks; they hold for any size.
    for M, digest in (
        ((9000, 5000, 300), "76a1343465ec3ae8da203b85ba94d099fa22b26054b2434f1d50f145eb1c4879"),
        ((SPAN, CHUNK + 1, 300), _SPAN_DIGEST),
    ):
        draws.clear()
        report = run_mlmc(TwoScaleModel(), _plan(StrategyId.S1, M), 21, workers=workers)
        assert sorted(draws) == sorted(_chunks(M[0]) + _chunks(M[1]) + [M[2]])
        payload = report.to_json_dict()
        # The digests were pinned when plans built here could carry a
        # relative_load of 0.0; every other byte of the report is unchanged.
        payload["plan"]["relative_load"] = 0.0
        payload = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


@pytest.mark.parametrize("workers", [1, 3])
def test_the_pilot_draws_each_chunk_once(draws, workers):
    for count, expect in (
        (9000, (1.4242258335074547, 0.15914689013734465)),
        (SPAN, _SPAN_PILOT),
    ):
        draws.clear()
        params = pilot_estimate_parameters(TwoScaleModel(), count, 21, workers=workers)
        assert sorted(draws) == sorted(_chunks(count))
        assert (params.delta, params.e) == expect


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_frees_each_terms_level_values_before_its_statistics(workers):
    # Only one term's difference may be alive at once, next to the
    # statistics' block buffers and, at two workers, each pool thread's
    # kept draw and scratch: that peaks near 2.5 times the largest term's
    # float64 bytes (1.9 at one worker).  Keeping the rows through the
    # statistics (4.5x at two workers) exceeds four; the tighter bound of
    # the warm one-worker test below catches smaller leaks.
    M = (26000, 82000, 104000, 104000, 82000, 20480)
    plan = _plan(StrategyId.S3, M)
    tracemalloc.start()
    try:
        run_mlmc(TwoScaleModel(), plan, 3, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * max(M)


def test_a_warm_serial_run_holds_one_terms_values_and_a_block_of_statistics():
    # Once the calling thread's scratch exists, a serial run holds the
    # largest term's differences and the statistics' two block buffers:
    # 1.63 times that term's float64 bytes.  Squaring a term's deviations
    # all at once (2.34x), a per-term seed array kept through its
    # statistics (3.0x), one term's difference kept into the next term's
    # evaluation (2.6x) or its rows kept through the statistics (3.6x)
    # exceed two.
    M = (26000, 82000, 104000, 104000, 82000, 20480)
    plan = _plan(StrategyId.S3, M)
    run_mlmc(TwoScaleModel(), plan, 3, workers=1)
    tracemalloc.start()
    try:
        run_mlmc(TwoScaleModel(), plan, 3, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * max(M)


# ---------------------------------------------------------------------------
# determinism and seed bookkeeping
# ---------------------------------------------------------------------------

def test_reports_byte_identical_across_worker_counts():
    # Counts straddle the internal chunk size so multi-worker scheduling
    # actually kicks in; aggregation order must not depend on it.
    for M in ((5000, 9000), (SPAN, CHUNK + 5)):
        plan = _plan(StrategyId.S2, M)
        reports = [
            run_mlmc(TwoScaleModel(), plan, base_seed=11, workers=w) for w in (1, 3)
        ]
        payloads = [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports]
        assert payloads[0] == payloads[1]


def test_rerun_is_deterministic():
    plan = _plan(StrategyId.S1, (32, 16, 8))
    a = run_mlmc(TwoScaleModel(), plan, base_seed=5)
    b = run_mlmc(TwoScaleModel(), plan, base_seed=5)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    c = run_mlmc(TwoScaleModel(), plan, base_seed=6)
    assert c.estimate != a.estimate


def test_wall_time_reported_but_not_serialized():
    report = run_mlmc(TwoScaleModel(), _plan(StrategyId.S2, (8, 8)), 0)
    assert report.wall_time >= 0.0
    d = report.to_json_dict()
    assert list(d) == [
        "plan",
        "term_stats",
        "estimate",
        "estimated_std_error",
        "a_priori_error_bound",
        "realized_load",
        "seeds",
    ]
    json.dumps(d)  # must be serializable as-is


@pytest.mark.parametrize("classical", [False, True])
def test_wall_time_includes_the_sample_log_write(tmp_path, monkeypatch, classical):
    write = executor._write_sample_log

    def slow_write(path, rows):
        time.sleep(0.05)
        write(path, rows)

    monkeypatch.setattr(executor, "_write_sample_log", slow_write)
    path = str(tmp_path / "log.csv")
    if classical:
        report = run_classical_mc(TwoScaleModel(), 1, 8, 0, sample_log_path=path)
    else:
        report = run_mlmc(TwoScaleModel(), _plan(StrategyId.S2, (8, 8)), 0, sample_log_path=path)
    assert report.wall_time >= 0.05


def test_seed_ledger_matches_counter_scheme():
    plan = _plan(StrategyId.S1, (10, 7, 4))
    base = 123456
    report = run_mlmc(TwoScaleModel(), plan, base_seed=base)
    terms = report.seeds["terms"]
    assert report.seeds["base_seed"] == base
    assert [t["term_index"] for t in terms] == [1, 2, 3]
    assert [t["levels"] for t in terms] == [[1, 2], [2, 3], [3]]
    assert [t["count"] for t in terms] == [10, 7, 4]
    assert [t["start_index"] for t in terms] == [0, 10, 17]
    start = 0
    for t in terms:
        expect = counter_seeds(base, start, t["count"])
        assert t["first_seed"] == int(expect[0])
        assert t["last_seed"] == int(expect[-1])
        start += t["count"]


def test_sample_log_rows_and_disjoint_seeds(tmp_path):
    plan = _plan(StrategyId.S1, (6, 5, 4))
    path = tmp_path / "samples.csv"
    run_mlmc(TwoScaleModel(), plan, base_seed=9, sample_log_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "term,level,sample_index,seed,value"
    rows = [ln.split(",") for ln in lines[1:]]
    # one row per (sample, level) touch: difference terms touch two levels
    assert len(rows) == 6 * 2 + 5 * 2 + 4
    keys = [(int(r[0]), int(r[2]), int(r[1])) for r in rows]
    assert keys == sorted(keys)  # term, then sample index, then level
    seeds_by_term = {}
    for r in rows:
        seeds_by_term.setdefault(int(r[0]), set()).add(int(r[3]))
    assert len(seeds_by_term[1] | seeds_by_term[2] | seeds_by_term[3]) == 6 + 5 + 4
    # within a term both levels see the same realizations
    t1_rows = [r for r in rows if r[0] == "1"]
    assert {int(r[3]) for r in t1_rows if r[1] == "1"} == {
        int(r[3]) for r in t1_rows if r[1] == "2"
    }


def test_the_sample_log_is_formatted_a_block_of_rows_at_a_time(tmp_path):
    # A 200 000-sample two-level term's rows hold 3.1 MB; formatting them
    # all before writing any peaked at 66.6 MB.
    count = 200_000
    rng = np.random.default_rng(5)
    per_level = {1: rng.standard_normal(count), 2: rng.standard_normal(count)}
    path = tmp_path / "samples.csv"
    tracemalloc.start()
    try:
        executor._write_sample_log(str(path), [(1, 9, 10, per_level)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    with open(path, newline="") as fh:
        lines = fh.readlines()
    assert len(lines) == 1 + 2 * count
    seed = counter_seeds(9, 10 + count - 1, 1)[0]
    assert lines[-1] == f"1,2,{count - 1},{seed},{float(per_level[2][-1])!r}\r\n"


def test_pilot_draws_never_collide_with_run_draws():
    model = RecorderModel(max_level=8)
    pilot_estimate_parameters(model, 64, base_seed=77)
    pilot_seeds = {s for _, s in model.calls}
    model.calls.clear()
    run_mlmc(model, _plan(StrategyId.S2, (64, 64)), base_seed=77)
    run_seeds = {s for _, s in model.calls}
    assert pilot_seeds and run_seeds
    assert not (pilot_seeds & run_seeds)


# ---------------------------------------------------------------------------
# failure localization
# ---------------------------------------------------------------------------

def test_nan_output_names_level_and_seed():
    bad_seed = int(counter_seeds(0, 13, 1)[0])  # 14th realization of term 1
    model = PoisonModel(2, bad_seed)
    with pytest.raises(ModelEvaluationError) as exc:
        run_mlmc(model, _plan(StrategyId.S2, (20, 10)), base_seed=0)
    assert exc.value.level == 2
    assert exc.value.seed == bad_seed


def test_raised_exception_names_level_and_seed():
    bad_seed = int(counter_seeds(0, 3, 1)[0])
    model = PoisonModel(1, bad_seed, raise_instead=True)
    with pytest.raises(ModelEvaluationError) as exc:
        run_mlmc(model, _plan(StrategyId.S2, (8, 4)), base_seed=0)
    assert exc.value.level == 1
    assert exc.value.seed == bad_seed


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_failure_is_the_first_failing_chunk_at_its_lowest_level(workers):
    class Poisons(TwoScaleBatches):
        """Raises at the ``raises`` (level, seed) pairs and returns NaN at ``nans``."""

        def __init__(self, raises=(), nans=()):
            super().__init__()
            self.raises, self.nans = set(raises), set(nans)

        def evaluate_many(self, level, seeds):
            out = super().evaluate_many(level, seeds)
            for lv, seed in self.raises | self.nans:
                for i in np.flatnonzero(seeds == np.uint64(seed)) if lv == level else ():
                    if (lv, seed) in self.raises:
                        raise RuntimeError("solver diverged")
                    out[i] = math.nan
            return out

    seeds = counter_seeds(0, 0, SPAN)
    plan = _plan(StrategyId.S2, (SPAN, 10))
    late_fine, early_coarse = (1, int(seeds[CHUNK + 5])), (2, int(seeds[7]))
    same_chunk_coarse = (2, int(seeds[CHUNK + 1]))

    def failure(**poisons):
        with pytest.raises(ModelEvaluationError) as exc:
            run_mlmc(Poisons(**poisons), plan, 0, workers=workers)
        return exc.value.level, exc.value.seed

    for kind in ("raises", "nans"):
        # Level 2 fails in the first chunk, level 1 only in the second.
        assert failure(**{kind: [late_fine, early_coarse]}) == early_coarse
        # Both levels fail in the same chunk: the lower level is named.
        assert failure(**{kind: [late_fine, same_chunk_coarse]}) == late_fine
    # A NaN and an exception follow the same rule.
    assert failure(raises=[late_fine], nans=[early_coarse]) == early_coarse
    assert failure(nans=[late_fine], raises=[early_coarse]) == early_coarse
    assert failure(nans=[late_fine], raises=[same_chunk_coarse]) == late_fine
    assert failure(raises=[late_fine], nans=[same_chunk_coarse]) == late_fine
    # Within one batch the first failing seed is named, a NaN or a raise.
    first, later = (1, int(seeds[3])), (1, int(seeds[7]))
    assert failure(nans=[first], raises=[later]) == first
    assert failure(raises=[first], nans=[later]) == first


@pytest.mark.parametrize("workers", [1, 2, 3, None])
def test_two_failures_name_the_same_level_and_seed_at_any_worker_count(workers):
    class TwoFailures(TwoScaleBatches):
        """NaN at the ``nan`` (level, seed); raises at the ``raises`` one."""

        def __init__(self, nan, raises):
            super().__init__()
            self.nan, self.raises = nan, raises

        def evaluate_many(self, level, seeds):
            out = super().evaluate_many(level, seeds)
            if level == self.raises[0] and (seeds == np.uint64(self.raises[1])).any():
                raise RuntimeError("solver diverged")
            out[(seeds == np.uint64(self.nan[1])) & (level == self.nan[0])] = math.nan
            return out

    # In the pilot, a NaN at level 3 of chunk 2 and a raise at level 1 of chunk 5.
    pilot_base = executor.mix64_int(5 ^ executor._PILOT_SALT)
    seeds = counter_seeds(pilot_base, 0, 4096)
    starts = _starts(4096)
    nan, raises = (3, int(seeds[starts[2] + 17])), (1, int(seeds[starts[5] + 4]))
    with pytest.raises(ModelEvaluationError) as exc:
        pilot_estimate_parameters(TwoFailures(nan, raises), 4096, 5, workers=workers)
    assert (exc.value.level, exc.value.seed) == nan
    # In a run's first term, a NaN at level 2 of chunk 3 and a raise at
    # level 1 of chunk 6.
    seeds = counter_seeds(5, 0, SPAN)
    starts = _starts(SPAN)
    nan, raises = (2, int(seeds[starts[3] + 9])), (1, int(seeds[starts[6]]))
    with pytest.raises(ModelEvaluationError) as exc:
        run_mlmc(TwoFailures(nan, raises), _plan(StrategyId.S2, (SPAN, 10)), 5, workers=workers)
    assert (exc.value.level, exc.value.seed) == nan


@pytest.mark.parametrize("workers", [1, 2, 4, None])
def test_a_slow_early_failure_wins_over_a_fast_later_one(workers):
    seeds = counter_seeds(0, 0, SPAN)
    slow, fast = (2, int(seeds[5])), (1, int(seeds[_starts(SPAN)[-1] + 3]))

    class SlowThenFast(TwoScaleBatches):
        """Chunk 0 fails at level 2 after a pause; the last chunk fails at level 1 at once."""

        def __init__(self):
            super().__init__()
            self.paused = 0

        def evaluate_many(self, level, seeds):
            for lv, seed in (slow, fast):
                if lv == level and (seeds == np.uint64(seed)).any():
                    if (lv, seed) == slow and len(seeds) == _chunks(SPAN)[0]:
                        self.paused += 1
                        time.sleep(0.3)
                    raise RuntimeError("solver diverged")
            return super().evaluate_many(level, seeds)

    model = SlowThenFast()
    with pytest.raises(ModelEvaluationError) as exc:
        run_mlmc(model, _plan(StrategyId.S2, (SPAN, 10)), 0, workers=workers)
    assert (exc.value.level, exc.value.seed) == slow
    assert model.paused == 1  # chunk 0's whole batch, not a half of it


def test_a_failure_stops_handing_out_chunks():
    count = 10 * CHUNK
    seeds = counter_seeds(0, 0, count)
    bad_seed = int(seeds[1])
    size = _chunks(count)[0]
    assert _chunks(count) == [size] * 10  # every chunk after chunk 0 pauses

    class FailFirst(TwoScaleBatches):
        """Fails in chunk 0 at once; every other chunk takes a while."""

        def __init__(self):
            super().__init__()
            self.calls = 0
            self.later_chunks = 0

        def evaluate_many(self, level, seeds):
            self.calls += 1
            if (seeds == np.uint64(bad_seed)).any():
                raise RuntimeError("solver diverged")
            if len(seeds) == size:
                self.later_chunks += 1
                time.sleep(0.1)
            return super().evaluate_many(level, seeds)

    for workers in (1, 2):
        model = FailFirst()
        with pytest.raises(ModelEvaluationError) as exc:
            run_classical_mc(model, 1, count, 0, workers=workers)
        assert (exc.value.level, exc.value.seed) == (1, bad_seed)
        # Serially no chunk after chunk 0 starts.  Next to it the helper
        # finishes the one chunk it holds, or two if it was quicker, and
        # takes no more.
        assert model.later_chunks <= (0 if workers == 1 else 2)
        assert model.calls <= 2 * math.ceil(math.log2(size)) + 1 + model.later_chunks


@pytest.mark.parametrize("where", [0, CHUNK // 2, CHUNK - 1])
def test_a_raised_failure_is_located_in_log_chunk_calls(where):
    # A term of _SPLIT full chunks; serially, no chunk after the first starts.
    count = executor._SPLIT * CHUNK
    assert _chunks(count)[0] == CHUNK

    class CountingPoison(TwoScaleBatches):
        """Raises for one seed, counting every call and every seed evaluated."""

        def __init__(self, bad_seed):
            super().__init__()
            self.bad_seed = np.uint64(bad_seed)
            self.calls = self.seeds = 0

        def evaluate_many(self, level, seeds):
            self.calls += 1
            self.seeds += len(seeds)
            if (seeds == self.bad_seed).any():
                raise RuntimeError("solver diverged")
            return super().evaluate_many(level, seeds)

    bad_seed = int(counter_seeds(0, where, 1)[0])
    model = CountingPoison(bad_seed)
    with pytest.raises(ModelEvaluationError) as exc:
        run_classical_mc(model, 1, count, 0, workers=1)
    assert (exc.value.level, exc.value.seed) == (1, bad_seed)
    assert model.calls <= 2 * math.ceil(math.log2(CHUNK)) + 1
    assert model.seeds <= 3 * CHUNK


class WrongShapeModel(TwoScaleBatches):
    """Returns one value too many, or the right values as an (n, 1) column."""

    def __init__(self, column):
        super().__init__()
        self.column = column

    def evaluate_many(self, level, seeds):
        out = super().evaluate_many(level, seeds)
        return out[:, None] if self.column else np.append(out, 0.0)


class BatchOnlyFailure(TwoScaleBatches):
    """Raises for any batch of more than one seed, though every seed alone runs."""

    def evaluate_many(self, level, seeds):
        if len(seeds) > 1:
            raise RuntimeError("batch of several seeds")
        return super().evaluate_many(level, seeds)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "model, detail",
    [
        (WrongShapeModel(column=True), "batch returned shape"),
        (WrongShapeModel(column=False), "batch returned shape"),
        (BatchOnlyFailure(), "batch of several seeds"),
    ],
    ids=["column", "extra_value", "batch_only"],
)
def test_wrong_shapes_and_batch_only_failures_name_no_seed(model, detail, workers):
    with pytest.raises(ModelEvaluationError, match=detail) as exc:
        run_mlmc(model, _plan(StrategyId.S2, (SPAN, 10)), 0, workers=workers)
    assert exc.value.level == 1
    assert exc.value.seed is None


class LevelsPoison(QoIModel):
    """Overrides ``evaluate_levels`` itself, counting its calls.

    Raises at the ``raises`` (level, seed) pairs and returns NaN at
    ``nans``; with ``column``, returns the right values as an
    ``(levels, seeds, 1)`` array.
    """

    def __init__(self, raises=(), nans=(), column=False):
        self.two_scale = TwoScaleModel()
        self.max_level = self.two_scale.max_level
        self.raises, self.nans, self.column = set(raises), set(nans), column
        self.calls = 0

    def evaluate_many(self, level, seeds):
        return self.evaluate_levels((level,), seeds)[0]

    def evaluate_levels(self, levels, seeds):
        self.calls += 1
        out = self.two_scale.evaluate_levels(levels, seeds)
        for row, level in enumerate(levels):
            for lv, seed in self.raises:
                if lv == level and (seeds == np.uint64(seed)).any():
                    raise RuntimeError("solver diverged")
            for lv, seed in self.nans:
                out[row, (seeds == np.uint64(seed)) & (lv == level)] = math.nan
        return out[..., None] if self.column else out


@pytest.mark.parametrize("workers", [1, 2])
def test_a_model_of_its_own_evaluate_levels_names_the_failing_pair(workers):
    seeds = counter_seeds(0, 0, SPAN)
    plan = _plan(StrategyId.S2, (SPAN, 10))
    late_fine, early_coarse = (1, int(seeds[CHUNK + 5])), (2, int(seeds[7]))
    same_chunk_coarse = (2, int(seeds[CHUNK + 1]))

    def failure(**poisons):
        with pytest.raises(ModelEvaluationError) as exc:
            run_mlmc(LevelsPoison(**poisons), plan, 0, workers=workers)
        return exc.value.level, exc.value.seed

    for pair in (late_fine, early_coarse, same_chunk_coarse, (2, int(seeds[-1]))):
        assert failure(raises=[pair]) == pair
        assert failure(nans=[pair]) == pair
    for kind in ("raises", "nans"):
        assert failure(**{kind: [late_fine, early_coarse]}) == early_coarse
        assert failure(**{kind: [late_fine, same_chunk_coarse]}) == late_fine
    # The lower level is named, a NaN below a raise in the same chunk too.
    assert failure(nans=[late_fine], raises=[same_chunk_coarse]) == late_fine
    assert failure(raises=[late_fine], nans=[same_chunk_coarse]) == late_fine
    with pytest.raises(ModelEvaluationError, match="batch returned shape") as exc:
        run_mlmc(LevelsPoison(column=True), plan, 0, workers=workers)
    assert (exc.value.level, exc.value.seed) == (1, None)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("where", [0, 1000, 4196])
def test_a_raise_in_a_two_level_chunk_is_located_in_log_chunk_calls(level, where):
    # Serially, no chunk after the first starts: the first chunk's one
    # two-level call, the halves of every level below the failing one, and
    # the halving search at the failing level.
    size = _chunks(SPAN)[0]
    assert where < size
    bad = (level, int(counter_seeds(0, where, 1)[0]))
    model = LevelsPoison(raises=[bad])
    with pytest.raises(ModelEvaluationError) as exc:
        run_mlmc(model, _plan(StrategyId.S2, (SPAN, 10)), 0, workers=1)
    assert (exc.value.level, exc.value.seed) == bad
    assert model.calls <= 2 * math.ceil(math.log2(size)) + 2 * level - 1


# ---------------------------------------------------------------------------
# classical baseline
# ---------------------------------------------------------------------------

def test_classical_run_self_consistent(tmp_path):
    path = tmp_path / "mc.csv"
    report = run_classical_mc(
        TwoScaleModel(), level=2, M=400, base_seed=21, sample_log_path=str(path)
    )
    assert report.plan.strategy is StrategyId.CLASSICAL_MC
    assert report.plan.M == (400,)
    assert report.realized_load == 400 * 0.125  # level-2 solves cost 1/8
    values = [float(ln.split(",")[4]) for ln in path.read_text().splitlines()[1:]]
    assert len(values) == 400
    assert report.estimate == pytest.approx(math.fsum(values) / 400, rel=1e-15)
    assert report.estimated_std_error == pytest.approx(
        math.sqrt(unbiased_variance(values) / 400), rel=1e-12
    )
    assert report.a_priori_error_bound is None  # no planning inputs attached


def test_classical_std_error_shrinks_like_sqrt_m():
    se = {}
    for M in (2000, 8000):
        se[M] = run_classical_mc(TwoScaleModel(), 1, M, base_seed=4).estimated_std_error
    assert se[2000] / se[8000] == pytest.approx(2.0, rel=0.10)


def test_classical_rejections():
    model = TwoScaleModel(max_level=3)
    with pytest.raises(ValueError):
        run_classical_mc(model, 4, 10, 0)
    with pytest.raises(ValueError):
        run_classical_mc(model, 1, 0, 0)
    with pytest.raises(ValueError):
        run_classical_mc(model, 1, 10, -5)


def test_classical_level_must_be_whole_before_any_draw(monkeypatch):
    model = TwoScaleModel(max_level=3)
    by_int = run_classical_mc(model, 2, 50, 0)
    by_float = run_classical_mc(model, 2.0, 50, 0)
    assert by_float.to_json_dict() == by_int.to_json_dict()
    assert by_float.seeds["terms"][0]["levels"] == [2]

    def no_draws(*args):
        raise AssertionError("a seed was drawn")

    monkeypatch.setattr(executor, "counter_seeds", no_draws)
    for bad in (2.5, True, "2", None, 0, 4):
        with pytest.raises(ValueError, match="level must be an integer"):
            run_classical_mc(model, bad, 50, 0)


# ---------------------------------------------------------------------------
# pilot estimation
# ---------------------------------------------------------------------------

def test_pilot_recovers_exact_alpha():
    for alpha in (0.75, 1.0, 2.0):
        params = pilot_estimate_parameters(TwoScaleModel(alpha=alpha), 200, 0)
        assert params.alpha == pytest.approx(alpha, abs=1e-12)
        assert params.delta > 0 and params.e > 0
        assert params.sigma == 1.0


def test_pilot_e_is_consistent_with_spreads():
    params = pilot_estimate_parameters(TwoScaleModel(alpha=1.0), 500, 8)
    # invert the sizing identity: delta_12 = e sqrt(2 (1 + 4^alpha))
    implied_delta12 = params.e * math.sqrt(2.0 * (1.0 + 4.0**params.alpha))
    assert implied_delta12 > 0
    # for this model delta[U at level 2] = sqrt(1 + (amp 2^alpha)^2) scale,
    # strictly larger than the difference spread
    assert params.delta > implied_delta12


def test_pilot_rejects_degenerate_models():
    with pytest.raises(DegenerateModelError):
        pilot_estimate_parameters(ConstantModel(), 64, 0)
    with pytest.raises(DegenerateModelError):
        pilot_estimate_parameters(LevelBlindModel(), 64, 0)


class ThreeLevelModel(QoIModel):
    """Levels 1, 2 and 3 return a z0, b z0 and c z1 of the seed's two normals."""

    max_level = 3

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def evaluate_many(self, level, seeds):
        z = normal_lanes(np.asarray(seeds, dtype=np.uint64), 2)
        return (self.a * z[:, 0], self.b * z[:, 0], self.c * z[:, 1])[level - 1]


def test_pilot_rejects_growing_differences():
    class InvertedModel(QoIModel):
        max_level = 8

        def evaluate_many(self, level, seeds):
            lanes = normal_lanes(np.asarray(seeds, dtype=np.uint64), 2)
            return lanes[:, 0] + 2.0 ** (-level) * lanes[:, 1]

    # One report of the finding: the error, with no RuntimeWarning before it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateModelError, match="alpha=-"):
            pilot_estimate_parameters(InvertedModel(), 64, 0)
        # Difference spreads near 1e-161 and 1e153: their ratio, and so
        # alpha, is inf.
        with pytest.raises(DegenerateModelError, match="alpha=inf"):
            pilot_estimate_parameters(ThreeLevelModel(2e-161, 1e-161, 1e153), 64, 0)


def test_statistics_that_overflow_are_degenerate():
    # Finite values whose sums or squares overflow: a classical run's mean
    # (the fsum of 64 values near 1e308) and a pilot's squared deviations.
    with pytest.raises(DegenerateModelError, match="term 1 statistics overflow"):
        run_classical_mc(GBMModel(GBMSpec(S0=1e308)), 1, 64, base_seed=0, workers=1)
    with pytest.raises(DegenerateModelError, match="pilot statistics overflow"):
        pilot_estimate_parameters(GBMModel(GBMSpec(S0=1e307)), 64, 0, workers=1)
    # Difference spreads near 1e-150 and 1e50: alpha is about 664, and the
    # 4**alpha of the fine-error identity overflows.  Near 1e-150 and 1e4,
    # alpha is about 511.6: 4**alpha is finite but 2 (1 + 4**alpha) is not,
    # so e came out 0.0 and the pilot raised "e must be finite and > 0".
    for c in (1e50, 1e4):
        with pytest.raises(DegenerateModelError, match="pilot statistics overflow"):
            pilot_estimate_parameters(ThreeLevelModel(2e-150, 1e-150, c), 64, 0)


class SignByPositionModel(QoIModel):
    """U_level = +-c (4 - level), the sign set by a seed's place in its batch
    (not by the seed, which a one-chunk run does not need)."""

    max_level = 3
    c = math.sqrt(0.8e308)

    def evaluate_many(self, level, seeds):
        return self.c * (4 - level) * (1.0 - 2.0 * (np.arange(len(seeds)) % 2))


def test_a_std_error_that_overflows_is_degenerate():
    # Each of the three two-sample terms holds +-c, so its variance is 2 c^2
    # and its variance / count is c^2 = 0.8e308: finite, but three of them
    # overflow the standard error's sum.
    plan = _plan(StrategyId.S1, (2, 2, 2))
    with pytest.raises(DegenerateModelError, match="terms 1-3 statistics overflow"):
        run_mlmc(SignByPositionModel(), plan, base_seed=0, workers=1)


class OverflowModel(QoIModel):
    """U = s 1e308 below level ``flip`` and -s 1e308 from it on: finite
    values whose coupled difference across the flip overflows.  s is +1, or
    with ``alternate`` +-1 by a seed's parity (base seed 0's first four
    seeds alternate)."""

    max_level = 3

    def __init__(self, flip=2, alternate=False):
        self.flip, self.alternate = flip, alternate

    def evaluate_many(self, level, seeds):
        seeds = np.asarray(seeds, dtype=np.uint64)
        s = 1.0 - 2.0 * (seeds % 2) if self.alternate else np.ones(seeds.size)
        return (1e308 if level < self.flip else -1e308) * s


@pytest.mark.parametrize("count", [4, 4096])
@pytest.mark.parametrize("alternate", [False, True], ids=["equal", "alternating"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_coupled_difference_that_overflows_is_degenerate(workers, alternate, count):
    # Equal signs gave a term mean of inf, which a report wrote as the
    # non-JSON Infinity; alternating ones raised "-inf + inf in fsum".  Every
    # chunk of a 4096-sample term fails: the first one names its first seed.
    first = counter_seeds(0, 0, 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            DegenerateModelError,
            match=f"^levels 1-2 coupled difference overflows a float at seed {first}$",
        ):
            run_mlmc(
                OverflowModel(alternate=alternate), _plan(StrategyId.S2, (count, 1)),
                base_seed=0, workers=workers,
            )
        with pytest.raises(DegenerateModelError, match="^levels 1-2 coupled difference"):
            pilot_estimate_parameters(OverflowModel(alternate=alternate), count, 0, workers)
        with pytest.raises(DegenerateModelError, match="^levels 2-3 coupled difference"):
            pilot_estimate_parameters(
                OverflowModel(flip=3, alternate=alternate), count, 0, workers
            )


@pytest.mark.parametrize("workers", [1, 2])
def test_a_pilot_overflow_in_an_early_chunk_wins_over_a_later_raise(workers):
    # Levels 2-3 overflow at seed index 0 and the model raises at index
    # 4000, seven chunks later: the first failing chunk names the error, a
    # DegenerateModelError, not the later ModelEvaluationError.
    seeds = counter_seeds(executor.mix64_int(0 ^ executor._PILOT_SALT), 0, 4096)

    class TwoFailures(QoIModel):
        """0, but for seed index 0: 1e308 at levels 1-2 and -1e308 at level 3;
        raises at seed index 4000."""

        max_level = 3

        def evaluate_many(self, level, batch):
            if (batch == seeds[4000]).any():
                raise RuntimeError("solver diverged")
            return np.where(batch == seeds[0], 1e308 if level < 3 else -1e308, 0.0)

    with pytest.raises(
        DegenerateModelError,
        match=f"^levels 2-3 coupled difference overflows a float at seed {seeds[0]}$",
    ):
        pilot_estimate_parameters(TwoFailures(), 4096, 0, workers)


def test_pilot_input_validation():
    with pytest.raises(ValueError):
        pilot_estimate_parameters(TwoScaleModel(max_level=2), 64, 0)
    with pytest.raises(ValueError):
        pilot_estimate_parameters(TwoScaleModel(), 1, 0)


def test_pilot_samples_must_be_whole_before_any_draw(monkeypatch):
    model = TwoScaleModel()
    assert pilot_estimate_parameters(model, 256.0, 3) == pilot_estimate_parameters(model, 256, 3)

    def no_draws(*args):
        raise AssertionError("a seed was drawn")

    monkeypatch.setattr(executor, "counter_seeds", no_draws)
    for bad in (2.5, True, "256", None, 1):
        with pytest.raises(ValueError, match="pilot_samples must be an integer"):
            pilot_estimate_parameters(model, bad, 3)


# ---------------------------------------------------------------------------
# end-to-end consistency
# ---------------------------------------------------------------------------

def test_mlmc_agrees_with_single_level_mc():
    model = TwoScaleModel()
    params = pilot_estimate_parameters(model, 400, base_seed=100)
    plan = plan_for_strategy("S1", params, max_levels=model.max_level)
    mlmc = run_mlmc(model, plan, base_seed=100)
    mc = run_classical_mc(model, 1, 4000, base_seed=100)
    combined = math.hypot(mlmc.estimated_std_error, mc.estimated_std_error)
    assert abs(mlmc.estimate - mc.estimate) <= 4.0 * combined
    # both should also bracket the exact mean (0) at this confidence
    assert abs(mlmc.estimate) <= 4.0 * mlmc.estimated_std_error + plan.inputs.e


def test_plan_for_strategy_integrates_with_executor():
    model = TwoScaleModel()
    params = pilot_estimate_parameters(model, 300, base_seed=1)
    for strategy in ("S1", "S2", "S3", "S4"):
        plan = plan_for_strategy(strategy, params, max_levels=model.max_level)
        report = run_mlmc(model, plan, base_seed=1)
        assert report.plan is plan
        assert len(report.term_stats) == plan.L
