import math
import os
import pickle
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import mlmckit
from mlmckit import _bits
from mlmckit._bits import counter_seeds, normal_lanes
from mlmckit.executor import ModelEvaluationError, run_classical_mc, run_mlmc
from mlmckit.models import (
    BurgersModel,
    BurgersSpec,
    GBMModel,
    GBMSpec,
    TopographySpec,
    TwoScaleModel,
    _burgers_integrate,
    _forcing,
    _forcing_modes,
    _increments,
    model_from_config,
)
from mlmckit.planner import LevelPlan, StrategyId

# ---------------------------------------------------------------------------
# the forcing spectrum's config
# ---------------------------------------------------------------------------

def test_spec_validation_and_round_trip():
    with pytest.raises(ValueError):
        TopographySpec(H=-1.0)
    with pytest.raises(ValueError):
        TopographySpec(k_range=(5, 4))
    with pytest.raises(ValueError):
        TopographySpec(l_range=(0, 4))
    spec = TopographySpec(H=250.0, k_range=(2, 6))
    assert TopographySpec(**{"H": 250.0, "k_range": [2, 6]}) == spec
    assert TopographySpec(**{"H": 250.0, "k_range": (2.0, 6.0)}) == spec
    assert (TopographySpec().n_k, spec.n_k) == (5, 5)


@pytest.mark.parametrize(
    "field, bad",
    [(f, b) for f in ("H", "Lx", "Ly") for b in (math.nan, math.inf, -math.inf, True, "5")]
    + [(f, (lo, hi)) for f in ("k_range", "l_range") for lo, hi in ((4, math.inf), (True, 4))]
    + [(f, b) for f in ("k_range", "l_range") for b in (5, (1, 2, 3), (3,), (6, 2))],
)
def test_topography_spec_rejects_non_finite_and_boolean_values(field, bad):
    # H=nan passed "H < 0", and True counted as 1.  Lx and Ly are fields no
    # more (the period is the model's domain_length): no value of them is taken.
    # A range that is not a pair raised TypeError or "too many values to unpack".
    with pytest.raises(TypeError if field in ("Lx", "Ly") else ValueError, match=field):
        TopographySpec(**{field: bad})


# ---------------------------------------------------------------------------
# geometric Brownian motion
# ---------------------------------------------------------------------------

def test_gbm_spec_ladder():
    g = GBMSpec()
    assert g.steps_at_level(1) == 256
    assert g.steps_at_level(2) == 128
    assert g.steps_at_level(4) == 32
    with pytest.raises(ValueError):
        g.steps_at_level(5)
    with pytest.raises(ValueError):
        GBMSpec(steps_at_finest=100, max_level=4)  # 100 not divisible by 8
    with pytest.raises(ValueError):
        GBMSpec(vol=-0.1)
    assert GBMSpec.from_json_dict({"steps_at_finest": 256.0, "max_level": 4.0}) == g


def test_whole_number_float_spec_fields_become_ints():
    g = GBMSpec(steps_at_finest=256.0, max_level=4.0)
    assert g == GBMSpec()
    assert type(g.steps_at_finest) is int and type(g.max_level) is int
    assert g.steps_at_level(2) == 128
    assert type(GBMModel(g).max_level) is int
    seeds = np.arange(5, dtype=np.uint64)
    assert np.array_equal(GBMModel(g).evaluate_many(2, seeds), GBMModel().evaluate_many(2, seeds))

    b = BurgersSpec(cells_at_finest=64.0, max_level=2.0)
    assert b == BurgersSpec(cells_at_finest=64, max_level=2)
    assert type(b.cells_at_finest) is int and type(b.max_level) is int
    assert b.cells_at_level(2) == 32

    for bad in (256.5, True, "256", None, 0):
        with pytest.raises(ValueError, match="steps_at_finest must be an integer"):
            GBMSpec(steps_at_finest=bad)
        with pytest.raises(ValueError, match="cells_at_finest must be an integer"):
            BurgersSpec(cells_at_finest=bad)
    # numpy's True built a one-level spec.
    for bad in (4.5, True, np.True_, "4", None, 0):
        with pytest.raises(ValueError, match="max_level must be an integer"):
            GBMSpec(max_level=bad)
        with pytest.raises(ValueError, match="max_level must be an integer"):
            BurgersSpec(max_level=bad)


def test_gbm_zero_vol_is_deterministic_compounding():
    g = GBMSpec(vol=0.0)
    model = GBMModel(g)
    for level in (1, 2, 4):
        n = g.steps_at_level(level)
        expect = g.S0 * (1.0 + g.r_drift * g.T / n) ** n
        for seed in (0, 999):
            assert model.evaluate_many(level, [seed])[0] == pytest.approx(expect, rel=1e-12)


def test_gbm_increments_coarsen_bitwise():
    # A coarse step's Brownian increment is exactly the sum of its two fine
    # halves, so coupling across levels is exact by construction.
    g = GBMSpec()
    seeds = np.arange(17, dtype=np.uint64)
    n = g.steps_at_finest

    def increments(level):
        return _increments(g, g.steps_at_level(level), seeds, np.empty((n, seeds.size))).T

    fine = increments(1)
    for level in (2, 3, 4):
        fine = fine.reshape(len(seeds), -1, 2).sum(axis=2)
        assert np.array_equal(fine, increments(level))


def test_gbm_tile_coarsens_in_one_scratch_buffer():
    # A fresh thread that runs every GBM level keeps only the draw's states
    # and the tile's increments (256 x 256 x 8 bytes each at the defaults).
    # A warm level-4 tile peaks below the 256 KiB that a temporary for its
    # first halving would take, since the halvings add in place.
    model, seeds, found = GBMModel(), counter_seeds(5, 0, 256), {}

    def work():
        for level in (1, 2, 3, 4):
            model.evaluate_many(level, seeds)
        found["scratch"] = {k: v.nbytes for k, v in _bits._scratch.__dict__.items()}
        tracemalloc.start()
        try:
            model.evaluate_many(4, seeds)
            found["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert found["scratch"] == {"lanes": 1 << 19, "gbm.fine": 1 << 19}
    assert found["peak"] < 256 * 1024


_FAULTS = textwrap.dedent(
    """
    import resource
    from mlmckit._bits import counter_seeds
    from mlmckit.models import GBMModel, TwoScaleModel

    seeds = counter_seeds(1, 0, 16384)
    gbm, two = GBMModel(), TwoScaleModel()

    def batches():
        gbm.evaluate_many(1, seeds)
        gbm.evaluate_many(4, seeds)
        two.evaluate_many(1, seeds)
        two.evaluate_many(2, seeds)

    batches()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    batches()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="pins glibc's mmap threshold",
)
def test_batch_kernels_reuse_their_buffers():
    # With the mmap threshold pinned at 128 KiB, every array that large is a
    # fresh mapping whose pages fault in on first touch.  Batches that
    # allocated their draws per 256-seed tile took 24 000-31 000 minor faults
    # per GBM call; reusing per-thread scratch leaves the 128 KiB results.
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlmckit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", _FAULTS], env=env, capture_output=True, text=True, check=True
    )
    assert int(run.stdout) < 1000


def test_gbm_sample_mean_tracks_discrete_expectation():
    g = GBMSpec()
    model = GBMModel(g)
    n = 20_000
    vals = model.evaluate_many(1, np.arange(n, dtype=np.uint64))
    n_steps = g.steps_at_level(1)
    expect = g.S0 * (1.0 + g.r_drift * g.T / n_steps) ** n_steps
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - expect) <= 4.0 * se
    # The discretization bias against S0 exp(r T) is tiny.
    assert expect == pytest.approx(g.S0 * math.exp(g.r_drift * g.T), rel=1e-3)


def test_gbm_coupling_shrinks_toward_fine():
    # Same seeds at adjacent levels: the coupled differences must shrink as
    # the pair gets finer — the property every sampling plan relies on.
    g = GBMSpec()
    model = GBMModel(g)
    seeds = np.arange(4000, dtype=np.uint64)
    u = {lv: model.evaluate_many(lv, seeds) for lv in (1, 2, 3)}
    d12 = (u[1] - u[2]).std(ddof=1)
    d23 = (u[2] - u[3]).std(ddof=1)
    assert 0.0 < d12 < d23


# ---------------------------------------------------------------------------
# forced viscous Burgers
# ---------------------------------------------------------------------------

def test_burgers_spec_validation():
    spec = BurgersSpec()
    assert spec.cells_at_level(1) == 256
    assert spec.cells_at_level(4) == 32
    with pytest.raises(ValueError):
        BurgersSpec(viscosity=0.0)
    with pytest.raises(ValueError):
        BurgersSpec(cells_at_finest=100, max_level=4)
    forcing = {"H": 5.0, "k_range": [2, 6], "l_range": [4, 20]}
    assert BurgersSpec.from_json_dict({"forcing": forcing}) == spec
    # The default forcing is the default TopographySpec, and a null one in a
    # config is the default.
    assert spec == BurgersSpec(forcing=TopographySpec())
    assert BurgersSpec.from_json_dict({"forcing": None}) == spec


def test_a_forcing_takes_its_period_from_the_domain():
    # TopographySpec(H=5.0) once carried a period Lx of 2e6 that had to equal
    # domain_length, so this spec raised.
    spec = BurgersSpec(domain_length=2.0, forcing=TopographySpec(H=5.0))
    values = BurgersModel(spec).evaluate_levels((1, 4), counter_seeds(0, 0, 4))
    assert values.shape == (2, 4) and np.isfinite(values).all()
    # k full periods over the domain: the modes at the cell centres do not
    # depend on its length.
    for n in (32, 256):
        assert _forcing_modes(spec, n).tobytes() == _forcing_modes(BurgersSpec(), n).tobytes()


@pytest.mark.parametrize("field", ["viscosity", "domain_length", "time_horizon"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, True])
def test_burgers_spec_rejects_non_finite_and_boolean_values(field, bad):
    with pytest.raises(ValueError, match=field):
        BurgersSpec(**{field: bad})


def _forcing_amplitudes(f):
    # (k, s_k) with s_k = sqrt(sum_l w_kl^2), by a scalar loop over the weights.
    ls = range(f.l_range[0], f.l_range[1] + 1)
    return [
        (k, math.sqrt(sum((f.H / (k * k + l * l)) ** 2 for l in ls)))
        for k in range(f.k_range[0], f.k_range[1] + 1)
    ]


def test_burgers_forcing_profile_matches_direct_sum():
    spec = BurgersSpec(cells_at_finest=16, max_level=1)
    f, n, seed = spec.forcing, 16, 5
    z = normal_lanes(np.asarray([seed], dtype=np.uint64), 2 * f.n_k)[0]
    got = _forcing(z[:, None], _forcing_modes(spec, n))[0]
    oracle = np.zeros(n)
    for i in range(n):
        x = (i + 0.5) / n * spec.domain_length
        for j, (k, s) in enumerate(_forcing_amplitudes(f)):
            phase = 2.0 * math.pi * k * x
            oracle[i] += s * (z[j] * math.cos(phase) + z[f.n_k + j] * math.sin(phase))
    assert np.allclose(got, oracle, rtol=1e-12, atol=1e-12)
    # It is the forcing the model integrates.
    T = spec.time_horizon
    qoi, _ = _burgers_integrate(np.zeros((1, n)), got[None], 1.0 / n, spec.viscosity, T, 0.5 * T)
    assert BurgersModel(spec).evaluate_many(1, [seed]).tobytes() == qoi.tobytes()


def test_burgers_forcing_coefficients_follow_the_law():
    # A_k = s_k z_k and B_k = s_k z'_k are N(0, s_k^2), the law of the sum
    # over l of w_kl times a standard normal each.  The coefficients are
    # read back from the forcing on 32 cells by discrete Fourier projection.
    spec = BurgersSpec(cells_at_finest=32, max_level=1)
    f, n, count = spec.forcing, 32, 4096
    lanes = normal_lanes(counter_seeds(9, 0, count), 2 * f.n_k).T
    field = _forcing(lanes, _forcing_modes(spec, n))
    x = (np.arange(n) + 0.5) / n
    for k, s in _forcing_amplitudes(f):
        for basis in (np.cos(2.0 * np.pi * k * x), np.sin(2.0 * np.pi * k * x)):
            coef = field @ basis * (2.0 / n)
            var = coef.var(ddof=1)
            assert abs(coef.mean()) <= 4.0 * s / math.sqrt(count)
            assert abs(var - s * s) <= 4.0 * s * s * math.sqrt(2.0 / (count - 1))


def test_burgers_zero_forcing_stays_at_rest():
    spec = BurgersSpec(
        forcing=TopographySpec(H=0.0, k_range=(2, 6), l_range=(4, 20))
    )
    assert BurgersModel(spec).evaluate_many(4, [123])[0] == 0.0


def test_burgers_unforced_energy_never_grows():
    # Each step's energy mean(u^2) is the difference of two window averages
    # times their widths: the window [t_j, T] less [t_{j+1}, T], over the
    # step's width t_{j+1} - t_j, with t_j the integrator's own step times.
    n, T, viscosity = 64, 0.5, 0.005
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    u0 = 0.5 * np.sin(2.0 * np.pi * x)
    steps = math.ceil(T / (0.4 * min(dx * dx / (2.0 * viscosity), dx)))
    t = [0.0]
    for _ in range(steps):
        t.append(t[-1] + T / steps)
    window = [_burgers_integrate(u0, 0.0, dx, viscosity, T, tj)[0] * (T - tj) for tj in t[:-1]]
    window.append(0.0)
    energy = -np.diff(window) / np.diff(t)
    assert np.all(np.diff(energy) <= 1e-12)
    assert energy[-1] < energy[0]


def test_burgers_integrate_returns_each_rows_blow_up():
    # A uniform forcing c keeps u = c t uniform: no flux, no diffusion.  At
    # c = 10 and 16 cells, dt = 0.025, so u passes the cap at the fifth step,
    # with max |u| = 1.25 at t = 0.125; at c = 0.1 it never does.
    n = 16
    f = np.stack([np.full(n, 0.1), np.full(n, 10.0)])
    before = f.copy()
    qoi, blown = _burgers_integrate(np.zeros_like(f), f, 1.0 / n, 0.005, 1.0, 0.5)
    assert np.isnan(blown[:, 0]).all()
    assert blown[:, 1] == pytest.approx([1.25, 0.125], rel=1e-12)
    # The blown row sits at rest through the averaging window.
    assert qoi[0] > 0.0 and qoi[1] == 0.0
    assert np.array_equal(f, before)


def test_burgers_blow_up_is_reported():
    spec = BurgersSpec(
        forcing=TopographySpec(H=500.0, k_range=(2, 6), l_range=(4, 20))
    )
    with pytest.raises(ModelEvaluationError, match="blew up") as exc:
        BurgersModel(spec).evaluate_many(4, [0])
    assert (exc.value.level, exc.value.seed) == (4, 0)


def test_burgers_qoi_is_positive_and_coupled():
    spec = BurgersSpec()
    model = BurgersModel(spec)
    v_coarse = model.evaluate_many(4, [11])[0]
    v_next = model.evaluate_many(3, [11])[0]
    assert v_coarse > 0.0
    assert v_next > 0.0
    # same realization on both grids: values differ but not wildly
    assert abs(v_next - v_coarse) < max(v_next, v_coarse)


def test_burgers_names_the_first_blown_seed_in_seed_order(monkeypatch):
    # 24 of these 64 seeds blow up.  Index 3 blows up at t = 0.2625 and index
    # 15 earlier, at t = 0.1625: a batch names its first blown seed in seed
    # order, not the first to blow up in time, whether the two share a tile
    # (the default: 2048 seeds at 32 cells) or not (3 seeds).
    forcing = TopographySpec(H=20.0, k_range=(2, 6), l_range=(4, 20))
    model = BurgersModel(BurgersSpec(cells_at_finest=32, max_level=1, forcing=forcing))
    seeds = counter_seeds(0, 0, 64)
    blown_at = {}
    for i in range(len(seeds)):
        try:
            model.evaluate_many(1, seeds[i : i + 1])
        except ModelEvaluationError as exc:
            blown_at[i] = str(exc).rsplit("t=", 1)[1]
    assert len(blown_at) == 24 and min(blown_at) == 3
    assert (blown_at[3], blown_at[15]) == ("0.2625", "0.1625")
    for tile in (_bits._TILE, 3 * 32):
        monkeypatch.setattr(_bits, "_TILE", tile)
        for workers in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ModelEvaluationError, match="blew up") as exc:
                    run_classical_mc(model, 1, 64, base_seed=0, workers=workers)
            assert (exc.value.level, exc.value.seed) == (1, int(seeds[3]))


@pytest.mark.parametrize(
    "base_seed, level, index",
    [
        # Of the first 1024 seeds, 7 blow up on 8 cells and none on 16.
        (1, 2, 41),
        # 15 blow up on 8 cells, the first at index 2, and 2 on 16 cells,
        # at indices 235 and 474.
        (11, 1, 235),
    ],
)
def test_burgers_two_level_chunk_names_the_lowest_failing_level(base_seed, level, index):
    # Term 1 of this plan runs levels 1 and 2 of seeds 0-1023 in two chunks
    # of 512; one evaluate_levels call draws both levels' forcing at once.
    forcing = TopographySpec(H=12.0, k_range=(2, 6), l_range=(4, 20))
    spec = BurgersSpec(cells_at_finest=16, max_level=2, time_horizon=0.5, forcing=forcing)
    plan = LevelPlan(StrategyId.S1, (1024, 1), 3.0, None)
    seeds = counter_seeds(base_seed, 0, 1024)
    for workers in (1, 2):
        with pytest.raises(ModelEvaluationError, match="blew up") as exc:
            run_mlmc(BurgersModel(spec), plan, base_seed=base_seed, workers=workers)
        assert (exc.value.level, exc.value.seed) == (level, int(seeds[index]))


def test_burgers_working_set_is_one_tile():
    # At 32 cells a tile is 2048 seeds, so a 16384-seed chunk, eight tiles,
    # peaks about as high as one tile does.
    model = BurgersModel(BurgersSpec(cells_at_finest=32, max_level=1, time_horizon=0.1))
    peaks = []
    for count in (2048, 16384):
        seeds = counter_seeds(0, 0, count)
        tracemalloc.start()
        try:
            model.evaluate_many(1, seeds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


# ---------------------------------------------------------------------------
# synthetic two-scale model
# ---------------------------------------------------------------------------

def test_two_scale_formula():
    m = TwoScaleModel(max_level=8, alpha=1.0, amp=0.5)
    lanes = normal_lanes(np.asarray([42], dtype=np.uint64), 2)[0]
    for level in (1, 2, 5):
        expect = lanes[0] + 0.5 * 2.0 ** (level - 1) * lanes[1]
        assert m.evaluate_many(level, [42])[0] == expect
    batch = m.evaluate_many(2, np.asarray([42, 43], dtype=np.uint64))
    assert batch[0] == m.evaluate_many(2, [42])[0]
    assert batch[1] == m.evaluate_many(2, [43])[0]


def test_two_scale_difference_ratio_is_exact():
    m = TwoScaleModel(alpha=1.25)
    seeds = np.arange(500, dtype=np.uint64)
    u1 = m.evaluate_many(1, seeds)
    u2 = m.evaluate_many(2, seeds)
    u3 = m.evaluate_many(3, seeds)
    ratio = (u2 - u3).std(ddof=1) / (u1 - u2).std(ddof=1)
    # shared realizations cancel the sampling noise: the ratio is 2^alpha
    # to machine precision even for 500 samples
    assert math.log2(ratio) == pytest.approx(1.25, abs=1e-12)


def _two_scale_reference(model, level, seeds):
    lanes = normal_lanes(np.asarray(seeds, dtype=np.uint64), 2)
    return lanes[:, 0] + model._scale(level) * lanes[:, 1]


def test_two_scale_reused_draw_follows_the_seeds():
    m = TwoScaleModel()
    a = counter_seeds(3, 0, 300)
    b = counter_seeds(4, 0, 300)
    # Alternating arrays, then the same array changed in place.
    for seeds in (a, b, a, a.copy(), b):
        for level in (1, 2):
            expect = _two_scale_reference(m, level, seeds)
            assert np.array_equal(m.evaluate_many(level, seeds), expect)
    for i in (0, 150, 299):
        seeds = a.copy()
        m.evaluate_many(1, seeds)
        seeds[i] += np.uint64(1)
        assert np.array_equal(m.evaluate_many(2, seeds), _two_scale_reference(m, 2, seeds))


def test_two_scale_models_share_draws_but_not_results():
    seeds = counter_seeds(5, 0, 64)
    m1, m2 = TwoScaleModel(alpha=1.0, amp=0.5), TwoScaleModel(alpha=2.0, amp=0.25)
    for m in (m1, m2, m1):
        assert np.array_equal(m.evaluate_many(3, seeds), _two_scale_reference(m, 3, seeds))
    assert not np.array_equal(m1.evaluate_many(3, seeds), m2.evaluate_many(3, seeds))


def test_two_scale_batch_accepts_empty_and_list_seeds():
    m = TwoScaleModel()
    seeds = [int(s) for s in counter_seeds(6, 0, 5)]
    # Each kind of input at two levels in a row.
    for level in (1, 2):
        assert m.evaluate_many(level, []).shape == (0,)
    for level in (1, 2):
        expect = _two_scale_reference(m, level, seeds)
        assert np.array_equal(m.evaluate_many(level, seeds), expect)
    for level in (1, 2):
        assert _two_scale_reference(m, level, seeds)[2] == m.evaluate_many(level, seeds[2:3])[0]


def test_two_scale_model_pickles():
    m = TwoScaleModel(max_level=5, alpha=1.5, amp=0.75)
    seeds = counter_seeds(7, 0, 10)
    m.evaluate_many(2, seeds)
    clone = pickle.loads(pickle.dumps(m))
    assert (clone.max_level, clone.alpha, clone.amp) == (5, 1.5, 0.75)
    assert np.array_equal(clone.evaluate_many(2, seeds), m.evaluate_many(2, seeds))


def test_two_scale_validation():
    with pytest.raises(ValueError):
        TwoScaleModel(max_level=0)
    with pytest.raises(ValueError):
        TwoScaleModel(alpha=0.0)
    with pytest.raises(ValueError):
        TwoScaleModel(amp=-1.0)
    with pytest.raises(ValueError):
        TwoScaleModel(max_level=4).evaluate_many(5, [0])


def test_two_scale_parameters_are_whole_and_finite():
    # A fractional max_level was kept, and a string one raised TypeError.
    for bad in (3.5, True, "4", None, 0):
        with pytest.raises(ValueError, match="max_level must be an integer"):
            TwoScaleModel(max_level=bad)
    m = TwoScaleModel(max_level=4.0)
    assert m.max_level == 4 and type(m.max_level) is int
    # NaN and inf failed only when a run evaluated them; True ran as 1.0.
    for bad in (math.nan, math.inf, -math.inf, True):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            TwoScaleModel(alpha=bad)
        with pytest.raises(ValueError, match="amp must be finite and > 0"):
            TwoScaleModel(amp=bad)


def test_gbm_spec_rejects_values_that_are_not_finite():
    for name, bad in (
        ("vol", math.nan), ("vol", math.inf), ("r_drift", math.inf),
        ("r_drift", -math.inf), ("r_drift", math.nan), ("S0", math.inf),
        ("S0", math.nan), ("T", math.inf), ("T", math.nan),
        # True counted as 1 and False as 0.
        ("S0", True), ("r_drift", True), ("vol", True), ("vol", False), ("T", True),
        # An int too large for a float raised OverflowError.
        ("S0", 10**400), ("r_drift", -(10**400)), ("T", 10**400),
    ):
        with pytest.raises(ValueError, match=f"{name} must be"):
            GBMSpec(**{name: bad})


# ---------------------------------------------------------------------------
# the batch contract, for every model
# ---------------------------------------------------------------------------

CONTRACT_MODELS = {
    "gbm": GBMModel,
    "two_scale": TwoScaleModel,
    "burgers": lambda: BurgersModel(BurgersSpec(cells_at_finest=32, max_level=3)),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_MODELS))
def test_model_batch_contract(name, monkeypatch):
    model = CONTRACT_MODELS[name]()
    clone = pickle.loads(pickle.dumps(model))
    tile = 256  # GBM's default tile of seeds
    seeds = np.asarray([3, 1234567, 2**63] + list(range(2 * tile + 5)), dtype=np.uint64)
    batches = {}
    for level in range(1, model.max_level + 1):
        batch = model.evaluate_many(level, seeds)
        assert batch.shape == (len(seeds),) and batch.dtype == np.float64
        assert np.array_equal(model.evaluate_many(level, seeds), batch)
        assert np.array_equal(clone.evaluate_many(level, seeds), batch)
        # A seed's value does not depend on its batch: the fixed seeds, and
        # both sides of GBM's first two tile boundaries, one seed at a time.
        for i in (0, 1, 2, tile - 1, tile, tile + 1, 2 * tile - 1, 2 * tile, len(seeds) - 1):
            assert model.evaluate_many(level, seeds[i : i + 1])[0] == batch[i]
        assert model.evaluate_many(level, []).shape == (0,)
        assert np.array_equal(model.evaluate_many(level, seeds[:5].tolist()), batch[:5])
        batches[level] = batch
    for level in (0, model.max_level + 1, True, 2.5, "2"):
        for bad in (seeds[:1], []):
            with pytest.raises(ValueError):
                model.evaluate_many(level, bad)
    # A whole-number float is its level, as in a config.
    assert model.evaluate_many(2.0, seeds).tobytes() == batches[2].tobytes()
    # And its seed; anything else that is not a whole number within
    # 0..2**64-1 is no seed.  A cast to uint64 took 1.5 and 2.7 as 1 and 2,
    # wrapped -1.0 and True to seeds, and raised OverflowError on -1.
    assert model.evaluate_many(1, [3.0, 1234567.0]).tobytes() == batches[1][:2].tobytes()
    for bad in ([1.5], [2.7], np.array([-1.0]), [-1], [2**64], [True], ["1"]):
        with pytest.raises(ValueError, match="seed"):
            model.evaluate_many(1, bad)
        with pytest.raises(ValueError, match="seed"):
            model.evaluate_levels((1, 2), bad)
    # evaluate_levels is the stacked evaluate_many rows, bit for bit: over
    # each adjacent pair, as a coupled term asks, and over all levels.
    ladder = range(1, model.max_level + 1)
    for levels in [(lv, lv + 1) for lv in ladder[:-1]] + [tuple(ladder)]:
        stacked = np.stack([batches[lv] for lv in levels])
        for m in (model, clone):
            out = m.evaluate_levels(levels, seeds)
            assert out.shape == stacked.shape and out.dtype == np.float64
            assert out.tobytes() == stacked.tobytes()
        assert model.evaluate_levels(levels, []).shape == (len(levels), 0)
        listed = model.evaluate_levels(list(levels), seeds[:5].tolist())
        assert listed.tobytes() == stacked[:, :5].copy().tobytes()
    # A row depends only on its own level, not on the other levels asked
    # for or their order: a subset that skips a level, and its reverse.
    for m in (model, clone):
        assert m.evaluate_levels((1, 3), seeds)[1].tobytes() == (
            m.evaluate_levels((3,), seeds)[0].tobytes()
        )
        assert m.evaluate_levels((3, 1), seeds).tobytes() == (
            np.stack([batches[3], batches[1]]).tobytes()
        )
    for level in (0, model.max_level + 1, True, 2.5, "2"):
        for bad in (seeds[:1], []):
            with pytest.raises(ValueError):
                model.evaluate_levels((1, level), bad)
    # Small tiles (one GBM seed, 3 or 6 Burgers seeds, 50 TwoScale seeds)
    # cross many tile boundaries and give the same bits.
    monkeypatch.setattr(_bits, "_TILE", 100)
    for level, batch in batches.items():
        assert np.array_equal(model.evaluate_many(level, seeds), batch)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_model_from_config():
    m = model_from_config({"kind": "gbm", "spec": {"vol": 0.3}})
    assert isinstance(m, GBMModel)
    assert m.spec.vol == 0.3
    b = model_from_config({"kind": "burgers"})
    assert isinstance(b, BurgersModel)
    t = model_from_config({"kind": "two_scale", "spec": {"max_level": 6, "alpha": 2.0}})
    assert isinstance(t, TwoScaleModel)
    assert t.max_level == 6 and t.alpha == 2.0
    # Spec values reach the constructor as given: 3.5 is not truncated to 3.
    for spec in ({"max_level": 3.5}, {"alpha": math.nan}, {"amp": math.inf}):
        with pytest.raises(ValueError):
            model_from_config({"kind": "two_scale", "spec": spec})
    with pytest.raises(ValueError):
        model_from_config({"kind": "heat"})
    with pytest.raises(ValueError):
        model_from_config({})


@pytest.mark.parametrize(
    "model, message",
    [
        ({"kind": "gbm", "spec": {"bogus": 1}}, "unknown gbm spec keys: ['bogus']"),
        ({"kind": "burgers", "spec": {"bogus": 1}}, "unknown burgers spec keys: ['bogus']"),
        ({"kind": "two_scale", "spec": {"bogus": 1}}, "unknown two_scale spec keys: ['bogus']"),
        ({"kind": "burgers", "spec": {"forcing": {"Lx": 1.0}}}, "unknown forcing keys: ['Lx']"),
        ({"kind": "gbm", "spec": False}, "gbm spec must be a JSON object"),
        ({"kind": "burgers", "spec": {"forcing": [5.0]}}, "forcing must be a JSON object"),
        ({"kind": "two_scale", "spec": []}, "two_scale spec must be a JSON object"),
    ],
    ids=["gbm_key", "burgers_key", "two_scale_key", "forcing_key", "gbm_false",
         "forcing_list", "two_scale_list"],
)
def test_model_from_config_names_a_spec_it_cannot_read(model, message):
    with pytest.raises(ValueError) as info:
        model_from_config(model)
    assert str(info.value) == message
    # A null spec is the default model.
    assert model_from_config({**model, "spec": None}).max_level >= 4
