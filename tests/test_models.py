import math
import os
import pickle
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

import mlmckit
from mlmckit import _bits
from mlmckit._bits import counter_seeds, normal_lanes
from mlmckit.executor import ModelEvaluationError, run_classical_mc
from mlmckit.models import (
    BurgersModel,
    BurgersSpec,
    GBMModel,
    GBMSpec,
    TopographySample,
    TopographySpec,
    TwoScaleModel,
    _burgers_integrate,
    _increments,
    burgers_forcing_profile,
    evaluate_topography,
    model_from_config,
    sample_topography,
    write_topography_csv,
)

# ---------------------------------------------------------------------------
# random-field topography
# ---------------------------------------------------------------------------

def test_default_spectrum_has_578_coefficients():
    spec = TopographySpec()
    assert spec.n_k == 17
    assert spec.n_l == 17
    assert spec.coefficient_count == 578


def test_draw_order_is_frozen():
    # First five standard-normal draws of generator seed 0, mapped k-major,
    # l-minor, cos-before-sin.  Pinned so stored fields stay reproducible.
    s = sample_topography(TopographySpec(), 0)
    assert s.a[0, 0] == 0.1257302210933933
    assert s.b[0, 0] == -0.1321048632913019
    assert s.a[0, 1] == 0.6404226504432821
    assert s.b[0, 1] == 0.10490011715303971
    assert s.a[0, 2] == -0.535669373161111
    assert s.a.shape == (17, 17)
    assert s.b.shape == (17, 17)


def test_same_seed_same_field():
    spec = TopographySpec()
    f1 = evaluate_topography(sample_topography(spec, 7), 1.0e5, 2.0e5)
    f2 = evaluate_topography(sample_topography(spec, 7), 1.0e5, 2.0e5)
    assert f1 == f2


def test_field_vanishes_on_meridional_boundaries():
    spec = TopographySpec()
    xs = np.linspace(0.0, spec.Lx, 50)
    for seed in (0, 1, 2):
        sample = sample_topography(spec, seed)
        south = evaluate_topography(sample, xs, np.zeros_like(xs))
        north = evaluate_topography(sample, xs, np.full_like(xs, spec.Ly))
        assert np.all(south == 0.0)  # sin(0) is exact
        # sin(l pi) is only zero up to float pi truncation; the residue is
        # ~1e-13 against field values of order 30.
        assert np.max(np.abs(north)) < 1e-9


def test_single_mode_closed_form():
    spec = TopographySpec(H=1.0, Lx=2.0, Ly=2.0, k_range=(4, 4), l_range=(4, 4))
    sample = TopographySample(spec=spec, a=np.array([[1.0]]), b=np.array([[0.0]]))
    # weight H/(k^2+l^2) = 1/32; cos(0) = 1; sin(4 pi (Ly/8) / Ly) = sin(pi/2)
    assert evaluate_topography(sample, 0.0, spec.Ly / 8.0) == 0.03125
    # phase 2 pi k x / Lx: an eighth of the k=4 period zeroes the cos factor,
    # a sixteenth gives cos(pi/4)
    assert evaluate_topography(sample, spec.Lx / 16.0, spec.Ly / 8.0) == pytest.approx(
        0.0, abs=1e-15
    )
    assert evaluate_topography(sample, spec.Lx / 32.0, spec.Ly / 8.0) == pytest.approx(
        0.03125 * math.cos(math.pi / 4.0), rel=1e-12
    )


def _analytic_pointwise_std(spec, y):
    # Independent oracle: coefficients are i.i.d. standard normal, so the
    # field value at a point is a zero-mean normal whose variance sums
    # weight^2 * sin^2 over all modes (cos^2 + sin^2 collapses the x part).
    total = 0.0
    for k in range(spec.k_range[0], spec.k_range[1] + 1):
        for l in range(spec.l_range[0], spec.l_range[1] + 1):
            w = spec.H / (k * k + l * l)
            total += w * w * math.sin(math.pi * l * y / spec.Ly) ** 2
    return math.sqrt(total)


def test_pointwise_moments_match_analytic_law():
    spec = TopographySpec()
    probe_x = np.array([0.3e6, 1.1e6, 1.7e6])
    probe_y = np.array([0.4e6, 0.9e6, 1.5e6])
    n = 1200
    vals = np.empty((n, 3))
    for seed in range(n):
        vals[seed] = evaluate_topography(sample_topography(spec, seed), probe_x, probe_y)
    for j in range(3):
        sd = _analytic_pointwise_std(spec, probe_y[j])
        assert abs(vals[:, j].mean()) <= 4.0 * sd / math.sqrt(n)
        assert vals[:, j].std(ddof=1) == pytest.approx(sd, rel=0.10)


def test_domain_validation():
    sample = sample_topography(TopographySpec(), 0)
    with pytest.raises(ValueError):
        evaluate_topography(sample, -1.0, 0.0)
    with pytest.raises(ValueError):
        evaluate_topography(sample, 0.0, 1e12)


def test_spec_validation_and_round_trip():
    with pytest.raises(ValueError):
        TopographySpec(H=-1.0)
    with pytest.raises(ValueError):
        TopographySpec(k_range=(5, 4))
    with pytest.raises(ValueError):
        TopographySpec(l_range=(0, 4))
    spec = TopographySpec(H=250.0, k_range=(2, 6))
    assert TopographySpec(**{"H": 250.0, "k_range": [2, 6]}) == spec


def test_csv_dump(tmp_path):
    spec = TopographySpec()
    sample = sample_topography(spec, 3)
    path = tmp_path / "topo.csv"
    write_topography_csv(sample, path, nx=5, ny=4)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,height"
    assert len(lines) == 1 + 5 * 4
    # x-major ordering: the first ny rows share x = 0
    first = [ln.split(",") for ln in lines[1:5]]
    assert all(row[0] == "0.0" for row in first)
    assert float(first[0][2]) == 0.0  # y = 0 boundary
    # spot value agrees with direct evaluation (up to BLAS batching ulps)
    x, y, h = (float(v) for v in lines[7].split(","))
    assert evaluate_topography(sample, x, y) == pytest.approx(h, rel=1e-12)


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
    assert g.exact_mean == pytest.approx(math.exp(0.05), rel=1e-15)
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
    for bad in (4.5, True, "4", None, 0):
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
        fine, half = np.empty((n, seeds.size)), np.empty((n // 2, seeds.size))
        return _increments(g, level, seeds, fine, half).T

    fine = increments(1)
    for level in (2, 3, 4):
        fine = fine.reshape(len(seeds), -1, 2).sum(axis=2)
        assert np.array_equal(fine, increments(level))


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
    assert expect == pytest.approx(g.exact_mean, rel=1e-3)  # discretization bias is tiny


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
    assert spec.forcing.Lx == spec.domain_length
    with pytest.raises(ValueError):
        BurgersSpec(viscosity=0.0)
    with pytest.raises(ValueError):
        BurgersSpec(cells_at_finest=100, max_level=4)
    with pytest.raises(ValueError):
        BurgersSpec(forcing=TopographySpec(H=1.0, Lx=2.0, Ly=1.0))
    forcing = {"H": 5.0, "Lx": 1.0, "Ly": 1.0, "k_range": [2, 6], "l_range": [4, 20]}
    assert BurgersSpec.from_json_dict({"forcing": forcing}) == spec


def test_burgers_forcing_profile_matches_direct_sum():
    spec = BurgersSpec()
    n = 16
    got = burgers_forcing_profile(spec, 5, n)
    f = spec.forcing
    sample = sample_topography(f, 5)
    oracle = np.zeros(n)
    for i in range(n):
        x = (i + 0.5) / n * spec.domain_length
        acc = 0.0
        for ik, k in enumerate(range(f.k_range[0], f.k_range[1] + 1)):
            for il, l in enumerate(range(f.l_range[0], f.l_range[1] + 1)):
                w = f.H / (k * k + l * l)
                acc += w * sample.a[ik, il] * math.cos(2.0 * math.pi * k * x)
                acc += w * sample.b[ik, il] * math.sin(2.0 * math.pi * k * x)
        oracle[i] = acc
    assert np.allclose(got, oracle, rtol=1e-12, atol=1e-12)


def test_burgers_zero_forcing_stays_at_rest():
    spec = BurgersSpec(
        forcing=TopographySpec(H=0.0, Lx=1.0, Ly=1.0, k_range=(2, 6), l_range=(4, 20))
    )
    assert BurgersModel(spec).evaluate_many(4, [123])[0] == 0.0


def test_burgers_unforced_energy_never_grows():
    n = 64
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    u0 = 0.5 * np.sin(2.0 * np.pi * x)
    _, hist = _burgers_integrate(u0, np.zeros(n), dx, 0.005, 0.5, 0.0, record=True)
    hist = np.asarray(hist)
    assert np.all(np.diff(hist) <= 1e-12)
    assert hist[-1] < hist[0]


def test_burgers_blow_up_is_reported():
    spec = BurgersSpec(
        forcing=TopographySpec(H=500.0, Lx=1.0, Ly=1.0, k_range=(2, 6), l_range=(4, 20))
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
    # 13 of these 64 seeds blow up.  Index 2 blows up at t = 0.225 and index
    # 4 earlier, at t = 0.1875: a batch names its first blown seed in seed
    # order, not the first to blow up in time, whether the two share a tile
    # (the default: 2048 seeds at 32 cells) or not (3 seeds).
    forcing = TopographySpec(H=20.0, Lx=1.0, Ly=1.0, k_range=(2, 6), l_range=(4, 20))
    model = BurgersModel(BurgersSpec(cells_at_finest=32, max_level=1, forcing=forcing))
    seeds = counter_seeds(0, 0, 64)
    blown_at = {}
    for i in range(len(seeds)):
        try:
            model.evaluate_many(1, seeds[i : i + 1])
        except ModelEvaluationError as exc:
            blown_at[i] = str(exc).rsplit("t=", 1)[1]
    assert len(blown_at) == 13 and min(blown_at) == 2
    assert (blown_at[2], blown_at[4]) == ("0.225", "0.1875")
    for tile in (_bits._TILE, 3 * 32):
        monkeypatch.setattr(_bits, "_TILE", tile)
        for workers in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ModelEvaluationError, match="blew up") as exc:
                    run_classical_mc(model, 1, 64, base_seed=0, workers=workers)
            assert (exc.value.level, exc.value.seed) == (1, int(seeds[2]))


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
    # Each kind of input at two levels in a row, so the second call reuses.
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
    # NaN and inf failed only when a run evaluated them.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be > 0 and finite"):
            TwoScaleModel(alpha=bad)
        with pytest.raises(ValueError, match="amp must be > 0 and finite"):
            TwoScaleModel(amp=bad)


def test_gbm_spec_rejects_values_that_are_not_finite():
    for name, bad in (
        ("vol", math.nan), ("vol", math.inf), ("r_drift", math.inf),
        ("r_drift", -math.inf), ("r_drift", math.nan), ("S0", math.inf),
        ("S0", math.nan), ("T", math.inf), ("T", math.nan),
    ):
        with pytest.raises(ValueError, match=f"{name} must be"):
            GBMSpec(**{name: bad})


def test_cost_hint_defaults_to_relative_dof():
    m = TwoScaleModel()
    assert m.cost_hint(1) == 1.0
    assert m.cost_hint(3) == 1.0 / 64.0


# ---------------------------------------------------------------------------
# the batch contract, for every model
# ---------------------------------------------------------------------------

CONTRACT_MODELS = {
    "gbm": GBMModel,
    "two_scale": TwoScaleModel,
    "burgers": lambda: BurgersModel(BurgersSpec(cells_at_finest=32, max_level=2)),
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
    for level in (0, model.max_level + 1):
        for bad in (seeds[:1], []):
            with pytest.raises(ValueError):
                model.evaluate_many(level, bad)
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
