import math
import os
import pickle
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import mlmckit
from mlmckit._bits import counter_seeds, normal_lanes
from mlmckit.models import (
    BurgersModel,
    BurgersSpec,
    GBMModel,
    GBMSpec,
    TopographySample,
    TopographySpec,
    TwoScaleModel,
    _burgers_integrate,
    burgers_evaluate,
    burgers_forcing_profile,
    evaluate_topography,
    gbm_evaluate,
    gbm_increments,
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
    assert TopographySpec.from_json_dict({"H": 250.0, "k_range": [2, 6]}) == spec


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


def test_gbm_zero_vol_is_deterministic_compounding():
    g = GBMSpec(vol=0.0)
    for level in (1, 2, 4):
        n = g.steps_at_level(level)
        expect = g.S0 * (1.0 + g.r_drift * g.T / n) ** n
        for seed in (0, 999):
            assert gbm_evaluate(g, level, seed) == pytest.approx(expect, rel=1e-12)


def test_gbm_increments_coarsen_bitwise():
    # A coarse step's Brownian increment is exactly the sum of its two fine
    # halves, so coupling across levels is exact by construction.
    g = GBMSpec()
    seeds = np.arange(17, dtype=np.uint64)
    fine = gbm_increments(g, 1, seeds)
    for level in (2, 3, 4):
        fine = fine.reshape(len(seeds), -1, 2).sum(axis=2)
        assert np.array_equal(fine, gbm_increments(g, level, seeds))


def test_gbm_scalar_equals_batch():
    model = GBMModel()
    tile = GBMModel._BATCH
    seeds = np.asarray([3, 1234567, 2**63] + list(range(2 * tile + 5)), dtype=np.uint64)
    for level in range(1, model.max_level + 1):
        batch = model.evaluate_many(level, seeds)
        # the fixed seeds, and both sides of the first two tile boundaries
        for i in (0, 1, 2, tile - 1, tile, tile + 1, 2 * tile - 1, 2 * tile, len(seeds) - 1):
            assert model.evaluate(level, int(seeds[i])) == batch[i]


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
    assert burgers_evaluate(spec, 4, 123) == 0.0


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
    with pytest.raises(ValueError, match="blew up"):
        burgers_evaluate(spec, 4, 0)


def test_burgers_qoi_is_positive_and_coupled():
    spec = BurgersSpec()
    model = BurgersModel(spec)
    v_coarse = model.evaluate(4, 11)
    v_next = model.evaluate(3, 11)
    assert v_coarse > 0.0
    assert v_next > 0.0
    # same realization on both grids: values differ but not wildly
    assert abs(v_next - v_coarse) < max(v_next, v_coarse)


# ---------------------------------------------------------------------------
# synthetic two-scale model
# ---------------------------------------------------------------------------

def test_two_scale_formula():
    m = TwoScaleModel(max_level=8, alpha=1.0, amp=0.5)
    lanes = normal_lanes(np.asarray([42], dtype=np.uint64), 2)[0]
    for level in (1, 2, 5):
        expect = lanes[0] + 0.5 * 2.0 ** (level - 1) * lanes[1]
        assert m.evaluate(level, 42) == expect
    batch = m.evaluate_many(2, np.asarray([42, 43], dtype=np.uint64))
    assert batch[0] == m.evaluate(2, 42)
    assert batch[1] == m.evaluate(2, 43)


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
        assert expect[2] == m.evaluate(level, seeds[2])


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
        TwoScaleModel(max_level=4).evaluate(5, 0)


def test_cost_hint_defaults_to_relative_dof():
    m = TwoScaleModel()
    assert m.cost_hint(1) == 1.0
    assert m.cost_hint(3) == 1.0 / 64.0


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
    with pytest.raises(ValueError):
        model_from_config({"kind": "heat"})
    with pytest.raises(ValueError):
        model_from_config({})
