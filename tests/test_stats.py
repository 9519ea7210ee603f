import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from mlmckit import executor, stats
from mlmckit.stats import (
    _fsum,
    LevelTermStats,
    SolutionParameters,
    estimate_alpha,
    estimate_fine_error,
    mc_mean,
    unbiased_variance,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# mean / variance
# ---------------------------------------------------------------------------

def test_mean_exact_small_case():
    assert mc_mean([1.0, 2.0, 3.0, 4.0]) == 2.5


def test_variance_exact_small_case():
    # mean 5; squared deviations 9+1+1+1+0+0+4+16 = 32; /(8-1)
    data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    assert unbiased_variance(data) == pytest.approx(32.0 / 7.0, rel=1e-15)


def test_mean_of_standard_normals_is_near_zero():
    rng = np.random.default_rng(20240817)
    z = rng.standard_normal(10_000)
    assert abs(mc_mean(z.tolist())) <= 0.04  # 4 sigma / sqrt(N)
    assert unbiased_variance(z.tolist()) == pytest.approx(1.0, abs=0.06)


def test_empty_and_short_inputs_rejected():
    with pytest.raises(ValueError):
        mc_mean([])
    with pytest.raises(ValueError):
        unbiased_variance([3.0])


def _as(kind, values):
    return {"list": list, "tuple": tuple, "array": np.array}[kind](values)


def _ref_mean(values):
    m = math.fsum(values) / len(values)
    return min(max(m, min(values)), max(values))


def _ref_variance(values):
    m = math.fsum(values) / len(values)
    squares = [(x - m) * (x - m) for x in values]
    if any(math.isinf(q) for q in squares):
        raise OverflowError  # where Python's (x - m) ** 2 raises
    return math.fsum(squares) / (len(values) - 1)


def _outcome(fn, values):
    try:
        return fn(values).hex()
    except OverflowError:
        return "OverflowError"


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=64),
    st.sampled_from(["list", "tuple", "array"]),
)
@example([858993459.9999999] * 5, "array")
@example([0.0, 2.6815615859885194e154], "list")  # the square alone overflows
def test_mean_and_variance_match_the_scalar_reference_bit_for_bit(values, kind):
    data = _as(kind, values)
    assert _outcome(mc_mean, data) == _outcome(_ref_mean, values)
    assert _outcome(unbiased_variance, data) == _outcome(_ref_variance, values)


def test_variance_raises_when_a_squared_deviation_overflows():
    with pytest.raises(OverflowError):
        unbiased_variance([1e200, -1e200])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["list", "array"])
def test_non_finite_samples_give_nan_variance_without_warnings(bad, kind, recwarn):
    assert math.isnan(unbiased_variance(_as(kind, [bad, 1.0])))
    assert math.isnan(unbiased_variance(_as(kind, [1.0, bad])))
    assert not recwarn.list


def test_input_arrays_are_left_untouched():
    for size in (3, 3 * 16384 + 17):
        v = np.random.default_rng(size).standard_normal(size)
        before = v.tobytes()
        unbiased_variance(v)
        mc_mean(v)
        assert v.tobytes() == before


@given(st.lists(finite_floats, min_size=2, max_size=64), finite_floats)
def test_variance_translation_invariant(values, shift):
    v0 = unbiased_variance(values)
    v1 = unbiased_variance([x + shift for x in values])
    assert v1 == pytest.approx(v0, rel=1e-7, abs=1e-6 * (1.0 + abs(shift)))


@given(st.lists(finite_floats, min_size=1, max_size=64))
@example([858993459.9999999] * 5)  # fsum(v) / n alone lands one ulp below
def test_mean_between_extremes(values):
    m = mc_mean(values)
    assert min(values) - 1e-9 <= m <= max(values) + 1e-9


# ---------------------------------------------------------------------------
# the exact sum behind both: _fsum is math.fsum, bit for bit
# ---------------------------------------------------------------------------

# One value; three sizes around 1024; one short of a kernel block, exactly
# one and one over; several blocks with a partial last one; the same
# around half a block.
SUM_SIZES = [
    1, 1023, 1024, 1025, 16383, 16384, 16385, 3 * 16384 + 17,
    8191, 8192, 8193, 3 * 8192 + 17,
]

any_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # full range, ±0 included
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(-(2**52), 2**52).map(lambda k: k * 2.0**-1074),  # subnormals
)


@st.composite
def sum_inputs(draw):
    size = draw(st.sampled_from(SUM_SIZES))
    pool = draw(st.lists(any_float, min_size=1, max_size=16))
    shifts = draw(st.lists(st.integers(-1100, 1100), min_size=1, max_size=8))
    kind = draw(st.sampled_from(["plain", "cancel", "tie"]))
    with np.errstate(over="ignore"):
        v = np.ldexp(np.resize(pool, size), np.resize(shifts, size))
    v[~np.isfinite(v)] = 0.0
    if kind == "cancel":
        # Each value and its negation, then something tiny left over.
        half = v[: (size - 1) // 2]
        v = np.concatenate([half, -half[::-1], [draw(any_float)]])
        v = v[np.random.default_rng(size).permutation(v.size)]
    elif kind == "tie":
        # A base plus half its ulp, the half split into power-of-two parts.
        base = draw(st.floats(min_value=2.0**-1000, max_value=2.0**1000))
        parts = 1 << (max(size - 1, 1).bit_length() - 1)
        v = np.zeros(max(size, 2))
        v[0] = draw(st.sampled_from([1.0, -1.0])) * base
        v[1 : 1 + parts] = math.copysign(math.ulp(base) / 2 / parts, v[0])
        if draw(st.booleans()):
            v[-1] += math.ulp(base) * 2.0**-40  # breaks the tie
    return np.ascontiguousarray(v)


def _fsum_outcome(fn, v):
    try:
        return fn(v).hex()
    except (OverflowError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@given(sum_inputs())
@example(np.array([1.0, 2.0**-53]))  # a tie that rounds down to even
@example(np.array([1.0 + 2.0**-52, 2.0**-53]))  # a tie that rounds up to even
@example(np.array([-0.0]))
@example(np.array([-0.0, -0.0, 0.0]))
@example(np.array([5e-324, -5e-324, 5e-324]))
# Bits left over after both extractions, beside 1.0.
@example(np.array([1.0, math.pi * 2.0**-90, -math.e * 2.0**-91, 2.0**-53]))
# Full-width values of one sign, whose block sums use all of the headroom.
@example(1.0 + np.random.default_rng(0).random(3 * 16384 + 17))
# Values too large for a block's sigma, though their sum is not.
@example(np.full(1024, 2.0**1009))
# A full block near ±1e200 that cancels, then a block near 1e-200: the
# sweep's one sigma, set by the first block, leaves every value of the
# second as a nonzero remainder, and those make up the whole sum.
@example(np.concatenate([
    np.repeat(1e200 * (1.0 + np.random.default_rng(3).random(8192)), 2)
    * np.resize([1.0, -1.0], 16384),
    1e-200 * (1.0 + np.random.default_rng(4).random(16384)),
]))
# A block whose values are all subnormal, so neither extraction runs.
@example(np.arange(-1500, 1999) * 5e-324)
# A block where only the first extraction runs, with subnormals left over.
@example(np.array([2.0**-960, 3 * 5e-324, -5e-324]))
def test_fsum_equals_math_fsum_bit_for_bit(v):
    expect = _fsum_outcome(math.fsum, memoryview(v).tolist())
    assert _fsum_outcome(_fsum, v) == expect


@given(sum_inputs())
# Several blocks of normals, which the kernel sums.
@example(np.random.default_rng(1).standard_normal(3 * 16384 + 17))
# Values near ±1e200, whose squares overflow.
@example(np.resize([1e200, -1e200, 3.0], 16385))
# Deviations that overflow before they are squared.
@example(np.resize([1.7e308, -1.7e308, -1.7e308], 1025))
# A largest deviation below the mean, too large for the kernel's headroom.
@example(np.concatenate([[-1e153], np.zeros(1024)]))
# Equal values: every deviation and the total are zero.
@example(np.full(16385, 0.1))
def test_variance_equals_the_scalar_reference_bit_for_bit(v):
    assume(v.size >= 2)
    assert _outcome(unbiased_variance, v) == _outcome(_ref_variance, v.tolist())


def _variance_given_the_mean(v):
    return unbiased_variance(v, mc_mean(v))


@given(st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=64),
    sum_inputs(),
))
@example([858993459.9999999] * 5)  # mc_mean clamps fsum(v) / n onto the smallest value
@example([1.0, 1.0000000000000002])  # fsum(v) / n rounds onto the smallest value
@example([-1.0000000000000002, -1.0])  # and onto the largest
def test_variance_given_the_mean_is_the_same_bit_for_bit(values):
    assume(len(values) >= 2)
    assert _outcome(_variance_given_the_mean, values) == _outcome(unbiased_variance, values)


def test_variance_allocates_one_block_whatever_the_size():
    v = np.random.default_rng(2).standard_normal(1 << 20)
    tracemalloc.start()
    try:
        unbiased_variance(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * stats._SUM_BLOCK * 8


@pytest.mark.parametrize(
    "values",
    [
        [math.inf, 1.0],
        [1.0, -math.inf],
        [math.nan, 1.0],
        [math.inf, -math.inf],  # ValueError: -inf + inf in fsum
        [1e308] * 3,  # OverflowError: intermediate overflow in fsum
        [8.98846567431158e307, 8.98846567431158e307],  # just at 2**1023
        [],
    ],
)
def test_fsum_fallback_gives_the_same_value_or_error(values):
    v = np.array(values, dtype=float)
    assert _fsum_outcome(_fsum, v) == _fsum_outcome(math.fsum, values)


# ---------------------------------------------------------------------------
# term statistics
# ---------------------------------------------------------------------------

def test_level_term_stats_validation():
    LevelTermStats(term_index=1, mean=0.0, variance=None, count=1)  # ok
    with pytest.raises(ValueError):
        LevelTermStats(term_index=0, mean=0.0, variance=None, count=1)
    with pytest.raises(ValueError):
        LevelTermStats(term_index=1, mean=0.0, variance=1.0, count=1)
    with pytest.raises(ValueError):
        LevelTermStats(term_index=1, mean=0.0, variance=-1.0, count=5)
    with pytest.raises(ValueError):
        LevelTermStats(term_index=1, mean=0.0, variance=None, count=0)
    # A bool index, an infinite mean or variance and a string mean were accepted.
    with pytest.raises(ValueError, match="term_index"):
        LevelTermStats(term_index=True, mean=0.0, variance=None, count=1)
    for mean in (math.inf, "0.5"):
        with pytest.raises(ValueError, match="mean"):
            LevelTermStats(term_index=1, mean=mean, variance=None, count=1)
    with pytest.raises(ValueError, match="variance"):
        LevelTermStats(term_index=1, mean=0.0, variance=math.inf, count=5)


def test_a_term_is_summed_once_for_its_mean_and_once_for_its_squares(monkeypatch):
    centers = []
    fsum = stats._fsum

    def counted(v, center=None, **kwargs):
        centers.append(center)
        return fsum(v, center, **kwargs)

    monkeypatch.setattr(stats, "_fsum", counted)
    values = np.random.default_rng(5).standard_normal(3 * 16384 + 17)
    term = executor._term_stats(1, values)
    assert centers == [None, term.mean]
    assert term.variance == unbiased_variance(values)


# ---------------------------------------------------------------------------
# parameter estimation
# ---------------------------------------------------------------------------

def test_alpha_from_exact_doubling():
    assert estimate_alpha(1.0, 2.0) == 1.0
    assert estimate_alpha(0.5, 2.0) == 2.0


def test_alpha_benchmark_ratio():
    # spread ratio 2.0994 between the two finest coupled pairs
    assert estimate_alpha(1.0, 2.0994) == pytest.approx(1.07, abs=1e-3)


def test_alpha_scale_invariant():
    assert estimate_alpha(3.0e7, 6.0e7) == pytest.approx(1.0, rel=1e-14)


def test_negative_alpha_passes_through_without_a_warning():
    # The pilot rejects a negative alpha; a warning here printed the same
    # finding once more, just before that error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_alpha(2.0, 1.0) == -1.0
        # A spread ratio that underflows to 0 is -inf, as one that
        # overflows is inf; it raised "math domain error".
        assert estimate_alpha(1e300, 1e-300) == -math.inf
        assert estimate_alpha(1e-300, 1e300) == math.inf


def test_alpha_rejects_nonpositive_spreads():
    with pytest.raises(ValueError):
        estimate_alpha(0.0, 1.0)
    with pytest.raises(ValueError):
        estimate_alpha(1.0, -2.0)
    # An infinite spread gave alpha = inf.
    with pytest.raises(ValueError, match="delta_23"):
        estimate_alpha(1.0, math.inf)


def test_fine_error_known_value():
    # alpha = 1: delta_12 = e sqrt(2 (1+4)) = e sqrt(10)
    assert estimate_fine_error(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-15)


@given(
    st.floats(min_value=1e-6, max_value=1e9),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_fine_error_round_trip(delta_12, alpha):
    e = estimate_fine_error(delta_12, alpha)
    assert e * math.sqrt(2.0 * (1.0 + 4.0**alpha)) == pytest.approx(delta_12, rel=1e-12)


def test_fine_error_validation():
    with pytest.raises(ValueError):
        estimate_fine_error(0.0, 1.0)
    with pytest.raises(ValueError):
        estimate_fine_error(1.0, -0.5)
    # An infinite spread gave e = inf.
    with pytest.raises(ValueError, match="delta_12"):
        estimate_fine_error(math.inf, 1.0)
    # 2 (1 + 4^alpha) past the float range names alpha: at 600 4**alpha
    # raised a bare "Numerical result out of range", and at 511.6 the
    # doubling turned inf quietly and e came out 0.0.
    for alpha in (600.0, 511.6):
        with pytest.raises(OverflowError, match=f"alpha={alpha}"):
            estimate_fine_error(1.0, alpha)
    assert estimate_fine_error(1.0, 511.4) > 0.0


# ---------------------------------------------------------------------------
# SolutionParameters
# ---------------------------------------------------------------------------

def test_parameters_validation():
    SolutionParameters(delta=1.0, e=0.1, alpha=0.0)  # alpha = 0 allowed here
    with pytest.raises(ValueError):
        SolutionParameters(delta=0.0, e=0.1, alpha=1.0)
    with pytest.raises(ValueError):
        SolutionParameters(delta=1.0, e=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        SolutionParameters(delta=1.0, e=0.1, alpha=-0.1)
    with pytest.raises(ValueError):
        SolutionParameters(delta=1.0, e=0.1, alpha=1.0, sigma=0.0)


@pytest.mark.parametrize("name", ["delta", "e", "alpha", "sigma"])
@pytest.mark.parametrize(
    "bad",
    [
        math.inf, -math.inf, math.nan,
        # Ints too large for a float: math.isfinite raised OverflowError.
        pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400"),
    ],
)
def test_parameters_reject_non_finite_values(name, bad):
    kwargs = {"delta": 1.0, "e": 0.1, "alpha": 1.0, "sigma": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SolutionParameters(**kwargs)


@pytest.mark.parametrize("name", ["delta", "e", "alpha", "sigma"])
@pytest.mark.parametrize("bad", [True, False, "0.5", None, [1.0]])
def test_parameters_reject_bools_and_strings(name, bad):
    kwargs = {"delta": 1.0, "e": 0.1, "alpha": 1.0, "sigma": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SolutionParameters(**kwargs)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SolutionParameters.from_json_dict(kwargs)


def test_parameters_store_floats():
    p = SolutionParameters(delta=2, e=1, alpha=1, sigma=np.float32(0.5))
    assert [type(v) for v in p.to_json_dict().values()] == [float] * 4
    assert p == SolutionParameters(delta=2.0, e=1.0, alpha=1.0, sigma=0.5)


def test_parameters_json_round_trip():
    p = SolutionParameters(delta=7.36e7, e=9.6e6, alpha=1.07)
    d = p.to_json_dict()
    assert d == {"delta": 7.36e7, "e": 9.6e6, "alpha": 1.07, "sigma": 1.0}
    assert SolutionParameters.from_json_dict(d) == p
