import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from mlmckit import _bits
from mlmckit._checks import _seeds
from mlmckit._bits import (
    GOLDEN,
    MASK64,
    counter_seeds,
    mix64_int,
    normal_lanes,
)

u64 = st.integers(min_value=0, max_value=MASK64)


@given(u64)
def test_scalar_and_array_mixers_agree(x):
    arr = np.asarray([x], dtype=np.uint64)
    from mlmckit._bits import _mix64_array

    assert int(_mix64_array(arr)[0]) == mix64_int(x)


def test_streams_avoid_the_finalizer_fixed_point():
    # the raw finalizer maps 0 to 0; the streams must never expose that as
    # an actual draw, so counter 0 of base 0 steps first
    assert mix64_int(0) == 0  # documented quirk of the finalizer itself
    assert int(counter_seeds(0, 0, 1)[0]) != 0
    lanes = normal_lanes(np.asarray([0], dtype=np.uint64), 2)[0]
    assert np.all(np.abs(lanes) < 6.0)  # not the u ~ 2^-54 tail value


@given(u64, st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=64))
def test_counter_seeds_are_slice_stable(base, start, count):
    # generating [start, start+count) in one call equals stitching two calls:
    # the stream is addressed by absolute counter, not by call history
    whole = counter_seeds(base, start, count)
    head = counter_seeds(base, start, count // 2) if count // 2 else whole[:0]
    tail = counter_seeds(base, start + count // 2, count - count // 2)
    assert np.array_equal(whole, np.concatenate([head, tail]))


def test_counter_seeds_match_golden_ratio_stream():
    base = 12345
    seeds = counter_seeds(base, 0, 4)
    for i in range(4):
        assert int(seeds[i]) == mix64_int((base + GOLDEN * (i + 1)) & MASK64)


def test_counter_seeds_validation():
    with pytest.raises(ValueError):
        counter_seeds(-1, 0, 4)
    with pytest.raises(ValueError):
        counter_seeds(2**64, 0, 4)


def test_normal_lanes_batch_invariant():
    seeds = counter_seeds(7, 0, 100)
    whole = normal_lanes(seeds, 3)
    parts = np.vstack([normal_lanes(seeds[:37], 3), normal_lanes(seeds[37:], 3)])
    assert np.array_equal(whole, parts)
    one = normal_lanes(np.asarray([seeds[5]], dtype=np.uint64), 3)[0]
    assert np.array_equal(one, whole[5])


def test_normal_lanes_take_whole_number_seeds_within_64_bits():
    seeds = np.asarray([0, 5, 2**53, MASK64], dtype=np.uint64)
    want = normal_lanes(seeds, 3)
    # Any integer array in range, a list of ints, and whole-number floats
    # (up to 2**53, where a float still holds each integer) are those seeds.
    for same in (seeds.astype(object), [int(s) for s in seeds], seeds[:3].astype(np.int64)):
        assert normal_lanes(same, 3).tobytes() == want[: len(same)].tobytes()
    assert normal_lanes([0.0, 5.0, 2.0**53], 3).tobytes() == want[:3].tobytes()
    # A uint64 array is used as it is, with no copy.
    assert _seeds(seeds) is seeds or np.shares_memory(_seeds(seeds), seeds)
    # A cast to uint64 truncated a fraction, wrapped a negative float and a
    # bool to a seed, and raised OverflowError on a negative int.
    for bad in ([1.5], np.array([-1.0]), [-1], np.array([-1]), [2**64], [float("nan")],
                [True], np.array([True]), [1, True], ["1"], np.array(["1"])):
        with pytest.raises(ValueError, match=f"seed must be an integer within 0..{MASK64}"):
            normal_lanes(bad, 3)


@pytest.mark.parametrize("seed", [0, MASK64])
def test_normal_lanes_match_scalar_mixer_across_wraparound(seed):
    # The array mixer works in place on wrapped uint64 states; the Python-int
    # reference reduces mod 2^64 explicitly.  Seed 2^64-1 wraps on lane 0.
    lanes = normal_lanes(np.asarray([seed], dtype=np.uint64), 2)[0]
    for j in range(2):
        h = mix64_int(seed + GOLDEN * (j + 1))
        u = ((h >> 11) + 0.5) * 2.0**-53
        assert lanes[j] == ndtri(u)


def _broadcast_reference(seeds, n):
    """The seed-major formula normal_lanes started from: (B, 1) + (1, n)
    states and one new array per step, with the splitmix64 constants spelled
    out here rather than taken from the module under test."""
    lanes = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = seeds[:, None] + np.uint64(GOLDEN) * lanes[None, :]
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    u = (x >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return ndtri(u)


def _group_orders(n):
    """Each ``groups`` of 1, 2, 8 and n that divides n, with the lane each
    output column then holds: lanes sorted by (j mod groups, j)."""
    for groups in sorted({g for g in (1, 2, 8, n) if g >= 1 and n % g == 0}):
        yield groups, sorted(range(n), key=lambda j: (j % groups, j))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 256])
@pytest.mark.parametrize("count", [0, 1, 255, 257, 4097])
def test_normal_lanes_bytes_equal_the_broadcast_formula(count, n):
    # 4097 seeds of 256 lanes span 17 tiles, the last one ragged.
    seeds = counter_seeds(31, 0, count)
    reference = _broadcast_reference(seeds, n)
    for groups, order in _group_orders(n):
        z = normal_lanes(seeds, n, groups=groups)
        assert z.shape == (count, n) and z.dtype == np.float64
        expect = np.ascontiguousarray(reference[:, order])
        assert np.ascontiguousarray(z).tobytes() == expect.tobytes()


@pytest.mark.parametrize("layout", ["seed-major", "lane-major"])
@pytest.mark.parametrize("n", [2, 256])
def test_normal_lanes_into_out_equal_a_fresh_result(layout, n):
    seeds = counter_seeds(32, 0, 300)

    def empty():
        return np.full((300, n), np.nan) if layout == "seed-major" else np.full((n, 300), np.nan).T

    for groups, _ in _group_orders(n):
        fresh = normal_lanes(seeds, n, groups=groups)
        out = empty()
        assert normal_lanes(seeds, n, out=out, groups=groups) is out
        assert np.array_equal(out, fresh)
    for bad in (np.empty((300, n + 1)), np.empty((299, n)), np.empty((300, n), np.float32)):
        with pytest.raises(ValueError):
            normal_lanes(seeds, n, out=bad)
    # A groups that is not a whole number >= 1 dividing n fails before any draw.
    for groups in (0, 3, True, np.True_, 2.5):
        out = empty()
        with pytest.raises(ValueError, match="groups"):
            normal_lanes(seeds, n, out=out, groups=groups)
        assert np.isnan(out).all()


def test_normal_lanes_results_never_alias():
    # TwoScale keeps its last draw across calls, so a result must not be (or
    # share memory with) the kernel's per-thread scratch or another result.
    seeds = [counter_seeds(33 + k, 0, 600) for k in range(4)]
    results = {k: normal_lanes(seeds[k], 2) for k in (0, 1)}
    barrier = threading.Barrier(2)
    scratch = list(_bits._scratch.__dict__.values())

    def draw(k):
        barrier.wait()
        results[k] = normal_lanes(seeds[k], 2)
        scratch.extend(_bits._scratch.__dict__.values())

    threads = [threading.Thread(target=draw, args=(k,)) for k in (2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(results) == [0, 1, 2, 3] and len(scratch) >= 3
    for k, z in results.items():
        others = [results[j] for j in results if j != k] + scratch
        assert not any(np.shares_memory(z, other) for other in others)
        assert np.array_equal(z, _broadcast_reference(seeds[k], 2))


def test_normal_lanes_moments():
    z = normal_lanes(counter_seeds(0, 0, 50_000), 2).ravel()
    assert abs(z.mean()) < 0.02
    assert z.std(ddof=1) == pytest.approx(1.0, abs=0.02)
    assert abs((z**4).mean() - 3.0) < 0.1  # normal kurtosis


def test_lanes_are_decorrelated():
    lanes = normal_lanes(counter_seeds(99, 0, 20_000), 2)
    corr = np.corrcoef(lanes[:, 0], lanes[:, 1])[0, 1]
    assert abs(corr) < 0.03
