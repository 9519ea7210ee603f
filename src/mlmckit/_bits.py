"""Counter-based pseudo-random primitives shared by executor and models.

Everything is built on the splitmix64 finalizer: a bijective 64-bit mix
whose outputs on an affine counter (state + k * GOLDEN) form a
well-distributed stream.  Because the mapping is a pure function of
(seed, counter), any slice of work can be recomputed independently on any
worker and yield identical bits.
"""

import math

import numpy as np
from scipy.special import ndtri

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64_int(x):
    """splitmix64 finalizer on a Python int (mod 2^64)."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def _mix64_array(x):
    """splitmix64 finalizer applied in place to the np.uint64 array ``x``.

    Mixing in place with one scratch buffer, rather than one temporary per
    ufunc, keeps a tile of lanes in cache.  Returns ``x``.
    """
    t = np.empty_like(x)
    # Multiplication wraps mod 2^64 by construction.
    with np.errstate(over="ignore"):
        for shift, mult in ((30, _M1), (27, _M2)):
            np.right_shift(x, np.uint64(shift), out=t)
            x ^= t
            x *= np.uint64(mult)
        np.right_shift(x, np.uint64(31), out=t)
        x ^= t
    return x


def counter_seeds(base_seed, start, count):
    """Sample ids mix64(base + GOLDEN * (counter+1)) for counter in [start, start+count).

    Distinct counters give distinct ids for a fixed base (the map is a
    bijection composed with an injective affine step), which is what makes
    disjointness across a run's terms a construction property rather than a
    probabilistic one.  The state steps *before* finalizing — splitmix64's
    own order — so counter 0 of base 0 never hits the finalizer's fixed
    point at zero.
    """
    if not 0 <= base_seed <= MASK64:
        raise ValueError(f"base_seed must be a 64-bit unsigned integer, got {base_seed}")
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    with np.errstate(over="ignore"):
        counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        states = np.uint64(base_seed) + np.uint64(GOLDEN) * counters
    return _mix64_array(states)


def normal_lanes(seeds, n):
    """(len(seeds), n) i.i.d. standard normals, one splitmix64 stream per seed.

    Lane j of stream s is ndtri of the (0,1) unit float built from
    mix64(s + GOLDEN * (j+1)), stepping before finalizing like splitmix64
    itself (seed 0's first lane must not be the fixed point mix64(0) = 0).
    Bit-identical results for a given (seed, j) regardless of batching.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    if n < 0:
        raise ValueError("n must be non-negative")
    with np.errstate(over="ignore"):
        lanes = np.uint64(GOLDEN) * np.arange(1, n + 1, dtype=np.uint64)
        states = seeds[:, None] + lanes[None, :]
        h = _mix64_array(states)
    # The top 53 bits, centred in their cell: a unit float strictly in (0, 1).
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return ndtri(u, out=u)


def two_sided_tail(z):
    """P(|N(0,1)| > z); handy for calibrating statistical test tolerances."""
    return math.erfc(z / math.sqrt(2.0))
