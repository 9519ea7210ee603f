"""Counter-based pseudo-random primitives shared by executor and models.

Everything is built on the splitmix64 finalizer: a bijective 64-bit mix
whose outputs on an affine counter (state + k * GOLDEN) form a
well-distributed stream.  Because the mapping is a pure function of
(seed, counter), any slice of work can be recomputed independently on any
worker and yield identical bits.
"""

import threading

import numpy as np

from ._checks import _seeds, _whole

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Lanes x seeds per tile, the one tile rule for every kernel that steps a
# batch in tiles (see _tiles): a tile holds max(1, _TILE // lanes) seeds,
# where lanes is what one seed needs: normals, time steps or cells.
# - normal_lanes: a tile's uint64 states and its unit floats (the mixer's
#   scratch until then) take 1 MiB, and a 16384-seed executor chunk at
#   TwoScale's two normals is one tile.  Drawing a GBM tile in two
#   normal_lanes tiles made a GBM run a fifth slower.
# - GBM, 256 seeds at the default 256 steps: a tile's draw, coarsened in
#   place, and normal_lanes's states take 1 MiB of per-thread scratch.
#   On gbm_capped, 128-seed tiles kept 0.6 MB less resident but made the
#   run 5% slower, since each tile costs about 50 us of calls whatever its
#   size.
# - Burgers, 256 seeds at 256 cells: about ten (B, n) float64 arrays are
#   alive per step, so a tile peaks near 5 MiB however large the chunk.
_TILE = 1 << 16

_scratch = threading.local()


def scratch(key, size, dtype=np.float64):
    """A per-thread 1-D work array of ``size`` elements, reused across calls.

    The array kept under ``key`` grows to the largest size asked for on its
    thread and is then reused, so a kernel called once per tile allocates
    (and page-faults) its buffers once per thread rather than once per call.
    The next call with the same key on the same thread overwrites it, so it
    must never be handed to a caller.
    """
    buf = _scratch.__dict__.get(key)
    if buf is None or buf.size < size:
        buf = _scratch.__dict__[key] = np.empty(size, dtype)
    return buf[:size]


def _tiles(size, lanes):
    """Consecutive slices of ``max(1, _TILE // lanes)`` over a batch of ``size`` seeds.

    ``_TILE`` is read at each call, so a test can patch it.
    """
    step = max(1, _TILE // max(lanes, 1))
    return [slice(start, start + step) for start in range(0, size, step)]


def mix64_int(x):
    """splitmix64 finalizer on a Python int (mod 2^64)."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def _mix64_array(x, t=None):
    """splitmix64 finalizer applied in place to the np.uint64 array ``x``.

    Mixing in place with one scratch buffer ``t`` (of ``x``'s shape; a new
    one if None), rather than one temporary per ufunc, keeps a tile of lanes
    in cache.  Returns ``x``.
    """
    if t is None:
        t = np.empty_like(x)
    # uint64 array arithmetic wraps mod 2^64, silently, as the mixer needs.
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
    base_seed = _whole("base_seed", base_seed, 0, MASK64)
    start, count = _whole("start", start, 0, None), _whole("count", count, 0, None)
    states = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    states *= np.uint64(GOLDEN)
    states += np.uint64(base_seed)
    return _mix64_array(states)


def normal_lanes(seeds, n, out=None, groups=1):
    """(len(seeds), n) i.i.d. standard normals, one splitmix64 stream per seed.

    Lane j of stream s is ndtri of the (0,1) unit float built from
    mix64(s + GOLDEN * (j+1)), stepping before finalizing like splitmix64
    itself (seed 0's first lane must not be the fixed point mix64(0) = 0).
    Bit-identical results for a given (seed, j) regardless of batching.
    With ``groups`` g dividing n, lane j is column (j % g) * (n // g) + j // g.

    The work is lane-major: each tile's counter states are an (n, b) block
    with one contiguous row per lane, so every ufunc's inner loop runs over
    seeds however few lanes there are.  The states live in this thread's
    scratch array, and the mixer's own scratch is the tile of the result,
    which is written only after.  The result is written into ``out`` (any
    float64 array of shape (len(seeds), n); the transpose of a C-ordered
    (n, len(seeds)) array is the fast layout) and returned; without ``out``
    it is a new array in that layout.  It never shares memory with scratch.
    """
    # scipy loads on the first draw, so commands that never draw skip its import.
    from scipy.special import ndtri

    seeds = _seeds(seeds)
    n, groups = _whole("n", n, 0, None), _whole("groups", groups, 1, None)
    if n % groups:
        raise ValueError(f"groups must divide n={n}, got {groups}")
    if out is None:
        out = np.empty((n, seeds.size)).T
    elif out.shape != (seeds.size, n) or out.dtype != np.float64:
        raise ValueError(
            f"out must be a float64 array of shape {(seeds.size, n)}, "
            f"got {out.dtype} {out.shape}"
        )
    lanes = np.arange(1, n + 1, dtype=np.uint64).reshape(-1, groups).T.ravel()
    lanes = (lanes * np.uint64(GOLDEN))[:, None]
    for tile in _tiles(seeds.size, n):
        part = seeds[tile]
        h = scratch("lanes", n * part.size, np.uint64).reshape(n, part.size)
        u = out.T[:, tile]
        np.add(lanes, part, out=h)
        _mix64_array(h, u.view(np.uint64))
        # The top 53 bits, centred in their cell: a unit float strictly in (0, 1).
        h >>= np.uint64(11)
        np.copyto(u, h, casting="unsafe")
        u += 0.5
        u *= 2.0**-53
        ndtri(u, out=u)
    return out
