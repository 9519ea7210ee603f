"""Sample statistics and parameter estimation for multilevel ensembles.

Every sum is correctly rounded, equal to ``math.fsum`` bit for bit, so
results are bit-reproducible no matter how the samples were produced or
scheduled.  Samples are summed straight from a float64 array by an exact
sum indexed by binary exponent (:func:`_fsum`).  Arrays of fewer than 1024
values (where ``math.fsum`` is faster) or of 2**26 or more, arrays whose
sum could overflow or that hold an inf or NaN, and sums that are exactly
zero go to ``math.fsum`` itself, which gives the same value or error (and
the interpreter's sign of zero).  Squared deviations are IEEE products
(``d * d``) rather than libm ``pow``, so variance bytes do not depend on
the platform's libm; a variance can differ from a ``(x - m) ** 2`` sum in
its last bit.  Means, and so estimates, involve no squares and are
unaffected.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LevelTermStats:
    """Summary of one telescoping term: its mean, spread, and sample count.

    ``variance`` is the unbiased sample variance and is only defined for
    ``count >= 2``; a single-sample term reports ``None``.
    """

    term_index: int
    mean: float
    variance: Optional[float]
    count: int

    def __post_init__(self):
        if self.term_index < 1:
            raise ValueError(f"term_index must be >= 1, got {self.term_index}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.variance is not None:
            if self.count < 2:
                raise ValueError("variance requires count >= 2")
            if self.variance < 0:
                raise ValueError(f"variance must be >= 0, got {self.variance}")

    def to_json_dict(self):
        return {
            "term_index": self.term_index,
            "mean": self.mean,
            "variance": self.variance,
            "count": self.count,
        }


@dataclass(frozen=True)
class SolutionParameters:
    """Inputs every sampling plan is sized from.

    Parameters
    ----------
    delta : float
        Statistical spread of the fine-level QoI (standard-deviation scale).
    e : float
        Target/measured fine-level discretization error.
    alpha : float
        Per-level decay exponent of the coupled differences (ratio 2^alpha
        per coarsening step).
    sigma : float
        Slack exponent used by the level-weighted strategies; ignored by the
        others.  Must be positive.

    All four must be finite.
    """

    delta: float
    e: float
    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("delta", "e", "alpha", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not self.e > 0:
            raise ValueError(f"e must be positive, got {self.e}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def to_json_dict(self):
        return {"delta": self.delta, "e": self.e, "alpha": self.alpha, "sigma": self.sigma}

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            delta=float(d["delta"]),
            e=float(d["e"]),
            alpha=float(d["alpha"]),
            sigma=float(d.get("sigma", 1.0)),
        )


def _values(s):
    return np.ascontiguousarray(s, dtype=float).ravel()


# A float64 is m * 2**e with 0.5 <= |m| < 1 and -1073 <= e <= 1024 (frexp).
# Splitting m * 2**27 into a whole part (|hi| < 2**27) and a fraction that
# is a multiple of 2**-26 makes every per-exponent bucket sum of fewer than
# 2**26 values an exact float64; Python ints then add the buckets exactly.
_EXP_BIAS = 1074
_BUCKETS = 2099
_SUM_BLOCK = 8192
# Below this size fsum itself is faster than the bucket set-up.
_SMALL_SUM = 1024


def _fsum(v):
    """``math.fsum(v)`` of a contiguous float64 array, bit for bit, vectorized."""
    n = v.size
    # Small arrays, inf, NaN, partial sums that could overflow, or bucket sums
    # that could lose bits: leave those to fsum, which gives the same value
    # or error.
    if n < _SMALL_SUM or n >= 1 << 26 or not float(max(v.max(), -v.min())) * n < 2.0**1020:
        return math.fsum(memoryview(v))
    b = min(n, _SUM_BLOCK)
    m = np.empty(b)
    hi = np.empty(b)
    e = np.empty(b, dtype=np.intp)
    acc_hi = np.zeros(_BUCKETS)
    acc_lo = np.zeros(_BUCKETS)
    for i in range(0, n, b):
        blk = v[i : i + b]
        k = blk.size
        mk, hk, ek = m[:k], hi[:k], e[:k]
        np.frexp(blk, out=(mk, ek))
        mk *= 2.0**27
        np.trunc(mk, out=hk)
        mk -= hk
        ek += _EXP_BIAS
        acc_hi += np.bincount(ek, weights=hk, minlength=_BUCKETS)
        acc_lo += np.bincount(ek, weights=mk, minlength=_BUCKETS)
    # In units of 2**-1127, bucket j holds lo * 2**j and hi * 2**(j + 26).
    acc_lo *= 2.0**26
    c = np.zeros(_BUCKETS + 26, dtype=np.int64)
    c[:_BUCKETS] = acc_lo
    c[26:] += acc_hi.astype(np.int64)
    nz = np.flatnonzero(c)
    total = 0
    for j, cj in zip(nz.tolist(), c[nz].tolist()):
        total += cj << j
    if total == 0:
        return math.fsum(memoryview(v))
    # int / int rounds half to even, as fsum does.
    return total / (1 << 1127)


def mc_mean(s):
    """Plain Monte Carlo mean, a correctly rounded sum over n."""
    v = _values(s)
    if v.size == 0:
        raise ValueError("mean of an empty sample set is undefined")
    m = _fsum(v) / v.size
    # The division rounds the correctly rounded sum a second time, which can
    # step one ulp outside the samples' range (five equal values near 8.6e8
    # do); the exact mean never leaves it.
    return min(max(m, float(v.min())), float(v.max()))


def unbiased_variance(s):
    """Unbiased sample variance (1/(M-1) normalization), two-pass."""
    v = _values(s)
    if v.size < 2:
        raise ValueError(f"unbiased variance needs at least 2 samples, got {v.size}")
    m = _fsum(v) / v.size
    # A finite deviation whose square overflows raises, as Python's float
    # arithmetic does; inf - inf and NaN inputs give a NaN variance quietly.
    with np.errstate(over="raise", invalid="ignore"):
        try:
            d = v - m
            d *= d
        except FloatingPointError as exc:
            raise OverflowError("squared deviation out of range") from exc
    return _fsum(d) / (v.size - 1)


def total_samples_per_level(M):
    """Solves actually run per level when adjacent terms share realizations.

    The finest level is touched only by the first term; every other level l
    is touched by terms l-1 and l, so its total is M[l-2] + M[l-1].
    """
    M = list(M)
    if not M:
        raise ValueError("M must be non-empty")
    if any(int(m) != m or m < 1 for m in M):
        raise ValueError(f"sample counts must be integers >= 1, got {M}")
    M = [int(m) for m in M]
    return [M[0]] + [M[l - 1] + M[l] for l in range(1, len(M))]


def estimate_alpha(delta_12, delta_23):
    """Decay exponent from the spreads of two adjacent coupled differences.

    The coupled differences shrink by 2^alpha per refinement, so
    alpha = log2(delta_23 / delta_12).  A negative result (the coarser pair
    spreads *less*) signals a non-convergent ladder; it is returned as-is
    with a RuntimeWarning rather than clamped.
    """
    if not delta_12 > 0 or not delta_23 > 0:
        raise ValueError(
            f"spreads must be positive, got delta_12={delta_12}, delta_23={delta_23}"
        )
    alpha = math.log2(delta_23 / delta_12)
    if alpha < 0:
        warnings.warn(
            f"estimated alpha = {alpha:.4g} is negative: coupled differences "
            "grow toward finer levels (non-convergent ladder)",
            RuntimeWarning,
            stacklevel=2,
        )
    return alpha


def estimate_fine_error(delta_12, alpha):
    """Fine-level discretization error consistent with the finest coupled pair.

    Inverts the sizing identity delta_12 = e * sqrt(2 (1 + 4^alpha)).
    """
    if not delta_12 > 0:
        raise ValueError(f"delta_12 must be positive, got {delta_12}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return delta_12 / math.sqrt(2.0 * (1.0 + 4.0**alpha))
