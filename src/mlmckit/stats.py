"""Sample statistics and parameter estimation for multilevel ensembles.

Every sum is correctly rounded, equal to ``math.fsum`` bit for bit, so
results are bit-reproducible no matter how the samples were produced or
scheduled.  Samples are summed straight from a float64 array
(:func:`_fsum`): each block of values is split by two vectorized
extraction steps into two exact sums and a few remainders, and
``math.fsum`` rounds those parts once.  Empty arrays, arrays whose sum
could overflow or that hold an inf or NaN, and sums that are exactly zero
go to ``math.fsum`` itself, which gives the same value or error (and the
interpreter's sign of zero).  Squared deviations are IEEE products (``d * d``) rather than
libm ``pow``, so variance bytes do not depend on the platform's libm; a
variance can differ from a ``(x - m) ** 2`` sum in its last bit.  Means,
and so estimates, involve no squares and are unaffected.  The squares are
formed one block at a time inside the sum, so a variance allocates one
block's buffers whatever the sample count; only the cases left to
``math.fsum`` form them all.
"""

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from ._checks import _finite, _known_keys, _whole


@dataclass(frozen=True)
class LevelTermStats:
    """Summary of one telescoping term: its mean, spread, and sample count.

    ``variance`` is the unbiased sample variance and is only defined for
    ``count >= 2``; a single-sample term reports ``None``.  ``term_index``
    and ``count`` are whole numbers >= 1, and the mean and variance finite.
    """

    term_index: int
    mean: float
    variance: Optional[float]
    count: int

    def __post_init__(self):
        for name in ("term_index", "count"):
            object.__setattr__(self, name, _whole(name, getattr(self, name), 1, None))
        object.__setattr__(self, "mean", _finite("mean", self.mean))
        if self.variance is not None:
            if self.count < 2:
                raise ValueError("variance requires count >= 2")
            object.__setattr__(self, "variance", _finite("variance", self.variance, ">= 0"))

    def to_json_dict(self):
        return asdict(self)


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

    All four must be finite real numbers (a bool or a string is not one);
    they are stored as floats.
    """

    delta: float
    e: float
    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        for name, sign in (("delta", "> 0"), ("e", "> 0"), ("alpha", ">= 0"), ("sigma", "> 0")):
            object.__setattr__(self, name, _finite(name, getattr(self, name), sign))

    def to_json_dict(self):
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d):
        _known_keys("parameters", d, [f.name for f in fields(cls)])
        return cls(**d)


def _values(s):
    return np.ascontiguousarray(s, dtype=float).ravel()


# Rump, Ogita and Oishi's extraction ("Accurate floating-point summation,
# part I", SIAM J. Sci. Comput. 31, 2008).  For a normal power of two sigma
# and |p| <= sigma * 2**-_M, q = (sigma + p) - sigma is p rounded to a
# multiple of sigma * 2**-53, and p - q is its exact remainder, at most
# sigma * 2**-53.  A sum of at most 2**_M such q is a multiple of
# sigma * 2**-53 no larger than sigma, so a float: a block's q add up
# exactly in any order.
_SUM_BLOCK = 16384
_M = (_SUM_BLOCK + 1).bit_length()


def _fsum(v, center=None):
    """``math.fsum(v)`` of a contiguous float64 array, bit for bit, vectorized.

    With ``center``, the sum of the IEEE squares
    ``(v - center) * (v - center)``, formed one block at a time in a
    block-sized buffer, or the error that forming them all would raise.
    """
    n = v.size
    c = 0.0 if center is None else center
    # The largest |v - c|: rounding is monotone, so it is at v.max() or
    # v.min(), and so is the largest square.
    top = max(float(v.max()) - c, c - float(v.min())) if n else math.nan
    if center is not None:
        top *= top
    # Empty arrays, inf, NaN, and sums (or a sigma) that could overflow:
    # leave those to fsum, which gives the same value or error.
    if not top * max(n, 1 << _M) < 2.0**1020:
        if center is not None:
            # A finite deviation whose square overflows raises, as Python's
            # float arithmetic does; inf - inf and NaN give a NaN quietly.
            with np.errstate(over="raise", invalid="ignore"):
                try:
                    v = v - center
                    v *= v
                except FloatingPointError as exc:
                    raise OverflowError("squared deviation out of range") from exc
        return math.fsum(memoryview(v))
    b = min(n, _SUM_BLOCK)
    p, q = np.empty(b), np.empty(b)
    # Exact parts whose sum is the exact sum of v: two extracted sums per
    # block, then the block's nonzero remainders.
    parts = []
    for i in range(0, n, b):
        rest = v[i : i + b]
        pk, qk = p[: rest.size], q[: rest.size]
        if center is not None:
            rest = np.subtract(rest, center, out=pk)
            rest *= rest
        sigma = 2.0 ** (_M + math.frexp(float(max(rest.max(), -rest.min())))[1])
        for _ in range(2):
            # The argument needs sigma * 2**-53 to be a normal float.
            if sigma < 2.0**-969:
                break
            np.add(rest, sigma, out=qk)
            qk -= sigma
            np.subtract(rest, qk, out=pk)
            parts.append(float(qk.sum()))
            rest, sigma = pk, sigma * 2.0 ** (_M - 53)
        parts.extend(rest[rest != 0].tolist())
    total = math.fsum(parts)
    # An exact zero takes the interpreter's sign of zero; squares are never
    # -0.0, so theirs is fsum's +0.0 already.
    return total if total or center is not None else math.fsum(memoryview(v))


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
    """Unbiased sample variance (1/(M-1) normalization), two-pass.

    The squared deviations are summed one block of values at a time, so
    the variance allocates one block's buffers whatever the sample count.
    """
    v = _values(s)
    if v.size < 2:
        raise ValueError(f"unbiased variance needs at least 2 samples, got {v.size}")
    return _fsum(v, _fsum(v) / v.size) / (v.size - 1)


def estimate_alpha(delta_12, delta_23):
    """Decay exponent from the spreads of two adjacent coupled differences.

    The coupled differences shrink by 2^alpha per refinement, so
    alpha = log2(delta_23 / delta_12), returned with either sign.  A negative
    result (the coarser pair spreads *less*) signals a non-convergent ladder,
    which :func:`~mlmckit.executor.pilot_estimate_parameters` rejects.  A
    spread ratio past the float range gives inf, one that underflows to 0
    gives -inf.
    """
    _finite("delta_12", delta_12, "> 0")
    _finite("delta_23", delta_23, "> 0")
    ratio = delta_23 / delta_12
    return math.log2(ratio) if ratio else -math.inf


def _base_factor(alpha):
    # 2 (1 + 4^alpha): the prefactor of every strategy's counts and of the sizing
    # identity.  It is below 2^1024, so a float, exactly while alpha < 511.5.
    if not alpha < 511.5:
        raise OverflowError(f"2 (1 + 4^alpha) is past the float range at alpha={alpha!r}")
    return 2.0 * (1.0 + 4.0**alpha)


def estimate_fine_error(delta_12, alpha):
    """Fine-level discretization error consistent with the finest coupled pair.

    Inverts the sizing identity delta_12 = e * sqrt(2 (1 + 4^alpha)).  An
    alpha of 511.5 or more, where 2 (1 + 4^alpha) passes the float range,
    raises OverflowError naming alpha.
    """
    _finite("delta_12", delta_12, "> 0")
    _finite("alpha", alpha, ">= 0")
    return delta_12 / math.sqrt(_base_factor(alpha))
