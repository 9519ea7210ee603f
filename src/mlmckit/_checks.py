"""Argument checks shared by every module: one rule for numbers.

A whole number (a count, a level, a seed) is a real number with no
fractional part, so 2.0 is taken as 2; a real is a finite real number,
and ``> 0`` or ``>= 0`` where the caller says so.  A bool, numpy's
included, is neither.  A mapping read from JSON names only known keys.
A rejected value raises ``ValueError`` naming the argument.
"""

import math
import numbers
import os

import numpy as np


def _whole(name, value, low, high):
    """``value`` as an int within ``low..high`` (no upper limit if None); 2.0 is 2."""
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = ok and int(value) == value
    except (ValueError, OverflowError):  # int() of a NaN or an infinity
        ok = False
    if not ok or value < low or (high is not None and value > high):
        within = f">= {low}" if high is None else f"within {low}..{high}"
        raise ValueError(f"{name} must be an integer {within}, got {value!r}")
    return int(value)


def _finite(name, value, sign=None):
    """``value`` as a float; reject it unless it is a finite real number (an
    int too large for a float is not one), and also, for a ``sign`` of
    ``"> 0"`` or ``">= 0"``, unless it is above or not below zero."""
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = ok and math.isfinite(value)
    except OverflowError:  # math.isfinite(10**400)
        ok = False
    if not ok or (sign == "> 0" and not value > 0) or (sign == ">= 0" and not value >= 0):
        raise ValueError(f"{name} must be finite and {sign or 'real'}, got {value!r}")
    return float(value)


def _seeds(seeds):
    """``seeds`` as a flat uint64 array, each a :func:`_whole` number within
    0..2**64-1; a uint64 array passes in O(1)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds.ravel()
    values = np.asarray(seeds, dtype=object).ravel()  # a bool stays a bool
    return np.array([_whole("seed", s, 0, 2**64 - 1) for s in values], dtype=np.uint64)


def _known_keys(what, d, keys):
    """Reject ``d`` unless it is a dict whose every key is in ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")


def _usable_cpus():
    """The CPUs this process may run on, or the machine's count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
