"""Argument checks shared by every module: one rule for numbers.

A whole number (a count, a level, a seed) is a real number with no
fractional part, so 2.0 is taken as 2; a real is a finite real number,
and ``> 0`` or ``>= 0`` where the caller says so.  A bool, numpy's
included, is neither.  A rejected value raises ``ValueError`` naming the
argument.
"""

import math
import numbers
import os


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


def _usable_cpus():
    """The CPUs this process may run on, or the machine's count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
