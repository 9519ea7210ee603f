"""Argument checks shared by the planner, executor, models and CLI."""

import math
import numbers
import os

from ._bits import MASK64


def _whole(name, value, low, high):
    """``value`` as an int within ``low..high`` (no upper limit if None); 2.0 is 2."""
    try:
        ok = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok or value < low or (high is not None and value > high):
        within = f">= {low}" if high is None else f"within {low}..{high}"
        raise ValueError(f"{name} must be an integer {within}, got {value!r}")
    return int(value)


def _finite(name, value, positive=False):
    """``value`` as a float; reject it unless it is a finite real number (a
    bool is not one, nor an int too large for a float), and above zero if
    ``positive``."""
    try:
        ok = (
            not isinstance(value, bool)
            and isinstance(value, numbers.Real)
            and math.isfinite(value)
        )
    except OverflowError:  # math.isfinite(10**400)
        ok = False
    if not ok or (positive and not value > 0):
        rule = "> 0 and finite" if positive else "finite and real"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _check_base_seed(base_seed):
    if not isinstance(base_seed, int) or isinstance(base_seed, bool):
        raise ValueError(f"base_seed must be an integer, got {base_seed!r}")
    if not 0 <= base_seed <= MASK64:
        raise ValueError(f"base_seed must fit in 64 bits, got {base_seed}")


def _usable_cpus():
    """The CPUs this process may run on, or the machine's count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _check_workers(workers):
    """``workers`` as a thread count: the usable CPUs for None."""
    if workers is None:
        return _usable_cpus()
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers
