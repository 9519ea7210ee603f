"""Sampling-plan construction for classical and multilevel Monte Carlo.

Four multilevel sizing strategies are provided next to the classical
single-level baseline.  One function, :func:`plan_for_strategy`, sizes
each of them from the same :class:`~mlmckit.stats.SolutionParameters` into
a :class:`LevelPlan` with integer sample counts and the a-priori
error-bound multiplier.  This module also owns the term ladder
(:func:`term_levels`) and the cost law (:func:`relative_dof`, summed by
:func:`load`), from which a plan's relative load and the executor's
realized load are both computed.

Conventions (fixed):
  * level counts come from a ceiling of the real-valued sizing formula,
    clamped to at least 1, then cut to ``max_levels``; a ladder still
    longer than 64 levels raises, for every strategy;
  * per-level sample counts are rounded half-up to the nearest integer,
    clamped to at least 1;
  * the coarsest term is never sized below round(delta^2/e^2), which keeps
    the a-priori bound valid when a ``max_levels`` cap cuts the ladder
    short (a no-op otherwise).
"""

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

from ._checks import _finite, _known_keys, _whole
from .stats import SolutionParameters, _base_factor


class StrategyId(str, Enum):
    CLASSICAL_MC = "ClassicalMC"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"


class Growth(str, Enum):
    LINEAR = "Linear"
    QUASILINEAR = "Quasilinear"
    POLYNOMIAL = "Polynomial"


@dataclass(frozen=True)
class CostRegime:
    """One cell of the asymptotic-cost table for a strategy."""

    growth: Growth
    threshold_note: str
    formula: str


@dataclass(frozen=True)
class LevelPlan:
    """A fully sized sampling plan: its strategy, sample counts and bound.

    ``M[l-1]`` is the sample count of term l; the levels each term evaluates
    are :func:`term_levels` of ``L``.  ``L``, ``M_total`` (solves per level,
    adjacent terms sharing realizations) and ``relative_load`` (in units of
    one finest-level solve) are computed from ``M``.  ``strategy`` may be a
    StrategyId's value; ``inputs`` is None or a SolutionParameters.
    """

    strategy: StrategyId
    M: tuple
    error_bound_multiplier: float
    inputs: Optional[SolutionParameters]

    def __post_init__(self):
        object.__setattr__(self, "strategy", StrategyId(self.strategy))
        M = tuple(_whole("M", m, 1, None) for m in self.M)
        if not M:
            raise ValueError("a plan needs at least one term")
        if self.strategy is StrategyId.CLASSICAL_MC and len(M) != 1:
            raise ValueError(f"strategy {self.strategy.value} has one term, got M {list(M)}")
        if not (self.inputs is None or isinstance(self.inputs, SolutionParameters)):
            raise ValueError(f"inputs must be None or a SolutionParameters, got {self.inputs!r}")
        object.__setattr__(self, "M", M)
        multiplier = _finite("error_bound_multiplier", self.error_bound_multiplier, "> 0")
        object.__setattr__(self, "error_bound_multiplier", multiplier)

    @property
    def L(self):
        return len(self.M)

    @property
    def term_levels(self):
        return term_levels(self.L)

    @property
    def M_total(self):
        totals = [0] * self.L
        for count, levels in zip(self.M, self.term_levels):
            for level in levels:
                totals[level - 1] += count
        return tuple(totals)

    @property
    def relative_load(self):
        return load(self.M, self.term_levels)

    def to_json_dict(self):
        # Field order is part of the file format.
        return {
            "strategy": self.strategy.value,
            "L": self.L,
            "M": list(self.M),
            "M_total": list(self.M_total),
            "error_bound_multiplier": self.error_bound_multiplier,
            "relative_load": self.relative_load,
            "inputs": self.inputs.to_json_dict() if self.inputs is not None else None,
        }

    @classmethod
    def from_json_dict(cls, d):
        """The plan of a :meth:`to_json_dict` mapping, whose copies of ``L``,
        ``M_total`` and ``relative_load`` must equal what its ``M`` gives."""
        _known_keys("plan", d, [f.name for f in fields(cls)] + ["L", "M_total", "relative_load"])
        inputs = d.get("inputs")
        inputs = None if inputs is None else SolutionParameters.from_json_dict(inputs)
        plan = cls(d["strategy"], tuple(d["M"]), d["error_bound_multiplier"], inputs)
        for key, parse in (
            ("L", lambda v: _whole("L", v, 1, None)),
            ("M_total", lambda v: tuple(_whole("M_total", m, 1, None) for m in v)),
            ("relative_load", lambda v: _finite("relative_load", v)),
        ):
            if parse(d[key]) != getattr(plan, key):
                raise ValueError(
                    f"plan {key} {d[key]!r} contradicts its M {list(plan.M)}, "
                    f"which gives {getattr(plan, key)!r}"
                )
        return plan


def _clamp_count(x):
    return max(1, math.floor(x + 0.5))  # rounded half up


def relative_dof(level):
    """Work of one solve at ``level`` relative to a finest-level solve.

    Each coarser level doubles the mesh spacing in three dimensions, so this
    is exactly 8^-(level-1); a power of two, so the float is exact until
    underflow.
    """
    return 8.0 ** (-(_whole("level", level, 1, None) - 1))


def term_levels(L):
    """The levels each term of an ``L``-term plan evaluates, finest first.

    Term l < L couples levels l and l+1 on the same realizations; the last
    term runs alone on level L: ``((1, 2), (2, 3), ..., (L,))``.
    """
    return tuple((l, l + 1) for l in range(1, L)) + ((L,),)


def load(M, levels):
    """Work of ``M[t]`` samples of each term ``t`` evaluating ``levels[t]``.

    The sum over terms of count times the :func:`relative_dof` of each level
    the term evaluates, in units of one finest-level solve.
    """
    total = 0.0
    for count, term in zip(M, levels):
        total += count * sum(relative_dof(level) for level in term)
    return total


_MAX_LEVELS = 64  # the longest ladder any strategy plans


def _classical_plan(M, inputs=None):
    """The single-level plan of ``M`` finest solves: one term, bound 2e."""
    return LevelPlan(StrategyId.CLASSICAL_MC, (M,), 2.0, inputs)


def plan_for_strategy(strategy, p, max_levels=None):
    """Size the plan of ``strategy`` (a StrategyId or its value) from ``p``.

    ``max_levels``, a whole number >= 1 (10.0 is 10), caps the ladder at
    what a model can resolve.  Every multilevel strategy plans at most 64
    levels: a ladder longer than that after the cap raises ValueError ("no
    ladder of <= 64 levels ..."), before any term is sized.  Inputs whose
    sample count, sizing factor or bound overflows a float raise ValueError
    ("cannot size a plan from ...").

    * ClassicalMC: the single-level baseline, M = delta^2/e^2 samples at the
      finest level; bound 2e.  The cap has nothing to cut.
    * S1: geometric sizing with the minimum sample growth per level.
      Cheapest of the four multilevel schedules; the a-priori bound grows
      with the ladder ((L+2) e).  Requires alpha > 0.
    * S2: aggressive sizing whose bound stays flat at 4e for any ladder.
    * S3: level-weighted sizing, weights growing toward the *finest* term.
      Same ladder length as S1 but each term l is amplified by
      (L-l+1)^(2(1+sigma)), buying a flat (3 + 1/sigma) e bound.  Requires
      alpha > 0.
    * S4: level-weighted sizing, weights growing toward the *coarsest* term.
      The ladder length is the smallest L whose coarsest term already meets
      the statistical budget, found by an ascending scan (log-space, so no
      overflow).  Bound: (3 + 1/sigma) e.
    """
    strategy = StrategyId(strategy)
    if max_levels is not None:
        max_levels = _whole("max_levels", max_levels, 1, None)
    try:
        m_classical = _clamp_count((p.delta / p.e) ** 2)
        if strategy is StrategyId.CLASSICAL_MC:
            return _classical_plan(m_classical, p)
        B = _base_factor(p.alpha)
        gap = 2.0 * math.log(p.delta) - 2.0 * math.log(p.e) - math.log(B)
        w = 2.0 * (1.0 + p.sigma)
        if strategy is StrategyId.S2:
            L = max(1, math.ceil(gap / ((p.alpha + 1.0) * math.log(4.0)) + 1.0))
        elif strategy is StrategyId.S4:
            # The smallest L with L^w 2^(2 alpha (L-1)) >= delta^2 / (e^2 B),
            # or one past the limit when no ladder within it has one.
            L = next(
                (n for n in range(1, _MAX_LEVELS + 1)
                 if w * math.log(n) + 2.0 * p.alpha * (n - 1) * math.log(2.0) >= gap),
                _MAX_LEVELS + 1,
            )
        elif p.alpha == 0:
            raise ValueError(
                "alpha = 0 gives no refinement gain; the level-count formula "
                "is singular"
            )
        else:  # S1 and S3
            L = max(1, math.ceil(1.0 + gap / (2.0 * p.alpha * math.log(2.0))))
        if max_levels is not None:
            L = min(L, max_levels)
        if L > _MAX_LEVELS:
            raise ValueError(
                f"no ladder of <= {_MAX_LEVELS} levels meets the statistical "
                f"budget (delta={p.delta}, e={p.e}, alpha={p.alpha})"
            )

        def grown(k, l):  # S1, S3 and S4 weight term l by k^w
            return B * k**w * 2.0 ** (2.0 * p.alpha * (l - 1))

        multiplier, size = {
            StrategyId.S1: (float(L + 2), lambda l: grown(1, l)),
            StrategyId.S2: (4.0, lambda l: B * 4.0 ** ((l - 1) * (p.alpha + 1.0))),
            StrategyId.S3: (3.0 + 1.0 / p.sigma, lambda l: grown(L - l + 1, l)),
            StrategyId.S4: (3.0 + 1.0 / p.sigma, lambda l: grown(l, l)),
        }[strategy]
        # Size every term before rounding any: a ** overflow outranks an inf.
        M = [_clamp_count(x) for x in [size(l) for l in range(1, L + 1)]]
        if math.isinf(multiplier):  # 1 / sigma overflows quietly at a subnormal sigma
            raise OverflowError(f"the error bound multiplier is {multiplier}")
    except OverflowError as exc:  # a count, a ** factor or the bound past the float range
        raise ValueError(f"cannot size a plan from {p}: {exc}") from exc
    # Coarsest-term closure: the statistical error of the last term must not
    # exceed e, i.e. M_L >= delta^2/e^2.  The formula already guarantees this
    # when L comes from its own ceiling; when a max_levels cap shortened the
    # ladder, the extra samples restore the a-priori bound.
    M[-1] = max(M[-1], m_classical)
    return LevelPlan(strategy, tuple(M), multiplier, p)


def classify_cost_regime(strategy, alpha, sigma=1.0):
    """Asymptotic total-cost cell for a strategy at the given exponents.

    The multilevel strategies switch regime at alpha = 3/2 (strategy 2 at
    alpha = 1/2): linear below the switch, quasilinear at it and polynomial
    above it, each times its power of (log delta + log N).  Strategy 3 has
    no linear cell: even its small-alpha regime carries a polylog factor.
    The classical baseline is polynomial for every alpha.  A cell whose
    exponent would print as inf or nan raises ValueError naming alpha and
    sigma.
    """
    strategy = StrategyId(strategy)
    _finite("alpha", alpha, ">= 0")
    _finite("sigma", sigma, "> 0")

    def g(x):  # every exponent the cell prints
        if not math.isfinite(x):
            raise ValueError(f"alpha={alpha!r} and sigma={sigma!r} give a cost exponent of {x}")
        return format(x, ".4g")

    if strategy is StrategyId.CLASSICAL_MC:
        n = 1.0 + 2.0 * alpha / 3.0
        return CostRegime(Growth.POLYNOMIAL, "all alpha", f"O(delta^2 * N^{g(n)})")
    w, v, n1 = 2.0 * (1.0 + sigma), 2.0 * sigma + 3.0, 1.0 + (2.0 * alpha - 3.0) / 3.0
    n2 = 1.0 + alpha * (2.0 * alpha - 1.0) / (3.0 * (alpha + 1.0))
    # Per strategy: the switch alpha and its label, the offset k of the delta
    # exponent 2 (alpha - switch) / (alpha + k) and the N exponent n above the
    # switch, and the powers of (log delta + log N) below, at and above it
    # (0: no log factor).
    switch, label, k, n, (below, at, above) = {
        StrategyId.S1: (1.5, "3/2", 0.0, n1, (0, 1, 0)),
        StrategyId.S2: (0.5, "1/2", 1.0, n2, (0, 1, 0)),
        StrategyId.S3: (1.5, "3/2", 0.0, n1, (w, v, w)),
        StrategyId.S4: (1.5, "3/2", 0.0, n1, (0, v, w)),
    }[strategy]

    def logs(power):
        return "(log delta + log N)" + ("" if power == 1 else f"^{g(power)}")

    if alpha > switch:
        factors = [logs(above)] if above else []
        factors += [f"delta^{g(2.0 * (alpha - switch) / (alpha + k))}", f"N^{g(n)}"]
        return CostRegime(
            Growth.POLYNOMIAL, f"alpha > {label}", f"O({' * '.join(factors)})"
        )
    power, relation = (below, "<") if alpha < switch else (at, "=")
    return CostRegime(
        Growth.QUASILINEAR if power else Growth.LINEAR,
        f"alpha {relation} {label}",
        f"O(N * {logs(power)})" if power else "O(N)",
    )
