"""Sampling-plan construction for classical and multilevel Monte Carlo.

Four multilevel sizing strategies are provided next to the classical
single-level baseline.  One function, :func:`plan_for_strategy`, sizes
each of them from the same :class:`~mlmckit.stats.SolutionParameters` into
a :class:`LevelPlan` with integer sample counts, the a-priori error-bound
multiplier, and the relative load in units of one finest-level solve.

Conventions (fixed):
  * level counts come from a ceiling of the real-valued sizing formula,
    clamped to at least 1;
  * per-level sample counts are rounded half-up to the nearest integer,
    clamped to at least 1;
  * the coarsest term is never sized below round(delta^2/e^2), which keeps
    the a-priori bound valid when a ``max_levels`` cap cuts the ladder
    short (a no-op otherwise).
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .stats import SolutionParameters, total_samples_per_level


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
    """A fully sized sampling plan.

    ``M[l-1]`` is the sample count of term l (term 1 couples the two finest
    levels; the last term runs alone on the coarsest level).  ``M_total``
    counts solves per level when adjacent terms share realizations.
    ``relative_load`` is in units of one finest-level solve.
    """

    strategy: StrategyId
    L: int
    M: tuple
    M_total: tuple
    error_bound_multiplier: float
    relative_load: float
    inputs: Optional[SolutionParameters]

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if len(self.M) != self.L:
            raise ValueError(f"len(M)={len(self.M)} does not match L={self.L}")
        if any(int(m) != m or m < 1 for m in self.M):
            raise ValueError(f"sample counts must be integers >= 1, got {self.M}")
        object.__setattr__(self, "M", tuple(int(m) for m in self.M))
        object.__setattr__(self, "M_total", tuple(int(m) for m in self.M_total))
        if not self.error_bound_multiplier > 0:
            raise ValueError("error_bound_multiplier must be positive")

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
        return cls(
            strategy=StrategyId(d["strategy"]),
            L=int(d["L"]),
            M=tuple(int(m) for m in d["M"]),
            M_total=tuple(int(m) for m in d["M_total"]),
            error_bound_multiplier=float(d["error_bound_multiplier"]),
            relative_load=float(d["relative_load"]),
            inputs=(
                SolutionParameters.from_json_dict(d["inputs"])
                if d.get("inputs") is not None
                else None
            ),
        )


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def _base_factor(alpha):
    # 2 (1 + 4^alpha): the sample-count prefactor shared by every strategy.
    return 2.0 * (1.0 + 4.0**alpha)


def _clamp_count(x):
    return max(1, _round_half_up(x))


def relative_dof(level):
    """Work of one solve at ``level`` relative to a finest-level solve.

    Each coarser level doubles the mesh spacing in three dimensions, so this
    is exactly 8^-(level-1); a power of two, so the float is exact until
    underflow.
    """
    if not isinstance(level, int) or isinstance(level, bool) or level < 1:
        raise ValueError(f"level must be an integer >= 1, got {level!r}")
    return 8.0 ** (-(level - 1))


_S4_SCAN_CAP = 64


def _level_count(strategy, p):
    """Ladder length from the sizing formula, before any ``max_levels`` cap.

    S1-S3 take the ceiling of a closed form, clamped to at least 1.  S4 takes
    the smallest L whose coarsest term already meets the statistical budget,
    found by an ascending scan (log-space, so no overflow) up to 64 levels;
    ``None`` when no such L exists.
    """
    B = _base_factor(p.alpha)
    gap = 2.0 * math.log(p.delta) - 2.0 * math.log(p.e) - math.log(B)
    if strategy in (StrategyId.S1, StrategyId.S3):
        if p.alpha == 0:
            raise ValueError(
                "alpha = 0 gives no refinement gain; the level-count formula "
                "is singular"
            )
        return max(1, math.ceil(1.0 + gap / (2.0 * p.alpha * math.log(2.0))))
    if strategy is StrategyId.S2:
        return max(1, math.ceil(gap / ((p.alpha + 1.0) * math.log(4.0)) + 1.0))
    # S4 needs L^(2(1+sigma)) * 2^(2 alpha (L-1)) >= delta^2 / (e^2 B).
    w = 2.0 * (1.0 + p.sigma)
    for cand in range(1, _S4_SCAN_CAP + 1):
        if w * math.log(cand) + 2.0 * p.alpha * (cand - 1) * math.log(2.0) >= gap:
            return cand
    return None


def _unrounded_sizes(strategy, p, L):
    """Per-term sample counts before rounding, for a ladder of L terms."""
    B = _base_factor(p.alpha)
    ls = range(1, L + 1)
    if strategy is StrategyId.S1:
        return [B * 2.0 ** (2.0 * p.alpha * (l - 1)) for l in ls]
    if strategy is StrategyId.S2:
        return [B * 4.0 ** ((l - 1) * (p.alpha + 1.0)) for l in ls]
    w = 2.0 * (1.0 + p.sigma)
    if strategy is StrategyId.S3:
        return [B * (L - l + 1) ** w * 2.0 ** (2.0 * p.alpha * (l - 1)) for l in ls]
    return [B * l**w * 2.0 ** (2.0 * p.alpha * (l - 1)) for l in ls]


def _load_from_counts(M):
    L = len(M)
    total = 0.0
    for l in range(1, L):
        total += M[l - 1] * (relative_dof(l) + relative_dof(l + 1))
    total += M[L - 1] * relative_dof(L)
    return total


def _classical_plan(M, inputs=None):
    """The single-level plan of ``M`` finest solves: one term, bound 2e, load M."""
    return LevelPlan(
        strategy=StrategyId.CLASSICAL_MC,
        L=1,
        M=(M,),
        M_total=(M,),
        error_bound_multiplier=2.0,
        relative_load=float(M),
        inputs=inputs,
    )


def plan_for_strategy(strategy, p, max_levels=None):
    """Size the plan of ``strategy`` (a StrategyId or its value) from ``p``.

    ``max_levels`` (>= 1) caps the ladder at what a model can resolve.

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
      the statistical budget; found by an ascending scan (log-space, so no
      overflow), capped at 64.  Bound: (3 + 1/sigma) e.
    """
    strategy = StrategyId(strategy)
    if max_levels is not None and max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    m_classical = _clamp_count((p.delta / p.e) ** 2)
    if strategy is StrategyId.CLASSICAL_MC:
        return _classical_plan(m_classical, p)
    L = _level_count(strategy, p)
    if L is None:
        if max_levels is None or max_levels >= _S4_SCAN_CAP:
            raise ValueError(
                f"no ladder of <= {_S4_SCAN_CAP} levels meets the statistical "
                f"budget (delta={p.delta}, e={p.e}, alpha={p.alpha})"
            )
        L = max_levels  # ladder capped by the model; closure restores the bound
    elif max_levels is not None:
        L = min(L, max_levels)
    if strategy is StrategyId.S1:
        multiplier = float(L + 2)
    elif strategy is StrategyId.S2:
        multiplier = 4.0
    else:
        multiplier = 3.0 + 1.0 / p.sigma
    M = [_clamp_count(x) for x in _unrounded_sizes(strategy, p, L)]
    # Coarsest-term closure: the statistical error of the last term must not
    # exceed e, i.e. M_L >= delta^2/e^2.  The formula already guarantees this
    # when L comes from its own ceiling; when a max_levels cap shortened the
    # ladder, the extra samples restore the a-priori bound.
    M[-1] = max(M[-1], m_classical)
    return LevelPlan(
        strategy=strategy,
        L=L,
        M=tuple(M),
        M_total=tuple(total_samples_per_level(M)),
        error_bound_multiplier=multiplier,
        relative_load=_load_from_counts(M),
        inputs=p,
    )


def _polynomial_n_exponent(strategy, alpha):
    """N-exponent of the strategy's polynomial-regime cost cell."""
    strategy = StrategyId(strategy)
    if strategy is StrategyId.CLASSICAL_MC:
        return 1.0 + 2.0 * alpha / 3.0
    if strategy is StrategyId.S2:
        return 1.0 + alpha * (2.0 * alpha - 1.0) / (3.0 * (alpha + 1.0))
    # S1, S3, S4 share the same polynomial N-exponent.
    return 1.0 + (2.0 * alpha - 3.0) / 3.0


def classify_cost_regime(strategy, alpha, sigma=1.0):
    """Asymptotic total-cost cell for a strategy at the given exponents.

    The multilevel strategies switch regime at alpha = 3/2 (strategy 2 at
    alpha = 1/2); the classical baseline is polynomial for every alpha.
    Strategy 3 has no linear cell: even its small-alpha regime carries a
    polylog factor.
    """
    strategy = StrategyId(strategy)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    def g(x):
        return format(x, ".4g")

    n_poly = _polynomial_n_exponent(strategy, alpha)

    if strategy is StrategyId.CLASSICAL_MC:
        return CostRegime(
            Growth.POLYNOMIAL, "all alpha", f"O(delta^2 * N^{g(n_poly)})"
        )

    if strategy is StrategyId.S2:
        if alpha < 0.5:
            return CostRegime(Growth.LINEAR, "alpha < 1/2", "O(N)")
        if alpha == 0.5:
            return CostRegime(
                Growth.QUASILINEAR, "alpha = 1/2", "O(N * (log delta + log N))"
            )
        d_exp = (2.0 * alpha - 1.0) / (alpha + 1.0)
        return CostRegime(
            Growth.POLYNOMIAL,
            "alpha > 1/2",
            f"O(delta^{g(d_exp)} * N^{g(n_poly)})",
        )

    # S1, S3, S4: switch at alpha = 3/2.
    d_exp = (2.0 * alpha - 3.0) / alpha if alpha > 0 else None
    if strategy is StrategyId.S1:
        if alpha < 1.5:
            return CostRegime(Growth.LINEAR, "alpha < 3/2", "O(N)")
        if alpha == 1.5:
            return CostRegime(
                Growth.QUASILINEAR, "alpha = 3/2", "O(N * (log delta + log N))"
            )
        return CostRegime(
            Growth.POLYNOMIAL,
            "alpha > 3/2",
            f"O(delta^{g(d_exp)} * N^{g(n_poly)})",
        )

    if strategy is StrategyId.S3:
        if alpha < 1.5:
            return CostRegime(
                Growth.QUASILINEAR,
                "alpha < 3/2",
                f"O(N * (log delta + log N)^{g(2.0 * (1.0 + sigma))})",
            )
        if alpha == 1.5:
            return CostRegime(
                Growth.QUASILINEAR,
                "alpha = 3/2",
                f"O(N * (log delta + log N)^{g(2.0 * sigma + 3.0)})",
            )
        return CostRegime(
            Growth.POLYNOMIAL,
            "alpha > 3/2",
            f"O((log delta + log N)^{g(2.0 * (1.0 + sigma))} "
            f"* delta^{g(d_exp)} * N^{g(n_poly)})",
        )

    # S4
    if alpha < 1.5:
        return CostRegime(Growth.LINEAR, "alpha < 3/2", "O(N)")
    if alpha == 1.5:
        return CostRegime(
            Growth.QUASILINEAR,
            "alpha = 3/2",
            f"O(N * (log delta + log N)^{g(2.0 * sigma + 3.0)})",
        )
    return CostRegime(
        Growth.POLYNOMIAL,
        "alpha > 3/2",
        f"O((log delta + log N)^{g(2.0 * (1.0 + sigma))} "
        f"* delta^{g(d_exp)} * N^{g(n_poly)})",
    )
