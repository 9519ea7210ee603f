import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmckit.planner import (
    Growth,
    LevelPlan,
    StrategyId,
    classify_cost_regime,
    plan_for_strategy,
    relative_dof,
    term_levels,
)
from mlmckit.stats import SolutionParameters

# Benchmark planning inputs used throughout: a large-spread QoI with a
# per-level decay exponent just above 1.
BENCH = SolutionParameters(delta=7.36e7, e=9.6e6, alpha=1.07)

MULTILEVEL = [StrategyId.S1, StrategyId.S2, StrategyId.S3, StrategyId.S4]


def _round_half_up(x):
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# the resolution ladder's degrees-of-freedom law
# ---------------------------------------------------------------------------

def test_relative_dof_ladder():
    assert relative_dof(1) == 1.0
    assert relative_dof(2) == 0.125
    assert relative_dof(2.0) == 0.125  # a whole-number float, as in a config
    assert relative_dof(3) == 1.0 / 64.0
    assert relative_dof(4) == 1.0 / 512.0


@given(st.integers(min_value=1, max_value=100))
def test_relative_dof_exact_power_of_two(level):
    # 8^-(l-1) is a power of two: exactly representable, so the float must
    # match the rational value with no rounding at all.
    assert Fraction(relative_dof(level)) == Fraction(1, 8 ** (level - 1))


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
def test_level_validation(bad):
    with pytest.raises(ValueError):
        relative_dof(bad)


# ---------------------------------------------------------------------------
# benchmark plans (golden values)
# ---------------------------------------------------------------------------

def test_classical_benchmark():
    plan = plan_for_strategy("ClassicalMC", BENCH)
    assert plan.strategy is StrategyId.CLASSICAL_MC
    assert plan.L == 1
    assert plan.M == (59,)
    assert plan.M_total == (59,)
    assert plan.error_bound_multiplier == 2.0
    assert plan.relative_load == 59.0


def test_strategy1_benchmark():
    plan = plan_for_strategy("S1", BENCH)
    assert plan.L == 3
    assert plan.M == (11, 48, 210)
    assert plan.M_total == (11, 59, 258)
    assert plan.error_bound_multiplier == 5.0  # grows with the ladder: L + 2
    assert plan.relative_load == 22.40625


def test_strategy2_benchmark():
    plan = plan_for_strategy("S2", BENCH)
    assert plan.L == 2
    assert plan.M == (11, 191)
    assert plan.M_total == (11, 202)
    assert plan.error_bound_multiplier == 4.0
    assert plan.relative_load == 36.25


def test_strategy3_benchmark():
    plan = plan_for_strategy("S3", BENCH)
    assert plan.L == 3
    assert plan.M == (876, 763, 210)
    assert plan.M_total == (876, 1639, 973)
    assert plan.error_bound_multiplier == 4.0
    assert plan.relative_load == 1096.078125


def test_strategy4_benchmark():
    plan = plan_for_strategy("S4", BENCH)
    assert plan.L == 2
    assert plan.M == (11, 763)
    assert plan.M_total == (11, 774)
    assert plan.error_bound_multiplier == 4.0
    assert plan.relative_load == 107.75


def test_benchmark_loads_beat_or_price_out_classical():
    # The cheap geometric schedules land well under the classical 59 solves;
    # the level-weighted ones pay for their flat bounds.
    assert plan_for_strategy("S1", BENCH).relative_load < 0.45 * 59.0
    assert plan_for_strategy("S2", BENCH).relative_load < 59.0
    assert plan_for_strategy("S3", BENCH).relative_load > 59.0
    assert plan_for_strategy("S4", BENCH).relative_load > 59.0


def test_load_matches_exact_fraction_oracle():
    # Hand-computed with exact rationals: term l < L pays dof(l) + dof(l+1)
    # per sample, the coarsest term dof(L) only.
    plan = plan_for_strategy("S1", BENCH)
    oracle = (
        11 * (Fraction(1) + Fraction(1, 8))
        + 48 * (Fraction(1, 8) + Fraction(1, 64))
        + 210 * Fraction(1, 64)
    )
    assert oracle == Fraction(717, 32)
    assert Fraction(plan.relative_load) == oracle

    plan2 = plan_for_strategy("S2", BENCH)
    assert Fraction(plan2.relative_load) == 11 * Fraction(9, 8) + Fraction(191, 8)


# ---------------------------------------------------------------------------
# degenerate and clamped ladders
# ---------------------------------------------------------------------------

def test_equal_delta_and_e_collapses_to_one_level():
    p = SolutionParameters(delta=1.0, e=1.0, alpha=1.0)
    assert plan_for_strategy("ClassicalMC", p).M == (1,)
    plan = plan_for_strategy("S1", p)
    assert plan.L == 1
    assert plan.M == (10,)  # the shared prefactor 2 (1 + 4^alpha) alone


def test_alpha_zero_rejected_where_singular():
    p = SolutionParameters(delta=10.0, e=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        plan_for_strategy("S1", p)
    with pytest.raises(ValueError):
        plan_for_strategy("S3", p)
    # No singularity for these two:
    assert plan_for_strategy("S2", p).L >= 1
    assert plan_for_strategy("ClassicalMC", p).M == (100,)


def test_max_levels_cap_pumps_coarse_term():
    # Capped to a single level, every strategy degenerates to (at least)
    # the classical sample count so the error bound survives.
    capped = plan_for_strategy("S2", BENCH, max_levels=1)
    assert capped.L == 1
    assert capped.M == (59,)
    # Uncapped benchmark plans are unchanged by generous caps.
    assert plan_for_strategy("S1", BENCH, max_levels=10) == plan_for_strategy("S1", BENCH)


def test_max_levels_validation():
    # The classical plan has no ladder to cap, but rejects a bad cap too.
    # 2.5 reached range() in S1 as a TypeError, and True became L=True.
    for strategy in StrategyId:
        for bad in (0, 2.5, True, "3", float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_levels"):
                plan_for_strategy(strategy, BENCH, max_levels=bad)
        assert plan_for_strategy(strategy, BENCH, max_levels=10.0) == plan_for_strategy(
            strategy, BENCH, max_levels=10
        )
    # A cap that sets L outright is stored as an int.
    p = SolutionParameters(delta=1e5, e=1.0, alpha=0.01)
    capped = plan_for_strategy("S4", p, max_levels=4.0)
    assert capped == plan_for_strategy("S4", p, max_levels=4)
    assert type(capped.L) is int


def test_every_strategy_plans_at_most_64_levels():
    limit = "^no ladder of <= 64 levels meets the statistical budget"
    # Tiny decay + huge spread ratio: no S4 ladder of <= 64 levels meets the
    # budget, and with no cap to fall back on the planner must refuse.
    p = SolutionParameters(delta=1e5, e=1.0, alpha=0.01)
    with pytest.raises(ValueError):
        plan_for_strategy("S4", p)
    # A cap of 64 or less plans the capped ladder; the closure keeps the bound.
    for cap in (4, 64):
        capped = plan_for_strategy("S4", p, max_levels=cap)
        assert capped.L == cap
        assert capped.M[-1] >= _round_half_up((p.delta / p.e) ** 2)
    # S1 and S3 would need about 15 600 levels, S2 at alpha = 0 would need
    # 67: each is refused before a term is sized, and plans under a cap.
    slow = SolutionParameters(delta=1e5, e=1.0, alpha=1e-3)
    flat = SolutionParameters(delta=1e20, e=1.0, alpha=0.0)
    for strategy, q in (("S1", slow), ("S3", slow), ("S2", flat)):
        with pytest.raises(ValueError, match=limit):
            plan_for_strategy(strategy, q)
        assert plan_for_strategy(strategy, q, max_levels=10).L == 10


def test_plan_for_strategy_dispatch():
    # delta / e = 1e400 is no sample count: an OverflowError escaped.
    huge = SolutionParameters(delta=1e200, e=1e-200, alpha=1.0)
    for strategy in StrategyId:
        plan = plan_for_strategy(strategy.value, BENCH)
        assert plan.strategy is strategy
        assert plan == plan_for_strategy(strategy, BENCH)
        with pytest.raises(ValueError, match="cannot size a plan from"):
            plan_for_strategy(strategy, huge)
    # At a subnormal sigma, 1 / sigma is inf without an OverflowError: the
    # S3 and S4 bound 3 + 1/sigma is no bound.
    subnormal = SolutionParameters(delta=2.0, e=0.5, alpha=1.0, sigma=5e-324)
    for strategy in (StrategyId.S3, StrategyId.S4):
        with pytest.raises(ValueError, match="cannot size a plan from"):
            plan_for_strategy(strategy, subnormal)
    with pytest.raises(ValueError):
        plan_for_strategy("S9", BENCH)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

param_sets = st.builds(
    SolutionParameters,
    delta=st.floats(min_value=1.0, max_value=1e8),
    e=st.floats(min_value=1e-4, max_value=1.0),
    alpha=st.floats(min_value=0.05, max_value=3.0),
    sigma=st.floats(min_value=0.2, max_value=4.0),
)


@settings(max_examples=60, deadline=None)
@given(param_sets, st.sampled_from(MULTILEVEL))
def test_plan_invariants(p, strategy):
    try:
        plan = plan_for_strategy(strategy, p)
    except ValueError:
        return  # a ladder past 64 levels, refused for every strategy
    assert plan.L >= 1
    assert len(plan.M) == plan.L
    assert all(m >= 1 for m in plan.M)
    # Coarse-term closure: the last term always carries at least the full
    # classical sample count, so its statistical error stays below e.
    assert plan.M[-1] >= max(1, _round_half_up((p.delta / p.e) ** 2))
    # Load bookkeeping is consistent with the published counts.
    oracle = sum(
        plan.M[l - 1] * (relative_dof(l) + relative_dof(l + 1))
        for l in range(1, plan.L)
    ) + plan.M[-1] * relative_dof(plan.L)
    assert plan.relative_load == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=2.0, max_value=1e6),
    st.floats(min_value=1.2, max_value=20.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.sampled_from(MULTILEVEL),
)
def test_ladder_grows_with_spread_ratio(ratio, factor, alpha, strategy):
    p_small = SolutionParameters(delta=ratio, e=1.0, alpha=alpha)
    p_big = SolutionParameters(delta=ratio * factor, e=1.0, alpha=alpha)
    try:
        small = plan_for_strategy(strategy, p_small)
        big = plan_for_strategy(strategy, p_big)
    except ValueError:
        return  # a ladder past 64 levels, refused for every strategy
    assert big.L >= small.L


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_plan_json_round_trip_and_key_order():
    for strategy in StrategyId:
        plan = plan_for_strategy(strategy, BENCH)
        d = plan.to_json_dict()
        assert list(d) == [
            "strategy",
            "L",
            "M",
            "M_total",
            "error_bound_multiplier",
            "relative_load",
            "inputs",
        ]
        assert LevelPlan.from_json_dict(json.loads(json.dumps(d))) == plan


def test_plan_validation():
    for bad in ((True, 3), ("3",)):
        with pytest.raises(ValueError):
            LevelPlan(StrategyId.S1, bad, 4.0, None)
    for bad in (0.0, -1.0, math.inf, math.nan, True, "4"):
        with pytest.raises(ValueError, match="error_bound_multiplier"):
            LevelPlan(StrategyId.S1, (10,), bad, None)
    plan = LevelPlan(StrategyId.S1, [10.0, 3], 4, None)  # whole floats are counts
    assert (plan.M, plan.error_bound_multiplier) == ((10, 3), 4.0)
    # A classical plan is one term at one level; a second count was dropped.
    assert LevelPlan(StrategyId.CLASSICAL_MC, (5,), 2.0, None).M == (5,)
    with pytest.raises(ValueError, match="ClassicalMC has one term"):
        LevelPlan(StrategyId.CLASSICAL_MC, (5, 3), 2.0, None)
    # A strategy's value is its StrategyId: "ClassicalMC" with two terms
    # passed the one-term rule, and "S2" ran, then failed to serialize.
    with pytest.raises(ValueError, match="ClassicalMC has one term"):
        LevelPlan("ClassicalMC", (100, 10), 2.0, None)
    with pytest.raises(ValueError, match="S9"):
        LevelPlan("S9", (10,), 4.0, None)
    by_value = LevelPlan("S2", (10, 3), 4.0, BENCH)
    assert by_value.strategy is StrategyId.S2
    assert by_value.to_json_dict() == LevelPlan(StrategyId.S2, (10, 3), 4.0, BENCH).to_json_dict()
    for bad in ("x", BENCH.to_json_dict()):
        with pytest.raises(ValueError, match="inputs"):
            LevelPlan(StrategyId.S2, (10, 3), 4.0, bad)


def test_m_total_shares_adjacent_levels():
    # Level l > 1 is solved by terms l-1 and l: M_total[l-1] = M[l-2] + M[l-1].
    assert LevelPlan(StrategyId.S1, (11, 48, 210), 5.0, None).M_total == (11, 59, 258)
    assert LevelPlan(StrategyId.S1, (7,), 5.0, None).M_total == (7,)


def test_m_total_validation():
    # No per-level totals without at least one term, each with a whole count >= 1.
    for bad in ((), (0,), (3, 0), (3, 2.5)):
        with pytest.raises(ValueError):
            LevelPlan(StrategyId.S1, bad, 4.0, None)


def test_term_levels_ladder():
    assert term_levels(1) == ((1,),)
    assert term_levels(3) == ((1, 2), (2, 3), (3,))
    assert LevelPlan(StrategyId.S2, (5, 4, 3), 4.0, None).term_levels == term_levels(3)


def test_plan_copies_of_derived_fields_must_match_m():
    d = plan_for_strategy("S1", BENCH).to_json_dict()
    for key in ("L", "M_total", "relative_load"):
        with pytest.raises(KeyError):
            LevelPlan.from_json_dict({k: v for k, v in d.items() if k != key})
    for key, bad in (
        ("L", 2), ("L", 3.5), ("L", "3"), ("L", True),
        ("M_total", [11, 48, 210]), ("M_total", [11, 59]), ("M_total", [11, 59, "258"]),
        ("relative_load", 22.4), ("relative_load", "22.40625"), ("relative_load", None),
        ("M", [11, 48, "210"]), ("M", [True, 48, 210]),
        ("error_bound_multiplier", "5"),
    ):
        with pytest.raises(ValueError, match=key):
            LevelPlan.from_json_dict({**d, key: bad})


# ---------------------------------------------------------------------------
# asymptotic-cost table
# ---------------------------------------------------------------------------

def test_classical_regime_polynomial_for_every_alpha():
    for alpha in (0.0, 0.5, 1.07, 1.5, 3.0):
        cell = classify_cost_regime(StrategyId.CLASSICAL_MC, alpha)
        assert cell.growth is Growth.POLYNOMIAL
    assert classify_cost_regime("ClassicalMC", 1.07).formula == "O(delta^2 * N^1.713)"


def test_strategy1_regime_switch_at_three_halves():
    assert classify_cost_regime("S1", 1.07).growth is Growth.LINEAR
    assert classify_cost_regime("S1", 1.07).formula == "O(N)"
    assert classify_cost_regime("S1", 1.4999).growth is Growth.LINEAR
    mid = classify_cost_regime("S1", 1.5)
    assert mid.growth is Growth.QUASILINEAR
    assert mid.formula == "O(N * (log delta + log N))"
    top = classify_cost_regime("S1", 2.0)
    assert top.growth is Growth.POLYNOMIAL
    assert top.formula == "O(delta^0.5 * N^1.333)"


def test_strategy2_regime_switch_at_one_half():
    assert classify_cost_regime("S2", 0.3).growth is Growth.LINEAR
    assert classify_cost_regime("S2", 0.4999).growth is Growth.LINEAR
    assert classify_cost_regime("S2", 0.5).growth is Growth.QUASILINEAR
    cell = classify_cost_regime("S2", 1.07)
    assert cell.growth is Growth.POLYNOMIAL
    assert cell.formula == "O(delta^0.5507 * N^1.196)"


def test_strategy3_never_linear():
    for alpha in (0.05, 0.5, 1.0, 1.4999):
        cell = classify_cost_regime("S3", alpha)
        assert cell.growth is Growth.QUASILINEAR
        assert cell.formula == "O(N * (log delta + log N)^4)"  # sigma = 1
    assert classify_cost_regime("S3", 1.5).formula == "O(N * (log delta + log N)^5)"
    top = classify_cost_regime("S3", 2.5)
    assert top.growth is Growth.POLYNOMIAL
    assert top.formula == "O((log delta + log N)^4 * delta^0.8 * N^1.667)"


def test_strategy4_regime_cells():
    assert classify_cost_regime("S4", 1.0).formula == "O(N)"
    assert (
        classify_cost_regime("S4", 1.5).formula == "O(N * (log delta + log N)^5)"
    )
    top = classify_cost_regime("S4", 2.0)
    assert top.growth is Growth.POLYNOMIAL
    assert top.formula == "O((log delta + log N)^4 * delta^0.5 * N^1.333)"


def test_regime_sigma_enters_the_exponents():
    cell = classify_cost_regime("S3", 0.5, sigma=2.0)
    assert cell.formula == "O(N * (log delta + log N)^6)"


def test_regime_validation():
    with pytest.raises(ValueError):
        classify_cost_regime("S1", -0.1)
    with pytest.raises(ValueError):
        classify_cost_regime("S3", 1.0, sigma=0.0)
    # Every strategy rejects an alpha or sigma that is not a finite real
    # number; a bool is not taken as 1.
    for strategy in StrategyId:
        for alpha in (math.nan, math.inf, -math.inf, True, "1.5", None):
            with pytest.raises(ValueError, match="alpha must be"):
                classify_cost_regime(strategy, alpha)
        for sigma in (math.nan, math.inf, True, -1.0, "2", None):
            with pytest.raises(ValueError, match="sigma must be"):
                classify_cost_regime(strategy, 1.07, sigma=sigma)
    # Finite inputs whose printed exponent is not: S2's N exponent at
    # alpha = 1e200 (it printed N^inf), every strategy's at 1e308 (S2's was
    # N^nan), and S3's power of the logs at sigma = 1e308.
    for strategy, alpha, sigma in (
        ("S2", 1e200, 1.0), *((s, 1e308, 1.0) for s in StrategyId), ("S3", 1.0, 1e308)
    ):
        with pytest.raises(ValueError, match=r"alpha=.* give a cost exponent of (inf|nan)"):
            classify_cost_regime(strategy, alpha, sigma=sigma)


# (strategy, alpha, sigma, growth, threshold_note, formula): every
# strategy's cell at six alphas, on both sides of each switch, and two sigmas.
GOLDEN_REGIMES = [
    ("ClassicalMC", 0.0, 1.0, "Polynomial", "all alpha",
     "O(delta^2 * N^1)"),
    ("ClassicalMC", 0.3, 1.0, "Polynomial", "all alpha",
     "O(delta^2 * N^1.2)"),
    ("ClassicalMC", 0.5, 1.0, "Polynomial", "all alpha",
     "O(delta^2 * N^1.333)"),
    ("ClassicalMC", 1.07, 1.0, "Polynomial", "all alpha",
     "O(delta^2 * N^1.713)"),
    ("ClassicalMC", 1.5, 1.0, "Polynomial", "all alpha",
     "O(delta^2 * N^2)"),
    ("ClassicalMC", 2.5, 1.0, "Polynomial", "all alpha",
     "O(delta^2 * N^2.667)"),
    ("ClassicalMC", 0.0, 2.5, "Polynomial", "all alpha",
     "O(delta^2 * N^1)"),
    ("ClassicalMC", 0.3, 2.5, "Polynomial", "all alpha",
     "O(delta^2 * N^1.2)"),
    ("ClassicalMC", 0.5, 2.5, "Polynomial", "all alpha",
     "O(delta^2 * N^1.333)"),
    ("ClassicalMC", 1.07, 2.5, "Polynomial", "all alpha",
     "O(delta^2 * N^1.713)"),
    ("ClassicalMC", 1.5, 2.5, "Polynomial", "all alpha",
     "O(delta^2 * N^2)"),
    ("ClassicalMC", 2.5, 2.5, "Polynomial", "all alpha",
     "O(delta^2 * N^2.667)"),
    ("S1", 0.0, 1.0, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S1", 0.3, 1.0, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S1", 0.5, 1.0, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S1", 1.07, 1.0, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S1", 1.5, 1.0, "Quasilinear", "alpha = 3/2",
     "O(N * (log delta + log N))"),
    ("S1", 2.5, 1.0, "Polynomial", "alpha > 3/2",
     "O(delta^0.8 * N^1.667)"),
    ("S1", 0.0, 2.5, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S1", 0.3, 2.5, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S1", 0.5, 2.5, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S1", 1.07, 2.5, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S1", 1.5, 2.5, "Quasilinear", "alpha = 3/2",
     "O(N * (log delta + log N))"),
    ("S1", 2.5, 2.5, "Polynomial", "alpha > 3/2",
     "O(delta^0.8 * N^1.667)"),
    ("S2", 0.0, 1.0, "Linear", "alpha < 1/2",
     "O(N)"),
    ("S2", 0.3, 1.0, "Linear", "alpha < 1/2",
     "O(N)"),
    ("S2", 0.5, 1.0, "Quasilinear", "alpha = 1/2",
     "O(N * (log delta + log N))"),
    ("S2", 1.07, 1.0, "Polynomial", "alpha > 1/2",
     "O(delta^0.5507 * N^1.196)"),
    ("S2", 1.5, 1.0, "Polynomial", "alpha > 1/2",
     "O(delta^0.8 * N^1.4)"),
    ("S2", 2.5, 1.0, "Polynomial", "alpha > 1/2",
     "O(delta^1.143 * N^1.952)"),
    ("S2", 0.0, 2.5, "Linear", "alpha < 1/2",
     "O(N)"),
    ("S2", 0.3, 2.5, "Linear", "alpha < 1/2",
     "O(N)"),
    ("S2", 0.5, 2.5, "Quasilinear", "alpha = 1/2",
     "O(N * (log delta + log N))"),
    ("S2", 1.07, 2.5, "Polynomial", "alpha > 1/2",
     "O(delta^0.5507 * N^1.196)"),
    ("S2", 1.5, 2.5, "Polynomial", "alpha > 1/2",
     "O(delta^0.8 * N^1.4)"),
    ("S2", 2.5, 2.5, "Polynomial", "alpha > 1/2",
     "O(delta^1.143 * N^1.952)"),
    ("S3", 0.0, 1.0, "Quasilinear", "alpha < 3/2",
     "O(N * (log delta + log N)^4)"),
    ("S3", 0.3, 1.0, "Quasilinear", "alpha < 3/2",
     "O(N * (log delta + log N)^4)"),
    ("S3", 0.5, 1.0, "Quasilinear", "alpha < 3/2",
     "O(N * (log delta + log N)^4)"),
    ("S3", 1.07, 1.0, "Quasilinear", "alpha < 3/2",
     "O(N * (log delta + log N)^4)"),
    ("S3", 1.5, 1.0, "Quasilinear", "alpha = 3/2",
     "O(N * (log delta + log N)^5)"),
    ("S3", 2.5, 1.0, "Polynomial", "alpha > 3/2",
     "O((log delta + log N)^4 * delta^0.8 * N^1.667)"),
    ("S3", 0.0, 2.5, "Quasilinear", "alpha < 3/2",
     "O(N * (log delta + log N)^7)"),
    ("S3", 0.3, 2.5, "Quasilinear", "alpha < 3/2",
     "O(N * (log delta + log N)^7)"),
    ("S3", 0.5, 2.5, "Quasilinear", "alpha < 3/2",
     "O(N * (log delta + log N)^7)"),
    ("S3", 1.07, 2.5, "Quasilinear", "alpha < 3/2",
     "O(N * (log delta + log N)^7)"),
    ("S3", 1.5, 2.5, "Quasilinear", "alpha = 3/2",
     "O(N * (log delta + log N)^8)"),
    ("S3", 2.5, 2.5, "Polynomial", "alpha > 3/2",
     "O((log delta + log N)^7 * delta^0.8 * N^1.667)"),
    ("S4", 0.0, 1.0, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S4", 0.3, 1.0, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S4", 0.5, 1.0, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S4", 1.07, 1.0, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S4", 1.5, 1.0, "Quasilinear", "alpha = 3/2",
     "O(N * (log delta + log N)^5)"),
    ("S4", 2.5, 1.0, "Polynomial", "alpha > 3/2",
     "O((log delta + log N)^4 * delta^0.8 * N^1.667)"),
    ("S4", 0.0, 2.5, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S4", 0.3, 2.5, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S4", 0.5, 2.5, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S4", 1.07, 2.5, "Linear", "alpha < 3/2",
     "O(N)"),
    ("S4", 1.5, 2.5, "Quasilinear", "alpha = 3/2",
     "O(N * (log delta + log N)^8)"),
    ("S4", 2.5, 2.5, "Polynomial", "alpha > 3/2",
     "O((log delta + log N)^7 * delta^0.8 * N^1.667)"),
]


@pytest.mark.parametrize("strategy,alpha,sigma,growth,note,formula", GOLDEN_REGIMES)
def test_golden_regime_table(strategy, alpha, sigma, growth, note, formula):
    cell = classify_cost_regime(strategy, alpha, sigma)
    assert (cell.growth.value, cell.threshold_note, cell.formula) == (growth, note, formula)
