"""Stochastic QoI models: GBM, forced Burgers and two-scale testbeds.

Every model here satisfies the executor's coupling contract: one seed pins
one underlying random realization (a Brownian path, a forcing field, two
normals), and evaluating at a coarser level re-discretizes *that same
realization*, so adjacent-level differences measure pure discretization
error.  Every draw comes from the seed's counter lanes
(:func:`mlmckit._bits.normal_lanes`), the package's one random source.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._bits import _tiles, normal_lanes, scratch
from ._checks import _finite, _whole
from .executor import ModelEvaluationError, QoIModel


# ---------------------------------------------------------------------------
# Geometric Brownian motion testbed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GBMSpec:
    """Euler-Maruyama GBM; QoI is the terminal state S(T).

    The exact mean S0 * exp(r T) makes this the standard correctness
    oracle.  Level 1 runs ``steps_at_finest`` time steps; each coarser
    level halves the step count, and its Brownian increments are pairwise
    sums of the finer ones (exact path coupling).
    """

    S0: float = 1.0
    r_drift: float = 0.05
    vol: float = 0.2
    T: float = 1.0
    steps_at_finest: int = 256
    max_level: int = 4

    def __post_init__(self):
        for name, sign in (("S0", "> 0"), ("T", "> 0"), ("r_drift", None), ("vol", ">= 0")):
            _finite(name, getattr(self, name), sign)
        for name in ("steps_at_finest", "max_level"):
            object.__setattr__(self, name, _whole(name, getattr(self, name), 1, None))
        halvings = 2 ** (self.max_level - 1)
        if self.steps_at_finest % halvings != 0:
            raise ValueError(
                f"steps_at_finest={self.steps_at_finest} is not divisible by "
                f"2^(max_level-1)={halvings}"
            )

    def steps_at_level(self, level):
        return self.steps_at_finest >> (_whole("level", level, 1, self.max_level) - 1)

    @property
    def exact_mean(self):
        return self.S0 * math.exp(self.r_drift * self.T)

    @classmethod
    def from_json_dict(cls, d):
        return cls(**d)


def _increments(spec, level, seeds, fine):
    """Brownian increments at ``level``, lane-major as an (n_level, B) array.

    All fine increments are drawn into ``fine``, an (n, B) float64 array,
    grouped by step mod n / n_level, so that each halving adds contiguous
    block pairs in place; the result is the head of ``fine``, in time
    order.  A level the spec does not have raises ValueError.
    """
    n, n_level = spec.steps_at_finest, spec.steps_at_level(level)
    normal_lanes(seeds, n, out=fine.T, groups=n // n_level)
    fine *= math.sqrt(spec.T / n)
    blocks = fine.reshape(n // n_level, n_level, seeds.size)
    while blocks.shape[0] > 1:
        blocks = np.add(blocks[0::2], blocks[1::2], out=blocks[0::2])
    return blocks[0]


def _gbm_batch(spec, level, seeds, out):
    """Terminal states of a tile of seeds, written into ``out``.

    The increments are drawn and coarsened in this thread's one scratch
    array, so a tile allocates nothing the size of its draw.
    """
    n, b = spec.steps_at_finest, seeds.size
    dW = _increments(spec, level, seeds, scratch("gbm.fine", n * b).reshape(n, b))
    dt = spec.T / dW.shape[0]
    # Euler-Maruyama for GBM is multiplicative, so the terminal state is the
    # plain product of the per-step growth factors (1 + r dt) + vol dW.  They
    # are formed in place; adding 1 + r dt as one scalar keeps that rounding.
    dW *= spec.vol
    dW += 1.0 + spec.r_drift * dt
    np.prod(dW, axis=0, out=out)
    out *= spec.S0
    return out


class GBMModel(QoIModel):
    """QoIModel that runs the GBM kernel over tiles of seeds.

    A tile holds ``_bits._TILE // steps_at_finest`` seeds (at least one):
    256 seeds at the default 256 steps.
    """

    def __init__(self, spec=None):
        self.spec = spec if spec is not None else GBMSpec()
        self.max_level = self.spec.max_level

    def evaluate_many(self, level, seeds):
        self.spec.steps_at_level(level)  # rejects a level out of range
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        out = np.empty(seeds.size)
        for tile in _tiles(seeds.size, self.spec.steps_at_finest):
            _gbm_batch(self.spec, level, seeds[tile], out[tile])
        return out


# ---------------------------------------------------------------------------
# Stochastically forced viscous Burgers testbed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopographySpec:
    """The Burgers forcing's spectrum, from a random-topography recipe.

    The law is the paper's random topography (H = 500 m over a 2000 x 1733
    km basin, modes 4-20 each way): modes k (zonal) and l (meridional) each
    run over an inclusive integer interval, and mode (k, l) weighs
    H/(k^2 + l^2).  In one dimension the l-sum collapses: zonal mode k has
    amplitude s_k = sqrt(sum_l w_kl^2), with k full periods over the
    model's ``domain_length`` (see :func:`_forcing_modes`).  The defaults
    are the Burgers band: its top, k = 6, keeps every mode resolved on the
    default coarsest grid (32 cells); higher bands alias on coarse grids
    and stall inter-level convergence.
    """

    H: float = 5.0
    k_range: tuple = (2, 6)
    l_range: tuple = (4, 20)

    def __post_init__(self):
        _finite("H", self.H, ">= 0")
        for name in ("k_range", "l_range"):
            lo, hi = (_whole(name, bound, 1, None) for bound in getattr(self, name))
            if hi < lo:
                raise ValueError(f"{name} must be an integer interval, got {(lo, hi)}")
            object.__setattr__(self, name, (lo, hi))

    @property
    def n_k(self):
        return self.k_range[1] - self.k_range[0] + 1


_CFL = 0.4
_U_CAP = 1.0  # advective stability budget; exceeding it aborts the sample


@dataclass(frozen=True)
class BurgersSpec:
    """Periodic viscous Burgers driven by a frozen random Fourier force.

    The forcing is f(x) = sum_k s_k (z_k cos(2 pi k x / L) + z'_k sin(2 pi
    k x / L)), with L the ``domain_length``, z and z' the seed's 2 n_k
    counter lanes and s_k the amplitudes of ``forcing``; a null ``forcing``
    in a config is the default one.  It is drawn once per seed and sampled at
    each grid's cell centers, so every level sees the same continuous
    forcing field.  The QoI is the time-averaged spatial mean of u^2 over
    the second half of the horizon.  First-order Godunov upwinding for the
    convective flux plus explicit central diffusion; the time step obeys a
    0.4 CFL number against both the diffusive limit and a unit velocity cap.
    """

    viscosity: float = 0.005
    domain_length: float = 1.0
    cells_at_finest: int = 256
    time_horizon: float = 2.0
    max_level: int = 4
    forcing: TopographySpec = TopographySpec()

    def __post_init__(self):
        for name in ("viscosity", "domain_length", "time_horizon"):
            _finite(name, getattr(self, name), "> 0")
        for name in ("cells_at_finest", "max_level"):
            object.__setattr__(self, name, _whole(name, getattr(self, name), 1, None))
        halvings = 2 ** (self.max_level - 1)
        if self.cells_at_finest % halvings != 0 or self.cells_at_finest // halvings < 4:
            raise ValueError(
                f"cells_at_finest={self.cells_at_finest} must be divisible by "
                f"2^(max_level-1)={halvings} with at least 4 cells at the "
                "coarsest level"
            )

    def cells_at_level(self, level):
        return self.cells_at_finest >> (_whole("level", level, 1, self.max_level) - 1)

    @classmethod
    def from_json_dict(cls, d):
        out = dict(d)
        forcing = out.pop("forcing", None)
        if forcing is not None:
            out["forcing"] = TopographySpec(**forcing)
        return cls(**out)


def _forcing_modes(spec, n):
    """The (2 n_k, n) forcing modes of ``spec`` at the centers of n cells.

    Row j is s_k cos(2 pi k x / L) and row n_k + j is s_k sin(2 pi k x / L)
    for the j-th zonal mode k, where s_k = sqrt(sum_l (H / (k^2 + l^2))^2).
    A weighted sum of independent standard normals is one normal of that
    spread, so one lane per row has the law of the full (k, l) draw.
    """
    forcing = spec.forcing
    k = np.arange(forcing.k_range[0], forcing.k_range[1] + 1, dtype=float)
    l = np.arange(forcing.l_range[0], forcing.l_range[1] + 1, dtype=float)
    s = np.sqrt(((forcing.H / (k[:, None] ** 2 + l[None, :] ** 2)) ** 2).sum(axis=1))
    x = (np.arange(n) + 0.5) * (spec.domain_length / n)
    phase = 2.0 * np.pi * np.outer(k, x) / spec.domain_length
    return np.concatenate([s[:, None] * np.cos(phase), s[:, None] * np.sin(phase)])


def _forcing(lanes, modes):
    """The (B, n) forcing rows sum_j lanes[j, b] * modes[j] of a tile.

    ``lanes`` is (2 n_k, B).  The sum is built one mode at a time by
    elementwise ufuncs, so each row's bits do not depend on the rest of the
    tile.  A matrix product would: a one-row product runs as gemv, and its
    rounding differs from a batched row's.
    """
    f = np.multiply.outer(lanes[0], modes[0])
    term = np.empty_like(f)
    for z, mode in zip(lanes[1:], modes[1:]):
        f += np.multiply.outer(z, mode, out=term)
    return f


def _burgers_integrate(u, f, dx, viscosity, time_horizon, avg_from):
    """March the semi-discrete system and time-average mean(u^2) over
    [avg_from, time_horizon].  Returns (qoi, blown).

    ``u`` is n cells, or (B, n) rows each driven by its row of ``f``.  A row
    whose max |u| passes the cap or is not finite is zeroed with its forcing
    and stays at rest.  ``blown`` is (2,) or (2, B): each row's max |u| and
    time t at blow-up, both NaN for a row that stayed under the cap.
    """
    dt = _CFL * min(dx * dx / (2.0 * viscosity), dx / _U_CAP)
    steps = max(1, math.ceil(time_horizon / dt))
    dt = time_horizon / steps
    inv_dx = 1.0 / dx
    inv_dx2 = inv_dx * inv_dx

    acc = 0.0
    blown = np.full((2,) + np.shape(u)[:-1], np.nan)
    t = 0.0
    for _ in range(steps):
        um = np.roll(u, 1, axis=-1)
        up = np.roll(u, -1, axis=-1)
        # Godunov flux for the convex flux u^2/2 at the right face of each cell
        flux = 0.5 * np.maximum(np.maximum(u, 0.0) ** 2, np.minimum(up, 0.0) ** 2)
        div = (flux - np.roll(flux, 1, axis=-1)) * inv_dx
        lap = (up - 2.0 * u + um) * inv_dx2
        u = u + dt * (-div + viscosity * lap + f)
        t_new = t + dt
        peak = np.max(np.abs(u), axis=-1)
        bad = ~(peak <= _U_CAP)
        if bad.any():
            blown = np.where(bad, [peak, np.full_like(peak, t_new)], blown)
            u, f = np.where(bad[..., None], 0.0, [u, f])
        mean_sq = np.mean(u * u, axis=-1)
        overlap = min(t_new, time_horizon) - max(t, avg_from)
        if overlap > 0.0:
            acc += overlap * mean_sq
        t = t_new
    return acc / (time_horizon - avg_from), blown


class BurgersModel(QoIModel):
    """QoIModel that integrates a batch from rest, one tile of seeds at a time.

    A tile of ``_bits._TILE // n`` seeds (n cells, at least one seed) steps
    together as one (B, n) array, so a batch's working set is one tile's
    and the batch's forcing lanes.  Levels run in the order given (the
    executor's is ascending) and tiles in seed order, each to its last
    step, so a batch names its first failing level and that level's first
    blown seed in seed order.
    """

    def __init__(self, spec=None):
        self.spec = spec if spec is not None else BurgersSpec()
        self.max_level = self.spec.max_level

    def evaluate_many(self, level, seeds):
        return self.evaluate_levels((level,), seeds)[0]

    def evaluate_levels(self, levels, seeds):
        """Every level from one draw of the forcing lanes of each seed."""
        spec = self.spec
        cells = [spec.cells_at_level(lv) for lv in levels]
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        lanes = normal_lanes(seeds, 2 * spec.forcing.n_k).T
        T = spec.time_horizon
        out = np.empty((len(levels), seeds.size))
        for row, n in enumerate(cells):
            modes = _forcing_modes(spec, n)
            for tile in _tiles(seeds.size, n):
                f = _forcing(lanes[:, tile], modes)
                out[row, tile], blown = _burgers_integrate(
                    np.zeros_like(f), f, spec.domain_length / n, spec.viscosity, T, 0.5 * T
                )
                hit = np.flatnonzero(~np.isnan(blown[1]))
                if hit.size:
                    peak, t = blown[:, hit[0]]
                    raise ModelEvaluationError(
                        levels[row], int(seeds[tile][hit[0]]),
                        f"solution blew up (max |u| = {peak:.4g} vs cap {_U_CAP}) at t={t:.4g}",
                    )
        return out


# ---------------------------------------------------------------------------
# Synthetic two-scale model
# ---------------------------------------------------------------------------

class TwoScaleModel(QoIModel):
    """U_level = X + amp * 2^(alpha*(level-1)) * Z, X and Z normal per realization.

    Level 1 is finest, so the perturbation term grows toward coarse levels.
    Coupled differences are -amp * 2^(alpha*(level-1)) * (2^alpha - 1) * Z:
    adjacent-difference spreads computed on shared seeds have ratio exactly
    2^alpha, so a coupled pilot recovers ``alpha`` to machine precision —
    the standard fixture for estimator round-trip tests.
    """

    def __init__(self, max_level=16, alpha=1.0, amp=0.5):
        self.max_level = _whole("max_level", max_level, 1, None)
        self.alpha = _finite("alpha", alpha, "> 0")
        self.amp = _finite("amp", amp, "> 0")

    def _scale(self, level):
        return self.amp * 2.0 ** (self.alpha * (level - 1))

    def evaluate_many(self, level, seeds):
        return self.evaluate_levels((level,), seeds)[0]

    def evaluate_levels(self, levels, seeds):
        """Every level from one draw of the two normals of each seed."""
        scales = [self._scale(_whole("level", lv, 1, self.max_level)) for lv in levels]
        lanes = normal_lanes(np.asarray(seeds, dtype=np.uint64).ravel(), 2)
        out = np.multiply.outer(scales, lanes[:, 1])
        out += lanes[:, 0]
        return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_MODEL_KINDS = ("gbm", "burgers", "two_scale")


def model_from_config(d):
    """Build a model from a config mapping {"kind": ..., "spec": {...}}."""
    try:
        kind = d["kind"]
    except (KeyError, TypeError):
        raise ValueError('model config must be a mapping with a "kind" entry')
    spec = d.get("spec", {}) or {}
    if kind == "gbm":
        return GBMModel(GBMSpec.from_json_dict(spec))
    if kind == "burgers":
        return BurgersModel(BurgersSpec.from_json_dict(spec))
    if kind == "two_scale":
        return TwoScaleModel(**spec)
    raise ValueError(f"unknown model kind {kind!r}; expected one of {_MODEL_KINDS}")
