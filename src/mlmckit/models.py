"""Stochastic QoI models: spectral topography, GBM and Burgers testbeds.

Every model here satisfies the executor's coupling contract: one seed pins
one underlying random realization (a coefficient draw, a Brownian path),
and evaluating at a coarser level re-discretizes *that same realization*,
so adjacent-level differences measure pure discretization error.
"""

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._bits import _tiles, normal_lanes, scratch
from .executor import ModelEvaluationError, QoIModel, _whole


# ---------------------------------------------------------------------------
# Random spectral topography
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopographySpec:
    """Random seabed elevation synthesized from a truncated Fourier sum.

    Modes k (zonal, full periods over Lx) and l (meridional, half periods
    over Ly) each run over an inclusive integer interval; every mode gets
    two i.i.d. standard-normal coefficients weighted by H/(k^2 + l^2).
    Defaults give a 500 m-amplitude basin of 2000 km x 1733 km.
    """

    H: float = 500.0
    Lx: float = 2_000_000.0
    Ly: float = 1_733_000.0
    k_range: tuple = (4, 20)
    l_range: tuple = (4, 20)

    def __post_init__(self):
        if self.H < 0:
            raise ValueError(f"H must be >= 0, got {self.H}")
        if not self.Lx > 0 or not self.Ly > 0:
            raise ValueError(f"Lx and Ly must be positive, got {self.Lx}, {self.Ly}")
        for name, rng in (("k_range", self.k_range), ("l_range", self.l_range)):
            lo, hi = rng
            if int(lo) != lo or int(hi) != hi or lo < 1 or hi < lo:
                raise ValueError(f"{name} must be an integer interval within [1, inf), got {rng}")
        object.__setattr__(self, "k_range", (int(self.k_range[0]), int(self.k_range[1])))
        object.__setattr__(self, "l_range", (int(self.l_range[0]), int(self.l_range[1])))

    @property
    def n_k(self):
        return self.k_range[1] - self.k_range[0] + 1

    @property
    def n_l(self):
        return self.l_range[1] - self.l_range[0] + 1

    @property
    def coefficient_count(self):
        return 2 * self.n_k * self.n_l


@dataclass(frozen=True)
class TopographySample:
    """One coefficient draw: ``a`` multiplies cos(2 pi k x / Lx), ``b`` sin."""

    spec: TopographySpec
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        shape = (self.spec.n_k, self.spec.n_l)
        if self.a.shape != shape or self.b.shape != shape:
            raise ValueError(
                f"coefficient arrays must have shape {shape}, "
                f"got {self.a.shape} and {self.b.shape}"
            )


def sample_topography(spec, seed):
    """Draw all coefficients i.i.d. standard normal from one seeded generator.

    Draw order is fixed: k-major, l-minor, the cos coefficient before the
    sin coefficient of each mode — i.e. a[k0,l0], b[k0,l0], a[k0,l1], ...
    """
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(spec.coefficient_count).reshape(spec.n_k, spec.n_l, 2)
    return TopographySample(spec=spec, a=draws[:, :, 0].copy(), b=draws[:, :, 1].copy())


def _mode_weights(spec):
    k = np.arange(spec.k_range[0], spec.k_range[1] + 1, dtype=float)
    l = np.arange(spec.l_range[0], spec.l_range[1] + 1, dtype=float)
    return k, l, spec.H / (k[:, None] ** 2 + l[None, :] ** 2)


def evaluate_topography(sample, x, y):
    """Field height at (x, y); scalars or broadcastable arrays, in-domain only."""
    spec = sample.spec
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(x_arr < 0) or np.any(x_arr > spec.Lx):
        raise ValueError(f"x out of domain [0, {spec.Lx}]")
    if np.any(y_arr < 0) or np.any(y_arr > spec.Ly):
        raise ValueError(f"y out of domain [0, {spec.Ly}]")
    xb, yb = np.broadcast_arrays(x_arr, y_arr)
    shape = xb.shape
    xf, yf = xb.ravel(), yb.ravel()

    k, l, w = _mode_weights(spec)
    P = w * sample.a  # cos coefficients, weighted
    Q = w * sample.b  # sin coefficients, weighted
    phase = 2.0 * np.pi * np.outer(k, xf) / spec.Lx
    tmp = P.T @ np.cos(phase) + Q.T @ np.sin(phase)  # (n_l, N)
    sy = np.sin(np.pi * np.outer(l, yf) / spec.Ly)
    field = (tmp * sy).sum(axis=0)
    if shape == ():
        return float(field[0])
    return field.reshape(shape)


def write_topography_csv(sample, path, nx=65, ny=65):
    """Dump the field on a regular grid as ``x,y,height`` rows (for plotting)."""
    spec = sample.spec
    xs = np.linspace(0.0, spec.Lx, nx)
    ys = np.linspace(0.0, spec.Ly, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = evaluate_topography(sample, X, Y)
    with open(path, "w") as fh:
        fh.write("x,y,height\n")
        for i in range(nx):
            for j in range(ny):
                fh.write(f"{float(xs[i])!r},{float(ys[j])!r},{float(Z[i, j])!r}\n")


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
        # Each check fails for NaN and inf too, which would only surface
        # as a failed evaluation at run time.
        if not 0 < self.S0 < math.inf:
            raise ValueError(f"S0 must be positive and finite, got {self.S0}")
        if not math.isfinite(self.r_drift):
            raise ValueError(f"r_drift must be finite, got {self.r_drift}")
        if not 0 <= self.vol < math.inf:
            raise ValueError(f"vol must be >= 0 and finite, got {self.vol}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        for name in ("steps_at_finest", "max_level"):
            object.__setattr__(self, name, _whole(name, getattr(self, name), 1, None))
        halvings = 2 ** (self.max_level - 1)
        if self.steps_at_finest % halvings != 0:
            raise ValueError(
                f"steps_at_finest={self.steps_at_finest} is not divisible by "
                f"2^(max_level-1)={halvings}"
            )

    def steps_at_level(self, level):
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level must be within 1..{self.max_level}, got {level}")
        return self.steps_at_finest >> (level - 1)

    @property
    def exact_mean(self):
        return self.S0 * math.exp(self.r_drift * self.T)

    @classmethod
    def from_json_dict(cls, d):
        return cls(**d)


def _increments(spec, level, seeds, fine, half):
    """Brownian increments at ``level``, lane-major as an (n_level, B) array.

    All fine increments are drawn into ``fine``, an (n, B) float64 array,
    then summed pairwise down, alternating between ``half`` (n/2, B) and the
    head of ``fine``; the result is a view of one of the two.  ``level``
    must be one of the spec's levels.
    """
    n = spec.steps_at_finest
    dW, spare = fine, half
    normal_lanes(seeds, n, out=dW.T)
    dW *= math.sqrt(spec.T / n)
    for _ in range(level - 1):
        coarse = spare[: dW.shape[0] // 2]
        np.add(dW[0::2], dW[1::2], out=coarse)
        dW, spare = coarse, dW
    return dW


def _gbm_batch(spec, level, seeds, out):
    """Terminal states of a tile of seeds, written into ``out``.

    The increments live in this thread's scratch arrays, so a tile
    allocates nothing the size of its draw.
    """
    n, b = spec.steps_at_finest, seeds.size
    fine = scratch("gbm.fine", n * b).reshape(n, b)
    half = scratch("gbm.half", n // 2 * b).reshape(n // 2, b)
    dW = _increments(spec, level, seeds, fine, half)
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

_CFL = 0.4
_U_CAP = 1.0  # advective stability budget; exceeding it aborts the sample


@dataclass(frozen=True)
class BurgersSpec:
    """Periodic viscous Burgers driven by a frozen random Fourier force.

    The forcing reuses the topography recipe in one dimension (the
    meridional factor is dropped; the l-sum collapses into per-k
    coefficients), sampled onto each grid from the same seed, so every
    level sees the same continuous forcing field.  The QoI is the
    time-averaged spatial mean of u^2 over the second half of the horizon.
    First-order Godunov upwinding for the convective flux plus explicit
    central diffusion; the time step obeys a 0.4 CFL number against both
    the diffusive limit and a unit velocity cap.
    """

    viscosity: float = 0.005
    domain_length: float = 1.0
    cells_at_finest: int = 256
    time_horizon: float = 2.0
    max_level: int = 4
    forcing: Optional[TopographySpec] = None

    def __post_init__(self):
        if not self.viscosity > 0:
            raise ValueError(f"viscosity must be positive, got {self.viscosity}")
        if not self.domain_length > 0:
            raise ValueError(f"domain_length must be positive, got {self.domain_length}")
        if not self.time_horizon > 0:
            raise ValueError(f"time_horizon must be positive, got {self.time_horizon}")
        for name in ("cells_at_finest", "max_level"):
            object.__setattr__(self, name, _whole(name, getattr(self, name), 1, None))
        if self.forcing is None:
            # Default band tops out at k=6 so the default coarsest grid
            # (32 cells) still resolves every forcing mode; higher bands
            # alias on coarse grids and stall inter-level convergence.
            object.__setattr__(
                self,
                "forcing",
                TopographySpec(
                    H=5.0,
                    Lx=self.domain_length,
                    Ly=self.domain_length,
                    k_range=(2, 6),
                    l_range=(4, 20),
                ),
            )
        if self.forcing.Lx != self.domain_length:
            raise ValueError(
                f"forcing period Lx={self.forcing.Lx} must equal "
                f"domain_length={self.domain_length} (periodic forcing)"
            )
        halvings = 2 ** (self.max_level - 1)
        if self.cells_at_finest % halvings != 0 or self.cells_at_finest // halvings < 4:
            raise ValueError(
                f"cells_at_finest={self.cells_at_finest} must be divisible by "
                f"2^(max_level-1)={halvings} with at least 4 cells at the "
                "coarsest level"
            )

    def cells_at_level(self, level):
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level must be within 1..{self.max_level}, got {level}")
        return self.cells_at_finest >> (level - 1)

    @classmethod
    def from_json_dict(cls, d):
        out = dict(d)
        if out.get("forcing") is not None:
            out["forcing"] = TopographySpec(**out["forcing"])
        return cls(**out)


def burgers_forcing_profile(spec, seed, n_cells):
    """The seed's forcing field sampled at the n cell centers.

    f(x) = sum_k A_k cos(2 pi k x / L) + B_k sin(2 pi k x / L), where A_k
    and B_k collapse the weighted 2-D coefficient draw over its second
    index.  The same seed gives the same continuous field on every grid.
    """
    sample = sample_topography(spec.forcing, seed)
    _, _, w = _mode_weights(spec.forcing)
    A = (w * sample.a).sum(axis=1)
    B = (w * sample.b).sum(axis=1)
    k = np.arange(spec.forcing.k_range[0], spec.forcing.k_range[1] + 1, dtype=float)
    dx = spec.domain_length / n_cells
    x = (np.arange(n_cells) + 0.5) * dx
    phase = 2.0 * np.pi * np.outer(k, x) / spec.domain_length
    return A @ np.cos(phase) + B @ np.sin(phase)


class _BlowUp(ValueError):
    """A row of a Burgers batch blew up; ``args`` are (detail, row)."""


def _burgers_integrate(u, f, dx, viscosity, time_horizon, avg_from, record=False):
    """March the semi-discrete system and time-average mean(u^2) over
    [avg_from, time_horizon].  Returns (qoi, history or None).

    ``u`` is n cells, or (B, n) rows each driven by its row of ``f``.  A row
    whose max |u| passes the cap or is not finite is zeroed with its forcing
    and stays at rest; after the last step the first such row raises _BlowUp.
    """
    dt = _CFL * min(dx * dx / (2.0 * viscosity), dx / _U_CAP)
    steps = max(1, math.ceil(time_horizon / dt))
    dt = time_horizon / steps
    inv_dx = 1.0 / dx
    inv_dx2 = inv_dx * inv_dx

    acc = 0.0
    blown = np.full((2,) + np.shape(u)[:-1], np.nan)  # (max |u|, t) at blow-up
    history = [] if record else None
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
        if record:
            history.append(mean_sq)
        overlap = min(t_new, time_horizon) - max(t, avg_from)
        if overlap > 0.0:
            acc += overlap * mean_sq
        t = t_new
    for row, (peak, t_blown) in enumerate(blown.reshape(2, -1).T):
        if not math.isnan(t_blown):
            detail = f"solution blew up (max |u| = {peak:.4g} vs cap {_U_CAP}) at t={t_blown:.4g}"
            raise _BlowUp(detail, row)
    qoi = acc / (time_horizon - avg_from)
    return qoi, history


class BurgersModel(QoIModel):
    """QoIModel that integrates a batch from rest, one tile of seeds at a time.

    A tile of ``_bits._TILE // n`` seeds (n cells, at least one seed) steps
    together as one (B, n) array, so a batch's working set is one tile's.
    Tiles run in seed order, each to its last step, so a batch names its
    first blown seed in seed order.
    """

    def __init__(self, spec=None):
        self.spec = spec if spec is not None else BurgersSpec()
        self.max_level = self.spec.max_level

    def evaluate_many(self, level, seeds):
        spec, n = self.spec, self.spec.cells_at_level(level)
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        T, dx = spec.time_horizon, spec.domain_length / n
        out = np.empty(seeds.size)
        for tile in _tiles(seeds.size, n):
            part = seeds[tile]
            f = np.reshape([burgers_forcing_profile(spec, s, n) for s in part.tolist()], (-1, n))
            try:
                out[tile] = _burgers_integrate(
                    np.zeros_like(f), f, dx, spec.viscosity, T, 0.5 * T
                )[0]
            except _BlowUp as exc:
                detail, row = exc.args
                raise ModelEvaluationError(level, int(part[row]), detail) from None
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
        # NaN and inf fail these checks too.
        if not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
        if not 0 < amp < math.inf:
            raise ValueError(f"amp must be > 0 and finite, got {amp}")
        self.alpha = float(alpha)
        self.amp = float(amp)

    def _scale(self, level):
        return self.amp * 2.0 ** (self.alpha * (level - 1))

    def evaluate_many(self, level, seeds):
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level must be within 1..{self.max_level}, got {level}")
        lanes = _two_normals(np.asarray(seeds, dtype=np.uint64).ravel())
        out = np.multiply(lanes[:, 1], self._scale(level))
        out += lanes[:, 0]
        return out


# The last TwoScale draw on each thread, as (copy of seeds, lanes).  The
# executor evaluates a chunk at every level of its term back to back on one
# thread, so every level after the first reuses the draw.  The draw depends
# only on the seeds, so one slot serves every instance.
_last_draw = threading.local()


def _two_normals(seeds):
    old, lanes = getattr(_last_draw, "value", (None, None))
    # Size and first seed reject a new chunk in O(1) before the full compare.
    if (
        old is not None
        and old.size == seeds.size
        and (old.size == 0 or old[0] == seeds[0])
        and np.array_equal(old, seeds)
    ):
        return lanes
    # Let the previous draw go before the next one is made.
    _last_draw.value = old = lanes = None
    lanes = normal_lanes(seeds, 2)
    _last_draw.value = (seeds.copy(), lanes)
    return lanes


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
