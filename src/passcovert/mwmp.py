"""Joint transmit/pinching beamforming via a twin-swarm particle optimizer.

Two swarms alternate: position-seeking (PS) particles move the first-antenna
coordinates (kept in normalized [0, 1] units, scaled to meters only when a
layout is evaluated), while beamforming-seeking (BS) particles move the complex
per-waveguide weights (kept unit-norm). Each swarm is evaluated against the
other swarm's global best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ReceiverTerms, _effective_batch, beam_gain
from .constants import PhysConstants
from .detection import covert_power_rate, worst_case_gain
from .geometry import PinchLayout
from .scenario import Scenario


@dataclass(frozen=True)
class PsoParams:
    n_bs: int = 30
    n_ps: int = 30
    inertia_bs: float = 0.8
    inertia_ps: float = 0.8
    cognitive_bs: float = 2.0
    social_bs: float = 2.0
    cognitive_ps: float = 2.0
    social_ps: float = 2.0
    iterations: int = 100
    v_max: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_bs < 1 or self.n_ps < 1:
            raise ValueError("both swarms need at least one particle")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if not self.v_max > 0.0:
            raise ValueError("velocity cap must be positive")
        weights = (self.inertia_bs, self.inertia_ps, self.cognitive_bs, self.social_bs,
                   self.cognitive_ps, self.social_ps)
        if not all(math.isfinite(v) for v in weights):
            raise ValueError("inertia, cognitive and social weights must be finite")


@dataclass(eq=False)
class MwmpSolution:
    w_tilde: np.ndarray  # unit-norm complex (N,)
    x_init: np.ndarray  # meters, (N,)
    power: float  # W
    rate: float  # bits/s/Hz
    trace: np.ndarray  # best fitness after each iteration


@dataclass(eq=False)
class _EvalContext:
    """Receivers and constants shared by every fitness evaluation of one solve."""

    receivers: np.ndarray  # (1 + S, 3), Bob first
    wg_y: np.ndarray
    height: float
    pa_offsets: np.ndarray  # (M,) spacing steps
    usable_len: float
    sigma_b_sq: float
    gamma_w: float
    p_max: float
    pc: PhysConstants
    terms: ReceiverTerms  # the kernel's receiver side, built once per solve


def _context(sc: Scenario, k: int) -> _EvalContext:
    receivers = np.vstack([sc.r_b[None, :], sc.willie_samples(k)])
    geom = sc.geom
    wg_y = geom.wg_y_array
    return _EvalContext(receivers, wg_y, geom.height,
                        np.arange(geom.m_pa) * geom.pa_spacing, geom.usable_length,
                        sc.sigma_b_sq, sc.gain_budget(), sc.p_max, sc.pc,
                        ReceiverTerms(receivers, wg_y, geom.height))


def _channels(ps_pos: np.ndarray, ctx: _EvalContext) -> np.ndarray:
    """Effective channels (J, 1 + S, N) of a batch (J, N) of normalized layouts."""
    pa_x = ps_pos[:, :, None] * ctx.usable_len + ctx.pa_offsets[None, None, :]
    return _effective_batch(pa_x, ctx.wg_y, ctx.height, ctx.receivers, ctx.pc, ctx.terms)


def _fitness(gains: np.ndarray, ctx: _EvalContext) -> np.ndarray:
    """Covert rate of each row of receiver gains (J, 1 + S), Bob's gain first."""
    return covert_power_rate(gains[:, 0], gains[:, 1:].max(axis=1), ctx.gamma_w, ctx.p_max,
                             ctx.sigma_b_sq)[1]


def _clip(x: np.ndarray, lo: float, hi: float) -> None:
    """Clamp an array (or a view of one) to [lo, hi] in place."""
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)


@dataclass(eq=False)
class Swarm:
    """One particle swarm (Kennedy & Eberhart 1995): positions, velocities and the
    personal and global bests, real or complex alike.

    ``bests`` stacks the two attractors of every particle, its personal best
    and the global best, so that one subtraction and one multiply give both
    pulls of the velocity update.
    """

    pos: np.ndarray
    vel: np.ndarray
    bests: np.ndarray  # (2, *pos.shape): personal bests, then the global best in every row
    best_score: np.ndarray
    glo_score: float = -np.inf

    @classmethod
    def start(cls, pos: np.ndarray, glo_pos: np.ndarray) -> Swarm:
        """Zero velocities; every personal best is its start position at score -inf."""
        bests = np.stack([pos, np.broadcast_to(glo_pos, pos.shape)])
        return cls(pos, np.zeros_like(pos), bests, np.full(len(pos), -np.inf))

    @property
    def glo_pos(self) -> np.ndarray:
        return self.bests[1, 0]

    def advance(self, scores: np.ndarray, rng: np.random.Generator, inertia: float,
                cognitive: float, social: float, v_max: float) -> bool:
        """Take in the scores of ``pos`` and move every particle; returns whether
        the global best moved.

        Draws theta1 then theta2, one factor per coordinate, in one call (the
        same stream as two), and updates the velocity in the float order of
        inertia * vel + cognitive * theta1 * (best - pos) + social * theta2 * (glo - pos).
        The cap applies to real and imaginary parts independently.
        """
        improved = scores > self.best_score
        np.copyto(self.best_score, scores, where=improved)
        np.copyto(self.bests[0], self.pos, where=improved[:, None])
        best = int(self.best_score.argmax())
        moved = bool(self.best_score[best] > self.glo_score)
        if moved:
            self.glo_score = float(self.best_score[best])
            self.bests[1] = self.bests[0, best]
        theta = rng.random(self.bests.shape)
        theta[0] *= cognitive
        theta[1] *= social
        pull = self.bests - self.pos
        pull *= theta
        self.vel *= inertia
        self.vel += pull[0]
        self.vel += pull[1]
        _clip(self.vel.view(float), -v_max, v_max)
        self.pos += self.vel
        return moved


@dataclass(eq=False)
class TwinSwarms:
    """Mutable optimizer state; positions always satisfy their constraints."""

    ps: Swarm  # normalized first-antenna positions, real (n_ps, N) in [0, 1]
    bs: Swarm  # beamforming weights, complex unit rows (n_bs, N)
    rng: np.random.Generator
    # channels of the layout ps.glo_pos for the beamforming half; None until
    # the first step and again whenever ps.glo_pos moves
    bs_channel: np.ndarray | None = None


def _random_unit_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    raw = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    _renormalize_rows(raw, rng)
    return raw


def _renormalize_rows(pos: np.ndarray, rng: np.random.Generator) -> None:
    """Unit-normalize each particle in place; a zero particle is re-randomized."""
    norms = np.linalg.norm(pos, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    if zero.any():
        pos[zero] = _random_unit_rows(rng, int(zero.sum()), pos.shape[1])
        norms = np.linalg.norm(pos, axis=1, keepdims=True)
    pos /= norms


def init_swarms(n_wg: int, params: PsoParams, rng: np.random.Generator) -> TwinSwarms:
    """Random start: PS uniform on [0,1]^N, BS complex-normal rows normalized,
    random global-best positions."""
    ps_pos = rng.random((params.n_ps, n_wg))
    bs_pos = _random_unit_rows(rng, params.n_bs, n_wg)
    ps_glo = rng.random(n_wg)
    bs_glo = _random_unit_rows(rng, 1, n_wg)[0]
    return TwinSwarms(Swarm.start(ps_pos, ps_glo), Swarm.start(bs_pos, bs_glo), rng)


def step(swarms: TwinSwarms, ctx: _EvalContext, params: PsoParams) -> tuple[float, float]:
    """One full alternating iteration; returns both swarms' global best scores.

    Random factors are drawn per dimension in a fixed order (PS cognitive, PS
    social, BS cognitive, BS social), so a seeded run is reproducible. The
    beamforming half reuses ``swarms.bs_channel`` until ``ps.glo_pos`` moves,
    so every step on one swarm state must see the same context.
    """
    ps, bs, rng = swarms.ps, swarms.bs, swarms.rng

    # position half: weights fixed to the BS global best
    gains = np.abs(_channels(ps.pos, ctx) @ bs.glo_pos) ** 2
    if ps.advance(_fitness(gains, ctx), rng, params.inertia_ps, params.cognitive_ps,
                  params.social_ps, params.v_max):
        swarms.bs_channel = None
    _clip(ps.pos, 0.0, 1.0)

    # beamforming half: layout fixed to the PS global best
    if swarms.bs_channel is None:
        swarms.bs_channel = _channels(ps.glo_pos[None], ctx)[0]
    gains = np.abs(bs.pos @ swarms.bs_channel.T) ** 2
    bs.advance(_fitness(gains, ctx), rng, params.inertia_bs, params.cognitive_bs,
               params.social_bs, params.v_max)
    _renormalize_rows(bs.pos, rng)

    return ps.glo_score, bs.glo_score


def solve(sc: Scenario, params: PsoParams, k: int = 1) -> MwmpSolution:
    """Run the twin-swarm optimizer and evaluate the returned pair."""
    ctx = _context(sc, k)
    rng = np.random.default_rng(params.seed)
    swarms = init_swarms(sc.geom.n_wg, params, rng)
    trace = np.empty(params.iterations)
    best = -np.inf
    for t in range(params.iterations):
        ps_score, bs_score = step(swarms, ctx, params)
        best = max(best, ps_score, bs_score)
        trace[t] = best

    w_tilde = swarms.bs.glo_pos
    x_init = swarms.ps.glo_pos * ctx.usable_len
    layout = PinchLayout(sc.geom, x_init)
    g_max = worst_case_gain(layout, w_tilde, ctx.receivers[1:], sc.pc)
    g_bob = float(beam_gain(layout, w_tilde, sc.r_b[None, :], sc.pc)[0])
    power, rate = covert_power_rate(g_bob, g_max, ctx.gamma_w, ctx.p_max, sc.sigma_b_sq)
    return MwmpSolution(w_tilde.copy(), x_init, float(power), float(rate), trace)
