"""Joint transmit/pinching beamforming via a twin-swarm particle optimizer.

Two swarms alternate: position-seeking (PS) particles move the first-antenna
coordinates (kept in normalized [0, 1] units, scaled to meters only when a
layout is evaluated), while beamforming-seeking (BS) particles move the complex
per-waveguide weights (kept unit-norm). Each swarm is evaluated against the
other swarm's global best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ReceiverTerms, _effective_batch, beam_gain
from .detection import covert_power_rate, worst_case_gain
from .geometry import PinchLayout
from .scenario import Scenario


# velocity-update weights and velocity cap, shared by both swarms
_INERTIA = 0.8
_COGNITIVE = 2.0
_SOCIAL = 2.0
_V_MAX = 0.3


@dataclass(frozen=True)
class PsoParams:
    n_bs: int = 30
    n_ps: int = 30
    iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("n_bs", "n_ps", "iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_bs < 1 or self.n_ps < 1:
            raise ValueError("both swarms need at least one particle")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(eq=False)
class MwmpSolution:
    w_tilde: np.ndarray  # unit-norm complex (N,)
    x_init: np.ndarray  # meters, (N,)
    power: float  # W
    rate: float  # bits/s/Hz
    trace: np.ndarray  # best fitness after each iteration


def _channels(ps_pos: np.ndarray, swarms: TwinSwarms) -> np.ndarray:
    """Effective channels (J, 1 + S, N) of a batch (J, N) of normalized layouts."""
    pa_x = ps_pos[:, :, None] * swarms.usable_len + swarms.pa_offsets[None, None, :]
    return _effective_batch(pa_x, swarms.wg_y, swarms.sc.geom.height, swarms.receivers,
                            swarms.sc.pc, swarms.terms)


def _fitness(gains: np.ndarray, swarms: TwinSwarms) -> np.ndarray:
    """Covert rate of each row of receiver gains (J, 1 + S), Bob's gain first."""
    return covert_power_rate(gains[:, 0], gains[:, 1:].max(axis=1), swarms.gamma_w,
                             swarms.sc.p_max, swarms.sc.sigma_b_sq)[1]


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

    def advance(self, scores: np.ndarray, rng: np.random.Generator) -> bool:
        """Take in the scores of ``pos`` and move every particle; returns whether
        the global best moved.

        Draws theta1 then theta2, one factor per coordinate, in one call (the
        same stream as two), and updates the velocity in the float order of
        _INERTIA * vel + _COGNITIVE * theta1 * (best - pos) + _SOCIAL * theta2 * (glo - pos).
        The cap ``_V_MAX`` applies to real and imaginary parts independently.
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
        theta[0] *= _COGNITIVE
        theta[1] *= _SOCIAL
        pull = self.bests - self.pos
        pull *= theta
        self.vel *= _INERTIA
        self.vel += pull[0]
        self.vel += pull[1]
        _clip(self.vel.view(float), -_V_MAX, _V_MAX)
        self.pos += self.vel
        return moved


@dataclass(eq=False)
class TwinSwarms:
    """The state of one solve: both swarms, their generator, and the receivers
    and kernel terms every fitness evaluation shares. Positions always satisfy
    their constraints."""

    ps: Swarm  # normalized first-antenna positions, real (n_ps, N) in [0, 1]
    bs: Swarm  # beamforming weights, complex unit rows (n_bs, N)
    rng: np.random.Generator
    sc: Scenario
    receivers: np.ndarray  # (1 + S, 3), Bob first
    wg_y: np.ndarray
    pa_offsets: np.ndarray  # (M,) spacing steps
    usable_len: float
    gamma_w: float
    terms: ReceiverTerms  # the kernel's receiver side, built once per solve
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


def init_swarms(sc: Scenario, params: PsoParams, k: int) -> TwinSwarms:
    """Random start from ``params.seed``: PS uniform on [0,1]^N, BS complex-normal
    rows normalized, random global-best positions; Bob and the 4k + 1 warden
    samples are the receivers."""
    receivers = np.vstack([sc.r_b[None, :], sc.willie_samples(k)])
    geom = sc.geom
    wg_y = geom.wg_y_array
    rng = np.random.default_rng(params.seed)
    ps_pos = rng.random((params.n_ps, geom.n_wg))
    bs_pos = _random_unit_rows(rng, params.n_bs, geom.n_wg)
    ps_glo = rng.random(geom.n_wg)
    bs_glo = _random_unit_rows(rng, 1, geom.n_wg)[0]
    return TwinSwarms(Swarm.start(ps_pos, ps_glo), Swarm.start(bs_pos, bs_glo), rng, sc,
                      receivers, wg_y, np.arange(geom.m_pa) * geom.pa_spacing,
                      geom.usable_length, sc.gain_budget(),
                      ReceiverTerms(receivers, wg_y, geom.height))


def step(swarms: TwinSwarms) -> tuple[float, float]:
    """One full alternating iteration; returns both swarms' global best scores.

    Random factors are drawn per dimension in a fixed order (PS cognitive, PS
    social, BS cognitive, BS social), so a seeded run is reproducible. The
    beamforming half reuses ``swarms.bs_channel`` until ``ps.glo_pos`` moves.
    """
    ps, bs, rng = swarms.ps, swarms.bs, swarms.rng

    # position half: weights fixed to the BS global best
    gains = np.abs(_channels(ps.pos, swarms) @ bs.glo_pos) ** 2
    if ps.advance(_fitness(gains, swarms), rng):
        swarms.bs_channel = None
    _clip(ps.pos, 0.0, 1.0)

    # beamforming half: layout fixed to the PS global best
    if swarms.bs_channel is None:
        swarms.bs_channel = _channels(ps.glo_pos[None], swarms)[0]
    gains = np.abs(bs.pos @ swarms.bs_channel.T) ** 2
    bs.advance(_fitness(gains, swarms), rng)
    _renormalize_rows(bs.pos, rng)

    return ps.glo_score, bs.glo_score


def solve(sc: Scenario, params: PsoParams, k: int = 1) -> MwmpSolution:
    """Run the twin-swarm optimizer and evaluate the returned pair."""
    swarms = init_swarms(sc, params, k)
    # each global-best score only rises, so the larger one is the best so far
    trace = np.array([max(step(swarms)) for _ in range(params.iterations)])

    w_tilde = swarms.bs.glo_pos
    x_init = swarms.ps.glo_pos * swarms.usable_len
    layout = PinchLayout(sc.geom, x_init)
    g_max = worst_case_gain(layout, w_tilde, swarms.receivers[1:], sc.pc)
    g_bob = float(beam_gain(layout, w_tilde, sc.r_b[None, :], sc.pc)[0])
    power, rate = covert_power_rate(g_bob, g_max, swarms.gamma_w, sc.p_max, sc.sigma_b_sq)
    return MwmpSolution(w_tilde.copy(), x_init, float(power), float(rate), trace)
