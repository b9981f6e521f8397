"""Joint transmit/pinching beamforming via a twin-swarm particle optimizer.

Two swarms alternate: position-seeking (PS) particles move the first-antenna
coordinates (kept in normalized [0, 1] units, scaled to meters only when a
layout is evaluated), while beamforming-seeking (BS) particles move the complex
per-waveguide weights (kept unit-norm). Each swarm is evaluated against the
other swarm's global best.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import ReceiverTerms, _effective_batch, beam_gain
from .detection import _check_rings, covert_power_rate, worst_case_gain
from .geometry import PinchLayout
from .scenario import Scenario


# velocity-update weights and velocity cap, shared by both swarms
_INERTIA = 0.8
_COGNITIVE = 2.0
_SOCIAL = 2.0
_V_MAX = 0.3
_WEIGHTS = np.array([_COGNITIVE, _SOCIAL])[:, None, None]  # scales theta1 and theta2


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
    """Effective channels (B, J, 1 + S, N) of each trial's batch (J, N) of
    normalized layouts, in one kernel call on the stacked receivers."""
    pa_x = ps_pos[..., None] * swarms.usable_len + swarms.pa_offsets
    return _effective_batch(pa_x, swarms.wg_y, swarms.sc.geom.height, swarms.receivers,
                            swarms.sc.pc, swarms.terms)


def _fitness(gains: np.ndarray, swarms: TwinSwarms, seen: np.ndarray) -> np.ndarray:
    """Covert rate (B, J) of each trial's rows of receiver gains (B, J, 1 + S),
    Bob's gain first, under that trial's fitness map.

    The rate is taken from ``seen`` (B, 2, J), one row of ``Swarm.seen``: each
    row's gain at Bob, then its worst warden gain, written there first.
    """
    seen[:, 0] = gains[..., 0]
    gains[..., 1:].max(axis=-1, out=seen[:, 1])
    return covert_power_rate(seen[:, 0], seen[:, 1], *swarms.fitness_map)[1]


def _replay(seen: np.ndarray, gamma_w: float, p_max: float, sigma_b_sq: float):
    """Every decision ``Swarm.advance`` takes on recorded gains ``seen``
    (T, 2, J) under one fitness map, and the global best score after each step.

    Returns ``improved`` (T, J), which personal bests each step replaced;
    ``moved_to`` (T,), the particle whose personal best the global best moved
    to, or -1 where it stayed; and the global best scores (T,). A particle's
    best improves when its score beats every earlier one (a NaN score never
    does, and ``fmax`` skips it); the global best is the largest personal best,
    and moves when that beats every earlier one, to its first holder.
    """
    scores = covert_power_rate(seen[:, 0], seen[:, 1], gamma_w, p_max, sigma_b_sq)[1]
    best = np.fmax.accumulate(np.vstack([np.full(scores.shape[1], -np.inf), scores]))
    glo = best.max(axis=1)  # glo[t]: the global best score before step t
    moved_to = np.where(glo[1:] > glo[:-1], best[1:].argmax(axis=1), -1)
    return scores > best[:-1], moved_to, glo[1:]


def _clip(x: np.ndarray, lo: float, hi: float) -> None:
    """Clamp an array (or a view of one) to [lo, hi] in place."""
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)


@dataclass(eq=False)
class Swarm:
    """One particle swarm (Kennedy & Eberhart 1995) per trial, stacked on a
    leading trial axis: positions, velocities and the personal and global
    bests, real or complex alike.

    ``bests`` stacks the two attractors of every particle, its personal best
    and the global best, so that one subtraction and one multiply give both
    pulls of the velocity update.
    """

    pos: np.ndarray  # (B, J, N)
    vel: np.ndarray
    bests: np.ndarray  # (B, 2, J, N): personal bests, then the global best in every row
    best_score: np.ndarray  # (B, J)
    # (iterations, B, 2, J): per step, each particle's gain at Bob and worst warden gain
    seen: np.ndarray
    glo_score: np.ndarray  # (B,)

    @classmethod
    def start(cls, pos: np.ndarray, glo_pos: np.ndarray, iterations: int) -> Swarm:
        """Zero velocities; every personal best is its start position at score -inf."""
        bests = np.stack([pos, np.broadcast_to(glo_pos[:, None], pos.shape)], axis=1)
        b, j = pos.shape[:2]
        return cls(pos, np.zeros_like(pos), bests, np.full((b, j), -np.inf),
                   np.empty((iterations, b, 2, j)), np.full(b, -np.inf))

    @property
    def glo_pos(self) -> np.ndarray:
        return self.bests[:, 1, 0]

    def advance(self, scores: np.ndarray, rngs: list) -> list[int]:
        """Take in the scores (B, J) of ``pos`` and move every particle; returns,
        per trial, the particle its global best moved to, or -1 where it stayed.

        Each trial draws theta1 then theta2 from its own generator, one factor
        per coordinate, in one call (the same stream as two), and the velocity
        is updated in the float order of
        _INERTIA * vel + _COGNITIVE * theta1 * (best - pos) + _SOCIAL * theta2 * (glo - pos).
        The cap ``_V_MAX`` applies to real and imaginary parts independently.
        """
        improved = scores > self.best_score
        np.copyto(self.best_score, scores, where=improved)
        np.copyto(self.bests[:, 0], self.pos, where=improved[..., None])
        moved_to = self.best_score.argmax(axis=1).tolist()
        for b, i in enumerate(moved_to):
            if self.best_score[b, i] > self.glo_score[b]:
                self.glo_score[b] = self.best_score[b, i]
                self.bests[b, 1] = self.bests[b, 0, i]
            else:
                moved_to[b] = -1
        theta = np.empty(self.bests.shape)
        for rng, out in zip(rngs, theta):
            rng.random(out=out)
        theta *= _WEIGHTS
        pull = self.bests - self.pos[:, None]
        pull *= theta
        self.vel *= _INERTIA
        self.vel += pull[:, 0]
        self.vel += pull[:, 1]
        _clip(self.vel.view(float), -_V_MAX, _V_MAX)
        self.pos += self.vel
        return moved_to


@dataclass(eq=False)
class TwinSwarms:
    """The state of B lockstep runs, one per trial: both swarms, each trial's
    generator and fitness map, and the receivers and kernel terms every
    fitness evaluation shares. The trials share the geometry and constants of
    ``sc``, the first trial's scenario. Positions always satisfy their
    constraints."""

    ps: Swarm  # normalized first-antenna positions, real (B, n_ps, N) in [0, 1]
    bs: Swarm  # beamforming weights, complex unit rows (B, n_bs, N)
    rngs: list  # one np.random.Generator per trial
    sc: Scenario
    receivers: np.ndarray  # (1 + S, B, 3): each trial's Bob first, then its warden samples
    fitness_map: tuple  # Gamma_w, P_max and sigma_b^2: each a float, or (B, 1) per trial
    wg_y: np.ndarray
    pa_offsets: np.ndarray  # (M,) spacing steps
    usable_len: float
    terms: ReceiverTerms  # the kernel's receiver side, built once per run
    # channels (B, 1 + S, N) of the layouts ps.glo_pos for the beamforming half,
    # each trial's row set on the first step (every score beats -inf) and then
    # whenever its ps.glo_pos moves
    bs_channel: np.ndarray
    steps: int = 0  # steps taken, the row of Swarm.seen the next step records


def _random_unit_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    raw = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    _renormalize_rows(raw[None], [rng])
    return raw


def _renormalize_rows(pos: np.ndarray, rngs: list) -> None:
    """Unit-normalize each particle of each trial's swarm (B, J, N) in place; a
    zero particle is re-randomized from its own trial's generator."""
    norms = np.linalg.norm(pos, axis=-1, keepdims=True)
    zero = norms[..., 0] == 0.0
    if zero.any():
        for b in np.flatnonzero(zero.any(axis=1)):
            pos[b, zero[b]] = _random_unit_rows(rngs[b], int(zero[b].sum()), pos.shape[-1])
        norms = np.linalg.norm(pos, axis=-1, keepdims=True)
    pos /= norms


def _start_draws(rng: np.random.Generator, params: PsoParams, n: int) -> tuple:
    """One trial's random start: PS uniform on [0,1]^N, BS complex-normal rows
    normalized, then both random global-best positions."""
    return (rng.random((params.n_ps, n)), _random_unit_rows(rng, params.n_bs, n),
            rng.random(n), _random_unit_rows(rng, 1, n)[0])


def _fitness_map(sc: Scenario) -> tuple[float, float, float]:
    return sc.gain_budget(), sc.p_max, sc.sigma_b_sq


def init_swarms(scenarios, params, k: int) -> TwinSwarms:
    """Lockstep runs of the trials ``scenarios``, each started from its own
    ``params`` seed; Bob and the 4k + 1 warden samples are each trial's
    receivers. The trials must share the geometry, the constants and the
    swarm sizes and iterations (``run_many`` groups them so)."""
    sc, p = scenarios[0], params[0]
    geom = sc.geom
    receivers = np.stack([np.vstack([s.r_b[None, :], s.willie_samples(k)]) for s in scenarios],
                         axis=1)
    rngs = [np.random.default_rng(q.seed) for q in params]
    ps_pos, bs_pos, ps_glo, bs_glo = map(np.stack, zip(*(
        _start_draws(rng, p, geom.n_wg) for rng in rngs)))
    # a map entry all trials share stays a scalar, which numpy applies faster
    fitness_map = tuple(m[0] if len(set(m)) == 1 else np.array(m)[:, None]
                        for m in zip(*map(_fitness_map, scenarios)))
    wg_y = geom.wg_y_array
    return TwinSwarms(Swarm.start(ps_pos, ps_glo, p.iterations),
                      Swarm.start(bs_pos, bs_glo, p.iterations), rngs, sc, receivers,
                      fitness_map, wg_y, np.arange(geom.m_pa) * geom.pa_spacing,
                      geom.usable_length, ReceiverTerms(receivers, wg_y, geom.height),
                      np.empty((len(rngs), len(receivers), geom.n_wg), complex))


def step(swarms: TwinSwarms) -> None:
    """One full alternating iteration of every trial; each swarm's gains go to
    row ``swarms.steps`` of its ``seen``.

    Each trial draws its random factors per dimension from its own generator
    in a fixed order (PS cognitive, PS social, BS cognitive, BS social), so a
    seeded run is reproducible and does not depend on the other trials. Only
    the position half calls the kernel, once for all trials; a trial whose
    ``ps.glo_pos`` moved takes its new ``swarms.bs_channel`` row from that call.
    """
    ps, bs, rngs, t = swarms.ps, swarms.bs, swarms.rngs, swarms.steps

    # position half: weights fixed to the BS global best
    channels = _channels(ps.pos, swarms)
    gains = np.abs((channels @ bs.glo_pos[:, None, :, None])[..., 0]) ** 2
    for b, i in enumerate(ps.advance(_fitness(gains, swarms, ps.seen[t]), rngs)):
        if i >= 0:
            swarms.bs_channel[b] = channels[b, i]
    _clip(ps.pos, 0.0, 1.0)

    # beamforming half: layout fixed to the PS global best
    gains = np.abs(bs.pos @ swarms.bs_channel.transpose(0, 2, 1)) ** 2
    bs.advance(_fitness(gains, swarms, bs.seen[t]), rngs)
    _renormalize_rows(bs.pos, rngs)
    swarms.steps = t + 1


# trials stepped together by run_many: a run's cost stops falling at about 5
# stacked runs, and a larger chunk only adds the memory of its work arrays
_BATCH = 8


def _answer_key(sc: Scenario, params: PsoParams, k: int) -> tuple:
    """Everything the answer to ``sc`` depends on: the run inputs (Bob, the
    warden centre and radius, ``k``, geometry, constants and ``params``), then
    the fitness map, which enters a run only through the decisions it takes."""
    return ("mwmp", sc.r_b.tobytes(), sc.willie.center.tobytes(), sc.willie.radius, k,
            sc.geom, sc.pc, params, _fitness_map(sc))


def run_many(scenarios, params, k: int = 1) -> None:
    """Leave in ``sc.memo`` the answer to every scenario ``sc`` of
    ``scenarios``, each with its own ``params``, keyed by ``_answer_key``.

    The unanswered scenarios wait in queues, one per set of run inputs (the
    key without the fitness map), in call order. Each round runs the first
    scenario of every queue, in lockstep, in even chunks of at most ``_BATCH``
    runs that share a geometry, constants and swarm sizes; ``_run`` answers
    the scenarios after it by replay while it can. Each run's bits are those
    of a lone run.
    """
    _check_rings(k)
    queues = {}
    for sc, p in zip(scenarios, params, strict=True):
        key = _answer_key(sc, p, k)
        if key not in sc.memo:
            queues.setdefault(key[:-1], deque()).append((sc, p, key))
    while queues:
        groups = {}
        for queue in queues.values():
            sc, p, _ = queue[0]
            groups.setdefault((sc.geom, sc.pc, p.n_bs, p.n_ps, p.iterations), []).append(queue)
        for batch in groups.values():
            count = -(-len(batch) // _BATCH)
            for c in range(count):
                _run(batch[c * len(batch) // count:(c + 1) * len(batch) // count], k)
        queues = {inputs: queue for inputs, queue in queues.items() if queue}


def _run(queues: list, k: int) -> None:
    """Step the first scenario of every queue of (scenario, params, answer
    key) together. Then answer each queue's scenarios in turn, the one that
    ran first, by replaying that run's recorded gains under their own fitness
    maps; the first whose replay takes a decision the run did not take stays
    at the head of its queue, as a run of it would not retrace this one."""
    scenarios, params, _ = zip(*(queue[0] for queue in queues))
    swarms = init_swarms(scenarios, params, k)
    for _ in range(params[0].iterations):
        step(swarms)
    for b, queue in enumerate(queues):
        seen = swarms.ps.seen[:, b], swarms.bs.seen[:, b]
        w_tilde = swarms.bs.glo_pos[b].copy()
        x_init = swarms.ps.glo_pos[b] * swarms.usable_len
        ran = None  # the decisions of the run, which answers the head first
        while queue:
            sc, _, key = queue[0]
            if key not in sc.memo:  # else the same scenario came earlier in the queue
                decisions, trace = _replay_twins(seen, key[-1])
                ran = ran or decisions
                if not all(map(np.array_equal, ran, decisions)):
                    break
                sc.memo[key] = _answer(sc, w_tilde, x_init, swarms.receivers[1:, b], trace)
            queue.popleft()


def solve(sc: Scenario, params: PsoParams, k: int = 1) -> MwmpSolution:
    """Run the twin-swarm optimizer (``run_many`` on this one scenario) and
    return a copy of the answer it stored. The answer bits are those of an
    empty memo, and every array of the result is its own."""
    run_many([sc], [params], k)
    ans = sc.memo[_answer_key(sc, params, k)]
    return MwmpSolution(ans.w_tilde.copy(), ans.x_init.copy(), ans.power, ans.rate,
                        ans.trace.copy())


def _replay_twins(seen: tuple, fitness_map: tuple) -> tuple[tuple, np.ndarray]:
    """Both swarms' decisions (PS improved and moved-to, then BS) on their
    recorded gains under one fitness map, and the trace."""
    (improved_ps, to_ps, glo_ps), (improved_bs, to_bs, glo_bs) = (
        _replay(s, *fitness_map) for s in seen)
    # each global-best score only rises, so the larger one is the best so far
    return (improved_ps, to_ps, improved_bs, to_bs), np.maximum(glo_ps, glo_bs)


def _answer(sc: Scenario, w_tilde: np.ndarray, x_init: np.ndarray, samples: np.ndarray,
            trace: np.ndarray) -> MwmpSolution:
    """The covert power and rate on ``sc`` of a run's pair, its worst warden
    gain taken over that run's warden ``samples``."""
    layout = PinchLayout(sc.geom, x_init)
    g_max = worst_case_gain(layout, w_tilde, samples, sc.pc)
    g_bob = float(beam_gain(layout, w_tilde, sc.r_b[None, :], sc.pc)[0])
    power, rate = covert_power_rate(g_bob, g_max, *_fitness_map(sc))
    return MwmpSolution(w_tilde, x_init, float(power), float(rate), trace)
