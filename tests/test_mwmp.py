"""Twin-swarm optimizer: constraint handling, update rules, determinism, quality."""

import dataclasses

import numpy as np
import pytest

from passcovert import mwmp
from passcovert.channel import beam_gain
from passcovert.config import config_from_dict
from passcovert.detection import covert_power_rate, sample_region, worst_case_gain
from passcovert.geometry import BeamVector, PinchLayout
from passcovert.mwmp import PsoParams, init_swarms, solve, step
from passcovert.swsp import achievable_rate


def _scenario(n=2, m=1, bob=(15.0, 4.0), willie=(5.0, -8.0), rho=0.1, length=25.0):
    return config_from_dict({
        "num_waveguides": n, "pas_per_waveguide": m, "waveguide_length_m": length,
        "pa_spacing_m": 0.0054, "bob_x_m": bob[0], "bob_y_m": bob[1],
        "willie_x_m": willie[0], "willie_y_m": willie[1], "rho_w": rho,
    }).scenario("mwmp")


def _optimal_power(layout, w_tilde, samples, gamma_w, p_max, pc):
    """Power the covert power rule assigns to a beam over the warden samples."""
    g_max = worst_case_gain(layout, w_tilde, samples, pc)
    return float(covert_power_rate(0.0, g_max, gamma_w, p_max, 1.0)[0])


def _fitness(pos, w, sc):
    """Swarm fitness of one (normalized position, unit weight) pair at k = 1."""
    swarms = init_swarms([sc], [PsoParams()], 1)
    gains = np.abs(mwmp._channels(pos[None, None], swarms) @ w) ** 2
    return float(mwmp._fitness(gains, swarms, np.empty((1, 2, 1)))[0, 0])


def test_clamp_ps():
    x = np.array([1.7, -0.2, 0.4])
    mwmp._clip(x, 0.0, 1.0)
    np.testing.assert_allclose(x, np.array([1.0, 0.0, 0.4]))


def test_normalize_bs(rng):
    def normalized(v):
        rows = np.array(v, dtype=complex).reshape(1, 1, -1)
        mwmp._renormalize_rows(rows, [rng])
        return rows[0, 0]

    v = np.array([3.0 + 4.0j, 0.0])
    out = normalized(v)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(normalized(out), out)
    np.testing.assert_allclose(normalized(2.0 * v), out)
    # a zero particle is re-randomized onto the unit sphere instead of rejected
    assert np.linalg.norm(normalized(np.zeros(2))) == pytest.approx(1.0, abs=1e-12)


def test_optimal_power_branches(pc28):
    sc = _scenario()
    layout = PinchLayout(sc.geom, np.array([5.0, 15.0]))
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    samples = sc.willie_samples(1)
    assert _optimal_power(layout, w, samples, 0.0, sc.p_max, pc28) == 0.0
    # huge budget clamps at p_max
    assert _optimal_power(layout, w, samples, 1.0, sc.p_max, pc28) == sc.p_max
    gamma_w = sc.gain_budget()
    p = _optimal_power(layout, w, samples, gamma_w, sc.p_max, pc28)
    g = worst_case_gain(layout, w, samples, pc28)
    assert p * g == pytest.approx(gamma_w, rel=1e-12)


def test_optimal_power_saturates_budget(pc28, rng):
    sc = _scenario()
    samples = sc.willie_samples(1)
    gamma_w = sc.gain_budget()
    for _ in range(50):
        layout = PinchLayout(sc.geom, rng.uniform(0, sc.geom.usable_length, 2))
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w /= np.linalg.norm(w)
        p = _optimal_power(layout, w, samples, gamma_w, sc.p_max, pc28)
        g = worst_case_gain(layout, w, samples, pc28)
        assert p * g <= gamma_w + 1e-15
        if p < sc.p_max:
            assert p * g == pytest.approx(gamma_w, rel=1e-12)


def test_fitness_zero_budget():
    sc = _scenario(rho=0.0)
    w = np.array([1.0, 0.0], dtype=complex)
    assert _fitness(np.array([0.3, 0.7]), w, sc) == 0.0


def test_fitness_phase_invariance(rng):
    sc = _scenario()
    pos = rng.random(2)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w /= np.linalg.norm(w)
    base = _fitness(pos, w, sc)
    for phi in (0.4, 2.0):
        assert _fitness(pos, w * np.exp(1j * phi), sc) == pytest.approx(base, rel=1e-12)


def test_fitness_degenerate_matches_swsp():
    # N = M = 1: the fitness equals the single-antenna rate at the same (x, P)
    sc = _scenario(n=1, m=1)
    for frac in (0.1, 0.45, 0.8):
        x = frac * sc.geom.usable_length
        layout = PinchLayout(sc.geom, np.array([x]))
        w = np.ones(1, dtype=complex)
        p = _optimal_power(layout, w, sc.willie_samples(1), sc.gain_budget(),
                           sc.p_max, sc.pc)
        expected = achievable_rate(x, p, sc)
        assert _fitness(np.array([frac]), w, sc) == pytest.approx(expected, rel=1e-12)


def test_step_stationary_when_converged():
    sc = _scenario()
    swarms = init_swarms([sc], [PsoParams(n_bs=4, n_ps=4, seed=3)], 1)
    # collapse both swarms onto their global bests with zero velocity
    swarms.ps.pos[:] = swarms.ps.glo_pos[:, None]
    swarms.ps.bests[:, 0] = swarms.ps.glo_pos[:, None]
    swarms.bs.pos[:] = swarms.bs.glo_pos[:, None]
    swarms.bs.bests[:, 0] = swarms.bs.glo_pos[:, None]
    before_ps = swarms.ps.pos.copy()
    before_bs = swarms.bs.pos.copy()
    step(swarms)
    # both attraction terms vanish, so nothing moves
    np.testing.assert_allclose(swarms.ps.pos, before_ps, atol=1e-15)
    np.testing.assert_allclose(swarms.bs.pos, before_bs, atol=1e-12)


def test_step_preserves_constraints_and_caps():
    sc = _scenario(n=3)
    swarms = init_swarms([sc], [PsoParams(seed=11)], 1)
    for _ in range(25):
        step(swarms)
        assert np.all(swarms.ps.pos >= 0.0) and np.all(swarms.ps.pos <= 1.0)
        np.testing.assert_allclose(np.linalg.norm(swarms.bs.pos, axis=-1), 1.0,
                                   atol=1e-12)
        assert np.all(np.abs(swarms.ps.vel) <= mwmp._V_MAX + 1e-15)
        assert np.all(np.abs(swarms.bs.vel.real) <= mwmp._V_MAX + 1e-15)
        assert np.all(np.abs(swarms.bs.vel.imag) <= mwmp._V_MAX + 1e-15)


def test_trace_monotone_and_deterministic():
    sc = _scenario()
    params = PsoParams(iterations=40, seed=21)
    a = solve(sc, params)
    b = solve(dataclasses.replace(sc, memo={}), params)  # a second run, not a replay
    assert np.all(np.diff(a.trace) >= 0.0)
    np.testing.assert_array_equal(a.trace, b.trace)
    np.testing.assert_array_equal(a.w_tilde, b.w_tilde)
    np.testing.assert_array_equal(a.x_init, b.x_init)
    assert a.rate == b.rate and a.power == b.power
    c = solve(sc, dataclasses.replace(params, seed=22))
    assert not np.array_equal(a.x_init, c.x_init)


def test_solution_respects_constraints():
    sc = _scenario(n=4, m=3)
    sol = solve(sc, PsoParams(iterations=30, seed=5))
    hi = sc.geom.usable_length
    assert np.all(sol.x_init >= 0.0) and np.all(sol.x_init <= hi)
    assert np.linalg.norm(sol.w_tilde) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= sol.power <= sc.p_max
    # sampled covertness soundness at every point of the warden sample set
    layout = PinchLayout(sc.geom, sol.x_init)
    beam = BeamVector(sol.w_tilde, sol.power)
    gamma_w = sc.gain_budget()
    assert np.all(beam_gain(layout, beam.weights, sc.willie_samples(1), sc.pc) <= gamma_w + 1e-12)


def test_solve_beats_single_antenna_on_reported_layout(default_config):
    swsp_rate = 8.54  # frozen from the deterministic 1-D search on this layout
    sc = default_config.scenario("mwmp")
    sol = solve(sc, default_config.pso_params(2))
    assert sol.rate > swsp_rate


def test_sample_cross_feeds_power_control():
    # worst_case_gain over the 4k+1 cross is what the returned power saturates
    sc = _scenario()
    sol = solve(sc, PsoParams(iterations=30, seed=9))
    layout = PinchLayout(sc.geom, sol.x_init)
    g_max = worst_case_gain(layout, sol.w_tilde, sample_region(sc.willie, 1), sc.pc)
    if sol.power < sc.p_max:
        assert sol.power * g_max == pytest.approx(sc.gain_budget(), rel=1e-10)


def test_cached_beamforming_channel_tracks_position_global_best():
    # each trial's row of the stacked channel is its own layout's unstacked channel
    scenarios = [_scenario(n=3, m=3), _scenario(n=3, m=3, bob=(4.0, -2.0))]
    swarms = init_swarms(scenarios, [PsoParams(seed=17), PsoParams(seed=18)], 1)
    for _ in range(25):
        step(swarms)
        for b, sc in enumerate(scenarios):
            pa_x = (swarms.ps.glo_pos[b, None, :, None] * swarms.usable_len
                    + swarms.pa_offsets[None, None, :])
            fresh = mwmp._effective_batch(pa_x, swarms.wg_y, sc.geom.height,
                                          swarms.receivers[:, b], sc.pc)[0]
            np.testing.assert_array_equal(swarms.bs_channel[b], fresh)


def test_solve_recomputes_channel_only_when_layout_best_moves(monkeypatch):
    calls = []
    kernel = mwmp._effective_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(mwmp, "_effective_batch", counting)
    params = PsoParams(iterations=40, seed=4)
    solve(_scenario(n=4, m=3), params)
    # one position-half call per step; the beamforming half takes the channel
    # of a moved position global best from that call's batch
    assert len(calls) == params.iterations


def test_first_step_moves_every_trials_position_best(monkeypatch):
    # bs_channel starts unset, so every trial's position global best must move
    # on the first step: every score beats -inf, the zeros of a trial with no
    # warden gain budget included
    scenarios = [_scenario(n=3, m=2), _scenario(n=3, m=2, rho=0.0)]
    swarms = init_swarms(scenarios, [PsoParams(seed=1), PsoParams(seed=2)], 1)
    moved = []
    advance = mwmp.Swarm.advance
    monkeypatch.setattr(mwmp.Swarm, "advance",
                        lambda swarm, *a: moved.append(advance(swarm, *a)) or moved[-1])
    step(swarms)
    ps_moved = moved[0]
    assert len(ps_moved) == 2 and min(ps_moved) >= 0
    assert swarms.ps.glo_score[1] == 0.0


@pytest.mark.parametrize("field, value", [("iterations", float("nan")), ("iterations", 2.0),
                                          ("n_bs", 2.5), ("n_ps", True), ("n_bs", np.float64(3)),
                                          ("iterations", "3"), ("seed", 2.5),
                                          ("seed", float("nan")), ("seed", True), ("seed", -1)])
def test_pso_params_reject_non_integers(field, value):
    # a float or bool count would pass the range checks and fail in numpy inside
    # solve, and so would any float, bool or negative seed
    with pytest.raises(ValueError, match=field):
        PsoParams(**{field: value})
    assert getattr(PsoParams(**{field: np.int64(3)}), field) == 3


def test_solve_reads_trace_and_answer_off_the_stepped_swarms():
    # a non-default shape: N = 3, M = 4, k = 2, swarms of 20 and 25
    sc, k = _scenario(n=3, m=4), 2
    params = PsoParams(n_bs=20, n_ps=25, iterations=30, seed=8)
    swarms = init_swarms([sc], [params], k)
    # the trace _replay derives from the recorded gains is the live global best
    running = []
    for _ in range(params.iterations):
        step(swarms)
        running.append(max(swarms.ps.glo_score[0], swarms.bs.glo_score[0]))
    sol = solve(sc, params, k)
    assert sol.trace.tobytes() == np.array(running).tobytes()
    assert sol.x_init.tobytes() == (swarms.ps.glo_pos[0] * swarms.usable_len).tobytes()
    assert sol.w_tilde.tobytes() == swarms.bs.glo_pos[0].tobytes()


# config keys whose change leaves the swarm's inputs alone and moves only the
# fitness map (the warden gain budget, P_max or Bob's noise)
_FITNESS_MAP_KEYS = {"rho_w": 0.2, "sigma_w_dbm": -95.0, "delta_sigma_db": 3.0,
                     "sigma_b_dbm": -90.0, "p_max_dbm": 20.0}
# config keys that move Bob, the warden centre or radius, or the geometry: the
# height, length, waveguide count (with its y coordinates), the y spacing alone,
# the antennas per waveguide and their spacing, and the constants
_RUN_KEYS = {"bob_x_m": 14.0, "willie_y_m": -7.5, "delta_r_m": 1.5, "height_m": 2.5,
             "waveguide_length_m": 24.0, "num_waveguides": 3, "wg_spacing_m": 2.0,
             "pas_per_waveguide": 2, "pa_spacing_m": 0.006, "carrier_freq_hz": 30e9,
             "n_eff": 1.5}


def test_memo_replays_only_for_the_same_swarm_inputs(monkeypatch):
    # in one run_many call on a scenario and a moved copy that shares its memo,
    # the copy is answered by replaying the scenario's run only when it moves
    # the fitness map alone: Bob, the warden centre or radius, the geometry,
    # the constants and the PSO parameters each start a run of their own, and
    # the same scenario passed again is answered once
    base = {"num_waveguides": 2, "pas_per_waveguide": 1, "pa_spacing_m": 0.0054,
            "bob_x_m": 15.0, "bob_y_m": 4.0, "willie_x_m": 5.0, "willie_y_m": -8.0}
    params = PsoParams(n_bs=6, n_ps=5, iterations=12, seed=3)
    runs, replays = [], []
    replay, start = mwmp._replay, mwmp.init_swarms
    monkeypatch.setattr(mwmp, "_replay", lambda *a: replays.append(1) or replay(*a))
    monkeypatch.setattr(mwmp, "init_swarms", lambda *a: runs.extend(a[0]) or start(*a))

    def taken(sc, moved_sc, moved_params=params):
        """The scenarios that ran, and the twin replays, of one run_many call."""
        moved = dataclasses.replace(moved_sc, memo=sc.memo)
        runs.clear()
        replays.clear()
        mwmp.run_many([sc, moved], [params, moved_params], 1)
        events = (["sc" if s is sc else "moved" for s in runs], len(replays) // 2)
        sol = solve(moved, moved_params)
        alone = solve(dataclasses.replace(moved_sc, memo={}), moved_params)
        assert (sol.rate, sol.power, sol.trace.tobytes()) == (
            alone.rate, alone.power, alone.trace.tobytes())
        return events

    def scenario(**over):
        return config_from_dict({**base, **over}).scenario("mwmp")

    for key, value in _FITNESS_MAP_KEYS.items():
        assert taken(scenario(), scenario(**{key: value})) == (["sc"], 2), key
    for key, value in _RUN_KEYS.items():
        assert taken(scenario(), scenario(**{key: value})) == (["sc", "moved"], 2), key
    sc = scenario()
    for name in ("wavelength", "k_c", "k_g", "eta"):
        moved = dataclasses.replace(sc, pc=dataclasses.replace(
            sc.pc, **{name: getattr(sc.pc, name) * 1.01}))
        assert taken(scenario(), moved) == (["sc", "moved"], 2), name
    for name in ("n_bs", "n_ps", "iterations", "seed"):
        moved_params = dataclasses.replace(params, **{name: getattr(params, name) + 1})
        assert taken(scenario(), scenario(), moved_params) == (["sc", "moved"], 2), name
    assert taken(scenario(), scenario()) == (["sc"], 1)
    # k is one per call: a call at k = 2 runs on the memo a call at k = 1 filled
    sc = scenario()
    solve(sc, params)
    runs.clear()
    solve(sc, params, 2)
    assert runs == [sc]
    # the key is read at lookup time: Bob moved in place is a new trial
    sc = scenario()
    solve(sc, params)
    sc.r_b[0] = 14.0
    runs.clear()
    solve(sc, params)
    assert runs == [sc]


def test_solve_runs_again_for_a_fitness_map_a_filled_memo_lacks(monkeypatch):
    # the memo keeps answers, not runs: a solve that moves only the fitness map
    # on a memo an earlier solve filled runs TwinPSO, with the bits of a solve
    # on an empty memo
    params = PsoParams(n_bs=6, n_ps=5, iterations=12, seed=3)
    sc = _scenario()
    solve(sc, params)
    runs = []
    start = mwmp.init_swarms
    monkeypatch.setattr(mwmp, "init_swarms", lambda *a: runs.extend(a[0]) or start(*a))
    for moved in (dataclasses.replace(sc, sigma_b_sq=2.0 * sc.sigma_b_sq),
                  dataclasses.replace(sc, p_max=0.5 * sc.p_max)):
        runs.clear()
        sol = solve(moved, params)
        assert runs == [moved]
        alone = solve(dataclasses.replace(moved, memo={}), params)
        assert (sol.rate, sol.power) == (alone.rate, alone.power)
        for name in ("trace", "x_init", "w_tilde"):
            assert getattr(sol, name).tobytes() == getattr(alone, name).tobytes(), name
    assert len(sc.memo) == 3
    assert all(isinstance(v, mwmp.MwmpSolution) for v in sc.memo.values())


def test_stored_answer_serves_only_its_own_inputs():
    # an answer is stored under everything it depends on: a scenario with
    # another fitness map, radius, k, PSO parameters, geometry or constants
    # on the same memo gets its own answer, never the one stored before it
    base = {"num_waveguides": 2, "pas_per_waveguide": 1, "pa_spacing_m": 0.0054,
            "bob_x_m": 15.0, "bob_y_m": 4.0, "willie_x_m": 5.0, "willie_y_m": -8.0}
    params = PsoParams(n_bs=6, n_ps=5, iterations=12, seed=3)

    def scenario(**over):
        return config_from_dict({**base, **over}).scenario("mwmp")

    def poisoned():
        """A solved scenario whose stored answer reads rate -1."""
        sc = scenario()
        solve(sc, params)
        (key,) = [key for key, v in sc.memo.items() if isinstance(v, mwmp.MwmpSolution)]
        sc.memo[key] = dataclasses.replace(sc.memo[key], rate=-1.0)
        return sc

    assert solve(poisoned(), params).rate == -1.0  # a lookup does read the stored answer
    sc = scenario()
    others = [(scenario(**{key: value}), params, 1)
              for key, value in {**_FITNESS_MAP_KEYS, **_RUN_KEYS}.items()]
    others += [(dataclasses.replace(sc, pc=dataclasses.replace(
        sc.pc, **{name: getattr(sc.pc, name) * 1.01})), params, 1)
        for name in ("wavelength", "k_c", "k_g", "eta")]
    others += [(sc, dataclasses.replace(params, **{name: getattr(params, name) + 1}), 1)
               for name in ("n_bs", "n_ps", "iterations", "seed")]
    others.append((sc, params, 2))
    for other, p, k in others:
        sol = solve(dataclasses.replace(other, memo=poisoned().memo), p, k)
        alone = solve(dataclasses.replace(other, memo={}), p, k)
        assert (sol.rate, sol.power, sol.trace.tobytes()) == (
            alone.rate, alone.power, alone.trace.tobytes())


@pytest.mark.parametrize("n", [1, mwmp._BATCH, mwmp._BATCH + 1, 30])
def test_run_many_splits_runs_into_even_chunks(monkeypatch, n):
    # n runs of one shape step in the fewest chunks of at most _BATCH runs,
    # whose sizes differ by at most one
    scenarios = [_scenario(bob=(1.0 + 0.5 * i, 3.0)) for i in range(n)]
    sizes = []
    start = mwmp.init_swarms
    monkeypatch.setattr(mwmp, "init_swarms", lambda *a: sizes.append(len(a[0])) or start(*a))
    mwmp.run_many(scenarios, [PsoParams(n_bs=3, n_ps=3, iterations=2, seed=i)
                              for i in range(n)], 1)
    assert len(sizes) == -(-n // mwmp._BATCH) and sum(sizes) == n
    assert max(sizes) <= mwmp._BATCH and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("k", [True, 2.0], ids=["bool", "float"])
def test_warm_memo_still_rejects_non_integer_ring_counts(k):
    # True == 1 and 2.0 == 2, so the answer stored at k = 1 or 2 would match
    # them if k were checked only on a real run
    sc = _scenario()
    params = PsoParams(n_bs=4, n_ps=4, iterations=3, seed=1)
    solve(sc, params, int(k))
    with pytest.raises(ValueError, match="k, the number of sampling rings, must be an "
                                         "integer >= 1"):
        solve(sc, params, k)


def test_run_many_equals_lone_runs_bit_for_bit(monkeypatch):
    # more runs than one chunk, scenarios that another's run serves by replay
    # (Bob's noise only rescales every score, so no decision moves), one
    # scenario passed twice and one of another geometry, in one call: every
    # answer is that of a lone run on an empty memo, and the memo holds
    # answers only
    n = mwmp._BATCH + 3
    memo = {}
    base = [dataclasses.replace(_scenario(n=3, m=2, bob=(1.0 + i, 3.0 - 0.4 * i)), memo=memo)
            for i in range(n)]
    other = dataclasses.replace(_scenario(n=2, m=1, bob=(2.5, 6.0)), memo=memo)
    params = {id(sc): PsoParams(n_bs=5, n_ps=4, iterations=6, seed=i)
              for i, sc in enumerate(base + [other])}
    noisier = [dataclasses.replace(base[i], sigma_b_sq=2.0 * base[i].sigma_b_sq) for i in (0, 2)]
    for sc, trial in zip(noisier, (0, 2)):
        params[id(sc)] = params[id(base[trial])]
    batch = base + noisier + [base[3], other]
    sizes = []
    start = mwmp.init_swarms
    monkeypatch.setattr(mwmp, "init_swarms", lambda *a: sizes.append(len(a[0])) or start(*a))
    mwmp.run_many(batch, [params[id(sc)] for sc in batch], 1)
    # the n trials run in two even chunks, the other geometry on its own
    assert sorted(sizes) == [1, n // 2, (n + 1) // 2]
    assert len(memo) == n + len(noisier) + 1
    assert all(isinstance(v, mwmp.MwmpSolution) for v in memo.values())
    sizes.clear()
    for sc in batch:
        p = params[id(sc)]
        sol = solve(sc, p)
        alone = solve(dataclasses.replace(sc, memo={}), p)
        assert (sol.rate, sol.power) == (alone.rate, alone.power)
        for name in ("trace", "x_init", "w_tilde"):
            assert getattr(sol, name).tobytes() == getattr(alone, name).tobytes(), name
    assert sizes == [1] * len(batch)  # the lone runs only: every answer came from the memo


def test_stacked_renormalization_redraws_from_its_own_trials_generator():
    # a zero BS row in trial 1 is redrawn from trial 1's generator as in a lone
    # run of that trial; trial 0's generator does not move
    pos = mwmp._random_unit_rows(np.random.default_rng(0), 6, 3).reshape(2, 3, 3)
    pos[1, 2] = 0.0
    lone = [pos[b:b + 1].copy() for b in range(2)]
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    lone_rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    untouched = rngs[0].bit_generator.state
    mwmp._renormalize_rows(pos, rngs)
    for b in range(2):
        mwmp._renormalize_rows(lone[b], [lone_rngs[b]])
        assert pos[b].tobytes() == lone[b][0].tobytes()
        assert rngs[b].bit_generator.state == lone_rngs[b].bit_generator.state
    assert rngs[0].bit_generator.state == untouched
    assert rngs[1].bit_generator.state != np.random.default_rng(2).bit_generator.state
    np.testing.assert_allclose(np.linalg.norm(pos, axis=-1), 1.0, atol=1e-12)
