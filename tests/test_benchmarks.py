"""Reference schemes: array channels, weight policies, and power control."""

import dataclasses

import numpy as np
import pytest

from passcovert.benchmarks import (BenchmarkKind, DegenerateChannelError, evaluate,
                                   heuristic_pass_layout, mrt_weights, ula_channel,
                                   ula_channels, ula_positions, zf_weights)
from passcovert.channel import beam_gain, los_coeff
from passcovert.config import ExperimentConfig, config_from_dict
from passcovert.detection import WillieUncertainty
from passcovert.geometry import BeamVector, PassGeometry, PinchLayout


def _scenario(bob=(20.0, 6.0), willie=(7.0, -9.0), delta_r=0.5):
    return config_from_dict({
        "bob_x_m": bob[0], "bob_y_m": bob[1], "willie_x_m": willie[0],
        "willie_y_m": willie[1], "delta_r_m": delta_r,
    }).scenario("mwmp")


def test_ula_positions_centered(pc28):
    pos = ula_positions(4, 3.0, pc28)
    np.testing.assert_allclose(pos[:, 0],
                               np.array([-1.5, -0.5, 0.5, 1.5]) * pc28.wavelength / 2)
    assert np.all(pos[:, 2] == 3.0)
    assert pos[:, 0].sum() == pytest.approx(0.0, abs=1e-15)


def test_ula_channel_matches_los(pc28):
    r = (20.0, 6.0, 0.0)
    ch = ula_channel(r, 4, 3.0, pc28)
    for i, p in enumerate(ula_positions(4, 3.0, pc28)):
        assert ch[i] == pytest.approx(los_coeff(p, r, pc28), rel=1e-12)
    single = ula_channel(r, 1, 3.0, pc28)
    assert single[0] == pytest.approx(los_coeff((0.0, 0.0, 3.0), r, pc28), rel=1e-12)
    dists = np.linalg.norm(np.asarray(r) - ula_positions(4, 3.0, pc28), axis=1)
    np.testing.assert_allclose(np.abs(ch), np.sqrt(pc28.eta) / dists, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_ula_channels_rows_match_single_receiver(pc28, rng, n):
    receivers = np.column_stack([rng.uniform(0.0, 25.0, 9), rng.uniform(-7.5, 7.5, 9),
                                 np.zeros(9)])
    batch = ula_channels(receivers, n, 3.0, pc28)
    assert batch.shape == (9, n)
    pos = ula_positions(n, 3.0, pc28)
    for r, row in zip(receivers, batch):
        single = ula_channel(r, n, 3.0, pc28)
        assert single.shape == (n,)
        assert row.tobytes() == single.tobytes()
        # the per-receiver formula that evaluate once called 2 + |S| times
        dist = np.linalg.norm(r[None, :] - pos, axis=1)
        assert row.tobytes() == (np.sqrt(pc28.eta) * np.exp(-1j * pc28.k_c * dist)
                                 / dist).tobytes()


def test_mrt_weights(rng):
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = mrt_weights(h)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert abs(h @ w) == pytest.approx(np.linalg.norm(h), rel=1e-12)
    # no random unit vector beats the conjugate match
    trials = rng.standard_normal((10_000, 4)) + 1j * rng.standard_normal((10_000, 4))
    trials /= np.linalg.norm(trials, axis=1, keepdims=True)
    assert np.all(np.abs(trials @ h) <= abs(h @ w) + 1e-12)
    scalar = mrt_weights(np.array([1.0 - 1.0j]))
    assert abs(scalar[0]) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DegenerateChannelError):
        mrt_weights(np.zeros(3))


def test_zf_weights_null_and_projection(rng):
    for _ in range(20):
        h_b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h_w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = zf_weights(h_b, h_w)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert abs(h_w @ w) <= 1e-10 * np.linalg.norm(h_w)


def test_zf_reduces_to_mrt_when_orthogonal():
    h_b = np.array([1.0, 1.0j, 0.0, 0.0])
    h_w = np.array([0.0, 0.0, 2.0, -1.0j])  # conj-orthogonal pair
    assert abs(np.vdot(np.conj(h_w), np.conj(h_b))) == 0.0
    np.testing.assert_allclose(zf_weights(h_b, h_w), mrt_weights(h_b), atol=1e-12)


def test_zf_gram_schmidt_oracle(rng):
    h_b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h_w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = zf_weights(h_b, h_w)
    # Gram-Schmidt on {conj(h_w), conj(h_b)} yields the same direction
    c = np.conj(h_w) / np.linalg.norm(h_w)
    a = np.conj(h_b)
    gs = a - np.vdot(c, a) * c
    gs /= np.linalg.norm(gs)
    phase = gs @ np.conj(w) / abs(gs @ np.conj(w))
    np.testing.assert_allclose(w * phase, gs, atol=1e-12)


def test_zf_degenerate_cases():
    with pytest.raises(DegenerateChannelError):
        zf_weights(np.array([1.0 + 0j]), np.array([1.0 + 0j]))  # one antenna
    with pytest.raises(DegenerateChannelError):
        zf_weights(np.array([1.0, 1.0j]), np.zeros(2))
    h = np.array([1.0, 2.0j])
    with pytest.raises(DegenerateChannelError):
        zf_weights(h, 3.0 * h)  # parallel channels leave no null space


def test_heuristic_layout(pc28):
    geom = PassGeometry(3.0, 25.0, 4, 1, (-4.5, -1.5, 1.5, 4.5), 0.0054)
    layout = heuristic_pass_layout((12.0, 3.0, 0.0), geom)
    np.testing.assert_allclose(layout.x_init, 12.0)
    clamped = heuristic_pass_layout((-5.0, 3.0, 0.0), geom)
    np.testing.assert_allclose(clamped.x_init, 0.0)
    lam_half = pc28.wavelength / 2
    geom3 = PassGeometry(3.0, 25.0, 2, 3, (-1.5, 1.5), lam_half)
    centered = heuristic_pass_layout((20.0, 3.0, 0.0), geom3)
    np.testing.assert_allclose(centered.x_init, 20.0 - lam_half, rtol=1e-12)


def test_mimo_zf_exact_null_gets_full_budget():
    sc = _scenario(delta_r=0.0)  # all sample points collapse onto the nulled center
    res = evaluate(BenchmarkKind.MIMO_ZF, sc)
    assert res.power == pytest.approx(sc.p_max)
    assert res.rate > 0.0


def test_benchmarks_are_covert_on_samples():
    for willie in [(7.0, -9.0), (15.0, 2.0), (3.0, -1.0)]:
        sc = _scenario(willie=willie)
        gamma_w = sc.gain_budget()
        samples = sc.willie_samples(1)
        for kind in BenchmarkKind:
            res = evaluate(kind, sc)
            assert res.rate >= 0.0
            if res.w_tilde is None:
                continue
            if kind in (BenchmarkKind.PASS_ZF, BenchmarkKind.PASS_MRT):
                layout = heuristic_pass_layout(sc.r_b, sc.geom)
                beam = BeamVector(res.w_tilde, res.power)
                assert np.all(beam_gain(layout, beam.weights, samples, sc.pc) <= gamma_w + 1e-12)
            else:
                ch = np.stack([ula_channel(p, 4, 3.0, sc.pc) for p in samples])
                gains = res.power * np.abs(ch @ res.w_tilde) ** 2
                assert np.all(gains <= gamma_w + 1e-12)


def test_single_fixed_antenna_closed_form():
    # MIMO_MRT on the single-waveguide geometry is one fixed antenna at (0, 0, h):
    # P = min(Gamma_w / g_max, P_max) with g_max = eta / d^2 at the nearest of the
    # five axis-cross samples, and rate = log2(1 + P eta / (d_b^2 sigma_b^2))
    cfg = ExperimentConfig()
    height = cfg.height_m
    for bob, willie, p_max in [((20.0, 6.0), (7.0, -9.0), cfg.p_max_watts),
                               ((3.0, -1.0), (15.0, 2.0), cfg.p_max_watts),
                               ((0.0, 0.0), (2.0, 1.0), cfg.p_max_watts),
                               ((20.0, 6.0), (7.0, -9.0), 1e-4)]:  # P_max binds
        sc = dataclasses.replace(_scenario(bob=bob, willie=willie),
                                 geom=cfg.geometry_swsp(), p_max=p_max)
        r = sc.willie.radius
        cross = [(0.0, 0.0), (r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]
        d_w_sq = min((willie[0] + dx) ** 2 + (willie[1] + dy) ** 2 + height**2
                     for dx, dy in cross)
        g_max = sc.pc.eta / d_w_sq
        power = min(sc.gain_budget() / g_max, p_max)
        d_b_sq = bob[0] ** 2 + bob[1] ** 2 + height**2
        expected = np.log2(1.0 + power * sc.pc.eta / (d_b_sq * sc.sigma_b_sq))
        res = evaluate(BenchmarkKind.MIMO_MRT, sc)
        assert res.power == pytest.approx(power, rel=1e-12)
        assert res.rate == pytest.approx(expected, rel=1e-12)
    assert res.power == p_max  # the last case exercises the budget-limited branch


def test_mrt_beats_zf_under_orthogonal_channels():
    # same power control, orthogonal channels: the ZF projection is the MRT
    # match, so the rates coincide and MRT can never be worse
    sc = _scenario()
    h_b = np.array([1.0, 1.0j, 0.0, 0.0])
    h_w = np.array([0.0, 0.0, 2.0, -1.0j])
    w_zf = zf_weights(h_b, h_w)
    w_mrt = mrt_weights(h_b)
    assert abs(h_b @ w_mrt) >= abs(h_b @ w_zf) - 1e-12


def _bits(res):
    return res.rate, res.power, None if res.w_tilde is None else res.w_tilde.tobytes()


def test_channel_memo_never_answers_for_other_inputs():
    # every scenario replace() derives shares one memo; a call on any of them,
    # with any k and after an in-place edit, must give the bits of an empty
    # memo, and each moved input must change some family's answer, which a
    # stale entry would not
    sc = _scenario(delta_r=2.0)  # inner rings of k = 2 move the PASS answers
    other = {key: config_from_dict({key: value}).scenario("mwmp")
             for key, value in (("wg_spacing_m", 2.0), ("num_waveguides", 2),
                                ("carrier_freq_hz", 30e9))}
    moves = {
        "base": (sc, 1),
        "bob": (dataclasses.replace(sc, r_b=(15.0, -3.0, 0.0)), 1),
        "warden_center": (dataclasses.replace(
            sc, willie=WillieUncertainty(np.array([9.0, -4.0, 0.0]), sc.willie.radius)), 1),
        "radius": (dataclasses.replace(sc, willie=WillieUncertainty(sc.willie.center, 0.5)), 1),
        "wg_spacing": (dataclasses.replace(sc, geom=other["wg_spacing_m"].geom), 1),
        "num_waveguides": (dataclasses.replace(sc, geom=other["num_waveguides"].geom), 1),
        "constants": (dataclasses.replace(sc, pc=other["carrier_freq_hz"].pc), 1),
        "k": (sc, 2),
    }
    answers = {}
    for name, (moved, k) in moves.items():
        assert moved.memo is sc.memo
        for kind in BenchmarkKind:  # both families fill the one memo
            fresh = _bits(evaluate(kind, dataclasses.replace(moved, memo={}), k=k))
            assert _bits(evaluate(kind, moved, k=k)) == fresh, (name, kind)
            answers[name, kind] = fresh
    sc.r_b[:] = (22.0, 1.0, 0.0)  # an in-place edit under the cached entries
    for kind in BenchmarkKind:
        fresh = _bits(evaluate(kind, dataclasses.replace(sc, memo={})))
        assert _bits(evaluate(kind, sc)) == fresh, ("in_place", kind)
        answers["in_place", kind] = fresh
    for name in [*moves, "in_place"]:
        assert name == "base" or any(answers[name, kind] != answers["base", kind]
                                     for kind in BenchmarkKind), name
    # one entry per family and Bob/centre/geometry/constants set: "radius" and
    # "k" share base's entry, and the in-place edit adds a set
    assert len(sc.memo) == 2 * (len(moves) - 2 + 1)


@pytest.mark.parametrize("k", [True, 2.0], ids=["bool", "float"])
def test_warm_memo_still_rejects_non_integer_ring_counts(k):
    # True == 1 and 2.0 == 2 hash alike, so a memo filled at k = 1 and k = 2
    # would answer them if k were checked only on a miss
    sc = _scenario()
    for kind in BenchmarkKind:
        evaluate(kind, sc, k=1)
        evaluate(kind, sc, k=2)
        with pytest.raises(ValueError, match="k, the number of sampling rings, must be an "
                                             "integer >= 1"):
            evaluate(kind, sc, k=k)
