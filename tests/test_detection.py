"""Detection statistics against closed-form, Monte-Carlo and grid-scan oracles."""

import numpy as np
import pytest

from passcovert.channel import beam_gain
from passcovert.config import ExperimentConfig
from passcovert.detection import (CovertnessSpec, NoiseUncertainty, WillieUncertainty,
                                  covert_gain_budget, covert_power_rate, optimal_detection,
                                  sample_region, total_error_rate, worst_case_gain)
from passcovert.geometry import BeamVector, PassGeometry, PinchLayout

from detection_reference import five_branch

NU = NoiseUncertainty(1e-10, 10**0.2)  # -70 dBm nominal, 2 dB bound


def _mc_error_rate(gamma_th, s, nu, n, seed):
    """Monte Carlo of the two error events with fresh log-uniform noise draws."""
    rng = np.random.default_rng(seed)
    db = rng.uniform(-10 * np.log10(nu.delta), 10 * np.log10(nu.delta), n)
    sigma = nu.nominal * 10 ** (db / 10.0)
    p_false = np.mean(sigma >= gamma_th)
    p_miss = np.mean(s + sigma <= gamma_th)
    return p_false + p_miss


def test_total_error_rate_extreme_branches():
    lo, hi = NU.support
    s = 3e-11
    assert total_error_rate(lo * 0.5, s, NU) == pytest.approx(1.0)
    assert total_error_rate(lo, s, NU) == pytest.approx(1.0)
    assert total_error_rate(hi + s, s, NU) == pytest.approx(1.0)
    assert total_error_rate(hi + s * 2.0, s, NU) == pytest.approx(1.0)


def test_total_error_rate_matches_monte_carlo():
    lo, hi = NU.support
    cases = [(1.2e-10, 5e-11), (7e-11, 0.0), (1.05e-10, 2.1e-10), (1.5e-10, 8e-11)]
    for i, (gamma, s) in enumerate(cases):
        mc = _mc_error_rate(gamma, s, NU, 1_000_000, seed=100 + i)
        assert total_error_rate(gamma, s, NU) == pytest.approx(mc, abs=3e-3)


def test_total_error_rate_bounds(rng):
    gammas = rng.uniform(2e-11, 5e-10, 400)
    esses = rng.uniform(0.0, 4e-10, 400)
    xi = total_error_rate(gammas, esses, NU)
    assert np.all(xi >= 0.0)
    assert np.all(xi <= 1.0 + 1e-12)


def test_total_error_rate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        total_error_rate(0.0, 1e-11, NU)
    with pytest.raises(ValueError):
        total_error_rate(1e-10, -1e-12, NU)


def test_five_branch_equivalence(rng):
    # in-regime points: the middle branch exists only when s < nominal*(delta-1/delta)
    s_cap = NU.nominal * (NU.delta - 1.0 / NU.delta)
    lo, hi = NU.support
    for _ in range(2000):
        s = rng.uniform(0.0, s_cap * 0.999)
        gamma = rng.uniform(lo * 0.5, hi + s * 1.5)
        assert total_error_rate(gamma, s, NU) == pytest.approx(
            five_branch(gamma, s, NU), abs=1e-12)


def _grid_min(s, nu, n=100_000):
    lo, hi = nu.support
    grid = np.linspace(lo * 0.99, hi + s + lo, n)
    return float(np.min(total_error_rate(grid, np.full(n, s), nu)))


def test_optimal_detection_no_signal():
    gamma_opt, xi = optimal_detection(0.0, NU)
    assert xi == pytest.approx(1.0, abs=1e-12)
    assert gamma_opt == pytest.approx(NU.support[0], rel=1e-12)


def test_optimal_detection_derived_value():
    gamma_opt, xi = optimal_detection(0.5e-10, NU)
    assert gamma_opt == pytest.approx(1.1309573444801933e-10, rel=1e-12)
    assert xi == pytest.approx(0.36638443686014305, rel=1e-10)
    # independent grid scan attains (within resolution) the closed-form minimum
    assert _grid_min(0.5e-10, NU) == pytest.approx(xi, abs=1e-4)


def test_optimal_detection_zero_error_regime():
    s = NU.nominal * (NU.delta - 1.0 / NU.delta) * 1.5
    _, xi = optimal_detection(s, NU)
    assert xi == 0.0
    # the grid oracle finds a threshold with no detection errors at all
    assert _grid_min(s, NU) == pytest.approx(0.0, abs=1e-12)


def test_xi_min_non_increasing_in_s(rng):
    s = np.sort(rng.uniform(0.0, 1e-9, 200))
    _, xi = optimal_detection(s, NU)
    assert np.all(np.diff(xi) <= 1e-15)


def test_optimal_detection_attains_grid_minimum(rng):
    for _ in range(25):
        nominal = 10 ** rng.uniform(-12, -8)
        delta = 10 ** (rng.uniform(0.5, 5.0) / 10.0)
        nu = NoiseUncertainty(nominal, delta)
        s = nominal * 10 ** rng.uniform(-3, 1)
        _, xi = optimal_detection(s, nu)
        lo, hi = nu.support
        grid = np.linspace(lo * 0.99, hi + s + lo, 100_000)
        grid_min = float(np.min(total_error_rate(grid, np.full(grid.size, s), nu)))
        assert grid_min == pytest.approx(xi, abs=1e-4)
        assert grid_min >= xi - 1e-12  # the closed form can only be better


def test_covert_gain_budget_values():
    assert covert_gain_budget(CovertnessSpec(0.0), NU) == 0.0
    assert covert_gain_budget(CovertnessSpec(0.1), NU) == pytest.approx(
        6.087362643874328e-12, rel=1e-12)


def test_covert_gain_budget_round_trip(rng):
    for _ in range(50):
        rho = rng.uniform(0.01, 0.99)
        nu = NoiseUncertainty(10 ** rng.uniform(-12, -8), 10 ** (rng.uniform(0.5, 4) / 10))
        gamma_w = covert_gain_budget(CovertnessSpec(rho), nu)
        _, xi = optimal_detection(gamma_w, nu)
        assert xi == pytest.approx(1.0 - rho, abs=1e-10)


def test_covert_gain_budget_monotone():
    rhos = np.linspace(0.01, 0.9, 30)
    budgets = [covert_gain_budget(CovertnessSpec(r), NU) for r in rhos]
    assert np.all(np.diff(budgets) > 0)
    nominals = np.linspace(1e-11, 1e-9, 30)
    budgets = [covert_gain_budget(CovertnessSpec(0.1), NoiseUncertainty(n, NU.delta))
               for n in nominals]
    assert np.all(np.diff(budgets) > 0)


def test_covert_power_rate_branches():
    gamma_w, p_max, sigma_sq, g_bob = 6.1e-12, 1.0, 1e-13, 3.7e-11
    # gain-limited: the sampled warden gain sits exactly on the budget
    g_max = 2.3e-9
    p, rate = covert_power_rate(g_bob, g_max, gamma_w, p_max, sigma_sq)
    assert p < p_max and p * g_max == pytest.approx(gamma_w, rel=1e-15)
    assert rate == np.log2(g_bob / sigma_sq * p + 1.0)
    # budget-limited: the cap binds
    p, rate = covert_power_rate(g_bob, 1e-13, gamma_w, p_max, sigma_sq)
    assert p == p_max and rate == np.log2(g_bob / sigma_sq * p_max + 1.0)
    # a beam that leaks nothing to the samples gets the full budget, whatever Gamma_w
    for budget in (gamma_w, 0.0):
        assert covert_power_rate(g_bob, 0.0, budget, p_max, sigma_sq)[0] == p_max
    # no warden gain budget, no covert rate
    p, rate = covert_power_rate(g_bob, g_max, 0.0, p_max, sigma_sq)
    assert p == 0.0 and rate == 0.0


def test_covert_power_rate_scalar_matches_array(rng):
    # the swarm calls the rule on arrays, the solve tail and the reference
    # schemes on scalars: every element must carry the same bits
    g_bob = 10.0 ** rng.uniform(-14, -8, 400)
    g_max = 10.0 ** rng.uniform(-14, -8, 400)
    g_max[::7] = 0.0
    gamma_w = 6.1e-12
    powers, rates = covert_power_rate(g_bob, g_max, gamma_w, 1.0, 1e-13)
    assert np.any(powers < 1.0) and np.any(powers == 1.0)
    for i in range(g_bob.size):
        p, rate = covert_power_rate(float(g_bob[i]), float(g_max[i]), gamma_w, 1.0, 1e-13)
        assert float(p) == powers[i] and float(rate) == rates[i]


def test_warden_beam_gain_swsp_identity(pc28, rng):
    geom = PassGeometry.single_waveguide(3.0, 25.0)
    layout = PinchLayout(geom, np.array([9.0]))
    for power in (0.25, 1.0, 4.0):
        beam = BeamVector(np.ones(1, dtype=complex), power)
        r_w = np.array([rng.uniform(0, 25), rng.uniform(-9, 9), 0.0])
        d_sq = np.sum((r_w - np.array([9.0, 0.0, 3.0])) ** 2)
        gain = beam_gain(layout, beam.weights, [r_w], pc28)[0]
        assert gain * d_sq == pytest.approx(power * pc28.eta, rel=1e-12)


def test_warden_beam_gain_dense_oracle(pc28):
    from test_channel import _dense_oracle

    geom = PassGeometry(3.0, 25.0, 2, 1, (-1.5, 1.5), 0.0054)
    layout = PinchLayout(geom, np.array([4.0, 21.0]))
    w = np.array([0.6, 0.8j])
    beam = BeamVector(w, 2.0)
    r_w = (13.0, -5.0, 0.0)
    oracle = abs(_dense_oracle(layout, r_w, pc28) @ beam.weights) ** 2
    assert beam_gain(layout, beam.weights, [r_w], pc28)[0] == pytest.approx(oracle, rel=1e-10)


def test_sample_region_cross():
    wu = WillieUncertainty(np.array([7.0, -9.0, 0.0]), 0.5)
    pts = sample_region(wu, 1)
    expect = np.array([[7.0, -9.0, 0.0], [7.5, -9.0, 0.0], [6.5, -9.0, 0.0],
                       [7.0, -8.5, 0.0], [7.0, -9.5, 0.0]])
    np.testing.assert_allclose(pts, expect)
    assert pts.shape == (5, 3)


def test_sample_region_properties(rng):
    center = np.array([3.0, 2.0, 0.0])
    for k in (1, 2, 5):
        wu = WillieUncertainty(center, 1.7)
        pts = sample_region(wu, k)
        assert pts.shape == (4 * k + 1, 3)
        assert np.all(np.linalg.norm(pts - center, axis=1) <= 1.7 + 1e-12)
        assert np.all(pts[:, 2] == 0.0)
    degenerate = sample_region(WillieUncertainty(center, 0.0), 3)
    np.testing.assert_allclose(degenerate, np.tile(center, (13, 1)))
    with pytest.raises(ValueError):
        sample_region(wu, 0)



@pytest.mark.parametrize("k", [1.5, np.float64(2.0), True], ids=["fraction", "np_float", "bool"])
def test_sample_region_takes_only_integer_ring_counts(default_config, k):
    # k = 1.5 once sampled a 0.5 m disk at 0.33 m and 0.67 m, outside the disk
    # and never on its rim; the library callers pass k on unchecked, and each
    # gets a fresh scenario, whose empty channel memo cannot answer k = True
    from passcovert import benchmarks, mwmp

    with pytest.raises(ValueError, match="k, the number of sampling rings"):
        sample_region(WillieUncertainty(np.array([7.0, -9.0, 0.0]), 0.5), k)
    for kind in benchmarks.BenchmarkKind:
        with pytest.raises(ValueError, match="k, the number of sampling rings"):
            benchmarks.evaluate(kind, default_config.scenario("mwmp"), k=k)
    with pytest.raises(ValueError, match="k, the number of sampling rings"):
        mwmp.solve(default_config.scenario("mwmp"), mwmp.PsoParams(2, 2, 1), k=k)
    # the config rejects such a k when it is built, before any solve
    with pytest.raises(ValueError, match="config key 'willie_samples_k' must be a whole"):
        ExperimentConfig(willie_samples_k=k)


def test_sample_region_takes_numpy_integers(default_config):
    from passcovert import benchmarks

    wu = WillieUncertainty(np.array([7.0, -9.0, 0.0]), 0.5)
    assert np.array_equal(sample_region(wu, np.int64(2)), sample_region(wu, 2))
    for kind in benchmarks.BenchmarkKind:
        got = benchmarks.evaluate(kind, default_config.scenario("mwmp"), k=np.int64(2))
        want = benchmarks.evaluate(kind, default_config.scenario("mwmp"), k=2)
        assert (got.rate, got.power) == (want.rate, want.power)
        assert np.array_equal(got.w_tilde, want.w_tilde)

def test_worst_case_gain(pc28):
    geom = PassGeometry(3.0, 25.0, 2, 1, (-1.5, 1.5), 0.0054)
    layout = PinchLayout(geom, np.array([4.0, 21.0]))
    w = np.array([1.0, 1.0j]) / np.sqrt(2)
    wu = WillieUncertainty(np.array([7.0, -9.0, 0.0]), 0.5)
    pts = sample_region(wu, 1)
    single = worst_case_gain(layout, w, pts[:1], pc28)
    assert single == pytest.approx(float(beam_gain(layout, w, pts[:1], pc28)[0]))
    full = worst_case_gain(layout, w, pts, pc28)
    assert full >= single
    with pytest.raises(ValueError):
        worst_case_gain(layout, w, np.empty((0, 3)), pc28)
    with pytest.raises(ValueError):
        worst_case_gain(layout, 2.0 * w, pts, pc28)


def test_worst_case_gain_cross_is_optimistic(pc28):
    # the 4k+1 cross can only under-estimate the dense-disk maximum
    geom = PassGeometry(3.0, 25.0, 4, 3, (-4.5, -1.5, 1.5, 4.5), 0.0054)
    layout = PinchLayout(geom, np.array([5.0, 11.0, 16.0, 22.0]))
    rng = np.random.default_rng(7)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w /= np.linalg.norm(w)
    wu = WillieUncertainty(np.array([7.0, -4.0, 0.0]), 0.5)
    cross = worst_case_gain(layout, w, sample_region(wu, 1), pc28)
    angles = np.linspace(0, 2 * np.pi, 72, endpoint=False)
    radii = np.linspace(0, 0.5, 15)
    disk = np.array([wu.center + np.array([r * np.cos(a), r * np.sin(a), 0.0])
                     for r in radii for a in angles])
    dense = worst_case_gain(layout, w, disk, pc28)
    assert cross <= dense + 1e-18


@pytest.mark.parametrize("nominal, delta", [
    (float("nan"), 10**0.2), (float("inf"), 10**0.2),
    (1e-10, float("nan")), (1e-10, float("inf")), (1e-10, 1.0),
], ids=["nominal_nan", "nominal_inf", "delta_nan", "delta_inf", "delta_one"])
def test_noise_uncertainty_rejects_non_finite(nominal, delta):
    # NaN passed the old `<=` checks and silently disabled the forbidden zone;
    # delta = 1 leaves no uncertainty, and its message names "finite" too
    with pytest.raises(ValueError, match="finite"):
        NoiseUncertainty(nominal, delta)


@pytest.mark.parametrize("radius", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_willie_uncertainty_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError, match="finite"):
        WillieUncertainty(np.array([7.0, -9.0, 0.0]), radius)
