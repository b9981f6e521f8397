"""Single-antenna solver against brute-force covertness scans and rate grids."""

import dataclasses

import numpy as np
import pytest

from passcovert import (CovertnessSpec, ExperimentConfig, NoiseUncertainty, Scenario,
                        WillieUncertainty, achievable_rate, forbidden_zone, harness,
                        optimal_detection, optimal_position)
from passcovert.geometry import PassGeometry
from passcovert.swsp import _positions_at, _rates, _search, rate_trace, solve


def _scenario(bob=(20.0, 6.0), willie=(7.0, -9.0), rho=0.1, delta_r=0.5,
              p_max=1.0, length=25.0):
    cfg = ExperimentConfig()
    return Scenario(
        r_b=np.array([bob[0], bob[1], 0.0]),
        willie=WillieUncertainty(np.array([willie[0], willie[1], 0.0]), delta_r),
        noise_w=NoiseUncertainty(cfg.sigma_w_sq_watts, cfg.delta_sigma),
        covertness=CovertnessSpec(rho),
        sigma_b_sq=cfg.sigma_b_sq_watts,
        p_max=p_max,
        geom=PassGeometry.single_waveguide(3.0, length),
        pc=cfg.phys_constants(),
    )


def _disk_points(sc, n_angles=60, n_radii=18):
    """Dense polar sample of the warden's disk (boundary included), radius-major."""
    radii = np.linspace(0.0, sc.willie.radius, n_radii)
    angles = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    unit = np.column_stack([np.cos(angles), np.sin(angles)])
    return (sc.willie.center[:2] + radii[:, None, None] * unit).reshape(-1, 2)


def _worst_xi(sc, pts, x, power):
    """Exact-geometry covertness oracle: worst warden error rate over the disk
    sample ``pts`` for an antenna at x with the given power."""
    d_sq = (pts[:, 0] - x) ** 2 + pts[:, 1] ** 2 + sc.geom.height**2
    s = power * sc.pc.eta / d_sq
    _, xi = optimal_detection(s, sc.noise_w)
    return float(np.min(xi))


def test_zone_absent_cases():
    sc = _scenario()
    assert forbidden_zone(0.0, sc).interval is None  # no radiated power, no zone
    # below the height threshold the 3-D distance alone guarantees covertness
    tiny = forbidden_zone(1e-7, sc)
    assert tiny.d_bou < sc.geom.height
    assert tiny.interval is None


def test_zone_derived_instance():
    sc = _scenario()
    zone = forbidden_zone(1.0, sc)
    assert zone.d_bou == pytest.approx(345.3417979352292, rel=1e-12)
    assert zone.d_tot == pytest.approx(345.82876712074926, rel=1e-12)
    assert zone.interval is not None
    # spans the entire waveguide for this layout
    assert zone.interval[0] < 0.0 and zone.interval[1] > sc.geom.length
    half = zone.d_tot * np.sin(zone.theta)
    assert half == pytest.approx(np.sqrt(zone.d_tot**2 - 81.0), rel=1e-12)


def test_zone_against_brute_force_covertness_scan():
    sc = _scenario()
    power = 2.5e-3
    zone = forbidden_zone(power, sc)
    assert zone.interval is not None
    target = 1.0 - sc.covertness.rho_w
    xs = np.linspace(0.0, 25.0, 2000)
    pts = _disk_points(sc)
    for x in xs:
        worst = _worst_xi(sc, pts, x, power)
        if zone.interval[0] + 1e-6 < x < zone.interval[1] - 1e-6:
            assert worst < target + 1e-9
        elif x < zone.interval[0] - 1e-6 or x > zone.interval[1] + 1e-6:
            assert worst >= target - 1e-9


def test_zone_monotone_in_power(rng):
    sc = _scenario()
    for _ in range(40):
        p1, p2 = np.sort(rng.uniform(1e-5, 5e-3, 2))
        z1, z2 = forbidden_zone(p1, sc), forbidden_zone(p2, sc)
        if z1.interval is None:
            continue
        assert z2.interval is not None
        assert z2.interval[0] <= z1.interval[0] + 1e-12
        assert z2.interval[1] >= z1.interval[1] - 1e-12


@pytest.mark.parametrize("rho", [0.0, 1e-300])
def test_zone_rho_zero_is_endless(rho):
    # a zero warden gain budget forbids every position at any positive power;
    # rho_w = 0 once took its own path and raised
    sc = _scenario(rho=rho)
    assert forbidden_zone(0.5, sc).interval == (-np.inf, np.inf)
    assert optimal_position(0.5, sc) is None
    assert forbidden_zone(0.0, sc).interval is None


def test_optimal_position_unblocked():
    sc = _scenario()
    assert optimal_position(1e-5, sc) == pytest.approx(20.0)
    far_bob = _scenario(bob=(40.0, 6.0))
    assert optimal_position(1e-5, far_bob) == pytest.approx(25.0)  # clamped to the end


def test_optimal_position_boundary_case():
    # zone [5, 30] on a 25 m waveguide leaves [0, 5]; nearest point to 20 is 5
    sc = _scenario(willie=(17.5, 0.0), length=25.0)
    target_zone = (5.0, 30.0)
    for power in np.linspace(1e-4, 1e-2, 400):
        z = forbidden_zone(power, sc)
        if z.interval is not None and abs(z.interval[0] - target_zone[0]) < 0.05:
            x = optimal_position(power, sc)
            assert x == pytest.approx(z.interval[0], abs=1e-9)
            # grid oracle over achievable rates of feasible positions
            xs = np.linspace(0.0, 25.0, 100_000)
            feasible = ~((xs > z.interval[0]) & (xs < z.interval[1]))
            rates = np.array([achievable_rate(v, power, sc) for v in xs[feasible]])
            assert achievable_rate(x, power, sc) >= rates.max() - 1e-9
            break
    else:
        pytest.fail("no power produced the intended zone")


def test_optimal_position_infeasible():
    sc = _scenario()
    assert optimal_position(1.0, sc) is None  # the 345 m zone swallows the waveguide


def test_solve_unconstrained_budget():
    # warden far away and a small budget: no zone at p_max, antenna above Bob
    sc = _scenario(willie=(1000.0, -900.0), p_max=1e-4)
    sol = solve(sc, 1e-6)
    assert sol.feasible
    assert sol.p_opt == pytest.approx(1e-4, rel=1e-9)
    assert sol.x_opt == pytest.approx(20.0)


def test_solve_reported_instance():
    cfg = ExperimentConfig()
    sol = solve(cfg.scenario("swsp"), cfg.delta_p())
    assert sol.feasible
    assert sol.x_opt == pytest.approx(22.0, abs=1.0)


def test_solve_matches_grid_oracle():
    sc = _scenario()
    delta_p = sc.p_max / 1e5
    sol = solve(sc, delta_p)
    powers = np.linspace(delta_p, sc.p_max, 300)
    xs = np.linspace(0.0, sc.geom.length, 300)
    best = 0.0
    center = sc.willie.center
    for p in powers:
        # exact disk feasibility: worst-case distance to the uncertainty disk
        d2_min = np.maximum(np.hypot(xs - center[0], center[1]) - sc.willie.radius,
                            0.0) ** 2 + sc.geom.height**2
        _, xi = optimal_detection(p * sc.pc.eta / d2_min, sc.noise_w)
        ok = xi >= 1.0 - sc.covertness.rho_w - 1e-9
        if not ok.any():
            break
        d_b = (sc.r_b[0] - xs[ok]) ** 2 + sc.r_b[1] ** 2 + sc.geom.height**2
        rate = np.log2(1.0 + p * sc.pc.eta / (d_b * sc.sigma_b_sq)).max()
        best = max(best, float(rate))
    slack = sol.rate - np.log2(1.0 + (sol.p_opt - delta_p) / sol.p_opt
                               * (2.0**sol.rate - 1.0))
    assert sol.rate >= best - slack - 1e-9


def test_solution_is_covert_on_dense_disk():
    for willie in [(7.0, -9.0), (12.0, 1.0), (20.0, 5.0), (3.0, 0.5)]:
        sc = _scenario(willie=willie)
        sol = solve(sc, sc.p_max / 1e5)
        assert sol.feasible
        worst = _worst_xi(sc, _disk_points(sc, n_angles=80, n_radii=25), sol.x_opt, sol.p_opt)
        assert worst >= 1.0 - sc.covertness.rho_w - 1e-9


def test_halving_resolution_never_hurts():
    sc = _scenario()
    coarse = solve(sc, 4e-4)
    fine = solve(sc, 2e-4)
    finest = solve(sc, 1e-4)
    assert fine.rate >= coarse.rate - 1e-12
    assert finest.rate >= fine.rate - 1e-12


def test_solve_rho_zero_infeasible():
    sc = _scenario(rho=0.0)
    sol = solve(sc, 1e-4)
    assert not sol.feasible
    assert sol.rate == 0.0
    assert sol.p_opt == 0.0


def test_rate_trace_monotone():
    sc = _scenario()
    powers, trace = rate_trace(sc, sc.p_max / 5000.0)
    assert np.array_equal(powers, sc.p_max / 5000.0 * np.arange(1, trace.size + 1))
    assert np.all(np.diff(trace) >= 0.0)
    assert trace[-1] == pytest.approx(solve(sc, sc.p_max / 5000.0).rate, rel=1e-12)


def test_early_termination_matches_full_scan():
    # the returned optimum equals the best over an explicit full scan of the
    # same power grid restricted to feasible steps before the first gap
    sc = _scenario()
    delta_p = 1e-4
    sol = solve(sc, delta_p)
    best = (0.0, None, 0.0)
    p = delta_p
    while p <= sc.p_max + 1e-12:
        x = optimal_position(p, sc)
        if x is None:
            break
        r = achievable_rate(x, p, sc)
        if r >= best[2]:
            best = (p, x, r)
        p += delta_p
    assert sol.rate == pytest.approx(best[2], rel=1e-12)
    assert sol.p_opt == pytest.approx(best[0], rel=1e-9)


def test_scenario_replace_keeps_validation():
    sc = _scenario()
    with pytest.raises(ValueError):
        dataclasses.replace(sc, sigma_b_sq=0.0)


@pytest.mark.parametrize("field", ["p_max", "sigma_b_sq"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_scenario_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(_scenario(), **{field: value})


def _full_scan(sc, delta_p):
    """The grid scan's answer (the last maximum over every feasible grid power)
    and the number of feasible grid powers."""
    powers, xs, rates = _search(sc, delta_p)
    if powers.size == 0:
        return (0.0, None, 0.0, False), 0
    best = int(np.flatnonzero(rates == rates.max())[-1])
    return (float(powers[best]), float(xs[best]), float(rates[best]), True), powers.size


def _exactness_cases():
    """(scenario, delta_p) pairs: sweep-shaped solves over the three sweep
    variables, then random stress scenarios."""
    cfg = ExperimentConfig()
    sweeps = {"target_error_rate": [0.80, 0.85, 0.90, 0.95],
              "power_budget": [10.0, 15.0, 20.0, 25.0, 30.0],
              "uncertainty_radius": [0.1, 0.5, 1.0, 1.5, 2.0]}
    for sc in harness.sample_scenarios(dataclasses.replace(cfg, trials=20, seed=5)):
        sc = dataclasses.replace(sc, geom=cfg.geometry_swsp())
        for variable, values in sweeps.items():
            for value in values:
                yield harness._apply_sweep_value(sc, variable, value), cfg.delta_p()
    rng = np.random.default_rng(20251018)
    for _ in range(1800):
        length = rng.uniform(5.0, 40.0)
        sc = Scenario(
            r_b=np.array([rng.uniform(-8.0, length + 8.0), rng.uniform(-10.0, 10.0), 0.0]),
            willie=WillieUncertainty(
                np.array([rng.uniform(-5.0, length + 5.0), rng.uniform(-10.0, 10.0), 0.0]),
                rng.uniform(0.0, 6.0)),
            noise_w=NoiseUncertainty(cfg.sigma_w_sq_watts, cfg.delta_sigma),
            covertness=CovertnessSpec(0.6 * (1.0 - rng.uniform())),  # (0, 0.6]
            sigma_b_sq=cfg.sigma_b_sq_watts,
            p_max=10.0 ** ((rng.uniform(-10.0, 45.0) - 30.0) / 10.0),
            geom=PassGeometry.single_waveguide(rng.uniform(1.0, 5.0), length),
            pc=cfg.phys_constants(),
        )
        # a step that does not divide p_max: 500 to 20,000 grid points
        yield sc, sc.p_max / (10.0 ** rng.uniform(2.7, 4.3) + 0.37)


def test_solve_equals_full_scan_bit_for_bit():
    # the branch-and-bound search returns the scan's grid point in all four
    # fields, on sweep-shaped and stress scenarios alike
    seen = {"cases": 0, "infeasible_suffix": 0, "all_infeasible": 0,
            "bob_outside": 0, "not_dividing": 0}
    mismatches = []
    for sc, delta_p in _exactness_cases():
        sol = solve(sc, delta_p)
        got = (sol.p_opt, sol.x_opt, sol.rate, sol.feasible)
        want, visited = _full_scan(sc, delta_p)
        if got != want:
            mismatches.append((sc.r_b, sc.willie, sc.p_max, delta_p, got, want))
        n = int(np.floor(sc.p_max / delta_p + 1e-9))
        seen["cases"] += 1
        seen["infeasible_suffix"] += 0 < visited < n
        seen["all_infeasible"] += visited == 0
        seen["bob_outside"] += not 0.0 <= sc.r_b[0] <= sc.geom.length
        seen["not_dividing"] += n * delta_p != sc.p_max
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[0]}"
    assert seen["cases"] >= 2000
    for key in ("infeasible_suffix", "all_infeasible", "bob_outside", "not_dividing"):
        assert seen[key] >= 50, seen


@pytest.mark.parametrize("delta_p", [float("nan"), float("inf"), 0.0, -1e-5, 1e-300])
def test_solve_rejects_bad_resolution(delta_p):
    # not a finite positive number, or more grid steps than fit in int64
    with pytest.raises(ValueError, match="resolution"):
        solve(_scenario(), delta_p)


def test_fine_grid_keeps_largest_power_on_ties():
    # at 1e-11 W the default instance has 1e11 grid powers, too many to scan,
    # and several of them share the maximal rate to the last bit; the answer
    # must be the largest of those, checked by a local scan around it
    cfg = ExperimentConfig()
    sc, delta_p = cfg.scenario("swsp"), 1e-11
    sol = solve(sc, delta_p)
    i_opt = int(round(sol.p_opt / delta_p))
    idx = np.arange(i_opt - 100_000, i_opt + 100_001)
    powers, xs = _positions_at(idx, sc, delta_p)
    rates = _rates(powers, xs, sc)
    ties = idx[rates == rates.max()]
    assert ties.size > 1
    assert ties[-1] == i_opt
    at = i_opt - idx[0]
    assert (sol.p_opt, sol.x_opt, sol.rate) == (powers[at], xs[at], rates[at])
