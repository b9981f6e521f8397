"""Acceptance suite: one test per top-level criterion, each at its stated
tolerance, printing one `[acceptance] ...: PASS/FAIL` line (run with -s to see
the lines for passing criteria)."""

import dataclasses
import json
import time

import numpy as np
import pytest

from passcovert import benchmarks, harness, mwmp, swsp
from passcovert.channel import _effective_batch
from passcovert.cli import main as cli_main
from passcovert.config import ExperimentConfig, config_from_dict
from passcovert.detection import (CovertnessSpec, NoiseUncertainty, WillieUncertainty,
                                  covert_power_rate, optimal_detection, total_error_rate,
                                  worst_case_gain)
from passcovert.geometry import PassGeometry, PinchLayout

from detection_reference import five_branch

DEFAULTS = ExperimentConfig()


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def target_sweep():
    return harness.run_sweep(DEFAULTS, "target_error_rate",
                             [0.80, 0.85, 0.90, 0.95], harness.SCHEMES)


@pytest.fixture(scope="module")
def power_sweep():
    return harness.run_sweep(DEFAULTS, "power_budget",
                             [10.0, 15.0, 20.0, 25.0, 30.0], harness.SCHEMES)


@pytest.fixture(scope="module")
def radius_sweep():
    return harness.run_sweep(DEFAULTS, "uncertainty_radius",
                             [0.1, 0.5, 1.0, 1.5, 2.0], harness.SCHEMES)


def _random_noise_models(rng, n):
    nominal = 10.0 ** rng.uniform(-12, -8, n)
    delta = 10.0 ** (rng.uniform(0.5, 5.0, n) / 10.0)
    s = nominal * 10.0 ** rng.uniform(-3, 1, n)
    return nominal, delta, s


def test_criterion_1_detection_closed_forms():
    t_start = time.time()
    rng = np.random.default_rng(20250810)
    n = 10_000
    nominal, delta, s = _random_noise_models(rng, n)

    # (a) the closed-form minimum matches a 1e5-threshold scan of total_error_rate
    worst_gap = 0.0
    grid_frac = np.linspace(0.0, 1.0, 100_000)
    for i in range(n):
        nu = NoiseUncertainty(nominal[i], delta[i])
        lo, hi = nu.support
        thresholds = lo * 0.99 + (hi + s[i] + lo - lo * 0.99) * grid_frac
        scan_min = float(np.min(total_error_rate(thresholds, s[i], nu)))
        _, xi = optimal_detection(s[i], nu)
        worst_gap = max(worst_gap, abs(scan_min - xi))

    # (b) a 1e6-draw Monte Carlo of the two error events, via the empirical CDF
    # of shared log-uniform draws (the estimator for each triple is the standard
    # MC average over the same 1e6 noise realizations)
    u = np.sort(rng.random(1_000_000))
    lo = nominal / delta
    two_ln = 2.0 * np.log(delta)
    gamma = rng.uniform(lo, nominal * delta + s)
    t_false = np.log(gamma / lo) / two_ln
    p_false_hat = 1.0 - np.searchsorted(u, t_false) / u.size
    with np.errstate(divide="ignore", invalid="ignore"):
        t_miss = np.where(gamma > s, np.log(np.maximum(gamma - s, 1e-300) / lo) / two_ln,
                          -np.inf)
    p_miss_hat = np.searchsorted(u, t_miss) / u.size
    xi_exact = np.array([total_error_rate(gamma[i], s[i],
                                          NoiseUncertainty(nominal[i], delta[i]))
                         for i in range(n)])
    mc_gap = float(np.max(np.abs(p_false_hat + p_miss_hat - xi_exact)))

    elapsed = time.time() - t_start
    _report("criterion 1 (detection closed forms)",
            worst_gap <= 1e-4 and mc_gap <= 3e-3 and elapsed <= 120.0,
            f"grid gap {worst_gap:.2e} (tol 1e-4), MC gap {mc_gap:.2e} (tol 3e-3), "
            f"{elapsed:.0f}s")


def test_criterion_2_branch_equivalence():
    rng = np.random.default_rng(20250811)
    worst = 0.0
    for _ in range(10_000):
        nominal = 10.0 ** rng.uniform(-12, -8)
        delta = 10.0 ** (rng.uniform(0.5, 5.0) / 10.0)
        nu = NoiseUncertainty(nominal, delta)
        s = rng.uniform(0.0, nominal * (delta - 1.0 / delta) * 0.999)  # in-regime
        lo, hi = nu.support
        gamma = rng.uniform(lo * 0.5, hi + 1.5 * s + lo)
        worst = max(worst, abs(total_error_rate(gamma, s, nu) - five_branch(gamma, s, nu)))
    _report("criterion 2 (five-branch equivalence)", worst <= 1e-12,
            f"max |direct - branched| = {worst:.2e} (tol 1e-12)")


def _swsp_scenario(rng):
    return config_from_dict({
        "bob_x_m": rng.uniform(0, 25), "bob_y_m": rng.uniform(-7.5, 7.5),
        "willie_x_m": rng.uniform(0, 25), "willie_y_m": rng.uniform(-7.5, 7.5),
    }).scenario("swsp")


def _disk_worst_xi(sc, x, power):
    radii = np.linspace(0.0, sc.willie.radius, 25)
    angles = np.linspace(0.0, 2 * np.pi, 80, endpoint=False)
    pts = sc.willie.center[:2] + np.stack(
        [np.outer(radii, np.cos(angles)).ravel(),
         np.outer(radii, np.sin(angles)).ravel()], axis=1)
    d_sq = (pts[:, 0] - x) ** 2 + pts[:, 1] ** 2 + sc.geom.height**2
    _, xi = optimal_detection(power * sc.pc.eta / d_sq, sc.noise_w)
    return float(np.min(xi))


def test_criterion_3_swsp_optimality():
    t_start = time.time()
    rng = np.random.default_rng(31)
    delta_p = DEFAULTS.p_max_watts / 1e5
    powers = np.linspace(delta_p, DEFAULTS.p_max_watts, 300)
    xs = np.linspace(0.0, 25.0, 300)
    sound = 0
    optimal = 0
    for _ in range(50):
        sc = _swsp_scenario(rng)
        sol = swsp.solve(sc, delta_p)
        # grid oracle: exact disk feasibility from the worst-case 3-D distance
        d2_min = (np.maximum(np.hypot(xs - sc.willie.center[0], sc.willie.center[1])
                             - sc.willie.radius, 0.0) ** 2 + sc.geom.height**2)
        d2_bob = (sc.r_b[0] - xs) ** 2 + sc.r_b[1] ** 2 + sc.geom.height**2
        _, xi = optimal_detection(np.outer(powers, sc.pc.eta / d2_min), sc.noise_w)
        feasible = xi >= 1.0 - sc.covertness.rho_w - 1e-9
        gamma = np.outer(powers, sc.pc.eta / d2_bob / sc.sigma_b_sq)
        rates = np.where(feasible, np.log2(1.0 + gamma), -np.inf)
        oracle_best = float(rates.max())
        if oracle_best <= 0.0:
            optimal += 1  # oracle found nothing feasible either
        else:
            i, _j = np.unravel_index(np.argmax(rates), rates.shape)
            slack = oracle_best - np.log2(
                1.0 + max(powers[i] - delta_p, 0.0) / powers[i] * (2.0**oracle_best - 1.0))
            if sol.feasible and sol.rate >= oracle_best - slack - 1e-9:
                optimal += 1
        if sol.feasible:
            if _disk_worst_xi(sc, sol.x_opt, sol.p_opt) >= 1.0 - sc.covertness.rho_w - 1e-9:
                sound += 1
        else:
            sound += 1  # nothing radiated, trivially covert
    elapsed = time.time() - t_start
    _report("criterion 3 (SWSP optimality + soundness)",
            optimal == 50 and sound == 50 and elapsed <= 300.0,
            f"grid-oracle bound held on {optimal}/50; covert on {sound}/50; "
            f"{elapsed:.0f}s")


def test_criterion_4_reported_placement():
    sol = swsp.solve(DEFAULTS.scenario("swsp"), DEFAULTS.delta_p())
    ok = sol.feasible and abs(sol.x_opt - 22.0) <= 1.0
    _report("criterion 4 (single-antenna placement at x = 22 m)", ok,
            f"x_opt = {sol.x_opt:.3f} m (target 22 +/- 1)")


def test_criterion_5_power_saturation():
    rng = np.random.default_rng(55)
    pc = DEFAULTS.phys_constants()
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        wg_y = tuple(np.sort(rng.uniform(-6, 6, n)))
        geom = PassGeometry(3.0, 25.0, n, m, wg_y, 0.0054)
        layout = PinchLayout(geom, rng.uniform(0, geom.usable_length, n))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w /= np.linalg.norm(w)
        samples = WillieUncertainty(
            np.array([rng.uniform(0, 25), rng.uniform(-7.5, 7.5), 0.0]), 0.5)
        pts = np.array([samples.center + np.array([dx, dy, 0.0])
                        for dx, dy in ((0, 0), (0.5, 0), (-0.5, 0), (0, 0.5), (0, -0.5))])
        gamma_w = 10.0 ** rng.uniform(-13, -9)
        p_max = 10.0 ** rng.uniform(-2, 0)
        g = worst_case_gain(layout, w, pts, pc)
        p = float(covert_power_rate(0.0, g, gamma_w, p_max, 1.0)[0])
        if gamma_w / g < p_max:
            # gain-limited branch: the budget must be saturated exactly
            if abs(p * g - gamma_w) > 1e-12 * gamma_w:
                bad += 1
        elif p != p_max:
            bad += 1  # budget-limited branch must clamp at p_max
    _report("criterion 5 (power saturates the gain budget)", bad == 0,
            f"{1000 - bad}/1000 instances satisfy P*g = Gamma_w or P = P_max "
            "(rel tol 1e-12)")


def _desk_scenario():
    return config_from_dict({
        "num_waveguides": 2, "pas_per_waveguide": 1, "pa_spacing_m": 0.0054,
        "bob_x_m": 15.0, "bob_y_m": 4.0, "willie_x_m": 5.0, "willie_y_m": -8.0,
    }).scenario("mwmp")


def _desk_oracle(sc):
    """Exhaustive search: 50x50 first-antenna positions times a 32x32 grid of
    per-waveguide phases (equal magnitudes, unit norm)."""
    swarms = mwmp.init_swarms([sc], [mwmp.PsoParams()], 1)
    g = np.linspace(0.0, 1.0, 50)
    pos = np.array(np.meshgrid(g, g, indexing="ij")).reshape(2, -1).T
    ph = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    p1, p2 = np.meshgrid(ph, ph, indexing="ij")
    weights = np.stack([np.exp(1j * p1.ravel()), np.exp(1j * p2.ravel())],
                       axis=1) / np.sqrt(2.0)
    pa_x = pos[:, :, None] * swarms.usable_len + swarms.pa_offsets[None, None, :]
    eff = _effective_batch(pa_x, swarms.wg_y, sc.geom.height, swarms.receivers[:, 0], sc.pc)
    best = -np.inf
    for i in range(0, weights.shape[0], 128):
        amp = np.einsum("krn,wn->krw", eff, weights[i:i + 128])
        gains = np.abs(amp) ** 2
        rates = covert_power_rate(gains[:, 0, :], gains[:, 1:, :].max(axis=1), sc.gain_budget(),
                                  sc.p_max, sc.sigma_b_sq)[1]
        best = max(best, float(rates.max()))
    return best


def test_criterion_6_twinpso_sanity():
    t_start = time.time()
    sc = _desk_scenario()
    oracle = _desk_oracle(sc)
    wins = 0
    monotone = True
    for seed in range(50):
        sol = mwmp.solve(sc, DEFAULTS.pso_params(seed), k=1)
        monotone &= bool(np.all(np.diff(sol.trace) >= 0.0))
        if sol.rate >= 0.95 * oracle:
            wins += 1
    elapsed = time.time() - t_start
    _report("criterion 6 (TwinPSO sanity)",
            monotone and wins >= 45 and elapsed <= 600.0,
            f"monotone traces: {monotone}; >=95% of grid optimum ({oracle:.3f}) "
            f"on {wins}/50 seeds; {elapsed:.0f}s")


def test_criterion_7_scheme_orderings(target_sweep):
    target = 0.90  # the reported-setup default target
    rates: dict[str, dict[int, float]] = {}
    for r in target_sweep:
        if r.sweep_value == target:
            rates.setdefault(r.scheme, {})[r.trial] = r.covert_rate
    trials = sorted(rates["swsp"])

    # PASS beats a conventional fixed-position antenna with the same antenna
    # count and RF chains: one antenna at (0, 0, h), i.e. the one-element ULA
    # under the same sampled power control, on the fixture's own scenarios
    covertness = CovertnessSpec(1.0 - target)
    rates["fixed"] = {
        t: benchmarks.evaluate(
            benchmarks.BenchmarkKind.MIMO_MRT,
            dataclasses.replace(sc, covertness=covertness, geom=DEFAULTS.geometry_swsp()),
            k=DEFAULTS.willie_samples_k).rate
        for t, sc in enumerate(harness.sample_scenarios(DEFAULTS))}

    def margin(a, b):
        d = np.array([rates[a][t] - rates[b][t] for t in trials])
        return float(d.mean()), float(2.0 * d.std(ddof=1) / np.sqrt(d.size))

    legs = ([("mwmp", "swsp")]
            + [("swsp", b) for b in ("pass_zf", "pass_mrt", "mimo_mrt", "fixed")]
            + [("mwmp", b) for b in ("mimo_zf", "mimo_mrt")])
    details = []
    ok = True
    for a, b in legs:
        m, bound = margin(a, b)
        ok &= m > bound
        details.append(f"{a}>{b}: {m:+.3f} (2*sem {bound:.3f})")
    # Reported, not asserted: the paper claims no ordering between one pinching
    # antenna and the four-antenna nulling array. A single radiator cannot null
    # the warden, so swsp always runs on the warden gain budget, while the 1.6 cm
    # half-wavelength ULA keeps a null across the whole 0.5 m disk and transmits
    # at full power in about 42% of trials.
    m, bound = margin("swsp", "mimo_zf")
    details.append(f"swsp vs mimo_zf (reported): {m:+.3f} (2*sem {bound:.3f})")
    _report("criterion 7 (scheme orderings on the reported setup)", ok,
            "; ".join(details))


def test_criterion_8_sweep_trends(target_sweep, power_sweep, radius_sweep):
    ok = True
    details = []
    means_t = harness.mean_rates(target_sweep)
    for s in harness.SCHEMES:
        vals = [means_t[(s, v)] for v in (0.80, 0.85, 0.90, 0.95)]
        if not np.all(np.diff(vals) <= 1e-9):
            ok = False
            details.append(f"{s} not non-increasing in target error rate")
    means_p = harness.mean_rates(power_sweep)
    for s in harness.SCHEMES:
        vals = [means_p[(s, v)] for v in (10.0, 15.0, 20.0, 25.0, 30.0)]
        inc = np.diff(vals)
        if not np.all(inc >= -1e-9):
            ok = False
            details.append(f"{s} not non-decreasing in power budget")
        if not np.all(np.diff(inc) <= 1e-9):
            ok = False
            details.append(f"{s} increments not diminishing")
    means_r = harness.mean_rates(radius_sweep)
    for s in harness.SCHEMES:
        vals = [means_r[(s, v)] for v in (0.1, 0.5, 1.0, 1.5, 2.0)]
        if not np.all(np.diff(vals) <= 1e-9):
            ok = False
            details.append(f"{s} not non-increasing in uncertainty radius")
    _report("criterion 8 (sweep trends)", ok,
            "; ".join(details) if details else
            "all six schemes monotone on all three sweeps, budget increments diminish")


def test_criterion_9_convergence_shape():
    swsp_rows = harness.run_convergence(DEFAULTS, "swsp")
    trace = np.array([r.covert_rate for r in swsp_rows])
    idx = min(15, trace.size) - 1
    swsp_ok = abs(trace[idx] - trace[-1]) <= 0.01 * trace[-1]

    cfg = dataclasses.replace(DEFAULTS, converge_inits=20)
    mwmp_rows = harness.run_convergence(cfg, "mwmp")
    mean_trace = np.array([r.covert_rate for r in mwmp_rows])
    mwmp_ok = abs(mean_trace[99] - mean_trace[59]) <= 0.02 * mean_trace[99]
    _report("criterion 9 (convergence shape)", swsp_ok and mwmp_ok,
            f"swsp trace: {trace.size} steps, step-15 gap "
            f"{abs(trace[idx] - trace[-1]) / trace[-1]:.2%} (tol 1%); "
            f"mwmp t60->t100 gap {(mean_trace[99] - mean_trace[59]) / mean_trace[99]:.2%} "
            "(tol 2%, 20 seeds)")


def test_criterion_10_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 5, "pso_iterations": 20, "seed": 7,
                                    "converge_inits": 3}))
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / f"sweep_{name}.csv"
        code = cli_main(["sweep", "--config", str(cfg_path), "--variable",
                         "target_error_rate", "--values", "0.85,0.9",
                         "--schemes", "swsp,mwmp,pass_zf", "--out", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    sweep_ok = payloads[0] == payloads[1]

    payloads = []
    for name in ("a", "b"):
        out = tmp_path / f"conv_{name}.csv"
        assert cli_main(["converge", "--config", str(cfg_path), "--case", "mwmp",
                         "--out", str(out)]) == 0
        payloads.append(out.read_bytes())
    converge_ok = payloads[0] == payloads[1]
    _report("criterion 10 (CLI byte determinism)", sweep_ok and converge_ok,
            "sweep and converge reruns byte-identical")
