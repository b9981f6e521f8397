"""Config parsing, scenario sampling, sweeps, traces and record emission."""

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from passcovert.config import ExperimentConfig, config_from_dict, load_config
from passcovert.harness import (CSV_HEADER, SCHEMES, SweepRecord, mean_rates,
                                read_records, records_to_csv, records_to_json,
                                run_convergence, run_sweep, sample_scenarios, trial_seed)


def _small_config(**over):
    base = dict(trials=6, pso_iterations=25, converge_inits=4, seed=99)
    base.update(over)
    return dataclasses.replace(ExperimentConfig(), **base)


def test_defaults_match_reported_setup(default_config):
    c = default_config
    sc = c.scenario("mwmp")
    assert c.carrier_freq_hz == 28e9 and c.n_eff == 1.4
    assert c.p_max_watts == pytest.approx(1.0)
    assert sc.sigma_b_sq == pytest.approx(1e-13)
    assert sc.noise_w.nominal == pytest.approx(1e-10)
    assert sc.noise_w.delta == pytest.approx(10**0.2)
    assert c.height_m == 3.0 and c.waveguide_length_m == 25.0
    assert c.num_waveguides == 4 and c.pas_per_waveguide == 3
    assert c.pa_spacing() == pytest.approx(c.phys_constants().wavelength / 2)
    assert c.delta_p() == pytest.approx(1e-5)
    assert c.pso_pop_bs == 30 and c.pso_pop_ps == 30
    assert c.pso_iterations == 100
    assert c.trials == 200
    np.testing.assert_allclose(sc.geom.wg_y_array, [-4.5, -1.5, 1.5, 4.5])


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"rho_w": 0.2, "trials": 10, "p_max_dbm": 20}))
    cfg = load_config(path)
    assert cfg.rho_w == 0.2 and cfg.trials == 10
    assert cfg.p_max_watts == pytest.approx(0.1)
    assert cfg.carrier_freq_hz == 28e9  # untouched keys keep defaults


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="valid keys"):
        config_from_dict({"rho": 0.1})
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="flat JSON object"):
        load_config(path)
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(path)


def test_config_rejects_stacked_waveguides():
    with pytest.raises(ValueError, match="distinct"):
        config_from_dict({"wg_spacing_m": 0}).scenario("mwmp")
    # a negative spacing only mirrors the layout; one waveguide needs no spacing
    mirrored = config_from_dict({"wg_spacing_m": -3.0}).scenario("mwmp").geom
    np.testing.assert_allclose(mirrored.wg_y_array, [4.5, 1.5, -1.5, -4.5])
    single = config_from_dict({"num_waveguides": 1, "wg_spacing_m": 0}).scenario("mwmp").geom
    assert single.wg_y == (0.0,)
    with pytest.raises(ValueError, match="valid keys"):
        config_from_dict({"pa_min_spacing_m": 0.005})


@pytest.mark.parametrize("key", ["num_waveguides", "pas_per_waveguide", "willie_samples_k",
                                 "pso_pop_bs", "pso_pop_ps", "pso_iterations", "trials",
                                 "converge_inits", "seed"])
def test_config_int_keys_reject_non_integers(key):
    # 1.5 once built a config that failed later in range() or named k or iterations
    for value in (1.5, np.float64(2.0), True):
        message = f"config key {key!r} must be a whole number, got {value!r}"
        with pytest.raises(ValueError) as built:
            ExperimentConfig(**{key: value})
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(ExperimentConfig(), **{key: value})
        assert str(built.value) == str(replaced.value) == message
    assert getattr(ExperimentConfig(**{key: np.int64(2)}), key) == 2


def test_sample_scenarios_region_and_determinism():
    cfg = _small_config(trials=200)
    scs = sample_scenarios(cfg)
    assert len(scs) == 200
    for sc in scs:
        assert 0.0 <= sc.r_b[0] <= 25.0 and -7.5 <= sc.r_b[1] <= 7.5
        c = sc.willie.center
        assert 0.0 <= c[0] <= 25.0 and -7.5 <= c[1] <= 7.5
        assert np.hypot(*(c[:2] - sc.r_b[:2])) >= 1.0
    again = sample_scenarios(cfg)
    for a, b in zip(scs, again):
        np.testing.assert_array_equal(a.r_b, b.r_b)
        np.testing.assert_array_equal(a.willie.center, b.willie.center)


def test_sample_scenarios_uniform_mean():
    scs = sample_scenarios(_small_config(trials=10_000, seed=5))
    xs = np.array([sc.r_b[0] for sc in scs])
    assert xs.mean() == pytest.approx(12.5, abs=0.3)


def test_trial_seed_stable():
    assert trial_seed(7, 0) == trial_seed(7, 0)
    assert trial_seed(7, 0) != trial_seed(7, 1)
    assert trial_seed(8, 0) != trial_seed(7, 0)


def test_run_sweep_validates_names():
    cfg = _small_config()
    with pytest.raises(ValueError, match="valid variables"):
        run_sweep(cfg, "bandwidth", [1.0], ("swsp",))
    with pytest.raises(ValueError, match="valid schemes"):
        run_sweep(cfg, "power_budget", [20.0], ("swsp", "dirty_precoding"))


@pytest.mark.parametrize("values, schemes", [([], ("swsp",)), ([20.0], ())],
                         ids=["no_values", "no_schemes"])
def test_run_sweep_rejects_empty_lists(values, schemes):
    # an empty list once gave no records, which the CLI wrote as a header-only CSV
    with pytest.raises(ValueError, match="at least one"):
        run_sweep(_small_config(), "power_budget", values, schemes)


@pytest.mark.parametrize("values, schemes", [([10.0, 20.0, 10.0], ("swsp",)),
                                             (["10", 10.0], ("swsp",)),
                                             ([10.0], ("swsp", "mwmp", "swsp"))],
                         ids=["value", "value_as_text", "scheme"])
def test_run_sweep_rejects_repeats(values, schemes):
    # a repeat once wrote copies of one (scheme, value, trial) record
    with pytest.raises(ValueError, match="distinct|repeat"):
        run_sweep(_small_config(trials=1), "power_budget", values, schemes)


@pytest.mark.parametrize("bad, message", [
    (None, "not 'NoneType'"), ([1], "not 'list'"), (object(), "not 'object'"),
], ids=["none", "list", "object"])
def test_run_sweep_names_a_value_that_is_not_a_number(bad, message):
    # a library caller's value of the wrong type once raised float()'s bare TypeError
    with pytest.raises(ValueError, match=r"sweep values must be numbers: float\(\) argument "
                                         r"must be a string or a real number, " + message):
        run_sweep(_small_config(trials=1), "power_budget", [10, bad], ("swsp",))


def test_run_sweep_records_and_reuse():
    cfg = _small_config(trials=5)
    records = run_sweep(cfg, "uncertainty_radius", [0.5, 1.0],
                        ("swsp", "mimo_mrt"))
    assert len(records) == 2 * 2 * 5
    assert {r.scheme for r in records} == {"swsp", "mimo_mrt"}
    assert {r.sweep_value for r in records} == {0.5, 1.0}
    # identical trial seeds across sweep values (common random numbers)
    seeds = {}
    for r in records:
        seeds.setdefault((r.scheme, r.trial), set()).add(r.seed)
    assert all(len(s) == 1 for s in seeds.values())
    means = mean_rates(records)
    assert means[("swsp", 0.5)] >= means[("swsp", 1.0)] - 1e-12


def test_run_sweep_derives_swsp_geometry_once(monkeypatch):
    # one geometry per sweep, not per record, and still one swsp.solve per
    # swsp record, in record order
    from passcovert import swsp
    derived, solved = [], []
    geometry_swsp, solve = ExperimentConfig.geometry_swsp, swsp.solve
    monkeypatch.setattr(ExperimentConfig, "geometry_swsp",
                        lambda self: derived.append(self) or geometry_swsp(self))
    monkeypatch.setattr(swsp, "solve",
                        lambda sc, delta_p: solved.append(solve(sc, delta_p)) or solved[-1])
    records = run_sweep(_small_config(trials=3), "power_budget", [10.0, 20.0],
                        ("pass_mrt", "swsp"))
    assert len(derived) == 1
    assert ([(s.rate, s.p_opt) for s in solved]
            == [(r.covert_rate, r.p_opt) for r in records if r.scheme == "swsp"])
    assert len(solved) == 2 * 3


@pytest.mark.parametrize("variable, values, message", [
    ("target_error_rate", [0.9, 1.5], "target_error_rate sweep value 1.5 must lie in [0, 1]"),
    ("uncertainty_radius", [0.5, -1.0],
     "uncertainty_radius sweep value -1.0 must be a finite non-negative number"),
    ("power_budget", [20.0, 4000.0],
     "power_budget sweep value = 4000.0 overflows the conversion from dB to linear"),
], ids=["error_rate_above_one", "radius_negative", "budget_overflow"])
def test_run_sweep_bad_last_value_fails_before_any_solve(monkeypatch, variable, values,
                                                         message):
    # every value's scenarios exist before the first solve; a bad last value
    # once failed only after the sweep had solved every value before it
    from passcovert import harness
    solved = []
    solve_scheme = harness.solve_scheme
    monkeypatch.setattr(harness, "solve_scheme",
                        lambda *args: solved.append(args[0]) or solve_scheme(*args))
    with pytest.raises((ValueError, OverflowError), match=re.escape(message)):
        run_sweep(_small_config(trials=3), variable, values, ("swsp",))
    assert solved == []


def test_run_sweep_solves_swsp_on_the_single_waveguide(monkeypatch):
    # swsp takes each trial on one antenna; every other solver gets the
    # configured multi-waveguide geometry
    from passcovert import benchmarks, mwmp, swsp
    seen = []
    swsp_solve, mwmp_solve, evaluate = swsp.solve, mwmp.solve, benchmarks.evaluate
    monkeypatch.setattr(swsp, "solve", lambda sc, delta_p: (
        seen.append(("swsp", sc.geom)) or swsp_solve(sc, delta_p)))
    monkeypatch.setattr(mwmp, "solve", lambda sc, params, k: (
        seen.append(("mwmp", sc.geom)) or mwmp_solve(sc, params, k=k)))
    monkeypatch.setattr(benchmarks, "evaluate", lambda kind, sc, k: (
        seen.append((kind.value, sc.geom)) or evaluate(kind, sc, k=k)))
    cfg = _small_config(trials=2, pso_iterations=5)
    records = run_sweep(cfg, "power_budget", [10.0, 20.0], SCHEMES)
    assert [scheme for scheme, _ in seen] == [r.scheme for r in records]
    multi = cfg.scenario("mwmp").geom
    assert multi.n_wg > 1 and multi.m_pa > 1
    for scheme, geom in seen:
        if scheme == "swsp":
            assert geom.n_wg == geom.m_pa == 1
        else:
            assert geom == multi


def test_run_sweep_power_budget_scales_grid():
    # swsp search keeps its relative resolution when the budget is swept
    cfg = _small_config(trials=3)
    records = run_sweep(cfg, "power_budget", [10.0, 30.0], ("swsp",))
    means = mean_rates(records)
    assert means[("swsp", 30.0)] >= means[("swsp", 10.0)] - 1e-12


def test_run_convergence_swsp():
    cfg = _small_config()
    rows = run_convergence(cfg, "swsp")
    rates = [r.covert_rate for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert all(r.trial == -1 and r.sweep_variable == "iteration" for r in rows)
    # recorded power steps carry the trace resolution
    assert rows[0].p_opt == pytest.approx(cfg.converge_delta_p())


@pytest.mark.parametrize("over", [{"converge_delta_p_watts": 2.0}, {"rho_w": 0.0}],
                         ids=["step_above_budget", "rho_zero"])
def test_run_convergence_swsp_without_feasible_power(over):
    # a trace that visits no power once reported the first grid power, even
    # one above P_max, next to its zero rate
    [row] = run_convergence(_small_config(**over), "swsp")
    assert (row.covert_rate, row.p_opt) == (0.0, 0.0)


def test_run_convergence_mwmp():
    cfg = _small_config(pso_iterations=15)
    rows = run_convergence(cfg, "mwmp")
    assert len(rows) == 15
    rates = [r.covert_rate for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    with pytest.raises(ValueError, match="valid cases"):
        run_convergence(cfg, "both")


def test_run_convergence_mwmp_rejects_zero_inits():
    # zero inits once ended in numpy's "need at least one array to stack"
    with pytest.raises(ValueError, match="converge_inits must be at least 1"):
        run_convergence(_small_config(converge_inits=0), "mwmp")


def test_emit_csv_round_trip(tmp_path):
    records = [SweepRecord("swsp", "power_budget", 10.0, 0, 1.234567890123456789,
                           3.3e-3, 42),
               SweepRecord("mwmp", "power_budget", 10.0, 1, np.pi, 1.0, 43)]
    path = tmp_path / "out.csv"
    path.write_text(records_to_csv(records))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ("scheme,sweep_variable,sweep_value,trial,"
                        "covert_rate_bps_hz,p_opt_watts,seed")
    assert len(lines[1].split(",")) == 7
    back = read_records(path, "csv")
    for a, b in zip(records, back):
        assert a.covert_rate == b.covert_rate  # bit-exact round trip
        assert a.p_opt == b.p_opt and a.seed == b.seed and a.trial == b.trial


def test_emit_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(records_to_csv([]))
    assert path.read_text() == ("scheme,sweep_variable,sweep_value,trial,"
                                "covert_rate_bps_hz,p_opt_watts,seed\n")


_JSON_ROW = ('"scheme": "swsp", "sweep_variable": "none", "sweep_value": 0, "trial": 0, '
             '"covert_rate_bps_hz": 1.5, "p_opt_watts": 0.5, "seed": 7')


@pytest.mark.parametrize("fmt, text", [
    ("csv", ""),
    ("csv", ",".join(CSV_HEADER) + "\nswsp,none\n"),
    ("csv", ",".join(CSV_HEADER) + "\nswsp,none,0,0,1.5,0.5,7,8\n"),
    ("json", "[{" + _JSON_ROW.replace(', "seed": 7', "") + "}]"),
    ("json", "{" + _JSON_ROW + "}"),
    ("json", "[1, 2]"),
    ("json", "[{" + _JSON_ROW.replace('"trial": 0', '"trial": 1.5') + "}]"),
    ("json", "[{" + _JSON_ROW.replace('"seed": 7', '"seed": 7.9') + "}]"),
    ("json", "[{" + _JSON_ROW.replace('"trial": 0', '"trial": true') + "}]"),
    ("json", "[{" + _JSON_ROW.replace('"covert_rate_bps_hz": 1.5',
                                      '"covert_rate_bps_hz": "nan"') + "}]"),
    ("json", "[{" + _JSON_ROW.replace('"scheme": "swsp"', '"scheme": 3') + "}]"),
    ("json", "[{" + _JSON_ROW + ', "extra": 1}]'),
    ("json", "[{" + _JSON_ROW),
    ("csv", b"\xff\xfe"),
    ("json", b"\xff\xfe"),
], ids=["empty_csv", "short_row", "long_row", "missing_key", "json_object", "json_numbers",
        "trial_fraction", "seed_fraction", "trial_bool", "rate_text", "scheme_number",
        "extra_key", "invalid_json", "csv_not_utf8", "json_not_utf8"])
def test_read_records_rejects_malformed_file(tmp_path, fmt, text):
    # these once raised a bare IndexError, KeyError, TypeError,
    # JSONDecodeError or UnicodeDecodeError, or were read after truncating a
    # fraction, taking true as 1, parsing text as a number or dropping an extra field
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=f"bad.{fmt}"):
        read_records(path, fmt)


def test_json_goldens_read_back_to_their_bytes():
    # the writer prints a whole float such as a budget of 10.0 dBm as 10, which
    # the reader's type checks must take as a number
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        assert records_to_json(read_records(path, "json")) == path.read_text(), path.name


def test_emit_json_round_trip(tmp_path):
    records = [SweepRecord("pass_zf", "uncertainty_radius", 0.5, 3,
                           0.12345678901234567, 2.5e-2, 7)]
    path = tmp_path / "out.json"
    path.write_text(records_to_json(records))
    parsed = json.loads(path.read_text())
    assert list(parsed[0].keys()) == ["scheme", "sweep_variable", "sweep_value",
                                      "trial", "covert_rate_bps_hz", "p_opt_watts",
                                      "seed"]
    back = read_records(path, "json")
    assert back[0].covert_rate == records[0].covert_rate


def test_emit_bad_format(tmp_path):
    path = tmp_path / "x.bin"
    path.write_text(records_to_csv([]))
    with pytest.raises(ValueError, match="valid formats"):
        read_records(path, "parquet")


def test_all_schemes_solvable_on_one_trial():
    cfg = _small_config(trials=1, pso_iterations=10)
    records = run_sweep(cfg, "target_error_rate", [0.9], SCHEMES)
    assert len(records) == len(SCHEMES)
    assert all(np.isfinite(r.covert_rate) and r.covert_rate >= 0.0 for r in records)


def test_emitted_rows_revalidate_post_hoc(tmp_path):
    # every row regenerates bit-exactly from its (scheme, sweep value, trial,
    # seed) coordinates, and the regenerated solution passes the sampled
    # covertness check; this is the post-hoc validation path for emitted files
    import dataclasses as dc

    from passcovert import mwmp, swsp
    from passcovert.channel import beam_gain
    from passcovert.geometry import BeamVector, PinchLayout
    from passcovert.harness import _apply_sweep_value, solve_scheme

    cfg = _small_config(trials=4, pso_iterations=15)
    records = run_sweep(cfg, "uncertainty_radius", [0.5, 1.5],
                        ("swsp", "mwmp", "pass_mrt"))
    path = tmp_path / "rows.csv"
    path.write_text(records_to_csv(records))
    scenarios = sample_scenarios(cfg)
    for row in read_records(path, "csv"):
        base = _apply_sweep_value(scenarios[row.trial], row.sweep_variable,
                                  row.sweep_value)
        rate, power, _ = solve_scheme(row.scheme, base, cfg, row.seed)
        assert rate == row.covert_rate and power == row.p_opt
        gamma_w = base.gain_budget()
        samples = base.willie_samples(cfg.willie_samples_k)
        if row.scheme == "swsp":
            sc = dc.replace(base, geom=cfg.geometry_swsp())
            sol = swsp.solve(sc, cfg.delta_p())
            if sol.feasible:
                layout = PinchLayout(sc.geom, np.array([sol.x_opt]))
                beam = BeamVector(np.ones(1, dtype=complex), sol.p_opt)
                gains = beam_gain(layout, beam.weights, samples, sc.pc)
                assert np.all(gains <= gamma_w + 1e-12)
        elif row.scheme == "mwmp":
            sol = mwmp.solve(base, cfg.pso_params(row.seed), k=cfg.willie_samples_k)
            layout = PinchLayout(base.geom, sol.x_init)
            beam = BeamVector(sol.w_tilde, sol.power)
            assert np.all(beam_gain(layout, beam.weights, samples, base.pc) <= gamma_w + 1e-12)


def _memo_arrays(memo: dict):
    """Every array held anywhere in a scenario memo's entries, stored
    solutions' fields included."""
    stack = list(memo.values())
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item):
            stack.extend(vars(item).values())


REFERENCE_SWEEPS = [("target_error_rate", [0.85, 0.9, 0.95]),
                    ("power_budget", [10.0, 20.0, 25.0]),
                    ("uncertainty_radius", [0.25, 0.5, 1.5])]


@pytest.mark.parametrize("variable, values", REFERENCE_SWEEPS)
def test_reference_channels_once_per_trial(channel_calls, variable, values):
    # ZF and MRT of one family share a trial's channels, and so do all values
    # but those of a radius sweep, which move the warden samples
    trials = 3
    run_sweep(_small_config(trials=trials), variable, values, SCHEMES[2:])
    per_trial = len(values) if variable == "uncertainty_radius" else 1
    assert channel_calls == {"effective_channel_at": per_trial * trials,
                             "ula_channels": per_trial * trials}


def test_zf_without_null_space_keeps_the_shared_channels(channel_calls):
    # with one waveguide ZF has no null space and reports (0, 0) at every
    # value, MRT stays positive, and each family's channels are still
    # computed once per trial
    trials, values = 2, [10.0, 20.0, 25.0]
    records = run_sweep(_small_config(trials=trials, num_waveguides=1), "power_budget",
                        values, SCHEMES[2:])
    assert len(records) == 4 * len(values) * trials
    for r in records:
        if r.scheme.endswith("_zf"):
            assert (r.covert_rate, r.p_opt) == (0.0, 0.0)
        else:
            assert r.covert_rate > 0.0 and r.p_opt > 0.0
    assert channel_calls == {"effective_channel_at": trials, "ula_channels": trials}


@pytest.mark.parametrize("variable, values", REFERENCE_SWEEPS)
def test_cached_reference_records_resolve_without_the_cache(monkeypatch, variable, values):
    # every record computed from the scenario's cached channels re-solves bit
    # for bit through one solve_scheme call on a fresh scenario with an empty
    # cache, and keeps its own beam
    from passcovert import benchmarks
    from passcovert.harness import _apply_sweep_value, solve_scheme

    cfg = _small_config(trials=3, willie_samples_k=2, num_waveguides=3, pas_per_waveguide=2)
    evaluated = []
    evaluate = benchmarks.evaluate

    def recording(kind, sc, k=1):
        evaluated.append((evaluate(kind, sc, k), sc))
        return evaluated[-1][0]

    monkeypatch.setattr(benchmarks, "evaluate", recording)
    records = run_sweep(cfg, variable, values, SCHEMES[2:])
    monkeypatch.undo()
    assert len(records) == len(evaluated) == 4 * len(values) * cfg.trials
    scenarios = sample_scenarios(cfg)
    for row, (result, cached) in zip(records, evaluated):
        sc = dataclasses.replace(_apply_sweep_value(scenarios[row.trial], variable,
                                                    row.sweep_value), memo={})
        rate, power, alone = solve_scheme(row.scheme, sc, cfg, row.seed)
        assert (rate, power) == (row.covert_rate, row.p_opt) == (result.rate, result.power)
        assert np.array_equal(result.w_tilde, alone.w_tilde)
        assert {key[0] for key in cached.memo} == {"mimo", "pass"}
        kept = list(_memo_arrays(cached.memo))
        if result.w_tilde is not None:  # the walk reaches the kept weights
            assert any(np.array_equal(result.w_tilde, a) for a in kept)
        assert not any(np.shares_memory(result.w_tilde, a) for a in kept)
    assert len({id(result.w_tilde) for result, _ in evaluated}) == len(evaluated)


@pytest.mark.parametrize("variable, values", REFERENCE_SWEEPS)
def test_reference_records_survive_overwritten_beams(monkeypatch, variable, values):
    # a caller that writes into every returned w_tilde changes no later record
    # or beam, so no two results, and no result and the memo, share a beam
    from passcovert import benchmarks

    cfg = _small_config(trials=3)
    evaluate = benchmarks.evaluate

    def run(overwrite):
        beams = []

        def wrapped(kind, sc, k=1):
            result = evaluate(kind, sc, k)
            beams.append(None if result.w_tilde is None else result.w_tilde.copy())
            if overwrite and result.w_tilde is not None:
                result.w_tilde[:] = 1.0
            return result

        monkeypatch.setattr(benchmarks, "evaluate", wrapped)
        return run_sweep(cfg, variable, values, SCHEMES[2:]), beams

    records, beams = run(overwrite=False)
    overwritten, seen = run(overwrite=True)
    assert overwritten == records
    assert len(seen) == len(beams) == len(records)
    for got, want in zip(seen, beams):
        assert (got is None and want is None) or np.array_equal(got, want)


@pytest.mark.parametrize("variable, values", REFERENCE_SWEEPS)
def test_reference_beams_once_per_trial(monkeypatch, variable, values):
    # each family's ZF and MRT weights are computed once per trial for the
    # whole sweep; a radius value after the first computes only the channels
    # of the 4k ring samples, reusing Bob's and the centre's
    from passcovert import benchmarks

    trials, k = 3, 2
    calls = {"zf_weights": 0, "mrt_weights": 0}
    receivers = {"effective_channel_at": [], "ula_channels": []}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(benchmarks, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(benchmarks, name, counted)
    for name, at in (("ula_channels", 0), ("effective_channel_at", 1)):
        def sized(*args, _name=name, _at=at, _original=getattr(benchmarks, name)):
            receivers[_name].append(len(args[_at]))
            return _original(*args)
        monkeypatch.setattr(benchmarks, name, sized)
    run_sweep(_small_config(trials=trials, willie_samples_k=k), variable, values, SCHEMES[2:])
    assert calls == {"zf_weights": 2 * trials, "mrt_weights": 2 * trials}
    later = len(values) - 1 if variable == "uncertainty_radius" else 0
    for name in receivers:
        assert receivers[name] == [2 + 4 * k] * trials + [4 * k] * trials * later, name


MWMP_SWEEPS = {"target_error_rate": ("target_error_rate", [0.8, 0.85, 0.9, 0.95]),
               "power_up": ("power_budget", [10.0, 15.0, 20.0, 25.0, 30.0]),
               "power_down": ("power_budget", [30.0, 25.0, 20.0, 15.0, 10.0]),
               "uncertainty_radius": ("uncertainty_radius", [0.1, 0.5, 1.0])}
MWMP_SHAPES = {"defaults": {},
               "20+25 particles, k=2": dict(pso_pop_bs=20, pso_pop_ps=25, willie_samples_k=2)}
# real TwinPSO runs of each seeded 10-trial sweep below (40, 50, 50 and 30 records);
# a radius value moves the warden samples, so none of its records is a replay
MWMP_REAL_RUNS = {
    ("defaults", "target_error_rate"): 15, ("defaults", "power_up"): 34,
    ("defaults", "power_down"): 34, ("defaults", "uncertainty_radius"): 30,
    ("20+25 particles, k=2", "target_error_rate"): 11, ("20+25 particles, k=2", "power_up"): 20,
    ("20+25 particles, k=2", "power_down"): 20, ("20+25 particles, k=2", "uncertainty_radius"): 30,
}


def _solve_recorder(monkeypatch, mwmp):
    """Replace ``mwmp.solve`` and ``mwmp.init_swarms`` by recording wrappers:
    (scenario, solution) of every solve, and one entry per real run (each
    trial of a lockstep batch)."""
    solved, runs = [], []
    solve, init_swarms = mwmp.solve, mwmp.init_swarms

    def recording(sc, params, k=1):
        solved.append((sc, solve(sc, params, k)))
        return solved[-1][1]

    monkeypatch.setattr(mwmp, "solve", recording)
    monkeypatch.setattr(mwmp, "init_swarms", lambda *a: runs.extend(a[0]) or init_swarms(*a))
    return solved, runs


@pytest.mark.parametrize("shape", MWMP_SHAPES)
@pytest.mark.parametrize("sweep", MWMP_SWEEPS)
def test_mwmp_replayed_records_equal_fresh_runs(monkeypatch, shape, sweep):
    # a record served by replaying another record's run is the record a
    # real run on an empty memo gives, bit for bit, and owns its arrays
    from passcovert import mwmp
    from passcovert.harness import solve_scheme

    variable, values = MWMP_SWEEPS[sweep]
    cfg = dataclasses.replace(ExperimentConfig(), trials=10, seed=21, **MWMP_SHAPES[shape])
    solved, runs = _solve_recorder(monkeypatch, mwmp)
    records = run_sweep(cfg, variable, values, ("mwmp",))
    monkeypatch.undo()
    assert len(records) == len(solved) == len(values) * cfg.trials
    for row, (sc, sol) in zip(records, solved):
        rate, power, alone = solve_scheme("mwmp", dataclasses.replace(sc, memo={}), cfg, row.seed)
        assert (rate, power) == (row.covert_rate, row.p_opt) == (sol.rate, sol.power)
        for name in ("trace", "x_init", "w_tilde"):
            assert getattr(sol, name).tobytes() == getattr(alone, name).tobytes(), name
        kept = list(_memo_arrays(sc.memo))
        # one answer per record
        assert len(sc.memo) == len(records) and kept
        assert not any(np.shares_memory(getattr(sol, name), a)
                       for name in ("trace", "x_init", "w_tilde") for a in kept)
    assert len(runs) == MWMP_REAL_RUNS[shape, sweep]


@pytest.mark.parametrize("sweep", MWMP_SWEEPS)
def test_mwmp_memo_keeps_answers_only(monkeypatch, sweep):
    # after a sweep, the memo holds one MwmpSolution per record and no run's
    # recorded gains: no array in it is larger than its answer's trace or a
    # view of another array
    from passcovert import mwmp

    variable, values = MWMP_SWEEPS[sweep]
    solved, _ = _solve_recorder(monkeypatch, mwmp)
    records = run_sweep(_small_config(trials=3), variable, values, ("mwmp",))
    memos = {id(sc.memo): sc.memo for sc, _ in solved}
    assert sum(map(len, memos.values())) == len(records)
    for memo in memos.values():
        for key, answer in memo.items():
            assert key[0] == "mwmp" and isinstance(answer, mwmp.MwmpSolution)
            for a in _memo_arrays({key: answer}):
                assert a.size <= answer.trace.size and a.base is None


def test_mwmp_sweep_steps_each_values_trials_together(monkeypatch):
    # a radius value moves the warden samples, so every trial runs at every
    # value; the sweep's runs step in lockstep across values, so the position
    # half makes one kernel call per iteration on all runs' layouts
    from passcovert import mwmp

    cfg = _small_config(trials=2, pso_iterations=7, pso_pop_ps=9)
    values = [0.25, 0.5, 1.0]
    runs = cfg.trials * len(values)
    layouts = []
    kernel = mwmp._effective_batch
    monkeypatch.setattr(mwmp, "_effective_batch",
                        lambda pa_x, *a: layouts.append(pa_x.shape[:-2]) or kernel(pa_x, *a))
    records = run_sweep(cfg, "uncertainty_radius", values, ("mwmp",))
    assert len(records) == runs
    position_half = [shape for shape in layouts if shape != (runs, 1)]
    assert position_half == [(runs, cfg.pso_pop_ps)] * cfg.pso_iterations


@pytest.mark.parametrize("sweep", MWMP_SWEEPS)
def test_mwmp_records_are_answered_without_a_run(monkeypatch, sweep):
    # run_sweep steps every run before its first record, so each record's
    # solve only copies the answer stored for it
    from passcovert import mwmp

    variable, values = MWMP_SWEEPS[sweep]
    events = []
    solve, init_swarms = mwmp.solve, mwmp.init_swarms
    monkeypatch.setattr(mwmp, "solve", lambda *a, **kw: events.append("solve") or solve(*a, **kw))
    monkeypatch.setattr(mwmp, "init_swarms", lambda *a: events.append("run") or init_swarms(*a))
    records = run_sweep(_small_config(trials=3), variable, values, ("mwmp",))
    first = events.index("solve")
    assert "run" in events[:first] and "run" not in events[first:]
    assert events.count("solve") == len(records)


def test_mwmp_radius_sweep_memory_stays_bounded(monkeypatch):
    # the 10 runs of a 2-trial, 5-value radius sweep step as two chunks of 5,
    # and tracemalloc's peak over the whole sweep stays under 2 MB (about
    # 1.5 MB; one unsplit chunk of 10 reads about 2.5 MB)
    from passcovert import mwmp

    cfg = dataclasses.replace(ExperimentConfig(), trials=2, seed=5)
    values = [0.1, 0.575, 1.05, 1.525, 2.0]
    sizes = []
    init_swarms = mwmp.init_swarms
    monkeypatch.setattr(mwmp, "init_swarms", lambda *a: sizes.append(len(a[0])) or init_swarms(*a))
    tracemalloc.start()
    try:
        records = run_sweep(cfg, "uncertainty_radius", values, ("mwmp",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 10 and sizes == [5, 5]
    assert peak < 2 * 2**20


@pytest.mark.parametrize("sweep", ["target_error_rate", "power_up", "power_down"])
def test_mwmp_records_survive_overwritten_answers(monkeypatch, sweep):
    # a caller that writes into every returned w_tilde, x_init and trace
    # changes no later record or answer, replayed ones included
    from passcovert import mwmp

    variable, values = MWMP_SWEEPS[sweep]
    cfg = _small_config(trials=3)
    solve, init_swarms = mwmp.solve, mwmp.init_swarms
    names = ("w_tilde", "x_init", "trace")

    def run(overwrite):
        answers, runs = [], []

        def wrapped(sc, params, k=1):
            sol = solve(sc, params, k)
            answers.append([getattr(sol, name).copy() for name in names])
            if overwrite:
                for name in names:
                    getattr(sol, name)[:] = 1.0
            return sol

        monkeypatch.setattr(mwmp, "solve", wrapped)
        monkeypatch.setattr(mwmp, "init_swarms", lambda *a: runs.extend(a[0]) or init_swarms(*a))
        return run_sweep(cfg, variable, values, ("mwmp",)), answers, len(runs)

    records, answers, runs = run(overwrite=False)
    overwritten, seen, runs_again = run(overwrite=True)
    assert runs == runs_again < len(records)  # some records are replays
    assert overwritten == records
    for got, want in zip(seen, answers):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


GOLDEN_SWEEPS = {
    "target_error_rate": [0.80, 0.85, 0.90, 0.95],
    "power_budget": [10.0, 15.0, 20.0, 25.0, 30.0],
    "uncertainty_radius": [0.1, 0.5, 1.0, 1.5, 2.0],
}


GOLDEN_WRITERS = {"csv": records_to_csv, "json": records_to_json}


# CSV cases keep the bare variable as their id, so existing selections by id still match
@pytest.mark.parametrize("variable, fmt", [
    pytest.param(v, fmt, id=v if fmt == "csv" else f"{v}-{fmt}")
    for fmt in GOLDEN_WRITERS for v in sorted(GOLDEN_SWEEPS)])
def test_sweep_csv_matches_golden(variable, fmt):
    # default config, two trials, all six schemes: the bytes must not move
    config = dataclasses.replace(ExperimentConfig(), trials=2)
    records = run_sweep(config, variable, GOLDEN_SWEEPS[variable], SCHEMES)
    golden = Path(__file__).parent / "data" / f"golden_sweep_{variable}.{fmt}"
    assert GOLDEN_WRITERS[fmt](records).encode("utf-8") == golden.read_bytes()
