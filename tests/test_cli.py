"""Command-line surface: subcommands, formats, determinism, error reporting."""

import hashlib
import json
import runpy
import sys
import tracemalloc
from pathlib import Path

import pytest

from passcovert.cli import _pattern_csv, main
from passcovert.config import config_from_dict
from passcovert.harness import CSV_HEADER


def _config_file(tmp_path, **keys):
    base = {"trials": 3, "pso_iterations": 10, "converge_inits": 2,
            "pattern_res_m": 2.5, "seed": 11}
    base.update(keys)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return str(path)


def test_swsp_subcommand_stdout(tmp_path, capsys):
    assert main(["swsp", "--config", _config_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("swsp,none,0,")


def test_mwmp_and_bench_subcommands(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "m.csv"
    assert main(["mwmp", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("mwmp,")
    bench = tmp_path / "b.json"
    assert main(["bench", "--config", cfg, "--out", str(bench), "--format", "json"]) == 0
    rows = json.loads(bench.read_text())
    assert {r["scheme"] for r in rows} == {"mimo_zf", "mimo_mrt", "pass_zf", "pass_mrt"}


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = _config_file(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--config", cfg, "--variable", "uncertainty_radius",
            "--values", "0.5,1.0", "--schemes", "swsp,pass_mrt"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + 2 * 2 * 3


def test_seed_flag_changes_output(tmp_path):
    cfg = _config_file(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--config", cfg, "--variable", "uncertainty_radius",
            "--values", "0.5", "--schemes", "mwmp"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--seed", "12", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_pattern_subcommand(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "pattern.csv"
    assert main(["pattern", "--config", cfg, "--case", "swsp", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,gain_normalized"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    gains = [r[2] for r in rows]
    assert max(gains) == pytest.approx(1.0)
    assert min(gains) >= 0.0
    # the default layout solves to an antenna near x = 22 on the waveguide axis,
    # and the peak cell sits beneath the antenna
    peak = max(rows, key=lambda r: r[2])
    assert abs(peak[0] - 22.0) <= 2.6  # one 2.5 m grid cell of slack
    assert abs(peak[1]) <= 1.3


@pytest.mark.parametrize("case", ["swsp", "mwmp"])
def test_pattern_matches_golden(tmp_path, case):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"pattern_res_m": 1.0}')
    out = tmp_path / "pattern.csv"
    assert main(["pattern", "--config", str(cfg), "--case", case, "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / f"golden_pattern_{case}.csv"
    assert out.read_bytes() == golden.read_bytes()


# the benchmark's full-size pattern: a 501 x 481 grid at the default Bob and
# warden positions
_FULL_PATTERN_KEYS = {"pattern_res_m": 0.05, "pattern_y_halfwidth_m": 12,
                      "bob_x_m": 20, "bob_y_m": 6, "willie_x_m": 7, "willie_y_m": -9}
# sha256 of its CSVs (12.5 MB each); the mwmp map holds 7,866 cells below
# 1e-4, 1.0 at its peak and the rest in [1e-4, 1)
_FULL_PATTERN_SHA256 = {
    "swsp": "29180eab9ce04b6270b6ab0eeca2f02c8f2f63b4ac3e5b3cad4bcc737dbe5de4",
    "mwmp": "62660f9f84aa045b1d674580b8cc564f28133ab600cf147afb79cfe408983924",
}


@pytest.mark.parametrize("case", ["swsp", "mwmp"])
def test_full_size_pattern_matches_digest(tmp_path, case):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_FULL_PATTERN_KEYS))
    out = tmp_path / "pattern.csv"
    assert main(["pattern", "--config", str(cfg), "--case", case, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _FULL_PATTERN_SHA256[case]


@pytest.mark.parametrize("case", ["swsp", "mwmp"])
def test_pattern_writer_never_holds_the_map_text(case):
    # the grid is evaluated before _pattern_csv returns; the text is made one
    # block at a time as its iterator is consumed, and tracemalloc counts the
    # numpy buffers of each block
    blocks = _pattern_csv(config_from_dict(_FULL_PATTERN_KEYS), case)
    tracemalloc.start()
    try:
        size = sum(len(text) for text in blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 12_500_000
    assert peak < 4 * 2**20


@pytest.mark.parametrize("command", ["swsp", "mwmp", "bench"])
def test_single_subcommand_matches_golden(tmp_path, command):
    # default config, no config file: each scheme's record must not move
    out = tmp_path / "single.csv"
    assert main([command, "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / f"golden_single_{command}.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_bench_computes_each_family_channels_once(tmp_path, channel_calls):
    # bench's four schemes share one scenario, so ZF and MRT share channels
    assert main(["bench", "--out", str(tmp_path / "bench.csv")]) == 0
    assert channel_calls == {"effective_channel_at": 1, "ula_channels": 1}



def test_bench_zf_without_null_space_reports_zero(tmp_path):
    # one waveguide gives one fixed antenna and one PASS branch: ZF has no
    # null space, so it transmits nothing, while MRT still has a covert rate
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", _config_file(tmp_path, num_waveguides=1),
                 "--out", str(out)]) == 0
    rows = {row[0]: row for row in (ln.split(",") for ln in out.read_text().splitlines()[1:])}
    assert set(rows) == {"mimo_zf", "mimo_mrt", "pass_zf", "pass_mrt"}
    for scheme in ("mimo_zf", "pass_zf"):
        assert (float(rows[scheme][4]), float(rows[scheme][5])) == (0.0, 0.0)
    for scheme in ("mimo_mrt", "pass_mrt"):
        assert float(rows[scheme][4]) > 0.0 and float(rows[scheme][5]) > 0.0

def test_converge_mwmp_matches_golden(tmp_path):
    # the per-iteration best trace, averaged over three seeded swarms, at the
    # default antennas and at five per waveguide; the golden holds both outputs
    texts = []
    for extra in ({}, {"pas_per_waveguide": 5}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"converge_inits": 3, "pso_iterations": 20, **extra}))
        out = tmp_path / "trace.csv"
        assert main(["converge", "--config", str(cfg), "--case", "mwmp", "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    golden = Path(__file__).parent / "data" / "golden_converge_mwmp.csv"
    assert b"".join(texts) == golden.read_bytes()


def test_mwmp_non_default_shapes_match_golden(tmp_path):
    # four antennas per waveguide (the kernel's np.sum path), three waveguides,
    # unequal swarms and two warden rings (K = 10 receivers): the single solve
    # and the convergence trace over two inits, one golden for both outputs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pas_per_waveguide": 4, "num_waveguides": 3, "pso_pop_ps": 20,
                               "pso_pop_bs": 25, "willie_samples_k": 2, "converge_inits": 2}))
    texts = []
    for argv in (["mwmp"], ["converge", "--case", "mwmp"]):
        out = tmp_path / "out.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    golden = Path(__file__).parent / "data" / "golden_mwmp_shapes.csv"
    assert b"".join(texts) == golden.read_bytes()


def test_converge_subcommand(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(["converge", "--config", cfg, "--case", "mwmp", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 10  # header + one row per iteration
    rates = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_key": 1}')
    code = main(["swsp", "--config", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    err_lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ")


@pytest.mark.parametrize("extra", [
    # argparse reads a list that starts with a negative number as an option
    ["--variable", "power_budget", "--values", "-10,-5"],
    ["--variable", "no_such_variable", "--values", "0.5"],
], ids=["values_negative_unattached", "variable_unknown"])
def test_usage_error_reporting(tmp_path, capsys, extra):
    # usage errors once printed argparse's usage block and raised SystemExit
    code = main(["sweep", "--config", _config_file(tmp_path), "--schemes", "swsp"] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err_lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(err_lines) == 1 and err_lines[0].startswith("error: argument --")


@pytest.mark.parametrize("extra", [
    ["--values=,", "--schemes", "swsp"],
    ["--values", "10", "--schemes", ","],
], ids=["no_values", "no_schemes"])
def test_empty_sweep_list_error_reporting(tmp_path, capsys, extra):
    # an empty list once exited 0 with a header-only CSV
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", _config_file(tmp_path), "--variable", "power_budget",
                 "--out", str(out)] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert not out.exists()
    err_lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(err_lines) == 1 and err_lines[0].startswith("error: need at least one")


def test_converge_zero_inits_error_reporting(tmp_path, capsys):
    code = main(["converge", "--case", "mwmp", "--config",
                 _config_file(tmp_path, converge_inits=0)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: converge_inits must be at least 1, got 0\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--values=-10,-5" in capsys.readouterr().out


def test_module_runs_as_main(monkeypatch, capsys):
    # python -m passcovert.cli; without the delitem runpy warns that the module
    # is already imported, and the warning filters make that an error
    monkeypatch.delitem(sys.modules, "passcovert.cli")
    monkeypatch.setattr(sys, "argv", ["passcovert", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("passcovert.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: passcovert")


def test_sweep_closed_form_matches_golden(tmp_path):
    # five trials, two warden rings (K = 10 receivers) and a negative dBm budget
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 5, "willie_samples_k": 2, "num_waveguides": 2,
                               "seed": 7}))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", str(cfg), "--variable", "power_budget",
                 "--values=-5,10,30", "--schemes", "swsp,mimo_zf,mimo_mrt,pass_zf,pass_mrt",
                 "--format", "json", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "golden_sweep_closed_form.json"
    assert out.read_bytes() == golden.read_bytes()


def test_error_on_unwritable_out(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    code = main(["swsp", "--config", cfg, "--out", str(tmp_path / "no" / "dir.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


_SWEEP_ARGS = ["--variable", "power_budget", "--values", "10", "--schemes", "swsp"]
# h squared underflows to 0 at Bob right under the feed point
_TINY_HEIGHT = {"height_m": 1e-200, "bob_x_m": 0, "bob_y_m": 0}


@pytest.mark.parametrize("command, keys, extra, message", [
    ("swsp", {"delta_r_m": float("nan")}, [],
     "config key 'delta_r_m' must be a finite number, got nan"),
    ("mwmp", {"delta_r_m": float("inf")}, [],
     "config key 'delta_r_m' must be a finite number, got inf"),
    ("swsp", {"p_max_dbm": float("inf")}, [],
     "config key 'p_max_dbm' must be a finite number, got inf"),
    ("mwmp", {"pso_pop_bs": 0}, [],
     "both swarms need at least one particle"),
    ("mwmp", {"num_waveguides": True}, [],
     "config key 'num_waveguides' must be a finite number, got True"),
    ("mwmp", {"num_waveguides": 2.5}, [],
     "config key 'num_waveguides' must be a whole number, got 2.5"),
    ("sweep", {}, ["--variable", "uncertainty_radius", "--values", "0.5,nan",
                   "--schemes", "swsp"],
     "sweep values must be distinct finite numbers, got [0.5, nan]"),
    ("mwmp", {"wg_spacing_m": 0}, [],
     "waveguide y-coordinates must be distinct, got (-0.0, -0.0, 0.0, 0.0)"),
    # a sweep of swsp alone skips the multi-waveguide checks; one with mwmp does not
    ("sweep", {"wg_spacing_m": 0}, ["--variable", "power_budget", "--values", "10",
                                    "--schemes", "swsp,mwmp"],
     "waveguide y-coordinates must be distinct, got (-0.0, -0.0, 0.0, 0.0)"),
    ("swsp", {"delta_p_watts": -1e-5}, [],
     "power search resolution must be a finite positive number, got -1e-05"),
    ("swsp", {"delta_p_watts": 1e-300}, [],
     "power search resolution 1e-300 W gives more grid steps than fit in int64"),
    ("swsp", {"willie_samples_k": 0}, [],
     "willie_samples_k must be at least 1 (one sampling ring)"),
    ("swsp", {"carrier_freq_hz": 5.9e-150}, [],
     "carrier frequency 5.9e-150 Hz and index 1.4 give constants that are zero or overflow"),
    # the trace needs every grid step, and 1e16 of them fit in no address space
    ("converge", {"converge_delta_p_watts": 1e-16}, ["--case", "swsp"],
     "out of memory: Unable to allocate"),
    # pattern output is CSV only; JSON was once ignored and CSV written
    ("pattern", {}, ["--format", "json"],
     "pattern output is CSV only, got --format json"),
    ("pattern", {"pattern_res_m": 0}, [],
     "pattern_res_m must be positive, got 0.0"),
    # a zero-power mwmp beam once gave an all-zero "normalized" map
    ("pattern", {"rho_w": 0}, ["--case", "mwmp"],
     "configured instance allows no covert power; no pattern"),
    # a negative half-width once printed a one-row map at -half, or died in linspace
    ("pattern", {"pattern_y_halfwidth_m": -0.05}, [],
     "pattern_y_halfwidth_m must be non-negative, got -0.05"),
    # a grid numpy cannot index once ended in numpy's "Maximum allowed size
    # exceeded", or in int()'s fault on an infinite cell count
    ("pattern", {"pattern_res_m": 1e-300}, [],
     "pattern_res_m 1e-300 and pattern_y_halfwidth_m 12.0 give a grid of 2.5e+301 x "
     "2.4e+301 cells, more than one float64 array can hold"),
    ("pattern", {"pattern_y_halfwidth_m": 1e308}, [],
     "pattern_res_m 2.5 and pattern_y_halfwidth_m 1e+308 give a grid of 11 x inf cells, "
     "more than one float64 array can hold"),
    # null once passed for every key and died in a TypeError traceback; only
    # the keys annotated float | None take it
    ("swsp", {"height_m": None}, [],
     "config key 'height_m' must be a finite number, got None"),
    ("mwmp", {"height_m": None}, [],
     "config key 'height_m' must be a finite number, got None"),
    ("sweep", {"height_m": None}, _SWEEP_ARGS,
     "config key 'height_m' must be a finite number, got None"),
    ("pattern", {"height_m": None}, [],
     "config key 'height_m' must be a finite number, got None"),
    ("sweep", {"trials": None}, _SWEEP_ARGS,
     "config key 'trials' must be a finite number, got None"),
    ("sweep", {"seed": None}, _SWEEP_ARGS,
     "config key 'seed' must be a finite number, got None"),
    # numeric text once passed as the number, or failed in int() naming no key
    ("swsp", {"height_m": "3"}, [],
     "config key 'height_m' must be a finite number, got '3'"),
    ("mwmp", {"num_waveguides": "4.0"}, [],
     "config key 'num_waveguides' must be a finite number, got '4.0'"),
    # repeats and empty items once wrote copies of one (scheme, value, trial)
    # record, which mean_rates averaged as trials
    ("sweep", {}, ["--variable", "power_budget", "--values=10,,10", "--schemes", "swsp,,swsp"],
     "could not convert string to float: ''"),
    ("sweep", {}, ["--variable", "power_budget", "--values=10,", "--schemes", "swsp"],
     "could not convert string to float: ''"),
    ("sweep", {}, ["--variable", "power_budget", "--values=10,10.0", "--schemes", "swsp"],
     "sweep values must be distinct finite numbers, got [10.0, 10.0]"),
    # an item that is not a number once ended in float()'s message alone,
    # which names neither the sweep values nor the option
    ("sweep", {}, ["--variable", "power_budget", "--values=10,,10", "--schemes", "swsp"],
     "sweep values must be numbers: could not convert string to float: ''"),
    ("sweep", {}, ["--variable", "power_budget", "--values=10,abc", "--schemes", "swsp"],
     "sweep values must be numbers: could not convert string to float: 'abc'"),
    ("sweep", {}, ["--variable", "power_budget", "--values=10", "--schemes", "swsp,mwmp,swsp"],
     "schemes must not repeat, got swsp, mwmp, swsp"),
    ("sweep", {}, ["--variable", "power_budget", "--values=10", "--schemes", "swsp, "],
     "unknown scheme ''; valid schemes: swsp, mwmp, mimo_zf, mimo_mrt, pass_zf, pass_mrt"),
    # finite but extreme values whose distances or dB conversions overflow
    # once printed nan or inf rows with exit 0, or died in an OverflowError
    ("swsp", {"bob_y_m": 1e200}, [],
     "numeric fault: overflow encountered in scalar power"),
    ("mwmp", {"bob_y_m": 1e200}, [],
     "numeric fault: overflow encountered in multiply"),
    ("bench", {"bob_y_m": 1e200}, [],
     "numeric fault: overflow encountered in multiply"),
    ("mwmp", {"willie_x_m": 1e200}, [],
     "numeric fault: overflow encountered in multiply"),
    ("bench", {"willie_x_m": 1e200}, [],
     "numeric fault: overflow encountered in multiply"),
    ("mwmp", {"delta_r_m": 1e300}, [],
     "numeric fault: overflow encountered in multiply"),
    ("bench", {"delta_r_m": 1e300}, [],
     "numeric fault: overflow encountered in multiply"),
    ("sweep", {}, ["--variable", "uncertainty_radius", "--values", "1e300",
                   "--schemes", "mwmp,pass_zf"],
     "numeric fault: overflow encountered in multiply"),
    ("swsp", _TINY_HEIGHT, [],
     "numeric fault: divide by zero encountered in divide"),
    ("mwmp", {**_TINY_HEIGHT, "num_waveguides": 1, "pas_per_waveguide": 1}, [],
     "numeric fault: divide by zero encountered in reciprocal"),
    ("bench", {**_TINY_HEIGHT, "num_waveguides": 1, "pas_per_waveguide": 1}, [],
     "numeric fault: divide by zero encountered in divide"),
    ("swsp", {"p_max_dbm": 4000}, [],
     "numeric fault: p_max_dbm = 4000.0 overflows the conversion from dB to linear"),
    ("mwmp", {"delta_sigma_db": 4000}, [],
     "numeric fault: delta_sigma_db = 4000.0 overflows the conversion from dB to linear"),
    ("bench", {"sigma_w_dbm": 4000}, [],
     "numeric fault: sigma_w_dbm = 4000.0 overflows the conversion from dB to linear"),
    ("sweep", {}, ["--variable", "power_budget", "--values", "4000", "--schemes", "swsp"],
     "numeric fault: power_budget sweep value = 4000.0 overflows the conversion from dB to "
     "linear"),
    # a negative seed once wrote -1 into swsp and bench records with exit 0, and
    # ended mwmp and sweep in numpy's seeding error, which names no key
    ("swsp", {"seed": -1}, [],
     "seed must be a non-negative integer, got -1"),
    ("mwmp", {"seed": -1}, [],
     "seed must be a non-negative integer, got -1"),
    ("sweep", {"seed": -1}, _SWEEP_ARGS,
     "seed must be a non-negative integer, got -1"),
    # out-of-range sweep values once named rho_w or the warden's radius
    ("sweep", {}, ["--variable", "target_error_rate", "--values=1.5", "--schemes", "pass_zf"],
     "target_error_rate sweep value 1.5 must lie in [0, 1]"),
    ("sweep", {}, ["--variable", "uncertainty_radius", "--values=-1", "--schemes", "pass_zf"],
     "uncertainty_radius sweep value -1.0 must be a finite non-negative number"),
    # error paths no other case reaches: no scenario to draw, no PSO iteration,
    # and an integer past the float range
    ("sweep", {"trials": 0}, _SWEEP_ARGS,
     "need at least one scenario"),
    ("mwmp", {"pso_iterations": 0}, [],
     "need at least one iteration"),
    ("sweep", {"trials": 10**400}, _SWEEP_ARGS,
     "config key 'trials' must be a finite number, got 1000000"),
], ids=["delta_r_nan", "delta_r_inf", "p_max_inf", "pso_pop_bs_zero", "n_wg_bool", "n_wg_fraction",
     "values_nan", "wg_stacked", "sweep_swsp_mwmp_wg_stacked", "delta_p_negative",
     "delta_p_steps_overflow", "samples_k_zero",
     "carrier_underflow", "converge_grid_out_of_memory", "pattern_json", "pattern_res_zero",
     "pattern_zero_power", "pattern_halfwidth_negative",
     "pattern_res_tiny", "pattern_halfwidth_huge", "swsp_height_null", "mwmp_height_null",
     "sweep_height_null", "pattern_height_null", "sweep_trials_null", "sweep_seed_null",
     "swsp_height_text", "mwmp_n_wg_text",
     "sweep_repeats_and_empty_items", "values_trailing_empty_item", "values_repeat",
     "values_empty_item_named", "values_text_item_named",
     "schemes_repeat", "schemes_trailing_empty_item", "swsp_bob_far", "mwmp_bob_far",
     "bench_bob_far", "mwmp_willie_far", "bench_willie_far", "mwmp_delta_r_huge",
     "bench_delta_r_huge", "sweep_delta_r_huge", "swsp_height_tiny", "mwmp_height_tiny_one_pa",
     "bench_height_tiny_one_pa", "swsp_p_max_overflow", "mwmp_delta_sigma_overflow",
     "bench_sigma_w_overflow", "sweep_power_budget_overflow", "swsp_seed_negative",
     "mwmp_seed_negative", "sweep_seed_negative", "sweep_error_rate_above_one",
     "sweep_radius_negative", "sweep_trials_zero", "mwmp_iterations_zero",
     "sweep_trials_past_float_range"])
def test_invalid_numeric_inputs_rejected(tmp_path, capsys, command, keys, extra, message):
    # each of these once printed a nan row, an unsafe full-power rate or a
    # silently coerced setting with exit 0, or died with a traceback
    code = main([command, "--config", _config_file(tmp_path, **keys)] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err_lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert message in err_lines[0]


@pytest.mark.parametrize("variable, value, message", [
    ("target_error_rate", "1.5", "target_error_rate sweep value 1.5 must lie in [0, 1]"),
    ("uncertainty_radius", "-1",
     "uncertainty_radius sweep value -1.0 must be a finite non-negative number"),
])
def test_out_of_range_sweep_value_names_its_variable(tmp_path, capsys, variable, value, message):
    args = ["sweep", "--config", _config_file(tmp_path), "--variable", variable,
            f"--values={value}", "--schemes", "pass_zf"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"

@pytest.mark.parametrize("args", [["swsp"], ["mwmp"], ["bench"], ["sweep"] + _SWEEP_ARGS,
                                  ["pattern"], ["pattern", "--case", "mwmp"], ["converge"],
                                  ["converge", "--case", "swsp"]],
                         ids=["swsp", "mwmp", "bench", "sweep", "pattern_swsp", "pattern_mwmp",
                              "converge_mwmp", "converge_swsp"])
def test_negative_seed_option_names_seed(tmp_path, capsys, args):
    assert main(args + ["--config", _config_file(tmp_path), "--seed=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"


# the PSO update weights and velocity cap are mwmp constants, no longer keys
@pytest.mark.parametrize("key", ["pso_inertia_bs", "pso_inertia_ps", "pso_cognitive_bs",
                                 "pso_social_bs", "pso_cognitive_ps", "pso_social_ps",
                                 "pso_vmax"])
def test_removed_pso_keys_are_unknown(tmp_path, capsys, key):
    code = main(["mwmp", "--config", _config_file(tmp_path, **{key: 0.5})])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown config keys ['{key}']; valid keys: ")


_POWER_SWEEP = ["sweep", "--variable", "power_budget", "--schemes", "swsp", "--values"]


# extra: the subcommand and its options
@pytest.mark.parametrize("keys, extra, name", [
    ({"p_max_dbm": 4000}, ["swsp"], "p_max_dbm"),
    ({"sigma_b_dbm": 4000}, ["swsp"], "sigma_b_dbm"),
    ({"sigma_w_dbm": 4000}, ["swsp"], "sigma_w_dbm"),
    ({"delta_sigma_db": 4000}, ["swsp"], "delta_sigma_db"),
    ({}, _POWER_SWEEP + ["4000"], "power_budget"),
    # a budget that underflowed to 0 W once ended swsp in an error naming the
    # derived delta_p_watts, and gave mwmp and bench rows at rate 0 with exit 0;
    # a subnormal one did the same
    *[({key: db}, [command], key)
      for key, db in (("p_max_dbm", -4000), ("p_max_dbm", -3200), ("sigma_b_dbm", -4000),
                      ("sigma_w_dbm", -4000), ("delta_sigma_db", -4000))
      for command in ("swsp", "mwmp", "bench")],
    ({}, _POWER_SWEEP + ["-4000"], "power_budget sweep value"),
    ({}, _POWER_SWEEP + ["-3200"], "power_budget sweep value"),
])
def test_db_overflow_names_its_source(tmp_path, capsys, keys, extra, name):
    # the error line once read only "numeric fault: (34, 'Numerical result out of range')"
    assert main(extra + ["--config", _config_file(tmp_path, **keys)]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert name in err_lines[0] and "dB to linear" in err_lines[0]


def test_rho_zero_takes_the_general_path(tmp_path, capsys):
    # rho_w = 0 once had its own branches; 1e-300 rounds the gain budget to
    # the same zero through the general forbidden-zone formula
    def run(args, rho):
        code = main(args + ["--config", _config_file(tmp_path, rho_w=rho, pso_iterations=5)])
        return code, capsys.readouterr()

    for args in (["swsp"], ["mwmp"], ["bench"], ["converge", "--case", "swsp"],
                 ["pattern", "--case", "swsp"], ["pattern", "--case", "mwmp"]):
        (code, zero), (code_tiny, tiny) = run(args, 0), run(args, 1e-300)
        assert (code, zero.out, zero.err) == (code_tiny, tiny.out, tiny.err)
        if args[0] == "pattern":  # no covert power, so no pattern to normalize
            assert code == 2 and zero.out == "" and zero.err.startswith("error: ")
            assert len(zero.err.splitlines()) == 1
        else:
            assert code == 0 and zero.err == ""


@pytest.mark.parametrize("key, args", [
    ("delta_p_watts", ["swsp"]),
    ("pa_spacing_m", ["mwmp"]),
    ("converge_delta_p_watts", ["converge", "--case", "swsp"]),
])
def test_null_keeps_derived_default(tmp_path, key, args):
    # null for a key annotated float | None is the omitted key, whose
    # default is derived from other keys
    omitted, null = tmp_path / "omitted.csv", tmp_path / "null.csv"
    assert main(args + ["--config", _config_file(tmp_path), "--out", str(omitted)]) == 0
    assert main(args + ["--config", _config_file(tmp_path, **{key: None}),
                        "--out", str(null)]) == 0
    assert null.read_bytes() == omitted.read_bytes()


def test_swsp_fine_resolution_solves(tmp_path, capsys):
    # 1e13 grid powers: the search never builds the grid, so this once-fatal
    # allocation is gone and the answer lies within one coarse step of the default
    assert main(["swsp", "--config", _config_file(tmp_path, delta_p_watts=1e-13)]) == 0
    fine = capsys.readouterr().out.splitlines()[1].split(",")
    assert main(["swsp", "--config", _config_file(tmp_path)]) == 0
    coarse = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(coarse[4]) <= float(fine[4]) < float(coarse[4]) + 1e-3
    assert abs(float(fine[5]) - float(coarse[5])) < 1e-4



# one antenna has no spacing, so pa_spacing_m: 0 once failed the swsp geometry too
@pytest.mark.parametrize("bad", [{"wg_spacing_m": 0}, {"num_waveguides": 0},
                                 {"pas_per_waveguide": 100000}, {"pa_spacing_m": 0}],
                         ids=["stacked_waveguides", "no_waveguides", "pas_overflow",
                              "pa_spacing_zero"])
@pytest.mark.parametrize("args, keys", [
    (["swsp"], {}),
    (["converge", "--case", "swsp"], {"converge_delta_p_watts": 0.05}),
    (["pattern", "--case", "swsp"], {"pattern_res_m": 2.0}),
    (["sweep"] + _SWEEP_ARGS, {}),
], ids=["swsp", "converge_swsp", "pattern_swsp", "sweep_swsp"])
def test_single_waveguide_commands_skip_multi_waveguide_checks(tmp_path, capsys, args,
                                                               keys, bad):
    # these commands never build the multi-waveguide geometry, so a key that
    # fails it (as the mwmp subcommand shows) leaves their output unchanged
    assert main(["mwmp", "--config", _config_file(tmp_path, **bad)]) == 2
    capsys.readouterr()
    outs = []
    for extra in ({}, bad):
        assert main(args + ["--config", _config_file(tmp_path, **keys, **extra)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count("\n") > 1
