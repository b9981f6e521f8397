"""Property test of the CLI input boundary: any flat config ends either in one
`error: ...` line with exit 2, or in finite rows whose power lies in [0, P_max]
and meets the warden gain budget at the sampled warden positions (for `swsp`,
`mwmp`, `bench`, `sweep` and `converge --case mwmp`), or in a finite,
non-decreasing trace whose powers lie in [0, P_max] (`converge --case swsp`),
or, for `pattern`, in the library's normalized beam map on the configured grid."""

import ast
import contextlib
import dataclasses
import inspect
import io
import json
import math
import textwrap
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passcovert import benchmarks, harness, mwmp, swsp
from passcovert.channel import beam_gain, beam_pattern_grid
from passcovert.cli import _SLOT, _gain_slots, _solved_beam, main
from passcovert.config import config_from_dict
from passcovert.geometry import PinchLayout

MARGIN_TOL = 1e-9  # relative slack on P * g_max <= Gamma_w

_KEYS = ("carrier_freq_hz", "n_eff", "height_m", "waveguide_length_m", "num_waveguides",
         "pas_per_waveguide", "pa_spacing_m", "wg_spacing_m", "p_max_dbm", "sigma_b_dbm",
         "sigma_w_dbm", "delta_sigma_db", "rho_w", "delta_r_m", "willie_samples_k",
         "bob_x_m", "bob_y_m", "willie_x_m", "willie_y_m", "delta_p_watts")
_ODD = (None, math.nan, math.inf, -math.inf, True, False, 0, 0.0, -1, -2.5, 0.5, 2.5, 1e-300,
        "3")
_VALUES = st.one_of(st.sampled_from(_ODD), st.integers(-2, 6), st.floats(-40.0, 40.0))
# extreme finite floats overflow distances and dB conversions; the integer keys
# keep _VALUES, where a whole 1e200 would ask for a geometry of 1e200 entries
_INT_KEYS = ("num_waveguides", "pas_per_waveguide", "willie_samples_k")
_FLOAT_VALUES = st.one_of(_VALUES, st.sampled_from((1e200, -1e200, 1e-200, 4000.0)))
_ITEMS = st.sampled_from(_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), _VALUES if key in _INT_KEYS else _FLOAT_VALUES))
_CONFIGS = st.lists(_ITEMS, max_size=3, unique_by=lambda item: item[0]).map(dict)
# a coarse grid and a short swarm keep each pattern example cheap
_PATTERN_KEYS = {"pattern_res_m": 2.0, "pso_iterations": 5}
# short swarms, one Monte-Carlo trial and two converge runs keep the solver examples cheap
_SOLVER_KEYS = {"pso_iterations": 5, "trials": 1, "converge_inits": 2}
# a coarse power step keeps each swsp trace to at most a few hundred rows
_TRACE_KEYS = {"converge_delta_p_watts": 0.05}


def _run(tmp_path, args, keys):
    """(config, CSV rows without the header), or None when the CLI reported an error."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(keys))  # NaN and Infinity as Python's json writes them
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args[:1] + ["--config", str(path)] + args[1:])
    if code == 2:
        assert out.getvalue() == ""
        err_lines = [ln for ln in err.getvalue().splitlines() if ln]
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
        return None
    assert code == 0 and err.getvalue() == ""
    return config_from_dict(keys), [ln.split(",") for ln in out.getvalue().splitlines()[1:]]


def _rates_powers(config, rows):
    rates_powers = [(float(r[4]), float(r[5])) for r in rows]
    for rate, power in rates_powers:
        assert math.isfinite(rate) and rate >= 0.0
        assert 0.0 <= power <= config.p_max_watts
    return rates_powers


def _covert(power, g_max, sc) -> bool:
    return power * g_max <= sc.gain_budget() * (1.0 + MARGIN_TOL)


def _sampled_gain(layout, w, sc, k) -> float:
    return float(beam_gain(layout, w, sc.willie_samples(k), sc.pc).max())


def _check_solution(scheme, sc, config, seed, rate, power):
    """Re-solve one scheme on ``sc``: the CLI's (rate, power) must match bit for
    bit, and the power must meet the gain budget at the sampled warden positions."""
    k = config.willie_samples_k
    if scheme == "swsp":
        sc = dataclasses.replace(sc, geom=config.geometry_swsp())
        sol = swsp.solve(sc, config.delta_p())
        assert (sol.rate, sol.p_opt) == (rate, power)
        if not sol.feasible:
            return
        g_max = _sampled_gain(PinchLayout(sc.geom, np.array([sol.x_opt])),
                              np.ones(1, dtype=complex), sc, k)
    elif scheme == "mwmp":
        sol = mwmp.solve(sc, config.pso_params(seed), k=k)
        assert (sol.rate, sol.power) == (rate, power)
        g_max = _sampled_gain(PinchLayout(sc.geom, sol.x_init), sol.w_tilde, sc, k)
    else:
        kind = benchmarks.BenchmarkKind(scheme)
        res = benchmarks.evaluate(kind, sc, k=k)
        assert (res.rate, res.power) == (rate, power)
        if res.w_tilde is None:
            return
        if kind in (benchmarks.BenchmarkKind.MIMO_ZF, benchmarks.BenchmarkKind.MIMO_MRT):
            n, h = sc.geom.n_wg, sc.geom.height
            g_max = max(float(abs(benchmarks.ula_channel(s, n, h, sc.pc) @ res.w_tilde) ** 2)
                        for s in sc.willie_samples(k))
        else:
            layout = benchmarks.heuristic_pass_layout(sc.r_b, sc.geom)
            g_max = _sampled_gain(layout, res.w_tilde, sc, k)
    assert _covert(power, g_max, sc)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(keys=_CONFIGS)
def test_swsp_cli_rows_are_finite_and_covert(tmp_path_factory, keys):
    out = _run(tmp_path_factory.mktemp("swsp"), ["swsp"], keys)
    if out is None:
        return
    config, rows = out
    [(rate, power)] = _rates_powers(config, rows)
    _check_solution("swsp", config.scenario("swsp"), config, config.seed, rate, power)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(keys=_CONFIGS)
def test_bench_cli_rows_are_finite_and_covert(tmp_path_factory, keys):
    out = _run(tmp_path_factory.mktemp("bench"), ["bench"], keys)
    if out is None:
        return
    config, rows = out
    rows = _rates_powers(config, rows)
    assert len(rows) == len(benchmarks.BenchmarkKind)
    for kind, (rate, power) in zip(benchmarks.BenchmarkKind, rows):
        _check_solution(kind.value, config.scenario("mwmp"), config, config.seed, rate, power)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(keys=_CONFIGS)
def test_mwmp_cli_rows_are_finite_and_covert(tmp_path_factory, keys):
    out = _run(tmp_path_factory.mktemp("mwmp"), ["mwmp"], {**keys, **_SOLVER_KEYS})
    if out is None:
        return
    config, rows = out
    [(rate, power)] = _rates_powers(config, rows)
    _check_solution("mwmp", config.scenario("mwmp"), config, config.seed, rate, power)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
# values in [0, 1] are valid for every sweep variable; the rest are mostly not
@given(keys=_CONFIGS, variable=st.sampled_from(harness.SWEEP_VARIABLES),
       value=st.one_of(st.floats(0.0, 1.0), _FLOAT_VALUES))
def test_sweep_cli_rows_are_finite_and_covert(tmp_path_factory, keys, variable, value):
    args = ["sweep", "--variable", variable, f"--values={value}"]  # "-1" is no option
    out = _run(tmp_path_factory.mktemp("sweep"), args, {**keys, **_SOLVER_KEYS})
    if out is None:
        return
    config, rows = out
    assert len(rows) == len(harness.SCHEMES)
    scenarios = harness.sample_scenarios(config)
    for row, (rate, power) in zip(rows, _rates_powers(config, rows)):
        sc = harness._apply_sweep_value(scenarios[int(row[3])], variable, float(row[2]))
        _check_solution(row[0], sc, config, int(row[6]), rate, power)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(keys=_CONFIGS)
def test_converge_mwmp_cli_rows_are_finite_and_covert(tmp_path_factory, keys):
    args = ["converge", "--case", "mwmp"]
    out = _run(tmp_path_factory.mktemp("converge"), args, {**keys, **_SOLVER_KEYS})
    if out is None:
        return
    config, rows = out
    rates = [rate for rate, _ in _rates_powers(config, rows)]
    # the rows are the mean best-so-far trace of seeded solves, each of which
    # returns a covert solution
    sc, traces = config.scenario("mwmp"), []
    for i in range(config.converge_inits):
        seed = harness.trial_seed(config.seed, i)
        sol = mwmp.solve(sc, config.pso_params(seed), k=config.willie_samples_k)
        _check_solution("mwmp", sc, config, seed, sol.rate, sol.power)
        traces.append(sol.trace)
    assert rates == np.mean(np.stack(traces), axis=0).tolist()
    assert all(b >= a for a, b in zip(rates, rates[1:]))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(keys=_CONFIGS)
def test_converge_swsp_cli_rows_are_finite_and_monotone(tmp_path_factory, keys):
    args = ["converge", "--case", "swsp"]
    out = _run(tmp_path_factory.mktemp("converge_swsp"), args, {**keys, **_TRACE_KEYS})
    if out is None:
        return
    config, rows = out
    rates = [rate for rate, _ in _rates_powers(config, rows)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    # the trace ends at the solver's answer on the same power grid
    assert rates[-1] == swsp.solve(config.scenario("swsp"), config.converge_delta_p()).rate


@pytest.mark.parametrize("case", ["swsp", "mwmp"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(keys=_CONFIGS)
def test_pattern_cli_rows_match_library_grid(tmp_path_factory, case, keys):
    keys = {**keys, **_PATTERN_KEYS}
    out = _run(tmp_path_factory.mktemp("pattern"), ["pattern", "--case", case], keys)
    if out is None:
        return
    config, rows = out
    sc, layout, beam = _solved_beam(config, case)
    res, half = config.pattern_res_m, config.pattern_y_halfwidth_m
    xs = np.linspace(0.0, sc.geom.length, round(sc.geom.length / res) + 1)
    ys = np.linspace(-half, half, round(2.0 * half / res) + 1)
    cells = np.array(rows, dtype=float)  # %.17g text parses back to the same doubles
    assert cells.shape == (xs.size * ys.size, 3)
    assert np.array_equal(cells[:, 0], np.repeat(xs, ys.size))
    assert np.array_equal(cells[:, 1], np.tile(ys, xs.size))
    grid = beam_pattern_grid(layout, beam, xs, ys, sc.pc)
    assert np.array_equal(cells[:, 2], grid.ravel())
    assert grid.max() == 1.0


def _percent_g17_map(config, case) -> bytes:
    """The pattern CSV written one cell at a time with '%.17g'."""
    sc, layout, beam = _solved_beam(config, case)
    res, half = config.pattern_res_m, config.pattern_y_halfwidth_m
    xs = np.linspace(0.0, sc.geom.length, round(sc.geom.length / res) + 1)
    ys = np.linspace(-half, half, round(2.0 * half / res) + 1)
    grid = beam_pattern_grid(layout, beam, xs, ys, sc.pc)
    lines = ["x,y,gain_normalized\n"]
    for x, row in zip(xs.tolist(), grid.tolist()):
        lines += ["%.17g,%.17g,%.17g\n" % (x, y, g) for y, g in zip(ys.tolist(), row)]
    return "".join(lines).encode()


# res 0.33 and 0.7 do not divide the 25 m waveguide, so the x texts differ in
# width; half-width 0 is the one cut at y = -0, and 0.05 one cut at y = -0.05
@pytest.mark.parametrize("case", ["swsp", "mwmp"])
@pytest.mark.parametrize("res", [0.33, 0.7, 1.1])
@pytest.mark.parametrize("half", [0.0, 0.05, 3.3])
def test_pattern_bytes_match_per_cell_writer(tmp_path, case, res, half):
    keys = {"pattern_res_m": res, "pattern_y_halfwidth_m": half}
    cfg, out = tmp_path / "cfg.json", tmp_path / "pattern.csv"
    cfg.write_text(json.dumps(keys))
    assert main(["pattern", "--config", str(cfg), "--case", case, "--out", str(out)]) == 0
    expected = _percent_g17_map(config_from_dict(keys), case)
    assert out.read_bytes() == expected
    if (case, res, half) == ("mwmp", 0.33, 3.3):  # gains below 1e-4 take '%.17g' itself
        assert b"e-0" in expected


def _matches_percent_g17(values) -> bool:
    values = np.asarray(values, dtype=float)
    block = _gain_slots(values)
    assert block.shape == values.shape + (_SLOT,)
    texts = block[block != 0].tobytes().decode().split("\n")
    return texts == ["%.17g" % v for v in values.tolist()] + [""]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1.0, allow_subnormal=True), min_size=1, max_size=64))
def test_gain_formatter_matches_percent_g17(values):
    assert _matches_percent_g17(values)


def _ulps_around(x: float, ulps: int = 40) -> np.ndarray:
    """The 2 * ulps + 1 doubles centred on the positive double x."""
    return (np.array([x]).view(np.int64) + np.arange(-ulps, ulps + 1)).view(float)


def test_gain_formatter_matches_percent_g17_at_edges():
    rng = np.random.default_rng(2024)
    # random bit patterns with the sign cleared and the biased exponent folded
    # into 0..1022, so every binade of [0, 1) is hit, subnormals included
    bits = rng.integers(0, 2**63, 20_000, dtype=np.uint64)
    exponent = (bits >> np.uint64(52)) % np.uint64(1023)
    folded = ((bits & np.uint64(2**52 - 1)) | (exponent << np.uint64(52))).view(float)
    # the binades of the fixed-notation range, where the digits are computed
    uniform = 10.0 ** rng.uniform(-4.0, 0.0, 20_000)
    edges = np.concatenate([_ulps_around(float(f"1e{k}")) for k in range(-6, 1)]
                           + [_ulps_around(1e-4)])
    # odd m / 2**(18 + z) in [10**-(z + 1), 10**-z) has exactly 18 significant
    # digits ending in 5: a tie at 17 digits, which rounds half to even
    ties = []
    for z in range(4):
        lo, hi = math.ceil(2.0 ** (18 + z) / 10 ** (z + 1)), 2 ** (18 + z) // 10**z
        odd = rng.integers(lo // 2, hi // 2, 2_000) * 2 + 1
        ties.append(odd / 2.0 ** (18 + z))
    ties = np.concatenate(ties)
    assert all(len(Decimal(t).as_tuple().digits) == 18 for t in ties.tolist())
    specials = [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0), 0.5, 2.0**-18]
    for values in (folded, uniform, edges, ties, specials):
        assert _matches_percent_g17(values)


def test_gain_formatter_decade_premise():
    # _gain_slots takes the zeros z after "0." from comparisons of a value v
    # with the doubles it names, from 1 down to 1e-4. The 17 digits of
    # v * 10**(17 + z) are exact only if each lower bound lies above
    # 10**-(z + 1), so the product reaches 10**16, and if the largest double
    # below each upper bound, times 10**(17 + z), stays more than 1/2 below
    # 10**17, so the rounding cannot carry into an 18th digit
    tree = ast.parse(textwrap.dedent(inspect.getsource(_gain_slots)))
    bounds = sorted((node.comparators[0].value for node in ast.walk(tree)
                     if isinstance(node, ast.Compare)
                     and isinstance(node.comparators[0], ast.Constant)
                     and isinstance(node.comparators[0].value, float)), reverse=True)
    assert bounds[0] == 1.0 and len(bounds) == 5
    for z, (upper, lower) in enumerate(zip(bounds, bounds[1:])):
        assert Fraction(lower) > Fraction(1, 10 ** (z + 1))
        below = Fraction(np.nextafter(upper, 0.0).item())
        assert 10**17 - below * 10 ** (17 + z) > Fraction(1, 2)
