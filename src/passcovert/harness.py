"""Seeded Monte-Carlo scenario generation, parameter sweeps, and record emission."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import benchmarks, mwmp, swsp
from .config import ExperimentConfig
from .constants import dbm_to_watts
from .detection import CovertnessSpec, WillieUncertainty
from .scenario import Scenario

SCHEMES = ("swsp", "mwmp", "mimo_zf", "mimo_mrt", "pass_zf", "pass_mrt")
SWEEP_VARIABLES = ("target_error_rate", "power_budget", "uncertainty_radius")

CSV_HEADER = ("scheme", "sweep_variable", "sweep_value", "trial",
              "covert_rate_bps_hz", "p_opt_watts", "seed")

_SCENARIO_Y_HALFWIDTH = 7.5  # m, Monte-Carlo region is [0, L] x [-7.5, 7.5]
_MIN_SEPARATION = 1.0  # m, resample wardens landing on top of Bob


@dataclass(frozen=True)
class SweepRecord:
    scheme: str
    sweep_variable: str
    sweep_value: float
    trial: int
    covert_rate: float  # bits/s/Hz
    p_opt: float  # W
    seed: int


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial seed that depends only on the master seed and the trial index."""
    ss = np.random.SeedSequence([int(master_seed), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_scenarios(config: ExperimentConfig, kind: str = "mwmp") -> list[Scenario]:
    """``config.trials`` draws of Bob and the nominal warden center, uniform
    over the ground region, on ``config.scenario(kind)``; the draws do not
    depend on ``kind``."""
    if config.trials < 1:
        raise ValueError("need at least one scenario")
    rng = np.random.default_rng(config.seed)
    template = config.scenario(kind)
    x_hi = config.waveguide_length_m
    out = []
    for _ in range(config.trials):
        bob = np.array([rng.uniform(0.0, x_hi),
                        rng.uniform(-_SCENARIO_Y_HALFWIDTH, _SCENARIO_Y_HALFWIDTH), 0.0])
        while True:
            willie = np.array([rng.uniform(0.0, x_hi),
                               rng.uniform(-_SCENARIO_Y_HALFWIDTH, _SCENARIO_Y_HALFWIDTH), 0.0])
            if np.hypot(*(willie[:2] - bob[:2])) >= _MIN_SEPARATION:
                break
        out.append(dataclasses.replace(
            template, r_b=bob,
            willie=WillieUncertainty(willie, config.delta_r_m)))
    return out


def _apply_sweep_value(sc: Scenario, variable: str, value: float) -> Scenario:
    """The scenario at one sweep value; ``run_sweep`` has validated ``variable``."""
    if variable == "target_error_rate":
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"target_error_rate sweep value {value} must lie in [0, 1]")
        return dataclasses.replace(sc, covertness=CovertnessSpec(1.0 - value))
    if variable == "power_budget":
        return dataclasses.replace(sc, p_max=dbm_to_watts(value, "power_budget sweep value"))
    if not value >= 0.0:  # run_sweep has rejected non-finite values
        raise ValueError(f"uncertainty_radius sweep value {value} must be a finite "
                         "non-negative number")
    return dataclasses.replace(sc, willie=WillieUncertainty(sc.willie.center, value))


def solve_scheme(scheme: str, sc: Scenario, config: ExperimentConfig, seed: int):
    """(covert rate, transmit power, solver result) of one scheme on one scenario;
    the result is a ``SwspSolution``, ``MwmpSolution`` or ``BenchmarkResult``."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; valid schemes: " + ", ".join(SCHEMES))
    if scheme == "swsp":
        # fixed absolute resolution: under a budget sweep the candidate power
        # grids stay nested, so the rate is exactly monotone in the budget
        sol = swsp.solve(sc, config.delta_p())
        return sol.rate, sol.p_opt, sol
    if scheme == "mwmp":
        sol = mwmp.solve(sc, config.pso_params(seed), k=config.willie_samples_k)
        return sol.rate, sol.power, sol
    res = benchmarks.evaluate(benchmarks.BenchmarkKind(scheme), sc, k=config.willie_samples_k)
    return res.rate, res.power, res


def run_sweep(config: ExperimentConfig, variable: str, values,
              schemes=SCHEMES) -> list[SweepRecord]:
    """Solve every (value, scheme, Monte-Carlo trial) combination.

    The same seeded scenario set and the same per-trial solver seeds are reused
    at every sweep value, so curves differ only through the swept parameter.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}; valid variables: "
                         + ", ".join(SWEEP_VARIABLES))
    try:
        values = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"sweep values must be numbers: {exc}") from None
    if not values:
        raise ValueError("need at least one sweep value")
    # a repeated value or scheme would pass its records off as more trials
    if not all(math.isfinite(v) for v in values) or len(set(values)) < len(values):
        raise ValueError(f"sweep values must be distinct finite numbers, got {values}")
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("need at least one scheme; valid schemes: " + ", ".join(SCHEMES))
    if len(set(schemes)) < len(schemes):
        raise ValueError("schemes must not repeat, got " + ", ".join(schemes))
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; valid schemes: " + ", ".join(SCHEMES))
    # a sweep of swsp alone never builds the multi-waveguide geometry
    scenarios = sample_scenarios(config, "swsp" if schemes == ("swsp",) else "mwmp")
    seeds = [trial_seed(config.seed, trial) for trial in range(len(scenarios))]
    swsp_geom = config.geometry_swsp() if "swsp" in schemes else None
    # each value's scenarios, one per trial, exist before the first solve, so a bad
    # value fails before any work; swsp takes them on the single waveguide
    swept = [[_apply_sweep_value(base, variable, value) for base in scenarios]
             for value in values]
    records = []
    for value, trials in zip(values, swept):
        for scheme in schemes:
            instances = ([dataclasses.replace(sc, geom=swsp_geom) for sc in trials]
                         if scheme == "swsp" else trials)
            for trial, (sc, seed) in enumerate(zip(instances, seeds)):
                rate, power, _ = solve_scheme(scheme, sc, config, seed)
                records.append(SweepRecord(scheme, variable, value, trial, rate, power, seed))
    return records


def mean_rates(records) -> dict[tuple[str, float], float]:
    """Mean covert rate per (scheme, sweep value); means ignore the trial axis."""
    sums: dict[tuple[str, float], list[float]] = {}
    for r in records:
        sums.setdefault((r.scheme, r.sweep_value), []).append(r.covert_rate)
    return {key: float(np.mean(v)) for key, v in sums.items()}


def run_convergence(config: ExperimentConfig, case: str) -> list[SweepRecord]:
    """Best-so-far traces: per power step (swsp) or per optimizer iteration (mwmp).

    Rows carry trial = -1 because they are means over the configured number of
    random initializations (the swsp search is deterministic, so one run).
    """
    if case == "swsp":
        powers, trace = swsp.rate_trace(config.scenario("swsp"), config.converge_delta_p())
        if trace.size == 0:  # no grid power is covert or within the budget
            trace, powers = np.zeros(1), np.zeros(1)
        return [SweepRecord("swsp", "iteration", float(i + 1), -1, float(trace[i]),
                            float(powers[i]), config.seed)
                for i in range(trace.size)]
    if case == "mwmp":
        if config.converge_inits < 1:
            raise ValueError(f"converge_inits must be at least 1, got {config.converge_inits}")
        sc = config.scenario("mwmp")
        traces = [solve_scheme("mwmp", sc, config, trial_seed(config.seed, i))[2].trace
                  for i in range(config.converge_inits)]
        mean = np.mean(np.stack(traces), axis=0)
        return [SweepRecord("mwmp", "iteration", float(t + 1), -1, float(mean[t]),
                            0.0, config.seed)
                for t in range(mean.size)]
    raise ValueError(f"unknown convergence case {case!r}; valid cases: swsp, mwmp")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _rows(records, template: str) -> list[str]:
    """Each record's seven fields in a ``%`` row template, floats through ``_fmt``."""
    return [template % (r.scheme, r.sweep_variable, _fmt(r.sweep_value), r.trial,
                        _fmt(r.covert_rate), _fmt(r.p_opt), r.seed) for r in records]


def records_to_csv(records) -> str:
    """Sweep records as CSV; floats carry 17 significant digits so a parse
    round-trips bit-exactly."""
    return "\n".join([",".join(CSV_HEADER)] + _rows(records, "%s,%s,%s,%d,%s,%s,%d")) + "\n"


def records_to_json(records) -> str:
    rows = _rows(records, '{"scheme": "%s", "sweep_variable": "%s", "sweep_value": %s, '
                          '"trial": %d, "covert_rate_bps_hz": %s, "p_opt_watts": %s, "seed": %d}')
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def read_records(path, fmt: str = "csv") -> list[SweepRecord]:
    """Parse a file of :func:`records_to_csv` or :func:`records_to_json` text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        if lines[:1] != [",".join(CSV_HEADER)]:
            raise ValueError(f"missing or unexpected CSV header in {path}")
        rows = [ln.split(",") for ln in lines[1:]]
    elif fmt == "json":
        try:
            rows = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from None
        if not isinstance(rows, list):
            raise ValueError(f"expected a JSON list of records in {path}")
    else:
        raise ValueError(f"unknown input format {fmt!r}; valid formats: csv, json")
    out = []
    for i, row in enumerate(rows, 1):
        try:  # a CSV row's fields, or a JSON object's values in CSV_HEADER order
            fields = row if fmt == "csv" else _json_fields(row)
            scheme, variable, value, trial, rate, p_opt, seed = fields
            out.append(SweepRecord(scheme, variable, float(value), int(trial),
                                   float(rate), float(p_opt), int(seed)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed record {i} in {path}: {exc!r}") from None
    return out


# the JSON types each CSV_HEADER field takes; the writer prints a whole float
# such as 10.0 as 10, so the float fields take integers too, but no booleans
_JSON_TYPES = ((str,), (str,), (int, float), (int,), (int, float), (int, float), (int,))


def _json_fields(row) -> list:
    """The values of a JSON record of exactly the CSV_HEADER keys, in that order."""
    if not isinstance(row, dict) or row.keys() != set(CSV_HEADER):
        raise ValueError(f"expected an object with the keys {', '.join(CSV_HEADER)}")
    fields = [row[k] for k in CSV_HEADER]
    for key, value, kinds in zip(CSV_HEADER, fields, _JSON_TYPES):
        if type(value) not in kinds:  # type(True) is bool, not int
            raise ValueError(f"{key} must be {' or '.join(k.__name__ for k in kinds)}, "
                             f"got {value!r}")
    return fields
