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
    """Independent per-trial seed so parallel and serial runs agree."""
    ss = np.random.SeedSequence([int(master_seed), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_scenarios(config: ExperimentConfig) -> list[Scenario]:
    """``config.trials`` draws of Bob and the nominal warden center, uniform
    over the ground region."""
    if config.trials < 1:
        raise ValueError("need at least one scenario")
    rng = np.random.default_rng(config.seed)
    template = config.scenario("mwmp")
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
        return dataclasses.replace(sc, covertness=CovertnessSpec(1.0 - value))
    if variable == "power_budget":
        return dataclasses.replace(sc, p_max=dbm_to_watts(value))
    return dataclasses.replace(sc, willie=WillieUncertainty(sc.willie.center, value))


def solve_scheme(scheme: str, sc: Scenario, config: ExperimentConfig,
                 seed: int) -> tuple[float, float]:
    """(covert rate, transmit power) of one scheme on one scenario."""
    if scheme == "swsp":
        swsp_sc = dataclasses.replace(sc, geom=config.geometry_swsp())
        # fixed absolute resolution: under a budget sweep the candidate power
        # grids stay nested, so the rate is exactly monotone in the budget
        sol = swsp.solve(swsp_sc, config.delta_p())
        return sol.rate, sol.p_opt
    if scheme == "mwmp":
        sol = mwmp.solve(sc, config.pso_params(seed), k=config.willie_samples_k)
        return sol.rate, sol.power
    if scheme in (k.value for k in benchmarks.BenchmarkKind):
        res = benchmarks.evaluate(benchmarks.BenchmarkKind(scheme), sc,
                                  k=config.willie_samples_k)
        return res.rate, res.power
    raise ValueError(f"unknown scheme {scheme!r}; valid schemes: " + ", ".join(SCHEMES))


def run_sweep(config: ExperimentConfig, variable: str, values,
              schemes=SCHEMES) -> list[SweepRecord]:
    """Solve every (value, scheme, Monte-Carlo trial) combination.

    The same seeded scenario set and the same per-trial solver seeds are reused
    at every sweep value, so curves differ only through the swept parameter.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}; valid variables: "
                         + ", ".join(SWEEP_VARIABLES))
    values = [float(v) for v in values]
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
    scenarios = sample_scenarios(config)
    seeds = [trial_seed(config.seed, trial) for trial in range(len(scenarios))]
    records = []
    for value in values:
        # one scenario per trial and value, shared by every scheme
        swept = [_apply_sweep_value(base, variable, value) for base in scenarios]
        for scheme in schemes:
            for trial, (sc, seed) in enumerate(zip(swept, seeds)):
                rate, power = solve_scheme(scheme, sc, config, seed)
                records.append(SweepRecord(scheme, variable, value, trial,
                                           rate, power, seed))
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
        traces = []
        for i in range(config.converge_inits):
            params = config.pso_params(trial_seed(config.seed, i))
            traces.append(mwmp.solve(sc, params, k=config.willie_samples_k).trace)
        mean = np.mean(np.stack(traces), axis=0)
        return [SweepRecord("mwmp", "iteration", float(t + 1), -1, float(mean[t]),
                            0.0, config.seed)
                for t in range(mean.size)]
    raise ValueError(f"unknown convergence case {case!r}; valid cases: swsp, mwmp")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def records_to_csv(records) -> str:
    """Sweep records as CSV; floats carry 17 significant digits so a parse
    round-trips bit-exactly."""
    lines = [",".join(CSV_HEADER)]
    for r in records:
        lines.append(",".join([r.scheme, r.sweep_variable, _fmt(r.sweep_value),
                               str(r.trial), _fmt(r.covert_rate), _fmt(r.p_opt),
                               str(r.seed)]))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    rows = []
    for r in records:
        rows.append('{"scheme": "%s", "sweep_variable": "%s", "sweep_value": %s, '
                    '"trial": %d, "covert_rate_bps_hz": %s, "p_opt_watts": %s, '
                    '"seed": %d}'
                    % (r.scheme, r.sweep_variable, _fmt(r.sweep_value), r.trial,
                       _fmt(r.covert_rate), _fmt(r.p_opt), r.seed))
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def read_records(path, fmt: str = "csv") -> list[SweepRecord]:
    """Parse a file of :func:`records_to_csv` or :func:`records_to_json` text."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        if lines[:1] != [",".join(CSV_HEADER)]:
            raise ValueError(f"missing or unexpected CSV header in {path}")
        rows = [ln.split(",") for ln in lines[1:]]
    elif fmt == "json":
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise ValueError(f"expected a JSON list of records in {path}")
    else:
        raise ValueError(f"unknown input format {fmt!r}; valid formats: csv, json")
    out = []
    for i, row in enumerate(rows, 1):
        try:  # a CSV row's fields, or a JSON object's values in CSV_HEADER order
            fields = row if fmt == "csv" else [row[k] for k in CSV_HEADER]
            scheme, variable, value, trial, rate, p_opt, seed = fields
            out.append(SweepRecord(scheme, variable, float(value), int(trial),
                                   float(rate), float(p_opt), int(seed)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed record {i} in {path}: {exc!r}") from None
    return out
