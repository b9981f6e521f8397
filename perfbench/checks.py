"""Output checks: payload parsing, record and cell validity, and covertness of
the beams the solvers return.

An op (one record, or one grid cell) fails when the run raised, when it is
missing or malformed, when a value is not finite, when a power lies outside
[0, P_max], when a pattern cell lies outside [0, 1], or when a checked record's
solver result does not reproduce it bit-exactly or breaks the sampled warden
gain budget Gamma_w by more than ``MARGIN_TOL`` relative.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from passcovert import benchmarks, config as pc_config, harness, mwmp, swsp
from passcovert.channel import beam_gain
from passcovert.constants import dbm_to_watts
from passcovert.detection import CovertnessSpec, WillieUncertainty
from passcovert.geometry import BeamVector, PinchLayout
from workloads import pattern_shape

MARGIN_TOL = 1e-9  # relative slack on P * g_max <= Gamma_w
RATE_TOL = 1e-9  # relative slack on the rate re-derived from the beam
CELL_TOL = 1e-9  # absolute slack on a re-derived normalized pattern cell
CELL_SAMPLES = 64  # cells re-derived per pattern
SUBSET_PER_SCHEME = 5  # quality-set records per scheme re-solved in an untraced pass


@dataclass
class Solved:
    """A solver result reduced to what the checks need."""

    scheme: str
    rate: float
    power: float
    p_max: float
    margin: float  # P * g_max / Gamma_w over the sampled warden positions
    beam_rate: float  # log2(1 + P * g_bob / sigma_b^2) from the returned beam
    best_iter_frac: float | None = None  # mwmp only


def apply_sweep_value(sc, variable: str, value: float):
    """The scenario a sweep evaluates at ``value``, per the CLI's documented
    semantics; written out here so that a refactor of harness internals cannot
    break the checks."""
    if variable == "target_error_rate":
        return dataclasses.replace(sc, covertness=CovertnessSpec(1.0 - value))
    if variable == "power_budget":
        return dataclasses.replace(sc, p_max=dbm_to_watts(value))
    return dataclasses.replace(sc, willie=WillieUncertainty(sc.willie.center, value))


def _pass_gains(layout, w, sc, k: int):
    samples = sc.willie_samples(k)
    g_bob = float(beam_gain(layout, w, sc.r_b[None, :], sc.pc)[0])
    return g_bob, float(beam_gain(layout, w, samples, sc.pc).max())


def summarize(scheme: str, sc, result, k: int) -> Solved:
    """Gains at Bob and at the sampled warden positions of the returned beam."""
    gamma_w = sc.gain_budget()
    best_iter_frac = None
    if scheme == "swsp":
        rate, power = result.rate, result.p_opt
        if not result.feasible:
            return Solved(scheme, rate, power, sc.p_max, 0.0, 0.0)
        layout = PinchLayout(sc.geom, np.array([result.x_opt]))
        g_bob, g_max = _pass_gains(layout, np.ones(1, dtype=complex), sc, k)
    elif scheme == "mwmp":
        rate, power = result.rate, result.power
        layout = PinchLayout(sc.geom, result.x_init)
        g_bob, g_max = _pass_gains(layout, result.w_tilde, sc, k)
        trace = np.asarray(result.trace)
        best_iter_frac = (int(np.argmax(trace == trace[-1])) + 1) / trace.size
    else:
        rate, power = result.rate, result.power
        if result.w_tilde is None:
            return Solved(scheme, rate, power, sc.p_max, 0.0, 0.0)
        if scheme.startswith("mimo"):
            n, h = sc.geom.n_wg, sc.geom.height
            g_bob = float(abs(benchmarks.ula_channel(sc.r_b, n, h, sc.pc) @ result.w_tilde) ** 2)
            g_max = max(float(abs(benchmarks.ula_channel(s, n, h, sc.pc) @ result.w_tilde) ** 2)
                        for s in sc.willie_samples(k))
        else:
            layout = benchmarks.heuristic_pass_layout(sc.r_b, sc.geom)
            g_bob, g_max = _pass_gains(layout, result.w_tilde, sc, k)
    beam_rate = math.log2(1.0 + power * g_bob / sc.sigma_b_sq)
    return Solved(scheme, rate, power, sc.p_max, power * g_max / gamma_w, beam_rate,
                  best_iter_frac)


def solved_ok(s: Solved) -> bool:
    return (s.margin <= 1.0 + MARGIN_TOL
            and math.isclose(s.beam_rate, s.rate, rel_tol=RATE_TOL, abs_tol=1e-12))


def resolve_record(inv, record, scenarios) -> Solved:
    """Run the record's solver again on its scenario, outside the timed phase."""
    config = pc_config.config_from_dict(inv.config)
    sc = apply_sweep_value(scenarios[record.trial], inv.variable, record.sweep_value)
    k = config.willie_samples_k
    if record.scheme == "swsp":
        sc = dataclasses.replace(sc, geom=config.geometry_swsp())
        return summarize("swsp", sc, swsp.solve(sc, config.delta_p()), k)
    if record.scheme == "mwmp":
        return summarize("mwmp", sc, mwmp.solve(sc, config.pso_params(record.seed), k=k), k)
    kind = benchmarks.BenchmarkKind(record.scheme)
    return summarize(record.scheme, sc, benchmarks.evaluate(kind, sc, k=k), k)


def pattern_beam(case: str, sc, sol):
    """Layout and beamformer a pattern run draws for the solved instance."""
    if case == "swsp":
        return (PinchLayout(sc.geom, np.array([sol.x_opt])),
                BeamVector(np.ones(1, dtype=complex), sol.p_opt))
    return PinchLayout(sc.geom, sol.x_init), BeamVector(sol.w_tilde, sol.power)


def resolve_pattern(inv):
    """(scenario, solver result) of the instance a pattern run draws."""
    config = pc_config.config_from_dict(inv.config)
    sc = config.scenario(inv.case)
    if inv.case == "swsp":
        return sc, swsp.solve(sc, config.delta_p())
    return sc, mwmp.solve(sc, config.pso_params(), k=config.willie_samples_k)


def expected_keys(inv):
    return [(scheme, inv.variable, float(value), trial)
            for value in inv.values for scheme in inv.schemes for trial in range(inv.trials)]


@dataclass
class RecordCheck:
    records: list  # parsed records, in payload order ([] when unreadable)
    bad: set  # indices of expected records that fail
    read_s: float


def check_records(inv, path) -> RecordCheck:
    """Parse a sweep payload with the program's reader and validate every record."""
    keys = expected_keys(inv)
    start = time.perf_counter()
    try:
        records = harness.read_records(path, inv.fmt)
    except (ValueError, KeyError, IndexError, OSError):
        return RecordCheck([], set(range(len(keys))), time.perf_counter() - start)
    read_s = time.perf_counter() - start
    config = pc_config.config_from_dict(inv.config)
    bad = set(range(len(records), len(keys)))
    for i, (rec, key) in enumerate(zip(records, keys)):
        p_max = (dbm_to_watts(rec.sweep_value) if inv.variable == "power_budget"
                 else config.p_max_watts)
        if ((rec.scheme, rec.sweep_variable, rec.sweep_value, rec.trial) != key
                or not math.isfinite(rec.covert_rate) or rec.covert_rate < 0.0
                or not math.isfinite(rec.p_opt) or not 0.0 <= rec.p_opt <= p_max):
            bad.add(i)
    return RecordCheck(records, bad, read_s)


def record_matches(rec, s: Solved) -> bool:
    """Payload value equals the solver's own value bit-exactly, and the beam is covert."""
    return rec.covert_rate == s.rate and rec.p_opt == s.power and solved_ok(s)


def check_pattern(inv, path, layout, beam, pc, rng) -> int:
    """Failed cells of a pattern payload: coordinates, ranges and sampled cells."""
    nx, ny = pattern_shape()
    cells = nx * ny
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    try:
        values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
        values = values.reshape(cells, 3)
    except ValueError:
        return cells
    if header != "x,y,gain_normalized":
        return cells
    config = pc_config.config_from_dict(inv.config)
    xs = np.linspace(0.0, config.waveguide_length_m, nx)
    half = config.pattern_y_halfwidth_m
    ys = np.linspace(-half, half, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gain = values[:, 2]
    bad = ((values[:, 0] != gx.ravel()) | (values[:, 1] != gy.ravel())
           | ~np.isfinite(gain) | (gain < 0.0) | (gain > 1.0))
    peak = np.flatnonzero(gain == 1.0)
    if peak.size == 0:
        return cells
    # re-derive sampled cells from the returned beam, normalized at the peak cell
    picks = rng.sample(range(cells), min(CELL_SAMPLES, cells))
    points = np.column_stack([values[[peak[0]] + picks, :2], np.zeros(len(picks) + 1)])
    gains = beam_gain(layout, beam.weights, points, pc)
    if gains[0] > 0.0:
        derived = gains[1:] / gains[0]
        bad[picks] |= np.abs(derived - gain[picks]) > CELL_TOL
    else:
        bad[picks] = True
    return int(bad.sum())


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    panel_rates: list[float] = field(default_factory=list)  # bits/s/Hz
    solved: list = field(default_factory=list)  # Solved whose beams were checked
    read_times: list[float] = field(default_factory=list)  # s per harness.read_records

    def mean_rate(self) -> float:
        return statistics.fmean(self.panel_rates) if self.panel_rates else 0.0


SOLVER_SPANS = {"mwmp.solve": "mwmp", "swsp.solve": "swsp", "benchmarks.evaluate": None}


def captured_solves(tracer, run) -> list:
    """(scheme, scenario, result) of every solver call a traced run made, in order."""
    out = []
    for span, arguments, result in tracer.captures[run.captures[0]:run.captures[1]]:
        scheme = SOLVER_SPANS[span] or arguments["kind"].value
        out.append((scheme, arguments["sc"], result))
    return out


def verify(workload, seed: int, passed, tracer=None) -> Verdict:
    """Check every payload of a pass and count failed ops.

    A traced pass is checked against every solver result the tracer captured;
    an untraced one re-solves a seeded subset of fixed size of the quality set.
    """
    verdict = Verdict()
    rng = random.Random(f"{workload.name}:{seed}:checks")
    bad: dict[int, set] = {}
    parsed: dict[int, list] = {}
    for idx, run in enumerate(passed.runs):
        inv = run.inv
        in_panel = idx < passed.panel
        verdict.attempted += inv.ops
        if run.code != 0:
            bad[idx] = set(range(inv.ops))
            continue
        k = pc_config.config_from_dict(inv.config).willie_samples_k
        if inv.is_pattern:
            if tracer is not None:
                _, sc, sol = captured_solves(tracer, run)[0]
            else:
                sc, sol = resolve_pattern(inv)
            solved = summarize(inv.case, sc, sol, k)
            layout, beam = pattern_beam(inv.case, sc, sol)
            bad_cells = check_pattern(inv, run.path, layout, beam, sc.pc, rng)
            if not solved_ok(solved):
                bad_cells = inv.ops
            bad[idx] = set(range(bad_cells))
            verdict.solved.append(solved)
            # swsp instances only: an mwmp rate depends on the swarm's path, and
            # over the panel's four mwmp patterns other PSO seeds moved the mean
            # by 5-16%; sweep_full carries mwmp quality over 112 solves
            if in_panel and inv.case == "swsp":
                verdict.panel_rates.append(solved.rate)
            continue
        check = check_records(inv, run.path)
        verdict.read_times.append(check.read_s)
        bad[idx] = check.bad
        parsed[idx] = check.records
        if in_panel:
            verdict.panel_rates.extend(r.covert_rate for r in check.records)
        if tracer is not None:
            solves = captured_solves(tracer, run)
            for i, (rec, (scheme, sc, result)) in enumerate(zip(check.records, solves)):
                solved = summarize(scheme, sc, result, k)
                verdict.solved.append(solved)
                if rec.scheme != scheme or not record_matches(rec, solved):
                    bad[idx].add(i)
            bad[idx].update(range(len(solves), len(check.records)))
    if tracer is None:
        _resolve_subset(passed, parsed, bad, verdict, rng)
    verdict.failed = sum(len(b) for b in bad.values())
    return verdict


def _resolve_subset(passed, parsed: dict, bad: dict, verdict: Verdict, rng) -> None:
    """Re-solve SUBSET_PER_SCHEME seeded records per scheme of the quality set."""
    by_scheme: dict[str, list] = {}
    for idx, records in parsed.items():
        if idx < passed.quality:
            for i, rec in enumerate(records):
                by_scheme.setdefault(rec.scheme, []).append((idx, i))
    scenarios = {}
    for scheme in sorted(by_scheme):
        picks = by_scheme[scheme]
        for idx, i in sorted(rng.sample(picks, min(SUBSET_PER_SCHEME, len(picks)))):
            inv = passed.runs[idx].inv
            if idx not in scenarios:
                scenarios[idx] = harness.sample_scenarios(pc_config.config_from_dict(inv.config))
            rec = parsed[idx][i]
            solved = resolve_record(inv, rec, scenarios[idx])
            verdict.solved.append(solved)
            if not record_matches(rec, solved):
                bad[idx].add(i)
