"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps the names one passcovert module calls in the next (for example
``mwmp._effective_batch``, which mwmp imports from channel) and records a span
per call: its duration and the part of it covered by nested wrapped calls, so a
layer's self time is the span minus its children. Nothing under ``src/`` is
edited; the wrappers are installed on the module objects and removed again.
A name that no longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpanStats:
    """Every call of one span name. Durations are kept as plain floats, which
    the garbage collector does not track, so a long trace stays cheap."""

    durations: list[float] = field(default_factory=list)  # s
    children: list[float] = field(default_factory=list)  # s covered by nested spans
    work: int = 0  # exponentials evaluated (channel spans)
    cells: int = 0  # grid cells evaluated (pattern grid span)

    @property
    def total(self) -> float:
        return sum(self.durations)

    def self_times(self) -> list[float]:
        return [d - c for d, c in zip(self.durations, self.children)]


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    captures: list[tuple] = field(default_factory=list)  # (span, arguments, result)
    missing: list[str] = field(default_factory=list)
    _open: list[list[float]] = field(default_factory=list)
    _installed: list[tuple] = field(default_factory=list)

    def span(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, module, attr: str, span: str, work=None, capture: bool = False) -> None:
        """Replace ``module.attr`` by a timing wrapper recording spans named ``span``.

        ``work(args, kwargs)`` returns (exponentials, grid cells) of one call;
        ``capture`` keeps the bound arguments and the result for later checks.
        """
        original = getattr(module, attr, None)
        if original is None:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            if name not in self.missing:  # wrappers are installed once per traced invocation
                self.missing.append(name)
            return
        signature = inspect.signature(original) if capture else None
        stats = self.span(span)

        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += duration
            stats.durations.append(duration)
            stats.children.append(children[0])
            if work is not None:
                exps, cells = work(args, kwargs)
                stats.work += exps
                stats.cells += cells
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.captures.append((span, dict(bound.arguments), result))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def root(self, name: str, fn, *args):
        """Run ``fn`` as a top-level span; returns (result, duration)."""
        children = [0.0]
        self._open.append(children)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            stats = self.span(name)
            stats.durations.append(duration)
            stats.children.append(children[0])
        return result, duration

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _layout_exps(args, kwargs, receivers_pos: int, receivers_name: str):
    layout = _arg(args, kwargs, 0, "layout")
    receivers = np.atleast_2d(np.asarray(_arg(args, kwargs, receivers_pos, receivers_name)))
    return layout.geom.n_wg * layout.geom.m_pa * receivers.shape[0], 0


def _batch_exps(args, kwargs):
    pa_x = _arg(args, kwargs, 0, "pa_x")
    receivers = _arg(args, kwargs, 3, "receivers")
    return int(pa_x.size) * int(receivers.shape[0]), 0


def _grid_exps(args, kwargs):
    layout = _arg(args, kwargs, 0, "layout")
    cells = len(_arg(args, kwargs, 2, "xs")) * len(_arg(args, kwargs, 3, "ys"))
    return layout.geom.n_wg * layout.geom.m_pa * cells, cells


# every name a caller imports from passcovert.channel
CHANNEL_SPANS = ("mwmp._effective_batch", "mwmp.beam_gain", "detection.beam_gain",
                 "benchmarks.effective_channel_at", "cli.beam_pattern_grid")


def boundaries():
    """Wrap points as (module, attribute, span name, work counter, capture)."""
    from passcovert import benchmarks, cli, detection, harness, mwmp, swsp

    return (
        (mwmp, "_effective_batch", "mwmp._effective_batch", _batch_exps, False),
        (mwmp, "beam_gain", "mwmp.beam_gain",
         lambda a, k: _layout_exps(a, k, 2, "receivers"), False),
        (detection, "beam_gain", "detection.beam_gain",
         lambda a, k: _layout_exps(a, k, 2, "receivers"), False),
        (benchmarks, "effective_channel_at", "benchmarks.effective_channel_at",
         lambda a, k: _layout_exps(a, k, 1, "receivers"), False),
        (cli, "beam_pattern_grid", "cli.beam_pattern_grid", _grid_exps, False),
        (mwmp, "solve", "mwmp.solve", None, True),
        (swsp, "solve", "swsp.solve", None, True),
        (benchmarks, "evaluate", "benchmarks.evaluate", None, True),
        (harness, "run_sweep", "harness.run_sweep", None, False),
        (harness, "solve_scheme", "harness.solve_scheme", None, False),
        (harness, "sample_scenarios", "harness.sample_scenarios", None, False),
        (harness, "records_to_csv", "harness.emit", None, False),
        (harness, "records_to_json", "harness.emit", None, False),
        (cli, "load_config", "config.load_config", None, False),
        (cli, "_write", "cli.write", None, False),
    )


def install(tracer: Tracer) -> None:
    for module, attr, span, work, capture in boundaries():
        tracer.wrap(module, attr, span, work, capture)


def exp_peak_rate() -> float:
    """np.exp throughput on one contiguous complex array, in exponentials per second."""
    z = 1j * np.linspace(0.0, 1000.0, 1 << 16)
    times = []
    for _ in range(21):
        start = time.perf_counter()
        np.exp(z)
        times.append(time.perf_counter() - start)
    return z.size / statistics.median(times)


def _pct(values, q: int) -> float:
    """q-th percentile (inclusive method); 0 when there are no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# wrapped names each metric group needs; a group whose names are missing is omitted
REQUIRES = {
    "channel": CHANNEL_SPANS,
    "mwmp": ("mwmp.solve", "mwmp._effective_batch", "mwmp.beam_gain", "detection.beam_gain"),
    "swsp": ("swsp.solve",),
    "benchmarks": ("benchmarks.evaluate",),
    "detection": ("mwmp.solve", "swsp.solve", "benchmarks.evaluate"),
    "harness": ("harness.run_sweep", "harness.solve_scheme", "harness.sample_scenarios",
                "harness.records_to_csv", "harness.records_to_json"),
    "config": ("cli.load_config",),
    "cli": ("cli._write", "cli.load_config", "cli.beam_pattern_grid", "mwmp.solve",
            "swsp.solve"),
    "trace": (),
}


def per_layer_metrics(tracer: Tracer, traced, verdict, overhead_frac: float,
                      peak_exp_rate: float) -> dict:
    """Per-layer metrics of one traced pass over the quality set."""
    def ms(name: str, scale: float = 1e3) -> list[float]:
        return [d * scale for d in tracer.span(name).durations]

    total = tracer.span("cli.main").total
    channel = [tracer.span(name) for name in CHANNEL_SPANS]
    channel_s = sum(s.total for s in channel)
    exps = sum(s.work for s in channel)
    grid = tracer.span("cli.beam_pattern_grid")
    mwmp_solve = tracer.span("mwmp.solve")
    swsp_solve = tracer.span("swsp.solve")
    captured = {name: [(a, r) for span, a, r in tracer.captures if span == name]
                for name in ("mwmp.solve", "swsp.solve", "benchmarks.evaluate")}
    grid_points = sum(math.floor(a["sc"].p_max / a["delta_p"] + 1e-9)
                      for a, _ in captured["swsp.solve"])
    solved = {name: [s for s in verdict.solved if s.scheme == name] for name in ("mwmp", "swsp")}
    sweep_s = tracer.span("harness.run_sweep").total
    scheme_s = tracer.span("harness.solve_scheme").total
    roots = zip(tracer.span("cli.main").self_times(), traced.runs)
    pattern_self = [t for t, run in roots if run.inv.is_pattern]
    margins = [s.margin for s in verdict.solved]

    metrics = {
        "channel.calls": (sum(len(s.durations) for s in channel), "count"),
        "channel.exp_count": (exps, "count"),
        "channel.self_s": (sum(sum(s.self_times()) for s in channel), "s"),
        "channel.share": (channel_s / total, "frac"),
        "channel.ns_per_exp": (channel_s / exps * 1e9 if exps else 0.0, "ns"),
        "channel.exp_peak_frac": (exps / channel_s / peak_exp_rate if channel_s else 0.0,
                                  "frac"),
        "channel.grid_ns_per_cell": (grid.total / grid.cells * 1e9 if grid.cells else 0.0,
                                     "ns"),
        "mwmp.solves": (len(mwmp_solve.durations), "count"),
        "mwmp.share": (mwmp_solve.total / total, "frac"),
        "mwmp.solve_ms_p50": (_pct(ms("mwmp.solve"), 50), "ms"),
        "mwmp.solve_ms_p90": (_pct(ms("mwmp.solve"), 90), "ms"),
        "mwmp.self_ms_p50": (_pct([t * 1e3 for t in mwmp_solve.self_times()], 50), "ms"),
        "mwmp.best_iter_frac": (
            statistics.median([s.best_iter_frac for s in solved["mwmp"]])
            if solved["mwmp"] else 0.0, "frac"),
        "mwmp.mean_rate_bps_hz": (_mean([s.rate for s in solved["mwmp"]]), "bps/Hz"),
        "swsp.solves": (len(swsp_solve.durations), "count"),
        "swsp.share": (swsp_solve.total / total, "frac"),
        "swsp.solve_ms_p50": (_pct(ms("swsp.solve"), 50), "ms"),
        "swsp.solve_ms_p90": (_pct(ms("swsp.solve"), 90), "ms"),
        "swsp.grid_points": (grid_points, "count"),
        "swsp.ns_per_grid_point": (
            swsp_solve.total / grid_points * 1e9 if grid_points else 0.0, "ns"),
        "swsp.infeasible": (sum(not r.feasible for _, r in captured["swsp.solve"]), "count"),
        "swsp.mean_rate_bps_hz": (_mean([s.rate for s in solved["swsp"]]), "bps/Hz"),
        "benchmarks.evals": (len(captured["benchmarks.evaluate"]), "count"),
        "benchmarks.share": (tracer.span("benchmarks.evaluate").total / total, "frac"),
        "benchmarks.eval_us_p50": (_pct(ms("benchmarks.evaluate", 1e6), 50), "us"),
        "benchmarks.eval_us_p90": (_pct(ms("benchmarks.evaluate", 1e6), 90), "us"),
        "benchmarks.degenerate": (sum(r.rate == 0.0 and r.w_tilde is None
                                      for _, r in captured["benchmarks.evaluate"]), "count"),
        "detection.violations": (sum(m > 1.0 + 1e-9 for m in margins), "count"),
        "detection.worst_margin": (max(margins, default=0.0), "ratio"),
        "detection.budget_binding_frac": (
            _mean([float(s.power < s.p_max) for s in verdict.solved]), "frac"),
        "harness.sample_ms": (_pct(ms("harness.sample_scenarios"), 50), "ms"),
        "harness.overhead_frac": ((sweep_s - scheme_s) / sweep_s if sweep_s else 0.0, "frac"),
        "harness.emit_ms": (_pct(ms("harness.emit"), 50), "ms"),
        "harness.emit_bytes": (sum(run.size for run in traced.runs
                                   if not run.inv.is_pattern), "bytes"),
        "harness.read_ms": (_pct([t * 1e3 for t in verdict.read_times], 50), "ms"),
        "config.load_ms": (_pct(ms("config.load_config"), 50), "ms"),
        "cli.format_s": (_pct(pattern_self, 50), "s"),
        "cli.write_ms": (_pct(ms("cli.write"), 50), "ms"),
        "cli.bytes_out": (sum(run.size for run in traced.runs), "bytes"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
    missing = set(tracer.missing)
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
            if not missing.intersection(REQUIRES[name.split(".")[0]])}
