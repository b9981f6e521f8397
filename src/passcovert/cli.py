"""Command-line interface: solve, benchmark, sweep, beam-pattern and trace exports."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import harness, mwmp, swsp
from .channel import beam_pattern_grid
from .config import ExperimentConfig, load_config
from .geometry import BeamVector, PinchLayout


# schemes of the single-instance subcommands, in output order; the four
# reference schemes follow swsp and mwmp in harness.SCHEMES
_SINGLE_SCHEMES = {"swsp": ("swsp",), "mwmp": ("mwmp",), "bench": harness.SCHEMES[2:]}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise, so that ``main`` reports
    them in its one ``error: ...`` line and returns 2."""

    def error(self, message):
        raise ValueError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache  # built once per process, on first use rather than at import
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="passcovert",
        description="Covert-rate solvers and benchmarks for pinching-antenna systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("swsp", "solve the single-waveguide single-antenna instance"),
        ("mwmp", "solve the multi-waveguide instance with the twin-swarm optimizer"),
        ("bench", "evaluate the four reference schemes on the configured instance"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("sweep", help="Monte-Carlo parameter sweep")
    _add_common(p)
    p.add_argument("--variable", required=True, choices=harness.SWEEP_VARIABLES)
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values, e.g. 0.8,0.85,0.9; pass a "
                        "list that starts with a negative number as --values=-10,-5")
    p.add_argument("--schemes", default=",".join(harness.SCHEMES),
                   help="comma-separated scheme names")

    p = sub.add_parser("pattern", help="emit the solved beam pattern over a ground grid")
    _add_common(p)
    p.add_argument("--case", choices=("swsp", "mwmp"), default="swsp")

    p = sub.add_parser("converge", help="emit best-so-far solver traces")
    _add_common(p)
    p.add_argument("--case", choices=("swsp", "mwmp"), default="mwmp")

    return parser


def _split(text: str) -> list[str]:
    """Items of a comma-separated list; separators alone make an empty list. An
    empty item among others fails ``run_sweep``'s number or scheme check."""
    return [s.strip() for s in text.split(",")] if text.strip(", ") else []


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _write(pieces: Iterable[str], out: str | None) -> None:
    """Write strings one after another to ``out`` (standard output when None)."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


def _emit_records(records, args) -> None:
    text = (harness.records_to_csv(records) if args.format == "csv"
            else harness.records_to_json(records))
    _write([text], args.out)


def _solved_beam(config: ExperimentConfig, case: str):
    """Layout and full beamformer of the solved instance for pattern export."""
    if case == "swsp":
        sc = config.scenario("swsp")
        sol = swsp.solve(sc, config.delta_p())  # p_opt is 0 exactly when infeasible
        x, w, power = [sol.x_opt], np.ones(1, dtype=complex), sol.p_opt
    else:
        sc = config.scenario("mwmp")
        sol = mwmp.solve(sc, config.pso_params(), k=config.willie_samples_k)
        x, w, power = sol.x_init, sol.w_tilde, sol.power
    if not power > 0.0:  # a zero-power beam has no pattern to normalize
        raise ValueError("configured instance allows no covert power; no pattern")
    return sc, PinchLayout(sc.geom, x), BeamVector(w, power)


def _pattern_csv(config: ExperimentConfig, case: str) -> Iterator[str]:
    """The pattern CSV as an iterator of grid rows of text.

    The instance is solved and the grid evaluated before this returns, so a
    bad input fails before any output is opened. The text is made one row at
    a time as it is written: the whole map never sits in memory as one string.
    """
    res, half = config.pattern_res_m, config.pattern_y_halfwidth_m
    if not res > 0.0:
        raise ValueError(f"pattern_res_m must be positive, got {res!r}")
    if not half >= 0.0:  # 0 is one cut along the waveguide axis
        raise ValueError(f"pattern_y_halfwidth_m must be non-negative, got {half!r}")
    sc, layout, beam = _solved_beam(config, case)
    xs = np.linspace(0.0, sc.geom.length, round(sc.geom.length / res) + 1)
    ys = np.linspace(-half, half, round(2.0 * half / res) + 1)
    grid = beam_pattern_grid(layout, beam, xs, ys, sc.pc)
    # one "%" per grid row fills a template holding every y of the row; the
    # gains go through the same .17g conversion as a per-cell f-string would
    tails = [f",{y:.17g},%.17g\n" for y in ys]

    def rows():
        yield "x,y,gain_normalized\n"
        for x, gains in zip(xs, grid):
            head = f"{x:.17g}"
            yield (head + head.join(tails)) % tuple(gains.tolist())

    return rows()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load(args)
        if args.command in _SINGLE_SCHEMES:
            # swsp never builds the multi-waveguide geometry, so its checks
            # (e.g. on wg_spacing_m) cannot fail a swsp solve
            sc = config.scenario("swsp" if args.command == "swsp" else "mwmp")
            records = []
            for scheme in _SINGLE_SCHEMES[args.command]:
                rate, power = harness.solve_scheme(scheme, sc, config, config.seed)
                records.append(harness.SweepRecord(scheme, "none", 0.0, 0, rate, power,
                                                   config.seed))
            _emit_records(records, args)
        elif args.command == "sweep":
            values, schemes = _split(args.values), _split(args.schemes)
            records = harness.run_sweep(config, args.variable, values, schemes)
            _emit_records(records, args)
        elif args.command == "pattern":
            if args.format != "csv":
                raise ValueError(f"pattern output is CSV only, got --format {args.format}")
            _write(_pattern_csv(config, args.case), args.out)
        elif args.command == "converge":
            _emit_records(harness.run_convergence(config, args.case), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # e.g. a convergence trace over a power grid too fine to hold in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
