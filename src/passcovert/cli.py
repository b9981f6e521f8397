"""Command-line interface: solve, benchmark, sweep, beam-pattern and trace exports."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from . import harness
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
    sc = config.scenario(case)
    _, power, sol = harness.solve_scheme(case, sc, config, config.seed)
    if not power > 0.0:  # a zero-power beam has no pattern to normalize
        raise ValueError("configured instance allows no covert power; no pattern")
    x, w = ([sol.x_opt], [1.0]) if case == "swsp" else (sol.x_init, sol.w_tilde)
    return sc, PinchLayout(sc.geom, x), BeamVector(w, power)


# 2**27 + 1: Veltkamp's constant, which splits a double into two halves of at
# most 26 significant bits each, so that products of halves are exact
_VELTKAMP = 134217729.0
# 10**(17 + z) for z = 0..3 zeros after "0.", each exact in a double, and
# its Veltkamp halves
_SCALES = np.array([float(10**k) for k in range(17, 21)])
# two ASCII digits per uint16, written at even byte offsets: entries 0-99
# are "00".."99", entries 100-199 the same pairs with trailing zeros as 0 bytes
_DIGIT_PAIRS = np.frombuffer(
    "".join(f"{i:02d}" for i in range(100)).encode()
    + b"".join(f"{i:02d}".rstrip("0").encode().ljust(2, b"\0") for i in range(100)),
    np.uint16)
# "0." and z = 0..3 zeros, right-aligned in the 5 bytes before the digits, as
# the first 8 bytes of a slot, whose last 3 the digits overwrite
_FIXED_PREFIX = np.frombuffer(
    b"".join(("0." + "0" * z).encode().rjust(5, b"\0").ljust(8, b"\0") for z in range(4)),
    np.uint64)
# bytes per gain slot: prefix 0-4, 17 digits 5-21, newline 22, 0 at 23; the
# longest '%.17g' of a non-negative double, as 2.2250738585072009e-308, has 23
_SLOT = 24
# about how many pattern cells are formatted at once: a whole number of grid
# rows, whose arrays and texts take about 430 KB (tracemalloc) at 2,048 cells
_PATTERN_BLOCK_CELLS = 2048


def _veltkamp(a):
    """Veltkamp's split: ``hi + lo == a`` with each half of at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_SCALE_HI, _SCALE_LO = _veltkamp(_SCALES)


def _digits17(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``v * 10**(17 + z)`` rounded to the nearest integer, ties to even.

    Dekker's two-product gives the product exactly as ``hi + lo``. Where it
    reaches 17 digits, ``hi`` is at least 2**53 and so an even integer, and
    rounding ``lo`` half to even rounds the whole sum half to even: the rule
    of CPython's correctly rounded ``'%.17g'``.
    """
    vhi, vlo = _veltkamp(v)
    shi, slo = _SCALE_HI[z], _SCALE_LO[z]
    hi = v * _SCALES[z]
    lo = ((vhi * shi - hi) + vhi * slo + vlo * shi) + vlo * slo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _text_table(values: np.ndarray, end: str) -> np.ndarray:
    """``'%.17g' % v + end`` for each value of a 1-D float array, as one row of
    ASCII bytes each, padded with 0 bytes to the longest."""
    texts = np.array([f"{v:.17g}{end}" for v in values.tolist()], dtype=bytes)
    return texts.view(np.uint8).reshape(len(texts), -1)


def _gain_slots(values: np.ndarray) -> np.ndarray:
    """``'%.17g\\n' % v`` for each value of a float array, byte for byte, as
    ``_SLOT`` bytes per value padded with 0 bytes: shape ``values.shape + (_SLOT,)``.

    A value in [1e-4, 1) prints as "0.", z = 0..3 zeros and its 17
    significant digits less trailing zeros; those are written for the whole
    array at once. Any other value is formatted by ``'%.17g'`` itself.
    """
    fast = (values >= 1e-4) & (values < 1.0)
    v = np.where(fast, values, 0.5)  # no cast of inf or nan to int64 below
    # exact: the doubles 0.1, 0.01, 0.001 and 1e-4 bounding z = 0..3 from below
    # lie above 10**-(z + 1), so v * 10**(17 + z) >= 10**16; the largest double
    # below 1, 0.1, 0.01 and 0.001, times 10**(17 + z), lies 11.1, 8.3, 15.3 and
    # 19.6 below 10**17, so the rounding never carries into an 18th digit
    z = (v < 0.1).astype(np.intp) + (v < 0.01) + (v < 0.001)
    n = _digits17(v, z)
    block = np.zeros(values.shape + (_SLOT,), np.uint8)
    block.view(np.uint64)[..., 0] = _FIXED_PREFIX[z]
    pairs = block.view(np.uint16)  # pair j holds bytes 2j and 2j + 1
    trailing = np.full(values.shape, 100)  # 100 while every lower digit is 0
    for j in range(10, 2, -1):
        q = n // 100
        r = n - 100 * q
        pairs[..., j] = _DIGIT_PAIRS[r + trailing]
        trailing[r != 0] = 0
        n = q
    block[..., 5] = n + ord("0")
    block[..., 22] = ord("\n")
    slow = np.nonzero(~fast)
    if slow[0].size:  # np.pad raises if a text is longer than the slot
        texts = _text_table(values[slow], "\n")
        block[slow] = np.pad(texts, ((0, 0), (0, _SLOT - texts.shape[1])))
    return block


def _pattern_csv(config: ExperimentConfig, case: str) -> Iterator[str]:
    """The pattern CSV as an iterator of texts, one per block of grid rows.

    The instance is solved, the grid evaluated and the x and y texts formatted
    before this returns, so a bad input fails before any output is opened. The
    text is made one block at a time as it is written: the whole map never sits
    in memory as one string.
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
    # a block of grid rows is one uint8 array of cells, each an x, a y and a
    # gain slot, whose 0 bytes are dropped to give its text
    x_slots, y_slots = _text_table(xs, ","), _text_table(ys, ",")
    wx, wy = x_slots.shape[1], y_slots.shape[1]
    step = max(1, _PATTERN_BLOCK_CELLS // len(ys))

    def blocks():
        yield "x,y,gain_normalized\n"
        for start in range(0, len(xs), step):
            gains = _gain_slots(grid[start:start + step])
            block = np.empty(gains.shape[:2] + (wx + wy + _SLOT,), np.uint8)
            block[..., :wx] = x_slots[start:start + step, None]
            block[..., wx:wx + wy] = y_slots
            block[..., wx + wy:] = gains
            yield block[block != 0].tobytes().decode("ascii")

    return blocks()


def main(argv=None) -> int:
    try:
        # numpy's overflow, divide-by-zero and invalid warnings end here, not in nan rows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            args = build_parser().parse_args(argv)
            config = _load(args)
            if args.command in _SINGLE_SCHEMES:
                # the swsp subcommand never builds the multi-waveguide geometry,
                # so its checks (e.g. on wg_spacing_m) cannot fail it
                sc = config.scenario("swsp" if args.command == "swsp" else "mwmp")
                records = []
                for scheme in _SINGLE_SCHEMES[args.command]:
                    rate, power, _ = harness.solve_scheme(scheme, sc, config, config.seed)
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
    except (ArithmeticError, RuntimeWarning) as exc:
        print(f"error: numeric fault: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # e.g. a convergence trace over a power grid too fine to hold in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
