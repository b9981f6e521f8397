"""Workload definitions: the CLI invocations each workload runs, derived from a seed.

A workload is an endless sequence of ``passcovert`` invocations grouped into
rounds. A round holds one invocation of each sweep (or one pattern per solver
case), so every round does the same mix of work. Invocation ``i`` of a seed is
always the same: its config file and arguments depend only on
(workload, seed, i). The first ``panel_rounds`` rounds form the reference
panel: they are generated from the fixed ``PANEL`` key instead of the seed, so
they are the same instances in every run, like a golden sweep file. Every
later round comes from the seed. This module imports nothing from numpy or
passcovert, so the set-up probe can use it without adding to the time it
measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SCHEMES_ALL = ("swsp", "mwmp", "mimo_zf", "mimo_mrt", "pass_zf", "pass_mrt")
SCHEMES_CLOSED_FORM = ("swsp", "mimo_zf", "mimo_mrt", "pass_zf", "pass_mrt")

# the three acceptance sweeps
SWEEPS = (
    ("target_error_rate", (0.8, 0.85, 0.9, 0.95)),
    ("power_budget", (10.0, 15.0, 20.0, 25.0, 30.0)),
    ("uncertainty_radius", (0.1, 0.575, 1.05, 1.525, 2.0)),
)

# Monte-Carlo region of the program's own scenario sampler, reused for the
# Bob/warden positions of the pattern workload
REGION_X = (0.0, 25.0)
REGION_Y = (-7.5, 7.5)
MIN_SEPARATION_M = 1.0

# key that generates the reference panel in place of a seed; no integer seed
# can produce it
PANEL = "panel"

PATTERN_RES_M = 0.05
PATTERN_HALFWIDTH_M = 12.0
WAVEGUIDE_LENGTH_M = 25.0


@dataclass(frozen=True)
class Invocation:
    """One ``passcovert`` run: subcommand arguments plus its generated config."""

    index: int
    argv: tuple[str, ...]  # without --config and --out
    config: dict
    fmt: str  # payload format: csv or json
    ops: int  # records (sweeps) or grid cells (pattern) the run must emit
    # sweeps
    variable: str | None = None
    values: tuple[float, ...] = ()
    schemes: tuple[str, ...] = ()
    trials: int = 0
    # pattern
    case: str | None = None

    @property
    def is_pattern(self) -> bool:
        return self.case is not None


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int
    # Rounds per second of --seconds that form the quality set: the fixed prefix
    # of rounds whose payload digest and per-layer counts are reported. 65-90%
    # of the seed commit's throughput on a 2-vCPU x86-64 host, so the quality
    # set normally lies inside the timed phase.
    quality_rounds_per_s: float
    # leading rounds of the quality set that form the reference panel; the mean
    # rate is taken over the panel, so it is one fixed figure per code version
    panel_rounds: int
    trials: int = 0
    schemes: tuple[str, ...] = ()
    fmt: str = "csv"

    def quality_rounds(self, seconds: float) -> int:
        """Panel rounds plus at least one seeded round."""
        return max(self.panel_rounds + 1, math.floor(self.quality_rounds_per_s * seconds))

    def invocation(self, seed: int, index: int) -> Invocation:
        if index < self.panel_rounds * self.round_size:
            seed = PANEL
        if self.name == "pattern_grid":
            return _pattern_invocation(self, seed, index)
        rng = random.Random(f"{self.name}:{seed}:{index}")
        variable, values = SWEEPS[index % len(SWEEPS)]
        config = {"seed": rng.randrange(2**31), "trials": self.trials}
        argv = ("sweep", "--variable", variable,
                "--values", ",".join(repr(v) for v in values),
                "--schemes", ",".join(self.schemes), "--format", self.fmt)
        return Invocation(index, argv, config, self.fmt,
                          len(values) * len(self.schemes) * self.trials,
                          variable=variable, values=values, schemes=self.schemes,
                          trials=self.trials)


def _r4_alphas() -> tuple[float, ...]:
    """Steps of the R4 low-discrepancy sequence: powers of 1/phi_4, where phi_4
    is the real root of x^5 = x + 1."""
    phi = 1.0
    for _ in range(60):
        phi = (1.0 + phi) ** 0.2
    return tuple(phi ** -(k + 1) for k in range(4))


def _pattern_invocation(workload: Workload, seed, index: int) -> Invocation:
    # Both cases of a round share one Bob/warden layout. Layouts follow a
    # randomly shifted R4 sequence over (Bob x, Bob y, warden x, warden y), so
    # any run of consecutive rounds covers the region evenly.
    rnd = index // 2
    shift = random.Random(f"{workload.name}:{seed}")
    u = [(shift.random() + (rnd + 1) * a) % 1.0 for a in _r4_alphas()]
    bob = (_scale(u[0], REGION_X), _scale(u[1], REGION_Y))
    willie = (_scale(u[2], REGION_X), _scale(u[3], REGION_Y))
    if math.hypot(willie[0] - bob[0], willie[1] - bob[1]) < MIN_SEPARATION_M:
        # move the warden half the region away along x
        half = (REGION_X[1] - REGION_X[0]) / 2.0
        willie = (REGION_X[0] + (willie[0] - REGION_X[0] + half) % (2.0 * half), willie[1])
    case = ("swsp", "mwmp")[index % 2]
    rng = random.Random(f"{workload.name}:{seed}:{rnd}")
    config = {"seed": rng.randrange(2**31), "pattern_res_m": PATTERN_RES_M,
              "pattern_y_halfwidth_m": PATTERN_HALFWIDTH_M,
              "bob_x_m": bob[0], "bob_y_m": bob[1],
              "willie_x_m": willie[0], "willie_y_m": willie[1]}
    nx, ny = pattern_shape()
    return Invocation(index, ("pattern", "--case", case, "--format", "csv"), config,
                      "csv", nx * ny, case=case)


def _scale(u: float, interval: tuple[float, float]) -> float:
    return interval[0] + u * (interval[1] - interval[0])


def pattern_shape() -> tuple[int, int]:
    """Grid size the pattern subcommand uses for the configured resolution."""
    nx = round(WAVEGUIDE_LENGTH_M / PATTERN_RES_M) + 1
    ny = round(2.0 * PATTERN_HALFWIDTH_M / PATTERN_RES_M) + 1
    return nx, ny


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep_full", round_size=3, quality_rounds_per_s=0.4, panel_rounds=4,
                 trials=2, schemes=SCHEMES_ALL, fmt="csv"),
        Workload("sweep_closed_form", round_size=3, quality_rounds_per_s=1.0, panel_rounds=10,
                 trials=5, schemes=SCHEMES_CLOSED_FORM, fmt="json"),
        Workload("pattern_grid", round_size=2, quality_rounds_per_s=0.35, panel_rounds=4),
    )
}
