"""Experiment configuration: flat key-value file, defaults, scenario builders.

All dB/dBm inputs are converted to linear watts on access; solvers only ever
see linear units.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysConstants, dbm_to_watts, db_to_linear, derive_constants
from .detection import CovertnessSpec, NoiseUncertainty, WillieUncertainty
from .geometry import PassGeometry
from .mwmp import PsoParams
from .scenario import Scenario


@dataclass(frozen=True)
class ExperimentConfig:
    # propagation
    carrier_freq_hz: float = 28e9
    n_eff: float = 1.4
    # PASS layout
    height_m: float = 3.0
    waveguide_length_m: float = 25.0
    num_waveguides: int = 4
    pas_per_waveguide: int = 3
    pa_spacing_m: float | None = None  # default: half a carrier wavelength
    wg_spacing_m: float = 3.0
    # power and noise
    p_max_dbm: float = 30.0
    sigma_b_dbm: float = -100.0
    sigma_w_dbm: float = -70.0
    delta_sigma_db: float = 2.0
    # covertness and uncertainty
    rho_w: float = 0.1
    delta_r_m: float = 0.5
    willie_samples_k: int = 1
    # fixed illustration layout
    bob_x_m: float = 20.0
    bob_y_m: float = 6.0
    willie_x_m: float = 7.0
    willie_y_m: float = -9.0
    # solver knobs
    delta_p_watts: float | None = None  # default: p_max / 1e5
    pso_pop_bs: int = 30
    pso_pop_ps: int = 30
    pso_iterations: int = 100
    # harness
    trials: int = 200
    converge_inits: int = 200
    converge_delta_p_watts: float | None = None  # default: p_max / 5000
    pattern_res_m: float = 0.25
    pattern_y_halfwidth_m: float = 12.0
    seed: int = 20250801

    def __post_init__(self):
        for key, kind in _KINDS.items():
            value = getattr(self, key)
            if kind == "int" and (isinstance(value, bool)
                                  or not isinstance(value, (int, np.integer))):
                raise ValueError(f"config key {key!r} must be a whole number, got {value!r}")
        if self.willie_samples_k < 1:
            raise ValueError("willie_samples_k must be at least 1 (one sampling ring)")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    # ---- derived linear quantities ----

    @property
    def p_max_watts(self) -> float:
        return dbm_to_watts(self.p_max_dbm, "p_max_dbm")

    def phys_constants(self) -> PhysConstants:
        return derive_constants(self.carrier_freq_hz, self.n_eff)

    def pa_spacing(self) -> float:
        if self.pa_spacing_m is not None:
            return self.pa_spacing_m
        return self.phys_constants().wavelength / 2.0

    def delta_p(self) -> float:
        return self.delta_p_watts if self.delta_p_watts is not None else self.p_max_watts / 1e5

    def converge_delta_p(self) -> float:
        if self.converge_delta_p_watts is not None:
            return self.converge_delta_p_watts
        return self.p_max_watts / 5000.0

    # ---- builders ----

    def geometry_swsp(self) -> PassGeometry:
        return PassGeometry.single_waveguide(self.height_m, self.waveguide_length_m,
                                             self.pa_spacing())

    def scenario(self, kind: str = "mwmp") -> Scenario:
        """Single fixed-layout scenario at the configured Bob and warden positions."""
        if kind == "mwmp":
            n = self.num_waveguides
            wg_y = tuple((i + 1 - (n + 1) / 2.0) * self.wg_spacing_m for i in range(n))
            geom = PassGeometry(self.height_m, self.waveguide_length_m, n,
                                self.pas_per_waveguide, wg_y, self.pa_spacing())
        elif kind == "swsp":
            geom = self.geometry_swsp()
        else:
            raise ValueError(f"unknown scenario kind {kind!r}; valid kinds: swsp, mwmp")
        return Scenario(
            r_b=np.array([self.bob_x_m, self.bob_y_m, 0.0]),
            willie=WillieUncertainty(np.array([self.willie_x_m, self.willie_y_m, 0.0]),
                                     self.delta_r_m),
            noise_w=NoiseUncertainty(dbm_to_watts(self.sigma_w_dbm, "sigma_w_dbm"),
                                     db_to_linear(self.delta_sigma_db, "delta_sigma_db")),
            covertness=CovertnessSpec(self.rho_w),
            sigma_b_sq=dbm_to_watts(self.sigma_b_dbm, "sigma_b_dbm"),
            p_max=self.p_max_watts,
            geom=geom,
            pc=self.phys_constants(),
        )

    def pso_params(self, seed: int | None = None) -> PsoParams:
        return PsoParams(
            n_bs=self.pso_pop_bs,
            n_ps=self.pso_pop_ps,
            iterations=self.pso_iterations,
            seed=self.seed if seed is None else seed,
        )


# each key's annotation, a string under postponed evaluation: "int", "float"
# or "float | None", whose null keeps the derived default
_KINDS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(values: dict) -> ExperimentConfig:
    """Build a config from a flat key-value mapping.

    Unknown keys, values that are not finite numbers (booleans and numeric
    text included), fractional values of ``int`` keys and null for keys not
    annotated ``float | None`` are an error.
    """
    unknown = sorted(set(values) - set(_KINDS))
    if unknown:
        valid = ", ".join(sorted(_KINDS))
        raise ValueError(f"unknown config keys {unknown}; valid keys: {valid}")
    coerced = {}
    for key, raw in values.items():
        if raw is None and _KINDS[key] == "float | None":
            coerced[key] = None
            continue
        is_number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
        try:
            number = float(raw) if is_number else math.nan
        except OverflowError:  # an int beyond the float range
            number = math.nan
        if not math.isfinite(number):
            raise ValueError(f"config key {key!r} must be a finite number, got {raw!r}")
        if _KINDS[key] != "int":
            coerced[key] = number
        elif number.is_integer():
            coerced[key] = int(raw)
        else:
            raise ValueError(f"config key {key!r} must be a whole number, got {raw!r}")
    return ExperimentConfig(**coerced)


def load_config(path) -> ExperimentConfig:
    """Read a flat JSON object of config keys (missing keys keep their defaults)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} must hold a flat JSON object")
    return config_from_dict(values)
