"""Scenario container shared by the solvers, benchmarks and the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import PhysConstants
from .detection import (CovertnessSpec, NoiseUncertainty, WillieUncertainty,
                        covert_gain_budget, sample_region)
from .geometry import PassGeometry, as_vec3


@dataclass(eq=False)
class Scenario:
    """One covert-communication problem instance."""

    r_b: np.ndarray
    willie: WillieUncertainty
    noise_w: NoiseUncertainty
    covertness: CovertnessSpec
    sigma_b_sq: float  # W
    p_max: float  # W
    geom: PassGeometry
    pc: PhysConstants
    # results that later scenarios of a sweep reuse; see benchmarks.evaluate, mwmp.run_many
    memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.r_b = as_vec3(self.r_b)
        if not (math.isfinite(self.sigma_b_sq) and self.sigma_b_sq > 0.0):
            raise ValueError("noise power at Bob must be a finite positive number")
        if not (math.isfinite(self.p_max) and self.p_max >= 0.0):
            raise ValueError("power budget must be a finite non-negative number")

    def gain_budget(self) -> float:
        return covert_gain_budget(self.covertness, self.noise_w)

    def willie_samples(self, k: int = 1) -> np.ndarray:
        return sample_region(self.willie, k)
