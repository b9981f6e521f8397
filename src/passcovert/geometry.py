"""Waveguide geometry, pinch-antenna layouts and beamforming weight vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_UNIT_NORM_TOL = 1e-12


def as_vec3(point) -> np.ndarray:
    """Coerce a point to a finite float (3,) array."""
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.size != 3:
        raise ValueError(f"expected a 3-vector, got shape {np.shape(point)}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"position components must be finite, got {point!r}")
    return p.copy()


@dataclass(frozen=True)
class PassGeometry:
    """Physical layout of the waveguides and their pinch antennas.

    Waveguides run parallel to the x axis at height ``height``; waveguide n sits
    at y = ``wg_y[n]`` and carries ``m_pa`` antennas spaced ``pa_spacing`` apart.
    """

    height: float  # m
    length: float  # m
    n_wg: int
    m_pa: int
    wg_y: tuple[float, ...]
    pa_spacing: float  # m

    def __post_init__(self):
        if not 0.0 < self.height < math.inf:
            raise ValueError("waveguide height must be a finite positive number")
        if not 0.0 < self.length < math.inf:
            raise ValueError("waveguide length must be a finite positive number")
        if self.n_wg < 1 or self.m_pa < 1:
            raise ValueError("need at least one waveguide and one antenna per waveguide")
        if len(self.wg_y) != self.n_wg:
            raise ValueError(f"expected {self.n_wg} waveguide y-coordinates, got {len(self.wg_y)}")
        if not all(math.isfinite(y) for y in self.wg_y):
            raise ValueError(f"waveguide y-coordinates must be finite, got {self.wg_y}")
        if len(set(self.wg_y)) != self.n_wg:
            raise ValueError(f"waveguide y-coordinates must be distinct, got {self.wg_y}")
        if not 0.0 < self.pa_spacing < math.inf:
            raise ValueError("antenna spacing must be a finite positive number")
        if not self.usable_length >= 0.0:
            raise ValueError("antennas at the configured spacing do not fit on the waveguide")

    @property
    def usable_length(self) -> float:
        """Feasible range of the first antenna's x coordinate."""
        return self.length - self.pa_spacing * (self.m_pa - 1)

    @property
    def wg_y_array(self) -> np.ndarray:
        return np.asarray(self.wg_y, dtype=float)

    @classmethod
    def single_waveguide(cls, height: float, length: float) -> "PassGeometry":
        """One waveguide along the x axis with one pinch antenna, whose spacing is unused."""
        return cls(height, length, 1, 1, (0.0,), 0.1)


@dataclass(eq=False)
class PinchLayout:
    """First-antenna x coordinates per waveguide; the rest follow at fixed spacing."""

    geom: PassGeometry
    x_init: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_init, dtype=float).reshape(-1)
        if x.size != self.geom.n_wg:
            raise ValueError(f"expected {self.geom.n_wg} initial positions, got {x.size}")
        hi = self.geom.usable_length
        if not (np.all(x >= -1e-9) and np.all(x <= hi + 1e-9)):
            raise ValueError(f"initial positions must lie in [0, {hi}], got {x}")
        self.x_init = np.clip(x, 0.0, hi)

    def pa_x(self) -> np.ndarray:
        """All antenna x coordinates, shape (n_wg, m_pa), strictly increasing rows."""
        steps = np.arange(self.geom.m_pa) * self.geom.pa_spacing
        return self.x_init[:, None] + steps[None, :]


@dataclass(eq=False)
class BeamVector:
    """Per-waveguide complex weights: unit-norm direction plus a transmit power."""

    entries: np.ndarray
    power: float = 1.0

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex).reshape(-1)
        if e.size == 0:
            raise ValueError("beamforming vector must have at least one entry")
        norm = float(np.linalg.norm(e))
        if not abs(norm - 1.0) <= _UNIT_NORM_TOL:
            raise ValueError(f"beamforming entries must be unit norm, got ||w|| = {norm}")
        if not 0.0 <= self.power < math.inf:
            raise ValueError("transmit power must be a finite non-negative number")
        self.entries = e

    @property
    def weights(self) -> np.ndarray:
        """Full beamformer sqrt(P) * w_tilde."""
        return np.sqrt(self.power) * self.entries
