"""Warden-side statistics: noise uncertainty, detection error rates, gain budgets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import beam_gain
from .constants import PhysConstants
from .geometry import PinchLayout, as_vec3


@dataclass(frozen=True)
class NoiseUncertainty:
    """Bounded multiplicative uncertainty around the warden's nominal noise power.

    The actual noise power is log-uniform on [nominal/delta, nominal*delta].
    """

    nominal: float  # W
    delta: float  # dimensionless, > 1

    def __post_init__(self):
        if not (math.isfinite(self.nominal) and self.nominal > 0.0):
            raise ValueError("nominal noise power must be a finite positive number")
        if not (math.isfinite(self.delta) and self.delta > 1.0):
            raise ValueError("uncertainty bound must be a finite number above 1")

    @property
    def support(self) -> tuple[float, float]:
        return self.nominal / self.delta, self.nominal * self.delta


@dataclass(eq=False)
class WillieUncertainty:
    """Disk of possible warden positions on the ground plane."""

    center: np.ndarray
    radius: float  # m

    def __post_init__(self):
        c = as_vec3(self.center)
        if c[2] != 0.0:
            raise ValueError("warden positions live on the ground plane (z = 0)")
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("uncertainty radius must be a finite non-negative number")
        self.center = c


@dataclass(frozen=True)
class CovertnessSpec:
    """Detection-error target: the warden's total error rate must stay >= 1 - rho_w."""

    rho_w: float

    def __post_init__(self):
        if not 0.0 <= self.rho_w <= 1.0:
            raise ValueError("rho_w must lie in [0, 1]")


def _noise_cdf(v, nu: NoiseUncertainty):
    """CDF of the log-uniform noise power; accepts any real v (<=0 maps to 0)."""
    lo, hi = nu.support
    vv = np.clip(np.asarray(v, dtype=float), lo, hi)
    frac = np.log(vv / lo) / (2.0 * np.log(nu.delta))
    return np.clip(frac, 0.0, 1.0)


def total_error_rate(gamma_th, s, nu: NoiseUncertainty):
    """False-alarm plus miss-detection probability at threshold ``gamma_th``.

    ``s`` is the covert-signal power received by the warden. Computed directly
    from the two log-uniform tail probabilities, which stays valid in every
    ordering of the interval endpoints.
    """
    g = np.asarray(gamma_th, dtype=float)
    sv = np.asarray(s, dtype=float)
    if np.any(g <= 0.0):
        raise ValueError("detection threshold must be positive")
    if np.any(sv < 0.0):
        raise ValueError("received signal power must be non-negative")
    p_false = 1.0 - _noise_cdf(g, nu)
    p_miss = _noise_cdf(g - sv, nu)
    out = p_false + p_miss
    scalar = np.ndim(gamma_th) == 0 and np.ndim(s) == 0
    return float(out) if scalar else out


def optimal_detection(s, nu: NoiseUncertainty):
    """Warden-optimal threshold and the resulting minimum total error rate.

    The closed form goes negative for large ``s``; the true minimum is 0 there,
    so the error rate is clamped to [0, 1].
    """
    sv = np.asarray(s, dtype=float)
    if np.any(sv < 0.0):
        raise ValueError("received signal power must be non-negative")
    lo, _ = nu.support
    gamma_opt = lo + sv
    xi = np.log(nu.delta**2 * nu.nominal / (nu.nominal + sv * nu.delta)) / (2.0 * np.log(nu.delta))
    xi_min = np.clip(xi, 0.0, 1.0)
    if np.ndim(s) == 0:
        return float(gamma_opt), float(xi_min)
    return gamma_opt, xi_min


def covert_gain_budget(spec: CovertnessSpec, nu: NoiseUncertainty) -> float:
    """Largest warden-side beam gain compatible with the covertness target."""
    return nu.nominal / nu.delta * (nu.delta ** (2.0 * spec.rho_w) - 1.0)


def covert_power_rate(g_bob, g_max, gamma_w: float, p_max: float, sigma_b_sq: float):
    """Covert power control and the rate it buys, elementwise: (P, rate).

    P = min(gamma_w / g_max, p_max) is the largest power whose sampled warden
    gain P * g_max stays within the budget (P = p_max where g_max = 0), and
    rate = log2(g_bob / sigma_b_sq * P + 1). Scalars and arrays give the same bits.
    """
    # gamma_w / g_max, and inf where g_max = 0, without a warning to silence
    ratio = np.divide(gamma_w, g_max, out=np.full(np.shape(g_max), np.inf),
                      where=g_max != 0.0)
    power = np.minimum(ratio, p_max)
    return power, np.log2(g_bob / sigma_b_sq * power + 1.0)


# +x, -x, +y, -y unit offsets of one sampling ring
_CROSS = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])


def _check_rings(k) -> None:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k, the number of sampling rings, must be an integer >= 1, got {k!r}")


def sample_region(wu: WillieUncertainty, k: int = 1) -> np.ndarray:
    """Axis-aligned cross of 4k+1 sample points covering the uncertainty disk.

    The nominal center comes first, then +x/-x/+y/-y offsets at radii
    j*radius/k for j = 1..k; all points on the ground plane.
    """
    _check_rings(k)
    steps = np.arange(1, k + 1) * wu.radius / k
    offsets = steps[:, None, None] * _CROSS  # (k, 4, 3)
    return np.vstack([wu.center, (wu.center + offsets).reshape(-1, 3)])


def worst_case_gain(layout: PinchLayout, w_tilde, samples, pc: PhysConstants) -> float:
    """Max unit-power beam gain over the warden sample set."""
    w = np.asarray(w_tilde, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        raise ValueError("worst-case gain expects a unit-norm beamforming vector")
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.size == 0:
        raise ValueError("sample set must not be empty")
    return float(beam_gain(layout, w, pts, pc).max())
