"""Fixed-antenna MIMO and heuristic-placement PASS reference schemes."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import effective_channel_at
from .constants import PhysConstants
from .detection import covert_power_rate
from .geometry import PinchLayout, as_vec3
from .scenario import Scenario


class DegenerateChannelError(ValueError):
    """Weight computation impossible (zero channel or empty null space)."""


class BenchmarkKind(enum.Enum):
    MIMO_ZF = "mimo_zf"
    MIMO_MRT = "mimo_mrt"
    PASS_ZF = "pass_zf"
    PASS_MRT = "pass_mrt"


def ula_positions(n: int, height: float, pc: PhysConstants) -> np.ndarray:
    """Half-wavelength array along the x axis at the waveguide height, centered
    above the origin."""
    if n < 1:
        raise ValueError("array needs at least one element")
    idx = np.arange(1, n + 1) - (n + 1) / 2.0
    pos = np.zeros((n, 3))
    pos[:, 0] = idx * pc.wavelength / 2.0
    pos[:, 2] = height
    return pos


def ula_channels(receivers: np.ndarray, n: int, height: float,
                 pc: PhysConstants) -> np.ndarray:
    """Spherical-wave LoS coefficients from each array element to each of the
    (K, 3) ``receivers``, shape (K, n)."""
    diff = receivers[:, None, :] - ula_positions(n, height, pc)
    dist = np.linalg.norm(diff, axis=2)
    return np.sqrt(pc.eta) * np.exp(-1j * pc.k_c * dist) / dist


def ula_channel(r, n: int, height: float, pc: PhysConstants) -> np.ndarray:
    """Spherical-wave LoS coefficients from each array element to receiver ``r``."""
    return ula_channels(as_vec3(r)[None, :], n, height, pc)[0]


def mrt_weights(h_eff) -> np.ndarray:
    """Unit vector maximizing |h_eff . w| (conjugate match)."""
    h = np.asarray(h_eff, dtype=complex).reshape(-1)
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise DegenerateChannelError("cannot match a zero channel")
    return np.conj(h) / norm


def zf_weights(h_b_eff, h_w_eff) -> np.ndarray:
    """Conjugate match to Bob projected onto the complement of Willie's channel.

    The returned unit vector satisfies h_w_eff . w = 0 (within 1e-10).
    """
    h_b = np.asarray(h_b_eff, dtype=complex).reshape(-1)
    h_w = np.asarray(h_w_eff, dtype=complex).reshape(-1)
    if np.linalg.norm(h_w) == 0.0:
        raise DegenerateChannelError("cannot null a zero channel")
    a = np.conj(h_b)
    c = np.conj(h_w)
    a_perp = a - (np.vdot(c, a) / np.vdot(c, c)) * c
    residual = np.linalg.norm(a_perp)
    if residual <= 1e-12 * np.linalg.norm(a):
        raise DegenerateChannelError("Bob and Willie channels are parallel; null space is empty")
    return a_perp / residual


def heuristic_pass_layout(r_b, geom) -> PinchLayout:
    """Center each waveguide's antenna run on Bob's x coordinate."""
    x_b = as_vec3(r_b)[0]
    x0 = min(max(x_b - geom.pa_spacing * (geom.m_pa - 1) / 2.0, 0.0), geom.usable_length)
    return PinchLayout(geom, np.full(geom.n_wg, x0))


@dataclass(eq=False)
class BenchmarkResult:
    rate: float  # bits/s/Hz
    power: float  # W
    w_tilde: np.ndarray | None


def evaluate(kind: BenchmarkKind, sc: Scenario, k: int = 1) -> BenchmarkResult:
    """Rate of one reference scheme under the same sampled power control as the
    proposed solvers: ZF nulls the nominal warden position, MRT matches Bob,
    and the power saturates the gain budget over the warden sample set."""
    receivers = np.vstack([sc.r_b[None, :], sc.willie_samples(k)])
    if kind in (BenchmarkKind.MIMO_ZF, BenchmarkKind.MIMO_MRT):
        eff = ula_channels(receivers, sc.geom.n_wg, sc.geom.height, sc.pc)
    else:
        layout = heuristic_pass_layout(sc.r_b, sc.geom)
        eff = effective_channel_at(layout, receivers, sc.pc)
    h_b = eff[0]
    h_w = eff[1]  # sample set starts at the nominal center
    sample_ch = eff[1:]

    try:
        if kind in (BenchmarkKind.MIMO_ZF, BenchmarkKind.PASS_ZF):
            w = zf_weights(h_b, h_w)
        else:
            w = mrt_weights(h_b)
    except DegenerateChannelError:
        return BenchmarkResult(0.0, 0.0, None)

    g_max = float(np.max(np.abs(sample_ch @ w) ** 2))
    g_bob = float(np.abs(h_b @ w) ** 2)
    power, rate = covert_power_rate(g_bob, g_max, sc.gain_budget(), sc.p_max, sc.sigma_b_sq)
    return BenchmarkResult(float(rate), float(power), w)
