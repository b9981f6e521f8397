"""Line-of-sight propagation and effective per-waveguide channels."""

from __future__ import annotations

import numpy as np

from .constants import PhysConstants
from .geometry import BeamVector, PinchLayout, as_vec3

# receivers per kernel call in beam_pattern_grid: the complex temporaries of a
# block stay cache-sized instead of growing with the grid
GRID_BLOCK_CELLS = 16384


def los_coeff(p, r, pc: PhysConstants) -> complex:
    """Spherical-wave LoS coefficient sqrt(eta) * exp(-j k_c d) / d between two points."""
    p = as_vec3(p)
    r = as_vec3(r)
    d = float(np.linalg.norm(r - p))
    if d == 0.0:
        raise ValueError("transmit and receive points coincide")
    return complex(np.sqrt(pc.eta) * np.exp(-1j * pc.k_c * d) / d)


def inwg_phase(x: float, pc: PhysConstants) -> complex:
    """Unit phasor accumulated over x meters of guided propagation from the feed."""
    return complex(np.exp(-1j * pc.k_g * float(x)))


def inwg_vector(x_pa, pc: PhysConstants) -> np.ndarray:
    """Equal-power in-waveguide channel for the antennas at positions ``x_pa``."""
    x = np.asarray(x_pa, dtype=float).reshape(-1)
    if x.size == 0:
        raise ValueError("waveguide carries no pinch antennas")
    return np.exp(-1j * pc.k_g * x) / np.sqrt(x.size)


def freespace_vector(x_pa, wg_y: float, r, geom, pc: PhysConstants) -> np.ndarray:
    """Per-antenna LoS coefficients from one waveguide's antennas to receiver ``r``."""
    r = as_vec3(r)
    x = np.asarray(x_pa, dtype=float).reshape(-1)
    dist = np.sqrt((r[0] - x) ** 2 + (r[1] - wg_y) ** 2 + (r[2] - geom.height) ** 2)
    return np.sqrt(pc.eta) * np.exp(-1j * pc.k_c * dist) / dist


def _effective_batch(pa_x: np.ndarray, wg_y: np.ndarray, height: float,
                     receivers: np.ndarray, pc: PhysConstants) -> np.ndarray:
    """Effective channels h^H(X) G(X) for a batch of layouts and receivers.

    pa_x: (..., N, M) antenna x coordinates; receivers: (K, 3).
    Returns (..., K, N) where entry n is sum_m conj(h_nm) * g_m, so the received
    amplitude is the plain dot product with the weight vector.

    Each step works in place on one distance and one phasor array but keeps
    the operations and their order of sqrt(eta/M) * sum_m exp(j phase) / dist,
    so the result is bit-identical to that broadcast formula.
    """
    px = pa_x[..., None, :, :]  # (..., 1, N, M)
    dist = receivers[:, 0][:, None, None] - px  # (..., K, N, M)
    dist *= dist
    dy = receivers[:, 1][:, None, None] - wg_y[None, :, None]
    dist += dy * dy
    dz = receivers[:, 2][:, None, None] - height
    dist += dz * dz
    np.sqrt(dist, out=dist)
    phasor = np.zeros(dist.shape, dtype=complex)
    phase = phasor.imag
    np.multiply(pc.k_c, dist, out=phase)
    phase -= pc.k_g * px
    np.exp(phasor, out=phasor)
    phasor /= dist
    m = pa_x.shape[-1]
    if m > 3:
        out = np.sum(phasor, axis=-1)
    else:  # np.sum adds up to three terms left to right; slice adds match it, faster
        out = phasor[..., 0] if m == 1 else phasor[..., 0] + phasor[..., 1]
        if m == 3:
            out += phasor[..., 2]
    out *= np.sqrt(pc.eta / m)
    return out


def effective_channel_at(layout: PinchLayout, receivers, pc: PhysConstants) -> np.ndarray:
    """Effective N-vector channels for several receivers, shape (K, N)."""
    rcv = np.atleast_2d(np.asarray(receivers, dtype=float))
    if rcv.shape[1] != 3:
        raise ValueError(f"receivers must be (K, 3), got {rcv.shape}")
    return _effective_batch(layout.pa_x(), layout.geom.wg_y_array, layout.geom.height, rcv, pc)


def effective_channel(layout: PinchLayout, r, pc: PhysConstants) -> np.ndarray:
    """Effective N-vector channel so that received amplitude = channel . weights."""
    return effective_channel_at(layout, as_vec3(r)[None, :], pc)[0]


def beam_gain(layout: PinchLayout, weights, receivers, pc: PhysConstants) -> np.ndarray:
    """Received power |channel . w|^2 at each receiver, shape (K,)."""
    eff = effective_channel_at(layout, receivers, pc)
    amp = eff @ np.asarray(weights, dtype=complex)
    return np.abs(amp) ** 2


def snr_bob(layout: PinchLayout, beam: BeamVector, r_b, sigma_b_sq: float,
            pc: PhysConstants) -> float:
    """Receive SNR at Bob for the given layout and beamformer."""
    if sigma_b_sq <= 0.0:
        raise ValueError("noise power at Bob must be positive")
    gain = beam_gain(layout, beam.weights, as_vec3(r_b)[None, :], pc)[0]
    return float(gain / sigma_b_sq)


def beam_pattern_grid(layout: PinchLayout, beam: BeamVector, xs, ys, pc: PhysConstants,
                      normalize: bool = False) -> np.ndarray:
    """Received power over a ground-plane grid, shape (len(xs), len(ys)).

    With ``normalize`` the grid is divided by its maximum, so the peak is 1.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("beam pattern grid must contain at least one cell")
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    cells = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    # every cell's channel and its dot product with the weights are computed on
    # their own, so evaluating in blocks gives the bits of one call over all cells
    gains = np.empty(len(cells))
    for start in range(0, len(cells), GRID_BLOCK_CELLS):
        stop = start + GRID_BLOCK_CELLS
        gains[start:stop] = beam_gain(layout, beam.weights, cells[start:stop], pc)
    gains = gains.reshape(xs.size, ys.size)
    if normalize:
        peak = gains.max()
        if peak > 0.0:
            gains = gains / peak
    return gains
