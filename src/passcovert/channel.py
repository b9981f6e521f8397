"""Line-of-sight propagation and effective per-waveguide channels."""

from __future__ import annotations

import math

import numpy as np

from .constants import PhysConstants
from .geometry import BeamVector, PinchLayout, as_vec3

# receivers per kernel call in beam_pattern_grid: the blocks bound the memory
# of the complex temporaries, which would otherwise grow with the grid; one is
# 16,384 x 12 x 16 B, about 3.1 MB, at the default 4 x 3 antennas
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


def _receiver_terms(receivers: np.ndarray, wg_y: np.ndarray, height: float):
    """Receiver x (K, 1, 1, 1), squared y offset of each receiver to each
    waveguide (K, 1, N, 1) and squared height offset (K, 1, 1, 1)."""
    dy = receivers[:, 1, None] - wg_y
    dz = receivers[:, 2:, None, None] - height
    return receivers[:, :1, None, None], (dy * dy)[:, None, :, None], dz * dz


class ReceiverTerms:
    """The receiver side of the channel kernel for one receiver set and one
    waveguide geometry, and the work arrays of the kernel calls that use it.

    Pass it to every kernel call on those receivers: a call then skips the
    receiver arithmetic and reuses the work arrays of the last call on the
    same number of layouts, whose y terms are already spread over the block.
    """

    def __init__(self, receivers: np.ndarray, wg_y: np.ndarray, height: float):
        self.rx, self.dy2, self.dz2 = _receiver_terms(receivers, wg_y, height)
        self._work = {}  # (J, N, M) -> (dist, dy2, arg, phasor), each (K, J, N, M)

    def work(self, j: int, n: int, m: int):
        """Work arrays for a call on j layouts. ``arg``, the argument of the
        exp, is kept apart from ``phasor``, where the exp goes, so that its
        real part stays zero from call to call."""
        arrays = self._work.get((j, n, m))
        if arrays is None:
            shape = (len(self.rx), j, n, m)
            arrays = self._work[(j, n, m)] = (np.empty(shape), np.broadcast_to(self.dy2, shape).copy(),
                                              np.zeros(shape, dtype=complex),
                                              np.empty(shape, dtype=complex))
        return arrays


def _effective_batch(pa_x: np.ndarray, wg_y: np.ndarray, height: float,
                     receivers: np.ndarray, pc: PhysConstants,
                     terms: ReceiverTerms | None = None) -> np.ndarray:
    """Effective channels h^H(X) G(X) for a batch of layouts and receivers.

    pa_x: (..., N, M) antenna x coordinates; receivers: (K, 3).
    Returns (..., K, N) where entry n is sum_m conj(h_nm) * g_m, so the received
    amplitude is the plain dot product with the weight vector.

    ``terms``, the :class:`ReceiverTerms` of ``receivers``, ``wg_y`` and
    ``height``, spares a caller that makes many calls on one receiver set the
    receiver arithmetic and the work-array allocations of each call. Without
    it a call allocates only what it needs and runs the exp in place.

    The work runs receivers first, in (K, J, N, M) blocks with J the number of
    layouts, and keeps the operations and their order of
    sqrt(eta/M) * sum_m exp(j phase) / dist, so the result is bit-identical to
    that broadcast formula. Dividing by dist is a multiply by 1/dist: numpy
    divides a complex by a real d as by d + 0j, which scales both parts by
    the same 1/d.
    """
    *lead, n, m = pa_x.shape
    j = math.prod(lead)
    px = pa_x.reshape(j, n, m)
    if terms is None:
        rx, dy2, dz2 = _receiver_terms(receivers, wg_y, height)
        dist = rx - px
        arg = phasor = np.zeros(dist.shape, dtype=complex)
    else:
        rx, dz2 = terms.rx, terms.dz2
        dist, dy2, arg, phasor = terms.work(j, n, m)
        np.subtract(rx, px, out=dist)
    dist *= dist
    dist += dy2
    dist += dz2
    np.sqrt(dist, out=dist)
    phase = arg.imag
    np.multiply(pc.k_c, dist, out=phase)
    phase -= pc.k_g * px
    np.exp(arg, out=phasor)
    np.reciprocal(dist, out=dist)
    phasor *= dist
    # the result is layouts first and contiguous, as the broadcast formula
    # returns it, so a following ``@`` hands BLAS the same operand
    out = np.empty((j, len(dist), n), dtype=complex)
    total = out.transpose(1, 0, 2)  # receivers first, like phasor
    scale = math.sqrt(pc.eta / m)
    if m == 1 or m > 3:
        np.multiply(phasor[..., 0] if m == 1 else np.sum(phasor, axis=-1), scale, out=total)
    else:  # np.sum adds up to three terms left to right; slice adds match it, faster
        np.add(phasor[..., 0], phasor[..., 1], out=total)
        if m == 3:
            total += phasor[..., 2]
        out *= scale
    return out.reshape(*lead, len(dist), n)


def effective_channel_at(layout: PinchLayout, receivers, pc: PhysConstants) -> np.ndarray:
    """Effective N-vector channels for several receivers, shape (K, N)."""
    rcv = np.atleast_2d(np.asarray(receivers, dtype=float))
    if rcv.shape[1] != 3:
        raise ValueError(f"receivers must be (K, 3), got {rcv.shape}")
    return _effective_batch(layout.pa_x(), layout.geom.wg_y_array, layout.geom.height, rcv, pc)


def beam_gain(layout: PinchLayout, weights, receivers, pc: PhysConstants) -> np.ndarray:
    """Received power |channel . w|^2 at each receiver, shape (K,)."""
    eff = effective_channel_at(layout, receivers, pc)
    amp = eff @ np.asarray(weights, dtype=complex)
    return np.abs(amp) ** 2


def beam_pattern_grid(layout: PinchLayout, beam: BeamVector, xs, ys,
                      pc: PhysConstants) -> np.ndarray:
    """Received power over a ground-plane grid, shape (len(xs), len(ys)),
    divided by its maximum so that the peak is 1 (an all-zero grid stays 0)."""
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
    peak = gains.max()
    return gains / peak if peak > 0.0 else gains
