"""Carrier-derived constants and power-unit helpers."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

SPEED_OF_LIGHT = 2.998e8  # m/s


@dataclass(frozen=True)
class PhysConstants:
    """Free-space wavelength, the two wavenumbers and the path-gain constant."""

    wavelength: float  # m
    k_c: float  # rad/m, free-space wavenumber
    k_g: float  # rad/m, in-waveguide wavenumber
    eta: float  # m^2, wavelength**2 / (16 pi^2)


def derive_constants(carrier_freq: float, n_eff: float) -> PhysConstants:
    """Build :class:`PhysConstants` from carrier frequency and refractive index."""
    if not (math.isfinite(carrier_freq) and carrier_freq > 0.0):
        raise ValueError(f"carrier frequency must be a finite positive number, got {carrier_freq}")
    if not (math.isfinite(n_eff) and n_eff >= 1.0):
        raise ValueError(f"effective refractive index must be a finite number >= 1, got {n_eff}")
    wavelength = SPEED_OF_LIGHT / carrier_freq
    guided_wavelength = wavelength / n_eff
    k_c = 2.0 * math.pi / wavelength
    k_g = 2.0 * math.pi / guided_wavelength
    try:
        eta = wavelength**2 / (16.0 * math.pi**2)
    except OverflowError:
        eta = math.inf
    if not all(0.0 < v < math.inf for v in (wavelength, guided_wavelength, k_c, k_g, eta)):
        raise ValueError(f"carrier frequency {carrier_freq} Hz and index {n_eff} give "
                         f"constants that are zero or overflow")
    return PhysConstants(wavelength, k_c, k_g, eta)


def dbm_to_watts(dbm: float, name: str = "power") -> float:
    return _normal(db_to_linear(dbm, name) * 1e-3, dbm, name)


def db_to_linear(db: float, name: str) -> float:
    """``10 ** (db / 10)``; an overflow, or a result that is not a positive
    normal float, names ``name``, the key or sweep variable that holds ``db``."""
    try:
        return _normal(10.0 ** (db / 10.0), db, name)
    except OverflowError:
        raise OverflowError(f"{name} = {db!r} overflows the conversion from dB to linear") from None


def _normal(linear: float, db: float, name: str) -> float:
    if linear < sys.float_info.min:  # 0 or subnormal: a budget of 0 or a few ulps
        raise FloatingPointError(f"{name} = {db!r} underflows the conversion from dB to linear")
    return linear
