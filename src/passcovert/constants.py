"""Carrier-derived constants and power-unit helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 2.998e8  # m/s


@dataclass(frozen=True)
class PhysConstants:
    """Free-space/in-waveguide wavelengths, wavenumbers and the path-gain constant."""

    carrier_freq: float  # Hz
    n_eff: float  # effective refractive index of the dielectric waveguide
    wavelength: float  # m
    guided_wavelength: float  # m
    k_c: float  # rad/m, free-space wavenumber
    k_g: float  # rad/m, in-waveguide wavenumber
    eta: float  # m^2, wavelength**2 / (16 pi^2)


def derive_constants(carrier_freq: float, n_eff: float = 1.4) -> PhysConstants:
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
    return PhysConstants(carrier_freq, n_eff, wavelength, guided_wavelength, k_c, k_g, eta)


def dbm_to_watts(dbm: float, name: str = "power") -> float:
    return db_to_linear(dbm, name) * 1e-3


def db_to_linear(db: float, name: str) -> float:
    """``10 ** (db / 10)``; an overflow names ``name``, the key or sweep
    variable that holds ``db``."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise OverflowError(f"{name} = {db!r} overflows the conversion from dB "
                            f"to linear") from None
