"""Single-waveguide single-antenna solver: forbidden zone, closed-form position,
and the 1-D transmit-power search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario


class CovertnessInfeasibleError(ValueError):
    """Raised when rho_w = 0 leaves no positive transmit power covert."""


@dataclass(frozen=True)
class ForbiddenZone:
    """Interval of antenna positions where covertness can fail somewhere in the
    warden's uncertainty disk. ``interval`` is None when the zone is empty."""

    d_bou: float  # m, minimum 3-D distance guaranteeing covertness
    d_tot: float  # m, ground-projected distance inflated by the position radius
    interval: tuple[float, float] | None
    theta: float | None  # rad


def _zone_bounds(powers: np.ndarray, sc: Scenario):
    """Vectorized zone geometry for an array of transmit powers.

    Returns (exists, x_lo, x_hi, d_bou, d_tot); x_lo/x_hi are meaningful only
    where ``exists``.
    """
    rho = sc.covertness.rho_w
    if rho <= 0.0:
        if np.any(powers > 0.0):
            raise CovertnessInfeasibleError(
                "rho_w = 0 admits no positive transmit power")
        zeros = np.zeros_like(powers)
        return zeros.astype(bool), zeros, zeros, zeros, np.full_like(powers, sc.willie.radius)
    nu = sc.noise_w
    denom = nu.nominal * (nu.delta ** (2.0 * rho) - 1.0)
    with np.errstate(divide="ignore"):  # a tiny rho_w rounds denom to 0: the zone is endless
        d_bou = np.sqrt(powers * sc.pc.eta * nu.delta / denom)
    h = sc.geom.height
    proj = np.sqrt(np.maximum(d_bou**2 - h**2, 0.0))
    d_tot = proj + sc.willie.radius
    y_w = sc.willie.center[1]
    exists = (d_bou > h) & (np.abs(y_w) < d_tot)
    half = np.sqrt(np.maximum(d_tot**2 - y_w**2, 0.0))
    x_lo = sc.willie.center[0] - half
    x_hi = sc.willie.center[0] + half
    return exists, x_lo, x_hi, d_bou, d_tot


def forbidden_zone(power: float, sc: Scenario) -> ForbiddenZone:
    """Forbidden interval of antenna positions at transmit power ``power``."""
    if power < 0.0:
        raise ValueError("transmit power must be non-negative")
    p = np.asarray([float(power)])
    exists, x_lo, x_hi, d_bou, d_tot = _zone_bounds(p, sc)
    if not exists[0]:
        return ForbiddenZone(float(d_bou[0]), float(d_tot[0]), None, None)
    theta = math.acos(abs(sc.willie.center[1]) / float(d_tot[0]))
    return ForbiddenZone(float(d_bou[0]), float(d_tot[0]),
                         (float(x_lo[0]), float(x_hi[0])), theta)


def _positions_for(powers: np.ndarray, sc: Scenario) -> np.ndarray:
    """Optimal antenna x per power; NaN where the feasible set is empty.

    The feasible set is [0, L] minus the open zone interior: zone boundary
    points satisfy the covertness constraint with equality and stay feasible.
    """
    exists, x_lo, x_hi, _, _ = _zone_bounds(powers, sc)
    length = sc.geom.length
    x_b = sc.r_b[0]
    # min/max in place of np.clip, whose dispatch costs more than the work at
    # these sizes; the argument orders give np.clip's signed zeros for x_b = -0
    clamped = min(max(x_b, 0.0), length)

    blocking = exists & (x_hi > 0.0) & (x_lo < length)
    has_left = blocking & (x_lo >= 0.0)
    has_right = blocking & (x_hi <= length)

    # a candidate without its side is never chosen: its distance is inf below
    cand_left = np.minimum(max(0.0, x_b), x_lo)
    cand_right = np.minimum(np.maximum(x_b, x_hi), length)
    dist_left = np.where(has_left, np.abs(cand_left - x_b), np.inf)
    dist_right = np.where(has_right, np.abs(cand_right - x_b), np.inf)
    # ties break toward the left candidate, i.e. the smaller coordinate
    blocked_choice = np.where(dist_left <= dist_right, cand_left, cand_right)
    blocked_choice = np.where(has_left | has_right, blocked_choice, np.nan)

    return np.where(blocking, blocked_choice, clamped)


def optimal_position(power: float, sc: Scenario) -> float | None:
    """Feasible antenna x closest to Bob at the given power, or None."""
    if power < 0.0:
        raise ValueError("transmit power must be non-negative")
    x = _positions_for(np.asarray([float(power)]), sc)[0]
    return None if math.isnan(x) else float(x)


def achievable_rate(x: float, power: float, sc: Scenario) -> float:
    """Covert rate log2(1 + gamma_b) with the antenna at ``x``."""
    return float(_rates(power, x, sc))


@dataclass(eq=False)
class SwspSolution:
    p_opt: float  # W
    x_opt: float | None  # m
    rate: float  # bits/s/Hz
    feasible: bool


_FAN = 32  # cut points per interval and level of the branch-and-bound search
_CHUNK = 4096  # live intervals cut per vectorised evaluation, to bound memory
_ULP_SLACK = 8  # ulps of the best rate that cover log2 being only faithfully rounded


def _grid_size(sc: Scenario, delta_p: float) -> int:
    """Number n of grid powers delta_p * (1, ..., n) within the budget, or 0
    when rho_w = 0 admits no positive power."""
    if not (math.isfinite(delta_p) and delta_p > 0.0):
        raise ValueError(f"power search resolution must be a finite positive number, "
                         f"got {delta_p!r}")
    steps = sc.p_max / delta_p + 1e-9
    if not steps < 2.0**63:
        raise ValueError(f"power search resolution {delta_p!r} W gives more grid "
                         f"steps than fit in int64")
    if sc.covertness.rho_w <= 0.0:
        return 0
    return int(math.floor(steps))


def _positions_at(idx: np.ndarray, sc: Scenario, delta_p: float):
    """Grid powers and closed-form positions at the 1-based grid indices ``idx``."""
    powers = delta_p * idx.astype(float)
    return powers, _positions_for(powers, sc)


def _rates(powers, xs, sc: Scenario):
    d_sq = (sc.r_b[0] - xs) ** 2 + sc.r_b[1] ** 2 + sc.geom.height**2
    return np.log2(1.0 + powers * sc.pc.eta / (d_sq * sc.sigma_b_sq))


def _search(sc: Scenario, delta_p: float):
    """Power grid, rates and positions visited by the 1-D search (after the
    early stop at the first infeasible power)."""
    n = _grid_size(sc, delta_p)
    if n == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    powers, xs = _positions_at(np.arange(1, n + 1), sc, delta_p)
    feasible = ~np.isnan(xs)
    if not feasible.all():
        # the zone grows monotonically with power, so stop at the first gap
        stop = int(np.argmin(feasible))
        powers, xs = powers[:stop], xs[:stop]
    if powers.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    return powers, xs, _rates(powers, xs, sc)


def _cuts(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Up to _FAN - 1 evenly spaced indices in [lo, hi) per row, without
    overflowing int64; entries equal to ``lo`` mark narrow intervals."""
    width = hi - lo
    k = np.arange(1, _FAN)
    return (lo[:, None] + (width // _FAN)[:, None] * k
            + ((width % _FAN)[:, None] * k) // _FAN)


def _better(best, idx, powers, xs, rates):
    """(rate, index, power, x) of the best grid point: the highest rate, then
    the largest power on ties, as the scan's update rule keeps the latest.
    Infeasible powers carry a NaN rate and never win."""
    top = np.fmax.reduce(rates)
    if not top >= best[0]:
        return best
    ties = np.flatnonzero(rates == top)
    j = ties[np.argmax(idx[ties])]
    if top > best[0] or idx[j] > best[1]:
        return top, idx[j], powers[j], xs[j]
    return best


def solve(sc: Scenario, delta_p: float) -> SwspSolution:
    """Best point of the 1-D power grid delta_p * (1, 2, ..., n), with the
    closed-form position at each power and the largest power on ties.

    Returns the full scan's answer bit for bit without building the grid. The
    forbidden zone only grows with power, in floating point too, so infeasible
    powers form a suffix and the position closest to Bob only moves away from
    it: on a grid interval [a, b] with x_a feasible no rate exceeds
    rate(P_b, x_a). A fan-out branch-and-bound drops every interval whose
    bound falls below the best rate seen, or whose left end is infeasible.
    """
    n = _grid_size(sc, delta_p)
    if n == 0:
        return SwspSolution(0.0, None, 0.0, False)
    idx = np.array([1, n] if n > 1 else [1])
    powers, xs = _positions_at(idx, sc, delta_p)
    best = _better((-np.inf, 0), idx, powers, xs, _rates(powers, xs, sc))
    # live intervals as (lo, hi, x at lo, bound) rows
    stack = [(idx[:1], idx[-1:], xs[:1], _rates(powers[-1:], xs[:1], sc))] if n > 2 else []
    while stack:
        live = stack.pop()
        if live[0].size > _CHUNK:
            stack.append(tuple(a[:-_CHUNK] for a in live))
            live = tuple(a[-_CHUNK:] for a in live)
        floor = best[0] - _ULP_SLACK * np.spacing(best[0])
        lo, hi, lo_x = (a[live[3] >= floor] for a in live[:3])
        if not lo.size:
            continue
        cuts = _cuts(lo, hi)
        inner = cuts > lo[:, None]
        idx = cuts[inner]  # narrow intervals repeat cut points, which is harmless
        powers, xs = _positions_at(idx, sc, delta_p)
        best = _better(best, idx, powers, xs, _rates(powers, xs, sc))
        # sub-intervals [left, right] between consecutive nodes lo, cuts..., hi
        left = np.concatenate([lo[:, None], cuts], axis=1)
        right = np.concatenate([cuts, hi[:, None]], axis=1)
        left_x = np.repeat(lo_x[:, None], _FAN, axis=1)
        left_x[:, 1:][inner] = xs
        bound = _rates(delta_p * right.astype(float), left_x, sc)  # NaN: left infeasible
        floor = best[0] - _ULP_SLACK * np.spacing(best[0])
        keep = (right - left > 1) & (bound >= floor)
        stack.append(tuple(a[keep] for a in (left, right, left_x, bound)))
    if best[0] == -np.inf:
        return SwspSolution(0.0, None, 0.0, False)
    return SwspSolution(float(best[2]), float(best[3]), float(best[0]), True)


def rate_trace(sc: Scenario, delta_p: float) -> np.ndarray:
    """Best-rate-so-far after each power step of the 1-D search; empty when
    no grid power is feasible."""
    _, _, rates = _search(sc, delta_p)
    return np.maximum.accumulate(rates)
