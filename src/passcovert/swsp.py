"""Single-waveguide single-antenna solver: forbidden zone, closed-form position,
and the 1-D transmit-power search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario


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
    nu = sc.noise_w
    denom = nu.nominal * (nu.delta ** (2.0 * sc.covertness.rho_w) - 1.0)
    # rho_w = 0, or one small enough to round denom to 0, makes the zone endless
    # at every positive power; at power 0 it is empty (0/0 distances are NaN)
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _power(power: float) -> np.ndarray:
    """``power`` as a one-element array, if it is a finite non-negative number."""
    if not (math.isfinite(power) and power >= 0.0):
        raise ValueError(f"transmit power must be a finite non-negative number, got {power!r}")
    return np.asarray([float(power)])


def forbidden_zone(power: float, sc: Scenario) -> ForbiddenZone:
    """Forbidden interval of antenna positions at transmit power ``power``."""
    exists, x_lo, x_hi, d_bou, d_tot = _zone_bounds(_power(power), sc)
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
    x = _positions_for(_power(power), sc)[0]
    return None if math.isnan(x) else float(x)


def achievable_rate(x: float, power: float, sc: Scenario) -> float:
    """Covert rate log2(1 + gamma_b) with the antenna at ``x``."""
    if not math.isfinite(x):
        raise ValueError(f"antenna position must be a finite number, got {x!r}")
    return float(_rates(_power(power)[0], x, sc))


@dataclass(eq=False)
class SwspSolution:
    p_opt: float  # W
    x_opt: float | None  # m
    rate: float  # bits/s/Hz
    feasible: bool


_FAN = 32  # pieces per wide interval and pass of the branch-and-bound search
_FIRST = 256  # points of the first pass: a 1e5-point grid keeps one or two live pieces
_BUDGET = 2**14  # points per pass at most: live intervals holding fewer are finished
_ROWS = _BUDGET // (_FAN - 1)  # live intervals cut per pass
_ULP_SLACK = 8  # ulps of the best rate that cover log2 being only faithfully rounded


def _grid_size(sc: Scenario, delta_p: float) -> int:
    """Number n of grid powers delta_p * (1, ..., n) within the budget."""
    if not (math.isfinite(delta_p) and delta_p > 0.0):
        raise ValueError(f"power search resolution must be a finite positive number, "
                         f"got {delta_p!r}")
    steps = sc.p_max / delta_p + 1e-9
    if not steps < 2.0**63:
        raise ValueError(f"power search resolution {delta_p!r} W gives more grid "
                         f"steps than fit in int64")
    return int(math.floor(steps))


def _positions_at(idx: np.ndarray, sc: Scenario, delta_p: float):
    """Grid powers and closed-form positions at the 1-based grid indices ``idx``."""
    powers = delta_p * idx.astype(float)
    return powers, _positions_for(powers, sc)


def _denominators(xs, sc: Scenario):
    """d_sq * sigma_b^2 of antennas at ``xs``: Bob's SNR is power * eta over it."""
    return ((sc.r_b[0] - xs) ** 2 + sc.r_b[1] ** 2 + sc.geom.height**2) * sc.sigma_b_sq


def _rates_over(powers, den, sc: Scenario):
    return np.log2(1.0 + powers * sc.pc.eta / den)


def _rates(powers, xs, sc: Scenario):
    return _rates_over(powers, _denominators(xs, sc), sc)


def _nodes(lo: np.ndarray, hi: np.ndarray, fan: int = _FAN) -> np.ndarray:
    """Per row lo, fan - 1 evenly spaced cut points and hi, without overflowing
    int64; a narrow interval repeats its cut points."""
    width = hi - lo
    k = np.arange(fan + 1)
    return (lo[:, None] + (width // fan)[:, None] * k
            + ((width % fan)[:, None] * k) // fan)


def _evaluate(best, idx, sc: Scenario, delta_p: float):
    """One pass: denominators at grid indices ``idx`` and the best (rate, index, power,
    x) so far, the largest power on ties; an infeasible power's NaN rate never wins."""
    powers, xs = _positions_at(idx, sc, delta_p)
    den = _denominators(xs, sc)
    rates = _rates_over(powers, den, sc)
    top = np.fmax.reduce(rates, initial=-np.inf)
    ties = np.flatnonzero(rates == top)  # empty if no rate is feasible
    if ties.size and top >= best[0]:
        j = ties[np.argmax(idx[ties])]
        if top > best[0] or idx[j] > best[1]:
            best = top, idx[j], powers[j], xs[j]
    return den, best


def _live(best, lo, hi, lo_den, sc: Scenario, delta_p: float):
    """(lo, hi, denominator at lo) of intervals whose bound rate(P_hi, x_lo) may win."""
    bound = _rates_over(delta_p * hi.astype(float), lo_den, sc)
    keep = (hi - lo > 1) & (bound >= best[0] - _ULP_SLACK * np.spacing(best[0]))
    return lo[keep], hi[keep], lo_den[keep]


def solve(sc: Scenario, delta_p: float) -> SwspSolution:
    """Best point of the 1-D power grid delta_p * (1, 2, ..., n), with the
    closed-form position at each power and the largest power on ties.

    Returns the full scan's answer bit for bit without building the grid. The
    forbidden zone only grows with power, in floating point too, so infeasible
    powers form a suffix and the position closest to Bob only moves away from
    it: on a grid interval [a, b] with x_a feasible no rate exceeds
    rate(P_b, x_a). A branch-and-bound drops each interval whose bound is below
    the best rate or whose left end is infeasible, and finishes or cuts the rest.
    """
    n = _grid_size(sc, delta_p)
    idx = (_nodes(np.array([1]), np.array([n]), _FIRST - 1)[0] if n > _FIRST
           else np.arange(1, n + 1))
    den, best = _evaluate((-np.inf, 0), idx, sc, delta_p)
    stack = [_live(best, idx[:-1], idx[1:], den[:-1], sc, delta_p)]
    while stack:
        live = stack.pop()
        if live[0].size > _ROWS:
            stack.append(tuple(a[:-_ROWS] for a in live))
            live = tuple(a[-_ROWS:] for a in live)
        lo, hi, lo_den = _live(best, *live, sc, delta_p)
        if not lo.size:
            continue
        inside = hi - lo - 1
        if inside.sum() <= _BUDGET:
            start = np.repeat(lo + 1 - (np.cumsum(inside) - inside), inside)
            best = _evaluate(best, start + np.arange(start.size), sc, delta_p)[1]
            continue
        nodes = _nodes(lo, hi)
        new = nodes[:, 1:-1] > nodes[:, :-2]  # each repeated cut point once
        left_den = np.repeat(lo_den[:, None], _FAN, axis=1)
        left_den[:, 1:][new], best = _evaluate(best, nodes[:, 1:-1][new], sc, delta_p)
        stack.append(_live(best, nodes[:, :-1].ravel(), nodes[:, 1:].ravel(),
                           left_den.ravel(), sc, delta_p))
    if best[0] == -np.inf:
        return SwspSolution(0.0, None, 0.0, False)
    return SwspSolution(float(best[2]), float(best[3]), float(best[0]), True)


def rate_trace(sc: Scenario, delta_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid powers of the 1-D search up to the first infeasible one and the best
    rate so far after each; both empty when no grid power is feasible."""
    powers, xs = _positions_at(np.arange(1, _grid_size(sc, delta_p) + 1), sc, delta_p)
    feasible = ~np.isnan(xs)
    if not feasible.all():
        # the zone grows monotonically with power, so stop at the first gap
        stop = int(np.argmin(feasible))
        powers, xs = powers[:stop], xs[:stop]
    return powers, np.maximum.accumulate(_rates(powers, xs, sc))
