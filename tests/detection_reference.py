"""Reference forms of the detection model shared by several test modules."""

import numpy as np


def five_branch(gamma, s, nu):
    """Piecewise total-error-rate form; valid when s < nominal*(delta - 1/delta)."""
    lo, hi = nu.support
    two_ln = 2.0 * np.log(nu.delta)
    if gamma < lo:
        return 1.0
    if gamma < lo + s:
        return np.log(nu.delta * nu.nominal / gamma) / two_ln
    if gamma < hi:
        return np.log(nu.delta**2 * (1.0 - s / gamma)) / two_ln
    if gamma < hi + s:
        return np.log(nu.delta * (gamma - s) / nu.nominal) / two_ln
    return 1.0
