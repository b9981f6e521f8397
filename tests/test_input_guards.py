"""Input guards that no solve, sweep or CLI run reaches, each with its message."""

import re

import numpy as np
import pytest

from passcovert import benchmarks
from passcovert.channel import effective_channel_at
from passcovert.config import ExperimentConfig
from passcovert.constants import derive_constants
from passcovert.detection import NoiseUncertainty, WillieUncertainty, optimal_detection
from passcovert.geometry import BeamVector, PassGeometry, PinchLayout, as_vec3
from passcovert.harness import solve_scheme

_PC = derive_constants(28e9, 1.4)
_TWO_WG = PassGeometry(3.0, 25.0, 2, 3, (-1.5, 1.5), 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: benchmarks.ula_positions(0, 3.0, _PC), "array needs at least one element"),
    (lambda: effective_channel_at(PinchLayout(_TWO_WG, [1.0, 2.0]), np.zeros((4, 2)), _PC),
     "receivers must be (K, 3), got (4, 2)"),
    (lambda: ExperimentConfig().scenario("bench"),
     "unknown scenario kind 'bench'; valid kinds: swsp, mwmp"),
    (lambda: WillieUncertainty([5.0, 2.0, 1.0], 0.5),
     "warden positions live on the ground plane (z = 0)"),
    (lambda: optimal_detection(-1e-12, NoiseUncertainty(1e-10, 1.5)),
     "received signal power must be non-negative"),
    (lambda: as_vec3([1.0, 2.0]), "expected a 3-vector, got shape (2,)"),
    (lambda: as_vec3([1.0, float("inf"), 0.0]),
     "position components must be finite, got [1.0, inf, 0.0]"),
    (lambda: PassGeometry(3.0, 25.0, 2, 3, (0.0,), 0.5),
     "expected 2 waveguide y-coordinates, got 1"),
    (lambda: PinchLayout(_TWO_WG, [1.0]), "expected 2 initial positions, got 1"),
    (lambda: BeamVector([]), "beamforming vector must have at least one entry"),
    (lambda: solve_scheme("dirty_precoding", ExperimentConfig().scenario("swsp"),
                          ExperimentConfig(), 0),
     "unknown scheme 'dirty_precoding'; valid schemes: swsp, mwmp, mimo_zf, mimo_mrt, "
     "pass_zf, pass_mrt"),
], ids=["ula_no_elements", "receivers_not_k_by_3", "scenario_kind_unknown",
        "warden_off_ground", "detection_negative_power", "vec3_wrong_size",
        "vec3_non_finite", "wg_y_count", "layout_position_count", "beam_empty",
        "scheme_unknown"])
def test_input_guard_names_its_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
