"""Covert communication with pinching-antenna systems: channel model, warden
detection statistics, closed-form and swarm-based covert-rate solvers, reference
schemes, and a Monte-Carlo sweep harness."""

from .benchmarks import BenchmarkKind, evaluate as evaluate_benchmark
from .channel import (beam_gain, beam_pattern_grid, effective_channel_at,
                      freespace_vector, inwg_phase, inwg_vector, los_coeff)
from .config import ExperimentConfig, config_from_dict, load_config
from .constants import (PhysConstants, SPEED_OF_LIGHT, db_to_linear, dbm_to_watts,
                        derive_constants)
from .detection import (CovertnessSpec, NoiseUncertainty, WillieUncertainty,
                        covert_gain_budget, noise_pdf, optimal_detection,
                        sample_region, total_error_rate, worst_case_gain)
from .geometry import BeamVector, PassGeometry, PinchLayout, as_vec3
from .harness import (SCHEMES, SWEEP_VARIABLES, SweepRecord, mean_rates, read_records,
                      run_convergence, run_sweep, sample_scenarios)
from .mwmp import MwmpSolution, PsoParams
from .mwmp import solve as solve_mwmp
from .scenario import Scenario
from .swsp import (ForbiddenZone, SwspSolution, achievable_rate, forbidden_zone,
                   optimal_position, rate_trace)
from .swsp import solve as solve_swsp

__version__ = "0.1.0"
