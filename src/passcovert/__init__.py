"""Covert communication with pinching-antenna systems: channel model, warden
detection statistics, closed-form and swarm-based covert-rate solvers, reference
schemes, and a Monte-Carlo sweep harness, each imported by module name."""
