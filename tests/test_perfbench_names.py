"""The passcovert names the benchmark under perfbench/ wraps and calls.

The benchmark's smoke test runs it end to end and is not collected here. A
wrapped name that no longer exists is reported as missing there and silently
drops its per-layer metric group, so these checks import the benchmark modules
and look every name up. One check also feeds the benchmark's output checks the
results of short solves, so a renamed result field fails here too.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from passcovert import benchmarks, harness, mwmp, swsp
from passcovert.cli import _solved_beam
from passcovert.config import config_from_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(autouse=True)
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_layer_boundary_exists():
    layers = importlib.import_module("layers")
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in layers.boundaries()
               if not hasattr(module, attr)]
    assert missing == []


def test_every_passcovert_name_the_checks_use_exists():
    # importing checks resolves its from-imports; module attributes are looked up here
    checks = importlib.import_module("checks")
    modules = {"benchmarks", "harness", "mwmp", "swsp", "pc_config"}
    used = {(node.value.id, node.attr)
            for node in ast.walk(ast.parse((PERFBENCH / "checks.py").read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("benchmarks", "ula_channel"), ("benchmarks", "heuristic_pass_layout"),
            ("benchmarks", "evaluate"), ("harness", "read_records"),
            ("harness", "sample_scenarios"), ("pc_config", "config_from_dict")} <= used
    missing = [f"{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(getattr(checks, module), attr)]
    assert missing == []


def test_solver_arguments_the_tracer_binds_by_name_exist():
    # the tracer binds captured calls by signature: layers.per_layer_metrics
    # reads sc and delta_p of swsp.solve, checks.captured_solves kind and sc
    def names(func):
        return set(inspect.signature(func).parameters)

    assert {"sc", "delta_p"} <= names(swsp.solve)
    assert "sc" in names(mwmp.solve)
    assert {"kind", "sc"} <= names(benchmarks.evaluate)


def test_checks_read_what_solve_scheme_returns():
    # checks.summarize and checks.pattern_beam read the solver's own result
    # fields, which fixes the third item of solve_scheme's triple
    checks = importlib.import_module("checks")
    config = config_from_dict({"pso_iterations": 5})
    k = config.willie_samples_k
    for scheme in harness.SCHEMES:
        sc = config.scenario("swsp" if scheme == "swsp" else "mwmp")
        rate, power, result = harness.solve_scheme(scheme, sc, config, config.seed)
        solved = checks.summarize(scheme, sc, result, k)
        assert checks.solved_ok(solved)
        assert (solved.rate, solved.power) == (rate, power)
    for case in ("swsp", "mwmp"):
        sc, layout, beam = _solved_beam(config, case)
        _, _, result = harness.solve_scheme(case, sc, config, config.seed)
        want_layout, want_beam = checks.pattern_beam(case, sc, result)
        assert np.array_equal(layout.x_init, want_layout.x_init)
        assert np.array_equal(beam.weights, want_beam.weights)


def test_channel_cache_leaves_the_bound_calls_alone():
    # the channels travel inside the scenario: the tracer still binds kind, sc
    # and k of one evaluate call per record, and the uncached call
    # checks.resolve_record makes on its fresh scenarios gives the same bits
    assert list(inspect.signature(benchmarks.evaluate).parameters) == ["kind", "sc", "k"]
    assert (list(inspect.signature(harness.solve_scheme).parameters)
            == ["scheme", "sc", "config", "seed"])
    tracer = importlib.import_module("layers").Tracer()
    tracer.wrap(benchmarks, "evaluate", "benchmarks.evaluate", capture=True)
    try:
        config = config_from_dict({"trials": 2, "willie_samples_k": 2})
        records = harness.run_sweep(config, "power_budget", [10.0, 20.0], harness.SCHEMES[2:])
    finally:
        tracer.uninstall()
    assert len(tracer.captures) == len(records)
    for rec, (_, arguments, cached) in zip(records, tracer.captures):
        assert arguments.keys() == {"kind", "sc", "k"}
        kind, sc, k = arguments["kind"], arguments["sc"], arguments["k"]
        assert kind.value == rec.scheme and k == config.willie_samples_k
        # on the captured sc itself the memo would answer
        alone = benchmarks.evaluate(kind, dataclasses.replace(sc, memo={}), k=k)
        assert ((alone.rate, alone.power) == (cached.rate, cached.power)
                == (rec.covert_rate, rec.p_opt))
        assert np.array_equal(alone.w_tilde, cached.w_tilde)


def test_exp_count_of_a_stacked_kernel_call(monkeypatch):
    # a stacked call pairs each trial's layouts with its own receivers,
    # stacked receivers-first, so the benchmark's count of its exponentials,
    # pa_x.size times receivers.shape[0], is K * B * J * N * M
    layers = importlib.import_module("layers")
    config = config_from_dict({"trials": 2, "pso_iterations": 3, "pso_pop_ps": 7,
                               "pso_pop_bs": 5, "willie_samples_k": 2})
    scenarios = harness.sample_scenarios(config)
    calls = []
    kernel = mwmp._effective_batch
    monkeypatch.setattr(mwmp, "_effective_batch",
                        lambda *args: calls.append(args) or kernel(*args))
    mwmp.run_many(scenarios, [config.pso_params(seed) for seed in (1, 2)],
                  config.willie_samples_k)
    geom = scenarios[0].geom
    k = 4 * config.willie_samples_k + 2  # Bob and the warden samples
    layouts = []
    for args in calls:
        pa_x, receivers = args[0], args[3]
        b, j = pa_x.shape[:2]
        assert receivers.shape == (k, b, 3) and b == len(scenarios)
        assert layers._batch_exps(args, {}) == (k * b * j * geom.n_wg * geom.m_pa, 0)
        layouts.append(j)
    assert layouts.count(config.pso_pop_ps) == config.pso_iterations and set(layouts) == {7}
