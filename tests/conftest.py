import numpy as np
import pytest

from passcovert.config import ExperimentConfig
from passcovert.constants import derive_constants


@pytest.fixture(scope="session")
def pc28():
    """Constants at the default 28 GHz carrier with n_eff = 1.4."""
    return derive_constants(28e9, 1.4)


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def channel_calls(monkeypatch):
    """Number of calls, by name, of the reference schemes' two channel functions."""
    from passcovert import benchmarks

    calls = {"effective_channel_at": 0, "ula_channels": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(benchmarks, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(benchmarks, name, counted)
    return calls
