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
