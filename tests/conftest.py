import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orbitmpc import synthetic_plant  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_plant():
    """6x6 mildly ill-conditioned plant shared across module tests."""
    return synthetic_plant(6, 6, 50.0, seed=3)


@pytest.fixture
def flat_plant():
    """8x8 strongly ill-conditioned plant (kappa = 1e4)."""
    return synthetic_plant(8, 8, 1e4, seed=2)


@pytest.fixture
def mixed_plant():
    """5x(3+2) plant whose two fast correctors have their own bandwidth, so
    neither Riccati equation decouples by mode."""
    plant = synthetic_plant(5, 5, 100.0, seed=11, mu=2)
    return dataclasses.replace(plant, bandwidths=2.0 * np.pi * np.array([70.0, 70.0, 70.0, 300.0, 300.0]))
