import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20260816))


def make_rng(seed: int = 20260816) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def torus_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    """n diagonals (t0, t1, 1 / (t0 t1)) of uniform unit phases, as (n, 3)."""
    t = np.exp(2j * np.pi * rng.random((n, 2)))
    return np.stack([t[:, 0], t[:, 1], 1 / (t[:, 0] * t[:, 1])], -1)
