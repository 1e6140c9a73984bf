import numpy as np
import pytest

from conelab import herm_complex, lorentz, sym_real

ALGEBRAS = [sym_real(2), sym_real(3), herm_complex(2), herm_complex(3), lorentz(3), lorentz(5)]


def ks_distance_to_uniform(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the uniform law on [0, 1]."""
    u = np.sort(np.asarray(values, dtype=float))
    n = len(u)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(grid_hi - u)), np.max(np.abs(u - grid_lo))))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long Monte-Carlo runs")
