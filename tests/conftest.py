import numpy as np
import pytest

from thermalquench import modes


@pytest.fixture
def ramp_solves(monkeypatch):
    """Records the trajectory of every call of the one ramp-solve routine."""
    trajs = []
    original = modes._ramp_solve

    def recording(*args, **kwargs):
        trajs.append(original(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(modes, "_ramp_solve", recording)
    return trajs


@pytest.fixture
def leggauss_calls(monkeypatch):
    """Records the node count of every Gauss-Legendre rule actually computed,
    starting from an empty rule cache."""
    calls = []
    original = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    modes._gauss_legendre.cache_clear()
    yield calls
    modes._gauss_legendre.cache_clear()
