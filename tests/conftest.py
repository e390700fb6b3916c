import numpy as np
import pytest

from thermalquench import modes, spectral


@pytest.fixture
def ramp_solves(monkeypatch):
    """Records the momenta of every call of the one ramp-solve routine."""
    calls = []
    original = modes._ramp_solve

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(modes, "_ramp_solve", counting)
    return calls


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
    spectral._gauss_legendre.cache_clear()
    yield calls
    spectral._gauss_legendre.cache_clear()
