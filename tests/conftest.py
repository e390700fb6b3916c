import numpy as np
import pytest

from thermalquench import modes


class RampSolves(list):
    """The trajectory of every rung of every ramp solve, in order, and in
    ``calls`` the number of rungs of each solve."""

    calls: list


@pytest.fixture
def ramp_solves(monkeypatch):
    """Records the trajectories of every call of the one ramp-solve routine,
    one per rung of its ladder."""
    trajs = RampSolves()
    trajs.calls = []
    original = modes._ramp_solve

    def recording(*args, **kwargs):
        rungs = original(*args, **kwargs)
        trajs.extend(rungs)
        trajs.calls.append(len(rungs))
        return rungs

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
