import pytest

from thermalquench import modes


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
