"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion of :mod:`thermalquench.verify` on the default
configuration, prints its summary line (visible with ``pytest -s`` and in
the captured output of failures), and asserts both the verdict and the
runtime budget.
"""

import pytest

from thermalquench.config import default_config
from thermalquench import verify


@pytest.fixture(scope="module")
def config():
    return default_config()


@pytest.mark.parametrize("index", sorted(verify.CRITERIA))
def test_criterion(index, config):
    result = verify.CRITERIA[index](config)
    print(result.summary_line())
    assert result.status == "pass", result.summary_line()
    assert result.runtime_s <= verify.RUNTIME_BUDGETS_S[index], (
        f"criterion {index} exceeded its runtime budget: "
        f"{result.runtime_s:.3f}s > {verify.RUNTIME_BUDGETS_S[index]:g}s"
    )
