"""The package's export list: every name resolves, the list is sorted, and
it is exactly the package's public names that are not submodules."""

import types

import thermalquench


def test_every_export_resolves():
    missing = [name for name in thermalquench.__all__ if not hasattr(thermalquench, name)]
    assert missing == []


def test_exports_sorted_and_unique():
    assert thermalquench.__all__ == sorted(set(thermalquench.__all__))


def test_exports_are_the_public_names():
    public = {
        name
        for name, value in vars(thermalquench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(thermalquench.__all__) == public
