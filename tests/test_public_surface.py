"""Every exported name resolves: the names in `sdrkit.__all__` and in each
module's `__all__`, so deleting a definition cannot leave an export
dangling."""

import importlib
import pkgutil

import pytest

import sdrkit

MODULES = ["sdrkit", *sorted(f"sdrkit.{m.name}" for m in pkgutil.iter_modules(sdrkit.__path__))]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_package_and_its_library_modules_declare_exports():
    assert {"sdrkit", "sdrkit.sdr", "sdrkit.quality", "sdrkit.config"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
