"""The public surface: every ``__all__`` entry exists, and every name the
package re-exports is declared public by the module that defines it."""
import importlib
import inspect
import pkgutil

import pytest

import mimodsp

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(mimodsp.__path__, "mimodsp.")
    if not info.name.endswith("__main__"))    # importing it runs the CLI
DECLARING = [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]


@pytest.mark.parametrize("name", DECLARING)
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_package_exports_are_declared():
    declared = {n for m in DECLARING for n in importlib.import_module(m).__all__}
    exported = {n for n, v in vars(mimodsp).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported and exported <= declared, sorted(exported - declared)
