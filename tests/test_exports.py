"""Every public name a module lists in __all__ exists in that module.

A stale __all__ entry (a name deleted from the module but still exported)
breaks `from pchaos.<module> import *` and misleads readers; nothing else
would catch it.
"""
import importlib
import pkgutil

import pytest

import pchaos

MODULES = sorted(m.name for m in pkgutil.iter_modules(pchaos.__path__))


def test_every_module_is_checked():
    assert {"core", "metrics", "partitions", "particles", "pde"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pchaos.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"pchaos.{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"pchaos.{name}.__all__ lists missing names {missing}"
    assert len(set(exported)) == len(exported), f"pchaos.{name}.__all__ repeats a name"
