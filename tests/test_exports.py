import importlib
import pkgutil

import pytest

import zeropack

MODULES = [zeropack] + [
    importlib.import_module(f"zeropack.{info.name}") for info in pkgutil.iter_modules(zeropack.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which the module does not define"
