import importlib
import pkgutil

import pytest

import perepair

MODULES = ["perepair"] + sorted(
    f"perepair.{info.name}" for info in pkgutil.iter_modules(perepair.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []

