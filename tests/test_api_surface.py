import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_clock_in_library():
    # a result that reads the clock can differ from one machine to the next
    clocks = {"time", "datetime"}
    offenders = []
    for path in sorted(Path(perepair.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names
                          if n.split(".")[0] in clocks]
    assert offenders == []
