import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rfuowc

MODULES = [info.name for info in pkgutil.iter_modules(rfuowc.__path__)
           if hasattr(importlib.import_module(f"rfuowc.{info.name}"), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"rfuowc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_re_exports_only_public_names():
    tree = ast.parse(Path(rfuowc.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    stale = [(node.module, a.name) for node in imports for a in node.names
             if a.name not in importlib.import_module(f"rfuowc.{node.module}").__all__]
    assert imports and stale == []
