"""The library has no runtime dependencies: every module under `src/vqcat`
imports only the standard library and `vqcat` itself."""

import ast
import sys
from pathlib import Path

import pytest

import vqcat

SOURCES = sorted(Path(vqcat.__file__).parent.glob("*.py"))


def imported_roots(tree):
    """The top-level package of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_vqcat(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = {
        root
        for root in imported_roots(tree)
        if root != "vqcat" and root not in sys.stdlib_module_names
    }
    assert foreign == set()


def test_guard_sees_a_foreign_import():
    tree = ast.parse("import numpy as np\nfrom hypothesis import given\nfrom .kernel import Planes\n")
    assert list(imported_roots(tree)) == ["numpy", "hypothesis"]
