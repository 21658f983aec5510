"""The library has no runtime dependencies: every module under `src/vqcat`
imports only the standard library and `vqcat` itself.  It also reads the
quantale only through its tables: no module names a removed alias."""

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


REMOVED_ALIASES = {"le", "mul", "res"}


def alias_attributes(tree):
    """Every attribute named like a removed `Quantale` alias, called or not.

    The aliases `le`, `mul` and `res` are spelled `q.leq[u][v]`,
    `q.mult[u][v]` and `q.hom[v][w]`.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in REMOVED_ALIASES:
            yield node.attr


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_reads_the_quantale_through_its_tables(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(alias_attributes(tree)) == []


def test_guard_sees_a_removed_alias():
    calls = "".join(f"q.{name}(u, v)\n" for name in ("le", "res"))
    tree = ast.parse(calls + "map(q.mul, ty, phi)\nq.hom[v][w]\n")
    assert sorted(alias_attributes(tree)) == ["le", "mul", "res"]
