"""The library has no runtime dependencies: every module under `src/vqcat`
imports only the standard library and `vqcat` itself.  It also reads the
quantale only through its tables: no module names a removed alias.  It
holds one backtracking search: one function compares a counter against
`node_cap`.  And it takes every hom of presheaf vectors from
`kernel.hom_matrix`: no module calls the scalar `presheaf_hom`, which the
tests keep as an oracle.  Likewise it decides cocontinuity by one column
lookup (`cocomplete.is_cocontinuous`): no module calls `is_adjoint_functors`.
And it encodes vectors in one place: only `kernel.py` names `Planes`,
calls `int.from_bytes`, `int.to_bytes` or a `translate` method, or reads
`tables.decode` or `tables.planes`.  And it enumerates V-functors
only on dense generators: `enumerate_vfunctors` is read in one function,
`tensorprod.enumerate_extensions`.  And no decision enumerates D(X):
`enumerate_presheaves` is read only where D(X) itself is asked for, by
`CocompleteWitness.dx`, `TensorProduct.dab`, the `vq presheaves` and
`vq cauchy` commands, the `presheaves` constructor of the text format and
the corpus's Cauchy instance.  And nuclearity is decided from the ideals'
images: `ccd.is_nuclear` reads neither the tensor carrier nor a hom
matrix of sup-maps, and only the universal property extends bimorphisms.
And one function builds a k x k functor hom matrix, `vsup_category`:
`galois_iso` and `check_universal_property` read no hom matrix, since
Yoneda and density prove their hom comparisons.  And it holds only reached
code: every public top-level function is read by another part of the
library, or is named by the benchmark (the tracer's targets and the
workloads' `vq.<name>` reads) or is monad data or `weighted_colimit`,
which the acceptance tests read."""

import ast
import sys
from pathlib import Path

import pytest

import vqcat

from test_tracer_targets import load_tracing

SOURCES = sorted(Path(vqcat.__file__).parent.glob("*.py"))
LIBRARY = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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


def name_reads(tree, target):
    """The line of every read of the name `target`, bare or as an
    attribute: a call, or a reference passed on to be called."""
    for node in ast.walk(tree):
        if reads(node, target):
            yield node.lineno


def reads(node, target):
    """Whether the node reads the name `target`, bare or as an attribute."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id == target
    return isinstance(node, ast.Attribute) and node.attr == target


def reading_functions(tree, target):
    """The name of the innermost function around each read of `target`
    (as `name_reads` counts them), "Class.name" for a method, or "<module>"
    outside every function."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = getattr(child, "name", owner)
                if isinstance(node, ast.ClassDef):
                    inner = f"{node.name}.{inner}"
            else:
                inner = owner
            if reads(child, target):
                yield inner
            yield from walk(child, inner)

    yield from walk(tree, "<module>")


ENCODING_CALLS = {"from_bytes", "to_bytes", "translate"}
TABLE_CODECS = {"decode", "planes"}


def vector_encodings(tree):
    """The line of every step that builds or reads a vector encoding: a read
    or an import of the name `Planes`, a call of a method named like
    `int.from_bytes`, `int.to_bytes` or `bytes.translate`, or a read of the
    encoder or decoder of a quantale's tables (`tables.planes`,
    `tables.decode`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "Planes" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "Planes":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "Planes":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in TABLE_CODECS:
            if reads(node.value, "tables"):
                yield node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ENCODING_CALLS
        ):
            yield node.lineno


def capped_searches(tree):
    """The name of every function whose own body, nested functions left
    out, compares a counter (a plain name) against `node_cap`."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Compare):
                names = [n.id for n in (node.left, *node.comparators) if isinstance(n, ast.Name)]
                if "node_cap" in names and len(names) > 1:
                    yield fn.name
                    break
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_calls_no_scalar_presheaf_hom(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(name_reads(tree, "presheaf_hom")) == []


def test_guard_sees_a_presheaf_hom_call():
    tree = ast.parse(
        "from .presheaf import presheaf_hom\n"
        "def presheaf_hom(q, phi, psi):\n"
        "    return q.top\n"
        "presheaf_hom(q, u, w)\n"
        "presheaf.presheaf_hom(q, u, w)\n"
        "map(partial(presheaf_hom, q), us, ws)\n"
    )
    assert sorted(name_reads(tree, "presheaf_hom")) == [4, 5, 6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_calls_no_is_adjoint_functors(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(name_reads(tree, "is_adjoint_functors")) == []


def test_guard_sees_an_is_adjoint_functors_call():
    tree = ast.parse(
        "from .dist import is_adjoint_functors\n"
        "def is_adjoint_functors(f, g):\n"
        "    return True\n"
        "is_adjoint_functors(f, g)\n"
        "dist.is_adjoint_functors(f, g)\n"
        "all(map(is_adjoint_functors, fs, gs))\n"
    )
    assert sorted(name_reads(tree, "is_adjoint_functors")) == [4, 5, 6]


def test_one_backtracking_search():
    searches = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in capped_searches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(searches) == 1, searches


def test_guard_sees_a_second_search():
    tree = ast.parse(
        "def first(node_cap):\n"
        "    nodes = 0\n"
        "    def place():\n"
        "        if nodes > node_cap:\n"
        "            raise SizeExceeded\n"
        "def second(node_cap):\n"
        "    for count in range(9):\n"
        "        if node_cap <= count:\n"
        "            break\n"
        "def unchecked(node_cap):\n"
        "    assert node_cap > 0\n"
    )
    assert sorted(capped_searches(tree)) == ["place", "second"]


def test_one_vector_encoder():
    encoders = sorted(
        {
            path.name
            for path in SOURCES
            if any(vector_encodings(ast.parse(path.read_text(encoding="utf-8"))))
        }
    )
    assert encoders == ["kernel.py"]


def test_guard_sees_a_second_encoder():
    tree = ast.parse(
        "from .kernel import Planes, hom_matrix\n"
        "planes = Planes(q)\n"
        "code = kernel.Planes(q).encode(u)\n"
        "code = int.from_bytes(bytes(u), 'little')\n"
        "row = bytes(u).translate(table)\n"
        "hom_matrix(q, us, ws)\n"
        "bytes(u).hex()\n"
        "code.to_bytes(m, 'little')\n"
        "row = q.tables.decode(masks)\n"
        "planes = tables.planes\n"
        "text = out.getvalue().encode().decode()\n"
        "kernel.meet_row(phi)\n"
    )
    assert sorted(vector_encodings(tree)) == [1, 2, 3, 4, 5, 8, 9, 10]


def test_one_vfunctor_enumeration_site():
    sites = [
        f"{path.name}:{owner}"
        for path in SOURCES
        for owner in reading_functions(
            ast.parse(path.read_text(encoding="utf-8")), "enumerate_vfunctors"
        )
    ]
    assert sites == ["tensorprod.py:enumerate_extensions"]


def test_guard_sees_a_second_vfunctor_enumeration_site():
    tree = ast.parse(
        "from .tensorprod import enumerate_vfunctors\n"
        "def enumerate_vfunctors(dom, cod, node_cap):\n"
        "    return search_vfunctors(dom, cod, node_cap, 'functor')\n"
        "def enumerate_extensions(dom, cod):\n"
        "    for g in enumerate_vfunctors(dom, cod, 9):\n"
        "        pass\n"
        "def filtered(dom, cod):\n"
        "    keep = lambda m: m\n"
        "    return list(map(keep, tensorprod.enumerate_vfunctors(dom, cod)))\n"
        "everything = enumerate_vfunctors(a, b, 9)\n"
    )
    assert list(reading_functions(tree, "enumerate_vfunctors")) == [
        "enumerate_extensions",
        "filtered",
        "<module>",
    ]


PRESHEAF_ENUMERATION_SITES = [
    "cli.py:_cmd_presheaves",
    "cli.py:_cmd_cauchy",
    "cocomplete.py:CocompleteWitness.dx",
    "corpus.py:_cauchy_chain2",
    "tensorprod.py:TensorProduct.dab",
    "textio.py:_derived_vcat",
]


def test_presheaves_enumerated_only_where_read():
    sites = [
        f"{path.name}:{owner}"
        for path in SOURCES
        for owner in reading_functions(
            ast.parse(path.read_text(encoding="utf-8")), "enumerate_presheaves"
        )
    ]
    assert sites == PRESHEAF_ENUMERATION_SITES


def test_guard_sees_a_presheaf_enumeration_in_a_decision():
    tree = ast.parse(
        "from .presheaf import enumerate_presheaves\n"
        "class CocompleteWitness:\n"
        "    def dx(self):\n"
        "        return enumerate_presheaves(self.base, self.node_cap)\n"
        "    def sup_index(self):\n"
        "        return [sup(v) for v in presheaf.enumerate_presheaves(self.base).vectors]\n"
        "def dx(x):\n"
        "    return enumerate_presheaves(x)\n"
        "def check_cocomplete(x, dx=None, node_cap=9):\n"
        "    dx = dx or enumerate_presheaves(x, node_cap)\n"
        "    def scan():\n"
        "        return map(sup_of, enumerate_presheaves(x).vectors)\n"
        "everything = enumerate_presheaves(x)\n"
    )
    assert list(reading_functions(tree, "enumerate_presheaves")) == [
        "CocompleteWitness.dx",
        "CocompleteWitness.sup_index",
        "dx",
        "check_cocomplete",
        "scan",
        "<module>",
    ]


def reading_sites(target, trees=LIBRARY):
    """The "module.py:function" of every read of `target` in `trees`, a
    module tree per file name, by default the library."""
    return [
        f"{name}:{owner}"
        for name, tree in trees.items()
        for owner in reading_functions(tree, target)
    ]


def test_is_nuclear_is_a_library_function():
    tree = ast.parse((Path(vqcat.__file__).parent / "ccd.py").read_text(encoding="utf-8"))
    assert "is_nuclear" in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize(
    "target",
    [
        "build_tensor_product",
        "extend_bimorphism",
        "is_bimorphism",
        "functor_hom_matrix",
        "presheaf_subcategory",
    ],
)
def test_is_nuclear_builds_no_carrier_and_no_hom_matrix(target):
    assert "ccd.py:is_nuclear" not in reading_sites(target)


def test_only_the_universal_property_extends_bimorphisms():
    assert reading_sites("extend_bimorphism") == ["tensorprod.py:check_universal_property"]


def test_one_functor_hom_matrix_builder():
    assert reading_sites("functor_hom_matrix") == ["tensorprod.py:vsup_category"]


@pytest.mark.parametrize("decision", ["galois_iso", "check_universal_property"])
@pytest.mark.parametrize("target", ["hom_matrix", "functor_hom_matrix"])
def test_cross_checks_build_no_hom_matrix(decision, target):
    assert f"tensorprod.py:{decision}" not in reading_sites(target)


def test_tensorprod_imports_no_hom_matrix():
    tree = ast.parse((Path(vqcat.__file__).parent / "tensorprod.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "hom_matrix" not in imported


MONAD_DATA = {"yoneda", "D_on_functor", "D_inv", "D_all", "mu", "d0", "d2", "inverter"}
# the weighted colimit of a distributor, which acceptance criterion 5 reads
# and which the library computes one kernel colimit at a time instead
WEIGHTED_COLIMIT = {"weighted_colimit"}


def workload_names():
    """Every name the benchmark's workloads read off the library, `vq.<name>`."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "vq"
    }


def unreached_functions(trees, keep):
    """The "module.py:function" of every public top-level function in
    `trees` that is not in `keep` and that nothing in `trees` reads but the
    function itself."""
    for name, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                and node.name not in keep
            ):
                own = f"{name}:{node.name}"
                if all(site == own for site in reading_sites(node.name, trees)):
                    yield own


def test_every_public_function_is_reached():
    keep = (
        {t.name for t in load_tracing().TARGETS} | workload_names() | MONAD_DATA | WEIGHTED_COLIMIT
    )
    assert list(unreached_functions(LIBRARY, keep)) == []


def test_guard_sees_an_unreached_function():
    trees = {
        "a.py": ast.parse(
            "def decide(x):\n"
            "    return helper(x)\n"
            "def helper(x):\n"
            "    return helper(x - 1) if x else 0\n"
            "def orphan(x):\n"
            "    return orphan(x - 1)\n"
            "def _private():\n"
            "    pass\n"
            "def kept():\n"
            "    pass\n"
            "TABLE = {'tabled': tabled}\n"
        ),
        "b.py": ast.parse("def tabled():\n    return a.decide(1)\n"),
    }
    assert list(unreached_functions(trees, {"kept"})) == ["a.py:orphan"]
