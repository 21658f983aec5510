"""Small categories shared by the oracle tests: V over each builtin quantale,
the chains, M3, the pentagon N5, and H2; and `try_cocomplete`."""

from vqcat.cocomplete import check_cocomplete
from vqcat.errors import NotCocomplete
from vqcat.presheaf import DEFAULT_NODE_CAP
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.vcat import quantale_as_vcategory, validate_vcategory


def poset(names, le):
    """A finite poset as a category over the Boolean quantale."""
    two = builtin("two")
    n = len(names)
    return validate_vcategory(
        two, names, tuple(tuple(int(le(i, j)) for j in range(n)) for i in range(n))
    )


def diamond_m3(two):
    """Bottom, three incomparable middles, top: the smallest non-distributive
    modular lattice, viewed as a category over the Boolean quantale."""
    names = ("bot", "a", "b", "c", "top")
    le = {
        (i, j)
        for i in range(5)
        for j in range(5)
        if i == j or i == 0 or j == 4
    }
    hom = tuple(
        tuple(1 if (i, j) in le else 0 for j in range(5)) for i in range(5)
    )
    return validate_vcategory(two, names, hom)


def oracle_category(name):
    """V over a builtin (`V-<name>`), the chains, M3, the pentagon N5, and
    H2: x0 <= x1 over heyting3 with X(x1, x0) = a, cocomplete but not ccd."""
    if name.startswith("V-"):
        return quantale_as_vcategory(builtin(name[2:]))
    if name == "chain2":
        return poset(("x0", "x1"), lambda i, j: i <= j)
    if name == "chain3":
        return poset(("x0", "x1", "x2"), lambda i, j: i <= j)
    if name == "M3":
        return diamond_m3(builtin("two"))
    if name == "H2":
        return validate_vcategory(builtin("heyting3"), ("x0", "x1"), ((2, 1), (2, 2)))
    # N5: bot < a < b < top and bot < c < top
    below = {(0, 1), (1, 2), (0, 2), (0, 3)}
    return poset(
        ("bot", "a", "b", "c", "top"),
        lambda i, j: i == j or i == 0 or j == 4 or (i, j) in below,
    )


ORACLE_CATEGORIES = [f"V-{n}" for n in BUILTIN_NAMES] + ["chain2", "chain3", "M3", "N5", "H2"]
NOT_CCD = ("M3", "N5", "H2")


def try_cocomplete(x, dx=None, node_cap=DEFAULT_NODE_CAP):
    """(witness, None) on success, (None, failing presheaf) on failure."""
    try:
        return check_cocomplete(x, dx, node_cap), None
    except NotCocomplete as exc:
        return None, exc.failing
