"""Quantale construction, residuation, and the builtin table.

The residuation table is derived, never stored; the oracle values asserted
here were computed by hand from the definitions.
"""

import itertools

import pytest

from vqcat.errors import (
    NotAssociative,
    QuantaleError,
    NotCommutative,
    NotJoinPreserving,
    NotALattice,
    SizeExceeded,
    WrongUnit,
)
from vqcat.quantale import (
    BUILTIN_NAMES,
    MAX_ELEMENTS,
    builtin,
    powerset_monoid,
    validate_quantale,
)
from vqcat.textio import parse_text, show_quantale


def test_builtins_validate():
    for name in BUILTIN_NAMES:
        q = builtin(name)
        assert q.n >= 2
        assert q.leq[q.bottom][q.top]


def test_boolean_residuation():
    q = builtin("two")
    # hom is classical implication
    assert q.hom[0][0] == 1
    assert q.hom[1][0] == 0
    assert q.hom[0][1] == 1
    assert q.hom[1][1] == 1


def test_lukasiewicz3_values():
    q = builtin("lukasiewicz3")
    a, zero = q.index("a"), q.index("0")
    assert q.mult[a][a] == zero
    assert q.hom[a][zero] == a
    assert q.integral


def test_r422_values():
    q = builtin("r422")
    e, a = q.index("e"), q.index("a")
    assert q.hom[a][e] == a
    assert q.hom[e][a] == a
    # the two residuals multiply back to the unit
    assert q.mult[q.hom[a][e]][q.hom[e][a]] == e
    assert not q.integral


def test_unit_residuation_is_identity():
    for name in BUILTIN_NAMES:
        q = builtin(name)
        for w in range(q.n):
            assert q.hom[q.unit][w] == w
            assert q.hom[w][q.top] == q.top


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_residuation_adjunction_exhaustive(name):
    # u*v <= w  iff  u <= [v,w]
    q = builtin(name)
    for u, v, w in itertools.product(range(q.n), repeat=3):
        assert q.leq[q.mult[u][v]][w] == q.leq[u][q.hom[v][w]]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_mult_distributes_over_joins(name):
    q = builtin(name)
    if q.n > 5:
        pytest.skip("subset enumeration too large")
    elems = range(q.n)
    for v in elems:
        for k in range(q.n + 1):
            for subset in itertools.combinations(elems, k):
                lhs = q.mult[v][q.join_of(subset)]
                rhs = q.join_of(q.mult[v][u] for u in subset)
                assert lhs == rhs


def _search_sugihara3():
    """Every idempotent quantale structure on the 3-chain with unit a.

    The oracle for the builtin's literal table: an exhaustive search over all
    3^9 candidate multiplication tables.
    """
    leq = tuple(tuple(x <= y for y in range(3)) for x in range(3))
    found = []
    for cells in itertools.product(range(3), repeat=9):
        mult = [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
        if any(mult[x][x] != x for x in range(3)):
            continue
        try:
            found.append(validate_quantale(("0", "a", "1"), leq, mult, unit=1))
        except QuantaleError:
            continue
    return found


def test_sugihara3_is_derived_uniquely():
    # unit is the middle element and multiplication is idempotent on the
    # diagonal; the search must land on exactly the builtin table
    assert _search_sugihara3() == [builtin("sugihara3")]
    q = builtin("sugihara3")
    assert q.elements[q.unit] == "a"
    for v in range(q.n):
        assert q.mult[v][v] == v
    assert not q.integral


def test_powerset_z2():
    q = builtin("powerset_z2")
    assert q.n == 4
    s0, s1 = q.index("{0}"), q.index("{1}")
    assert q.unit == s0
    assert q.mult[s1][s1] == s0  # 1+1 = 0 in Z2
    assert q.mult[q.top][q.top] == q.top


def test_powerset_monoid_direct():
    q = powerset_monoid(("0",), ((0,),), 0)
    assert q.n == 2
    assert q.mult[q.top][q.top] == q.top


def test_validate_rejects_bad_unit():
    # claim the bottom of the two-chain is the unit
    leq = ((True, True), (False, True))
    mult = ((0, 0), (0, 1))
    with pytest.raises(WrongUnit):
        validate_quantale(("0", "1"), leq, mult, 0)


def test_validate_rejects_noncommutative():
    leq = tuple(
        tuple(i == j or (i == 0) for j in range(3)) for i in range(3)
    )
    # force 3 incomparable-free chain? simpler: use a 2-chain with asymmetric table
    leq2 = ((True, True), (False, True))
    mult = ((0, 0), (1, 1))
    with pytest.raises((NotCommutative, NotJoinPreserving, NotAssociative)):
        validate_quantale(("0", "1"), leq2, mult, 1)


def test_validate_rejects_non_lattice():
    # two incomparable points with no top: not a lattice
    leq = ((True, False), (False, True))
    mult = ((0, 0), (0, 1))
    with pytest.raises(NotALattice):
        validate_quantale(("p", "q"), leq, mult, 1)


class Untouchable:
    """A table that fails the test if validation reads it."""

    def __iter__(self):
        raise AssertionError("table read")

    __getitem__ = __len__ = __iter__


def test_validate_rejects_257_elements_at_once():
    # the byte kernel needs element indices below 256; the limit is checked
    # before any of the O(n^3) table checks, which take seconds at n = 257
    assert MAX_ELEMENTS == 256
    names = [f"e{i}" for i in range(MAX_ELEMENTS + 1)]
    with pytest.raises(SizeExceeded) as exc:
        validate_quantale(names, Untouchable(), Untouchable(), 0)
    assert exc.value.estimate == MAX_ELEMENTS + 1


def test_validate_admits_256_elements():
    # 256 elements pass the size check and fail on the next one
    names = ["e"] * MAX_ELEMENTS
    with pytest.raises(QuantaleError, match="not distinct"):
        validate_quantale(names, Untouchable(), Untouchable(), 0)


def test_powerset_monoid_rejects_512_subsets_at_once():
    with pytest.raises(SizeExceeded) as exc:
        powerset_monoid(tuple(map(str, range(9))), Untouchable(), 0)
    assert exc.value.estimate == 512


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_show_roundtrip(name):
    q = builtin(name)
    ws = parse_text(show_quantale("Q", q))
    assert ws.quantales["Q"] == q
