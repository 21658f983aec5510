"""Finite commutative quantales: validation, derived structure, builtin examples.

A quantale is kept fully materialized: order, binary join/meet tables,
multiplication, and the residuation table [v,w] derived from it.  Elements are
referenced by index everywhere; names are I/O only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    MonoidSpecInvalid,
    NotALattice,
    NotAPartialOrder,
    NotAssociative,
    NotCommutative,
    NotJoinPreserving,
    QuantaleError,
    SizeExceeded,
    UnknownBuiltin,
    WrongUnit,
)
from .kernel import QuantaleTables

BUILTIN_NAMES = ("two", "heyting3", "sugihara3", "lukasiewicz3", "r422", "powerset_z2")

# The kernel encodes a vector as `bytes(vector)`, so element indices fit a byte.
MAX_ELEMENTS = 256


@dataclass(frozen=True)
class Quantale:
    """A validated finite commutative quantale.

    All tables are index-based: ``leq[u][v]`` is u <= v, ``mult[u][v]`` the
    tensor, ``hom[v][w]`` the residuation [v,w].  Immutable after validation.
    """

    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    mult: tuple[tuple[int, ...], ...]
    unit: int
    hom: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    integral: bool = field(compare=False)

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def tables(self) -> QuantaleTables:
        """The byte kernel's tables over this quantale, built on first use
        and kept."""
        return QuantaleTables(self)

    def join_of(self, values) -> int:
        """Join of an arbitrary (possibly empty) iterable, folded from bottom."""
        acc = self.bottom
        for v in values:
            acc = self.join[acc][v]
        return acc

    def meet_of(self, values) -> int:
        acc = self.top
        for v in values:
            acc = self.meet[acc][v]
        return acc

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise KeyError(f"unknown element {name!r}") from None


def _lub(leq, n, x, y):
    uppers = [u for u in range(n) if leq[x][u] and leq[y][u]]
    for u in uppers:
        if all(leq[u][v] for v in uppers):
            return u
    return None


def _glb(leq, n, x, y):
    lowers = [u for u in range(n) if leq[u][x] and leq[u][y]]
    for u in lowers:
        if all(leq[v][u] for v in lowers):
            return u
    return None


def _check_size(n: int) -> None:
    if n > MAX_ELEMENTS:
        raise SizeExceeded(
            f"quantale has {n} elements (limit {MAX_ELEMENTS})", estimate=n
        )


def validate_quantale(elements, leq, mult, unit) -> Quantale:
    """Validate raw data and derive joins, meets and residuation.

    Raises a `QuantaleError` subclass naming the first violated axiom,
    with a witness tuple of element names, and `SizeExceeded` for more than
    `MAX_ELEMENTS` elements before any table is read.
    """
    elements = tuple(elements)
    n = len(elements)
    _check_size(n)
    if len(set(elements)) != n:
        raise QuantaleError("element names are not distinct")
    leq = tuple(tuple(bool(x) for x in row) for row in leq)
    mult = tuple(tuple(row) for row in mult)
    if len(leq) != n or any(len(r) != n for r in leq):
        raise QuantaleError("order table has wrong shape")
    if len(mult) != n or any(len(r) != n for r in mult):
        raise QuantaleError("multiplication table has wrong shape")
    if not 0 <= unit < n:
        raise QuantaleError("unit index out of range")

    def name(i):
        return elements[i]

    for x in range(n):
        if not leq[x][x]:
            raise NotAPartialOrder(f"order not reflexive at {name(x)}", (name(x),))
    for x, y in itertools.combinations(range(n), 2):
        if leq[x][y] and leq[y][x]:
            raise NotAPartialOrder(
                f"order not antisymmetric on {name(x)},{name(y)}", (name(x), name(y))
            )
    for x, y, z in itertools.product(range(n), repeat=3):
        if leq[x][y] and leq[y][z] and not leq[x][z]:
            raise NotAPartialOrder(
                "order not transitive", (name(x), name(y), name(z))
            )

    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            j = _lub(leq, n, x, y)
            m = _glb(leq, n, x, y)
            if j is None:
                raise NotALattice(f"{name(x)},{name(y)} have no join", (name(x), name(y)))
            if m is None:
                raise NotALattice(f"{name(x)},{name(y)} have no meet", (name(x), name(y)))
            join[x][y] = j
            meet[x][y] = m
    bottom = 0
    top = 0
    for x in range(n):
        bottom = meet[bottom][x]
        top = join[top][x]

    for x in range(n):
        for y in range(x + 1, n):
            if mult[x][y] != mult[y][x]:
                raise NotCommutative(
                    f"{name(x)}*{name(y)} != {name(y)}*{name(x)}", (name(x), name(y))
                )
    for x, y, z in itertools.product(range(n), repeat=3):
        if mult[mult[x][y]][z] != mult[x][mult[y][z]]:
            raise NotAssociative(
                "multiplication not associative", (name(x), name(y), name(z))
            )
    for x in range(n):
        if mult[unit][x] != x:
            raise WrongUnit(f"{name(unit)}*{name(x)} != {name(x)}", (name(x),))
    for v in range(n):
        if mult[v][bottom] != bottom:
            raise NotJoinPreserving(
                f"{name(v)}*bottom != bottom", (name(v), name(bottom))
            )
        for x, y in itertools.combinations(range(n), 2):
            if mult[v][join[x][y]] != join[mult[v][x]][mult[v][y]]:
                raise NotJoinPreserving(
                    f"{name(v)} does not distribute over {name(x)} v {name(y)}",
                    (name(v), (name(x), name(y))),
                )

    hom = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in range(n):
            acc = bottom
            for u in range(n):
                if leq[mult[u][v]][w]:
                    acc = join[acc][u]
            hom[v][w] = acc
    # Binary join preservation in a finite lattice gives the full adjunction;
    # checked anyway since it is the axiom everything downstream leans on.
    for u, v, w in itertools.product(range(n), repeat=3):
        if leq[mult[u][v]][w] != leq[u][hom[v][w]]:
            raise QuantaleError(
                "residuation adjunction failed", (name(u), name(v), name(w))
            )

    return Quantale(
        elements=elements,
        leq=leq,
        join=tuple(tuple(r) for r in join),
        meet=tuple(tuple(r) for r in meet),
        mult=mult,
        unit=unit,
        hom=tuple(tuple(r) for r in hom),
        bottom=bottom,
        top=top,
        integral=(unit == top),
    )


def _chain_leq(n):
    return tuple(tuple(x <= y for y in range(n)) for x in range(n))


def powerset_monoid(elements, op, unit) -> Quantale:
    """Free quantale on a finite commutative monoid: subsets under setwise product.

    `op` is an |M|x|M| table of indices, `unit` a monoid element index.
    Subsets are ordered by their bitmask; the quantale order is inclusion.
    """
    elements = tuple(elements)
    m = len(elements)
    _check_size(1 << m)
    if len(set(elements)) != m:
        raise MonoidSpecInvalid("monoid elements not distinct")
    op = tuple(tuple(row) for row in op)
    if len(op) != m or any(len(r) != m for r in op):
        raise MonoidSpecInvalid("monoid table has wrong shape")
    if any(not 0 <= op[x][y] < m for x in range(m) for y in range(m)):
        raise MonoidSpecInvalid("monoid table entry out of range")
    for x in range(m):
        for y in range(m):
            if op[x][y] != op[y][x]:
                raise MonoidSpecInvalid("monoid not commutative")
            for z in range(m):
                if op[op[x][y]][z] != op[x][op[y][z]]:
                    raise MonoidSpecInvalid("monoid not associative")
    if not 0 <= unit < m or any(op[unit][x] != x for x in range(m)):
        raise MonoidSpecInvalid("bad monoid unit")

    subsets = list(range(1 << m))

    def setname(s):
        return "{" + ",".join(elements[i] for i in range(m) if s >> i & 1) + "}"

    leq = tuple(tuple((s & t) == s for t in subsets) for s in subsets)
    mult = []
    for s in subsets:
        row = []
        for t in subsets:
            prod = 0
            for x in range(m):
                if s >> x & 1:
                    for y in range(m):
                        if t >> y & 1:
                            prod |= 1 << op[x][y]
            row.append(prod)
        mult.append(row)
    return validate_quantale(
        tuple(setname(s) for s in subsets), leq, mult, unit=1 << unit
    )


@lru_cache(maxsize=None)
def builtin(name: str) -> Quantale:
    """A named builtin quantale, validated on first use and cached."""
    if name == "two":
        return validate_quantale(
            ("0", "1"), _chain_leq(2), ((0, 0), (0, 1)), unit=1
        )
    if name == "heyting3":
        # meet as tensor on the 3-chain
        mult = tuple(tuple(min(x, y) for y in range(3)) for x in range(3))
        return validate_quantale(("0", "a", "1"), _chain_leq(3), mult, unit=2)
    if name == "lukasiewicz3":
        # v*w = max(0, v+w-1) reading the chain as 0, 1/2, 1
        mult = tuple(tuple(max(0, x + y - 2) for y in range(3)) for x in range(3))
        return validate_quantale(("0", "a", "1"), _chain_leq(3), mult, unit=2)
    if name == "sugihara3":
        # the unique idempotent table on the 3-chain 0 < a < 1 with unit a:
        # 0 absorbs and 1*1 = 1 (tests/test_quantale.py searches all 3^9)
        mult = ((0, 0, 0), (0, 1, 2), (0, 2, 2))
        return validate_quantale(("0", "a", "1"), _chain_leq(3), mult, unit=1)
    if name == "r422":
        # 4-element Boolean algebra {bot, e, a, top}, a*a = e, a*top = top
        names = ("bot", "e", "a", "top")
        bot, e, a, top = range(4)
        leq = tuple(
            tuple((x, y) in pairs or x == y for y in range(4))
            for x, pairs in (
                (bot, {(bot, e), (bot, a), (bot, top)}),
                (e, {(e, top)}),
                (a, {(a, top)}),
                (top, set()),
            )
        )
        mult = [[0] * 4 for _ in range(4)]
        table = {
            (bot, bot): bot, (bot, e): bot, (bot, a): bot, (bot, top): bot,
            (e, e): e, (e, a): a, (e, top): top,
            (a, a): e, (a, top): top,
            (top, top): top,
        }
        for (x, y), z in table.items():
            mult[x][y] = z
            mult[y][x] = z
        return validate_quantale(names, leq, mult, unit=e)
    if name == "powerset_z2":
        return powerset_monoid(("0", "1"), ((0, 1), (1, 0)), unit=0)
    raise UnknownBuiltin(f"unknown builtin quantale {name!r}")
