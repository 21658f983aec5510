"""Finite V-categories and their canonical constructions.

Objects are referenced by index; `hom[x][y]` holds the quantale element X(x,y).
Equality of V-categories is name-insensitive: same quantale, same size, same
hom matrix under the declared object order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import QuantaleMismatch, ReflexivityFail, TransitivityFail, VCatError
from .kernel import SupKernel
from .quantale import Quantale


@dataclass(frozen=True, eq=False)
class VCategory:
    quantale: Quantale
    objects: tuple[str, ...]
    hom: tuple[tuple[int, ...], ...]

    def __eq__(self, other):
        if not isinstance(other, VCategory):
            return NotImplemented
        return self.quantale == other.quantale and self.hom == other.hom

    def __hash__(self):
        return hash((self.quantale.elements, self.hom))

    def __len__(self) -> int:
        return len(self.objects)

    def index(self, name: str) -> int:
        try:
            return self.objects.index(name)
        except ValueError:
            raise KeyError(f"unknown object {name!r}") from None

    @cached_property
    def kernel(self) -> SupKernel:
        """The supremum kernel, built on the first supremum query and kept."""
        return SupKernel(self)

    @cached_property
    def column_index(self) -> dict[tuple[int, ...], int]:
        """Each column X(-, x) mapped to its last object x, built on first
        use and kept."""
        return {col: x for x, col in enumerate(zip(*self.hom))}


def validate_vcategory(q: Quantale, objects, hom) -> VCategory:
    """Check the reflexivity and composition inequalities, with witnesses."""
    objects = tuple(objects)
    hom = tuple(tuple(row) for row in hom)
    m = len(objects)
    if len(hom) != m:
        raise VCatError(f"hom matrix has {len(hom)} rows for {m} objects", (len(hom), m))
    for x, row in enumerate(hom):
        if len(row) != m:
            raise VCatError(
                f"hom row {objects[x]} has {len(row)} entries for {m} objects",
                (objects[x], len(row)),
            )
        for y, v in enumerate(row):
            if not 0 <= v < q.n:
                raise VCatError(
                    f"hom[{objects[x]}][{objects[y]}] = {v} is not a quantale index",
                    (objects[x], objects[y], v),
                )
    for x in range(m):
        if not q.leq[q.unit][hom[x][x]]:
            raise ReflexivityFail(
                f"e is not below hom[{objects[x]}][{objects[x]}]", (objects[x],)
            )
    for x in range(m):
        for y in range(m):
            v = hom[x][y]
            for z in range(m):
                if not q.leq[q.mult[v][hom[y][z]]][hom[x][z]]:
                    raise TransitivityFail(
                        "composition inequality failed",
                        (objects[x], objects[y], objects[z]),
                    )
    return VCategory(q, objects, hom)


def row_object(x: VCategory, row):
    """The first object b with X(b, -) equal to `row`, or None.

    Every universal construction in V-Sup is such a lookup: the supremum, the
    tensor, the join and the reflector are the objects representing a given
    hom row.  On a separated category the object is unique.  Suprema,
    tensors, joins and the reflector look their row up in `VCategory.kernel`,
    which holds the same rows encoded; `TensorProduct.i` calls this directly.
    """
    try:
        return x.hom.index(tuple(row))
    except ValueError:
        return None


def underlying_order(x: VCategory) -> tuple[tuple[bool, ...], ...]:
    """x <= x' iff e <= X(x,x'); reflexive and transitive by the axioms."""
    q = x.quantale
    return tuple(
        tuple(q.leq[q.unit][x.hom[a][b]] for b in range(len(x))) for a in range(len(x))
    )


def separation_witness(x: VCategory):
    """A pair of distinct mutually-below objects, or None if separated."""
    order = underlying_order(x)
    for a in range(len(x)):
        for b in range(a + 1, len(x)):
            if order[a][b] and order[b][a]:
                return (a, b)
    return None


def opposite(x: VCategory) -> VCategory:
    return VCategory(
        x.quantale,
        x.objects,
        tuple(tuple(x.hom[b][a] for b in range(len(x))) for a in range(len(x))),
    )


def tensor_vcat(x: VCategory, y: VCategory) -> VCategory:
    """Tensor in V-Cat: pair objects, homs multiplied componentwise.

    Pairs are named "(x,y)" and ordered lexicographically by component index,
    so pair (a,b) sits at index a*|Y| + b.
    """
    if x.quantale != y.quantale:
        raise QuantaleMismatch("tensor of V-categories over different quantales")
    q = x.quantale
    objects = tuple(
        f"({a},{b})" for a in x.objects for b in y.objects
    )
    hom = tuple(
        tuple(
            q.mult[x.hom[a][a2]][y.hom[b][b2]]
            for a2 in range(len(x))
            for b2 in range(len(y))
        )
        for a in range(len(x))
        for b in range(len(y))
    )
    return VCategory(q, objects, hom)


def discrete(q: Quantale, names) -> VCategory:
    names = tuple(names)
    m = len(names)
    return VCategory(
        q,
        names,
        tuple(
            tuple(q.unit if a == b else q.bottom for b in range(m)) for a in range(m)
        ),
    )


def unit_category(q: Quantale) -> VCategory:
    """The monoidal unit: one object with hom e."""
    return discrete(q, ("0",))


def quantale_as_vcategory(q: Quantale) -> VCategory:
    """V itself, with hom the residuation."""
    return VCategory(q, q.elements, q.hom)
