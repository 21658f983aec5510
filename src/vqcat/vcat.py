"""Finite V-categories and their canonical constructions.

Objects are referenced by index.  `hom[x]` holds the row X(x, -) as `bytes`,
one element index per cell, so `hom[x][y]` is the element X(x, y).  Every
vector of quantale elements in vqcat, a hom or distributor row or a
presheaf, is such a `bytes`.  Equality of V-categories is name-insensitive:
same quantale, same size, same hom matrix under the declared object order.
Validation reads the composition inequality off `kernel.hom_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

from .errors import QuantaleMismatch, ReflexivityFail, TransitivityFail, VCatError
from .kernel import SupKernel, product_failure
from .quantale import Quantale


@dataclass(frozen=True, eq=False)
class VCategory:
    quantale: Quantale
    objects: tuple[str, ...]
    hom: tuple[bytes, ...]

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
    def column_index(self) -> dict[bytes, int]:
        """Each column X(-, x) mapped to its last object x, built on first
        use and kept."""
        return {col: x for x, col in enumerate(columns(self.hom, len(self)))}


@lru_cache(maxsize=64)
def column_cuts(m: int):
    """The function that cuts joined `bytes` rows of length m into their m
    columns, in one call: an `itemgetter` of strided slices."""
    if m < 2:  # an itemgetter of one item returns the item, not a tuple
        return lambda flat: (flat,) * m
    return itemgetter(*(slice(b, None, m) for b in range(m)))


def columns(rows, m: int) -> tuple[bytes, ...]:
    """The m columns of a matrix of `bytes` rows of length m."""
    return column_cuts(m)(b"".join(rows))


def validate_vcategory(q: Quantale, objects, hom) -> VCategory:
    """Check the reflexivity and composition inequalities, with witnesses;
    the latter is one `kernel.product_failure`, its first failing (x, y, z)."""
    objects = tuple(objects)
    try:  # iter: `bytes` of an int row would make that many zero bytes
        hom = tuple(bytes(iter(row)) for row in hom)
    except (TypeError, ValueError):
        raise VCatError("hom entries are not element indices below 256") from None
    m = len(objects)
    if len(hom) != m:
        raise VCatError(f"hom matrix has {len(hom)} rows for {m} objects", (len(hom), m))
    for x, row in enumerate(hom):
        if len(row) != m:
            raise VCatError(
                f"hom row {objects[x]} has {len(row)} entries for {m} objects",
                (objects[x], len(row)),
            )
        if max(row, default=0) >= q.n:  # before the kernel reads it as bottom
            y = next(y for y, v in enumerate(row) if v >= q.n)
            raise VCatError(
                f"hom[{objects[x]}][{objects[y]}] = {row[y]} is not a quantale index",
                (objects[x], objects[y], row[y]),
            )
    for x in range(m):
        if not q.leq[q.unit][hom[x][x]]:
            raise ReflexivityFail(
                f"e is not below hom[{objects[x]}][{objects[x]}]", (objects[x],)
            )
    failure = product_failure(q, hom, hom, hom)
    if failure is not None:
        raise TransitivityFail(
            "composition inequality failed", tuple(map(objects.__getitem__, failure))
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
        return x.hom.index(row)
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
    return VCategory(x.quantale, x.objects, columns(x.hom, len(x)))


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
        bytes(q.mult[u][w] for u in x_row for w in y_row) for x_row in x.hom for y_row in y.hom
    )
    return VCategory(q, objects, hom)


def discrete(q: Quantale, names) -> VCategory:
    names = tuple(names)
    m = len(names)
    return VCategory(
        q,
        names,
        tuple(bytes(q.unit if a == b else q.bottom for b in range(m)) for a in range(m)),
    )


def unit_category(q: Quantale) -> VCategory:
    """The monoidal unit: one object with hom e."""
    return discrete(q, ("0",))


def quantale_as_vcategory(q: Quantale) -> VCategory:
    """V itself, with hom the residuation."""
    return VCategory(q, q.elements, tuple(map(bytes, q.hom)))
