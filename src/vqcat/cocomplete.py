"""Suprema, tensors, joins, weighted colimits and cocontinuity.

A supremum is always the *representer* of the meet formula
X(sup phi, x) = meet_x' [phi(x'), X(x',x)]; on a separated category it is
unique when it exists.  `sup_target` spells that formula out;
`representer`, `tensor_obj`, `join_obj` and `weighted_colimit` evaluate it
through the category's byte kernel (`VCategory.kernel`), a weighted
colimit as the supremum of the pushforward `apply_D` without computing the
pushforward.  `check_cocomplete` asks only for tensors and binary joins,
and its witness enumerates D(X) and tabulates suprema only when read;
`sup_of` finds one, which keeps large but known-cocomplete codomains
(functor categories) usable without enumerating their presheaves.  Out of
a separated cocomplete A, a map f : A -> B is cocontinuous exactly when it
is a left adjoint, that is when every B(f-, c) is a representable presheaf
A(-, g c).  `is_cocontinuous` asks only whether each such column is among
A's columns, stopping at the first that is not, and needs no D(A).  Such
a map is fixed by its values on `dense_generators`, a set G with every x
the colimit of G weighted by A(G, x).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .dist import Distributor, VFunctor
from .errors import NoSuchColimit, NotCocomplete, NotSeparated
from .kernel import hom_matrix
from .presheaf import (
    DEFAULT_NODE_CAP,
    Presheaf,
    PresheafCategory,
    apply_D,
    enumerate_presheaves,
    vector_name,
)
from .vcat import VCategory, separation_witness


def sup_target(x: VCategory, values):
    """The vector that X(sup phi, -) must equal, per the defining meet formula."""
    q = x.quantale
    m = len(x)
    return tuple(
        q.meet_of(q.hom[values[a]][x.hom[a][b]] for a in range(m)) for b in range(m)
    )


def representer(x: VCategory, values):
    """The first object whose hom row equals `sup_target(x, values)`, or None."""
    return x.kernel.colimit(range(len(x)), values)


def sup_of(x: VCategory, values) -> int:
    """Supremum of one presheaf vector; raises NotCocomplete if absent."""
    b = representer(x, values)
    if b is None:
        raise NotCocomplete(
            f"no supremum for {vector_name(x, values)}", failing=Presheaf(x, tuple(values))
        )
    return b


@dataclass(frozen=True, eq=False)
class CocompleteWitness:
    base: VCategory
    node_cap: int = DEFAULT_NODE_CAP  # for dx

    @cached_property
    def dx(self) -> PresheafCategory:
        """D(base), enumerated under `node_cap` on first read."""
        return enumerate_presheaves(self.base, self.node_cap)

    @cached_property
    def sup_index(self) -> tuple[int, ...]:
        """D(base) object index -> base index of its sup, built on first read."""
        colimit, objs = self.base.kernel.colimit, range(len(self.base))
        return tuple(colimit(objs, values) for values in self.dx.vectors)

    @cached_property
    def ideal_columns(self) -> dict[tuple[int, ...], int | None]:
        """The column table of `tensorprod`: each theta in D(base) mapped to
        the index of the first phi with D(base)(phi, theta) != theta(sup phi),
        or None if there is none (theta in C).  One hom matrix of D(base)."""
        vectors, sups = self.dx.vectors, self.sup_index
        columns = zip(*hom_matrix(self.base.quantale, vectors, vectors))
        return {
            theta: next((i for i, h in enumerate(col) if h != theta[sups[i]]), None)
            for theta, col in zip(vectors, columns)
        }


def check_cocomplete(
    x: VCategory, dx: PresheafCategory | None = None, node_cap: int = DEFAULT_NODE_CAP
) -> CocompleteWitness:
    """Raises NotSeparated / NotCocomplete(failing), else the witness on D(x).
    Decided by `has_tensors_and_joins`; D(x), `dx` if given, else enumerated
    under `node_cap`, is read only to name `failing`, the first presheaf in
    D(x) order with no supremum."""
    pair = separation_witness(x)
    if pair is not None:
        raise NotSeparated(
            f"not separated: {x.objects[pair[0]]} ~ {x.objects[pair[1]]}", witness=pair
        )
    witness = CocompleteWitness(x, node_cap)
    if dx is not None:
        vars(witness)["dx"] = dx  # the cached value of the property
    if not (len(x) and has_tensors_and_joins(x)):
        for values in witness.dx.vectors:
            sup_of(x, values)  # raises at the first presheaf with no supremum
    return witness


def has_tensors_and_joins(x: VCategory) -> bool:
    """Every tensor v (x) z and binary join exists, one kernel fold each.
    sup phi is the join of the tensors phi(z) (x) z, so a separated x with
    an object is cocomplete iff this holds."""
    colimit, objs, unit = x.kernel.colimit, range(len(x)), x.quantale.unit
    tensors = all(colimit((z,), (v,)) is not None for z in objs for v in range(x.quantale.n))
    return tensors and all(colimit(p, (unit, unit)) is not None for p in combinations(objs, 2))


def _weight(x: VCategory, v: int, objs):
    """The presheaf with value v on `objs` and bottom elsewhere."""
    values = [x.quantale.bottom] * len(x)
    for z in objs:
        values[z] = v
    return values


def tensor_obj(x: VCategory, v: int, z: int) -> int:
    """The tensor v (x) z, representer of [v, X(z,-)]."""
    b = x.kernel.colimit((z,), (v,))
    if b is not None:
        return b
    target = sup_target(x, _weight(x, v, (z,)))
    raise NoSuchColimit(
        f"no tensor of object {x.objects[z]} by {x.quantale.elements[v]}",
        weight={"kind": "tensor", "v": v, "z": z, "target": target},
    )


def join_obj(x: VCategory, objs) -> int:
    """The join of a family, representer of meet_k X(z_k, -).

    This is representability, not the order-theoretic lub; the two agree only
    on cotensored categories.
    """
    objs = tuple(objs)
    unit = x.quantale.unit
    b = x.kernel.colimit(objs, (unit,) * len(objs))
    if b is not None:
        return b
    target = sup_target(x, _weight(x, unit, objs))
    raise NoSuchColimit(
        "family has no representable join",
        weight={"kind": "join", "objs": objs, "target": target},
    )


def weighted_colimit(phi: Distributor, f: VFunctor) -> VFunctor:
    """colim(phi, f)(x) = sup f_* phi(-, x), for phi: X -|-> Y, f: Y -> Z.

    Z(sup f_* psi, -) = meet_y [psi(y), Z(f y, -)] (Yoneda), so the
    pushforward itself is computed only to report a missing colimit.
    """
    if phi.cod != f.dom:
        raise ValueError("weight codomain must match the functor domain")
    z = f.cod
    mapping = []
    for a in range(len(phi.dom)):
        column = tuple(row[a] for row in phi.mat)
        b = z.kernel.colimit(f.mapping, column)
        if b is None:
            raise NoSuchColimit(
                "weighted colimit does not exist",
                weight={"kind": "weighted", "x": a, "theta": apply_D(f, column)},
            )
        mapping.append(b)
    return VFunctor(phi.dom, z, tuple(mapping))


def dense_generators(a: VCategory) -> tuple[int, ...]:
    """An irredundant G with every x the colimit of G weighted by A(G, x).

    One greedy pass drops x when it is the colimit of the kept objects
    other than x, weighted by A(-, x).  Dropping x keeps every object
    dropped before it generated: its colimit row meet_g [A(g, y), A(g, -)]
    loses the term [A(x, y), A(x, -)] = meet_g [A(g, x) * A(x, y), A(g, -)],
    which lies above meet_g [A(g, y), A(g, -)] and so changed nothing.  And
    no kept g is generated by G minus g, a smaller set than the one it
    failed against.  Over `two` G is the join-irreducibles.
    """
    colimit, hom = a.kernel.colimit, a.hom
    kept = list(range(len(a)))
    for x in range(len(a)):
        rest = [g for g in kept if g != x]
        if colimit(rest, [hom[g][x] for g in rest]) == x:
            kept = rest
    return tuple(kept)


def is_cocontinuous(f: VFunctor) -> bool:
    """f preserves all suprema, its domain being separated cocomplete: it is
    a left adjoint, every column B(f-, c) a column A(-, g c) of A.  The
    columns are built one at a time, and the answer is known at the first
    that is no column of A."""
    if not f.mapping:
        return not f.cod.hom
    columns = zip(*map(f.cod.hom.__getitem__, f.mapping))
    return all(map(f.dom.column_index.__contains__, columns))
