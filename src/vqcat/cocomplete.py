"""Suprema, tensors, joins, weighted colimits and cocontinuity.

A supremum is always the *representer* of the meet formula
X(sup phi, x) = meet_x' [phi(x'), X(x',x)]; on a separated category it is
unique when it exists.  Tensors, joins and weighted colimits are found the
same way, by `row_object`, and a weighted colimit is the supremum of the
pushforward `apply_D`.  `check_cocomplete` tabulates the supremum for every
presheaf; `sup_of` finds it for a single vector, which keeps large but
known-cocomplete codomains (functor categories) usable without enumerating
their presheaves.  A map is cocontinuous exactly when it has the right
adjoint g(c) = sup B(f-, c), so `is_cocontinuous` computes g and checks
the one hom equality B(f-, -) = A(-, g-).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dist import Distributor, VFunctor, is_adjoint_functors
from .errors import NoSuchColimit, NotCocomplete, NotSeparated
from .presheaf import (
    DEFAULT_NODE_CAP,
    Presheaf,
    PresheafCategory,
    apply_D,
    enumerate_presheaves,
    vector_name,
)
from .vcat import VCategory, row_object, separation_witness


def sup_target(x: VCategory, values):
    """The vector that X(sup phi, -) must equal, per the defining meet formula."""
    q = x.quantale
    m = len(x)
    return tuple(
        q.meet_of(q.res(values[a], x.hom[a][b]) for a in range(m)) for b in range(m)
    )


def representer(x: VCategory, values):
    """Object whose hom row matches the sup target, or None."""
    return row_object(x, sup_target(x, values))


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
    dx: PresheafCategory
    sup_index: tuple[int, ...]  # D(base) object index -> base object index

    def sup(self, i: int) -> int:
        return self.sup_index[i]

    def sup_vector(self, values) -> int:
        return self.sup_index[self.dx.index[tuple(values)]]


def check_cocomplete(
    x: VCategory, dx: PresheafCategory | None = None, node_cap: int = DEFAULT_NODE_CAP
) -> CocompleteWitness:
    """Full sup table over D(x); raises NotSeparated / NotCocomplete(failing)."""
    pair = separation_witness(x)
    if pair is not None:
        raise NotSeparated(
            f"not separated: {x.objects[pair[0]]} ~ {x.objects[pair[1]]}", witness=pair
        )
    if dx is None:
        dx = enumerate_presheaves(x, node_cap)
    return CocompleteWitness(x, dx, tuple(sup_of(x, values) for values in dx.vectors))


def try_cocomplete(x: VCategory, dx=None, node_cap: int = DEFAULT_NODE_CAP):
    """(witness, None) on success, (None, failing presheaf) on failure."""
    try:
        return check_cocomplete(x, dx, node_cap), None
    except NotCocomplete as exc:
        return None, exc.failing


def sup_join_tensor(w: CocompleteWitness, values) -> int:
    """sup phi = join_x phi(x) (x) x, the join-of-tensors formula.

    Requires every tensor and the final join to be representable; used as a
    cross-check of the tabulated sup.
    """
    x = w.base
    terms = [tensor_obj(x, values[a], a) for a in range(len(x))]
    return join_obj(x, terms)


def tensor_obj(x: VCategory, v: int, z: int) -> int:
    """The tensor v (x) z, representer of [v, X(z,-)]."""
    q = x.quantale
    target = tuple(q.res(v, x.hom[z][b]) for b in range(len(x)))
    b = row_object(x, target)
    if b is not None:
        return b
    raise NoSuchColimit(
        f"no tensor of object {x.objects[z]} by {q.elements[v]}",
        weight={"kind": "tensor", "v": v, "z": z, "target": target},
    )


def join_obj(x: VCategory, objs) -> int:
    """The join of a family, representer of meet_k X(z_k, -).

    This is representability, not the order-theoretic lub; the two agree only
    on cotensored categories.
    """
    q = x.quantale
    objs = tuple(objs)
    target = tuple(q.meet_of(x.hom[z][b] for z in objs) for b in range(len(x)))
    b = row_object(x, target)
    if b is not None:
        return b
    raise NoSuchColimit(
        "family has no representable join",
        weight={"kind": "join", "objs": objs, "target": target},
    )


def weighted_colimit(phi: Distributor, f: VFunctor) -> VFunctor:
    """colim(phi, f)(x) = sup f_* phi(-, x), for phi: X -|-> Y, f: Y -> Z."""
    if phi.cod != f.dom:
        raise ValueError("weight codomain must match the functor domain")
    z = f.cod
    ny = len(f.dom)
    mapping = []
    for a in range(len(phi.dom)):
        theta = apply_D(f, tuple(phi.mat[y][a] for y in range(ny)))
        b = representer(z, theta)
        if b is None:
            raise NoSuchColimit(
                "weighted colimit does not exist",
                weight={"kind": "weighted", "x": a, "theta": theta},
            )
        mapping.append(b)
    return VFunctor(phi.dom, z, tuple(mapping))


def left_kan(j: VFunctor, f: VFunctor) -> VFunctor:
    """Pointwise Lan_j f (x) = join_y X(j y, x) (x) f(y)."""
    if j.dom != f.dom:
        raise ValueError("Kan extension needs a common domain")
    x = j.cod
    weight = Distributor(
        x,
        j.dom,
        tuple(
            tuple(x.hom[j.mapping[y]][a] for a in range(len(x)))
            for y in range(len(j.dom))
        ),
    )
    return weighted_colimit(weight, f)


def right_adjoint(f: VFunctor, wa: CocompleteWitness) -> VFunctor:
    """Right adjoint of a cocontinuous f, as Lan_f(id): g(b) = sup B(f-, b).

    Raises KeyError when some B(f-, b) is not a presheaf on A.
    """
    a, b = f.dom, f.cod
    mapping = tuple(
        wa.sup_vector(tuple(b.hom[f.mapping[x]][c] for x in range(len(a))))
        for c in range(len(b))
    )
    return VFunctor(b, a, mapping)


def is_cocontinuous(f: VFunctor, wa: CocompleteWitness) -> bool:
    """f preserves all suprema, i.e. has the right adjoint g(c) = sup B(f-, c).

    A map whose B(f-, c) is no presheaf is not a V-functor, hence not
    cocontinuous.
    """
    try:
        g = right_adjoint(f, wa)
    except KeyError:
        return False
    return is_adjoint_functors(f, g)
