"""The tensor product of cocomplete categories, via ideal presheaves.

The carrier of A (x)_Sup B is the full subcategory of D(A (x) B) on the
presheaves xi satisfying, for every pair of weights,

    meet_{(a,b)} [phi(a) * psi(b), xi(a,b)]  =  xi(sup phi, sup psi).

One weight representable suffices.  (i) With psi = B(-, b), so sup psi = b,
the left side is meet_a [phi(a), xi(a,b)], since xi is a presheaf: every
column xi(-, b) lies in C_A = {theta in D(A) : D(A)(phi, theta) =
theta(sup phi) for all phi}, and likewise every row xi(a, -) in C_B.
(ii) Conversely, then the left side is meet_b [psi(b), meet_a [phi(a),
xi(a,b)]] = meet_b [psi(b), xi(sup phi, b)] = xi(sup phi, sup psi).
C_A is the witness's column table `CocompleteWitness.ideal_columns`.

`build_tensor_product` does not filter D(A (x) B) with that test: by the
Galois correspondence the ideals are exactly xi(a,b) = B(b, f a) for the
sup-preserving f : A -> B^op, so it enumerates those maps instead.
`galois_iso` finds the ideals by (i)-(ii) alone, as the cross-check:
curried, a presheaf on A (x) B is a V-functor B^op -> D(A), b |-> xi(-, b),
so the ideals are the V-functors B^op -> C_A whose rows lie in C_B
(`ideals_by_columns`).  Neither enumerates D(A (x) B).

A sup-map f : A -> C is Lan_j(f j) for j : G -> A the inclusion of the
dense generators (`cocomplete.dense_generators`): f(x) is the colimit of
f j weighted by A(G, x).  So `enumerate_cocontinuous` searches the
V-functors G -> C only, extends each and keeps the left adjoints.  A
bimorphism f is fixed on G_A x G_B in the same way, f(a, b) being the
colimit of the f(g, h) weighted by A(g, a) * B(h, b), so
`check_universal_property` searches those pairs only
(`enumerate_extensions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import attrgetter

from .cocomplete import (
    CocompleteWitness,
    check_cocomplete,
    dense_generators,
    is_cocontinuous,
)
from .dist import VFunctor, functor_hom_matrix
from .errors import (
    NoSuchColimit,
    NotCocomplete,
    NotCocompleteInput,
    NotSeparated,
    QuantaleMismatch,
    SizeExceeded,
)
from .presheaf import (
    DEFAULT_NODE_CAP,
    PresheafCategory,
    apply_D,
    enumerate_presheaves,
    full_subcategory,
    presheaf_subcategory,
    search_vfunctors,
)
from .vcat import (
    VCategory,
    columns,
    opposite,
    quantale_as_vcategory,
    row_object,
    tensor_vcat,
)


def enumerate_vfunctors(dom: VCategory, cod: VCategory, node_cap: int = DEFAULT_NODE_CAP):
    """All V-functors dom -> cod, as sorted mapping tuples (`search_vfunctors`)."""
    return search_vfunctors(dom, cod, node_cap, "functor")


def enumerate_extensions(dom: VCategory, gens, cod: VCategory, node_cap: int, keep, what: str):
    """The maps f : dom -> cod that `keep` accepts among the extensions of
    the V-functors g on the full subcategory on `gens`, in mapping order.

    f is g on `gens`, and off them f(x) is the colimit of g weighted by
    dom(gens, x), read from `cod.kernel`; a g with no such colimit has no
    extension.  In a cod that is not separated every object with the
    colimit's hom row is taken.  A node is one generator's image placed
    (`enumerate_vfunctors`).  Into a separated cod each map found is one
    leaf of that search, so `node_cap` bounds the list; the twins of a cod
    that is not separated are bounded by SizeExceeded "<what> count
    exceeded" past k > node_cap * |dom| for the k maps found.  A caller
    that builds a k x k matrix of the list stops past k^2 > node_cap * |dom|.
    """
    gens = tuple(gens)
    off = tuple(sorted(set(range(len(dom))).difference(gens)))
    weights = [bytes(dom.hom[g][x] for g in gens) for x in off]
    # g + the images off gens, read in object order
    slots = gens + off
    order = sorted(range(len(slots)), key=slots.__getitem__)
    colimit = cod.kernel.colimit
    # twins[c]: the objects with the hom row of c
    classes: dict[bytes, list[int]] = {}
    for c, row in enumerate(cod.hom):
        classes.setdefault(row, []).append(c)
    twins = [classes[row] for row in cod.hom]
    separated = len(classes) == len(cod)
    bound = node_cap * len(dom)
    found = []
    for g in enumerate_vfunctors(full_subcategory(dom, gens), cod, node_cap):
        images = tuple([colimit(g, w) for w in weights])
        if None in images:
            continue
        for image in (images,) if separated else product(*map(twins.__getitem__, images)):
            f = VFunctor(dom, cod, tuple(map((g + image).__getitem__, order)))
            if keep(f):
                found.append(f)
                if len(found) > bound:
                    raise _count_exceeded(what, len(found), node_cap, dom)
    found.sort(key=attrgetter("mapping"))
    return found


def _count_exceeded(what: str, k: int, node_cap: int, dom: VCategory) -> SizeExceeded:
    return SizeExceeded(
        f"{what} count exceeded {node_cap} nodes x {len(dom)} objects: {k} maps", estimate=k
    )


def enumerate_cocontinuous(a: VCategory, cod: VCategory, node_cap: int = DEFAULT_NODE_CAP):
    """All sup-preserving V-functors a -> cod, in mapping order; a must be
    separated cocomplete.  Each is the extension of its restriction to
    `dense_generators(a)` (`enumerate_extensions`), so the search places
    images on those generators only."""
    return enumerate_extensions(
        a, dense_generators(a), cod, node_cap, is_cocontinuous, "sup-map"
    )


def vsup_category(a: VCategory, cod: VCategory, node_cap: int = DEFAULT_NODE_CAP):
    """The category of sup-preserving maps a -> cod with the functor hom; a
    must be separated cocomplete.

    Returns (category, functors); functors are in lexicographic mapping order.
    """
    funs = enumerate_cocontinuous(a, cod, node_cap)
    if len(funs) ** 2 > node_cap * len(a):  # before the k x k functor hom
        raise _count_exceeded("sup-map", len(funs), node_cap, a)
    objects = tuple(
        "[" + ",".join(cod.objects[c] for c in f.mapping) + "]" for f in funs
    )
    hom = functor_hom_matrix(cod, funs, funs)
    return VCategory(cod.quantale, objects, hom), tuple(funs)


def g_ideal_failure(wa: CocompleteWitness, wb: CocompleteWitness, xi):
    """A weight pair (phi, psi) violating the ideal equation, or None.

    xi must be a presheaf on tensor_vcat(A, B), pair (a,b) at index a*|B|+b.
    A column xi(-, b) outside C_A gives (phi, B(-, b)) for its failing phi,
    a row xi(a, -) outside C_B gives (A(-, a), psi): one weight of the pair
    is always representable (module docstring, (i)-(ii)).
    """
    a, b = wa.base, wb.base
    nb = len(b)
    for y in range(nb):
        i = wa.ideal_columns[xi[y::nb]]
        if i is not None:
            return wa.dx.vectors[i], bytes(row[y] for row in b.hom)
    for x in range(len(a)):
        j = wb.ideal_columns[xi[x * nb : (x + 1) * nb]]
        if j is not None:
            return bytes(row[x] for row in a.hom), wb.dx.vectors[j]
    return None


def is_g_ideal(wa: CocompleteWitness, wb: CocompleteWitness, xi) -> bool:
    """Whether the presheaf xi on tensor_vcat(A, B) is an ideal: every column
    in C_A and every row in C_B (`g_ideal_failure`)."""
    return g_ideal_failure(wa, wb, xi) is None


def ideals_by_columns(
    wa: CocompleteWitness, wb: CocompleteWitness, node_cap: int = DEFAULT_NODE_CAP
):
    """The ideals of A (x) B, pair (a,b) at index a*|B|+b, in lexicographic
    vector order.

    One search for the V-functors B^op -> C_A, each the columns b |-> xi(-, b)
    of a presheaf xi whose columns lie in C_A; xi is kept when its |A| rows
    lie in C_B as well (module docstring, (i)-(ii)).  A node is one column
    placed; past `node_cap` SizeExceeded says "ideal enumeration exceeded".
    """
    cols = tuple(theta for theta, fail in wa.ideal_columns.items() if fail is None)
    na = len(wa.base)
    c_a = presheaf_subcategory(wa.base, cols)
    ideals = []
    for m in search_vfunctors(opposite(wb.base), c_a, node_cap, "ideal"):
        rows = columns(map(cols.__getitem__, m), na)  # the rows xi(a, -)
        if all(wb.ideal_columns[row] is None for row in rows):
            ideals.append(b"".join(rows))
    return tuple(sorted(ideals))


@dataclass(frozen=True, eq=False)
class TensorProduct:
    """The carrier of A (x) B with its reflector and universal bimorphism.

    Only the carrier, the full subcategory of D(A (x) B) on the ideals, is
    built eagerly.  D(A (x) B) (`dab`) and the bimorphism `i` are computed
    on first access and cached.  Reading `dab` enumerates D(A (x) B) under
    `node_cap` and may raise SizeExceeded; it does not build the hom matrix
    `dab.cat`.
    """

    wa: CocompleteWitness
    wb: CocompleteWitness
    ab: VCategory  # tensor_vcat(A, B)
    ideal_vectors: tuple[bytes, ...]  # carrier index -> ideal on A (x) B
    carrier: VCategory
    node_cap: int  # for dab

    def reflect(self, values) -> int:
        """Carrier index of q xi, the colimit of `i` weighted by xi:
        carrier(q xi, k) = meet_p [xi(p), xi_k(p)], xi_k(p) = carrier(i p, k).
        No such object means no left adjoint.
        """
        k = self.carrier.kernel.colimit(self.i.mapping, values)
        if k is None:
            raise AssertionError("reflector is not left adjoint to inclusion")
        return k

    @cached_property
    def i(self) -> VFunctor:
        """The universal bimorphism p |-> q(y p), by Yoneda the object whose
        hom row is column p of the ideals: carrier(q(y p), k) = xi_k(p)."""
        cols = columns(self.ideal_vectors, len(self.ab))
        mapping = tuple(row_object(self.carrier, col) for col in cols)
        if None in mapping:
            raise AssertionError("reflector is not left adjoint to inclusion")
        return VFunctor(self.ab, self.carrier, mapping)

    @cached_property
    def dab(self) -> PresheafCategory:
        """D(A (x) B), enumerated under `node_cap`."""
        return enumerate_presheaves(self.ab, self.node_cap)


def _witness_for(x: VCategory, name: str, node_cap: int) -> CocompleteWitness:
    try:
        return check_cocomplete(x, node_cap=node_cap)
    except (NotSeparated, NotCocomplete) as exc:
        raise NotCocompleteInput(f"{name} is not separated cocomplete: {exc}") from exc


def reflect_vector(q, ideal_vectors, values):
    """Least ideal vector above `values`: pointwise meet of the majorants.

    The definitional reflector, kept as the oracle for `TensorProduct.reflect`.
    """
    acc = None
    for xi in ideal_vectors:
        if all(q.leq[v][w] for v, w in zip(values, xi)):
            if acc is None:
                acc = list(xi)
            else:
                for p, w in enumerate(xi):
                    acc[p] = q.meet[acc[p]][w]
    if acc is None:
        raise ValueError("no ideal above the given presheaf")
    return bytes(acc)


def _galois_images(a: VCategory, b: VCategory, node_cap: int):
    """The image xi_f(x, y) = B(y, f x) of each sup-map f : A -> B^op, as a
    vector in pair order: the rows B^op(f x, -) joined."""
    bop = opposite(b)
    return [
        b"".join(map(bop.hom.__getitem__, f.mapping))
        for f in enumerate_cocontinuous(a, bop, node_cap)
    ]


def build_tensor_product(
    a: VCategory, b: VCategory, *, node_cap: int = DEFAULT_NODE_CAP
) -> TensorProduct:
    """Construct the tensor of two separated cocomplete categories.

    The ideals are the images xi(x,y) = B(y, f x) of the sup-preserving maps
    f : A -> B^op (the Galois correspondence), in lexicographic vector order.
    D(A (x) B) is not enumerated here; see `TensorProduct`.  A factor that
    is not separated cocomplete raises NotCocompleteInput.
    """
    wa = _witness_for(a, "left factor", node_cap)
    wb = _witness_for(b, "right factor", node_cap)
    ab = tensor_vcat(a, b)
    ideal_vectors = tuple(sorted(_galois_images(a, b, node_cap)))
    if len(ideal_vectors) ** 2 > node_cap * len(a):  # before the k x k carrier
        raise _count_exceeded("sup-map", len(ideal_vectors), node_cap, a)
    carrier = presheaf_subcategory(ab, ideal_vectors)
    return TensorProduct(wa, wb, ab, ideal_vectors, carrier, node_cap)


def reflector_q(t: TensorProduct, values):
    """Least ideal above a presheaf on A (x) B, as a value vector."""
    return t.ideal_vectors[t.reflect(values)]


def is_bimorphism(f: VFunctor, a: VCategory, b: VCategory) -> bool:
    """Cocontinuity in each variable separately, the other one frozen; f is
    a map out of tensor_vcat(a, b), a and b separated cocomplete."""
    nb = len(b)
    for y in range(nb):
        if not is_cocontinuous(VFunctor(a, f.cod, f.mapping[y::nb])):
            return False
    for x in range(len(a)):
        if not is_cocontinuous(VFunctor(b, f.cod, f.mapping[x * nb : (x + 1) * nb])):
            return False
    return True


def enumerate_bimorphisms(
    a: VCategory, b: VCategory, cod: VCategory, node_cap: int = DEFAULT_NODE_CAP
):
    """All bimorphisms tensor_vcat(a, b) -> cod, in mapping order; a and b
    separated cocomplete.  Each is the extension of its restriction to the
    pairs of dense generators (`enumerate_extensions`), so the search
    places images on those pairs only."""
    nb = len(b)
    pairs = [x * nb + y for x in dense_generators(a) for y in dense_generators(b)]
    return enumerate_extensions(
        tensor_vcat(a, b), pairs, cod, node_cap, lambda f: is_bimorphism(f, a, b), "bimorphism"
    )


def extend_bimorphism(t: TensorProduct, g: VFunctor) -> VFunctor:
    """The sup-preserving map on the carrier restricting to g along i.

    f(xi) = sup_C g_* xi: the colimit of g weighted by the ideal xi, one
    kernel colimit per ideal; NoSuchColimit if one does not exist.
    """
    colimit = g.cod.kernel.colimit
    mapping = tuple(colimit(g.mapping, xi) for xi in t.ideal_vectors)
    if None in mapping:
        k = mapping.index(None)
        raise NoSuchColimit(
            "weighted colimit does not exist",
            weight={"kind": "weighted", "x": k, "theta": apply_D(g, t.ideal_vectors[k])},
        )
    return VFunctor(t.carrier, g.cod, mapping)


def check_universal_property(
    a: VCategory,
    b: VCategory,
    c: VCategory,
    t: TensorProduct | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> bool:
    """Restriction along i and extension are inverse hom-preserving bijections
    between sup-preserving maps on the carrier and two-variable bimorphisms.

    The carrier, a tensor of separated cocomplete factors, is itself
    separated cocomplete, so its sup-maps are enumerated without D(carrier).
    Only the bijection is checked: h = ext g and h' = ext g' with h' i = g'
    preserve the hom by density.  Restriction along i gives [h, h'] <= [g, g'].
    Conversely C(h xi, h' xi) = meet_p [xi(p), C(g p, h' xi)], h xi being
    the colimit of g weighted by xi, and xi(p) = carrier(i p, xi) <=
    C(g' p, h' xi) as h' is a V-functor, so each term is at least
    C(g p, g' p).  A `t` built from other factors raises ValueError.
    """
    if c.quantale != a.quantale:
        raise QuantaleMismatch("test codomain is over another quantale than the factors")
    if t is None:
        t = build_tensor_product(a, b, node_cap=node_cap)
    elif t.wa.base != a or t.wb.base != b:
        raise ValueError("check_universal_property: t is the tensor of other factors")
    _witness_for(c, "test codomain", node_cap)
    bimorphs = enumerate_bimorphisms(a, b, c, node_cap)
    cocont = {f.mapping for f in enumerate_cocontinuous(t.carrier, c, node_cap)}
    if len(bimorphs) != len(cocont):
        return False
    extensions = [extend_bimorphism(t, g) for g in bimorphs]
    # as many extensions as sup-maps, so set equality makes them distinct
    if {h.mapping for h in extensions} != cocont:
        return False
    return all(
        tuple(h.mapping[k] for k in t.i.mapping) == g.mapping
        for g, h in zip(bimorphs, extensions)
    )


def galois_iso(a: VCategory, b: VCategory, *, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """The carrier is the opposite of the sup-map category into B-opposite.

    The ideals come from the ideal equation alone (`ideals_by_columns`), not
    from the sup-maps and without enumerating D(A (x) B).  The answer is
    whether f |-> xi_f(a,b) = B(b, f a) maps the sup-maps onto them; the rest
    is Yoneda, B being separated.  The row xi_f(a, -) = B(-, f a) has
    colimit f a, so f |-> xi_f is injective with inverse f(a) = colim_B
    xi(a, -), and carrier(xi_f, xi_g) = meet_(a,b) [B(b, f a), B(b, g a)] =
    meet_a B(f a, g a) = [A, B^op](g, f) for any two maps.  A (x) A checks
    A once and builds D(A) and its column table once.
    """
    wa = _witness_for(a, "left factor", node_cap)
    wb = wa if b == a else _witness_for(b, "right factor", node_cap)
    return set(_galois_images(a, b, node_cap)) == set(ideals_by_columns(wa, wb, node_cap))


def star_autonomy_check(a: VCategory, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Double dualization into V-opposite is inverted by evaluation.

    A* = sup-maps(A, V^op); evaluation a |-> (g |-> g a) must be an
    isomorphism of A onto A**.  A* is separated cocomplete like every
    sup-map category into V^op, so only A itself is checked.
    """
    _witness_for(a, "category", node_cap)
    vop = opposite(quantale_as_vcategory(a.quantale))
    a1, f1 = vsup_category(a, vop, node_cap)
    a2, f2 = vsup_category(a1, vop, node_cap)
    index2 = {g.mapping: k for k, g in enumerate(f2)}
    if len(a2) != len(a):
        return False
    ev = []
    for x in range(len(a)):
        m = tuple(g.mapping[x] for g in f1)
        if m not in index2:
            return False
        ev.append(index2[m])
    return len(set(ev)) == len(a) and a.hom == full_subcategory(a2, ev).hom
