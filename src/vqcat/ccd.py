"""Complete distributivity and nuclearity for cocomplete V-categories.

A category is completely distributive when taking suprema has itself a left
adjoint t; t(a) is the "totally below a" presheaf, decided like every left
adjoint out of D(X) without enumerating D(X) (`left_adjoint_candidates`).
The main cross-check is that this property coincides with nuclearity: the
canonical map F from A (x) A* into the endo sup-maps [A, A] is an
isomorphism.  `is_nuclear` decides that from the images under F of the
ideals of A (x) A*, one per sup-map A -> A*^op, so it builds neither the
carrier nor a hom matrix of it or of [A, A].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cocomplete import CocompleteWitness, check_cocomplete
from .errors import NotCCD, NotCocompleteInput
from .kernel import hom_matrix
from .presheaf import DEFAULT_NODE_CAP
from .tensorprod import build_tensor_product, enumerate_cocontinuous, vsup_category
from .vcat import VCategory, opposite, quantale_as_vcategory


def left_adjoint_candidates(x: VCategory, f, hom) -> tuple[tuple[int, ...], ...]:
    """The one candidate l_c = meet_psi [C(c, F psi), psi] for a left
    adjoint of F : D(x) -> C at each object c, as a presheaf vector; `f`
    maps a presheaf vector to the index of F psi, `hom` is C's hom matrix.
    At y only psi_{y,v} = [X(y, -), v] matter, as psi <= psi_{y, psi(y)} and
    psi_{y,v}(y) <= v: l_c(y) = meet_v [C(c, F psi_{y,v}), v], that is
    meet_k [C(c, k), M_k(y)] with M_k(y) the meet of the v with
    F psi_{y,v} = k.  If F G = 1 for a right adjoint G (sup, the
    reflector), F has a left adjoint at c iff F l_c = c.
    """
    q, m = x.quantale, len(x)
    meets: dict[int, list[int]] = {}
    for v in range(q.n):
        if v == q.top:
            continue  # [u, top] = top: nothing to meet
        into_v = [res[v] for res in q.hom]  # u |-> [u, v]
        for y, row in enumerate(x.hom):
            k = f(tuple(map(into_v.__getitem__, row)))
            at = meets.setdefault(k, [q.top] * m)
            at[y] = q.meet[at[y]][v]
    ks = tuple(meets)
    rows = (tuple(map(row.__getitem__, ks)) for row in hom)
    return hom_matrix(q, rows, [tuple(meets[k][y] for k in ks) for y in range(m)])


@dataclass(frozen=True, eq=False)
class TotallyBelowWitness:
    witness: CocompleteWitness
    t: tuple[tuple[int, ...], ...]  # t[a][x]: the degree to which x is totally below a


def totally_below(wa: CocompleteWitness) -> TotallyBelowWitness:
    """Left adjoint of sup: its one candidate t(a) (`left_adjoint_candidates`
    with F = sup) is t(a) iff sup t(a) = a.  Raises NotCCD with the first
    object that fails.  Reads no presheaf of D(A).
    """
    a_cat = wa.base
    objs, colimit = range(len(a_cat)), a_cat.kernel.colimit
    t = left_adjoint_candidates(a_cat, lambda psi: colimit(objs, psi), a_cat.hom)
    for a, down in enumerate(t):
        if colimit(objs, down) != a:
            raise NotCCD("no totally-below presheaf", obj=a_cat.objects[a])
    return TotallyBelowWitness(wa, t)


def is_ccd(x: VCategory, wa: CocompleteWitness | None = None) -> bool:
    if wa is None:
        wa = check_cocomplete(x)
    try:
        totally_below(wa)
    except NotCCD:
        return False
    return True


def ccd_reflector(ta: TotallyBelowWitness, tb: TotallyBelowWitness, values):
    """Closed-form least ideal above a presheaf on A (x) B.

    q(xi)(a,b) = meet_{(x,y)} [tb_A(x,a) * tb_B(y,b), xi(x,y)], where tb is
    the totally-below degree.  Agrees with the meet-of-majorants reflector.
    """
    q = ta.witness.base.quantale
    return tuple(
        q.meet_of(q.hom[q.mult[u][w]][v] for (u, w), v in zip(product(down_a, down_b), values))
        for down_a in ta.t
        for down_b in tb.t
    )


def is_nuclear(
    x: VCategory,
    wa: CocompleteWitness | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> bool:
    """A is nuclear iff F : A (x) A* -> [A, A], the extension of the pairing
    bimorphism (a, h) |-> (z |-> h(z) (x) a), is an isomorphism onto the
    endo sup-maps.

    The carrier's objects are the ideals zeta_f(a, h) = A*(h, f a) of the
    sup-maps f : A -> A*^op (Galois correspondence), and by Yoneda
    F zeta_f(z) = colim_a (f a)(z) (x) a, one kernel colimit per z.  F is a
    sup-map between separated cocomplete categories, so a bijective F is an
    isomorphism: v (x) F u <= F w gives F((v (x) u) v w) = F w, hence
    (v (x) u) v w = w, that is v (x) u <= w.  So A is nuclear iff
    f |-> F zeta_f hits every endo sup-map exactly once.

    `wa` only vouches that x is separated cocomplete: without it x is checked
    under `node_cap`, and a witness for another category raises ValueError.
    """
    if wa is None:
        check_cocomplete(x, node_cap=node_cap)
    elif wa.base != x:
        raise ValueError("is_nuclear: the witness is for another category")
    objs, colimit = range(len(x)), x.kernel.colimit
    dual, funs = vsup_category(x, quantale_as_vcategory(x.quantale), node_cap)
    endos = [f.mapping for f in enumerate_cocontinuous(x, x, node_cap)]
    maps = enumerate_cocontinuous(x, opposite(dual), node_cap)
    # column z of the (f a)(z) is the weight of F zeta_f(z); the endo
    # sup-maps come in mapping order, so equal sorted lists are a bijection
    return endos == sorted(
        tuple(colimit(objs, col) for col in zip(*(funs[k].mapping for k in f.mapping)))
        for f in maps
    )


@dataclass(frozen=True)
class TheoremReport:
    ccd: bool
    nuclear: bool

    @property
    def consistent(self) -> bool:
        return self.ccd == self.nuclear


def check_main_theorem(
    x: VCategory,
    wa: CocompleteWitness | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> TheoremReport:
    """Run the two decision procedures independently and compare verdicts."""
    if wa is None:
        wa = check_cocomplete(x, node_cap=node_cap)
    return TheoremReport(ccd=is_ccd(x, wa), nuclear=is_nuclear(x, wa, node_cap))


def ccd_closure_check(
    a: VCategory,
    b: VCategory,
    wa: CocompleteWitness | None = None,
    wb: CocompleteWitness | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> bool:
    """Tensors of completely distributive categories stay completely
    distributive, and the reflector q acquires its own left adjoint."""
    if wa is None:
        wa = check_cocomplete(a, node_cap=node_cap)
    if wb is None:
        wb = check_cocomplete(b, node_cap=node_cap)
    if not (is_ccd(a, wa) and is_ccd(b, wb)):
        raise NotCocompleteInput("closure check expects completely distributive factors")
    t = build_tensor_product(a, b, wa, wb, node_cap=node_cap)
    # the carrier is separated cocomplete by construction, so it is not checked
    if not is_ccd(t.carrier, CocompleteWitness(t.carrier, node_cap)):
        return False
    # the reflector's left adjoint at k: its one candidate must reflect to k
    candidates = left_adjoint_candidates(t.ab, t.reflect, t.carrier.hom)
    return all(t.reflect(c) == k for k, c in enumerate(candidates))
