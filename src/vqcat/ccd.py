"""Complete distributivity and nuclearity for cocomplete V-categories.

A category is completely distributive when taking suprema has itself a left
adjoint t; t(a) is the "totally below a" presheaf.  The main cross-check is
that this property coincides with nuclearity: the canonical map from
A (x) A* into the endo-map category is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .cocomplete import CocompleteWitness, check_cocomplete, tensor_obj
from .dist import VFunctor
from .errors import NoSuchColimit, NotCCD, NotCocompleteInput
from .presheaf import DEFAULT_NODE_CAP
from .tensorprod import (
    build_tensor_product,
    extend_bimorphism,
    is_bimorphism,
    vsup_category,
)
from .vcat import VCategory, quantale_as_vcategory


@dataclass(frozen=True, eq=False)
class TotallyBelowWitness:
    witness: CocompleteWitness
    t: tuple[int, ...]  # object index -> presheaf index in D(A)

    def below(self, x: int, a: int) -> int:
        """The degree to which x is totally below a."""
        return self.witness.dx.vectors[self.t[a]][x]


def totally_below(wa: CocompleteWitness) -> TotallyBelowWitness:
    """Left adjoint of sup: t(a) = meet_psi [A(a, sup psi), psi], the one
    candidate (`PresheafCategory.left_adjoints` with F = sup), is t(a) iff
    sup t(a) = a.  Raises NotCCD with the first object that fails.
    """
    a_cat = wa.base
    t = wa.dx.left_adjoints(wa.sup_index, a_cat.hom)
    for a, down in enumerate(t):
        if wa.sup_index[down] != a:
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
    a_cat, b_cat = ta.witness.base, tb.witness.base
    q = a_cat.quantale
    nb = len(b_cat)
    out = []
    for a in range(len(a_cat)):
        for b in range(nb):
            out.append(
                q.meet_of(
                    q.hom[q.mult[ta.below(x, a)][tb.below(y, b)]][values[x * nb + y]]
                    for x in range(len(a_cat))
                    for y in range(nb)
                )
            )
    return tuple(out)


def dual_object(a: VCategory, node_cap: int = DEFAULT_NODE_CAP):
    """Sup-map category of the separated cocomplete a into V, with its own
    cocompleteness witness."""
    v = quantale_as_vcategory(a.quantale)
    cat, funs = vsup_category(a, v, node_cap)
    return cat, funs, check_cocomplete(cat, node_cap=node_cap)


def is_nuclear(
    x: VCategory,
    wa: CocompleteWitness | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> bool:
    """The pairing map of A with its dual hits every endo-sup-map exactly once.

    Builds T = A (x) A*, the endo category H, and the extension of the
    bimorphism (a, h) |-> (z |-> h(z) (x) a); nuclear iff that extension is
    an isomorphism of the carrier onto H.
    """
    if wa is None:
        wa = check_cocomplete(x, node_cap=node_cap)
    dual, funs, wdual = dual_object(x, node_cap)
    h_cat, h_funs = vsup_category(x, x, node_cap)
    h_index = {f.mapping: k for k, f in enumerate(h_funs)}
    t = build_tensor_product(x, dual, wa, wdual, node_cap=node_cap)
    if len(t.carrier) != len(h_cat):
        return False

    beta = []
    try:
        for a in range(len(x)):
            for h in funs:
                endo = tuple(
                    tensor_obj(x, h.mapping[z], a) for z in range(len(x))
                )
                if endo not in h_index:
                    return False
                beta.append(h_index[endo])
    except NoSuchColimit:
        return False
    beta_fun = VFunctor(t.ab, h_cat, tuple(beta))
    if not is_bimorphism(beta_fun, x, dual):
        return False
    try:
        big = extend_bimorphism(t, beta_fun)
    except NoSuchColimit:
        return False
    if len(set(big.mapping)) != len(h_cat):
        return False
    # row bk of H read at big.mapping; one index would make `itemgetter`
    # return the entry itself, not a 1-tuple
    if len(h_cat) > 1:
        pick = itemgetter(*big.mapping)
    else:
        def pick(row):
            return tuple(row[k] for k in big.mapping)
    return all(row == pick(h_cat.hom[bk]) for row, bk in zip(t.carrier.hom, big.mapping))


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
    if not is_ccd(t.carrier, check_cocomplete(t.carrier, node_cap=node_cap)):
        return False
    # the reflector's left adjoint at k: its one candidate must reflect to k
    candidates = t.dab.left_adjoints(t.q_mapping, t.carrier.hom)
    return all(t.q_mapping[c] == k for k, c in enumerate(candidates))
