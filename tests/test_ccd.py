"""Complete distributivity, duals, nuclearity, and their equivalence."""

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings

import vqcat
from vqcat.ccd import (
    ccd_closure_check,
    ccd_reflector,
    check_main_theorem,
    is_ccd,
    is_nuclear,
    left_adjoint_candidates,
    totally_below,
)
from vqcat.cocomplete import check_cocomplete, is_cocontinuous
from vqcat.dist import functor_hom
from vqcat.errors import NotCCD, NotCocomplete, NotCocompleteInput, NotSeparated, SizeExceeded
from vqcat.presheaf import (
    D_on_functor,
    PresheafCategory,
    cauchy_completion,
    enumerate_presheaves,
    presheaf_hom,
    presheaf_subcategory,
    yoneda,
)
from vqcat.quantale import BUILTIN_NAMES, builtin, validate_quantale
from vqcat.tensorprod import (
    build_tensor_product,
    check_universal_property,
    galois_iso,
    reflect_vector,
    reflector_q,
    vsup_category,
)
from vqcat.textio import parse_files
from vqcat.vcat import (
    discrete,
    opposite,
    quantale_as_vcategory,
    row_object,
    validate_vcategory,
)

from categories import (
    NOT_CCD,
    ORACLE_CATEGORIES,
    diamond_m3,
    dual_category,
    identity_functor,
    left_adjoints,
    nuclear_by_carrier,
    oracle_category,
    poset,
    random_categories,
    random_sup_lattices,
    terminal_category,
    unit_and_injectivity,
)

DATA = Path(vqcat.__file__).parent / "data"


def test_quantales_are_ccd():
    for name in BUILTIN_NAMES:
        v = quantale_as_vcategory(builtin(name))
        assert is_ccd(v)


def test_totally_below_is_adjoint_to_sup(v_luk):
    w = check_cocomplete(v_luk)
    t = totally_below(w)
    # DA(t a, phi) = A(a, sup phi), elementwise
    q = v_luk.quantale
    for a in range(len(v_luk)):
        for k, phi in enumerate(w.dx.vectors):
            assert presheaf_hom(q, t.t[a], phi) == v_luk.hom[a][w.sup_index[k]]


def test_free_category_totally_below_is_D_of_yoneda(chain2):
    dx = enumerate_presheaves(chain2)
    free = dx.cat
    w = check_cocomplete(free)
    t = totally_below(w)
    y = yoneda(chain2, dx)
    dy = D_on_functor(y, dx, w.dx)
    assert t.t == tuple(w.dx.vectors[k] for k in dy.mapping)


def test_m3_not_ccd(two):
    m3 = diamond_m3(two)
    w = check_cocomplete(m3)
    with pytest.raises(NotCCD) as exc:
        totally_below(w)
    assert exc.value.obj is not None
    assert not is_ccd(m3, w)


def test_ccd_reflector_agrees_with_meet_of_majorants(chain2):
    w = check_cocomplete(chain2)
    ta = totally_below(w)
    t = build_tensor_product(chain2, chain2)
    for xi in t.dab.vectors:
        assert ccd_reflector(ta, ta, xi) == reflector_q(t, xi)


def test_dual_of_v_is_v(v_two, two):
    cat, funs = dual_category(v_two)
    assert len(cat) == 2
    # evaluation at the unit is an isomorphism with V
    evals = sorted(f.mapping[two.unit] for f in funs)
    assert evals == [0, 1]


def test_dual_of_free_is_free_on_opposite(chain2):
    dx = enumerate_presheaves(chain2)
    free = dx.cat
    cat, _ = dual_category(free)
    dop = enumerate_presheaves(opposite(chain2)).cat
    assert len(cat) == len(dop)
    # both are the free cocompletion of a 2-chain; compare hom multisets
    assert sorted(map(sorted, cat.hom)) == sorted(map(sorted, dop.hom))


def test_dual_of_terminal(one_top):
    cat, _ = dual_category(one_top)
    assert len(cat) == 1


@pytest.mark.parametrize("qname", BUILTIN_NAMES)
def test_one_object_categories_are_nuclear(qname):
    # one object: one ideal of A (x) A* and one endo sup-map
    rep = check_main_theorem(terminal_category(builtin(qname)))
    assert rep.ccd is True and rep.nuclear is True


def test_nuclear_verdicts(two, chain2):
    assert is_nuclear(quantale_as_vcategory(two))
    assert is_nuclear(chain2)
    assert not is_nuclear(diamond_m3(two))


def test_is_ccd_refuses_a_witness_for_another_category(chain2):
    # a witness only vouches for its own base: chain2's, which is ccd, must
    # not answer for M3, which is not
    chain3, m3 = oracle_category("chain3"), oracle_category("M3")
    with pytest.raises(ValueError, match="is_ccd: the witness is for another category"):
        is_ccd(m3, check_cocomplete(chain2))
    assert not is_ccd(m3, check_cocomplete(m3))
    with pytest.raises(ValueError, match="witness is for another category"):
        check_main_theorem(chain2, check_cocomplete(chain3))
    # the base is compared as a V-category: renamed objects keep the witness
    renamed = validate_vcategory(chain3.quantale, ("p", "q", "r"), chain3.hom)
    assert is_ccd(renamed, check_cocomplete(chain3))


def test_ccd_closure_check_names_a_factor_that_is_not_cocomplete():
    # the sugihara3 square lacks tensors by the top scalar: bad input named
    # by its factor, as `build_tensor_product` says, not a bare NotCocomplete
    vv = parse_files([str(DATA / "vtimesv_sugihara3.vcat")]).vcats["VV"]
    with pytest.raises(NotCocompleteInput, match="left factor is not separated cocomplete"):
        ccd_closure_check(vv, vv)


def test_count_guard_message_names_only_the_count():
    # vsup_category squares its list: the guard stops [chain5, chain5] at
    # its 70 maps (70^2 > 979 x 5), before the 70 x 70 matrix, and says no
    # more than that.  is_nuclear lists the same 70 endo sup-maps but
    # squares no list of them, so only its searches' node counts bound it
    chain5 = oracle_category("chain5")
    with pytest.raises(SizeExceeded) as exc:
        vsup_category(chain5, chain5, node_cap=979)
    assert str(exc.value) == "sup-map count exceeded 979 nodes x 5 objects: 70 maps"
    assert len(vsup_category(chain5, chain5, node_cap=980)[1]) == 70
    assert is_nuclear(chain5, node_cap=125)
    with pytest.raises(SizeExceeded, match="functor enumeration exceeded 124 nodes"):
        is_nuclear(chain5, node_cap=124)


def test_free_category_nuclear(chain2):
    free = enumerate_presheaves(chain2).cat
    assert is_nuclear(free)


@pytest.mark.parametrize("name", ORACLE_CATEGORIES + ["chain5", "chain6", "chain7", "bool3"])
def test_nuclear_matches_the_carrier_oracle(name):
    # the ideals' images against the carrier, [A, A] and the extended
    # bimorphism, and both against complete distributivity; F is fully
    # faithful exactly when it is injective
    x = oracle_category(name)
    assert is_nuclear(x) == nuclear_by_carrier(x) == is_ccd(x) == (name not in NOT_CCD)
    unit, injective = unit_and_injectivity(x)
    assert unit == injective


def luk3_lattice(*vectors):
    """The full subcategory of D(discrete abcd) over lukasiewicz3 (0 < a < 1)
    on the presheaves written like "0a10", one element per object."""
    q = builtin("lukasiewicz3")
    return presheaf_subcategory(discrete(q, "abcd"), [bytes(map(q.index, v)) for v in vectors])


# A 19-object lattice that hypothesis drew: it is ccd and nuclear, and has
# 6,590 endo sup-maps.  The oracle builds their 6,590 x 6,590 hom matrix,
# which the k^2 guard of `vsup_category` allows from a node cap of
# 6,590^2 / 19 = 2,285,690 on; at the default cap of 2,000,000 the oracle
# raised SizeExceeded where `is_nuclear` and `is_ccd` answer.  The oracle
# takes about 8 CPU seconds and 0.8 GB here (x86-64, Python 3.11).
LUK3_NINETEEN = luk3_lattice(
    "0000", "00a0", "0a00", "0aa0", "0100", "01a0", "aa00", "aaa0", "aaaa", "aa10",
    "aa1a", "a100", "a1a0", "a1aa", "a110", "a11a", "11aa", "111a", "1111",
)
ORACLE_NODE_CAP = 3_000_000


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(random_sup_lattices([builtin(n) for n in BUILTIN_NAMES]))
@example(LUK3_NINETEEN)
def test_nuclear_matches_the_carrier_oracle_on_random_sup_lattices(x):
    # separated and cocomplete by construction, and often not ccd
    assert is_nuclear(x) == nuclear_by_carrier(x, ORACLE_NODE_CAP) == is_ccd(x)
    unit, injective = unit_and_injectivity(x)
    assert unit == injective


def test_main_theorem_reports(two, chain2):
    good = check_main_theorem(chain2)
    assert good.ccd and good.nuclear and good.consistent
    bad = check_main_theorem(diamond_m3(two))
    assert not bad.ccd and not bad.nuclear and bad.consistent


def test_ccd_closure_chain2(chain2):
    assert ccd_closure_check(chain2, chain2)


def candidate_fold(dx, row):
    """The index of meet_k [row_k, psi_k] over the presheaves psi_k of D(X),
    folded one presheaf at a time: the definitional form of the candidates
    that `categories.left_adjoints` reads off the fiber meets."""
    q = dx.base.quantale
    cand = [q.top] * len(dx.base)
    for v, psi in zip(row, dx.vectors, strict=True):
        for x, w in enumerate(psi):
            cand[x] = q.meet[cand[x]][q.hom[v][w]]
    return dx.index[bytes(cand)]


def search_totally_below(wa):
    """Per object a, the first presheaf t with DA(t, psi) = A(a, sup psi) for
    every psi, or None: the per-object search over D(A), with no hom matrix."""
    a_cat, dx = wa.base, wa.dx
    q = a_cat.quantale
    return [
        next(
            (
                i
                for i, phi in enumerate(dx.vectors)
                if all(
                    presheaf_hom(q, phi, psi) == a_cat.hom[a][wa.sup_index[j]]
                    for j, psi in enumerate(dx.vectors)
                )
            ),
            None,
        )
        for a in range(len(a_cat))
    ]


def reflector_indices(t):
    """D(A (x) B) index -> carrier index, the reflector."""
    return tuple(t.reflect(xi) for xi in t.dab.vectors)


def search_reflector_left_adjoint(t, q_map):
    """Per carrier object k, the first presheaf l on A (x) B with
    D(A (x) B)(l, xi) = carrier(k, q xi) for every xi, or None."""
    q = t.ab.quantale
    vecs = t.dab.vectors
    return [
        next(
            (
                c
                for c, phi in enumerate(vecs)
                if all(
                    presheaf_hom(q, phi, xi) == t.carrier.hom[k][q_map[r]]
                    for r, xi in enumerate(vecs)
                )
            ),
            None,
        )
        for k in range(len(t.carrier))
    ]


@pytest.mark.parametrize("name", ORACLE_CATEGORIES)
def test_totally_below_row_lookup_matches_search(name):
    # t(a) exists iff sup of its one candidate is a, against the search and
    # the row lookup in D(A)'s hom matrix
    x = oracle_category(name)
    w = check_cocomplete(x)
    found = search_totally_below(w)
    rows = [bytes(x.hom[a][s] for s in w.sup_index) for a in range(len(x))]
    assert [row_object(w.dx.cat, row) for row in rows] == found
    cands = left_adjoints(w.dx, w.sup_index, x.hom)
    assert [c if w.sup_index[c] == a else None for a, c in enumerate(cands)] == found
    if None in found:
        with pytest.raises(NotCCD) as exc:
            totally_below(w)
        assert exc.value.obj == x.objects[found.index(None)]
    else:
        assert [w.dx.index[down] for down in totally_below(w).t] == found
    assert (name in NOT_CCD) == (None in found)


# M3 and N5 are left out: D(A (x) A) has 4,388 and 1,184 presheaves, and the
# search alone takes about 20 s on N5; H2 covers a missing left adjoint
@pytest.mark.parametrize("name", [n for n in ORACLE_CATEGORIES if n not in ("M3", "N5")])
def test_reflector_left_adjoint_row_lookup_matches_search(name):
    x = oracle_category(name)
    t = build_tensor_product(x, x)
    q = x.quantale
    q_map = reflector_indices(t)
    # the reflector against the meet of the majorants
    assert [t.ideal_vectors[k] for k in q_map] == [
        reflect_vector(q, t.ideal_vectors, xi) for xi in t.dab.vectors
    ]
    found = search_reflector_left_adjoint(t, q_map)
    rows = [bytes(hk[r] for r in q_map) for hk in t.carrier.hom]
    assert [row_object(t.dab.cat, row) for row in rows] == found
    cands = left_adjoints(t.dab, q_map, t.carrier.hom)
    assert [c if q_map[c] == k else None for k, c in enumerate(cands)] == found
    assert (name == "H2") == (None in found)
    if is_ccd(x):
        assert ccd_closure_check(x, x)


@pytest.mark.parametrize("name", ORACLE_CATEGORIES)
def test_presheaf_row_object_matches_matrix_lookup(name):
    # the identity of D(X) is its own left adjoint: the candidate of each hom
    # row is its object; a row one entry away belongs to no object or to its
    # candidate
    dx = enumerate_presheaves(oracle_category(name))
    dcat = dx.cat
    n = dx.base.quantale.n
    assert left_adjoints(dx, range(len(dx)), dcat.hom) == tuple(range(len(dx)))
    assert left_adjoint_candidates(dx.base, dx.index.__getitem__, dcat.hom) == dx.vectors
    for k, row in enumerate(dcat.hom):
        assert candidate_fold(dx, row) == k
        for p in range(len(row)):
            for v in range(n):
                other = row[:p] + bytes((v,)) + row[p + 1 :]
                assert row_object(dcat, other) in (None, candidate_fold(dx, other))


def sup_candidates(x):
    """`left_adjoint_candidates` for F = sup : D(x) -> x."""
    objs, colimit = range(len(x)), x.kernel.colimit
    return left_adjoint_candidates(x, lambda psi: colimit(objs, psi), x.hom)


@pytest.mark.parametrize(
    "labelling, name",
    [(f, n) for f in ("sup", "const") for n in ORACLE_CATEGORIES + ["chain5", "chain6", "bool3"]]
    + [("q", n) for n in ORACLE_CATEGORIES if n not in ("M3", "N5")],
)
def test_left_adjoints_match_candidate_fold(labelling, name):
    # the fiber meets give the per-presheaf fold's candidate for F = sup on
    # D(A), for F = the reflector on D(A (x) A), and for a constant F, whose
    # other fibers are empty; the |X|.|V| cotensor presheaves [X(y, -), v]
    # give the same candidates, vector for vector
    x = oracle_category(name)
    if labelling != "q":
        w = check_cocomplete(x)
        dx, hom = w.dx, x.hom
        labels = w.sup_index if labelling == "sup" else (0,) * len(dx)
        cands = sup_candidates(x) if labelling == "sup" else left_adjoint_candidates(
            x, lambda psi: 0, hom
        )
    else:
        t = build_tensor_product(x, x)
        dx, labels, hom = t.dab, reflector_indices(t), t.carrier.hom
        cands = left_adjoint_candidates(t.ab, t.reflect, hom)
    expected = tuple(candidate_fold(dx, tuple(hc[k] for k in labels)) for hc in hom)
    assert left_adjoints(dx, labels, hom) == expected
    assert cands == tuple(dx.vectors[i] for i in expected)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(random_categories([builtin(n) for n in BUILTIN_NAMES], max_objects=3))
def test_cotensor_candidates_for_sup_match_the_fold_on_random_categories(x):
    # 200 separated cocomplete categories: the others are filtered out
    try:
        w = check_cocomplete(x)
    except (NotSeparated, NotCocomplete):
        assume(False)
    fold = left_adjoints(w.dx, w.sup_index, x.hom)
    assert sup_candidates(x) == tuple(w.dx.vectors[i] for i in fold)


def test_cotensor_candidates_over_the_one_element_quantale():
    # there every v is top, so no cotensor presheaf is evaluated and each
    # candidate is the top presheaf
    one = validate_quantale(("0",), ((True,),), ((0,),), 0)
    x = validate_vcategory(one, ("p",), ((0,),))
    assert sup_candidates(x) == left_adjoint_candidates(x, lambda psi: 0, x.hom) == (b"\0",)
    assert is_ccd(x)


@pytest.mark.parametrize("name", ["chain6", "bool3"])
def test_ccd_closure_check_answers_past_the_presheaf_frontier(name):
    # D(chain6 (x) chain6) and D(carrier) of bool3 (x) bool3 lie past the
    # default cap; the check reads neither
    x = oracle_category(name)
    assert ccd_closure_check(x, x)


@pytest.mark.parametrize("name", ["chain3", "V-lukasiewicz3", "H2", "M3"])
def test_ccd_decisions_enumerate_no_presheaf(monkeypatch, name):
    calls = []

    def refuse(x, *args, **kwargs):
        calls.append(x)
        raise AssertionError("a presheaf category was enumerated")

    for module in list(sys.modules.values()):
        if module.__name__.startswith("vqcat") and hasattr(module, "enumerate_presheaves"):
            monkeypatch.setattr(module, "enumerate_presheaves", refuse)
    x = oracle_category(name)
    w = check_cocomplete(x)
    assert is_ccd(x) == (name not in NOT_CCD)
    if name in NOT_CCD:
        with pytest.raises(NotCCD):
            totally_below(w)
    else:
        totally_below(w)
        assert ccd_closure_check(x, x)
    assert calls == []


DECISIONS = {
    "totally_below": lambda x: is_ccd(x, check_cocomplete(x)),
    "ccd_closure_check": lambda x: ccd_closure_check(x, x),
    "cauchy_completion": lambda x: cauchy_completion(x, enumerate_presheaves(x)),
    "is_cocontinuous": lambda x: is_cocontinuous(identity_functor(x)),
    "build_tensor_product": lambda x: build_tensor_product(x, x).carrier,
}


@pytest.mark.parametrize(
    "decision, name",
    [
        (d, n)
        for d in DECISIONS
        for n in ("chain3", "V-lukasiewicz3", "H2")
        if not (d == "ccd_closure_check" and n in NOT_CCD)
    ],
)
def test_decision_builds_no_presheaf_matrix(monkeypatch, decision, name):
    def refuse(pc):
        raise AssertionError("the hom matrix of a presheaf category was built")

    x = oracle_category(name)
    monkeypatch.setattr(PresheafCategory, "cat", property(refuse))
    DECISIONS[decision](x)


def count_scalar_hom_calls(monkeypatch):
    """Rebind `presheaf_hom` and `functor_hom` in every vqcat module that
    holds them to counting wrappers; returns the list of calls made."""
    calls = []

    def counting(scalar):
        def wrapper(*args):
            calls.append(scalar.__name__)
            return scalar(*args)

        return wrapper

    for scalar in (presheaf_hom, functor_hom):
        for module in list(sys.modules.values()):
            if module.__name__.startswith("vqcat") and getattr(module, scalar.__name__, None) is scalar:
                monkeypatch.setattr(module, scalar.__name__, counting(scalar))
    return calls


@pytest.mark.parametrize("name", ["chain3", "V-lukasiewicz3", "H2"])
def test_left_adjoints_make_no_presheaf_hom_call(monkeypatch, name):
    # totally_below, the reflector and the reflector's left adjoint are one
    # candidate and one evaluation each, and the carrier's hom matrix comes
    # from the bitplane kernel
    x = oracle_category(name)
    w = check_cocomplete(x)
    t = build_tensor_product(x, x)
    calls = count_scalar_hom_calls(monkeypatch)
    if name in NOT_CCD:
        with pytest.raises(NotCCD):
            totally_below(w)
    else:
        totally_below(w)
    t.i
    reflector_indices(t)
    assert calls == []
    if name not in NOT_CCD:
        assert ccd_closure_check(x, x)
        assert calls == []


@pytest.mark.parametrize("name", ["chain3", "V-lukasiewicz3", "H2"])
def test_hom_matrices_make_no_scalar_hom_call(monkeypatch, name):
    # the carrier, the sup-map categories and the universal-property, Galois
    # and nuclearity comparisons all read their hom matrices off the kernel
    x = oracle_category(name)
    calls = count_scalar_hom_calls(monkeypatch)
    t = build_tensor_product(x, x)
    vsup_category(x, x)
    assert check_universal_property(x, x, x, t=t)
    assert galois_iso(x, x)
    assert is_nuclear(x) == (name not in NOT_CCD)
    assert calls == []


def test_node_cap_reaches_the_factors_witness():
    # check_cocomplete starts no search, but its witness enumerates D(x)
    # under the cap it was given once `dx` is read; each sup-map search
    # stops at its own cap, and vluk's least cap is 3
    x = parse_files([str(DATA / "vluk.vcat")]).vcats["V"]
    w = check_cocomplete(x, node_cap=5)
    assert w.node_cap == 5 and is_ccd(x, w)
    with pytest.raises(SizeExceeded, match="presheaf enumeration exceeded 5 nodes"):
        w.dx
    assert len(check_cocomplete(x, node_cap=16).dx) == 8
    decisions = (
        lambda cap: is_nuclear(x, node_cap=cap),
        lambda cap: check_main_theorem(x, node_cap=cap).consistent,
        lambda cap: ccd_closure_check(x, x, node_cap=cap),
    )
    for decide in decisions:
        with pytest.raises(SizeExceeded, match="functor enumeration exceeded 2 nodes"):
            decide(2)
        assert decide(3)


@pytest.mark.parametrize("cap", range(19, 30))
def test_ccd_closure_check_raises_when_the_carrier_search_is_capped(cap):
    # the carrier's one search, for the sup-maps chain4 -> chain4^op, needs
    # 34 nodes: a capped search is no verdict
    x = oracle_category("chain4")
    with pytest.raises(SizeExceeded, match=f"functor enumeration exceeded {cap} nodes"):
        ccd_closure_check(x, x, node_cap=cap)


@pytest.mark.parametrize(
    "name, nodes, least",
    [("chain3", 9, 12), ("chain4", 34, 100), ("V-lukasiewicz3", 3, 3)],
)
def test_ccd_closure_check_least_cap(name, nodes, least):
    # the carrier's sup-map search is the only search left: below `nodes`
    # its node count stops it, below `least` the guard before the carrier's
    # k x k hom matrix does (k^2 > cap x |A| for the k ideals); from
    # `least` on there is a verdict
    x = oracle_category(name)
    with pytest.raises(SizeExceeded, match=f"functor enumeration exceeded {nodes - 1} nodes"):
        ccd_closure_check(x, x, node_cap=nodes - 1)
    if nodes < least:
        with pytest.raises(SizeExceeded, match=f"sup-map count exceeded {least - 1} nodes"):
            ccd_closure_check(x, x, node_cap=least - 1)
    assert ccd_closure_check(x, x, node_cap=least)


def test_ccd_closure_on_the_frontier():
    # the chain5 (x) chain5 carrier has 70 objects and 9,304 presheaves
    chain5 = poset(tuple(f"c{i}" for i in range(5)), lambda i, j: i <= j)
    assert ccd_closure_check(chain5, chain5)


def boolean_algebra(k):
    """The subsets of a k-set under inclusion, over the Boolean quantale."""
    return poset(tuple(format(s, f"0{k}b") for s in range(1 << k)), lambda s, t: s & ~t == 0)


def chain(n):
    return poset(tuple(f"c{i}" for i in range(n)), lambda i, j: i <= j)


@pytest.mark.parametrize(
    "x", [chain(7), boolean_algebra(3), chain(9), boolean_algebra(4)],
    ids=["chain7", "bool3", "chain9", "bool4"],
)
def test_main_theorem_on_the_frontier(x):
    # chain7 (x) chain7* has 924 ideals and bool3 (x) bool3* has 512; chain9
    # has 12,870 endo sup-maps and bool4 65,536, at the default caps: no
    # list of them is squared, so no count guard stops them
    rep = check_main_theorem(x)
    assert rep.ccd is True and rep.nuclear is True


def test_main_theorem_on_bool5_fails_fast_at_the_default_cap():
    # bool5 is ccd, but it has 32^5 endo sup-maps, one per map of its 5
    # atoms: the node cap stops that search in `is_nuclear` with a typed
    # SizeExceeded, after about 0.01 s, before any list of them is built
    x = boolean_algebra(5)
    assert is_ccd(x)
    with pytest.raises(SizeExceeded, match="^functor enumeration exceeded 2000000 nodes$"):
        check_main_theorem(x)
