"""The tensor of cocomplete categories: ideals, reflector, universal maps."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vqcat import cocomplete, tensorprod
from vqcat.cocomplete import (
    check_cocomplete,
    dense_generators,
    has_tensors_and_joins,
    is_cocontinuous,
    join_obj,
    tensor_obj,
)
from vqcat.dist import VFunctor, functor_hom, functor_hom_matrix
from vqcat.errors import (
    NotCocomplete,
    NotCocompleteInput,
    NotSeparated,
    QuantaleMismatch,
    SizeExceeded,
)
from vqcat.kernel import hom_matrix
from vqcat.presheaf import (
    DEFAULT_NODE_CAP,
    PresheafCategory,
    apply_D,
    enumerate_presheaves,
    search_vfunctors,
)
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.tensorprod import (
    build_tensor_product,
    check_universal_property,
    enumerate_bimorphisms,
    enumerate_cocontinuous,
    enumerate_extensions,
    enumerate_vfunctors,
    extend_bimorphism,
    galois_iso,
    g_ideal_failure,
    ideals_by_columns,
    is_bimorphism,
    is_g_ideal,
    reflect_vector,
    reflector_q,
    star_autonomy_check,
    vsup_category,
)
from vqcat.vcat import (
    opposite,
    quantale_as_vcategory,
    tensor_vcat,
    validate_vcategory,
)

from categories import (
    ORACLE_CATEGORIES,
    dual_category,
    heyting,
    is_separated,
    lukasiewicz,
    oracle_category,
    poset,
    random_categories,
    random_sup_lattices,
)


def d2_vector(q, phi, psi):
    """(phi(a) * psi(b)), pair (a,b) at index a*|B|+b."""
    return tuple(q.mult[v][w] for v in phi for w in psi)


def ideal_equation(wa, wb, xi, phi, psi):
    """Both sides of the ideal equation at one weight pair, by its formula:
    (meet_{(a,b)} [phi(a) * psi(b), xi(a,b)], xi(sup phi, sup psi))."""
    q = wa.base.quantale
    nb = len(wb.base)
    lhs = q.meet_of(
        q.hom[q.mult[phi[a]][psi[b]]][xi[a * nb + b]]
        for a in range(len(wa.base))
        for b in range(nb)
    )
    a = wa.sup_index[wa.dx.index[phi]]
    return lhs, xi[a * nb + wb.sup_index[wb.dx.index[psi]]]


def naive_is_g_ideal(wa, wb, xi):
    """The double loop over all weight pairs, no early exit."""
    ok = True
    for phi in wa.dx.vectors:
        for psi in wb.dx.vectors:
            lhs, rhs = ideal_equation(wa, wb, xi, phi, psi)
            ok = ok and lhs == rhs
    return ok


def iso_categories(x, y):
    if len(x) != len(y) or x.quantale != y.quantale:
        return False
    for perm in itertools.permutations(range(len(x))):
        if all(
            x.hom[i][j] == y.hom[perm[i]][perm[j]]
            for i in range(len(x))
            for j in range(len(x))
        ):
            return True
    return False


def lattice(two, below):
    """A finite lattice over the Boolean quantale: hom is 1 on the diagonal
    and on `below`, a transitively closed set of strict-order pairs."""
    n = 1 + max(j for _, j in below)
    return validate_vcategory(
        two,
        tuple(f"e{i}" for i in range(n)),
        tuple(
            tuple(int(i == j or (i, j) in below) for j in range(n)) for i in range(n)
        ),
    )


@pytest.fixture(scope="module")
def m3(two):
    return lattice(two, {(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)})


@pytest.fixture(scope="module")
def factors(two, chain2, m3, v_luk):
    return {
        "chain2": chain2,
        "chain3": lattice(two, {(0, 1), (0, 2), (1, 2)}),
        # the pentagon: 0 < 1 < 2 < 4 and 0 < 3 < 4
        "N5": lattice(
            two, {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
        ),
        "M3": m3,
        "V-luk3": v_luk,
    }


@pytest.fixture(scope="module")
def t_chain2(chain2):
    return build_tensor_product(chain2, chain2)


def test_g_ideal_matches_naive_oracle(chain2, t_chain2):
    t = t_chain2
    for xi in t.dab.vectors:
        assert is_g_ideal(t.wa, t.wb, xi) == naive_is_g_ideal(t.wa, t.wb, xi)


def _tensor(factors, name, partner):
    """A (x) A or A (x) A*."""
    x = factors[name]
    return build_tensor_product(x, x if partner == "self" else dual_category(x)[0])


@pytest.mark.parametrize("partner", ["self", "dual"])
@pytest.mark.parametrize("name", ["chain2", "chain3", "N5", "M3", "V-luk3"])
def test_galois_carrier_matches_definitional_filter(factors, name, partner):
    # the carrier comes from sup-maps A -> B^op and the reflector from row
    # lookup; both must agree with the filter over D(A (x) B) and the
    # meet of majorants.  The filter by the ideal equation at every weight
    # pair is the oracle, except on M3 (x) M3: 4,388 presheaves.
    t = _tensor(factors, name, partner)
    ideals = tuple(xi for xi in t.dab.vectors if is_g_ideal(t.wa, t.wb, xi))
    assert t.ideal_vectors == ideals
    if name != "M3":
        assert ideals == tuple(
            xi for xi in t.dab.vectors if naive_is_g_ideal(t.wa, t.wb, xi)
        )
    q = t.ab.quantale
    assert tuple(reflector_q(t, xi) for xi in t.dab.vectors) == tuple(
        reflect_vector(q, ideals, xi) for xi in t.dab.vectors
    )


@settings(max_examples=100, deadline=None)
@given(random_categories([builtin(n) for n in BUILTIN_NAMES], max_objects=3))
def test_g_ideal_matches_naive_oracle_on_random_categories(a):
    # every presheaf of D(A (x) A) and D(A (x) A^op), A separated cocomplete
    cap = 3_000
    try:
        wa = check_cocomplete(a, node_cap=cap)
        b = opposite(a)
        pairs = [(a, wa), (b, check_cocomplete(b, node_cap=cap))]
        dabs = [enumerate_presheaves(tensor_vcat(a, y), cap) for y, _ in pairs]
    except (NotSeparated, NotCocomplete, SizeExceeded):
        assume(False)
    for (_, wb), dab in zip(pairs, dabs):
        for xi in dab.vectors:
            assert is_g_ideal(wa, wb, xi) == naive_is_g_ideal(wa, wb, xi)


def _oracle_pair(name, partner):
    """An ORACLE_CATEGORIES entry with itself or with its dual, witnessed."""
    x = oracle_category(name)
    y = x if partner == "self" else dual_category(x)[0]
    return x, check_cocomplete(x), y, check_cocomplete(y)


@pytest.mark.parametrize("partner", ["self", "dual"])
@pytest.mark.parametrize("name", ORACLE_CATEGORIES)
def test_ideals_by_columns_match_galois_carrier(name, partner):
    # the column search uses only the ideal equation, the carrier only the
    # sup-maps A -> B^op: the two characterizations give one ideal list
    x, wx, y, wy = _oracle_pair(name, partner)
    ideals = ideals_by_columns(wx, wy)
    assert list(ideals) == sorted(ideals)
    assert ideals == build_tensor_product(x, y).ideal_vectors


@pytest.mark.parametrize("partner", ["self", "dual"])
@pytest.mark.parametrize("name", [n for n in ORACLE_CATEGORIES if n != "M3"])
def test_ideals_by_columns_match_naive_filter(name, partner):
    # the definitional filter of D(A (x) B) at every weight pair; M3 (x) M3
    # (4,388 presheaves) is left to test_galois_carrier_matches_definitional_filter
    x, wx, y, wy = _oracle_pair(name, partner)
    dab = enumerate_presheaves(tensor_vcat(x, y))
    assert ideals_by_columns(wx, wy) == tuple(
        xi for xi in dab.vectors if naive_is_g_ideal(wx, wy, xi)
    )


@settings(max_examples=100, deadline=None)
@given(random_categories([builtin(n) for n in BUILTIN_NAMES], max_objects=3))
def test_ideals_by_columns_match_naive_oracle_on_random_categories(a):
    # the ideals of A (x) A and A (x) A^op, A separated cocomplete
    cap = 3_000
    try:
        wa = check_cocomplete(a, node_cap=cap)
        b = opposite(a)
        pairs = [(a, wa), (b, check_cocomplete(b, node_cap=cap))]
        dabs = [enumerate_presheaves(tensor_vcat(a, y), cap) for y, _ in pairs]
    except (NotSeparated, NotCocomplete, SizeExceeded):
        assume(False)
    for (_, wb), dab in zip(pairs, dabs):
        assert ideals_by_columns(wa, wb, cap) == tuple(
            xi for xi in dab.vectors if naive_is_g_ideal(wa, wb, xi)
        )


IDEAL_NODES_M3_M3 = 383


def test_ideal_node_count_is_pinned(m3):
    # one node per column placed; the least cap that finds the 50 ideals
    w = check_cocomplete(m3)
    assert len(ideals_by_columns(w, w, IDEAL_NODES_M3_M3)) == 50
    with pytest.raises(
        SizeExceeded, match=f"ideal enumeration exceeded {IDEAL_NODES_M3_M3 - 1} nodes"
    ):
        ideals_by_columns(w, w, IDEAL_NODES_M3_M3 - 1)


def test_galois_enumerates_no_tensor_presheaves(m3, enumerated):
    # the ideals come from the column search, never from D(A (x) B); A (x) A
    # enumerates D(A) once, A (x) B both factors
    assert galois_iso(m3, m3)
    assert enumerated == [m3]
    n5 = oracle_category("N5")
    assert galois_iso(m3, n5)
    assert enumerated == [m3, m3, n5]


def _bool3():
    return poset(tuple(f"s{i}" for i in range(8)), lambda i, j: i & j == i)


@pytest.mark.parametrize(
    "make",
    [_bool3, lambda: quantale_as_vcategory(lukasiewicz(6))],
    ids=["bool3", "V-luk6"],
)
def test_galois_past_the_tensor_presheaves(make):
    # D(bool3 (x) bool3) has 7.8 M presheaves, the Dedekind number M(6)
    x = make()
    assert galois_iso(x, x)


def test_galois_iso_calls_no_tensor_or_join(m3, monkeypatch):
    # galois_iso calls neither tensor_obj nor join_obj: it computes no back
    # map f(a) = colim_B xi(a, -), which Yoneda makes f(a) (the test below)
    def refuse(*args):
        raise AssertionError("tensor_obj or join_obj called")

    for owner in (cocomplete, tensorprod):
        for name in ("tensor_obj", "join_obj"):
            monkeypatch.setattr(owner, name, refuse, raising=False)
    assert galois_iso(m3, m3)
    assert galois_iso(_bool3(), _bool3())


@pytest.mark.parametrize("name", ["V-lukasiewicz3", "V-powerset_z2", "chain3", "M3", "H2"])
def test_galois_back_map_is_the_join_of_tensors(name):
    # the colimit of B weighted by xi(a, -) = B(-, f a) is the join of the
    # tensors xi(a, b) (x) b, and it is f(a) on a separated cocomplete B:
    # the oracle for the back map that galois_iso leaves to Yoneda
    a = b = oracle_category(name)
    nb = len(b)
    for f in enumerate_cocontinuous(a, opposite(b)):
        for x in range(len(a)):
            row = [b.hom[y][f.mapping[x]] for y in range(nb)]
            joined = join_obj(b, [tensor_obj(b, row[y], y) for y in range(nb)])
            assert b.kernel.colimit(range(nb), row) == joined == f.mapping[x]


SEARCH_ENTRY_POINTS = {
    "search_vfunctors": lambda a, b: search_vfunctors(a, b, 1_000, "functor"),
    "enumerate_vfunctors": enumerate_vfunctors,
    "enumerate_cocontinuous": enumerate_cocontinuous,
    "vsup_category": vsup_category,
    "galois_iso": galois_iso,
}


@pytest.mark.parametrize("swap", [False, True], ids=["two-luk3", "luk3-two"])
@pytest.mark.parametrize("entry", SEARCH_ENTRY_POINTS)
def test_search_rejects_factors_over_different_quantales(entry, swap):
    a, b = oracle_category("V-two"), oracle_category("V-lukasiewicz3")
    if swap:
        a, b = b, a
    with pytest.raises(QuantaleMismatch, match="different quantales"):
        SEARCH_ENTRY_POINTS[entry](a, b)


def _chain(n):
    return poset([f"x{i}" for i in range(n)], lambda i, j: i <= j)


BENCHMARK_FACTORS = {
    "chain2": lambda: _chain(2),
    "chain3": lambda: _chain(3),
    "chain5": lambda: _chain(5),
    "chain6": lambda: _chain(6),
    "N5": lambda: oracle_category("N5"),
    "M3": lambda: oracle_category("M3"),
    "V-luk4": lambda: quantale_as_vcategory(lukasiewicz(4)),
    "V-heyt5": lambda: quantale_as_vcategory(heyting(5)),
}


@pytest.mark.parametrize(
    "name, partner",
    [
        *((n, "dual") for n in ("chain3", "chain5", "chain6", "N5", "M3", "V-luk4", "V-heyt5")),
        *((n, "self") for n in ("chain2", "chain3", "M3", "V-luk4")),
    ],
)
def test_benchmark_tensors_have_only_ideals(name, partner):
    # build_tensor_product trusts the Galois correspondence; every tensor the
    # benchmark builds (A (x) A* in the theorem, A (x) A in the universal
    # property and the shipped files) is checked against the ideal equation,
    # and its carrier, whose sup-maps are enumerated without a witness, is
    # checked separated cocomplete.  D(carrier) is out of reach from chain5
    # (x) chain5* on, so the check is the production one by tensors and
    # binary joins, without the D(carrier) that `check_cocomplete` lists.
    x = BENCHMARK_FACTORS[name]()
    y = x if partner == "self" else dual_category(x)[0]
    t = build_tensor_product(x, y)
    assert all(is_g_ideal(t.wa, t.wb, xi) for xi in t.ideal_vectors)
    assert is_separated(t.carrier) and has_tensors_and_joins(t.carrier)


@pytest.fixture
def enumerated(monkeypatch):
    """The base of every presheaf enumeration made from here on."""
    bases = []

    def counting(x, *args, **kwargs):
        bases.append(x)
        return enumerate_presheaves(x, *args, **kwargs)

    for mod in (tensorprod, cocomplete):
        monkeypatch.setattr(mod, "enumerate_presheaves", counting)
    return bases


def test_build_enumerates_no_presheaves(m3, enumerated):
    t = build_tensor_product(m3, m3, node_cap=10_000)
    assert len(t.carrier) == 50
    assert is_bimorphism(t.i, m3, m3)
    assert enumerated == []
    # D(A (x) B) is enumerated only when dab is read, and is size-guarded
    with pytest.raises(SizeExceeded, match="presheaf enumeration exceeded 10000 nodes"):
        t.dab
    assert enumerated == [t.ab]


def test_sup_map_checks_enumerate_only_their_inputs(chain2, v_two, enumerated):
    # the sup-maps out of the carrier and out of A* are found without
    # D(carrier) or D(A*), and the factors, the test codomain and A are
    # checked separated cocomplete by tensors and joins: nothing is enumerated
    assert check_universal_property(chain2, chain2, v_two)
    assert enumerated == []
    assert star_autonomy_check(v_two)
    assert enumerated == []


def test_chain2_square_has_two_ideals(chain2, t_chain2):
    assert len(t_chain2.carrier) == 2
    assert iso_categories(t_chain2.carrier, chain2)


def test_ideal_border_is_top(t_chain2):
    # an empty-support weight pair forces xi to be top on the bottom slices
    top = t_chain2.ab.quantale.top
    nb = len(t_chain2.wb.base)
    for k in range(len(t_chain2.carrier)):
        xi = t_chain2.ideal_vectors[k]
        for b in range(nb):
            assert xi[0 * nb + b] == top  # (bottom of A, b)
        for a in range(len(t_chain2.wa.base)):
            assert xi[a * nb + 0] == top  # (a, bottom of B)


def test_i_images_are_ideals(t_chain2):
    for p in range(len(t_chain2.ab)):
        k = t_chain2.i.mapping[p]
        assert is_g_ideal(t_chain2.wa, t_chain2.wb, t_chain2.ideal_vectors[k])


def test_g_ideal_failure_reports_pair(factors):
    # None exactly on the ideals; on every other presheaf a pair that breaks
    # the equation as the formula computes it, one weight representable
    for name in ("chain2", "chain3", "N5", "V-luk3"):
        for partner in ("self", "dual"):
            t = _tensor(factors, name, partner)
            a, b = t.wa.base, t.wb.base
            reps_a = {bytes(row[x] for row in a.hom) for x in range(len(a))}
            reps_b = {bytes(row[y] for row in b.hom) for y in range(len(b))}
            ideals = set(t.ideal_vectors)
            for xi in t.dab.vectors:
                fail = g_ideal_failure(t.wa, t.wb, xi)
                assert (fail is None) == (xi in ideals)
                if fail is not None:
                    phi, psi = fail
                    lhs, rhs = ideal_equation(t.wa, t.wb, xi, phi, psi)
                    assert lhs != rhs
                    assert phi in reps_a or psi in reps_b


def test_galois_builds_each_column_table_once(m3, monkeypatch):
    # galois_iso searches the ideals with the factors' column tables, each
    # one hom matrix of D(A), and never materializes a presheaf category;
    # A (x) A builds its one table once, A (x) B one per factor
    tables, reads = [], []

    def counting(q, us, ws):
        tables.append(us)
        return hom_matrix(q, us, ws)

    def cat(self):
        reads.append(self)
        raise AssertionError("PresheafCategory.cat read")

    monkeypatch.setattr(cocomplete, "hom_matrix", counting)
    monkeypatch.setattr(PresheafCategory, "cat", property(cat))
    assert galois_iso(m3, m3)
    assert len(tables) == 1
    tables.clear()
    assert galois_iso(m3, oracle_category("N5"))
    assert len(tables) == 2 and tables[0] is not tables[1]
    assert reads == []


def test_reflector_fixes_ideals(t_chain2):
    for k in range(len(t_chain2.carrier)):
        xi = t_chain2.ideal_vectors[k]
        assert reflector_q(t_chain2, xi) == xi


def test_reflector_of_bottom_is_least_ideal(t_chain2):
    q = t_chain2.ab.quantale
    bottom = (q.bottom,) * len(t_chain2.ab)
    least = reflector_q(t_chain2, bottom)
    for k in range(len(t_chain2.carrier)):
        xi = t_chain2.ideal_vectors[k]
        assert all(q.leq[v][w] for v, w in zip(least, xi))


def test_reflector_adjoint_to_inclusion(t_chain2):
    # q(theta) <= xi in the carrier iff theta <= xi in D(A(x)B)
    t = t_chain2
    q_map = tuple(t.reflect(xi) for xi in t.dab.vectors)
    assert q_map[t.dab.index[t.ideal_vectors[0]]] == 0
    dcat = t.dab.cat
    for di in range(len(t.dab)):
        for k in range(len(t.carrier)):
            lhs = t.carrier.hom[q_map[di]][k]
            rhs = dcat.hom[di][t.dab.index[t.ideal_vectors[k]]]
            assert lhs == rhs


def test_i_is_bimorphism(t_chain2):
    assert is_bimorphism(t_chain2.i, t_chain2.wa.base, t_chain2.wb.base)


def test_projection_not_bimorphism(chain2):
    ab = tensor_vcat(chain2, chain2)
    proj = VFunctor(ab, chain2, tuple(p // 2 for p in range(4)))
    assert not is_bimorphism(proj, chain2, chain2)


def test_quantale_mult_is_bimorphism(v_luk, luk3):
    vv = tensor_vcat(v_luk, v_luk)
    mult = VFunctor(
        vv, v_luk, tuple(luk3.mult[a][b] for a in range(3) for b in range(3))
    )
    assert is_bimorphism(mult, v_luk, v_luk)


def test_extend_universal_bimorphism_is_identity(t_chain2):
    f = extend_bimorphism(t_chain2, t_chain2.i)
    assert f.mapping == tuple(range(len(t_chain2.carrier)))


def test_extension_restricts_to_g(chain2, t_chain2):
    # the meet map (a,b) -> a ^ b, Boolean multiplication, is a bimorphism
    g = VFunctor(
        t_chain2.ab, chain2, tuple(min(p // 2, p % 2) for p in range(4))
    )
    assert is_bimorphism(g, chain2, chain2)
    f = extend_bimorphism(t_chain2, g)
    for p in range(len(t_chain2.ab)):
        assert f.mapping[t_chain2.i.mapping[p]] == g.mapping[p]


def test_ideal_decomposition_as_colimit_of_generators(t_chain2):
    # every ideal is the join of its values tensored with the generators i(a,b)
    t = t_chain2
    carrier = t.carrier
    for k in range(len(carrier)):
        xi = t.ideal_vectors[k]
        terms = [
            tensor_obj(carrier, xi[p], t.i.mapping[p]) for p in range(len(t.ab))
        ]
        assert join_obj(carrier, terms) == k


def test_bimorphism_square(chain2, t_chain2):
    # i(sup phi, sup psi) = q(d2(phi, psi)) for all weight pairs
    t = t_chain2
    q = chain2.quantale
    for ka, phi in enumerate(t.wa.dx.vectors):
        for kb, psi in enumerate(t.wb.dx.vectors):
            p = t.wa.sup_index[ka] * len(chain2) + t.wb.sup_index[kb]
            lhs = t.i.mapping[p]
            rhs = t.reflect(d2_vector(q, phi, psi))
            assert lhs == rhs


def test_symmetry_under_transposition(chain2, v_two):
    t1 = build_tensor_product(chain2, v_two)
    t2 = build_tensor_product(v_two, chain2)
    na, nb = len(chain2), len(v_two)
    transposed = {
        bytes(xi[b * na + a] for a in range(na) for b in range(nb))
        for xi in (t2.ideal_vectors[k] for k in range(len(t2.carrier)))
    }
    ours = {t1.ideal_vectors[k] for k in range(len(t1.carrier))}
    assert ours == transposed


def test_unit_law_tensor_with_v():
    for name in ("two", "heyting3", "lukasiewicz3", "sugihara3"):
        q = builtin(name)
        v = quantale_as_vcategory(q)
        t = build_tensor_product(v, v)
        assert iso_categories(t.carrier, v)


def test_unit_law_chain2_with_v(chain2, v_two):
    t = build_tensor_product(chain2, v_two)
    assert iso_categories(t.carrier, chain2)


def test_associativity_spot_check(chain2):
    left = build_tensor_product(
        build_tensor_product(chain2, chain2).carrier, chain2
    )
    right = build_tensor_product(
        chain2, build_tensor_product(chain2, chain2).carrier
    )
    assert iso_categories(left.carrier, right.carrier)


def test_rejects_non_cocomplete_factor(sugihara3):
    v = quantale_as_vcategory(sugihara3)
    vv = tensor_vcat(v, v)
    with pytest.raises(NotCocompleteInput):
        build_tensor_product(vv, vv)


def test_universal_property_chain2(chain2):
    assert check_universal_property(chain2, chain2, chain2)


def test_universal_property_degenerate_target(chain2, one_top):
    assert check_universal_property(chain2, chain2, one_top)


def _bimorphisms(t, c):
    return [
        g
        for m in tensorprod.enumerate_vfunctors(t.ab, c)
        for g in [VFunctor(t.ab, c, m)]
        if is_bimorphism(g, t.wa.base, t.wb.base)
    ]


def test_universal_property_extends_each_bimorphism_once(chain2, monkeypatch):
    t = build_tensor_product(chain2, chain2)
    calls = []

    def counting(t, g, *rest):
        calls.append(g.mapping)
        return extend_bimorphism(t, g, *rest)

    monkeypatch.setattr(tensorprod, "extend_bimorphism", counting)
    assert check_universal_property(chain2, chain2, chain2, t=t)
    bimorphs = _bimorphisms(t, chain2)
    assert len(bimorphs) > 1
    assert sorted(calls) == sorted(g.mapping for g in bimorphs)


@pytest.mark.parametrize("name", ["two", "lukasiewicz3", "heyting3"])
def test_extension_is_the_tabulated_sup(name):
    # the extension's sup is the representer; on a separated cocomplete
    # codomain it is the sup-table entry of the pushforward of each ideal
    v = quantale_as_vcategory(builtin(name))
    t = build_tensor_product(v, v)
    wc = check_cocomplete(v)
    bimorphs = _bimorphisms(t, v)
    assert bimorphs
    for g in bimorphs:
        assert extend_bimorphism(t, g).mapping == tuple(
            wc.sup_index[wc.dx.index[apply_D(g, xi)]] for xi in t.ideal_vectors
        )


def test_galois_chain2(chain2):
    assert galois_iso(chain2, chain2)


def test_galois_constant_top_map(chain2, t_chain2):
    # the constant-to-top map into B^op corresponds to the all-top ideal
    top_vec = b"\1" * len(t_chain2.ab)
    assert top_vec in {
        t_chain2.ideal_vectors[k] for k in range(len(t_chain2.carrier))
    }


def test_vsup_category_hom_is_functor_hom(chain2):
    cat, funs = vsup_category(chain2, chain2)
    for i, f in enumerate(funs):
        for j, g in enumerate(funs):
            assert cat.hom[i][j] == functor_hom(f, g)


def test_star_autonomy_v_two(v_two):
    assert star_autonomy_check(v_two)


def sup_maps_by_filter(a, cod, cap=100_000):
    """The definitional oracle: every V-functor a -> cod that is a left
    adjoint, in mapping order."""
    return [
        f
        for m in search_vfunctors(a, cod, cap, "functor")
        for f in [VFunctor(a, cod, m)]
        if is_cocontinuous(f)
    ]


def bimorphisms_by_filter(a, b, cod, cap=100_000):
    """Every V-functor tensor_vcat(a, b) -> cod cocontinuous in each variable."""
    ab = tensor_vcat(a, b)
    return [
        f
        for m in search_vfunctors(ab, cod, cap, "functor")
        for f in [VFunctor(ab, cod, m)]
        if is_bimorphism(f, a, b)
    ]


# V over each builtin, the other oracle categories, chain6 and bool3, each
# with its dual
SUP_MAP_OBJECTS = {
    name + suffix: dual(oracle_category(name))
    for name in [*ORACLE_CATEGORIES, "chain6", "bool3"]
    for suffix, dual in (("", lambda x: x), ("^op", opposite))
}


@pytest.mark.parametrize("name", SUP_MAP_OBJECTS)
def test_sup_maps_match_enumerate_then_filter(name):
    # into every object over the same quantale, the same list in the same order
    a = SUP_MAP_OBJECTS[name]
    for cod in SUP_MAP_OBJECTS.values():
        if cod.quantale == a.quantale:
            assert enumerate_cocontinuous(a, cod) == sup_maps_by_filter(a, cod)


def _two_categories(draw):
    q = draw(st.sampled_from([builtin(n) for n in BUILTIN_NAMES]))
    return draw(random_categories([q])), draw(random_categories([q]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sup_maps_match_enumerate_then_filter_on_random_categories(data):
    # any domain; into a separated codomain exactly the left adjoints, and a
    # codomain that is not separated is refused before any search
    a, cod = _two_categories(data.draw)
    if not is_separated(cod):
        with pytest.raises(NotSeparated, match="^sup-map codomain is not separated$"):
            enumerate_cocontinuous(a, cod)
        return
    try:
        expected = sup_maps_by_filter(a, cod, 20_000)
    except SizeExceeded:
        assume(False)
    assert enumerate_cocontinuous(a, cod) == expected


BIMORPHISM_TRIPLES = [
    ("chain2", "chain2", "chain3"),
    ("chain3", "chain2", "V-two"),
    ("chain3", "chain3", "chain2"),
    ("M3", "chain2", "chain2"),
    ("N5", "V-two", "chain3^op"),
    ("V-lukasiewicz3", "V-lukasiewicz3", "V-lukasiewicz3"),
    ("V-lukasiewicz3", "V-lukasiewicz3^op", "V-lukasiewicz3^op"),
    ("H2", "H2", "V-heyting3"),
    ("V-sugihara3", "V-sugihara3", "V-sugihara3"),
    ("V-powerset_z2", "V-powerset_z2", "V-powerset_z2"),
]


@pytest.mark.parametrize("triple", BIMORPHISM_TRIPLES, ids="-".join)
def test_bimorphisms_match_enumerate_then_filter(triple):
    a, b, c = (SUP_MAP_OBJECTS[n] for n in triple)
    assert enumerate_bimorphisms(a, b, c) == bimorphisms_by_filter(a, b, c)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_bimorphisms_match_enumerate_then_filter_on_random_categories(data):
    a, b = _two_categories(data.draw)
    c = data.draw(random_categories([a.quantale], max_objects=3))
    if not is_separated(c):
        with pytest.raises(NotSeparated, match="^bimorphism codomain is not separated$"):
            enumerate_bimorphisms(a, b, c)
        return
    try:
        expected = bimorphisms_by_filter(a, b, c, 20_000)
    except SizeExceeded:
        assume(False)
    # the filter's search found the k maps in 20,000 nodes, so k <= 20,000
    # x |A (x) B| keeps the count guard off
    assert enumerate_bimorphisms(a, b, c, 20_000) == expected


def _reject(f):
    return False


# (objects, generators, least NODES of the generator search alone, sup-maps)
SUP_MAP_SEARCHES = {"bool3": (_bool3, 3, 584, 512), "chain6": (lambda: _chain(6), 5, 461, 252)}


@pytest.mark.parametrize("name", SUP_MAP_SEARCHES)
def test_sup_map_node_count_is_pinned(name):
    # a node places one generator's image; with no map kept the count
    # guard never fires, so the search alone is pinned
    make, n_gens, nodes, _ = SUP_MAP_SEARCHES[name]
    x = make()
    gens = dense_generators(x)
    assert len(gens) == n_gens
    enumerate_extensions(x, gens, x, nodes, _reject, "sup-map")
    with pytest.raises(SizeExceeded, match=f"functor enumeration exceeded {nodes - 1} nodes"):
        enumerate_extensions(x, gens, x, nodes - 1, _reject, "sup-map")


@pytest.mark.parametrize("name", SUP_MAP_SEARCHES)
def test_vsup_category_least_cap_is_pinned(name):
    # k maps need k^2 <= NODES x |A|: 512^2 = 32,768 x 8 and
    # 252^2 <= 10,584 x 6, so the count guard sets the least cap
    make, _, _, k = SUP_MAP_SEARCHES[name]
    x = make()
    cap = -(-(k * k) // len(x))
    assert len(vsup_category(x, x, cap)[1]) == k
    with pytest.raises(
        SizeExceeded, match=f"sup-map count exceeded {cap - 1} nodes x {len(x)} objects: {k} maps"
    ):
        vsup_category(x, x, cap - 1)


BIMORPHISM_NODES_C3_C3_C5 = 180


def test_universal_property_node_counts_are_pinned():
    # G = {x1, x2} in chain3, so the bimorphism search places the images of
    # 4 pairs in 180 nodes (chain3 (x) chain3 -> chain5 has 4,116
    # V-functors in all); 105 bimorphisms and 105 sup-maps out of the
    # 6-object carrier, neither list squared, so that node count is the
    # least cap of the universal property
    c3, c5 = _chain(3), _chain(5)
    pairs = [x * 3 + y for x in dense_generators(c3) for y in dense_generators(c3)]
    ab, nodes = tensor_vcat(c3, c3), BIMORPHISM_NODES_C3_C3_C5
    enumerate_extensions(ab, pairs, c5, nodes, _reject, "bimorphism")
    with pytest.raises(SizeExceeded, match=f"functor enumeration exceeded {nodes - 1} nodes"):
        enumerate_extensions(ab, pairs, c5, nodes - 1, _reject, "bimorphism")
    assert len(enumerate_bimorphisms(c3, c3, c5)) == 105
    assert check_universal_property(c3, c3, c5, node_cap=nodes)
    with pytest.raises(SizeExceeded, match=f"functor enumeration exceeded {nodes - 1} nodes"):
        check_universal_property(c3, c3, c5, node_cap=nodes - 1)


def _indiscrete(n):
    two = builtin("two")
    return validate_vcategory(two, tuple(f"i{k}" for k in range(n)), ((1,) * n,) * n)


def test_bimorphism_count_guard():
    # the indiscrete 2-object category is not separated: a colimit in it is
    # no one object, so the search refuses it before placing any image
    c3, ind = _chain(3), _indiscrete(2)
    with pytest.raises(NotSeparated, match="^bimorphism codomain is not separated$"):
        enumerate_bimorphisms(c3, c3, ind, 1)
    with pytest.raises(NotSeparated, match="^sup-map codomain is not separated$"):
        enumerate_cocontinuous(c3, ind, 1)
    # into a separated codomain each map is a leaf of the search, so its
    # node count bounds the list: 105 maps need 180 nodes
    c5 = _chain(5)
    with pytest.raises(SizeExceeded, match="functor enumeration exceeded 179 nodes"):
        enumerate_bimorphisms(c3, c3, c5, 179)


def test_universal_property_past_the_count_guard():
    # 14,112 bimorphisms chain4 (x) chain4 -> chain6 and as many sup-maps
    # out of the 70-object carrier: neither list is squared
    assert check_universal_property(_chain(4), _chain(4), _chain(6))


def test_carrier_guard_stops_before_its_matrix():
    # the chain9 (x) chain9 carrier would be a 12,870^2 hom matrix:
    # 12,870^2 > 2,000,000 x 9 stops the build after the sup-map list
    with pytest.raises(SizeExceeded) as exc:
        build_tensor_product(_chain(9), _chain(9))
    assert str(exc.value) == "sup-map count exceeded 2000000 nodes x 9 objects: 12870 maps"


def carrier_and_functor_hom(a, b):
    """The carrier hom of A (x) B on the ideals xi_f(a, b) = B(b, f a), in
    the order of the sup-maps f : A -> B^op, and the functor hom
    [A, B^op](g, f) transposed: equal by Yoneda (`galois_iso`)."""
    funs = enumerate_cocontinuous(a, opposite(b))
    t = build_tensor_product(a, b)
    index = {xi: k for k, xi in enumerate(t.ideal_vectors)}
    nb = len(b)
    ks = [
        index[bytes(b.hom[y][f.mapping[x]] for x in range(len(a)) for y in range(nb))]
        for f in funs
    ]
    carrier = tuple(tuple(t.carrier.hom[k][j] for j in ks) for k in ks)
    return carrier, tuple(zip(*functor_hom_matrix(opposite(b), funs, funs)))


@pytest.mark.parametrize("name", SUP_MAP_OBJECTS)
def test_carrier_hom_is_the_transposed_functor_hom(name):
    a = SUP_MAP_OBJECTS[name]
    carrier, functor = carrier_and_functor_hom(a, a)
    assert carrier == functor


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_galois_identities_on_random_sup_lattices(data):
    # the carrier hom, and the back map f(a) = colim_B B(-, f a) = f(a)
    q = data.draw(st.sampled_from([builtin(n) for n in BUILTIN_NAMES]))
    a, b = (data.draw(random_sup_lattices([q], max_size=8)) for _ in range(2))
    carrier, functor = carrier_and_functor_hom(a, b)
    assert carrier == functor
    nb = len(b)
    for f in enumerate_cocontinuous(a, opposite(b)):
        for fx in f.mapping:
            assert b.kernel.colimit(range(nb), [b.hom[y][fx] for y in range(nb)]) == fx


def test_galois_fails_on_a_missing_ideal(m3, monkeypatch):
    # one ideal short, the sup-maps no longer map onto the ideals
    ideals = tensorprod.ideals_by_columns
    monkeypatch.setattr(tensorprod, "ideals_by_columns", lambda *args: ideals(*args)[1:])
    assert not galois_iso(m3, m3)


def test_universal_property_fails_on_swapped_extensions(chain2, monkeypatch):
    # the same set of extensions, each paired with another bimorphism: the
    # restriction along i no longer gives g back
    t = build_tensor_product(chain2, chain2)
    bimorphs = enumerate_bimorphisms(chain2, chain2, chain2)
    swapped = {
        g.mapping: extend_bimorphism(t, h) for g, h in zip(bimorphs, reversed(bimorphs))
    }
    monkeypatch.setattr(tensorprod, "extend_bimorphism", lambda t, g: swapped[g.mapping])
    assert not check_universal_property(chain2, chain2, chain2, t=t)


def test_universal_property_refuses_the_tensor_of_other_factors():
    # t must be the tensor of a and b: chain3 (x) chain3 does not answer
    # for chain2 (x) chain2, whose own tensor passes
    c2, c3 = _chain(2), _chain(3)
    with pytest.raises(ValueError, match="t is the tensor of other factors"):
        check_universal_property(c2, c2, c3, t=build_tensor_product(c3, c3))
    with pytest.raises(ValueError, match="t is the tensor of other factors"):
        check_universal_property(c2, c3, c3, t=build_tensor_product(c2, c2))
    assert check_universal_property(c2, c2, c3)
    # the factors are compared as V-categories: renamed objects keep t
    renamed = poset(["p", "q"], lambda i, j: i <= j)
    assert check_universal_property(renamed, c2, c3, t=build_tensor_product(c2, c2))


def restriction_and_extension_hom(a, b, c, node_cap=DEFAULT_NODE_CAP):
    """The functor hom of the bimorphisms A (x) B -> C and of their
    extensions to the carrier: equal by density
    (`check_universal_property`)."""
    t = build_tensor_product(a, b, node_cap=node_cap)
    bimorphs = enumerate_bimorphisms(a, b, c, node_cap)
    extensions = [extend_bimorphism(t, g) for g in bimorphs]
    return (
        functor_hom_matrix(c, bimorphs, bimorphs),
        functor_hom_matrix(c, extensions, extensions),
    )


@pytest.mark.parametrize("triple", BIMORPHISM_TRIPLES, ids="-".join)
def test_extension_preserves_the_functor_hom(triple):
    restricted, extended = restriction_and_extension_hom(*(SUP_MAP_OBJECTS[n] for n in triple))
    assert restricted == extended


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_extension_preserves_the_functor_hom_on_random_sup_lattices(data):
    q = data.draw(st.sampled_from([builtin(n) for n in BUILTIN_NAMES]))
    a, b, c = (data.draw(random_sup_lattices([q], max_size=5)) for _ in range(3))
    try:
        restricted, extended = restriction_and_extension_hom(a, b, c, 20_000)
    except SizeExceeded:
        assume(False)
    assert restricted == extended


@pytest.mark.parametrize("name", ["chain2", "chain3", "M3", "V-lukasiewicz3", "V-powerset_z2", "H2"])
def test_decisions_match_the_enumerate_then_filter_oracle(name, monkeypatch):
    # every caller of the two searches sees the oracle's lists in its order;
    # the universal property runs where the oracle's search stays small
    x = oracle_category(name)

    def decide():
        cat, funs = vsup_category(x, x)
        t = build_tensor_product(x, x)
        return (
            cat.hom,
            [f.mapping for f in funs],
            t.ideal_vectors,
            len(x) > 3 or check_universal_property(x, x, x, t=t),
            galois_iso(x, x),
            star_autonomy_check(x),
        )

    fast = decide()
    monkeypatch.setattr(tensorprod, "enumerate_cocontinuous", sup_maps_by_filter)
    monkeypatch.setattr(tensorprod, "enumerate_bimorphisms", bimorphisms_by_filter)
    assert decide() == fast
