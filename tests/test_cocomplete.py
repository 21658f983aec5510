"""Suprema, tensors and joins as representers, colimits, adjoints."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings

import vqcat
from vqcat import cocomplete
from vqcat.cocomplete import (
    check_cocomplete,
    dense_generators,
    is_cocontinuous,
    join_obj,
    sup_of,
    sup_target,
    tensor_obj,
    weighted_colimit,
)
from vqcat.dist import (
    VFunctor,
    identity_dist,
    is_adjoint_functors,
    right_lifting,
    validate_distributor,
)
from vqcat.corpus import load
from vqcat.errors import NoSuchColimit, NotCocomplete, NotSeparated
from vqcat.kernel import SupKernel
from vqcat.presheaf import apply_D, enumerate_presheaves, yoneda
from vqcat.quantale import BUILTIN_NAMES, builtin, validate_quantale
from vqcat.vcat import (
    discrete,
    opposite,
    quantale_as_vcategory,
    tensor_vcat,
    validate_vcategory,
)

from categories import (
    ORACLE_CATEGORIES,
    cocomplete_by_sup_table,
    graph,
    identity_functor,
    is_separated,
    oracle_category,
    random_categories,
    right_adjoint,
    try_cocomplete,
    validate_functor,
)


def sup_join_tensor(w, values) -> int:
    """sup phi = join_x phi(x) (x) x, the join-of-tensors formula: a
    cross-check of the tabulated sup."""
    x = w.base
    return join_obj(x, [tensor_obj(x, values[a], a) for a in range(len(x))])


def test_quantale_is_cocomplete_with_join_tensor_sup():
    for name in BUILTIN_NAMES:
        q = builtin(name)
        x = quantale_as_vcategory(q)
        w = check_cocomplete(x)
        for k, phi in enumerate(w.dx.vectors):
            # sup phi = join_v phi(v) * v
            expected = q.join_of(q.mult[phi[v]][v] for v in range(q.n))
            assert w.sup_index[k] == expected
            assert sup_join_tensor(w, phi) == expected


def test_presheaf_category_cocomplete(chain2):
    dx = enumerate_presheaves(chain2)
    w = check_cocomplete(dx.cat)
    assert len(w.sup_index) == len(w.dx)


def test_sup_after_yoneda_is_identity(chain2, v_luk):
    for x in (chain2, v_luk):
        dx = enumerate_presheaves(x)
        w = check_cocomplete(x, dx)
        y = yoneda(x, dx)
        for a in range(len(x)):
            assert w.sup_index[y.mapping[a]] == a


def test_sup_of_bottom_presheaf(chain2):
    assert sup_of(chain2, (0, 0)) == 0


def test_not_separated_rejected(two):
    x = validate_vcategory(two, ("p", "q"), ((1, 1), (1, 1)))
    with pytest.raises(NotSeparated) as exc:
        check_cocomplete(x)
    assert exc.value.witness == (0, 1)
    assert str(exc.value) == "not separated: p ~ q"


def test_sugihara_square_lacks_tensors(sugihara3):
    v = quantale_as_vcategory(sugihara3)
    vv = tensor_vcat(v, v)
    w, failing = try_cocomplete(vv)
    assert w is None and failing is not None
    missing = []
    for z in range(len(vv)):
        try:
            tensor_obj(vv, sugihara3.top, z)
        except NoSuchColimit as exc:
            assert exc.weight["kind"] == "tensor"
            missing.append(z)
    assert missing


def test_tensor_obj_by_unit(chain2, v_luk):
    for x in (chain2, v_luk):
        for z in range(len(x)):
            assert tensor_obj(x, x.quantale.unit, z) == z


def test_tensor_obj_in_quantale_category(v_luk, luk3):
    for v in range(luk3.n):
        for w in range(luk3.n):
            assert tensor_obj(v_luk, v, w) == luk3.mult[v][w]


def test_join_obj(chain2):
    assert join_obj(chain2, (0,)) == 0
    assert join_obj(chain2, (0, 1)) == 1
    assert join_obj(chain2, ()) == 0


def test_weighted_colimit_identity_weight(chain2):
    for m in [(0, 0), (0, 1), (1, 1)]:
        f = validate_functor(chain2, chain2, m)
        colim = weighted_colimit(identity_dist(chain2), f)
        assert colim.mapping == f.mapping


def test_weighted_colimit_representable_weight(chain2):
    f = identity_functor(chain2)
    for x0 in range(2):
        # weight Y(-, x0) as a distributor 1 -> X
        one = validate_vcategory(chain2.quantale, ("s",), ((1,),))
        mat = tuple((chain2.hom[a][x0],) for a in range(2))
        phi = validate_distributor(one, chain2, mat)
        colim = weighted_colimit(phi, f)
        assert colim.mapping == (x0,)


def test_weighted_colimit_satisfies_lifting_equation(chain2):
    # (colim phi f)^* = phi \searrow f^*
    one = validate_vcategory(chain2.quantale, ("s",), ((1,),))
    for m in [(0, 0), (0, 1), (1, 1)]:
        f = validate_functor(chain2, chain2, m)
        for a0 in range(2):
            for a1 in range(2):
                try:
                    phi = validate_distributor(one, chain2, ((a0,), (a1,)))
                except Exception:
                    continue
                colim = weighted_colimit(phi, f)
                _, upper = graph(colim)
                _, f_upper = graph(f)
                assert upper.mat == right_lifting(phi, f_upper).mat


def test_is_cocontinuous_identity(chain2):
    assert is_cocontinuous(identity_functor(chain2))


def test_monotone_but_not_join_preserving(two):
    # the 4-element Boolean algebra; collapse everything below top to bottom
    square = enumerate_presheaves(discrete(two, ("p", "q"))).cat
    top = max(range(4), key=lambda i: sum(square.hom[j][i] for j in range(4)))
    bot = min(range(4), key=lambda i: sum(square.hom[j][i] for j in range(4)))
    mapping = tuple(top if i == top else bot for i in range(4))
    f = validate_functor(square, square, mapping)
    assert not is_cocontinuous(f)


def test_sup_functor_is_cocontinuous(chain2):
    w = check_cocomplete(chain2)
    sup_f = VFunctor(w.dx.cat, chain2, w.sup_index)
    assert is_cocontinuous(sup_f)


def test_right_adjoint_of_identity(chain2):
    assert right_adjoint(identity_functor(chain2)).mapping == (0, 1)


def test_right_adjoint_of_sup_is_yoneda(chain2):
    w = check_cocomplete(chain2)
    sup_f = VFunctor(w.dx.cat, chain2, w.sup_index)
    g = right_adjoint(sup_f)
    assert g.mapping == yoneda(chain2, w.dx).mapping
    assert is_adjoint_functors(sup_f, g)


def test_non_functor_is_not_cocontinuous(chain2):
    # order-reversing: B(f-, x0) = <0,1> is no presheaf, so no right adjoint
    assert not is_cocontinuous(VFunctor(chain2, chain2, (1, 0)))
    assert right_adjoint(VFunctor(chain2, chain2, (1, 0))) is None


def test_right_adjoint_out_of_the_empty_category(two, chain2):
    # g : B -> empty exists only for an empty B
    empty = discrete(two, ())
    assert right_adjoint(VFunctor(empty, chain2, ())) is None
    assert right_adjoint(VFunctor(empty, empty, ())).mapping == ()


def cocontinuous_by_every_presheaf(f, wa):
    """The per-presheaf oracle: for every presheaf phi on A, f(sup phi)
    represents the pushforward f_* phi."""
    b = f.cod
    return all(
        b.hom[f.mapping[wa.sup_index[i]]] == sup_target(b, apply_D(f, phi))
        for i, phi in enumerate(wa.dx.vectors)
    )


def _small_categories(q):
    """The oracle categories over q and their opposites."""
    cats = [x for x in map(oracle_category, ORACLE_CATEGORIES) if x.quantale == q]
    return cats + [opposite(x) for x in cats]


@pytest.mark.parametrize("qname", BUILTIN_NAMES)
def test_is_cocontinuous_matches_every_presheaf_oracle(qname):
    # every object map between the small categories over q, non-functors
    # too; the right adjoint is found exactly for the cocontinuous ones
    cats = _small_categories(builtin(qname))
    verdicts = set()
    for a in cats:
        wa = check_cocomplete(a)
        for b in cats:
            for m in itertools.product(range(len(b)), repeat=len(a)):
                f = VFunctor(a, b, m)
                verdict = is_cocontinuous(f)
                assert verdict == cocontinuous_by_every_presheaf(f, wa), (a, b, m)
                g = right_adjoint(f)
                assert (g is not None) == verdict, (a, b, m)
                assert g is None or is_adjoint_functors(f, g), (a, b, m)
                verdicts.add(verdict)
    assert verdicts == {True, False}



def assert_decided_as_by_sup_table(x):
    """`check_cocomplete` gives the verdict, the first failing presheaf and
    the sup table of the full-table oracle, or both raise NotSeparated."""
    try:
        table, failing = cocomplete_by_sup_table(x)
    except NotSeparated:
        with pytest.raises(NotSeparated):
            check_cocomplete(x)
        return
    w, found = try_cocomplete(x)
    assert (w is None) == (table is None)
    assert (found.values if found else None) == failing
    assert w is None or w.sup_index == table


@settings(max_examples=200, deadline=None)
@given(random_categories([builtin(n) for n in BUILTIN_NAMES], max_objects=3))
def test_tensors_and_joins_decide_cocompleteness(x):
    # production decides by tensors and binary joins, the oracle by every
    # presheaf of D(x)
    assert_decided_as_by_sup_table(x)


ONE = validate_quantale(("0",), ((True,),), ((0,),), 0)


@pytest.mark.parametrize(
    "x",
    [
        discrete(builtin("two"), ()),
        validate_vcategory(ONE, ("p",), ((0,),)),
        validate_vcategory(builtin("two"), ("p", "q"), ((1, 1), (1, 1))),
    ],
    ids=["empty", "one-object-over-one-element-V", "not-separated"],
)
def test_tensors_and_joins_decide_the_edge_cases(x):
    assert_decided_as_by_sup_table(x)


def test_the_empty_category_is_not_cocomplete(two):
    # the empty presheaf has no supremum: there is no object to represent it
    w, failing = try_cocomplete(discrete(two, ()))
    assert w is None and failing.values == b""


def counted(monkeypatch, owner, name):
    """Count the calls of `owner.name` from here on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("name", ["V-lukasiewicz3", "V-powerset_z2", "chain3", "bool3", "H2"])
def test_check_cocomplete_reads_no_presheaf(monkeypatch, name):
    # on a cocomplete x: no supremum per presheaf of D(x), only the
    # |x| * |V| tensors and the |x| (|x| - 1) / 2 binary joins
    x = oracle_category(name)
    dx = enumerate_presheaves(x)
    sups = counted(monkeypatch, cocomplete, "sup_of")
    reps = counted(monkeypatch, cocomplete, "representer")
    folds = counted(monkeypatch, SupKernel, "colimit")
    w = check_cocomplete(x, dx)
    m = len(x)
    assert (sups, reps) == ([], [])
    assert len(folds) == m * x.quantale.n + m * (m - 1) // 2
    assert "sup_index" not in vars(w)
    # D(x) is the one handed in, and without one it is not enumerated
    assert w.dx is dx
    assert "dx" not in vars(check_cocomplete(x))


def _data_categories():
    for name in sorted(p.name for p in (Path(vqcat.__file__).parent / "data").glob("*.vcat")):
        for label, x in load(name).vcats.items():
            yield f"{name}:{label}", x


SUP_TABLE_CASES = {
    **{name: oracle_category(name) for name in ORACLE_CATEGORIES},
    **{f"{name}-op": opposite(oracle_category(name)) for name in ORACLE_CATEGORIES},
    **dict(_data_categories()),
}


@pytest.mark.parametrize("name", SUP_TABLE_CASES)
def test_lazy_sup_index_is_the_sup_table(name):
    x = SUP_TABLE_CASES[name]
    try:
        w = check_cocomplete(x)
    except (NotSeparated, NotCocomplete):
        assert_decided_as_by_sup_table(x)
        return
    assert "sup_index" not in vars(w)
    assert w.sup_index == tuple(sup_of(x, values) for values in w.dx.vectors)
    assert w.sup_index == cocomplete_by_sup_table(x, w.dx)[0]


def generated_row(x, gens, obj):
    """The hom row of the colimit of `gens` weighted by X(gens, obj), by
    its meet formula meet_g [X(g, obj), X(g, -)]."""
    q = x.quantale
    return bytes(
        q.meet_of(q.hom[x.hom[g][obj]][x.hom[g][b]] for g in gens) for b in range(len(x))
    )


def assert_dense_and_irredundant(x, gens):
    for obj in range(len(x)):
        assert generated_row(x, gens, obj) == x.hom[obj]
    # a non-separated x may keep an object isomorphic to one it dropped
    if is_separated(x):
        for g in gens:
            assert generated_row(x, [h for h in gens if h != g], g) != x.hom[g]


TWO_LATTICES = ["V-two", "chain2", "chain3", "chain6", "M3", "N5", "bool3"]


def _category(name, dual):
    x = oracle_category(name)
    return opposite(x) if dual else x


@pytest.mark.parametrize("dual", [False, True], ids=["self", "dual"])
@pytest.mark.parametrize("name", [*ORACLE_CATEGORIES, "chain6", "bool3"])
def test_dense_generators_generate_irredundantly(name, dual):
    x = _category(name, dual)
    assert_dense_and_irredundant(x, dense_generators(x))


def join_irreducibles(x):
    """Over two: the objects that are not the least upper bound of the
    objects strictly below them."""
    objs = range(len(x))

    def lub(ys):
        upper = [u for u in objs if all(x.hom[y][u] for y in ys)]
        return next(z for z in upper if all(x.hom[z][u] for u in upper))

    return tuple(z for z in objs if lub([y for y in objs if y != z and x.hom[y][z]]) != z)


@pytest.mark.parametrize("dual", [False, True], ids=["self", "dual"])
@pytest.mark.parametrize("name", TWO_LATTICES)
def test_dense_generators_of_a_lattice_are_its_join_irreducibles(name, dual):
    x = _category(name, dual)
    assert dense_generators(x) == join_irreducibles(x)


def test_dense_generators_of_powerset_z2_keep_one_unit():
    # {0} = {1} (x) {1} and {1} = {1} (x) {0}: each generates the other, and
    # the one pass keeps exactly one of them
    x = quantale_as_vcategory(builtin("powerset_z2"))
    zero, one = x.index("{0}"), x.index("{1}")
    assert generated_row(x, [one], zero) == x.hom[zero]
    assert generated_row(x, [zero], one) == x.hom[one]
    gens = dense_generators(x)
    assert (zero in gens) != (one in gens)
    assert_dense_and_irredundant(x, gens)


@settings(max_examples=200, deadline=None)
@given(random_categories([builtin(n) for n in BUILTIN_NAMES], max_objects=4))
def test_dense_generators_on_random_categories(x):
    assert_dense_and_irredundant(x, dense_generators(x))
