"""Functors, distributors, composition, extensions/liftings, graphs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqcat.dist import (
    Distributor,
    compose_dist,
    dist_le,
    functor_hom,
    identity_dist,
    is_adjoint_functors,
    is_adjoint_pair,
    right_extension,
    right_lifting,
    validate_distributor,
)
from vqcat.errors import VCatError
from vqcat.presheaf import enumerate_presheaves
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.tensorprod import enumerate_vfunctors
from vqcat.vcat import discrete, opposite, quantale_as_vcategory, validate_vcategory

from categories import (
    NotAFunctor,
    ORACLE_CATEGORIES,
    graph,
    identity_functor,
    oracle_category,
    random_categories,
    validate_functor,
)


def all_functors(dom, cod):
    for mapping in itertools.product(range(len(cod)), repeat=len(dom)):
        try:
            yield validate_functor(dom, cod, mapping)
        except NotAFunctor:
            continue


def all_distributors(dom, cod):
    q = dom.quantale
    cells = len(cod) * len(dom)
    for flat in itertools.product(range(q.n), repeat=cells):
        mat = tuple(
            tuple(flat[y * len(dom) + x] for x in range(len(dom)))
            for y in range(len(cod))
        )
        try:
            yield validate_distributor(dom, cod, mat)
        except VCatError:
            continue


def functor_mappings(dom, cod):
    """The brute-force filter's functors, in lexicographic mapping order."""
    return [f.mapping for f in all_functors(dom, cod)]


def presheaves_are_functors(x):
    v = quantale_as_vcategory(x.quantale)
    return enumerate_presheaves(x).vectors == tuple(enumerate_vfunctors(opposite(x), v))


ORACLE_PAIRS = [
    (a, b)
    for a in ORACLE_CATEGORIES
    for b in ORACLE_CATEGORIES
    if oracle_category(a).quantale == oracle_category(b).quantale
    and len(oracle_category(b)) ** len(oracle_category(a)) <= 10**5
]


@pytest.mark.parametrize("dom, cod", ORACLE_PAIRS)
def test_enumerate_vfunctors_matches_brute_force(dom, cod):
    x, y = oracle_category(dom), oracle_category(cod)
    assert enumerate_vfunctors(x, y) == functor_mappings(x, y)


@pytest.mark.parametrize("name", ORACLE_CATEGORIES)
def test_presheaves_are_the_functors_into_V(name):
    assert presheaves_are_functors(oracle_category(name))


@pytest.mark.parametrize("qname", ["two", "lukasiewicz3"])
def test_enumerate_vfunctors_on_empty_and_non_separated(qname):
    q = builtin(qname)
    empty = discrete(q, ())
    # two objects, each below the other: not separated
    blob = validate_vcategory(q, ("p", "q"), ((q.top, q.top), (q.top, q.top)))
    v = quantale_as_vcategory(q)
    for dom, cod in [(empty, empty), (empty, v), (v, empty), (blob, v), (v, blob), (blob, blob)]:
        assert enumerate_vfunctors(dom, cod) == functor_mappings(dom, cod)
    assert enumerate_vfunctors(empty, v) == [()]
    assert enumerate_vfunctors(v, empty) == []
    assert presheaves_are_functors(empty) and presheaves_are_functors(blob)


BUILTINS = [builtin(n) for n in BUILTIN_NAMES]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_enumerate_vfunctors_matches_brute_force_on_random_categories(data):
    x = data.draw(random_categories(BUILTINS))
    y = data.draw(random_categories([x.quantale]))
    assert enumerate_vfunctors(x, y) == functor_mappings(x, y)
    assert presheaves_are_functors(x)


def test_validate_functor_witness(chain2):
    # the decreasing swap on the 2-chain is not monotone
    with pytest.raises(NotAFunctor):
        validate_functor(chain2, chain2, (1, 0))
    validate_functor(chain2, chain2, (0, 1))
    validate_functor(chain2, chain2, (1, 1))


def test_constant_to_top_is_functor(chain2):
    f = validate_functor(chain2, chain2, (1, 1))
    assert functor_hom(identity_functor(chain2), f) == 1


def test_functor_hom_reflexive_and_composes(v_luk):
    fs = list(all_functors(v_luk, v_luk))
    q = v_luk.quantale
    for f in fs:
        assert q.leq[q.unit][functor_hom(f, f)]
    for f, g, h in itertools.product(fs, repeat=3):
        lhs = q.mult[functor_hom(f, g)][functor_hom(g, h)]
        assert q.leq[lhs][functor_hom(f, h)]


def test_identity_dist_unit_law(chain2):
    for phi in all_distributors(chain2, chain2):
        assert compose_dist(phi, identity_dist(chain2)).mat == phi.mat
        assert compose_dist(identity_dist(chain2), phi).mat == phi.mat


def test_compose_associative_small(v_luk):
    one = validate_vcategory(v_luk.quantale, ("s",), ((v_luk.quantale.unit,),))
    ds = list(all_distributors(one, one))
    for a, b, c in itertools.product(ds, repeat=3):
        lhs = compose_dist(a, compose_dist(b, c))
        rhs = compose_dist(compose_dist(a, b), c)
        assert lhs.mat == rhs.mat


def test_extension_adjunction_exhaustive(two, chain2):
    x = chain2
    y = validate_vcategory(two, ("p", "q"), ((1, 0), (0, 1)))
    z = validate_vcategory(two, ("s",), ((1,),))
    for xi in all_distributors(x, z):
        for phi in all_distributors(x, y):
            ext = right_extension(xi, phi)
            for psi in all_distributors(y, z):
                assert dist_le(compose_dist(psi, phi), xi) == dist_le(psi, ext)
        for psi in all_distributors(y, z):
            lift = right_lifting(psi, xi)
            for phi in all_distributors(x, y):
                assert dist_le(compose_dist(psi, phi), xi) == dist_le(phi, lift)


def test_extension_along_identity(chain2):
    for xi in all_distributors(chain2, chain2):
        assert right_extension(xi, identity_dist(chain2)).mat == xi.mat


def test_one_object_extension_is_residuation(luk3):
    one = validate_vcategory(luk3, ("s",), ((luk3.unit,),))
    for v in range(luk3.n):
        for w in range(luk3.n):
            xi = Distributor(one, one, ((w,),))
            phi = Distributor(one, one, ((v,),))
            assert right_extension(xi, phi).mat[0][0] == luk3.hom[v][w]


def test_graph_adjoint(chain2, v_luk):
    for x in (chain2, v_luk):
        for f in all_functors(x, x):
            lower, upper = graph(f)
            assert is_adjoint_pair(lower, upper)
    idd = identity_dist(chain2)
    lower, upper = graph(identity_functor(chain2))
    assert lower.mat == idd.mat and upper.mat == idd.mat


def test_bottom_pair_not_adjoint(chain2):
    bot = Distributor(chain2, chain2, ((0, 0), (0, 0)))
    assert not is_adjoint_pair(bot, bot)


def test_adjoint_functors_bruteforce(two):
    chain3 = validate_vcategory(
        two, ("a", "b", "c"), ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    )
    # adjunctions between chains over the Boolean quantale are Galois
    # connections; check is_adjoint_functors against the order-theoretic
    # definition for every pair of maps
    fs = list(all_functors(chain3, chain3))
    for f in fs:
        for g in fs:
            galois = all(
                (f.mapping[x] <= y) == (x <= g.mapping[y])
                for x in range(3)
                for y in range(3)
            )
            assert is_adjoint_functors(f, g) == galois
