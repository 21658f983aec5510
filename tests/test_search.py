"""The one search, `presheaf.search_vfunctors`, against the unshared search
`categories.search_by_placement`: the same sorted mappings and the same
node count.  A search that shares the completions of a repeated tail of
masks still counts every placement of the unshared search, so it answers
at node_cap = that count and raises SizeExceeded, with the same message,
at count - 1."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vqcat.cocomplete import check_cocomplete, dense_generators
from vqcat.errors import SizeExceeded
from vqcat.presheaf import full_subcategory, presheaf_subcategory, search_vfunctors
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.tensorprod import build_tensor_product, vsup_category
from vqcat.vcat import discrete, opposite, quantale_as_vcategory, unit_category, validate_vcategory

from categories import (
    ORACLE_CATEGORIES,
    lukasiewicz,
    oracle_category,
    poset,
    random_categories,
    search_by_placement,
)


def same_as_placement(dom, cod, what="functor"):
    """Check the search against the oracle; return the oracle's answer."""
    expected, nodes = search_by_placement(dom, cod, what=what)
    assert search_vfunctors(dom, cod, nodes, what) == expected
    if nodes:
        with pytest.raises(SizeExceeded) as exc:
            search_vfunctors(dom, cod, nodes - 1, what)
        assert str(exc.value) == f"{what} enumeration exceeded {nodes - 1} nodes"
        assert exc.value.estimate == nodes - 1
    return expected, nodes


def presheaf_search(x):
    """The search that `enumerate_presheaves` runs: X^op -> V."""
    return opposite(x), quantale_as_vcategory(x.quantale)


PRESHEAF_BASES = ORACLE_CATEGORIES + ["chain5", "chain6", "chain7", "bool3", "bool4", "V-luk8"]


def presheaf_base(name):
    """An oracle category, the 2^4 poset or V over luk8."""
    if name == "bool4":
        return poset(tuple(range(16)), lambda i, j: i & j == i)
    if name == "V-luk8":
        return quantale_as_vcategory(lukasiewicz(8))
    return oracle_category(name)


@pytest.mark.parametrize("name", PRESHEAF_BASES)
def test_presheaf_search_matches_placement(name):
    expected, nodes = same_as_placement(*presheaf_search(presheaf_base(name)), "presheaf")
    assert expected and nodes >= len(expected)


SUP_MAP_FACTORS = ("chain2", "chain3", "chain5", "M3", "N5", "bool3", "V-lukasiewicz3")


@pytest.mark.parametrize("name", SUP_MAP_FACTORS)
def test_sup_map_generator_searches_match_placement(name):
    # the searches of `enumerate_extensions`: the dense generators into
    # the factor, into V, into its opposite, and into A*^op (`is_nuclear`)
    a = oracle_category(name)
    gens = full_subcategory(a, dense_generators(a))
    v = quantale_as_vcategory(a.quantale)
    dual, _ = vsup_category(a, v)
    for cod in (a, v, opposite(a), opposite(dual)):
        same_as_placement(gens, cod, "sup-map")


def test_m3_ideal_search_matches_placement():
    # the search of `ideals_by_columns` for M3 (x) M3: M3^op -> C_A
    wa = wb = check_cocomplete(oracle_category("M3"))
    cols = tuple(theta for theta, fail in wa.ideal_columns.items() if fail is None)
    expected, _ = same_as_placement(
        opposite(wb.base), presheaf_subcategory(wa.base, cols), "ideal"
    )
    assert len(expected) > 50


RANDOM = [builtin(n) for n in BUILTIN_NAMES]


def category_pairs():
    """Two random categories over one builtin quantale."""
    return st.sampled_from(RANDOM).flatmap(
        lambda q: st.tuples(random_categories([q]), random_categories([q]))
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(category_pairs())
def test_vfunctor_search_matches_placement_on_random_categories(pair):
    x, y = pair
    same_as_placement(x, y)
    same_as_placement(y, opposite(x))


@settings(max_examples=200, deadline=None)
@given(random_categories(RANDOM))
def test_presheaf_search_matches_placement_on_random_categories(x):
    same_as_placement(*presheaf_search(x), "presheaf")


def test_no_objects_is_one_empty_mapping_and_no_node():
    q = builtin("two")
    empty = discrete(q, ())
    assert same_as_placement(empty, quantale_as_vcategory(q)) == ([()], 0)
    assert search_vfunctors(empty, empty, 0, "functor") == [()]


def test_one_object_maps_to_each_object_its_diagonal_allows():
    q = builtin("sugihara3")
    expected, nodes = same_as_placement(unit_category(q), quantale_as_vcategory(q))
    assert expected == [(c,) for c in range(q.n) if q.leq[q.unit][q.hom[c][c]]]
    assert nodes == len(expected)


def test_a_search_with_no_result():
    # x0 -> x1 at top, so no image pair in a discrete cod can hold it;
    # both of x0's images are placed before the branch is cut
    q = builtin("sugihara3")
    e, t, b = q.unit, q.top, q.bottom
    dom = validate_vcategory(q, ("x0", "x1"), ((e, t), (b, e)))
    assert same_as_placement(dom, discrete(q, ("c0", "c1"))) == ([], 2)
    # an empty root mask: V over sugihara3 has diagonals above e
    assert same_as_placement(quantale_as_vcategory(q), unit_category(q)) == ([], 0)


def test_more_than_256_images_take_two_byte_cells():
    # the pairs x <= y of the 512-object carrier of bool3 (x) bool3 = 2^9
    bool3 = oracle_category("bool3")
    carrier = build_tensor_product(bool3, bool3).carrier
    assert len(carrier) == 512
    expected, nodes = same_as_placement(oracle_category("chain2"), carrier)
    assert len(expected) == 3**9
    assert max(map(max, expected)) == 511
