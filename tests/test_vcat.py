"""V-category axioms, separation, opposites, the tensor in V-Cat, and the
one row type: every hom and distributor row is `bytes`."""

import itertools

import pytest

from vqcat.dist import Distributor, validate_distributor
from vqcat.errors import QuantaleMismatch, ReflexivityFail, TransitivityFail, VCatError
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.vcat import (
    VCategory,
    discrete,
    opposite,
    quantale_as_vcategory,
    separation_witness,
    tensor_vcat,
    underlying_order,
    validate_vcategory,
)

from categories import is_separated


def test_quantale_as_vcategory_valid():
    for name in BUILTIN_NAMES:
        q = builtin(name)
        x = quantale_as_vcategory(q)
        assert len(x) == q.n
        assert is_separated(x)


def test_discrete_valid(two):
    x = discrete(two, ("p", "q"))
    order = underlying_order(x)
    assert order == ((True, False), (False, True))


def test_reflexivity_witness(two):
    with pytest.raises(ReflexivityFail) as exc:
        validate_vcategory(two, ("p", "q"), ((0, 0), (0, 1)))
    assert exc.value.witness == ("p",)


def test_transitivity_witness(two):
    # p<=q and q<=r but not p<=r
    hom = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    with pytest.raises(TransitivityFail) as exc:
        validate_vcategory(two, ("p", "q", "r"), hom)
    assert exc.value.witness == ("p", "q", "r")


@pytest.mark.parametrize(
    "hom, witness",
    [
        (((1, 1),), (1, 2)),
        (((1, 1), (0,)), ("q", 1)),
        (((1, 2), (0, 1)), ("p", "q", 2)),
    ],
)
def test_shape_and_range_errors_are_typed(two, hom, witness):
    with pytest.raises(VCatError) as exc:
        validate_vcategory(two, ("p", "q"), hom)
    assert exc.value.witness == witness


def test_tensor_over_different_quantales(two, luk3):
    with pytest.raises(QuantaleMismatch):
        tensor_vcat(quantale_as_vcategory(two), quantale_as_vcategory(luk3))


def test_underlying_order_luk3(luk3, v_luk):
    # e = 1 is the top, so x <= x' iff residuate(x,x') = 1 iff chain order
    order = underlying_order(v_luk)
    for a in range(3):
        for b in range(3):
            assert order[a][b] == (a <= b)


def test_boolean_categories_are_preorders(two):
    # over the Boolean quantale, the valid hom matrices are exactly the
    # reflexive transitive boolean relations
    for bits in range(2 ** 4):
        hom = tuple(
            tuple((bits >> (2 * a + b)) & 1 for b in range(2)) for a in range(2)
        )
        reflexive = all(hom[a][a] for a in range(2))
        transitive = all(
            not (hom[a][b] and hom[b][c]) or hom[a][c]
            for a, b, c in itertools.product(range(2), repeat=3)
        )
        try:
            validate_vcategory(two, ("p", "q"), hom)
            ok = True
        except (ReflexivityFail, TransitivityFail):
            ok = False
        assert ok == (reflexive and transitive)


def test_opposite_involutive(chain2):
    assert opposite(opposite(chain2)) == chain2
    assert underlying_order(opposite(chain2)) == tuple(
        zip(*underlying_order(chain2))
    )


def test_opposite_preserves_separation():
    for name in BUILTIN_NAMES:
        x = quantale_as_vcategory(builtin(name))
        assert is_separated(opposite(x))


def test_indiscrete_not_separated(two):
    x = validate_vcategory(two, ("p", "q"), ((1, 1), (1, 1)))
    assert not is_separated(x)
    assert separation_witness(x) == (0, 1)


def test_tensor_sizes_and_names(chain2, v_two):
    t = tensor_vcat(chain2, v_two)
    assert len(t) == len(chain2) * len(v_two)
    assert t.objects[0] == "(x0,0)"


def test_r422_square_not_separated(r422):
    v = quantale_as_vcategory(r422)
    vv = tensor_vcat(v, v)
    assert not is_separated(vv)
    assert separation_witness(vv) is not None
    order = underlying_order(vv)
    ae = vv.objects.index("(a,e)")
    ea = vv.objects.index("(e,a)")
    assert order[ae][ea] and order[ea][ae]


def test_row_type_guard_sees_a_row_that_is_not_bytes(two, chain2):
    # the conftest guard fails any test that builds a matrix of other rows
    with pytest.raises(pytest.fail.Exception, match="VCategory.hom is not a tuple of bytes"):
        VCategory(two, ("x0", "x1"), ((1, 1), (0, 1)))
    with pytest.raises(pytest.fail.Exception, match="VCategory.hom is not a tuple of bytes"):
        VCategory(two, ("x0", "x1"), [b"\1\1", b"\0\1"])
    with pytest.raises(pytest.fail.Exception, match="Distributor.mat is not a tuple of bytes"):
        Distributor(chain2, chain2, (b"\1\1", bytearray(b"\0\1")))
    assert VCategory(two, ("x0", "x1"), (b"\1\1", b"\0\1")) == chain2


@pytest.mark.parametrize(
    "row", [(-1, 1), (256, 1), (None, 1), 2], ids=["-1", "256", "None", "int"]
)
def test_rows_of_other_than_element_indices_are_typed_errors(two, chain2, row):
    # validation keeps rows as bytes; what no byte holds is no element, and
    # an int is no row, though `bytes(2)` would be two zero bytes
    with pytest.raises(VCatError, match="not element indices below 256"):
        validate_vcategory(two, ("p", "q"), ((1, 1), row))
    with pytest.raises(VCatError, match="not element indices below 256"):
        validate_distributor(chain2, chain2, ((1, 1), row))
