"""The meets of residuations that the library reads off `kernel.hom_matrix`,
against the per-cell folds they replaced (`tests/categories.py`): the
composition inequality of `validate_vcategory`, the bimodule condition of
`validate_distributor`, `right_extension`, `right_lifting` and `D_all`,
and `kernel.product_failure` itself.  The draws run over every builtin,
V-luk12 (J = 11, two blocks of bytes), the one-element V and empty
categories."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqcat.dist import (
    Distributor,
    VFunctor,
    compose_dist,
    identity_dist,
    right_extension,
    right_lifting,
    validate_distributor,
)
from vqcat.errors import TransitivityFail, VCatError
from vqcat.kernel import product_failure
from vqcat.presheaf import D_all, enumerate_presheaves
from vqcat.quantale import BUILTIN_NAMES, builtin, validate_quantale
from vqcat.tensorprod import enumerate_vfunctors, star_autonomy_check
from vqcat.vcat import discrete, validate_vcategory

from categories import (
    D_all_by_fold,
    ORACLE_CATEGORIES,
    bimodule_failures_by_loop,
    closure,
    composition_failure_by_loop,
    lukasiewicz,
    oracle_category,
    random_categories,
    random_sup_lattices,
    right_extension_by_fold,
    right_lifting_by_fold,
    star_autonomy_by_hom,
)

ONE = validate_quantale(("0",), ((True,),), ((0,),), 0)
QUANTALES = [builtin(n) for n in BUILTIN_NAMES] + [lukasiewicz(12), ONE]


def matrices(q, rows, cols):
    """A matrix of `bytes` rows over q, any element in any cell."""
    row = st.tuples(*[st.integers(0, q.n - 1)] * cols).map(bytes)
    return st.tuples(*[row] * rows)


@st.composite
def categories(draw, q, max_objects=3):
    """A random V-category over q, or the empty one."""
    if draw(st.integers(0, 4)) == 0:
        return discrete(q, ())
    return draw(random_categories([q], max_objects))


@st.composite
def near_categories(draw):
    """A hom matrix with e below the diagonal: a random one, the closure of
    one, or the closure with one cell changed."""
    q = draw(st.sampled_from(QUANTALES))
    m = draw(st.integers(0, 5))
    raw = [list(row) for row in draw(matrices(q, m, m))]
    mode = draw(st.sampled_from(["raw", "closed", "changed"]))
    hom = raw if mode == "raw" else closure(q, raw)
    if mode == "changed" and m:
        hom[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] = draw(
            st.integers(0, q.n - 1)
        )
    for a in range(m):
        hom[a][a] = q.join[hom[a][a]][q.unit]
    return q, tuple(map(bytes, hom))


@settings(max_examples=400, deadline=None)
@given(near_categories())
def test_validate_vcategory_matches_the_composition_loop(drawn):
    # the same verdict, and on failure the loop's first (x, y, z)
    q, hom = drawn
    names = tuple(f"x{a}" for a in range(len(hom)))
    want = composition_failure_by_loop(q, hom)
    if want is None:
        assert validate_vcategory(q, names, hom).hom == hom
    else:
        with pytest.raises(TransitivityFail) as exc:
            validate_vcategory(q, names, hom)
        assert exc.value.witness == tuple(names[k] for k in want)


def product_failure_by_loop(q, left, us, ws):
    """The first (i, j, b) with left[i][j] * us[j][b] not below ws[i][b]."""
    for i, row in enumerate(left):
        for j, v in enumerate(row):
            for b, (u, w) in enumerate(zip(us[j], ws[i])):
                if not q.leq[q.mult[v][u]][w]:
                    return i, j, b
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(QUANTALES), *[st.integers(0, 4)] * 3, st.data())
def test_product_failure_matches_the_triple_loop(q, r, s, p, data):
    # rectangles, empty ones included; bottoms make many products pass
    left = data.draw(matrices(q, r, s))
    us = data.draw(matrices(q, s, p))
    ws = data.draw(st.one_of(matrices(q, r, p), st.just((bytes([q.top]) * p,) * r)))
    assert product_failure(q, left, us, ws) == product_failure_by_loop(q, left, us, ws)


@st.composite
def distributor_inputs(draw):
    """Categories X and Y and a matrix X -|-> Y: a random one, the bimodule
    Y . phi . X it generates, or that bimodule with one cell changed."""
    q = draw(st.sampled_from(QUANTALES))
    x, y = draw(categories(q)), draw(categories(q))
    mat = draw(matrices(q, len(y), len(x)))
    mode = draw(st.sampled_from(["raw", "closed", "changed"]))
    if mode != "raw":
        phi = Distributor(x, y, mat)
        mat = compose_dist(identity_dist(y), compose_dist(phi, identity_dist(x))).mat
    if mode == "changed" and len(x) and len(y):
        cells = [bytearray(row) for row in mat]
        cells[draw(st.integers(0, len(y) - 1))][draw(st.integers(0, len(x) - 1))] = draw(
            st.integers(0, q.n - 1)
        )
        mat = tuple(map(bytes, cells))
    return x, y, mat


@settings(max_examples=400, deadline=None)
@given(distributor_inputs())
def test_validate_distributor_matches_the_bimodule_loop(drawn):
    # the same verdict, and on failure a (cod, dom) cell that the loop fails
    x, y, mat = drawn
    failing = bimodule_failures_by_loop(x, y, mat)
    if not failing:
        assert validate_distributor(x, y, mat).mat == mat
        return
    with pytest.raises(VCatError, match="^bimodule condition failed$") as exc:
        validate_distributor(x, y, mat)
    cod_obj, dom_obj = exc.value.witness
    assert (y.objects.index(cod_obj), x.objects.index(dom_obj)) in failing


def test_distributor_entry_past_the_elements_is_a_typed_error(chain2):
    # an entry in [q.n, 256) is named before the kernel, whose tables would
    # read it as bottom
    with pytest.raises(VCatError) as exc:
        validate_distributor(chain2, chain2, ((1, 5), (0, 1)))
    assert str(exc.value) == "phi[x0][x1] = 5 is not a quantale index"
    assert exc.value.witness == ("x0", "x1", 5)


@st.composite
def three_categories(draw):
    q = draw(st.sampled_from(QUANTALES))
    return tuple(draw(categories(q)) for _ in range(3))


def any_distributor(draw, dom, cod):
    """A `Distributor` of any matrix: the residuations need no bimodule."""
    return Distributor(dom, cod, draw(matrices(dom.quantale, len(cod), len(dom))))


@settings(max_examples=300, deadline=None)
@given(three_categories(), st.data())
def test_right_extension_matches_the_fold(cats, data):
    x, y, z = cats
    xi, phi = any_distributor(data.draw, x, z), any_distributor(data.draw, x, y)
    ext = right_extension(xi, phi)
    assert (ext.dom, ext.cod) == (y, z)
    assert ext.mat == right_extension_by_fold(xi, phi)


@settings(max_examples=300, deadline=None)
@given(three_categories(), st.data())
def test_right_lifting_matches_the_fold(cats, data):
    x, y, z = cats
    psi, xi = any_distributor(data.draw, y, z), any_distributor(data.draw, x, z)
    lift = right_lifting(psi, xi)
    assert (lift.dom, lift.cod) == (x, y)
    assert lift.mat == right_lifting_by_fold(psi, xi)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_D_all_matches_the_fold(data):
    q = data.draw(st.sampled_from(QUANTALES))
    x, y = data.draw(categories(q)), data.draw(categories(q))
    functors = enumerate_vfunctors(x, y)
    if not functors:  # a nonempty X into the empty Y
        return
    f = VFunctor(x, y, data.draw(st.sampled_from(functors)))
    dx, dy = enumerate_presheaves(x), enumerate_presheaves(y)
    assert D_all(f, dx, dy).mapping == D_all_by_fold(f, dx, dy)


@pytest.mark.parametrize("name", ORACLE_CATEGORIES)
def test_star_autonomy_matches_the_hom_comparison(name):
    # A** as a list of sup-maps against A** with its functor hom matrix
    x = oracle_category(name)
    assert star_autonomy_check(x) == star_autonomy_by_hom(x)


@settings(max_examples=40, deadline=None)
@given(random_sup_lattices([builtin(n) for n in BUILTIN_NAMES], max_size=8))
def test_star_autonomy_matches_the_hom_comparison_on_random_sup_lattices(a):
    assert star_autonomy_check(a) == star_autonomy_by_hom(a)
