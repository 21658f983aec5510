"""Presheaf enumeration, Yoneda, the monad data, inverters, Cauchy completion."""

import itertools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

import vqcat
from vqcat.cocomplete import check_cocomplete
from vqcat.dist import (
    functor_hom,
    identity_dist,
    validate_distributor,
)
from vqcat.errors import SizeExceeded, VCatError
from vqcat.presheaf import (
    D_all,
    D_inv,
    D_on_functor,
    cauchy_completion,
    d0,
    d2,
    dist_to_functor,
    enumerate_presheaves,
    inverter,
    mu,
    yoneda,
)
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.textio import parse_files
from vqcat.vcat import (
    discrete,
    opposite,
    quantale_as_vcategory,
    tensor_vcat,
    unit_category,
)

from categories import (
    ORACLE_CATEGORIES,
    functor_to_dist,
    heyting,
    hom_ij,
    is_presheaf_vector,
    is_separated,
    lukasiewicz,
    oracle_category,
    poset,
    random_sup_lattices,
    validate_functor,
)

DATA = Path(vqcat.__file__).parent / "data"


def naive_presheaves(x):
    """Filter every |V|^m vector against the downset condition."""
    return [
        v
        for v in itertools.product(range(x.quantale.n), repeat=len(x))
        if is_presheaf_vector(x, v)
    ]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_enumeration_matches_naive_filter(name):
    q = builtin(name)
    cases = [
        unit_category(q),
        discrete(q, ("p", "q")),
        quantale_as_vcategory(q),
    ]
    for x in cases:
        if q.n ** len(x) > 10 ** 5:
            continue
        dx = enumerate_presheaves(x)
        assert list(dx.vectors) == sorted(map(bytes, naive_presheaves(x)))


def test_unit_category_presheaves_are_V(luk3):
    dx = enumerate_presheaves(unit_category(luk3))
    assert len(dx) == luk3.n
    # hom is residuation
    for v in range(luk3.n):
        for w in range(luk3.n):
            assert hom_ij(dx, dx.index[bytes((v,))], dx.index[bytes((w,))]) == luk3.hom[v][w]


def test_chain2_has_three_downsets(chain2):
    dx = enumerate_presheaves(chain2)
    assert len(dx) == 3
    assert set(dx.vectors) == {b"\0\0", b"\1\0", b"\1\1"}


def test_presheaf_category_separated(chain2, v_luk, sugihara3):
    for x in (chain2, v_luk, quantale_as_vcategory(sugihara3)):
        assert is_separated(enumerate_presheaves(x).cat)


def test_node_cap_raises(r422):
    x = tensor_vcat(
        quantale_as_vcategory(r422), quantale_as_vcategory(r422)
    )
    with pytest.raises(SizeExceeded):
        enumerate_presheaves(x, node_cap=10)


# the least node_cap under which each presheaf enumeration succeeds; `--caps`
# NODES means the same as long as these hold
PRESHEAF_NODES = {
    "V-two": 5, "Vop-two": 5, "VxV-two": 16, "DV-two": 9,
    "V-heyting3": 16, "Vop-heyting3": 15, "VxV-heyting3": 222, "DV-heyting3": 77,
    "V-sugihara3": 11, "Vop-sugihara3": 11, "VxV-sugihara3": 113, "DV-sugihara3": 23,
    "V-lukasiewicz3": 16, "Vop-lukasiewicz3": 16, "VxV-lukasiewicz3": 289,
    "DV-lukasiewicz3": 103,
    "V-r422": 18, "Vop-r422": 18, "VxV-r422": 215, "DV-r422": 32,
    "V-powerset_z2": 18, "Vop-powerset_z2": 18, "VxV-powerset_z2": 215, "DV-powerset_z2": 32,
    "V-luk8": 1271,
    "V-heyt9": 2806,
    "bool4-two": 1098,
    "disc10-two": 2046,
}


def pinned_category(name):
    """V, V^op, V (x) V or D(V) over a builtin, V over luk8 or heyt9, the
    2^4 poset or the 10-object discrete category over `two`."""
    if name == "V-luk8":
        return quantale_as_vcategory(lukasiewicz(8))
    if name == "V-heyt9":
        return quantale_as_vcategory(heyting(9))
    if name == "bool4-two":
        return poset(tuple(range(16)), lambda i, j: i & j == i)
    if name == "disc10-two":
        return discrete(builtin("two"), [f"c{i}" for i in range(10)])
    kind, q = name.split("-", 1)
    v = quantale_as_vcategory(builtin(q))
    return {
        "V": lambda: v,
        "Vop": lambda: opposite(v),
        "VxV": lambda: tensor_vcat(v, v),
        "DV": lambda: enumerate_presheaves(v).cat,
    }[kind]()


@pytest.mark.parametrize("name", PRESHEAF_NODES)
def test_presheaf_node_count_is_pinned(name):
    x, nodes = pinned_category(name), PRESHEAF_NODES[name]
    enumerate_presheaves(x, node_cap=nodes)
    with pytest.raises(SizeExceeded, match=f"presheaf enumeration exceeded {nodes - 1} nodes"):
        enumerate_presheaves(x, node_cap=nodes - 1)


def rows_only(x):
    """D(x) after `len` and a successful `check_cocomplete`, which need
    only its byte rows."""
    dx = enumerate_presheaves(x)
    n = len(dx)
    assert check_cocomplete(x, dx).dx is dx
    assert "vectors" not in vars(dx) and "index" not in vars(dx)
    assert len(dx.vectors) == n == len(set(dx.vectors))
    assert list(dx.vectors) == sorted(dx.vectors)
    return dx


@pytest.mark.parametrize("name", ["bool4-two", "V-luk8"])
def test_len_and_cocompleteness_decode_no_vector(name):
    rows_only(pinned_category(name))


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(random_sup_lattices([builtin(n) for n in BUILTIN_NAMES]))
def test_len_and_cocompleteness_decode_no_vector_on_random_sup_lattices(x):
    rows_only(x)


@pytest.mark.parametrize("name", ["bool4-two", "V-luk8", "VxV-r422"])
def test_index_is_built_on_first_read_and_inverts_vectors(name):
    dx = enumerate_presheaves(pinned_category(name))
    assert "index" not in vars(dx)
    index = dx.index
    assert dx.index is index and "vectors" in vars(dx)
    assert len(index) == len(dx.vectors) == len(dx)
    assert all(dx.vectors[i] == v for v, i in index.items())


def test_yoneda_lemma_equality(chain2, v_luk):
    for x in (chain2, v_luk):
        dx = enumerate_presheaves(x)
        y = yoneda(x, dx)
        for a in range(len(x)):
            for k, phi in enumerate(dx.vectors):
                assert hom_ij(dx, y.mapping[a], k) == phi[a]
        # fully faithful
        for a in range(len(x)):
            for b in range(len(x)):
                assert hom_ij(dx, y.mapping[a], y.mapping[b]) == x.hom[a][b]


def test_identity_dist_classifies_to_yoneda(chain2):
    dx = enumerate_presheaves(chain2)
    f = dist_to_functor(identity_dist(chain2), dx)
    assert f.mapping == yoneda(chain2, dx).mapping


def test_classification_roundtrip(two, chain2):
    dx = enumerate_presheaves(chain2)
    other = discrete(two, ("p", "q"))
    mats = itertools.product(range(2), repeat=4)
    for flat in mats:
        mat = (flat[0:2], flat[2:4])
        try:
            phi = validate_distributor(other, chain2, mat)
        except VCatError:
            continue
        f = dist_to_functor(phi, dx)
        assert functor_to_dist(f, dx).mat == phi.mat


def test_D_functor_local_full_faithfulness(chain2):
    dx = enumerate_presheaves(chain2)
    maps = [(0, 0), (0, 1), (1, 1)]
    fs = [validate_functor(chain2, chain2, m) for m in maps]
    for f in fs:
        for g in fs:
            df = D_on_functor(f, dx, dx)
            dg = D_on_functor(g, dx, dx)
            assert functor_hom(df, dg) == functor_hom(f, g)


def test_triple_adjunction_chain2(chain2):
    dx = enumerate_presheaves(chain2)
    from vqcat.dist import is_adjoint_functors

    for m in [(0, 0), (0, 1), (1, 1)]:
        f = validate_functor(chain2, chain2, m)
        df = D_on_functor(f, dx, dx)
        dinv = D_inv(f, dx, dx)
        dall = D_all(f, dx, dx)
        assert is_adjoint_functors(df, dinv)
        assert is_adjoint_functors(dinv, dall)


def test_mu_identities(chain2):
    dx = enumerate_presheaves(chain2)
    ddx = enumerate_presheaves(dx.cat)
    m = mu(chain2, dx, ddx)
    y = yoneda(chain2, dx)
    y_d = yoneda(dx.cat, ddx)
    dy = D_on_functor(y, dx, ddx)
    for k in range(len(dx)):
        assert m.mapping[dy.mapping[k]] == k
        assert m.mapping[y_d.mapping[k]] == k


def test_d2_on_representables(chain2):
    dx = enumerate_presheaves(chain2)
    xy = tensor_vcat(chain2, chain2)
    dxy = enumerate_presheaves(xy)
    f = d2(dx, dx, dxy)
    y = yoneda(chain2, dx)
    y2 = yoneda(xy, dxy)
    for a in range(2):
        for b in range(2):
            pair = f.mapping[y.mapping[a] * len(dx) + y.mapping[b]]
            assert pair == y2.mapping[a * 2 + b]


def test_d0_picks_unit(luk3):
    du = enumerate_presheaves(unit_category(luk3))
    f = d0(luk3, du)
    assert du.vectors[f.mapping[0]] == bytes((luk3.unit,))


def test_d2_vector(luk3):
    # d2(phi, psi) is the vector (phi(x) * psi(y)) in pair order
    x = discrete(luk3, ("p", "q"))
    dx = enumerate_presheaves(x)
    dxy = enumerate_presheaves(tensor_vcat(x, x))
    f = d2(dx, dx, dxy)
    phi, psi = dx.index[bytes((1, 2))], dx.index[bytes((0, 1))]
    assert dxy.vectors[f.mapping[phi * len(dx) + psi]] == bytes(
        (luk3.mult[1][0], luk3.mult[1][1], luk3.mult[2][0], luk3.mult[2][1])
    )


def test_inverter_of_equal_pair(chain2):
    f = validate_functor(chain2, chain2, (0, 1))
    sub, kept = inverter(f, f)
    assert kept == (0, 1)
    assert sub.hom == chain2.hom


def test_cauchy_completion_chain2(chain2):
    dx = enumerate_presheaves(chain2)
    sub, kept = cauchy_completion(chain2, dx)
    y = yoneda(chain2, dx)
    assert sorted(kept) == sorted(y.mapping)


CAUCHY_CASES = (
    [(f"unit-{n}", unit_category(builtin(n))) for n in BUILTIN_NAMES]
    + [(n, oracle_category(n)) for n in ORACLE_CATEGORIES]
    + [
        (f"{path.stem}.{name}", x)
        for path in sorted(DATA.glob("*.vcat"))
        for name, x in parse_files([str(path)]).vcats.items()
    ]
)


@pytest.mark.parametrize("x", [x for _, x in CAUCHY_CASES], ids=[i for i, _ in CAUCHY_CASES])
def test_cauchy_completion_matches_inverter(x):
    # the unit inequality keeps exactly the inverter of (D y, D_forall y)
    # computed from the definitions on D(DX), non-integral quantales and
    # non-separated or non-cocomplete X included
    dx = enumerate_presheaves(x)
    ddx = enumerate_presheaves(dx.cat)
    y = yoneda(x, dx)
    sub, kept = cauchy_completion(x, dx)
    inv, kept2 = inverter(D_on_functor(y, dx, ddx), D_all(y, dx, ddx))
    assert kept == kept2
    assert sub.hom == inv.hom


def test_cauchy_discrete_two(two):
    x = discrete(two, ("p", "q"))
    dx = enumerate_presheaves(x)
    sub, kept = cauchy_completion(x, dx)
    assert len(kept) == 2
    y = yoneda(x, dx)
    assert sorted(kept) == sorted(y.mapping)
