"""The byte kernel behind `representer`, `tensor_obj` and `join_obj`,
against the meet formula `sup_target` and the per-entry formulas, and
`SupKernel.colimit` and `hom_matrix` against the bitplane kernel that they
replaced (`tests/bitplane.py`)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqcat import cocomplete
from vqcat.cocomplete import (
    check_cocomplete,
    join_obj,
    representer,
    sup_of,
    sup_target,
    tensor_obj,
    weighted_colimit,
)
from vqcat.dist import Distributor, VFunctor, functor_hom, functor_hom_matrix
from vqcat.errors import NoSuchColimit, NotCocomplete
from vqcat.kernel import Planes, SupKernel, hom_matrix, join_irreducibles
from vqcat.presheaf import apply_D, enumerate_presheaves, presheaf_hom
from vqcat.quantale import BUILTIN_NAMES, builtin, validate_quantale
from vqcat.tensorprod import (
    build_tensor_product,
    enumerate_cocontinuous,
    extend_bimorphism,
)
from vqcat.vcat import (
    opposite,
    quantale_as_vcategory,
    row_object,
    tensor_vcat,
    validate_vcategory,
)

from bitplane import BitplaneKernel, bitplane_hom_matrix
from categories import (
    ORACLE_CATEGORIES,
    heyting,
    lukasiewicz,
    oracle_category,
    random_categories,
)


CHAINS = {
    **{f"luk{n}": lukasiewicz(n) for n in (4, 5, 6)},
    **{f"heyt{n}": heyting(n) for n in (4, 5, 6)},
}
QUANTALES = [builtin(n) for n in BUILTIN_NAMES] + list(CHAINS.values())

# V over the builtins and the longer chains, M3, N5, chain2, chain3 and H2
FIXED = {
    **{name: oracle_category(name) for name in ORACLE_CATEGORIES},
    **{f"V-{name}": quantale_as_vcategory(q) for name, q in CHAINS.items()},
}


def tensor_by_formula(x, v, z):
    q = x.quantale
    return row_object(x, tuple(q.hom[v][x.hom[z][b]] for b in range(len(x))))


def join_by_formula(x, objs):
    q = x.quantale
    return row_object(
        x, tuple(q.meet_of(x.hom[z][b] for z in objs) for b in range(len(x)))
    )


def check_tensors_and_joins(x):
    q = x.quantale
    for z in range(len(x)):
        for v in range(q.n):
            want = tensor_by_formula(x, v, z)
            if want is None:
                with pytest.raises(NoSuchColimit) as exc:
                    tensor_obj(x, v, z)
                assert exc.value.weight["target"] == tuple(
                    q.hom[v][x.hom[z][b]] for b in range(len(x))
                )
            else:
                assert tensor_obj(x, v, z) == want
    for size in range(3):
        for objs in itertools.product(range(len(x)), repeat=size):
            want = join_by_formula(x, objs)
            if want is None:
                with pytest.raises(NoSuchColimit) as exc:
                    join_obj(x, objs)
                assert exc.value.weight["target"] == tuple(
                    q.meet_of(x.hom[z][b] for z in objs) for b in range(len(x))
                )
            else:
                assert join_obj(x, iter(objs)) == want


@pytest.mark.parametrize("q", QUANTALES, ids=lambda q: ",".join(q.elements))
def test_join_irreducibles_encode_every_element(q):
    jis = join_irreducibles(q)
    codes = [frozenset(j for j in jis if q.leq[j][w]) for w in range(q.n)]
    assert len(set(codes)) == q.n
    for w, code in enumerate(codes):
        assert q.join_of(code) == w


def test_join_irreducibles_of_known_lattices():
    assert join_irreducibles(lukasiewicz(6)) == (1, 2, 3, 4, 5)
    assert join_irreducibles(builtin("two")) == (1,)
    # the subsets of a 2-set: the two singletons
    assert join_irreducibles(builtin("powerset_z2")) == (1, 2)
    assert join_irreducibles(builtin("r422")) == (1, 2)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_kernel_matches_meet_formula_on_every_presheaf(name):
    for x in (FIXED[name], opposite(FIXED[name])):
        for phi in enumerate_presheaves(x).vectors:
            assert representer(x, phi) == row_object(x, sup_target(x, phi))
        check_tensors_and_joins(x)


@settings(max_examples=150, deadline=None)
@given(random_categories(QUANTALES), st.data())
def test_kernel_matches_meet_formula_on_random_categories(x, data):
    q = x.quantale
    vec = st.lists(st.integers(0, q.n - 1), min_size=len(x), max_size=len(x))
    for _ in range(5):
        # any vector, presheaf or not: the formula and the kernel still agree
        values = data.draw(vec)
        assert representer(x, values) == row_object(x, sup_target(x, values))
    check_tensors_and_joins(x)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weighted_colimit_is_the_sup_of_the_pushforward(data):
    # Z(colim, -) = meet_y [phi(y), Z(f y, -)] equals the meet formula of the
    # pushforward f_* phi, for any object map f and any weight
    z = data.draw(random_categories(QUANTALES))
    q = z.quantale
    y = data.draw(random_categories([q]))
    x = data.draw(random_categories([q]))
    f = VFunctor(y, z, tuple(data.draw(st.integers(0, len(z) - 1)) for _ in range(len(y))))
    entry = st.integers(0, q.n - 1)
    phi = Distributor(
        x, y, tuple(tuple(data.draw(entry) for _ in range(len(x))) for _ in range(len(y)))
    )
    want = [
        row_object(z, sup_target(z, apply_D(f, tuple(row[a] for row in phi.mat))))
        for a in range(len(x))
    ]
    if None in want:
        with pytest.raises(NoSuchColimit) as exc:
            weighted_colimit(phi, f)
        a = want.index(None)
        assert exc.value.weight["x"] == a
        assert exc.value.weight["theta"] == apply_D(f, tuple(row[a] for row in phi.mat))
    else:
        assert weighted_colimit(phi, f).mapping == tuple(want)


def test_non_separated_first_object_wins(two):
    # x0 ~ x1 share a hom row; x2 lies below both
    x = validate_vcategory(
        two, ("x0", "x1", "x2"), ((1, 1, 0), (1, 1, 0), (1, 1, 1))
    )
    assert representer(x, (1, 1, 1)) == 0
    assert representer(x, (1, 0, 0)) == 0
    assert representer(x, (0, 1, 0)) == 0
    assert representer(x, (0, 0, 0)) == 2
    assert tensor_obj(x, 1, 1) == 0
    assert join_obj(x, (1,)) == 0
    assert join_obj(x, (2, 1)) == 0
    for phi in itertools.product(range(2), repeat=3):
        assert representer(x, phi) == row_object(x, sup_target(x, phi))


def not_cocomplete(name):
    if name == "chain2-luk3":
        # the 2-chain with crisp homs lacks the tensors by the middle value
        q = builtin("lukasiewicz3")
        hom = ((q.top, q.top), (q.bottom, q.top))
        return validate_vcategory(q, ("x0", "x1"), hom)
    v = quantale_as_vcategory(builtin("sugihara3"))
    return tensor_vcat(v, v)


@pytest.mark.parametrize("name", ["chain2-luk3", "VxV-sugihara3"])
def test_non_cocomplete_fails_on_the_first_presheaf(name):
    x = not_cocomplete(name)
    dx = enumerate_presheaves(x)
    missing = [phi for phi in dx.vectors if row_object(x, sup_target(x, phi)) is None]
    assert missing
    with pytest.raises(NotCocomplete) as exc:
        check_cocomplete(x, dx)
    assert exc.value.failing.values == missing[0]
    for phi in missing:
        with pytest.raises(NotCocomplete) as exc:
            sup_of(x, phi)
        assert exc.value.failing.values == phi
    check_tensors_and_joins(x)


def test_sup_target_is_off_the_success_path(chain2, v_luk, monkeypatch):
    calls = []

    def counting(x, values):
        calls.append(values)
        return sup_target(x, values)

    monkeypatch.setattr(cocomplete, "sup_target", counting)
    for x in (chain2, v_luk, oracle_category("M3")):
        w = check_cocomplete(x)
        assert len(set(w.sup_index)) == len(x)
        for z in range(len(x)):
            tensor_obj(x, x.quantale.unit, z)
        join_obj(x, range(len(x)))
    t = build_tensor_product(chain2, chain2)
    assert extend_bimorphism(t, t.i).mapping == tuple(range(len(t.carrier)))
    assert calls == []
    # a failure still reports the readable target
    vv = not_cocomplete("VxV-sugihara3")
    with pytest.raises(NoSuchColimit):
        for z in range(len(vv)):
            tensor_obj(vv, vv.quantale.top, z)
    assert len(calls) == 1


def test_kernel_is_built_once_per_category(chain2):
    x = validate_vcategory(chain2.quantale, chain2.objects, chain2.hom)
    assert "kernel" not in vars(x)
    check_cocomplete(x)
    kernel = vars(x)["kernel"]
    tensor_obj(x, 1, 0)
    join_obj(x, (0, 1))
    assert vars(x)["kernel"] is kernel


def scalar_hom_matrix(q, us, ws):
    return tuple(tuple(presheaf_hom(q, u, w) for w in ws) for u in us)


def vector_sets(vectors):
    return st.lists(st.sampled_from(vectors), max_size=8)


@pytest.mark.parametrize("name", sorted(FIXED))
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_hom_matrix_matches_presheaf_hom_on_fixed_categories(name, data):
    for x in (FIXED[name], opposite(FIXED[name])):
        vectors = enumerate_presheaves(x).vectors
        us = data.draw(vector_sets(vectors))
        ws = data.draw(vector_sets(vectors))
        q = x.quantale
        assert hom_matrix(q, us, ws) == scalar_hom_matrix(q, us, ws)


@settings(max_examples=150, deadline=None)
@given(random_categories(QUANTALES), st.data())
def test_hom_matrix_matches_presheaf_hom_on_random_vectors(x, data):
    # presheaves of x or of its opposite, or any vectors at all, of any
    # length from 0 (D of the empty category has the one vector ())
    q = x.quantale
    kind = data.draw(st.sampled_from(["presheaves", "opposite", "any"]))
    if kind == "any":
        m = data.draw(st.integers(0, 4))
        vec = st.tuples(*[st.integers(0, q.n - 1)] * m)
        us = data.draw(st.lists(vec, max_size=8))
        ws = data.draw(st.lists(vec, max_size=8))
    else:
        y = x if kind == "presheaves" else opposite(x)
        vectors = enumerate_presheaves(y).vectors
        us = data.draw(vector_sets(vectors))
        ws = data.draw(vector_sets(vectors))
    assert hom_matrix(q, us, ws) == scalar_hom_matrix(q, us, ws)


@pytest.mark.parametrize("q", QUANTALES, ids=lambda q: ",".join(q.elements))
def test_hom_matrix_on_empty_sets_and_vectors(q):
    empty = validate_vcategory(q, (), ())
    assert enumerate_presheaves(empty).vectors == ((),)
    assert hom_matrix(q, [()], [(), ()]) == ((q.top, q.top),)
    assert hom_matrix(q, [], [(q.top,)]) == ()
    assert hom_matrix(q, [(q.top,), (q.bottom,)], []) == ((), ())


@pytest.mark.parametrize("name", ORACLE_CATEGORIES)
def test_functor_hom_matrix_matches_functor_hom(name):
    # the sup-maps A -> A and A -> V^op, against themselves and reversed
    x = oracle_category(name)
    vop = opposite(quantale_as_vcategory(x.quantale))
    for cod in (x, vop):
        fs = enumerate_cocontinuous(x, cod)
        for gs in (fs, fs[::-1][:5]):
            want = tuple(tuple(functor_hom(f, g) for g in gs) for f in fs)
            assert functor_hom_matrix(cod, fs, gs) == want


# The byte layout's edge cases: J = 0 (no byte bits at all), J = 8 (one
# full byte) and J = 11 (two blocks of bytes).
ONE = validate_quantale(("0",), ((True,),), ((0,),), 0)
BYTE_QUANTALES = {
    **{name: builtin(name) for name in BUILTIN_NAMES},
    **CHAINS,
    "heyt9": heyting(9),
    "luk12": lukasiewicz(12),
    "one": ONE,
}


@pytest.mark.parametrize(
    "name, jis, blocks", [("one", 0, 1), ("heyt9", 8, 1), ("luk12", 11, 2), ("two", 1, 1)]
)
def test_block_count(name, jis, blocks):
    q = BYTE_QUANTALES[name]
    assert len(join_irreducibles(q)) == jis
    assert len(Planes(q).tables) == blocks


@pytest.mark.parametrize("name", sorted(BYTE_QUANTALES))
def test_byte_layout(name):
    # bit i of byte k*m + b is set iff j_(8k+i) <= u_b
    q = BYTE_QUANTALES[name]
    jis = join_irreducibles(q)
    planes = Planes(q)
    for u in itertools.product(range(q.n), repeat=2):
        code = planes.encode(u)
        m = len(u)
        for k in range(len(planes.tables)):
            for b, v in enumerate(u):
                byte = code >> (8 * (k * m + b)) & 0xFF
                below = [q.leq[j][v] for j in jis[8 * k : 8 * k + 8]]
                assert [bool(byte >> i & 1) for i in range(8)] == below + [False] * (8 - len(below))
        assert code >> (8 * len(planes.tables) * m) == 0


def byte_vectors(q, m):
    return st.tuples(*[st.integers(0, q.n - 1)] * m)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BYTE_QUANTALES)), st.integers(0, 5), st.data())
def test_hom_matrix_matches_bitplane_oracle(name, m, data):
    # any vectors, empty us and ws included
    q = BYTE_QUANTALES[name]
    us = data.draw(st.lists(byte_vectors(q, m), max_size=8))
    ws = data.draw(st.lists(byte_vectors(q, m), max_size=8))
    assert hom_matrix(q, us, ws) == bitplane_hom_matrix(q, us, ws)


@settings(max_examples=200, deadline=None)
@given(random_categories(list(BYTE_QUANTALES.values())), st.data())
def test_colimit_matches_bitplane_oracle(x, data):
    q = x.quantale
    kernel, oracle = SupKernel(x), BitplaneKernel(x)
    # the same first object per distinct hom row
    assert sorted(kernel.rows.values()) == sorted(oracle.rows.values())
    objs = st.lists(st.integers(0, len(x) - 1), max_size=6)
    for _ in range(5):
        zs = data.draw(objs)
        values = data.draw(st.lists(st.integers(0, q.n - 1), min_size=len(zs), max_size=len(zs)))
        assert kernel.colimit(zs, values) == oracle.colimit(zs, values)
    for phi in itertools.islice(enumerate_presheaves(x).vectors, 20):
        assert kernel.colimit(range(len(x)), phi) == oracle.colimit(range(len(x)), phi)


@pytest.mark.parametrize("name", sorted(BYTE_QUANTALES))
def test_colimit_on_v_and_the_empty_category(name):
    q = BYTE_QUANTALES[name]
    empty = validate_vcategory(q, (), ())
    assert SupKernel(empty).colimit((), ()) is None
    assert BitplaneKernel(empty).colimit((), ()) is None
    v = quantale_as_vcategory(q)
    kernel, oracle = SupKernel(v), BitplaneKernel(v)
    for z, w in itertools.product(range(len(v)), range(q.n)):
        assert kernel.colimit((z,), (w,)) == oracle.colimit((z,), (w,))
        assert kernel.colimit((z, w), (q.unit, q.unit)) == oracle.colimit((z, w), (q.unit, q.unit))


def test_hom_matrix_on_a_sample_of_D_luk12():
    # 13,312 presheaves with J = 11, two blocks of bytes: every 61st against
    # every 53rd, and the table DX(phi, y -) against the columns of V
    q = BYTE_QUANTALES["luk12"]
    v = quantale_as_vcategory(q)
    vectors = enumerate_presheaves(v).vectors
    us, ws = vectors[::61], vectors[::53]
    assert hom_matrix(q, us, ws) == bitplane_hom_matrix(q, us, ws)
    columns = tuple(zip(*v.hom))
    assert hom_matrix(q, vectors[::7], columns) == bitplane_hom_matrix(q, vectors[::7], columns)


def assert_meet_rows_are_hom_rows(x, vectors):
    """`SupKernel.meet_row` is the row of `hom_matrix` against X's columns."""
    want = hom_matrix(x.quantale, vectors, zip(*x.hom))
    assert tuple(map(SupKernel(x).meet_row, vectors)) == want


@settings(max_examples=200, deadline=None)
@given(random_categories(list(BYTE_QUANTALES.values())), st.data())
def test_meet_row_matches_hom_matrix_on_random_categories(x, data):
    # any vectors, and the first presheaves of D(x)
    vectors = data.draw(st.lists(byte_vectors(x.quantale, len(x)), max_size=8))
    assert_meet_rows_are_hom_rows(x, vectors)
    assert_meet_rows_are_hom_rows(x, enumerate_presheaves(x).vectors[:20])


def test_meet_row_on_a_sample_of_D_luk12():
    # two blocks of bytes: every 7th of the 13,312 presheaves
    v = quantale_as_vcategory(BYTE_QUANTALES["luk12"])
    assert_meet_rows_are_hom_rows(v, enumerate_presheaves(v).vectors[::7])


@pytest.mark.parametrize("n, blocks", [(12, 2), (20, 3)])
def test_multi_block_decode_reads_back_every_element(n, blocks):
    # V-luk12 and V-luk20 (J = 11 and 19): every element, in a vector
    # longer than one block, encoded block by block and decoded; and
    # meet_row, which decodes through it, against hom_matrix
    q = lukasiewicz(n)
    codes = q.tables.planes.tables
    assert len(codes) == blocks
    vector = bytes(itertools.islice(itertools.cycle(range(q.n)), 3 * q.n + 1))
    assert q.tables.decode([vector.translate(code) for code in codes]) == tuple(vector)
    v = quantale_as_vcategory(q)
    assert_meet_rows_are_hom_rows(v, [*v.hom, *zip(*v.hom), tuple(reversed(vector[: q.n]))])


def test_meet_row_over_the_one_element_quantale():
    # J = 0: every row decodes to the one element
    for m in range(4):
        x = validate_vcategory(ONE, tuple(f"x{a}" for a in range(m)), ((0,) * m,) * m)
        assert SupKernel(x).meet_row((0,) * m) == (0,) * m
        assert_meet_rows_are_hom_rows(x, [(0,) * m])


def test_one_element_quantale():
    # J = 0: every vector encodes to 0, and every hom is the one element
    v = quantale_as_vcategory(ONE)
    assert Planes(ONE).encode((0, 0, 0)) == 0
    assert hom_matrix(ONE, [(0, 0)], [(0, 0), (0, 0)]) == ((0, 0),)
    assert hom_matrix(ONE, [()], [()]) == ((0,),)
    assert SupKernel(v).colimit((0,), (0,)) == 0
