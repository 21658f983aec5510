"""Randomized law checks (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from vqcat.presheaf import presheaf_hom
from vqcat.quantale import BUILTIN_NAMES, builtin

quantales = st.sampled_from([builtin(n) for n in BUILTIN_NAMES])


@given(quantales, st.data())
def test_residuation_adjunction(q, data):
    u = data.draw(st.integers(0, q.n - 1))
    v = data.draw(st.integers(0, q.n - 1))
    w = data.draw(st.integers(0, q.n - 1))
    assert q.leq[q.mult[u][v]][w] == q.leq[u][q.hom[v][w]]


@given(quantales, st.data())
def test_residuation_antitone_monotone(q, data):
    v = data.draw(st.integers(0, q.n - 1))
    w = data.draw(st.integers(0, q.n - 1))
    w2 = data.draw(st.integers(0, q.n - 1))
    if q.leq[w][w2]:
        assert q.leq[q.hom[v][w]][q.hom[v][w2]]


@settings(max_examples=50)
@given(quantales, st.data())
def test_presheaf_hom_triangle(q, data):
    m = data.draw(st.integers(1, 3))
    vec = st.tuples(*([st.integers(0, q.n - 1)] * m))
    phi, psi, chi = data.draw(vec), data.draw(vec), data.draw(vec)
    lhs = q.mult[presheaf_hom(q, phi, psi)][presheaf_hom(q, psi, chi)]
    assert q.leq[lhs][presheaf_hom(q, phi, chi)]
