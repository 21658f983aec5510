"""Small categories shared by the oracle tests: V over each builtin quantale,
the chains, M3, the pentagon N5, and H2; the Lukasiewicz and Heyting
chain quantales; the hypothesis strategy `random_categories`; and the
test-only helpers `try_cocomplete`, `cocomplete_by_sup_table`,
`left_adjoints`, `is_presheaf_vector` and `hom_ij`."""

from hypothesis import strategies as st

from vqcat.cocomplete import check_cocomplete, sup_target
from vqcat.errors import NotCocomplete, NotSeparated
from vqcat.kernel import hom_matrix
from vqcat.presheaf import DEFAULT_NODE_CAP, enumerate_presheaves, presheaf_hom
from vqcat.quantale import BUILTIN_NAMES, builtin, validate_quantale
from vqcat.vcat import is_separated, quantale_as_vcategory, row_object, validate_vcategory


def chain_quantale(n, mul):
    leq = [[x <= y for y in range(n)] for x in range(n)]
    mult = [[mul(x, y) for y in range(n)] for x in range(n)]
    return validate_quantale([f"{x}/{n - 1}" for x in range(n)], leq, mult, n - 1)


def lukasiewicz(n):
    """The n-chain with x*y = max(0, x+y-top)."""
    return chain_quantale(n, lambda x, y: max(0, x + y - (n - 1)))


def heyting(n):
    """The n-chain with meet as tensor."""
    return chain_quantale(n, min)


def poset(names, le):
    """A finite poset as a category over the Boolean quantale."""
    two = builtin("two")
    n = len(names)
    return validate_vcategory(
        two, names, tuple(tuple(int(le(i, j)) for j in range(n)) for i in range(n))
    )


def diamond_m3(two):
    """Bottom, three incomparable middles, top: the smallest non-distributive
    modular lattice, viewed as a category over the Boolean quantale."""
    names = ("bot", "a", "b", "c", "top")
    le = {
        (i, j)
        for i in range(5)
        for j in range(5)
        if i == j or i == 0 or j == 4
    }
    hom = tuple(
        tuple(1 if (i, j) in le else 0 for j in range(5)) for i in range(5)
    )
    return validate_vcategory(two, names, hom)


def oracle_category(name):
    """V over a builtin (`V-<name>`), the chains `chain<n>`, the Boolean
    algebra bool3, M3, the pentagon N5, and H2: x0 <= x1 over heyting3 with
    X(x1, x0) = a, cocomplete but not ccd."""
    if name.startswith("V-"):
        return quantale_as_vcategory(builtin(name[2:]))
    if name.startswith("chain"):
        return poset(tuple(f"x{i}" for i in range(int(name[5:]))), lambda i, j: i <= j)
    if name == "bool3":
        return poset(tuple(f"s{i}" for i in range(8)), lambda i, j: i & j == i)
    if name == "M3":
        return diamond_m3(builtin("two"))
    if name == "H2":
        return validate_vcategory(builtin("heyting3"), ("x0", "x1"), ((2, 1), (2, 2)))
    # N5: bot < a < b < top and bot < c < top
    below = {(0, 1), (1, 2), (0, 2), (0, 3)}
    return poset(
        ("bot", "a", "b", "c", "top"),
        lambda i, j: i == j or i == 0 or j == 4 or (i, j) in below,
    )


ORACLE_CATEGORIES = [f"V-{n}" for n in BUILTIN_NAMES] + ["chain2", "chain3", "M3", "N5", "H2"]
NOT_CCD = ("M3", "N5", "H2")


def try_cocomplete(x, dx=None, node_cap=DEFAULT_NODE_CAP):
    """(witness, None) on success, (None, failing presheaf) on failure."""
    try:
        return check_cocomplete(x, dx, node_cap), None
    except NotCocomplete as exc:
        return None, exc.failing


def cocomplete_by_sup_table(x, dx=None):
    """The full sup table over D(x), the oracle for `check_cocomplete`:
    (sup table, None) if every presheaf has a supremum, else (None, the
    values of the first presheaf in D(x) order with none).  Each supremum
    is the first object whose hom row is `sup_target`, found by a plain
    row search; a non-separated x raises NotSeparated."""
    if not is_separated(x):
        raise NotSeparated("not separated")
    table = []
    for values in (enumerate_presheaves(x) if dx is None else dx).vectors:
        b = row_object(x, sup_target(x, values))
        if b is None:
            return None, values
        table.append(b)
    return tuple(table), None


def left_adjoints(dx, labels, hom):
    """The fold over all of D(X), the oracle for
    `ccd.left_adjoint_candidates`.  For F : D(X) -> C given by `labels` (the
    index of F psi for each presheaf psi) and C's hom matrix, the index of
    the candidate l_c = meet_psi [C(c, F psi), psi] for each object c.
    [v, -] preserves meets, so l_c = meet_k [C(c, k), M_k], M_k the
    pointwise meet of the fiber {psi : F psi = k}: one pass over D(X) and
    one `hom_matrix`."""
    q = dx.base.quantale
    top = (q.top,) * len(dx.base)
    fibers = [[top] for _ in hom]
    for k, psi in zip(labels, dx.vectors, strict=True):
        fibers[k].append(psi)
    meets = [tuple(q.meet_of(set(col)) for col in zip(*fiber)) for fiber in fibers]
    return tuple(map(dx.index.__getitem__, hom_matrix(q, hom, zip(*meets))))


def is_presheaf_vector(x, values) -> bool:
    """The downset condition X(a, b) * values(b) <= values(a), pair by pair."""
    q = x.quantale
    m = len(x)
    return all(
        q.leq[q.mult[x.hom[a][b]][values[b]]][values[a]]
        for a in range(m)
        for b in range(m)
    )


def hom_ij(dx, i, j) -> int:
    """DX(phi_i, phi_j), one entry of D(X)'s hom matrix."""
    return presheaf_hom(dx.base.quantale, dx.vectors[i], dx.vectors[j])


def closure(q, hom):
    """The least V-category hom above a matrix with e on the diagonal."""
    m = len(hom)
    hom = [
        [q.join[hom[a][b]][q.unit] if a == b else hom[a][b] for b in range(m)]
        for a in range(m)
    ]
    while True:
        new = [
            [q.join_of(q.mult[hom[a][c]][hom[c][b]] for c in range(m)) for b in range(m)]
            for a in range(m)
        ]
        if new == hom:
            return hom
        hom = new


@st.composite
def random_categories(draw, quantales, max_objects=4):
    """The closure of a random matrix over one of `quantales`."""
    q = draw(st.sampled_from(quantales))
    m = draw(st.integers(1, max_objects))
    raw = draw(
        st.lists(
            st.lists(st.integers(0, q.n - 1), min_size=m, max_size=m),
            min_size=m,
            max_size=m,
        )
    )
    names = [f"x{a}" for a in range(m)]
    return validate_vcategory(q, names, closure(q, raw))
