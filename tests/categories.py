"""Small categories shared by the oracle tests: V over each builtin quantale,
the chains, M3, the pentagon N5, and H2; the Lukasiewicz and Heyting
chain quantales; the hypothesis strategies `random_categories` and
`random_sup_lattices`; and the test-only helpers `try_cocomplete`,
`cocomplete_by_sup_table`, `left_adjoints`, `dual_category`,
`nuclear_by_carrier`, `unit_and_injectivity`, `search_by_placement`,
`is_presheaf_vector` and `hom_ij`; the per-cell folds that the library
replaced by `kernel.hom_matrix`, kept as oracles:
`composition_failure_by_loop`, `bimodule_failures_by_loop`,
`right_extension_by_fold`, `right_lifting_by_fold`, `D_all_by_fold` and
`star_autonomy_by_hom`; and the small constructions the
library does not need: `validate_functor`, `identity_functor`, `graph`,
`functor_to_dist`, `terminal_category`, `is_separated` and
`right_adjoint`."""

from itertools import product
from operator import itemgetter

from hypothesis import assume
from hypothesis import strategies as st

from vqcat.cocomplete import check_cocomplete, dense_generators, sup_target, tensor_obj
from vqcat.dist import Distributor, VFunctor
from vqcat.errors import NoSuchColimit, NotCocomplete, NotSeparated, SizeExceeded
from vqcat.kernel import hom_matrix
from vqcat.presheaf import (
    DEFAULT_NODE_CAP,
    enumerate_presheaves,
    full_subcategory,
    presheaf_hom,
    presheaf_subcategory,
)
from vqcat.quantale import BUILTIN_NAMES, builtin, validate_quantale
from vqcat.tensorprod import (
    build_tensor_product,
    enumerate_cocontinuous,
    extend_bimorphism,
    is_bimorphism,
    vsup_category,
)
from vqcat.vcat import (
    VCategory,
    opposite,
    quantale_as_vcategory,
    row_object,
    separation_witness,
    validate_vcategory,
)


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


class NotAFunctor(ValueError):
    pass


def validate_functor(dom, cod, mapping):
    """The V-functor dom -> cod with object map `mapping`, once
    dom(x, x') <= cod(f x, f x') holds for all x, x'; NotAFunctor names
    the first pair where it fails."""
    mapping = tuple(mapping)
    leq = dom.quantale.leq
    for x, x2 in product(range(len(dom)), repeat=2):
        if not leq[dom.hom[x][x2]][cod.hom[mapping[x]][mapping[x2]]]:
            raise NotAFunctor("hom inequality failed", (dom.objects[x], dom.objects[x2]))
    return VFunctor(dom, cod, mapping)


def identity_functor(x):
    return VFunctor(x, x, tuple(range(len(x))))


def graph(f):
    """The adjoint pair f_* -| f^* of a V-functor f : X -> Y:
    f_*(y, x) = Y(y, f x) goes X -|-> Y, f^*(x, y) = Y(f x, y) goes Y -|-> X."""
    x, y = f.dom, f.cod
    lower = tuple(bytes(y.hom[b][fa] for fa in f.mapping) for b in range(len(y)))
    upper = tuple(y.hom[fa] for fa in f.mapping)
    return Distributor(x, y, lower), Distributor(y, x, upper)


def functor_to_dist(f, dx):
    """The distributor phi(x, y) = f(y)(x) of a functor f into D(X), the
    inverse of `presheaf.dist_to_functor`."""
    cols = zip(*(dx.vectors[fy] for fy in f.mapping))
    return Distributor(f.dom, dx.base, tuple(map(bytes, cols)))


def terminal_category(q):
    """One object with hom top."""
    return VCategory(q, ("0",), (bytes((q.top,)),))


def is_separated(x):
    return separation_witness(x) is None


def right_adjoint(f):
    """The right adjoint g of f : A -> B, or None if f has none, the oracle
    for `cocomplete.is_cocontinuous`.

    f -| g iff B(f x, c) = A(x, g c) for all x and c, so g(c) is the object
    whose column A(-, g c) equals B(f-, c); on a separated A it is unique.
    Such a g makes f a V-functor, so a map that is not one gets None.
    """
    a, b = f.dom, f.cod
    cols = zip(*map(b.hom.__getitem__, f.mapping))
    mapping = tuple(map(a.column_index.get, map(bytes, cols)))
    # an empty A has no columns at all, so zip yields none for B's objects
    if None in mapping or len(mapping) != len(b):
        return None
    return VFunctor(b, a, mapping)


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
    return tuple(map(dx.index.__getitem__, hom_matrix(q, hom, map(bytes, zip(*meets)))))


def dual_category(a, node_cap=DEFAULT_NODE_CAP):
    """A* = the sup-maps of the separated cocomplete a into V, as
    (A*, the sup-maps)."""
    return vsup_category(a, quantale_as_vcategory(a.quantale), node_cap)


def nuclear_by_carrier(x, node_cap=DEFAULT_NODE_CAP):
    """Nuclearity through the carrier, the oracle for `ccd.is_nuclear`.

    Builds T = A (x) A*, the endo category H = [A, A] and the extension of
    the bimorphism (a, h) |-> (z |-> h(z) (x) a); nuclear iff that extension
    is an isomorphism of the carrier onto H, compared hom row by hom row.
    """
    dual, funs = dual_category(x, node_cap)
    h_cat, h_funs = vsup_category(x, x, node_cap)
    h_index = {f.mapping: k for k, f in enumerate(h_funs)}
    t = build_tensor_product(x, dual, node_cap=node_cap)
    if len(t.carrier) != len(h_cat):
        return False

    beta = []
    try:
        for a in range(len(x)):
            for h in funs:
                endo = tuple(tensor_obj(x, h.mapping[z], a) for z in range(len(x)))
                if endo not in h_index:
                    return False
                beta.append(h_index[endo])
    except NoSuchColimit:
        return False
    beta_fun = VFunctor(t.ab, h_cat, tuple(beta))
    if not is_bimorphism(beta_fun, x, dual):
        return False
    try:
        big = extend_bimorphism(t, beta_fun)
    except NoSuchColimit:
        return False
    if len(set(big.mapping)) != len(h_cat):
        return False
    # row bk of H read at big.mapping; one index would make `itemgetter`
    # return the entry itself, not a 1-tuple
    if len(h_cat) > 1:
        pick = itemgetter(*big.mapping)
    else:
        def pick(row):
            return tuple(row[k] for k in big.mapping)
    return all(
        row == bytes(pick(h_cat.hom[bk])) for row, bk in zip(t.carrier.hom, big.mapping)
    )


def unit_and_injectivity(x):
    """For F : A (x) A* -> [A, A] on the ideals zeta_f(a, h) = A*(h, f a)
    of the sup-maps f : A -> A*^op: whether F is fully faithful, by the
    unit of F -| R on every pair of dense generators,
    zeta_f(g, h) = meet_{z in G_A} [h(z), A(g, F zeta_f(z))], and whether
    F is injective.  The two agree on a separated cocomplete A, which is
    why `ccd.is_nuclear` asks only for a bijection."""
    q, objs, colimit = x.quantale, range(len(x)), x.kernel.colimit
    dual, funs = vsup_category(x, quantale_as_vcategory(q))
    gens = dense_generators(x)
    pairs = list(product(gens, dense_generators(dual)))
    images, unit = set(), True
    maps = enumerate_cocontinuous(x, opposite(dual))
    for f in maps:
        image = tuple(colimit(objs, col) for col in zip(*(funs[k].mapping for k in f.mapping)))
        images.add(image)
        unit = unit and all(
            dual.hom[h][f.mapping[g]]
            == q.meet_of(q.hom[funs[h].mapping[z]][x.hom[g][image[z]]] for z in gens)
            for g, h in pairs
        )
    return unit, len(images) == len(maps)


def search_by_placement(dom, cod, node_cap=DEFAULT_NODE_CAP, what="functor"):
    """The unshared search, the oracle for `presheaf.search_vfunctors`: every
    partial mapping is placed one at a time, with no tail searched twice
    sharing its completions.  Returns (the sorted mappings, the nodes used);
    past `node_cap` SizeExceeded says "<what> enumeration exceeded"."""
    m, n = len(dom), len(cod)
    if m == 0:
        return [()], 0
    q = dom.quantale
    leq, dh, ch = q.leq, dom.hom, cod.hom
    order = sorted(range(m), key=lambda a: (-sum(leq[q.unit][dh[b][a]] for b in range(m)), a))
    full = (1 << n) - 1
    fits = {}

    def fit(u, v):
        if (u, v) not in fits:
            fits[u, v] = tuple(
                sum(1 << c for c in range(n) if leq[u][ch[c][c2]] and leq[v][ch[c2][c]])
                for c2 in range(n)
            )
        return fits[u, v]

    # narrow[d]: (later depth, fits row) for every later object constrained by depth d
    narrow = [
        [
            (k, tab)
            for k in range(d + 1, m)
            for tab in [fit(dh[order[k]][s], dh[s][order[k]])]
            if any(f != full for f in tab)
        ]
        for d, s in enumerate(order)
    ]
    img = [0] * m
    out: list[tuple[int, ...]] = []
    nodes = 0

    def place(d, masks):
        nonlocal nodes
        s, mask, last = order[d], masks[d], d + 1 == m
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            nodes += 1
            if nodes > node_cap:
                raise SizeExceeded(
                    f"{what} enumeration exceeded {node_cap} nodes", estimate=node_cap
                )
            img[s] = c
            if last:
                out.append(tuple(img))
                continue
            nxt = masks[:]
            for k, tab in narrow[d]:
                nxt[k] &= tab[c]
                if not nxt[k]:
                    break
            else:
                place(d + 1, nxt)

    place(0, [sum(1 << c for c in range(n) if leq[dh[t][t]][ch[c][c]]) for t in order])
    out.sort()
    return out, nodes


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


@st.composite
def random_sup_lattices(draw, quantales, max_objects=4, max_size=24):
    """The full subcategory of D(X), X from `random_categories`, on a random
    set of presheaves closed under pointwise meets, cotensors [v, -] and
    top.  Closed under all weighted limits in D(X), it is complete, hence
    cocomplete, and separated like D(X); often it is not ccd.  A closure
    of more than `max_size` presheaves is rejected."""
    x = draw(random_categories(quantales, max_objects))
    q = x.quantale
    vectors = enumerate_presheaves(x).vectors
    drawn = draw(st.lists(st.sampled_from(vectors), min_size=2, max_size=6))
    todo = [tuple(phi) for phi in drawn]
    closed = {(q.top,) * len(x)}
    while todo:
        phi = todo.pop()
        if phi in closed:
            continue
        todo += [tuple(q.hom[v][w] for w in phi) for v in range(q.n)]
        todo += [tuple(q.meet[u][w] for u, w in zip(phi, psi)) for psi in closed]
        closed.add(phi)
        assume(len(closed) <= max_size)
    return presheaf_subcategory(x, sorted(map(bytes, closed)))


def composition_failure_by_loop(q, hom):
    """The first (x, y, z) in lexicographic order with X(x, y) * X(y, z)
    not below X(x, z), or None: the loop that `validate_vcategory` ran
    before `kernel.product_failure`."""
    m = len(hom)
    for x in range(m):
        for y in range(m):
            v = hom[x][y]
            for z in range(m):
                if not q.leq[q.mult[v][hom[y][z]]][hom[x][z]]:
                    return x, y, z
    return None


def bimodule_failures_by_loop(dom, cod, mat):
    """Every cell (y2, x2) with Y(y2, y) * phi(y, x) * X(x, x2) not below
    phi(y2, x2) for some y and x, by the four-index loop that
    `validate_distributor` ran before `kernel.product_failure`: phi is a
    bimodule iff the set is empty."""
    q = dom.quantale
    failing = set()
    for y2 in range(len(cod)):
        for y in range(len(cod)):
            left = cod.hom[y2][y]
            for x in range(len(dom)):
                v = q.mult[left][mat[y][x]]
                for x2 in range(len(dom)):
                    if not q.leq[q.mult[v][dom.hom[x][x2]]][mat[y2][x2]]:
                        failing.add((y2, x2))
    return failing


def right_extension_by_fold(xi, phi):
    """(xi <- phi)(z,y) = meet_x [phi(y,x), xi(z,x)], cell by cell."""
    q = xi.dom.quantale
    return tuple(
        bytes(
            q.meet_of(q.hom[phi.mat[y][x]][xi.mat[z][x]] for x in range(len(xi.dom)))
            for y in range(len(phi.cod))
        )
        for z in range(len(xi.cod))
    )


def right_lifting_by_fold(psi, xi):
    """(psi -> xi)(y,x) = meet_z [psi(z,y), xi(z,x)], cell by cell."""
    q = psi.dom.quantale
    return tuple(
        bytes(
            q.meet_of(q.hom[psi.mat[z][y]][xi.mat[z][x]] for z in range(len(psi.cod)))
            for x in range(len(xi.dom))
        )
        for y in range(len(psi.dom))
    )


def D_all_by_fold(f, dx, dy):
    """The mapping of D_forall f, phi |-> meet_x [Y(fx, -), phi(x)], cell by
    cell."""
    q = f.dom.quantale
    return tuple(
        dy.index[
            bytes(
                q.meet_of(q.hom[f.cod.hom[f.mapping[a]][b]][phi[a]] for a in range(len(f.dom)))
                for b in range(len(dy.base))
            )
        ]
        for phi in dx.vectors
    )


def star_autonomy_by_hom(a, node_cap=DEFAULT_NODE_CAP):
    """Whether evaluation a |-> (g |-> g a) is a bijection of A onto A**
    that keeps the hom, A** built with its functor hom matrix: the
    comparison that `star_autonomy_check` makes without the matrix, by
    Yoneda."""
    vop = opposite(quantale_as_vcategory(a.quantale))
    a1, f1 = vsup_category(a, vop, node_cap)
    a2, f2 = vsup_category(a1, vop, node_cap)
    index2 = {g.mapping: k for k, g in enumerate(f2)}
    ev = [index2.get(tuple(g.mapping[x] for g in f1)) for x in range(len(a))]
    if len(a2) != len(a) or None in ev or len(set(ev)) != len(a):
        return False
    return a.hom == full_subcategory(a2, ev).hom
