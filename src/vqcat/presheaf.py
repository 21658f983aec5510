"""The free cocompletion D: presheaf enumeration, Yoneda structures, monad data.

A presheaf is a V-functor X^op -> V: a vector over the base objects with
X(x,x') * phi(x') <= phi(x).  `enumerate_presheaves` finds them with
`vfunctor_rows`, the one backtracking search, which also enumerates the
V-functors between any two categories (`search_vfunctors` unpacks and sorts
its mappings).  It searches each distinct tail of candidate masks once and
shares its completions, kept as one column of bytes per depth, and returns
one buffer with a row of bytes per mapping.  D(X) keeps those rows, sorted
as bytes, and decodes its vectors only when they are read.  The guard
counts the nodes of the unshared search, not the naive |V|^m candidate
space, which pruning makes meaningless.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .dist import Distributor, VFunctor, identity_dist
from .errors import QuantaleMismatch, SizeExceeded
from .kernel import hom_matrix
from .quantale import Quantale
from .vcat import VCategory, opposite, quantale_as_vcategory, tensor_vcat, unit_category

DEFAULT_NODE_CAP = 2_000_000


@dataclass(frozen=True)
class Presheaf:
    base: VCategory
    values: tuple[int, ...]


class PresheafCategory:
    """D(X) together with its presheaf vectors, kept as sorted byte rows.

    Objects are ordered lexicographically by value-index vector, so indices
    are reproducible across runs.  `rows` holds one `bytes` row of `fmt`
    cells per presheaf (`vfunctor_rows`), sorted; `len` reads only them.
    `vectors` (the value tuples) and `index` (a vector back to its object
    index) are built on first read.  The full hom matrix (`cat`) is built
    on first use by the byte kernel (`kernel.hom_matrix`), a few big-int `&`
    per row and join-irreducible; no decision reads it.
    """

    def __init__(self, base: VCategory, rows, fmt: str):
        self.base, self.rows, self.fmt = base, rows, fmt
        self._cat = None

    def __len__(self):
        return len(self.rows)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_unpack(b"".join(self.rows), len(self.rows), len(self.base), self.fmt))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {v: i for i, v in enumerate(self.vectors)}

    @property
    def cat(self) -> VCategory:
        if self._cat is None:
            self._cat = presheaf_subcategory(self.base, self.vectors)
        return self._cat


def presheaf_hom(q: Quantale, phi, psi) -> int:
    """DX(phi, psi) = meet_x [phi(x), psi(x)]."""
    return q.meet_of(q.hom[v][w] for v, w in zip(phi, psi))


def vector_name(x: VCategory, values) -> str:
    return "<" + ",".join(x.quantale.elements[v] for v in values) + ">"


def presheaf_subcategory(x: VCategory, vectors) -> VCategory:
    """The full subcategory of D(x) on the given presheaf vectors."""
    vectors = tuple(vectors)
    return VCategory(
        x.quantale,
        tuple(vector_name(x, v) for v in vectors),
        hom_matrix(x.quantale, vectors, vectors),
    )


@lru_cache(maxsize=64)
def _cells(n: int):
    """The cell of each image c < n, a big-endian int of 1 byte if n <= 256,
    else of 2 or 4, so that bytes order is image order; its width, and its
    `struct` format."""
    fmt = "B" if n <= 256 else "H" if n <= 1 << 16 else "I"
    raw, w = struct.pack(f">{n}{fmt}", *range(n)), struct.calcsize(fmt)
    return tuple(raw[c * w : (c + 1) * w] for c in range(n)), w, fmt


def _unpack(buf, count: int, m: int, fmt: str) -> list:
    """The mapping tuples of `count` rows of m cells of `fmt` in `buf`."""
    if not m:
        return [()] * count  # struct cannot step over rows of no bytes
    return list(struct.iter_unpack(f">{m}{fmt}", buf))


def search_vfunctors(dom: VCategory, cod: VCategory, node_cap: int, what: str):
    """All V-functors dom -> cod, as sorted mapping tuples: the rows of
    `vfunctor_rows`, the one search, unpacked and sorted."""
    buf, count, fmt = vfunctor_rows(dom, cod, node_cap, what)
    out = _unpack(buf, count, len(dom), fmt)
    out.sort()
    return out


def vfunctor_rows(dom: VCategory, cod: VCategory, node_cap: int, what: str):
    """All V-functors dom -> cod, as one buffer of rows in search order, the
    row count and the cell format: the one search.

    Each object's candidate images are an int bitmask, first the images c
    with dom(t, t) <= cod(c, c).  Placing an image c2 at s narrows every
    later object t's mask with one `&` against `fits[u, v][c2]`, the images c
    with u <= cod(c, c2) and v <= cod(c2, c) for u = dom(t, s), v = dom(s, t);
    a branch that empties a mask is cut.  Objects are placed most-constrained
    first: descending number of objects below them in dom, ties by index.

    Once depth d is placed, the completions depend only on the tail, the
    masks of depths d, d+1, ...  Each distinct tail is searched; from its
    second search on (tails near the root, with the big completions, are
    mostly met once) its completions are kept column by column, one `bytes`
    per depth with one `_cells` cell each, and reused.  A parent joins its
    children's columns.  A node is counted per placement of the unshared
    search, a reused tail adding its nodes, so past `node_cap` SizeExceeded
    says "<what> enumeration exceeded" exactly when the unshared search does.

    The root's columns are copied into one buffer, one strided slice
    assignment per column and cell byte, so that each mapping is one row of
    cells in object order.  Cells are big-endian and of one width, so
    sorting the rows as bytes sorts the mappings as tuples.

    For presheaves (dom = X^op, cod = V) no mask is ever emptied: the join
    of X(t, s) * phi(s) over the placed s always fits t, because
    X(t, u) * X(u, s) <= X(t, s).  So a presheaf search cuts no branch
    early, and its node count is the number of consistent partial presheaves
    in placement order.

    dom and cod must be over one quantale, else QuantaleMismatch.
    """
    if dom.quantale != cod.quantale:
        raise QuantaleMismatch(f"{what} search between V-categories over different quantales")
    m, n = len(dom), len(cod)
    if m == 0:
        return b"", 1, "B"  # the one empty mapping
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

    # narrow[d]: (index in the tail past d, fits row) for every later object
    # constrained by depth d
    narrow = [
        [
            (k - d - 1, tab)
            for k in range(d + 1, m)
            for tab in [fit(dh[order[k]][s], dh[s][order[k]])]
            if tab.count(full) < n
        ]
        for d, s in enumerate(order)
    ]
    cells, w, fmt = _cells(n)
    memo: dict = {}  # tail -> False once searched, then (nodes, columns)
    nodes, exceeded = 0, f"{what} enumeration exceeded {node_cap} nodes"

    def solve(d, masks):
        """The columns of depths d, ... over the completions of `masks`, or ()."""
        nonlocal nodes
        hit = memo.get(masks)
        if hit:
            nodes += hit[0]
            if nodes > node_cap:
                raise SizeExceeded(exceeded, estimate=node_cap)
            return hit[1]
        start, mask, rest = nodes, masks[0], masks[1:]
        heads, tails = [], []
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            nodes += 1
            if nodes > node_cap:
                raise SizeExceeded(exceeded, estimate=node_cap)
            if not rest:
                heads.append(cells[c])
                continue
            nxt = list(rest)
            for k, tab in narrow[d]:
                nxt[k] &= tab[c]
                if not nxt[k]:
                    break
            else:
                sub = solve(d + 1, tuple(nxt))
                if sub:
                    heads.append(cells[c] * (len(sub[0]) // w))
                    tails.append(sub)
        cols = (b"".join(heads), *map(b"".join, zip(*tails))) if heads else ()
        memo[masks] = False if hit is None else (nodes - start, cols)
        return cols

    root = tuple(sum(1 << c for c in range(n) if leq[dh[t][t]][ch[c][c]]) for t in order)
    try:
        cols = solve(0, root)
    finally:
        memo.clear()
    if not cols:
        return b"", 0, fmt
    buf = bytearray(len(cols[0]) * m)
    for col, t in zip(cols, order):
        for k in range(w):
            buf[t * w + k :: m * w] = col[k::w]
    return buf, len(cols[0]) // w, fmt


def enumerate_presheaves(x: VCategory, node_cap: int = DEFAULT_NODE_CAP) -> PresheafCategory:
    """All presheaves on x: the V-functors x^op -> V, the rows of
    `vfunctor_rows` sorted as bytes."""
    v = quantale_as_vcategory(x.quantale)
    buf, count, fmt = vfunctor_rows(opposite(x), v, node_cap, "presheaf")
    if not buf:  # no presheaf, or the one on an empty x
        rows = [b""] * count
    else:
        rows = [row for (row,) in struct.iter_unpack(f"{len(buf) // count}s", buf)]
    rows.sort()
    return PresheafCategory(x, rows, fmt)


def yoneda(x: VCategory, dx: PresheafCategory) -> VFunctor:
    """y(x) = X(-, x), the column of the hom matrix."""
    return dist_to_functor(identity_dist(x), dx)


def dist_to_functor(phi: Distributor, dx: PresheafCategory) -> VFunctor:
    """phi: Y -|-> X becomes f(y) = phi(-, y) into D(X)."""
    if phi.cod != dx.base:
        raise ValueError("distributor codomain does not match presheaf base")
    nx = len(phi.cod)
    mapping = tuple(
        dx.index[tuple(phi.mat[a][y] for a in range(nx))] for y in range(len(phi.dom))
    )
    return VFunctor(phi.dom, dx.cat, mapping)


def apply_D(f: VFunctor, phi):
    """Value vector of (Df)(phi) = f_* . phi, without materializing D(Y).

    The pushforward (f_* phi)(y) = join_x Y(y, f x) * phi(x); every weighted
    colimit is the supremum of one.
    """
    q = f.dom.quantale
    y = f.cod
    return tuple(
        q.join_of(q.mult[y.hom[b][f.mapping[a]]][phi[a]] for a in range(len(f.dom)))
        for b in range(len(y))
    )


def D_on_functor(f: VFunctor, dx: PresheafCategory, dy: PresheafCategory) -> VFunctor:
    """D f: D(X) -> D(Y), phi |-> f_* . phi."""
    mapping = tuple(
        dy.index[apply_D(f, phi)] for phi in dx.vectors
    )
    return VFunctor(dx.cat, dy.cat, mapping)


def D_inv(f: VFunctor, dx: PresheafCategory, dy: PresheafCategory) -> VFunctor:
    """D_{-1} f: D(Y) -> D(X), psi |-> psi . f (the inverse-image functor)."""
    mapping = tuple(
        dx.index[tuple(psi[f.mapping[a]] for a in range(len(f.dom)))]
        for psi in dy.vectors
    )
    return VFunctor(dy.cat, dx.cat, mapping)


def D_all(f: VFunctor, dx: PresheafCategory, dy: PresheafCategory) -> VFunctor:
    """D_forall f: D(X) -> D(Y), phi |-> meet_x [Y(fx, -), phi(x)]."""
    q = f.dom.quantale
    mapping = tuple(
        dy.index[
            tuple(
                q.meet_of(
                    q.hom[f.cod.hom[f.mapping[a]][b]][phi[a]]
                    for a in range(len(f.dom))
                )
                for b in range(len(dy.base))
            )
        ]
        for phi in dx.vectors
    )
    return VFunctor(dx.cat, dy.cat, mapping)


def mu(x: VCategory, dx: PresheafCategory, ddx: PresheafCategory) -> VFunctor:
    """Monad multiplication D(DX) -> DX, the inverse image of the Yoneda unit."""
    return D_inv(yoneda(x, dx), dx, ddx)


def d0(q: Quantale, d_unit: PresheafCategory) -> VFunctor:
    """Unit comparison 1 -> D(1), picking the presheaf at e."""
    return VFunctor(unit_category(q), d_unit.cat, (d_unit.index[(q.unit,)],))


def d2(
    dx: PresheafCategory, dy: PresheafCategory, dxy: PresheafCategory
) -> VFunctor:
    """d2: D(X) (x) D(Y) -> D(X (x) Y), (phi, psi) |-> phi(x) * psi(y)."""
    q = dx.base.quantale
    dom = tensor_vcat(dx.cat, dy.cat)
    mapping = []
    for phi in dx.vectors:
        for psi in dy.vectors:
            vec = tuple(q.mult[v][w] for v in phi for w in psi)
            mapping.append(dxy.index[vec])
    return VFunctor(dom, dxy.cat, tuple(mapping))


def full_subcategory(x: VCategory, indices) -> VCategory:
    indices = tuple(indices)
    return VCategory(
        x.quantale,
        tuple(x.objects[i] for i in indices),
        tuple(tuple(x.hom[i][j] for j in indices) for i in indices),
    )


def inverter(f: VFunctor, g: VFunctor):
    """Full subcategory on {x : e <= Y(gx, fx)}, for a 2-cell f <= g.

    Returns (subcategory, kept object indices).
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("inverter needs a parallel pair")
    q = f.dom.quantale
    kept = tuple(
        a
        for a in range(len(f.dom))
        if q.leq[q.unit][f.cod.hom[g.mapping[a]][f.mapping[a]]]
    )
    return full_subcategory(f.dom, kept), kept


def cauchy_completion(x: VCategory, dx: PresheafCategory):
    """Inv(D y, D_forall y): the phi in DX with a right adjoint.

    That is DX(psi, phi) <= join_x DX(psi, y x) * phi(x) for every psi.  The
    instance psi = phi, e <= join_x DX(phi, y x) * phi(x), is enough: times
    DX(psi, phi) it gives every other psi, as DX(psi, phi) * DX(phi, y x) <=
    DX(psi, y x).  Each row DX(phi, y -) is one `SupKernel.meet_row`, and
    only the kept square of DX is built.  Returns (subcategory, indices).
    """
    q, to_y = x.quantale, x.kernel.meet_row
    kept = tuple(
        i
        for i, phi in enumerate(dx.vectors)
        if q.leq[q.unit][q.join_of(q.mult[t][v] for t, v in zip(to_y(phi), phi))]
    )
    return presheaf_subcategory(x, (dx.vectors[i] for i in kept)), kept
