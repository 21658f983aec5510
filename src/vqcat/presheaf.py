"""The free cocompletion D: presheaf enumeration, Yoneda structures, monad data.

A presheaf is a V-functor X^op -> V: a vector over the base objects with
X(x,x') * phi(x') <= phi(x).  `enumerate_presheaves` finds them with
`search_tails`, the one backtracking search, which also enumerates the
V-functors between any two categories.  It searches each distinct tail of
candidate masks once and returns the graph of those tails, each with its
completion count.  `render_rows`, the only place that builds rows, turns
the graph into one buffer with a row of bytes per mapping, and
`search_vfunctors` unpacks and sorts them.  D(X) answers `len` from the
graph, and renders its vectors only when they are read: a presheaf's cells
are element indices, one byte each, so its rendered row is its vector.  The
guard counts the nodes of the unshared search, not the naive |V|^m
candidate space, which pruning makes meaningless.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

from .dist import Distributor, VFunctor, identity_dist
from .errors import QuantaleMismatch, SizeExceeded
from .kernel import hom_matrix
from .quantale import Quantale
from .vcat import (
    VCategory,
    columns,
    opposite,
    quantale_as_vcategory,
    tensor_vcat,
    unit_category,
)

DEFAULT_NODE_CAP = 2_000_000


@dataclass(frozen=True)
class Presheaf:
    base: VCategory
    values: bytes


class PresheafCategory:
    """D(X) together with its presheaf vectors: the graph of their search,
    then sorted `bytes` vectors.

    Objects are ordered lexicographically by value-index vector, so indices
    are reproducible across runs.  It is made from the graph of the search
    (`search_tails`), and `len` reads the root's count.  `vectors`, one
    `bytes` row per presheaf with a one-byte cell per object (element
    indices are below `quantale.MAX_ELEMENTS`), sorted, is rendered from
    the graph on first read (`render_rows`), and the graph is then dropped.
    `index` (a vector back to its object index) is built from `vectors` on
    first read.  The full hom matrix (`cat`) is built on first use by the
    byte kernel (`kernel.hom_matrix`), a few big-int `&` per row and
    join-irreducible; no decision reads it.
    """

    def __init__(self, base: VCategory, tails: Tails):
        self.base, self._tails, self._count = base, tails, tails.count
        self._cat = None

    def __len__(self):
        return self._count

    @cached_property
    def vectors(self) -> tuple[bytes, ...]:
        buf, count, _ = render_rows(self._tails)
        self._tails = None  # the graph, dropped once its rows are rendered
        if not buf:  # no presheaf, or the one on an empty base
            return (b"",) * count
        return tuple(sorted(row for (row,) in struct.iter_unpack(f"{len(self.base)}s", buf)))

    @cached_property
    def index(self) -> dict[bytes, int]:
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


class Tails(tuple):
    """The graph of distinct tails that `search_tails` met: (root, count,
    order, n).

    A tail node is a list [count, nodes, images, children, parents,
    columns]: the number of its completions, the nodes its unshared search
    takes, the mask of the images placed with a completion, the child tail
    of each of them in image order (None at the last depth), the number of
    edges into it, and its columns once `render_rows` keeps them.  `root` is
    the tail of depth 0, or None when there is no object to place; `count`
    is the number of mappings, `order` the objects in placement order and
    `n` the number of codomain objects.
    """

    __slots__ = ()
    root = property(itemgetter(0))
    count = property(itemgetter(1))
    order = property(itemgetter(2))
    n = property(itemgetter(3))


def search_vfunctors(dom: VCategory, cod: VCategory, node_cap: int, what: str):
    """All V-functors dom -> cod, as sorted mapping tuples: the one search,
    its rows rendered, unpacked and sorted."""
    buf, count, fmt = render_rows(search_tails(dom, cod, node_cap, what))
    if not dom:
        return [()] * count  # struct cannot step over rows of no bytes
    return sorted(struct.iter_unpack(f">{len(dom)}{fmt}", buf))


def search_tails(dom: VCategory, cod: VCategory, node_cap: int, what: str) -> Tails:
    """All V-functors dom -> cod, as the graph of the search's distinct
    tails: the one search.

    Each object's candidate images are a bitmask, first the images c with
    dom(t, t) <= cod(c, c).  Objects are placed most-constrained first:
    descending number of objects below them in dom, ties by index.  Placing
    an image c2 at s narrows every later object t's mask to the images c
    with u <= cod(c, c2) and v <= cod(c2, c) for u = dom(t, s), v = dom(s,
    t); a branch that empties a mask is cut.

    Once depth d is placed, the completions depend only on the tail, the
    masks of depths d, d+1, ...  A tail is one int: depth d+i sits in the
    field of n+1 bits at i(n+1), its top bit a guard that is always set,
    so the int also fixes the depth.  Placing c at depth d narrows the
    whole tail with one `&` against an int per (d, c), built on first use,
    and a narrowed field is empty iff its guard is lost in `(nxt - L) & G`,
    where G and L are the guard and the lowest bit of the fields that depth
    d narrows.  Only those fields are tested, so a mask that is empty from
    the root is met at its own depth, as in the unshared search.

    Each distinct tail is searched once and becomes a node of `Tails`.  A
    node is counted per placement of the unshared search, a tail met again
    adding its nodes, so past `node_cap` SizeExceeded says "<what>
    enumeration exceeded" exactly when the unshared search does.

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
        return Tails((None, 1, [], n))  # the one empty mapping
    q = dom.quantale
    leq, dh, ch = q.leq, dom.hom, cod.hom
    # the number of objects below each, in a stable sort: ties keep index order
    below = [sum(map(leq[q.unit].__getitem__, col)) for col in zip(*dh)]
    order = sorted(range(m), key=below.__getitem__, reverse=True)
    full, w, last = (1 << n) - 1, n + 1, m - 1
    guard = 1 << n
    fits = {}

    def fit(u, v):
        if (u, v) not in fits:
            fits[u, v] = tuple(
                sum(1 << c for c in range(n) if leq[u][ch[c][c2]] and leq[v][ch[c2][c]])
                for c2 in range(n)
            )
        return fits[u, v]

    # per depth: None if it narrows no later field, else (G, L, the fields it
    # narrows as (shift in the tail past it, fits row), the cut per image)
    spans = []
    for d, s in enumerate(order[:last]):
        g = low_bits = 0
        narrowed = []
        for k, t in enumerate(order[d + 1 :]):
            tab = fit(dh[t][s], dh[s][t])
            if tab.count(full) < n:
                narrowed.append((k * w, tab))
                g |= guard << k * w
                low_bits |= 1 << k * w
        spans.append((g, low_bits, narrowed, [None] * n) if narrowed else None)
    memo: dict = {}  # tail -> its node
    nodes, exceeded = 0, f"{what} enumeration exceeded {node_cap} nodes"

    def solve(d, tail):
        """The node of `tail`, at depth d."""
        nonlocal nodes
        node = memo.get(tail)
        if node is not None:
            nodes += node[1]
            if nodes > node_cap:
                raise SizeExceeded(exceeded, estimate=node_cap)
            return node
        start, mask = nodes, tail & full
        if d == last:
            count, images, children = mask.bit_count(), mask, None
            nodes += count
        else:
            rest, count, images, children, span = tail >> w, 0, 0, [], spans[d]
            if span:
                g, low_bits, narrowed, cuts = span
            while mask:
                low = mask & -mask
                mask ^= low
                nodes += 1
                if span:
                    c = low.bit_length() - 1
                    cut = cuts[c]
                    if cut is None:
                        cut = (1 << (last - d) * w) - 1
                        for i, tab in narrowed:
                            cut ^= (full ^ tab[c]) << i
                        cuts[c] = cut
                    nxt = rest & cut
                    if (nxt - low_bits) & g != g:
                        continue
                else:
                    nxt = rest
                child = solve(d + 1, nxt)
                if child[0]:
                    child[4] += 1
                    count += child[0]
                    images |= low
                    children.append(child)
        if nodes > node_cap:
            raise SizeExceeded(exceeded, estimate=node_cap)
        node = memo[tail] = [count, nodes - start, images, children, 0, None]
        return node

    root = 0
    for i, t in enumerate(order):
        mask = sum(1 << c for c in range(n) if leq[dh[t][t]][ch[c][c]])
        root |= (mask | guard) << (i * w)
    try:
        top = solve(0, root)
    finally:
        memo.clear()
    return Tails((top, top[0], order, n))


def render_rows(tails: Tails):
    """The mappings of `tails` as one buffer of rows, each one row of cells
    in object order, in search order; the row count and the cell format.
    The only place that builds rows.

    A tail's completions are built column by column, one `bytes` per depth
    with one `_cells` cell each: its images, each repeated once per
    completion of its child, then its children's columns joined.  A tail
    with two or more parents keeps its columns for the next.  The root's
    columns are copied into one buffer, one strided slice assignment per
    column and cell byte.  Cells are big-endian and of one width, so
    sorting the rows as bytes sorts the mappings as tuples.
    """
    root, count, order, n = tails
    cells, w, fmt = _cells(n)
    if root is None or not count:
        return b"", count, fmt  # the one mapping of no objects, or none

    def columns(node):
        if node[5] is not None:
            return node[5]
        _, _, images, children, parents, _ = node
        heads = []
        if children is None:
            while images:
                low = images & -images
                images ^= low
                heads.append(cells[low.bit_length() - 1])
            cols = (b"".join(heads),)
        else:
            subs = []
            for child in children:
                low = images & -images
                images ^= low
                heads.append(cells[low.bit_length() - 1] * child[0])
                subs.append(columns(child))
            cols = (b"".join(heads), *map(b"".join, zip(*subs)))
        if parents > 1:
            node[5] = cols
        return cols

    m = len(order)
    buf = bytearray(count * m * w)
    for col, t in zip(columns(root), order):
        for k in range(w):
            buf[t * w + k :: m * w] = col[k::w]
    return buf, count, fmt


def enumerate_presheaves(x: VCategory, node_cap: int = DEFAULT_NODE_CAP) -> PresheafCategory:
    """All presheaves on x: the V-functors x^op -> V, searched now; their
    rows are rendered on first read."""
    v = quantale_as_vcategory(x.quantale)
    return PresheafCategory(x, search_tails(opposite(x), v, node_cap, "presheaf"))


def yoneda(x: VCategory, dx: PresheafCategory) -> VFunctor:
    """y(x) = X(-, x), the column of the hom matrix."""
    return dist_to_functor(identity_dist(x), dx)


def dist_to_functor(phi: Distributor, dx: PresheafCategory) -> VFunctor:
    """phi: Y -|-> X becomes f(y) = phi(-, y) into D(X)."""
    if phi.cod != dx.base:
        raise ValueError("distributor codomain does not match presheaf base")
    mapping = tuple(map(dx.index.__getitem__, columns(phi.mat, len(phi.dom))))
    return VFunctor(phi.dom, dx.cat, mapping)


def apply_D(f: VFunctor, phi):
    """Value vector of (Df)(phi) = f_* . phi, without materializing D(Y).

    The pushforward (f_* phi)(y) = join_x Y(y, f x) * phi(x); every weighted
    colimit is the supremum of one.
    """
    q = f.dom.quantale
    y = f.cod
    return bytes(
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
        dx.index[bytes(map(psi.__getitem__, f.mapping))] for psi in dy.vectors
    )
    return VFunctor(dy.cat, dx.cat, mapping)


def D_all(f: VFunctor, dx: PresheafCategory, dy: PresheafCategory) -> VFunctor:
    """D_forall f: D(X) -> D(Y), phi |-> meet_x [Y(fx, -), phi(x)]."""
    q = f.dom.quantale
    mapping = tuple(
        dy.index[
            bytes(
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
    return VFunctor(unit_category(q), d_unit.cat, (d_unit.index[bytes((q.unit,))],))


def d2(
    dx: PresheafCategory, dy: PresheafCategory, dxy: PresheafCategory
) -> VFunctor:
    """d2: D(X) (x) D(Y) -> D(X (x) Y), (phi, psi) |-> phi(x) * psi(y)."""
    q = dx.base.quantale
    dom = tensor_vcat(dx.cat, dy.cat)
    mapping = []
    for phi in dx.vectors:
        for psi in dy.vectors:
            vec = bytes(q.mult[v][w] for v in phi for w in psi)
            mapping.append(dxy.index[vec])
    return VFunctor(dom, dxy.cat, tuple(mapping))


def full_subcategory(x: VCategory, indices) -> VCategory:
    indices = tuple(indices)
    return VCategory(
        x.quantale,
        tuple(x.objects[i] for i in indices),
        tuple(bytes(map(x.hom[i].__getitem__, indices)) for i in indices),
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
