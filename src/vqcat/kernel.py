"""Suprema and hom matrices by join-irreducible bitplane tests.

A vector u over V of length m is encoded as one Python int: for the k-th
join-irreducible j_k of V, bit k*m + b is set iff j_k <= u_b.  So each
join-irreducible owns one bitplane of m bits.  In a finite lattice every
element is the join of the join-irreducibles below it, so the encoding is
injective, u <= w pointwise iff enc(u) is a subset of enc(w), and since
j <= v /\\ w iff j <= v and j <= w, a pointwise meet is one `&`.  No
distributivity is assumed.  `Planes` is the one encoder.

Every supremum, tensor, join and weighted colimit in a V-category X is the
object c representing a meet of cotensors of hom rows,
X(c, -) = meet_k [v_k, X(z_k, -)]: the supremum of phi takes (z_k, v_k) =
(a, phi(a)) over all objects a, the tensor v (x) z the one pair (z, v), the
join of the z_k the pairs (z_k, e), and the colimit of f weighted by phi
the pairs (f y, phi(y)).  `SupKernel` holds the encoded cotensor rows
([v, X(a, -)]) for every object a and value v, and a dict from each encoded
hom row to the first object with that row, so each of them is a fold of `&`
and one dict lookup.

Every hom matrix of vectors, DX(u, w) = meet_b [u_b, w_b], is `hom_matrix`:
j <= DX(u, w) iff j * u <= w pointwise, because v |-> v * u_b preserves
joins.  So with each w encoded once as enc(w) and each u once per
join-irreducible as enc(j_k * u), DX(u, w) is the element whose
join-irreducibles are the j_k with enc(j_k * u) a subset of enc(w): J
big-int tests per pair and one dict lookup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .quantale import Quantale

if TYPE_CHECKING:
    from .vcat import VCategory


def join_irreducibles(q: Quantale) -> tuple[int, ...]:
    """The elements j != bottom that are not the join of the elements
    strictly below them, in index order."""
    return tuple(
        j
        for j in range(q.n)
        if j != q.bottom
        and q.join_of(u for u in range(q.n) if u != j and q.leq[u][j]) != j
    )


class Planes:
    """The bitplane encoding of vectors of length m over V."""

    __slots__ = ("jis", "full", "spread")

    def __init__(self, q: Quantale, m: int):
        self.jis = join_irreducibles(q)
        self.full = (1 << (len(self.jis) * m)) - 1
        # spread[w]: bit k*m set iff j_k <= w; shifted by b it encodes w at b
        self.spread = tuple(
            sum(1 << (k * m) for k, j in enumerate(self.jis) if q.leq[j][w])
            for w in range(q.n)
        )

    def encode(self, vector) -> int:
        acc = 0
        spread = self.spread
        for b, w in enumerate(vector):
            acc |= spread[w] << b
        return acc


class SupKernel:
    """Encoded cotensor rows and the hom-row dict of one V-category.

    Built once per category (`VCategory.kernel`) on the first supremum
    query.  `cot[a][v]` encodes the row ([v, X(a, b)])_b; since [e, w] = w,
    `cot[a][e]` encodes the hom row X(a, -), and since [bottom, w] = top,
    `cot[a][bottom]` is `full`, the encoded all-top row.
    """

    __slots__ = ("bottom", "full", "cot", "rows")

    def __init__(self, x: VCategory):
        q = x.quantale
        planes = Planes(q, len(x))
        self.bottom = q.bottom
        self.full = planes.full
        self.cot = tuple(
            tuple(planes.encode(res_v[w] for w in hom_a) for res_v in q.hom)
            for hom_a in x.hom
        )
        rows: dict[int, int] = {}
        for c, cot_c in enumerate(self.cot):
            rows.setdefault(cot_c[q.unit], c)
        self.rows = rows

    def colimit(self, objs, values):
        """The first object c with X(c, -) = meet_k [values_k, X(objs_k, -)],
        or None.  Pairs with value bottom are skipped: [bottom, w] = top."""
        acc = self.full
        bottom, cot = self.bottom, self.cot
        for z, v in zip(objs, values):
            if v != bottom:
                acc &= cot[z][v]
        return self.rows.get(acc)


def hom_matrix(q: Quantale, us, ws) -> tuple[tuple[int, ...], ...]:
    """The matrix (meet_b [u_b, w_b]) with a row per u in `us` and a column
    per w in `ws`; all vectors have one length."""
    us, ws = tuple(us), tuple(ws)
    if not (us and ws):
        return tuple(() for _ in us)
    planes = Planes(q, len(ws[0]))
    bits = tuple(1 << k for k in range(len(planes.jis)))
    # the join-irreducibles below each element, as bits k, back to the element
    decode = {
        sum(bit for bit, j in zip(bits, planes.jis) if q.leq[j][v]): v
        for v in range(q.n)
    }
    # enc(j u) & ~enc(w) == 0 iff enc(j u) is a subset of enc(w)
    outside = [~planes.encode(w) for w in ws]
    rows = []
    for u in us:
        masks = [0] * len(ws)
        for bit, j in zip(bits, planes.jis):
            mul_j = q.mult[j]
            t = planes.encode(mul_j[v] for v in u)
            masks = [mask | bit if not t & o else mask for mask, o in zip(masks, outside)]
        rows.append(tuple(map(decode.__getitem__, masks)))
    return tuple(rows)
