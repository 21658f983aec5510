"""Suprema by join-irreducible bitplane meets.

A vector u over V on the objects of X is encoded as one Python int: for the
k-th join-irreducible j_k of V, bit k*m + b is set iff j_k <= u_b (m = |X|).
So each join-irreducible owns one bitplane of m bits.  In a finite lattice
every element is the join of the join-irreducibles below it, so the
encoding is injective, and j <= v /\\ w iff j <= v and j <= w, so a
pointwise meet is one `&`.  No distributivity is assumed.

Every supremum, tensor, join and weighted colimit in a V-category X is the
object c representing a meet of cotensors of hom rows,
X(c, -) = meet_k [v_k, X(z_k, -)]: the supremum of phi takes (z_k, v_k) =
(a, phi(a)) over all objects a, the tensor v (x) z the one pair (z, v), the
join of the z_k the pairs (z_k, e), and the colimit of f weighted by phi
the pairs (f y, phi(y)).  `SupKernel` holds the encoded cotensor rows
([v, X(a, -)]) for every object a and value v, and a dict from each encoded
hom row to the first object with that row, so each of them is a fold of `&`
and one dict lookup.
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
        m = len(x)
        jis = join_irreducibles(q)
        # spread[w]: bit k*m set iff j_k <= w; shifted by b it encodes w at b
        spread = tuple(
            sum(1 << (k * m) for k, j in enumerate(jis) if q.leq[j][w])
            for w in range(q.n)
        )
        self.bottom = q.bottom
        self.full = (1 << (len(jis) * m)) - 1
        self.cot = tuple(
            tuple(_encode(spread, (res_v[w] for w in hom_a)) for res_v in q.hom)
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


def _encode(spread, vector) -> int:
    acc = 0
    for b, w in enumerate(vector):
        acc |= spread[w] << b
    return acc
