"""Suprema and hom matrices by join-irreducible bytes.

A vector u over V of length m is encoded as one Python int with one byte
per coordinate: bit i of byte b is set iff the i-th join-irreducible j_i of
V lies below u_b.  A byte holds 8 join-irreducibles, so for J > 8 the
encoding is ceil(J / 8) blocks of m bytes, one after another: bit i of byte
k*m + b stands for j_(8k+i) <= u_b.  In a finite lattice every element is
the join of the join-irreducibles below it, so the encoding is injective,
u <= w pointwise iff enc(u) is a subset of enc(w) (`t & ~w == 0`), and
since j <= v /\\ w iff j <= v and j <= w, a pointwise meet is one `&`.  No
distributivity is assumed.  Each block's byte of each element is one
256-byte table, so `Planes.encode` is one `bytes.translate` per block and
one `int.from_bytes`; it needs every element index below 256, the limit
`quantale.MAX_ELEMENTS` that `validate_quantale` enforces.  `Planes` is the
one encoder.  It and every other table that depends on V alone are built
once per quantale (`QuantaleTables`, kept as `Quantale.tables`).

Every supremum, tensor, join and weighted colimit in a V-category X is the
object c representing a meet of cotensors of hom rows,
X(c, -) = meet_k [v_k, X(z_k, -)]: the supremum of phi takes (z_k, v_k) =
(a, phi(a)) over all objects a, the tensor v (x) z the one pair (z, v), the
join of the z_k the pairs (z_k, e), and the colimit of f weighted by phi
the pairs (f y, phi(y)).  `SupKernel` holds the encoded cotensor rows
([v, X(a, -)]) for every object a and value v, each one `translate` of the
hom row through the composed table w |-> code([v, w]), and a dict from each
encoded hom row to the first object with that row, so each of them is a
fold of `&` and one dict lookup.  The fold over all (a, phi(a)), decoded by
`to_bytes` and the decoder of `hom_matrix`, is DX(phi, y -) (`meet_row`).

Every hom matrix of vectors, DX(u, w) = meet_b [u_b, w_b], is `hom_matrix`:
j <= DX(u, w) iff j * u <= w pointwise, because v |-> v * u_b preserves
joins.  It slices the ws by column: for each coordinate b and value t, the
bitset over ws of the w with t <= w_b is one `translate` of column b and
one `int(..., 2)`.  Then {w : j * u <= w} is the `&` of the m bitsets
picked by the coordinates of j * u (one `translate` of u through the table
of v |-> j * v), and a row of the matrix is decoded from its J bitsets with
`format`, `translate` and `to_bytes`: per join-irreducible, not per cell.
Vectors enter and rows leave as `bytes`, so nothing is converted.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, getitem
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .quantale import Quantale
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


def _blocks(q: Quantale) -> list[tuple[int, ...]]:
    """The join-irreducibles in blocks of 8, one block per byte; one empty
    block for the one-element V, which has none."""
    jis = join_irreducibles(q)
    return [jis[k : k + 8] for k in range(0, max(len(jis), 1), 8)]


def _table(codes) -> bytes:
    """The `bytes.translate` table sending byte v to codes[v], and every
    byte past the codes to 0."""
    codes = bytes(codes)
    return codes + bytes(256 - len(codes))


class Planes:
    """The byte encoding of vectors over V: `tables[k][v]` is the byte of
    element v in block k, the set of j_(8k), ..., j_(8k+7) below v."""

    __slots__ = ("tables",)

    def __init__(self, q: Quantale):
        self.tables = tuple(
            _table(sum(1 << i for i, j in enumerate(block) if q.leq[j][v]) for v in range(q.n))
            for block in _blocks(q)
        )

    def composed(self, f) -> tuple[bytes, ...]:
        """The tables of v |-> code(f[v]), for a map f of element indices."""
        return tuple(_table(map(table.__getitem__, f)) for table in self.tables)

    def encode(self, vector: bytes, tables: tuple[bytes, ...] | None = None) -> int:
        """enc(vector); with tables `composed(f)`, enc(f applied to vector)."""
        return int.from_bytes(
            b"".join(vector.translate(table) for table in (tables or self.tables)), "little"
        )


class QuantaleTables:
    """The tables of one quantale that `SupKernel` and `hom_matrix` read:
    `planes`, the cotensor tables w |-> code([v, w]) for each v, and the
    upset, multiplication and decoding tables of `hom_matrix`.  Built once
    per quantale (`Quantale.tables`)."""

    __slots__ = ("planes", "cotensors", "upsets", "blocks", "decode")

    def __init__(self, q: Quantale):
        self.planes = planes = Planes(q)
        self.cotensors = tuple(planes.composed(res_v) for res_v in q.hom)
        self.upsets = tuple(_table(b"01"[q.leq[t][v]] for v in range(q.n)) for t in range(q.n))
        # per block, per join-irreducible j_i: the table of v |-> j_i * v, and
        # the table sending the characters "0"/"1" to the bytes 0/(1 << i)
        self.blocks = tuple(
            tuple(
                (_table(q.mult[j]), bytes.maketrans(b"01", bytes((0, 1 << i))))
                for i, j in enumerate(block)
            )
            for block in _blocks(q)
        )
        # a cell's bytes, one per block, are its element's codes: one block
        # decodes by a `translate` table, several by a dict lookup per cell
        codes = planes.tables
        if len(codes) == 1:
            table = bytearray(256)
            for v in range(q.n):
                table[codes[0][v]] = v

            def decode(masks):
                return masks[0].translate(table)
        else:
            element = {tuple(code[v] for code in codes): v for v in range(q.n)}

            def decode(masks):
                return bytes(map(element.__getitem__, zip(*masks)))

        self.decode = decode


class SupKernel:
    """Encoded cotensor rows and the hom-row dict of one V-category.

    Built once per category (`VCategory.kernel`) on the first supremum
    query.  `cot[a][v]` encodes the row ([v, X(a, b)])_b; since [e, w] = w,
    `cot[a][e]` encodes the hom row X(a, -), and since [bottom, w] = top,
    `cot[a][bottom]` is `full`, the encoded all-top row.
    """

    __slots__ = ("bottom", "full", "cot", "rows", "blocks", "decode")

    def __init__(self, x: VCategory):
        q = x.quantale
        planes, cotensors = q.tables.planes, q.tables.cotensors
        self.bottom, self.blocks, self.decode = q.bottom, len(planes.tables), q.tables.decode
        self.full = full = planes.encode(bytes([q.top]) * len(x))
        # every [bottom, X(a, -)] is the one int `full`, kept once
        self.cot = tuple(
            tuple(
                full if v == q.bottom else planes.encode(hom_a, tables)
                for v, tables in enumerate(cotensors)
            )
            for hom_a in x.hom
        )
        rows: dict[int, int] = {}
        for c, cot_c in enumerate(self.cot):
            rows.setdefault(cot_c[q.unit], c)
        self.rows = rows

    def _meet(self, objs, values) -> int:
        """enc(meet_k [values_k, X(objs_k, -)]).  Pairs with value bottom
        are skipped: [bottom, w] = top."""
        acc = self.full
        bottom, cot = self.bottom, self.cot
        for z, v in zip(objs, values):
            if v != bottom:
                acc &= cot[z][v]
        return acc

    def colimit(self, objs, values):
        """The first object c with X(c, -) = `_meet(objs, values)`, or None."""
        return self.rows.get(self._meet(objs, values))

    def meet_row(self, values) -> bytes:
        """meet_a [values_a, X(a, -)] decoded: DX(phi, y -) for a presheaf phi."""
        m, blocks = len(self.cot), self.blocks
        code = self._meet(range(m), values).to_bytes(m * blocks, "little")
        return self.decode([code[k * m : (k + 1) * m] for k in range(blocks)])


def hom_matrix(q: Quantale, us, ws) -> tuple[bytes, ...]:
    """The matrix (meet_b [u_b, w_b]) with a row per u in `us` and a column
    per w in `ws`; all vectors are `bytes` of one length."""
    us, ws = tuple(us), tuple(ws)
    if not (us and ws):
        return (b"",) * len(us)
    n, m, flat = len(ws), len(ws[0]), b"".join(ws)
    upsets, blocks, decode = q.tables.upsets, q.tables.blocks, q.tables.decode
    # Bitsets over ws put w_i at bit n-1-i, the order of int(., 2) and of
    # format(., "0nb"), so the i-th character of a bitset's string is w_i.
    # columns[b][t]: the w with t <= w_b
    columns = tuple(
        tuple(int(flat[b::m].translate(up), 2) for up in upsets) for b in range(m)
    )
    everything, spelled = (1 << n) - 1, f"0{n}b"
    rows = []
    for u in us:
        masks = []
        for block in blocks:
            acc = 0
            for mul_j, bit_j in block:
                below = reduce(and_, map(getitem, columns, u.translate(mul_j)), everything)
                acc |= int.from_bytes(format(below, spelled).encode().translate(bit_j), "big")
            masks.append(acc.to_bytes(n, "big"))
        rows.append(decode(masks))
    return tuple(rows)
