"""The bitplane kernel, kept as the oracle of `vqcat.kernel`.

A vector u over V of length m is one Python int: for the k-th
join-irreducible j_k of V, bit k*m + b is set iff j_k <= u_b, so each
join-irreducible owns one bitplane of m bits, filled one coordinate at a
time in Python.  `BitplaneKernel.colimit` folds the encoded cotensor rows
like `SupKernel.colimit`, and `bitplane_hom_matrix` makes J big-int
subset tests per cell.  Neither shares code with the byte kernel beyond
`join_irreducibles`.
"""

from vqcat.kernel import join_irreducibles


class Planes:
    """The bitplane encoding of vectors of length m over V."""

    def __init__(self, q, m):
        self.jis = join_irreducibles(q)
        self.full = (1 << (len(self.jis) * m)) - 1
        # spread[w]: bit k*m set iff j_k <= w; shifted by b it encodes w at b
        self.spread = tuple(
            sum(1 << (k * m) for k, j in enumerate(self.jis) if q.leq[j][w])
            for w in range(q.n)
        )

    def encode(self, vector):
        acc = 0
        for b, w in enumerate(vector):
            acc |= self.spread[w] << b
        return acc


class BitplaneKernel:
    """`cot[a][v]` encodes the row ([v, X(a, b)])_b, and `rows` maps each
    encoded hom row to the first object with that row."""

    def __init__(self, x):
        q = x.quantale
        planes = Planes(q, len(x))
        self.bottom = q.bottom
        self.full = planes.full
        self.cot = tuple(
            tuple(planes.encode(res_v[w] for w in hom_a) for res_v in q.hom)
            for hom_a in x.hom
        )
        self.rows = {}
        for c, cot_c in enumerate(self.cot):
            self.rows.setdefault(cot_c[q.unit], c)

    def colimit(self, objs, values):
        acc = self.full
        for z, v in zip(objs, values):
            if v != self.bottom:
                acc &= self.cot[z][v]
        return self.rows.get(acc)


def bitplane_hom_matrix(q, us, ws):
    """(meet_b [u_b, w_b]) by J subset tests enc(j_k u) <= enc(w) per cell."""
    us, ws = tuple(us), tuple(ws)
    if not (us and ws):
        return tuple(() for _ in us)
    planes = Planes(q, len(ws[0]))
    bits = tuple(1 << k for k in range(len(planes.jis)))
    decode = {
        sum(bit for bit, j in zip(bits, planes.jis) if q.leq[j][v]): v
        for v in range(q.n)
    }
    outside = [~planes.encode(w) for w in ws]
    rows = []
    for u in us:
        masks = [0] * len(ws)
        for bit, j in zip(bits, planes.jis):
            t = planes.encode(q.mult[j][v] for v in u)
            masks = [mask | bit if not t & o else mask for mask, o in zip(masks, outside)]
        rows.append(tuple(map(decode.__getitem__, masks)))
    return tuple(rows)
