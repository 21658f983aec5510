"""Plain-text workspace files and their serializers.

A file is a sequence of blocks, `#` starts a comment:

    quantale V builtin r422          # or a literal block:
    quantale Q
      elements 0 a 1
      order 0<a a<1                  # transitive closure is taken
      unit 1
      mult 0*0=0 0*a=0 ...           # commutative; every pair once

    vcategory X over Q
      objects x y
      hom x y = a                    # missing entries: unit on the diagonal,
                                     # bottom elsewhere
    vcategory W = tensor X X         # also: op X | ofquantale Q |
                                     #   discrete Q n1 n2 ... | presheaves X

    distributor phi : X -> W
      val x w = a                    # phi(<cod obj>, <dom obj>); from, to

`show_*` emit blocks that re-parse to equal objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, SizeExceeded
from .presheaf import DEFAULT_NODE_CAP, enumerate_presheaves
from .quantale import BUILTIN_NAMES, Quantale, builtin, validate_quantale
from .vcat import (
    VCategory,
    discrete,
    opposite,
    quantale_as_vcategory,
    tensor_vcat,
    validate_vcategory,
)
from .dist import Distributor, validate_distributor


@dataclass
class Workspace:
    quantales: dict = field(default_factory=dict)
    vcats: dict = field(default_factory=dict)
    dists: dict = field(default_factory=dict)
    vcat_quantale: dict = field(default_factory=dict)  # vcat name -> quantale name


def _tokens(line: str):
    return line.split("#", 1)[0].split()


class _QuantaleBlock:
    def __init__(self, name, line_no):
        self.name = name
        self.line_no = line_no
        self.elements = None
        self.pairs = []
        self.unit = None
        self.mult = {}

    def feed(self, no, toks):
        key = toks[0]
        if key == "elements":
            if self.elements is not None:
                raise ParseError(no, "duplicate elements line")
            if len(toks) < 2 or len(set(toks[1:])) != len(toks[1:]):
                raise ParseError(no, "elements must be distinct and nonempty")
            self.elements = toks[1:]
        elif key == "order":
            for tok in toks[1:]:
                if "<" not in tok:
                    raise ParseError(no, f"expected a<b, got {tok!r}")
                a, b = tok.split("<", 1)
                self.pairs.append((no, a, b))
        elif key == "unit":
            if len(toks) != 2 or self.unit is not None:
                raise ParseError(no, "unit takes one element, once")
            self.unit = (no, toks[1])
        elif key == "mult":
            for tok in toks[1:]:
                if "*" not in tok or "=" not in tok:
                    raise ParseError(no, f"expected a*b=c, got {tok!r}")
                lhs, c = tok.split("=", 1)
                a, b = lhs.split("*", 1)
                self.mult[(a, b)] = (no, c)
        else:
            raise ParseError(no, f"unexpected {key!r} in quantale block")

    def build(self) -> Quantale:
        no = self.line_no
        if self.elements is None:
            raise ParseError(no, f"quantale {self.name}: missing elements")
        if self.unit is None:
            raise ParseError(no, f"quantale {self.name}: missing unit")
        names = self.elements
        idx = {e: i for i, e in enumerate(names)}
        n = len(names)

        def look(lno, e):
            if e not in idx:
                raise ParseError(lno, f"unknown element {e!r}")
            return idx[e]

        leq = [[i == j for j in range(n)] for i in range(n)]
        for lno, a, b in self.pairs:
            leq[look(lno, a)][look(lno, b)] = True
        for k in range(n):  # transitive closure
            for i in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j]:
                            leq[i][j] = True
        mult = [[None] * n for _ in range(n)]
        for (a, b), (lno, c) in self.mult.items():
            i, j, k = look(lno, a), look(lno, b), look(lno, c)
            for x, y in ((i, j), (j, i)):
                if mult[x][y] is not None and mult[x][y] != k:
                    raise ParseError(lno, f"conflicting products for {a}*{b}")
                mult[x][y] = k
        for i in range(n):
            for j in range(n):
                if mult[i][j] is None:
                    raise ParseError(
                        no, f"quantale {self.name}: missing product {names[i]}*{names[j]}"
                    )
        return validate_quantale(names, leq, mult, look(self.unit[0], self.unit[1]))


class _VCatBlock:
    def __init__(self, name, qname, line_no):
        self.name = name
        self.qname = qname
        self.line_no = line_no
        self.objects = None
        self.hom = {}

    def feed(self, no, toks):
        key = toks[0]
        if key == "objects":
            if self.objects is not None:
                raise ParseError(no, "duplicate objects line")
            if len(toks) < 2 or len(set(toks[1:])) != len(toks[1:]):
                raise ParseError(no, "objects must be distinct and nonempty")
            self.objects = toks[1:]
        elif key == "hom":
            if len(toks) != 5 or toks[3] != "=":
                raise ParseError(no, "expected: hom x y = v")
            self.hom[(toks[1], toks[2])] = (no, toks[4])
        else:
            raise ParseError(no, f"unexpected {key!r} in vcategory block")

    def build(self, q: Quantale) -> VCategory:
        if self.objects is None:
            raise ParseError(self.line_no, f"vcategory {self.name}: missing objects")
        idx = {o: i for i, o in enumerate(self.objects)}
        m = len(self.objects)
        hom = [[q.unit if i == j else q.bottom for j in range(m)] for i in range(m)]
        for (x, y), (no, v) in self.hom.items():
            if x not in idx or y not in idx:
                raise ParseError(no, f"unknown object in hom {x} {y}")
            try:
                hom[idx[x]][idx[y]] = q.index(v)
            except KeyError:
                raise ParseError(no, f"unknown quantale element {v!r}") from None
        return validate_vcategory(q, self.objects, hom)


class _DistBlock:
    def __init__(self, name, dom, cod, line_no):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.line_no = line_no
        self.vals = {}

    def feed(self, no, toks):
        if toks[0] != "val" or len(toks) != 5 or toks[3] != "=":
            raise ParseError(no, "expected: val x y = v")
        self.vals[(toks[1], toks[2])] = (no, toks[4])

    def build(self, dom: VCategory, cod: VCategory) -> Distributor:
        q = dom.quantale
        mat = [[q.bottom] * len(dom) for _ in range(len(cod))]
        for (x, y), (no, v) in self.vals.items():
            try:
                mat[cod.index(y)][dom.index(x)] = q.index(v)
            except KeyError as exc:
                raise ParseError(no, str(exc)) from None
        return validate_distributor(dom, cod, mat)


def _close_block(ws: Workspace, block):
    if block is None:
        return
    if isinstance(block, _QuantaleBlock):
        ws.quantales[block.name] = block.build()
    elif isinstance(block, _VCatBlock):
        ws.vcats[block.name] = block.build(ws.quantales[block.qname])
        ws.vcat_quantale[block.name] = block.qname
    else:
        ws.dists[block.name] = block.build(
            ws.vcats[block.dom], ws.vcats[block.cod]
        )


def _fresh(ws: Workspace, kind: str, name: str, no: int):
    table = {"quantale": ws.quantales, "vcategory": ws.vcats, "distributor": ws.dists}[kind]
    if name in table:
        raise ParseError(no, f"duplicate {kind} name {name!r}")


def _derived_vcat(ws: Workspace, no: int, name: str, toks, node_cap, obj_cap):
    """`vcategory N = <constructor> args` forms; `obj_cap` None is no cap."""
    kind = toks[0]

    def vcat(arg):
        if arg not in ws.vcats:
            raise ParseError(no, f"unknown vcategory {arg!r}")
        return ws.vcats[arg]

    def qname_of(arg):
        return ws.vcat_quantale.get(arg, "?")

    if kind == "ofquantale" and len(toks) == 2:
        if toks[1] not in ws.quantales:
            raise ParseError(no, f"unknown quantale {toks[1]!r}")
        ws.vcats[name] = quantale_as_vcategory(ws.quantales[toks[1]])
        ws.vcat_quantale[name] = toks[1]
    elif kind == "tensor" and len(toks) == 3:
        x, y = vcat(toks[1]), vcat(toks[2])
        n = len(x) * len(y)
        if n * n > node_cap:  # before the n x n hom matrix
            raise SizeExceeded(
                f"vcategory {name} would have {n} x {n} hom entries (cap {node_cap})",
                estimate=n * n,
            )
        ws.vcats[name] = tensor_vcat(x, y)
        ws.vcat_quantale[name] = qname_of(toks[1])
    elif kind == "op" and len(toks) == 2:
        ws.vcats[name] = opposite(vcat(toks[1]))
        ws.vcat_quantale[name] = qname_of(toks[1])
    elif kind == "discrete" and len(toks) >= 3:
        if toks[1] not in ws.quantales:
            raise ParseError(no, f"unknown quantale {toks[1]!r}")
        ws.vcats[name] = discrete(ws.quantales[toks[1]], toks[2:])
        ws.vcat_quantale[name] = toks[1]
    elif kind == "presheaves" and len(toks) == 2:
        dx = enumerate_presheaves(vcat(toks[1]), node_cap)
        n = len(dx)
        if obj_cap is not None and n > obj_cap:
            raise SizeExceeded(f"vcategory {name} has {n} objects (cap {obj_cap})", estimate=n)
        if n * n > node_cap:  # before the n x n hom matrix
            raise SizeExceeded(
                f"vcategory {name} would have {n} x {n} hom entries (cap {node_cap})",
                estimate=n * n,
            )
        ws.vcats[name] = dx.cat
        ws.vcat_quantale[name] = qname_of(toks[1])
    else:
        raise ParseError(no, f"bad vcategory constructor {' '.join(toks)!r}")


def parse_text(
    text: str, ws: Workspace | None = None, node_cap=DEFAULT_NODE_CAP, obj_cap=None
) -> Workspace:
    """Parse one file into `ws`; `presheaves X` is bounded by the two caps
    and, like `tensor X Y`, by `node_cap` on its hom entries."""
    ws = ws or Workspace()
    block = None
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        head = toks[0]
        if head == "quantale":
            _close_block(ws, block)
            block = None
            if len(toks) == 4 and toks[2] == "builtin":
                _fresh(ws, "quantale", toks[1], no)
                if toks[3] not in BUILTIN_NAMES:
                    raise ParseError(no, f"unknown builtin {toks[3]!r}")
                ws.quantales[toks[1]] = builtin(toks[3])
            elif len(toks) == 2:
                _fresh(ws, "quantale", toks[1], no)
                block = _QuantaleBlock(toks[1], no)
            else:
                raise ParseError(no, "expected: quantale NAME [builtin NAME]")
        elif head == "vcategory":
            _close_block(ws, block)
            block = None
            if len(toks) >= 4 and toks[2] == "=":
                _fresh(ws, "vcategory", toks[1], no)
                _derived_vcat(ws, no, toks[1], toks[3:], node_cap, obj_cap)
            elif len(toks) == 4 and toks[2] == "over":
                _fresh(ws, "vcategory", toks[1], no)
                if toks[3] not in ws.quantales:
                    raise ParseError(no, f"unknown quantale {toks[3]!r}")
                block = _VCatBlock(toks[1], toks[3], no)
            else:
                raise ParseError(no, "expected: vcategory NAME over Q | vcategory NAME = ...")
        elif head == "distributor":
            _close_block(ws, block)
            if len(toks) != 6 or toks[2] != ":" or toks[4] != "->":
                raise ParseError(no, "expected: distributor NAME : X -> Y")
            _fresh(ws, "distributor", toks[1], no)
            for v in (toks[3], toks[5]):
                if v not in ws.vcats:
                    raise ParseError(no, f"unknown vcategory {v!r}")
            block = _DistBlock(toks[1], toks[3], toks[5], no)
        elif block is not None:
            block.feed(no, toks)
        else:
            raise ParseError(no, f"unexpected {head!r} outside any block")
    _close_block(ws, block)
    return ws


def parse_files(
    paths, ws: Workspace | None = None, node_cap=DEFAULT_NODE_CAP, obj_cap=None
) -> Workspace:
    ws = ws or Workspace()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            parse_text(fh.read(), ws, node_cap, obj_cap)
    return ws


def show_quantale(name: str, q: Quantale) -> str:
    lines = [f"quantale {name}", "  elements " + " ".join(q.elements)]
    pairs = [
        f"{q.elements[i]}<{q.elements[j]}"
        for i in range(q.n)
        for j in range(q.n)
        if i != j and q.leq[i][j]
    ]
    if pairs:
        lines.append("  order " + " ".join(pairs))
    lines.append(f"  unit {q.elements[q.unit]}")
    for i in range(q.n):
        lines.append(
            "  mult "
            + " ".join(
                f"{q.elements[i]}*{q.elements[j]}={q.elements[q.mult[i][j]]}"
                for j in range(i, q.n)
            )
        )
    return "\n".join(lines) + "\n"


def show_vcategory(name: str, qname: str, x: VCategory) -> str:
    lines = [f"vcategory {name} over {qname}", "  objects " + " ".join(x.objects)]
    q = x.quantale
    for i in range(len(x)):
        for j in range(len(x)):
            lines.append(
                f"  hom {x.objects[i]} {x.objects[j]} = {q.elements[x.hom[i][j]]}"
            )
    return "\n".join(lines) + "\n"


def show_distributor(name: str, domname: str, codname: str, phi: Distributor) -> str:
    q = phi.dom.quantale
    lines = [f"distributor {name} : {domname} -> {codname}"]
    for x in range(len(phi.dom)):
        for y in range(len(phi.cod)):
            lines.append(
                f"  val {phi.dom.objects[x]} {phi.cod.objects[y]}"
                f" = {q.elements[phi.mat[y][x]]}"
            )
    return "\n".join(lines) + "\n"
