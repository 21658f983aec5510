"""The `vq` command line tool.

Exit codes: 0 = verified / printed, 2 = a counterexample was found,
3 = a size cap was exceeded, 64 = usage, 1 = bad input files,
141 = the reader closed stdout early (128 + SIGPIPE, no message).

Every `vq check` action first needs a separated cocomplete category; on any
other input it prints "not cocomplete (...)" and exits 2, because that is a
counterexample to the property checked.  `vq tensor` needs separated
cocomplete factors as its input, so there the same failure is bad input,
exit 1.

`main` builds its argument parser once per process, on the first call, and
reuses it: `parse_args` returns a fresh namespace on every call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .ccd import check_main_theorem, is_nuclear, totally_below
from .cocomplete import check_cocomplete
from .dist import compose_dist, right_extension, right_lifting
from .errors import (
    NotCCD,
    NotCocomplete,
    NotSeparated,
    ParseError,
    SizeExceeded,
    VqError,
)
from .presheaf import DEFAULT_NODE_CAP, cauchy_completion, enumerate_presheaves, vector_name
from .quantale import BUILTIN_NAMES, builtin
from .tensorprod import build_tensor_product, check_universal_property, galois_iso
from .textio import (
    Workspace,
    parse_files,
    parse_text,
    show_distributor,
    show_quantale,
    show_vcategory,
)
from .vcat import opposite, separation_witness, tensor_vcat, underlying_order

DEFAULT_CAPS = (8, 8, DEFAULT_NODE_CAP)  # |V|, |objects|, search nodes


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_common(sp):
    """Global flags, accepted before or after the subcommand."""
    sp.add_argument(
        "--caps",
        metavar="V,OBJ,NODES",
        default=argparse.SUPPRESS,
        help="size caps: max quantale size, max objects, max search nodes",
    )
    sp.add_argument(
        "--machine",
        action="store_true",
        default=argparse.SUPPRESS,
        help="key=value output",
    )


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="vq", description="finite quantale-enriched category toolkit")
    p.add_argument("--caps", metavar="V,OBJ,NODES", default=None)
    p.add_argument("--machine", action="store_true", default=False)
    sub = p.add_subparsers(dest="group", required=True)

    q = sub.add_parser("quantale").add_subparsers(dest="action", required=True)
    for act in ("validate", "show"):
        sp = q.add_parser(act)
        sp.add_argument("sources", nargs="+", help="files, or builtin names")
        _add_common(sp)

    vc = sub.add_parser("vcat").add_subparsers(dest="action", required=True)
    for act in ("validate", "order", "separated", "op"):
        sp = vc.add_parser(act)
        sp.add_argument("files", nargs="+")
        _add_common(sp)
    sp = vc.add_parser("tensor")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("files", nargs="+")
    _add_common(sp)

    sp = sub.add_parser("presheaves")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--list", action="store_true", dest="list_all")
    _add_common(sp)

    sp = sub.add_parser("cauchy")
    sp.add_argument("files", nargs="+")
    _add_common(sp)

    ck = sub.add_parser("check").add_subparsers(dest="action", required=True)
    for act in ("cocomplete", "ccd", "nuclear", "theorem"):
        sp = ck.add_parser(act)
        sp.add_argument("files", nargs="+")
        _add_common(sp)

    sp = sub.add_parser("tensor")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--check-universal", metavar="FILE_C", dest="file_c")
    sp.add_argument("--galois", action="store_true")
    sp.add_argument("--list", action="store_true", dest="list_all")
    _add_common(sp)

    ds = sub.add_parser("dist").add_subparsers(dest="action", required=True)
    sp = ds.add_parser("compose", description="compose OUTER INNER: OUTER after INNER")
    sp.add_argument("outer")
    sp.add_argument("inner")
    sp.add_argument("files", nargs="+")
    _add_common(sp)
    sp = ds.add_parser("ext", description="right extension of XI along PHI")
    sp.add_argument("xi")
    sp.add_argument("phi")
    sp.add_argument("files", nargs="+")
    _add_common(sp)
    sp = ds.add_parser("lift", description="right lifting of XI through PSI")
    sp.add_argument("psi")
    sp.add_argument("xi")
    sp.add_argument("files", nargs="+")
    _add_common(sp)

    sp = sub.add_parser("corpus")
    _add_common(sp)
    return p


def _caps(args):
    if not args.caps:
        return DEFAULT_CAPS
    try:
        caps = tuple(int(x) for x in args.caps.split(","))
    except ValueError:
        caps = ()
    if len(caps) != 3 or min(caps) < 0:
        print(
            "vq: error: --caps expects three non-negative integers V,OBJ,NODES",
            file=sys.stderr,
        )
        raise SystemExit(64)
    return caps


def _load(files, caps) -> Workspace:
    ws = parse_files(files, node_cap=caps[2], obj_cap=caps[1])
    cap_v = caps[0]
    for name, q in ws.quantales.items():
        if q.n > cap_v:
            raise SizeExceeded(
                f"quantale {name} has {q.n} elements (cap {cap_v})", estimate=q.n
            )
    return ws


def _load_vcats(files, caps) -> Workspace:
    """`_load`; a workspace that defines no vcategory is bad input."""
    ws = _load(files, caps)
    if not ws.vcats:
        raise VqError(f"{' '.join(files)} defines no vcategory")
    return ws


def _check_obj_cap(ws: Workspace, caps):
    """Guard for enumeration-heavy commands; cheap structural commands skip it."""
    cap_obj = caps[1]
    for name, x in ws.vcats.items():
        if len(x) > cap_obj:
            raise SizeExceeded(
                f"vcategory {name} has {len(x)} objects (cap {cap_obj})",
                estimate=len(x),
            )


def _hom_comment(q) -> str:
    lines = ["# residuation [v,w], row-major in declared element order:"]
    for i in range(q.n):
        lines.append(
            "#   "
            + " ".join(q.elements[q.hom[i][j]] for j in range(q.n))
        )
    return "\n".join(lines)


def _named(table: dict, kind: str, name: str):
    """The workspace's `kind` named `name`; VqError if it defines none."""
    try:
        return table[name]
    except KeyError:
        raise VqError(f"unknown {kind} {name!r}") from None


def _vcat_name(ws: Workspace, cat) -> str:
    for name, x in ws.vcats.items():
        if x == cat:
            return name
    return "?"


def _cmd_quantale(args, caps) -> int:
    named = {}
    for src in args.sources:
        if src in BUILTIN_NAMES:
            named[src] = builtin(src)
        else:
            for name, q in _load([src], caps).quantales.items():
                named[name] = q
    for name, q in named.items():
        if args.action == "validate":
            print(f"quantale {name}: valid ({q.n} elements, unit {q.elements[q.unit]})")
        else:
            print(show_quantale(name, q), end="")
            print(_hom_comment(q))
    return 0


def _cmd_vcat(args, caps) -> int:
    ws = _load_vcats(args.files, caps)
    if args.action == "tensor":
        t = tensor_vcat(
            _named(ws.vcats, "vcategory", args.left), _named(ws.vcats, "vcategory", args.right)
        )
        qname = ws.vcat_quantale[args.left]
        print(show_vcategory(f"{args.left}x{args.right}", qname, t), end="")
        return 0
    code = 0
    for name, x in ws.vcats.items():
        if args.action == "validate":
            print(f"vcategory {name}: valid ({len(x)} objects)")
        elif args.action == "order":
            order = underlying_order(x)
            pairs = [
                f"{x.objects[a]}<={x.objects[b]}"
                for a in range(len(x))
                for b in range(len(x))
                if a != b and order[a][b]
            ]
            print(f"vcategory {name}: " + (" ".join(pairs) if pairs else "discrete order"))
        elif args.action == "separated":
            wit = separation_witness(x)
            if wit is None:
                print(f"vcategory {name}: separated")
            else:
                print(
                    f"vcategory {name}: not separated,"
                    f" {x.objects[wit[0]]} ~ {x.objects[wit[1]]}"
                )
                code = 2
        elif args.action == "op":
            print(show_vcategory(f"{name}_op", ws.vcat_quantale[name], opposite(x)), end="")
    return code


def _cmd_presheaves(args, caps) -> int:
    ws = _load_vcats(args.files, caps)
    _check_obj_cap(ws, caps)
    for name, x in ws.vcats.items():
        dx = enumerate_presheaves(x, caps[2])
        print(f"vcategory {name}: {len(dx)} presheaves")
        if args.list_all:
            for v in dx.vectors:
                print("  " + vector_name(x, v))
    return 0


def _cmd_cauchy(args, caps) -> int:
    ws = _load_vcats(args.files, caps)
    _check_obj_cap(ws, caps)
    for name, x in ws.vcats.items():
        dx = enumerate_presheaves(x, caps[2])
        _, kept = cauchy_completion(x, dx)
        print(f"vcategory {name}: completion has {len(kept)} objects")
        for i in kept:
            print("  " + vector_name(x, dx.vectors[i]))
    return 0


def _cmd_check(args, caps) -> int:
    ws = _load_vcats(args.files, caps)
    _check_obj_cap(ws, caps)
    code = 0
    for name, x in ws.vcats.items():
        try:
            wa = check_cocomplete(x, node_cap=caps[2])
        except (NotSeparated, NotCocomplete) as exc:
            print(f"vcategory {name}: not cocomplete ({exc})")
            code = max(code, 2)
            continue
        if args.action == "cocomplete":
            print(f"vcategory {name}: cocomplete")
        elif args.action == "ccd":
            try:
                totally_below(wa)
                print(f"vcategory {name}: ccd")
            except NotCCD as exc:
                print(f"vcategory {name}: not ccd, no totally-below presheaf for {exc.obj}")
                code = max(code, 2)
        elif args.action == "nuclear":
            verdict = is_nuclear(x, node_cap=caps[2])
            print(f"vcategory {name}: " + ("nuclear" if verdict else "not nuclear"))
            if not verdict:
                code = max(code, 2)
        else:  # theorem
            rep = check_main_theorem(x, wa, node_cap=caps[2])
            yn = lambda b: "yes" if b else "no"
            print(
                f"vcategory {name}: ccd: {yn(rep.ccd)}, nuclear: {yn(rep.nuclear)},"
                f" theorem: {'consistent' if rep.consistent else 'INCONSISTENT'}"
            )
            if not rep.consistent:
                code = max(code, 2)
    return code


def _cmd_tensor(args, caps) -> int:
    files = [f for f in (args.file_a, args.file_b, args.file_c) if f]
    spaces = [_load_vcats([f], caps) for f in files]
    for ws in spaces:
        _check_obj_cap(ws, caps)
    # the last vcategory of each file is its headline object
    (na, a), (nb, b), *rest = [next(reversed(ws.vcats.items())) for ws in spaces]
    t = build_tensor_product(a, b, node_cap=caps[2])
    print(f"tensor {na} (x) {nb}: carrier has {len(t.carrier)} ideal presheaves")
    if args.list_all:
        for k in range(len(t.carrier)):
            print("  " + t.carrier.objects[k])
    code = 0
    if rest:
        nc, c = rest[0]
        verdict = check_universal_property(a, b, c, t=t, node_cap=caps[2])
        print(f"universal property against {nc}: " + ("holds" if verdict else "FAILS"))
        code = max(code, 0 if verdict else 2)
    if args.galois:
        verdict = galois_iso(a, b, node_cap=caps[2])
        print("galois correspondence: " + ("holds" if verdict else "FAILS"))
        code = max(code, 0 if verdict else 2)
    return code


def _cmd_dist(args, caps) -> int:
    ws = _load(args.files, caps)

    def dist(name):
        return _named(ws.dists, "distributor", name)

    if args.action == "compose":
        res = compose_dist(dist(args.outer), dist(args.inner))
        name = f"{args.outer}.{args.inner}"
    elif args.action == "ext":
        res = right_extension(dist(args.xi), dist(args.phi))
        name = f"ext_{args.xi}_{args.phi}"
    else:
        res = right_lifting(dist(args.psi), dist(args.xi))
        name = f"lift_{args.psi}_{args.xi}"
    print(
        show_distributor(name, _vcat_name(ws, res.dom), _vcat_name(ws, res.cod), res),
        end="",
    )
    return 0


def _cmd_corpus(args, caps) -> int:
    from .corpus import run_corpus

    code, lines = run_corpus(machine=args.machine)
    print("\n".join(lines))
    return code


_COMMANDS = {
    "quantale": _cmd_quantale, "vcat": _cmd_vcat, "presheaves": _cmd_presheaves,
    "cauchy": _cmd_cauchy, "check": _cmd_check, "tensor": _cmd_tensor,
    "dist": _cmd_dist, "corpus": _cmd_corpus,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.group](args, _caps(args))
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: end quietly, with the code a SIGPIPE
        # death gives, and send the unflushed rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SizeExceeded as exc:
        print(f"size cap exceeded: {exc} (estimate {exc.estimate})", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (OSError, KeyError, VqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
