"""Deterministic verification suite over the shipped example files.

Each instance loads a packaged workspace file, runs a library check, and
reports fixed-order key/value records.  Instances run one after another in
the order of `INSTANCES`, so the output is deterministic.
"""

from __future__ import annotations

import itertools
from importlib import resources

from .ccd import ccd_closure_check, ccd_reflector, check_main_theorem, totally_below
from .cocomplete import check_cocomplete, tensor_obj
from .errors import NoSuchColimit, NotCocomplete
from .presheaf import cauchy_completion, enumerate_presheaves, vector_name
from .quantale import BUILTIN_NAMES, builtin
from .tensorprod import (
    build_tensor_product,
    check_universal_property,
    galois_iso,
    reflector_q,
    star_autonomy_check,
)
from .textio import Workspace, parse_text, show_quantale, show_vcategory
from .vcat import underlying_order, separation_witness

DATA_FILES = (
    "chain2.vcat",
    "freedisc2.vcat",
    "m3.vcat",
    "vluk.vcat",
    "vtimesv_r422.vcat",
    "vtimesv_sugihara3.vcat",
    "vtwo.vcat",
)


def data_text(name: str) -> str:
    return resources.files("vqcat.data").joinpath(name).read_text(encoding="utf-8")


def load(name: str) -> Workspace:
    return parse_text(data_text(name))


def _yn(b) -> str:
    return "yes" if b else "no"


def _builtins():
    recs = []
    for name in BUILTIN_NAMES:
        q = builtin(name)
        recs.append((f"{name}.size", str(q.n)))
        recs.append((f"{name}.unit", q.elements[q.unit]))
        recs.append((f"{name}.integral", _yn(q.integral)))
    return True, recs


def _roundtrip():
    ok = True
    recs = []
    for fname in DATA_FILES:
        ws = load(fname)
        again = Workspace()
        for name, q in ws.quantales.items():
            parse_text(show_quantale(name, q), again)
            ok = ok and again.quantales[name] == q
        for name, x in ws.vcats.items():
            parse_text(show_vcategory(name, ws.vcat_quantale[name], x), again)
            ok = ok and again.vcats[name] == x
        recs.append((fname, _yn(ok)))
    return ok, recs


def _separated_r422():
    ws = load("vtimesv_r422.vcat")
    vv = ws.vcats["VV"]
    wit = separation_witness(vv)
    order = underlying_order(vv)
    ae, ea = vv.objects.index("(a,e)"), vv.objects.index("(e,a)")
    mutual = order[ae][ea] and order[ea][ae]
    ok = wit is not None and mutual
    recs = [
        ("separated", _yn(wit is None)),
        ("witness", f"{vv.objects[wit[0]]}~{vv.objects[wit[1]]}" if wit else "-"),
        ("ae-ea-identified", _yn(mutual)),
    ]
    return ok, recs


def _sugihara_square():
    ws = load("vtimesv_sugihara3.vcat")
    vv = ws.vcats["VV"]
    q = ws.quantales["sugihara3"]
    try:
        check_cocomplete(vv)
        return False, [("cocomplete", "yes")]
    except NotCocomplete as exc:
        failing = vector_name(vv, exc.failing.values)
    missing = []
    for z in range(len(vv)):
        try:
            tensor_obj(vv, q.top, z)
        except NoSuchColimit:
            missing.append(vv.objects[z])
    return bool(missing), [
        ("cocomplete", "no"),
        ("failing-presheaf", failing),
        ("no-tensor-by-top", ",".join(missing) if missing else "-"),
    ]


def _iso_categories(x, y) -> bool:
    if len(x) != len(y) or x.quantale != y.quantale:
        return False
    for perm in itertools.permutations(range(len(x))):
        if all(
            x.hom[i][j] == y.hom[perm[i]][perm[j]]
            for i in range(len(x))
            for j in range(len(x))
        ):
            return True
    return False


def _tensor_chain2():
    c2 = load("chain2.vcat").vcats["C2"]
    t = build_tensor_product(c2, c2)
    iso = _iso_categories(t.carrier, c2)
    ok = len(t.carrier) == 2 and iso
    return ok, [
        ("ideal-count", str(len(t.carrier))),
        ("carrier-iso-chain2", _yn(iso)),
    ]


def _cauchy_chain2():
    c2 = load("chain2.vcat").vcats["C2"]
    dx = enumerate_presheaves(c2)
    sub, kept = cauchy_completion(c2, dx)
    reps = sorted(
        dx.index[bytes(c2.hom[a][b] for a in range(len(c2)))] for b in range(len(c2))
    )
    ok = list(kept) == reps
    return ok, [
        ("size", str(len(kept))),
        ("matches-representables", _yn(ok)),
    ]


_THEOREM_CASES = (
    # (label, file, vcat name, expected ccd)
    ("v-two", "vtwo.vcat", "V", True),
    ("v-lukasiewicz3", "vluk.vcat", "V", True),
    ("chain2-two", "chain2.vcat", "C2", True),
    ("free-disc2-two", "freedisc2.vcat", "FreeD2", True),
    ("m3-two", "m3.vcat", "M3", False),
)


def _theorem(fname, vname, expected):
    def run():
        x = load(fname).vcats[vname]
        rep = check_main_theorem(x)
        ok = rep.consistent and rep.ccd == expected
        return ok, [
            ("ccd", _yn(rep.ccd)),
            ("nuclear", _yn(rep.nuclear)),
            ("theorem", "consistent" if rep.consistent else "INCONSISTENT"),
        ]

    return run


_PAIR_CASES = (
    ("chain2-two", "chain2.vcat", "C2"),
    ("v-lukasiewicz3", "vluk.vcat", "V"),
)


def _reflectors(fname, vname):
    def run():
        x = load(fname).vcats[vname]
        t = build_tensor_product(x, x)
        ta = totally_below(t.wa)
        agree = all(
            ccd_reflector(ta, ta, xi) == reflector_q(t, xi) for xi in t.dab.vectors
        )
        return agree, [
            ("presheaves", str(len(t.dab))),
            ("agree", _yn(agree)),
        ]

    return run


def _closure(fname, vname):
    def run():
        x = load(fname).vcats[vname]
        ok = ccd_closure_check(x, x)
        return ok, [("closed", _yn(ok))]

    return run


def _universal():
    ws = load("chain2.vcat")
    c2 = ws.vcats["C2"]
    wst = load("vtwo.vcat")
    small = [("C2", c2), ("V", wst.vcats["V"]), ("T", wst.vcats["T"])]
    recs = []
    ok = True
    for (na, a), (nb, b) in itertools.product(small, repeat=2):
        t = build_tensor_product(a, b)
        for nc, c in small:
            r = check_universal_property(a, b, c, t=t)
            ok = ok and r
            recs.append((f"two.{na}.{nb}.{nc}", _yn(r)))
    vl = load("vluk.vcat").vcats["V"]
    r = check_universal_property(vl, vl, vl)
    ok = ok and r
    recs.append(("lukasiewicz3.V.V.V", _yn(r)))
    return ok, recs


def _galois():
    ws = load("chain2.vcat")
    c2 = ws.vcats["C2"]
    wst = load("vtwo.vcat")
    small = [("C2", c2), ("V", wst.vcats["V"]), ("T", wst.vcats["T"])]
    recs = []
    ok = True
    for (na, a), (nb, b) in itertools.product(small, repeat=2):
        r = galois_iso(a, b)
        ok = ok and r
        recs.append((f"two.{na}.{nb}", _yn(r)))
    vl = load("vluk.vcat").vcats["V"]
    r = galois_iso(vl, vl)
    ok = ok and r
    recs.append(("lukasiewicz3.V.V", _yn(r)))
    return ok, recs


def _star():
    recs = []
    ok = True
    for label, fname, vname in (
        ("v-two", "vtwo.vcat", "V"),
        ("free-disc2-two", "freedisc2.vcat", "FreeD2"),
    ):
        r = star_autonomy_check(load(fname).vcats[vname])
        ok = ok and r
        recs.append((label, _yn(r)))
    return ok, recs


INSTANCES = [
    ("quantale.builtins", _builtins),
    ("textio.roundtrip", _roundtrip),
    ("separated.vtimesv-r422", _separated_r422),
    ("cocomplete.vtimesv-sugihara3", _sugihara_square),
    ("tensor.chain2", _tensor_chain2),
    ("cauchy.chain2", _cauchy_chain2),
    *[
        (f"theorem.{label}", _theorem(f, v, e))
        for label, f, v, e in _THEOREM_CASES
    ],
    *[(f"reflector.{label}", _reflectors(f, v)) for label, f, v in _PAIR_CASES],
    *[(f"closure.{label}", _closure(f, v)) for label, f, v in _PAIR_CASES],
    ("universal.small", _universal),
    ("galois.small", _galois),
    ("star.small", _star),
]


def run_corpus(machine: bool = False):
    """Run every instance; returns (exit_code, list of output lines)."""
    lines = []
    all_ok = True
    for name, fn in INSTANCES:
        ok, recs = fn()
        all_ok = all_ok and ok
        if machine:
            for key, value in recs:
                lines.append(f"{name}.{key}={value}")
            lines.append(f"{name}.ok={_yn(ok)}")
        else:
            lines.append(f"[{name}]")
            for key, value in recs:
                lines.append(f"  {key}: {value}")
            lines.append(f"  ok: {_yn(ok)}")
    if machine:
        lines.append(f"corpus.ok={_yn(all_ok)}")
    else:
        lines.append("corpus: " + ("all checks passed" if all_ok else "FAILURES"))
    return (0 if all_ok else 2), lines
