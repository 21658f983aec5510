"""The benchmark's three workloads: inputs built from a seed, and decisions.

A decision is one call, or a short fixed sequence of calls, into the public
API of `vqcat` (or one `vq` command run in-process through `vqcat.cli.main`).
It returns a record of verdicts and counts that `check` compares with
`expected.json` and with facts known independently of the program.

Decisions look every library function up as a module attribute at call
time (`vqcat.check_cocomplete`, never a name bound at import), so the names
`tracing.Tracer` rebinds are the ones the decisions reach.

Run as a script (`python3 perfbench/workloads.py WORKLOAD SEED`) it imports
the library, builds the inputs and prints `ready` and the CPU seconds the
process has used since it started, in reference seconds (`speed.Speed`);
`run.py` reads that as `setup_s`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "vqcat" / "data"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("shipped", "tensor", "cocompletion")

# The decision whose time is reported as `largest_s`, per workload.
LARGEST = {
    "shipped": "tensor.m3.m3.galois",
    "tensor": "theorem.chain6-two",
    "cocompletion": "cocompletion.bool5-two",
}


def import_library():
    """Import `vqcat` from this checkout's `src`, never from site-packages."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vqcat
    import vqcat.cli
    import vqcat.corpus

    if Path(vqcat.__file__).resolve().parent != (SRC / "vqcat").resolve():
        raise ImportError(f"vqcat imported from {vqcat.__file__}, not from {SRC}")
    return vqcat


# ---------------------------------------------------------------- generators


def _chain_quantale(vq, n, mul):
    leq = [[x <= y for y in range(n)] for x in range(n)]
    mult = [[mul(x, y) for y in range(n)] for x in range(n)]
    return vq.validate_quantale([f"{x}/{n - 1}" for x in range(n)], leq, mult, n - 1)


def lukasiewicz(vq, n):
    """The n-chain with x*y = max(0, x+y-top)."""
    return _chain_quantale(vq, n, lambda x, y: max(0, x + y - (n - 1)))


def heyting(vq, n):
    """The n-chain with meet as tensor."""
    return _chain_quantale(vq, n, min)


def _category(vq, rng, q, names, hom):
    """Validate a category after permuting its objects with `rng`.

    Every generated category goes through here, so the seed changes the
    object order and nothing else: the input is isomorphic for every seed.
    """
    order = list(range(len(names)))
    rng.shuffle(order)
    return vq.validate_vcategory(
        q, [names[i] for i in order], [[hom(i, j) for j in order] for i in order]
    )


def order_category(vq, rng, q, names, le):
    """A poset as a category over q: hom is top where le holds, else bottom."""
    return _category(
        vq, rng, q, names, lambda i, j: q.top if le(i, j) else q.bottom
    )


def chain(vq, rng, q, n):
    return order_category(vq, rng, q, [f"c{i}" for i in range(n)], lambda i, j: i <= j)


def boolean(vq, rng, k):
    """The Boolean algebra of subsets of a k-set, as a poset over `two`."""
    names = [format(s, f"0{k}b") for s in range(1 << k)]
    return order_category(
        vq, rng, vq.builtin("two"), names, lambda s, t: s & ~t == 0
    )


def lattice(vq, rng, names, covers):
    """A finite poset over `two`, given by its covering pairs."""
    n = len(names)
    le = [[i == j for j in range(n)] for i in range(n)]
    for i, j in covers:
        le[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    return order_category(vq, rng, vq.builtin("two"), names, lambda i, j: le[i][j])


def v_over_itself(vq, rng, q):
    """V as a category over itself, hom the residuation."""
    return _category(vq, rng, q, list(q.elements), lambda i, j: q.hom[i][j])


def build_inputs(vq, workload: str, seed: int, p: int = 0) -> dict:
    """Fill the builtin cache and build the workload's validated inputs.

    The object orders come from (seed, p); pass p of a run uses its own.
    """
    for name in vq.BUILTIN_NAMES:
        vq.builtin(name)
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs: dict = {}

    def rng(label):
        return random.Random(f"{seed}/{p}/{label}")

    two = vq.builtin("two")
    if workload == "shipped":
        for path in sorted(DATA.glob("*.vcat")):
            inputs[path.name] = str(path)
    elif workload == "tensor":
        luk4, heyt5 = lukasiewicz(vq, 4), heyting(vq, 5)
        for n in (3, 5, 6):
            inputs[f"chain{n}-two"] = chain(vq, rng(f"chain{n}"), two, n)
        inputs["N5-two"] = lattice(
            vq, rng("N5"), ["bot", "a", "b", "c", "top"],
            [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
        )
        inputs["M3-two"] = lattice(
            vq, rng("M3"), ["bot", "p", "q", "r", "top"],
            [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
        )
        inputs["V-luk4"] = v_over_itself(vq, rng("V-luk4"), luk4)
        inputs["V-heyt5"] = v_over_itself(vq, rng("V-heyt5"), heyt5)
    else:
        inputs["bool5-two"] = boolean(vq, rng("bool5"), 5)
        inputs["bool4-two"] = boolean(vq, rng("bool4"), 4)
        for n in (8, 12):
            inputs[f"V-luk{n}"] = v_over_itself(vq, rng(f"V-luk{n}"), lukasiewicz(vq, n))
        inputs["V-heyt9"] = v_over_itself(vq, rng("V-heyt9"), heyting(vq, 9))
        inputs["chain8-luk4"] = chain(vq, rng("chain8"), lukasiewicz(vq, 4), 8)
    return inputs


# ----------------------------------------------------------------- decisions


def _vq_command(argv, machine=False):
    def run(vq, inputs):
        paths = [inputs[a] if a in inputs else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vq.cli.main(paths)
        lines = out.getvalue().splitlines()
        if machine:
            return {"exit": code, "records": dict(line.split("=", 1) for line in lines)}
        return {"exit": code, "stdout": lines}

    return run


def _theorem(name):
    def run(vq, inputs):
        x = inputs[name]
        wa = vq.check_cocomplete(x)
        rep = vq.check_main_theorem(x, wa)
        return {"presheaves": len(wa.dx), "ccd": rep.ccd, "nuclear": rep.nuclear}

    return run


def _universal(a, b, c):
    def run(vq, inputs):
        x, y, z = inputs[a], inputs[b], inputs[c]
        t = vq.build_tensor_product(x, y)
        holds = vq.check_universal_property(x, y, z, t=t)
        return {"tensor_presheaves": len(t.dab), "carrier": len(t.carrier), "holds": holds}

    return run


def _galois(a, b):
    def run(vq, inputs):
        return {"holds": vq.galois_iso(inputs[a], inputs[b])}

    return run


def _cocompletion(name, full):
    def run(vq, inputs):
        x = inputs[name]
        dx = vq.enumerate_presheaves(x)
        w = vq.check_cocomplete(x, dx)
        rec = {"objects": len(x), "presheaves": len(dx), "cocomplete": True}
        if full:
            _, kept = vq.cauchy_completion(x, dx)
            rec["cauchy"] = len(kept)
            rec["ccd"] = vq.is_ccd(x, w)
        return rec

    return run


def _not_cocomplete(name):
    def run(vq, inputs):
        x = inputs[name]
        try:
            vq.check_cocomplete(x)
        except vq.NotCocomplete as exc:
            return {
                "cocomplete": False,
                "witness_valid": exc.failing is not None
                and lacks_supremum(x, exc.failing.values),
            }
        return {"cocomplete": True}

    return run


DECISIONS = {
    "shipped": [
        ("corpus", _vq_command(["corpus", "--machine"], machine=True)),
        ("tensor.m3.m3.galois", _vq_command(["tensor", "m3.vcat", "m3.vcat", "--galois"])),
        (
            "tensor.chain2.chain2.universal",
            _vq_command(
                ["tensor", "chain2.vcat", "chain2.vcat", "--galois",
                 "--check-universal", "vtwo.vcat"]
            ),
        ),
        ("check.nuclear.vluk", _vq_command(["check", "nuclear", "vluk.vcat"])),
        ("check.ccd.m3", _vq_command(["check", "ccd", "m3.vcat"])),
        ("cauchy.chain2", _vq_command(["cauchy", "chain2.vcat"])),
        ("presheaves.freedisc2", _vq_command(["presheaves", "--list", "freedisc2.vcat"])),
        ("vcat.separated.r422", _vq_command(["vcat", "separated", "vtimesv_r422.vcat"])),
        (
            "quantale.validate",
            _vq_command(
                ["quantale", "validate", "two", "heyting3", "sugihara3",
                 "lukasiewicz3", "r422", "powerset_z2"]
            ),
        ),
    ],
    "tensor": [
        ("theorem.chain5-two", _theorem("chain5-two")),
        ("theorem.chain6-two", _theorem("chain6-two")),
        ("theorem.N5-two", _theorem("N5-two")),
        ("theorem.V-luk4", _theorem("V-luk4")),
        ("theorem.V-heyt5", _theorem("V-heyt5")),
        ("universal.chain3.chain3.chain5", _universal("chain3-two", "chain3-two", "chain5-two")),
        ("universal.V-luk4.V-luk4.V-luk4", _universal("V-luk4", "V-luk4", "V-luk4")),
        ("galois.M3.M3", _galois("M3-two", "M3-two")),
    ],
    "cocompletion": [
        ("cocompletion.bool5-two", _cocompletion("bool5-two", full=False)),
        ("cocompletion.V-luk12", _cocompletion("V-luk12", full=False)),
        ("cocompletion.V-heyt9", _cocompletion("V-heyt9", full=True)),
        ("cocompletion.V-luk8", _cocompletion("V-luk8", full=True)),
        ("cocompletion.bool4-two", _cocompletion("bool4-two", full=True)),
        ("cocompletion.chain8-luk4", _not_cocomplete("chain8-luk4")),
    ],
}


# -------------------------------------------------------------------- checks


def lacks_supremum(x, values) -> bool:
    """Oracle from the quantale tables alone: `values` is a presheaf on x and
    no object's hom row equals X(sup phi, -) = meet_a [phi(a), X(a, -)]."""
    q = x.quantale
    m = len(x)
    if any(
        not q.leq[q.mult[x.hom[a][b]][values[b]]][values[a]]
        for a in range(m)
        for b in range(m)
    ):
        return False
    target = []
    for b in range(m):
        acc = q.top
        for a in range(m):
            acc = q.meet[acc][q.hom[values[a]][x.hom[a][b]]]
        target.append(acc)
    return all(list(x.hom[b]) != target for b in range(m))


def _facts(workload, name, rec):
    """Failures of facts known independently of the recorded outputs."""
    bad = []
    if workload == "shipped":
        out = rec.get("stdout", [])
        if name == "tensor.m3.m3.galois" and (
            "tensor M3 (x) M3: carrier has 50 ideal presheaves" not in out
        ):
            bad.append("M3 (x) M3 must have 50 ideals")
        if name == "check.ccd.m3" and not any("not ccd" in line for line in out):
            bad.append("M3 must not be ccd")
        if name == "corpus":
            recs = rec.get("records", {})
            for key, value in recs.items():
                if key.startswith("theorem.") and key.endswith(".theorem"):
                    if value != "consistent":
                        bad.append(f"{key}: ccd and nuclear disagree")
            if recs.get("theorem.m3-two.ccd") != "no":
                bad.append("M3 must not be ccd")
    elif workload == "tensor" and name.startswith("theorem."):
        if rec.get("ccd") != rec.get("nuclear"):
            bad.append("ccd and nuclear disagree")
        if (rec.get("ccd") is False) != (name == "theorem.N5-two"):
            bad.append("only N5 is not ccd")
    elif workload == "cocompletion":
        dedekind = {"cocompletion.bool5-two": 7581, "cocompletion.bool4-two": 168}
        if name in dedekind and rec.get("presheaves") != dedekind[name]:
            bad.append(f"D(2^k) must have {dedekind[name]} presheaves (Dedekind)")
        if "cauchy" in rec and rec["cauchy"] != rec["objects"]:
            bad.append("a cocomplete category is its own Cauchy completion")
        if name == "cocompletion.chain8-luk4" and not (
            rec.get("cocomplete") is False and rec.get("witness_valid") is True
        ):
            bad.append("chain8 over luk4 must fail with a presheaf lacking a sup")
    return bad


def check(workload, name, rec, expected) -> list[str]:
    """Every way `rec` differs from what the decision must return."""
    bad = _facts(workload, name, rec)
    want = expected.get(name)
    if want is None:
        return bad + ["no expected record"]
    if "records" in want:
        if rec.get("exit") != want["exit"]:
            bad.append(f"exit {rec.get('exit')} != {want['exit']}")
        got = rec.get("records", {})
        for key, value in want["records"].items():
            if got.get(key) != value:
                bad.append(f"{key}={got.get(key)} != {value}")
    elif "stdout" in want:
        got = [line for line in rec.get("stdout", []) if not line.startswith("stats.")]
        if rec.get("exit") != want["exit"] or got != want["stdout"]:
            bad.append(f"output differs: {rec}")
    elif rec != want:
        bad.append(f"{rec} != {want}")
    return bad


def load_expected(workload):
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[workload]


if __name__ == "__main__":
    from speed import Speed

    speed = Speed()
    with speed.running():
        vq = import_library()
        build_inputs(vq, sys.argv[1], int(sys.argv[2]))
    print("ready", speed.scale((0.0, 0.0, 0)), flush=True)
