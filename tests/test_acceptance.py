"""Acceptance gate: thirteen end-to-end checks, one PASS/FAIL line each.

Each test computes its verdict, prints `ACCEPTANCE n: PASS|FAIL` straight to
the terminal (bypassing capture), and then asserts.
"""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

import vqcat
from vqcat.ccd import (
    ccd_closure_check,
    ccd_reflector,
    check_main_theorem,
    is_ccd,
    totally_below,
)
from vqcat.cocomplete import tensor_obj
from vqcat.dist import (
    VFunctor,
    is_adjoint_functors,
    right_lifting,
    validate_distributor,
)
from vqcat.errors import (
    NoSuchColimit,
    ReflexivityFail,
    TransitivityFail,
)
from vqcat.presheaf import (
    D_all,
    D_inv,
    D_on_functor,
    enumerate_presheaves,
    mu,
    yoneda,
)
from vqcat.quantale import BUILTIN_NAMES, builtin
from vqcat.tensorprod import (
    build_tensor_product,
    check_universal_property,
    enumerate_cocontinuous,
    enumerate_vfunctors,
    galois_iso,
    is_g_ideal,
    reflector_q,
)
from vqcat.vcat import (
    opposite,
    quantale_as_vcategory,
    separation_witness,
    tensor_vcat,
    underlying_order,
    validate_vcategory,
)

from categories import (
    graph,
    hom_ij,
    is_presheaf_vector,
    is_separated,
    terminal_category,
    try_cocomplete,
)


@pytest.fixture
def announce(capfd):
    def _announce(n, ok):
        with capfd.disabled():
            print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}", flush=True)

    return _announce


def small_categories(q, max_objects=2):
    """Every valid hom matrix on 1..max_objects named objects."""
    out = []
    for m in range(1, max_objects + 1):
        names = tuple(f"x{i}" for i in range(m))
        for flat in itertools.product(range(q.n), repeat=m * m):
            hom = tuple(tuple(flat[a * m + b] for b in range(m)) for a in range(m))
            try:
                out.append(validate_vcategory(q, names, hom))
            except (ReflexivityFail, TransitivityFail):
                continue
    return out


def test_criterion_1_quantale_suite(announce):
    ok = True
    for name in BUILTIN_NAMES:
        q = builtin(name)
        ok = ok and q.leq[q.unit][q.unit]
        for u, v, w in itertools.product(range(q.n), repeat=3):
            ok = ok and (q.leq[q.mult[u][v]][w] == q.leq[u][q.hom[v][w]])
    announce(1, ok)
    assert ok


def test_criterion_2_non_separation(announce):
    v = quantale_as_vcategory(builtin("r422"))
    vv = tensor_vcat(v, v)
    ae = vv.objects.index("(a,e)")
    ea = vv.objects.index("(e,a)")
    order = underlying_order(vv)
    ok = (
        not is_separated(vv)
        and separation_witness(vv) is not None
        and order[ae][ea]
        and order[ea][ae]
    )
    announce(2, ok)
    assert ok


def test_criterion_3_missing_tensor(announce):
    q = builtin("sugihara3")
    vv = tensor_vcat(quantale_as_vcategory(q), quantale_as_vcategory(q))
    witness, failing = try_cocomplete(vv)
    missing = 0
    for z in range(len(vv)):
        try:
            tensor_obj(vv, q.top, z)
        except NoSuchColimit:
            missing += 1
    ok = witness is None and failing is not None and missing >= 1
    announce(3, ok)
    assert ok


def test_criterion_4_yoneda_kz_suite(announce):
    ok = True
    for name in ("two", "heyting3", "sugihara3", "lukasiewicz3"):
        q = builtin(name)
        cats = small_categories(q)
        tables = []
        for x in cats:
            dx = enumerate_presheaves(x)
            y = yoneda(x, dx)
            # Yoneda lemma as an equality, and full faithfulness
            for a in range(len(x)):
                for k, phi in enumerate(dx.vectors):
                    ok = ok and hom_ij(dx, y.mapping[a], k) == phi[a]
                for b in range(len(x)):
                    ok = ok and hom_ij(dx, y.mapping[a], y.mapping[b]) == x.hom[a][b]
            # monad identities and the KZ adjoint string
            ddx = enumerate_presheaves(dx.cat)
            m = mu(x, dx, ddx)
            dy = D_on_functor(y, dx, ddx)
            y_d = yoneda(dx.cat, ddx)
            for k in range(len(dx)):
                ok = ok and m.mapping[dy.mapping[k]] == k
                ok = ok and m.mapping[y_d.mapping[k]] == k
            ok = ok and is_adjoint_functors(dy, m)
            ok = ok and is_adjoint_functors(m, y_d)
            tables.append((x, dx))
        # triple adjunction for every functor between every pair
        for xa, dxa in tables:
            for xb, dxb in tables:
                for mapping in enumerate_vfunctors(xa, xb):
                    f = VFunctor(xa, xb, mapping)
                    df = D_on_functor(f, dxa, dxb)
                    dinv = D_inv(f, dxa, dxb)
                    dall = D_all(f, dxa, dxb)
                    ok = ok and is_adjoint_functors(df, dinv)
                    ok = ok and is_adjoint_functors(dinv, dall)
        if not ok:
            break
    announce(4, ok)
    assert ok


def random_category(q, m, rng):
    """Random hom matrix repaired to satisfy the axioms (join closure)."""
    hom = [[rng.randrange(q.n) for _ in range(m)] for _ in range(m)]
    for a in range(m):
        hom[a][a] = q.join_of((hom[a][a], q.unit))
    changed = True
    while changed:
        changed = False
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    v = q.mult[hom[a][b]][hom[b][c]]
                    if not q.leq[v][hom[a][c]]:
                        hom[a][c] = q.join_of((hom[a][c], v))
                        changed = True
    return validate_vcategory(
        q, tuple(f"x{i}" for i in range(m)), tuple(map(tuple, hom))
    )


def random_distributor(x, y, rng):
    """Random matrix repaired to a bimodule by join closure."""
    q = x.quantale
    mat = [[rng.randrange(q.n) for _ in range(len(x))] for _ in range(len(y))]
    changed = True
    while changed:
        changed = False
        for y2 in range(len(y)):
            for yy in range(len(y)):
                for a in range(len(x)):
                    v = q.mult[y.hom[y2][yy]][mat[yy][a]]
                    for a2 in range(len(x)):
                        w = q.mult[v][x.hom[a][a2]]
                        if not q.leq[w][mat[y2][a2]]:
                            mat[y2][a2] = q.join_of((mat[y2][a2], w))
                            changed = True
    return validate_distributor(x, y, tuple(map(tuple, mat)))


def test_criterion_5_colimit_cross_validation(announce):
    rng = random.Random(20260823)
    checked = 0
    ok = True
    for name in ("two", "lukasiewicz3"):
        q = builtin(name)
        # cocomplete codomains: free cocompletions of one-object categories
        targets = []
        for v in range(q.n):
            base = validate_vcategory(q, ("w",), ((q.join_of((v, q.unit)),),))
            dx = enumerate_presheaves(base)
            if len(dx) <= 3:
                targets.append(dx.cat)
        while checked < (60 if name == "two" else 120):
            x = random_category(q, rng.randrange(1, 4), rng)
            y = random_category(q, rng.randrange(1, 4), rng)
            z = rng.choice(targets)
            fs = enumerate_vfunctors(y, z)
            if not fs:
                continue
            f = VFunctor(y, z, rng.choice(fs))
            phi = random_distributor(x, y, rng)
            from vqcat.cocomplete import weighted_colimit

            colim = weighted_colimit(phi, f)
            _, colim_upper = graph(colim)
            _, f_upper = graph(f)
            ok = ok and colim_upper.mat == right_lifting(phi, f_upper).mat
            checked += 1
    ok = ok and checked >= 100
    announce(5, ok)
    assert ok


def test_criterion_6_g_ideal_oracle(announce):
    two = builtin("two")
    chain2 = validate_vcategory(two, ("x0", "x1"), ((1, 1), (0, 1)))
    t = build_tensor_product(chain2, chain2)
    # naive filter over all 2^4 vectors
    naive = []
    for flat in itertools.product(range(2), repeat=4):
        if not is_presheaf_vector(t.ab, flat):
            continue
        if is_g_ideal(t.wa, t.wb, flat):
            naive.append(flat)
    enumerated = [t.ideal_vectors[k] for k in range(len(t.carrier))]
    iso = any(
        all(
            t.carrier.hom[i][j] == chain2.hom[p[i]][p[j]]
            for i in range(2)
            for j in range(2)
        )
        for p in itertools.permutations(range(2))
    )
    ok = sorted(naive) == sorted(enumerated) and len(naive) == 2 and iso
    announce(6, ok)
    assert ok


def _small_triple_corpus():
    two = builtin("two")
    chain2 = validate_vcategory(two, ("x0", "x1"), ((1, 1), (0, 1)))
    v = quantale_as_vcategory(two)
    one = terminal_category(two)
    return [chain2, v, one]


def test_criterion_7_universal_property(announce):
    cats = _small_triple_corpus()
    ok = all(
        check_universal_property(a, b, c)
        for a, b, c in itertools.product(cats, repeat=3)
    )
    vl = quantale_as_vcategory(builtin("lukasiewicz3"))
    ok = ok and check_universal_property(vl, vl, vl)
    announce(7, ok)
    assert ok


def test_criterion_8_galois_iso(announce):
    cats = _small_triple_corpus()
    ok = True
    for a, b in itertools.product(cats, repeat=2):
        ok = ok and galois_iso(a, b)
        count = len(enumerate_cocontinuous(a, opposite(b)))
        ok = ok and count == len(build_tensor_product(a, b).carrier)
    vl = quantale_as_vcategory(builtin("lukasiewicz3"))
    ok = ok and galois_iso(vl, vl)
    announce(8, ok)
    assert ok


def test_criterion_9_main_theorem(announce):
    two = builtin("two")
    chain2 = validate_vcategory(two, ("x0", "x1"), ((1, 1), (0, 1)))
    m3_names = ("bot", "a", "b", "c", "top")
    le = {(i, j) for i in range(5) for j in range(5) if i == j or i == 0 or j == 4}
    m3 = validate_vcategory(
        two,
        m3_names,
        tuple(tuple(1 if (i, j) in le else 0 for j in range(5)) for i in range(5)),
    )
    cases = [
        (quantale_as_vcategory(two), True),
        (quantale_as_vcategory(builtin("lukasiewicz3")), True),
        (chain2, True),
        (enumerate_presheaves(chain2).cat, True),  # free cocompletion
        (m3, False),
    ]
    ok = True
    for x, expected in cases:
        rep = check_main_theorem(x)
        ok = ok and rep.consistent and rep.ccd == expected
    announce(9, ok)
    assert ok


def _reflector_pairs():
    two = builtin("two")
    chain2 = validate_vcategory(two, ("x0", "x1"), ((1, 1), (0, 1)))
    vl = quantale_as_vcategory(builtin("lukasiewicz3"))
    return [chain2, vl]


def test_criterion_10_reflector_agreement(announce):
    ok = True
    for x in _reflector_pairs():
        t = build_tensor_product(x, x)
        ta = totally_below(t.wa)
        for xi in t.dab.vectors:
            ok = ok and ccd_reflector(ta, ta, xi) == reflector_q(t, xi)
    announce(10, ok)
    assert ok


def test_criterion_11_ccd_closure(announce):
    ok = all(ccd_closure_check(x, x) for x in _reflector_pairs())
    announce(11, ok)
    assert ok


def classical_ccd(leq):
    """Independent checker: every element is the join of the elements
    totally below it (u below a: whenever a <= join(S), some s in S has
    u <= s), quantifying over all subsets."""
    n = len(leq)

    def join(subset):
        ups = [
            b
            for b in range(n)
            if all(leq[s][b] for s in subset)
        ]
        for u in ups:
            if all(leq[u][v] for v in ups):
                return u
        return None

    subsets = [
        [s for s in range(n) if mask >> s & 1] for mask in range(1 << n)
    ]
    joins = [join(s) for s in subsets]
    for a in range(n):
        below = []
        for u in range(n):
            if all(
                j is None or not leq[a][j] or any(leq[u][s] for s in sub)
                for sub, j in zip(subsets, joins)
            ):
                below.append(u)
        if join(below) != a:
            return False
    return True


def test_criterion_12_classical_oracle(announce):
    two = builtin("two")
    ok = True
    lattices = 0
    for n in range(1, 7):
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(cells)):
            leq = [[i == j for j in range(n)] for i in range(n)]
            for bit, (i, j) in enumerate(cells):
                if mask >> bit & 1:
                    leq[i][j] = True
            # transitive?
            if any(
                leq[i][j] and leq[j][k] and not leq[i][k]
                for i in range(n)
                for j in range(n)
                for k in range(n)
            ):
                continue
            # lattice? unique lub and glb for every pair
            def bound(i, j, up):
                if up:
                    cands = [b for b in range(n) if leq[i][b] and leq[j][b]]
                else:
                    cands = [b for b in range(n) if leq[b][i] and leq[b][j]]
                for u in cands:
                    if all((leq[u][v] if up else leq[v][u]) for v in cands):
                        return u
                return None

            if any(
                bound(i, j, True) is None or bound(i, j, False) is None
                for i in range(n)
                for j in range(n)
            ):
                continue
            lattices += 1
            x = validate_vcategory(
                two,
                tuple(f"x{i}" for i in range(n)),
                tuple(tuple(int(v) for v in row) for row in leq),
            )
            ok = ok and is_ccd(x) == classical_ccd(leq)
    # labels follow a fixed linear extension, so each lattice appears at
    # least once up to isomorphism; 51 labeled instances at sizes 1..6
    ok = ok and lattices >= 50
    announce(12, ok)
    assert ok


def test_criterion_13_determinism(announce):
    src = str(Path(vqcat.__file__).resolve().parent.parent)
    outs = []
    for _ in range(4):
        proc = subprocess.run(
            [sys.executable, "-m", "vqcat.cli", "corpus", "--machine"],
            capture_output=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        )
        outs.append((proc.returncode, proc.stdout))
    ok = all(code == 0 for code, _ in outs) and len({out for _, out in outs}) == 1
    announce(13, ok)
    assert ok
