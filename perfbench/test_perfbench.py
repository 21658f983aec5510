"""Self-tests of the benchmark: seed invariance, output checks, tracer
hygiene, the speed sampler.

    python3 -m unittest discover -s perfbench -p "test_*.py"

They run the cheaper decisions only; the heavy ones take the same code paths.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HEAVY = {
    "tensor.m3.m3.galois",
    "corpus",
    "theorem.chain6-two",
    "universal.chain3.chain3.chain5",
    "cocompletion.bool5-two",
    "cocompletion.V-heyt9",
}

VQ = workloads.import_library()


def light(workload):
    return [(n, d) for n, d in workloads.DECISIONS[workload] if n not in HEAVY]


class SeedTest(unittest.TestCase):
    def test_two_seeds_permute_objects_and_give_identical_checked_outputs(self):
        for workload in ("tensor", "cocompletion"):
            expected = workloads.load_expected(workload)
            a = workloads.build_inputs(VQ, workload, 1)
            b = workloads.build_inputs(VQ, workload, 2)
            self.assertTrue(any(a[k].objects != b[k].objects for k in a))
            for k in a:
                self.assertEqual(sorted(a[k].objects), sorted(b[k].objects))
            for name, decide in light(workload):
                with self.subTest(workload=workload, decision=name):
                    ra, rb = decide(VQ, a), decide(VQ, b)
                    self.assertEqual(ra, rb)
                    self.assertEqual(workloads.check(workload, name, ra, expected), [])

    def test_same_seed_and_pass_give_the_same_inputs(self):
        a = workloads.build_inputs(VQ, "tensor", 3, 1)
        b = workloads.build_inputs(VQ, "tensor", 3, 1)
        self.assertEqual({k: x.objects for k, x in a.items()}, {k: x.objects for k, x in b.items()})


class CheckTest(unittest.TestCase):
    def test_wrong_verdicts_and_counts_fail(self):
        exp = workloads.load_expected("tensor")
        rec = dict(exp["theorem.N5-two"], ccd=True, nuclear=True)
        self.assertTrue(workloads.check("tensor", "theorem.N5-two", rec, exp))
        exp = workloads.load_expected("cocompletion")
        rec = dict(exp["cocompletion.bool4-two"], presheaves=167)
        self.assertTrue(workloads.check("cocompletion", "cocompletion.bool4-two", rec, exp))
        self.assertTrue(workloads.check("cocompletion", "x", {}, exp))

    def test_shipped_records_allow_extra_stats_keys_only(self):
        exp = workloads.load_expected("shipped")
        corpus = exp["corpus"]
        extra = {"exit": 0, "records": dict(corpus["records"], **{"stats.nodes": "7"})}
        self.assertEqual(workloads.check("shipped", "corpus", extra, exp), [])
        missing = {"exit": 0, "records": dict(list(corpus["records"].items())[1:])}
        self.assertTrue(workloads.check("shipped", "corpus", missing, exp))
        wrong_exit = dict(exp["check.ccd.m3"], exit=0)
        self.assertTrue(workloads.check("shipped", "check.ccd.m3", wrong_exit, exp))

    def test_lacks_supremum_oracle(self):
        x = workloads.chain(VQ, workloads.random.Random(0), workloads.lukasiewicz(VQ, 4), 3)
        q = x.quantale
        top = tuple(q.top for _ in range(len(x)))
        self.assertFalse(workloads.lacks_supremum(x, top))  # sup is the top object
        with self.assertRaises(VQ.NotCocomplete) as ctx:
            VQ.check_cocomplete(x)
        self.assertTrue(workloads.lacks_supremum(x, ctx.exception.failing.values))


class TraceTest(unittest.TestCase):
    def traced_pass(self, workload, inputs, expected):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = run.run_pass(VQ, workload, inputs, expected, tracer)
        finally:
            tracer.uninstall()
        return result, tracer.metrics()

    def test_traced_pass_restores_every_name_and_matches_untraced(self):
        for workload in workloads.WORKLOADS:
            expected = workloads.load_expected(workload)
            inputs = workloads.build_inputs(VQ, workload, 1)
            snap = tracing.snapshot()
            with mock.patch.dict(workloads.DECISIONS, {workload: light(workload)}):
                plain = run.run_pass(VQ, workload, inputs, expected)
                (traced, metrics), (_, again) = (
                    self.traced_pass(workload, inputs, expected) for _ in range(2)
                )
            with self.subTest(workload=workload):
                self.assertEqual(tracing.not_restored(snap), [])
                self.assertEqual(plain[3], {})
                self.assertEqual(traced[2], plain[2])
                self.assertGreater(metrics["presheaf.enumerate_calls"], 0)
                counts = [m for m in metrics if tracing.unit(m) == "count"]
                self.assertEqual({m: metrics[m] for m in counts}, {m: again[m] for m in counts})
                if workload == "cocompletion":
                    self.assertTrue(all(metrics[m] == 0 for m in counts if m.startswith("tensorprod.")))


class SpeedTest(unittest.TestCase):
    def test_reference_work_scales_to_its_reference_time_and_timer_is_restored(self):
        handler = signal.getsignal(signal.SIGPROF)
        sp = speed.Speed()
        calls = 200
        with sp.running():
            mark = sp.mark()
            for _ in range(calls):
                speed.reference()
            scaled = sp.scale(mark)
        self.assertIs(signal.getsignal(signal.SIGPROF), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertGreaterEqual(len(sp.samples), speed.MIN_SAMPLES)
        # The step was reference work only, so it scales to about its calls.
        self.assertLess(abs(scaled / (calls * speed.REFERENCE_S) - 1), 0.3)


class CheckoutTest(unittest.TestCase):
    def test_fails_without_the_library(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tensor",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
