"""Run one workload of the vqcat benchmark and print the result as JSON.

    python3 perfbench/run.py --workload tensor --seed 1 --seconds 36 --trace 0

With `--trace 0` it reports the end-to-end metrics.  Every time among them is
CPU time (user + system) in reference seconds: scaled by the speed the
reference computation in `speed.py` shows in samples taken while the step
runs.  CPU time leaves out the time the process waits for a core, and the
scaling takes out the phases in which a shared host runs slower.

- `setup_s`: median over `SETUP_PROBES` fresh processes of the time from
  process start until it has imported `vqcat` and built the inputs.
- `pass_s`: one pass over every decision of the workload, taken as the sum
  over decisions of each one's median time across passes.  Passes repeat
  while another one fits in `--seconds` (at least one runs); pass p permutes
  the objects of every generated category afresh from (seed, p), so a run
  averages over several orders.
- `largest_s`: median time of the workload's largest decision.
- `peak_rss_mb`: this process's peak resident memory.

With `--trace 1` it runs pass 0 once untraced and once under `tracing.Tracer`
and reports the per-layer metrics plus `trace.overhead_s`; the spans are
written to `perfbench/out/`.  It also checks that the tracer restored every
name it rebound and that both passes gave the same outputs.

Every decision's output is checked (`workloads.check`); a decision that
raises or differs counts as failed.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from speed import Speed

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
def setup_probe(workload: str, seed: int) -> float:
    """Reference seconds a fresh interpreter spends until its inputs are
    ready, scaled by the speed the interpreter measured right after."""
    with subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline().split()
        _, err = proc.communicate()
    if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    return float(line[1])


def run_pass(vq, workload, inputs, expected, tracer=None, speed=None):
    """Run every decision once; return (seconds, decision seconds, records,
    failures).  Seconds are CPU seconds, or with a running `speed`
    reference seconds."""
    times, records = {}, {}
    gc.collect()
    for name, decide in workloads.DECISIONS[workload]:
        mark = speed.mark() if speed is not None else None
        t0 = time.process_time()
        try:
            if tracer is None:
                records[name] = decide(vq, inputs)
            else:
                with tracer.decision(name):
                    records[name] = decide(vq, inputs)
        except Exception as exc:  # a decision that raises is a failed decision
            records[name] = {"raised": f"{type(exc).__name__}: {exc}"}
        times[name] = time.process_time() - t0 if speed is None else speed.scale(mark)
    total = sum(times.values())
    failures = {}
    for name, rec in records.items():
        bad = workloads.check(workload, name, rec, expected)
        if bad:
            failures[name] = bad
    return total, times, records, failures


def report_failures(failures):
    for name, bad in failures.items():
        print(f"FAILED {name}: {'; '.join(bad)}", file=sys.stderr)


def measure(vq, args, expected) -> dict:
    speed = Speed()
    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    times, attempted, failed, passes = {}, 0, 0, []
    start = time.perf_counter()
    while True:
        inputs = workloads.build_inputs(vq, args.workload, args.seed, len(passes))
        with speed.running():
            total, pass_times, _, failures = run_pass(
                vq, args.workload, inputs, expected, speed=speed
            )
        del inputs
        report_failures(failures)
        passes.append(total)
        for name, t in pass_times.items():
            times.setdefault(name, []).append(t)
        attempted += len(pass_times)
        failed += len(failures)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        f"{len(passes)} passes of {[round(t, 3) for t in passes]} reference s, "
        f"mean speed factor {speed.factor():.4f}",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": sum(medians.values()), "unit": "s"},
            "largest_s": {"value": medians[workloads.LARGEST[args.workload]], "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        },
    }


def measure_traced(vq, args, expected) -> dict:
    snap = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.decision("setup"):
            inputs = workloads.build_inputs(vq, args.workload, args.seed, 0)
    finally:
        tracer.uninstall()
    plain = run_pass(vq, args.workload, inputs, expected)
    tracer.install()
    try:
        traced = run_pass(vq, args.workload, inputs, expected, tracer)
    finally:
        tracer.uninstall()
    problems = [f"not restored: {name}" for name in tracing.not_restored(snap)]
    if plain[2] != traced[2]:
        problems.append("traced outputs differ from untraced outputs")
    for line in problems:
        print(line, file=sys.stderr)
    report_failures(plain[3])
    report_failures(traced[3])
    tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced[0] - plain[0]
    failed = len(plain[3]) + len(traced[3])
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(plain[1]) + len(traced[1]),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": tracing.unit(name)} for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("VQ_THREADS", None)
    try:
        vq = workloads.import_library()
        expected = workloads.load_expected(args.workload)
    except (ImportError, OSError) as exc:
        print(f"cannot load the library or expected outputs: {exc}", file=sys.stderr)
        return 1
    result = (measure_traced if args.trace else measure)(vq, args, expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
