"""Print every end-to-end metric, and failed_frac, for every workload.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Runs `run.py` once per workload in a child process (the end-to-end metrics
need one process per workload) and prints one line per metric with its
unit.  `failed_frac` is failed decisions over attempted ones; it is printed
here rather than listed in `BENCHMARK.json` because it is 0 whenever the
program is right.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    code = 0
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: run.py exited with {proc.returncode}")
            code = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"[{workload}] correct={result['correct']} attempted={result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'failed_frac':32s} {result['failed'] / result['attempted']:14.6g} ratio")
    return code


if __name__ == "__main__":
    sys.exit(main())
