"""Write `expected.json`: every decision's record, from the code checked out.

    python3 perfbench/record.py

Run it only at a commit whose outputs are trusted; the benchmark then
counts any later difference as a failed decision.  Records hold verdicts,
counts, exit codes and `vq` output, none of which depends on the seed.
"""

import json

import workloads


def main():
    vq = workloads.import_library()
    expected = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.build_inputs(vq, workload, 0)
        expected[workload] = {
            name: decide(vq, inputs) for name, decide in workloads.DECISIONS[workload]
        }
    with open(workloads.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
