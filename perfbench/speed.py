"""Machine speed, sampled with a fixed pure-Python reference while work runs.

On a shared host the throughput of a core moves by tens of percent, in
bursts of a fraction of a second and in phases of minutes.  While a `Speed`
is running, a CPU-time interval timer (`ITIMER_PROF`) interrupts the process
every `INTERVAL_S` of CPU time, and the handler runs `reference` once.  A
step's time in reference seconds is its CPU time, less the handler's, over
the factor the samples taken during the step give: the reference's mean CPU
time per call over `REFERENCE_S`.  A slow phase slows the step and the
samples inside it alike, so the scaled time stays put, while a change to the
program changes the step alone.

`reference` is written in the library's style, but it is the benchmark's
own code and imports nothing from the library, so no change to the library
moves it.
"""

from __future__ import annotations

import contextlib
import signal
import time

# CPU seconds one `reference` call takes at reference speed: the median over
# 2,000 calls on the machine the baseline was measured on.
REFERENCE_S = 0.0023
# CPU seconds between two samples.
INTERVAL_S = 0.025
# A step with fewer samples than this takes the last MIN_SAMPLES of the run.
MIN_SAMPLES = 10

# The residuation of the 5-chain with min as tensor, and a 12-element poset:
# the product of a 3-chain and a 4-chain.
_Q = 5
_RES = tuple(tuple(_Q - 1 if a <= b else b for b in range(_Q)) for a in range(_Q))
_N = 12
_LE = tuple(tuple(i // 4 <= j // 4 and i % 4 <= j % 4 for j in range(_N)) for i in range(_N))


def reference() -> int:
    """The 35 down-sets of `_LE` by depth-first search, each made a vector
    over the 5-chain, then the table of homs between every pair: a meet over
    residuation lookups, as in a presheaf hom."""
    found = []

    def extend(k, cur):
        if k == _N:
            found.append(tuple(cur))
            return
        for v in (0, 1):
            if v and any(_LE[j][k] and not cur[j] for j in range(k)):
                continue
            if not v and any(_LE[k][j] and cur[j] for j in range(k)):
                continue
            cur.append(v)
            extend(k + 1, cur)
            cur.pop()

    extend(0, [])
    vectors = [tuple((2 * x + i) % _Q if x else 0 for i, x in enumerate(d)) for d in found]
    total = 0
    for f in vectors:
        for g in vectors:
            acc = _Q - 1
            for a, b in zip(f, g):
                r = _RES[a][b]
                if r < acc:
                    acc = r
            total += acc
    return total


class Speed:
    """Reference samples taken while timed work runs.

    `mark()` before a step and `scale(mark)` after it give the step's time in
    reference seconds.
    """

    def __init__(self):
        self.samples: list[float] = []  # CPU seconds of each reference call
        self.ref_cpu = 0.0

    def _sample(self, signum, frame):
        t0 = time.thread_time()
        reference()
        cpu = time.thread_time() - t0
        self.samples.append(cpu)
        self.ref_cpu += cpu

    @contextlib.contextmanager
    def running(self):
        """Sample the reference every INTERVAL_S of CPU time inside the block."""
        old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, old)

    def mark(self) -> tuple[float, float, int]:
        return time.process_time(), self.ref_cpu, len(self.samples)

    def cpu(self, mark) -> float:
        """CPU seconds since `mark`, less the time spent sampling."""
        return time.process_time() - mark[0] - (self.ref_cpu - mark[1])

    def factor(self, mark=None) -> float:
        """Mean reference time over REFERENCE_S, from the samples since
        `mark`, or from the last MIN_SAMPLES if there are fewer."""
        since = self.samples[mark[2]:] if mark else self.samples
        if len(since) < MIN_SAMPLES:
            since = self.samples[-MIN_SAMPLES:]
        if not since:
            t0 = time.thread_time()
            for _ in range(MIN_SAMPLES):
                reference()
            return (time.thread_time() - t0) / MIN_SAMPLES / REFERENCE_S
        return sum(since) / len(since) / REFERENCE_S

    def scale(self, mark) -> float:
        """Reference seconds since `mark`."""
        return self.cpu(mark) / self.factor(mark)
