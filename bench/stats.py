"""Summary statistics used by the benchmark report."""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def tail_percentile(samples):
    """Highest whole percentile (50..99) with at least MIN_BEYOND samples
    ranked beyond it, by the nearest-rank method.

    Returns ``(percentile, value, beyond)``, or None when there are too few
    samples for even the median to have MIN_BEYOND samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = max(1, -(-p * n // 100))
        if n - rank >= MIN_BEYOND:
            return p, xs[rank - 1], n - rank
    return None


# On a shared host the speed drifts by a third within minutes (seen on the
# 2-core x86-64 host of the baseline).  Every timed operation is bracketed by
# a reference that does not touch the package, and its time is scaled by
# nominal / (mean of the reference times, with any taken during it).
# In-process work is bracketed by a pure-Python search kernel, whole CLI
# processes (mostly interpreter start-up) by a bare ``python -c pass``.  The
# nominals are fixed constants; on the baseline's host the references'
# medians ran 1.0-1.8 ms and 50-85 ms.
REFERENCE_S = 0.001
INTERPRETER_S = 0.05


# the triangle with one pendant per vertex (C3oO1), as an edge list
_KERNEL_EDGES = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5))


def _kernel() -> int:
    """Counts the local antimagic labelings of C3oO1 by full enumeration:
    a depth-first search over list state shaped like the solver's, but
    independent of the package."""
    edges = _KERNEL_EDGES
    q = len(edges)
    wt = [0] * 6
    used = [False] * (q + 1)
    count = 0

    def dfs(i: int) -> None:
        nonlocal count
        if i == q:
            for a, b in edges:
                if wt[a] == wt[b]:
                    return
            count += 1
            return
        a, b = edges[i]
        for lab in range(1, q + 1):
            if used[lab]:
                continue
            used[lab] = True
            wt[a] += lab
            wt[b] += lab
            dfs(i + 1)
            wt[a] -= lab
            wt[b] -= lab
            used[lab] = False

    dfs(0)
    return count


def reference_seconds() -> float:
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def interpreter_seconds() -> float:
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t


# While an in-process operation runs, the kernel is also run from a SIGALRM
# handler every SAMPLE_INTERVAL_S (it costs about 3% of the operation, and
# that time is taken out of the operation's).  On the baseline's host the
# speed swings by about a fifth within a second, so the two brackets alone
# are a poor sample of the speed over an operation of seconds: on one
# relabeled solve repeated 14 times, the coefficient of variation was 0.09
# unscaled, 0.11 scaled by brackets and 0.02 scaled by in-op samples.
SAMPLE_INTERVAL_S = 0.05


class _Samples:
    def __init__(self):
        self.times = []
        self.stolen = 0.0


_active = None


def _on_alarm(signum, frame) -> None:
    samples = _active
    if samples is None:        # a late alarm after the operation ended
        return
    t = time.perf_counter()
    samples.times.append(reference_seconds())
    samples.stolen += time.perf_counter() - t


def sampled_call(fn, *args):
    """``fn(*args)`` with the kernel sampled while it runs.

    Returns ``(result, seconds, samples)``: the seconds leave out the time
    spent in the samples.  The handler stays installed; it does nothing
    between operations.
    """
    global _active
    if signal.getsignal(signal.SIGALRM) is not _on_alarm:
        signal.signal(signal.SIGALRM, _on_alarm)
    samples = _active = _Samples()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    t = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        _active = None
        elapsed = time.perf_counter() - t
    return result, elapsed - samples.stolen, samples.times


class Scaler:
    """Brackets timed operations with a reference; samples taken during an
    operation count beside the two brackets."""

    def __init__(self, reference=reference_seconds, nominal=REFERENCE_S):
        self.reference = reference
        self.nominal = nominal
        self.last = reference()
        self.refs = [self.last]

    def scale(self, seconds: float, during=()) -> float:
        after = self.reference()
        self.refs.append(after)
        samples = [self.last, *during, after]
        self.last = after
        return seconds * self.nominal * len(samples) / sum(samples)
