"""Correction of timings for the host's speed at the moment they were taken.

On a shared virtual machine the speed of a vCPU changes by up to 1.8x
within seconds as other tenants come and go; on the reference machine
(2-core Xeon VM, Python 3.11) the same pass read anywhere from 0.54 s to
0.93 s in consecutive runs of one seed, far wider than any bound in
BENCHMARK.json.  So a fixed pure-Python reference loop runs before and
after every timed unit (one report, one fresh-process set-up), and, under
a Sampler, also every 50 ms of the process's CPU time while the unit runs;
the unit's time is scaled by REFERENCE_SECONDS over the median of those
loop times: what it would have taken on a host that runs the loop in
REFERENCE_SECONDS.  The sampler uses SIGPROF, which counts only this
process's CPU time, so it stays quiet while the process waits for pool
workers and does not measure its own contention with them.  Both the
parent and the change are corrected the same way, so their ratio is
kept.  Raw times are kept in the results file.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# The loop's time on the reference machine; a corrected time is in seconds
# on that machine.
REFERENCE_SECONDS = 6.0e-4

_ROWS = tuple(random.Random(1).getrandbits(40) for _ in range(40))
_KEYS = tuple(random.Random(2).getrandbits(20) for _ in range(1000))


def reference_seconds() -> float:
    """Time of fixed work of the kinds the program does, about 1 ms: GF(2)
    elimination on int rows (the scan), and building, sorting and walking
    tuples, lists and a dict (parsing, decomposition, rendering)."""
    start = time.perf_counter()
    for r in range(40):
        basis = {}
        for row in _ROWS:
            row ^= r
            while row:
                low = row & -row
                pivot = basis.get(low)
                if pivot is None:
                    basis[low] = row
                    break
                row ^= pivot
    table = {(k, k & 7): [k, str(k)] for k in _KEYS}
    total = 0
    for (a, b), _value in sorted(table.items(), key=lambda kv: kv[0][0] ^ 0x5A5A):
        total += a & b
    return time.perf_counter() - start


class Sampler:
    """Runs the reference loop every `interval` seconds of this process's
    CPU time while active.  samples holds the loop times and busy their
    total, which the caller takes out of the unit it is timing.  Forked
    children inherit no interval timer, so they are never sampled."""

    def __init__(self, interval: float = 0.05, active: bool = True):
        self.interval = interval if active else 0.0
        self.samples: list[float] = []
        self.busy = 0.0
        self._previous = None

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.busy += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def corrected(raw: float, probes) -> float:
    """raw seconds scaled to the reference speed, from the reference loop's
    times around the timed unit; their median, so that one loop that was
    interrupted does not skew the unit."""
    return raw * REFERENCE_SECONDS / statistics.median(probes)


def corrected_series(raw, probes, during, reach: int = 3) -> list[float]:
    """Each raw[i], timed between probes[i] and probes[i + 1] while the
    sampler took during[i], corrected with those samples and the `reach`
    probes on either side of it."""
    return [corrected(t, [*probes[max(0, i + 1 - reach):i + 1 + reach], *during[i]])
            for i, t in enumerate(raw)]
