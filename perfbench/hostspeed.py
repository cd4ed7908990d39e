"""The host's speed, measured alongside the work so time metrics can be scaled.

On a shared host the same work runs at speeds that drift by 20-35% over tens
of seconds to minutes, and a single process of ours sees it as slower code:
its CPU time grows with its wall time. `reference()` times a fixed pure-Python
loop that touches neither numpy nor mub6, so no change to mub6 moves it; only
the host's speed does. A time measured while the reference took `r` seconds
is reported as `time * NOMINAL_S / r`, the time on a host where the reference
takes NOMINAL_S. Raw times are kept beside the scaled ones in every record.

Stdlib only: the set-up probes import this module before numpy and mub6.
"""

from __future__ import annotations

import statistics
import time

# Median reference time on the 2-core host of the baseline in NOTES.md. Any
# constant would do: it fixes the unit, and both commits are scaled by it.
NOMINAL_S = 1.8e-3
PERIOD_S = 0.1


def reference() -> float:
    """CPU seconds one fixed pure-Python loop takes now (about NOMINAL_S).

    CPU time of the calling thread, so a thread of the same process that
    competes for the CPU does not read as a slow host.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.thread_time() - t0


def factor(samples: list[float]) -> float:
    """How much slower than nominal the host ran while `samples` were taken."""
    return statistics.median(samples) / NOMINAL_S


class Sampler:
    """Times `reference()` every PERIOD_S while the block runs.

    The ticks come from SIGALRM, whose handler runs in the main thread between
    bytecodes, so the samples interleave with the work being timed on the
    same CPU, even inside one long `mub6` command. They cost about 2% of the
    block's wall time, which stays in it. Main thread only.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference())

    def __enter__(self) -> Sampler:
        import signal

        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
