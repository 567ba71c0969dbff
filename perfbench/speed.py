"""Host-speed probe: timings scaled to a reference speed.

The benchmark's host is shared.  Its speed flips between a fast and a slow
state, 1.6-1.8 times apart, within fractions of a second, and the share of
time spent fast changes from minute to minute, on wall and CPU clocks alike.
`probe` times a fixed task made of what geowl spends its time on (exact
rational arithmetic, tuple sorting and dict interning).  While a run
measures, a SIGALRM interval timer runs it every PROBE_EVERY seconds, also in
the middle of an operation, and the probe's time is taken out of that
operation's latency.  Each latency is then multiplied by the mean of
REF_S / probe time over the probes that started during the operation or
within PAD seconds of it, which gives seconds at the speed where the probe
takes REF_S.  On a 2-core x86 VM this cut the spread of one pass's time from
6-8 % to 1-1.5 % (coefficient of variation over ten passes).  The probe is
the benchmark's own code: a change to geowl moves the scaled times as it
moves the raw ones, while a slower or faster host moves the probe and the
operations together.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.002        # probe time at the reference speed
PROBE_EVERY = 0.05   # seconds of wall time between probes
PAD = 0.1            # probes this close to an operation also gauge its speed
WARMUP = 10          # untimed runs of the task before the first probe

_rng = random.Random(2303)
_POINTS = tuple(tuple(Fraction(_rng.randint(-60, 60), _rng.randint(1, 12)) for _ in range(3))
                for _ in range(8))


def _task() -> int:
    n = len(_POINTS)
    ids: dict = {}
    col = {(i, j): ids.setdefault(sum((a - b) ** 2 for a, b in zip(_POINTS[i], _POINTS[j])),
                                  len(ids))
           for i in range(n) for j in range(n)}
    for _ in range(2):
        ids = {}
        col = {(i, j): ids.setdefault(
                   (c, tuple(sorted((col[i, k], col[k, j]) for k in range(n)))), len(ids))
               for (i, j), c in col.items()}
    return len(ids)


def probe() -> float:
    """Seconds the fixed task takes now, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _task()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probe times, and the scale factor they give.

    `sample` probes once.  Inside `with speed:` a SIGALRM interval timer
    probes every PROBE_EVERY seconds; `busy` adds up the seconds spent in
    those probes, so that a caller can take them out of what it times.
    """

    def __init__(self):
        self.starts: list[float] = []    # when each probe started
        self.probes: list[float] = []    # how long it took
        self.busy = 0.0
        for _ in range(WARMUP):          # the interpreter specialises the task's code
            _task()

    def sample(self) -> None:
        self.starts.append(perf_counter())
        self.probes.append(probe())

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.sample()
        self.busy += perf_counter() - t0

    def __enter__(self) -> "Speed":
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scale(self) -> float:
        """Mean of REF_S / probe time: the speed relative to the reference."""
        return statistics.fmean(REF_S / p for p in self.probes)

    def around(self, start: float, end: float) -> float:
        """`scale` over the probes from PAD before start to PAD after end, or,
        if there are none, over the first later probe (the last probe, if no
        later one exists)."""
        i = bisect.bisect_left(self.starts, start - PAD)
        j = bisect.bisect_right(self.starts, end + PAD)
        if i == j:
            i, j = min(i, len(self.probes) - 1), min(i, len(self.probes) - 1) + 1
        return statistics.fmean(REF_S / p for p in self.probes[i:j])
