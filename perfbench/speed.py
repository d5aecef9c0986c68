"""Machine-speed probe, interleaved with the measured work.

On a shared machine the speed at which any program runs drifts by a quarter
or more within seconds.  The probe is a fixed piece of interpreter and numpy
work that never touches tadkit; it is timed next to each measured piece of
work, and that work's time is scaled by ``NOMINAL_S / probe time``.  The
result reads as the time the work takes when the probe takes ``NOMINAL_S``.
Because the probe is the same code for every version of tadkit, the scaling
cannot favour one version over another.
"""

from __future__ import annotations

import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

#: Typical seconds of one probe on the 2-core machine the bounds in
#: BENCHMARK.json were set on.
NOMINAL_S = 0.0045
#: Per-item timings are scaled in chunks of about this much work.
CHUNK_NS = 50_000_000


def probe_s() -> float:
    begin = perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += (i % 7) * 0.5
    a = np.linspace(1.0, 0.0, 2048)
    for _ in range(40):
        np.abs(np.fft.ifft(np.exp(np.log(np.abs(np.fft.fft(a[:128])) + 1e-12))))
        np.sort(a)
    return perf_counter() - begin


class Speed:
    def __init__(self) -> None:
        self.probes: list[float] = []
        self.last = 0.0

    def probe(self) -> float:
        self.last = (probe_s() + probe_s()) / 2.0
        self.probes.append(self.last)
        return self.last

    @staticmethod
    def scale(before: float, after: float) -> float:
        return 2.0 * NOMINAL_S / (before + after)

    def timed(self, fn) -> tuple[float, float]:
        """Run ``fn()``; its (raw, scaled) seconds, scaled by the probes
        taken just before and just after it."""
        before = self.last or self.probe()
        begin = perf_counter()
        fn()
        raw = perf_counter() - begin
        return raw, raw * self.scale(before, self.probe())

    def run_scale(self) -> float:
        """Scale for work not timed between its own probes."""
        return NOMINAL_S / statistics.median(self.probes)


class ItemTimes:
    """Per-item nanoseconds, scaled chunk by chunk.  Probing happens between
    items, never inside a timed one.  A chunk takes the median of the probes
    around it (up to six, about 300 ms), which follows the drift without
    letting one noisy probe move the chunk."""

    def __init__(self, speed: Speed, n: int):
        self.speed = speed
        self.raw = np.empty(n)
        self.scaled = np.empty(n)
        self._ends: list[int] = []
        self._probes = [speed.probe()]
        self._mark = perf_counter_ns()

    def record(self, i: int, ns: int) -> None:
        self.raw[i] = ns
        if perf_counter_ns() - self._mark > CHUNK_NS:
            self._cut(i + 1)

    def _cut(self, end: int) -> None:
        self._ends.append(end)
        self._probes.append(self.speed.probe())
        self._mark = perf_counter_ns()

    def finish(self) -> "ItemTimes":
        if not self._ends or self._ends[-1] < len(self.raw):
            self._cut(len(self.raw))
        start = 0
        for c, end in enumerate(self._ends):
            # chunk c lies between probes c and c + 1
            near = self._probes[max(0, c - 2): c + 4]
            self.scaled[start:end] = self.raw[start:end] * NOMINAL_S / statistics.median(near)
            start = end
        return self
