"""Speed probe: how fast the host runs a fixed piece of work right now.

On a shared virtual host other guests slow the CPU for seconds to minutes at
a time, by 20 to 50 %, and a run's CPU time moves with them.  The probe is a
fixed piece of interpreter and small-array numpy work, the kind of work the
solve commands do between their large array operations; its CPU time, taken
next to and during a command, measures that slowdown.  A command's CPU time
divided by ``probe time / REFERENCE_S`` is its CPU time on a host where the
probe takes ``REFERENCE_S``: the benchmark reports these normalized times, so
that drift of the host between runs largely cancels while a change to the
program moves them in proportion.

The probe uses only Python and numpy, never ``fixfunc``, and allocates a few
hundred bytes, so it does not touch the program's figures or its memory.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the probe time that normalized times are scaled to; one probe takes 0.013
# to 0.025 s of CPU on the 2-vCPU baseline host (see baseline.json)
REFERENCE_S = 0.02
# seconds of wall time between probes during a command
INTERVAL_S = 0.25

_SMALL = np.arange(64, dtype=float)


def probe() -> float:
    """Run the probe once; return its CPU time in seconds."""
    t0 = time.process_time()
    x = _SMALL
    for _ in range(5_000):
        x = np.maximum(x * 0.5, 0.0) + _SMALL
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return time.process_time() - t0


def slowdown(probes: list[float]) -> float:
    """Host slowdown against the reference, from probe times."""
    return statistics.fmean(probes) / REFERENCE_S


class Sampler:
    """Times a block, probing the host before, during and after it.

    Probes run before the block, every ``INTERVAL_S`` of wall time inside it
    and after it; ``cpu_s`` and ``wall_s`` are the block's own times with the
    probes inside it taken out.  Those probes run from a SIGALRM handler,
    between two bytecodes of the main thread, so a traced pass, whose spans
    they would lengthen, uses ``Sampler(probing=False)``: times only.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.probes: list[float] = []

    def __enter__(self) -> "Sampler":
        self._probe_cpu = self._probe_wall = 0.0
        if self.probing:
            self.probes.append(probe())
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._c0, self._w0 = time.process_time(), time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        w0 = time.perf_counter()
        cpu = probe()
        self.probes.append(cpu)
        self._probe_cpu += cpu
        self._probe_wall += time.perf_counter() - w0

    def __exit__(self, *exc) -> None:
        if self.probing:
            # disarmed first, so every probe that ran is inside the timed interval
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.cpu_s = time.process_time() - self._c0 - self._probe_cpu
        self.wall_s = time.perf_counter() - self._w0 - self._probe_wall
        if self.probing:
            signal.signal(signal.SIGALRM, self._previous)
            self.probes.append(probe())
