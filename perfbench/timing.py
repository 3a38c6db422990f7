"""Drift-corrected timing of one repetition of a workload.

The 2-core Linux VM the reference figures come from changes speed in
phases of 0.1 s to minutes, by up to a factor of two, while thread CPU time
follows wall time (the core slows, not the scheduler).  Raw wall times
therefore do not repeat.  Each timed section is instead measured against
a probe: a fixed computation, none of the program's code, whose duration
tracks the machine's current speed.  The reported time is the
work/probe ratio times the probe's reference duration, i.e. the
section's duration on a machine where one probe takes that long.

Three probes:

- ``Probe``: four 14^3 complex FFT round trips in numpy (reference
  1 ms), for the single-threaded timed calls.
- ``PythonProbe``: a pure-Python loop (reference 0.2 ms), for set-up,
  which is bytecode execution (imports); it needs no import, so it can
  run before numpy is loaded.
- ``ThreadedProbe``: on each of n threads at once, four 14^3 FFT round
  trips and the Python loop (reference 2 ms), for calls that run n
  worker threads of small FFTs and Python code (the scan).

Two ways to place the probe:

- ``time_sampled``: a SIGALRM timer runs one probe every ``interval``
  seconds *inside* the timed section, in the calling thread, so the
  probe sees the same speed phases as the work however long the section
  is.  The probe time is subtracted from the section's wall time.  Used
  for single-threaded sections.
- ``time_bracketed``: ``BRACKET_PROBES`` probes run just before and after the
  call.  Used where the call runs worker threads, which a probe inside
  the call would compete with; such calls must be short (~0.2 s) for
  the two brackets to see the call's speed phase.

This module imports only the standard library, so that a set-up
measurement can load it before the program.
"""

from __future__ import annotations

import signal
import time

SAMPLE_INTERVAL_S = 0.02
BRACKET_PROBES = 10


class Probe:
    """Four numpy FFT round trips on a fixed 14^3 complex array."""

    reference_s = 1e-3

    def __init__(self):
        import numpy as np
        self._fft = np.fft
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((14, 14, 14)) + 1j * rng.standard_normal((14, 14, 14))

    def run(self):
        for _ in range(4):
            self._fft.ifftn(self._fft.fftn(self.x))

    def once(self) -> float:
        t = time.perf_counter()
        self.run()
        return time.perf_counter() - t


class PythonProbe:
    """A fixed pure-Python integer loop."""

    reference_s = 2e-4

    def once(self) -> float:
        t = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        return time.perf_counter() - t


class ThreadedProbe:
    """``Probe`` plus ``PythonProbe`` on ``threads`` threads at once."""

    reference_s = 2e-3

    def __init__(self, threads):
        from concurrent.futures import ThreadPoolExecutor
        self.threads = threads
        self._fft = Probe()
        self._python = PythonProbe()
        self._pool = ThreadPoolExecutor(threads)

    def _work(self, _):
        self._fft.run()
        self._python.once()

    def once(self) -> float:
        t = time.perf_counter()
        list(self._pool.map(self._work, range(self.threads)))
        return time.perf_counter() - t

    def close(self):
        self._pool.shutdown(wait=True)


class Repetition:
    """Wall time, probe time and normalized time of one timed call."""

    __slots__ = ("wall_s", "work_s", "probe_s", "reference_s")

    def __init__(self, wall_s, work_s, probe_s, reference_s):
        self.wall_s = wall_s
        self.work_s = work_s
        self.probe_s = probe_s
        self.reference_s = reference_s

    @property
    def normalized_s(self) -> float:
        return self.work_s / self.probe_s * self.reference_s


def time_bracketed(call, probe) -> Repetition:
    before = sum(probe.once() for _ in range(BRACKET_PROBES))
    t = time.perf_counter()
    call()
    wall = time.perf_counter() - t
    after = sum(probe.once() for _ in range(BRACKET_PROBES))
    return Repetition(wall, wall, (before + after) / (2 * BRACKET_PROBES), probe.reference_s)


def time_sampled(call, probe, interval=SAMPLE_INTERVAL_S,
                 on_sample=None) -> Repetition:
    """Run ``call`` with a probe every ``interval`` s of wall time inside it.

    ``on_sample(start, end)`` is told of each probe, so a tracer can keep
    probe time out of the spans it interrupts.
    """
    samples = []

    def handler(signum, frame):
        t0 = time.perf_counter()
        probe.once()
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if on_sample is not None:
            on_sample(t0, t1)

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        t = time.perf_counter()
        try:
            call()
        finally:
            wall = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    if not samples:  # call shorter than one interval
        samples.append(probe.once())
        work = wall
    else:
        work = wall - sum(samples)
    return Repetition(wall, work, sum(samples) / len(samples), probe.reference_s)

