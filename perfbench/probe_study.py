"""Compare drift probes on one workload's timed call.

    python3 perfbench/probe_study.py --workload picard_oracle --seconds 80 --window 15

Repeats the workload's call for ``--seconds``, timed exactly as run.py
times it (``timing.time_sampled`` inside the call for single-threaded
workloads, ``timing.time_bracketed`` around it for the scan), but with a
probe that runs every candidate probe once per sample and keeps each
one's time.  For raw wall time and for work/probe with each candidate it
prints the spread, (q3 - q1) / median, of the medians over consecutive
windows of ``--window`` calls.  The candidate whose spread is lowest
tracks the machine's speed phases best for that call.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import timing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def fft24():
    x = np.random.default_rng(0).standard_normal((24, 24, 24)) + 0j

    def once():
        t = time.perf_counter()
        np.fft.ifftn(np.fft.fftn(x))
        return time.perf_counter() - t
    return once


class CandidateProbes:
    """A probe for ``timing`` that runs every candidate once per sample."""

    reference_s = 1.0  # unused: the study reads the samples by candidate

    def __init__(self, threaded=None):
        fft, python = timing.Probe(), timing.PythonProbe()
        self.kinds = {"24^3 FFT": fft24(), "4x14^3 FFT": fft.once,
                      "Python loop": python.once,
                      "4x14^3 FFT + loop": lambda: fft.once() + python.once()}
        if threaded is not None:
            self.kinds[f"4x14^3 FFT + loop, {threaded.threads} threads"] = threaded.once
        self.samples = {k: [] for k in self.kinds}

    def once(self) -> float:
        total = 0.0
        for k, run in self.kinds.items():
            d = run()
            self.samples[k].append(d)
            total += d
        return total

    def take(self):
        """Mean sample of each candidate since the last take."""
        means = {k: statistics.mean(v) for k, v in self.samples.items()}
        self.samples = {k: [] for k in self.kinds}
        return means


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description="compare drift probes on one workload")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--window", type=int, default=10)
    args = p.parse_args(argv)
    cls = WORKLOADS[args.workload]
    threaded = None
    if cls.timing == "sampled":
        timed = timing.time_sampled
    else:  # the scan: run.py brackets it with ThreadedProbe, a candidate here
        timed = timing.time_bracketed
        threaded = timing.ThreadedProbe(cls.WORKERS)
    probe = CandidateProbes(threaded)
    workdir = ROOT / ".perfbench-out" / f"probe-study-{os.getpid()}"
    workdir.mkdir(parents=True)
    rows = []
    try:
        work = cls(str(workdir), 1)
        work.call()
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < end:
            rep = timed(work.call, probe)
            rows.append((rep.work_s, probe.take()))
    finally:
        if threaded is not None:
            threaded.close()
        shutil.rmtree(workdir, ignore_errors=True)

    w = args.window
    windows = [rows[i:i + w] for i in range(0, len(rows) - w + 1, w)]
    if len(windows) < 2:
        sys.exit(f"only {len(rows)} calls: run longer or use a smaller --window")
    print(f"{args.workload}: {len(rows)} calls, {len(windows)} windows of {w}")
    raw = [statistics.median(r[0] for r in win) for win in windows]
    print(f"  raw wall time: {spread(raw):.3f}")
    for k in probe.kinds:
        meds = [statistics.median(r[0] / r[1][k] for r in win) for win in windows]
        print(f"  work / {k}: {spread(meds):.3f}")


if __name__ == "__main__":
    main()
