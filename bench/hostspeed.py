"""Host-speed calibration of the benchmark's timings.

On a shared virtual machine the speed of the CPU changes while a run goes
on: other tenants' load switches it between levels some 30-50% apart, for
tenths of a second to minutes at a time.  A wall-clock time then measures
the host as much as the program.  So every timed interval is bracketed by
two short probes of a fixed piece of work, and the interval is scaled by

    reference / mean(probe before, probe after)

which turns it into the time the interval would have taken on a host where
the probe takes ``reference`` seconds.  The probes run outside the timed
intervals.  The raw wall times are kept next to the scaled ones.

Two probes exist, one per kind of work:

- ``loop``: a pure-Python loop of integer arithmetic, tuple building and
  dict stores, for work done inside the benchmark process;
- ``child``: one ``python -S -c pass`` child process, started as the
  ``cli`` queries are, for those queries: their cost is mostly process
  start-up, which the loop does not track.

The references are round figures near the probes' median times on the
2-vCPU host on which the bounds in ``BENCHMARK.json`` were set, so scaled
times there read close to wall times.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOOP_REF_S = 0.5e-3
CHILD_REF_S = 12e-3


def _loop_work() -> int:
    acc = 0
    slots = {}
    for i in range(4000):
        acc = (acc * 31 + i) % 1000003
        slots[i & 63] = (acc, i)
    return acc


def loop_probe() -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def child_probe(cwd: Path, env: dict) -> float:
    # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which would quantise the probe
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], cwd=cwd, env=env, check=True)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that a probe and
    the work it brackets run on the same CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Clock:
    """Times intervals between ``start()`` and ``stop()``; each ``stop()``
    runs a probe, which also serves as the probe before the next interval."""

    def __init__(self, probe, reference_s: float):
        self.probe = probe
        self.reference_s = reference_s
        self.before = probe()
        self.probes = [self.before]
        self.t0 = None
        self.raw_s = 0.0     # sums over all intervals
        self.scaled_s = 0.0

    def start(self) -> None:
        self.t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the interval; return its raw and its scaled seconds."""
        raw = time.perf_counter() - self.t0
        after = self.probe()
        scaled = raw * 2 * self.reference_s / (self.before + after)
        self.before = after
        self.probes.append(after)
        self.raw_s += raw
        self.scaled_s += scaled
        return raw, scaled


def loop_clock() -> Clock:
    return Clock(loop_probe, LOOP_REF_S)


def child_clock(cwd: Path, env: dict) -> Clock:
    return Clock(lambda: child_probe(cwd, env), CHILD_REF_S)
