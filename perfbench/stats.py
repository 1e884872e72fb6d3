"""Summary statistics shared by every workload.

Percentiles follow one rule: a percentile is reported only when at
least ten samples lie beyond it, and always with its sample count.
Open-loop requests are timed from when they were due, so
:func:`lateness` reports how far behind its schedule the generator ran.
"""

from __future__ import annotations

import bisect
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

MIN_BEYOND = 10


def percentile(values, q):
    """``(value, n, beyond)`` for the q-th percentile, or None.

    ``beyond`` counts samples strictly above the percentile; the
    percentile is withheld (None) unless it is at least
    :data:`MIN_BEYOND`, so a tail is never read off a handful of
    samples.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return None
    value = float(np.percentile(values, q))
    beyond = int((values > value).sum())
    if beyond < MIN_BEYOND:
        return None
    return value, int(values.size), beyond


def highest_percentile(values, levels=(99.9, 99, 95, 90, 50)):
    """The highest of ``levels`` the sample supports: ``(q, value, n)``."""
    for q in levels:
        found = percentile(values, q)
        if found is not None:
            return q, found[0], found[1]
    return None


def lateness(due, sent):
    """How late a fixed schedule ran: ``{p50_ms, max_ms, late_share}``.

    ``late_share`` is the fraction of requests sent more than 1 ms after
    they were due (the connection was still busy with an earlier one,
    or the generator thread was descheduled).
    """
    late = np.asarray(sent, dtype=float) - np.asarray(due, dtype=float)
    if late.size == 0:
        return {"n": 0, "p50_ms": 0.0, "max_ms": 0.0, "late_share": 0.0}
    return {
        "n": int(late.size),
        "p50_ms": float(np.median(late) * 1e3),
        "max_ms": float(late.max() * 1e3),
        "late_share": float((late > 1e-3).mean()),
    }


def median(values):
    return float(statistics.median(values))


def peak_rss_mib(pid=None):
    """Peak resident memory of ``pid`` (default: this process) in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def import_seconds(root, module, count):
    """Wall times of ``count`` fresh interpreters, one after the other,
    each importing ``module`` from ``root/src``: the imports part of a
    workload's set-up, repeated so that its median can be taken."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(count):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                       cwd=root, check=True, timeout=120)
        times.append(perf_counter() - started)
    return times


def cpu_times():
    """``(busy, steal)`` CPU time of the whole host so far, in clock
    ticks, from the first line of ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def steal_share(before, after):
    """Share of the CPU time the host's vCPUs wanted between two
    :func:`cpu_times` readings that the hypervisor gave to other
    tenants instead."""
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    return steal / (busy + steal) if busy + steal else 0.0


def host_settings():
    """The host facts the numbers depend on."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Probe:
    """A fixed NumPy + Python kernel timed while the program is idle.

    The host's speed drifts by tens of percent over seconds to minutes,
    per vCPU (other tenants share the physical cores), and every
    workload slows down with it.  The probe runs between the workload's
    operations, never beside one, so it follows that drift and nothing
    the program does.  :meth:`scale` takes a time measured at some
    moment to the speed at which the probe takes :data:`REFERENCE_MS`,
    using the probe samples taken around that moment.
    """

    #: Probe median on the reference host (2 vCPU Xeon at 2.1 GHz).
    REFERENCE_MS = 0.9
    #: Probe samples within this many seconds of a timed operation
    #: scale it ...
    WINDOW_S = 1.0
    #: ... when there are at least this many; else the run's median.
    MIN_SAMPLES = 8

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48))
        self._v = rng.standard_normal(16384)
        self.samples = []
        self.times = []

    def __call__(self):
        started = perf_counter()
        a, v = self._a, self._v
        for _ in range(12):
            a = np.tanh(a @ self._a)
            v = np.exp(-np.abs(v)) * 0.5 + v * 0.5
        total = 0
        for i in range(1500):
            total += i & 7
        end = perf_counter()
        self.samples.append(end - started)
        self.times.append(end)

    def burst(self, count):
        """``count`` samples, each pinned to the next CPU in turn.

        For operations that run in another process, whose threads may
        be on any CPU.
        """
        cpus = sorted(os.sched_getaffinity(0))
        try:
            for _ in range(count):
                os.sched_setaffinity(
                    0, {cpus[len(self.samples) % len(cpus)]})
                self()
        finally:
            os.sched_setaffinity(0, cpus)

    def median_ms(self):
        return 1e3 * float(np.median(self.samples))

    def factor(self, end=None, duration=0.0):
        """Reference over measured probe speed, for an operation of
        ``duration`` seconds that ended at ``end`` (whole run if None).

        Multiply a time, or divide a rate, by it.
        """
        samples = self.samples
        if end is not None:
            lo = bisect.bisect_left(self.times,
                                    end - duration - self.WINDOW_S)
            hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
            if hi - lo >= self.MIN_SAMPLES:
                samples = self.samples[lo:hi]
        return self.REFERENCE_MS / (1e3 * float(np.median(samples)))

    def scale(self, duration, end):
        """``duration`` (ending at ``end``) at the reference speed."""
        return duration * self.factor(end, duration)
