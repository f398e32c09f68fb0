"""Measurement helpers shared by the workloads.

Every workload follows one shape: build its fixture several times (the
median build is ``setup_s``), collect garbage, then run operations in a
closed loop for a fixed wall-clock budget.  Timings are reported as
medians over many samples so one stall on a shared host cannot move a
figure much, and at a reference host speed (:class:`SpeedProbe`) so a
host that runs slower for a minute does not read as a slower program;
``Run`` holds what a workload measured until ``run.py`` turns it into
the result line.
"""

from __future__ import annotations

import dataclasses
import ctypes
import gc
import glob
import os
import resource
import statistics
import time

import numpy as np

clock = time.perf_counter

#: each workload builds its fixture at least SETUP_MIN_BUILDS times and
#: until SETUP_MIN_S seconds of building have accumulated (at most
#: SETUP_MAX_BUILDS); ``setup_s`` is the median build, so a fast set-up
#: is sampled often enough that one slow build does not move it.
SETUP_MIN_BUILDS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_BUILDS = 25


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(count: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped
    at p99 (and floored at the median for samples of twenty or fewer)."""
    if count <= 20:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / count))


#: operations per tail window: exactly ten samples lie beyond its p96
TAIL_WINDOW = 250


def tail_latency(latencies) -> tuple[float, float, int]:
    """The tail of ``latencies`` (in operation order): (value, percentile,
    windows).

    The tail is taken within each window of ``TAIL_WINDOW`` consecutive
    operations (the highest percentile with ten samples beyond it, p96)
    and the median over windows is reported.  A shared host stalls a
    few rounds in every few hundred, by a varying amount; a p99 (one
    stalled round per window of 1000) followed how often that happened
    and spread 0.13-0.3 between runs of the same code, this spread
    0.05.  A run of fewer than two windows is one window with its own
    :func:`tail_level`.
    """
    if len(latencies) < 2 * TAIL_WINDOW:
        level = tail_level(len(latencies))
        return percentile(latencies, level), level, 1
    level = tail_level(TAIL_WINDOW)
    windows = [latencies[i:i + TAIL_WINDOW] for i in
               range(0, len(latencies) - TAIL_WINDOW + 1, TAIL_WINDOW)]
    return (statistics.median(percentile(w, level) for w in windows),
            level, len(windows))


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Start a timed phase from a clean heap (GC itself stays enabled)."""
    gc.collect()


#: what one :class:`SpeedProbe` measurement takes on the reference host;
#: every reported time is scaled to that host speed
PROBE_REF_S = 0.006


class SpeedProbe:
    """A fixed piece of work, timed around each block of measured work.

    A shared host's speed drifts by tens of percent over seconds to
    minutes, as neighbours contend for caches and memory.  A block's
    times are multiplied by ``PROBE_REF_S`` over the mean of the probe
    times just before and just after it, which reports them at the
    reference host speed.  The probe has four parts: small-matrix BLAS,
    an integer loop in the interpreter, building and dropping Python
    containers, and copying an array larger than the per-core caches.
    Under contention from neighbours each part slowed by a different
    share, as did each workload; the sum of the four followed the four
    workloads more closely than any one part (ten-second medians of a
    scaled time varied 2-7%, raw 6-12%).  The probe runs no ``repro``
    code and no garbage collection, so a change to the program moves a
    scaled time as much as a raw one.
    """

    #: BLAS rounds, loop iterations, Python records, and copies of an
    #: 8 MiB array per part (each part ~1.5 ms on the reference host)
    BLAS_ROUNDS = 30
    LOOP_ITERATIONS = 14_000
    RECORDS = 3_500
    STREAM_FLOATS = 2**21
    STREAM_ROUNDS = 2
    #: parts per measurement; the median part of each kind is used
    REPEATS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 288)).astype(np.float32)
        self._b = rng.standard_normal((288, 128)).astype(np.float32)
        self._out = np.empty((64, 128), dtype=np.float32)
        self._src = rng.standard_normal(self.STREAM_FLOATS).astype(
            np.float32)
        self._dst = np.empty_like(self._src)
        self._last = None
        #: every scale factor handed out, in order
        self.factors: list[float] = []

    def _blas(self) -> float:
        start = clock()
        for _ in range(self.BLAS_ROUNDS):
            np.matmul(self._a, self._b, out=self._out)
            np.maximum(self._out, 0.0, out=self._out)
            self._out.sum(axis=1)
        return clock() - start

    def _loop(self) -> float:
        start = clock()
        acc = 0
        for i in range(self.LOOP_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        return clock() - start

    def _objects(self) -> float:
        start = clock()
        records = [{"id": i, "pair": (i, -i)} for i in range(self.RECORDS)]
        index = {record["id"]: record["pair"] for record in records}
        del records, index
        return clock() - start

    def _stream(self) -> float:
        start = clock()
        for _ in range(self.STREAM_ROUNDS):
            np.copyto(self._dst, self._src)
        return clock() - start

    def measure(self) -> float:
        """One probe: the sum of each part's median, in seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return sum(statistics.median(part() for _ in range(self.REPEATS))
                       for part in (self._blas, self._loop, self._objects,
                                    self._stream))
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        """Probe just before a block of measured work begins."""
        self._last = self.measure()

    def factor(self) -> float:
        """Probe just after a block; return its scale factor (reference
        seconds per measured second).  The next block starts here."""
        if self._last is None:
            self.start()
        now = self.measure()
        factor = 2.0 * PROBE_REF_S / (self._last + now)
        self._last = now
        self.factors.append(factor)
        return factor


_PROBE = None


def speed_probe() -> SpeedProbe:
    """The process's one :class:`SpeedProbe`."""
    global _PROBE
    if _PROBE is None:
        _PROBE = SpeedProbe()
    return _PROBE


def timed_setups(build):
    """Build the fixture repeatedly (see ``SETUP_MIN_BUILDS``); return the
    last fixture and every build's duration in reference seconds (see
    :class:`SpeedProbe`).

    Each build starts from a collected heap, and the previous fixture is
    dropped before the next build so peak memory holds one fixture.
    """
    probe = speed_probe()
    raw = []
    durations = []
    fixture = None
    while len(durations) < SETUP_MAX_BUILDS and (
            len(durations) < SETUP_MIN_BUILDS
            or sum(raw) < SETUP_MIN_S):
        fixture = None
        settle()
        probe.start()
        start = clock()
        fixture = build()
        raw.append(clock() - start)
        durations.append(raw[-1] * probe.factor())
    return fixture, durations


@dataclasses.dataclass
class Run:
    """What one workload measured (end to end) in its timed phase.

    Times are in reference seconds (see :class:`SpeedProbe`); the raw
    ones are kept for the run's notes.
    """

    attempted: int = 0
    failed: int = 0
    #: per-operation latencies in seconds
    latencies: list = dataclasses.field(default_factory=list)
    #: the same latencies as measured, before scaling
    raw_latencies: list = dataclasses.field(default_factory=list)
    #: (work units, seconds) per measurement block; throughput is the
    #: median block rate
    blocks: list = dataclasses.field(default_factory=list)
    #: (work units, seconds as measured) per block
    raw_blocks: list = dataclasses.field(default_factory=list)
    #: human-readable lines printed before the result (counts, checks)
    notes: list = dataclasses.field(default_factory=list)
    #: fixture builds the timed phase needed (seconds each)
    setups: list = dataclasses.field(default_factory=list)

    def throughput(self, raw: bool = False) -> float:
        blocks = self.raw_blocks if raw else self.blocks
        return statistics.median(units / secs for units, secs in blocks
                                 if secs > 0)

    def add_block(self, units: float, seconds: float, first: int,
                  factor: float) -> None:
        """Close a block of ``units`` work done in ``seconds`` (measured),
        whose operations' latencies start at index ``first``, scaling its
        times by ``factor``."""
        self.raw_blocks.append((units, seconds))
        self.blocks.append((units, seconds * factor))
        self.raw_latencies.extend(self.latencies[first:])
        for index in range(first, len(self.latencies)):
            self.latencies[index] *= factor


class BlockMeter:
    """Split a closed loop into fixed-length blocks of measured work.

    ``add(units, seconds)`` accumulates work done in timed regions; once a
    block holds ``block_s`` measured seconds it is closed into
    ``run.blocks``, and its times and the latencies recorded during it
    are scaled by the :class:`SpeedProbe` run around it.  ``done`` turns
    true when ``budget_s`` measured seconds have accumulated in total.
    """

    def __init__(self, run: Run, budget_s: float, block_s: float):
        self.run = run
        self.budget_s = budget_s
        self.block_s = block_s
        self.total_s = 0.0
        self._units = 0.0
        self._secs = 0.0
        self._first = len(run.latencies)
        self._probe = speed_probe()
        self._probe.start()

    def add(self, units: float, seconds: float) -> None:
        self.total_s += seconds
        self._units += units
        self._secs += seconds
        if self._secs >= self.block_s:
            self.close()

    def close(self) -> None:
        if self._secs > 0:
            self.run.add_block(self._units, self._secs, self._first,
                               self._probe.factor())
        self._first = len(self.run.latencies)
        self._units = 0.0
        self._secs = 0.0

    @property
    def done(self) -> bool:
        return self.total_s >= self.budget_s


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def host_facts() -> dict:
    """Core count, NumPy and BLAS build, and the BLAS thread setting."""
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
