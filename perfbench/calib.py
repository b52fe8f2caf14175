"""Host-speed calibration: a fixed reference computation timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more within seconds, as neighbours load it. The drift hits CPU time
as much as wall time, so no choice of clock removes it. What removes most of
it is a yardstick timed in the same process at the same moments: every
``interval_s`` of the timed phase, at an operation boundary, the calibrator
runs a ``Reference``, a fixed mix of small-array numpy calls through the
interpreter (as in the flow), a BLAS matrix product, a pass over an array
larger than a core's L2 cache, and the building of a graph of small Python
objects (as in the autodiff engine). Nothing in it depends on the package,
so a change to the package cannot move it. The mix was chosen by timing
candidate parts beside a serving request, a tracked frame, a render and a
training step in 1.5-second windows. While a second process loaded the
other core in turns with Python, BLAS and memory work, the ratio of each of
the four to the first three parts varied about half as much as their raw
times (coefficient of variation 0.06 to 0.10 against 0.11 to 0.18), and
less than against any one part alone or a mix with a pure-Python loop. On
the host as it came, adding the graph part lowered it further (0.04 to 0.07
against 0.05 to 0.08 without it and 0.06 to 0.09 raw).

A time metric is then reported at the reference speed: each measured time
is multiplied by ``REFERENCE_MS`` over the reference time measured around
it. When the host runs slow, operation and yardstick slow down together and
the factor undoes most of it. The raw wall-clock figures are printed beside
the normalised ones.

Time spent in the yardstick is kept off the workload's clock: ``clock()``
is ``perf_counter`` minus the calibration time so far, so latencies and
busy time never include it, wherever ``tick()`` is called.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# a Reference() call takes about this long on the host the bounds were set
# on (2 shared cores of an x86-64 cloud VM, numpy 2.4 on OpenBLAS, one
# thread); it only sets the scale of the normalised figures
REFERENCE_MS = 3.0
REPEATS = 3  # reference runs per sample; a sample is their median
GRAPH_NODES = 200
# samples per factor: fewer let sample noise through (it widens p90 of
# train-joint's 250 ms steps), more lag behind the host's drift
SMOOTHING = 5


class _Node:
    """A graph node, as an autodiff engine makes one per operation."""

    __slots__ = ("data", "parents")

    def __init__(self, data: np.ndarray, parents: tuple = ()):
        self.data = data
        self.parents = parents


class Reference:
    """A fixed computation that the package's code cannot change: four
    parts of about a millisecond each.

    Every array result goes to a buffer made here, once: a call then takes
    no memory from the allocator beyond small objects, so sampling cannot
    shift the workload's allocations and with them its peak RSS.
    """

    def __init__(self):
        rng = np.random.default_rng(20240413)
        self.x0 = rng.standard_normal((50, 16))
        self.w1 = rng.standard_normal((16, 32))
        self.w2 = rng.standard_normal((32, 16))
        self.square = rng.standard_normal((192, 192))
        self.stream = rng.standard_normal(1 << 19)  # 4 MiB: beyond a core's L2
        self.x, self.h, self.g = np.empty((50, 16)), np.empty((50, 32)), np.empty((50, 16))
        self.square_out = np.empty_like(self.square)
        self.stream_out = np.empty_like(self.stream)
        self.leaves = rng.standard_normal((8, 50, 4))
        self.graph_out = np.empty((GRAPH_NODES, 50, 4))
        self()  # the first call faults the buffers in; no sample should pay for that

    def __call__(self) -> float:
        x, h, g = self.x, self.h, self.g
        np.copyto(x, self.x0)
        for _ in range(50):  # many tiny numpy calls, interpreter-bound
            np.matmul(x, self.w1, out=h)
            np.tanh(h, out=h)
            np.matmul(h, self.w2, out=g)
            g *= 0.01
            x += g
            np.abs(x, out=g)
            x /= 1.0 + float(g.max())
        acc = float(x.sum())
        for _ in range(3):  # BLAS-bound
            np.matmul(self.square, self.square, out=self.square_out)
            acc += float(self.square_out[0, 0])
        np.multiply(self.stream, 1.5, out=self.stream_out)  # memory-bound
        np.add(self.stream_out, self.stream, out=self.stream_out)
        acc += float(self.stream_out.sum())
        nodes = [_Node(leaf) for leaf in self.leaves]
        for i, out in enumerate(self.graph_out):  # object churn, as in graph building
            a, b = nodes[i], nodes[(7 * i + 3) % len(nodes)]
            np.add(a.data, b.data, out=out)
            out *= 0.5
            nodes.append(_Node(out, (a, b)))
        return acc + float(nodes[-1].data[0, 0])


class Calibrator:
    """Samples the reference speed while a phase runs.

    Times are on ``clock()``. A time ``t`` is brought to the reference speed
    by the factor of the samples around it: ``REFERENCE_MS`` over the median
    of the ``SMOOTHING`` samples nearest to ``t``. Local factors,
    rather than one per run, keep a run that is half slow and half fast from
    spreading its latency percentiles.
    """

    def __init__(self, reference: Reference | None, interval_s: float = 0.2):
        self.reference = reference
        self.interval_s = interval_s
        self.spent_s = 0.0
        self.sample_at: list[float] = []   # on clock()
        self.samples_ms: list[float] = []
        self._due = 0.0

    def clock(self) -> float:
        """``perf_counter`` with the time spent calibrating taken out."""
        return time.perf_counter() - self.spent_s

    def tick(self, force: bool = False) -> None:
        """Take a sample if one is due; call it between operations."""
        start = time.perf_counter()
        if not force and start < self._due:
            return
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.reference()
            times.append(time.perf_counter() - t0)
        self.sample_at.append(start - self.spent_s)
        self.samples_ms.append(1e3 * statistics.median(times))
        end = time.perf_counter()
        self.spent_s += end - start
        self._due = end + self.interval_s

    def factor_at(self, t: float) -> float:
        """Multiplier that brings a time measured around ``t`` to the
        reference speed; 1 without samples."""
        if not self.samples_ms:
            return 1.0
        k = bisect.bisect_left(self.sample_at, t)
        if k == len(self.sample_at) or (k > 0 and t - self.sample_at[k - 1]
                                          < self.sample_at[k] - t):
            k -= 1
        half = SMOOTHING // 2
        return REFERENCE_MS / statistics.median(self.samples_ms[max(k - half, 0):k + half + 1])

    def normalise(self, t0: float, t1: float) -> float:
        """The interval from ``t0`` to ``t1`` at the reference speed."""
        if t1 - t0 <= self.interval_s:
            return (t1 - t0) * self.factor_at(0.5 * (t0 + t1))
        cuts = [t0] + [t for t in self.sample_at if t0 < t < t1] + [t1]
        return sum((b - a) * self.factor_at(0.5 * (a + b)) for a, b in zip(cuts, cuts[1:]))


class NullCalibrator(Calibrator):
    """No samples, factor 1: the traced run, whose times are not normalised."""

    def __init__(self):
        super().__init__(None)

    def tick(self, force: bool = False) -> None:
        return None


NO_CALIBRATION = NullCalibrator()
