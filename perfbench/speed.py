"""Host-speed probe used to normalise timings.

The reference machine is a shared 2-core sandbox whose speed drifts by
15-60 % over seconds to minutes: the same ``check 9 1 1 9`` round trip
takes 0.08 s in one five-second window and 0.125 s in the next.  So a
timed worker runs a fixed kernel every SAMPLE_EVERY_S seconds of wall
time, from a SIGALRM handler, also in the middle of a long op, and each
op's time is multiplied by ``REFERENCE_KERNEL_S / kernel time`` while it
ran, the kernel time being a rolling median of the samples around each
stretch of the op: seconds on a machine on which the kernel takes
REFERENCE_KERNEL_S.  The time spent in the handler
is taken out of the op's time.  The kernel is a frozen miniature of
pseudoht's hot paths kept in the benchmark, so no change to pseudoht can
speed it up; the garbage collector is off while it runs, so the size of
the program's heap does not leak into the samples.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time
from fractions import Fraction

# kernel CPU time at the reference speed
REFERENCE_KERNEL_S = 0.0035
RUNS_PER_SAMPLE = 3
SAMPLE_EVERY_S = 0.25

_MATRIX = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i * j) % 4)
            for j in range(9)] for i in range(9)]
_PERM = tuple((5 * a + 3) % 64 for a in range(64))


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def kernel() -> None:
    """Fraction elimination, signed-permutation composition, a
    structure-tensor dict and a JSON round trip."""
    _rank(_MATRIX)
    image, sign = _PERM, tuple(1 if a % 3 else -1 for a in range(64))
    for _ in range(40):
        image = tuple(image[a] for a in _PERM)
        sign = tuple(sign[a] * (1 if a % 5 else -1) for a in _PERM)
    tensor = {}
    for i in range(1, 65):
        for k in range(1, 9):
            j = (i * k + 17) % 64 + 1
            tensor[(min(i, j), max(i, j), k)] = 1 if (i + j + k) % 2 else -1
    text = json.dumps([{"i": i, "j": j, "k": k, "sign": v}
                       for (i, j, k), v in sorted(tensor.items())])
    json.loads(text)


def sample_kernel() -> float:
    """Median CPU time of RUNS_PER_SAMPLE kernel calls, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(RUNS_PER_SAMPLE):
            t0 = time.thread_time()
            kernel()
            times.append(time.thread_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor(kernel_samples: list[float]) -> float:
    """Multiplier from measured to reference-speed seconds."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_samples)


class Sampler:
    """Samples the kernel every SAMPLE_EVERY_S seconds from a SIGALRM
    handler while running, and keeps a clock that leaves the handler's
    time out."""

    def __init__(self) -> None:
        self.at: list[float] = []       # perf_counter() when each sample began
        self.kernel_s: list[float] = []
        self.paused_s = 0.0
        self._previous = None

    def _sample(self, *_args) -> None:
        t0 = time.perf_counter()
        self.kernel_s.append(sample_kernel())
        self.at.append(t0)
        self.paused_s += time.perf_counter() - t0

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self._sample()

    def now(self) -> float:
        """perf_counter() less the time spent sampling."""
        while True:
            paused = self.paused_s
            t = time.perf_counter()
            if paused == self.paused_s:
                return t - paused

    def factor_between(self, t0: float, t1: float) -> float:
        """Scale of an op that ran from t0 to t1 (perf_counter times).

        Between two consecutive samples the host's speed is estimated by
        the median of the four samples around that stretch; the op's scale
        is the time-weighted mean of those local factors over [t0, t1], so
        a long op that runs into a slow spell is scaled for that spell only.
        """
        at, ks = self.at, self.kernel_s
        first = max(bisect.bisect_right(at, t0) - 1, 0)
        last = max(bisect.bisect_left(at, t1) - 1, first)
        weighted = covered = 0.0
        for j in range(first, last + 1):
            lo = max(at[j], t0) if j > first else t0
            hi = min(at[j + 1], t1) if j + 1 < len(at) and j < last else t1
            local = factor(ks[max(j - 1, 0):j + 3])
            weighted += local * max(hi - lo, 0.0)
            covered += max(hi - lo, 0.0)
        return weighted / covered if covered else factor(ks[first:first + 2])
