"""Sample statistics, random inputs, answer accounting and the run
stamp.

Everything here is pure Python with no dependency on the program under
test, so the benchmark's own tests (``perfbench/tests``) can pin it.
"""

from __future__ import annotations

import math
import os
import platform
import random
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it (so one outlier cannot be the whole tail).
MIN_BEYOND = 10
#: Width of the time slices that :func:`sliced_median` and
#: :func:`bucket_rate` take medians over, in seconds.
BUCKET_SECONDS = 1.0


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile: the smallest sample with at
    least ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def min_samples(pct: float) -> int:
    """The smallest sample size that leaves :data:`MIN_BEYOND` samples
    beyond the nearest-rank ``pct`` percentile."""
    count = 1
    while beyond(count, pct) < MIN_BEYOND:
        count += 1
    return count


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def chunked_tail(values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile of a run, robust to a passing stall: the
    samples (in time order) are cut into consecutive chunks of
    :func:`min_samples` each, and the median of the chunks'
    nearest-rank percentiles is reported.  A run too short for one
    chunk is refused."""
    size = min_samples(pct)
    chunks = len(values) // size
    if chunks == 0:
        raise ValueError(
            f"p{pct:g} needs {size} samples, the run has {len(values)}")
    return median(nearest_rank(values[i * size:(i + 1) * size], pct)
                  for i in range(chunks))


def sliced_median(times: Sequence[float], values: Sequence[float],
                  start: float, end: float) -> float:
    """The median over whole :data:`BUCKET_SECONDS` slices of ``[start,
    end)`` of the median value in each slice (``values[i]`` observed at
    ``times[i]``): a typical median that a stall covering less than
    half the slices does not move."""
    slices: List[List[float]] = [
        [] for _ in range(int((end - start) // BUCKET_SECONDS))]
    for at, value in zip(times, values):
        index = int((at - start) // BUCKET_SECONDS)
        if 0 <= index < len(slices):
            slices[index].append(value)
    medians = [median(chunk) for chunk in slices if chunk]
    if not medians:
        raise ValueError("no samples in any whole slice of the window")
    return median(medians)


def bucket_rate(times: Sequence[float], start: float,
                end: float) -> float:
    """Events per second: the median over whole :data:`BUCKET_SECONDS`
    slices of ``[start, end)`` of the events in each slice."""
    slices = int((end - start) // BUCKET_SECONDS)
    if slices == 0:
        raise ValueError("window shorter than one bucket")
    tally = [0] * slices
    for at in times:
        index = int((at - start) // BUCKET_SECONDS)
        if 0 <= index < slices:
            tally[index] += 1
    return median(tally) / BUCKET_SECONDS


def random_perm(rng: random.Random, size: int) -> List[int]:
    """A uniform random permutation of ``range(size)``."""
    perm = list(range(size))
    rng.shuffle(perm)
    return perm


class Tally:
    """Answers attempted and failed, by reason.

    Every request or call the benchmark makes is one attempt; a wrong
    answer, an error or rejection, and an answer that never arrived
    each count as one failure.
    """

    REASONS = ("wrong", "error", "rejected", "missing")

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = {reason: 0 for reason in
                                         self.REASONS}

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        if reason not in self.failures:
            raise ValueError(f"unknown failure reason {reason!r}")
        self.failures[reason] += count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def due_latencies(start: float, due: Sequence[float],
                  arrivals: Dict[int, float]) -> List[float]:
    """Open-loop latency of each answered request ``i`` (a key of
    ``arrivals``), timed from when it was *due* to be sent,
    ``start + due[i]`` — so a stalled generator's delay counts against
    every request queued behind it.  Requests without an answer have
    no latency; the caller counts them missing."""
    return [arrivals[i] - (start + due[i]) for i in sorted(arrivals)]


def lateness(start: float, due: Sequence[float],
             sent: Sequence[Optional[float]]) -> List[float]:
    """How late the generator sent each request it sent."""
    return [at - (start + when) for at, when in zip(sent, due)
            if at is not None]


def peak_rss_mb(pid="self") -> float:
    """The peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    """CPU model, usable cores, Python and NumPy versions."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
