"""Pure statistics behind the benchmark's metrics.

Nothing here imports ``alskd`` or touches the clock, so every rule that
turns raw timestamps and spans into a metric can be tested on its own.
"""

from __future__ import annotations

import math

import numpy as np


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must lie in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def epoch_durations(events) -> list[float]:
    """Epoch latencies from ``(kind, t)`` boundary events in time order.

    ``kind`` is ``"train"`` for a ``trainer.train`` entry and ``"store"``
    for a ``CheckpointRegistry.store`` return. An epoch runs from the train
    entry, or from the previous store return of the same run, to the next
    store return. Other kinds are ignored.
    """
    durations = []
    last = None
    for kind, t in events:
        if kind == "train":
            last = t
        elif kind == "store":
            if last is None:
                raise ValueError("a store event precedes every train entry")
            durations.append(t - last)
            last = t
    return durations


def busy_time(events, begin: str, end: str) -> float:
    """Total time between each ``begin`` event and the ``end`` event that follows it."""
    total = 0.0
    opened = None
    for kind, t in events:
        if kind == begin:
            opened = t
        elif kind == end:
            if opened is None:
                raise ValueError(f"an {end!r} event has no {begin!r} before it")
            total += t - opened
            opened = None
    return total


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent`` holds the index of the enclosing span, or -1 for a root.
    Spans come from one thread, so children of one parent never overlap
    and lie inside it; a grandchild is subtracted from its own parent only.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - covered


class OpLedger:
    """Counts CLI commands attempted and failed.

    A command fails on a non-zero exit code or on any failed correctness
    check; it counts once however many of its checks fail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, exit_code: int, failed_checks) -> None:
        self.attempted += 1
        problems = list(failed_checks)
        if exit_code != 0:
            problems.insert(0, f"exit code {exit_code}")
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def error_rate(self) -> float:
        if self.attempted == 0:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted
