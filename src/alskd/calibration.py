"""Equal-width confidence binning, calibration errors, reliability-diagram data.

Bins partition (0, 1] into equal-width half-open intervals (lower, upper],
with the first bin additionally containing confidence 0. A confidence
exactly on a boundary therefore belongs to the lower bin. The expected
calibration error is the count-weighted mean absolute gap between per-bin
accuracy and mean confidence; the maximum calibration error is the largest
such gap over non-empty bins, so ECE <= MCE always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import csv_text, replacing


@dataclass(frozen=True)
class CalibrationBin:
    lower: float
    upper: float
    count: int
    mean_confidence: float | None  # None when the bin is empty
    accuracy: float | None


@dataclass(frozen=True)
class CalibrationReport:
    bins: list[CalibrationBin]
    ece: float
    mce: float
    total_count: int


def _split_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (confidence, correct) pairs, got shape {arr.shape}")
    return arr[:, 0], arr[:, 1] > 0.5


def calibration_report(pairs, n_bins: int = 10) -> CalibrationReport:
    """Bin (confidence, correct) pairs and compute ECE and MCE.

    ``pairs`` is any (n, 2) array-like; the second column is truthy for a
    correct prediction. Confidences must lie in [0, 1]. Empty bins appear
    in the output with count 0 and contribute to neither error.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins!r}")
    conf, correct = _split_pairs(pairs)
    if conf.size == 0:
        raise ValueError("need at least one (confidence, correct) pair")
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise ValueError("confidences must lie in [0, 1]")

    # boundaries as i / n_bins (division, not multiplication, so that a
    # confidence literal like 0.3 compares equal to its boundary)
    inner_edges = np.arange(1, n_bins) / n_bins
    idx = np.searchsorted(inner_edges, conf, side="left")

    bins: list[CalibrationBin] = []
    gaps = []
    mce = 0.0
    total = conf.size
    for b in range(n_bins):
        sel = idx == b
        count = int(sel.sum())
        lower = b / n_bins
        upper = (b + 1) / n_bins
        if count == 0:
            bins.append(CalibrationBin(lower, upper, 0, None, None))
            continue
        # fsum makes the per-bin statistics exact under input permutation
        # and pair duplication, which the invariants promise
        mean_conf = math.fsum(conf[sel].tolist()) / count
        acc = math.fsum(correct[sel].astype(np.float64).tolist()) / count
        gap = abs(acc - mean_conf)
        gaps.append((count / total) * gap)
        mce = max(mce, gap)
        bins.append(CalibrationBin(lower, upper, count, mean_conf, acc))

    return CalibrationReport(bins=bins, ece=math.fsum(gaps), mce=float(mce), total_count=total)


RELIABILITY_COLUMNS = ("lower", "upper", "count", "mean_confidence", "accuracy")


def reliability_rows(report: CalibrationReport) -> list[str]:
    """CSV lines (header first) with one row per bin, in bin order.

    Empty bins render with count 0 and empty statistic fields. Floats are
    written with ``repr``, so ``float`` of each field gives back the report
    bins' values exactly.
    """
    return csv_text({name: [getattr(b, name) for b in report.bins]
                     for name in RELIABILITY_COLUMNS}).splitlines()


def write_reliability_csv(report: CalibrationReport, path) -> None:
    with replacing(path) as fh:
        fh.write("\n".join(reliability_rows(report)) + "\n")
