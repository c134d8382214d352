import csv
import io
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest


def central_difference(fn, z, step=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.zeros_like(z)
    for i in range(z.size):
        bump = np.zeros_like(z)
        bump[i] = step
        grad[i] = (fn(z + bump) - fn(z - bump)) / (2.0 * step)
    return grad


def rel_error(actual, expected) -> float:
    """Vector-norm relative error of ``actual`` against ``expected``."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    denom = max(np.linalg.norm(expected), 1e-300)
    return float(np.linalg.norm(actual - expected) / denom)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def open_failing_on_write(name_prefix: str, exc: BaseException):
    """A stand-in for ``open``: files whose name starts with ``name_prefix``
    raise ``exc`` on every write after their first; others pass through."""
    real_open = open

    class File:
        def __init__(self, path, mode, **kwargs):
            self.fh = real_open(path, mode, **kwargs)
            self.fails = Path(path).name.startswith(name_prefix)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.fails and self.writes > 1:
                raise exc
            return self.fh.write(data)

    return File


def counter_bleu(hypotheses, references, max_n=4):
    """Reference corpus BLEU with a Counter of n-gram tuples per sentence."""
    matched = np.zeros(max_n)
    total = np.zeros(max_n)
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            counts = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            ref_counts = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in counts.items())
            total[n - 1] += sum(counts.values())

    realized = total > 0
    if not realized.any() or np.any(matched[realized] == 0):
        return 0.0
    log_precisions = np.log(matched[realized] / total[realized])
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return float(bp * math.exp(log_precisions.mean()))


def csv_writer_text(columns: dict) -> str:
    """Reference CSV of named, equal-length columns through ``csv.writer``.

    Each whole column goes through ``np.asarray(...).tolist()``, so it has
    one dtype however many rows it holds; bools then become
    ``true``/``false``, and ``csv.writer`` applies its own cell rules:
    ``repr`` for floats, ``str`` for every other object, an empty field for
    None.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    cells = []
    for column in columns.values():
        values = np.asarray(column)
        cells.append((np.where(values, "true", "false") if values.dtype == bool
                      else values).tolist())
    writer.writerows(zip(*cells))
    return buf.getvalue()
