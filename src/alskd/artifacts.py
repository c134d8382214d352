"""The one writer of every file the package produces.

A file is written to ``<name>.tmp`` beside its target and renamed over
``<name>`` once complete. A failed write, interrupts included, unlinks the
temporary file, so the target keeps its previous bytes. CSV cells follow
one rule set: floats as ``repr``, bools as ``true``/``false``, None empty.
"""

import csv
import io
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def replacing(path, mode: str = "w"):
    """Open ``<path>.tmp`` in ``mode``, "w" or "wb"; rename it over ``path`` on success."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, mode) if "b" in mode else open(tmp, mode, newline="")) as fh:
            yield fh
        tmp.replace(path)
    except BaseException:  # interrupts too: never leave a partial file behind
        tmp.unlink(missing_ok=True)
        raise


def _cells(column) -> list:
    values = np.asarray(column)
    # tolist gives Python floats, which csv writes as repr, and keeps None
    return (np.where(values, "true", "false") if values.dtype == bool else values).tolist()


# Rows held as Python objects at once: a writer's memory stays flat however long the file.
BLOCK_ROWS = 1024


def _write_rows(fh, columns: dict) -> None:
    writer = csv.writer(fh)
    writer.writerow(columns)
    for start in range(0, len(next(iter(columns.values()))), BLOCK_ROWS):
        writer.writerows(zip(*(_cells(c[start:start + BLOCK_ROWS]) for c in columns.values())))


def csv_text(columns: dict) -> str:
    """CSV of named, equal-length columns: a header line, then one line per row."""
    buf = io.StringIO()
    _write_rows(buf, columns)
    return buf.getvalue()


def write_csv(path, columns: dict) -> None:
    """Write ``csv_text(columns)`` to ``path``, streaming the rows."""
    with replacing(path) as fh:
        _write_rows(fh, columns)


def write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
