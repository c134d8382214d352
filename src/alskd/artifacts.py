"""The one writer of every file the package produces.

A file is written to ``<name>.tmp`` beside its target and renamed over
``<name>`` once complete; a directory is made when its first file is written.
A failed write, interrupts included, unlinks the temporary file, so the
target keeps its previous bytes. ``write_csv`` is the one CSV renderer: it
formats a column at a time, byte for byte as ``csv.writer`` in the excel
dialect: bools as ``true``/``false``, numbers as ``str`` (``repr`` for
floats), None as an empty field, any other value as ``str``. A field holding
``,``, ``"``, CR or LF is quoted with its quotes doubled; a lone empty field
is ``""``.
"""

import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np


@contextmanager
def replacing(path, mode: str = "w"):
    """Open ``<path>.tmp`` in ``mode``, "w" or "wb"; rename it over ``path`` on success."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with (open(tmp, mode) if "b" in mode else open(tmp, mode, newline="")) as fh:
            yield fh
        tmp.replace(path)
    except BaseException:  # interrupts too: never leave a partial file behind
        tmp.unlink(missing_ok=True)
        raise


def _quote(field: str) -> str:
    """``csv.writer``'s minimal quoting."""
    quoted = any(c in field for c in ',"\r\n')
    return '"' + field.replace('"', '""') + '"' if quoted else field


def _fields(values: np.ndarray) -> list[str]:
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    if values.dtype.kind in "iuf":  # Python numbers: str of a float is its repr
        return list(map(str, values.tolist()))
    return [_quote("" if v is None else str(v)) for v in values.tolist()]


# Rows formatted at once: a writer's memory stays flat however long the file.
BLOCK_ROWS = 1024


def write_csv(path, columns: dict) -> None:
    """CSV of named, equal-length columns: a header line, then one line per row, streamed."""
    arrays = [np.asarray(c) for c in columns.values()]  # one dtype for each whole column
    starts = range(0, len(arrays[0]), BLOCK_ROWS)
    blocks = ([_fields(a[s:s + BLOCK_ROWS]) for a in arrays] for s in starts)
    with replacing(path) as fh:
        for fields in chain([[[_quote(str(name))] for name in columns]], blocks):
            if len(fields) == 1:  # a lone empty field is quoted, else it reads as no field
                fields = [[f or '""' for f in fields[0]]]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
