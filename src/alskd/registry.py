"""Checkpoint persistence and self-teacher ranking; the registry never runs a model.

Checkpoints are written in a deliberately simple binary layout so any
language can parse them: a fixed header (magic ``ALSK``, format version,
parameter count, epoch, metric code, validation score as a 64-bit float)
followed by the little-endian float32 parameter values. The headers are
the registry's record; the human-readable ``index.csv`` is derived from them.

The self-teacher for epoch ``t`` is the stored checkpoint with the best
validation score among epochs strictly before ``t``: highest score for
score-like metrics (accuracy, mini_bleu), lowest for loss-like ones (nll),
with ties broken toward the later epoch.

Files are written through ``artifacts``. An epoch joins once its checkpoint
is renamed into place; ``trainer.train`` writes the index when it returns or raises.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import replacing, write_csv

MAGIC = b"ALSK"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQIId")

G_KINDS = ("accuracy", "nll", "mini_bleu")
_G_CODES = {name: i for i, name in enumerate(G_KINDS)}

#: metrics where a larger validation score means better generalization
SCORE_LIKE = frozenset({"accuracy", "mini_bleu"})


class DuplicateEpochError(ValueError):
    """A checkpoint for this epoch is already stored."""


class CorruptCheckpointError(OSError, ValueError):
    """A checkpoint file that is truncated or not in the checkpoint format."""


class NoTeacherError(LookupError):
    """No stored checkpoint precedes the requested epoch."""


@dataclass(frozen=True)
class CheckpointRecord:
    epoch: int
    params: np.ndarray  # float32, read-only
    val_score: float
    g_kind: str


def write_checkpoint(path, params: np.ndarray, epoch: int, val_score: float, g_kind: str) -> None:
    """Write one checkpoint file; it appears under ``path`` only once complete."""
    if g_kind not in _G_CODES:
        raise ValueError(f"unknown g_kind {g_kind!r}, expected one of {G_KINDS}")
    flat = np.ascontiguousarray(params, dtype=np.float32).ravel()
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, flat.size, int(epoch),
                          _G_CODES[g_kind], float(val_score))
    with replacing(path, "wb") as fh:
        fh.write(header)
        fh.write(flat.astype("<f4").tobytes())


def _read_header(fh, path) -> tuple[int, int, str, float]:
    """``(count, epoch, g_kind, val_score)`` of an open checkpoint whose size matches its header."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise CorruptCheckpointError(f"truncated checkpoint header in {path}")
    magic, version, count, epoch, g_code, val_score = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise CorruptCheckpointError(f"{path} is not a checkpoint file (bad magic {magic!r})")
    if version != FORMAT_VERSION:
        raise CorruptCheckpointError(f"unsupported checkpoint format version {version} in {path}")
    if g_code >= len(G_KINDS):
        raise CorruptCheckpointError(f"unknown metric code {g_code} in {path}")
    if os.fstat(fh.fileno()).st_size != _HEADER.size + 4 * count:
        raise CorruptCheckpointError(f"parameter block of {path} does not hold {count} values")
    return count, epoch, G_KINDS[g_code], val_score


def read_checkpoint(path) -> CheckpointRecord:
    with open(path, "rb") as fh:
        count, epoch, g_kind, val_score = _read_header(fh, path)
        params = np.frombuffer(fh.read(count * 4), dtype="<f4").astype(np.float32)
    params.flags.writeable = False
    return CheckpointRecord(epoch=epoch, params=params, val_score=val_score, g_kind=g_kind)


class CheckpointRegistry:
    """Directory of per-epoch checkpoints with an index sidecar.

    Every stored epoch is retained, and files are immutable once written.
    """

    INDEX_NAME = "index.csv"
    CHECKPOINT_NAME = "epoch_{:05d}.ckpt"

    def __init__(self, root, expected_param_count: int | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._expected_param_count = expected_param_count
        # epoch -> (file name, g_kind, val_score), read from the checkpoint headers
        self._entries: dict[int, tuple[str, str, float]] = {}
        for path in sorted(self.root.glob("epoch_*.ckpt")):
            with open(path, "rb") as fh:
                _, epoch, g_kind, val_score = _read_header(fh, path)
            if path.name != self.CHECKPOINT_NAME.format(epoch):
                raise CorruptCheckpointError(f"{path} holds epoch {epoch}")
            self._entries[epoch] = (path.name, g_kind, val_score)

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def __len__(self) -> int:
        return len(self._entries)

    def epochs(self) -> list[int]:
        return sorted(self._entries)

    def checkpoint_files(self) -> list[Path]:
        """Paths of all stored checkpoint binaries, in epoch order."""
        return [self.root / self._entries[e][0] for e in sorted(self._entries)]

    def store(self, params: np.ndarray, epoch: int, val_score: float, g_kind: str) -> Path:
        """Durably write one epoch's checkpoint; the epoch joins once it is in place."""
        if self._expected_param_count is not None and params.size != self._expected_param_count:
            raise ValueError(
                f"parameter count {params.size} does not match the declared "
                f"{self._expected_param_count}")
        if not np.isfinite(val_score):
            raise ValueError(f"val_score must be finite, got {val_score!r}")
        if epoch in self._entries:
            raise DuplicateEpochError(f"epoch {epoch} already stored in {self.root}")
        name = self.CHECKPOINT_NAME.format(epoch)
        path = self.root / name
        write_checkpoint(path, params, epoch, val_score, g_kind)
        self._entries[epoch] = (name, g_kind, float(val_score))
        return path

    def write_index(self) -> None:
        """Write ``index.csv``, one row per stored epoch in epoch order."""
        epochs = sorted(self._entries)
        names, kinds, scores = ([self._entries[e][i] for e in epochs] for i in range(3))
        write_csv(self.index_path,
                  {"epoch": epochs, "file": names, "g_kind": kinds, "val_score": scores})

    def _rank(self, epoch: int) -> tuple[float, int]:
        """Larger for a better teacher: the oriented score, then the later epoch on ties."""
        _, g_kind, score = self._entries[epoch]
        return (score if g_kind in SCORE_LIKE else -score), epoch

    def load(self, epoch: int) -> CheckpointRecord:
        if epoch not in self._entries:
            raise KeyError(f"no checkpoint for epoch {epoch} in {self.root}")
        name, _, _ = self._entries[epoch]
        return read_checkpoint(self.root / name)

    def select_teacher(self, current_epoch: int) -> CheckpointRecord:
        """Best-generalizing checkpoint among epochs strictly before ``current_epoch``."""
        candidates = [e for e in self._entries if e < current_epoch]
        if not candidates:
            raise NoTeacherError(f"no checkpoint precedes epoch {current_epoch}")
        return self.load(max(candidates, key=self._rank))

