"""Checkpoint persistence and self-teacher selection.

Checkpoints are written in a deliberately simple binary layout so any
language can parse them: a fixed header (magic ``ALSK``, format version,
parameter count, epoch, metric code, validation score as a 64-bit float)
followed by the little-endian float32 parameter values. A human-readable
CSV index lists every checkpoint next to the binaries.

The self-teacher for epoch ``t`` is the stored checkpoint with the best
validation score among epochs strictly before ``t``: highest score for
score-like metrics (accuracy, mini_bleu), lowest for loss-like ones (nll),
with ties broken toward the later epoch.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SequenceData, dataset_arrays, flat_positions
from .metrics import accuracy_score, mean_nll, mini_bleu
from .probs import softmax_rows

MAGIC = b"ALSK"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQIId")

G_KINDS = ("accuracy", "nll", "mini_bleu")
_G_CODES = {name: i for i, name in enumerate(G_KINDS)}

#: metrics where a larger validation score means better generalization
SCORE_LIKE = frozenset({"accuracy", "mini_bleu"})


class DuplicateEpochError(ValueError):
    """A checkpoint for this epoch is already stored."""


class NoTeacherError(LookupError):
    """No stored checkpoint precedes the requested epoch."""


@dataclass(frozen=True)
class CheckpointRecord:
    epoch: int
    params: np.ndarray  # float32, read-only
    val_score: float
    g_kind: str


@dataclass(frozen=True)
class TeacherHandle:
    """Read-only view of a stored checkpoint with forward-pass capability.

    The parameter array is frozen and the handle only ever runs forward
    passes; it never touches gradient state.
    """

    epoch: int
    val_score: float
    g_kind: str
    params: np.ndarray
    _forward_fn: object = None

    def logits(self, inputs) -> np.ndarray:
        if self._forward_fn is None:
            raise RuntimeError("registry was created without a forward function")
        return self._forward_fn(self.params, inputs)


def write_checkpoint(path, params: np.ndarray, epoch: int, val_score: float, g_kind: str) -> None:
    """Write one checkpoint file; it appears under ``path`` only once complete.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``, so a failed or interrupted write never leaves a
    truncated checkpoint under the final name.
    """
    if g_kind not in _G_CODES:
        raise ValueError(f"unknown g_kind {g_kind!r}, expected one of {G_KINDS}")
    flat = np.ascontiguousarray(params, dtype=np.float32).ravel()
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, flat.size, int(epoch),
                          _G_CODES[g_kind], float(val_score))
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(flat.astype("<f4").tobytes())
    tmp.replace(path)


def read_checkpoint(path) -> CheckpointRecord:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated checkpoint header in {path}")
        magic, version, count, epoch, g_code, val_score = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"{path} is not a checkpoint file (bad magic {magic!r})")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version} in {path}")
        if g_code >= len(G_KINDS):
            raise ValueError(f"unknown metric code {g_code} in {path}")
        body = fh.read(count * 4)
        if len(body) != count * 4:
            raise ValueError(f"truncated parameter block in {path}")
    params = np.frombuffer(body, dtype="<f4").astype(np.float32)
    params.flags.writeable = False
    return CheckpointRecord(epoch=epoch, params=params, val_score=val_score, g_kind=G_KINDS[g_code])


class CheckpointRegistry:
    """Directory of per-epoch checkpoints with an index sidecar.

    Every stored epoch is retained, and files are immutable once written.
    """

    INDEX_NAME = "index.csv"

    def __init__(self, root, forward_fn=None, expected_param_count: int | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._forward_fn = forward_fn
        self._expected_param_count = expected_param_count
        # epoch -> (file name, g_kind, val_score)
        self._entries: dict[int, tuple[str, str, float]] = {}
        self._load_index()

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def _load_index(self) -> None:
        if not self.index_path.exists():
            return
        with open(self.index_path, newline="") as fh:
            for row in csv.DictReader(fh):
                self._entries[int(row["epoch"])] = (
                    row["file"], row["g_kind"], float(row["val_score"]))

    def _write_index(self) -> None:
        tmp = self.index_path.with_suffix(".tmp")
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "file", "g_kind", "val_score"])
            for epoch in sorted(self._entries):
                name, g_kind, score = self._entries[epoch]
                writer.writerow([epoch, name, g_kind, repr(score)])
        tmp.replace(self.index_path)

    def __len__(self) -> int:
        return len(self._entries)

    def epochs(self) -> list[int]:
        return sorted(self._entries)

    def checkpoint_files(self) -> list[Path]:
        """Paths of all stored checkpoint binaries, in epoch order."""
        return [self.root / self._entries[e][0] for e in sorted(self._entries)]

    def store(self, params: np.ndarray, epoch: int, val_score: float, g_kind: str) -> Path:
        """Durably write one epoch's checkpoint and update the index."""
        if self._expected_param_count is not None and params.size != self._expected_param_count:
            raise ValueError(
                f"parameter count {params.size} does not match the declared "
                f"{self._expected_param_count}")
        if not np.isfinite(val_score):
            raise ValueError(f"val_score must be finite, got {val_score!r}")
        if epoch in self._entries:
            raise DuplicateEpochError(f"epoch {epoch} already stored in {self.root}")
        name = f"epoch_{epoch:05d}.ckpt"
        path = self.root / name
        write_checkpoint(path, params, epoch, val_score, g_kind)
        self._entries[epoch] = (name, g_kind, float(val_score))
        self._write_index()
        return path

    def _best_epoch(self, epochs) -> int | None:
        best = None
        for epoch in epochs:
            _, g_kind, score = self._entries[epoch]
            oriented = score if g_kind in SCORE_LIKE else -score
            # ties break toward the later epoch
            key = (oriented, epoch)
            if best is None or key > best[0]:
                best = (key, epoch)
        return None if best is None else best[1]

    def load(self, epoch: int) -> CheckpointRecord:
        if epoch not in self._entries:
            raise KeyError(f"no checkpoint for epoch {epoch} in {self.root}")
        name, _, _ = self._entries[epoch]
        return read_checkpoint(self.root / name)

    def select_teacher(self, current_epoch: int) -> TeacherHandle:
        """Best-generalizing checkpoint among epochs strictly before ``current_epoch``."""
        candidates = [e for e in self._entries if e < current_epoch]
        if not candidates:
            raise NoTeacherError(f"no checkpoint precedes epoch {current_epoch}")
        chosen = self._best_epoch(candidates)
        record = self.load(chosen)
        return TeacherHandle(
            epoch=record.epoch,
            val_score=record.val_score,
            g_kind=record.g_kind,
            params=record.params,
            _forward_fn=self._forward_fn,
        )


def greedy_decode(forward_fn, params: np.ndarray, data: SequenceData) -> list[list[int]]:
    """Per-position argmax decode of each sequence, truncated at its length."""
    logits = forward_fn(params, data.inputs)
    pred = logits.argmax(axis=-1)
    return [pred[i, : int(n)].tolist() for i, n in enumerate(data.lengths)]


def evaluate_g(forward_fn, params: np.ndarray, dataset, g_kind: str) -> float:
    """Validation-set generalization score used to rank teacher candidates."""
    if g_kind not in G_KINDS:
        raise ValueError(f"unknown g_kind {g_kind!r}, expected one of {G_KINDS}")
    if len(dataset) == 0:
        raise ValueError("validation set must be non-empty")

    if isinstance(dataset, SequenceData) and g_kind == "mini_bleu":
        hyps = greedy_decode(forward_fn, params, dataset)
        refs = [dataset.targets[i, : int(n)].tolist() for i, n in enumerate(dataset.lengths)]
        return mini_bleu(hyps, refs)
    if g_kind == "mini_bleu":
        raise ValueError("mini_bleu requires a sequence task")
    inputs, targets, mask = dataset_arrays(dataset)
    logits, y, _ = flat_positions(forward_fn(params, inputs), targets, mask)
    if g_kind == "accuracy":
        return accuracy_score(logits.argmax(axis=-1), y)
    return mean_nll(softmax_rows(logits), y)
