import struct

import numpy as np
import pytest
from conftest import open_failing_on_write

from alskd import artifacts as artifacts_module
from alskd.data import ClassificationData, SequenceData
from alskd.registry import (
    CheckpointRegistry,
    DuplicateEpochError,
    NoTeacherError,
    evaluate_g,
    greedy_decode,
    read_checkpoint,
    write_checkpoint,
)


@pytest.fixture
def registry(tmp_path):
    return CheckpointRegistry(tmp_path / "reg")


def linear_forward(params, x):
    """Toy forward pass: params reshaped to (classes, features)."""
    w = params.reshape(-1, x.shape[-1])
    return np.asarray(x, dtype=np.float64) @ w.T


class TestBinaryFormat:
    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        params = rng.normal(size=257).astype(np.float32)
        path = tmp_path / "ck.bin"
        write_checkpoint(path, params, epoch=12, val_score=0.875, g_kind="accuracy")
        record = read_checkpoint(path)
        np.testing.assert_array_equal(record.params, params)
        assert record.params.dtype == np.float32
        assert record.epoch == 12
        assert record.val_score == 0.875
        assert record.g_kind == "accuracy"

    def test_header_layout(self, tmp_path):
        # fixed little-endian layout: magic, version, count, epoch, metric
        # code, score; then raw float32 values
        params = np.array([1.5, -2.0], dtype=np.float32)
        path = tmp_path / "ck.bin"
        write_checkpoint(path, params, epoch=3, val_score=1.25, g_kind="nll")
        raw = path.read_bytes()
        magic, version, count, epoch, g_code, score = struct.unpack("<4sIQIId", raw[:32])
        assert magic == b"ALSK"
        assert version == 1
        assert (count, epoch, g_code, score) == (2, 3, 1, 1.25)
        np.testing.assert_array_equal(np.frombuffer(raw[32:], dtype="<f4"), params)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 28)
        with pytest.raises(ValueError):
            read_checkpoint(path)
        path.write_bytes(b"\x01")
        with pytest.raises(ValueError):
            read_checkpoint(path)


class TestRegistry:
    def test_store_and_enumerate(self, registry, rng):
        for epoch in range(1, 6):
            registry.store(rng.normal(size=8).astype(np.float32), epoch, 0.1 * epoch, "accuracy")
        assert registry.epochs() == [1, 2, 3, 4, 5]
        assert len(registry) == 5

    def test_duplicate_epoch_rejected(self, registry):
        params = np.zeros(4, dtype=np.float32)
        registry.store(params, 1, 0.5, "accuracy")
        with pytest.raises(DuplicateEpochError):
            registry.store(params, 1, 0.6, "accuracy")

    def test_load_round_trip(self, registry, rng):
        params = rng.normal(size=64).astype(np.float32)
        registry.store(params, 4, 0.7, "mini_bleu")
        np.testing.assert_array_equal(registry.load(4).params, params)

    def test_index_sidecar_is_readable(self, registry):
        registry.store(np.zeros(2, np.float32), 1, 0.5, "accuracy")
        registry.store(np.zeros(2, np.float32), 2, 0.75, "accuracy")
        lines = registry.index_path.read_text().splitlines()
        assert lines[0] == "epoch,file,g_kind,val_score"
        assert lines[1].startswith("1,epoch_00001.ckpt,accuracy,")
        assert len(lines) == 3

    def test_reload_from_disk(self, tmp_path, rng):
        first = CheckpointRegistry(tmp_path / "reg")
        first.store(rng.normal(size=4).astype(np.float32), 1, 0.4, "accuracy")
        second = CheckpointRegistry(tmp_path / "reg")
        assert second.epochs() == [1]

    def test_nonfinite_score_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.store(np.zeros(2, np.float32), 1, float("nan"), "accuracy")

    def test_failed_write_leaves_no_checkpoint(self, registry, monkeypatch):
        registry.store(np.zeros(2, np.float32), 1, 0.5, "accuracy")
        index = registry.index_path.read_bytes()

        class FailsAfterHeader:
            """A binary file whose second write (the parameter block) fails."""

            def __init__(self, path, mode):
                self.fh, self.writes = open(path, mode), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.fh.write(data)

        params = np.arange(6, dtype=np.float32)
        monkeypatch.setattr(artifacts_module, "open", FailsAfterHeader, raising=False)
        with pytest.raises(OSError, match="disk full"):
            registry.store(params, 2, 0.75, "accuracy")
        monkeypatch.undo()
        assert not (registry.root / "epoch_00002.ckpt").exists()
        assert not list(registry.root.glob("*.tmp"))
        assert registry.index_path.read_bytes() == index
        assert registry.epochs() == [1]

        registry.store(params, 2, 0.75, "accuracy")
        assert registry.epochs() == [1, 2]
        np.testing.assert_array_equal(registry.load(2).params, params)

    def test_failed_index_write_leaves_registry_unchanged(self, registry, monkeypatch):
        registry.store(np.zeros(2, np.float32), 1, 0.5, "accuracy")
        index = registry.index_path.read_bytes()
        params = np.arange(2, dtype=np.float32)
        # the header row is written, the first epoch row fails
        monkeypatch.setattr(artifacts_module, "open",
                            open_failing_on_write(registry.INDEX_NAME, OSError("disk full")),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            registry.store(params, 2, 0.75, "accuracy")
        monkeypatch.undo()
        assert not list(registry.root.glob("*.tmp"))
        assert registry.index_path.read_bytes() == index
        assert registry.epochs() == [1]
        assert registry.select_teacher(3).epoch == 1

        registry.store(params, 2, 0.75, "accuracy")
        assert registry.epochs() == [1, 2]
        assert registry.select_teacher(3).epoch == 2
        assert CheckpointRegistry(registry.root).epochs() == [1, 2]


class TestTeacherSelection:
    def seeded(self, registry, scores, g_kind="accuracy"):
        for epoch, score in scores.items():
            registry.store(np.full(2, epoch, np.float32), epoch, score, g_kind)

    def test_argmax_for_score_metrics(self, registry):
        self.seeded(registry, {1: 0.5, 2: 0.7, 3: 0.6})
        assert registry.select_teacher(4).epoch == 2

    def test_tie_breaks_to_latest(self, registry):
        self.seeded(registry, {1: 0.5, 2: 0.7, 3: 0.7})
        assert registry.select_teacher(4).epoch == 3

    def test_argmin_for_loss_metrics(self, registry):
        self.seeded(registry, {1: 2.1, 2: 1.8, 3: 1.9}, g_kind="nll")
        assert registry.select_teacher(4).epoch == 2

    def test_never_selects_current_or_future(self, registry):
        self.seeded(registry, {1: 0.1, 2: 0.9, 3: 0.95})
        assert registry.select_teacher(3).epoch == 2
        assert registry.select_teacher(2).epoch == 1

    def test_empty_candidate_set(self, registry):
        with pytest.raises(NoTeacherError):
            registry.select_teacher(1)
        self.seeded(registry, {5: 0.5})
        with pytest.raises(NoTeacherError):
            registry.select_teacher(5)

    def test_selected_score_monotone_in_time(self, registry, rng):
        scores = {e: float(rng.uniform(0, 1)) for e in range(1, 21)}
        self.seeded(registry, scores)
        best = [registry.select_teacher(t).val_score for t in range(2, 22)]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_handle_params_are_read_only(self, registry):
        self.seeded(registry, {1: 0.5})
        handle = registry.select_teacher(2)
        with pytest.raises(ValueError):
            handle.params[0] = 1.0

    def test_handle_forward(self, tmp_path, rng):
        reg = CheckpointRegistry(tmp_path / "reg", forward_fn=linear_forward)
        w = rng.normal(size=(3, 4)).astype(np.float32)
        reg.store(w.ravel(), 1, 0.5, "accuracy")
        handle = reg.select_teacher(2)
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(handle.logits(x), linear_forward(w.ravel(), x), atol=1e-6)

    def test_handle_without_forward_fn(self, registry):
        self.seeded(registry, {1: 0.5})
        with pytest.raises(RuntimeError):
            registry.select_teacher(2).logits(np.zeros((1, 2)))


class TestEvaluateG:
    def test_accuracy_all_correct(self, rng):
        w = np.eye(3, dtype=np.float32).ravel()  # identity scorer
        data = ClassificationData(x=np.eye(3, dtype=np.float32), y=np.arange(3))
        assert evaluate_g(linear_forward, w, data, "accuracy") == 1.0

    def test_nll_matches_manual(self, rng):
        w = rng.normal(size=(4, 5)).astype(np.float32)
        x = rng.normal(size=(20, 5)).astype(np.float32)
        y = rng.integers(0, 4, size=20)
        data = ClassificationData(x=x, y=y)
        logits = linear_forward(w.ravel(), x)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(20), y]))
        assert evaluate_g(linear_forward, w.ravel(), data, "nll") == pytest.approx(
            expected, abs=1e-9)

    def test_mini_bleu_perfect_decode(self):
        def seq_forward(params, tokens):
            # score each position as one-hot of the input token shifted by +1
            vocab = 5
            logits = np.zeros(tokens.shape + (vocab,))
            shifted = (tokens % (vocab - 1)) + 1
            for v in range(vocab):
                logits[..., v] = (shifted == v) * 10.0
            return logits

        inputs = np.array([[1, 2, 3, 0], [4, 1, 0, 0]])
        targets = (inputs % 4) + 1
        targets[inputs == 0] = 0
        data = SequenceData(inputs=inputs, targets=targets,
                            lengths=np.array([3, 2]))
        assert evaluate_g(seq_forward, np.zeros(1, np.float32), data, "mini_bleu") == 1.0
        hyps = greedy_decode(seq_forward, np.zeros(1, np.float32), data)
        assert hyps == [[2, 3, 4], [1, 2]]

    def test_mini_bleu_needs_sequences(self):
        data = ClassificationData(x=np.zeros((2, 3), np.float32), y=np.zeros(2, np.int64))
        with pytest.raises(ValueError):
            evaluate_g(linear_forward, np.zeros(6, np.float32), data, "mini_bleu")

    def test_empty_validation_set(self):
        data = ClassificationData(x=np.zeros((0, 3), np.float32), y=np.zeros(0, np.int64))
        with pytest.raises(ValueError):
            evaluate_g(linear_forward, np.zeros(6, np.float32), data, "accuracy")

    def test_unknown_metric(self):
        data = ClassificationData(x=np.zeros((1, 2), np.float32), y=np.zeros(1, np.int64))
        with pytest.raises(ValueError):
            evaluate_g(linear_forward, np.zeros(4, np.float32), data, "rouge")
