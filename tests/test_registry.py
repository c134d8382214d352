import ast
import struct
from pathlib import Path

import numpy as np
import pytest
from conftest import counter_bleu, open_failing_on_write
from hypothesis import given, settings
from hypothesis import strategies as st

from alskd import artifacts as artifacts_module
from alskd import registry as registry_module
from alskd.data import PAD_ID, Split
from alskd.metrics import mini_bleu
from alskd.models import MLPClassifier
from alskd.registry import (
    CheckpointRegistry,
    CorruptCheckpointError,
    DuplicateEpochError,
    NoTeacherError,
    read_checkpoint,
    write_checkpoint,
)
from alskd.trainer import ModelConfig, TeacherHandle, TrainConfig, TrainState, evaluate


@pytest.fixture
def registry(tmp_path):
    return CheckpointRegistry(tmp_path / "reg")


def greedy_decode(forward_fn, params, data):
    """Per-position argmax decode of each sequence, truncated at its length."""
    pred = forward_fn(params, data.inputs).argmax(axis=-1)
    return [pred[i, : int(n)].tolist() for i, n in enumerate(data.mask.sum(axis=1))]


def linear_forward(params, x):
    """Toy forward pass: params reshaped to (classes, features)."""
    w = params.reshape(-1, x.shape[-1])
    return np.asarray(x, dtype=np.float64) @ w.T


class StubModel:
    """A model whose forward pass is ``forward_fn`` and keeps no backward cache."""

    def __init__(self, forward_fn):
        self.forward_fn = forward_fn

    def forward(self, params, inputs):
        return self.forward_fn(params, inputs), None


def test_registry_imports_only_artifacts_from_the_package():
    """The registry stores and ranks checkpoints; it never runs or scores a model."""
    tree = ast.parse(Path(registry_module.__file__).read_text())
    package = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("alskd"))}
    package |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.startswith("alskd")}
    assert package == {"artifacts"}


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

    @pytest.mark.parametrize("damage", ["header", "body", "extra", "magic"])
    def test_corruption_is_an_io_error_naming_the_file(self, tmp_path, damage):
        path = tmp_path / "ck.bin"
        write_checkpoint(path, np.arange(4, dtype=np.float32), epoch=1, val_score=0.5,
                         g_kind="accuracy")
        raw = path.read_bytes()
        path.write_bytes({"header": raw[:20], "body": raw[:-1], "extra": raw + b"\x00",
                          "magic": b"ALSX" + raw[4:]}[damage])
        with pytest.raises(CorruptCheckpointError, match="ck.bin") as err:
            read_checkpoint(path)
        assert isinstance(err.value, OSError) and isinstance(err.value, ValueError)


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
        registry.write_index()
        assert registry.index_path.read_bytes() == b"epoch,file,g_kind,val_score\r\n"
        registry.store(np.zeros(2, np.float32), 1, 0.5, "accuracy")
        registry.store(np.zeros(2, np.float32), 2, 0.75, "accuracy")
        assert len(registry.index_path.read_bytes().splitlines()) == 1  # store leaves the index alone
        registry.write_index()
        assert registry.index_path.read_bytes() == (
            b"epoch,file,g_kind,val_score\r\n"
            b"1,epoch_00001.ckpt,accuracy,0.5\r\n"
            b"2,epoch_00002.ckpt,accuracy,0.75\r\n")

    def test_reload_from_disk(self, tmp_path, rng):
        first = CheckpointRegistry(tmp_path / "reg")
        first.store(rng.normal(size=4).astype(np.float32), 1, 0.4, "accuracy")
        second = CheckpointRegistry(tmp_path / "reg")
        assert second.epochs() == [1]

    def test_killed_run_reopens_with_its_checkpoints(self, registry, rng):
        """A run stopped after epoch 3 wrote no index; its checkpoints are its entries."""
        scores = {1: 0.25, 2: 0.75, 3: 0.5}
        stored = {e: rng.normal(size=5).astype(np.float32) for e in scores}
        for epoch, score in scores.items():
            registry.store(stored[epoch], epoch, score, "mini_bleu")
        # a write the kill interrupted, and an index from some earlier run
        (registry.root / "epoch_00004.ckpt.tmp").write_bytes(b"ALSK")
        registry.index_path.write_text("epoch,file,g_kind,val_score\r\n")

        reopened = CheckpointRegistry(registry.root)
        assert reopened.epochs() == [1, 2, 3]
        assert reopened.select_teacher(4).epoch == 2
        for epoch in scores:
            np.testing.assert_array_equal(reopened.load(epoch).params, stored[epoch])
        reopened.write_index()
        assert reopened.index_path.read_bytes() == (
            b"epoch,file,g_kind,val_score\r\n"
            b"1,epoch_00001.ckpt,mini_bleu,0.25\r\n"
            b"2,epoch_00002.ckpt,mini_bleu,0.75\r\n"
            b"3,epoch_00003.ckpt,mini_bleu,0.5\r\n")

    @pytest.mark.parametrize("damage", ["truncated", "misnamed"])
    def test_corrupt_checkpoint_refuses_to_open(self, registry, damage):
        registry.store(np.zeros(2, np.float32), 1, 0.5, "accuracy")
        bad = registry.root / "epoch_00002.ckpt"
        if damage == "truncated":
            bad.write_bytes((registry.root / "epoch_00001.ckpt").read_bytes()[:-3])
        else:
            write_checkpoint(bad, np.zeros(2, np.float32), 7, 0.5, "accuracy")
        with pytest.raises(CorruptCheckpointError, match="epoch_00002.ckpt"):
            CheckpointRegistry(registry.root)

    def test_nonfinite_score_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.store(np.zeros(2, np.float32), 1, float("nan"), "accuracy")

    def test_failed_write_leaves_no_checkpoint(self, registry, monkeypatch):
        registry.store(np.zeros(2, np.float32), 1, 0.5, "accuracy")

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
        assert sorted(p.name for p in registry.root.iterdir()) == ["epoch_00001.ckpt"]
        assert registry.epochs() == [1]
        assert CheckpointRegistry(registry.root).epochs() == [1]

        registry.store(params, 2, 0.75, "accuracy")
        assert registry.epochs() == [1, 2]
        np.testing.assert_array_equal(registry.load(2).params, params)

    def test_failed_index_write_leaves_registry_unchanged(self, registry, monkeypatch):
        registry.store(np.zeros(2, np.float32), 1, 0.5, "accuracy")
        registry.write_index()
        index = registry.index_path.read_bytes()
        registry.store(np.arange(2, dtype=np.float32), 2, 0.75, "accuracy")
        # the header row is written, the first epoch row fails
        monkeypatch.setattr(artifacts_module, "open",
                            open_failing_on_write(registry.INDEX_NAME, OSError("disk full")),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            registry.write_index()
        monkeypatch.undo()
        assert not list(registry.root.glob("*.tmp"))
        assert registry.index_path.read_bytes() == index
        assert registry.epochs() == [1, 2]
        assert registry.select_teacher(3).epoch == 2

        registry.write_index()
        assert registry.index_path.read_text().splitlines()[1:] == [
            "1,epoch_00001.ckpt,accuracy,0.5", "2,epoch_00002.ckpt,accuracy,0.75"]
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
        record = registry.select_teacher(2)
        with pytest.raises(ValueError):
            record.params[0] = 1.0

    def test_handle_forward(self, registry, rng):
        """A selected checkpoint, run by its model, gives the model's own logits."""
        model = MLPClassifier(4, 5, 3)
        registry.store(model.init_params(3), 1, 0.5, "accuracy")
        record = registry.select_teacher(2)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        logits = TeacherHandle(record, model).logits(x)
        assert logits.tobytes() == model.forward(record.params, x)[0].tobytes()


class TestEvaluateG:
    """The validation scores a run ranks its checkpoints by: ``getattr(evaluate(...), g_kind)``."""

    def test_accuracy_all_correct(self, rng):
        w = np.eye(3, dtype=np.float32).ravel()  # identity scorer
        data = Split(np.eye(3, dtype=np.float32), np.arange(3))
        assert evaluate(StubModel(linear_forward), w, data).accuracy == 1.0

    def test_nll_matches_manual(self, rng):
        w = rng.normal(size=(4, 5)).astype(np.float32)
        x = rng.normal(size=(20, 5)).astype(np.float32)
        y = rng.integers(0, 4, size=20)
        data = Split(x, y)
        logits = linear_forward(w.ravel(), x)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(20), y]))
        assert evaluate(StubModel(linear_forward), w.ravel(), data).nll == pytest.approx(
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
        data = Split(inputs, targets, inputs != PAD_ID)
        assert evaluate(StubModel(seq_forward), np.zeros(1, np.float32), data).mini_bleu == 1.0
        hyps = greedy_decode(seq_forward, np.zeros(1, np.float32), data)
        assert hyps == [[2, 3, 4], [1, 2]]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mini_bleu_on_arrays_equals_decoded_lists(self, data):
        """Scores from arrays equal the list API on decoded sentences and the Counter oracle."""
        vocab = data.draw(st.integers(3, 12), label="symbols")
        n, t = data.draw(st.integers(1, 6), label="sequences"), data.draw(st.integers(1, 7))
        grid = st.lists(st.lists(st.integers(0, vocab - 1), min_size=t, max_size=t),
                        min_size=n, max_size=n)
        lengths = np.array(data.draw(st.lists(st.integers(1, t), min_size=n, max_size=n)))
        targets = np.array(data.draw(grid, label="targets"))
        targets[np.arange(t) >= lengths[:, None]] = PAD_ID
        # the "model" emits its input as a one-hot row: predictions, pads included
        split = Split(np.array(data.draw(grid, label="predictions")), targets,
                      np.arange(t) < lengths[:, None])

        def one_hot(params, inputs):
            return np.eye(vocab)[inputs]

        refs = [targets[i, :k].tolist() for i, k in enumerate(lengths)]
        hyps = greedy_decode(one_hot, None, split)
        score = evaluate(StubModel(one_hot), None, split).mini_bleu
        assert score == mini_bleu(hyps, refs) == counter_bleu(hyps, refs)

    def test_mini_bleu_needs_sequences(self, tmp_path):
        """A classification run cannot rank by mini_bleu; it is refused before its registry."""
        with pytest.raises(ValueError, match="mini_bleu"):
            TrainState.start(ModelConfig(), TrainConfig("base_ce", g_kind="mini_bleu"),
                             tmp_path / "reg")
        assert not (tmp_path / "reg").exists()

    def test_empty_validation_set(self):
        data = Split(np.zeros((0, 3), np.float32), np.zeros(0, np.int64))
        with pytest.raises(ValueError):
            evaluate(StubModel(linear_forward), np.zeros(6, np.float32), data)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="rouge"):
            TrainConfig("base_ce", g_kind="rouge")
