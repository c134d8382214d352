import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import central_difference, open_failing_on_write, rel_error

from alskd import artifacts, trainer
from alskd.config import METHODS, DataConfig, ModelConfig, TrainConfig, load_config
from alskd.data import PAD_ID, batch_indices, flat_positions
from alskd.losses import adaptive_skd_loss, kd_loss, label_smoothing_loss, uniform_prior
from alskd.metrics import accuracy_score
from alskd.models import MLPClassifier, build_model
from alskd.probs import adaptive_alpha, alpha_rows, floored_log, softmax, softmax_rows
from alskd.registry import CheckpointRecord, read_checkpoint
from alskd.trainer import (
    DivergenceError,
    EpochDiagnostics,
    EpochLoss,
    TeacherHandle,
    TeacherTable,
    TrainState,
    epoch_loss,
    evaluate,
    forward_backward,
    learning_rate_at,
    make_task_data,
    train,
    write_diagnostics_csv,
)

TINY_MODEL = ModelConfig(task="classification", n_classes=4, input_dim=5, hidden=6)


def tiny_splits(seed=0, task="classification"):
    cfg = TINY_MODEL if task == "classification" else ModelConfig(
        task="seq_transduction", vocab=7, embed=4, hidden=6)
    return cfg, make_task_data(cfg, DataConfig(train_size=120, val_size=40, test_size=40,
                                               label_noise=0.1), seed)


def tiny_train_cfg(method, seed=0, epochs=4, **kw):
    defaults = dict(g_kind="accuracy", epochs=epochs, batch_size=32,
                    learning_rate=0.2, warmup_steps=10, momentum=0.9, seed=seed)
    defaults.update(kw)
    return TrainConfig(method=method, **defaults)


def teacher_rows(handle, x, y, mask=None):
    """The teacher's prior rows for one batch, computed from that batch alone."""
    return softmax_rows(flat_positions(handle.logits(x), y, mask)[0])


def batch_loss(method, epoch=1, teacher=None, labels=None, n_classes=4, **kw):
    """The resolved loss of ``method`` at ``epoch``, with ``teacher`` (a batch's
    ``teacher_rows``) as every epoch's teacher prior."""
    return epoch_loss(tiny_train_cfg(method, **kw), epoch, n_classes,
                      None if teacher is None else lambda e: teacher, labels)


class TestTaskData:
    def test_sequence_mask_is_the_non_pad_prefix(self):
        _, splits = tiny_splits(task="seq_transduction")
        for split in (splits.train, splits.val, splits.test):
            np.testing.assert_array_equal(split.mask, split.inputs != PAD_ID)
            lengths = split.mask.sum(axis=1)
            assert lengths.min() >= 1
            np.testing.assert_array_equal(  # each row: real positions, then padding
                split.mask, np.arange(split.inputs.shape[1]) < lengths[:, None])
            np.testing.assert_array_equal(split.targets != PAD_ID, split.mask)

    def test_classification_splits_have_no_mask(self):
        _, splits = tiny_splits()
        for split in (splits.train, splits.val, splits.test):
            assert split.mask is None
            assert len(split) == len(split.targets) == split.inputs.shape[0]

    @pytest.mark.parametrize("task", ["classification", "seq_transduction"])
    @pytest.mark.parametrize("noise", [-0.5, 1.0, 1.5])
    def test_label_noise_outside_unit_interval_is_refused(self, task, noise):
        cfg = TINY_MODEL if task == "classification" else ModelConfig(task=task, vocab=7)
        with pytest.raises(ValueError, match=r"label_noise must lie in \[0, 1\)"):
            make_task_data(cfg, DataConfig(train_size=8, val_size=4, test_size=4,
                                           label_noise=noise), 0)


class TestDeterminism:
    def test_same_seed_reproduces_bit_identical_params(self, tmp_path):
        cfg, splits = tiny_splits()
        results = []
        for tag in ("a", "b"):
            r = train(cfg, tiny_train_cfg("base_ce"), splits, tmp_path / tag)
            results.append(r)
        np.testing.assert_array_equal(results[0].params, results[1].params)
        assert results[0].diagnostics == results[1].diagnostics

    def test_adaptive_run_reproduces(self, tmp_path):
        cfg, splits = tiny_splits()
        r1 = train(cfg, tiny_train_cfg("adaptive_skd"), splits, tmp_path / "a")
        r2 = train(cfg, tiny_train_cfg("adaptive_skd"), splits, tmp_path / "b")
        np.testing.assert_array_equal(r1.params, r2.params)


class TestTeacherLifecycle:
    def test_epoch_one_falls_back_to_hard_targets(self, tmp_path):
        cfg, splits = tiny_splits()
        r = train(cfg, tiny_train_cfg("adaptive_skd"), splits, tmp_path / "run")
        first = r.diagnostics[0]
        assert first.loss_mode == "base_ce"
        assert first.teacher_epoch is None
        assert first.mean_alpha == 0.0
        for d in r.diagnostics[1:]:
            assert d.loss_mode == "adaptive_skd"
            assert d.teacher_epoch is not None

    def test_teacher_is_best_prior_checkpoint(self, tmp_path):
        cfg, splits = tiny_splits()
        r = train(cfg, tiny_train_cfg("adaptive_skd", epochs=6), splits, tmp_path / "run")
        val = {d.epoch: d.val_score for d in r.diagnostics}
        for d in r.diagnostics[1:]:
            candidates = [e for e in val if e < d.epoch]
            best = max(candidates, key=lambda e: (val[e], e))
            assert d.teacher_epoch == best
            assert d.teacher_epoch < d.epoch

    def test_selected_teacher_score_is_monotone(self, tmp_path):
        cfg, splits = tiny_splits()
        r = train(cfg, tiny_train_cfg("adaptive_skd", epochs=6), splits, tmp_path / "run")
        scores = [r.registry.select_teacher(t).val_score for t in range(2, 7)]
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_teacher_refresh_once_per_epoch(self, tmp_path, monkeypatch):
        from alskd.registry import CheckpointRegistry

        calls = []
        original = CheckpointRegistry.select_teacher

        def counting(self, current_epoch):
            calls.append(current_epoch)
            return original(self, current_epoch)

        monkeypatch.setattr(CheckpointRegistry, "select_teacher", counting)
        cfg, splits = tiny_splits()
        train(cfg, tiny_train_cfg("adaptive_skd", epochs=5), splits, tmp_path / "run")
        assert calls == [2, 3, 4, 5]  # once per post-fallback epoch

    def test_teacher_forward_leaves_training_state_alone(self, tmp_path):
        cfg, splits = tiny_splits()
        r = train(cfg, tiny_train_cfg("adaptive_skd", epochs=3), splits, tmp_path / "run")
        handle = TeacherHandle(r.registry.select_teacher(3), r.model)
        params_before = r.params.copy()
        teacher_params_before = handle.checkpoint.params.copy()
        handle.logits(splits.val.inputs)
        np.testing.assert_array_equal(r.params, params_before)
        np.testing.assert_array_equal(handle.checkpoint.params, teacher_params_before)


class TestTeacherTable:
    @pytest.mark.parametrize("config, last", [("classification.ini", 28), ("sequence.ini", 24)])
    def test_batch_rows_equal_the_batch_forward(self, config, last):
        """At each config's shapes, over two shuffled epochs, every batch's rows of the
        table equal by bytes the teacher's softmax from a forward of that batch alone."""
        cfg = load_config(Path(__file__).parents[1] / "configs" / config)
        model = build_model(cfg.model)
        train_split = make_task_data(cfg.model, cfg.data, 0).train
        handle = TeacherHandle(CheckpointRecord(4, model.init_params(1) * 8, 0.0, "accuracy"),
                               model)
        table = handle.probs_table(train_split.inputs, cfg.train.batch_size)
        assert table.epoch == 4
        rng = np.random.default_rng(5)
        for _ in range(2):
            sizes = []
            for idx in batch_indices(len(train_split), cfg.train.batch_size, rng):
                mask = None if train_split.mask is None else train_split.mask[idx]
                want = teacher_rows(handle, train_split.inputs[idx], train_split.targets[idx], mask)
                assert table.rows(idx, mask).tobytes() == want.tobytes()
                sizes.append(len(idx))
            assert set(sizes[:-1]) == {cfg.train.batch_size} and sizes[-1] == last

    def test_the_teacher_runs_once_per_selection(self, tmp_path, monkeypatch):
        calls = []
        logits = TeacherHandle.logits

        def counting(self, inputs):
            calls.append((self.checkpoint.epoch, len(inputs)))
            return logits(self, inputs)

        monkeypatch.setattr(TeacherHandle, "logits", counting)
        cfg, splits = tiny_splits()
        r = train(cfg, tiny_train_cfg("adaptive_skd", epochs=8), splits, tmp_path / "run")
        teachers = [d.teacher_epoch for d in r.diagnostics[1:]]
        assert teachers == [r.registry.select_teacher(e).epoch for e in range(2, 9)]
        assert len(set(teachers)) < len(teachers)  # some selections repeat
        # 120 training rows in batches of 32: four chunks per table build
        assert calls == [(e, n) for e in sorted(set(teachers)) for n in (32, 32, 32, 24)]

    @pytest.mark.parametrize("task", ["classification", "seq_transduction"])
    def test_a_run_equals_one_whose_teacher_runs_every_batch(self, tmp_path, monkeypatch, task):
        cfg, splits = tiny_splits(task=task)
        cfg_t = tiny_train_cfg("adaptive_skd", epochs=6,
                               g_kind="accuracy" if task == "classification" else "mini_bleu")
        expected = train(cfg, cfg_t, splits, tmp_path / "table")
        model, train_split = build_model(cfg), splits.train

        def per_batch(table, idx, mask):
            record = read_checkpoint(tmp_path / "per_batch" / f"epoch_{table.epoch:05d}.ckpt")
            return teacher_rows(TeacherHandle(record, model), train_split.inputs[idx],
                                train_split.targets[idx], mask)

        monkeypatch.setattr(TeacherTable, "rows", per_batch)
        got = train(cfg, cfg_t, splits, tmp_path / "per_batch")
        assert got.params.tobytes() == expected.params.tobytes()
        assert got.diagnostics == expected.diagnostics


class TestEpochLoss:
    # method -> (prior, alpha) at epoch 2 with fixed_alpha 0.3, max_alpha 0.5 and 4 epochs;
    # the teacher methods train base_ce at epoch 1
    TABLE = {
        "base_ce": ("uniform", 0.0),
        "uniform_ls": ("uniform", 0.3),
        "unigram_ls": ("unigram", 0.3),
        "conf_penalty": (None, 0.0),
        "adaptive_skd": ("teacher", None),
        "fixed_alpha_skd": ("teacher", 0.3),
        "adaptive_alpha_uniform": ("uniform", None),
        "linear_alpha_skd": ("teacher", 0.25),
    }

    @pytest.mark.parametrize("method", list(METHODS))
    def test_every_method_at_epochs_one_and_two(self, method):
        table = TeacherTable(1, np.full((4, 4), 0.25))
        labels = np.array([0, 0, 1, 3])
        priors = {"uniform": np.full(4, 0.25), "unigram": np.array([3, 2, 1, 2]) / 8,
                  "teacher": table, None: None}
        cfg = tiny_train_cfg(method, fixed_alpha=0.3, max_alpha=0.5, beta=0.6)
        selected = []

        def select_teacher(epoch):
            selected.append(epoch)
            return table

        prior, alpha = self.TABLE[method]
        first = ("base_ce", "uniform", 0.0) if prior == "teacher" else (method, prior, alpha)
        for loss, (mode, kind, weight) in [
                (epoch_loss(cfg, 1, 4, None, labels), first),
                (epoch_loss(cfg, 2, 4, select_teacher, labels), (method, prior, alpha))]:
            assert isinstance(loss, EpochLoss)
            assert (loss.mode, loss.alpha, loss.beta) == (mode, weight, 0.6)
            if isinstance(priors[kind], np.ndarray):
                assert loss.prior.tobytes() == priors[kind].tobytes()
            else:
                assert loss.prior is priors[kind]
        assert selected == ([2] if prior == "teacher" else [])


class TestForwardBackward:
    def test_uniform_smoothing_matches_per_sample_loss(self):
        cfg, splits = tiny_splits()
        model = MLPClassifier(cfg.input_dim, cfg.hidden, cfg.n_classes)
        params = model.init_params(1)
        x, y = splits.train.inputs[:1], splits.train.targets[:1]
        stats = forward_backward(model, params, x, y, batch_loss("uniform_ls", fixed_alpha=0.1))
        logits, cache = model.forward(params, x)
        _, logit_grad = label_smoothing_loss(logits[0], int(y[0]), uniform_prior(4), 0.1)
        expected = model.backward(params, cache, logit_grad[None, :])
        np.testing.assert_allclose(stats.grad, expected, atol=1e-12)

    @pytest.mark.parametrize("config", ["classification.ini", "sequence.ini"])
    def test_a_single_sample_loss_is_one_row_of_the_batch(self, config):
        """Each real position's per-sample loss and weight are, bit for bit, what
        ``forward_backward`` applies to it, on peaked desk-scale predictions."""
        cfg = load_config(Path(__file__).parents[1] / "configs" / config)
        model = build_model(cfg.model)
        train_split = make_task_data(cfg.model, cfg.data, 0).train
        x, y = train_split.inputs[:64], train_split.targets[:64]
        mask = None if train_split.mask is None else train_split.mask[:64]
        params = model.init_params(0) * 8
        teacher = TeacherHandle(CheckpointRecord(1, model.init_params(1) * 8, 0.0, "accuracy"),
                                model)
        z, targets, _ = flat_positions(model.forward(params, x)[0], y, mask)
        z_t = flat_positions(teacher.logits(x), y, mask)[0]
        prior = teacher_rows(teacher, x, y, mask)
        a, c = cfg.train.fixed_alpha, model.n_classes
        per_sample = {
            "adaptive_skd": lambda i: adaptive_skd_loss(z[i], z_t[i], targets[i]),
            "fixed_alpha_skd": lambda i: kd_loss(z[i], z_t[i], targets[i], a),
            "uniform_ls": lambda i: label_smoothing_loss(z[i], targets[i], uniform_prior(c), a),
        }
        for method, loss_of in per_sample.items():
            loss = epoch_loss(dataclasses.replace(cfg.train, method=method), 2, c,
                              lambda epoch: prior, train_split.targets)
            stats = forward_backward(model, params, x, y, loss, mask)
            rows = [loss_of(i)[0] for i in range(targets.size)]
            assert stats.loss == np.mean([row.total for row in rows])
            if method == "adaptive_skd":
                for i, row in enumerate(rows):
                    assert stats.alphas[i] == row.alpha_used == adaptive_alpha(softmax(z[i]))

    def test_self_teacher_with_current_params_reduces_to_scaled_ce(self):
        cfg, splits = tiny_splits()
        model = MLPClassifier(cfg.input_dim, cfg.hidden, cfg.n_classes)
        params = model.init_params(2)
        x, y = splits.train.inputs[:16], splits.train.targets[:16]
        frozen = params.copy()
        frozen.flags.writeable = False
        handle = TeacherHandle(CheckpointRecord(1, frozen, 0.0, "accuracy"), model)
        alpha = 0.4
        skd = forward_backward(model, params, x, y, batch_loss(
            "fixed_alpha_skd", epoch=2, teacher=teacher_rows(handle, x, y), fixed_alpha=alpha))
        ce = forward_backward(model, params, x, y, batch_loss("base_ce"))
        np.testing.assert_allclose(skd.grad, (1 - alpha) * ce.grad, atol=1e-6)

    def test_single_sample_end_to_end_finite_difference(self, rng):
        model = MLPClassifier(3, 4, 3)
        params = model.init_params(0, dtype=np.float64)
        x = rng.normal(size=(1, 3))
        y = np.array([1])
        loss = batch_loss("base_ce", n_classes=3)
        stats = forward_backward(model, params, x, y, loss)

        def loss_of(p):
            return forward_backward(model, p, x, y, loss).loss

        fd = central_difference(loss_of, params, step=1e-6)
        assert rel_error(stats.grad, fd) < 1e-4

    def test_all_methods_run_one_batch(self):
        cfg, splits = tiny_splits()
        model = MLPClassifier(cfg.input_dim, cfg.hidden, cfg.n_classes)
        params = model.init_params(5)
        teacher_params = model.init_params(6)
        teacher_params.flags.writeable = False
        handle = TeacherHandle(CheckpointRecord(1, teacher_params, 0.0, "accuracy"), model)
        x, y = splits.train.inputs[:16], splits.train.targets[:16]
        for method in ("base_ce", "uniform_ls", "unigram_ls", "conf_penalty",
                       "adaptive_skd", "fixed_alpha_skd", "adaptive_alpha_uniform",
                       "linear_alpha_skd"):
            stats = forward_backward(model, params, x, y, batch_loss(
                method, epoch=2, teacher=teacher_rows(handle, x, y), labels=splits.train.targets))
            assert np.isfinite(stats.loss)
            assert np.all((stats.alphas >= 0) & (stats.alphas <= 1))

    @pytest.mark.parametrize("task", ["classification", "seq_transduction"])
    @pytest.mark.parametrize("method", list(METHODS))
    def test_no_mask_is_an_all_true_mask(self, method, task):
        cfg, splits = tiny_splits(task=task)
        model = build_model(cfg)
        params = model.init_params(5)
        teacher_params = model.init_params(6)
        teacher_params.flags.writeable = False
        handle = TeacherHandle(CheckpointRecord(1, teacher_params, 0.0, "accuracy"), model)
        x, y = splits.train.inputs[:24], splits.train.targets[:24]
        loss = batch_loss(method, epoch=2, teacher=teacher_rows(handle, x, y), labels=y,
                          n_classes=model.n_classes)
        bare = forward_backward(model, params, x, y, loss)
        masked = forward_backward(model, params, x, y, loss, mask=np.ones(y.shape, bool))
        assert bare.loss == masked.loss
        assert bare.alphas.tobytes() == masked.alphas.tobytes()
        assert bare.grad.tobytes() == masked.grad.tobytes()
        if METHODS[method].alpha == "adaptive":
            probs = softmax_rows(model.forward(params, x)[0].reshape(-1, model.n_classes))
            assert bare.alphas.tobytes() == alpha_rows(probs, floored_log(probs)).tobytes()


class TestSequenceTask:
    def test_adaptive_run_on_sequences(self, tmp_path):
        cfg, splits = tiny_splits(task="seq_transduction")
        r = train(cfg, tiny_train_cfg("adaptive_skd", epochs=3, g_kind="mini_bleu"),
                  splits, tmp_path / "run")
        assert len(r.diagnostics) == 3
        for d in r.diagnostics:
            assert 0.0 <= d.mean_alpha <= 1.0
            assert 0.0 <= d.val_score <= 1.0

    def test_padded_positions_do_not_contribute(self):
        cfg, splits = tiny_splits(task="seq_transduction")
        from alskd.models import RecurrentTransducer

        model = RecurrentTransducer(vocab=cfg.vocab, embed=cfg.embed, hidden=cfg.hidden)
        params = model.init_params(0)
        data = splits.train
        corrupted = data.targets.copy()
        corrupted[~data.mask] = 3  # junk labels on padding only
        loss = batch_loss("base_ce", n_classes=model.n_classes)
        a = forward_backward(model, params, data.inputs[:16], data.targets[:16], loss,
                             mask=data.mask[:16])
        b = forward_backward(model, params, data.inputs[:16], corrupted[:16], loss,
                             mask=data.mask[:16])
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.grad, b.grad)
        assert a.alphas.size == int(data.mask[:16].sum())

    def test_an_all_pad_batch_is_refused(self):
        cfg, splits = tiny_splits(task="seq_transduction")
        from alskd.models import RecurrentTransducer

        model = RecurrentTransducer(vocab=cfg.vocab, embed=cfg.embed, hidden=cfg.hidden)
        data = splits.train
        with pytest.raises(ValueError, match="no non-pad positions"):
            forward_backward(model, model.init_params(0), data.inputs[:4], data.targets[:4],
                             batch_loss("base_ce", n_classes=model.n_classes),
                             mask=np.zeros_like(data.mask[:4]))


class TestTrainingLoop:
    def test_divergence_aborts_with_location(self, tmp_path):
        cfg, splits = tiny_splits()
        # a float32-overflowing step rate produces non-finite losses
        hot = tiny_train_cfg("base_ce", learning_rate=3e38, warmup_steps=0, epochs=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                train(cfg, hot, splits, tmp_path / "run")
        assert err.value.epoch >= 1
        assert err.value.batch_index >= 0

    @pytest.mark.parametrize("index_fails", [False, True])
    def test_divergence_leaves_the_index_of_finished_epochs(self, tmp_path, monkeypatch,
                                                            index_fails):
        real_loss, real = trainer.epoch_loss, trainer.forward_backward
        epochs = []

        def recording_epoch(cfg, epoch, *args):
            epochs.append(epoch)
            return real_loss(cfg, epoch, *args)

        def diverging_at_epoch_3(*args, **kwargs):
            stats = real(*args, **kwargs)
            return dataclasses.replace(stats, loss=math.nan) if epochs[-1] == 3 else stats

        monkeypatch.setattr(trainer, "epoch_loss", recording_epoch)
        monkeypatch.setattr(trainer, "forward_backward", diverging_at_epoch_3)
        if index_fails:  # a failed index write does not hide the divergence
            monkeypatch.setattr(artifacts, "open",
                                open_failing_on_write("index.csv", OSError("disk full")),
                                raising=False)
        cfg, splits = tiny_splits()
        run = tmp_path / "run"
        with pytest.raises(DivergenceError) as err:
            train(cfg, tiny_train_cfg("adaptive_skd", epochs=5), splits, run)
        assert err.value.epoch == 3
        assert sorted(p.name for p in run.iterdir()) == [
            "epoch_00001.ckpt", "epoch_00002.ckpt", *([] if index_fails else ["index.csv"])]
        if not index_fails:
            # the rows the index had when epoch 2 was stored, one per stored epoch
            scores = [read_checkpoint(run / f"epoch_0000{e}.ckpt").val_score for e in (1, 2)]
            assert (run / "index.csv").read_bytes() == (
                "epoch,file,g_kind,val_score\r\n"
                f"1,epoch_00001.ckpt,accuracy,{scores[0]!r}\r\n"
                f"2,epoch_00002.ckpt,accuracy,{scores[1]!r}\r\n").encode()

    def test_registry_files_are_written_once_each(self, tmp_path, monkeypatch):
        """One checkpoint per epoch and one index per run, nothing rewritten."""
        opened = []
        real_open = open

        def recording_open(path, mode, **kwargs):
            opened.append(Path(path))
            return real_open(path, mode, **kwargs)

        monkeypatch.setattr(artifacts, "open", recording_open, raising=False)
        cfg, splits = tiny_splits()
        run = tmp_path / "run"
        cfg_t = tiny_train_cfg("adaptive_skd", epochs=3)
        train(cfg, cfg_t, splits, run)
        written = [p.name for p in opened if p.parent == run]
        assert len(written) == cfg_t.epochs + 1
        assert written == ["epoch_00001.ckpt.tmp", "epoch_00002.ckpt.tmp",
                           "epoch_00003.ckpt.tmp", "index.csv.tmp"]

    def test_train_matches_a_literal_replay(self, tmp_path):
        """The schedule, momentum step, parameter update and gradient norms, bit for bit."""
        cfg, splits = tiny_splits()
        cfg_t = tiny_train_cfg("adaptive_alpha_uniform", epochs=3)
        result = train(cfg, cfg_t, splits, tmp_path / "run")

        model = MLPClassifier(cfg.input_dim, cfg.hidden, cfg.n_classes)
        params = model.init_params(cfg_t.seed)
        batch_rng = np.random.default_rng(np.random.SeedSequence([cfg_t.seed, 1]))
        x, y = splits.train.inputs, splits.train.targets
        velocity = np.zeros_like(params)
        step = 0
        expected = []
        for epoch in range(1, cfg_t.epochs + 1):
            losses, norms, alphas = [], [], []
            for idx in batch_indices(len(x), cfg_t.batch_size, batch_rng):
                stats = forward_backward(model, params, x[idx], y[idx],
                                         epoch_loss(cfg_t, epoch, cfg.n_classes, None, y))
                step += 1
                warm = cfg_t.warmup_steps
                lr = cfg_t.learning_rate * min((step / warm) ** 2, math.sqrt(warm / step))
                velocity *= cfg_t.momentum
                velocity -= lr * stats.grad
                params = params + velocity
                losses.append(stats.loss)
                g64 = stats.grad.astype(np.float64)
                norms.append(math.sqrt(g64.dot(g64)))
                alphas.append(stats.alphas)
            alphas = np.concatenate(alphas)
            expected.append(EpochDiagnostics(
                epoch=epoch, loss_mode=cfg_t.method, teacher_epoch=None,
                mean_alpha=float(alphas.mean()), alpha_std=float(alphas.std()),
                mean_grad_norm=float(np.mean(norms)), train_loss=float(np.mean(losses)),
                val_score=accuracy_score(model.forward(params, splits.val.inputs)[0].argmax(-1),
                                         splits.val.targets)))

        assert result.params.tobytes() == params.tobytes()
        assert result.diagnostics == expected

    def test_learning_rate_schedule_shape(self):
        warm = [learning_rate_at(s, 1.0, 100) for s in range(1, 101)]
        assert all(b >= a for a, b in zip(warm, warm[1:]))
        assert warm[-1] == pytest.approx(1.0)
        decay = [learning_rate_at(s, 1.0, 100) for s in range(100, 1000, 50)]
        assert all(b <= a for a, b in zip(decay, decay[1:]))

    def test_diagnostics_csv(self, tmp_path):
        cfg, splits = tiny_splits()
        r = train(cfg, tiny_train_cfg("adaptive_skd", epochs=3), splits, tmp_path / "run")
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(r.diagnostics, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == ("epoch,loss_mode,teacher_epoch,mean_alpha,alpha_std,"
                            "mean_grad_norm,train_loss,val_score")
        assert lines[1].split(",")[2] == ""  # no teacher at epoch 1

    def test_checkpoints_stored_every_epoch(self, tmp_path):
        cfg, splits = tiny_splits()
        r = train(cfg, tiny_train_cfg("base_ce", epochs=5), splits, tmp_path / "run")
        assert r.registry.epochs() == [1, 2, 3, 4, 5]


class TestTrainState:
    @pytest.mark.parametrize("task", ["classification", "seq_transduction"])
    def test_a_copied_state_continues_as_train_does(self, tmp_path, task):
        cfg, splits = tiny_splits(task=task)
        cfg_t = tiny_train_cfg("adaptive_skd", epochs=4,
                               g_kind="accuracy" if task == "classification" else "mini_bleu")
        expected = train(cfg, cfg_t, splits, tmp_path / "train")

        state = TrainState.start(cfg, cfg_t, tmp_path / "stepped")
        assert state.epoch == 0
        state.advance(cfg_t, splits)
        state.advance(cfg_t, splits)
        original, state = state, copy.deepcopy(state)
        # scribble on the original: the copy must own every piece of loop state
        original.velocity[:] = 1.0
        original.batch_rng.random(7)
        original.diagnostics.clear()
        assert state.epoch == 2
        while state.epoch < cfg_t.epochs:
            state.advance(cfg_t, splits)
        assert state.params.tobytes() == expected.params.tobytes()
        assert state.diagnostics == expected.diagnostics

    def test_start_refuses_a_used_registry(self, tmp_path):
        cfg, splits = tiny_splits()
        cfg_t = tiny_train_cfg("base_ce", epochs=2)
        train(cfg, cfg_t, splits, tmp_path / "run")
        before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
        with pytest.raises(FileExistsError, match=r"run.*\[1, 2\]"):
            train(cfg, cfg_t, splits, tmp_path / "run")
        assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before

    def test_mini_bleu_on_classification_is_refused_before_training(self, tmp_path,
                                                                    monkeypatch):
        batches = []
        monkeypatch.setattr(trainer, "forward_backward", lambda *a, **k: batches.append(a))
        cfg, splits = tiny_splits()
        run = tmp_path / "run"
        with pytest.raises(ValueError, match="mini_bleu requires a sequence task"):
            train(cfg, tiny_train_cfg("base_ce", g_kind="mini_bleu"), splits, run)
        assert batches == [] and not run.exists()  # no epoch trained, no checkpoint written


class TestEvaluate:
    def test_uniform_predictor_confidence(self):
        cfg, splits = tiny_splits()
        model = MLPClassifier(cfg.input_dim, cfg.hidden, cfg.n_classes)
        params = np.zeros(model.n_params, dtype=np.float32)
        result = evaluate(model, params, splits.test)
        np.testing.assert_allclose(result.confidences, 0.25, atol=1e-12)

    def test_bleu_only_on_a_split_with_a_mask(self):
        for task in ("classification", "seq_transduction"):
            cfg, splits = tiny_splits(task=task)
            model = build_model(cfg)
            bleu = evaluate(model, model.init_params(0), splits.test).mini_bleu
            assert (bleu is None) == (task == "classification")
            assert bleu is None or 0.0 <= bleu <= 1.0

    def test_pairs_feed_calibration(self, tmp_path):
        from alskd.calibration import calibration_report

        cfg, splits = tiny_splits()
        r = train(cfg, tiny_train_cfg("base_ce", epochs=2), splits, tmp_path / "run")
        result = evaluate(r.model, r.params, splits.test)
        report = calibration_report(result.pairs, n_bins=10)
        assert sum(b.count for b in report.bins) == len(splits.test)
        assert 0.0 <= report.ece <= report.mce <= 1.0
