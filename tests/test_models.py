from pathlib import Path

import numpy as np
import pytest
from conftest import central_difference, rel_error
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alskd import trainer
from alskd.cli import RunDir, run_training
from alskd.config import ModelConfig, load_config
from alskd.losses import mixture_loss_rows
from alskd.models import MLPClassifier, RecurrentTransducer, build_model
from alskd.probs import floored_log, softmax_rows


def batch_ce_rows(model, params, inputs, targets, mask=None):
    """Cross-entropy kernel output over the non-pad positions, plus the forward."""
    logits, cache = model.forward(params, inputs)
    flat = logits.reshape(-1, logits.shape[-1])
    y = np.asarray(targets).reshape(-1)
    keep = np.ones(y.shape, bool) if mask is None else np.asarray(mask).reshape(-1)
    probs = softmax_rows(flat[keep])
    rows = mixture_loss_rows(probs, floored_log(probs), y[keep], np.zeros(logits.shape[-1]), 0.0)
    return rows, logits, cache, keep


def batch_ce(model, params, inputs, targets, mask=None):
    """Mean cross entropy over non-pad positions; loss value only."""
    return batch_ce_rows(model, params, inputs, targets, mask)[0][2].mean()


def batch_ce_grad(model, params, inputs, targets, mask=None):
    (_, _, _, grad_rows), logits, cache, keep = batch_ce_rows(model, params, inputs, targets, mask)
    dlogits = np.zeros((keep.size, logits.shape[-1]))
    dlogits[keep] = grad_rows / keep.sum()
    return model.backward(params, cache, dlogits.reshape(logits.shape))


class LoopTransducer(RecurrentTransducer):
    """The RNN as first written, one time step per loop iteration: the oracle
    for the stacked production code, which must match it bit for bit."""

    def forward(self, params, tokens):
        v = self.views(params)
        tok = np.asarray(tokens, dtype=np.int64)
        n, t_max = tok.shape
        emb = v["emb"][tok]  # (n, T, embed)
        hs = np.zeros((n, t_max, self.hidden), dtype=params.dtype)
        h = np.zeros((n, self.hidden), dtype=params.dtype)
        for t in range(t_max):
            h = np.tanh(emb[:, t] @ v["wx"].T + h @ v["wh"].T + v["bh"])
            hs[:, t] = h
        logits = hs @ v["wo"].T + v["bo"]
        return logits.astype(np.float64), (tok, emb, hs)

    def backward(self, params, cache, dlogits):
        tok, emb, hs = cache
        v = self.views(params)
        n, t_max, _ = hs.shape
        dl = np.asarray(dlogits, dtype=np.float64)
        hs64 = hs.astype(np.float64)
        wo = v["wo"].astype(np.float64)
        wh = v["wh"].astype(np.float64)
        wx = v["wx"].astype(np.float64)

        grad = np.zeros(self.n_params, dtype=np.float64)
        g = self.views(grad)
        g["wo"][:] = np.einsum("ntc,nth->ch", dl, hs64)
        g["bo"][:] = dl.sum(axis=(0, 1))

        dh_next = np.zeros((n, self.hidden), dtype=np.float64)
        demb = np.zeros((n, t_max, self.embed), dtype=np.float64)
        for t in range(t_max - 1, -1, -1):
            dh = dl[:, t] @ wo + dh_next
            dz = dh * (1.0 - hs64[:, t] * hs64[:, t])
            g["wx"] += dz.T @ emb[:, t].astype(np.float64)
            h_prev = hs64[:, t - 1] if t > 0 else np.zeros((n, self.hidden))
            g["wh"] += dz.T @ h_prev
            g["bh"] += dz.sum(axis=0)
            demb[:, t] = dz @ wx
            dh_next = dz @ wh
        np.add.at(g["emb"], tok, demb)
        return grad.astype(params.dtype)


def assert_same_bits(actual, expected):
    """Equal dtype, shape and bytes: signed zeros and NaN payloads count."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def reference_layout(model):
    """(name, offset, shape) of each parameter, walking the shape list in order."""
    layout = []
    offset = 0
    for name, shape in model.param_shapes:
        layout.append((name, offset, shape))
        offset += int(np.prod(shape))
    return layout, offset


LAYOUT_MODELS = [MLPClassifier(4, 3, 5), RecurrentTransducer(vocab=6, embed=4, hidden=5)]


class TestFlatParams:
    @pytest.mark.parametrize("model", LAYOUT_MODELS, ids=lambda m: type(m).__name__)
    def test_views_match_reference_layout(self, model):
        layout, n_params = reference_layout(model)
        assert model.n_params == n_params
        flat = np.arange(n_params, dtype=np.float32)
        views = model.views(flat)
        assert list(views) == [name for name, _, _ in layout]
        for name, offset, shape in layout:
            # flat holds its own indices, so each view shows where it starts
            expected = np.arange(offset, offset + int(np.prod(shape))).reshape(shape)
            np.testing.assert_array_equal(views[name], expected)
            assert np.shares_memory(views[name], flat)

    def test_views_cover_all_parameters(self):
        model = MLPClassifier(4, 3, 5)
        flat = np.arange(model.n_params, dtype=np.float32)
        views = model.views(flat)
        assert sum(v.size for v in views.values()) == model.n_params
        views["w1"][0, 0] = -99.0
        assert flat[0] == -99.0  # views alias the flat array

    def test_init_is_deterministic(self):
        model = MLPClassifier(4, 3, 5)
        np.testing.assert_array_equal(model.init_params(7), model.init_params(7))
        assert model.init_params(7).dtype == np.float32

    def test_biases_start_at_zero_and_readout_small(self):
        model = MLPClassifier(8, 16, 10)
        views = model.views(model.init_params(0))
        assert not views["b1"].any()
        assert not views["b2"].any()
        assert np.abs(views["w2"]).max() < np.abs(views["w1"]).max()

    def test_wrong_size_rejected(self):
        model = MLPClassifier(4, 3, 5)
        with pytest.raises(ValueError):
            model.views(np.zeros(3, dtype=np.float32))

    def test_build_model_dispatch(self):
        assert isinstance(build_model(ModelConfig("classification", n_classes=5, input_dim=4,
                                                  hidden=3)), MLPClassifier)
        assert isinstance(build_model(ModelConfig("seq_transduction", vocab=6, embed=4,
                                                  hidden=5)), RecurrentTransducer)


class TestMLPGradients:
    def test_whole_model_finite_difference(self, rng):
        model = MLPClassifier(input_dim=3, hidden=4, n_classes=3)
        params = model.init_params(0, dtype=np.float64)
        x = rng.normal(size=(2, 3))
        y = np.array([0, 2])
        analytic = batch_ce_grad(model, params, x, y)
        fd = central_difference(lambda p: batch_ce(model, p, x, y), params, step=1e-6)
        assert rel_error(analytic, fd) < 1e-6

    def test_float32_production_path(self, rng):
        model = MLPClassifier(input_dim=3, hidden=4, n_classes=3)
        params = model.init_params(0)
        grad = batch_ce_grad(model, params, rng.normal(size=(5, 3)), np.zeros(5, int))
        assert grad.dtype == np.float32
        assert np.all(np.isfinite(grad))


class TestRecurrentGradients:
    def test_whole_model_finite_difference(self, rng):
        model = RecurrentTransducer(vocab=5, embed=3, hidden=4)
        params = model.init_params(1, dtype=np.float64)
        tokens = rng.integers(1, 5, size=(2, 4))
        targets = rng.integers(1, 5, size=(2, 4))
        analytic = batch_ce_grad(model, params, tokens, targets)
        fd = central_difference(lambda p: batch_ce(model, p, tokens, targets), params, step=1e-6)
        assert rel_error(analytic, fd) < 1e-4

    def test_masked_finite_difference(self, rng):
        model = RecurrentTransducer(vocab=5, embed=3, hidden=4)
        params = model.init_params(2, dtype=np.float64)
        tokens = np.array([[1, 2, 3, 0], [4, 1, 0, 0]])
        targets = np.array([[2, 3, 4, 0], [1, 2, 0, 0]])
        mask = np.array([[True, True, True, False], [True, True, False, False]])
        analytic = batch_ce_grad(model, params, tokens, targets, mask)
        fd = central_difference(
            lambda p: batch_ce(model, p, tokens, targets, mask), params, step=1e-6)
        assert rel_error(analytic, fd) < 1e-4

    def test_trailing_pads_do_not_influence_anything(self, rng):
        # right-padding means no real position ever depends on a pad slot
        model = RecurrentTransducer(vocab=6, embed=3, hidden=4)
        params = model.init_params(3)
        tokens = np.array([[1, 2, 3, 0, 0]])
        altered = np.array([[1, 2, 3, 5, 5]])  # junk in the padded tail
        targets = np.array([[2, 3, 4, 0, 0]])
        mask = np.array([[True, True, True, False, False]])
        logits_a, _ = model.forward(params, tokens)
        logits_b, _ = model.forward(params, altered)
        np.testing.assert_array_equal(logits_a[0, :3], logits_b[0, :3])
        np.testing.assert_array_equal(
            batch_ce_grad(model, params, tokens, targets, mask),
            batch_ce_grad(model, params, altered, targets, mask))


def rnn_batch(sizes, dtype, n, t_max, seed, shorter=False, saturated=False):
    """A model, perturbed parameters, a padded token batch and its masked logit
    gradients. With ``shorter``, every sequence ends before ``t_max``, so the
    trailing gradient columns are all zero. With ``saturated``, a large bias
    drives every tanh to exactly 1, so every pre-activation gradient is a
    signed zero."""
    vocab, embed, hidden = sizes
    rng = np.random.default_rng(seed)
    model = RecurrentTransducer(vocab=vocab, embed=embed, hidden=hidden)
    params = model.init_params(seed % 1000, np.float64) + rng.normal(0.0, 0.3, model.n_params)
    model.views(params)["bh"][:] += 40.0 * saturated
    params = params.astype(dtype)
    # a few distinct tokens, so each embedding row collects many terms
    tokens = rng.integers(0, min(vocab, 3), size=(n, t_max))
    lengths = rng.integers(1, max(t_max - shorter, 1) + 1, size=n)
    mask = np.arange(t_max) < lengths[:, np.newaxis]
    dlogits = np.where(mask[..., np.newaxis], rng.normal(size=(n, t_max, vocab)), 0.0)
    return model, params, tokens, dlogits


DESK_SIZES = (12, 8, 32)  # configs/sequence.ini: vocab, embed, hidden


class TestStackedRecurrence:
    """Production ``forward``/``backward`` against the per-step oracle."""

    @settings(max_examples=150, deadline=None, print_blob=True)
    @given(st.builds(rnn_batch,
                     st.sampled_from([DESK_SIZES, (12, 8, 16), (7, 4, 6), (3, 2, 5)]),
                     st.sampled_from([np.float32, np.float64]),
                     st.integers(1, 40), st.integers(1, 14),
                     st.integers(0, 2**32 - 1), st.booleans(), st.booleans()))
    @example(rnn_batch(DESK_SIZES, np.float32, 32, 9, 0))
    @example(rnn_batch(DESK_SIZES, np.float32, 24, 9, 1, shorter=True))
    @example(rnn_batch(DESK_SIZES, np.float64, 32, 14, 2, shorter=True))
    @example(rnn_batch(DESK_SIZES, np.float32, 1, 1, 3, saturated=True))
    @example(rnn_batch(DESK_SIZES, np.float64, 24, 9, 5, saturated=True))
    @example(rnn_batch(DESK_SIZES, np.float64, 3, 0, 4))  # no steps at all
    def test_bit_identical_to_the_loop(self, batch):
        model, params, tokens, dlogits = batch
        oracle = LoopTransducer(model.vocab, model.embed, model.hidden)
        logits, cache = model.forward(params, tokens)
        want_logits, want_cache = oracle.forward(params, tokens)
        assert_same_bits(logits, want_logits)
        for part, want in zip(cache, want_cache):
            assert_same_bits(part, want)
        assert_same_bits(model.backward(params, cache, dlogits),
                         oracle.backward(params, want_cache, dlogits))


def rnn_stacked_operands(n, seed):
    """(a, b) of each stacked product that ``RecurrentTransducer.forward`` and
    ``.backward`` make, built as they build them: same dtypes, same views."""
    vocab, embed, hidden = DESK_SIZES
    model = RecurrentTransducer(vocab, embed, hidden)
    rng = np.random.default_rng(seed)
    params = (model.init_params(seed) + rng.normal(0.0, 0.3, model.n_params)).astype(np.float32)
    v = model.views(params)
    tokens = rng.integers(0, vocab, size=(n, 9))  # configs/sequence.ini: max_len = 9
    _, (_, emb, hs) = model.forward(params, tokens)
    dl = rng.normal(size=(n, 9, vocab))
    dl_t, wo = np.moveaxis(dl[:, ::-1], 1, 0), v["wo"].astype(np.float64)
    dzs = dl_t @ wo
    dz_t = dzs.transpose(0, 2, 1)
    return {
        "forward xw": (np.moveaxis(emb, 1, 0), v["wx"].T),
        "forward logits": (hs, v["wo"].T),
        "backward dzs": (dl_t, wo),
        "backward wx": (dz_t, np.moveaxis(emb[:, ::-1], 1, 0).astype(np.float64)),
        "backward wh": (dz_t[:-1], np.moveaxis(hs.astype(np.float64)[:, -2::-1], 1, 0)),
        "backward emb": (dzs, v["wx"].astype(np.float64)),
    }


def lockstep_operands(n, seed):
    """A (9, 64, 16) @ (9, 16, 64) stack: nine MLP first layers trained in lockstep."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=(9, 64, 16)).astype(np.float32)
    return {"lockstep": (rng.normal(size=(9, n, 16)).astype(np.float32), w1.transpose(0, 2, 1))}


# sequence.ini batches of 32 and the last of 24 (600 = 18 * 32 + 24), and its 200-row splits
@pytest.mark.parametrize("operands, n", [(rnn_stacked_operands, 32), (rnn_stacked_operands, 24),
                                         (rnn_stacked_operands, 200), (lockstep_operands, 64)])
def test_a_stacked_matmul_is_one_gemm_per_item(operands, n):
    """The BLAS promise behind the stacked RNN: ``a @ b`` over a leading stack
    axis equals, byte for byte, the stack of the per-item products."""
    for seed in range(20):
        for name, (a, b) in operands(n, seed).items():
            stacked = a @ b
            per_item = np.stack([a[i] @ (b if b.ndim == 2 else b[i]) for i in range(len(a))])
            assert (stacked.dtype, stacked.shape) == (per_item.dtype, per_item.shape)
            assert stacked.tobytes() == per_item.tobytes(), f"{name}, draw {seed}"


def test_sequence_run_is_byte_identical_to_the_loop(tmp_path, monkeypatch):
    """Three desk-scale adaptive_skd epochs: every checkpoint, the registry
    index, the diagnostics and the calibration table match the per-step
    oracle's byte for byte. Both sides run on the same BLAS, so this holds on
    any machine, unlike the recorded benchmark fingerprints."""
    cfg = load_config(Path(__file__).parents[1] / "configs" / "sequence.ini",
                      ["training.epochs=3"])
    run_training(cfg, RunDir(tmp_path / "stacked"))
    monkeypatch.setattr(trainer, "build_model", lambda model_cfg:
                        LoopTransducer(model_cfg.vocab, model_cfg.embed, model_cfg.hidden))
    run_training(cfg, RunDir(tmp_path / "loop"))
    files = sorted(p.relative_to(tmp_path / "loop") for p in (tmp_path / "loop").rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    assert len([f for f in files if f.suffix == ".ckpt"]) == 3
    for rel in files:
        assert (tmp_path / "stacked" / rel).read_bytes() == (tmp_path / "loop" / rel).read_bytes()
