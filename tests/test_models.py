import numpy as np
import pytest
from conftest import central_difference, rel_error

from alskd.losses import mixture_loss_rows
from alskd.models import MLPClassifier, RecurrentTransducer, build_model
from alskd.probs import softmax_rows


def batch_ce(model, params, inputs, targets, mask=None):
    """Mean cross entropy over non-pad positions; loss value only."""
    logits, _ = model.forward(params, inputs)
    flat = logits.reshape(-1, logits.shape[-1])
    y = np.asarray(targets).reshape(-1)
    keep = np.ones(y.shape, bool) if mask is None else np.asarray(mask).reshape(-1)
    probs = softmax_rows(flat[keep])
    _, _, totals, _ = mixture_loss_rows(probs, y[keep], np.full(logits.shape[-1], 0.0), 0.0)
    return totals.mean()


def batch_ce_grad(model, params, inputs, targets, mask=None):
    logits, cache = model.forward(params, inputs)
    flat = logits.reshape(-1, logits.shape[-1])
    y = np.asarray(targets).reshape(-1)
    keep = np.ones(y.shape, bool) if mask is None else np.asarray(mask).reshape(-1)
    probs = softmax_rows(flat[keep])
    _, _, _, grad_rows = mixture_loss_rows(probs, y[keep], np.full(logits.shape[-1], 0.0), 0.0)
    dlogits = np.zeros_like(flat)
    dlogits[keep] = grad_rows / keep.sum()
    return model.backward(params, cache, dlogits.reshape(logits.shape))


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
        assert isinstance(build_model("classification", input_dim=4, hidden=3, n_classes=5),
                          MLPClassifier)
        assert isinstance(build_model("seq_transduction", vocab=6, embed=4, hidden=5),
                          RecurrentTransducer)
        with pytest.raises(ValueError):
            build_model("autoencoder")


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
