import numpy as np
import pytest

import nextsession.tensor as T
from nextsession.attention import causal_mask
from nextsession.sequence_encoder import SequenceEncoder, SseConfig

from helpers import finite_difference


def encoder(backbone="causal_attention", dim=8, layers=2, heads=2, dropout=0.0,
            max_positions=16, seed=0):
    cfg = SseConfig(backbone=backbone, layers=layers, heads=heads,
                    dropout=dropout, max_positions=max_positions)
    return SequenceEncoder(cfg, dim, np.random.default_rng(seed))


def tokens(m, dim=8, seed=1):
    return T.Tensor(np.random.default_rng(seed).normal(size=(m, dim)).astype(np.float32))


class TestShapesAndErrors:
    @pytest.mark.parametrize("backbone", ["causal_attention", "recurrent"])
    def test_output_shape(self, backbone):
        out = encoder(backbone).encode(tokens(5))
        assert out.shape == (5, 8)

    def test_single_token(self):
        out = encoder().encode(tokens(1))
        assert out.shape == (1, 8)
        assert np.isfinite(out.data).all()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            encoder().encode(tokens(0))

    def test_too_long_sequence_names_truncation(self):
        with pytest.raises(ValueError, match="truncate"):
            encoder(max_positions=4).encode(tokens(5))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError, match="divide"):
            encoder(dim=6, heads=4)

    def test_unknown_backbone(self):
        with pytest.raises(ValueError, match="backbone"):
            encoder(backbone="conv")

    def test_bad_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            encoder(dropout=1.0)


class TestCausality:
    @pytest.mark.parametrize("backbone", ["causal_attention", "recurrent"])
    def test_future_perturbation_leaves_past_rows_unchanged(self, backbone):
        rng = np.random.default_rng(6)
        enc = encoder(backbone, seed=3)
        x = rng.normal(size=(6, 8)).astype(np.float32)
        base = enc.encode(T.Tensor(x)).data
        for trial in range(25):
            i = int(rng.integers(0, 5))
            bumped = x.copy()
            bumped[i + 1 :] += rng.normal(size=(5 - i, 8)).astype(np.float32)
            out = enc.encode(T.Tensor(bumped)).data
            np.testing.assert_array_equal(out[: i + 1], base[: i + 1])

    def test_attention_rows_normalize_over_visible_prefix(self):
        rng = np.random.default_rng(0)
        m = 7
        scores = T.Tensor(rng.normal(size=(m, m)).astype(np.float32))
        probs = T.softmax_rows(scores, causal_mask(m)).data
        for i in range(m):
            assert probs[i, i + 1 :].sum() == 0.0
            np.testing.assert_allclose(probs[i, : i + 1].sum(), 1.0, atol=1e-6)


class TestUserVector:
    def test_eval_mode_deterministic(self):
        enc = encoder(dropout=0.5, seed=2)
        x = tokens(4, seed=5)
        a = enc.encode(x, training=False).data
        b = enc.encode(x, training=False).data
        np.testing.assert_array_equal(a, b)

    def test_dropout_varies_across_seeds(self):
        enc = encoder(dropout=0.5, seed=2)
        x = tokens(4, seed=5)
        outs = [
            enc.encode(x, training=True,
                       dropout_rng=np.random.default_rng(s)).data.copy()
            for s in range(10)
        ]
        distinct = {out.tobytes() for out in outs}
        assert len(distinct) > 1

    def test_dropout_same_seed_reproduces(self):
        enc = encoder(dropout=0.3, seed=2)
        x = tokens(4, seed=5)
        a = enc.encode(x, training=True, dropout_rng=np.random.default_rng(7)).data
        b = enc.encode(x, training=True, dropout_rng=np.random.default_rng(7)).data
        np.testing.assert_array_equal(a, b)

    def test_training_without_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            encoder(dropout=0.2).encode(tokens(3), training=True)


class TestGradients:
    @pytest.mark.parametrize("backbone", ["causal_attention", "recurrent"])
    def test_all_parameters_match_finite_difference(self, backbone):
        enc = encoder(backbone, dim=8, layers=1, heads=2, max_positions=4, seed=8)
        params = enc.parameters()
        names = sorted(params)
        for p in params.values():
            p.data = p.data.astype(np.float64)
        x0 = np.random.default_rng(3).normal(size=(3, 8))
        w = np.random.default_rng(4).normal(size=(3, 8))

        loss = T.sum_all(T.mul(enc.encode(T.Tensor(x0)), T.Tensor(w)))
        loss.backward()

        def make_loss(arrays):
            for n, arr in zip(names, arrays):
                params[n].data = arr
            return float(np.sum(enc.encode(T.Tensor(x0)).data * w))

        numeric = finite_difference(make_loss, [params[n].data for n in names])
        for n, num in zip(names, numeric):
            g = params[n].grad
            if g is None:
                g = np.zeros_like(num)
            err = np.max(np.abs(g - num) / np.maximum(1.0, np.abs(num)))
            assert err < 1e-4, f"{n}: {err}"
