import numpy as np
import pytest

import nextsession.tensor as T
from nextsession.model import NextSessionModel
from nextsession.objective import LossConfig, TrainingTargets, total_loss
from nextsession.session_encoder import IseConfig
from nextsession.sequence_encoder import SseConfig
from nextsession.trainer import TrainConfig

from helpers import graph_size, ragged


def make_model(num_items=20, dim=8, ise_kind="mean", backbone="causal_attention",
               layers=2, seed=0, dropout=0.0, max_positions=16):
    cfg = TrainConfig(
        dim=dim,
        dropout=dropout,
        ise=IseConfig(kind=ise_kind),
        sse=SseConfig(backbone=backbone, layers=layers, heads=2, max_positions=max_positions),
    )
    return NextSessionModel(cfg, num_items, T.Parameters(np.random.default_rng(seed)))


class TestForward:
    def test_output_one_row_per_session(self):
        model = make_model()
        out = model.forward_sessions(ragged([[1, 2, 3], [4], [5, 6]]))
        assert out.shape == (3, 8)

    def test_user_vector_is_last_row(self):
        model = make_model(seed=3)
        view = ragged([[1, 2], [3]])
        full = model.forward_sessions(view).data
        np.testing.assert_array_equal(model.user_vector(view).data, full[-1])

    def test_packed_user_vector_is_each_users_last_row(self):
        model = make_model(seed=3)
        view = ragged([[1, 2], [3], [4], [5, 6], [7]])
        full = model.forward_sessions(view, sessions_per_user=[2, 3]).data
        np.testing.assert_array_equal(model.user_vector(view, [2, 3]).data, full[[1, 4]])

    @pytest.mark.parametrize("counts", [[1], [2, 2], [0, 3]])
    def test_user_counts_not_summing_to_the_sessions_rejected(self, counts):
        with pytest.raises(ValueError, match="sum to the 3 tokens"):
            make_model().user_vector(ragged([[1, 2], [3], [4]]), counts)

    def test_empty_input_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="at least one session"):
            model.forward_sessions(ragged([]))
        with pytest.raises(ValueError, match="non-empty"):
            model.forward_sessions(ragged([[1], []]))

    @pytest.mark.parametrize("ids, lengths, message", [
        ([1, 2, 3], [1, 1], "lengths sum to 2 but got 3"),
        ([1, 2, 3], [4], "lengths sum to 4 but got 3"),
        ([[1, 2], [3, 4]], [2, 2], "one-dimensional"),
        ([1, 2], [[1, 1]], "at least one session"),
    ])
    def test_malformed_view_is_one_value_error(self, ids, lengths, message):
        model = make_model(ise_kind="recurrent")
        view = (np.array(ids, dtype=np.int64), np.array(lengths, dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            model.forward_sessions(view)

    def test_parameters_cover_all_submodules(self):
        model = make_model(ise_kind="recurrent")
        names = set(model.parameters())
        assert any(n.startswith("emb.") for n in names)
        assert any(n.startswith("ise.") for n in names)
        assert any(n.startswith("sse.") for n in names)


class TestGraphSize:
    @pytest.mark.parametrize("ise_kind", ["mean", "recurrent"])
    def test_recurrent_loss_graph_does_not_grow_with_history(self, ise_kind):
        model = make_model(ise_kind=ise_kind, backbone="recurrent", dropout=0.2,
                           max_positions=64)
        rng = np.random.default_rng(4)
        sizes = []
        for m in (3, 60):
            sessions = [list(rng.integers(0, 20, size=rng.integers(1, 5))) for _ in range(m)]
            outputs = model.forward_sessions(ragged(sessions), training=True, dropout_rng=rng)
            targets = TrainingTargets(
                ragged([rng.integers(0, 20, size=2) for _ in range(m)]),
                ragged([rng.integers(0, 20, size=3) for _ in range(m)]),
                np.array([rng.integers(0, 20, size=4) for _ in range(m)]),
            )
            loss = total_loss(outputs, targets, model.embedding, LossConfig())
            sizes.append(graph_size(loss.total))
        assert sizes[0] == sizes[1], sizes


class TestItemLevelDegeneracy:
    """With singleton sessions and mean aggregation the session stage is a
    no-op, so the model must match an item-level pipeline bitwise."""

    @pytest.mark.parametrize("backbone", ["causal_attention", "recurrent"])
    def test_bitwise_equal_to_bypassing_session_stage(self, backbone):
        model = make_model(ise_kind="mean", backbone=backbone, seed=11)
        items = [3, 7, 1, 12, 5]
        full = model.forward_sessions(ragged([[it] for it in items])).data

        with T.no_grad():
            vecs = model.embedding.embed_items(np.asarray(items))
            bypass = model.sequence_encoder.encode(vecs).data
        np.testing.assert_array_equal(full, bypass)

    def test_degeneracy_breaks_with_longer_sessions(self):
        model = make_model(ise_kind="mean", seed=11)
        out_sess = model.forward_sessions(ragged([[3, 7], [1]])).data
        with T.no_grad():
            vecs = model.embedding.embed_items(np.asarray([3, 7, 1]))
            out_items = model.sequence_encoder.encode(vecs).data
        assert out_sess.shape != out_items.shape
