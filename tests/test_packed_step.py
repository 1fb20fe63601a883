"""Many users as one graph: the packed training step against the
per-user reference, its gradients against finite differences, and the size
of its graph; packed ranking against the per-user ranking loop."""

import numpy as np
import pytest

import nextsession.tensor as T
from nextsession.data import DatasetSplit, UserSplit, encoder_views
from nextsession.evaluator import RANK_USERS, SCORE_USERS, evaluate, ranked
from nextsession.model import NextSessionModel
from nextsession.objective import LossConfig, build_targets, total_loss, user_targets
from nextsession.sequence_encoder import BACKBONES, SseConfig
from nextsession.session_encoder import KINDS, IseConfig
from nextsession.trainer import TrainConfig

from helpers import (assert_grad_close, finite_difference, graph_size, history, loop_report,
                     per_user_ranked, per_user_step)

CATALOG = 15


def float64_model(ise, backbone, max_positions=16, seed=0, dim=4):
    cfg = TrainConfig(dim=dim, dropout=0.0, ise=IseConfig(kind=ise, layers=1, heads=2),
                      sse=SseConfig(backbone=backbone, layers=2, heads=2,
                                    max_positions=max_positions))
    model = NextSessionModel(cfg, CATALOG, T.Parameters(np.random.default_rng(seed)))
    for p in model.parameters().values():
        p.data = p.data.astype(np.float64)
    return model


def ragged_users(seed, count, max_sessions=7):
    """Users of 2..max_sessions sessions, each session 1-4 positives and
    0-3 exposures, so some positions have no in-session negatives."""
    rng = np.random.default_rng(seed)
    users = []
    for _ in range(count):
        rows = []
        for _ in range(int(rng.integers(2, max_sessions + 1))):
            pos = rng.choice(CATALOG, size=int(rng.integers(1, 5)), replace=False)
            neg = rng.choice(CATALOG, size=int(rng.integers(0, 4)), replace=False)
            rows.append((list(pos) + list(neg), [True] * len(pos) + [False] * len(neg)))
        users.append(history(*rows))
    return users


def packed_step(model, users, loss_cfg, rng):
    """The training step of ``train()``: one graph over all of ``users``."""
    view, per_user, targets = build_targets(user_targets(users), CATALOG, loss_cfg.num_sampled_negatives, rng)
    out = model.forward_sessions(view, training=True, dropout_rng=np.random.default_rng(1),
                                 sessions_per_user=per_user)
    losses = total_loss(out, targets, model.embedding, loss_cfg)
    return losses


def grads(model):
    return {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for n, p in model.parameters().items()}


def zero_grads(model):
    for p in model.parameters().values():
        p.grad = None


class TestMatchesThePerUserStep:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("ise", KINDS)
    def test_loss_and_every_gradient_in_float64(self, ise, backbone):
        # the batch packs more tokens than max_positions=8; the reference
        # packs no two users
        model = float64_model(ise, backbone, max_positions=8)
        users = ragged_users(seed=1280 + KINDS.index(ise), count=6)
        loss_cfg = LossConfig(alpha=0.7, num_sampled_negatives=5)
        targets = build_targets(user_targets(users), CATALOG, 5, np.random.default_rng(0))[2]
        assert (targets.in_session_negatives[1] == 0).any()

        want = per_user_step(model, users, CATALOG, loss_cfg, np.random.default_rng(0))
        want_grads = grads(model)
        zero_grads(model)
        losses = packed_step(model, users, loss_cfg, np.random.default_rng(0))
        losses.total.backward()

        got = [losses.total.item(), losses.retrieval.item(), losses.rank.item(),
               losses.retrieval_count, losses.rank_count]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        for name, g in grads(model).items():
            assert g.dtype == np.float64, name
            np.testing.assert_allclose(g, want_grads[name], rtol=1e-12, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_outputs_past_the_attention_budget_equal_the_per_user_outputs(self, backbone):
        # five users of 2..7 input sessions, more tokens than max_positions=8
        model = float64_model("attention", backbone, max_positions=8, seed=2)
        users = ragged_users(seed=5, count=5, max_sessions=8)
        view, per_user, _ = build_targets(user_targets(users), CATALOG, 1, np.random.default_rng(0))
        assert per_user.sum() > 8 and per_user.max() <= 8
        with T.no_grad():
            got = model.forward_sessions(view, sessions_per_user=per_user).data
            want = np.concatenate([model.forward_sessions(encoder_views(u[:-1])).data
                                   for u in users])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestGradientOfAPackedBatch:
    @pytest.mark.parametrize("ise, backbone", [("attention", "causal_attention"),
                                               ("recurrent", "recurrent")])
    def test_matches_finite_differences_in_float64(self, ise, backbone):
        model = float64_model(ise, backbone, max_positions=8, seed=1, dim=4)
        for name, p in model.parameters().items():
            if name.startswith("emb."):
                # at the initial scale item vectors are so small that the
                # ISE's layer norms bend sharply within a central difference
                p.data = p.data * 20.0
        users = ragged_users(seed=21, count=4, max_sessions=5)
        loss_cfg = LossConfig(alpha=0.5, num_sampled_negatives=3)
        view, per_user, targets = build_targets(user_targets(users), CATALOG, 3, np.random.default_rng(4))
        params = list(model.parameters().values())
        total_loss(model.forward_sessions(view, sessions_per_user=per_user), targets,
                   model.embedding, loss_cfg).total.backward()
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]

        def make_loss(arrays):
            for p, a in zip(params, arrays):
                p.data = a
            with T.no_grad():
                out = model.forward_sessions(view, sessions_per_user=per_user)
                return total_loss(out, targets, model.embedding, loss_cfg).total.item()

        numeric = finite_difference(make_loss, [p.data for p in params], eps=1e-6)
        for ana, num in zip(analytic, numeric):
            assert_grad_close(ana, num, tol=1e-5)


class TestGraphSize:
    def nodes(self, model, users):
        loss_cfg = LossConfig(alpha=0.5, num_sampled_negatives=3)
        return graph_size(packed_step(model, users, loss_cfg, np.random.default_rng(0)).total)

    @pytest.mark.parametrize("ise", ["mean", "recurrent"])
    def test_recurrent_batch_of_2_and_of_16_users_record_the_same_nodes(self, ise):
        model = float64_model(ise, "recurrent")
        users = ragged_users(seed=3, count=16)
        assert self.nodes(model, users[:2]) == self.nodes(model, users)

    def test_attention_nodes_do_not_grow_with_users_inside_one_group(self):
        model = float64_model("mean", "causal_attention", max_positions=128)
        users = ragged_users(seed=4, count=16)
        assert self.nodes(model, users[:2]) == self.nodes(model, users)

    def test_attention_nodes_do_not_grow_with_users_past_max_positions(self):
        model = float64_model("mean", "causal_attention", max_positions=8)
        users = ragged_users(seed=4, count=16)
        assert self.nodes(model, users[:2]) == self.nodes(model, users)

    def test_a_graph_shaped_like_the_small_catalog_benchmark_records_16_ops(self):
        # two users of 10 sessions, a mean ISE and two causal attention
        # blocks of dim 32: each block is one node
        cfg = TrainConfig(dim=32, dropout=0.0, ise=IseConfig(kind="mean"),
                          sse=SseConfig(backbone="causal_attention", layers=2, heads=2))
        model = NextSessionModel(cfg, 500, T.Parameters(np.random.default_rng(0)))
        rng = np.random.default_rng(1)
        users = [history(*[(list(rng.choice(500, 3, replace=False)), [True] * 3)
                           for _ in range(10)]) for _ in range(2)]
        view, per_user, targets = build_targets(user_targets(users), 500, 128, rng)
        out = model.forward_sessions(view, training=True, dropout_rng=rng,
                                     sessions_per_user=per_user)
        root = total_loss(out, targets, model.embedding, cfg.loss).total
        seen, stack, ops = {id(root)}, [root], 0
        while stack:
            node = stack.pop()
            ops += bool(node._parents)
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        assert ops == 16


def ragged_views(seed, count, max_positions):
    """``(ids, lengths)`` views of 1..max_positions sessions of 1-4 items;
    the first user has exactly max_positions sessions."""
    rng = np.random.default_rng(seed)
    views = []
    for u in range(count):
        m = max_positions if u == 0 else int(rng.integers(1, max_positions + 1))
        lengths = rng.integers(1, 5, size=m)
        views.append((rng.integers(0, CATALOG, size=int(lengths.sum())), lengths))
    return views


# user counts at and around the chunk and block boundaries of ``ranked``
BOUNDARY_USERS = [0, 1, RANK_USERS, SCORE_USERS - 1, SCORE_USERS, SCORE_USERS + RANK_USERS + 1]


class TestRankedMatchesThePerUserLoop:
    @pytest.mark.parametrize("n", BOUNDARY_USERS)
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("ise", KINDS)
    def test_top_k_in_float32_and_user_vectors_in_float64(self, ise, backbone, n):
        self.check(ise, backbone, ragged_views(seed=1400 + n, count=n, max_positions=8),
                   RANK_USERS)

    @pytest.mark.parametrize("n", BOUNDARY_USERS)
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("ise", KINDS)
    def test_validation_blocks_encoded_by_one_call_on_histories_of_equal_length(
        self, ise, backbone, n
    ):
        # every view holds 6 sessions of 1-4 items
        rng = np.random.default_rng(1450 + n)
        views = []
        for _ in range(n):
            lengths = rng.integers(1, 5, size=6)
            views.append((rng.integers(0, CATALOG, size=int(lengths.sum())), lengths))
        self.check(ise, backbone, views, SCORE_USERS)

    def check(self, ise, backbone, views, encode_users):
        """``ranked`` at ``encode_users`` users per call against the per-user
        loop: the same float32 top-k, and float64 vectors within 1e-12."""
        n = len(views)
        model32 = float64_model(ise, backbone, max_positions=8, seed=7)
        model64 = float64_model(ise, backbone, max_positions=8, seed=7)
        for p in model32.parameters().values():
            p.data = p.data.astype(np.float32)

        want, _ = per_user_ranked(model32, views, 10)
        got = {i: row for index, ids in ranked(model32, views, 10, encode_users)
               for i, row in zip(index.tolist(), ids)}
        assert sorted(got) == list(range(n))
        for i, ids in enumerate(want):
            np.testing.assert_array_equal(got[i], ids)

        _, want_vecs = per_user_ranked(model64, views, 10)
        seen, packed_vector = [], model64.user_vector

        def recorded(view, sessions_per_user):
            out = packed_vector(view, sessions_per_user)
            seen.extend(out.data)
            return out

        model64.user_vector = recorded
        # the order of packing
        order = [i for index, _ in ranked(model64, views, 10, encode_users)
                 for i in index.tolist()]
        assert len(seen) == n
        for i, vec in zip(order, seen):
            assert vec.dtype == np.float64
            np.testing.assert_allclose(vec, want_vecs[i], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", BOUNDARY_USERS)
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_evaluate_report_equals_the_per_user_loop_byte_for_byte(self, backbone, n):
        rng = np.random.default_rng(1500)
        model = float64_model("mean", backbone, max_positions=8, seed=7)
        for p in model.parameters().values():
            p.data = p.data.astype(np.float32)
        users = [UserSplit(f"u{u}", sessions, [int(t) for t in rng.choice(CATALOG, 3, False)])
                 for u, sessions in enumerate(ragged_users(1501, n, 8))]
        split = DatasetSplit("session", users, CATALOG, {})
        if not users:
            with pytest.raises(ValueError, match="no evaluable users"):
                evaluate(model, split)
            return
        cutoffs = (1, 5, 10)
        tops, _ = per_user_ranked(model, [encoder_views(u.train_sessions) for u in users],
                                  max(cutoffs))
        want = loop_report(split, tops, cutoffs)
        assert evaluate(model, split, cutoffs=cutoffs).to_json() == want.to_json()
