import numpy as np
import pytest

import nextsession.tensor as T
from nextsession.embedding import EmbeddingSpace
from nextsession.objective import (
    LossConfig,
    TrainingTargets,
    build_targets,
    sample_negatives,
    total_loss,
    user_targets,
)
from helpers import (
    finite_difference,
    graph_size,
    history,
    ragged,
    random_train_views,
    reference_build_targets,
    sessions_build_targets,
    sessions_of,
)


class FixedEmbedding:
    """Plain lookup standing in for the fused embedding in loss unit tests."""

    def __init__(self, table):
        self.table = T.Tensor(np.asarray(table, dtype=np.float64), requires_grad=True)

    def embed_items(self, ids):
        return T.gather(self.table, np.asarray(ids, dtype=np.int64))


def retrieval_loss(outputs, targets, embedding):
    """The retrieval term of ``total_loss`` and its positive-term count."""
    values = total_loss(outputs, targets, embedding, LossConfig())
    return values.retrieval, values.retrieval_count


def rank_loss(outputs, targets, embedding):
    """The rank term of ``total_loss`` and its positive-term count."""
    values = total_loss(outputs, targets, embedding, LossConfig())
    return values.rank, values.rank_count


def rows_of(items, counts):
    """An ``(items, counts)`` pair split back into one array per row."""
    return np.split(items, np.cumsum(counts)[:-1])


def per_positive_oracle(outputs, positives, negatives_per_position, embedding):
    """The loss as one softmax per positive: for each position with
    negatives, embed [positives ‖ negatives], score them against that
    position's output row, and add -log softmax(positive | positive +
    negatives) for each positive.  Takes one id array per position.
    Returns (loss sum, term count)."""
    total, count = 0.0, 0
    with T.no_grad():
        for i, (pos, negs) in enumerate(zip(positives, negatives_per_position)):
            if len(negs) == 0:
                continue
            vecs = embedding.embed_items(np.concatenate([pos, negs])).data
            scores = vecs @ outputs.data[i]
            neg_scores = scores[len(pos):]
            for j in range(len(pos)):
                logits = np.concatenate([[scores[j]], neg_scores])
                m = logits.max()
                total += float(np.log(np.exp(logits - m).sum()) + m - scores[j])
                count += 1
    return total, count


def random_targets(rng, positions, num_items, num_sampled):
    """Targets with some empty exposure sets, duplicate sampled negatives and
    positives that also appear among the sampled negatives."""
    rows = []
    for _ in range(positions):
        k = int(rng.integers(1, 6))
        pos = np.sort(rng.choice(num_items, size=k, replace=False))
        rest = np.setdiff1d(np.arange(num_items), pos)
        neg = np.sort(rng.choice(rest, size=int(rng.integers(0, 4)), replace=False))
        sampled = rng.integers(0, num_items, size=num_sampled)
        sampled[0] = sampled[1]          # a duplicate
        sampled[2] = pos[0]              # a positive drawn as a negative
        rows.append((pos, neg, sampled))
    return targets_for(rows)


def float64_embedding(num_items, dim, rng):
    params = T.Parameters(rng)
    emb = EmbeddingSpace(num_items, dim, params)
    for p in params.values():
        p.data = p.data.astype(np.float64)
    return emb


def targets_for(positions):
    """positions: list of (positives, in_session_negs, sampled_negs)."""
    return TrainingTargets(
        positives=ragged([p for p, _, _ in positions]),
        in_session_negatives=ragged([n for _, n, _ in positions]),
        sampled_negatives=np.array([s for _, _, s in positions], dtype=np.int64),
    )


class TestSampleNegatives:
    def test_singleton_catalog(self):
        out = sample_negatives(1, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [0, 0, 0, 0, 0])

    def test_deterministic_given_state(self):
        a = sample_negatives(100, 16, np.random.default_rng(42))
        b = sample_negatives(100, 16, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_uniformity_chi_square(self):
        catalog = 50
        draws = sample_negatives(catalog, 1_000_000, np.random.default_rng(7))
        counts = np.bincount(draws, minlength=catalog)
        chi2 = float(((counts - draws.size / catalog) ** 2
                      / (draws.size / catalog)).sum())
        # chi-square with catalog-1 dof concentrates near dof; 4-sigma band
        dof = catalog - 1
        assert abs(chi2 - dof) < 4 * np.sqrt(2 * dof), chi2

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            sample_negatives(0, 4, np.random.default_rng(0))


class TestBuildTargets:
    def sequences(self):
        return history(
            ([1, 2, 9], [True, True, False]),
            ([3, 9, 3], [True, False, True]),
            ([4, 5, 4], [True, False, False]),
        )

    def test_alignment_and_dedupe(self):
        (ids, lengths), _, tg = build_targets(user_targets([self.sequences()]), catalog_size=10,
                                              num_sampled=4, rng=np.random.default_rng(0))
        assert ids.tolist() == [1, 2, 3, 3] and lengths.tolist() == [2, 2]
        positives, pos_counts = tg.positives
        assert pos_counts.tolist() == [1, 1]
        assert positives.tolist() == [3, 4]   # the positives of sessions s1 and s2
        negatives, neg_counts = tg.in_session_negatives
        assert neg_counts.tolist() == [1, 1]
        # item 4 is both exposed and positive in s2: counts as positive only
        assert negatives.tolist() == [9, 5]
        assert tg.sampled_negatives.shape == (2, 4)

    def test_requires_two_sessions(self):
        with pytest.raises(ValueError, match="two sessions"):
            user_targets([self.sequences(), self.sequences()[:1]])

    def test_positive_free_session_rejected(self):
        seqs = history(([1, 2, 9], [True, True, False]), ([9], [False]),
                       ([4, 5, 4], [True, False, False]))
        with pytest.raises(ValueError, match="session 1 of the view has no positives"):
            user_targets([self.sequences(), seqs])

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_matches_the_list_reference_on_random_users(self, seed):
        views, cases = random_train_views(seed)
        assert all(cases.values()), cases
        users = [view for view in views if len(view) >= 2]
        for k, record in enumerate(user_targets(users)):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            want = reference_build_targets(sessions_of(users[k]), 12, 5, ref_rng)
            got_view, _, tg = build_targets([record], 12, 5, rng)
            for got, ref in zip((got_view, tg.positives, tg.in_session_negatives), want[:3]):
                for a, b in zip(got, ragged(ref)):  # items, then counts
                    assert a.dtype == np.int64
                    np.testing.assert_array_equal(a, b)
            assert tg.sampled_negatives.dtype == np.int64
            np.testing.assert_array_equal(tg.sampled_negatives, np.array(want[3]))
            assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_joined_records_equal_one_pass_over_the_sessions_on_ragged_packs(self, seed):
        views, _ = random_train_views(seed)
        users = [view for view in views if len(view) >= 2]
        records = user_targets(users)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        bounds = np.cumsum([0] + [1, 2, 3, 5] * len(users))
        packs = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < len(users)]
        ragged_packs = 0
        for lo, hi in packs:  # consecutive packs of 1, 2, 3 and 5 users
            (ids, lengths), per_user, tg = build_targets(records[lo:hi], 12, 5, rng)
            (want_ids, want_lengths), want_per_user, want = sessions_build_targets(
                users[lo:hi], 12, 5, ref_rng)
            got = [ids, lengths, per_user, *tg.positives, *tg.in_session_negatives,
                   tg.sampled_negatives]
            want = [want_ids, want_lengths, want_per_user, *want[0], *want[1], want[2]]
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype == np.int64
                np.testing.assert_array_equal(a, b)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            ragged_packs += len(set(per_user.tolist())) > 1
        assert ragged_packs >= 3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_batch_appends_its_users_in_order(self, seed):
        views, _ = random_train_views(seed)
        users = [view for view in views if len(view) >= 2]
        records = user_targets(users)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        (ids, lengths), per_user, tg = build_targets(records, 12, 5, rng)
        want = [build_targets([r], 12, 5, ref_rng) for r in records]
        assert per_user.tolist() == [len(u) - 1 for u in users]
        for got, parts in ((ids, [v[0] for v, _, _ in want]),
                           (lengths, [v[1] for v, _, _ in want]),
                           (tg.sampled_negatives, [t.sampled_negatives for _, _, t in want])):
            np.testing.assert_array_equal(got, np.concatenate(parts))
        for field in ("positives", "in_session_negatives"):
            for k in range(2):  # items, then counts
                np.testing.assert_array_equal(
                    getattr(tg, field)[k],
                    np.concatenate([getattr(t, field)[k] for _, _, t in want]))
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)

    def test_one_pass_records_equal_records_made_one_user_at_a_time(self):
        views, _ = random_train_views(3)
        users = [view for view in views if len(view) >= 2]
        for record, user in zip(user_targets(users), users):
            [alone] = user_targets([user])
            for field in ("view", "positives", "in_session_negatives"):
                for a, b in zip(getattr(record, field), getattr(alone, field)):
                    np.testing.assert_array_equal(a, b)


class TestRetrievalLoss:
    def test_uniform_logits_give_ln2(self):
        emb = FixedEmbedding(np.ones((4, 3)))
        outputs = T.Tensor(np.zeros((1, 3)))  # zero row -> all scores 0
        tg = targets_for([([1], [], [2])])
        loss, count = retrieval_loss(outputs, tg, emb)
        assert count == 1
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-7)

    def test_separated_logits_vanish(self):
        table = np.zeros((3, 2))
        table[1] = [20.0, 0.0]   # positive
        table[2] = [-20.0, 0.0]  # negative
        emb = FixedEmbedding(table)
        outputs = T.Tensor(np.array([[1.0, 0.0]]))
        tg = targets_for([([1], [], [2])])
        loss, _ = retrieval_loss(outputs, tg, emb)
        assert loss.item() < 1e-8

    def test_two_identical_positives_double_the_loss(self):
        emb = FixedEmbedding(np.ones((5, 3)))
        outputs = T.Tensor(np.zeros((1, 3)))
        single, _ = retrieval_loss(outputs, targets_for([([1], [], [3, 4])]), emb)
        double, count = retrieval_loss(outputs, targets_for([([1, 2], [], [3, 4])]), emb)
        assert count == 2
        np.testing.assert_allclose(double.item(), 2.0 * single.item(), rtol=1e-12)

    def test_sums_over_positions(self):
        emb = FixedEmbedding(np.ones((4, 3)))
        outputs = T.Tensor(np.zeros((2, 3)))
        tg = targets_for([([1], [], [2]), ([1], [], [2])])
        loss, count = retrieval_loss(outputs, tg, emb)
        assert count == 2
        np.testing.assert_allclose(loss.item(), 2 * np.log(2.0), rtol=1e-7)

    def test_empty_positives_rejected(self):
        emb = FixedEmbedding(np.ones((4, 3)))
        outputs = T.Tensor(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="no positive"):
            retrieval_loss(outputs, targets_for([([], [], [2])]), emb)

    def test_positives_never_contrast_each_other(self):
        # two positives with very different logits: each is scored only
        # against the negatives, so both terms are tiny
        table = np.zeros((4, 2))
        table[0] = [5.0, 0.0]
        table[1] = [25.0, 0.0]
        table[2] = [-20.0, 0.0]
        emb = FixedEmbedding(table)
        outputs = T.Tensor(np.array([[1.0, 0.0]]))
        loss, _ = retrieval_loss(outputs, targets_for([([0, 1], [], [2])]), emb)
        assert loss.item() < 1e-8


class TestRankLoss:
    def test_no_negatives_contributes_zero(self):
        emb = FixedEmbedding(np.ones((4, 3)))
        outputs = T.Tensor(np.zeros((2, 3)))
        tg = targets_for([([1], [], [2]), ([1], [], [2])])
        loss, count = rank_loss(outputs, tg, emb)
        assert count == 0
        assert loss.item() == 0.0

    def test_single_pair_uniform_logits(self):
        emb = FixedEmbedding(np.ones((4, 3)))
        outputs = T.Tensor(np.zeros((1, 3)))
        tg = targets_for([([1], [2], [3])])
        loss, count = rank_loss(outputs, tg, emb)
        assert count == 1
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-7)

    def test_monotone_in_positive_logit(self):
        losses = []
        for logit in np.linspace(-3, 3, 13):
            table = np.zeros((3, 2))
            table[1] = [logit, 0.0]
            table[2] = [0.5, 0.0]
            emb = FixedEmbedding(table)
            outputs = T.Tensor(np.array([[1.0, 0.0]]))
            loss, _ = rank_loss(outputs, targets_for([([1], [2], [])]), emb)
            losses.append(loss.item())
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestTotalLoss:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.emb = FixedEmbedding(rng.normal(size=(8, 4)))
        self.outputs = T.Tensor(rng.normal(size=(2, 4)))
        self.tg = targets_for(
            [([1, 2], [3], [4, 5]), ([6], [], [7, 0])]
        )

    def total_at(self, alpha):
        cfg = LossConfig(alpha=alpha, num_sampled_negatives=2)
        return total_loss(self.outputs, self.tg, self.emb, cfg)

    def test_alpha_zero_equals_retrieval(self):
        values = self.total_at(0.0)
        assert values.total.item() == values.retrieval.item()

    def test_alpha_linearity(self):
        t0 = self.total_at(0.0).total.item()
        t1 = self.total_at(0.3).total.item()
        t2 = self.total_at(0.9).total.item()
        t3 = self.total_at(1.2).total.item()
        np.testing.assert_allclose(t1 + t2, t3 + t0, rtol=1e-9)

    def test_rank_free_positions_leave_total_retrieval_only(self):
        tg = targets_for([([1], [], [4, 5])])
        values = total_loss(self.outputs, tg, self.emb, LossConfig(alpha=1.0,
                                                                   num_sampled_negatives=2))
        assert values.total.item() == values.retrieval.item()
        assert values.rank_count == 0

    def test_losses_non_negative(self):
        values = self.total_at(0.7)
        assert values.retrieval.item() >= 0
        assert values.rank.item() >= 0

    def test_reported_means(self):
        values = self.total_at(0.5)
        rep = values.reported()
        assert rep["retrieval_mean"] == pytest.approx(
            values.retrieval.item() / values.retrieval_count
        )
        assert rep["total_sum"] == pytest.approx(values.total.item())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            LossConfig(alpha=-0.1)
        with pytest.raises(ValueError, match="num_sampled"):
            LossConfig(num_sampled_negatives=0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError) as err:
            LossConfig(alpha=alpha)
        assert str(err.value) == f"alpha must be a finite number >= 0, got {alpha}"


class TestSupervisionAlignment:
    def test_only_the_preceding_position_sees_a_marker_item(self):
        rng = np.random.default_rng(9)
        table = rng.normal(size=(10, 4))
        marker = 2
        emb = FixedEmbedding(table)
        outputs = T.Tensor(rng.normal(size=(3, 4)))
        # marker appears as positive only at position 1 (i.e. session 3)
        tg = targets_for([
            ([1], [], [5, 6]),
            ([marker], [], [5, 6]),
            ([3], [], [5, 6]),
        ])
        cfg = LossConfig(alpha=0.0, num_sampled_negatives=2)
        base_full = total_loss(outputs, tg, emb, cfg).total.item()

        tg_pos1 = targets_for([([marker], [], [5, 6])])
        outputs_pos1 = T.Tensor(outputs.data[1:2])
        base_pos1 = total_loss(outputs_pos1, tg_pos1, emb, cfg).total.item()

        emb.table.data[marker] += 0.25
        bumped_full = total_loss(outputs, tg, emb, cfg).total.item()
        bumped_pos1 = total_loss(outputs_pos1, tg_pos1, emb, cfg).total.item()

        np.testing.assert_allclose(
            bumped_full - base_full, bumped_pos1 - base_pos1, rtol=1e-9
        )


class TestGradients:
    def test_loss_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        table0 = rng.normal(size=(9, 5))
        out0 = rng.normal(size=(3, 5))
        tg = targets_for([
            ([1, 2], [3], [4, 5, 4]),
            ([6], [7, 8], [0, 1, 2]),
            ([3], [], [6, 6, 7]),
        ])
        cfg = LossConfig(alpha=0.4, num_sampled_negatives=3)

        emb = FixedEmbedding(table0.copy())
        outputs = T.Tensor(out0.copy(), requires_grad=True)
        values = total_loss(outputs, tg, emb, cfg)
        values.total.backward()

        def make_loss(arrays):
            e = FixedEmbedding(arrays[0])
            o = T.Tensor(arrays[1])
            return total_loss(o, tg, e, cfg).total.item()

        num_table, num_out = finite_difference(make_loss, [table0.copy(), out0.copy()])
        for analytic, numeric in ((emb.table.grad, num_table), (outputs.grad, num_out)):
            err = np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric)))
            assert err < 1e-4

    def test_loss_gradient_with_duplicates_and_overlap(self):
        rng = np.random.default_rng(13)
        table0 = rng.normal(size=(10, 4))
        out0 = rng.normal(size=(4, 4))
        tg = random_targets(rng, positions=4, num_items=10, num_sampled=5)
        cfg = LossConfig(alpha=0.6, num_sampled_negatives=5)

        emb = FixedEmbedding(table0.copy())
        outputs = T.Tensor(out0.copy(), requires_grad=True)
        total_loss(outputs, tg, emb, cfg).total.backward()

        def make_loss(arrays):
            return total_loss(T.Tensor(arrays[1]), tg, FixedEmbedding(arrays[0]),
                              cfg).total.item()

        num_table, num_out = finite_difference(make_loss, [table0.copy(), out0.copy()])
        for analytic, numeric in ((emb.table.grad, num_table), (outputs.grad, num_out)):
            err = np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric)))
            assert err < 1e-4


class TestPerPositiveOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_losses_and_counts_match_on_random_users(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_items, dim = 30, 6
        emb = (float64_embedding(num_items, dim, rng) if seed % 2
               else FixedEmbedding(rng.normal(size=(num_items, dim))))
        positions = int(rng.integers(1, 7))
        outputs = T.Tensor(rng.normal(size=(positions, dim)))
        tg = random_targets(rng, positions, num_items, num_sampled=8)
        cfg = LossConfig(alpha=float(rng.uniform(0.1, 1.0)), num_sampled_negatives=8)

        positives = rows_of(*tg.positives)
        want_retr = per_positive_oracle(outputs, positives, tg.sampled_negatives, emb)
        want_rank = per_positive_oracle(outputs, positives,
                                        rows_of(*tg.in_session_negatives), emb)
        retr, n_retr = retrieval_loss(outputs, tg, emb)
        rank, n_rank = rank_loss(outputs, tg, emb)
        values = total_loss(outputs, tg, emb, cfg)

        assert n_retr == values.retrieval_count == want_retr[1]
        assert n_rank == values.rank_count == want_rank[1]
        for got in (retr.item(), values.retrieval.item()):
            np.testing.assert_allclose(got, want_retr[0], rtol=1e-6)
        for got in (rank.item(), values.rank.item()):
            np.testing.assert_allclose(got, want_rank[0], rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(values.total.item(),
                                   want_retr[0] + cfg.alpha * want_rank[0], rtol=1e-6)

    def test_graph_does_not_grow_with_positives(self):
        rng = np.random.default_rng(21)
        emb = float64_embedding(40, 4, rng)
        outputs = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        cfg = LossConfig(alpha=0.5, num_sampled_negatives=6)
        sizes = []
        for k in (1, 4, 12):
            tg = targets_for([(np.arange(k) + 10 * i, [30 + i], rng.integers(0, 40, 6))
                              for i in range(3)])
            sizes.append(graph_size(total_loss(outputs, tg, emb, cfg).total))
        assert sizes[0] == sizes[1] == sizes[2], sizes
