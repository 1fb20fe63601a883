import contextlib
import dataclasses
import json
import math
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nextsession.evaluator as evaluator
import nextsession.tensor as T
from nextsession.data import DatasetSplit, UserSplit, encoder_views
from nextsession.evaluator import (
    RANK_USERS,
    SCORE_USERS,
    EvalReport,
    alpha_sweep,
    complexity_bench,
    evaluate,
    ndcg_at_k,
    recall_at_k,
    scaling_run,
    scaling_table,
    sweep_table,
    ranked,
    top_k,
    top_k_candidates,
)
from nextsession.objective import LossConfig, user_targets
from nextsession.sequence_encoder import SseConfig
import nextsession.trainer as trainer_mod
from nextsession.trainer import TrainConfig

from helpers import (history, loop_ndcg_at_k, loop_recall_at_k, loop_report, per_user_ranked, ragged,
                     random_train_views, reference_clip_sessions_to, sessions_of)


def lexsort_top_k(user_vec, item_vecs, k):
    """The former ``top_k`` body: sort every score by (-score, id), keep k."""
    with np.errstate(invalid="ignore", over="ignore"):
        scores = item_vecs @ user_vec
    n = scores.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds catalog size {n}")
    order = np.lexsort((np.arange(n), -scores))
    return order[:k]


def assert_matches_lexsort(u, items, k):
    got, want = top_k(u, items, k), lexsort_top_k(u, items, k)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def scalar_items(scores, dtype):
    """A (n, 1) item matrix and a unit user vector whose scores are ``scores``."""
    return np.ones(1, dtype=dtype), np.asarray(scores, dtype=dtype)[:, None]


def sorted_oracle(user_vec, item_vecs, k):
    """Reference ranking via python sort on (-score, id) pairs."""
    with np.errstate(invalid="ignore", over="ignore"):
        scores = item_vecs @ user_vec
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return np.asarray(order[:k])


DTYPES = (np.float32, np.float64)
SPECIALS = (np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0)


class TestTopK:
    """Exact ranking; the partition-based body returns what a full lexsort does."""

    def test_matches_sort_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for i in range(200):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(0, n + 1))
            u = rng.normal(size=d).astype(DTYPES[i % 2])
            items = rng.normal(size=(n, d)).astype(DTYPES[i % 2])
            np.testing.assert_array_equal(
                top_k(u, items, k), sorted_oracle(u, items, k)
            )
            assert_matches_lexsort(u, items, k)

    def test_ties_break_by_ascending_id(self):
        items = np.array([[1.0], [2.0], [2.0], [0.5], [2.0]])
        ranked = top_k(np.array([1.0]), items, 5)
        np.testing.assert_array_equal(ranked, [1, 2, 4, 0, 3])

    def test_quantized_scores_tie_heavily(self):
        rng = np.random.default_rng(3)
        items = rng.integers(0, 3, size=(30, 2)).astype(float)
        u = np.array([1.0, 1.0])
        np.testing.assert_array_equal(
            top_k(u, items, 30), sorted_oracle(u, items, 30)
        )

    def test_k_beyond_catalog_rejected(self):
        with pytest.raises(ValueError, match="catalog"):
            top_k(np.ones(2), np.ones((3, 2)), 4)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k=-2"):
            top_k(np.ones(2), np.ones((3, 2)), -2)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_tie_groups_straddle_the_kth_score(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            scores = rng.integers(0, 4, size=n)
            u, items = scalar_items(scores, dtype)
            order = lexsort_top_k(u, items, n)
            ranked = items[order, 0]
            # every k whose k-th and (k+1)-th scores tie cuts a tie group
            for k in np.flatnonzero(ranked[:-1] == ranked[1:]) + 1:
                assert_matches_lexsort(u, items, int(k))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_all_scores_equal(self, dtype):
        u, items = scalar_items(np.full(17, 0.25), dtype)
        for k in range(18):
            assert_matches_lexsort(u, items, k)
        np.testing.assert_array_equal(top_k(u, items, 5), np.arange(5))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_inf_nan_and_signed_zeros(self, dtype):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            u, items = scalar_items(rng.choice(SPECIALS, size=n), dtype)
            assert_matches_lexsort(u, items, int(rng.integers(0, n + 1)))
        # -0.0 and 0.0 are one tie group, ordered by id
        u, items = scalar_items([0.0, -0.0, 0.0, -0.0, -1.0], dtype)
        np.testing.assert_array_equal(top_k(u, items, 3), [0, 1, 2])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_nan_score_ranks_last_without_a_warning(self, dtype):
        # inf + -inf is NaN; the suite turns a RuntimeWarning into an error
        items = np.array([[np.inf, -np.inf], [1.0, 0.0], [0.0, 2.0]], dtype=dtype)
        np.testing.assert_array_equal(top_k(np.ones(2, dtype), items, 3), [2, 1, 0])
        np.testing.assert_array_equal(top_k(np.ones(2, dtype), items, 2), [2, 1])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_k_zero_one_and_n(self, dtype):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            u, items = scalar_items(rng.integers(-2, 3, size=n), dtype)
            for k in (0, 1, n):
                assert_matches_lexsort(u, items, k)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_quantized_large_catalog(self, dtype):
        rng = np.random.default_rng(14)
        items = rng.integers(-3, 4, size=(50_000, 4)).astype(dtype)
        u = np.array([1.0, 0.5, 0.25, 2.0], dtype=dtype)
        for k in (1, 10, 500, 4_999):
            assert_matches_lexsort(u, items, k)


def block_oracle(user_vecs, item_vecs, k):
    """Each row of the block's scores sorted by (-score, id), NaN last."""
    with np.errstate(invalid="ignore", over="ignore"):
        scores = user_vecs @ item_vecs.T
    return np.array([np.lexsort((np.arange(len(row)), -row))[:k] for row in scores])


def mixed_block(dtype, n=24, seed=15):
    """A (7, 6) user block and an (n, 6) item matrix whose block scores are,
    row by row: ordinary; ordinary; small integers tying heavily; all zero;
    +-inf (overflow) and +-0; NaN (0 * inf) and +-inf; and three equal
    numbers among NaNs (inf - inf)."""
    rng = np.random.default_rng(seed)
    big = np.finfo(dtype).max * 0.75  # twice big overflows
    items = np.zeros((n, 6))
    items[:, 0] = rng.integers(-1, 2, size=n)
    items[:, 1] = rng.normal(size=n)
    items[:, 2] = rng.choice([big, -big, 0.0, -0.0, 1.0], size=n)
    items[:, 3] = rng.choice([1.0, -1.0, 0.0], size=n)
    items[:, 4], items[:, 5] = 1.0, 1.0
    items[:3, 5] = -1.0
    users = np.zeros((7, 6))
    users[0, 1] = 1.0
    users[1, :2] = rng.normal(size=2)
    users[2, 0] = 1.0
    users[4, 2] = 2.0
    users[5, 3] = np.inf
    users[6, 4:] = np.inf, -np.inf
    return users.astype(dtype), items.astype(dtype)


class TestBlockTopK:
    """A (b, d) block of users against the per-row sort of the same scores."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mixed_block_matches_the_sort_oracle(self, dtype):
        users, items = mixed_block(dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            scores = users @ items.T
        assert np.isinf(scores[4]).any() and (scores[4] == 0).any()
        assert np.isnan(scores[5]).any() and np.isinf(scores[5]).any()
        assert np.count_nonzero(~np.isnan(scores[6])) == 3 < 5
        for k in (0, 1, 5, items.shape[0]):
            got = top_k(users, items, k)
            assert got.shape == (len(users), k) and got.dtype == np.intp
            np.testing.assert_array_equal(got, block_oracle(users, items, k))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_tie_groups_straddle_the_kth_score_in_every_row(self, dtype):
        rng = np.random.default_rng(16)
        for _ in range(50):
            items = rng.integers(-2, 3, size=(int(rng.integers(2, 40)), 3)).astype(dtype)
            users = rng.integers(-1, 2, size=(int(rng.integers(1, 9)), 3)).astype(dtype)
            for k in (0, 1, 5, len(items)):
                k = min(k, len(items))
                np.testing.assert_array_equal(top_k(users, items, k),
                                              block_oracle(users, items, k))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_vector_equals_a_one_row_block(self, dtype):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            u, items = scalar_items(rng.choice(SPECIALS + (2.0, 2.0), size=n), dtype)
            for k in (0, 1, min(5, n), n):
                one = top_k(u, items, k)
                np.testing.assert_array_equal(top_k(u[None], items, k), one[None])
                assert_matches_lexsort(u, items, k)

    def test_block_size_limits_are_checked(self):
        with pytest.raises(ValueError, match="catalog"):
            top_k(np.ones((2, 2)), np.ones((3, 2)), 4)
        with pytest.raises(ValueError, match="k=-1"):
            top_k(np.ones((2, 2)), np.ones((3, 2)), -1)


# user scalars whose rows of scores against a (n, 1) item matrix are the
# items themselves, their reverse order, and a rescaled copy
BOUND_USERS = (1.0, -1.0, 0.5)


def assert_bound_matches_the_oracle(scores, k, dtype=np.float32):
    """``top_k`` of (3, 1) users against the (n, 1) items ``scores``, and of
    the first user alone, equal the per-row sort of the same scores."""
    users = np.array(BOUND_USERS, dtype=dtype)[:, None]
    items = np.asarray(scores, dtype=dtype)[:, None]
    want = block_oracle(users, items, k)
    got = top_k(users, items, k)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(top_k(users[0], items, k), want[0])


def bucketed(n, k):
    """Whether ``top_k`` bounds a catalog of n with bucket maxima at this k."""
    return 0 < k < n and n // (2 * k) >= evaluator.MIN_BUCKET


@contextlib.contextmanager
def min_bucket(size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "MIN_BUCKET", size)
        yield


class TestBucketBound:
    """``top_k``'s bound from bucket maxima.  Its exactness does not depend
    on ``MIN_BUCKET``, which only picks the faster path, so most cases lower
    it to 8: k = 3 then reaches the bound from n = 48 on, six buckets of
    eight, bucket j holding columns j, j + 6, ..., j + 42."""

    @pytest.fixture(autouse=True)
    def buckets_of_eight(self):
        with min_bucket(8):
            yield

    def test_small_sizes_reach_the_bound(self):
        assert bucketed(50, 3) and bucketed(16, 1) and not bucketed(47, 3)

    def test_catalog_sizes_at_the_default_bucket(self):
        with min_bucket(24):
            assert bucketed(36_000, 100) and bucketed(48_000, 500)
            assert not bucketed(1000, 100) and not bucketed(47_999, 1000)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(st.sampled_from(SPECIALS), st.integers(-3, 3).map(float),
                              st.floats(-10.0, 10.0, width=32)), min_size=1, max_size=160),
           st.integers(0, 9), st.sampled_from(DTYPES), st.sampled_from((1, 2, 8)))
    def test_matches_the_sort_oracle(self, scores, k, dtype, size):
        with min_bucket(size):
            assert_bound_matches_the_oracle(scores, min(k, len(scores)), dtype)

    @pytest.mark.parametrize("n", [48, 50, 53, 100])
    def test_sorted_catalogs(self, n):
        # ascending: the best are the last columns of every bucket and the
        # remainder; the reversed row (the second user) has them first
        for k in (1, 2, 3):
            assert_bound_matches_the_oracle(np.arange(n), k)

    @pytest.mark.parametrize("n", [48, 50, 53])
    def test_all_best_scores_in_one_bucket(self, n):
        # bucket 0 holds columns 0, 6, ..., 42, and the best eight of them
        scores = np.zeros(n)
        scores[0:48:6] = np.arange(1.0, 9.0)
        for k in (1, 2, 3):
            assert_bound_matches_the_oracle(scores, k)
        np.testing.assert_array_equal(top_k(np.ones(1), scores[:, None], 3), [42, 36, 30])

    def test_best_items_only_in_the_remainder_columns(self):
        # k = 3, n = 53: six buckets of eight cover 48 columns; the five past
        # them hold the best scores, and no bucket max reaches them
        scores = np.zeros(53)
        scores[48:] = [5.0, 7.0, 6.0, 7.0, 4.0]
        assert_bound_matches_the_oracle(scores, 3)
        np.testing.assert_array_equal(top_k(np.ones(1), scores[:, None], 3), [49, 51, 50])

    def test_ties_straddle_the_bound_and_the_kth_place(self):
        # buckets 0, 3, 5, 1 hold columns 0, 9, 17, 25: maxima 2, 1, 1, 1, 0, 0
        # make the bound 1, and the tie group of ones (9, 17, 25 and the
        # remainder column 49) straddles place 3
        scores = np.zeros(50)
        scores[[0, 9, 17, 25, 49]] = [2.0, 1.0, 1.0, 1.0, 1.0]
        assert_bound_matches_the_oracle(scores, 3)
        np.testing.assert_array_equal(top_k(np.ones(1), scores[:, None], 3), [0, 9, 17])
        rng = np.random.default_rng(18)
        for _ in range(200):
            n = int(rng.integers(48, 120))
            assert_bound_matches_the_oracle(rng.integers(-1, 2, size=n), int(rng.integers(1, 4)))

    def test_nan_in_fewer_buckets_than_k(self):
        rng = np.random.default_rng(19)
        # one bucket, two buckets, the remainder only, and one bucket's
        # every column
        for nan_columns in ([3], [3, 40], [48, 52], [0, 6, 12, 18, 24, 30, 36, 42]):
            scores = rng.normal(size=53)
            scores[nan_columns] = np.nan
            assert_bound_matches_the_oracle(scores, 3)

    def test_an_all_nan_row_and_infinities_and_signed_zeros(self):
        assert_bound_matches_the_oracle(np.full(50, np.nan), 3)
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(16, 100))
            assert_bound_matches_the_oracle(rng.choice(SPECIALS, size=n), int(rng.integers(1, 4)))
        # -0.0 and 0.0 are one tie group, ordered by id
        scores = np.full(50, -1.0)
        scores[[30, 10, 20]] = [0.0, -0.0, 0.0]
        np.testing.assert_array_equal(top_k(np.ones(1), scores[:, None], 3), [10, 20, 30])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_vector_equals_a_one_row_block(self, dtype):
        rng = np.random.default_rng(21)
        for _ in range(50):
            items = rng.normal(size=(int(rng.integers(48, 200)), 4)).astype(dtype)
            u = rng.normal(size=4).astype(dtype)
            for k in (1, 3):
                np.testing.assert_array_equal(top_k(u[None], items, k), top_k(u, items, k)[None])


class TestCandidateCount:
    """At the default ``MIN_BUCKET``, the bound keeps about k candidates on
    a row whose scores trend with id, as on a random row."""

    K = 100
    N = 2 * K * evaluator.MIN_BUCKET + 37  # 37 remainder columns

    def counts(self, scores):
        assert bucketed(self.N, self.K)
        return top_k_candidates(np.asarray(scores, dtype=np.float32), self.K).sum(axis=1)

    def test_scores_falling_or_rising_with_id(self):
        falling = -np.arange(self.N)
        # falling: bucket j's max is column j, so the bound is column k - 1;
        # rising: the maxima are the last 2k bucketed columns, and the
        # remainder beats them all
        np.testing.assert_array_equal(self.counts([falling, -falling]), [self.K, self.K + 37])

    def test_noisy_trends_and_random_rows(self):
        rng = np.random.default_rng(22)
        trend = np.linspace(3.0, -3.0, self.N)
        rows = [trend + 0.05 * rng.normal(size=self.N), -trend + 0.05 * rng.normal(size=self.N),
                rng.normal(size=self.N)]
        counts = self.counts(rows)
        assert (counts >= self.K).all() and (counts <= 2 * self.K).all(), counts


class TestRecall:
    def test_closed_forms(self):
        ranked = np.array([7, 3, 9, 1])
        assert recall_at_k(ranked, [3], 4) == 1.0
        assert recall_at_k(ranked, [3], 1) == 0.0
        assert recall_at_k(ranked, [3, 9, 4, 5], 4) == 0.5
        assert recall_at_k(ranked, [2], 4) == 0.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ranked = rng.permutation(50)
            targets = rng.choice(50, size=5, replace=False)
            vals = [recall_at_k(ranked, targets, k) for k in range(1, 51)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert vals[-1] == 1.0  # everything is found at k = catalog

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1, 2]), [], 2)


class TestNdcg:
    def test_single_target_at_rank_three(self):
        # DCG = 1/log2(4) = 0.5, IDCG = 1/log2(2) = 1
        assert ndcg_at_k(np.array([5, 6, 3, 8]), [3], 4) == pytest.approx(0.5)

    def test_perfect_ranking_is_one(self):
        assert ndcg_at_k(np.array([4, 2, 9]), [4, 2, 9], 3) == pytest.approx(1.0)

    def test_ideal_truncates_at_k(self):
        # 3 targets but k=1: IDCG uses only position 1, so a hit at 1 is perfect
        assert ndcg_at_k(np.array([4]), [4, 2, 9], 1) == pytest.approx(1.0)

    def test_miss_is_zero(self):
        assert ndcg_at_k(np.array([1, 2]), [3], 2) == 0.0

    def test_against_independent_reimplementation(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            ranked = rng.permutation(n)
            targets = rng.choice(n, size=int(rng.integers(1, min(8, n) + 1)),
                                 replace=False)
            k = int(rng.integers(1, n + 1))
            tset = set(int(t) for t in targets)
            gains = [1.0 / np.log2(pos + 2.0)
                     for pos, it in enumerate(ranked[:k]) if int(it) in tset]
            ideal = [1.0 / np.log2(pos + 2.0)
                     for pos in range(min(k, len(tset)))]
            want = sum(gains) / sum(ideal)
            assert ndcg_at_k(ranked, targets, k) == pytest.approx(want, rel=1e-12)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(np.array([1, 2]), [], 2)

    def test_a_block_equals_the_per_rank_loop_row_by_row(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n, rows = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            depth = int(rng.integers(1, n + 1))
            ids = np.array([rng.permutation(n)[:depth] for _ in range(rows)])
            # repeated targets, and targets past the ranked ids and the catalog
            targets = [rng.integers(0, n + 5, size=int(rng.integers(1, 10))).tolist()
                       for _ in range(rows)]
            cutoffs = sorted({int(k) for k in rng.integers(1, n + 8, size=3)})
            recall, ndcg = evaluator.block_metrics(ids, targets, cutoffs)
            assert recall.shape == ndcg.shape == (len(cutoffs), rows)
            for j, k in enumerate(cutoffs):
                for r in range(rows):
                    assert recall[j, r] == loop_recall_at_k(ids[r], targets[r], k)
                    assert ndcg[j, r] == loop_ndcg_at_k(ids[r], targets[r], k)

    def test_recall_and_ndcg_equal_the_per_rank_loop_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            ranked = rng.permutation(n)
            targets = rng.integers(0, n + 5, size=int(rng.integers(1, 10))).tolist()
            k = int(rng.integers(1, n + 1))
            assert recall_at_k(ranked, targets, k) == loop_recall_at_k(ranked, targets, k)
            assert ndcg_at_k(ranked, targets, k) == loop_ndcg_at_k(ranked, targets, k)


class StubModel:
    """Duck-typed model whose user vector is the embedding of the last
    positively-viewed item; with an identity item matrix the top-1 ranked
    item is exactly that item.  Packed views give one row per user."""

    def __init__(self, item_matrix):
        self.item_matrix = np.asarray(item_matrix, dtype=np.float64)
        self.embedding = types.SimpleNamespace(
            num_items=self.item_matrix.shape[0],
            output_item_vectors=lambda: T.Tensor(self.item_matrix),
        )

    def user_vector(self, view, sessions_per_user=None):
        ids, lengths = view
        if sessions_per_user is None:
            return T.Tensor(self.item_matrix[ids[-1]])
        ends = np.cumsum(lengths)[np.cumsum(sessions_per_user) - 1]
        return T.Tensor(self.item_matrix[ids[ends - 1]])


def split_for(users, catalog_size, protocol="session"):
    return DatasetSplit(protocol=protocol, users=users,
                        catalog_size=catalog_size, stats={})


class TestEvaluate:
    def oracle_split(self):
        users = [
            UserSplit("u0", history(([3], [True])), targets=[3]),
            UserSplit("u1", history(([1, 5], [True, True])), targets=[5]),
        ]
        return split_for(users, catalog_size=8)

    def test_oracle_embeddings_give_perfect_recall(self):
        report = evaluate(StubModel(np.eye(8)), self.oracle_split(), cutoffs=(1, 3))
        assert report.recall[1] == 1.0
        assert report.ndcg[1] == 1.0
        assert report.num_users == 2

    def test_cutoffs_deduped_and_sorted(self):
        report = evaluate(StubModel(np.eye(8)), self.oracle_split(),
                          cutoffs=(5, 2, 5, 2))
        assert report.cutoffs == (2, 5)
        assert set(report.recall) == {2, 5}

    def test_catalog_mismatch_rejected(self):
        with pytest.raises(ValueError, match="catalog mismatch"):
            evaluate(StubModel(np.eye(7)), self.oracle_split())

    def test_every_user_is_scored_and_the_skipped_count_is_the_splits(self):
        split = self.oracle_split()
        split.stats["skipped_users"] = 3
        report = evaluate(StubModel(np.eye(8)), split, cutoffs=(1,))
        assert report.num_users == 2
        assert report.skipped_users == 3

    def test_all_users_skipped_is_an_error(self):
        with pytest.raises(ValueError, match="no evaluable users"):
            evaluate(StubModel(np.eye(8)), split_for([], 8), cutoffs=(1,))

    def test_no_users_fails_before_the_catalog_is_embedded(self):
        model = StubModel(np.eye(8))

        def embed():
            raise AssertionError("output_item_vectors called")

        model.embedding.output_item_vectors = embed
        with pytest.raises(ValueError, match="no evaluable users"):
            evaluate(model, split_for([], 8), cutoffs=(1,))

    @pytest.mark.parametrize("cutoffs", [(0,), (10, 0), (-1, 3)])
    def test_cutoffs_below_one_rejected(self, cutoffs):
        with pytest.raises(ValueError, match="cutoffs must be >= 1"):
            evaluate(StubModel(np.eye(8)), self.oracle_split(), cutoffs=cutoffs)

    @pytest.mark.parametrize("cutoffs, named", [
        ((), "cutoffs must name at least one K"),
        ((2.5,), "cutoffs must be integers, got 2.5"),
        ((True,), "cutoffs must be integers, got True"),
        ((5, "10"), "cutoffs must be integers, got '10'"),
        (10, "cutoffs must be a list of integers, got 10"),
    ])
    def test_bad_cutoffs_rejected_in_one_line(self, cutoffs, named):
        with pytest.raises(ValueError) as err:
            evaluate(StubModel(np.eye(8)), self.oracle_split(), cutoffs=cutoffs)
        assert str(err.value) == named

    def test_numpy_integer_cutoffs_are_accepted(self):
        report = evaluate(StubModel(np.eye(8)), self.oracle_split(), cutoffs=np.array([3, 1]))
        assert report.cutoffs == (1, 3) and report.recall[1] == 1.0

    def test_repeat_evaluation_is_byte_identical(self):
        rng = np.random.default_rng(4)
        model = StubModel(rng.normal(size=(8, 8)))
        a = evaluate(model, self.oracle_split(), cutoffs=(1, 4)).to_json()
        b = evaluate(model, self.oracle_split(), cutoffs=(1, 4)).to_json()
        assert a == b

    def test_report_matches_lexsort_and_loop_metrics_byte_for_byte(self):
        rng = np.random.default_rng(5)
        catalog = 40
        # binary item vectors: many items share each score, so ties straddle
        # every cutoff
        model = StubModel(rng.integers(0, 2, size=(catalog, 3)))
        users = []
        for u in range(12):
            items = rng.choice(catalog, size=3, replace=False)
            targets = rng.choice(catalog, size=int(rng.integers(1, 6)), replace=False)
            users.append(UserSplit(f"u{u}", history((items, [True] * 3)),
                                   targets=[int(t) for t in targets]))
        split = split_for(users, catalog)
        cutoffs = (1, 5, 10, 25)
        vecs = [model.user_vector(encoder_views(u.train_sessions)).data for u in users]
        tops = [lexsort_top_k(vec, model.item_matrix, 25) for vec in vecs]
        want = loop_report(split, tops, cutoffs)
        assert evaluate(model, split, cutoffs=cutoffs).to_json() == want.to_json()

    def test_report_json_and_table(self):
        report = evaluate(StubModel(np.eye(8)), self.oracle_split(),
                          cutoffs=(1, 3), config_hash="deadbeef")
        blob = json.loads(report.to_json())
        assert blob["config_hash"] == "deadbeef"
        assert blob["recall"]["1"] == 1.0
        text = report.table()
        assert "Recall@K" in text and "protocol: session" in text


class TestRanked:
    def test_embeds_catalog_once_and_ranks_each_view(self):
        model = StubModel(np.eye(8))
        embed = model.embedding.output_item_vectors
        calls = []
        model.embedding.output_item_vectors = lambda: calls.append(1) or embed()
        views = [ragged([[3]]), ragged([[1, 5]]), ragged([[2], [6]])]
        got = []
        for index, ids in ranked(model, views, 3, RANK_USERS):
            assert T._grad_enabled, "no_grad is held across a yield"
            got.append((index, ids))
        assert len(calls) == 1
        [(index, ids)] = got
        assert index.dtype == np.int64 and index.tolist() == [0, 1, 2]
        assert ids.shape == (3, 3) and ids[:, 0].tolist() == [3, 5, 6]
        np.testing.assert_array_equal(ids[0], top_k(np.eye(8)[3], np.eye(8), 3))

    @pytest.mark.parametrize("encode_users", [RANK_USERS, SCORE_USERS])
    @pytest.mark.parametrize("n", [0, 1, SCORE_USERS - 1, SCORE_USERS,
                                   SCORE_USERS + RANK_USERS + 1])
    def test_block_boundaries(self, n, encode_users, monkeypatch):
        rng = np.random.default_rng(n)
        model = StubModel(rng.normal(size=(8, 4)))
        encoded, user_vector = [], model.user_vector
        model.user_vector = lambda view, counts: encoded.append(1) or user_vector(view, counts)
        scored = []

        def spy(user_vecs, item_vecs, k):
            scored.append(len(user_vecs))
            return top_k(user_vecs, item_vecs, k)

        monkeypatch.setattr(evaluator, "top_k", spy)
        views = [ragged([[(u + 2) % 8]] * int(rng.integers(1, 4)) + [[u % 8]]) for u in range(n)]
        got = {}
        for index, ids in ranked(model, views, 5, encode_users):
            assert ids.shape == (len(index), 5)
            got.update(zip(index.tolist(), ids))
        assert len(encoded) == math.ceil(n / encode_users)
        assert scored == [SCORE_USERS] * (n // SCORE_USERS) + [n % SCORE_USERS] * (n % SCORE_USERS > 0)
        del model.user_vector
        want, _ = per_user_ranked(model, views, 5)
        assert sorted(got) == list(range(n))
        for i, ids in enumerate(want):
            np.testing.assert_array_equal(got[i], ids)

    @pytest.mark.parametrize("seed", range(4))
    def test_chunks_hold_users_in_nondecreasing_session_count_ties_in_input_order(self, seed):
        rng = np.random.default_rng(seed)
        n = 3 * RANK_USERS + 2
        counts = rng.integers(1, 5, size=n)  # many ties
        # a user's last item is its own index, and so is its stub vector's argmax
        views = [ragged([[(u + 1) % n]] * int(c - 1) + [[u]]) for u, c in enumerate(counts)]
        model = StubModel(np.eye(n))
        chunks, user_vector = [], model.user_vector

        def recorded(view, sessions_per_user):
            out = user_vector(view, sessions_per_user)
            chunks.append(out.data.argmax(axis=1).tolist())
            return out

        model.user_vector = recorded
        yielded = [i for index, _ in ranked(model, views, 1, RANK_USERS) for i in index]
        want = sorted(range(n), key=lambda u: (counts[u], u))
        assert [len(chunk) for chunk in chunks] == [RANK_USERS] * 3 + [2]
        assert [u for chunk in chunks for u in chunk] == want
        assert yielded == want

    def test_evaluate_and_validation_rank_through_it(self, monkeypatch):
        import nextsession.trainer as trainer_mod

        blocks = []

        def spy(model, views, k, encode_users):
            for index, ids in ranked(model, views, k, encode_users):
                blocks.append((index.tolist(), ids.shape, encode_users))
                yield index, ids

        monkeypatch.setattr(evaluator, "ranked", spy)
        evaluate(StubModel(np.eye(8)), TestEvaluate().oracle_split(), cutoffs=(1, 3))
        users = [history(([3], [True]), ([3], [True])), history(([1], [True]), ([5], [True]))]
        records = user_targets(users)
        assert trainer_mod._validation_recall(StubModel(np.eye(8)), records, val_k=100) == 1.0
        assert blocks == [([0, 1], (2, 3), RANK_USERS), ([0, 1], (2, 8), SCORE_USERS)]


def toy_split(num_users=10, num_sessions=4, catalog=20):
    rng = np.random.default_rng(7)
    users = []
    for u in range(num_users):
        sig = u % catalog
        sessions = []
        for s in range(num_sessions):
            items = [sig, int(rng.integers(catalog))]
            ts = [s * 100, s * 100 + 1]
            sessions.append((items, [True, True], ts))
        users.append(UserSplit(f"u{u}", history(*sessions), targets=[sig]))
    return DatasetSplit(protocol="session", users=users, catalog_size=catalog,
                        stats={})


def sweep_config(epochs=1):
    return TrainConfig(
        batch_size=16, learning_rate=0.05, epochs=epochs, dropout=0.0, seed=0,
        dim=8, val_interval=0, val_k=10,
        loss=LossConfig(alpha=0.2, num_sampled_negatives=4),
        sse=SseConfig(layers=1, heads=2, max_positions=16),
    )


class TestAlphaSweep:
    def test_one_row_per_alpha(self):
        rows = alpha_sweep(toy_split(num_users=6), sweep_config(), [0.0, 0.5])
        assert [r["alpha"] for r in rows] == [0.0, 0.5]
        for row in rows:
            assert "error" not in row
            assert set(row["recall"]) == {10, 100, 500}

    def test_split_without_trainable_user_fails_before_any_cell(self):
        bad = toy_split(num_users=2)
        for user in bad.users:
            user.train_sessions = user.train_sessions[:1]
        with pytest.raises(ValueError, match="^no trainable users"):
            alpha_sweep(bad, sweep_config(), [0.0])

    def test_empty_alphas_rejected(self):
        with pytest.raises(ValueError):
            alpha_sweep(toy_split(), sweep_config(), [])

    def test_every_alpha_is_checked_before_the_first_cell_trains(self, monkeypatch):
        trained = []
        monkeypatch.setattr(trainer_mod, "train", lambda *args, **kwargs: trained.append(args))
        with pytest.raises(ValueError, match=r"^alpha must be a finite number >= 0, got -1.0$"):
            alpha_sweep(toy_split(), sweep_config(), [0.0, -1.0])
        assert trained == []

    def test_diverged_cell_recorded_not_raised(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise trainer_mod.TrainingDiverged("non-finite loss at epoch 0")

        monkeypatch.setattr(trainer_mod, "train", diverge)
        rows = alpha_sweep(toy_split(), sweep_config(), [0.0, 0.5])
        assert [r["error"] for r in rows] == ["TrainingDiverged: non-finite loss at epoch 0"] * 2

    def test_table_renders_errors_and_values(self):
        rows = [
            {"alpha": 0.0, "recall": {10: 0.5, 100: 0.6, 500: 0.9},
             "ndcg": {10: 0.1, 100: 0.2, 500: 0.3}, "num_users": 4},
            {"alpha": 1.0, "error": "ValueError: boom"},
        ]
        text = sweep_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("alpha\trecall@10")
        assert "0.5" in lines[1]
        assert "ValueError: boom" in lines[2]


@pytest.mark.parametrize("sweep", [
    lambda split, cfg: alpha_sweep(split, cfg, [0.0, 0.2]),
    lambda split, cfg: scaling_run(split, cfg, fractions=[0.5, 1.0], recall_k=10),
], ids=["alpha_sweep", "scaling_run"])
def test_a_view_longer_than_max_positions_fails_the_sweep_before_any_cell(monkeypatch,
                                                                           sweep):
    trained = []
    monkeypatch.setattr(trainer_mod, "train", lambda *args, **kwargs: trained.append(args))
    cfg = dataclasses.replace(sweep_config(), sse=SseConfig(layers=1, heads=2,
                                                            max_positions=2))
    with pytest.raises(ValueError, match=r"^a train view holds 4 sessions, more than "
                                         r"sse\.max_positions=2; "):
        sweep(toy_split(num_users=6), cfg)
    assert trained == []


class TestScalingRun:
    def test_rows_sorted_by_train_items_and_finite(self):
        rows = scaling_run(toy_split(num_users=6), sweep_config(),
                           fractions=[1.0, 0.5], recall_k=10)
        assert len(rows) == 2
        items = [r["train_items"] for r in rows]
        assert items == sorted(items)
        assert items[0] < items[1]
        for row in rows:
            assert "skipped" not in row
            assert np.isfinite(row["recall@10"])

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_clipping_matches_the_list_reference_on_random_users(self, seed):
        views, cases = random_train_views(seed)
        assert all(cases.values()), cases
        for max_ts in (-1, 0, 30, 60, 99):
            for view in views:
                got = evaluator._clip_sessions_to(view, max_ts)
                assert sessions_of(got) == reference_clip_sessions_to(sessions_of(view), max_ts)

    def test_interleaved_sessions_do_not_skip_the_fraction(self):
        # session A's exposure precedes session B but its click follows the
        # cut, so the clipped view holds Z, an exposure-only A, then B
        interleaved = history(([1, 2], [True, True], [0, 1]), ([3, 4], [False, True], [10, 100]),
                              ([5, 6], [True, True], [50, 55]))
        plain = history(([1, 7], [True, True], [0, 2]), ([8], [True], [20]),
                        ([9], [True], [40]))
        split = DatasetSplit("session", [UserSplit("u0", interleaved, [7]),
                                         UserSplit("u1", plain, [2])], 10, {})
        [row] = scaling_run(split, sweep_config(), fractions=[0.7], recall_k=10)
        assert "skipped" not in row
        assert row["num_users"] == 2
        assert sessions_of(evaluator._clip_sessions_to(interleaved, 70)) == [
            ([1, 2], [True, True], [0, 1]), ([5, 6], [True, True], [50, 55])]

    def test_recall_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="recall_k must be >= 1"):
            scaling_run(toy_split(), sweep_config(), fractions=[1.0], recall_k=0)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="fractions"):
            scaling_run(toy_split(), sweep_config(), fractions=[0.0])
        with pytest.raises(ValueError, match="fractions"):
            scaling_run(toy_split(), sweep_config(), fractions=[1.5])

    def test_starved_fraction_is_skipped_not_fatal(self):
        # 10% of the time range leaves each user a single session: no
        # trainable users, so the row records the skip reason
        rows = scaling_run(toy_split(num_users=4), sweep_config(),
                           fractions=[0.1], recall_k=10)
        assert "skipped" in rows[0]

    def test_table_shape(self):
        rows = [
            {"fraction": 0.5, "train_items": 10, "recall@10": 0.25, "num_users": 3},
            {"fraction": 0.1, "train_items": 2, "skipped": "no users"},
        ]
        text = scaling_table(rows, recall_k=10)
        assert text.splitlines()[0] == "fraction\ttrain_items\trecall@10\tskipped"
        assert len(text.splitlines()) == 3
        assert text.splitlines()[1].split("\t") == ["0.5", "10", "0.25", ""]
        assert text.splitlines()[2].split("\t") == ["0.1", "2", "", "no users"]


class TestComplexityBench:
    def test_pair_counts_are_analytic(self):
        out = complexity_bench(64, 8, dim=8, layers=1, repeats=1)
        assert out["item_level_pairs"] == 64 * 64
        assert out["session_level_pairs"] == 8 * 8
        assert out["pair_ratio"] == 64.0

    def test_trivial_grouping_has_ratio_one(self):
        out = complexity_bench(32, 1, dim=8, layers=1, repeats=1)
        assert out["pair_ratio"] == 1.0

    def test_times_positive_and_item_side_slower(self):
        out = complexity_bench(512, 16, dim=16, layers=1, repeats=2)
        assert out["item_time_s"] > 0 and out["session_time_s"] > 0
        assert out["time_ratio"] > 1.0

    def test_indivisible_session_len_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            complexity_bench(100, 7)
