"""Gradient and value checks for the numeric core.

Analytic gradients are verified against a central finite-difference
oracle (float64, eps=1e-5, relative error < 1e-4) on random inputs in
[-1, 1], per the library's contract.
"""

import math

import numpy as np
import pytest

from nextsession import tensor as nt
from nextsession.tensor import Tensor

from helpers import check_op_gradient

RNG = np.random.default_rng(20240811)


def rand(*shape):
    return RNG.uniform(-1.0, 1.0, shape)


class TestMatmul:
    def test_identity(self):
        x = rand(2, 3)
        out = nt.matmul(Tensor(np.eye(2)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(nt.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            nt.matmul(Tensor(rand(2, 3)), Tensor(rand(2, 3)))

    def test_gradient(self):
        check_op_gradient(
            lambda a, b: nt.sum_all(nt.matmul(a, b)), [rand(5, 4), rand(4, 3)]
        )

    def test_matvec_gradient(self):
        check_op_gradient(
            lambda a, b: nt.sum_all(nt.mul(nt.matmul(a, b), nt.matmul(a, b))),
            [rand(5, 4), rand(4)],
        )


class TestSegmentReduce:
    def test_mean_two_rows(self):
        v = Tensor([[1.0, 3.0], [3.0, 1.0]])
        out = nt.segment_reduce(v, [0, 0], "mean")
        np.testing.assert_array_equal(out.data, [[2.0, 2.0]])

    def test_max_two_rows(self):
        v = Tensor([[1.0, 3.0], [3.0, 1.0]])
        out = nt.segment_reduce(v, [0, 0], "max")
        np.testing.assert_array_equal(out.data, [[3.0, 3.0]])

    def test_singleton_segments_identity(self):
        x = rand(4, 3)
        out = nt.segment_reduce(Tensor(x), [0, 1, 2, 3], "mean")
        # exact bit-level identity: sum of one row divided by 1.0
        np.testing.assert_array_equal(out.data, x)

    def test_decreasing_ids_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            nt.segment_reduce(Tensor(rand(3, 2)), [1, 0, 0], "mean")

    def test_mean_gradient(self):
        ids = [0, 0, 0, 1, 1, 2, 2, 2]
        check_op_gradient(
            lambda v: nt.sum_all(nt.mul(nt.segment_reduce(v, ids, "mean"), 1.5)),
            [rand(8, 4)],
        )

    def test_max_gradient(self):
        ids = [0, 0, 0, 1, 1, 2, 2, 2]
        check_op_gradient(
            lambda v: nt.sum_all(nt.segment_reduce(v, ids, "max")), [rand(8, 4)]
        )

    def test_max_tie_routes_to_first_row(self):
        v = Tensor([[2.0, 0.0], [2.0, 1.0]], requires_grad=True)
        out = nt.sum_all(nt.segment_reduce(v, [0, 0], "max"))
        out.backward()
        np.testing.assert_array_equal(v.grad, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_gradient_equals_the_per_segment_loop_bitwise(self, dtype):
        rng = np.random.default_rng(7)
        for _ in range(50):
            counts = rng.integers(1, 5, size=rng.integers(1, 7))
            ids = np.repeat(np.arange(counts.size), counts)
            # few distinct values, so columns tie inside a segment; NaN and
            # signed zeros take the fallback and sign paths
            x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan],
                           size=(ids.size, 3), p=[.2, .15, .15, .2, .25, .05]).astype(dtype)
            g = rng.choice([-0.0, 1.5, -2.0], size=(counts.size, 3)).astype(dtype)
            v = Tensor(x, requires_grad=True)
            out = nt.segment_reduce(v, ids, "max")
            out._backward(g)
            want = loop_max_backward(x, out.data, counts, g)
            np.testing.assert_array_equal(v.grad.view(np.uint8), want.view(np.uint8))


def loop_max_backward(x, maxima, counts, g):
    """The segment max backward as one loop per segment (the old body)."""
    buf = np.zeros_like(x)
    cols = np.arange(x.shape[1])
    lo = 0
    for s, c in enumerate(counts):
        first_arg = np.argmax(x[lo : lo + c] == maxima[s], axis=0)
        buf[lo + first_arg, cols] += g[s]
        lo += c
    return buf


def xent(scores, pos_rows, neg_rows):
    """sampled_softmax_xent with ragged column lists padded to width."""

    def pad(rows):
        width = max((len(r) for r in rows), default=0)
        cols = np.zeros((len(rows), width), dtype=np.int64)
        mask = np.zeros((len(rows), width), dtype=bool)
        for i, r in enumerate(rows):
            cols[i, : len(r)] = r
            mask[i, : len(r)] = True
        return cols, mask

    return nt.sampled_softmax_xent(scores, *pad(pos_rows), *pad(neg_rows))


class TestSoftmaxXent:
    """The sampled softmax loss, ``sampled_softmax_xent``."""

    def test_uniform_logits(self):
        loss = xent(Tensor(np.zeros((1, 2))), [[0]], [[1]])
        assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_spread_logits_closed_form(self):
        # -log(e^10 / (e^10 + e^-10)) = log(1 + e^-20)
        loss = xent(Tensor(np.array([[10.0, -10.0]])), [[0]], [[1]])
        assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)

    def test_extreme_scores_stay_finite(self):
        loss = xent(Tensor(np.array([[-500.0, 500.0]])), [[0]], [[1]])
        assert loss.item() == pytest.approx(1000.0, rel=1e-12)

    def test_duplicate_negative_counts_twice(self):
        s = np.array([[0.3, -0.4]])
        loss = xent(Tensor(s), [[0]], [[1, 1]])
        expected = math.log1p(2.0 * math.exp(-0.4 - 0.3))
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_positives_never_contrast_each_other(self):
        # 25 vs 5 never meet: each positive only faces the -20 negative
        loss = xent(Tensor(np.array([[5.0, 25.0, -20.0]])), [[0, 1]], [[2]])
        assert loss.item() < 1e-8

    def test_needs_two_logits(self):
        # a positive with no negative is a one-logit softmax: no term
        s = rand(2, 3)
        both = xent(Tensor(s), [[0], [1, 2]], [[1], []])
        first = xent(Tensor(s[:1]), [[0]], [[1]])
        assert both.item() == first.item()
        none = xent(Tensor(s), [[0], [1]], [[], []])
        assert none.item() == 0.0

    def test_probabilities_sum_to_one(self):
        # each term's gradient is softmax - onehot over [positive, negatives],
        # so a row's gradient sums to zero
        scores = Tensor(rand(3, 7), requires_grad=True)
        xent(scores, [[3], [0, 1], [6]], [[0, 1, 2], [4, 4, 5], [2]]).backward()
        np.testing.assert_allclose(scores.grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient(self):
        # padded positives, a row with no negatives, a duplicate sampled
        # negative, and a positive column that is also among the negatives
        pos = [[0, 2, 5], [1], [3, 4], [6]]
        neg = [[1, 6, 6, 2], [], [0, 3, 7], [6, 1]]
        check_op_gradient(lambda s: xent(s, pos, neg), [rand(4, 8)])

    def test_gradient_reaches_rows_through_a_matmul(self):
        pos = [[0, 1], [2]]
        neg = [[2, 3, 3], [0, 2]]
        check_op_gradient(
            lambda u, v: xent(nt.matmul(u, nt.transpose(v)), pos, neg),
            [rand(2, 3), rand(4, 3)],
        )

    def test_target_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            xent(Tensor(rand(1, 2)), [[0]], [[2]])

    def test_shape_mismatch_names_shapes(self):
        cols = np.zeros((2, 1), dtype=np.int64)
        mask = np.ones((2, 1), dtype=bool)
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            nt.sampled_softmax_xent(Tensor(rand(3, 2)), cols, mask, cols, mask)


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        y = nt.softmax_rows(Tensor(rand(5, 9)))
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-6)

    def test_masked_entries_are_zero(self):
        mask = np.tril(np.ones((4, 4), dtype=bool))
        y = nt.softmax_rows(Tensor(rand(4, 4)), mask=mask)
        assert np.all(y.data[~mask] == 0.0)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-6)

    def test_fully_masked_row_rejected(self):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError, match="fully masked"):
            nt.softmax_rows(Tensor(rand(2, 3)), mask=mask)

    def test_gradient(self):
        check_op_gradient(
            lambda x, w: nt.sum_all(nt.mul(nt.softmax_rows(x), w)),
            [rand(4, 5), rand(4, 5)],
        )

    def test_masked_gradient(self):
        mask = np.tril(np.ones((4, 4), dtype=bool))
        check_op_gradient(
            lambda x, w: nt.sum_all(nt.mul(nt.softmax_rows(x, mask=mask), w)),
            [rand(4, 4), rand(4, 4)],
        )


class TestLayerNorm:
    def test_rows_are_normalized(self):
        x = Tensor(rand(6, 8))
        y = nt.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(y.data.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.data.std(axis=1), 1.0, atol=1e-3)

    def test_gradient(self):
        check_op_gradient(
            lambda x, g, b: nt.sum_all(nt.mul(nt.layer_norm(x, g, b), 0.7)),
            [rand(3, 6), rand(6), rand(6)],
        )


class TestElementwise:
    @pytest.mark.parametrize("op", [nt.relu, nt.tanh, nt.sigmoid])
    def test_gradients(self, op):
        check_op_gradient(lambda x: nt.sum_all(op(x)), [rand(4, 5) + 0.05])

    def test_add_broadcast_gradient(self):
        check_op_gradient(
            lambda a, b: nt.sum_all(nt.mul(nt.add(a, b), nt.add(a, b))),
            [rand(4, 3), rand(3)],
        )

    def test_mul_gradient(self):
        check_op_gradient(lambda a, b: nt.sum_all(nt.mul(a, b)), [rand(4, 3), rand(4, 3)])


class TestGatherConcat:
    def test_gather_rows(self):
        x = rand(5, 3)
        out = nt.gather(Tensor(x), [3, 1, 1])
        np.testing.assert_array_equal(out.data, x[[3, 1, 1]])

    def test_gather_accumulates_duplicates(self):
        x = Tensor(rand(4, 2), requires_grad=True)
        out = nt.sum_all(nt.gather(x, [2, 2, 0]))
        out.backward()
        np.testing.assert_array_equal(x.grad[2], [2.0, 2.0])
        np.testing.assert_array_equal(x.grad[0], [1.0, 1.0])
        np.testing.assert_array_equal(x.grad[1], [0.0, 0.0])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            nt.gather(Tensor(rand(3, 2)), [0, 3])

    def test_gather_into_a_leaf_that_holds_a_gradient(self):
        # dyadic values keep every sum exact, whatever the order
        x = Tensor(np.zeros((4, 2)), requires_grad=True)
        x.grad = np.full((4, 2), 0.25)
        w1 = np.array([[1.0, 2.0], [0.5, -1.0], [4.0, 0.125]])
        w2 = np.array([[-2.0, 8.0], [0.75, 3.0]])
        loss = nt.add(nt.sum_all(nt.mul(nt.gather(x, [0, 2, 2]), w1)),
                      nt.sum_all(nt.mul(nt.gather(x, [2, 1]), w2)))
        loss.backward()
        expected = np.full((4, 2), 0.25)
        np.add.at(expected, [0, 2, 2], w1)
        np.add.at(expected, [2, 1], w2)
        np.testing.assert_array_equal(x.grad, expected)

    def test_gather_from_a_non_leaf(self):
        # per-step rows of one intermediate, as the GRU and the session
        # encoder take them
        x = Tensor(rand(4, 3), requires_grad=True)
        y = nt.mul(x, 2.0)
        w = [np.full((1, 3), float(t + 1)) for t in range(4)]
        terms = [nt.sum_all(nt.mul(nt.gather(y, [t]), w[t])) for t in range(4)]
        terms.append(nt.sum_all(nt.gather(y, [3, 1, 3])))
        loss = terms[0]
        for t in terms[1:]:
            loss = nt.add(loss, t)
        loss.backward()
        dy = np.concatenate(w)
        np.add.at(dy, [3, 1, 3], 1.0)
        np.testing.assert_array_equal(y.grad, dy)
        np.testing.assert_array_equal(x.grad, 2.0 * dy)

    def test_gather_gradient(self):
        check_op_gradient(
            lambda x: nt.sum_all(nt.mul(nt.gather(x, [0, 2, 2, 1]), 2.0)), [rand(3, 4)]
        )

    def test_concat_gradient(self):
        check_op_gradient(
            lambda a, b: nt.sum_all(nt.mul(nt.concat([a, b], axis=1), 3.0)),
            [rand(3, 2), rand(3, 4)],
        )

    def test_transpose_reshape_gradient(self):
        check_op_gradient(
            lambda a: nt.sum_all(nt.mul(nt.reshape(nt.transpose(a), (12,)), rand(12) * 0 + 2.0)),
            [rand(3, 4)],
        )


class TestGraphMechanics:
    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        nt.sum_all(x).backward()
        nt.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_no_grad_builds_no_graph(self):
        x = Tensor(rand(3, 3), requires_grad=True)
        with nt.no_grad():
            out = nt.matmul(x, x)
        assert out._parents == ()
        assert not out.requires_grad

    def test_reused_node_gets_summed_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = nt.add(nt.mul(x, 2.0), nt.mul(x, 5.0))
        nt.sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, [7.0])

    def test_dtype_preserved_float32(self):
        x = Tensor(rand(3, 3).astype(np.float32), requires_grad=True)
        y = nt.layer_norm(
            nt.tanh(nt.matmul(x, x)),
            Tensor(np.ones(3, dtype=np.float32)),
            Tensor(np.zeros(3, dtype=np.float32)),
        )
        assert y.dtype == np.float32
        loss = xent(y, [[1], [0, 2], [2]], [[0, 2], [1], []])
        loss.backward()
        assert loss.dtype == np.float32
        assert x.grad.dtype == np.float32

    def test_first_gradient_is_an_owned_copy_laid_out_like_data(self):
        # a transposed gradient arrives Fortran-ordered; the buffer must
        # still match data, or later BLAS products change their rounding
        x = Tensor(rand(3, 4).astype(np.float32), requires_grad=True)
        y = nt.transpose(x)
        nt.sum_all(nt.mul(y, Tensor(rand(4, 3).astype(np.float32)))).backward()
        assert x.grad.flags.c_contiguous
        assert x.grad.dtype == np.float32
        assert not np.shares_memory(x.grad, y.grad)

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor(rand(2, 2), requires_grad=True).backward()


class TestDropout:
    def test_zero_rate_is_identity(self):
        x = Tensor(rand(4, 4))
        assert nt.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_preserves_mean_roughly(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((200, 50)))
        y = nt.dropout(x, 0.3, rng)
        assert y.data.mean() == pytest.approx(1.0, abs=0.05)
