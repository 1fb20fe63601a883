"""Gradient and value checks for the numeric core.

Analytic gradients are verified against a central finite-difference
oracle (float64, eps=1e-5, relative error < 1e-4) on random inputs in
[-1, 1], per the library's contract.
"""

import contextlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from nextsession import tensor as nt
from nextsession.attention import GRUCell
from nextsession.tensor import Tensor

from helpers import (
    check_op_gradient,
    composite_attention,
    composite_gru,
    reference_xent_grad,
    sigmoid,
    softmax_rows,
)

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
        with pytest.raises(ValueError, match=r"^matmul shape mismatch: \(2, 3\) x \(3,\)$"):
            nt.matmul(Tensor(rand(2, 3)), Tensor(rand(3)))

    def test_gradient(self):
        check_op_gradient(
            lambda a, b: nt.sum_all(nt.matmul(a, b)), [rand(5, 4), rand(4, 3)]
        )


class TestSegmentReduce:
    def test_mean_two_rows(self):
        v = Tensor([[1.0, 3.0], [3.0, 1.0]])
        out = nt.segment_reduce(v, [2], "mean")
        np.testing.assert_array_equal(out.data, [[2.0, 2.0]])

    def test_max_two_rows(self):
        v = Tensor([[1.0, 3.0], [3.0, 1.0]])
        out = nt.segment_reduce(v, [2], "max")
        np.testing.assert_array_equal(out.data, [[3.0, 3.0]])

    def test_singleton_segments_identity(self):
        x = rand(4, 3)
        out = nt.segment_reduce(Tensor(x), [1, 1, 1, 1], "mean")
        # exact bit-level identity: sum of one row divided by 1.0
        np.testing.assert_array_equal(out.data, x)

    def test_mean_gradient(self):
        lengths = [3, 2, 3]
        check_op_gradient(
            lambda v: nt.sum_all(nt.mul(nt.segment_reduce(v, lengths, "mean"), 1.5)),
            [rand(8, 4)],
        )

    def test_max_gradient(self):
        lengths = [3, 2, 3]
        check_op_gradient(
            lambda v: nt.sum_all(nt.segment_reduce(v, lengths, "max")), [rand(8, 4)]
        )

    def test_max_tie_routes_to_first_row(self):
        v = Tensor([[2.0, 0.0], [2.0, 1.0]], requires_grad=True)
        out = nt.sum_all(nt.segment_reduce(v, [2], "max"))
        out.backward()
        np.testing.assert_array_equal(v.grad, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_gradient_equals_the_per_segment_loop_bitwise(self, dtype):
        rng = np.random.default_rng(7)
        for _ in range(50):
            counts = rng.integers(1, 5, size=rng.integers(1, 7))
            # few distinct values, so columns tie inside a segment; NaN and
            # signed zeros take the fallback and sign paths
            x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan],
                           size=(counts.sum(), 3), p=[.2, .15, .15, .2, .25, .05]).astype(dtype)
            g = rng.choice([-0.0, 1.5, -2.0], size=(counts.size, 3)).astype(dtype)
            v = Tensor(x, requires_grad=True)
            out = nt.segment_reduce(v, counts, "max")
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_equals_the_full_size_bincount_bytewise(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(2, 9))
            s = rng.normal(scale=3.0, size=(rows, cols)).astype(dtype)
            pos_cols = rng.integers(0, cols, size=(rows, int(rng.integers(1, 4))))
            neg_cols = rng.integers(0, cols, size=(rows, int(rng.integers(2, 7))))
            neg_cols[:, 0] = pos_cols[:, 0]  # a positive column among the negatives
            neg_cols[:, -1] = neg_cols[:, 1]  # a duplicated negative
            pos_mask = rng.random(pos_cols.shape) < 0.8
            neg_mask = rng.random(neg_cols.shape) < 0.8
            neg_mask[rng.random(rows) < 0.3] = False  # rows with every negative masked
            scores = Tensor(s, requires_grad=True)
            nt.sampled_softmax_xent(scores, pos_cols, pos_mask, neg_cols, neg_mask).backward()
            want = reference_xent_grad(s, pos_cols, pos_mask, neg_cols, neg_mask)
            assert scores.grad.dtype == dtype
            np.testing.assert_array_equal(scores.grad.view(np.uint8), want.view(np.uint8))
            # a second loss adds into the gradient that the first one left
            nt.sampled_softmax_xent(scores, pos_cols, pos_mask, neg_cols, neg_mask).backward()
            np.testing.assert_array_equal(scores.grad, want + want)

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
        y = softmax_rows(Tensor(rand(5, 9)))
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-6)

    def test_masked_entries_are_zero(self):
        mask = np.tril(np.ones((4, 4), dtype=bool))
        y = softmax_rows(Tensor(rand(4, 4)), mask=mask)
        assert np.all(y.data[~mask] == 0.0)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-6)

    def test_fully_masked_row_rejected(self):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError, match="fully masked"):
            softmax_rows(Tensor(rand(2, 3)), mask=mask)

    def test_gradient(self):
        check_op_gradient(
            lambda x, w: nt.sum_all(nt.mul(softmax_rows(x), w)),
            [rand(4, 5), rand(4, 5)],
        )

    def test_masked_gradient(self):
        mask = np.tril(np.ones((4, 4), dtype=bool))
        check_op_gradient(
            lambda x, w: nt.sum_all(nt.mul(softmax_rows(x, mask=mask), w)),
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
    @pytest.mark.parametrize("op", [nt.relu, nt.tanh, sigmoid])
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

    @pytest.mark.parametrize("first, second", [([0, 2, 2], [2, 1]), ([0, 2, 3], [1, 2])],
                             ids=["repeated", "increasing"])
    def test_gather_into_a_leaf_that_holds_a_gradient(self, first, second):
        # dyadic values keep every sum exact, whatever the order
        x = Tensor(np.zeros((4, 2)), requires_grad=True)
        x.grad = np.full((4, 2), 0.25)
        w1 = np.array([[1.0, 2.0], [0.5, -1.0], [4.0, 0.125]])
        w2 = np.array([[-2.0, 8.0], [0.75, 3.0]])
        loss = nt.add(nt.sum_all(nt.mul(nt.gather(x, first), w1)),
                      nt.sum_all(nt.mul(nt.gather(x, second), w2)))
        loss.backward()
        expected = np.full((4, 2), 0.25)
        np.add.at(expected, first, w1)
        np.add.at(expected, second, w2)
        np.testing.assert_array_equal(x.grad, expected)
        assert x.rows is None  # the gradient was set by hand: dense

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sorted_scatter_is_bitwise_add_at(self, dtype):
        rng = np.random.default_rng(7)
        idx = np.unique(rng.integers(0, 50, size=30))
        g = rng.normal(size=(idx.size, 3)).astype(dtype)
        g[0, 0] = -0.0
        start = rng.normal(size=(50, 3)).astype(dtype)
        x = Tensor(np.zeros((50, 3), dtype), requires_grad=True)
        x.grad = start.copy()
        nt.sum_all(nt.mul(nt.gather(x, idx), Tensor(g))).backward()
        expected = start.copy()
        np.add.at(expected, idx, g)
        assert x.grad.tobytes() == expected.tobytes()

    def test_gather_records_rows_only_on_a_leaf(self):
        x = Tensor(rand(5, 2), requires_grad=True)
        y = nt.mul(x, 2.0)
        nt.add(nt.sum_all(nt.gather(x, [3, 1, 3])),
               nt.sum_all(nt.gather(y, [0, 4]))).backward()
        assert x.rows is None  # y's dense gradient reached x too
        z = Tensor(rand(5, 2), requires_grad=True)
        nt.sum_all(nt.gather(z, [3, 1, 3])).backward()
        nt.sum_all(nt.gather(z, [0, 2])).backward()  # records add up over backward calls
        assert [r.tolist() for r in z.rows] == [[3, 1, 3], [0, 2]]
        z.grad = None
        assert z.rows is None

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
        assert y.grad is None  # an intermediate's gradient is freed once spent
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

    def test_backward_frees_spent_intermediates_and_keeps_leaf_gradients(self):
        x = Tensor(rand(3, 4), requires_grad=True)
        w = Tensor(rand(4, 2), requires_grad=True)
        h = nt.tanh(nt.matmul(x, w))
        spent = weakref.ref(h)
        loss = nt.sum_all(h)
        del h
        loss.backward()
        assert spent() is None
        assert loss._parents == () and loss.grad is None
        dh = 1.0 - np.tanh(x.data @ w.data) ** 2
        np.testing.assert_allclose(x.grad, dh @ w.data.T, rtol=1e-12)
        np.testing.assert_allclose(w.grad, x.data.T @ dh, rtol=1e-12)

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


GRU_NAMES = ("w", "b")


def gru_cell(in_dim, dim, seed, dtype=np.float64):
    """A GRUCell with weights drawn uniformly from [-1, 1], in ``dtype``."""
    cell = GRUCell(in_dim, dim, nt.Parameters(np.random.default_rng(seed)), "gru")
    rng = np.random.default_rng(seed + 1)
    for name in GRU_NAMES:
        p = getattr(cell, name)
        p.data = rng.uniform(-1.0, 1.0, p.shape).astype(dtype)
    return cell


def gru_outputs_and_grads(run, x0, w, cell):
    """Value of run(x) and the gradients of sum(run(x) * w) for x and every
    parameter of the cell, in GRU_NAMES order."""
    x = Tensor(x0.copy(), requires_grad=True)
    for name in GRU_NAMES:
        getattr(cell, name).grad = None
    out = run(x)
    nt.sum_all(nt.mul(out, Tensor(w))).backward()
    return out.data, [x.grad] + [getattr(cell, n).grad for n in GRU_NAMES]


class TestGru:
    """The fused recurrent op, ``gru``."""

    @pytest.mark.parametrize("lengths", [[1, 3, 2, 3], [5]])
    def test_gradient(self, lengths):
        n, in_dim, d = sum(lengths), 3, 4
        w = rand(n, d)
        check_op_gradient(
            lambda x, *p: nt.sum_all(nt.mul(nt.gru(x, lengths, *p), Tensor(w))),
            [rand(n, in_dim), rand(in_dim + d, 3 * d), rand(3 * d)],
        )

    def compare_to_composite(self, lengths, seed, dtype, **tol):
        rng = np.random.default_rng(seed)
        cell = gru_cell(3, 5, seed, dtype)
        x0 = rng.uniform(-1.0, 1.0, (sum(lengths), 3)).astype(dtype)
        w = rng.normal(size=(sum(lengths), 5)).astype(dtype)
        got, got_g = gru_outputs_and_grads(lambda x: cell(x, lengths), x0, w, cell)
        want, want_g = gru_outputs_and_grads(
            lambda x: composite_gru(cell, x, lengths), x0, w, cell)
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, **tol)
        for name, g, wg in zip(("x",) + GRU_NAMES, got_g, want_g):
            assert g.dtype == dtype, name
            np.testing.assert_allclose(g, wg, err_msg=name, **tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_composite_cell_in_float64(self, seed):
        rng = np.random.default_rng(300 + seed)
        lengths = [int(v) for v in rng.integers(1, 8, size=rng.integers(1, 8))]
        self.compare_to_composite(lengths, seed, np.float64, rtol=0, atol=1e-12)

    def test_matches_the_composite_cell_in_float32(self):
        self.compare_to_composite([4, 1, 7, 7, 2], 5, np.float32, rtol=1e-5, atol=1e-6)

    def test_input_without_grad(self):
        lengths = [2, 4, 1]
        cell = gru_cell(3, 4, 6)
        x0, w = rand(7, 3), rand(7, 4)
        _, want = gru_outputs_and_grads(lambda x: cell(x, lengths), x0, w, cell)
        for name in GRU_NAMES:
            getattr(cell, name).grad = None
        nt.sum_all(nt.mul(cell(Tensor(x0), lengths), Tensor(w))).backward()
        for name, g in zip(GRU_NAMES, want[1:]):
            np.testing.assert_array_equal(getattr(cell, name).grad, g, err_msg=name)

    @pytest.mark.parametrize("frozen", GRU_NAMES)
    def test_parameter_without_grad(self, frozen):
        lengths = [3, 3, 2]
        cell = gru_cell(3, 4, 7)
        x0, w = rand(8, 3), rand(8, 4)
        _, want = gru_outputs_and_grads(lambda x: cell(x, lengths), x0, w, cell)
        getattr(cell, frozen).requires_grad = False
        _, got = gru_outputs_and_grads(lambda x: cell(x, lengths), x0, w, cell)
        for name, g, wg in zip(("x",) + GRU_NAMES, got, want):
            if name == frozen:
                assert g is None
            else:
                np.testing.assert_array_equal(g, wg, err_msg=name)

    @pytest.mark.parametrize("w_shape, b_shape", [((6, 12), (12,)), ((7, 9), (9,)),
                                                  ((3, 0), (0,)), ((7, 12), (4,)),
                                                  ((7, 12), (1, 12))])
    def test_wrong_weight_shape_is_one_line(self, w_shape, b_shape):
        # x is (4, 3): with d = 4, w must be (7, 12) and b (12,)
        with pytest.raises(ValueError) as err:
            nt.gru(Tensor(rand(4, 3)), [4], Tensor(rand(*w_shape)), Tensor(rand(*b_shape)))
        assert str(err.value) == (f"gru: w {w_shape} and b {b_shape} must be (3 + d, 3d) "
                                  f"and (3d,)")

    def test_no_grad_keeps_no_backward_buffers(self):
        lengths = [40] * 50
        cell = gru_cell(8, 8, 1)
        x = Tensor(rand(sum(lengths), 8), requires_grad=True)
        held, peak = {}, {}
        for mode, ctx in (("grad", contextlib.nullcontext()), ("no_grad", nt.no_grad())):
            tracemalloc.start()
            try:
                with ctx:
                    out = cell(x, lengths)
                held[mode], peak[mode] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if mode == "grad":
                want = out.data
                del out
        unit = want.nbytes  # one (n, d) array
        # with grad, z, r and h~ of every row are stored for backward; without,
        # they are never written, and only the output is held afterwards
        assert peak["grad"] - peak["no_grad"] > 2.5 * unit, (peak, unit)
        assert held["grad"] > 4 * unit and held["no_grad"] < 1.5 * unit, (held, unit)
        assert out._backward is None and out._parents == ()
        np.testing.assert_array_equal(out.data, want)


def attention_weights(d, seed, dtype=np.float64):
    """Leaf (d, 3d) query, key and value and (d, d) output projections,
    uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.uniform(-1.0, 1.0, shape).astype(dtype), requires_grad=True)

    return leaf(d, 3 * d), leaf(d, d)


def attention_outputs_and_grads(run, x0, w, weights):
    """Value of run(x, *weights) and the gradients of sum(run(...) * w) for
    x, wqkv and wo."""
    for p in weights:
        p.grad = None
    x = Tensor(x0.copy(), requires_grad=True)
    out = run(x, *weights)
    nt.sum_all(nt.mul(out, Tensor(w))).backward()
    return out.data, [x.grad] + [p.grad for p in weights]


class TestAttention:
    """The fused ragged self-attention op, ``attention``."""

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("lengths", [[1, 3, 2, 3], [4], [1, 1]])
    def test_gradient(self, lengths, causal):
        n, d = sum(lengths), 4
        w = rand(n, d)

        def build(x, wqkv, wo):
            return nt.sum_all(nt.mul(nt.attention(x, lengths, causal, 2, wqkv, wo), Tensor(w)))

        check_op_gradient(build, [rand(n, d), rand(d, 3 * d), rand(d, d)])

    def compare_to_composite(self, lengths, causal, seed, dtype, heads=2, **tol):
        rng = np.random.default_rng(seed)
        d = 2 * heads
        weights = attention_weights(d, seed, dtype)
        x0 = rng.uniform(-1.0, 1.0, (sum(lengths), d)).astype(dtype)
        w = rng.normal(size=(sum(lengths), d)).astype(dtype)
        got, got_g = attention_outputs_and_grads(
            lambda x, *p: nt.attention(x, lengths, causal, heads, *p), x0, w, weights)
        want, want_g = attention_outputs_and_grads(
            lambda x, *p: composite_attention(x, lengths, causal, heads, *p), x0, w, weights)
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, **tol)
        for k, (g, wg) in enumerate(zip(got_g, want_g)):
            assert g.dtype == dtype, k
            np.testing.assert_allclose(g, wg, err_msg=f"gradient {k}", **tol)

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_composite_heads_in_float64(self, seed, causal):
        rng = np.random.default_rng(400 + seed)
        lengths = [int(v) for v in rng.integers(1, 6, size=rng.integers(1, 9))]
        self.compare_to_composite(lengths, causal, seed, np.float64, heads=1 + seed % 3,
                                  rtol=0, atol=1e-12)

    def test_matches_the_composite_heads_in_float32(self):
        self.compare_to_composite([3, 1, 5, 5, 2], True, 9, np.float32, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("frozen", ["x", "wqkv", "wo"])
    def test_an_input_without_grad_gets_none(self, frozen):
        wqkv, wo = attention_weights(4, 3)
        x = Tensor(rand(5, 4), requires_grad=True)
        leaves = {"x": x, "wqkv": wqkv, "wo": wo}
        leaves[frozen].requires_grad = False
        nt.sum_all(nt.attention(x, [2, 3], True, 2, wqkv, wo)).backward()
        for name, leaf in leaves.items():
            assert (leaf.grad is None) == (name == frozen), name

    def test_no_grad_records_no_parents(self):
        wqkv, wo = attention_weights(4, 1)
        x = Tensor(rand(6, 4), requires_grad=True)
        want = nt.attention(x, [2, 4], False, 2, wqkv, wo)
        with nt.no_grad():
            out = nt.attention(x, [2, 4], False, 2, wqkv, wo)
        assert want._parents and out._backward is None and out._parents == ()
        np.testing.assert_array_equal(out.data, want.data)

    @pytest.mark.parametrize("heads, wqkv_shape, wo_shape, message", [
        (2, (4, 8), (4, 4), "attention: wqkv has shape (4, 8), expected (4, 12)"),
        (2, (12, 4), (4, 4), "attention: wqkv has shape (12, 4), expected (4, 12)"),
        (3, (4, 12), (4, 4), "attention: heads (3) must be >= 1 and divide d = 4"),
        (0, (4, 12), (4, 4), "attention: heads (0) must be >= 1 and divide d = 4"),
        (2, (4, 12), (3, 4), "attention: wo has shape (3, 4), expected (4, k)"),
    ])
    def test_wrong_weight_shape_is_one_line(self, heads, wqkv_shape, wo_shape, message):
        with pytest.raises(ValueError) as err:
            nt.attention(Tensor(rand(5, 4)), [2, 3], True, heads, Tensor(rand(*wqkv_shape)),
                         Tensor(rand(*wo_shape)))
        assert str(err.value) == message


MLP_NAMES = ("x", "w1", "b1", "w2", "b2")


def composite_mlp(x, w1, b1, w2, b2, activation):
    """``act(x·w1 + b1)·w2 + b2`` as the chain of elementary ops."""
    act = nt.tanh if activation == "tanh" else nt.relu
    return nt.add(nt.matmul(act(nt.add(nt.matmul(x, w1), b1)), w2), b2)


def mlp_arrays(seed, dtype=np.float64, n=7, m=6, h=8, k=5):
    """x, w1, b1, w2 and b2 uniform in [-1, 1], in MLP_NAMES order."""
    rng = np.random.default_rng(seed)
    shapes = ((n, m), (m, h), (h,), (h, k), (k,))
    return [rng.uniform(-1.0, 1.0, shape).astype(dtype) for shape in shapes]


class TestMlp:
    """The fused one-hidden-layer perceptron, ``mlp``."""

    @pytest.mark.parametrize("frozen", [(), ("x",), ("w1", "b1", "w2", "b2")])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_gradient(self, activation, frozen):
        arrays = dict(zip(MLP_NAMES, mlp_arrays(1, n=4, m=3, h=5, k=2)))
        constants = {name: Tensor(arrays.pop(name)) for name in frozen}
        w = rand(4, 2)

        def build(*leaves):
            given = {**dict(zip(arrays, leaves)), **constants}
            out = nt.mlp(*(given[name] for name in MLP_NAMES), activation)
            return nt.sum_all(nt.mul(out, Tensor(w)))

        check_op_gradient(build, list(arrays.values()))

    @pytest.mark.parametrize("frozen", [None] + list(MLP_NAMES))
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_the_composite_chain_bitwise_in_float32(self, activation, frozen):
        arrays = mlp_arrays(2, np.float32)
        w = np.random.default_rng(3).normal(size=(7, 5)).astype(np.float32)
        results = []
        for run in (nt.mlp, composite_mlp):
            leaves = [Tensor(a.copy(), requires_grad=name != frozen)
                      for name, a in zip(MLP_NAMES, arrays)]
            out = run(*leaves, activation)
            nt.sum_all(nt.mul(out, Tensor(w))).backward()
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for name, got, want in zip(("out",) + MLP_NAMES, *results):
            if name == frozen:
                assert got is None and want is None
                continue
            assert got.dtype == np.float32, name
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8), err_msg=name)

    def test_no_grad_records_no_parents(self):
        leaves = [Tensor(a, requires_grad=True) for a in mlp_arrays(4)]
        want = nt.mlp(*leaves, "relu")
        with nt.no_grad():
            out = nt.mlp(*leaves, "relu")
        assert want._parents and out._backward is None and out._parents == ()
        np.testing.assert_array_equal(out.data, want.data)

    @pytest.mark.parametrize("shapes", [
        ((7, 6), (5, 8), (8,), (8, 5), (5,)),
        ((7, 6), (6, 8), (5,), (8, 5), (5,)),
        ((7, 6), (6, 8), (8,), (7, 5), (5,)),
        ((7, 6), (6, 8), (8,), (8, 5), (1, 5)),
        ((6,), (6, 8), (8,), (8, 5), (5,)),
    ])
    def test_wrong_weight_shape_is_one_line(self, shapes):
        with pytest.raises(ValueError) as err:
            nt.mlp(*(Tensor(np.zeros(s)) for s in shapes), "tanh")
        x, w1, b1, w2, b2 = shapes
        assert str(err.value) == (f"mlp: x {x}, w1 {w1}, b1 {b1}, w2 {w2} and b2 {b2} must be "
                                  f"(n, m), (m, h), (h,), (h, k) and (k,)")

    def test_unknown_activation_is_one_line(self):
        with pytest.raises(ValueError) as err:
            nt.mlp(*(Tensor(a) for a in mlp_arrays(5)), "sigmoid")
        assert str(err.value) == "mlp: unknown activation 'sigmoid', expected 'tanh' or 'relu'"


class TestParameters:
    """``Parameters.new``'s ``blocks``: a stacked weight drawn block by block."""

    def test_blocks_are_sequential_draws_joined(self):
        got = nt.Parameters(np.random.default_rng(4)).new("w", (5, 6), blocks=3)
        rng = np.random.default_rng(4)
        want = np.concatenate([rng.normal(0.0, nt.Parameters.INIT_STD, (5, 2))
                               for _ in range(3)], axis=1)
        np.testing.assert_array_equal(got.data, want.astype(np.float32))

    def test_stored_tensor_is_copied_whatever_the_blocks(self):
        stored = {"w": np.arange(12, dtype=np.float32).reshape(2, 6)}
        got = nt.Parameters(stored=stored).new("w", (2, 6), blocks=3)
        np.testing.assert_array_equal(got.data, stored["w"])
        assert got.data is not stored["w"]

    @pytest.mark.parametrize("blocks", [4, 0])
    def test_blocks_that_do_not_divide_the_last_axis_are_one_line(self, blocks):
        with pytest.raises(ValueError) as err:
            nt.Parameters(np.random.default_rng(0)).new("w", (2, 6), blocks=blocks)
        assert str(err.value) == f"w: {blocks} blocks do not divide the last axis of (2, 6)"
