"""numpy-backed tensors with reverse-mode automatic differentiation.

The op set is deliberately small: matrix multiply, broadcast add/mul, a
few activations, layer normalization, row-wise softmax, the sampled
softmax loss over a score matrix, segment reductions, gather, and one
fused recurrent op, ``gru``.  Everything else the model needs is composed
from these, not added.  ``gru`` exists because a recurrence composed from
the elementary ops records about 17 nodes per row and step, so the graph
and its backward would grow with sequence length; as one op it takes
every input projection in one matmul, runs backpropagation through time
in its own closure, and is one node whatever the length.

Each op records its parents and a closure that pushes the output
gradient back to them. ``Tensor.backward`` replays the reachable nodes
in reverse creation order; because ops execute eagerly, creation order
is a valid topological order of the computation record.

Training runs in float32; verification (gradient checks) constructs the
same graphs in float64. Ops never promote dtypes on their own.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Sequence

import numpy as np

_node_ids = itertools.count()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; forwards still compute values."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_nid")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._nid = next(_node_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # an owned copy laid out like data: ops may later add into it in
            # place, and the layout fixes how BLAS sums products of it
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse sweep from a scalar output through the recorded graph."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar output, got shape {self.shape}")
        nodes: list[Tensor] = []
        seen = {id(self)}
        stack = [self]
        while stack:
            t = stack.pop()
            nodes.append(t)
            for p in t._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        self._accumulate(np.ones_like(self.data))
        # creation order is topological; visit in exact reverse
        for t in sorted(nodes, key=lambda n: n._nid, reverse=True):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def parameter(data, dtype=np.float32) -> Tensor:
    """Trainable leaf tensor; float32 unless a verification dtype is forced."""
    return Tensor(data, requires_grad=True, dtype=dtype)


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        data = a.data + b

        def backward(g):
            a._accumulate(_unbroadcast(g, a.shape))

        return _result(data, (a,), backward)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _result(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        data = a.data * b

        def backward(g):
            a._accumulate(_unbroadcast(g * b, a.shape))

        return _result(data, (a,), backward)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2D x 2D product, or 2D x 1D matrix-vector product."""
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = a.data @ b.data
    if b.ndim == 2:

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)

    else:

        def backward(g):
            if a.requires_grad:
                a._accumulate(np.outer(g, b.data))
            if b.requires_grad:
                b._accumulate(a.data.T @ g)

    return _result(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ValueError(f"transpose expects a matrix, got shape {a.shape}")

    def backward(g):
        a._accumulate(g.T)

    return _result(a.data.T, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.shape

    def backward(g):
        a._accumulate(g.reshape(orig))

    return _result(a.data.reshape(shape), (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _result(data, tuple(tensors), backward)


def gather(a: Tensor, indices) -> Tensor:
    """Select rows (2D input) or elements (1D input) along axis 0."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("gather indices must be one-dimensional")
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather index out of range for axis of size {n}")
    data = a.data[idx]

    def backward(g):
        # scatter the rows straight into a's gradient: O(rows), not O(len(a))
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return _result(data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.full_like(a.data, g))

    return _result(np.asarray(a.data.sum(), dtype=a.dtype), (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _result(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - data * data))

    return _result(data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0, else e^x / (1 + e^x): exp never overflows
    e = np.exp(-np.abs(x))
    return (np.where(x >= 0, 1.0, e) / (1.0 + e)).astype(x.dtype, copy=False)


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)

    def backward(g):
        a._accumulate(g * data * (1.0 - data))

    return _result(data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((dxhat - m1 - xhat * m2) * inv)

    return _result(data, (x, gain, bias), backward)


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax; entries where mask is False get probability 0.

    Every row must keep at least one entry.
    """
    s = x.data
    if mask is not None:
        if not mask.any(axis=-1).all():
            raise ValueError("softmax_rows: some row is fully masked")
        s = np.where(mask, s, -np.inf)
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    y = e / e.sum(axis=-1, keepdims=True)
    y = y.astype(x.dtype, copy=False)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        x._accumulate(y * (g - inner))

    return _result(y, (x,), backward)


def sampled_softmax_xent(scores: Tensor, pos_cols, pos_mask, neg_cols, neg_mask) -> Tensor:
    """Sum over valid positives of -log(e^s_p / (e^s_p + sum of e^s_n)).

    ``scores`` is a (rows, U) matrix.  Row i's positives are the columns
    ``pos_cols[i, j]`` where ``pos_mask[i, j]``; its negatives are the
    columns ``neg_cols[i, k]`` where ``neg_mask[i, k]``.  Each positive is
    contrasted only with its row's negatives, never with another positive;
    a column listed twice among the negatives counts twice; a row with no
    valid negative adds nothing.  Each term is computed stably as
    softplus(logsumexp(negatives) - s_p).
    """
    s = scores.data
    if s.ndim != 2:
        raise ValueError(f"scores must be a matrix, got shape {s.shape}")
    n_rows, n_cols = s.shape
    pairs = []
    for cols, mask in ((pos_cols, pos_mask), (neg_cols, neg_mask)):
        cols = np.asarray(cols, dtype=np.int64)
        mask = np.asarray(mask, dtype=bool)
        if cols.ndim != 2 or cols.shape != mask.shape or cols.shape[0] != n_rows:
            raise ValueError(
                f"index {cols.shape} and mask {mask.shape} must both be "
                f"({n_rows}, k) for scores of shape {s.shape}"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise IndexError(f"score column out of range for {n_cols} columns")
        pairs.append((cols, mask))
    (pos_cols, pos_mask), (neg_cols, neg_mask) = pairs

    rows = np.arange(n_rows)[:, None]
    has_neg = neg_mask.any(axis=1, keepdims=True)
    live = pos_mask & has_neg
    neg = np.where(neg_mask, s[rows, neg_cols], -np.inf)
    m = np.where(has_neg, neg.max(axis=1, keepdims=True, initial=-np.inf), 0.0)
    e = np.exp(neg - m)
    total = np.where(has_neg, e.sum(axis=1, keepdims=True), 1.0)
    lse = np.log(total) + m
    x = lse - s[rows, pos_cols]
    softplus = np.logaddexp(0.0, x)
    loss = np.asarray(np.where(live, softplus, 0.0).sum(), dtype=s.dtype)

    def backward(g):
        # d/ds_p = -sigmoid(x); each negative takes its softmax share of
        # the row's summed sigmoids
        sig = np.where(live, np.exp(x - softplus), 0.0)
        d_neg = sig.sum(axis=1, keepdims=True) * (e / total)
        flat = np.concatenate([(rows * n_cols + pos_cols).ravel(),
                               (rows * n_cols + neg_cols).ravel()])
        vals = np.concatenate([-sig.ravel(), d_neg.ravel()]) * g
        grad = np.bincount(flat, weights=vals, minlength=s.size)
        scores._accumulate(grad.reshape(s.shape).astype(s.dtype, copy=False))

    return _result(loss, (scores,), backward)


def _segment_starts(segment_ids, n_rows: int):
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != n_rows:
        raise ValueError(f"segment_ids must have one id per row ({n_rows}), got shape {ids.shape}")
    if ids.size == 0:
        raise ValueError("segment_ids must be non-empty")
    if np.any(np.diff(ids) < 0):
        raise ValueError("segment_ids must be non-decreasing")
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    counts = np.diff(np.r_[starts, ids.shape[0]])
    return starts, counts


def segment_reduce(values: Tensor, segment_ids, mode: str) -> Tensor:
    """Per-segment mean or max over contiguous runs of equal segment ids.

    mean splits the gradient uniformly over a segment's rows; max routes
    it to the first row attaining the maximum in each column.
    """
    if values.ndim != 2:
        raise ValueError(f"segment_reduce expects an n x d matrix, got shape {values.shape}")
    starts, counts = _segment_starts(segment_ids, values.shape[0])
    if mode == "mean":
        sums = np.add.reduceat(values.data, starts, axis=0)
        data = sums / counts[:, None].astype(values.dtype)

        def backward(g):
            values._accumulate(np.repeat(g / counts[:, None], counts, axis=0))

    elif mode == "max":
        data = np.maximum.reduceat(values.data, starts, axis=0)

        def backward(g):
            n = values.shape[0]
            # row index where a row attains its segment's column max, else n;
            # a column with no such row (a NaN max) routes to the segment's
            # first row
            hits = values.data == np.repeat(data, counts, axis=0)
            rows = np.where(hits, np.arange(n)[:, None], n)
            first = np.minimum.reduceat(rows, starts, axis=0)
            first = np.where(first < n, first, starts[:, None])
            # segments are disjoint, so every (row, column) pair is unique
            buf = np.zeros_like(values.data)
            buf[first, np.arange(values.shape[1])] += g
            values._accumulate(buf)

    else:
        raise ValueError(f"unknown segment_reduce mode {mode!r}")
    return _result(data, (values,), backward)


def gru(x: Tensor, lengths, wz: Tensor, uz: Tensor, bz: Tensor, wr: Tensor, ur: Tensor,
        br: Tensor, wh: Tensor, uh: Tensor, bh: Tensor) -> Tensor:
    """Every hidden state of gated recurrent sequences packed row-wise in x.

    ``x`` is (n, in): the ``lengths[0]`` rows of sequence 0, then those of
    sequence 1, and so on.  Each sequence starts from a zero state; row j of
    the (n, d) output is its state after row j.  With h the previous state:

        z  = sigmoid((x·wz + h·uz) + bz)
        r  = sigmoid((x·wr + h·ur) + br)
        h~ = tanh((x·wh + (r*h)·uh) + bh)
        h' = (1 - z)*h + z*h~

    The input projections of all rows are one matmul.  Sequences are taken
    longest first, so those still running at step t are a prefix, and step t
    advances them together.  Backward runs through time inside the op and
    forms each weight gradient as one matmul over all rows.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValueError(f"gru: lengths must be a non-empty list, got {lengths.tolist()}")
    if lengths.min() < 1:
        raise ValueError(f"gru: every sequence needs a row, got lengths {lengths.tolist()}")
    if x.ndim != 2 or lengths.sum() != x.shape[0]:
        raise ValueError(f"gru: lengths sum to {lengths.sum()} but x has shape {x.shape}")
    n, d = x.shape[0], uz.shape[0]
    for name, p, shape in (("wz", wz, (x.shape[1], d)), ("wr", wr, (x.shape[1], d)),
                           ("wh", wh, (x.shape[1], d)), ("uz", uz, (d, d)), ("ur", ur, (d, d)),
                           ("uh", uh, (d, d)), ("bz", bz, (d,)), ("br", br, (d,)), ("bh", bh, (d,))):
        if p.shape != shape:
            raise ValueError(f"gru: {name} has shape {p.shape}, expected {shape}")
    parents = (x, wz, uz, bz, wr, ur, br, wh, uh, bh)
    keep = _grad_enabled and any(p.requires_grad for p in parents)

    # step-major layout: step t's rows are block bounds[t]:bounds[t + 1],
    # sequences longest first (stable); position k holds packed row rows[k]
    order = np.argsort(-lengths, kind="stable")
    active = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0)
    bounds = np.r_[0, np.cumsum(active)]
    step = np.repeat(np.arange(active.size), active)
    first = (np.cumsum(lengths) - lengths)[order]
    rows = first[np.arange(n) - bounds[step]] + step
    back = np.empty_like(rows)  # packed row j sits at position back[j]
    back[rows] = np.arange(n)
    xs = x.data[rows]

    w = np.concatenate([wz.data, wr.data, wh.data], axis=1)
    u_zr = np.concatenate([uz.data, ur.data], axis=1)
    b_zr = np.concatenate([bz.data, br.data])
    xw = xs @ w
    hs = np.empty((n, d), dtype=xw.dtype)
    if keep:
        zr_all, hh_all = np.empty((n, 2 * d), dtype=xw.dtype), np.empty_like(hs)
    h = np.zeros((active[0], d), dtype=xw.dtype)
    for t, a in enumerate(active):
        lo, hi = bounds[t], bounds[t + 1]
        h = h[:a]
        # z and r side by side: the same per-element sums as gate by gate
        zr = _sigmoid((xw[lo:hi, : 2 * d] + h @ u_zr) + b_zr)
        z, r = zr[:, :d], zr[:, d:]
        hh = np.tanh((xw[lo:hi, 2 * d :] + (r * h) @ uh.data) + bh.data)
        h = (z * -1.0 + 1.0) * h + z * hh
        hs[lo:hi] = h
        if keep:
            zr_all[lo:hi], hh_all[lo:hi] = zr, hh
    data = hs[back]
    if not keep:
        return Tensor(data)

    def backward(g):
        gs = g[rows]
        # each position's previous state: the matching row of the step before
        hp = np.zeros_like(hs)
        later = np.arange(active[0], n)
        hp[later] = hs[later - active[step[later] - 1]]
        # the factors that do not depend on the incoming gradient, all rows at once
        z_all, r_all = zr_all[:, :d], zr_all[:, d:]
        one_minus_zr = 1.0 - zr_all
        hh_minus_h = hh_all - hp
        tanh_slope = 1.0 - hh_all * hh_all
        # gradient of the z, r and h~ pre-activations, step-major
        pre = np.empty((n, 3 * d), dtype=hs.dtype)
        carry = None  # gradient reaching step t's states from step t + 1
        for t in range(active.size - 1, -1, -1):
            lo, hi = bounds[t], bounds[t + 1]
            dh = gs[lo:hi]
            if carry is not None:
                dh = dh.copy()
                dh[: carry.shape[0]] += carry
            z, r, one_minus_z = z_all[lo:hi], r_all[lo:hi], one_minus_zr[lo:hi, :d]
            d_hh = dh * z * tanh_slope[lo:hi]
            d_rh = d_hh @ uh.data.T
            pre[lo:hi, :d] = dh * hh_minus_h[lo:hi] * z * one_minus_z
            pre[lo:hi, d : 2 * d] = d_rh * hp[lo:hi] * r * one_minus_zr[lo:hi, d:]
            pre[lo:hi, 2 * d :] = d_hh
            if t:
                carry = dh * one_minus_z + d_rh * r + pre[lo:hi, : 2 * d] @ u_zr.T
        dx, dw = (pre @ w.T)[back], xs.T @ pre
        du, db = hp.T @ pre[:, : 2 * d], pre.sum(axis=0)
        duh = (r_all * hp).T @ pre[:, 2 * d :]
        for p, grad in ((x, dx), (wz, dw[:, :d]), (wr, dw[:, d : 2 * d]), (wh, dw[:, 2 * d :]),
                        (uz, du[:, :d]), (ur, du[:, d:]), (uh, duh),
                        (bz, db[:d]), (br, db[d : 2 * d]), (bh, db[2 * d :])):
            if p.requires_grad:
                p._accumulate(grad)

    return _result(data, parents, backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; the mask is a constant, so this is just a mul."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) / (1.0 - rate)
    return mul(x, Tensor(mask))
