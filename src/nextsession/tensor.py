"""numpy-backed tensors with reverse-mode automatic differentiation.

The op set is deliberately small: matrix multiply, broadcast add/mul, a
few activations, layer normalization, the sampled softmax loss over a
score matrix, segment reductions, gather, a fused perceptron, ``mlp``,
two fused sequence ops, ``gru`` and ``attention``, and a fused encoder
block, ``encoder_block``.  Everything else the model needs is composed
from these, not added.  ``mlp`` exists because the
item embedding and every feed-forward block are one-hidden-layer
perceptrons: composed, each records five nodes and holds four (n, h) or
(n, k) intermediates, which over the whole catalog are four copies of its
size; as one op it records one node, applies the bias and activation in
place on one hidden buffer, and gives the composed chain's floats.
``gru`` exists because a recurrence composed from
the elementary ops records about 17 nodes per row and step, so the graph
and its backward would grow with sequence length; as one op it takes
every input projection in one matmul, runs backpropagation through time
in its own closure, and is one node whatever the length.  ``attention``
exists for the same reason: composed, multi-head attention records about
eight nodes per head, and keeping packed sequences apart takes a dense
mask over all their rows, so cost grows with the square of the total
length; as one op it takes every projection in one matmul, scores each
sequence only against itself, and is one node whatever the number and
length of the sequences.  Both take each weight in the layout they
compute in, and backward accumulates one gradient into it.
``encoder_block`` exists because a pre-normalization block composed from
``layer_norm``, ``attention``, ``dropout``, ``add`` and ``mlp`` records six
nodes, and on the short session sequences of training each costs more in
per-node overhead than in arithmetic; as one op its backward runs the same
steps in the same order inside one closure.  The fused ops share their
math through private array-level helpers (``_layer_norm``, ``_attention``,
``_mlp`` and their backwards), so each formula has one copy, and the
block's floats are those of the chain it fuses.

Ragged data has one form: sequences packed row-wise in an (n, ...) array
plus ``lengths``, the int64 row count of each, in packing order.
``segment_reduce``, ``gru``, ``attention`` and ``encoder_block`` all take
it, and ``check_lengths`` is its one check, so a bad lengths array gets the
same message from every op and every encoder built on them.

Each op records its parents and a closure that pushes the output
gradient back to them. ``Tensor.backward`` replays the reachable nodes
in reverse creation order; because ops execute eagerly, creation order
is a valid topological order of the computation record.  Once a node's
closure has run, backward drops the node's gradient, its closure and its
links to its parents, so each intermediate's buffers are freed as soon as
the sweep is past it, and the peak memory of a step is not the forward
graph plus every intermediate gradient.  A graph is therefore
back-propagated once; leaf tensors (parameters and inputs) keep their
gradients, which accumulate over backward calls until reset.

A leaf's gradient is always a dense buffer of its shape, but a leaf that
only ``gather`` has written into also keeps ``rows``: the index array of
each such gather, so an optimizer can update just the rows a step touched.
Any other write (an op's ``_accumulate``, or assigning ``grad``) makes the
gradient dense and sets ``rows`` to None.  ``gather`` adds its rows with
one fancy-index add when its indices are strictly increasing (an
``arange`` over a catalog, or ids from ``np.unique``), which gives the
same sums as ``np.add.at``, and with ``np.add.at`` when they repeat.

Training runs in float32; verification (gradient checks) constructs the
same graphs in float64. Ops never promote dtypes on their own.

A model's trainable leaves live in one ``Parameters`` store, which every
module declares its weights in; the same declarations draw a fresh
initialisation from an rng or take a checkpoint's tensors.
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
    """A dense float array plus an optional gradient buffer.

    ``rows`` is None unless the gradient holds only rows that ``gather``
    scattered into this leaf; then it lists each gather's index array.
    Assigning ``grad`` (``None`` included) clears it.
    """

    __slots__ = ("data", "_grad", "rows", "requires_grad", "_parents", "_backward", "_nid",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self._grad: np.ndarray | None = None
        self.rows: list[np.ndarray] | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._nid = next(_node_ids)

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._grad = g
        self.rows = None

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
            self.grad += g  # an assignment to grad, so it clears rows

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
        # creation order is topological; visit in exact reverse, popping
        # each node so that this list does not keep a spent one alive
        nodes.sort(key=lambda n: n._nid)
        while nodes:
            t = nodes.pop()
            if t._backward is None:
                continue  # a leaf keeps its gradient
            if t.grad is not None:
                t._backward(t.grad)
            t.grad, t._backward, t._parents = None, None, ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def parameter(data, dtype=np.float32) -> Tensor:
    """Trainable leaf tensor; float32 unless a verification dtype is forced."""
    return Tensor(data, requires_grad=True, dtype=dtype)


class Parameters(dict):
    """A model's parameter store: name -> trainable ``Tensor``, in creation
    order.

    Each module declares a weight once, with ``new``.  A store made from
    an ``rng`` draws each weight from normal(0, ``INIT_STD``), in the order
    the weights are declared, or fills it with a constant.  A store made
    from ``stored`` arrays (a checkpoint's tensors) draws nothing: it copies
    the array of that name instead, so the parameter owns its buffer.  A
    drawn weight declared with ``blocks`` is that many equal blocks along its
    last axis, drawn one after another and joined: a stacked weight then
    holds the values its pieces would get as weights of their own.
    """

    INIT_STD = 0.02

    def __init__(self, rng: np.random.Generator | None = None, stored: dict | None = None):
        super().__init__()
        self.rng = rng
        self.stored = stored

    def new(self, name: str, shape, fill: float | None = None, blocks: int = 1) -> Tensor:
        shape = tuple(shape)
        if blocks < 1 or shape[-1] % blocks:
            raise ValueError(f"{name}: {blocks} blocks do not divide the last axis of {shape}")
        if self.stored is not None:
            if name not in self.stored:
                raise ValueError(f"checkpoint has no tensor {name!r}")
            data = np.array(self.stored[name])
            if data.shape != shape:
                raise ValueError(
                    f"checkpoint tensor {name!r} has shape {data.shape}, model expects {shape}"
                )
        elif fill is None:
            block = shape[:-1] + (shape[-1] // blocks,)
            data = np.concatenate([self.rng.normal(0.0, self.INIT_STD, size=block)
                                   for _ in range(blocks)], axis=-1)
        else:
            data = np.full(shape, fill)
        self[name] = p = parameter(data)
        return p


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
    """2D x 2D matrix product."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _result(a.data @ b.data, (a, b), backward)


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
    """Select rows (2D input) or elements (1D input) along axis 0.

    Backward adds each output row into ``a``'s gradient in place, with one
    fancy-index add when the indices are strictly increasing (each row is
    then added once, so the sums equal ``np.add.at``'s) and ``np.add.at``
    otherwise.  When ``a`` is a leaf whose gradient only gathers have
    written, the indices are appended to ``a.rows``.
    """
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
            if a._backward is None:
                a.rows = []
        if a.rows is not None:
            a.rows.append(idx)
        if np.all(idx[1:] > idx[:-1]):
            a.grad[idx] += g
        else:
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


def _check_mlp(x_shape, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> None:
    m = x_shape[1] if len(x_shape) == 2 else -1
    h = w1.shape[1] if w1.ndim == 2 else -1
    k = w2.shape[1] if w2.ndim == 2 else -1
    if (len(x_shape) != 2 or w1.shape != (m, h) or b1.shape != (h,) or w2.shape != (h, k)
            or b2.shape != (k,)):
        raise ValueError(f"mlp: x {x_shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape} and "
                         f"b2 {b2.shape} must be (n, m), (m, h), (h,), (h, k) and (k,)")


def _mlp(x: np.ndarray, w1, b1, w2, b2, activation: str):
    """``mlp``'s forward on arrays: the output and the hidden buffer."""
    hidden = x @ w1
    hidden += b1
    if activation == "tanh":
        np.tanh(hidden, out=hidden)
    else:
        np.maximum(hidden, 0, out=hidden)
    data = hidden @ w2
    data += b2
    return data, hidden


def _mlp_backward(g, x: np.ndarray, hidden, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                  activation: str, want_dx: bool):
    """``mlp``'s backward: accumulates into the weights that need it and
    returns the gradient of the input ``x`` when ``want_dx``, else None."""
    if b2.requires_grad:
        b2._accumulate(_unbroadcast(g, b2.shape))
    if w2.requires_grad:
        w2._accumulate(hidden.T @ g)
    if not (want_dx or w1.requires_grad or b1.requires_grad):
        return None
    dh = g @ w2.data.T
    # the activation's slope, from its output: tanh' = 1 - tanh^2, and
    # relu(a) > 0 exactly where a > 0
    dh *= (1.0 - hidden * hidden) if activation == "tanh" else (hidden > 0)
    if b1.requires_grad:
        b1._accumulate(_unbroadcast(dh, b1.shape))
    if w1.requires_grad:
        w1._accumulate(x.T @ dh)
    return dh @ w1.data.T if want_dx else None


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, activation: str) -> Tensor:
    """One-hidden-layer perceptron ``act(x·w1 + b1)·w2 + b2`` as one node.

    ``x`` is (n, m), ``w1`` (m, h), ``b1`` (h,), ``w2`` (h, k) and ``b2``
    (k,); ``activation`` is ``"tanh"`` or ``"relu"``.  The bias and the
    activation are applied in place on the one (n, h) hidden buffer, which
    backward keeps.  Forward and backward compute what the chain of
    ``matmul``, ``add``, the activation, ``matmul`` and ``add`` computes,
    with the same formulas in the same order, so every value and gradient
    is the same float.
    """
    if activation not in ("tanh", "relu"):
        raise ValueError(f"mlp: unknown activation {activation!r}, expected 'tanh' or 'relu'")
    _check_mlp(x.shape, w1, b1, w2, b2)
    data, hidden = _mlp(x.data, w1.data, b1.data, w2.data, b2.data, activation)

    def backward(g):
        dx = _mlp_backward(g, x.data, hidden, w1, b1, w2, b2, activation, x.requires_grad)
        if dx is not None:
            x._accumulate(dx)

    return _result(data, (x, w1, b1, w2, b2), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0, else e^x / (1 + e^x): exp never overflows
    e = np.exp(-np.abs(x))
    return (np.where(x >= 0, 1.0, e) / (1.0 + e)).astype(x.dtype, copy=False)


def _layer_norm(x: np.ndarray, gain, bias, eps: float = 1e-5):
    """``layer_norm``'s forward on arrays: the output, and the normalized
    rows and inverse deviations that backward needs."""
    # one reduction per statistic; a sum over d divided by d rounds as mean does
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d  # centred, then scaled in place
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_backward(g, xhat, inv, gain: Tensor, bias: Tensor, want_dx: bool):
    """``layer_norm``'s backward: accumulates into ``gain`` and ``bias`` when
    they need it and returns the input's gradient when ``want_dx``, else None."""
    if gain.requires_grad:
        gain._accumulate(_unbroadcast(g * xhat, gain.shape))
    if bias.requires_grad:
        bias._accumulate(_unbroadcast(g, bias.shape))
    if not want_dx:
        return None
    d = xhat.shape[-1]
    dxhat = g * gain.data
    m1 = dxhat.sum(axis=-1, keepdims=True) / d
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    return (dxhat - m1 - xhat * m2) * inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row over the last axis, then scale and shift."""
    data, xhat, inv = _layer_norm(x.data, gain.data, bias.data, eps)

    def backward(g):
        dx = _layer_norm_backward(g, xhat, inv, gain, bias, x.requires_grad)
        if dx is not None:
            x._accumulate(dx)

    return _result(data, (x, gain, bias), backward)


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
        vals = np.concatenate([-sig.ravel(), d_neg.ravel()])
        vals *= g
        # sum each cell's terms in float64, in the order listed, round once
        # to the scores' dtype, and add into the gradient in place
        sums = np.bincount(flat, weights=vals, minlength=s.size).astype(s.dtype)
        grad = np.zeros(s.shape, dtype=s.dtype) if scores.grad is None else scores.grad
        grad += sums.reshape(s.shape)
        scores.grad = grad

    return _result(loss, (scores,), backward)


def check_lengths(lengths, rows: int) -> np.ndarray:
    """``lengths`` as int64, checked to be the row count of each sequence
    packed in ``rows`` rows: one-dimensional, non-empty, every count >= 1,
    summing to ``rows``.  Anything else raises a one-line ValueError that
    shows the lengths.  This is the one check of the ragged form that
    ``segment_reduce``, ``gru``, ``attention``, ``encoder_block`` and the
    encoders take.
    """
    try:
        arr = np.asarray(lengths, dtype=np.int64)
    except (TypeError, ValueError):  # ragged nesting, or not numbers
        arr = None
    if arr is None or arr.ndim != 1 or arr.size == 0 or arr.min() < 1 or arr.sum() != rows:
        shown = lengths if arr is None else arr.tolist()
        raise ValueError(f"lengths {shown} must be a non-empty 1-D list of counts >= 1 "
                         f"summing to the {rows} rows")
    return arr


def segment_reduce(values: Tensor, lengths, mode: str) -> Tensor:
    """Per-sequence mean or max over the sequences packed row-wise in
    ``values``: the ``lengths[0]`` rows of sequence 0, then those of
    sequence 1, and so on; output row i reduces sequence i.

    mean splits the gradient uniformly over a sequence's rows; max routes
    it to the first row attaining the maximum in each column.
    """
    if values.ndim != 2:
        raise ValueError(f"segment_reduce expects an n x d matrix, got shape {values.shape}")
    counts = check_lengths(lengths, values.shape[0])
    starts = np.cumsum(counts) - counts
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


def gru(x: Tensor, lengths, w: Tensor, b: Tensor) -> Tensor:
    """Every hidden state of gated recurrent sequences packed row-wise in x.

    ``x`` is (n, in): the ``lengths[0]`` rows of sequence 0, then those of
    sequence 1, and so on.  Each sequence starts from a zero state; row j of
    the (n, d) output is its state after row j.  ``w`` is (in + d, 3d): its
    first ``in`` rows act on the input and the other d rows on the state,
    and its column blocks, like those of the (3d,) bias ``b``, are the z, r
    and h~ gates.  With h the previous state and [x, h] side by side:

        z  = sigmoid([x, h]·w_z + b_z)
        r  = sigmoid([x, h]·w_r + b_r)
        h~ = tanh([x, r*h]·w_h + b_h)
        h' = (1 - z)*h + z*h~

    The input projections of all rows are one matmul.  Sequences are taken
    longest first, so those still running at step t are a prefix, and step t
    advances them together.  Backward runs through time inside the op and
    forms the gradient of ``w`` from one matmul over all rows per row block.
    """
    if x.ndim != 2:
        raise ValueError(f"gru: x must be a matrix, got shape {x.shape}")
    lengths = check_lengths(lengths, x.shape[0])
    n, m = x.shape
    d = w.shape[1] // 3 if w.ndim == 2 else 0
    if not d or w.shape != (m + d, 3 * d) or b.shape != (3 * d,):
        raise ValueError(f"gru: w {w.shape} and b {b.shape} must be ({m} + d, 3d) and (3d,)")
    parents = (x, w, b)
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

    wx, b_zr, bh = w.data[:m], b.data[: 2 * d], b.data[2 * d :]
    # contiguous state blocks: BLAS may round a product with a strided view differently
    u_zr, uh = (np.ascontiguousarray(u) for u in np.split(w.data[m:], [2 * d], axis=1))
    xw = xs @ wx
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
        hh = np.tanh((xw[lo:hi, 2 * d :] + (r * h) @ uh) + bh)
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
            d_rh = d_hh @ uh.T
            pre[lo:hi, :d] = dh * hh_minus_h[lo:hi] * z * one_minus_z
            pre[lo:hi, d : 2 * d] = d_rh * hp[lo:hi] * r * one_minus_zr[lo:hi, d:]
            pre[lo:hi, 2 * d :] = d_hh
            if t:
                carry = dh * one_minus_z + d_rh * r + pre[lo:hi, : 2 * d] @ u_zr.T
        dw = np.block([[xs.T @ pre], [hp.T @ pre[:, : 2 * d], (r_all * hp).T @ pre[:, 2 * d :]]])
        for p, grad in ((x, (pre @ wx.T)[back]), (w, dw), (b, pre.sum(axis=0))):
            if p.requires_grad:
                p._accumulate(grad)

    return _result(data, parents, backward)


def _check_attention(x: Tensor, lengths, heads: int, wqkv: Tensor, wo: Tensor) -> np.ndarray:
    """Raise on inputs ``attention`` cannot take; return ``lengths`` checked."""
    if x.ndim != 2:
        raise ValueError(f"attention: x must be a matrix, got shape {x.shape}")
    lengths = check_lengths(lengths, x.shape[0])
    d = x.shape[1]
    if heads < 1 or d % heads:
        raise ValueError(f"attention: heads ({heads}) must be >= 1 and divide d = {d}")
    if wqkv.shape != (d, 3 * d):
        raise ValueError(f"attention: wqkv has shape {wqkv.shape}, expected {(d, 3 * d)}")
    if wo.ndim != 2 or wo.shape[0] != d:
        raise ValueError(f"attention: wo has shape {wo.shape}, expected ({d}, k)")
    return lengths


def _attention(x: np.ndarray, lengths: np.ndarray, causal: bool, heads: int, wqkv, wo,
               keep: bool):
    """``attention``'s forward on arrays: the output and what backward
    needs, ``(qkv, merged, groups)``, whose ``groups`` are empty unless
    ``keep``."""
    n, d = x.shape
    hd = d // heads
    qkv = x @ wqkv
    scale = 1.0 / np.sqrt(hd)
    starts = np.cumsum(lengths) - lengths
    groups = []  # (rows, probabilities) of each length's sequences
    merged = np.empty((n, d), dtype=qkv.dtype)
    for ln in np.unique(lengths):
        rows = starts[lengths == ln][:, None] + np.arange(ln)  # (b, ln)
        # (3, b, heads, ln, hd): queries, keys, values per sequence and head
        q, k, v = qkv[rows].reshape(rows.shape + (3, heads, hd)).transpose(2, 0, 3, 1, 4)
        s = q @ k.swapaxes(-1, -2)
        s *= scale
        if causal:
            np.copyto(s, -np.inf, where=~np.tri(ln, dtype=bool))
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        merged[rows] = (s @ v).transpose(0, 2, 1, 3).reshape(rows.shape + (d,))
        if keep:
            groups.append((rows, s))
    return merged @ wo, (qkv, merged, groups)


def _attention_backward(g, x: np.ndarray, saved, heads: int, wqkv: Tensor, wo: Tensor,
                        want_dx: bool):
    """``attention``'s backward: accumulates into ``wqkv`` and ``wo`` when
    they need it and returns the input's gradient when ``want_dx``, else None."""
    qkv, merged, groups = saved
    d = x.shape[1]
    hd = d // heads
    scale = 1.0 / np.sqrt(hd)
    d_merged = g @ wo.data.T
    d_qkv = np.empty_like(qkv)
    for rows, p in groups:
        q, k, v = qkv[rows].reshape(rows.shape + (3, heads, hd)).transpose(2, 0, 3, 1, 4)
        d_o = d_merged[rows].reshape(rows.shape + (heads, hd)).transpose(0, 2, 1, 3)
        d_v = p.swapaxes(-1, -2) @ d_o
        # softmax backward: p * (dp - rowsum(dp * p)), then the scale
        d_s = d_o @ v.swapaxes(-1, -2)
        d_s -= (d_s * p).sum(axis=-1, keepdims=True)
        d_s *= p
        d_s *= scale
        d_q, d_k = d_s @ k, d_s.swapaxes(-1, -2) @ q
        d_qkv[rows] = np.stack([d_q, d_k, d_v], axis=2).transpose(0, 3, 2, 1, 4).reshape(
            rows.shape + (3 * d,))
    if wqkv.requires_grad:
        wqkv._accumulate(x.T @ d_qkv)
    if wo.requires_grad:
        wo._accumulate(merged.T @ g)
    return d_qkv @ wqkv.data.T if want_dx else None


def attention(x: Tensor, lengths, causal: bool, heads: int, wqkv: Tensor, wo: Tensor) -> Tensor:
    """Multi-head scaled dot-product self-attention within each of the
    sequences packed row-wise in x.

    ``x`` is (n, d): the ``lengths[0]`` rows of sequence 0, then those of
    sequence 1, and so on.  A row attends only to the rows of its own
    sequence, and with ``causal`` only to those up to itself.  ``wqkv`` is
    the (d, 3d) projection whose column blocks of d / ``heads`` are the
    query projections of heads 0 to heads - 1, then their key projections,
    then their value projections; ``wo`` is the (d, d') output projection.
    Per head,

        softmax((x·wq)(x·wk)ᵀ / sqrt(d / heads)) · (x·wv)

    and the heads side by side are multiplied by ``wo``.  The queries, keys
    and values of all heads are one matmul.  Sequences of equal length are
    stacked into one batched matmul, so the scores cost the sum of squared
    lengths, and no mask is formed but the causal triangle.  Backward runs
    inside the op.
    """
    lengths = _check_attention(x, lengths, heads, wqkv, wo)
    parents = (x, wqkv, wo)
    keep = _grad_enabled and any(p.requires_grad for p in parents)
    data, saved = _attention(x.data, lengths, causal, heads, wqkv.data, wo.data, keep)
    if not keep:
        return Tensor(data)

    def backward(g):
        dx = _attention_backward(g, x.data, saved, heads, wqkv, wo, x.requires_grad)
        if dx is not None:
            x._accumulate(dx)

    return _result(data, parents, backward)


def encoder_block(x: Tensor, lengths, causal: bool, heads: int, ln1, attn, ln2, ffn,
                  dropout_rate: float = 0.0, dropout_rng: np.random.Generator | None = None
                  ) -> Tensor:
    """A pre-normalization encoder block over the sequences packed row-wise
    in x, as one node:

        h   = x + dropout(attention(layer_norm(x, *ln1), lengths, causal, heads, *attn))
        out = h + dropout(mlp(layer_norm(h, *ln2), *ffn, "relu"))

    ``ln1`` and ``ln2`` are ``(gain, bias)`` pairs, ``attn`` is ``(wqkv,
    wo)`` and ``ffn`` is ``(w1, b1, w2, b2)``, each in the layout of its op.
    Forward and backward run the formulas of ``layer_norm``, ``attention``
    and ``mlp`` through the helpers those ops run, in the order of the chain
    that composes them from ``layer_norm``, ``attention``, ``dropout``,
    ``add`` and ``mlp``, so every value and gradient is that chain's float;
    the two dropout masks are drawn from ``dropout_rng`` as the chain draws
    them, first the attention's, then the feed-forward's.
    """
    (ln1_g, ln1_b), (wqkv, wo), (ln2_g, ln2_b), (w1, b1, w2, b2) = ln1, attn, ln2, ffn
    lengths = _check_attention(x, lengths, heads, wqkv, wo)
    _check_mlp(x.shape, w1, b1, w2, b2)
    parents = (x, ln1_g, ln1_b, wqkv, wo, ln2_g, ln2_b, w1, b1, w2, b2)
    keep = _grad_enabled and any(p.requires_grad for p in parents)

    # each branch's output is a fresh array that backward does not read, so
    # its dropout and residual add are applied in place (x + y == y + x in
    # floats); fewer allocations
    a, xhat1, inv1 = _layer_norm(x.data, ln1_g.data, ln1_b.data)
    h, saved = _attention(a, lengths, causal, heads, wqkv.data, wo.data, keep)
    mask1 = _dropout_mask(dropout_rate, dropout_rng, h.shape, h.dtype)
    if mask1 is not None:
        h *= mask1
    h += x.data
    if not keep:
        # freed before the feed-forward runs, as the composed chain frees
        # them: held, they slowed a 60-user validation block's forward by a
        # third (one BLAS thread, 2 vCPUs)
        a = xhat1 = inv1 = saved = None
    e, xhat2, inv2 = _layer_norm(h, ln2_g.data, ln2_b.data)
    data, hidden = _mlp(e, w1.data, b1.data, w2.data, b2.data, "relu")
    mask2 = _dropout_mask(dropout_rate, dropout_rng, data.shape, data.dtype)
    if mask2 is not None:
        data *= mask2
    data += h
    if not keep:
        return Tensor(data)
    # which of the chain's intermediates need a gradient: a = layer_norm(x),
    # h, and e = layer_norm(h)
    a_grad = any(p.requires_grad for p in (x, ln1_g, ln1_b))
    h_grad = a_grad or wqkv.requires_grad or wo.requires_grad
    e_grad = h_grad or ln2_g.requires_grad or ln2_b.requires_grad

    def backward(g):
        de = _mlp_backward(g if mask2 is None else g * mask2, e, hidden, w1, b1, w2, b2, "relu",
                           e_grad)
        if not e_grad:
            return
        dh = _layer_norm_backward(de, xhat2, inv2, ln2_g, ln2_b, h_grad)
        if not h_grad:
            return
        dh += g  # h's gradient: the norm's plus the second residual's
        if x.requires_grad:
            x._accumulate(dh)  # the first residual's share comes first
        da = _attention_backward(dh if mask1 is None else dh * mask1, a, saved, heads, wqkv, wo,
                                 a_grad)
        if a_grad:
            dx = _layer_norm_backward(da, xhat1, inv1, ln1_g, ln1_b, x.requires_grad)
            if dx is not None:
                x._accumulate(dx)

    return _result(data, parents, backward)


def _dropout_mask(rate: float, rng: np.random.Generator | None, shape, dtype):
    """The inverted-dropout mask of one draw from ``rng``, or None at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / (1.0 - rate)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; the mask is a constant, so this is just a mul."""
    mask = _dropout_mask(rate, rng, x.shape, x.dtype)
    return x if mask is None else mul(x, Tensor(mask))
