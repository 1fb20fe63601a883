"""Shared network blocks: multi-head self-attention, feed-forward, the
pre-normalization encoder block built from them, and a gated recurrent cell.

The attention blocks are shape (m, d) in / (m, d) out and mask-driven, so
the same blocks serve both the within-session encoder (block-diagonal mask,
one block per session) and the causal sequence encoder (block-diagonal and
lower-triangular, one block per user).  ``over_groups`` bounds the rows
that one packed mask covers.  The recurrent cell takes packed ragged
sequences and their lengths and returns every hidden state, one
``tensor.gru`` op per call: the within-session encoder passes one sequence
per session, the sequence encoder one sequence per user.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T

INIT_STD = 0.02


def _init(rng, *shape):
    return T.parameter(rng.normal(0.0, INIT_STD, size=shape))


def causal_mask(m: int) -> np.ndarray:
    """Row i may attend to columns 0..i."""
    return np.tril(np.ones((m, m), dtype=bool))


def block_mask(lengths, causal: bool) -> np.ndarray:
    """The mask of sequences of ``lengths`` rows packed one after another:
    a row attends only within its own sequence, and with ``causal`` only
    to that sequence's rows up to its own."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    mask = seg[:, None] == seg[None, :]
    return mask & causal_mask(seg.size) if causal else mask


def over_groups(x, lengths, budget: int, fn):
    """``fn(rows, lengths)`` over groups of consecutive sequences packed
    row-wise in ``x``, the outputs stacked in order.

    A packed mask costs the square of its rows, so sequences are grouped
    greedily, in order, into runs of at most ``budget`` rows; a longer
    sequence is a group of its own.  When every sequence fits in one group,
    ``fn`` sees ``x`` itself.
    """
    bounds, total = [0], 0
    for i, n in enumerate(lengths.tolist()):
        if total and total + n > budget:
            bounds.append(i)
            total = 0
        total += n
    bounds.append(len(lengths))
    if len(bounds) == 2:
        return fn(x, lengths)
    starts = np.r_[0, np.cumsum(lengths)]
    return T.concat([fn(T.gather(x, np.arange(starts[a], starts[b])), lengths[a:b])
                     for a, b in zip(bounds, bounds[1:])], axis=0)


class MultiHeadAttention:
    """Scaled dot-product self-attention with per-head projections."""

    def __init__(self, dim, heads, rng, name="mha"):
        if dim % heads:
            raise ValueError(f"heads ({heads}) must divide dim ({dim})")
        self.heads = heads
        self.head_dim = dim // heads
        self.name = name
        self.wq = [_init(rng, dim, self.head_dim) for _ in range(heads)]
        self.wk = [_init(rng, dim, self.head_dim) for _ in range(heads)]
        self.wv = [_init(rng, dim, self.head_dim) for _ in range(heads)]
        self.wo = _init(rng, dim, dim)

    def parameters(self):
        params = {f"{self.name}.wo": self.wo}
        for h in range(self.heads):
            params[f"{self.name}.h{h}.wq"] = self.wq[h]
            params[f"{self.name}.h{h}.wk"] = self.wk[h]
            params[f"{self.name}.h{h}.wv"] = self.wv[h]
        return params

    def __call__(self, x, mask):
        scale = 1.0 / np.sqrt(self.head_dim)
        outs = []
        for h in range(self.heads):
            q = T.matmul(x, self.wq[h])
            k = T.matmul(x, self.wk[h])
            v = T.matmul(x, self.wv[h])
            scores = T.mul(T.matmul(q, T.transpose(k)), scale)
            probs = T.softmax_rows(scores, mask)
            outs.append(T.matmul(probs, v))
        merged = outs[0] if len(outs) == 1 else T.concat(outs, axis=1)
        return T.matmul(merged, self.wo)


class FeedForward:
    def __init__(self, dim, rng, hidden_mult=4, name="ffn"):
        self.name = name
        self.w1 = _init(rng, dim, hidden_mult * dim)
        self.b1 = T.parameter(np.zeros(hidden_mult * dim))
        self.w2 = _init(rng, hidden_mult * dim, dim)
        self.b2 = T.parameter(np.zeros(dim))

    def parameters(self):
        return {
            f"{self.name}.w1": self.w1,
            f"{self.name}.b1": self.b1,
            f"{self.name}.w2": self.w2,
            f"{self.name}.b2": self.b2,
        }

    def __call__(self, x):
        h = T.relu(T.add(T.matmul(x, self.w1), self.b1))
        return T.add(T.matmul(h, self.w2), self.b2)


class EncoderBlock:
    """Pre-normalization block: x + MHA(LN(x)), then x + FFN(LN(x))."""

    def __init__(self, dim, heads, rng, name="block"):
        self.name = name
        self.mha = MultiHeadAttention(dim, heads, rng, name=f"{name}.mha")
        self.ffn = FeedForward(dim, rng, name=f"{name}.ffn")
        self.ln1_g = T.parameter(np.ones(dim))
        self.ln1_b = T.parameter(np.zeros(dim))
        self.ln2_g = T.parameter(np.ones(dim))
        self.ln2_b = T.parameter(np.zeros(dim))

    def parameters(self):
        params = {
            f"{self.name}.ln1_g": self.ln1_g,
            f"{self.name}.ln1_b": self.ln1_b,
            f"{self.name}.ln2_g": self.ln2_g,
            f"{self.name}.ln2_b": self.ln2_b,
        }
        params.update(self.mha.parameters())
        params.update(self.ffn.parameters())
        return params

    def __call__(self, x, mask, dropout_rate=0.0, dropout_rng=None):
        a = self.mha(T.layer_norm(x, self.ln1_g, self.ln1_b), mask)
        x = T.add(x, T.dropout(a, dropout_rate, dropout_rng))
        f = self.ffn(T.layer_norm(x, self.ln2_g, self.ln2_b))
        return T.add(x, T.dropout(f, dropout_rate, dropout_rng))


class GRUCell:
    """The nine parameters of a gated recurrent cell; calling it runs
    ``tensor.gru`` over packed ragged sequences with them."""

    def __init__(self, in_dim, hidden_dim, rng, name="gru"):
        self.name = name
        self.wz = _init(rng, in_dim, hidden_dim)
        self.uz = _init(rng, hidden_dim, hidden_dim)
        self.bz = T.parameter(np.zeros(hidden_dim))
        self.wr = _init(rng, in_dim, hidden_dim)
        self.ur = _init(rng, hidden_dim, hidden_dim)
        self.br = T.parameter(np.zeros(hidden_dim))
        self.wh = _init(rng, in_dim, hidden_dim)
        self.uh = _init(rng, hidden_dim, hidden_dim)
        self.bh = T.parameter(np.zeros(hidden_dim))

    def parameters(self):
        return {
            f"{self.name}.{k}": v
            for k, v in [
                ("wz", self.wz), ("uz", self.uz), ("bz", self.bz),
                ("wr", self.wr), ("ur", self.ur), ("br", self.br),
                ("wh", self.wh), ("uh", self.uh), ("bh", self.bh),
            ]
        }

    def __call__(self, x, lengths):
        """(n, in_dim) rows of sequences of ``lengths`` rows each -> (n, hidden)
        states; every sequence starts from a zero state."""
        return T.gru(x, lengths, self.wz, self.uz, self.bz, self.wr, self.ur, self.br,
                     self.wh, self.uh, self.bh)
