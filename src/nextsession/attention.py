"""Shared network blocks: multi-head self-attention, feed-forward, gated
recurrent cell, and the pre-normalization encoder block built from them.

Everything here is shape (m, d) in / (m, d) out and mask-driven, so the same
blocks serve both the within-session encoder (full mask) and the causal
sequence encoder (lower-triangular mask).
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


def full_mask(m: int) -> np.ndarray:
    return np.ones((m, m), dtype=bool)


class MultiHeadAttention:
    """Scaled dot-product self-attention with per-head projections."""

    def __init__(self, dim, heads, rng, name="mha"):
        if dim % heads:
            raise ValueError(f"heads ({heads}) must divide dim ({dim})")
        self.dim = dim
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
        if dropout_rate > 0.0:
            a = T.dropout(a, dropout_rate, dropout_rng)
        x = T.add(x, a)
        f = self.ffn(T.layer_norm(x, self.ln2_g, self.ln2_b))
        if dropout_rate > 0.0:
            f = T.dropout(f, dropout_rate, dropout_rng)
        return T.add(x, f)


class GRUCell:
    """Standard gated recurrent cell; operates on (rows, dim) tensors, one
    independent hidden state per row."""

    def __init__(self, in_dim, hidden_dim, rng, name="gru"):
        self.name = name
        self.hidden_dim = hidden_dim
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

    def step(self, x, h):
        z = T.sigmoid(T.add(T.add(T.matmul(x, self.wz), T.matmul(h, self.uz)), self.bz))
        r = T.sigmoid(T.add(T.add(T.matmul(x, self.wr), T.matmul(h, self.ur)), self.br))
        hh = T.tanh(T.add(T.add(T.matmul(x, self.wh), T.matmul(T.mul(r, h), self.uh)), self.bh))
        one_minus_z = T.add(T.mul(z, -1.0), 1.0)
        return T.add(T.mul(one_minus_z, h), T.mul(z, hh))

    def run(self, x_rows):
        """Run over an (m, in_dim) tensor; returns list of m (1, hidden) states."""
        m = x_rows.data.shape[0]
        h = T.Tensor(np.zeros((1, self.hidden_dim), dtype=np.float32))
        states = []
        for t in range(m):
            xt = T.gather(x_rows, np.array([t]))
            h = self.step(xt, h)
            states.append(h)
        return states
