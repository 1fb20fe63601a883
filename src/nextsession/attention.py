"""Shared network blocks: multi-head self-attention, feed-forward, the
pre-normalization encoder block built from them, and a gated recurrent cell.

Both the attention blocks and the recurrent cell take packed ragged
sequences, (n, d) rows plus the row count of each sequence, and keep the
sequences apart.  Attention is one ``tensor.attention`` op per block,
within each sequence and, when ``causal``, only to the rows up to its
own; the recurrent cell is one ``tensor.gru`` op per call and returns
every hidden state.  The within-session encoder passes one sequence per
session, the sequence encoder one sequence per user.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T

INIT_STD = 0.02


def _init(rng, *shape):
    return T.parameter(rng.normal(0.0, INIT_STD, size=shape))


class MultiHeadAttention:
    """Scaled dot-product self-attention with per-head projections."""

    def __init__(self, dim, heads, rng, name="mha"):
        if dim % heads:
            raise ValueError(f"heads ({heads}) must divide dim ({dim})")
        self.heads = heads
        self.name = name
        head_dim = dim // heads
        self.wq = [_init(rng, dim, head_dim) for _ in range(heads)]
        self.wk = [_init(rng, dim, head_dim) for _ in range(heads)]
        self.wv = [_init(rng, dim, head_dim) for _ in range(heads)]
        self.wo = _init(rng, dim, dim)

    def parameters(self):
        params = {f"{self.name}.wo": self.wo}
        for h in range(self.heads):
            params[f"{self.name}.h{h}.wq"] = self.wq[h]
            params[f"{self.name}.h{h}.wk"] = self.wk[h]
            params[f"{self.name}.h{h}.wv"] = self.wv[h]
        return params

    def __call__(self, x, lengths, causal):
        """Attention within each sequence of ``lengths`` rows packed in x;
        see ``tensor.attention``."""
        return T.attention(x, lengths, causal, self.wq, self.wk, self.wv, self.wo)


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

    def __call__(self, x, lengths, causal, dropout_rate=0.0, dropout_rng=None):
        a = self.mha(T.layer_norm(x, self.ln1_g, self.ln1_b), lengths, causal)
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
