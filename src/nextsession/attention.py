"""Shared network blocks: multi-head self-attention, feed-forward, the
pre-normalization encoder block built from them, and a gated recurrent cell.

Each block declares its weights in the model's ``tensor.Parameters`` store
under the name prefix it is given, in a fixed order: that order is the
order of the initial draws.  Weights are stored in the layout their op
computes in and drawn block by block (``Parameters.new``'s ``blocks``).

Both the attention blocks and the recurrent cell take packed ragged
sequences, (n, d) rows plus the row count of each sequence, and keep the
sequences apart.  Attention is one ``tensor.attention`` op per block,
within each sequence and, when ``causal``, only to the rows up to its
own; the recurrent cell is one ``tensor.gru`` op per call and returns
every hidden state.  The within-session encoder passes one sequence per
session, the sequence encoder one sequence per user.
"""

from __future__ import annotations

from . import tensor as T


class MultiHeadAttention:
    """Scaled dot-product self-attention: one (d, 3d) query, key and value
    projection, ``wqkv``, and the output projection ``wo``."""

    def __init__(self, dim, heads, params, name):
        if heads < 1 or dim % heads:
            raise ValueError(f"heads ({heads}) must be >= 1 and divide dim ({dim})")
        self.heads = heads
        # one draw per head and projection: q of every head, then k, then v
        self.wqkv = params.new(f"{name}.wqkv", (dim, 3 * dim), blocks=3 * heads)
        self.wo = params.new(f"{name}.wo", (dim, dim))

    def __call__(self, x, lengths, causal):
        """Attention within each sequence of ``lengths`` rows packed in x;
        see ``tensor.attention``."""
        return T.attention(x, lengths, causal, self.heads, self.wqkv, self.wo)


class FeedForward:
    """Two-layer ReLU perceptron with a hidden width of 4 * dim."""

    def __init__(self, dim, params, name):
        self.w1 = params.new(f"{name}.w1", (dim, 4 * dim))
        self.b1 = params.new(f"{name}.b1", (4 * dim,), fill=0.0)
        self.w2 = params.new(f"{name}.w2", (4 * dim, dim))
        self.b2 = params.new(f"{name}.b2", (dim,), fill=0.0)

    def __call__(self, x):
        return T.mlp(x, self.w1, self.b1, self.w2, self.b2, "relu")


class EncoderBlock:
    """Pre-normalization block: x + MHA(LN(x)), then x + FFN(LN(x))."""

    def __init__(self, dim, heads, params, name):
        self.mha = MultiHeadAttention(dim, heads, params, f"{name}.mha")
        self.ffn = FeedForward(dim, params, f"{name}.ffn")
        self.ln1_g = params.new(f"{name}.ln1_g", (dim,), fill=1.0)
        self.ln1_b = params.new(f"{name}.ln1_b", (dim,), fill=0.0)
        self.ln2_g = params.new(f"{name}.ln2_g", (dim,), fill=1.0)
        self.ln2_b = params.new(f"{name}.ln2_b", (dim,), fill=0.0)

    def __call__(self, x, lengths, causal, dropout_rate=0.0, dropout_rng=None):
        a = self.mha(T.layer_norm(x, self.ln1_g, self.ln1_b), lengths, causal)
        x = T.add(x, T.dropout(a, dropout_rate, dropout_rng))
        f = self.ffn(T.layer_norm(x, self.ln2_g, self.ln2_b))
        return T.add(x, T.dropout(f, dropout_rate, dropout_rng))


class GRUCell:
    """The weights of a gated recurrent cell, ``w`` (in + d, 3d) and ``b``
    (3d,); calling it runs ``tensor.gru`` over packed ragged sequences with
    them."""

    def __init__(self, in_dim, hidden_dim, params, name):
        # one draw per gate, its input rows then its state rows: z, r, h~
        self.w = params.new(f"{name}.w", (in_dim + hidden_dim, 3 * hidden_dim), blocks=3)
        self.b = params.new(f"{name}.b", (3 * hidden_dim,), fill=0.0)

    def __call__(self, x, lengths):
        """(n, in_dim) rows of sequences of ``lengths`` rows each -> (n, hidden)
        states; every sequence starts from a zero state."""
        return T.gru(x, lengths, self.w, self.b)
