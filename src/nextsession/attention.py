"""Shared network blocks: the pre-normalization encoder block of
self-attention and feed-forward, and a gated recurrent cell.

Each block declares its weights in the model's ``tensor.Parameters`` store
under the name prefix it is given, in a fixed order: that order is the
order of the initial draws.  Weights are stored in the layout their op
computes in and drawn block by block (``Parameters.new``'s ``blocks``): an
encoder block's ``wqkv`` per head and projection, a recurrent cell's ``w``
per gate.  Both take packed ragged sequences, (n, d) rows plus the row
count of each sequence, and keep the sequences apart: an encoder block is
one ``tensor.attention`` op, within each sequence and, when ``causal``,
only to the rows up to its own, and one ``tensor.mlp`` op; the recurrent
cell is one ``tensor.gru`` op per call and returns every hidden state.
"""

from __future__ import annotations

from . import tensor as T


class EncoderBlock:
    """Pre-normalization block: x + MHA(LN(x)), then x + FFN(LN(x)).

    MHA is one ``tensor.attention`` op, its ``wqkv`` drawn one (dim, dim /
    heads) block at a time, q of every head, then k, then v, its weights
    named ``<name>.mha.*``; FFN is one ``tensor.mlp`` op, ReLU, of hidden
    width 4 * dim, its weights named ``<name>.ffn.*``."""

    def __init__(self, dim, heads, params, name):
        self.heads = heads
        self.wqkv = params.new(f"{name}.mha.wqkv", (dim, 3 * dim), blocks=3 * heads)
        self.wo = params.new(f"{name}.mha.wo", (dim, dim))
        self.w1 = params.new(f"{name}.ffn.w1", (dim, 4 * dim))
        self.b1 = params.new(f"{name}.ffn.b1", (4 * dim,), fill=0.0)
        self.w2 = params.new(f"{name}.ffn.w2", (4 * dim, dim))
        self.b2 = params.new(f"{name}.ffn.b2", (dim,), fill=0.0)
        self.ln1_g = params.new(f"{name}.ln1_g", (dim,), fill=1.0)
        self.ln1_b = params.new(f"{name}.ln1_b", (dim,), fill=0.0)
        self.ln2_g = params.new(f"{name}.ln2_g", (dim,), fill=1.0)
        self.ln2_b = params.new(f"{name}.ln2_b", (dim,), fill=0.0)

    def __call__(self, x, lengths, causal, dropout_rate=0.0, dropout_rng=None):
        a = T.attention(T.layer_norm(x, self.ln1_g, self.ln1_b), lengths, causal,
                        self.heads, self.wqkv, self.wo)
        x = T.add(x, T.dropout(a, dropout_rate, dropout_rng))
        f = T.mlp(T.layer_norm(x, self.ln2_g, self.ln2_b),
                  self.w1, self.b1, self.w2, self.b2, "relu")
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
