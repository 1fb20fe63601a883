"""Causal encoding of the session-token sequence into per-position user
interest vectors.

Backbones: ``causal_attention`` (learned absolute position embeddings, then
pre-normalization blocks of causal multi-head self-attention + feed-forward,
closed by a final layer norm) and ``recurrent`` (stacked gated recurrent
layers, each one ``tensor.gru`` op over the whole token sequence, with
dropout between layers in training).  The tokens may pack several users'
sequences; row i of a user's output is conditioned on that user's tokens
0..i only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import EncoderBlock, GRUCell

BACKBONES = ("causal_attention", "recurrent")


@dataclass
class SseConfig:
    """Rules: ``backbone`` in ``BACKBONES``, ``layers`` >= 0,
    ``max_positions`` >= 1 (``heads``: ``TrainConfig``)."""

    backbone: str = "causal_attention"
    layers: int = 4
    heads: int = 2  # causal_attention only
    max_positions: int = 512

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ValueError(f"sse.backbone must be one of {', '.join(BACKBONES)}; "
                             f"got {self.backbone!r}")
        if self.layers < 0:
            raise ValueError(f"sse.layers must be >= 0, got {self.layers}")
        if self.max_positions < 1:
            raise ValueError(f"sse.max_positions must be >= 1, got {self.max_positions}")


class SequenceEncoder:
    def __init__(self, cfg: SseConfig, dim: int, params, dropout: float = 0.0):
        """``dropout`` is the rate applied in training between layers."""
        self.cfg = cfg
        self.dropout = dropout
        self.blocks = []
        self.grus = []
        if cfg.backbone == "causal_attention":
            self.pos_table = params.new("sse.pos_table", (cfg.max_positions, dim))
            self.blocks = [
                EncoderBlock(dim, cfg.heads, params, f"sse.block{i}")
                for i in range(cfg.layers)
            ]
            self.final_g = params.new("sse.final_g", (dim,), fill=1.0)
            self.final_b = params.new("sse.final_b", (dim,), fill=0.0)
        else:
            self.grus = [
                GRUCell(dim, dim, params, f"sse.gru{i}") for i in range(cfg.layers)
            ]

    def encode(self, tokens, training=False, dropout_rng=None, lengths=None):
        """(m, d) session tokens -> (m, d) per-position interest vectors.

        ``lengths`` is the token count of each user, whose sequences are
        packed row-wise in ``tokens``; by default the rows are one user's.
        Row i of a user is conditioned on that user's tokens up to i only.
        Each backbone runs every user as one sequence of one op per layer,
        ``tensor.gru`` or causal ``tensor.attention``; the attention
        backbone gives each user positions from 0.
        """
        m = tokens.shape[0]
        lengths = T.check_lengths([m] if lengths is None else lengths, m)
        if lengths.max() > self.cfg.max_positions:
            raise ValueError(
                f"sequence of {lengths.max()} sessions exceeds max_positions="
                f"{self.cfg.max_positions}; truncate upstream"
            )
        rate = self.dropout if training else 0.0
        if rate > 0.0 and dropout_rng is None:
            raise ValueError("training-mode encode needs a dropout rng")

        if self.cfg.backbone == "causal_attention":
            pos = np.arange(m) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            x = T.add(tokens, T.gather(self.pos_table, pos))
            for block in self.blocks:
                x = block(x, lengths, causal=True, dropout_rate=rate, dropout_rng=dropout_rng)
            return T.layer_norm(x, self.final_g, self.final_b)

        x = tokens
        for li, gru in enumerate(self.grus):
            x = gru(x, lengths)
            if li < len(self.grus) - 1:
                x = T.dropout(x, rate, dropout_rng)
        return x
