"""Causal encoding of the session-token sequence into per-position user
interest vectors.

Backbones: ``causal_attention`` (learned absolute position embeddings, then
pre-normalization blocks of masked multi-head self-attention + feed-forward,
closed by a final layer norm) and ``recurrent`` (stacked gated recurrent
cells).  Row i of the output is conditioned on tokens 0..i only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import INIT_STD, EncoderBlock, GRUCell, causal_mask

BACKBONES = ("causal_attention", "recurrent")


@dataclass
class SseConfig:
    backbone: str = "causal_attention"
    layers: int = 4
    heads: int = 2
    dropout: float = 0.2
    max_positions: int = 512


class SequenceEncoder:
    def __init__(self, cfg: SseConfig, dim: int, rng):
        if cfg.backbone not in BACKBONES:
            raise ValueError(f"unknown sequence backbone {cfg.backbone!r}")
        if not 0.0 <= cfg.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {cfg.dropout}")
        self.cfg = cfg
        self.dim = dim
        self.blocks = []
        self.grus = []
        if cfg.backbone == "causal_attention":
            if dim % cfg.heads:
                raise ValueError(f"heads ({cfg.heads}) must divide dim ({dim})")
            self.pos_table = T.parameter(
                rng.normal(0.0, INIT_STD, size=(cfg.max_positions, dim))
            )
            self.blocks = [
                EncoderBlock(dim, cfg.heads, rng, name=f"sse.block{i}")
                for i in range(cfg.layers)
            ]
            self.final_g = T.parameter(np.ones(dim))
            self.final_b = T.parameter(np.zeros(dim))
        else:
            self.grus = [
                GRUCell(dim, dim, rng, name=f"sse.gru{i}") for i in range(cfg.layers)
            ]

    def parameters(self):
        params = {}
        if self.cfg.backbone == "causal_attention":
            params["sse.pos_table"] = self.pos_table
            params["sse.final_g"] = self.final_g
            params["sse.final_b"] = self.final_b
            for b in self.blocks:
                params.update(b.parameters())
        else:
            for g in self.grus:
                params.update(g.parameters())
        return params

    def encode(self, tokens, training=False, dropout_rng=None):
        """(m, d) session tokens -> (m, d) per-position interest vectors."""
        m = tokens.shape[0]
        if m == 0:
            raise ValueError("cannot encode an empty session sequence")
        if m > self.cfg.max_positions:
            raise ValueError(
                f"sequence of {m} sessions exceeds max_positions="
                f"{self.cfg.max_positions}; truncate upstream"
            )
        rate = self.cfg.dropout if training else 0.0
        if rate > 0.0 and dropout_rng is None:
            raise ValueError("training-mode encode needs a dropout rng")

        if self.cfg.backbone == "causal_attention":
            x = T.add(tokens, T.gather(self.pos_table, np.arange(m)))
            mask = causal_mask(m)
            for block in self.blocks:
                x = block(x, mask, dropout_rate=rate, dropout_rng=dropout_rng)
            return T.layer_norm(x, self.final_g, self.final_b)

        x = tokens
        for li, gru in enumerate(self.grus):
            states = gru.run(x)
            x = states[0] if len(states) == 1 else T.concat(states, axis=0)
            if rate > 0.0 and li < len(self.grus) - 1:
                x = T.dropout(x, rate, dropout_rng)
        return x
