"""Collapse each session's item vectors into one session token.

Aggregator variants: mean, max, max_relu (ReLU applied to the item vectors,
then max pooling), recurrent (gated recurrent cell over the session's items
in log order, last hidden state), and attention (bidirectional self-attention
within the session — no causal mask, since items in one session arrive
together and carry no internal ordering — followed by mean pooling).

The recurrent kind runs every session of a user through one ``tensor.gru``
op, each session a sequence of its own, and gathers each session's last
state: two graph nodes, whatever the number and length of the sessions.
The attention kind runs all of a user's items through its blocks at once
under a block-diagonal mask, so an item attends only within its session,
then mean-pools each session: its graph does not grow with the number of
sessions either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import EncoderBlock, GRUCell

KINDS = ("mean", "max", "max_relu", "recurrent", "attention")


@dataclass
class IseConfig:
    kind: str = "mean"
    layers: int = 1  # attention only
    heads: int = 2   # attention only


class SessionEncoder:
    def __init__(self, cfg: IseConfig, dim: int, rng):
        if cfg.kind not in KINDS:
            raise ValueError(f"unknown session aggregator {cfg.kind!r}")
        self.cfg = cfg
        self.gru = None
        self.blocks = []
        if cfg.kind == "recurrent":
            self.gru = GRUCell(dim, dim, rng, name="ise.gru")
        elif cfg.kind == "attention":
            self.blocks = [
                EncoderBlock(dim, cfg.heads, rng, name=f"ise.block{i}")
                for i in range(cfg.layers)
            ]

    def parameters(self):
        params = {}
        if self.gru is not None:
            params.update(self.gru.parameters())
        for b in self.blocks:
            params.update(b.parameters())
        return params

    def encode_sessions(self, item_vecs, lengths):
        """(n, d) item vectors + an array of per-session lengths -> (m, d)
        session tokens.

        lengths must be positive and sum to n; rows are grouped contiguously
        and chronologically.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if (lengths < 1).any():
            raise ValueError("empty session passed to the session encoder")
        n = item_vecs.shape[0]
        if lengths.sum() != n:
            raise ValueError(
                f"session lengths sum to {lengths.sum()} but got {n} item rows"
            )
        seg_ids = np.repeat(np.arange(len(lengths)), lengths)

        kind = self.cfg.kind
        if kind == "mean":
            return T.segment_reduce(item_vecs, seg_ids, "mean")
        if kind == "max":
            return T.segment_reduce(item_vecs, seg_ids, "max")
        if kind == "max_relu":
            return T.segment_reduce(T.relu(item_vecs), seg_ids, "max")

        if kind == "recurrent":
            states = self.gru(item_vecs, lengths)
            return T.gather(states, np.cumsum(lengths) - 1)

        # an item attends to every item of its own session and to no other
        x = item_vecs
        mask = seg_ids[:, None] == seg_ids[None, :]
        for block in self.blocks:
            x = block(x, mask)
        return T.segment_reduce(x, seg_ids, "mean")
