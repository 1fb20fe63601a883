"""Collapse each session's item vectors into one session token.

Aggregator variants: mean, max, max_relu (ReLU applied to the item vectors,
then max pooling), recurrent (gated recurrent cell over the session's items
in log order, last hidden state), and attention (bidirectional self-attention
within the session — no causal mask, since items in one session arrive
together and carry no internal ordering — followed by mean pooling).

Sessions arrive packed: the item rows of every session one after another,
plus the item count of each session, the ragged form of ``tensor``.  Every
kind hands those lengths to its ops as they are.  The pooling kinds are
one ``tensor.segment_reduce`` over all sessions.  The recurrent kind runs
every session through one ``tensor.gru`` op, each session a sequence of
its own, and gathers each session's last state: two graph nodes, whatever
the number and length of the sessions.  The attention kind runs the items
of every session through its blocks at once, one ``tensor.encoder_block`` op
per block with one sequence per session, so an item attends only within
its session, then mean-pools each session.  Its cost is the sum of the
squared session lengths, and its graph does not grow with the number of
sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import EncoderBlock, GRUCell

KINDS = ("mean", "max", "max_relu", "recurrent", "attention")


@dataclass
class IseConfig:
    """Rules: ``kind`` in ``KINDS``, ``layers`` >= 0 (``heads``: ``TrainConfig``)."""

    kind: str = "mean"
    layers: int = 1  # attention only
    heads: int = 2   # attention only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"ise.kind must be one of {', '.join(KINDS)}; got {self.kind!r}")
        if self.layers < 0:
            raise ValueError(f"ise.layers must be >= 0, got {self.layers}")


class SessionEncoder:
    def __init__(self, cfg: IseConfig, dim: int, params):
        self.cfg = cfg
        self.gru = None
        self.blocks = []
        if cfg.kind == "recurrent":
            self.gru = GRUCell(dim, dim, params, "ise.gru")
        elif cfg.kind == "attention":
            self.blocks = [
                EncoderBlock(dim, cfg.heads, params, f"ise.block{i}")
                for i in range(cfg.layers)
            ]

    def encode_sessions(self, item_vecs, lengths):
        """(n, d) item vectors of sessions packed row-wise, chronologically,
        plus ``lengths``, the item count of each session -> (len(lengths), d)
        session tokens.

        ``lengths`` is checked by the op that first reads it
        (``tensor.check_lengths``): counts >= 1 that sum to n.
        """
        kind = self.cfg.kind
        if kind == "mean":
            return T.segment_reduce(item_vecs, lengths, "mean")
        if kind == "max":
            return T.segment_reduce(item_vecs, lengths, "max")
        if kind == "max_relu":
            return T.segment_reduce(T.relu(item_vecs), lengths, "max")

        if kind == "recurrent":
            states = self.gru(item_vecs, lengths)
            return T.gather(states, np.cumsum(lengths) - 1)

        # an item attends to every item of its own session and to no other
        x = item_vecs
        for block in self.blocks:
            x = block(x, lengths, causal=False)
        return T.segment_reduce(x, lengths, "mean")
