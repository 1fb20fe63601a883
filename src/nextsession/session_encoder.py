"""Collapse each session's item vectors into one session token.

Aggregator variants: mean, max, max_relu (ReLU applied to the item vectors,
then max pooling), recurrent (gated recurrent cell over the session's items
in log order, last hidden state), and attention (bidirectional self-attention
within the session — no causal mask, since items in one session arrive
together and carry no internal ordering — followed by mean pooling).

The recurrent kind advances all of a user's sessions together: sessions are
ordered longest first, and step t feeds item t of every session that still
has one through a single cell step on an (active, d) block of hidden rows,
so the graph grows with the longest session, not with the number of items.
A session's row stops changing once its items run out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import EncoderBlock, GRUCell, full_mask

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
        self.dim = dim
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
        """(n, d) item vectors + per-session lengths -> (m, d) session tokens.

        lengths must be positive and sum to n; rows are grouped contiguously
        and chronologically.
        """
        lengths = list(lengths)
        if any(ln < 1 for ln in lengths):
            raise ValueError("empty session passed to the session encoder")
        n = item_vecs.shape[0]
        if sum(lengths) != n:
            raise ValueError(
                f"session lengths sum to {sum(lengths)} but got {n} item rows"
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
            return self._recurrent(item_vecs, np.asarray(lengths, dtype=np.int64))

        # attention works session by session
        tokens = []
        start = 0
        for ln in lengths:
            x = T.gather(item_vecs, np.arange(start, start + ln))
            mask = full_mask(ln)
            for block in self.blocks:
                x = block(x, mask)
            tokens.append(T.segment_reduce(x, np.zeros(ln, dtype=np.int64), "mean"))
            start += ln
        return tokens[0] if len(tokens) == 1 else T.concat(tokens, axis=0)

    def _recurrent(self, item_vecs, lengths):
        """Last GRU state of every session, one cell step per item position."""
        order = np.argsort(-lengths, kind="stable")
        first = (np.cumsum(lengths) - lengths)[order]
        sorted_lengths = lengths[order]
        h = T.Tensor(np.zeros((len(order), self.dim), dtype=item_vecs.dtype))
        finished = []  # blocks of rows, in the order they stop
        for t in range(sorted_lengths[0]):
            # the sessions with an item t form a prefix of `order`
            a = int(np.count_nonzero(sorted_lengths > t))
            if a < h.shape[0]:
                finished.append(T.gather(h, np.arange(a, h.shape[0])))
                h = T.gather(h, np.arange(a))
            h = self.gru.step(T.gather(item_vecs, first[:a] + t), h)
        # a block that stops later holds longer sessions, which come earlier
        rows = [h] + finished[::-1]
        out = rows[0] if len(rows) == 1 else T.concat(rows, axis=0)
        return T.gather(out, np.argsort(order))
