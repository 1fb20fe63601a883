"""The full model: embedding -> session encoder -> sequence encoder."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .embedding import EmbeddingSpace
from .session_encoder import IseConfig, SessionEncoder
from .sequence_encoder import SequenceEncoder, SseConfig


@dataclass
class ModelConfig:
    num_items: int
    dim: int = 64
    id_dim: int | None = None
    feature_dim: int = 16
    feature_schema: tuple = ()
    dropout: float = 0.2  # the sequence encoder's, in training
    ise: IseConfig = field(default_factory=IseConfig)
    sse: SseConfig = field(default_factory=SseConfig)


class NextSessionModel:
    """Maps a user's session history to per-position interest vectors.

    The forward input is the model-facing view of a history
    (``data.encoder_views``): one array or list of positively interacted item
    ids per session, chronological, each non-empty.
    """

    def __init__(self, cfg: ModelConfig, rng, item_features=None):
        self.cfg = cfg
        self.embedding = EmbeddingSpace(
            cfg.num_items,
            cfg.dim,
            rng,
            id_dim=cfg.id_dim,
            feature_schema=cfg.feature_schema,
            feature_dim=cfg.feature_dim,
            item_features=item_features,
        )
        self.session_encoder = SessionEncoder(cfg.ise, cfg.dim, rng)
        self.sequence_encoder = SequenceEncoder(cfg.sse, cfg.dim, rng, cfg.dropout)

    def parameters(self):
        params = {}
        params.update(self.embedding.parameters())
        params.update(self.session_encoder.parameters())
        params.update(self.sequence_encoder.parameters())
        return params

    def forward_sessions(self, session_items, training=False, dropout_rng=None):
        """per-session positive item ids -> (m, d) output rows."""
        if not session_items:
            raise ValueError("need at least one session")
        lengths = [len(s) for s in session_items]
        if any(ln == 0 for ln in lengths):
            raise ValueError("sessions passed to the model must be non-empty")
        flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in session_items])
        item_vecs = self.embedding.embed_items(flat)
        tokens = self.session_encoder.encode_sessions(item_vecs, lengths)
        return self.sequence_encoder.encode(
            tokens, training=training, dropout_rng=dropout_rng
        )

    def user_vector(self, session_items):
        """Inference-time user representation: last output row, shape (d,)."""
        out = self.forward_sessions(session_items, training=False)
        last = T.gather(out, np.array([out.shape[0] - 1]))
        return T.reshape(last, (self.cfg.dim,))
