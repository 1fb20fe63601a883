"""The full model: embedding -> session encoder -> sequence encoder."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .embedding import EmbeddingSpace
from .session_encoder import SessionEncoder
from .sequence_encoder import SequenceEncoder

if TYPE_CHECKING:
    from .data import Catalog
    from .trainer import TrainConfig


class NextSessionModel:
    """Maps a user's session history to per-position interest vectors.

    Built from the experiment config that checkpoints store: ``dim``,
    ``id_dim``, ``feature_dim``, ``dropout`` (the sequence encoder's, in
    training), ``ise`` and ``sse``, plus the catalog size.  A ``catalog``
    with side features gives the embedding its feature tables.  The
    embedding, the session encoder and the sequence encoder declare their
    weights, in that order, in ``params``, a ``tensor.Parameters`` store:
    made from an rng, it draws a fresh initialisation; made from a
    checkpoint's tensors (``trainer.restore_model``), it takes them.
    ``parameters()`` returns the store, name -> tensor.

    The forward input is the model-facing view of a history
    (``data.encoder_views``): a pair ``(ids, lengths)`` of a flat int64
    array of positively interacted item ids and the number of them in each
    session, chronological, every length >= 1.  A minibatch packs its users
    by appending their views and passes the session count of each user as
    ``sessions_per_user``: every session of the batch goes through the
    session encoder at once, and the sequence encoder keeps each user's
    positions apart (see ``SequenceEncoder.encode``).  By default the view
    is one user's.  ``user_vector`` takes the same packed input and returns
    each user's last row; evaluation ranks users through it in chunks
    (``evaluator.ranked``).
    """

    def __init__(self, cfg: TrainConfig, num_items: int, params: T.Parameters,
                 catalog: Catalog | None = None):
        self.cfg = cfg
        self.params = params
        schema = ()
        item_features = None
        if catalog is not None and catalog.feature_names:
            schema = tuple(zip(catalog.feature_names, catalog.feature_vocab_sizes()))
            item_features = catalog.item_features
        self.embedding = EmbeddingSpace(
            num_items,
            cfg.dim,
            params,
            id_dim=cfg.id_dim,
            feature_schema=schema,
            feature_dim=cfg.feature_dim,
            item_features=item_features,
        )
        self.session_encoder = SessionEncoder(cfg.ise, cfg.dim, params)
        self.sequence_encoder = SequenceEncoder(cfg.sse, cfg.dim, params, cfg.dropout)

    def parameters(self) -> T.Parameters:
        return self.params

    def forward_sessions(self, view, training=False, dropout_rng=None, sessions_per_user=None):
        """``(ids, lengths)`` -> (len(lengths), d) output rows, each user's
        rows in the order of its sessions."""
        ids, lengths = view
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0:
            raise ValueError(f"need at least one session, got lengths of shape {lengths.shape}")
        if lengths.min() < 1:
            raise ValueError("sessions passed to the model must be non-empty")
        item_vecs = self.embedding.embed_items(ids)
        tokens = self.session_encoder.encode_sessions(item_vecs, lengths)
        return self.sequence_encoder.encode(
            tokens, training=training, dropout_rng=dropout_rng, lengths=sessions_per_user
        )

    def user_vector(self, view, sessions_per_user=None):
        """Inference-time user representation: each user's last output row.

        With ``sessions_per_user`` None the view is one user's and the result
        has shape (d,); with counts it packs their users, as in
        ``forward_sessions``, and the result is (users, d), row u the last
        row of user u.
        """
        out = self.forward_sessions(view, training=False, sessions_per_user=sessions_per_user)
        if sessions_per_user is None:
            return T.reshape(T.gather(out, np.array([out.shape[0] - 1])), (self.cfg.dim,))
        return T.gather(out, np.cumsum(sessions_per_user) - 1)
