"""Item/feature embedding tables and the fusion network producing item vectors.

Every item vector is ``fuse([id_embedding ‖ feature_embeddings...])`` where
fuse is a one-hidden-layer perceptron (width 2d, tanh) ending at the model
width d, one ``tensor.mlp`` op.  The same path produces both the input-side
vectors consumed by the encoders and the catalog-side vectors used for
scoring — the tables are tied, so ``output_item_vectors()[i]`` and
``embed_items([i])`` are the same computation.  The tables and the
perceptron's weights are declared in the model's ``tensor.Parameters``
store under ``emb.``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


class EmbeddingSpace:
    """Lookup tables plus the fusion perceptron.

    feature_schema is a list of (name, vocab_size) pairs; item_features, when
    the schema is non-empty, is an (num_items, num_features) int array giving
    each catalog item's feature values, which every item vector uses.

    ``output_item_vectors`` feeds the id table to the perceptron as it is,
    uncopied: a gather of every row in order would hold the same values in
    the same layout, so its vectors are the same floats as
    ``embed_items(arange(num_items))``.
    """

    def __init__(self, num_items, dim, params, id_dim=None, feature_schema=(),
                 feature_dim=16, item_features=None):
        if num_items < 1:
            raise ValueError("num_items must be >= 1")
        self.num_items = num_items
        self.id_dim = dim if id_dim is None else id_dim
        self.feature_schema = tuple(feature_schema)

        if self.feature_schema:
            if item_features is None:
                raise ValueError("feature_schema given but item_features missing")
            item_features = np.asarray(item_features, dtype=np.int64)
            if item_features.shape != (num_items, len(self.feature_schema)):
                raise ValueError(
                    f"item_features shape {item_features.shape} does not match "
                    f"({num_items}, {len(self.feature_schema)})"
                )
            for j, (name, vocab) in enumerate(self.feature_schema):
                col = item_features[:, j]
                if (col < 0).any() or (col >= vocab).any():
                    raise IndexError(f"feature {name!r} value out of range")
        self.item_features = item_features

        self.item_table = params.new("emb.item_table", (num_items, self.id_dim))
        self.feature_tables = {
            name: params.new(f"emb.feat.{name}", (vocab, feature_dim))
            for name, vocab in self.feature_schema
        }
        in_width = self.id_dim + feature_dim * len(self.feature_schema)
        hidden = 2 * dim
        self.fuse_w1 = params.new("emb.fuse_w1", (in_width, hidden))
        self.fuse_b1 = params.new("emb.fuse_b1", (hidden,), fill=0.0)
        self.fuse_w2 = params.new("emb.fuse_w2", (hidden, dim))
        self.fuse_b2 = params.new("emb.fuse_b2", (dim,), fill=0.0)

    def embed_items(self, ids):
        """Fused vectors for a list of item ids -> Tensor (len(ids), dim).

        Out-of-vocabulary ids raise.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("ids must be one-dimensional")
        if ids.size == 0:
            raise ValueError("embed_items needs at least one id")
        bad = (ids < 0) | (ids >= self.num_items)
        if bad.any():
            raise IndexError(
                f"item id {int(ids[bad][0])} out of vocabulary "
                f"(catalog size {self.num_items})"
            )
        return self._fuse(T.gather(self.item_table, ids), ids)

    def output_item_vectors(self):
        """Catalog-side vectors for scoring: every item's ``embed_items``
        vector, computed from the id table itself rather than a gathered
        copy of all of its rows."""
        return self._fuse(self.item_table, np.arange(self.num_items))

    def _fuse(self, id_rows, ids):
        """The perceptron over ``id_rows``, the id embeddings of ``ids``,
        beside the feature embeddings of the same items."""
        parts = [id_rows]
        for j, (name, _) in enumerate(self.feature_schema):
            parts.append(T.gather(self.feature_tables[name], self.item_features[ids, j]))
        x = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
        return T.mlp(x, self.fuse_w1, self.fuse_b1, self.fuse_w2, self.fuse_b2, "tanh")
