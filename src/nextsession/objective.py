"""Scoring and the training losses.

Supervision layout: feeding sessions 1..N-1 to the model yields one output
row per input session; row i (0-based) is conditioned on sessions up to i+1
and is trained to score session i+2's positive items highly.  Two losses
share the same sampled-cross-entropy form and differ only in the negative
set: the retrieval loss contrasts each positive against C catalog items
sampled uniformly with replacement (one shared draw per position, never the
position's sibling positives), and the rank loss contrasts it against the
target session's own exposure negatives.  Positions whose target session has
no exposures simply contribute nothing to the rank term.

How a user's loss is computed: the distinct ids among all of the user's
positives and negatives are embedded once, every output row is scored
against all of them with one matmul, and each loss is one
``tensor.sampled_softmax_xent`` over that score matrix, with each
position's positives and negatives given as padded column indices and
masks.  The graph is the same size however many positives a position has."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Sessions, encoder_views


@dataclass
class LossConfig:
    alpha: float = 0.2
    num_sampled_negatives: int = 128

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.num_sampled_negatives < 1:
            raise ValueError("num_sampled_negatives must be >= 1")


@dataclass
class TrainingTargets:
    """Per supervised position: positives, in-session negatives, sampled negatives."""

    positives: list[np.ndarray]
    in_session_negatives: list[np.ndarray]
    sampled_negatives: list[np.ndarray]


def sample_negatives(catalog_size: int, count, rng: np.random.Generator) -> np.ndarray:
    """Uniform with replacement over the full catalog; positives not excluded.
    ``count`` is a size or a shape."""
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    return rng.integers(0, catalog_size, size=count, dtype=np.int64)


def build_targets(
    sessions: Sessions,
    catalog_size: int,
    num_sampled: int,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], TrainingTargets]:
    """Turn a user's session sequence into model inputs and per-position targets.

    Returns (input_views, targets): input_views is ``encoder_views`` of
    sessions[:-1]; position i's targets come from the rows of session i+1:
    its distinct positive items, its distinct exposed items that are not
    also positive (an item both exposed and positively interacted within one
    session counts as positive only), and ``num_sampled`` catalog draws.
    Each is an int64 array, the first two sorted.  The draws of all
    positions are one (positions, num_sampled) call, row i for position i,
    which yields the same numbers as one call per position.  Requires >= 2
    sessions, each with >= 1 positive.
    """
    if len(sessions) < 2:
        raise ValueError("need at least two sessions to build training targets")
    counts = sessions.positive_counts()
    if not counts.all():
        # a skipped input session would shift every later position's target
        k = int(np.argmin(counts))
        role = "target session" if k == len(sessions) - 1 else "session"
        raise ValueError(
            f"{role} {sessions.session_ids[k]!r} has no positives; filtering violated"
        )
    targets = sessions[1:]
    rows = targets.rows()
    item = targets.item[rows].astype(np.int64)
    positive = targets.positive[rows]
    m, width = len(targets), int(item.max()) + 1
    # one key per (position, item), so a sorted key array groups by position
    key = np.repeat(np.arange(m), np.diff(targets.offsets)) * width + item
    pos = np.unique(key[positive])
    neg = np.unique(key[~positive])
    neg = neg[pos[np.searchsorted(pos, neg).clip(max=len(pos) - 1)] != neg]  # not also positive
    sampled = list(sample_negatives(catalog_size, (m, num_sampled), rng))
    return encoder_views(sessions[:-1]), TrainingTargets(
        _by_position(pos, m, width), _by_position(neg, m, width), sampled)


def _by_position(keys: np.ndarray, m: int, width: int) -> list[np.ndarray]:
    """Sorted ``position * width + item`` keys -> the items of each of the
    m positions."""
    bounds = np.searchsorted(keys, np.arange(m + 1) * width).tolist()
    items = keys % width
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _padded(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged id rows -> a (len(rows), widest) array padded with 0, and its validity mask."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    idx = np.zeros(mask.shape, dtype=np.int64)
    idx[mask] = np.concatenate(rows)
    return idx, mask


def _contrastive_sums(outputs, positives, negative_sets, embedding):
    """Shared loss body, once per negative set in ``negative_sets``: the sum
    over positions and positives of -log softmax(positive | positive + that
    position's negatives), skipping positions with no negatives.

    Every distinct target id is embedded once and every position is scored
    against all of them in one matmul; each negative set then costs one
    fused op.  Returns one (loss Tensor, contributing positive-term count)
    pair per negative set.
    """
    padded = [_padded(rows) for rows in (positives, *negative_sets)]
    ids = np.unique(np.concatenate([idx[mask] for idx, mask in padded]))
    if outputs.shape[0] != len(positives):
        # output rows past the last supervised position have no targets
        outputs = T.gather(outputs, np.arange(len(positives)))
    scores = T.matmul(outputs, T.transpose(embedding.embed_items(ids)))
    # padding entries are id 0 and map to column 0; the masks drop them
    (pos_cols, pos_mask), *negs = [(np.searchsorted(ids, idx), mask) for idx, mask in padded]
    out = []
    for neg_cols, neg_mask in negs:
        loss = T.sampled_softmax_xent(scores, pos_cols, pos_mask, neg_cols, neg_mask)
        out.append((loss, int(pos_mask[neg_mask.any(axis=1)].sum())))
    return out


def _check_positives(targets: TrainingTargets) -> None:
    for i, pos in enumerate(targets.positives):
        if len(pos) == 0:
            raise ValueError(f"position {i} has no positive targets")


@dataclass
class LossValues:
    total: T.Tensor
    retrieval: T.Tensor
    rank: T.Tensor
    retrieval_count: int
    rank_count: int

    def reported(self) -> dict:
        return {
            "total_mean": float(self.total.item()) / max(self.retrieval_count, 1),
            "retrieval_mean": float(self.retrieval.item()) / max(self.retrieval_count, 1),
            "rank_mean": float(self.rank.item()) / max(self.rank_count, 1),
            "retrieval_sum": float(self.retrieval.item()),
            "rank_sum": float(self.rank.item()),
            "total_sum": float(self.total.item()),
        }


def total_loss(outputs, targets: TrainingTargets, embedding, cfg: LossConfig) -> LossValues:
    """retrieval + alpha * rank, as raw sums over positive terms.

    Both losses share one embedding of the user's target ids and one score
    matrix.
    """
    _check_positives(targets)
    (retr, n_retr), (rank, n_rank) = _contrastive_sums(
        outputs,
        targets.positives,
        [targets.sampled_negatives, targets.in_session_negatives],
        embedding,
    )
    if cfg.alpha == 0.0:
        total = retr
    else:
        total = T.add(retr, T.mul(rank, cfg.alpha))
    return LossValues(total, retr, rank, n_retr, n_rank)
