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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Session, encoder_views


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

    def num_positions(self) -> int:
        return len(self.positives)


def sample_negatives(catalog_size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform with replacement over the full catalog; positives not excluded."""
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    return rng.integers(0, catalog_size, size=count, dtype=np.int64)


def build_targets(
    sessions: list[Session],
    catalog_size: int,
    num_sampled: int,
    rng: np.random.Generator,
) -> tuple[list[list[int]], TrainingTargets]:
    """Turn a user's session sequence into model inputs and per-position targets.

    Returns (input_views, targets): input_views is ``encoder_views`` of
    sessions[:-1]; position i's targets come from sessions[i+1].  An item both
    exposed and positively interacted within one session counts as positive
    only.  Requires >= 2 sessions, each with >= 1 positive.
    """
    if len(sessions) < 2:
        raise ValueError("need at least two sessions to build training targets")
    views = encoder_views(sessions[:-1])
    if len(views) != len(sessions) - 1:
        # a skipped input session would shift every later position's target
        bad = next(s for s in sessions[:-1] if not s.num_positives())
        raise ValueError(
            f"session {bad.session_id!r} has no positives; filtering violated"
        )
    positives, in_session, sampled = [], [], []
    for target in sessions[1:]:
        pos = sorted(set(target.positive_items()))
        if not pos:
            raise ValueError(
                f"target session {target.session_id!r} has no positives; filtering violated"
            )
        neg = sorted(set(target.negative_items()) - set(pos))
        positives.append(np.asarray(pos, dtype=np.int64))
        in_session.append(np.asarray(neg, dtype=np.int64))
        sampled.append(sample_negatives(catalog_size, num_sampled, rng))
    return views, TrainingTargets(positives, in_session, sampled)


def score(user_vec: T.Tensor, item_vecs: T.Tensor) -> T.Tensor:
    """Dot-product scores: (d,) user vector against (k, d) item vectors -> (k,)."""
    return T.matmul(item_vecs, user_vec)


def _output_row(outputs: T.Tensor, i: int) -> T.Tensor:
    d = outputs.shape[1]
    return T.reshape(T.gather(outputs, np.array([i])), (d,))


def _contrastive_sum(outputs, positives, negatives_per_position, embedding):
    """Shared loss body: sum over positions and positives of
    -log softmax(positive | positive + that position's negatives).

    Positions with an empty negative set are skipped.  Returns (loss Tensor,
    number of contributing positive terms).
    """
    total = None
    count = 0
    for i, (pos, negs) in enumerate(zip(positives, negatives_per_position)):
        if len(negs) == 0:
            continue
        ids = np.concatenate([pos, negs])
        vecs = embedding.embed_items(ids)
        scores = score(_output_row(outputs, i), vecs)
        n_pos = len(pos)
        neg_idx = np.arange(n_pos, n_pos + len(negs))
        for j in range(n_pos):
            logits = T.gather(scores, np.concatenate([[j], neg_idx]))
            term = T.softmax_xent_with_logits(logits, 0)
            total = term if total is None else T.add(total, term)
            count += 1
    if total is None:
        total = T.Tensor(np.zeros((), dtype=np.float32))
    return total, count


def retrieval_loss(outputs, targets: TrainingTargets, embedding):
    """Sampled cross-entropy against the shared uniform negatives.

    Returns (raw-sum loss Tensor, positive-term count); report the mean as
    sum/count, optimize the raw sum.
    """
    for i, pos in enumerate(targets.positives):
        if len(pos) == 0:
            raise ValueError(f"position {i} has no positive targets")
    return _contrastive_sum(
        outputs, targets.positives, targets.sampled_negatives, embedding
    )


def rank_loss(outputs, targets: TrainingTargets, embedding):
    """Same form, negatives = the target session's own exposure items."""
    return _contrastive_sum(
        outputs, targets.positives, targets.in_session_negatives, embedding
    )


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
    """retrieval + alpha * rank, as raw sums over positive terms."""
    retr, n_retr = retrieval_loss(outputs, targets, embedding)
    rank, n_rank = rank_loss(outputs, targets, embedding)
    if cfg.alpha == 0.0:
        total = retr
    else:
        total = T.add(retr, T.mul(rank, cfg.alpha))
    return LossValues(total, retr, rank, n_retr, n_rank)
