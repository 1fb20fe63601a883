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

Targets are built in two steps.  ``user_targets`` turns every trainable
user's sessions into a ``UserTargets`` record once per training run, in
one pass over all users: the user's model input and each position's
sorted distinct positives and in-session negatives, which are the same in
every epoch.  ``build_targets`` then runs once per training graph: it only
appends the records of the graph's users and makes the graph's one draw of
sampled negatives, the one part that changes from epoch to epoch, so a
graph reads no session rows.  Validation reads
its views and last-session targets from the same records.

How a minibatch's loss is computed: its users' positions are packed one
after another, as ``build_targets`` returns them, so the batch is scored
as one set of positions; a user alone is a batch of one.  The distinct ids
among all of their positives and negatives are embedded once, every output
row is scored against all of them with one matmul, and each loss is one
``tensor.sampled_softmax_xent`` over that score matrix.  Positives and
in-session negatives arrive ragged, as a flat item array plus a count per
position, and are padded to column indices and masks; the sampled
negatives are already one (positions, C) array.  The graph is the same
size however many positives a position has, and however many users the
batch packs."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Sessions, encoder_views


@dataclass
class LossConfig:
    alpha: float = 0.2
    num_sampled_negatives: int = 128

    def __post_init__(self):
        self.alpha = float(self.alpha)  # so equal configs hash equal
        if not 0 <= self.alpha < math.inf:  # also a NaN weight
            raise ValueError(f"alpha must be a finite number >= 0, got {self.alpha}")
        if self.num_sampled_negatives < 1:
            raise ValueError("num_sampled_negatives must be >= 1")


@dataclass
class TrainingTargets:
    """Per supervised position: positives, in-session negatives, sampled negatives.

    The first two are ``(items, counts)`` pairs of int64 arrays: position
    i's items are the ``counts[i]`` entries of ``items`` after those of the
    positions before it.  ``sampled_negatives`` is a (positions, C) array.
    """

    positives: tuple[np.ndarray, np.ndarray]
    in_session_negatives: tuple[np.ndarray, np.ndarray]
    sampled_negatives: np.ndarray


def sample_negatives(catalog_size: int, count, rng: np.random.Generator) -> np.ndarray:
    """Uniform with replacement over the full catalog; positives not excluded.
    ``count`` is a size or a shape."""
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    return rng.integers(0, catalog_size, size=count, dtype=np.int64)


@dataclass
class UserTargets:
    """One user's training record: ``view``, the ``(ids, lengths)`` of
    ``encoder_views(sessions[:-1])``, and the ``(items, counts)`` positives
    and in-session negatives of its positions, as ``TrainingTargets``
    holds them; position i is the one of input session i."""

    view: tuple[np.ndarray, np.ndarray]
    positives: tuple[np.ndarray, np.ndarray]
    in_session_negatives: tuple[np.ndarray, np.ndarray]

    def last_positives(self) -> np.ndarray:
        """The last position's positives: the distinct positive items of the
        user's last session, sorted."""
        items, counts = self.positives
        return items[len(items) - counts[-1]:]


def user_targets(users: Sequence[Sessions]) -> list[UserTargets]:
    """The ``UserTargets`` of each user's session sequence, in one pass
    over all of them.

    A user's position i takes its targets from the rows of its session
    i+1: its distinct positive items and its distinct exposed items that
    are not also positive (an item both exposed and positively interacted
    within one session counts as positive only), each position's items
    sorted.  Each user needs >= 2 sessions, each with >= 1 positive.
    """
    items, positives, rows_per_position = [], [], []
    for sessions in users:
        if len(sessions) < 2:
            raise ValueError("need at least two sessions to build training targets")
        counts = sessions.positive_counts()
        if not counts.all():
            # a skipped input session would shift every later position's target
            k = int(np.argmin(counts))
            role = "target session" if k == len(sessions) - 1 else "session"
            raise ValueError(
                f"{role} {k} of the view has no positives; filtering violated"
            )
        targets = sessions[1:]
        rows = targets.rows()
        items.append(targets.item[rows])
        positives.append(targets.positive[rows])
        rows_per_position.append(np.diff(targets.offsets))
    item = np.concatenate(items).astype(np.int64)
    positive = np.concatenate(positives)
    positions = np.array([len(sessions) - 1 for sessions in users], dtype=np.int64)
    m, width = int(positions.sum()), int(item.max()) + 1
    # one key per (position, item), so a sorted key array groups by position
    key = np.repeat(np.arange(m), np.concatenate(rows_per_position)) * width + item
    pos = np.unique(key[positive])
    neg = np.unique(key[~positive])
    neg = neg[pos[np.searchsorted(pos, neg).clip(max=len(pos) - 1)] != neg]  # not also positive
    bounds = np.cumsum(positions)[:-1]
    per_user = []
    for keys in (pos, neg):
        counts = np.bincount(keys // width, minlength=m)
        cuts = np.cumsum(counts)[bounds - 1]  # where each later user's items start
        per_user.append(zip(np.split(keys % width, cuts), np.split(counts, bounds)))
    return [UserTargets(encoder_views(sessions[:-1]), p, n)
            for sessions, p, n in zip(users, *per_user)]


def _joined(pairs) -> tuple[np.ndarray, np.ndarray]:
    """``(items, counts)`` pairs appended into one."""
    return tuple(np.concatenate(part) for part in zip(*pairs))


def build_targets(
    records: Sequence[UserTargets],
    catalog_size: int,
    num_sampled: int,
    rng: np.random.Generator,
):
    """Pack the ``user_targets`` records of one graph's users into one model
    input and the targets of every supervised position.

    Returns ``(view, sessions_per_user, targets)``: ``view`` appends the
    users' views into one ``(ids, lengths)`` pair, and
    ``sessions_per_user`` counts each user's input sessions, which is also
    its number of positions.  ``targets`` appends their positives and
    in-session negatives, and takes ``num_sampled`` catalog draws per
    position in one (positions, num_sampled) call, row i for position i,
    which yields the same numbers as one call per position or per user, in
    order.
    """
    sessions_per_user = np.array([len(r.view[1]) for r in records], dtype=np.int64)
    sampled = sample_negatives(catalog_size, (int(sessions_per_user.sum()), num_sampled), rng)
    targets = TrainingTargets(_joined(r.positives for r in records),
                              _joined(r.in_session_negatives for r in records), sampled)
    return _joined(r.view for r in records), sessions_per_user, targets


def _padded(items: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ragged id rows, ``items`` flat with ``counts`` per row -> a
    (len(counts), widest) array padded with 0, and its validity mask."""
    mask = np.arange(counts.max(initial=0)) < counts[:, None]
    idx = np.zeros(mask.shape, dtype=np.int64)
    idx[mask] = items
    return idx, mask


def _contrastive_sums(outputs, positives, negative_sets, embedding):
    """Shared loss body, once per negative set in ``negative_sets``: the sum
    over positions and positives of -log softmax(positive | positive + that
    position's negatives), skipping positions with no negatives.
    ``positives`` and each negative set are padded ``(ids, mask)`` pairs,
    one row per position.

    Every distinct target id is embedded once and every position is scored
    against all of them in one matmul; each negative set then costs one
    fused op.  Returns one (loss Tensor, contributing positive-term count)
    pair per negative set.
    """
    padded = (positives, *negative_sets)
    ids = np.unique(np.concatenate([idx[mask] for idx, mask in padded]))
    positions = len(positives[0])
    if outputs.shape[0] != positions:
        # output rows past the last supervised position have no targets
        outputs = T.gather(outputs, np.arange(positions))
    scores = T.matmul(outputs, T.transpose(embedding.embed_items(ids)))
    # each id's score column, by lookup; padding entries are id 0 and map
    # to column 0, and the masks drop them
    column = np.zeros(ids[-1] + 1, dtype=np.int64)
    column[ids] = np.arange(ids.size)
    (pos_cols, pos_mask), *negs = [(column[idx], mask) for idx, mask in padded]
    out = []
    for neg_cols, neg_mask in negs:
        loss = T.sampled_softmax_xent(scores, pos_cols, pos_mask, neg_cols, neg_mask)
        out.append((loss, int(pos_mask[neg_mask.any(axis=1)].sum())))
    return out


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
    counts = targets.positives[1]
    if not counts.all():
        raise ValueError(f"position {int(np.argmin(counts))} has no positive targets")
    sampled = targets.sampled_negatives
    (retr, n_retr), (rank, n_rank) = _contrastive_sums(
        outputs,
        _padded(*targets.positives),
        [(sampled, np.ones(sampled.shape, dtype=bool)), _padded(*targets.in_session_negatives)],
        embedding,
    )
    if cfg.alpha == 0.0:
        total = retr
    else:
        total = T.add(retr, T.mul(rank, cfg.alpha))
    return LossValues(total, retr, rank, n_retr, n_rank)
