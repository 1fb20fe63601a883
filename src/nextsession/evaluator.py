"""Unsampled top-K evaluation, the alpha sweep, the data-scaling harness,
and the attention-complexity benchmark.

All ranking is exact: every user's vector is scored against the full catalog,
and the best k ids come out by descending score with ties broken by ascending
item id, so reports are reproducible across platforms.  Selection is one
partition that finds the k-th best score plus a sort of the c candidates that
reach it, O(N + c log c) per user instead of sorting all N scores.

``ranked`` is the one ranking loop: ``evaluate`` and the trainer's
validation both hand it their users' histories and read back top-k ids.
It encodes users in packed chunks of ``RANK_USERS``, one ``user_vector``
call per chunk, and scores each user with its own ``top_k``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .data import DatasetSplit, Sessions, UserSplit, encoder_views

DEFAULT_CUTOFFS = (10, 100, 500)


def top_k(user_vec: np.ndarray, item_vecs: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k item ids by dot product, descending; ties by ascending id.

    ``np.partition`` finds the k-th best score in one O(N) pass; every id at
    least that good is a candidate, so a tie group straddling position k is
    kept whole, and only the c candidates are sorted: O(N + c log c).  When k
    is 0 or N, or fewer than k scores are numbers, every id is sorted instead,
    which keeps the order of a full sort for NaN, +-inf and +-0.0.
    """
    # a NaN score (inf - inf) is ranked last by contract, so numpy need not warn of it
    with np.errstate(invalid="ignore"):
        scores = item_vecs @ user_vec
    n = scores.shape[0]
    if k < 0:
        raise ValueError(f"k={k} must be non-negative")
    if k > n:
        raise ValueError(f"k={k} exceeds catalog size {n}")
    neg = -scores
    ids = np.arange(n)
    if 0 < k < n:
        threshold = np.partition(neg, k - 1)[k - 1]
        if not math.isnan(threshold):
            ids = np.flatnonzero(neg <= threshold)
    return ids[np.lexsort((ids, neg[ids]))[:k]]


def _hit_positions(ranked, targets, k: int, metric: str) -> tuple[list, int]:
    """Ascending 1-based positions p <= k of ``ranked`` that hold a target,
    and the number of distinct targets."""
    tset = set(int(t) for t in targets)
    if not tset:
        raise ValueError(f"{metric} needs a non-empty target set")
    top = np.asarray(ranked[:k]).tolist()
    return [p for p, it in enumerate(top, start=1) if it in tset], len(tset)


def recall_at_k(ranked, targets, k: int) -> float:
    hits, num_targets = _hit_positions(ranked, targets, k, "recall")
    return len(hits) / num_targets


def ndcg_at_k(ranked, targets, k: int) -> float:
    """Binary-relevance NDCG with 1-based positions.

    DCG sums 1/log2(p+1) over hit positions p <= k; the ideal DCG places all
    targets first, so IDCG = sum_{p=1}^{min(k, |targets|)} 1/log2(p+1).
    """
    hits, num_targets = _hit_positions(ranked, targets, k, "ndcg")
    dcg = 0.0
    for p in hits:
        dcg += 1.0 / np.log2(p + 1)
    ideal = sum(1.0 / np.log2(p + 1) for p in range(1, min(k, num_targets) + 1))
    return dcg / ideal


@dataclass
class EvalReport:
    protocol: str
    cutoffs: tuple
    recall: dict
    ndcg: dict
    num_users: int
    skipped_users: int
    config_hash: str

    def to_json(self) -> str:
        blob = {
            "protocol": self.protocol,
            "cutoffs": list(self.cutoffs),
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "num_users": self.num_users,
            "skipped_users": self.skipped_users,
            "config_hash": self.config_hash,
        }
        return json.dumps(blob, sort_keys=True, indent=2)

    def table(self) -> str:
        lines = [
            f"protocol: {self.protocol}   users: {self.num_users} "
            f"(skipped {self.skipped_users})",
            f"{'K':>6} {'Recall@K':>12} {'NDCG@K':>12}",
        ]
        for k in self.cutoffs:
            lines.append(f"{k:>6} {self.recall[k]:>12.6f} {self.ndcg[k]:>12.6f}")
        return "\n".join(lines)


# Users encoded by one ``user_vector`` call in ``ranked``.  Larger chunks
# are faster, but perfbench's eval latency takes one sample per
# ``user_vector`` call under evaluate() and needs at least 20: the traced
# long-history-gru smoke run evaluates 24 users x 3 passes x 2 traced
# rounds, so 6 gives it 24 samples and 8 only 18.
RANK_USERS = 6


def ranked(model, views, k: int):
    """Yield each view's exact top-k item ids, in the order of ``views``.

    The catalog is embedded once, on the first request.  The ``(ids,
    lengths)`` views are then pulled in chunks of ``RANK_USERS``; a chunk is
    appended into one packed view, encoded by one ``user_vector`` call, and
    each of its users is ranked with ``top_k``.  A lazy iterable therefore
    holds at most ``RANK_USERS`` views at a time.
    """
    with T.no_grad():
        item_matrix = model.embedding.output_item_vectors().data
    views = iter(views)
    while chunk := list(itertools.islice(views, RANK_USERS)):
        packed = tuple(np.concatenate(part) for part in zip(*chunk))
        with T.no_grad():
            user_vecs = model.user_vector(packed, [len(lengths) for _, lengths in chunk]).data
        for user_vec in user_vecs:
            yield top_k(user_vec, item_matrix, k)


def evaluate(model, split: DatasetSplit, cutoffs=DEFAULT_CUTOFFS, config_hash="") -> EvalReport:
    """Rank the full catalog for every user of ``split`` and average the
    metrics; ``skipped_users`` is the count in ``split.stats``."""
    if model.embedding.num_items != split.catalog_size:
        raise ValueError(
            f"catalog mismatch: model has {model.embedding.num_items} items, "
            f"dataset has {split.catalog_size}"
        )
    cutoffs = tuple(sorted(set(cutoffs)))
    if cutoffs and cutoffs[0] < 1:
        raise ValueError(f"cutoffs must be >= 1, got {cutoffs[0]}")
    k_max = min(max(cutoffs), split.catalog_size)
    recall_sums = {k: 0.0 for k in cutoffs}
    ndcg_sums = {k: 0.0 for k in cutoffs}
    views = (encoder_views(user.train_sessions) for user in split.users)
    for user, top in zip(split.users, ranked(model, views, k_max)):
        for k in cutoffs:
            recall_sums[k] += recall_at_k(top, user.targets, k)
            ndcg_sums[k] += ndcg_at_k(top, user.targets, k)
    n = len(split.users)
    if n == 0:
        raise ValueError("no evaluable users in split")
    return EvalReport(
        protocol=split.protocol,
        cutoffs=cutoffs,
        recall={k: recall_sums[k] / n for k in cutoffs},
        ndcg={k: ndcg_sums[k] / n for k in cutoffs},
        num_users=n,
        skipped_users=split.stats.get("skipped_users", 0),
        config_hash=config_hash,
    )


# ---------------------------------------------------------------------------
# sweeps and harnesses
# ---------------------------------------------------------------------------


def alpha_sweep(split: DatasetSplit, cfg, alphas, catalog=None, log_fn=None):
    """Train one model per rank-loss weight (same seed) and evaluate each.

    Returns one row per alpha; a failed cell carries an "error" field and the
    sweep continues.
    """
    from .trainer import train

    if len(alphas) < 1:
        raise ValueError("alpha_sweep needs at least one alpha")
    rows = []
    for alpha in alphas:
        cell_cfg = replace(cfg, loss=replace(cfg.loss, alpha=float(alpha)))
        try:
            result = train(split, cell_cfg, catalog=catalog, log_fn=log_fn)
            report = evaluate(result.model, split)
            rows.append(
                {
                    "alpha": float(alpha),
                    "recall": dict(report.recall),
                    "ndcg": dict(report.ndcg),
                    "num_users": report.num_users,
                }
            )
        except Exception as e:  # keep sweeping; record the failure
            rows.append({"alpha": float(alpha), "error": f"{type(e).__name__}: {e}"})
        if log_fn is not None:
            log_fn({"sweep_alpha": float(alpha), "done": True})
    return rows


def sweep_table(rows, cutoffs=DEFAULT_CUTOFFS) -> str:
    """Delimited (tab) table of sweep rows, plot-ready."""
    header = ["alpha"]
    for k in cutoffs:
        header.append(f"recall@{k}")
    for k in cutoffs:
        header.append(f"ndcg@{k}")
    header.append("error")
    lines = ["\t".join(header)]
    for row in rows:
        cells = [repr(row["alpha"])]
        if "error" in row:
            cells += [""] * (2 * len(cutoffs)) + [row["error"]]
        else:
            cells += [repr(row["recall"][k]) for k in cutoffs]
            cells += [repr(row["ndcg"][k]) for k in cutoffs]
            cells.append("")
        lines.append("\t".join(cells))
    return "\n".join(lines)


def _clip_sessions_to(sessions: Sessions, max_ts: int) -> Sessions:
    """The rows at or before ``max_ts``, dropping the sessions left without
    a positive among them.  Sessions may overlap in time, so a cut can
    leave exposures only in a session between two that keep positives;
    training takes no such session, as input or as target."""
    rows = sessions.rows()
    local = sessions.offsets - sessions.offsets[0]
    keep = sessions.timestamp[rows] <= max_ts
    live = np.diff(np.r_[0, np.cumsum(keep & sessions.positive[rows])][local]) > 0
    keep &= np.repeat(live, np.diff(local))
    kept_before = np.r_[0, np.cumsum(keep)][local]
    return Sessions(sessions.item[rows][keep], sessions.positive[rows][keep],
                    sessions.timestamp[rows][keep], np.unique(kept_before))


def scaling_run(split: DatasetSplit, cfg, fractions, catalog=None, recall_k=500, log_fn=None):
    """Train on chronological prefixes of the train views, evaluate on the
    fixed targets, and report (train_items, Recall@recall_k) per fraction.

    train_items counts the positive interactions available for training at
    that fraction.  A fraction whose prefix leaves no trainable user is
    marked skipped.
    """
    from .trainer import train

    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"fractions must be in (0, 1], got {f}")
    if recall_k < 1:
        raise ValueError(f"recall_k must be >= 1, got {recall_k}")

    views = [user.train_sessions for user in split.users]
    all_ts = np.concatenate([np.zeros(0, np.int64)] + [v.timestamp[v.rows()] for v in views])
    if not all_ts.size:
        raise ValueError("split has no train interactions")
    t0, t1 = int(all_ts.min()), int(all_ts.max())

    rows = []
    for f in sorted(fractions):
        max_ts = t1 if f == 1.0 else int(t0 + f * (t1 - t0))
        users = []
        train_items = 0
        for user in split.users:
            clipped = _clip_sessions_to(user.train_sessions, max_ts)
            if not len(clipped):
                continue
            train_items += int(np.count_nonzero(clipped.positive))
            users.append(UserSplit(user.user_id, clipped, user.targets))
        row = {"fraction": f, "train_items": train_items}
        if not users:
            row["skipped"] = "no users with train data at this fraction"
            rows.append(row)
            continue
        sub = DatasetSplit(
            protocol=split.protocol,
            users=users,
            catalog_size=split.catalog_size,
            stats={**split.stats, "skipped_users": 0},
        )
        try:
            result = train(sub, cfg, catalog=catalog, log_fn=log_fn)
            report = evaluate(
                result.model, sub, cutoffs=(min(recall_k, split.catalog_size),)
            )
            row[f"recall@{recall_k}"] = report.recall[min(recall_k, split.catalog_size)]
            row["num_users"] = report.num_users
        except Exception as e:
            row["skipped"] = f"{type(e).__name__}: {e}"
        rows.append(row)
        if log_fn is not None:
            log_fn(row)
    rows.sort(key=lambda r: r["train_items"])
    return rows


def scaling_table(rows, recall_k=500) -> str:
    """Delimited (tab) table of scaling rows; a skipped fraction's recall
    cell is empty."""
    key = f"recall@{recall_k}"
    lines = ["\t".join(["fraction", "train_items", key, "skipped"])]
    for row in rows:
        lines.append(
            "\t".join(
                [
                    repr(row["fraction"]),
                    str(row["train_items"]),
                    repr(row[key]) if key in row else "",
                    row.get("skipped", ""),
                ]
            )
        )
    return "\n".join(lines)


def blas_threads_capped() -> bool:
    """Whether ``blas_thread_limits`` caps anything: it needs threadpoolctl."""
    try:
        import threadpoolctl  # noqa: F401
    except ImportError:
        return False
    return True


def blas_thread_limits(threads: int):
    """Context manager capping BLAS threads; a no-op without threadpoolctl."""
    if not blas_threads_capped():
        return contextlib.nullcontext()
    from threadpoolctl import threadpool_limits

    return threadpool_limits(limits=threads)


def complexity_bench(n_items: int, session_len: int, dim=64, layers=2, heads=2,
                     repeats=3, seed=0) -> dict:
    """Attention cost at item granularity vs session granularity.

    Pair counts are analytic (n^2 vs (n/M)^2, ratio exactly M^2); the time
    ratio is measured by running the same sequence encoder forward over n
    tokens and over n/M tokens, single-threaded, best of ``repeats`` each;
    the two sides alternate repeat by repeat.
    """
    from .sequence_encoder import SequenceEncoder, SseConfig

    if min(n_items, session_len, repeats) < 1:
        raise ValueError(f"n_items, session_len and repeats must be >= 1, "
                         f"got {n_items}, {session_len} and {repeats}")
    if n_items % session_len:
        raise ValueError("session_len must divide n_items")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    m_sessions = n_items // session_len
    item_pairs = n_items * n_items
    session_pairs = m_sessions * m_sessions
    pair_ratio = item_pairs / session_pairs

    rng = np.random.default_rng(seed)
    enc = SequenceEncoder(
        SseConfig(
            backbone="causal_attention",
            layers=layers,
            heads=heads,
            max_positions=n_items,
        ),
        dim,
        T.Parameters(rng),
    )

    sides = [T.Tensor(rng.normal(0, 1, size=(m, dim)).astype(np.float32))
             for m in (n_items, m_sessions)]
    best = [np.inf, np.inf]
    with blas_thread_limits(1), T.no_grad():
        for tokens in sides:
            enc.encode(tokens)  # warm-up
        # the sides take turns, so a burst of load slows both, not one
        for _ in range(repeats):
            for i, tokens in enumerate(sides):
                start = time.perf_counter()
                enc.encode(tokens)
                best[i] = min(best[i], time.perf_counter() - start)
    item_time, session_time = best

    return {
        "n_items": n_items,
        "session_len": session_len,
        "item_level_pairs": item_pairs,
        "session_level_pairs": session_pairs,
        "pair_ratio": pair_ratio,
        "item_time_s": item_time,
        "session_time_s": session_time,
        "time_ratio": item_time / session_time,
    }
