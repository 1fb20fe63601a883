"""Unsampled top-K evaluation, the alpha sweep, the data-scaling harness,
and the attention-complexity benchmark.

All ranking is exact: every user's vector is scored against the full catalog,
and the best k ids come out by descending score with ties broken by ascending
item id, so reports are reproducible across platforms.  Selection keeps the
c candidates that reach a bound no higher than the k-th best score and sorts
only them, O(N + c log c) per user instead of sorting all N scores.  The
bound is the k-th largest of 2k bucket maxima, one max reduction over the
scores and a partition of 2k values; a bucket interleaves ids (j, j + 2k,
...), so scores that trend with id do not crowd into a few buckets.  Where a
bucket would hold fewer than ``MIN_BUCKET`` scores, one partition of all N
finds the k-th best score itself.  NaN scores rank last, and a row whose
bound a NaN could hide takes every id as a candidate (see
``top_k_candidates``).

``ranked`` is the one ranking loop: ``evaluate`` and the trainer's
validation both hand it their users' histories and read back top-k ids.
It encodes users in packed chunks, one ``user_vector`` call per chunk, of
``RANK_USERS`` for ``evaluate`` and of ``SCORE_USERS`` for validation,
and ranks them in blocks of ``SCORE_USERS``, one ``top_k`` call per block: the block's vectors are scored with one matrix product, so
the catalog is read once per block, and selected row by row in one pass.
Chunks and blocks are formed in ascending order of session count, ties in
input order, since a chunk's recurrent encoder takes as many steps as its
longest history has sessions.  ``block_metrics`` then gives the recall and
NDCG of a whole block at every cutoff.  Each user's metric is stored at the
user's index and summed in user order, so a report does not depend on the
packing: where every user has the same session count the order is the
input order and the floats are unchanged, and on ragged histories a user's
vector is packed with other users and can round differently in the last
bits.  A block's scores round differently from one user's matrix-vector
scores in the last bits (see ``top_k``), so a near-tie at the cutoff can
order differently than a per-user loop would order it.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .data import DatasetSplit, Sessions, UserSplit, encoder_views

DEFAULT_CUTOFFS = (10, 100, 500)


# The fewest scores a bucket of ``top_k``'s bound may hold; below that, one
# partition of the whole row is faster.  Measured with random float32
# scores, one BLAS thread, 2 vCPUs, 31 alternating top_k calls per size:
# at k = 100 and s = N // 2k scores a bucket, the partition was 7-17 %
# faster for s <= 16 (60 and 24 users a block), the two tied at s = 24, and
# the bound was 6-26 % faster from s = 32 (N = 6.4k) on; at k = 500 and 60
# users it was 8 % slower at s = 16 and 11 % faster at s = 24.  In paired
# evaluate() and validation calls, buckets of s = 2 (N = 486, k = 100) were
# 4-5 % slower than the partition and s = 5 (N = 1000) tied.
MIN_BUCKET = 24


def top_k(user_vecs: np.ndarray, item_vecs: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k item ids by dot product, descending; ties by ascending id.

    ``user_vecs`` is one ``(d,)`` vector, giving ``(k,)`` ids, or a ``(b, d)``
    block, giving ``(b, k)`` ids, one row per user.  A block is scored with
    one ``(b, d) @ (d, N)`` matrix product, so the catalog is read once per
    block; ``(d,)`` is scored as ``item_vecs @ user_vecs``.  BLAS rounds a
    matrix-matrix product differently from a matrix-vector one, so a row's
    scores can differ in the last bits between the two forms (on OpenBLAS a
    row's scores do not depend on the block size for b >= 2, and a one-row
    block is a matrix-vector product); the ids differ only where two scores
    are that close.

    The c candidates of ``top_k_candidates`` hold every id at least as good
    as a row's k-th best, so a tie group straddling position k is kept
    whole; one sort of all the block's candidates by (row, -score, id) then
    orders them: O(b N + c log c).  Every row takes all N ids when k is N,
    which keeps the order of a full sort for NaN, +-inf and +-0.0.
    """
    one = np.ndim(user_vecs) == 1
    # an overflowing score is +-inf and a NaN one (inf - inf) is ranked last
    # by contract, so numpy need not warn of either
    with np.errstate(invalid="ignore", over="ignore"):
        scores = (item_vecs @ user_vecs)[None] if one else user_vecs @ item_vecs.T
    rows, n = scores.shape
    if k < 0:
        raise ValueError(f"k={k} must be non-negative")
    if k > n:
        raise ValueError(f"k={k} exceeds catalog size {n}")
    if k == 0 or k == n:
        candidate = np.full(scores.shape, k > 0)
    else:
        candidate = top_k_candidates(scores, k)
    flat = np.flatnonzero(candidate)
    row, ids = np.divmod(flat, n)
    order = np.lexsort((ids, -scores.ravel()[flat], row))
    counts = np.bincount(row, minlength=rows)
    starts = np.cumsum(counts) - counts
    top = ids[order[starts[:, None] + np.arange(k)]]
    return top[0] if one else top


def top_k_candidates(scores: np.ndarray, k: int) -> np.ndarray:
    """A ``(b, N)`` mask of each row's ids whose score reaches a bound no
    higher than the row's k-th best score, for 0 < k < N.

    The bound comes from bucket maxima: the first ``nb * s`` scores of a row
    are split into ``nb = 2k`` buckets of ``s = N // nb``, and the k-th
    largest of the nb bucket maxima is the bound.  Each of the k buckets
    whose max reaches it holds a score at least that high, so the k-th best
    score does too; the remainder columns past ``nb * s`` are compared with
    the bound like the rest.  This is one max reduction over the block and
    a partition of 2k values per row, instead of a partition of all N.
    Bucket j holds columns j, j + nb, j + 2 nb, ..., not a run of
    consecutive ids: ids are the sorted raw item names, which often follow
    an item's age or popularity, and so can its score.  On a row whose
    scores rise or fall with id, interleaved buckets keep about k
    candidates, where runs of consecutive ids would keep about N / 2.
    When a bucket would hold fewer than ``MIN_BUCKET`` scores, every score
    is its own bucket: one row-wise ``np.partition`` finds the k-th best
    score itself.

    A NaN score is ranked last, so it must not set the bound: a row with a
    NaN bucket max, or whose k-th best score is NaN (fewer than k scores
    are numbers), takes all N ids.
    """
    rows, n = scores.shape
    nb = 2 * k
    s = n // nb
    if s >= MIN_BUCKET:
        # a view: row r's column j + i nb is element [r, i, j]
        maxima = scores[:, : nb * s].reshape(rows, s, nb).max(axis=1)
        bound = np.partition(maxima, nb - k, axis=1)[:, nb - k : nb - k + 1]
        every = np.isnan(maxima).any(axis=1)
    else:
        neg = np.negative(scores)
        neg.partition(k - 1, axis=1)
        bound = -neg[:, k - 1 : k]
        every = np.isnan(bound[:, 0])
    candidate = scores >= bound
    candidate[every] = True
    return candidate


def block_metrics(ids, targets, cutoffs) -> tuple[np.ndarray, np.ndarray]:
    """Recall@K and NDCG@K of each row of ``ids``, a ``(b, k)`` block of
    ranked item ids, against the same row of ``targets`` (b lists of ids),
    at every K of ``cutoffs``; two ``(len(cutoffs), b)`` float64 arrays.

    Binary relevance, 1-based positions p, and distinct targets T.  Recall is
    the hits at p <= K over |T|.  DCG sums 1/log2(p+1) over hit positions
    p <= K; the ideal DCG places all targets first, so IDCG =
    sum_{p=1}^{min(K, |T|)} 1/log2(p+1).  Both sums run left to right, as a
    cumulative sum along the row.  Hits are found with one ``np.isin`` over
    ``row * width + id`` keys, so a block costs a few array passes however
    many users and cutoffs it holds.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(len(targets), -1)
    rows, depth = ids.shape
    wanted = [np.fromiter(t, dtype=np.int64) for t in targets]
    lengths = np.array([len(t) for t in wanted], dtype=np.int64)
    if not lengths.all():
        raise ValueError("metrics need a non-empty target set for every user")
    wanted = np.concatenate(wanted)
    low = min(int(wanted.min()), int(ids.min(initial=0)))
    width = max(int(wanted.max()), int(ids.max(initial=0))) - low + 1
    keys = np.unique(np.repeat(np.arange(rows), lengths) * width + (wanted - low))
    num_targets = np.bincount(keys // width, minlength=rows)
    # column p holds position p; column 0 is the empty prefix
    hit = np.zeros((rows, depth + 1), dtype=bool)
    hit[:, 1:] = np.isin(np.arange(rows)[:, None] * width + (ids - low), keys)
    span = max(depth, min(max(cutoffs), int(num_targets.max())))
    gains = np.r_[0.0, 1.0 / np.log2(np.arange(2, span + 2))]
    hits = np.cumsum(hit, axis=1)
    dcg = np.cumsum(np.where(hit, gains[: depth + 1], 0.0), axis=1)
    ideal = np.cumsum(gains)
    recall = np.empty((len(cutoffs), rows))
    ndcg = np.empty((len(cutoffs), rows))
    for j, k in enumerate(cutoffs):
        recall[j] = hits[:, min(k, depth)] / num_targets
        ndcg[j] = dcg[:, min(k, depth)] / ideal[np.minimum(k, num_targets)]
    return recall, ndcg


def recall_at_k(ranked, targets, k: int) -> float:
    return float(block_metrics(np.asarray(ranked)[:k], [targets], (k,))[0][0, 0])


def ndcg_at_k(ranked, targets, k: int) -> float:
    """Binary-relevance NDCG with 1-based positions (``block_metrics``)."""
    return float(block_metrics(np.asarray(ranked)[:k], [targets], (k,))[1][0, 0])


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


# Users encoded by one ``user_vector`` call in evaluate()'s ``ranked``,
# taken in ascending order of session count (ties in input order), so a
# chunk's histories are of similar length.  Larger chunks are faster, but
# perfbench's eval latency takes one sample per ``user_vector`` call under
# evaluate() and needs at least 20: the traced long-history-gru smoke run
# evaluates 24 users x 3 passes x 2 traced rounds, so 6 gives it 24 samples
# and 8 only 18.  Validation inside train() is not sampled per call, so it
# encodes a whole ``SCORE_USERS`` block per call instead.
RANK_USERS = 6

# Users scored and ranked by one ``top_k`` call in ``ranked``: ten of
# evaluate()'s chunks, and one of validation's.
# One (b, d) @ (d, N) product reads the catalog once for b users instead of
# b times, but holds a (b, N) score block and a candidate mask (and, below
# the bucket bound's sizes, a partition copy): 60 x N x 4 B is 8.6 MB of
# float32 scores at N = 36k.  A bound keeps that working set fixed however
# many users are evaluated.  Measured on large-catalog (N = 36k, 240 users,
# 30 alternating evaluate() calls per size, one BLAS thread, 2 vCPUs):
# blocks of 30 users were 7 % slower than 60 (faster in 6 of 30 calls) and
# blocks of 120 were 3 % faster (22 of 30), so smaller blocks do not pay,
# and 60 keeps the score block at half the size of 120's.
SCORE_USERS = 10 * RANK_USERS


def ranked(model, views, k: int, encode_users: int):
    """Yield ``(index, ids)`` per block of users: ``index``, an int64 array
    into the sequence ``views``, and ``ids``, the ``(len(index), k)`` exact
    top-k item ids of those views, row by row.

    The catalog is embedded once, on the first request.  The ``(ids,
    lengths)`` views are then taken in ascending order of session count,
    ``len(lengths)``, with ties in input order, and in chunks of
    ``encode_users``: a chunk is appended into one packed view and encoded
    by one ``user_vector`` call.  Each block of up to ``SCORE_USERS`` users
    is then ranked with one ``top_k`` call.  Views of equal session count
    therefore come out in input order.
    """
    with T.no_grad():
        item_matrix = model.embedding.output_item_vectors().data
    order = np.array(sorted(range(len(views)), key=lambda i: len(views[i][1])),  # stable
                     dtype=np.int64)
    for lo in range(0, len(order), SCORE_USERS):
        block = order[lo : lo + SCORE_USERS]
        user_vecs = []
        for c in range(0, len(block), encode_users):
            chunk = block[c : c + encode_users]
            packed = tuple(np.concatenate(part) for part in zip(*(views[i] for i in chunk)))
            with T.no_grad():
                user_vecs.append(
                    model.user_vector(packed, [len(views[i][1]) for i in chunk]).data)
        yield block, top_k(np.concatenate(user_vecs), item_matrix, k)


def mean_in_user_order(values: np.ndarray) -> float:
    """The mean of per-user ``values`` added one by one from user 0, so it
    does not depend on the order ``ranked`` produced them in (``np.mean``
    sums pairwise, and ``sum`` compensates from Python 3.12)."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total / len(values)


def evaluate(model, split: DatasetSplit, cutoffs=DEFAULT_CUTOFFS, config_hash="") -> EvalReport:
    """Rank the full catalog for every user of ``split`` and average the
    metrics; ``skipped_users`` is the count in ``split.stats``."""
    if model.embedding.num_items != split.catalog_size:
        raise ValueError(
            f"catalog mismatch: model has {model.embedding.num_items} items, "
            f"dataset has {split.catalog_size}"
        )
    n = len(split.users)
    if n == 0:
        raise ValueError("no evaluable users in split")
    try:
        cutoffs = tuple(cutoffs)
    except TypeError:
        raise ValueError(f"cutoffs must be a list of integers, got {cutoffs!r}") from None
    if not cutoffs:
        raise ValueError("cutoffs must name at least one K")
    for k in cutoffs:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError(f"cutoffs must be integers, got {k!r}")
    cutoffs = tuple(sorted({int(k) for k in cutoffs}))
    if cutoffs[0] < 1:
        raise ValueError(f"cutoffs must be >= 1, got {cutoffs[0]}")
    recall = np.empty((len(cutoffs), n))
    ndcg = np.empty((len(cutoffs), n))
    views = [encoder_views(user.train_sessions) for user in split.users]
    for index, ids in ranked(model, views, min(cutoffs[-1], split.catalog_size),
                             RANK_USERS):
        recall[:, index], ndcg[:, index] = block_metrics(
            ids, [split.users[i].targets for i in index], cutoffs)
    return EvalReport(
        protocol=split.protocol,
        cutoffs=cutoffs,
        recall={k: mean_in_user_order(row) for k, row in zip(cutoffs, recall)},
        ndcg={k: mean_in_user_order(row) for k, row in zip(cutoffs, ndcg)},
        num_users=n,
        skipped_users=split.stats.get("skipped_users", 0),
        config_hash=config_hash,
    )


# ---------------------------------------------------------------------------
# sweeps and harnesses
# ---------------------------------------------------------------------------


def _train_cells(cells, catalog, fields, failed: str) -> list:
    """The sweeps' one cell loop: train and evaluate each ``(row, split, cfg,
    cutoffs)`` cell in turn and return the rows.  A trained cell's row takes
    ``fields(report)``; a cell whose own training fails (divergence, or no
    trainable user) takes the error as ``row[failed]``, and the loop goes on."""
    from .trainer import TrainingDiverged, train

    rows = []
    for row, split, cfg, cutoffs in cells:
        try:
            result = train(split, cfg, catalog=catalog)
        except (ValueError, TrainingDiverged) as e:
            row[failed] = f"{type(e).__name__}: {e}"
        else:
            row.update(fields(evaluate(result.model, split, cutoffs=cutoffs)))
        rows.append(row)
    return rows


def alpha_sweep(split: DatasetSplit, cfg, alphas, catalog=None):
    """Train one model per rank-loss weight (same seed) and evaluate each.

    Before the first cell trains, every cell's config is checked and so is
    the split (``trainer.trainable_users``); a fault there raises the
    ValueError that ``train`` would.  Returns one row per alpha; a cell
    whose training diverges carries an "error" field and the sweep goes on.
    """
    from .trainer import trainable_users

    if len(alphas) < 1:
        raise ValueError("alpha_sweep needs at least one alpha")
    cells = [replace(cfg, loss=replace(cfg.loss, alpha=alpha)) for alpha in alphas]
    trainable_users(split, cfg)
    return _train_cells(
        [({"alpha": cell.loss.alpha}, split, cell, DEFAULT_CUTOFFS) for cell in cells],
        catalog,
        lambda report: {"recall": dict(report.recall), "ndcg": dict(report.ndcg),
                        "num_users": report.num_users},
        "error",
    )


def _tsv(header, rows) -> str:
    """A tab-separated table: the ``header`` line, then one line per row
    dict with its value of each header column, a str as it is, any other
    value by its ``repr``, and an absent one as an empty cell."""
    lines = ["\t".join(header)]
    for row in rows:
        cells = (row.get(name, "") for name in header)
        lines.append("\t".join(cell if isinstance(cell, str) else repr(cell) for cell in cells))
    return "\n".join(lines)


def sweep_table(rows, cutoffs=DEFAULT_CUTOFFS) -> str:
    """Delimited (tab) table of sweep rows, plot-ready; a failed cell's
    metric cells are empty."""
    metrics = [(name, k) for name in ("recall", "ndcg") for k in cutoffs]
    flat = [{**row, **{f"{name}@{k}": row[name][k] for name, k in metrics if name in row}}
            for row in rows]
    return _tsv(["alpha", *(f"{name}@{k}" for name, k in metrics), "error"], flat)


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


def scaling_run(split: DatasetSplit, cfg, fractions, catalog=None, recall_k=500):
    """Train on chronological prefixes of the train views, evaluate on the
    fixed targets, and report (train_items, Recall@recall_k) per fraction.

    train_items counts the positive interactions available for training at
    that fraction.  Before the first cell trains, the split as a whole is
    checked (``trainer.trainable_users``), so a fault there, such as a view
    longer than ``sse.max_positions``, raises the ValueError that ``train``
    would, whichever fractions are asked for.  A fraction whose prefix
    leaves no trainable user, or whose training diverges, is marked skipped.
    """
    from .trainer import trainable_users

    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"fractions must be in (0, 1], got {f}")
    if recall_k < 1:
        raise ValueError(f"recall_k must be >= 1, got {recall_k}")
    trainable_users(split, cfg)
    k = min(recall_k, split.catalog_size)

    all_ts = np.concatenate([u.train_sessions.timestamp[u.train_sessions.rows()]
                             for u in split.users])
    t0, t1 = int(all_ts.min()), int(all_ts.max())

    def cells():  # one fraction's prefix at a time
        for f in sorted(fractions):
            max_ts = t1 if f == 1.0 else int(t0 + f * (t1 - t0))
            clipped = [(user, _clip_sessions_to(user.train_sessions, max_ts))
                       for user in split.users]
            users = [UserSplit(user.user_id, view, user.targets)
                     for user, view in clipped if len(view)]
            train_items = sum(int(np.count_nonzero(user.train_sessions.positive))
                              for user in users)
            sub = DatasetSplit(split.protocol, users, split.catalog_size,
                               {**split.stats, "skipped_users": 0})
            yield {"fraction": f, "train_items": train_items}, sub, cfg, (k,)

    rows = _train_cells(
        cells(),
        catalog,
        lambda report: {f"recall@{recall_k}": report.recall[k], "num_users": report.num_users},
        "skipped",
    )
    rows.sort(key=lambda r: r["train_items"])
    return rows


def scaling_table(rows, recall_k=500) -> str:
    """Delimited (tab) table of scaling rows; a skipped fraction's recall
    cell is empty."""
    return _tsv(["fraction", "train_items", f"recall@{recall_k}", "skipped"], rows)


def _openblas_thread_calls():
    """The ``(get, set)`` thread-count functions of the OpenBLAS bundled in
    numpy's wheels, looked up when called.  Where numpy links another BLAS,
    they are stand-ins: ``get`` gives None and ``set`` does nothing."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):  # numpy < 2, or another BLAS
        return (lambda: None), (lambda threads: None)
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def blas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS; None when numpy links another BLAS."""
    return _openblas_thread_calls()[0]()


@contextlib.contextmanager
def blas_thread_limits(threads: int):
    """Run the body with numpy's OpenBLAS at ``threads`` threads (below 1,
    OpenBLAS takes its default) and restore the old count after; a no-op
    when numpy links another BLAS."""
    get, put = _openblas_thread_calls()
    old = get()
    put(threads)
    try:
        yield
    finally:
        put(old)


def complexity_bench(n_items: int, session_len: int, dim=64, layers=2, heads=2,
                     repeats=3, seed=0) -> dict:
    """Attention cost at item granularity vs session granularity.

    Pair counts are analytic (n^2 vs (n/M)^2, ratio exactly M^2); the time
    ratio is measured by running the same sequence encoder forward over n
    tokens and over n/M tokens, single-threaded, best of ``repeats`` each;
    the two sides alternate repeat by repeat.
    """
    from .sequence_encoder import SequenceEncoder, SseConfig
    from .trainer import TrainConfig

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
    sse = SseConfig(backbone="causal_attention", layers=layers, heads=heads,
                    max_positions=n_items)
    TrainConfig(dim=dim, sse=sse)  # checks heads against dim
    enc = SequenceEncoder(sse, dim, T.Parameters(rng))

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
