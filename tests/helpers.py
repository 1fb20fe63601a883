"""Shared test utilities, kept independent of the library internals."""

import json
import os
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from nextsession import tensor as T
from nextsession.data import Dataset, Sessions, make_split, write_archive
from nextsession.evaluator import EvalReport, top_k
from nextsession.objective import build_targets, total_loss
from nextsession.tensor import Tensor


def finite_difference(make_loss, arrays, eps=1e-5):
    """Central-difference gradients of a scalar loss w.r.t. float64 arrays.

    `make_loss` receives the arrays and returns a python float. Returns
    one gradient array per input. Deliberately knows nothing about the
    autodiff graph it is used to check.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = make_loss(arrays)
            flat[i] = orig - eps
            down = make_loss(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def assert_grad_close(analytic, numeric, tol=1e-4):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    assert err.max() < tol, f"max relative gradient error {err.max():.3e} >= {tol}"


def check_op_gradient(build, arrays, tol=1e-4, eps=1e-5):
    """Gradient-check `build`, which maps leaf Tensors to a scalar Tensor."""

    def make_loss(arrs):
        leaves = [Tensor(a, requires_grad=True) for a in arrs]
        return build(*leaves).item()

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    out.backward()
    numeric = finite_difference(make_loss, arrays, eps=eps)
    for leaf, num in zip(leaves, numeric):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(num)
        assert_grad_close(analytic, num, tol=tol)


def graph_size(root):
    """Number of distinct nodes reachable from `root` through its parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function, as an op of its own; only the
    composite GRU reference and the activation gradient checks use it."""
    data = T._sigmoid(a.data)

    def backward(g):
        a._accumulate(g * data * (1.0 - data))

    return T._result(data, (a,), backward)


def columns(w: Tensor, cols) -> Tensor:
    """The columns ``cols`` of matrix ``w``, picked by ``gather`` between two
    transposes, so that gradients reach ``w`` through elementary ops."""
    return T.transpose(T.gather(T.transpose(w), cols))


def composite_gru_step(cell, x, h):
    """One step of a gated recurrent cell composed from elementary ops, on
    (rows, d) tensors; the reference that ``tensor.gru`` must match.  The
    cell's ``w`` is (in + d, 3d), input rows then state rows, with column
    blocks z, r and h~, like its bias ``b``."""
    m, d = x.shape[1], h.shape[1]
    gates = [np.arange(j * d, (j + 1) * d) for j in range(3)]
    wx = [T.gather(columns(cell.w, c), np.arange(m)) for c in gates]
    wh = [T.gather(columns(cell.w, c), m + np.arange(d)) for c in gates]
    bz, br, bh = (T.gather(cell.b, c) for c in gates)
    z = sigmoid(T.add(T.add(T.matmul(x, wx[0]), T.matmul(h, wh[0])), bz))
    r = sigmoid(T.add(T.add(T.matmul(x, wx[1]), T.matmul(h, wh[1])), br))
    hh = T.tanh(T.add(T.add(T.matmul(x, wx[2]), T.matmul(T.mul(r, h), wh[2])), bh))
    one_minus_z = T.add(T.mul(z, -1.0), 1.0)
    return T.add(T.mul(one_minus_z, h), T.mul(z, hh))


def composite_gru(cell, x, lengths):
    """Every state of packed ragged sequences, one composite step per row:
    sequence by sequence, each from a zero state."""
    states, start = [], 0
    for ln in lengths:
        h = Tensor(np.zeros((1, cell.b.shape[0] // 3), dtype=x.dtype))
        for t in range(start, start + ln):
            h = composite_gru_step(cell, T.gather(x, [t]), h)
            states.append(h)
        start += ln
    return states[0] if len(states) == 1 else T.concat(states, axis=0)


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax; entries where mask is False get probability 0.

    Every row must keep at least one entry.
    """
    s = x.data
    if mask is not None:
        if not mask.any(axis=-1).all():
            raise ValueError("softmax_rows: some row is fully masked")
        s = np.where(mask, s, -np.inf)
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    y = e / e.sum(axis=-1, keepdims=True)
    y = y.astype(x.dtype, copy=False)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        x._accumulate(y * (g - inner))

    return T._result(y, (x,), backward)


def composite_attention(x, lengths, causal, heads, wqkv, wo):
    """Multi-head self-attention composed from elementary ops, head by head,
    over one dense mask that keeps the packed sequences of ``lengths`` rows
    apart (and, with ``causal``, each row to the rows up to its own); the
    reference that ``tensor.attention`` must match.  Head h's query, key
    and value projections are column blocks h, heads + h and 2 * heads + h
    of ``wqkv``."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    mask = seg[:, None] == seg[None, :]
    if causal:
        mask &= np.tri(seg.size, dtype=bool)
    hd = x.shape[1] // heads
    scale = 1.0 / np.sqrt(hd)
    outs = []
    for h in range(heads):
        q, k, v = (T.matmul(x, columns(wqkv, (j * heads + h) * hd + np.arange(hd)))
                   for j in range(3))
        scores = T.mul(T.matmul(q, T.transpose(k)), scale)
        outs.append(T.matmul(softmax_rows(scores, mask), v))
    merged = outs[0] if len(outs) == 1 else T.concat(outs, axis=1)
    return T.matmul(merged, wo)


def reference_xent_grad(s, pos_cols, pos_mask, neg_cols, neg_mask):
    """The ``tensor.sampled_softmax_xent`` gradient of a unit loss as the op
    once formed it: every term summed by one float64 ``bincount`` over all
    cells of the score matrix, then cast to the scores' dtype."""
    n_rows, n_cols = s.shape
    pos_cols, neg_cols = np.asarray(pos_cols), np.asarray(neg_cols)
    pos_mask, neg_mask = np.asarray(pos_mask, bool), np.asarray(neg_mask, bool)
    rows = np.arange(n_rows)[:, None]
    has_neg = neg_mask.any(axis=1, keepdims=True)
    live = pos_mask & has_neg
    neg = np.where(neg_mask, s[rows, neg_cols], -np.inf)
    m = np.where(has_neg, neg.max(axis=1, keepdims=True, initial=-np.inf), 0.0)
    e = np.exp(neg - m)
    total = np.where(has_neg, e.sum(axis=1, keepdims=True), 1.0)
    x = np.log(total) + m - s[rows, pos_cols]
    softplus = np.logaddexp(0.0, x)
    sig = np.where(live, np.exp(x - softplus), 0.0)
    d_neg = sig.sum(axis=1, keepdims=True) * (e / total)
    flat = np.concatenate([(rows * n_cols + pos_cols).ravel(),
                           (rows * n_cols + neg_cols).ravel()])
    vals = np.concatenate([-sig.ravel(), d_neg.ravel()]) * np.ones((), s.dtype)
    grad = np.bincount(flat, weights=vals, minlength=s.size)
    return grad.reshape(s.shape).astype(s.dtype, copy=False)


def per_user_step(model, users, catalog_size, loss_cfg, rng):
    """The training step as one graph per user: each user's targets, forward,
    loss and backward in turn, gradients accumulating in the parameters.
    The reference that the packed minibatch must match; returns the summed
    (total, retrieval, rank, retrieval count, rank count)."""
    sums = np.zeros(5)
    for sessions in users:
        view, _, targets = build_targets([sessions], catalog_size,
                                         loss_cfg.num_sampled_negatives, rng)
        losses = total_loss(model.forward_sessions(view), targets, model.embedding, loss_cfg)
        losses.total.backward()
        sums += [losses.total.item(), losses.retrieval.item(), losses.rank.item(),
                 losses.retrieval_count, losses.rank_count]
    return sums


def per_user_ranked(model, views, k):
    """The ranking loop as one ``user_vector`` call per ``(ids, lengths)``
    view, then ``top_k`` of each.  The reference that the packed chunks of
    ``evaluator.ranked`` must match; returns (top-k ids, user vectors), one
    of each per view."""
    with T.no_grad():
        item_matrix = model.embedding.output_item_vectors().data
        vecs = [model.user_vector(view).data for view in views]
    return [top_k(vec, item_matrix, k) for vec in vecs], vecs


def loop_recall_at_k(ranked, targets, k):
    """Recall@k as a loop over ranks: the hits among ``ranked[:k]`` over the
    distinct targets."""
    tset = set(int(t) for t in targets)
    return sum(1 for it in ranked[:k] if int(it) in tset) / len(tset)


def loop_ndcg_at_k(ranked, targets, k):
    """Binary-relevance NDCG@k as a loop over ranks, each sum left to right."""
    tset = set(int(t) for t in targets)
    dcg = 0.0
    for p, it in enumerate(ranked[:k], start=1):
        if int(it) in tset:
            dcg += 1.0 / np.log2(p + 1)
    ideal = sum(1.0 / np.log2(p + 1) for p in range(1, min(k, len(tset)) + 1))
    return dcg / ideal


def loop_report(split, tops, cutoffs):
    """The ``EvalReport`` of ``split`` whose users ranked ``tops``: the loop
    metrics of each user, summed in user order and divided by the users."""
    recall = {k: 0.0 for k in cutoffs}
    ndcg = {k: 0.0 for k in cutoffs}
    for user, top in zip(split.users, tops):
        for k in cutoffs:
            recall[k] += loop_recall_at_k(top, user.targets, k)
            ndcg[k] += loop_ndcg_at_k(top, user.targets, k)
    n = len(split.users)
    return EvalReport(split.protocol, tuple(cutoffs), {k: r / n for k, r in recall.items()},
                      {k: g / n for k, g in ndcg.items()}, n,
                      split.stats.get("skipped_users", 0), "")


# Tensor defects that ``restore_model`` must refuse with a ValueError naming
# the tensor, written "<kind>:<tensor name>" for ``damaged_checkpoint``.
TENSOR_DAMAGE = ("missing:emb.item_table", "missing:sse.block0.mha.wo",
                 "extra:sse.block9.ffn.w1", "reshaped:emb.fuse_w1", "scalar:emb.item_table")


def damaged_checkpoint(path, tmp_path, damage):
    """Rewrite a checkpoint with one tensor defect of ``TENSOR_DAMAGE``: the
    tensor left out, an unknown tensor added, the tensor one row short, or
    the tensor a 0-d array."""
    from types import SimpleNamespace

    from nextsession.trainer import load_checkpoint, save_checkpoint

    kind, name = damage.split(":")
    ckpt = load_checkpoint(path)
    tensors = dict(ckpt.tensors)
    if kind == "missing":
        del tensors[name]
    elif kind == "extra":
        tensors[name] = np.zeros((2, 2), np.float32)
    elif kind == "scalar":
        tensors[name] = np.zeros((), np.float32)
    else:
        tensors[name] = tensors[name][:-1]
    stub = SimpleNamespace(parameters=lambda: {n: SimpleNamespace(data=a)
                                               for n, a in tensors.items()})
    out = tmp_path / f"{kind}-{name}.bin"
    save_checkpoint(str(out), stub, ckpt.config, ckpt.epoch, ckpt.metrics, ckpt.data_hash)
    return str(out)


# File defects that ``load_checkpoint`` must refuse with one ValueError
# naming the file, for ``broken_checkpoint``.
FILE_DAMAGE = ("flipped-tensor-byte", "no-header", "list-header", "header-without-epoch",
               "list-config", "format-version-1", "format-1-file")


def broken_checkpoint(path, tmp_path, damage):
    """Write a copy of a checkpoint with one defect of ``FILE_DAMAGE``: a
    byte of a tensor flipped, the header left out or edited, or the binary
    format that held checkpoints before they were npz archives."""
    blob = Path(path).read_bytes()
    out = tmp_path / f"{damage}.bin"
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    if damage == "flipped-tensor-byte":
        at = blob.index(arrays["emb.item_table"].tobytes()) + 5
        out.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:])
    elif damage == "format-1-file":  # magic, version, header length, header
        header = json.dumps({"config": {}, "config_hash": "", "epoch": 0, "metrics": {},
                             "tensors": []}).encode()
        out.write_bytes(b"NSCK" + struct.pack("<IQ", 1, len(header)) + header)
    else:
        header = json.loads(arrays.pop("header").tobytes())
        if damage == "list-header":
            header = [header]
        elif damage == "header-without-epoch":
            del header["epoch"]
        elif damage == "list-config":
            header["config"] = [1]
        elif damage == "format-version-1":
            header["format_version"] = 1
        if damage != "no-header":
            arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
        with open(out, "wb") as fh:
            np.savez(fh, **arrays)
    return str(out)


# ---------------------------------------------------------------------------
# Reference data pipeline: the row-object implementation that the columnar
# data layer replaced (one object per log row, dicts keyed by raw ids).  The
# columnar code must write exactly what this writes.
# ---------------------------------------------------------------------------

_REF_COLUMNS = ("user", "item", "session", "timestamp", "action")
_REF_POLARITY = {"exposure": False, "effective_view": True, "click": True, "purchase": True}


class _RefRow:
    __slots__ = ("user", "item", "session", "timestamp", "positive", "features")

    def __init__(self, user, item, session, timestamp, positive, features):
        self.user, self.item, self.session = user, item, session
        self.timestamp, self.positive, self.features = timestamp, positive, features


def _ref_ingest(path):
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return [], ()
        header = [h.strip() for h in header]
        for col in _REF_COLUMNS:
            if col not in header:
                raise ValueError(f"missing required column {col!r} in {path}")
        idx = {col: header.index(col) for col in _REF_COLUMNS}
        feature_names = tuple(h for h in header if h not in _REF_COLUMNS)
        feat_idx = [header.index(h) for h in feature_names]
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            action = row[idx["action"]].strip().lower().replace("-", "_")
            if action not in _REF_POLARITY:
                raise ValueError(f"line {lineno}: unknown action {row[idx['action']]!r}")
            try:
                ts = int(row[idx["timestamp"]])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: timestamp {row[idx['timestamp']]!r} is not an integer"
                ) from None
            out.append(_RefRow(row[idx["user"]], row[idx["item"]], row[idx["session"]], ts,
                               _REF_POLARITY[action], tuple(row[j] for j in feat_idx)))
    out.sort(key=lambda r: (r.user, r.timestamp))
    return out, feature_names


def _ref_fixpoint_filter(rows):
    while True:
        item_counts, user_counts, session_pos, user_sessions = {}, {}, {}, {}
        for r in rows:
            item_counts[r.item] = item_counts.get(r.item, 0) + 1
            user_counts[r.user] = user_counts.get(r.user, 0) + 1
            key = (r.user, r.session)
            session_pos[key] = session_pos.get(key, False) or r.positive
            user_sessions.setdefault(r.user, set()).add(r.session)
        kept = [
            r for r in rows
            if item_counts[r.item] >= 5 and user_counts[r.user] >= 5
            and session_pos[(r.user, r.session)] and len(user_sessions[r.user]) >= 3
        ]
        if len(kept) == len(rows):
            return kept
        rows = kept


def _ref_is_float(s):
    try:
        float(s)
    except ValueError:
        return False
    return True


def _ref_feature_info(rows, feature_names, bin_count):
    info = {}
    for j, name in enumerate(feature_names):
        raw = [r.features[j] for r in rows]
        distinct = sorted(set(raw))
        if len(distinct) > bin_count and all(_ref_is_float(v) for v in distinct):
            qs = np.linspace(0, 1, bin_count + 1)[1:-1]
            edges = np.unique(np.quantile(np.array([float(v) for v in raw]), qs))
            info[name] = {"kind": "binned", "edges": [float(e) for e in edges]}
        else:
            info[name] = {"kind": "categorical", "values": {v: i for i, v in enumerate(distinct)}}
    return info


def _ref_encode_feature(info, raw):
    if info["kind"] == "categorical":
        return info["values"][raw]
    return int(np.searchsorted(np.asarray(info["edges"]), float(raw), side="right"))


def reference_prepare(log_path, out_dir, bin_count=16, max_positive_len=200):
    """ingest -> fixpoint filter -> remap and sessionize -> save, one Python
    object per row; writes the dataset directory layout (format version 3)."""
    interactions, feature_names = _ref_ingest(log_path)
    rows = _ref_fixpoint_filter(interactions)
    if not rows:
        raise ValueError("dataset degenerate")
    item_ids = sorted({r.item for r in rows})
    item_map = {raw: i for i, raw in enumerate(item_ids)}
    feature_info = _ref_feature_info(rows, feature_names, bin_count)
    item_features = np.zeros((len(item_ids), len(feature_names)), dtype=np.int32)
    seen = set()
    for r in rows:
        di = item_map[r.item]
        if di not in seen:
            seen.add(di)
            for j, name in enumerate(feature_names):
                item_features[di, j] = _ref_encode_feature(feature_info[name], r.features[j])

    by_user = {}
    for r in rows:
        by_user.setdefault(r.user, {}).setdefault(r.session, []).append(r)
    users, user_sessions, session_rows = [], [], []
    items, positives, timestamps = [], [], []
    num_positives = 0
    for user in sorted(by_user):
        ordered = sorted(by_user[user].values(), key=lambda group: min(r.timestamp for r in group))
        users.append(user)
        user_sessions.append(len(ordered))
        for group in ordered:
            session_rows.append(len(group))
            for r in group:
                items.append(item_map[r.item])
                positives.append(r.positive)
                timestamps.append(r.timestamp)
                num_positives += r.positive

    header = {"format_version": 3, "feature_names": list(feature_names),
              "feature_info": feature_info, "max_positive_len": max_positive_len,
              "user_ids": users, "item_ids": item_ids}
    os.makedirs(out_dir, exist_ok=True)
    np.savez(
        os.path.join(out_dir, "interactions.npz"),
        header=np.frombuffer(json.dumps(header, sort_keys=True).encode(), np.uint8),
        session_rows=np.asarray(session_rows, dtype=np.int64),
        user_sessions=np.asarray(user_sessions, dtype=np.int64),
        item=np.asarray(items, dtype=np.int32),
        positive=np.asarray(positives, dtype=bool),
        timestamp=np.asarray(timestamps, dtype=np.int64),
        item_features=item_features,
    )
    n_users, n_sessions, n_rows = len(users), len(session_rows), len(items)
    stats = {
        "num_users": n_users,
        "num_items": len(item_map),
        "num_interactions": n_rows,
        "num_sessions": n_sessions,
        "avg_length": n_rows / n_users,
        "avg_positive_length": num_positives / n_users,
        "avg_session_length": n_rows / n_sessions,
    }
    with open(os.path.join(out_dir, "stats.json"), "w") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)


def dataset_files(data_dir):
    """Every member of a dataset directory's archive, in order, the header
    as its JSON text, plus the text of stats.json, for comparison."""
    with np.load(Path(data_dir) / "interactions.npz") as archive:
        blob = {name: archive[name] for name in archive.files}
    blob["header"] = blob["header"].tobytes().decode()
    with open(os.path.join(data_dir, "stats.json")) as fh:
        blob["stats.json"] = fh.read()
    return blob


def read_dataset_archive(data_dir):
    """The header, as a dict, and the arrays of a dataset directory's archive."""
    with np.load(Path(data_dir) / "interactions.npz") as archive:
        arrays = {name: archive[name] for name in archive.files}
    return json.loads(arrays.pop("header").tobytes()), arrays


def write_dataset_archive(data_dir, header, arrays):
    """Rewrite a dataset directory's archive from ``header``, a dict, and
    ``arrays`` with the library's archive writer."""
    write_archive(str(Path(data_dir) / "interactions.npz"), header, arrays)


# ---------------------------------------------------------------------------
# Histories.  ``history`` builds the ``Sessions`` view that the library
# reads; ``sessions_of`` reads one back as one ``ListSession`` per session,
# the list form that the reference implementations below take.
# ---------------------------------------------------------------------------


def history(*sessions):
    """A ``Sessions`` view of sessions given as ``(items, positives)`` or
    ``(items, positives, timestamps)`` rows.  Rows without timestamps are
    stamped with their row number over the whole history."""
    items, positives, stamps, offsets = [], [], [], [0]
    for row in sessions:
        start, n = offsets[-1], len(row[0])
        items += list(row[0])
        positives += list(row[1])
        stamps += list(row[2]) if len(row) > 2 else list(range(start, start + n))
        offsets.append(start + n)
    return Sessions(
        np.array(items, np.int32),
        np.array(positives, bool),
        np.array(stamps, np.int64),
        np.array(offsets),
    )


def dataset_of(sessions, user_offsets, user_ids=None):
    """A ``Dataset`` of the ``Sessions`` view ``sessions``, user u owning
    sessions ``user_offsets[u]:user_offsets[u + 1]``.  Users are named
    ``user_ids``, by default ``f"u{u}"``."""
    if user_ids is None:
        user_ids = [f"u{u}" for u in range(len(user_offsets) - 1)]
    return Dataset(sessions, np.array(user_offsets), list(user_ids))


def ragged(rows):
    """Rows given as lists -> the ``(flat int64 ids, int64 count per row)``
    pair that the model and the losses take."""
    ids = np.concatenate([np.zeros(0, np.int64)] + [np.asarray(r, np.int64) for r in rows])
    return ids, np.array([len(r) for r in rows], dtype=np.int64)


class ListSession(NamedTuple):
    """One session as parallel lists, in log order."""

    items: list
    positives: list
    timestamps: list


def sessions_of(view):
    """The sessions of a ``Sessions`` view, one ``ListSession`` each."""
    bounds = view.offsets.tolist()
    return [ListSession(view.item[a:b].tolist(), view.positive[a:b].tolist(),
                        view.timestamp[a:b].tolist())
            for a, b in zip(bounds, bounds[1:])]


def reference_encoder_views(sessions):
    """Positive item lists, one per ``ListSession``: the list-based
    ``data.encoder_views`` that the array one replaced."""
    return [[it for it, pos in zip(s.items, s.positives) if pos] for s in sessions]


def reference_build_targets(sessions, catalog_size, num_sampled, rng):
    """The list-based ``objective.build_targets`` that the array one
    replaced, over two or more ``ListSession``s that each hold a positive:
    one sorted set difference and one draw of ``num_sampled`` negatives per
    target session."""
    views = reference_encoder_views(sessions[:-1])
    positives, in_session, sampled = [], [], []
    for target in sessions[1:]:
        pos = sorted({it for it, p in zip(target.items, target.positives) if p})
        neg = sorted({it for it, p in zip(target.items, target.positives) if not p} - set(pos))
        positives.append(np.asarray(pos, dtype=np.int64))
        in_session.append(np.asarray(neg, dtype=np.int64))
        sampled.append(rng.integers(0, catalog_size, size=num_sampled, dtype=np.int64))
    return views, positives, in_session, sampled


def reference_clip_sessions_to(sessions, max_ts):
    """The list-based ``evaluator._clip_sessions_to`` that the array one
    replaced: each ``ListSession``'s rows at or before ``max_ts``, dropping
    the sessions left without a positive."""
    out = []
    for s in sessions:
        keep = [i for i, ts in enumerate(s.timestamps) if ts <= max_ts]
        if any(s.positives[i] for i in keep):
            out.append(ListSession([s.items[i] for i in keep],
                                   [s.positives[i] for i in keep],
                                   [s.timestamps[i] for i in keep]))
    return out


def _exposed_and_clicked(session):
    clicked = {it for it, pos in zip(session.items, session.positives) if pos}
    return any(not pos and it in clicked for it, pos in zip(session.items, session.positives))


def random_train_views(seed, users=40, catalog=12):
    """The session-protocol train views of random ragged users, cut to a
    small positive budget, and which of the cases the list-based references
    must be compared on they hold: a first session cut mid-session, a
    session with exposures, and an item both exposed and clicked in one
    session.  Every session holds a positive, as in a ``Dataset``.
    Timestamps are random, so rows are not in time order."""
    rng = np.random.default_rng(seed)
    rows, user_offsets = [], [0]
    for _ in range(users):
        for _ in range(int(rng.integers(2, 7))):
            n = int(rng.integers(1, 7))
            positive = rng.random(n) < 0.5
            positive[rng.integers(n)] = True
            rows.append((rng.integers(0, catalog, n), positive, rng.integers(0, 100, n)))
        user_offsets.append(len(rows))
    dataset = dataset_of(history(*rows), user_offsets)
    split = make_split(dataset, "session", catalog, max_positive_len=int(rng.integers(2, 8)))
    views = [user.train_sessions for user in split.users]
    starts = set(dataset.sessions.offsets.tolist())
    cases = {
        "cut first session": any(int(v.offsets[0]) not in starts for v in views),
        "session with exposures": any((np.diff(v.offsets) > v.positive_counts()).any()
                                      for v in views),
        "exposed and clicked": any(map(_exposed_and_clicked,
                                       (s for v in views for s in sessions_of(v)))),
    }
    return views, cases
