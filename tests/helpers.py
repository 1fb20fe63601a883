"""Shared test utilities, kept independent of the library internals."""

import hashlib
import json
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from nextsession import tensor as T
from nextsession.data import Dataset, Sessions, make_split
from nextsession.evaluator import top_k
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


def composite_gru_step(cell, x, h):
    """One step of a gated recurrent cell composed from elementary ops, on
    (rows, d) tensors; the reference that ``tensor.gru`` must match."""
    z = T.sigmoid(T.add(T.add(T.matmul(x, cell.wz), T.matmul(h, cell.uz)), cell.bz))
    r = T.sigmoid(T.add(T.add(T.matmul(x, cell.wr), T.matmul(h, cell.ur)), cell.br))
    hh = T.tanh(T.add(T.add(T.matmul(x, cell.wh), T.matmul(T.mul(r, h), cell.uh)), cell.bh))
    one_minus_z = T.add(T.mul(z, -1.0), 1.0)
    return T.add(T.mul(one_minus_z, h), T.mul(z, hh))


def composite_gru(cell, x, lengths):
    """Every state of packed ragged sequences, one composite step per row:
    sequence by sequence, each from a zero state."""
    states, start = [], 0
    for ln in lengths:
        h = Tensor(np.zeros((1, cell.uz.shape[0]), dtype=x.dtype))
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


def composite_attention(x, lengths, causal, wq, wk, wv, wo):
    """Multi-head self-attention composed from elementary ops, head by head,
    over one dense mask that keeps the packed sequences of ``lengths`` rows
    apart (and, with ``causal``, each row to the rows up to its own); the
    reference that ``tensor.attention`` must match."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    mask = seg[:, None] == seg[None, :]
    if causal:
        mask &= np.tri(seg.size, dtype=bool)
    scale = 1.0 / np.sqrt(wq[0].shape[1])
    outs = []
    for h in range(len(wq)):
        q = T.matmul(x, wq[h])
        k = T.matmul(x, wk[h])
        v = T.matmul(x, wv[h])
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


def legacy_copy(path, tmp_path, optimizer="adam", sampling="uniform", sse_dropout=0.2):
    """Rewrite a checkpoint's header as written before the retired
    single-value keys and the unread ``sse.dropout`` were dropped, stored
    hash included."""
    blob = Path(path).read_bytes()
    (n,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + n])
    header["config"]["optimizer"] = optimizer
    header["config"]["loss"]["sampling"] = sampling
    header["config"]["sse"]["dropout"] = sse_dropout
    header["config_hash"] = hashlib.sha256(
        json.dumps(header["config"], sort_keys=True).encode()
    ).hexdigest()[:16]
    raw = json.dumps(header, sort_keys=True).encode()
    out = tmp_path / f"legacy-{optimizer}-{sampling}-{sse_dropout}.bin"
    out.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + n :])
    return str(out)


# Tensor defects that ``restore_model`` must refuse with a ValueError naming
# the tensor, written "<kind>:<tensor name>" for ``damaged_checkpoint``.
TENSOR_DAMAGE = ("missing:emb.item_table", "missing:sse.block0.mha.wo",
                 "extra:sse.block9.ffn.w1", "reshaped:emb.fuse_w1")


def damaged_checkpoint(path, tmp_path, damage):
    """Rewrite a checkpoint with one tensor defect of ``TENSOR_DAMAGE``: the
    tensor left out, an unknown tensor added, or the tensor one row short."""
    from types import SimpleNamespace

    from nextsession.trainer import load_checkpoint, save_checkpoint

    kind, name = damage.split(":")
    ckpt = load_checkpoint(path)
    tensors = dict(ckpt.tensors)
    if kind == "missing":
        del tensors[name]
    elif kind == "extra":
        tensors[name] = np.zeros((2, 2), np.float32)
    else:
        tensors[name] = tensors[name][:-1]
    stub = SimpleNamespace(parameters=lambda: {n: SimpleNamespace(data=a)
                                               for n, a in tensors.items()})
    out = tmp_path / f"{kind}-{name}.bin"
    save_checkpoint(str(out), stub, ckpt.config, ckpt.epoch, ckpt.metrics, ckpt.data_hash)
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
    object per row; writes the dataset directory layout (format version 1)."""
    import os

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
    users, session_ids = [], []
    user_idx, sess_ord, items, positives, timestamps = [], [], [], [], []
    num_positives = 0
    for ui, user in enumerate(sorted(by_user)):
        ordered = sorted(by_user[user].items(), key=lambda kv: min(r.timestamp for r in kv[1]))
        users.append(user)
        session_ids.append([sid for sid, _ in ordered])
        for so, (_, group) in enumerate(ordered):
            for r in group:
                user_idx.append(ui)
                sess_ord.append(so)
                items.append(item_map[r.item])
                positives.append(r.positive)
                timestamps.append(r.timestamp)
                num_positives += r.positive

    os.makedirs(out_dir, exist_ok=True)
    np.savez(
        os.path.join(out_dir, "interactions.npz"),
        user_idx=np.asarray(user_idx, dtype=np.int32),
        session_ord=np.asarray(sess_ord, dtype=np.int32),
        item=np.asarray(items, dtype=np.int32),
        positive=np.asarray(positives, dtype=bool),
        timestamp=np.asarray(timestamps, dtype=np.int64),
        item_features=item_features,
    )
    with open(os.path.join(out_dir, "item_map.json"), "w") as fh:
        json.dump(item_map, fh)
    with open(os.path.join(out_dir, "users.json"), "w") as fh:
        json.dump({"users": users, "session_ids": session_ids}, fh)
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({"format_version": 1, "feature_names": list(feature_names),
                   "feature_info": feature_info, "max_positive_len": max_positive_len,
                   "num_items": len(item_map)}, fh, indent=2)
    n_users, n_sessions, n_rows = len(users), sum(map(len, session_ids)), len(items)
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
    """Every array and JSON file of a dataset directory, for comparison."""
    import os

    with np.load(os.path.join(data_dir, "interactions.npz")) as archive:
        blob = {name: archive[name] for name in archive.files}
    for name in ("item_map.json", "users.json", "meta.json", "stats.json"):
        with open(os.path.join(data_dir, name)) as fh:
            blob[name] = fh.read()
    return blob


# ---------------------------------------------------------------------------
# Histories.  ``history`` builds the ``Sessions`` view that the library
# reads; ``sessions_of`` reads one back as one ``ListSession`` per session,
# the list form that the reference implementations below take.
# ---------------------------------------------------------------------------


def history(*sessions, ids=None):
    """A ``Sessions`` view of sessions given as ``(items, positives)`` or
    ``(items, positives, timestamps)`` rows.  Rows without timestamps are
    stamped with their row number over the whole history.  Session k is
    named ``ids[k]``, by default ``f"s{k}"``."""
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
        list(ids) if ids is not None else [f"s{k}" for k in range(len(sessions))],
    )


def ragged(rows):
    """Rows given as lists -> the ``(flat int64 ids, int64 count per row)``
    pair that the model and the losses take."""
    ids = np.concatenate([np.zeros(0, np.int64)] + [np.asarray(r, np.int64) for r in rows])
    return ids, np.array([len(r) for r in rows], dtype=np.int64)


class ListSession(NamedTuple):
    """One session as parallel lists, in log order."""

    session_id: str
    items: list
    positives: list
    timestamps: list


def sessions_of(view):
    """The sessions of a ``Sessions`` view, one ``ListSession`` each."""
    bounds = view.offsets.tolist()
    return [ListSession(sid, view.item[a:b].tolist(), view.positive[a:b].tolist(),
                        view.timestamp[a:b].tolist())
            for sid, a, b in zip(view.session_ids, bounds, bounds[1:])]


def reference_encoder_views(sessions):
    """Positive item lists per ``ListSession``, skipping positive-free
    sessions: the list-based ``data.encoder_views`` that the array one
    replaced."""
    views = [[it for it, pos in zip(s.items, s.positives) if pos] for s in sessions]
    return [v for v in views if v]


def reference_build_targets(sessions, catalog_size, num_sampled, rng):
    """The list-based ``objective.build_targets`` that the array one
    replaced, over ``ListSession``s: one sorted set difference and one draw
    of ``num_sampled`` negatives per target session."""
    if len(sessions) < 2:
        raise ValueError("need at least two sessions to build training targets")
    views = reference_encoder_views(sessions[:-1])
    if len(views) != len(sessions) - 1:
        bad = next(s for s in sessions[:-1] if not any(s.positives))
        raise ValueError(f"session {bad.session_id!r} has no positives; filtering violated")
    positives, in_session, sampled = [], [], []
    for target in sessions[1:]:
        pos = sorted({it for it, p in zip(target.items, target.positives) if p})
        if not pos:
            raise ValueError(
                f"target session {target.session_id!r} has no positives; filtering violated"
            )
        neg = sorted({it for it, p in zip(target.items, target.positives) if not p} - set(pos))
        positives.append(np.asarray(pos, dtype=np.int64))
        in_session.append(np.asarray(neg, dtype=np.int64))
        sampled.append(rng.integers(0, catalog_size, size=num_sampled, dtype=np.int64))
    return views, positives, in_session, sampled


def reference_clip_sessions_to(sessions, max_ts):
    """The list-based ``evaluator._clip_sessions_to`` that the array one
    replaced: each ``ListSession``'s rows at or before ``max_ts``, dropping
    the sessions left empty."""
    out = []
    for s in sessions:
        keep = [i for i, ts in enumerate(s.timestamps) if ts <= max_ts]
        if keep:
            out.append(ListSession(s.session_id, [s.items[i] for i in keep],
                                   [s.positives[i] for i in keep],
                                   [s.timestamps[i] for i in keep]))
    return out


def _exposed_and_clicked(session):
    clicked = {it for it, pos in zip(session.items, session.positives) if pos}
    return any(not pos and it in clicked for it, pos in zip(session.items, session.positives))


def random_train_views(seed, users=40, catalog=12):
    """The session-protocol train views of random ragged users, cut to a
    small positive budget, and which of the cases the list-based references
    must be compared on they hold: a first session cut mid-session, an
    inner and a trailing positive-free session, and an item both exposed
    and clicked in one session.  Timestamps are random, so rows are not in
    time order."""
    rng = np.random.default_rng(seed)
    rows, user_offsets = [], [0]
    for _ in range(users):
        for _ in range(int(rng.integers(2, 7))):
            n = int(rng.integers(1, 7))
            rows.append((rng.integers(0, catalog, n), rng.random(n) < 0.5,
                         rng.integers(0, 100, n)))
        user_offsets.append(len(rows))
    dataset = Dataset(history(*rows), np.array(user_offsets), [f"u{u}" for u in range(users)])
    split = make_split(dataset, "session", catalog, max_positive_len=int(rng.integers(2, 8)))
    views = [user.train_sessions for user in split.users]
    starts = set(dataset.sessions.offsets.tolist())
    cases = {
        "cut first session": any(int(v.offsets[0]) not in starts for v in views),
        "inner positive-free": any((v.positive_counts()[:-1] == 0).any() for v in views),
        "trailing positive-free": any(v.positive_counts()[-1] == 0 for v in views),
        "exposed and clicked": any(map(_exposed_and_clicked,
                                       (s for v in views for s in sessions_of(v)))),
    }
    return views, cases
