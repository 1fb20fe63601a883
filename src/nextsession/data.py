"""Interaction-log ingestion, sessionizing, filtering, and train/test splitting.

The raw input is a delimited text log with header columns
``user,item,session,timestamp,action`` (any extra columns become discrete
catalog-level item features, taken from each item's first occurrence).
``action`` decides polarity: ``exposure`` rows are negative interactions,
``effective_view`` / ``click`` / ``purchase`` rows are positive.

Processing goes: ingest -> filter to a fixpoint -> dense id remap ->
per-protocol splits.  A processed dataset can be persisted to a directory
(``save_dataset``) and reloaded (``load_dataset``).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

REQUIRED_COLUMNS = ("user", "item", "session", "timestamp", "action")

# action label -> is the interaction positive
ACTION_POLARITY = {
    "exposure": False,
    "effective_view": True,
    "click": True,
    "purchase": True,
}

MIN_ITEM_FEEDBACKS = 5
MIN_USER_FEEDBACKS = 5
MIN_USER_SESSIONS = 3


@dataclass
class Interaction:
    """One logged event.  ``item`` is the raw id until filtering remaps it."""

    user: str
    item: str
    session: str
    timestamp: int
    positive: bool
    features: tuple[str, ...] = ()


@dataclass
class Session:
    """One session's interactions in log order (parallel lists)."""

    session_id: str
    items: list[int]
    positives: list[bool]
    timestamps: list[int]

    def __len__(self):
        return len(self.items)

    def take(self, indices) -> Session:
        """A new Session holding the interactions at ``indices``, in that order."""
        return Session(
            self.session_id,
            [self.items[i] for i in indices],
            [self.positives[i] for i in indices],
            [self.timestamps[i] for i in indices],
        )

    def positive_items(self) -> list[int]:
        return [it for it, pos in zip(self.items, self.positives) if pos]

    def negative_items(self) -> list[int]:
        return [it for it, pos in zip(self.items, self.positives) if not pos]

    def num_positives(self) -> int:
        return sum(1 for p in self.positives if p)


@dataclass
class SessionizedSequence:
    user_id: str
    sessions: list[Session]

    def num_interactions(self) -> int:
        return sum(len(s) for s in self.sessions)

    def num_positives(self) -> int:
        return sum(s.num_positives() for s in self.sessions)


@dataclass
class Catalog:
    """Dense id space produced by filtering, plus side-feature schema."""

    item_map: dict[str, int]
    feature_names: tuple[str, ...] = ()
    # per feature: {"kind": "categorical", "values": {raw: id}} or
    #              {"kind": "binned", "edges": [...]} with vocab = len(edges)+1
    feature_info: dict[str, dict] = field(default_factory=dict)
    # (num_items, num_features) int32; a feature value id per catalog item
    item_features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), np.int32))

    @property
    def num_items(self) -> int:
        return len(self.item_map)

    def feature_vocab_sizes(self) -> list[int]:
        sizes = []
        for name in self.feature_names:
            info = self.feature_info[name]
            if info["kind"] == "categorical":
                sizes.append(len(info["values"]))
            else:
                sizes.append(len(info["edges"]) + 1)
        return sizes


@dataclass
class UserSplit:
    user_id: str
    train_sessions: list[Session]
    targets: list[int]  # dense item ids, sorted ascending


@dataclass
class DatasetSplit:
    protocol: str  # "session" or "item"
    users: list[UserSplit]
    catalog_size: int
    stats: dict


def ingest(path: str) -> tuple[list[Interaction], tuple[str, ...]]:
    """Parse a raw log file.

    Returns the interactions sorted by (user, timestamp) plus the tuple of
    side-feature column names found in the header.  Malformed rows raise
    ValueError naming the 1-based line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return [], ()
        header = [h.strip() for h in header]
        for col in REQUIRED_COLUMNS:
            if col not in header:
                raise ValueError(f"missing required column {col!r} in {path}")
        idx = {col: header.index(col) for col in REQUIRED_COLUMNS}
        feature_names = tuple(h for h in header if h not in REQUIRED_COLUMNS)
        feat_idx = [header.index(h) for h in feature_names]

        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            action = row[idx["action"]].strip().lower().replace("-", "_")
            if action not in ACTION_POLARITY:
                raise ValueError(f"line {lineno}: unknown action {row[idx['action']]!r}")
            try:
                ts = int(row[idx["timestamp"]])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: timestamp {row[idx['timestamp']]!r} is not an integer"
                ) from None
            out.append(
                Interaction(
                    user=row[idx["user"]],
                    item=row[idx["item"]],
                    session=row[idx["session"]],
                    timestamp=ts,
                    positive=ACTION_POLARITY[action],
                    features=tuple(row[j] for j in feat_idx),
                )
            )
    out.sort(key=lambda r: (r.user, r.timestamp))
    return out, feature_names


def _fixpoint_filter(interactions: list[Interaction]) -> list[Interaction]:
    """Repeatedly drop rows violating the corpus constraints until stable.

    Constraints: items with >= MIN_ITEM_FEEDBACKS rows, users with >=
    MIN_USER_FEEDBACKS rows, sessions with >= 1 positive, users with >=
    MIN_USER_SESSIONS sessions.  All feedbacks (positive and negative)
    count toward the frequency thresholds.
    """
    rows = interactions
    while True:
        item_counts: dict[str, int] = {}
        user_counts: dict[str, int] = {}
        session_pos: dict[tuple[str, str], bool] = {}
        user_sessions: dict[str, set] = {}
        for r in rows:
            item_counts[r.item] = item_counts.get(r.item, 0) + 1
            user_counts[r.user] = user_counts.get(r.user, 0) + 1
            key = (r.user, r.session)
            session_pos[key] = session_pos.get(key, False) or r.positive
            user_sessions.setdefault(r.user, set()).add(r.session)
        kept = [
            r
            for r in rows
            if item_counts[r.item] >= MIN_ITEM_FEEDBACKS
            and user_counts[r.user] >= MIN_USER_FEEDBACKS
            and session_pos[(r.user, r.session)]
            and len(user_sessions[r.user]) >= MIN_USER_SESSIONS
        ]
        if len(kept) == len(rows):
            return kept
        rows = kept


def _is_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def equal_frequency_edges(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Interior bin edges putting roughly equal counts in each of num_bins bins.

    ``np.searchsorted(edges, x, side="right")`` then yields a monotone bin
    index in [0, num_bins).
    """
    qs = np.linspace(0, 1, num_bins + 1)[1:-1]
    return np.unique(np.quantile(np.asarray(values, dtype=np.float64), qs))


def _build_feature_info(
    rows: list[Interaction], feature_names: tuple[str, ...], bin_count: int
) -> dict[str, dict]:
    info: dict[str, dict] = {}
    for j, name in enumerate(feature_names):
        raw = [r.features[j] for r in rows]
        distinct = sorted(set(raw))
        if len(distinct) > bin_count and all(_is_float(v) for v in distinct):
            edges = equal_frequency_edges(np.array([float(v) for v in raw]), bin_count)
            info[name] = {"kind": "binned", "edges": [float(e) for e in edges]}
        else:
            info[name] = {
                "kind": "categorical",
                "values": {v: i for i, v in enumerate(distinct)},
            }
    return info


def _encode_feature(info: dict, raw: str) -> int:
    if info["kind"] == "categorical":
        return info["values"][raw]
    return int(np.searchsorted(np.asarray(info["edges"]), float(raw), side="right"))


def filter_dataset(
    interactions: list[Interaction],
    feature_names: tuple[str, ...] = (),
    bin_count: int = 16,
) -> tuple[list[SessionizedSequence], Catalog]:
    """Apply the fixpoint corpus filter and remap ids to a dense catalog.

    Returns sessionized per-user sequences (sessions ordered by earliest
    timestamp) and the Catalog holding the id-remap and feature schema.
    Raises ValueError if nothing survives.
    """
    rows = _fixpoint_filter(interactions)
    if not rows:
        raise ValueError(
            "dataset degenerate: no interactions survive the frequency/session filters"
        )

    item_ids = sorted({r.item for r in rows})
    item_map = {raw: i for i, raw in enumerate(item_ids)}
    feature_info = _build_feature_info(rows, feature_names, bin_count)

    # Catalog-side feature values: first occurrence of each item wins.
    item_features = np.zeros((len(item_ids), len(feature_names)), dtype=np.int32)
    seen = set()
    for r in rows:  # rows are (user, timestamp)-sorted
        di = item_map[r.item]
        if di not in seen:
            seen.add(di)
            for j, name in enumerate(feature_names):
                item_features[di, j] = _encode_feature(feature_info[name], r.features[j])

    catalog = Catalog(
        item_map=item_map,
        feature_names=feature_names,
        feature_info=feature_info,
        item_features=item_features,
    )

    by_user: dict[str, dict[str, list[Interaction]]] = {}
    for r in rows:
        by_user.setdefault(r.user, {}).setdefault(r.session, []).append(r)

    sequences = []
    for user in sorted(by_user):
        session_groups = by_user[user]
        ordered = sorted(
            session_groups.items(), key=lambda kv: min(r.timestamp for r in kv[1])
        )
        sessions = []
        for sid, group in ordered:
            sessions.append(
                Session(
                    session_id=sid,
                    items=[item_map[r.item] for r in group],
                    positives=[r.positive for r in group],
                    timestamps=[r.timestamp for r in group],
                )
            )
        sequences.append(SessionizedSequence(user_id=user, sessions=sessions))
    return sequences, catalog


def compute_stats(sequences: list[SessionizedSequence], catalog_size: int) -> dict:
    num_users = len(sequences)
    num_sessions = sum(len(s.sessions) for s in sequences)
    num_interactions = sum(s.num_interactions() for s in sequences)
    num_positives = sum(s.num_positives() for s in sequences)
    return {
        "num_users": num_users,
        "num_items": catalog_size,
        "num_interactions": num_interactions,
        "num_sessions": num_sessions,
        "avg_length": num_interactions / num_users if num_users else 0.0,
        "avg_positive_length": num_positives / num_users if num_users else 0.0,
        "avg_session_length": num_interactions / num_sessions if num_sessions else 0.0,
    }


def truncate_to_positive_budget(sessions: list[Session], max_positives: int) -> list[Session]:
    """Keep the most recent suffix holding at most ``max_positives`` positives.

    Works at item granularity: the cut may split a session, in which case the
    kept part is that session's suffix.  Sessions left empty are dropped;
    sessions left with only negatives are kept (they still carry rank-loss
    context but contribute nothing to the encoder input).
    """
    if max_positives <= 0:
        raise ValueError(f"max_positives must be >= 1, got {max_positives}")
    budget = max_positives
    kept: list[Session] = []
    for sess in reversed(sessions):
        n_pos = sess.num_positives()
        if n_pos <= budget:
            budget -= n_pos
            kept.append(sess)
        else:
            # walk backwards until the budget is used up
            start = len(sess)
            while budget > 0 and start > 0:
                start -= 1
                if sess.positives[start]:
                    budget -= 1
            kept.append(sess.take(range(start, len(sess))))
            budget = 0
        if budget == 0:
            break
    kept.reverse()
    return [s for s in kept if len(s) > 0]


def make_split(
    sequences: list[SessionizedSequence],
    protocol: str,
    catalog_size: int,
    max_positive_len: int = 200,
) -> DatasetSplit:
    """Build a train/test split.

    protocol "session": the last session's positives are the targets and all
    earlier sessions form the train view.  protocol "item": the single last
    positive interaction is the target and everything strictly before it
    forms the train view.  Users violating the protocol's precondition are
    skipped and counted in ``stats["skipped_users"]``.
    """
    if protocol not in ("session", "item"):
        raise ValueError(f"unknown protocol {protocol!r}")

    users: list[UserSplit] = []
    skipped = 0
    for seq in sequences:
        if protocol == "session":
            if len(seq.sessions) < 2:
                skipped += 1
                continue
            targets = sorted(set(seq.sessions[-1].positive_items()))
            train = seq.sessions[:-1]
        else:
            # locate the last positive interaction in log order
            si, ii = None, None
            for s in range(len(seq.sessions) - 1, -1, -1):
                sess = seq.sessions[s]
                for i in range(len(sess) - 1, -1, -1):
                    if sess.positives[i]:
                        si, ii = s, i
                        break
                if si is not None:
                    break
            if si is None or seq.num_positives() < 2:
                skipped += 1
                continue
            target_sess = seq.sessions[si]
            targets = [target_sess.items[ii]]
            train = list(seq.sessions[:si])
            if ii > 0:
                train.append(target_sess.take(range(ii)))
        train = truncate_to_positive_budget(train, max_positive_len)
        if not train or not targets:
            skipped += 1
            continue
        users.append(UserSplit(user_id=seq.user_id, train_sessions=train, targets=targets))

    stats = compute_stats(sequences, catalog_size)
    stats["skipped_users"] = skipped
    stats["split_users"] = len(users)
    return DatasetSplit(
        protocol=protocol, users=users, catalog_size=catalog_size, stats=stats
    )


def encoder_views(sessions: list[Session]) -> list[list[int]]:
    """Positive item lists per session, skipping positive-free sessions.

    This is the model-facing view of a session sequence: the encoders consume
    positively interacted items only; exposure negatives are retained on the
    Session solely for the rank loss.
    """
    views = [s.positive_items() for s in sessions]
    return [v for v in views if v]


# ---------------------------------------------------------------------------
# dataset directory layout
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def save_dataset(
    out_dir: str,
    sequences: list[SessionizedSequence],
    catalog: Catalog,
    max_positive_len: int = 200,
) -> None:
    """Persist the processed dataset.

    Layout: meta.json (format version, feature schema, max positive length),
    stats.json, item_map.json, users.json (user ids + per-user session ids),
    interactions.npz (flat parallel arrays).
    """
    os.makedirs(out_dir, exist_ok=True)
    stats = compute_stats(sequences, catalog.num_items)

    user_idx, sess_ord, items, positives, timestamps = [], [], [], [], []
    session_ids = []
    for ui, seq in enumerate(sequences):
        session_ids.append([s.session_id for s in seq.sessions])
        for so, sess in enumerate(seq.sessions):
            for i in range(len(sess)):
                user_idx.append(ui)
                sess_ord.append(so)
                items.append(sess.items[i])
                positives.append(sess.positives[i])
                timestamps.append(sess.timestamps[i])

    np.savez(
        os.path.join(out_dir, "interactions.npz"),
        user_idx=np.asarray(user_idx, dtype=np.int32),
        session_ord=np.asarray(sess_ord, dtype=np.int32),
        item=np.asarray(items, dtype=np.int32),
        positive=np.asarray(positives, dtype=bool),
        timestamp=np.asarray(timestamps, dtype=np.int64),
        item_features=catalog.item_features,
    )
    with open(os.path.join(out_dir, "item_map.json"), "w") as fh:
        json.dump(catalog.item_map, fh)
    with open(os.path.join(out_dir, "users.json"), "w") as fh:
        json.dump(
            {"users": [s.user_id for s in sequences], "session_ids": session_ids}, fh
        )
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(
            {
                "format_version": FORMAT_VERSION,
                "feature_names": list(catalog.feature_names),
                "feature_info": catalog.feature_info,
                "max_positive_len": max_positive_len,
                "num_items": catalog.num_items,
            },
            fh,
            indent=2,
        )
    with open(os.path.join(out_dir, "stats.json"), "w") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)


def load_dataset(data_dir: str) -> tuple[list[SessionizedSequence], Catalog, dict]:
    """Load a dataset directory written by save_dataset.

    Returns (sequences, catalog, meta); meta includes max_positive_len.
    A per-interaction ``features`` array in interactions.npz, written by
    earlier versions, is ignored.
    """
    with open(os.path.join(data_dir, "meta.json")) as fh:
        meta = json.load(fh)
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format version {meta.get('format_version')!r}"
        )
    with open(os.path.join(data_dir, "item_map.json")) as fh:
        item_map = json.load(fh)
    with open(os.path.join(data_dir, "users.json")) as fh:
        users_blob = json.load(fh)
    arrays = np.load(os.path.join(data_dir, "interactions.npz"))

    feature_names = tuple(meta["feature_names"])
    catalog = Catalog(
        item_map=item_map,
        feature_names=feature_names,
        feature_info=meta["feature_info"],
        item_features=arrays["item_features"],
    )

    users = users_blob["users"]
    session_ids = users_blob["session_ids"]
    sequences = [
        SessionizedSequence(
            user_id=u,
            sessions=[
                Session(session_id=sid, items=[], positives=[], timestamps=[])
                for sid in session_ids[ui]
            ],
        )
        for ui, u in enumerate(users)
    ]
    u_arr = arrays["user_idx"]
    s_arr = arrays["session_ord"]
    it_arr = arrays["item"]
    pos_arr = arrays["positive"]
    ts_arr = arrays["timestamp"]
    for i in range(len(u_arr)):
        sess = sequences[u_arr[i]].sessions[s_arr[i]]
        sess.items.append(int(it_arr[i]))
        sess.positives.append(bool(pos_arr[i]))
        sess.timestamps.append(int(ts_arr[i]))
    return sequences, catalog, meta
