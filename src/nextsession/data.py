"""Interaction-log ingestion, sessionizing, filtering, and train/test splitting.

The raw input is a delimited text log with header columns
``user,item,session,timestamp,action`` (any extra columns become discrete
catalog-level item features, taken from each item's first occurrence).
``action`` decides polarity: ``exposure`` rows are negative interactions,
``effective_view`` / ``click`` / ``purchase`` rows are positive.

Processing goes: ingest -> filter to a fixpoint -> dense id remap ->
per-protocol splits.  A processed dataset can be persisted to a directory
(``save_dataset``) and reloaded (``load_dataset``).  The stages hold arrays,
not one Python object per row: a ``Log`` of per-row codes, a ``Dataset`` of
CSR arrays, and ``Sessions`` views into those for each split user.  A
``Sessions`` view is the only form a history takes: targets, training and
evaluation read its arrays, and no object is built per session.
"""

from __future__ import annotations

import csv
import json
import os
import zipfile
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

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

CHUNK_ROWS = 2048  # csv records converted at a time; a small block keeps few row lists alive


class Sessions:
    """Consecutive sessions over shared row arrays: session k is rows
    ``offsets[k]:offsets[k + 1]`` of ``item`` (int32 dense ids),
    ``positive`` (bool) and ``timestamp`` (int64).  This is the one form of
    a history: consumers read those arrays, and a slice ``[a:b]`` gives
    another view of sessions a..b-1 that copies no rows."""

    def __init__(self, item, positive, timestamp, offsets, session_ids):
        self.item, self.positive, self.timestamp = item, positive, timestamp
        self.offsets = offsets  # len(session_ids) + 1 row offsets
        self.session_ids = session_ids

    def __len__(self):
        return len(self.session_ids)

    def __getitem__(self, k: slice) -> Sessions:
        start, stop, step = k.indices(len(self))
        if step != 1:
            raise ValueError(f"Sessions slices take no step, got step {k.step}")
        stop = max(start, stop)
        return Sessions(self.item, self.positive, self.timestamp,
                        self.offsets[start:stop + 1], self.session_ids[start:stop])

    def rows(self) -> slice:
        """The view's rows of the shared arrays."""
        return slice(self.offsets[0], self.offsets[-1])

    def num_interactions(self) -> int:
        return int(self.offsets[-1] - self.offsets[0])

    def positive_counts(self) -> np.ndarray:
        """The number of positive rows in each session, int64."""
        rows = self.rows()
        before = np.zeros(rows.stop - rows.start + 1, np.int64)  # positives before each row
        np.cumsum(self.positive[rows], out=before[1:])
        return np.diff(before[self.offsets - rows.start])


@dataclass
class SessionizedSequence:
    """One user's sessions, a view into a ``Dataset``."""

    user_id: str
    sessions: Sessions

    def num_interactions(self) -> int:
        return self.sessions.num_interactions()


@dataclass(eq=False)  # holds arrays, which do not compare to one bool
class Dataset(Sequence):
    """Every user's sessions as CSR arrays: ``sessions`` covers all rows,
    user-major, and user u owns sessions ``user_offsets[u]:user_offsets[u + 1]``.
    Indexing or iterating gives one ``SessionizedSequence`` per user."""

    sessions: Sessions
    user_offsets: np.ndarray
    user_ids: list[str]

    def __len__(self):
        return len(self.user_ids)

    def __getitem__(self, u: int) -> SessionizedSequence:
        return SessionizedSequence(
            self.user_ids[u], self.sessions[self.user_offsets[u]:self.user_offsets[u + 1]])


@dataclass(eq=False)
class Codes:
    """A string column as per-row codes into its distinct values."""

    codes: np.ndarray  # int64
    names: list[str]  # in order of first appearance


@dataclass(eq=False)
class Log:
    """A parsed log, one entry per data row in log order.  A raw session id
    names a session only within its user."""

    user: Codes
    item: Codes
    session: Codes
    timestamp: np.ndarray  # int64
    positive: np.ndarray  # bool
    features: tuple[Codes, ...] = ()  # one per side-feature column

    def __len__(self):
        return len(self.timestamp)


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
        infos = [self.feature_info[name] for name in self.feature_names]
        return [len(i["values"]) if i["kind"] == "categorical" else len(i["edges"]) + 1
                for i in infos]


@dataclass
class UserSplit:
    user_id: str
    train_sessions: Sessions
    targets: list[int]  # dense item ids, sorted ascending


@dataclass
class DatasetSplit:
    protocol: str  # "session" or "item"
    users: list[UserSplit]
    catalog_size: int
    stats: dict


class _Polarity(dict):
    """Raw action label -> polarity; an unknown label raises KeyError."""

    def __missing__(self, raw):
        value = self[raw] = ACTION_POLARITY[raw.strip().lower().replace("-", "_")]
        return value


def _first_bad_row(records: list, first_line: int, header: list) -> ValueError:
    """The error of the first malformed one of ``records``, which start at
    1-based line ``first_line``."""
    act, ts = header.index("action"), header.index("timestamp")
    for lineno, row in enumerate(records, start=first_line):
        if not row:
            continue
        if len(row) != len(header):
            return ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        if row[act].strip().lower().replace("-", "_") not in ACTION_POLARITY:
            return ValueError(f"line {lineno}: unknown action {row[act]!r}")
        try:
            np.int64(int(row[ts]))
        except (ValueError, OverflowError):
            return ValueError(f"line {lineno}: timestamp {row[ts]!r} is not a 64-bit integer")
    raise AssertionError("no malformed row found")


def ingest(path: str) -> tuple[Log, tuple[str, ...]]:
    """Parse a raw log file into a ``Log`` (rows in log order) plus the tuple
    of side-feature column names found in the header.

    Blank lines are skipped.  Malformed rows raise ValueError naming the
    1-based line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        # an empty file reads as a header with no rows
        header = [h.strip() for h in next(reader, REQUIRED_COLUMNS)]
        for col in REQUIRED_COLUMNS:
            if col not in header:
                raise ValueError(f"missing required column {col!r} in {path}")
        feature_names = tuple(h for h in header if h not in REQUIRED_COLUMNS)
        string_columns = ("user", "item", "session") + feature_names
        tables = [defaultdict() for _ in string_columns]
        for table in tables:  # a new key gets the next code: 0, 1, 2, ...
            table.default_factory = table.__len__
        converters = [int, _Polarity().__getitem__] + [t.__getitem__ for t in tables]
        dtypes = [np.int64, bool] + [np.int64] * len(tables)
        getters = [itemgetter(header.index(c)) for c in ("timestamp", "action") + string_columns]
        chunks = [[np.zeros(0, dtype) for dtype in dtypes]]
        first_line = 2  # csv records, not physical lines, are numbered
        while block := list(islice(reader, CHUNK_ROWS)):
            rows = [row for row in block if row]
            try:
                if not set(map(len, rows)) <= {len(header)}:
                    raise ValueError("wrong field count")
                chunks.append([np.fromiter(map(convert, map(get, rows)), dtype, len(rows))
                               for convert, get, dtype in zip(converters, getters, dtypes)])
            except (ValueError, KeyError, OverflowError):
                raise _first_bad_row(block, first_line, header) from None
            first_line += len(block)

    timestamp, positive, *codes = map(np.concatenate, zip(*chunks))
    user, item, session, *features = map(Codes, codes, map(list, tables))
    return Log(user, item, session, timestamp, positive, tuple(features)), feature_names


def _fixpoint_filter(user, item, session, positive) -> np.ndarray:
    """Indices, ascending, of the rows left after repeatedly dropping rows
    that violate the corpus constraints until none do.

    ``user``, ``item`` and ``session`` are per-row codes; a session code
    names one (user, session) pair.  Constraints: items with >=
    MIN_ITEM_FEEDBACKS rows, users with >= MIN_USER_FEEDBACKS rows, sessions
    with >= 1 positive, users with >= MIN_USER_SESSIONS sessions.  All
    feedbacks (positive and negative) count toward the frequency thresholds.
    """
    sizes = [int(codes.max(initial=-1)) + 1 for codes in (user, item, session)]
    session_user = np.zeros(sizes[2], np.int64)
    session_user[session] = user
    rows = np.arange(len(user))
    while True:
        u, it, s = user[rows], item[rows], session[rows]
        item_ok = np.bincount(it, minlength=sizes[1]) >= MIN_ITEM_FEEDBACKS
        session_ok = np.bincount(s, weights=positive[rows], minlength=sizes[2]) > 0
        user_sessions = session_user[np.bincount(s, minlength=sizes[2]) > 0]
        user_ok = ((np.bincount(u, minlength=sizes[0]) >= MIN_USER_FEEDBACKS)
                   & (np.bincount(user_sessions, minlength=sizes[0]) >= MIN_USER_SESSIONS))
        ok = item_ok[it] & user_ok[u] & session_ok[s]
        if ok.all():
            return rows
        rows = rows[ok]


def equal_frequency_edges(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Interior bin edges putting roughly equal counts in each of num_bins bins.

    ``np.searchsorted(edges, x, side="right")`` then yields a monotone bin
    index in [0, num_bins).
    """
    qs = np.linspace(0, 1, num_bins + 1)[1:-1]
    return np.unique(np.quantile(np.asarray(values, dtype=np.float64), qs))


def _ranked(column: Codes, rows: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted distinct names of ``column`` over ``rows``, and each of
    those rows' rank among them."""
    present = sorted(np.unique(column.codes[rows]).tolist(), key=column.names.__getitem__)
    rank = np.empty(len(column.names), np.int64)
    rank[present] = np.arange(len(present))
    return [column.names[c] for c in present], rank[column.codes[rows]]


def _encode_feature(column: Codes, rows: np.ndarray, bin_count: int) -> tuple[dict, np.ndarray]:
    """One feature's schema over ``rows``, and the value id of each name."""
    counts = np.bincount(column.codes[rows], minlength=len(column.names))
    present = np.flatnonzero(counts)
    names = [column.names[c] for c in present.tolist()]
    try:
        raw = np.array([float(v) for v in names])
    except ValueError:
        raw = None
    if len(names) > bin_count and raw is not None:
        edges = equal_frequency_edges(np.repeat(raw, counts[present]), bin_count)
        info = {"kind": "binned", "edges": [float(e) for e in edges]}
        values = np.searchsorted(np.asarray(info["edges"]), raw, side="right")
    else:
        info = {"kind": "categorical", "values": {v: i for i, v in enumerate(sorted(names))}}
        values = [info["values"][v] for v in names]
    value_of = np.zeros(len(column.names), np.int32)
    value_of[present] = values
    return info, value_of


def filter_dataset(log: Log, feature_names: tuple[str, ...] = (),
                   bin_count: int = 16) -> tuple[Dataset, Catalog]:
    """Apply the fixpoint corpus filter, remap ids to a dense catalog, and
    sessionize.

    Users are sorted by id.  A user's sessions are ordered by earliest
    timestamp, ties by first appearance in the log; a session's rows are in
    timestamp order, ties in log order.  Raises ValueError if nothing
    survives.
    """
    pair = log.user.codes * max(len(log.session.names), 1) + log.session.codes
    session = np.unique(pair, return_inverse=True)[1].reshape(-1)
    rows = _fixpoint_filter(log.user.codes, log.item.codes, session, log.positive)
    if rows.size == 0:
        raise ValueError(
            "dataset degenerate: no interactions survive the frequency/session filters"
        )
    session = session[rows]
    user_ids, user = _ranked(log.user, rows)
    item_ids, item = _ranked(log.item, rows)
    # (user, timestamp) order, ties in log order.  A session's first row in
    # it is its earliest, so sessions take the order of their first rows.
    by_time = np.lexsort((log.timestamp[rows], user))
    seen, first = np.unique(session[by_time], return_index=True)
    first_seen = np.zeros(int(seen[-1]) + 1, np.int64)
    first_seen[seen] = first
    order = by_time[np.argsort(first_seen[session[by_time]], kind="stable")]

    # catalog-side feature values: an item's first row in (user, timestamp) order
    item_first = rows[by_time[np.unique(item[by_time], return_index=True)[1]]]
    catalog = Catalog({raw: i for i, raw in enumerate(item_ids)}, feature_names,
                      item_features=np.zeros((len(item_ids), len(feature_names)), np.int32))
    for j, (name, column) in enumerate(zip(feature_names, log.features)):
        catalog.feature_info[name], value_of = _encode_feature(column, rows, bin_count)
        catalog.item_features[:, j] = value_of[column.codes[item_first]]

    starts = np.flatnonzero(np.r_[True, np.diff(session[order]) != 0])
    sessions = Sessions(
        item[order].astype(np.int32), log.positive[rows[order]], log.timestamp[rows[order]],
        np.r_[starts, len(order)],
        [log.session.names[c] for c in log.session.codes[rows[order[starts]]].tolist()],
    )
    user_offsets = np.searchsorted(user[order[starts]], np.arange(len(user_ids) + 1))
    return Dataset(sessions, user_offsets, user_ids), catalog


def compute_stats(dataset: Dataset, catalog_size: int) -> dict:
    num_users, num_sessions = len(dataset), len(dataset.sessions)
    num_interactions = dataset.sessions.num_interactions()
    num_positives = int(np.count_nonzero(dataset.sessions.positive))
    return {
        "num_users": num_users,
        "num_items": catalog_size,
        "num_interactions": num_interactions,
        "num_sessions": num_sessions,
        "avg_length": num_interactions / num_users if num_users else 0.0,
        "avg_positive_length": num_positives / num_users if num_users else 0.0,
        "avg_session_length": num_interactions / num_sessions if num_sessions else 0.0,
    }


def truncate_to_positive_budget(sessions: Sessions, begin, end, max_positives: int) -> np.ndarray:
    """New starts for the row ranges ``[begin, end)`` of ``sessions`` (each
    beginning at a session start) that keep each range's most recent suffix
    holding at most ``max_positives`` positives.

    The cut may split a session at item granularity, keeping the part from
    its ``max_positives``-th last positive on.  A session that fits the
    budget exactly is kept whole with its leading exposures, and nothing
    before it.  Positive-free sessions inside the kept suffix stay: they
    still carry rank-loss context.
    """
    if max_positives <= 0:
        raise ValueError(f"max_positives must be >= 1, got {max_positives}")
    begin, end = np.asarray(begin, np.int64), np.asarray(end, np.int64)
    before = np.r_[0, np.cumsum(sessions.positive)]  # positives in rows [0, i)
    cut = before[end] - before[begin] >= max_positives
    rank = before[end[cut]] - max_positives  # of the first kept positive, over all rows
    at = np.flatnonzero(sessions.positive)[rank]
    start = sessions.offsets[np.searchsorted(sessions.offsets, at, side="right") - 1]
    begin = begin.copy()
    begin[cut] = np.where(before[start] == rank, start, at)
    return begin


def make_split(dataset: Dataset, protocol: str, catalog_size: int,
               max_positive_len: int = 200) -> DatasetSplit:
    """Build a train/test split.

    protocol "session": the last session's positives are the targets and all
    earlier sessions form the train view.  protocol "item": the single last
    positive interaction is the target and everything strictly before it
    forms the train view.  Train views keep their last ``max_positive_len``
    positives (``truncate_to_positive_budget``).  Users violating the
    protocol's precondition are skipped and counted in
    ``stats["skipped_users"]``.
    """
    if protocol not in ("session", "item"):
        raise ValueError(f"unknown protocol {protocol!r}")
    sessions, user_offsets = dataset.sessions, dataset.user_offsets
    offsets, item = sessions.offsets, sessions.item
    begin = offsets[user_offsets[:-1]]
    row_user = np.repeat(np.arange(len(dataset)), offsets[user_offsets[1:]] - begin)
    pos_rows = np.flatnonzero(sessions.positive)
    if protocol == "session":
        ok = np.diff(user_offsets) >= 2
        end = offsets[np.maximum(user_offsets[1:] - 1, 0)]  # the last session's start
        target_rows = pos_rows[pos_rows >= end[row_user[pos_rows]]]
        width = int(item.max(initial=0)) + 1
        key = np.unique(row_user[target_rows] * width + item[target_rows])
        target_user, target_item = key // width, key % width
    else:
        user_positives = np.bincount(row_user[pos_rows], minlength=len(dataset))
        ok = user_positives >= 2
        target_user = np.flatnonzero(user_positives)
        end = begin.copy()  # the last positive
        end[target_user] = pos_rows[np.cumsum(user_positives)[target_user] - 1]
        target_item = item[end[target_user]]
    bounds = np.searchsorted(target_user, np.arange(len(dataset) + 1))
    kept = np.flatnonzero(ok & (end > begin) & (np.diff(bounds) > 0))
    begin = truncate_to_positive_budget(sessions, begin[kept], end[kept], max_positive_len)
    end = end[kept]
    first = np.searchsorted(offsets, begin, side="right") - 1
    stop = np.searchsorted(offsets, end)
    bounds, target_item = bounds.tolist(), target_item.tolist()
    users = []
    for u, a, b, lo, hi in zip(kept.tolist(), first.tolist(), stop.tolist(),
                               begin.tolist(), end.tolist()):
        view_offsets = offsets[a:b + 1].copy()
        view_offsets[0], view_offsets[-1] = lo, hi
        view = Sessions(item, sessions.positive, sessions.timestamp, view_offsets,
                        sessions.session_ids[a:b])
        users.append(UserSplit(dataset.user_ids[u], view, target_item[bounds[u]:bounds[u + 1]]))
    stats = compute_stats(dataset, catalog_size)
    stats.update(skipped_users=len(dataset) - len(users), split_users=len(users))
    return DatasetSplit(protocol, users, catalog_size, stats)


def encoder_views(sessions: Sessions) -> tuple[np.ndarray, np.ndarray]:
    """The positive item ids of the view, in row order, and the positive
    count of each session that has one (both int64): a session's ids are
    the next ``count`` of ``ids``, and positive-free sessions are skipped.

    This is the model-facing view of a session sequence: the encoders consume
    positively interacted items only; exposure negatives stay in the
    ``Sessions`` arrays solely for the rank loss.
    """
    rows = sessions.rows()
    counts = sessions.positive_counts()
    return sessions.item[rows][sessions.positive[rows]].astype(np.int64), counts[counts > 0]


# ---------------------------------------------------------------------------
# dataset directory layout
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1
ARRAYS = ("user_idx", "session_ord", "item", "positive", "timestamp", "item_features")


def save_dataset(out_dir: str, dataset: Dataset, catalog: Catalog,
                 max_positive_len: int = 200) -> None:
    """Persist the processed dataset.

    Layout: meta.json (format version, feature schema, max positive length),
    stats.json, item_map.json, users.json (user ids + per-user session ids),
    interactions.npz (per row: user index, the session's index within its
    user, item, positive, timestamp; plus the catalog's item features).
    """
    os.makedirs(out_dir, exist_ok=True)
    sessions, user_offsets = dataset.sessions, dataset.user_offsets
    session_rows = np.diff(sessions.offsets)
    session_user = np.repeat(np.arange(len(dataset)), np.diff(user_offsets))
    session_ord = np.arange(len(sessions)) - user_offsets[session_user]
    np.savez(
        os.path.join(out_dir, "interactions.npz"),
        user_idx=np.repeat(session_user, session_rows).astype(np.int32),
        session_ord=np.repeat(session_ord, session_rows).astype(np.int32),
        item=sessions.item.astype(np.int32),
        positive=sessions.positive.astype(bool),
        timestamp=sessions.timestamp.astype(np.int64),
        item_features=catalog.item_features,
    )
    bounds = user_offsets.tolist()
    session_ids = [sessions.session_ids[a:b] for a, b in zip(bounds, bounds[1:])]
    with open(os.path.join(out_dir, "item_map.json"), "w") as fh:
        fh.write(json.dumps(catalog.item_map))
    with open(os.path.join(out_dir, "users.json"), "w") as fh:
        fh.write(json.dumps({"users": dataset.user_ids, "session_ids": session_ids}))
    meta = {"format_version": FORMAT_VERSION, "feature_names": list(catalog.feature_names),
            "feature_info": catalog.feature_info, "max_positive_len": max_positive_len,
            "num_items": catalog.num_items}
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    with open(os.path.join(out_dir, "stats.json"), "w") as fh:
        json.dump(compute_stats(dataset, catalog.num_items), fh, indent=2, sort_keys=True)


def _read_json(path: str, *keys: str) -> dict:
    """A JSON object file holding ``keys``; anything else is a ValueError."""
    with open(path) as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    if not isinstance(blob, dict) or not all(k in blob for k in keys):
        raise ValueError(f"{path}: expected a JSON object with keys {list(keys)}")
    return blob


def load_dataset(data_dir: str) -> tuple[Dataset, Catalog, dict]:
    """Load a dataset directory written by save_dataset.

    Returns (dataset, catalog, meta); meta includes max_positive_len.  A
    per-interaction ``features`` array in interactions.npz, written by
    earlier versions, is ignored.  A missing or inconsistent file or array
    raises ValueError naming the file.
    """
    meta = _read_json(os.path.join(data_dir, "meta.json"),
                      "format_version", "feature_names", "feature_info")
    if meta["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {meta['format_version']!r}")
    item_map = _read_json(os.path.join(data_dir, "item_map.json"))
    users_path = os.path.join(data_dir, "users.json")
    users = _read_json(users_path, "users", "session_ids")
    if len(users["users"]) != len(users["session_ids"]):
        raise ValueError(f"{users_path}: 'users' and 'session_ids' differ in length")
    path = os.path.join(data_dir, "interactions.npz")
    try:
        # np.load leaves a file it opened itself open when it is not a zip
        with open(path, "rb") as fh, np.load(fh) as archive:
            arrays = {name: archive[name] for name in ARRAYS if name in archive.files}
    except (OSError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: unreadable archive: {e}") from None

    def check(ok, problem):
        if not ok:
            raise ValueError(f"{path}: {problem}")

    for name in ARRAYS:
        check(name in arrays, f"missing array {name!r}")
    rows = len(arrays["item"])
    for name in ARRAYS[:-1]:
        check(arrays[name].shape == (rows,), f"array {name!r} is not one value per row")
    user_offsets = np.cumsum([0] + [len(ids) for ids in users["session_ids"]])
    user_idx = arrays["user_idx"].astype(np.int64)
    check(((0 <= user_idx) & (user_idx < len(users["users"]))).all(),
          f"user_idx names a user that {users_path} does not list")
    session = user_offsets[user_idx] + arrays["session_ord"]  # over all users
    check(((session >= user_offsets[user_idx]) & (session < user_offsets[user_idx + 1])).all()
          and (np.diff(session) >= 0).all(),
          f"session offsets do not cover the rows: session_ord names a session "
          f"that {users_path} does not list, or rows are out of session order")
    session_rows = np.bincount(session, minlength=user_offsets[-1])
    check(session_rows.all(), f"a session that {users_path} lists has no rows")
    check(((0 <= arrays["item"]) & (arrays["item"] < len(item_map))).all(),
          "item ids run outside item_map.json")
    feature_names = tuple(meta["feature_names"])
    check(arrays["item_features"].shape == (len(item_map), len(feature_names)),
          "item_features does not hold one row per item and one column per feature")
    sessions = Sessions(
        arrays["item"].astype(np.int32), arrays["positive"].astype(bool),
        arrays["timestamp"].astype(np.int64), np.r_[0, np.cumsum(session_rows)],
        [sid for ids in users["session_ids"] for sid in ids],
    )
    catalog = Catalog(item_map, feature_names, meta["feature_info"], arrays["item_features"])
    return Dataset(sessions, user_offsets, users["users"]), catalog, meta
