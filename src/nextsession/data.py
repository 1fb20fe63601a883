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
import io
import json
import os
import zipfile
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

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

BLOCK_CHARS = 16384  # log characters tokenized at a time; a small block keeps few strings alive


class Sessions:
    """Consecutive sessions over shared row arrays: session k is rows
    ``offsets[k]:offsets[k + 1]`` of ``item`` (int32 dense ids),
    ``positive`` (bool) and ``timestamp`` (int64).  This is the one form of
    a history: consumers read those arrays and offsets, and a slice
    ``[a:b]`` gives another view of sessions a..b-1 that copies no rows."""

    def __init__(self, item, positive, timestamp, offsets):
        self.item, self.positive, self.timestamp = item, positive, timestamp
        self.offsets = offsets  # row offsets, one more than the sessions

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, k: slice) -> Sessions:
        start, stop, step = k.indices(len(self))
        if step != 1:
            raise ValueError(f"Sessions slices take no step, got step {k.step}")
        return Sessions(self.item, self.positive, self.timestamp,
                        self.offsets[start:max(start, stop) + 1])

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


@dataclass(eq=False)  # holds arrays, which do not compare to one bool
class Dataset(Sequence):
    """Every user's sessions as CSR arrays: ``sessions`` covers all rows,
    user-major, and user u owns sessions ``user_offsets[u]:user_offsets[u + 1]``.
    Indexing or iterating gives user u's ``Sessions`` view.  Every session
    holds a positive row, and so does every session of a split's views."""

    sessions: Sessions
    user_offsets: np.ndarray
    user_ids: list[str]

    def __len__(self):
        return len(self.user_ids)

    def __getitem__(self, u: int) -> Sessions:
        return self.sessions[self.user_offsets[u]:self.user_offsets[u + 1]]


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

    item_ids: list[str]  # the raw id of each dense id
    feature_names: tuple[str, ...] = ()
    # per feature: {"kind": "categorical", "values": {raw: id}} or
    #              {"kind": "binned", "edges": [...]} with vocab = len(edges)+1
    feature_info: dict[str, dict] = field(default_factory=dict)
    # (num_items, num_features) int32; a feature value id per catalog item
    item_features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), np.int32))

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

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


def _first_bad_row(records, first_line: int, header: list) -> ValueError:
    """The error of the first malformed one of ``records`` (field lists),
    which start at 1-based line ``first_line``."""
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


def _tokenized_blocks(fh, width: int):
    """The csv records after the header of ``fh``, a block at a time, as
    ``(count, records, fields)``: the block's record count, blank records
    included; its records as field lists, built only when read; and the
    fields of its non-blank records as one flat list, ``width`` per record,
    or None when a record holds another number of fields.

    A block is ``BLOCK_CHARS`` characters read on to a line end.  While the
    blocks hold no ``"`` and no lone ``\r``, each record is one line, so a
    block is split in bulk.  From the first block that holds either, the
    rest of the log goes through ``csv.reader``: a quoted field may hold a
    line end and run past the block.
    """
    while block := fh.read(BLOCK_CHARS) + fh.readline():
        text = block.replace("\r\n", "\n")
        if '"' in text or "\r" in text:
            break
        lines = text.split("\n")
        if not lines[-1]:  # the text after the block's last line end
            lines.pop()
        rows = list(filter(None, lines))
        fields = None
        if set(map(str.count, rows, repeat(","))) <= {width - 1}:
            fields = ",".join(rows).split(",") if rows else []  # "" splits to [""]
        yield len(lines), (line.split(",") if line else [] for line in lines), fields
    else:
        return
    reader = csv.reader(chain(io.StringIO(block, newline=""), fh))
    # about as many records as a block of short lines holds
    while records := list(islice(reader, max(1, BLOCK_CHARS // 8))):
        rows = [row for row in records if row]
        fields = list(chain.from_iterable(rows)) if set(map(len, rows)) <= {width} else None
        yield len(records), records, fields


def ingest(path: str) -> tuple[Log, tuple[str, ...]]:
    """Parse a raw log file, UTF-8 text, into a ``Log`` (rows in log order)
    plus the tuple of side-feature column names found in the header.

    The header is one csv record.  The rest is read in blocks of about
    ``BLOCK_CHARS`` characters (``_tokenized_blocks``): quote-free blocks are
    split in bulk, and from the first quote on ``csv.reader`` reads the
    rest.  Both give each column of a block as one list, which one
    ``np.fromiter`` converts.  Blank lines are skipped.  A repeated header
    column, text that is not UTF-8, a quoted field that ``csv.reader``
    refuses, and malformed rows raise ValueError; a row's error names its
    1-based line number, with csv records, not physical lines, counted.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _read_log(fh, path)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text (byte {e.object[e.start]:#04x}: "
                         f"{e.reason})") from None
    except csv.Error as e:  # a quoted field longer than csv.field_size_limit()
        raise ValueError(f"{path}: {e}") from None


def _read_log(fh, path: str) -> tuple[Log, tuple[str, ...]]:
    # an empty file reads as a header with no rows
    header = [h.strip() for h in next(csv.reader(fh), REQUIRED_COLUMNS)]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ValueError(f"column {name!r} appears twice in the header of {path}")
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
    columns = [header.index(c) for c in ("timestamp", "action") + string_columns]
    width = len(header)
    chunks = [[np.zeros(0, dtype) for dtype in dtypes]]
    first_line = 2  # csv records, not physical lines, are numbered
    for count, records, fields in _tokenized_blocks(fh, width):
        try:
            if fields is None:
                raise ValueError("wrong field count")
            n = len(fields) // width
            chunks.append([np.fromiter(map(convert, fields[j::width]), dtype, n)
                           for convert, j, dtype in zip(converters, columns, dtypes)])
        except (ValueError, KeyError, OverflowError):
            raise _first_bad_row(records, first_line, header) from None
        first_line += count

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
    survives, or if ``bin_count`` is below 1.
    """
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
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
    catalog = Catalog(item_ids, feature_names,
                      item_features=np.zeros((len(item_ids), len(feature_names)), np.int32))
    for j, (name, column) in enumerate(zip(feature_names, log.features)):
        catalog.feature_info[name], value_of = _encode_feature(column, rows, bin_count)
        catalog.item_features[:, j] = value_of[column.codes[item_first]]

    starts = np.flatnonzero(np.r_[True, np.diff(session[order]) != 0])
    sessions = Sessions(item[order].astype(np.int32), log.positive[rows[order]],
                        log.timestamp[rows[order]], np.r_[starts, len(order)])
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
    before it.  Either way the first kept session starts with a positive
    or keeps all of its rows, so it holds at least one positive.
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
    forms the train view, which ends at that positive's session start when
    no positive precedes it there.  Train views keep their last
    ``max_positive_len`` positives (``truncate_to_positive_budget``), and
    each of their sessions holds a positive.  Users violating the protocol's
    precondition are skipped and counted in ``stats["skipped_users"]``.
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
        last = np.cumsum(user_positives)[target_user] - 1  # each user's last positive
        target_item = item[pos_rows[last]]
        # end before it, or at its session's start if no positive precedes it there
        start = offsets[np.searchsorted(offsets, pos_rows[last], side="right") - 1]
        end = begin.copy()
        end[target_user] = np.where(np.searchsorted(pos_rows, start) < last, pos_rows[last], start)
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
        view = Sessions(item, sessions.positive, sessions.timestamp, view_offsets)
        users.append(UserSplit(dataset.user_ids[u], view, target_item[bounds[u]:bounds[u + 1]]))
    stats = compute_stats(dataset, catalog_size)
    stats.update(skipped_users=len(dataset) - len(users), split_users=len(users))
    return DatasetSplit(protocol, users, catalog_size, stats)


def encoder_views(sessions: Sessions) -> tuple[np.ndarray, np.ndarray]:
    """The positive item ids of the view, in row order, and the positive
    count of each session (both int64): a session's ids are the next
    ``count`` of ``ids``, and every count of a ``Dataset``'s view is >= 1.

    This is the model-facing view of a session sequence: the encoders consume
    positively interacted items only; exposure negatives stay in the
    ``Sessions`` arrays solely for the rank loss.
    """
    rows = sessions.rows()
    ids = sessions.item[rows][sessions.positive[rows]]
    return ids.astype(np.int64), sessions.positive_counts()


# ---------------------------------------------------------------------------
# archives: a dataset directory's interactions.npz and a checkpoint are each
# one npz archive, a JSON ``header`` member beside the arrays
# ---------------------------------------------------------------------------

FORMAT_VERSION = 3
HEADER_KEYS = ("feature_names", "feature_info", "max_positive_len", "user_ids", "item_ids")
ARRAYS = ("session_rows", "user_sessions", "item", "positive", "timestamp", "item_features")


def write_archive(path: str, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the npz archive at ``path``: a ``header`` member holding the
    UTF-8 JSON of ``header``, keys sorted, as uint8, then ``arrays`` in
    their order.  Two writes of equal input give identical bytes."""
    raw = np.frombuffer(json.dumps(header, sort_keys=True).encode(), np.uint8)
    with open(path, "wb") as fh:  # np.savez appends ".npz" to a path
        np.savez(fh, header=raw, **arrays)


def read_archive(path: str, kind: str, version: int, redo: str,
                 keys: Sequence[str]) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the other arrays, by name, of the ``kind`` archive
    that ``write_archive`` wrote at ``path``.  The header must be a JSON
    object of format ``version`` holding ``keys``.  Anything else is a
    ValueError naming ``path``: a file that is not a zip archive, a damaged
    one (every member's CRC-32 is checked as it is read), or a bad header.
    A missing header or another version ends in ``redo``, the remedy."""
    try:
        with open(path, "rb") as fh:
            # np.load reads anything else as a .npy or a pickle
            if fh.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
                raise ValueError("not an npz archive")
            fh.seek(0)
            with np.load(fh) as archive:
                arrays = {name: archive[name] for name in archive.files}
    # zipfile raises NotImplementedError or RuntimeError for a member whose
    # compression or encryption flag is damaged
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: unreadable archive: {e}") from None
    if "header" not in arrays:
        raise ValueError(f"{path}: {kind} has no header, so is not of format {version}; {redo}")
    try:
        header = json.loads(arrays.pop("header").tobytes())
    except ValueError as e:  # also bytes that are not text
        raise ValueError(f"{path}: {e}") from None
    keys = ["format_version", *keys]
    if not isinstance(header, dict) or "format_version" not in header:
        raise ValueError(f"{path}: expected a JSON object with keys {keys}")
    # the version first: a later format may lack one of today's keys
    if header["format_version"] != version:
        raise ValueError(f"{path}: {kind} format version {header['format_version']!r} "
                         f"is not {version}; {redo}")
    if not all(k in header for k in keys):
        raise ValueError(f"{path}: expected a JSON object with keys {keys}")
    return header, arrays


def save_dataset(out_dir: str, dataset: Dataset, catalog: Catalog,
                 max_positive_len: int = 200) -> None:
    """Persist the processed dataset as the CSR arrays it holds.

    Layout: interactions.npz, a ``write_archive`` archive whose header
    holds the format version, the feature schema, the max positive length
    and the user and item ids, and whose arrays are per row ``item``,
    ``positive`` and ``timestamp``; per session in dataset order its int64
    row count, ``session_rows``; per user its int64 session count,
    ``user_sessions``; and the catalog's ``item_features``.  Beside it,
    stats.json holds the summary counts.
    """
    os.makedirs(out_dir, exist_ok=True)
    sessions = dataset.sessions
    header = {"format_version": FORMAT_VERSION, "feature_names": list(catalog.feature_names),
              "feature_info": catalog.feature_info, "max_positive_len": max_positive_len,
              "user_ids": dataset.user_ids, "item_ids": catalog.item_ids}
    write_archive(os.path.join(out_dir, "interactions.npz"), header, {
        "session_rows": np.diff(sessions.offsets).astype(np.int64),
        "user_sessions": np.diff(dataset.user_offsets).astype(np.int64),
        "item": sessions.item.astype(np.int32),
        "positive": sessions.positive.astype(bool),
        "timestamp": sessions.timestamp.astype(np.int64),
        "item_features": catalog.item_features,
    })
    with open(os.path.join(out_dir, "stats.json"), "w") as fh:
        json.dump(compute_stats(dataset, catalog.num_items), fh, indent=2, sort_keys=True)


def load_dataset(data_dir: str) -> tuple[Dataset, Catalog, dict]:
    """Load a dataset directory written by save_dataset.

    Returns (dataset, catalog, header); the header holds max_positive_len.
    The session offsets are the running sum of ``session_rows``, and the
    user offsets that of ``user_sessions``.  An archive of another format
    version is refused; a missing or inconsistent header entry or array, a
    repeated item id and a session without a positive raise ValueError
    naming the archive.
    """
    path = os.path.join(data_dir, "interactions.npz")
    header, arrays = read_archive(path, "dataset", FORMAT_VERSION,
                                  "re-run prepare-data on the raw log", HEADER_KEYS)

    def check(ok, problem):
        if not ok:
            raise ValueError(f"{path}: {problem}")

    for key in ("feature_names", "user_ids", "item_ids"):
        check(isinstance(header[key], list) and set(map(type, header[key])) <= {str},
              f"header entry {key!r} is not a list of strings")
    user_ids, item_ids = header["user_ids"], header["item_ids"]
    twice = [raw for raw, n in Counter(item_ids).items() if n > 1]
    if twice:
        raise ValueError(f"{path}: item id {twice[0]!r} appears more than once in item_ids")
    max_len = header["max_positive_len"]
    check(type(max_len) is int and max_len >= 1,  # a bool is not a length
          f"max_positive_len must be an integer >= 1, got {max_len!r}")
    for name in ARRAYS:
        check(name in arrays, f"missing array {name!r}")
    rows = len(arrays["item"])
    for name in ("item", "positive", "timestamp"):
        check(arrays[name].shape == (rows,), f"array {name!r} is not one value per row")
    user_sessions, session_rows = arrays["user_sessions"], arrays["session_rows"]
    check(user_sessions.dtype.kind in "iu" and user_sessions.shape == (len(user_ids),)
          and (user_sessions >= 0).all(),
          f"user_sessions is not one integer session count >= 0 per user of user_ids "
          f"({len(user_ids)})")
    user_offsets = np.r_[0, np.cumsum(user_sessions, dtype=np.int64)]
    check(session_rows.dtype.kind in "iu" and session_rows.shape == (user_offsets[-1],)
          and (session_rows >= 1).all() and session_rows.sum() == rows,
          f"session_rows is not one integer row count >= 1 per session that user_sessions "
          f"counts ({user_offsets[-1]}), summing to the {rows} rows")
    check(((0 <= arrays["item"]) & (arrays["item"] < len(item_ids))).all(),
          "item ids run outside item_ids")
    feature_names = tuple(header["feature_names"])
    check(arrays["item_features"].shape == (len(item_ids), len(feature_names)),
          "item_features does not hold one row per item and one column per feature")
    catalog = Catalog(item_ids, feature_names, header["feature_info"], arrays["item_features"])
    try:
        vocab = catalog.feature_vocab_sizes()
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: feature_info does not describe every feature: "
                         f"{type(e).__name__} {e}") from None
    features = catalog.item_features
    bad = np.flatnonzero(((features < 0) | (features >= vocab)).any(axis=0))
    if bad.size:
        j = bad[0]
        raise ValueError(f"{path}: item_features of {feature_names[j]!r} run outside "
                         f"[0, {vocab[j]}), the values of its feature_info entry")
    sessions = Sessions(
        arrays["item"].astype(np.int32), arrays["positive"].astype(bool),
        arrays["timestamp"].astype(np.int64), np.r_[0, np.cumsum(session_rows, dtype=np.int64)],
    )
    # reduceat reads each session's rows, as no session is empty (checked above)
    check(np.logical_or.reduceat(sessions.positive, sessions.offsets[:-1]).all(),
          "a session has no positive row")
    return Dataset(sessions, user_offsets, user_ids), catalog, header
