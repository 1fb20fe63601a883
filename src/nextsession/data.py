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

import contextlib
import csv
import io
import json
import os
import zipfile
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

BLOCK_BYTES = 1 << 17  # log bytes parsed at a time, read on to a line end; a small block keeps little alive
WIDEST_FIELD = 256  # bytes; a block with a wider field goes through csv.reader, which holds
# fields to csv.field_size_limit(); below it, a block's byte matrices stay narrow


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


def _feature_names(header: list[str], path: str) -> tuple[str, ...]:
    """The side-feature columns of a log's ``header``, once no column is
    shown twice and every required one is shown present."""
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ValueError(f"column {name!r} appears twice in the header of {path}")
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise ValueError(f"missing required column {col!r} in {path}")
    return tuple(h for h in header if h not in REQUIRED_COLUMNS)


def ingest(path: str) -> tuple[Log, tuple[str, ...]]:
    """Parse a raw log file, UTF-8 text, into a ``Log`` (rows in log order)
    plus the tuple of side-feature column names found in the header.

    The header is one csv record, and blank lines are skipped.  Two paths
    read the log, to the same arrays and the same errors.  The byte path
    (``_read_bytes``) parses the raw bytes with numpy, about
    ``BLOCK_BYTES`` at a time, while it can show its parse of a block equal
    to ``csv.reader``'s: no ``"``, no NUL, no CR but in a CRLF line end,
    the header's field count on every non-blank line, no field over
    ``WIDEST_FIELD`` bytes, every timestamp ``-?[0-9]{1,18}``, every action
    label a known one, and every field UTF-8.  It keeps each run of equal
    fields in a column once, and codes each column once, by sorting, when
    the log ends.  From the first block it cannot show that of,
    ``csv.reader`` (``_read_records``) reads the rest of the log, which
    raises every error: the rows before keep the byte path's parse, a name
    they hold keeps its code, and lines are numbered on from there.  A
    header that the byte path cannot parse sends the whole log to
    ``csv.reader``.
    A repeated header column, text that is not UTF-8, a field longer than
    ``csv.field_size_limit()`` and malformed rows raise ValueError; a row's
    error names its 1-based line number, with csv records, not physical
    lines, counted.
    """
    try:
        with open(path, "rb") as fh:
            return _read_bytes(fh, path)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text (byte {e.object[e.start]:#04x}: "
                         f"{e.reason})") from None
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        raise ValueError(f"{path}: {e}") from None


def _read_records(fh, path: str, before: _Columns | None = None) -> tuple[Log, tuple[str, ...]]:
    """``ingest`` through ``csv.reader``, about as many records at a time as
    a block of short lines holds.  ``before``, if given, is what the byte
    path parsed of the log up to where ``fh`` stands: the header, the rows,
    and the line number of the next record."""
    reader = csv.reader(fh)
    if before is None:
        # an empty file reads as a header with no rows
        header = [h.strip() for h in next(reader, REQUIRED_COLUMNS)]
        before = _Columns(header, _feature_names(header, path))
    header, log = before.header, before.log()
    strings = (log.user, log.item, log.session, *log.features)
    # a name seen before keeps its code; a new one gets the next code
    tables = [defaultdict(None, zip(column.names, range(len(column.names))))
              for column in strings]
    for table in tables:
        table.default_factory = table.__len__
    converters = [int, before.polarity.__getitem__] + [t.__getitem__ for t in tables]
    dtypes = [np.int64, bool] + [np.int64] * len(tables)
    columns = [before.ts, before.act] + before.columns
    width = len(header)
    chunks = [[log.timestamp, log.positive] + [column.codes for column in strings]]
    first_line = before.line  # csv records, not physical lines, are numbered
    while records := list(islice(reader, max(1, BLOCK_BYTES // 64))):
        rows = [row for row in records if row]
        try:
            if set(map(len, rows)) - {width}:
                raise ValueError("wrong field count")
            fields = list(chain.from_iterable(rows))
            chunks.append([np.fromiter(map(convert, fields[j::width]), dtype, len(rows))
                           for convert, j, dtype in zip(converters, columns, dtypes)])
        except (ValueError, KeyError, OverflowError):
            raise _first_bad_row(records, first_line, header) from None
        first_line += len(records)

    timestamp, positive, *codes = map(np.concatenate, zip(*chunks))
    user, item, session, *features = map(Codes, codes, map(list, tables))
    return Log(user, item, session, timestamp, positive, tuple(features)), before.feature_names


_POWERS_OF_TEN = 10 ** np.arange(20, dtype=np.uint64)
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)  # the mask of n bytes


def _fields(block: bytes, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The starts and lengths, (lines, ``width``) each, of the fields of
    ``block``'s non-blank lines, ``block`` ending in a line end; None unless
    it holds no ``"``, no NUL, no CR but in a CRLF, and ``width`` fields on
    each such line."""
    if b'"' in block or b"\0" in block:
        return None
    raw = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    line_end = raw[ends] == ord("\n")
    if b"\r" in block:  # a field before CRLF ends at the CR
        cr = line_end & (raw[ends - 1] == ord("\r"))
        if np.count_nonzero(cr) != np.count_nonzero(raw == ord("\r")):
            return None
        ends -= cr
    # a blank line: an empty field ended by a line end, after a line end
    blank = line_end & (starts == ends)
    blank[1:] &= line_end[:-1]
    if blank.any():
        keep = ~blank
        ends, starts, line_end = ends[keep], starts[keep], line_end[keep]
    if len(ends) % width or (line_end.reshape(-1, width) != (np.arange(width) == width - 1)).any():
        return None
    starts = starts.reshape(-1, width)
    return starts, ends.reshape(-1, width) - starts


def _field_words(windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The fields at ``starts`` of ``windows`` (a block's byte windows, each
    at least as wide as the longest field) as rows of uint64 words,
    zero-padded to the longest."""
    size = 8 * (int(lengths.max(initial=0)) // 8 + 1)
    words = windows[starts, :size].view("<u8")  # a field's first byte is its words' lowest
    words &= _LOW_BYTES[np.clip(lengths[:, None] - np.arange(0, size, 8), 0, 8)]
    return words


def _timestamps(windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The int64 value of each field at ``starts`` of ``windows``, or None
    unless every one is ``-?[0-9]{1,18}``, which ``int`` reads the same."""
    size = int(lengths.max(initial=0))
    if not 1 <= size <= 19:
        return None
    digits = windows[starts, :size]
    minus = digits[:, 0] == ord("-")
    count = lengths - minus
    digits -= ord("0")  # uint8: any byte but a digit wraps past 9
    digits[:, 0] *= ~minus
    inside = np.arange(size) < lengths[:, None]
    if count.min() < 1 or count.max() > 18 or ((digits > 9) & inside).any():
        return None
    digits *= inside.view(np.uint8)
    # left-aligned, the digits read as the value times 10 ** (size - length)
    value = digits @ _POWERS_OF_TEN[size - 1::-1] // _POWERS_OF_TEN[size - lengths]
    value = value.astype(np.int64)
    np.negative(value, out=value, where=minus)
    return value


def _new_rows(words: np.ndarray) -> np.ndarray:
    """Whether each row of ``words`` differs from the row before; the first
    row does."""
    new = np.empty(len(words), bool)
    new[:1] = True
    np.not_equal(words[1:, 0], words[:-1, 0], out=new[1:])
    for word in words.T[1:]:  # a word at a time: a (rows, words) temporary costs more
        new[1:] |= word[1:] != word[:-1]
    return new


def _runs(windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The fields at ``starts`` of ``windows`` with each run of equal fields
    kept once, by its first field (its head): the head mask, each head's
    word count as uint8, and per word count w the (heads, w) uint64 words
    of the heads that have it, in order.  A field of n bytes has
    n // 8 + 1 words, zero-padded; no field holds a NUL, so equal words
    are equal fields."""
    words = _field_words(windows, starts, lengths)
    head = _new_rows(words)
    at = np.flatnonzero(head)
    count = (lengths[at] // 8 + 1).astype(np.uint8)
    return head, count, {w: words[at[count == w], :w]
                         for w in np.flatnonzero(np.bincount(count)).tolist()}


def _coded(count: np.ndarray, words: dict[int, np.ndarray]) -> tuple[np.ndarray, list[str]]:
    """First-appearance codes of fields given as ``_runs`` gives its heads:
    ``count`` each field's word count, and ``words[w]`` the fields of w
    words, in order.  Each word count's fields are sorted once, so equal
    ones are neighbours; the distinct fields of all word counts are then
    ranked by their first appearance.  Returns each field's code (int64)
    and the names, UTF-8 decoded, in code order."""
    code = np.empty(len(count), np.int64)
    first, fields = [np.zeros(0, np.int64)], []  # per distinct field: its first row, its bytes
    for w, rows in words.items():
        order = np.lexsort(rows.T)  # stable, so a field's first row leads its equals
        new = _new_rows(rows[order])
        known = len(fields)
        fields += rows[order[new]].view(f"S{8 * w}").ravel().tolist()  # trailing NULs dropped
        order = np.flatnonzero(count == w)[order]  # the same fields, as rows of ``count``
        first.append(order[new])
        code[order] = np.cumsum(new) + (known - 1)
    by_first = np.argsort(np.concatenate(first))
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    return rank[code], [fields[k].decode() for k in by_first.tolist()]


class _Column:
    """A string column as the byte path keeps it until the log ends: per
    chunk of rows, the run heads that ``_runs`` gives."""

    def __init__(self):
        self.head, self.count = [np.zeros(0, bool)], [np.zeros(0, np.uint8)]
        self.words = defaultdict(list)  # word count -> per chunk, its heads' words
        self.heads = 0

    def add(self, head: np.ndarray, count: np.ndarray, words: dict[int, np.ndarray]) -> None:
        self.head.append(head)
        self.count.append(count)
        for w, rows in words.items():
            self.words[w].append(rows)
        self.heads += len(count)

    def codes(self) -> Codes:
        """The column's codes, one per row.  The chunks are let go, so this
        is called once, at the end."""
        head, count = np.concatenate(self.head), np.concatenate(self.count)
        words = {w: np.concatenate(rows) for w, rows in self.words.items()}
        self.__init__()  # the chunks go before the sort's temporaries come
        codes, names = _coded(count, words)
        return Codes(codes[np.cumsum(head) - 1], names)


class _Columns:
    """A log's rows as the byte path keeps them, a block at a time: the
    timestamps, the polarities, and per string column a ``_Column``.  A
    block is kept only once all of it has parsed.  The action column is
    coded a chunk of rows at a time, to find each label's polarity; every
    other string column is coded once, in ``log``.  Each keeps a run of
    equal fields once: in a log grouped by user and session, most user,
    session and action fields repeat the one above."""

    def __init__(self, header: list[str], feature_names: tuple[str, ...]):
        self.header, self.feature_names, self.width = header, feature_names, len(header)
        self.ts, self.act = header.index("timestamp"), header.index("action")
        self.columns = [header.index(c) for c in ("user", "item", "session") + feature_names]
        self.timestamp, self.positive = [np.zeros(0, np.int64)], [np.zeros(0, bool)]
        self.strings = [_Column() for _ in self.columns]
        self.polarity = _Polarity()
        self.rows = 0
        self.line = 2  # the line number of the next record; blank ones count, as in csv.reader

    def add(self, block: bytes) -> bool:
        """Parse ``block``, whole lines each ending in a line end, onto the
        rows; False, and nothing kept, where the parse cannot be shown equal
        to ``_read_records``'.  Then the columns take no more blocks."""
        chunks = self._parse(block)
        if chunks is None:
            return False
        for stamps, positive, *runs in chunks:
            self.timestamp.append(stamps)
            self.positive.append(positive)
            for column, heads in zip(self.strings, runs):
                column.add(*heads)
            self.rows += len(stamps)
        self.line += block.count(b"\n")
        return True

    def _parse(self, block: bytes) -> list | None:
        fields = _fields(block, self.width)
        if fields is None:
            return None
        if not block.isascii():
            try:  # fields split at ASCII bytes, so this checks every field
                block.decode()
            except UnicodeDecodeError:
                return None
        starts, lengths = fields
        longest = int(lengths.max(initial=0))
        if longest > WIDEST_FIELD:
            return None
        size = 8 * (longest // 8 + 1)  # whole words, with a zero byte after the longest field
        windows = sliding_window_view(np.frombuffer(block + bytes(size), np.uint8), size)
        step = max(1, 4 * len(block) // size)  # rows whose byte matrices stay within 4 blocks
        chunks = []
        for lo in range(0, len(starts), step):
            chunks.append(self._parse_rows(windows, starts[lo:lo + step], lengths[lo:lo + step]))
            if chunks[-1] is None:
                return None
        return chunks

    def _parse_rows(self, windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        stamps = _timestamps(windows, starts[:, self.ts], lengths[:, self.ts])
        if stamps is None:
            return None
        head, count, words = _runs(windows, starts[:, self.act], lengths[:, self.act])
        codes, labels = _coded(count, words)
        try:
            polarity = np.array([self.polarity[label] for label in labels], bool)
        except KeyError:
            return None
        return [stamps, polarity[codes][np.cumsum(head) - 1]] + [
            _runs(windows, starts[:, j], lengths[:, j]) for j in self.columns]

    def log(self) -> Log:
        """The rows kept, as a ``Log``.  The chunks are let go as they are
        joined and coded, so this is called once, at the end."""
        timestamp, positive = np.concatenate(self.timestamp), np.concatenate(self.positive)
        self.timestamp, self.positive = [timestamp[:0]], [positive[:0]]
        coded = [None] * len(self.strings)
        # the column with the most heads first: its temporaries are the largest
        for j in sorted(range(len(coded)), key=lambda j: -self.strings[j].heads):
            coded[j] = self.strings[j].codes()
        user, item, session, *features = coded
        return Log(user, item, session, timestamp, positive, tuple(features))


def _read_bytes(fh, path: str) -> tuple[Log, tuple[str, ...]]:
    """``ingest`` of ``fh``, the log opened in binary, through numpy up to
    the first block whose parse cannot be shown equal to ``_read_records``':
    from there ``_read_records`` reads on, after the rows before it, or
    reads the whole log if that is the header.  Python work is done once
    per distinct field, when ``_coded`` decodes the names, not once per
    row."""
    header = list(REQUIRED_COLUMNS)  # an empty file reads as a header with no rows
    if line := fh.readline():
        line = line.removesuffix(b"\n").removesuffix(b"\r")
        try:
            header = [h.strip() for h in line.decode().split(",")] if line else []
            feature_names = _feature_names(header, path)
            plain = b'"' not in line and b"\r" not in line
        except ValueError:  # also text that is not UTF-8; the csv path names the fault
            plain = False
        if not plain:
            fh.seek(0)
            return _read_text(fh, path)
    else:
        feature_names = ()
    columns = _Columns(header, feature_names)
    while block := fh.read(BLOCK_BYTES) + fh.readline():
        if not columns.add(block if block.endswith(b"\n") else block + b"\n"):
            fh.seek(-len(block), os.SEEK_CUR)
            return _read_text(fh, path, columns)
    return columns.log(), feature_names


def _read_text(fh, path: str, before: _Columns | None = None) -> tuple[Log, tuple[str, ...]]:
    """``_read_records`` of ``fh``, the log opened in binary, from where it
    stands; it closes ``fh``."""
    with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        return _read_records(text, path, before)


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
    u, it, s, pos = user, item, session, positive  # the rows left; the first pass reads all
    while True:
        item_ok = np.bincount(it, minlength=sizes[1]) >= MIN_ITEM_FEEDBACKS
        session_ok = np.bincount(s[pos], minlength=sizes[2]) > 0
        user_sessions = session_user[np.bincount(s, minlength=sizes[2]) > 0]
        user_ok = ((np.bincount(u, minlength=sizes[0]) >= MIN_USER_FEEDBACKS)
                   & (np.bincount(user_sessions, minlength=sizes[0]) >= MIN_USER_SESSIONS))
        ok = item_ok[it] & user_ok[u] & session_ok[s]
        if ok.all():
            return rows
        rows, u, it, s, pos = rows[ok], u[ok], it[ok], s[ok], pos[ok]


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
    codes = column.codes[rows]
    present = np.flatnonzero(np.bincount(codes, minlength=len(column.names)))
    present = sorted(present.tolist(), key=column.names.__getitem__)
    rank = np.empty(len(column.names), np.int64)
    rank[present] = np.arange(len(present))
    return [column.names[c] for c in present], rank[codes]


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

    catalog = Catalog(item_ids, feature_names,
                      item_features=np.zeros((len(item_ids), len(feature_names)), np.int32))
    if feature_names:  # catalog-side feature values: an item's first row in (user, timestamp) order
        item_first = rows[by_time[np.unique(item[by_time], return_index=True)[1]]]
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
FORMAT_2_FILES = ("meta.json", "users.json", "item_map.json")  # format 2's header, beside its arrays


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
    stats.json holds the summary counts.  The JSON files of a format-2
    dataset in ``out_dir`` are removed.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name in FORMAT_2_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    sessions = dataset.sessions
    header = {"format_version": FORMAT_VERSION, "feature_names": list(catalog.feature_names),
              "feature_info": catalog.feature_info, "max_positive_len": max_positive_len,
              "user_ids": dataset.user_ids, "item_ids": catalog.item_ids}
    write_archive(os.path.join(out_dir, "interactions.npz"), header, {
        "session_rows": np.diff(sessions.offsets).astype(np.int64),
        "user_sessions": np.diff(dataset.user_offsets).astype(np.int64),
        "item": sessions.item.astype(np.int32, copy=False),
        "positive": sessions.positive.astype(bool, copy=False),
        "timestamp": sessions.timestamp.astype(np.int64, copy=False),
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
    for name, kinds, values in (("item", "iu", "integers"), ("positive", "b", "booleans"),
                                ("timestamp", "iu", "integers")):
        check(arrays[name].shape == (rows,), f"array {name!r} is not one value per row")
        check(arrays[name].dtype.kind in kinds,
              f"array {name!r} holds {arrays[name].dtype} values, not {values}")
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
    check(arrays["item_features"].dtype.kind in "iu",
          f"array 'item_features' holds {arrays['item_features'].dtype} values, not integers")
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
