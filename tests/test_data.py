import csv
import json
import os
import re
import shutil
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dataset_files,
    dataset_of,
    history,
    ragged,
    random_train_views,
    read_dataset_archive,
    reference_encoder_views,
    reference_prepare,
    sessions_of,
    write_dataset_archive,
)
import nextsession.tensor as T
from nextsession import data, synth
from nextsession.data import (
    compute_stats,
    encoder_views,
    equal_frequency_edges,
    filter_dataset,
    ingest,
    load_dataset,
    make_split,
    save_dataset,
    truncate_to_positive_budget,
)
from nextsession.model import NextSessionModel
from nextsession.trainer import TrainConfig


def write_csv(path, rows, header="user,item,session,timestamp,action"):
    path.write_text(header + "\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")
    return str(path)


def dense_corpus_rows():
    """A corpus where every filter constraint already holds.

    3 users x 3 sessions x (2 positives + 1 exposure) over 3 items; every
    item appears 9 times, every user has 9 feedbacks and 3 sessions, every
    session has positives.
    """
    rows = []
    t = 0
    for u in range(3):
        for s in range(3):
            for item, action in (("a", "click"), ("b", "purchase"), ("c", "exposure")):
                rows.append((f"u{u}", item, f"s{u}-{s}", t, action))
                t += 1
    return rows


class TestIngest:
    def test_three_rows_one_exposure(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            [
                ("u1", "i1", "s1", 100, "click"),
                ("u1", "i2", "s1", 101, "exposure"),
                ("u1", "i3", "s2", 102, "purchase"),
            ],
        )
        log, features = ingest(path)
        assert len(log) == 3
        assert features == ()
        assert log.positive.tolist() == [True, False, True]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        log, features = ingest(str(path))
        assert len(log) == 0 and features == ()

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", [])
        assert len(ingest(path)[0]) == 0

    def test_rows_kept_in_log_order(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            [
                ("u2", "i1", "s1", 50, "click"),
                ("u1", "i2", "s1", 99, "click"),
                ("u1", "i3", "s1", 10, "click"),
            ],
        )
        log, _ = ingest(path)
        assert [log.user.names[c] for c in log.user.codes] == ["u2", "u1", "u1"]
        assert [log.item.names[c] for c in log.item.codes] == ["i1", "i2", "i3"]
        assert log.timestamp.tolist() == [50, 99, 10]
        # each distinct string is stored once
        assert log.user.names == ["u2", "u1"] and log.session.names == ["s1"]

    def test_unknown_action_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            [("u1", "i1", "s1", 1, "click"), ("u1", "i2", "s1", 2, "hover")],
        )
        with pytest.raises(ValueError, match="line 3.*hover"):
            ingest(path)

    def test_bad_timestamp_names_line(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", [("u1", "i1", "s1", "soon", "click")])
        with pytest.raises(ValueError, match="line 2"):
            ingest(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("user,item,session,timestamp,action\nu1,i1,s1,5\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest(str(path))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("user,item,when,action\n")
        with pytest.raises(ValueError, match="session"):
            ingest(str(path))

    def test_hyphenated_action_accepted(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", [("u1", "i1", "s1", 1, "effective-view")])
        log, _ = ingest(path)
        assert log.positive.tolist() == [True]

    def test_extra_columns_become_features(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            [("u1", "i1", "s1", 1, "click", "sports", "3.5")],
            header="user,item,session,timestamp,action,topic,price",
        )
        log, features = ingest(path)
        assert features == ("topic", "price")
        assert [col.names[col.codes[0]] for col in log.features] == ["sports", "3.5"]

    def test_quoted_fields_and_blank_lines(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text('user,item,session,timestamp,action\n'
                        '"u,1",i1,s1,5,click\n\n'
                        'u2,"i ""2""",s1,6,exposure\n')
        log, _ = ingest(str(path))
        assert log.user.names == ["u,1", "u2"]
        assert log.item.names == ["i1", 'i "2"']
        assert log.positive.tolist() == [True, False]

    def test_first_fault_in_line_order_is_reported(self, tmp_path, monkeypatch):
        # csv.reader's chunks of BLOCK_BYTES // 64 = 3 records: lines 2-4, then lines 5-7
        monkeypatch.setattr(data, "BLOCK_BYTES", 192)
        path = tmp_path / "log.csv"
        path.write_text("user,item,session,timestamp,action\n"
                        "u1,i1,s1,1,click\n\n"
                        "u1,i1,s1,2,click\n"
                        "u1,i1,s1,later,click\n"
                        "u1,i1,s1\n"
                        "u1,i1,s1,3,hover\n")
        with pytest.raises(ValueError, match="line 5: timestamp .later. is not a 64-bit integer"):
            ingest(str(path))

    def test_timestamp_outside_int64_names_line(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", [("u1", "i1", "s1", 2**63, "click")])
        with pytest.raises(ValueError, match="line 2: timestamp .* is not a 64-bit integer"):
            ingest(path)

    @pytest.mark.parametrize("header,named", [
        ("user,item,session,timestamp,action,color,color", "color"),
        ("user,item,user ,session,timestamp,action", "user"),
    ])
    def test_repeated_header_column_rejected(self, tmp_path, header, named):
        path = write_csv(tmp_path / "log.csv", [], header=header)
        with pytest.raises(ValueError, match=f"column '{named}' appears twice in the header "
                                             f"of .*log.csv"):
            ingest(path)

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"user,item,session,timestamp,action\nu1,i\xc3,s1,1,click\n")
        with pytest.raises(ValueError, match=r"log.csv: not UTF-8 text \(byte 0xc3: "):
            ingest(str(path))

    def test_quoted_field_over_the_csv_limit_names_the_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(f'user,item,session,timestamp,action\n"u1",{"i" * 200_000},s1,1,click\n')
        with pytest.raises(ValueError, match="log.csv: field larger than field limit"):
            ingest(str(path))

    def test_field_over_the_csv_limit_is_refused_in_a_quote_free_log_too(self, tmp_path):
        # the byte path leaves a field over WIDEST_FIELD bytes to csv.reader
        path = tmp_path / "log.csv"
        path.write_text(f'user,item,session,timestamp,action\nu1,{"i" * 200_000},s1,1,click\n')
        with pytest.raises(ValueError, match="^.*log.csv: field larger than field limit"):
            ingest(str(path))


def assert_same_log(a, b):
    """Equal arrays of equal dtypes, and equal names."""
    assert len(a.features) == len(b.features)
    for x, y in [(a.timestamp, b.timestamp), (a.positive, b.positive)] + [
            (x.codes, y.codes) for x, y in zip((a.user, a.item, a.session, *a.features),
                                                (b.user, b.item, b.session, *b.features))]:
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    for x, y in zip((a.user, a.item, a.session, *a.features), (b.user, b.item, b.session,
                                                                *b.features)):
        assert x.names == y.names


def ingest_in_blocks(path, monkeypatch, block_bytes):
    """``ingest(path)`` with blocks of ``block_bytes`` bytes (None: the
    default)."""
    if block_bytes is not None:
        monkeypatch.setattr(data, "BLOCK_BYTES", block_bytes)
    log = ingest(str(path))
    monkeypatch.undo()
    return log


PLAIN_ROWS = [(f"u{k % 4}", f"i{k % 7}", f"s{k % 3}", 100 + k,
               ("click", "exposure", "Purchase")[k % 3], ("red", " blue")[k % 2])
              for k in range(24)]
QUOTED_ROWS = [("u,9", 'i "8"', "s\n9", 7, "click", "a\r\nb"), ("u9", "", "s9", 8, "exposure", ",")]

# Records: 1 header, 2 row, 3-4 blank, 5 row, 6 a line longer than small
# blocks, 7 blank, 8-9 quoted fields holding "," and "", 10 a quoted field
# holding a line end, 11 blank (CRLF), 12 row.
STRADDLING = ('user,item,session,timestamp,action\n'
              'u1,i1,s1,1,click\n\n\n'
              'u1,i2,s1,2,exposure\n'
              'u2,' + 'i' * 60 + ',s2,3,click\n\n'
              'u2,"i,3",s2,4,purchase\n'
              '"u3","i ""4""",s3,5,click\n'
              'u3,"i\n5",s3,6,exposure\r\n\r\n'
              'u3,i6,s3,7,click\n')


# Records: 1 header, 2 row, 3-4 blank, 5 row, 6 a line longer than small
# blocks, 7 blank (CRLF), 8 a row ending in CRLF, 9 a row of non-ASCII
# fields with no final line end.
PLAIN_STRADDLING = ('user,item,session,timestamp,action\n'
                    'u1,i1,s1,1,click\n\n\n'
                    'u1,i2,s1,-2,exposure\n'
                    'u2,' + 'i' * 60 + ',s2,003,click\n\r\n'
                    'u2,i4,s2,4,purchase\r\n'
                    'u3,ï5,s3,5, Click')


def no_csv_path(fh, path):
    pytest.fail(f"{path} went through csv.reader")


class TestTokenizers:
    """A quote-free log is parsed as bytes and any other goes through
    csv.reader; both give the same Log."""

    @pytest.mark.parametrize("block_bytes", [5, 64, None])
    def test_quote_all_and_quote_minimal_agree(self, tmp_path, monkeypatch, block_bytes):
        logs = []
        for quoting in (csv.QUOTE_ALL, csv.QUOTE_MINIMAL):
            path = tmp_path / f"log{quoting}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, quoting=quoting)
                writer.writerow(["user", "item", "session", "timestamp", "action", "color"])
                writer.writerows(PLAIN_ROWS[:20] + QUOTED_ROWS + PLAIN_ROWS[20:])
            logs.append(ingest_in_blocks(path, monkeypatch, block_bytes))
        (log, features), (minimal, _) = logs
        assert_same_log(log, minimal)
        assert features == ("color",) and len(log) == 26
        assert log.user.names[-2:] == ["u,9", "u9"] and log.item.names[-2:] == ['i "8"', ""]
        assert log.session.names[-2:] == ["s\n9", "s9"]
        assert log.features[0].names[-2:] == ["a\r\nb", ","]

    @pytest.mark.parametrize("block_bytes", [5, 64, None])
    def test_line_ends_agree(self, tmp_path, monkeypatch, block_bytes):
        lines = ["user,item,session,timestamp,action,color"] + [
            ",".join(map(str, row)) for row in PLAIN_ROWS[:10]] + [""] + [
            ",".join(map(str, row)) for row in PLAIN_ROWS[10:]]
        logs = []
        for end in ("\n", "\r\n", "\r"):
            path = tmp_path / "log.csv"
            path.write_bytes(end.join(lines).encode() + end.encode())
            logs.append(ingest_in_blocks(path, monkeypatch, block_bytes)[0])
        assert len(logs[0]) == 24 and logs[0].features[0].names == ["red", " blue"]
        for log in logs[1:]:
            assert_same_log(logs[0], log)

    def test_every_block_size_agrees(self, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        path.write_bytes(STRADDLING.encode())
        whole, _ = ingest(str(path))
        assert whole.item.names == ["i1", "i2", "i" * 60, "i,3", 'i "4"', "i\n5", "i6"]
        assert whole.user.names == ["u1", "u2", "u3"]
        assert whole.timestamp.tolist() == list(range(1, 8))
        for block_bytes in range(1, len(STRADDLING) + 1):
            assert_same_log(whole, ingest_in_blocks(path, monkeypatch, block_bytes)[0])

    def test_every_block_size_parses_a_quote_free_log_as_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        path.write_bytes(PLAIN_STRADDLING.encode())
        with open(path, newline="", encoding="utf-8") as fh:
            whole, _ = data._read_records(fh, str(path))
        assert whole.item.names == ["i1", "i2", "i" * 60, "i4", "ï5"]
        assert whole.timestamp.tolist() == [1, -2, 3, 4, 5]
        monkeypatch.setattr(data, "_read_records", no_csv_path)
        for block_bytes in range(1, len(PLAIN_STRADDLING.encode()) + 1):
            monkeypatch.setattr(data, "BLOCK_BYTES", block_bytes)
            assert_same_log(whole, ingest(str(path))[0])

    @pytest.mark.parametrize("bad,message", [
        ("u1,i2,s1,2,exposure\n", "line 5: unknown action 'hover'"),
        ("u3,i6,s3,7,click\n", "line 12: timestamp 'soon' is not a 64-bit integer"),
    ])
    def test_every_block_size_names_the_same_line(self, tmp_path, monkeypatch, bad, message):
        path = tmp_path / "log.csv"
        broken = bad.replace("exposure", "hover").replace("7", "soon")
        path.write_bytes(STRADDLING.replace(bad, broken).encode())
        for block_bytes in range(1, len(STRADDLING) + 1, 3):
            monkeypatch.setattr(data, "BLOCK_BYTES", block_bytes)
            with pytest.raises(ValueError, match=message):
                ingest(str(path))

    def test_transient_memory_stays_below_the_record_chunked_reader(self, tmp_path):
        """The tracemalloc peak of ingesting a 1.6 MB log shaped like the
        benchmark's long-history one (96 users, 3 to 60 sessions of 12
        rows).  The bound is the peak that reading csv records 2048 at a
        time gave on this log (CPython 3.11, numpy 2.4); blocks much
        larger than the default exceed it."""
        path = tmp_path / "log.csv"
        rng = np.random.default_rng(0)
        with open(path, "w", newline="") as fh:
            fh.write("user,item,session,timestamp,action\n")
            for u, sessions in enumerate(np.linspace(3, 60, 96).round().astype(int).tolist()):
                for s in range(sessions):
                    for pos, item in enumerate(rng.integers(0, 1000, 12).tolist()):
                        fh.write(f"u{u:05d},i{item:05d},u{u:05d}-s{s:03d},"
                                 f"{s * 10_000_000 + u * 1_000 + pos},"
                                 f"{'click' if pos < 4 else 'exposure'}\n")
        assert path.stat().st_size == 1_582_105
        tracemalloc.start()
        try:
            log, _ = ingest(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log) == 36_288
        assert peak <= 3_539_926


FIELD = st.text(st.characters(exclude_characters=',"\r\n\0', exclude_categories=["Cs"]),
                max_size=5)
STAMP = st.builds(lambda value, zeros: "-" * (value < 0) + "0" * zeros + str(abs(value)),
                  st.integers(-10**12, 10**12), st.integers(0, 5))  # at most 18 digits
ROW = st.tuples(FIELD, FIELD, FIELD, STAMP,
                st.sampled_from(["click", "exposure", "Purchase", " effective-view", "CLICK "]),
                FIELD).map(",".join)


@st.composite
def quote_free_logs(draw):
    """The UTF-8 text of a log with a feature column and no quote: ids of
    0-5 characters, many not ASCII, so widths change from line to line; LF
    and CRLF line ends, mixed; blank lines; perhaps no final line end."""
    lines = ["user,item,session,timestamp,action,color"] + draw(
        st.lists(st.one_of(ROW, st.just("")), max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    return text.removesuffix(ends[-1]) if draw(st.booleans()) else text


class TestBytePath:
    """The byte path against csv.reader, which every other log goes through."""

    @settings(max_examples=80, deadline=None)
    @given(quote_free_logs())
    def test_agrees_with_csv_reader_at_every_block_size(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.csv")
            with open(path, "wb") as fh:
                fh.write(text.encode())
            with open(path, newline="", encoding="utf-8") as fh:
                log, features = data._read_records(fh, path)
            for block_bytes in (1, 13, 200, data.BLOCK_BYTES):
                with mock.patch.object(data, "BLOCK_BYTES", block_bytes), open(path, "rb") as fh:
                    parsed = data._read_bytes(fh, path)
                assert parsed is not None and parsed[1] == features == ("color",)
                assert_same_log(log, parsed[0])

    # Each log the byte path cannot show it parses as csv.reader does: 30
    # good lines, the case's line(s), then 5 more.  The expected rows and
    # error lines are those of the str.split and csv.reader paths this one
    # replaced.
    @pytest.mark.parametrize("case, expected", [
        (b"u1,i1,s1,1,click\ru1,i2,s1,2,exposure\n",  # a lone CR ends a record
         [("u1", "i1", "s1", 1, True), ("u1", "i2", "s1", 2, False)]),
        (b"u1,i1\r,s1,1,click\n", "line 32: expected 5 fields, got 2"),
        (b'u1,"i,1",s1,1,click\n', [("u1", "i,1", "s1", 1, True)]),
        (b"u1,i\x001,s1,1,click\n", [("u1", "i\x001", "s1", 1, True)]),
        (b"u1,i1,s1,+5,click\n", [("u1", "i1", "s1", 5, True)]),
        (b"u1,i1,s1, 5,click\n", [("u1", "i1", "s1", 5, True)]),
        (b"u1,i1,s1,1_000,click\n", [("u1", "i1", "s1", 1000, True)]),
        ("u1,i1,s1,\u0665,click\n".encode(), [("u1", "i1", "s1", 5, True)]),
        (b"u1,i1,s1,1000000000000000000,click\n", [("u1", "i1", "s1", 10**18, True)]),
        (b"u1,i1,s1,9223372036854775808,click\n",
         "line 32: timestamp '9223372036854775808' is not a 64-bit integer"),
        (b"u1,i1,s1,,click\n", "line 32: timestamp '' is not a 64-bit integer"),
        (b"u1,i1,s1,1,hover\n", "line 32: unknown action 'hover'"),
        (b"u1,i\xc3,s1,1,click\n", "{path}: not UTF-8 text (byte 0xc3: invalid continuation byte)"),
        (b"u1,i1,s1,1\n", "line 32: expected 5 fields, got 4"),
        (b"u1," + b"w" * 5000 + b",s1,1,click\n", [("u1", "w" * 5000, "s1", 1, True)]),
    ], ids=["lone CR", "lone CR in a field", "quote", "NUL", "plus", "space", "underscore", "non-ASCII digit",
            "19 digits", "int64 overflow", "empty timestamp", "unknown action",
            "not UTF-8", "field count", "wide field"])
    @pytest.mark.parametrize("block_bytes", [64, None])
    def test_fallback_reads_as_before(self, tmp_path, monkeypatch, case, expected, block_bytes):
        path = tmp_path / "log.csv"
        path.write_bytes(b"user,item,session,timestamp,action\n"
                         + b"".join(b"u%d,i%d,s%d,%d,click\n" % (k % 3, k, k, k) for k in range(30))
                         + case + b"u0,i0,s0,0,exposure\n" * 5)
        fallbacks = csv_reads(monkeypatch)
        if block_bytes is not None:
            monkeypatch.setattr(data, "BLOCK_BYTES", block_bytes)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{re.escape(expected.format(path=path))}$"):
                ingest(str(path))
        else:
            log, _ = ingest(str(path))
            assert log_rows(log)[30:-5] == expected and len(log) == 35 + len(expected)
        assert fallbacks == [str(path)]

    # with no multiplier a long field's key is its last word, which these share
    @pytest.mark.parametrize("first, second", [("aaaaaaaa-1", "bbbbbbbb-1"),
                                               ("aaaaaaaa-1", "bbbbbbbbbbbbbbbb-1")])
    @pytest.mark.parametrize("block_bytes", [1, None])
    def test_a_key_two_fields_share_sends_the_log_to_csv_reader(self, tmp_path, monkeypatch,
                                                                 first, second, block_bytes):
        monkeypatch.setattr(data, "_KEY_MULTIPLIER", np.uint64(0))
        if block_bytes is not None:  # a line a block: the second field is the wider, and later
            monkeypatch.setattr(data, "BLOCK_BYTES", block_bytes)
        path = write_csv(tmp_path / "log.csv", [("u1", first, "s1", 1, "click"),
                                                ("u1", second, "s1", 2, "click")])
        fallbacks = csv_reads(monkeypatch)
        assert ingest(path)[0].item.names == [first, second]
        assert fallbacks == [path]


def csv_reads(monkeypatch):
    """The paths that ``ingest`` reads through csv.reader from now on."""
    paths = []
    read_records = data._read_records
    monkeypatch.setattr(data, "_read_records",
                        lambda fh, path: paths.append(path) or read_records(fh, path))
    return paths


def log_rows(log):
    """A Log as one (user, item, session, timestamp, positive) tuple per row."""
    return list(zip([log.user.names[c] for c in log.user.codes],
                    [log.item.names[c] for c in log.item.codes],
                    [log.session.names[c] for c in log.session.codes],
                    log.timestamp.tolist(), log.positive.tolist()))


class TestFilterDataset:
    def test_clean_corpus_is_identity(self, tmp_path):
        interactions, features = ingest(write_csv(tmp_path / "log.csv", dense_corpus_rows()))
        sequences, catalog = filter_dataset(interactions, features)
        assert len(sequences) == 3
        assert catalog.num_items == 3
        assert all(len(seq) == 3 for seq in sequences)
        total = sum(seq.num_interactions() for seq in sequences)
        assert total == len(interactions)

    def test_user_with_two_sessions_dropped(self, tmp_path):
        rows = dense_corpus_rows()
        # u3 has only 2 sessions but plenty of feedbacks on popular items
        t = 1000
        for s in range(2):
            for item in ("a", "b", "c"):
                rows.append(("u3", item, f"s3-{s}", t, "click"))
                t += 1
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", rows))
        sequences, _ = filter_dataset(interactions)
        assert sequences.user_ids == ["u0", "u1", "u2"]

    def test_all_negative_session_dropped(self, tmp_path):
        rows = dense_corpus_rows()
        t = 1000
        for item in ("a", "b", "c"):
            rows.append(("u0", item, "s0-neg", t, "exposure"))
            t += 1
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", rows))
        sequences, _ = filter_dataset(interactions)
        assert sequences.user_ids[0] == "u0" and len(sequences[0]) == 3
        # u0's sessions s0-0, s0-1, s0-2 in order; the exposure-only one is gone
        kept = sessions_of(sequences[0])
        assert [s.timestamps for s in kept] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert [s.items for s in kept] == [[0, 1, 2]] * 3

    def test_rare_item_dropped(self, tmp_path):
        rows = dense_corpus_rows()
        rows.append(("u0", "rare", "s0-0", 999, "click"))
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", rows))
        _, catalog = filter_dataset(interactions)
        assert "rare" not in catalog.item_ids
        assert catalog.num_items == 3

    def test_filtering_is_a_fixpoint(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = []
        t = 0
        for u in range(12):
            for s in range(int(rng.integers(1, 6))):
                for _ in range(int(rng.integers(1, 5))):
                    item = f"i{rng.integers(0, 15)}"
                    action = "click" if rng.random() < 0.6 else "exposure"
                    rows.append((f"u{u}", item, f"s{u}-{s}", t, action))
                    t += 1
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", rows))
        try:
            sequences, catalog = filter_dataset(interactions)
        except ValueError:
            pytest.skip("random corpus degenerate for this seed")
        # re-encode the surviving interactions, each session under an id of
        # its own, and filter again: nothing changes
        rows2 = []
        for user, seq in zip(sequences.user_ids, sequences):
            for k, sess in enumerate(sessions_of(seq)):
                for it, pos, ts in zip(sess.items, sess.positives, sess.timestamps):
                    rows2.append((user, catalog.item_ids[it], f"{user}-{k}", ts,
                                  "click" if pos else "exposure"))
        interactions2, _ = ingest(write_csv(tmp_path / "log2.csv", rows2))
        sequences2, catalog2 = filter_dataset(interactions2)
        assert catalog2.num_items == catalog.num_items
        assert sum(s.num_interactions() for s in sequences2) == sum(
            s.num_interactions() for s in sequences
        )

    def test_degenerate_corpus_raises(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", [("u1", "i1", "s1", 1, "click")])
        interactions, _ = ingest(path)
        with pytest.raises(ValueError, match="degenerate"):
            filter_dataset(interactions)

    @pytest.mark.parametrize("bin_count", [0, -1])
    def test_bin_count_below_one_rejected(self, tmp_path, bin_count):
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", dense_corpus_rows()))
        with pytest.raises(ValueError, match=f"bin_count must be >= 1, got {bin_count}"):
            filter_dataset(interactions, bin_count=bin_count)

    def test_dense_remap_is_contiguous(self, tmp_path):
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", dense_corpus_rows()))
        sequences, catalog = filter_dataset(interactions)
        assert catalog.item_ids == ["a", "b", "c"]
        seen = {it for s in sequences for sess in sessions_of(s) for it in sess.items}
        assert seen == set(range(catalog.num_items))

    def test_sessions_ordered_by_earliest_timestamp(self, tmp_path):
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", dense_corpus_rows()))
        sequences, _ = filter_dataset(interactions)
        for seq in sequences:
            starts = [min(s.timestamps) for s in sessions_of(seq)]
            assert starts == sorted(starts)

    def test_categorical_features_encoded(self, tmp_path):
        rows = [
            r + ("red" if i % 2 else "blue",)
            for i, r in enumerate(dense_corpus_rows())
        ]
        path = write_csv(
            tmp_path / "log.csv", rows,
            header="user,item,session,timestamp,action,color",
        )
        interactions, features = ingest(path)
        sequences, catalog = filter_dataset(interactions, features)
        assert catalog.feature_names == ("color",)
        assert catalog.feature_vocab_sizes() == [2]
        assert catalog.item_features.shape == (3, 1)
        assert set(catalog.item_features[:, 0]) <= {0, 1}


class TestBinning:
    def test_equal_frequency_bins_roughly_balanced(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=10_000)
        edges = equal_frequency_edges(values, 8)
        bins = np.searchsorted(edges, values, side="right")
        counts = np.bincount(bins, minlength=8)
        assert counts.min() > 900 and counts.max() < 1600

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200), st.integers(2, 16))
    def test_binning_is_monotone(self, values, num_bins):
        edges = equal_frequency_edges(np.array(values), num_bins)
        v = np.sort(np.array(values))
        bins = np.searchsorted(edges, v, side="right")
        assert (np.diff(bins) >= 0).all()


def truncated(sessions, budget):
    """The sessions of the train view that make_split keeps of ``sessions``,
    ``(items, positives)`` rows, under ``budget``."""
    view = history(*sessions, ([0], [True]))
    split = make_split(dataset_of(view, [0, len(view)]), "session", 100,
                       max_positive_len=budget)
    return sessions_of(split.users[0].train_sessions)


def listed(*sessions):
    """``(items, positives)`` rows as ``ListSession``s."""
    return sessions_of(history(*sessions))


class TestTruncation:
    def test_budget_larger_than_history_keeps_all(self):
        sessions = [([0, 1], [True, True])]
        assert truncated(sessions, 10) == listed(*sessions)

    def test_cut_splits_a_session_at_item_granularity(self):
        sessions = [([0, 1, 2], [True, True, True]), ([3, 4], [True, True])]
        kept = truncated(sessions, 3)
        assert [s.items for s in kept] == [[2], [3, 4]]

    def test_whole_old_sessions_dropped(self):
        sessions = [([0], [True]), ([1], [True]), ([2], [True])]
        assert truncated(sessions, 2) == listed(*sessions)[1:]

    def test_negatives_ride_along_with_kept_suffix(self):
        sessions = [([0, 1, 2], [False, True, True])]
        kept = truncated(sessions, 1)
        # the cut lands on the last positive; the leading exposure drops out
        assert kept[0].items == [2]

    def test_exact_fit_keeps_leading_exposures_and_nothing_earlier(self):
        sessions = [([5], [False]), ([0, 1, 2], [False, True, True])]
        assert truncated(sessions, 2) == listed(*sessions)[1:]
        assert truncated(sessions, 3) == listed(*sessions)

    def test_row_ranges_are_cut_independently(self):
        view = history(([0, 1, 2, 3], [True, False, True, True]), ([4, 5], [True, True]))
        begins = truncate_to_positive_budget(view, [0, 4], [4, 6], 2)
        assert begins.tolist() == [2, 4]
        with pytest.raises(ValueError, match="max_positives"):
            truncate_to_positive_budget(view, [0], [4], 0)


class TestMakeSplit:
    def build_sequences(self):
        rows = [([u * 10 + k, u * 10 + k + 1, 99], [True, True, False])
                for u in range(3) for k in range(3)]
        return dataset_of(history(*rows), [0, 3, 6, 9])

    def test_session_protocol_definition(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120)
        assert split.protocol == "session"
        user = split.users[0]
        assert user.train_sessions.offsets.tolist() == [0, 3, 6]  # u0's sessions 0 and 1
        assert user.targets == [2, 3]  # positives of session 3, sorted

    def test_item_protocol_definition(self):
        split = make_split(self.build_sequences(), "item", catalog_size=120)
        user = split.users[0]
        # last positive of u0 is item 3 (second row of the third session)
        assert user.targets == [3]
        # u0's sessions 0 and 1, and the first row of session 2
        assert user.train_sessions.offsets.tolist() == [0, 3, 6, 7]
        assert sessions_of(user.train_sessions)[-1].items == [2]

    def test_single_session_user_skipped_with_count(self):
        rows = [(s.items, s.positives) for s in sessions_of(self.build_sequences().sessions)]
        dataset = dataset_of(history(*rows, ([1, 2], [True, True])), [0, 3, 6, 9, 10],
                             ["u0", "u1", "u2", "u9"])
        split = make_split(dataset, "session", catalog_size=120)
        assert split.stats["skipped_users"] == 1
        assert len(split.users) == 3

    def test_max_positive_len_truncates_train_view(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120,
                           max_positive_len=2)
        user = split.users[0]
        assert sum(sum(s.positives) for s in sessions_of(user.train_sessions)) == 2
        assert user.train_sessions.offsets.tolist() == [3, 6]  # u0's session 1

    def test_no_target_session_in_train_view(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120)
        for seq, user in zip(self.build_sequences(), split.users):
            target = sessions_of(seq)[-1]
            assert user.train_sessions.offsets[-1] <= seq.offsets[-2]  # the target's start
            max_train_ts = max(ts for s in sessions_of(user.train_sessions)
                               for ts in s.timestamps)
            assert max_train_ts < min(target.timestamps)

    def test_item_protocol_excludes_target_event(self):
        for seq, user in zip(
            self.build_sequences(),
            make_split(self.build_sequences(), "item", catalog_size=120).users,
        ):
            target = user.targets[0]
            full_count = sum(
                1 for s in sessions_of(seq) for it, p in zip(s.items, s.positives)
                if p and it == target
            )
            train_count = sum(
                1 for s in sessions_of(user.train_sessions)
                for it, p in zip(s.items, s.positives) if p and it == target
            )
            assert train_count == full_count - 1

    def test_item_protocol_view_ends_before_a_session_that_opens_with_exposures(self):
        # u's held-out click 7 follows two exposures; v's click 9 follows a click
        dataset = dataset_of(history(([1, 2], [True, True]), ([3, 4], [False, True]),
                                     ([5, 6, 7], [False, False, True]),
                                     ([1], [True]), ([2, 8, 9], [False, True, True])),
                             [0, 3, 5], ["u", "v"])
        u, v = make_split(dataset, "item", catalog_size=10).users
        assert u.targets == [7] and v.targets == [9]
        assert sessions_of(u.train_sessions) == sessions_of(dataset.sessions[:2])
        assert sessions_of(v.train_sessions)[-1].items == [2, 8]

    def test_item_protocol_needs_two_positives(self):
        dataset = dataset_of(history(([1, 2], [False, True]), ([3], [False])), [0, 1, 2],
                             ["u", "v"])
        split = make_split(dataset, "item", catalog_size=5)
        assert split.users == [] and split.stats["skipped_users"] == 2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            make_split(dataset_of(history(), [0]), "weekly", catalog_size=5)

    def test_stats_session_totals_consistent(self):
        seqs = self.build_sequences()
        stats = compute_stats(seqs, catalog_size=120)
        assert stats["num_sessions"] == sum(len(s) for s in seqs)
        assert stats["avg_session_length"] == pytest.approx(3.0)
        assert stats["avg_positive_length"] == pytest.approx(6.0)


class TestEncoderViews:
    def test_counts_every_session_and_the_model_rejects_a_positive_free_one(self):
        sessions = history(([1, 2], [True, False]), ([3], [False]), ([4], [True]))
        ids, lengths = encoder_views(sessions)
        assert ids.tolist() == [1, 4] and lengths.tolist() == [1, 0, 1]
        model = NextSessionModel(TrainConfig(dim=8), 8, T.Parameters(np.random.default_rng(0)))
        with pytest.raises(ValueError, match=r"lengths \[1, 0, 1\] must be"):
            model.user_vector((ids, lengths))

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_matches_the_list_reference_on_random_users(self, seed):
        views, cases = random_train_views(seed)
        assert all(cases.values()), cases
        for view in views:
            ids, lengths = encoder_views(view)
            assert ids.dtype == lengths.dtype == np.int64
            assert (lengths >= 1).all() and lengths.sum() == ids.size
            want_ids, want_lengths = ragged(reference_encoder_views(sessions_of(view)))
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(lengths, want_lengths)


class TestSessionsSlicing:
    def test_slices_are_views_and_a_step_is_rejected(self):
        s = history(([1], [True]), ([2, 3], [True, True]), ([4], [True]))
        assert len(s[1:]) == 2 and s[1:].offsets.tolist() == [1, 3, 4]
        assert s[1:].item is s.item and s[1:].rows() == slice(1, 4)
        assert s[-1:].offsets.tolist() == [3, 4]
        assert len(s[2:1]) == 0 and s[2:1].offsets.tolist() == [3]
        assert s[::1].offsets.tolist() == [0, 1, 3, 4]
        for step in (2, -1):
            with pytest.raises(ValueError, match="step"):
                s[::step]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        interactions, features = ingest(
            write_csv(tmp_path / "log.csv", dense_corpus_rows())
        )
        sequences, catalog = filter_dataset(interactions, features)
        out = tmp_path / "data"
        save_dataset(str(out), sequences, catalog, max_positive_len=50)
        loaded, catalog2, meta = load_dataset(str(out))
        assert meta["max_positive_len"] == 50
        assert catalog2.item_ids == catalog.item_ids
        assert_same_dataset(loaded, sequences)

    def test_round_trip_preserves_features(self, tmp_path):
        rows = [r + ("red" if i % 2 else "blue",) for i, r in enumerate(dense_corpus_rows())]
        path = write_csv(tmp_path / "log.csv", rows,
                         header="user,item,session,timestamp,action,color")
        interactions, features = ingest(path)
        sequences, catalog = filter_dataset(interactions, features)
        out = tmp_path / "data"
        save_dataset(str(out), sequences, catalog)
        loaded, catalog2, _ = load_dataset(str(out))
        assert catalog2.feature_names == ("color",)
        np.testing.assert_array_equal(catalog2.item_features, catalog.item_features)

    def test_stores_session_row_counts_not_per_row_ids(self, tmp_path):
        sequences, catalog = filter_dataset(*ingest(
            write_csv(tmp_path / "log.csv", dense_corpus_rows())))
        save_dataset(str(tmp_path / "data"), sequences, catalog)
        assert sorted(os.listdir(tmp_path / "data")) == ["interactions.npz", "stats.json"]
        header, arrays = read_dataset_archive(tmp_path / "data")
        assert list(arrays) == list(data.ARRAYS)
        assert sorted(header) == sorted(("format_version",) + data.HEADER_KEYS)
        assert header["format_version"] == 3
        assert header["user_ids"] == ["u0", "u1", "u2"] and header["item_ids"] == ["a", "b", "c"]
        assert arrays["session_rows"].dtype == arrays["user_sessions"].dtype == np.int64
        assert arrays["session_rows"].tolist() == [3] * 9
        assert arrays["user_sessions"].tolist() == [3] * 3

    def test_two_saves_write_identical_archives(self, tmp_path):
        path = random_log(tmp_path / "log.csv", 2)
        sequences, catalog = filter_dataset(*ingest(path))
        save_dataset(str(tmp_path / "a"), sequences, catalog)
        save_dataset(str(tmp_path / "b"), *filter_dataset(*ingest(path)))
        for name in ("interactions.npz", "stats.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_save_removes_the_json_files_of_a_format_2_dataset(self, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        for name in ("meta.json", "users.json", "item_map.json", "notes.json"):
            (out / name).write_text("{}")
        sequences, catalog = filter_dataset(*ingest(
            write_csv(tmp_path / "log.csv", dense_corpus_rows())))
        save_dataset(str(out), sequences, catalog)
        assert sorted(os.listdir(out)) == ["interactions.npz", "notes.json", "stats.json"]
        assert load_dataset(str(out))[0].user_ids == ["u0", "u1", "u2"]

    def test_ids_keep_trailing_nul_characters(self, tmp_path):
        # numpy's fixed-width strings would drop them; the JSON header keeps them
        rows = [(u + "\0", i + "\0", *rest) for u, i, *rest in dense_corpus_rows()]
        sequences, catalog = filter_dataset(*ingest(write_csv(tmp_path / "log.csv", rows)))
        save_dataset(str(tmp_path / "data"), sequences, catalog)
        loaded, catalog2, _ = load_dataset(str(tmp_path / "data"))
        assert loaded.user_ids == ["u0\0", "u1\0", "u2\0"]
        assert catalog2.item_ids == ["a\0", "b\0", "c\0"]


def assert_same_dataset(a, b):
    for name in ("item", "positive", "timestamp", "offsets"):
        np.testing.assert_array_equal(getattr(a.sessions, name), getattr(b.sessions, name))
    np.testing.assert_array_equal(a.user_offsets, b.user_offsets)
    assert a.user_ids == b.user_ids


def prepared(tmp_path, rows=None, header="user,item,session,timestamp,action"):
    """A dataset directory written from ``rows`` (the dense corpus by default)."""
    path = write_csv(tmp_path / "log.csv", rows or dense_corpus_rows(), header)
    out = tmp_path / "data"
    save_dataset(str(out), *filter_dataset(*ingest(path)))
    return out


def damaged(out, edit):
    """Rewrite the archive of the dataset directory ``out`` with
    ``edit(header, arrays)`` applied, and return ``out``."""
    header, arrays = read_dataset_archive(out)
    edit(header, arrays)
    write_dataset_archive(out, header, arrays)
    return out


def refused(out, message):
    """Loading ``out`` fails with one line: its archive's path, then ``message``."""
    with pytest.raises(ValueError) as err:
        load_dataset(str(out))
    assert str(err.value) == f"{out / 'interactions.npz'}: {message}"


class TestCorruptDirectory:
    def test_missing_array_names_file_and_array(self, tmp_path):
        out = damaged(prepared(tmp_path), lambda header, arrays: arrays.pop("item"))
        refused(out, "missing array 'item'")

    @pytest.mark.parametrize("name, damage, message", [
        ("item", lambda a: a + 0.7, "holds float64 values, not integers"),
        ("timestamp", lambda a: a + 0.5, "holds float64 values, not integers"),
        ("positive", lambda a: a.astype(np.int8), "holds int8 values, not booleans"),
    ])
    def test_row_arrays_of_another_kind_refused(self, tmp_path, name, damage, message):
        out = damaged(prepared(tmp_path),
                      lambda header, arrays: arrays.update({name: damage(arrays[name])}))
        refused(out, f"array {name!r} {message}")

    def test_session_without_positive_rows(self, tmp_path):
        def edit(header, arrays):
            arrays["positive"][:arrays["session_rows"][0]] = False

        refused(damaged(prepared(tmp_path), edit), "a session has no positive row")

    @pytest.mark.parametrize("damage, count", [
        ("one-user-short", 3), ("one-user-more", 3), ("negative", 3), ("float", 3),
        ("matrix", 3), ("sum-one-more", None), ("sum-one-less", None),
    ])
    def test_user_sessions_must_count_the_sessions(self, tmp_path, damage, count):
        def edit(header, arrays):
            counts = arrays["user_sessions"]
            if damage == "one-user-short":
                counts = counts[:-1]
            elif damage == "one-user-more":
                counts = np.r_[counts, 0]
            elif damage == "negative":  # the sum still holds
                counts[:2] = [-1, 7]
            elif damage == "float":
                counts = counts.astype(np.float64)
            elif damage == "matrix":
                counts = counts[None]
            else:
                counts[-1] += 1 if damage == "sum-one-more" else -1
            arrays["user_sessions"] = counts

        out = damaged(prepared(tmp_path), edit)
        if count is not None:
            refused(out, f"user_sessions is not one integer session count >= 0 per user "
                         f"of user_ids ({count})")
        else:
            sessions = 10 if damage == "sum-one-more" else 8
            refused(out, f"session_rows is not one integer row count >= 1 per session that "
                         f"user_sessions counts ({sessions}), summing to the 27 rows")

    @pytest.mark.parametrize("damage", ["one-short", "zero-entry", "sum-off-by-one", "float"])
    def test_session_rows_must_count_the_rows(self, tmp_path, damage):
        def edit(header, arrays):
            counts = arrays["session_rows"]
            if damage == "one-short":  # the last two sessions merged: the sum still holds
                counts = np.r_[counts[:-2], counts[-2] + counts[-1]]
            elif damage == "zero-entry":  # session 0 takes session 1's rows
                counts[0], counts[1] = counts[0] + counts[1], 0
            elif damage == "sum-off-by-one":
                counts[-1] += 1
            else:  # the right counts, but not as integers
                counts = counts.astype(np.float64)
            arrays["session_rows"] = counts

        refused(damaged(prepared(tmp_path), edit),
                "session_rows is not one integer row count >= 1 per session that "
                "user_sessions counts (9), summing to the 27 rows")

    def test_format_2_directory_refused(self, tmp_path):
        # format 2 kept the header's entries in JSON files beside an
        # archive of arrays only
        out = prepared(tmp_path)
        header, arrays = read_dataset_archive(out)
        del arrays["user_sessions"]
        np.savez(out / "interactions.npz", **arrays)
        (out / "meta.json").write_text(json.dumps({"format_version": 2}))
        refused(out, "dataset has no header, so is not of format 3; "
                     "re-run prepare-data on the raw log")

    def test_another_format_version_refused(self, tmp_path):
        out = damaged(prepared(tmp_path), lambda header, arrays: header.update(format_version=4))
        refused(out, "dataset format version 4 is not 3; re-run prepare-data on the raw log")

    def test_later_format_without_todays_keys_names_the_remedy(self, tmp_path):
        def edit(header, arrays):
            header.update(format_version=4)
            del header["user_ids"]

        refused(damaged(prepared(tmp_path), edit),
                "dataset format version 4 is not 3; re-run prepare-data on the raw log")

    @pytest.mark.parametrize("key", ("format_version",) + data.HEADER_KEYS)
    def test_header_missing_a_key(self, tmp_path, key):
        out = damaged(prepared(tmp_path), lambda header, arrays: header.pop(key))
        refused(out, f"expected a JSON object with keys "
                     f"{['format_version', *data.HEADER_KEYS]}")

    @pytest.mark.parametrize("raw", [b"[3]", b"not json", b"\xff\xfe"])
    def test_header_not_a_json_object(self, tmp_path, raw):
        out = prepared(tmp_path)
        _, arrays = read_dataset_archive(out)
        np.savez(out / "interactions.npz", header=np.frombuffer(raw, np.uint8), **arrays)
        with pytest.raises(ValueError, match=r"^\S*interactions\.npz: "):
            load_dataset(str(out))

    @pytest.mark.parametrize("key, value", [
        ("user_ids", 7), ("user_ids", "u0"), ("user_ids", {"u0": 0}), ("item_ids", [1, 2, 3]),
        ("item_ids", ["a", None, "c"]), ("feature_names", "color"),
    ])
    def test_ids_of_the_wrong_type(self, tmp_path, key, value):
        out = damaged(prepared(tmp_path), lambda header, arrays: header.update({key: value}))
        refused(out, f"header entry {key!r} is not a list of strings")

    def test_repeated_item_id(self, tmp_path):
        def edit(header, arrays):
            header["item_ids"] = ["a", "c", "c"]

        refused(damaged(prepared(tmp_path), edit), "item id 'c' appears more than once in item_ids")

    @pytest.mark.parametrize("value", ["x", 0, -3, True, 2.5, None, [200]])
    def test_max_positive_len_must_be_a_positive_integer(self, tmp_path, value):
        out = damaged(prepared(tmp_path),
                      lambda header, arrays: header.update(max_positive_len=value))
        refused(out, f"max_positive_len must be an integer >= 1, got {value!r}")

    def test_item_ids_too_few_for_the_items(self, tmp_path):
        def edit(header, arrays):
            header["item_ids"] = ["a", "b"]

        refused(damaged(prepared(tmp_path), edit), "item ids run outside item_ids")

    def test_unequal_array_lengths(self, tmp_path):
        def edit(header, arrays):
            arrays["timestamp"] = arrays["timestamp"][:-1]

        refused(damaged(prepared(tmp_path), edit), "array 'timestamp' is not one value per row")

    @pytest.mark.parametrize("value", [3, 7, -1])
    def test_feature_value_outside_its_vocabulary(self, tmp_path, value):
        colors = {"a": "red", "b": "green", "c": "blue"}
        out = prepared(tmp_path, [r + (colors[r[1]],) for r in dense_corpus_rows()],
                       header="user,item,session,timestamp,action,color")

        def edit(header, arrays):
            arrays["item_features"][1, 0] = value

        refused(damaged(out, edit), "item_features of 'color' run outside [0, 3), "
                                    "the values of its feature_info entry")

    def test_feature_without_feature_info(self, tmp_path):
        out = prepared(tmp_path, [r + ("red",) for r in dense_corpus_rows()],
                       header="user,item,session,timestamp,action,color")
        out = damaged(out, lambda header, arrays: header["feature_info"].pop("color"))
        refused(out, "feature_info does not describe every feature: KeyError 'color'")

    @pytest.mark.parametrize("kind", ["broken-zip", "npy"])
    def test_not_an_archive(self, tmp_path, kind):
        out = prepared(tmp_path)
        if kind == "npy":
            _, arrays = read_dataset_archive(out)
            with open(out / "interactions.npz", "wb") as fh:
                np.save(fh, arrays["item"])
        else:
            (out / "interactions.npz").write_bytes(b"PK\x03\x04 not really a zip")
        with pytest.raises(ValueError, match=r"interactions\.npz: unreadable archive"):
            load_dataset(str(out))


# ---------------------------------------------------------------------------
# the columnar pipeline against the row-object reference (tests/helpers.py)
# ---------------------------------------------------------------------------


def random_log(path, seed):
    """A log with equal timestamps, session ids shared between users,
    sessions interleaved in time and in log order, quoted fields, blank
    lines, a categorical, a binned and a numeric-but-categorical feature."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(int(rng.integers(10, 20))):
        for k in range(int(rng.integers(2, 6))):
            sid = f"s{k}" if rng.random() < 0.5 else f"u{u}-s{k}"
            t0 = int(rng.integers(0, 20))
            for _ in range(int(rng.integers(1, 6))):
                item = f"i{int(rng.zipf(1.3)) % 30}"
                if item.endswith("7"):
                    item = f'i,"{item}"'
                rows.append([f"u{u}", item, sid, t0 + int(rng.integers(0, 3)),
                             str(rng.choice(["click", "exposure", "Purchase", "effective-view"])),
                             str(rng.choice(["red", "green", "blue"])),
                             f"{rng.normal(10, 3):.2f}", str(int(rng.integers(0, 3)))])
    order = rng.permutation(len(rows))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "item", "session", "timestamp", "action",
                         "color", "price", "size"])
        for i in order:
            writer.writerow(rows[i])
            if rng.random() < 0.05:
                fh.write("\r\n")
    return str(path)


def cascade_rows():
    """The dense corpus plus users that the filter removes only over several
    passes: the rare item goes, then user w (5 rows -> 4), then item d
    (5 rows -> 3), then user x (its third session held only d)."""
    rows = dense_corpus_rows()
    for t, (user, item, sid) in enumerate([
        ("w", "a", "w0"), ("w", "rare", "w0"), ("w", "d", "w1"), ("w", "d", "w2"),
        ("w", "a", "w2"), ("x", "d", "x0"), ("x", "a", "x0"), ("x", "d", "x1"),
        ("x", "b", "x1"), ("x", "d", "x2"),
    ]):
        rows.append((user, item, sid, 500 + t, "click"))
    return rows


def assert_matches_reference(log_path, tmp_path, bin_count=16):
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    shutil.rmtree(ours, ignore_errors=True)
    shutil.rmtree(ref, ignore_errors=True)
    save_dataset(str(ours), *filter_dataset(*ingest(log_path), bin_count=bin_count))
    reference_prepare(log_path, str(ref), bin_count=bin_count)
    a, b = dataset_files(ours), dataset_files(ref)
    assert list(a) == list(b)  # the members, in archive order
    for name in a:
        if isinstance(a[name], str):
            assert a[name] == b[name], name
        else:
            assert a[name].dtype == b[name].dtype, name
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_logs(self, tmp_path, seed):
        assert_matches_reference(random_log(tmp_path / "log.csv", seed), tmp_path,
                                 bin_count=4 + seed)

    def test_random_log_parsed_in_small_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_BYTES", 7)
        assert_matches_reference(random_log(tmp_path / "log.csv", 11), tmp_path)

    def test_filter_needing_several_passes(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", cascade_rows())
        assert_matches_reference(path, tmp_path)
        dataset, catalog = filter_dataset(*ingest(path))
        assert dataset.user_ids == ["u0", "u1", "u2"]
        assert catalog.item_ids == ["a", "b", "c"]

    @pytest.mark.parametrize("pattern", synth.PATTERNS)
    def test_synth_patterns(self, tmp_path, pattern):
        kwargs = {} if pattern == "hard-negative-sessions" else {"catalog": 80}
        rows = synth.generate(pattern, num_users=40, num_sessions=6, seed=3, **kwargs)
        synth.write_log(str(tmp_path / "log.csv"), rows)
        assert_matches_reference(str(tmp_path / "log.csv"), tmp_path)

    def test_loads_a_directory_written_by_the_reference(self, tmp_path):
        path = random_log(tmp_path / "log.csv", 5)
        reference_prepare(path, str(tmp_path / "ref"), max_positive_len=7)
        loaded, catalog, meta = load_dataset(str(tmp_path / "ref"))
        dataset, ours = filter_dataset(*ingest(path))
        assert_same_dataset(loaded, dataset)
        assert catalog.item_ids == ours.item_ids and meta["max_positive_len"] == 7
        np.testing.assert_array_equal(catalog.item_features, ours.item_features)
