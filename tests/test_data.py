import csv
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dataset_files,
    history,
    ragged,
    random_train_views,
    reference_encoder_views,
    reference_prepare,
    sessions_of,
)
from nextsession import data, synth
from nextsession.data import (
    Dataset,
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
        monkeypatch.setattr(data, "CHUNK_ROWS", 3)  # lines 5-7 form one block
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


class TestFilterDataset:
    def test_clean_corpus_is_identity(self, tmp_path):
        interactions, features = ingest(write_csv(tmp_path / "log.csv", dense_corpus_rows()))
        sequences, catalog = filter_dataset(interactions, features)
        assert len(sequences) == 3
        assert catalog.num_items == 3
        assert all(len(seq.sessions) == 3 for seq in sequences)
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
        assert [s.user_id for s in sequences] == ["u0", "u1", "u2"]

    def test_all_negative_session_dropped(self, tmp_path):
        rows = dense_corpus_rows()
        t = 1000
        for item in ("a", "b", "c"):
            rows.append(("u0", item, "s0-neg", t, "exposure"))
            t += 1
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", rows))
        sequences, _ = filter_dataset(interactions)
        u0 = next(s for s in sequences if s.user_id == "u0")
        assert u0.sessions.session_ids == ["s0-0", "s0-1", "s0-2"]

    def test_rare_item_dropped(self, tmp_path):
        rows = dense_corpus_rows()
        rows.append(("u0", "rare", "s0-0", 999, "click"))
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", rows))
        _, catalog = filter_dataset(interactions)
        assert "rare" not in catalog.item_map
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
        # re-encode the surviving interactions and filter again: nothing changes
        inv_map = {v: k for k, v in catalog.item_map.items()}
        rows2 = []
        for seq in sequences:
            for sess in sessions_of(seq.sessions):
                for it, pos, ts in zip(sess.items, sess.positives, sess.timestamps):
                    rows2.append(
                        (seq.user_id, inv_map[it], sess.session_id, ts,
                         "click" if pos else "exposure")
                    )
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

    def test_dense_remap_is_contiguous(self, tmp_path):
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", dense_corpus_rows()))
        sequences, catalog = filter_dataset(interactions)
        assert sorted(catalog.item_map.values()) == list(range(catalog.num_items))
        seen = {it for s in sequences for sess in sessions_of(s.sessions) for it in sess.items}
        assert seen == set(range(catalog.num_items))

    def test_sessions_ordered_by_earliest_timestamp(self, tmp_path):
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", dense_corpus_rows()))
        sequences, _ = filter_dataset(interactions)
        for seq in sequences:
            starts = [min(s.timestamps) for s in sessions_of(seq.sessions)]
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


def one_user(sessions):
    """A Dataset of one user, "u", holding the ``Sessions`` view ``sessions``."""
    return Dataset(sessions, np.array([0, len(sessions)]), ["u"])


def truncated(sessions, budget, ids="abc"):
    """The sessions of the train view that make_split keeps of ``sessions``,
    ``(items, positives)`` rows named by ``ids``, under ``budget``."""
    target = ([0], [True])
    dataset = one_user(history(*sessions, target, ids=[*ids[:len(sessions)], "target"]))
    split = make_split(dataset, "session", 100, max_positive_len=budget)
    return sessions_of(split.users[0].train_sessions)


def listed(*sessions, ids="abc"):
    """``(items, positives)`` rows named by ``ids`` as ``ListSession``s."""
    return sessions_of(history(*sessions, ids=ids[:len(sessions)]))


class TestTruncation:
    def test_budget_larger_than_history_keeps_all(self):
        sessions = [([0, 1], [True, True])]
        assert truncated(sessions, 10) == listed(*sessions)

    def test_cut_splits_a_session_at_item_granularity(self):
        sessions = [([0, 1, 2], [True, True, True]), ([3, 4], [True, True])]
        kept = truncated(sessions, 3)
        assert [s.session_id for s in kept] == ["a", "b"]
        assert kept[0].items == [2]
        assert kept[1].items == [3, 4]

    def test_whole_old_sessions_dropped(self):
        sessions = [([0], [True]), ([1], [True]), ([2], [True])]
        kept = truncated(sessions, 2)
        assert [s.session_id for s in kept] == ["b", "c"]

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
        ids = [f"u{u}-s{k}" for u in range(3) for k in range(3)]
        return Dataset(history(*rows, ids=ids), np.array([0, 3, 6, 9]), ["u0", "u1", "u2"])

    def test_session_protocol_definition(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120)
        assert split.protocol == "session"
        user = split.users[0]
        assert user.train_sessions.session_ids == ["u0-s0", "u0-s1"]
        assert user.targets == [2, 3]  # positives of session 3, sorted

    def test_item_protocol_definition(self):
        split = make_split(self.build_sequences(), "item", catalog_size=120)
        user = split.users[0]
        # last positive of u0 is item 3 (second row of the third session)
        assert user.targets == [3]
        assert user.train_sessions.session_ids[-1] == "u0-s2"
        assert sessions_of(user.train_sessions)[-1].items == [2]

    def test_single_session_user_skipped_with_count(self):
        rows = [(s.items, s.positives) for s in sessions_of(self.build_sequences().sessions)]
        dataset = Dataset(history(*rows, ([1, 2], [True, True])), np.array([0, 3, 6, 9, 10]),
                          ["u0", "u1", "u2", "u9"])
        split = make_split(dataset, "session", catalog_size=120)
        assert split.stats["skipped_users"] == 1
        assert len(split.users) == 3

    def test_max_positive_len_truncates_train_view(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120,
                           max_positive_len=2)
        user = split.users[0]
        assert sum(sum(s.positives) for s in sessions_of(user.train_sessions)) == 2
        assert user.train_sessions.session_ids == ["u0-s1"]

    def test_no_target_session_in_train_view(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120)
        for seq, user in zip(self.build_sequences(), split.users):
            target = sessions_of(seq.sessions)[-1]
            assert target.session_id not in user.train_sessions.session_ids
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
                1 for s in sessions_of(seq.sessions) for it, p in zip(s.items, s.positives)
                if p and it == target
            )
            train_count = sum(
                1 for s in sessions_of(user.train_sessions)
                for it, p in zip(s.items, s.positives) if p and it == target
            )
            assert train_count == full_count - 1

    def test_item_protocol_needs_two_positives(self):
        dataset = Dataset(history(([1, 2], [False, True]), ([3], [False])),
                          np.array([0, 1, 2]), ["u", "v"])
        split = make_split(dataset, "item", catalog_size=5)
        assert split.users == [] and split.stats["skipped_users"] == 2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            make_split(Dataset(history(), np.array([0]), []), "weekly", catalog_size=5)

    def test_stats_session_totals_consistent(self):
        seqs = self.build_sequences()
        stats = compute_stats(seqs, catalog_size=120)
        assert stats["num_sessions"] == sum(len(s.sessions) for s in seqs)
        assert stats["avg_session_length"] == pytest.approx(3.0)
        assert stats["avg_positive_length"] == pytest.approx(6.0)


class TestEncoderViews:
    def test_skips_positive_free_sessions(self):
        sessions = history(([1, 2], [True, False]), ([3], [False]), ([4], [True]))
        ids, lengths = encoder_views(sessions)
        assert ids.tolist() == [1, 4] and lengths.tolist() == [1, 1]

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
        s = history(([1], [True]), ([2], [True]), ([3], [True]), ids="abc")
        assert s[1:].session_ids == ["b", "c"] and s[1:].item is s.item
        assert s[-1:].offsets.tolist() == [2, 3]
        assert len(s[2:1]) == 0 and s[2:1].offsets.tolist() == [2]
        assert s[::1].session_ids == ["a", "b", "c"]
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
        assert catalog2.item_map == catalog.item_map
        assert len(loaded) == len(sequences)
        for a, b in zip(loaded, sequences):
            assert a.user_id == b.user_id
            assert sessions_of(a.sessions) == sessions_of(b.sessions)

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

    def test_legacy_per_interaction_features_ignored(self, tmp_path):
        rows = [r + ("red" if i % 2 else "blue",) for i, r in enumerate(dense_corpus_rows())]
        path = write_csv(tmp_path / "log.csv", rows,
                         header="user,item,session,timestamp,action,color")
        sequences, catalog = filter_dataset(*ingest(path))
        out = tmp_path / "data"
        save_dataset(str(out), sequences, catalog)
        npz = out / "interactions.npz"
        arrays = dict(np.load(npz))
        assert "features" not in arrays
        # earlier versions also stored one feature id row per interaction
        arrays["features"] = np.ones((len(arrays["item"]), 1), dtype=np.int32)
        np.savez(npz, **arrays)
        loaded, catalog2, _ = load_dataset(str(out))
        assert_same_dataset(loaded, sequences)
        np.testing.assert_array_equal(catalog2.item_features, catalog.item_features)


def assert_same_dataset(a, b):
    for name in ("item", "positive", "timestamp", "offsets"):
        np.testing.assert_array_equal(getattr(a.sessions, name), getattr(b.sessions, name))
    assert a.sessions.session_ids == b.sessions.session_ids
    np.testing.assert_array_equal(a.user_offsets, b.user_offsets)
    assert a.user_ids == b.user_ids


def prepared(tmp_path, rows=None):
    """A dataset directory written from ``rows`` (the dense corpus by default)."""
    path = write_csv(tmp_path / "log.csv", rows or dense_corpus_rows())
    out = tmp_path / "data"
    save_dataset(str(out), *filter_dataset(*ingest(path)))
    return out


class TestCorruptDirectory:
    def test_missing_array_names_file_and_array(self, tmp_path):
        out = prepared(tmp_path)
        arrays = dict(np.load(out / "interactions.npz"))
        del arrays["item"]
        np.savez(out / "interactions.npz", **arrays)
        with pytest.raises(ValueError, match=r"interactions\.npz: missing array 'item'"):
            load_dataset(str(out))

    def test_users_json_one_user_short(self, tmp_path):
        out = prepared(tmp_path)
        blob = json.loads((out / "users.json").read_text())
        blob["users"].pop()
        blob["session_ids"].pop()
        (out / "users.json").write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=r"user_idx names a user that .*users\.json"):
            load_dataset(str(out))

    def test_session_without_rows(self, tmp_path):
        out = prepared(tmp_path)
        blob = json.loads((out / "users.json").read_text())
        blob["session_ids"][0].append("ghost")
        (out / "users.json").write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="has no rows"):
            load_dataset(str(out))

    def test_offsets_must_cover_the_rows(self, tmp_path):
        out = prepared(tmp_path)
        arrays = dict(np.load(out / "interactions.npz"))
        arrays["session_ord"][-1] = 7  # the last user has 3 sessions
        np.savez(out / "interactions.npz", **arrays)
        with pytest.raises(ValueError, match="session offsets do not cover the rows"):
            load_dataset(str(out))

    def test_unequal_array_lengths(self, tmp_path):
        out = prepared(tmp_path)
        arrays = dict(np.load(out / "interactions.npz"))
        arrays["timestamp"] = arrays["timestamp"][:-1]
        np.savez(out / "interactions.npz", **arrays)
        with pytest.raises(ValueError, match="'timestamp' is not one value per row"):
            load_dataset(str(out))

    def test_not_an_archive(self, tmp_path):
        out = prepared(tmp_path)
        (out / "interactions.npz").write_bytes(b"PK\x03\x04 not really a zip")
        with pytest.raises(ValueError, match=r"interactions\.npz"):
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
    assert a.keys() == b.keys()
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
        monkeypatch.setattr(data, "CHUNK_ROWS", 7)
        assert_matches_reference(random_log(tmp_path / "log.csv", 11), tmp_path)

    def test_filter_needing_several_passes(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", cascade_rows())
        assert_matches_reference(path, tmp_path)
        dataset, catalog = filter_dataset(*ingest(path))
        assert dataset.user_ids == ["u0", "u1", "u2"]
        assert sorted(catalog.item_map) == ["a", "b", "c"]

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
        assert catalog.item_map == ours.item_map and meta["max_positive_len"] == 7
        np.testing.assert_array_equal(catalog.item_features, ours.item_features)
