import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextsession.data import (
    Session,
    SessionizedSequence,
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
        interactions, features = ingest(path)
        assert len(interactions) == 3
        assert features == ()
        assert [r.positive for r in interactions] == [True, False, True]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        interactions, features = ingest(str(path))
        assert interactions == []

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", [])
        assert ingest(path)[0] == []

    def test_rows_sorted_by_user_then_time(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            [
                ("u2", "i1", "s1", 50, "click"),
                ("u1", "i2", "s1", 99, "click"),
                ("u1", "i3", "s1", 10, "click"),
            ],
        )
        interactions, _ = ingest(path)
        assert [(r.user, r.timestamp) for r in interactions] == [
            ("u1", 10), ("u1", 99), ("u2", 50),
        ]

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
        interactions, _ = ingest(path)
        assert interactions[0].positive

    def test_extra_columns_become_features(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            [("u1", "i1", "s1", 1, "click", "sports", "3.5")],
            header="user,item,session,timestamp,action,topic,price",
        )
        interactions, features = ingest(path)
        assert features == ("topic", "price")
        assert interactions[0].features == ("sports", "3.5")


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
        assert [s.session_id for s in u0.sessions] == ["s0-0", "s0-1", "s0-2"]

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
            for sess in seq.sessions:
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
        seen = {it for s in sequences for sess in s.sessions for it in sess.items}
        assert seen == set(range(catalog.num_items))

    def test_sessions_ordered_by_earliest_timestamp(self, tmp_path):
        interactions, _ = ingest(write_csv(tmp_path / "log.csv", dense_corpus_rows()))
        sequences, _ = filter_dataset(interactions)
        for seq in sequences:
            starts = [min(s.timestamps) for s in seq.sessions]
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


def make_session(sid, items, positives, t0=0):
    return Session(
        session_id=sid,
        items=list(items),
        positives=list(positives),
        timestamps=list(range(t0, t0 + len(items))),
    )


class TestTruncation:
    def test_budget_larger_than_history_keeps_all(self):
        sessions = [make_session("a", [0, 1], [True, True])]
        assert truncate_to_positive_budget(sessions, 10) == sessions

    def test_cut_splits_a_session_at_item_granularity(self):
        sessions = [
            make_session("a", [0, 1, 2], [True, True, True], t0=0),
            make_session("b", [3, 4], [True, True], t0=10),
        ]
        kept = truncate_to_positive_budget(sessions, 3)
        assert [s.session_id for s in kept] == ["a", "b"]
        assert kept[0].items == [2]
        assert kept[1].items == [3, 4]

    def test_whole_old_sessions_dropped(self):
        sessions = [
            make_session("a", [0], [True]),
            make_session("b", [1], [True], t0=5),
            make_session("c", [2], [True], t0=9),
        ]
        kept = truncate_to_positive_budget(sessions, 2)
        assert [s.session_id for s in kept] == ["b", "c"]

    def test_negatives_ride_along_with_kept_suffix(self):
        sessions = [
            make_session("a", [0, 1, 2], [False, True, True]),
        ]
        kept = truncate_to_positive_budget(sessions, 1)
        # the cut lands on the last positive; the leading exposure drops out
        assert kept[0].items == [2]


class TestMakeSplit:
    def build_sequences(self):
        seqs = []
        for u in range(3):
            sessions = [
                make_session(f"u{u}-s{k}", [u * 10 + k, u * 10 + k + 1, 99],
                             [True, True, False], t0=k * 100)
                for k in range(3)
            ]
            seqs.append(SessionizedSequence(user_id=f"u{u}", sessions=sessions))
        return seqs

    def test_session_protocol_definition(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120)
        assert split.protocol == "session"
        user = split.users[0]
        assert [s.session_id for s in user.train_sessions] == ["u0-s0", "u0-s1"]
        assert user.targets == [2, 3]  # positives of session 3, sorted

    def test_item_protocol_definition(self):
        split = make_split(self.build_sequences(), "item", catalog_size=120)
        user = split.users[0]
        # last positive of u0 is item 3 (second row of the third session)
        assert user.targets == [3]
        assert [s.session_id for s in user.train_sessions][-1] == "u0-s2"
        assert user.train_sessions[-1].items == [2]

    def test_single_session_user_skipped_with_count(self):
        seqs = self.build_sequences()
        seqs.append(
            SessionizedSequence(
                user_id="u9",
                sessions=[make_session("u9-s0", [1, 2], [True, True])],
            )
        )
        split = make_split(seqs, "session", catalog_size=120)
        assert split.stats["skipped_users"] == 1
        assert len(split.users) == 3

    def test_max_positive_len_truncates_train_view(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120,
                           max_positive_len=2)
        user = split.users[0]
        assert sum(s.num_positives() for s in user.train_sessions) == 2
        assert [s.session_id for s in user.train_sessions] == ["u0-s1"]

    def test_no_target_session_in_train_view(self):
        split = make_split(self.build_sequences(), "session", catalog_size=120)
        for seq, user in zip(self.build_sequences(), split.users):
            target_sid = seq.sessions[-1].session_id
            train_sids = [s.session_id for s in user.train_sessions]
            assert target_sid not in train_sids
            max_train_ts = max(ts for s in user.train_sessions for ts in s.timestamps)
            assert max_train_ts < min(seq.sessions[-1].timestamps)

    def test_item_protocol_excludes_target_event(self):
        for seq, user in zip(
            self.build_sequences(),
            make_split(self.build_sequences(), "item", catalog_size=120).users,
        ):
            target = user.targets[0]
            full_count = sum(
                1 for s in seq.sessions for it, p in zip(s.items, s.positives)
                if p and it == target
            )
            train_count = sum(
                1 for s in user.train_sessions
                for it, p in zip(s.items, s.positives) if p and it == target
            )
            assert train_count == full_count - 1

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            make_split([], "weekly", catalog_size=5)

    def test_stats_session_totals_consistent(self):
        seqs = self.build_sequences()
        stats = compute_stats(seqs, catalog_size=120)
        assert stats["num_sessions"] == sum(len(s.sessions) for s in seqs)
        assert stats["avg_session_length"] == pytest.approx(3.0)
        assert stats["avg_positive_length"] == pytest.approx(6.0)


class TestEncoderViews:
    def test_skips_positive_free_sessions(self):
        sessions = [
            make_session("a", [1, 2], [True, False]),
            make_session("b", [3], [False]),
            make_session("c", [4], [True]),
        ]
        assert encoder_views(sessions) == [[1], [4]]


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
            assert len(a.sessions) == len(b.sessions)
            for sa, sb in zip(a.sessions, b.sessions):
                assert sa.session_id == sb.session_id
                assert sa.items == sb.items
                assert sa.positives == sb.positives
                assert sa.timestamps == sb.timestamps

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
        assert loaded == sequences
        np.testing.assert_array_equal(catalog2.item_features, catalog.item_features)
