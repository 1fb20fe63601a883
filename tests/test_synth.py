import numpy as np
import pytest

from nextsession import synth
from nextsession.data import filter_dataset, ingest


def ingest_rows(tmp_path, rows):
    path = tmp_path / "log.csv"
    synth.write_log(str(path), rows)
    return ingest(str(path))


class TestGenerators:
    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            synth.generate("weekly-top")

    def test_rows_have_expected_shape(self):
        rows = synth.copy_last_session(num_users=3, num_sessions=4, catalog=20, seed=1)
        assert len(rows) == 3 * 4 * 6
        user, item, session, ts, action = rows[0]
        assert user.startswith("u") and item.startswith("i")
        assert action in ("click", "exposure")

    def test_timestamps_session_major(self):
        rows = synth.copy_last_session(num_users=3, num_sessions=3, catalog=20, seed=0)
        by_session = {}
        for user, _, session, ts, _ in rows:
            by_session.setdefault(session, []).append(ts)
        # every first-session timestamp precedes every second-session timestamp
        firsts = [max(v) for k, v in by_session.items() if k.endswith("s000")]
        seconds = [min(v) for k, v in by_session.items() if k.endswith("s001")]
        assert max(firsts) < min(seconds)

    def test_copy_last_session_repeats_signature(self):
        rows = synth.copy_last_session(num_users=2, num_sessions=5, catalog=50, seed=3)
        per_user_session_pos = {}
        for user, item, session, _, action in rows:
            if action == "click":
                per_user_session_pos.setdefault(user, {}).setdefault(session, set()).add(item)
        for user, sessions in per_user_session_pos.items():
            signatures = list(sessions.values())
            assert all(sig == signatures[0] for sig in signatures)

    def test_determinism(self):
        a = synth.copy_last_session(num_users=4, num_sessions=3, catalog=30, seed=9)
        b = synth.copy_last_session(num_users=4, num_sessions=3, catalog=30, seed=9)
        assert a == b
        c = synth.copy_last_session(num_users=4, num_sessions=3, catalog=30, seed=10)
        assert a != c

    def test_rotate_catalog_advances(self):
        rows = synth.rotate_catalog(num_users=1, num_sessions=3, catalog=100,
                                    positives_per_session=2, exposures_per_session=0,
                                    seed=0)
        items = [int(item[1:]) for _, item, _, _, action in rows if action == "click"]
        # consecutive sessions are shifted by positives_per_session
        assert items[2] == (items[0] + 2) % 100
        assert items[4] == (items[0] + 4) % 100

    def test_hard_negative_twins_share_and_cross_expose(self):
        rows = synth.hard_negative_sessions(
            num_users=8, num_sessions=20, shared_items=4, private_items=3,
            twin_exposures=2, self_exposure_rate=0.0, seed=2,
        )
        pos_by_user, neg_by_user = {}, {}
        for user, item, _, _, action in rows:
            target = pos_by_user if action == "click" else neg_by_user
            target.setdefault(user, set()).add(int(item[1:]))
        for u in range(0, 8, 2):
            a, b = f"u{u:05d}", f"u{u + 1:05d}"
            shared = pos_by_user[a] & pos_by_user[b]
            own_a = pos_by_user[a] - shared
            own_b = pos_by_user[b] - shared
            # with self exposures off, every exposure is a twin-private item
            assert neg_by_user[a] <= own_b
            assert neg_by_user[b] <= own_a
            # pools of different pairs never overlap
            for v in range(0, 8, 2):
                if v != u:
                    assert not (pos_by_user[a] | pos_by_user[b]) & pos_by_user[f"u{v:05d}"]

    def test_hard_negative_self_exposures_hit_own_pool(self):
        rows = synth.hard_negative_sessions(
            num_users=2, num_sessions=50, shared_items=6, private_items=3,
            twin_exposures=1, self_exposure_rate=1.0, seed=0,
        )
        pos_by_user, by_session = {}, {}
        for user, item, session, _, action in rows:
            if action == "click":
                pos_by_user.setdefault(user, set()).add(item)
                by_session.setdefault(session, [set(), set()])[0].add(item)
            else:
                by_session.setdefault(session, [set(), set()])[1].add(item)
        for session, (clicked, exposed) in by_session.items():
            user = session.split("-")[0]
            own = exposed & pos_by_user[user]
            assert len(own) == 1          # rate 1.0 -> exactly one self exposure
            assert not own & clicked      # never the item clicked this session

    def test_hard_negative_rejects_odd_users(self):
        with pytest.raises(ValueError, match="even"):
            synth.hard_negative_sessions(num_users=7)

    def test_hard_negative_rejects_bad_coverage(self):
        with pytest.raises(ValueError, match="twin_exposures"):
            synth.hard_negative_sessions(twin_exposures=5, private_items=3)


class TestPipelineCompatibility:
    @pytest.mark.parametrize("pattern", synth.PATTERNS)
    def test_patterns_survive_filtering(self, tmp_path, pattern):
        kwargs = dict(num_users=20, num_sessions=6, seed=5)
        if pattern != "hard-negative-sessions":
            kwargs["catalog"] = 60
        rows = synth.generate(pattern, **kwargs)
        interactions, features = ingest_rows(tmp_path, rows)
        sequences, catalog = filter_dataset(interactions, features)
        assert len(sequences) == 20
        assert catalog.num_items > 0
        for seq in sequences:
            assert len(seq) >= 3
            assert (seq.positive_counts() >= 1).all()

    def test_copy_last_session_keeps_most_of_catalog(self, tmp_path):
        rows = synth.copy_last_session(num_users=100, num_sessions=8, catalog=200, seed=0)
        interactions, _ = ingest_rows(tmp_path, rows)
        _, catalog = filter_dataset(interactions)
        assert catalog.num_items >= 180
