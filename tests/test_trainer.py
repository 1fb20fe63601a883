import dataclasses
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nextsession.tensor as T
import nextsession.trainer as trainer_mod
from nextsession.data import Catalog, DatasetSplit, UserSplit, make_split
from nextsession.evaluator import evaluate
from nextsession.model import NextSessionModel
from nextsession.objective import LossConfig
from nextsession.sequence_encoder import SseConfig
from nextsession.session_encoder import IseConfig
from helpers import (FILE_DAMAGE, TENSOR_DAMAGE, broken_checkpoint, damaged_checkpoint,
                     dataset_of, history, ragged, sessions_of)
from nextsession.trainer import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)


def toy_split(num_users=12, num_sessions=4, catalog=24, extras_per_session=1):
    """Each user repeats one signature item every session; highly learnable."""
    rng = np.random.default_rng(100)
    users = []
    for u in range(num_users):
        sig = u % catalog
        sessions = []
        for s in range(num_sessions):
            items = [sig]
            positives = [True]
            for _ in range(extras_per_session):
                items.append(int(rng.integers(catalog)))
                positives.append(True)
            ts = [s * 100 + j for j in range(len(items))]
            sessions.append((items, positives, ts))
        users.append(UserSplit(user_id=f"u{u}", train_sessions=history(*sessions),
                               targets=[sig]))
    return DatasetSplit(protocol="session", users=users, catalog_size=catalog,
                        stats={"num_users": num_users})


def exposures_first_dataset(drop_last_exposures, num_users=8, num_sessions=4, catalog=10):
    """Users whose every session is two exposures and then one click, so
    the item protocol's held-out click is its session's first positive.
    With ``drop_last_exposures`` the exposures of each user's last session
    are left out; every other row is the same."""
    rng = np.random.default_rng(21)
    rows, user_offsets = [], [0]
    for u in range(num_users):
        for s in range(num_sessions):
            items = rng.integers(0, catalog, 2).tolist() + [(u + s % 2) % catalog]
            row = (items, [False, False, True], [s * 10, s * 10 + 1, s * 10 + 2])
            keep = slice(2 if drop_last_exposures and s == num_sessions - 1 else 0, 3)
            rows.append(tuple(column[keep] for column in row))
        user_offsets.append(len(rows))
    return dataset_of(history(*rows), user_offsets)


def small_config(**overrides):
    base = dict(
        batch_size=8,
        learning_rate=0.05,
        epochs=2,
        dropout=0.0,
        seed=3,
        dim=8,
        val_interval=1,
        val_k=10,
        loss=LossConfig(alpha=0.2, num_sampled_negatives=8),
        ise=IseConfig(kind="mean"),
        sse=SseConfig(backbone="causal_attention", layers=1, heads=2, max_positions=16),
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = small_config(epochs=7, id_dim=4)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_unknown_top_level_key(self):
        blob = config_to_dict(small_config())
        blob["momentum"] = 0.9
        with pytest.raises(ValueError, match="momentum"):
            config_from_dict(blob)

    def test_unknown_nested_key(self):
        blob = config_to_dict(small_config())
        blob["loss"]["temperature"] = 2.0
        with pytest.raises(ValueError, match="temperature"):
            config_from_dict(blob)

    def test_hash_ignores_key_order(self):
        cfg = small_config()
        blob = config_to_dict(cfg)
        reordered = json.loads(json.dumps(blob, sort_keys=True))
        reordered = dict(reversed(list(reordered.items())))
        assert config_hash(config_from_dict(reordered)) == config_hash(cfg)

    def test_hash_sensitive_to_values(self):
        assert config_hash(small_config(seed=1)) != config_hash(small_config(seed=2))

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(batch_size=0)
        with pytest.raises(ValueError):
            small_config(learning_rate=0.0)
        blob = config_to_dict(small_config())
        blob["optimizer"] = "sgd"
        with pytest.raises(ValueError, match="'optimizer'"):
            config_from_dict(blob)

    @pytest.mark.parametrize("field, value", [("dim", 0), ("val_k", 0),
                                              ("learning_rate", float("nan")),
                                              ("learning_rate", float("inf")),
                                              ("id_dim", 0), ("id_dim", -2),
                                              ("feature_dim", 0),
                                              ("val_interval", -1), ("sse.layers", -1),
                                              ("sse.max_positions", 0), ("ise.layers", -1)])
    def test_values_that_cannot_train_a_model_rejected(self, field, value):
        blob = config_to_dict(small_config())
        group, _, key = field.rpartition(".")
        (blob[group] if group else blob)[key] = value
        with pytest.raises(ValueError, match=f"{re.escape(field)}.* must be"):
            config_from_dict(blob)

    def test_infinite_learning_rate_is_one_line(self):
        with pytest.raises(ValueError) as exc:
            small_config(learning_rate=float("inf"))
        assert str(exc.value) == "learning_rate must be a positive finite number, got inf"

    def test_null_id_dim_uses_dim(self):
        cfg = config_from_dict({**config_to_dict(small_config()), "id_dim": None})
        assert cfg.id_dim is None
        model = NextSessionModel(cfg, 5, T.Parameters(np.random.default_rng(0)))
        assert model.embedding.item_table.shape == (5, cfg.dim)

    @pytest.mark.parametrize("field, value", [("optimizer", "adam"),
                                              ("loss.sampling", "uniform"),
                                              ("sse.dropout", 0.2)])
    def test_keys_of_earlier_configs_are_unknown(self, field, value):
        blob = config_to_dict(small_config())
        group, _, key = field.rpartition(".")
        (blob[group] if group else blob)[key] = value
        with pytest.raises(ValueError, match=f"unknown config key {re.escape(repr(field))}"):
            config_from_dict(blob)

    @pytest.mark.parametrize("blob", [[1, 2], "dim", None])
    def test_non_mapping_rejected(self, blob):
        with pytest.raises(ValueError, match="config must be a mapping"):
            config_from_dict(blob)


def gather_step(opt, table, rows, weight=1.0):
    """One zero_grad -> gather of ``rows`` -> backward -> step round."""
    opt.zero_grad()
    T.sum_all(T.mul(T.gather(table, rows), weight)).backward()
    opt.step()


def reference_adam(data, grads, lr):
    """Standard Adam over every entry, after each dense gradient in turn."""
    m, v = np.zeros_like(data), np.zeros_like(data)
    for t, g in enumerate(grads, start=1):
        m = Adam.B1 * m + (1.0 - Adam.B1) * g
        v = Adam.B2 * v + (1.0 - Adam.B2) * g * g
        data = data - lr * (m / (1.0 - Adam.B1 ** t)) / (np.sqrt(v / (1.0 - Adam.B2 ** t))
                                                          + Adam.EPS)
    return data, m, v


class TestAdam:
    def test_lazy_rows_untouched(self):
        table = T.parameter(np.ones((4, 2)))
        opt = Adam({"table": table}, lr=0.1)
        gather_step(opt, table, [2, 0, 2], np.array([[-1.0], [1.0], [-1.0]]))
        np.testing.assert_array_equal(table.data[1], [1.0, 1.0])
        np.testing.assert_array_equal(table.data[3], [1.0, 1.0])
        np.testing.assert_array_equal(opt.m["table"][1], 0.0)
        np.testing.assert_array_equal(opt.v["table"][3], 0.0)
        # first Adam step moves touched coordinates by ~lr against the gradient
        np.testing.assert_allclose(table.data[0], 1.0 - 0.1, rtol=1e-5)
        np.testing.assert_allclose(table.data[2], 1.0 + 0.1, rtol=1e-5)

    def test_untouched_rows_keep_value_and_moments_over_rounds(self):
        table = T.parameter(np.random.default_rng(0).normal(size=(6, 3)))
        opt = Adam({"table": table}, lr=0.1)
        for rows in ([1, 2], [2, 3, 3], [0, 3], [4]):
            before = [a.copy() for a in (table.data, opt.m["table"], opt.v["table"])]
            gather_step(opt, table, rows, np.array([[0.5], [-2.0], [1.5]])[: len(rows)])
            untouched = np.setdiff1d(np.arange(6), rows)
            for now, was in zip((table.data, opt.m["table"], opt.v["table"]), before):
                np.testing.assert_array_equal(now[untouched], was[untouched])
                assert not np.array_equal(now[rows], was[rows])
        np.testing.assert_array_equal(opt.m["table"][5], 0.0)  # never gathered

    def test_dense_zero_gradient_entry_decays_moments_and_moves(self):
        w = T.parameter(np.ones(3))
        opt = Adam({"w": w}, lr=0.1)
        grads = [np.array([1.0, 1.0, -1.0], np.float32), np.array([1.0, 0.0, -1.0], np.float32)]
        for g in grads:
            opt.zero_grad()
            w.grad = g.copy()
            before = [a[1].copy() for a in (w.data, opt.m["w"], opt.v["w"])]
            opt.step()
        # at step 2 the zero-gradient entry moves, and both moments decay
        assert w.data[1] < before[0]
        assert 0 < opt.m["w"][1] < before[1] and 0 < opt.v["w"][1] < before[2]
        data, m, v = reference_adam(np.ones(3, np.float32), grads, 0.1)
        np.testing.assert_allclose(w.data, data, rtol=1e-6)
        np.testing.assert_allclose(opt.m["w"], m, rtol=1e-6)
        np.testing.assert_allclose(opt.v["w"], v, rtol=1e-6)

    @pytest.mark.parametrize("gather_first", [True, False])
    def test_gathered_and_dense_gradient_takes_the_dense_update(self, gather_first):
        table = T.parameter(np.ones((3, 2)))
        opt = Adam({"table": table}, lr=0.1)
        table.grad = np.ones((3, 2), dtype=np.float32)  # every moment nonzero
        opt.step()
        start = table.data.copy()
        opt.zero_grad()
        # row 0 gathered; row 1 a dense gradient; row 2 an exactly-zero one;
        # the op made last is the first to write in backward
        scale = np.array([[0.0], [1.0], [0.0]])
        if gather_first:
            gathered, dense = T.gather(table, [0]), T.mul(table, scale)
        else:
            dense, gathered = T.mul(table, scale), T.gather(table, [0])
        T.add(T.sum_all(gathered), T.sum_all(dense)).backward()
        assert table.rows is None
        opt.step()
        grad = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]], np.float32)
        data, m, v = reference_adam(np.ones((3, 2), np.float32),
                                    [np.ones((3, 2), np.float32), grad], 0.1)
        np.testing.assert_allclose(table.data, data, rtol=1e-6)
        np.testing.assert_allclose(opt.m["table"], m, rtol=1e-6)
        assert (table.data[2] != start[2]).all()

    @pytest.mark.parametrize("gathers", [[[2, 0, 2], [5, 0]], [[1, 3, 4]], [[3]]],
                             ids=["repeated", "sorted", "single-row"])
    def test_row_mask_updates_the_rows_np_unique_gives(self, gathers):
        data = np.random.default_rng(1).normal(size=(6, 3)).astype(np.float32)
        table = T.parameter(data.copy())
        opt = Adam({"table": table}, lr=0.1)
        for _ in range(2):  # each step gathers the same rows, so takes the same gradient
            opt.zero_grad()
            for rows in gathers:  # one backward per gather: ``rows`` records each
                T.sum_all(T.gather(table, rows)).backward()
            grad = table.grad.copy()
            opt.step()
        # the two steps' update, at np.unique of the gathered rows
        at = np.unique(np.concatenate(gathers))
        m, v = np.zeros_like(data), np.zeros_like(data)
        for t in (1, 2):
            m[at] = Adam.B1 * m[at] + (1.0 - Adam.B1) * grad[at]
            v[at] = Adam.B2 * v[at] + (1.0 - Adam.B2) * grad[at] * grad[at]
            data[at] -= 0.1 * (m[at] / (1.0 - Adam.B1 ** t)) / (
                np.sqrt(v[at] / (1.0 - Adam.B2 ** t)) + Adam.EPS)
        np.testing.assert_array_equal(table.data, data)
        np.testing.assert_array_equal(opt.m["table"], m)
        np.testing.assert_array_equal(opt.v["table"], v)

    def test_step_makes_no_table_sized_array(self):
        # one step after a gather of 100 of 200,000 rows; a bool mask over
        # every entry of the table would be 6.4 MB, one over its rows 200 kB
        n, d = 200_000, 32
        table = T.parameter(np.zeros((n, d), dtype=np.float32))
        opt = Adam({"table": table}, lr=0.1)
        rows = np.random.default_rng(0).integers(0, n, size=100)
        gather_step(opt, table, rows)  # the first call imports what np.unique needs
        opt.zero_grad()
        T.sum_all(T.gather(table, rows)).backward()
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d // 16, peak
        assert np.count_nonzero(table.data.any(axis=1)) == np.unique(rows).size

    def test_none_grad_is_a_no_op_for_values(self):
        table = T.parameter(np.ones((2, 2)))
        opt = Adam({"table": table}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(table.data, np.ones((2, 2)))
        assert opt.t == 1  # step count is global even if nothing moved

    def test_zero_grad_resets(self):
        table = T.parameter(np.ones((2, 2)))
        opt = Adam({"table": table}, lr=0.1)
        table.grad = np.ones((2, 2), dtype=np.float32)
        opt.zero_grad()
        assert table.grad is None


class TestTrain:
    def test_history_shape_and_keys(self):
        result = train(toy_split(), small_config(epochs=2))
        assert len(result.history) == 2
        for entry in result.history:
            assert {"epoch", "train_total_mean", "train_retrieval_mean",
                    "train_rank_mean", "val_recall"} <= set(entry)
        assert result.best_metric == max(e["val_recall"] for e in result.history)

    def test_loss_decreases_on_learnable_data(self):
        result = train(toy_split(), small_config(epochs=6))
        first = result.history[0]["train_total_mean"]
        last = result.history[-1]["train_total_mean"]
        assert last < first

    def test_same_seed_is_bitwise_deterministic(self):
        a = train(toy_split(), small_config(epochs=2))
        b = train(toy_split(), small_config(epochs=2))
        assert a.history == b.history
        pa, pb = a.model.parameters(), b.model.parameters()
        assert sorted(pa) == sorted(pb)
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)

    def test_different_seeds_differ(self):
        a = train(toy_split(), small_config(epochs=1, seed=0))
        b = train(toy_split(), small_config(epochs=1, seed=1))
        assert a.history != b.history

    def test_log_fn_called_per_epoch(self):
        seen = []
        train(toy_split(), small_config(epochs=3), log_fn=seen.append)
        assert [e["epoch"] for e in seen] == [0, 1, 2]

    def test_item_protocol_ignores_the_exposures_before_the_held_out_click(self):
        full, trimmed = (make_split(exposures_first_dataset(drop), "item", catalog_size=10)
                         for drop in (False, True))
        assert len(full.users) == len(trimmed.users) == 8
        for a, b in zip(full.users, trimmed.users):
            # the view ends at the session before the held-out click's
            assert len(a.train_sessions) == 3
            assert sessions_of(a.train_sessions) == sessions_of(b.train_sessions)
            assert a.targets == b.targets
        got, want = (train(split, small_config(epochs=2)) for split in (full, trimmed))
        assert got.history == want.history
        assert (evaluate(got.model, full, cutoffs=(1, 5)).to_json()
                == evaluate(want.model, trimmed, cutoffs=(1, 5)).to_json())

    def test_no_trainable_users_rejected(self):
        split = toy_split()
        for user in split.users:
            user.train_sessions = user.train_sessions[:1]
        with pytest.raises(ValueError, match="trainable"):
            train(split, small_config(epochs=1))

    def test_divergence_aborts_with_diagnostics(self, monkeypatch):
        real = trainer_mod.total_loss

        def poisoned(outputs, targets, embedding, cfg):
            values = real(outputs, targets, embedding, cfg)
            return dataclasses.replace(values, total=T.mul(values.total, float("nan")))

        monkeypatch.setattr(trainer_mod, "total_loss", poisoned)
        with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 0"):
            train(toy_split(), small_config(epochs=1))
        try:
            train(toy_split(), small_config(epochs=1))
        except TrainingDiverged as e:
            assert "parameter norm" in str(e)
            # every gradient is NaN; the first name in sorted order is reported
            assert "first non-finite gradient in emb.fuse_b1" in str(e)

    def test_divergence_without_a_nonfinite_gradient_says_so(self, monkeypatch):
        real = trainer_mod.total_loss

        def detached_nan(outputs, targets, embedding, cfg):
            values = real(outputs, targets, embedding, cfg)
            # a NaN total with no graph behind it: no gradient reaches a parameter
            return dataclasses.replace(values, total=T.Tensor(np.float32("nan")))

        monkeypatch.setattr(trainer_mod, "total_loss", detached_nan)
        with pytest.raises(TrainingDiverged, match="no parameter gradient is non-finite"):
            train(toy_split(), small_config(epochs=1))

    @pytest.mark.parametrize("pack, built_per_epoch", [(8, [8, 4]), (3, [3, 3, 2, 3, 1])])
    def test_each_minibatch_trains_as_graphs_of_pack_users(
        self, monkeypatch, pack, built_per_epoch
    ):
        built, backwards, steps = [], [], []
        real_build, real_backward = trainer_mod.build_targets, T.Tensor.backward
        real_step = trainer_mod.Adam.step

        def build(users, *args):
            built.append(len(users))
            return real_build(users, *args)

        def backward(self):
            backwards.append(1)
            return real_backward(self)

        def step(self):
            steps.append(1)
            return real_step(self)

        monkeypatch.setattr(trainer_mod, "PACK_USERS", pack)
        monkeypatch.setattr(trainer_mod, "build_targets", build)
        monkeypatch.setattr(T.Tensor, "backward", backward)
        monkeypatch.setattr(trainer_mod.Adam, "step", step)
        train(toy_split(num_users=12), small_config(epochs=2, batch_size=8, val_interval=0))
        assert built == built_per_epoch * 2
        assert len(backwards) == len(built) and len(steps) == 4

    def test_each_graph_takes_its_minibatch_in_nondecreasing_session_count(self, monkeypatch):
        split = toy_split(num_users=12)
        counts = [2, 4, 3, 2, 4, 4, 3, 2, 2, 3, 4, 2]  # ties in every batch
        for user, c in zip(split.users, counts):
            user.train_sessions = user.train_sessions[:c]
        index = {id(user.train_sessions): u for u, user in enumerate(split.users)}
        graphs, real_build = [], trainer_mod.build_targets

        def build(users, *args):
            graphs.append([index[id(sessions)] for sessions in users])
            return real_build(users, *args)

        monkeypatch.setattr(trainer_mod, "build_targets", build)
        cfg = small_config(epochs=2, batch_size=5, val_interval=0)
        train(split, cfg)
        # the shuffle of train(): the fourth stream of the config's seed
        shuffle = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
        want = []
        for _ in range(cfg.epochs):
            order = shuffle.permutation(len(counts)).tolist()
            for lo in range(0, len(order), cfg.batch_size):
                batch = sorted(order[lo : lo + cfg.batch_size], key=lambda u: counts[u])
                want += [batch[g : g + trainer_mod.PACK_USERS]
                         for g in range(0, len(batch), trainer_mod.PACK_USERS)]
        assert graphs == want
        for graph in graphs:
            assert [counts[u] for u in graph] == sorted(counts[u] for u in graph)

    def test_graph_size_changes_only_the_rounding(self, monkeypatch):
        # the graphs of a minibatch sum into one gradient before its step, so
        # one graph per user and one per minibatch train the same model
        trained = []
        for pack in (1, 8):
            monkeypatch.setattr(trainer_mod, "PACK_USERS", pack)
            result = train(toy_split(num_users=12),
                           small_config(epochs=2, batch_size=8, val_interval=0))
            trained.append(result.model.parameters())
        for name, p in trained[0].items():
            np.testing.assert_allclose(trained[1][name].data, p.data, rtol=0, atol=1e-3,
                                       err_msg=name)

    def test_without_validation_the_final_epoch_is_returned_with_no_metric(self):
        # val_interval 0 turns validation off; 3 > epochs means none ran
        results = [train(toy_split(), small_config(epochs=2, val_interval=interval))
                   for interval in (0, 3)]
        for result in results:
            assert result.best_epoch == 1 and result.best_metric is None
            assert all("val_recall" not in entry for entry in result.history)
        for name, p in results[0].model.parameters().items():
            np.testing.assert_array_equal(p.data, results[1].model.parameters()[name].data)

    def test_view_longer_than_max_positions_rejected_before_epoch_0(self, monkeypatch):
        cfg = small_config(epochs=1, sse=SseConfig(layers=1, heads=2, max_positions=3))
        train(toy_split(num_sessions=3), cfg)  # evaluation encodes all 3 sessions
        built = []
        monkeypatch.setattr(trainer_mod, "build_targets", lambda *a: built.append(a))
        with pytest.raises(ValueError, match=r"a train view holds 4 sessions, more than "
                                             r"sse.max_positions=3; .*--max-pos-len 3"):
            train(toy_split(num_sessions=4), cfg)
        assert built == []

    def test_recurrent_backbone_trains(self):
        cfg = small_config(epochs=1, sse=SseConfig(backbone="recurrent", layers=1))
        result = train(toy_split(num_users=6), cfg)
        assert np.isfinite(result.history[0]["train_total_mean"])


class TestCheckpoint:
    def trained(self, tmp_path, **overrides):
        cfg = small_config(epochs=1, **overrides)
        result = train(toy_split(), cfg)
        path = str(tmp_path / "ckpt.bin")
        return result, cfg, path

    def test_round_trip_restores_forward_bitwise(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0,
                        metrics={"val_recall": result.best_metric},
                        data_hash="abc123")
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == 0
        assert ckpt.data_hash == "abc123"
        assert ckpt.config == cfg
        assert ckpt.metrics["val_recall"] == result.best_metric
        restored = restore_model(ckpt)
        view = ragged([[1, 2], [3]])
        with T.no_grad():
            want = result.model.forward_sessions(view).data
            got = restored.forward_sessions(view).data
        np.testing.assert_array_equal(got, want)

    def test_archive_holds_the_header_and_one_member_per_parameter(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        with np.load(path) as archive:
            members = sorted(archive.files)
            header = json.loads(archive["header"].tobytes())
        assert members == sorted(["header", *result.model.parameters()])
        assert header["format_version"] == 3
        assert sorted(header) == ["config", "data_hash", "epoch", "format_version", "metrics"]

    def test_two_saves_write_identical_files(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        other = str(tmp_path / "again.bin")
        save_checkpoint(path, result.model, cfg, epoch=0, metrics={"val_recall": 0.5})
        save_checkpoint(other, result.model, cfg, epoch=0, metrics={"val_recall": 0.5})
        assert Path(path).read_bytes() == Path(other).read_bytes()

    @pytest.mark.parametrize("damage", FILE_DAMAGE)
    def test_file_defect_is_a_value_error_naming_the_file(self, tmp_path, damage):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        broken = broken_checkpoint(path, tmp_path, damage)
        with pytest.raises(ValueError, match=re.escape(broken)) as err:
            load_checkpoint(broken)
        assert "\n" not in str(err.value) and "pickle" not in str(err.value)

    def test_restored_models_share_no_memory(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        ckpt = load_checkpoint(path)
        stored = {n: arr.copy() for n, arr in ckpt.tensors.items()}
        pa, pb = restore_model(ckpt).parameters(), restore_model(ckpt).parameters()
        for name, arr in ckpt.tensors.items():
            assert not np.shares_memory(pa[name].data, pb[name].data), name
            assert not np.shares_memory(pa[name].data, arr), name
            assert not np.shares_memory(pb[name].data, arr), name
        opt = Adam(pa, lr=0.1)
        for p in pa.values():
            p.grad = np.ones_like(p.data)
        opt.step()
        for name, arr in stored.items():
            assert not np.array_equal(pa[name].data, arr), name
            np.testing.assert_array_equal(pb[name].data, arr)
            np.testing.assert_array_equal(ckpt.tensors[name], arr)

    def test_restore_draws_no_random_numbers(self, tmp_path, monkeypatch):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        ckpt = load_checkpoint(path)

        def no_rng(*args, **kwargs):
            raise AssertionError("restore_model made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        restored = restore_model(ckpt)
        for name, p in result.model.parameters().items():
            np.testing.assert_array_equal(restored.parameters()[name].data, p.data)

    @pytest.mark.parametrize("damage", TENSOR_DAMAGE)
    def test_tensor_defect_is_a_value_error_naming_it(self, tmp_path, damage):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        ckpt = load_checkpoint(damaged_checkpoint(path, tmp_path, damage))
        with pytest.raises(ValueError, match=re.escape(repr(damage.split(":")[1]))):
            restore_model(ckpt)

    def test_config_mismatch_names_field(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        ckpt = load_checkpoint(path)
        other = small_config(epochs=1, dim=16)
        with pytest.raises(ValueError, match="'dim'"):
            restore_model(ckpt, expected_config=other)

    def test_force_overrides_mismatch(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        ckpt = load_checkpoint(path)
        other = small_config(epochs=1, seed=99)
        restored = restore_model(ckpt, expected_config=other, force=True)
        pa, pb = result.model.parameters(), restored.parameters()
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="junk.bin: unreadable archive: not an npz archive"):
            load_checkpoint(str(path))

    def test_truncation_always_a_value_error(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        blob = Path(path).read_bytes()
        for cut in [0, 3, 7, 15, 40, len(blob) // 2, len(blob) - 16, len(blob) - 1]:
            partial = tmp_path / f"cut{cut}.bin"
            partial.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                load_checkpoint(str(partial))

    def test_wrong_version(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        bad = broken_checkpoint(path, tmp_path, "format-version-1")
        with pytest.raises(ValueError, match="checkpoint format version 1 is not 3; retrain"):
            load_checkpoint(bad)

    def test_format_2_checkpoint_is_refused_with_one_line(self, tmp_path):
        # format 2 stored each attention head's and GRU gate's weights under
        # names of their own; the header's version refuses it before any
        # tensor is looked up by name
        result, cfg, path = self.trained(tmp_path, ise=IseConfig(kind="recurrent"))
        save_checkpoint(path, result.model, cfg, epoch=0)
        with np.load(path) as archive:
            header = json.loads(archive["header"].tobytes())
        header["format_version"] = 2
        old = str(tmp_path / "format-2.bin")
        with open(old, "wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), np.uint8),
                     **_per_piece(result.model.parameters()))
        with pytest.raises(ValueError) as err:
            load_checkpoint(old)
        assert str(err.value) == f"{old}: checkpoint format version 2 is not 3; retrain the model"


class TestBuildModel:
    def test_dropout_propagates_to_sequence_encoder(self):
        cfg = small_config(dropout=0.35)
        model = NextSessionModel(cfg, 10, T.Parameters(np.random.default_rng(0)))
        assert model.cfg.dropout == model.sequence_encoder.dropout == 0.35

    @pytest.mark.parametrize("rate", [1.0, -0.1])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=r"^dropout must be in \[0, 1\), got "):
            NextSessionModel(small_config(dropout=rate), 10,
                             T.Parameters(np.random.default_rng(0)))

    def test_zero_heads_rejected(self):
        cfg = config_from_dict({"sse": {"heads": 0}})
        with pytest.raises(ValueError, match=r"heads \(0\) must be >= 1"):
            NextSessionModel(cfg, 10, T.Parameters(np.random.default_rng(0)))

    def test_same_rng_same_init(self):
        cfg = small_config()
        a = NextSessionModel(cfg, 10, T.Parameters(np.random.default_rng(5)))
        b = NextSessionModel(cfg, 10, T.Parameters(np.random.default_rng(5)))
        pa, pb = a.parameters(), b.parameters()
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)


# Checkpoint tensor names and shapes of a tiny model (dim 4, id_dim 3,
# feature_dim 2, one categorical feature of 3 values, 5 items, one layer
# of each encoder, 2 heads, max_positions 3), as written before the model
# was built from ``TrainConfig``.  A renamed or reshaped tensor makes
# every older checkpoint fail to load.
_EMB_TENSORS = [
    ("emb.feat.topic", (3, 2)), ("emb.fuse_b1", (8,)), ("emb.fuse_b2", (4,)),
    ("emb.fuse_w1", (5, 8)), ("emb.fuse_w2", (8, 4)), ("emb.item_table", (5, 3)),
]


def _gru_tensors(prefix):
    return [(f"{prefix}.b", (12,)), (f"{prefix}.w", (8, 12))]


def _block_tensors(prefix):
    return [
        (f"{prefix}.ffn.b1", (16,)), (f"{prefix}.ffn.b2", (4,)),
        (f"{prefix}.ffn.w1", (4, 16)), (f"{prefix}.ffn.w2", (16, 4)),
        (f"{prefix}.ln1_b", (4,)), (f"{prefix}.ln1_g", (4,)),
        (f"{prefix}.ln2_b", (4,)), (f"{prefix}.ln2_g", (4,)),
        (f"{prefix}.mha.wo", (4, 4)), (f"{prefix}.mha.wqkv", (4, 12)),
    ]


def _per_piece(params, heads=2):
    """The model's tensors under the names and shapes they had when each
    head's q, k and v projection and each GRU gate's w, u and b was a
    tensor of its own: a ``wqkv`` split into 3 * heads column blocks, a GRU
    ``w`` into the input and state rows of each gate, a GRU ``b`` by gate."""
    out = {}
    for name, p in params.items():
        prefix, _, last = name.rpartition(".")
        a = p.data
        if last == "wqkv":
            hd = a.shape[1] // (3 * heads)
            for j, kind in enumerate(("wq", "wk", "wv")):
                for h in range(heads):
                    c = (j * heads + h) * hd
                    out[f"{prefix}.h{h}.{kind}"] = a[:, c : c + hd]
        elif ".gru" in prefix and last in ("w", "b"):
            d = a.shape[-1] // 3
            for j, gate in enumerate("zrh"):
                block = a[..., j * d : (j + 1) * d]
                if last == "b":
                    out[f"{prefix}.b{gate}"] = block
                else:
                    out[f"{prefix}.w{gate}"], out[f"{prefix}.u{gate}"] = block[:-d], block[-d:]
        else:
            out[name] = a
    return out


_ISE_TENSORS = {
    "mean": [], "max": [], "max_relu": [],
    "recurrent": _gru_tensors("ise.gru"),
    "attention": _block_tensors("ise.block0"),
}
_SSE_TENSORS = {
    "causal_attention": _block_tensors("sse.block0") + [
        ("sse.final_b", (4,)), ("sse.final_g", (4,)), ("sse.pos_table", (3, 4))],
    "recurrent": _gru_tensors("sse.gru0"),
}


# The initial values of those tensors, as drawn from ``default_rng(0)``
# before the model declared its weights in one ``Parameters`` store and
# before attention and GRU weights were stacked: the sha256 of every
# tensor's name and float32 bytes, in name order, under the per-piece
# names of ``_per_piece``, then of the next 8 bytes the rng gives.  A
# change to the draw order, the initial scale or the rng's use fails here.
_INIT_SHA256 = {
    ("attention", "causal_attention"): "251c1b4f5a787c4ed12194a83a883036c368fec2b31460b85c23464e3781add7",
    ("attention", "recurrent"): "7e4a5a812564fd96ef0775caa2097deb631323ed0a28dd859a66837bcbeb83b3",
    ("max", "causal_attention"): "fa00f930f976161a0da8b17aa627bfbe1c18a90e1497104770edf30c0a7f25a9",
    ("max", "recurrent"): "58f2d98bcd15a76f0b519bd29df5522c706b1050a708b78928c2721e689088f7",
    ("max_relu", "causal_attention"): "fa00f930f976161a0da8b17aa627bfbe1c18a90e1497104770edf30c0a7f25a9",
    ("max_relu", "recurrent"): "58f2d98bcd15a76f0b519bd29df5522c706b1050a708b78928c2721e689088f7",
    ("mean", "causal_attention"): "fa00f930f976161a0da8b17aa627bfbe1c18a90e1497104770edf30c0a7f25a9",
    ("mean", "recurrent"): "58f2d98bcd15a76f0b519bd29df5522c706b1050a708b78928c2721e689088f7",
    ("recurrent", "causal_attention"): "b04354feb94f055ad2cd70998e902568e8d54fad2c5c6387c86b38e8028aad02",
    ("recurrent", "recurrent"): "d0fda6e407658bdebad27d3a2edb4fd4835b2ed05bfe3594c5b4fff228e6562c",
}


class TestCheckpointTensorNames:
    @pytest.mark.parametrize("backbone", sorted(_SSE_TENSORS))
    @pytest.mark.parametrize("kind", sorted(_ISE_TENSORS))
    def test_names_and_shapes_are_pinned(self, kind, backbone):
        catalog = Catalog(
            item_map={f"i{i}": i for i in range(5)},
            feature_names=("topic",),
            feature_info={"topic": {"kind": "categorical",
                                    "values": {"a": 0, "b": 1, "c": 2}}},
            item_features=np.array([[0], [1], [2], [0], [1]], np.int32),
        )
        cfg = TrainConfig(dim=4, id_dim=3, feature_dim=2,
                          ise=IseConfig(kind=kind, layers=1, heads=2),
                          sse=SseConfig(backbone=backbone, layers=1, heads=2,
                                        max_positions=3))
        rng = np.random.default_rng(0)
        model = NextSessionModel(cfg, 5, T.Parameters(rng), catalog)
        params = model.parameters()
        got = sorted((name, p.shape) for name, p in params.items())
        assert got == sorted(_EMB_TENSORS + _ISE_TENSORS[kind] + _SSE_TENSORS[backbone])
        assert {p.dtype for p in params.values()} == {np.dtype(np.float32)}
        digest = hashlib.sha256()
        pieces = _per_piece(params)
        for name in sorted(pieces):
            digest.update(name.encode() + pieces[name].tobytes())
        digest.update(rng.bytes(8))
        assert digest.hexdigest() == _INIT_SHA256[kind, backbone]
