import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

import nextsession.tensor as T
import nextsession.trainer as trainer_mod
from nextsession.data import DatasetSplit, UserSplit
from nextsession.objective import LossConfig
from nextsession.sequence_encoder import SseConfig
from nextsession.session_encoder import IseConfig
from helpers import history, legacy_copy, ragged
from nextsession.trainer import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    build_model,
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
        ids = [f"u{u}-s{s}" for s in range(num_sessions)]
        users.append(UserSplit(user_id=f"u{u}", train_sessions=history(*sessions, ids=ids),
                               targets=[sig]))
    return DatasetSplit(protocol="session", users=users, catalog_size=catalog,
                        stats={"num_users": num_users})


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

    def test_unread_sse_dropout_is_dropped_at_any_valid_rate(self):
        cfg = small_config()
        for rate in (0, 0.0, 0.2, 0.99):
            blob = config_to_dict(cfg)
            blob["sse"]["dropout"] = rate
            assert config_from_dict(blob) == cfg
        for rate in (1.0, -0.1, "0.2", True, None):
            blob["sse"]["dropout"] = rate
            with pytest.raises(ValueError, match=r"'sse.dropout' must be in \[0, 1\)"):
                config_from_dict(blob)


class TestAdam:
    def test_lazy_rows_untouched(self):
        table = T.parameter(np.ones((4, 2)))
        opt = Adam({"table": table}, lr=0.1)
        table.grad = np.zeros((4, 2), dtype=np.float32)
        table.grad[0] = 1.0
        table.grad[2] = -2.0
        opt.step()
        np.testing.assert_array_equal(table.data[1], [1.0, 1.0])
        np.testing.assert_array_equal(table.data[3], [1.0, 1.0])
        np.testing.assert_array_equal(opt.m["table"][1], 0.0)
        np.testing.assert_array_equal(opt.v["table"][3], 0.0)
        # first Adam step moves touched coordinates by ~lr against the gradient
        np.testing.assert_allclose(table.data[0], 1.0 - 0.1, rtol=1e-5)
        np.testing.assert_allclose(table.data[2], 1.0 + 0.1, rtol=1e-5)

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

    def test_legacy_optimizer_blobs_ignored(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        # earlier versions could append Adam's moments as opt.m.* / opt.v.*
        # tensors plus an "opt" header entry; write such a file by hand
        blob = Path(path).read_bytes()
        (n,) = struct.unpack_from("<Q", blob, 8)
        header = json.loads(blob[16 : 16 + n])
        tensors = blob[16 + n :]
        extra = b""
        for entry in list(header["tensors"]):
            for kind in ("m", "v"):
                header["tensors"].append({**entry, "name": f"opt.{kind}.{entry['name']}",
                                          "offset": len(tensors) + len(extra)})
                extra += b"\0" * entry["nbytes"]
        header["opt"] = {"t": 1}
        raw = json.dumps(header, sort_keys=True).encode()
        legacy = tmp_path / "legacy.bin"
        legacy.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + tensors + extra)
        ckpt = load_checkpoint(str(legacy))
        assert not any(name.startswith("opt.") for name in ckpt.tensors)
        restored = restore_model(ckpt)
        for name, p in result.model.parameters().items():
            np.testing.assert_array_equal(restored.parameters()[name].data, p.data)

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

    def test_legacy_header_keys_load(self, tmp_path):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        ckpt = load_checkpoint(legacy_copy(path, tmp_path))
        assert ckpt.config == cfg
        assert ckpt.config_hash != config_hash(cfg)
        for expected in (None, cfg):
            restored = restore_model(ckpt, expected_config=expected)
            pa, pb = result.model.parameters(), restored.parameters()
            for name in pa:
                np.testing.assert_array_equal(pa[name].data, pb[name].data)

    @pytest.mark.parametrize("kwargs,key", [({"optimizer": "sgd"}, "'optimizer'"),
                                            ({"sampling": "popularity"}, "'loss.sampling'"),
                                            ({"sse_dropout": 1.0}, "'sse.dropout'")])
    def test_legacy_header_other_value_rejected(self, tmp_path, kwargs, key):
        result, cfg, path = self.trained(tmp_path)
        save_checkpoint(path, result.model, cfg, epoch=0)
        with pytest.raises(ValueError, match=key):
            load_checkpoint(legacy_copy(path, tmp_path, **kwargs))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
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
        blob = bytearray(Path(path).read_bytes())
        blob[4] = 99
        bad = tmp_path / "badver.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(bad))


class TestBuildModel:
    def test_dropout_propagates_to_sequence_encoder(self):
        cfg = small_config(dropout=0.35)
        model = build_model(cfg, 10, np.random.default_rng(0))
        assert model.cfg.dropout == model.sequence_encoder.dropout == 0.35

    @pytest.mark.parametrize("rate", [1.0, -0.1])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=r"^dropout must be in \[0, 1\), got "):
            build_model(small_config(dropout=rate), 10, np.random.default_rng(0))

    def test_same_rng_same_init(self):
        cfg = small_config()
        a = build_model(cfg, 10, np.random.default_rng(5))
        b = build_model(cfg, 10, np.random.default_rng(5))
        pa, pb = a.parameters(), b.parameters()
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)
