import contextlib
import json
import os
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from helpers import (FILE_DAMAGE, TENSOR_DAMAGE, broken_checkpoint, damaged_checkpoint,
                     read_dataset_archive, write_dataset_archive)
from nextsession import trainer
from nextsession.cli import main


def load_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> prepare-data -> train pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    log = str(root / "log.csv")
    data = str(root / "data")
    run = str(root / "run")

    assert main(["synth", "--pattern", "copy-last-session", "--users", "30",
                 "--sessions", "5", "--catalog", "40", "--positives", "3",
                 "--exposures", "1", "--seed", "0", "--out", log]) == 0
    assert main(["prepare-data", "--input", log, "--output", data]) == 0

    cfg_path = str(root / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"sse": {"layers": 1, "heads": 2, "max_positions": 32},
                   "loss": {"num_sampled_negatives": 8},
                   "learning_rate": 0.05, "epochs": 5}, fh)
    assert main(["train", "--data", data, "--out", run, "--config", cfg_path,
                 "--epochs", "2", "--dim", "8", "--dropout", "0.0",
                 "--val-k", "10"]) == 0
    return {"root": root, "log": log, "data": data, "run": run, "cfg": cfg_path}


class TestPipeline:
    def test_synth_wrote_csv_and_manifest(self, workspace):
        with open(workspace["log"]) as fh:
            header = fh.readline().strip()
        assert header == "user,item,session,timestamp,action"
        manifest = load_json(workspace["log"] + ".manifest.json")
        assert manifest["status"] == "success"
        assert manifest["command"] == "synth"

    def test_prepare_data_artifacts(self, workspace):
        names = set(os.listdir(workspace["data"]))
        assert names == {"interactions.npz", "stats.json", "manifest.json"}
        stats = load_json(os.path.join(workspace["data"], "stats.json"))
        assert stats["num_users"] == 30

    def test_prepare_manifest_records_stage_times_and_counts(self, workspace):
        manifest = load_json(os.path.join(workspace["data"], "manifest.json"))
        stats = load_json(os.path.join(workspace["data"], "stats.json"))
        assert manifest["status"] == "success"
        assert sorted(manifest["stage_seconds"]) == ["filter", "ingest", "save"]
        assert all(t >= 0 for t in manifest["stage_seconds"].values())
        with open(workspace["log"]) as fh:
            rows_in = sum(1 for _ in fh) - 1
        assert manifest["counts"] == {
            "rows_in": rows_in,
            "rows_kept": stats["num_interactions"],
            "users": stats["num_users"],
            "sessions": stats["num_sessions"],
            "items": stats["num_items"],
        }

    def test_train_artifacts(self, workspace):
        run = workspace["run"]
        assert os.path.exists(os.path.join(run, "checkpoint.bin"))
        history = [json.loads(line)
                   for line in Path(run, "history.jsonl").read_text().splitlines()]
        assert [h["epoch"] for h in history] == [0, 1]
        manifest = load_json(os.path.join(run, "manifest.json"))
        assert manifest["status"] == "success"
        assert manifest["wall_clock_s"] > 0

    def test_train_without_validation_records_no_recall(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**load_json(workspace["cfg"]), "val_interval": 0}))
        assert main(["train", "--data", workspace["data"], "--out", str(run),
                     "--config", str(cfg), "--epochs", "2", "--dim", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"final epoch 1 (no validation ran) -> {run / 'checkpoint.bin'}")
        ckpt = trainer.load_checkpoint(str(run / "checkpoint.bin"))
        assert ckpt.epoch == 1 and ckpt.metrics == {}

    def test_flags_override_config_file(self, workspace):
        manifest = load_json(os.path.join(workspace["run"], "manifest.json"))
        resolved = manifest["resolved_config"]
        assert resolved["epochs"] == 2           # flag wins over file's 5
        assert resolved["learning_rate"] == 0.05  # file wins over default
        assert resolved["dim"] == 8
        assert resolved["sse"]["layers"] == 1

    def test_evaluate_prints_report_and_writes_files(self, workspace, capsys):
        out = str(workspace["root"] / "eval")
        code = main(["evaluate",
                     "--checkpoint", os.path.join(workspace["run"], "checkpoint.bin"),
                     "--data", workspace["data"], "--out", out])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        stats = load_json(os.path.join(workspace["data"], "stats.json"))
        # 100 and 500 both clamp to the filtered catalog size
        assert set(blob["recall"]) == {"10", str(stats["num_items"])}
        assert all(0.0 <= v <= 1.0 for v in blob["recall"].values())
        assert os.path.exists(os.path.join(out, "report.json"))
        assert "Recall@K" in Path(out, "report.txt").read_text()

    def test_evaluate_cutoff_clamp_dedupes(self, workspace, capsys):
        stats = load_json(os.path.join(workspace["data"], "stats.json"))
        n = stats["num_items"]
        code = main(["evaluate",
                     "--checkpoint", os.path.join(workspace["run"], "checkpoint.bin"),
                     "--data", workspace["data"],
                     "--cutoffs", f"5,9999,{n}"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob["recall"]) == {"5", str(n)}

    def test_item_protocol_evaluates(self, workspace, capsys):
        code = main(["evaluate",
                     "--checkpoint", os.path.join(workspace["run"], "checkpoint.bin"),
                     "--data", workspace["data"], "--protocol", "item",
                     "--cutoffs", "10"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["protocol"] == "item"


class TestErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x", "--out", "y", "--warp-speed"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_cutoff_list_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--checkpoint", "x", "--data", "y",
                  "--cutoffs", "1,banana"])
        assert exc.value.code == 2

    def test_missing_input_is_exit_1_with_one_line(self, tmp_path, capsys):
        code = main(["prepare-data", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_corrupt_config_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["train", "--data", str(tmp_path), "--out",
                     str(tmp_path / "run"), "--config", str(bad)])
        assert code == 1
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("content,named", [
        ("[1, 2]", "bad.json"),
        ('{"epochs": "ten"}', "'epochs'"),
        ('{"sse": {"layers": 1.5}}', "'sse.layers'"),
        ('{"dim": 0}', "dim and val_k must be >= 1"),
        ('{"sse": {"layers": -1}}', "sse.layers must be >= 0, got -1"),
        ('{"ise": {"layers": -1}}', "ise.layers must be >= 0, got -1"),
        ('{"sse": {"max_positions": 0}}', "sse.max_positions must be >= 1, got 0"),
        ('{"val_interval": -1}', "val_interval must be >= 0"),
        ('{"learning_rate": Infinity}', "learning_rate must be a positive finite number, got inf"),
        ('{"id_dim": 0}', "id_dim must be >= 1 (or null to use dim), got 0"),
        ('{"id_dim": -2}', "id_dim must be >= 1 (or null to use dim), got -2"),
        ('{"feature_dim": 0}', "feature_dim must be >= 1, got 0"),
    ])
    def test_malformed_config_is_one_line(self, tmp_path, capsys, content, named):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        code = main(["train", "--data", str(tmp_path), "--out",
                     str(tmp_path / "run"), "--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_infinite_learning_rate_flag_writes_no_checkpoint(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", workspace["data"], "--out", str(out),
                     "--config", workspace["cfg"], "--lr", "inf"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: learning_rate must be a positive finite number, got inf\n")
        assert not list(out.glob("*.npz"))

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_one_line(self, workspace, tmp_path, capsys, alpha):
        out = tmp_path / "run"
        code = main(["train", "--data", workspace["data"], "--out", str(out),
                     "--config", workspace["cfg"], "--alpha", alpha])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: alpha must be a finite number >= 0, got {float(alpha)}\n")
        assert not (out / "checkpoint.bin").exists()

    def test_failed_run_leaves_failed_manifest(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["train", "--data", str(tmp_path / "missing"), "--out", out])
        assert code == 1
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["status"] == "failed"
        assert "error" in manifest

    @pytest.mark.parametrize("damage,named", [
        ("drop-item-array", "interactions.npz: missing array 'item'"),
        ("users-one-short", "interactions.npz: user_sessions is not one integer session count"),
        ("exposure-only-session", "interactions.npz: a session has no positive row"),
        ("session-rows-sum-off", "interactions.npz: session_rows is not one integer row count"),
        ("user-sessions-sum-off", "interactions.npz: session_rows is not one integer row count"),
        ("format-2", "interactions.npz: dataset has no header, so is not of format 3; "
                     "re-run prepare-data"),
        ("format-4", "interactions.npz: dataset format version 4 is not 3; re-run prepare-data"),
        ("npy-file", "interactions.npz: unreadable archive: not an npz archive"),
        ("no-user-ids", "interactions.npz: expected a JSON object with keys"),
        ("user-id-number", "interactions.npz: header entry 'user_ids' is not a list of strings"),
        ("item-id-number", "interactions.npz: header entry 'item_ids' is not a list of strings"),
        ("repeated-item-id", "interactions.npz: item id"),
        ("max-positive-len-x", "interactions.npz: max_positive_len must be an integer >= 1, "
                               "got 'x'"),
        ("max-positive-len-0", "interactions.npz: max_positive_len must be an integer >= 1, "
                               "got 0"),
        ("no-max-positive-len", "interactions.npz: expected a JSON object with keys"),
    ])
    def test_corrupt_dataset_is_one_line(self, workspace, tmp_path, capsys, damage, named):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        header, arrays = read_dataset_archive(data)
        if damage == "npy-file":
            with open(data / "interactions.npz", "wb") as fh:
                np.save(fh, arrays["item"])
        elif damage == "format-2":  # an archive of arrays only, its header in JSON files
            np.savez(data / "interactions.npz", **arrays)
            (data / "meta.json").write_text(json.dumps({"format_version": 2}))
        else:
            if damage == "drop-item-array":
                del arrays["item"]
            elif damage == "users-one-short":
                header["user_ids"].pop()
            elif damage == "exposure-only-session":
                arrays["positive"][:arrays["session_rows"][0]] = False
            elif damage == "session-rows-sum-off":
                arrays["session_rows"][-1] += 1
            elif damage == "user-sessions-sum-off":
                arrays["user_sessions"][-1] += 1
            elif damage == "format-4":
                header["format_version"] = 4
            elif damage == "no-user-ids":
                del header["user_ids"]
            elif damage == "user-id-number":
                header["user_ids"][0] = 7
            elif damage == "item-id-number":
                header["item_ids"][0] = 7
            elif damage == "repeated-item-id":
                header["item_ids"][0] = header["item_ids"][1]
            elif damage == "max-positive-len-x":
                header["max_positive_len"] = "x"
            elif damage == "max-positive-len-0":
                header["max_positive_len"] = 0
            else:
                del header["max_positive_len"]
            write_dataset_archive(data, header, arrays)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("command, named", [
        (["evaluate", "--cutoffs", "0"], "cutoffs must be >= 1, got 0"),
        (["evaluate", "--cutoffs", "10,0"], "cutoffs must be >= 1, got 0"),
        (["scaling", "--fractions", "1.0", "--recall-k", "0"], "recall_k must be >= 1, got 0"),
    ])
    def test_cutoff_below_one_is_one_line(self, workspace, tmp_path, capsys, command, named):
        where = (["--checkpoint", os.path.join(workspace["run"], "checkpoint.bin")]
                 if command[0] == "evaluate" else ["--out", str(tmp_path / "run")])
        code = main(command + where + ["--data", workspace["data"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("flag, value", [("--twin-exposures", "3"),
                                             ("--self-exposure-rate", "0.9")])
    def test_synth_flag_of_another_pattern_is_one_line(self, tmp_path, capsys, flag, value):
        out = tmp_path / "log.csv"
        code = main(["synth", "--pattern", "copy-last-session", flag, value,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{flag} does not apply to copy-last-session" in err
        assert not out.exists()

    def test_history_longer_than_max_positions_is_one_line_before_training(
            self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sse": {"layers": 1, "max_positions": 2}}))
        run = tmp_path / "run"
        code = main(["train", "--data", workspace["data"], "--out", str(run),
                     "--config", str(cfg), "--dim", "8"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "more than sse.max_positions=2" in captured.err
        assert "--max-pos-len 2" in captured.err
        assert "epoch" not in captured.out and not (run / "checkpoint.bin").exists()

    def test_max_pos_len_below_one_is_one_line_before_the_log_is_read(self, tmp_path, capsys):
        code = main(["prepare-data", "--input", str(tmp_path / "missing.csv"),
                     "--output", str(tmp_path / "data"), "--max-pos-len", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: --max-pos-len must be >= 1, got 0\n"
        # the manifest records the refusal; no dataset is written
        assert not any((tmp_path / "data" / name).exists()
                       for name in ("interactions.npz", "stats.json"))

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_bin_count_below_one_is_one_line_before_the_log_is_read(self, tmp_path, capsys,
                                                                     count):
        code = main(["prepare-data", "--input", str(tmp_path / "missing.csv"),
                     "--output", str(tmp_path / "data"), "--bin-count", count])
        assert code == 1
        assert capsys.readouterr().err == f"error: --bin-count must be >= 1, got {count}\n"
        # the manifest records the refusal; no dataset is written
        assert not any((tmp_path / "data" / name).exists()
                       for name in ("interactions.npz", "stats.json"))

    @pytest.mark.parametrize("header,named", [
        ("user,item,session,timestamp,action,color,color", "'color'"),
        ("user,item,session,timestamp,action, user", "'user'"),
    ])
    def test_repeated_header_column_is_one_line(self, tmp_path, capsys, header, named):
        log = tmp_path / "log.csv"
        log.write_text(header + "\n")
        code = main(["prepare-data", "--input", str(log), "--output", str(tmp_path / "data")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: column {named} appears twice in the header of {log}\n"

    def test_log_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_bytes(b"user,item,session,timestamp,action\n" * 40 + b"u1,i\xff,s1,1,click\n")
        code = main(["prepare-data", "--input", str(log), "--output", str(tmp_path / "data")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {log}: not UTF-8 text (byte 0xff: invalid start byte)\n"

    def test_corrupt_feature_value_is_one_line(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("user,item,session,timestamp,action,color\n" + "".join(
            f"u{u},{item},s{u}-{s},{9 * u + 3 * s + k},{action},{color}\n"
            for u in range(3) for s in range(3)
            for k, (item, action, color) in enumerate(
                [("a", "click", "red"), ("b", "click", "green"), ("c", "exposure", "blue")])))
        data = tmp_path / "data"
        assert main(["prepare-data", "--input", str(log), "--output", str(data)]) == 0
        capsys.readouterr()
        arrays = dict(np.load(data / "interactions.npz"))
        arrays["item_features"][0, 0] = 7  # 'color' takes 3 values
        np.savez(data / "interactions.npz", **arrays)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "interactions.npz: item_features of 'color' run outside [0, 3)" in err

    def test_bad_checkpoint_exits_1(self, workspace, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"garbage")
        code = main(["evaluate", "--checkpoint", str(junk),
                     "--data", workspace["data"]])
        assert code == 1
        assert capsys.readouterr().err == f"error: {junk}: unreadable archive: not an npz archive\n"

    @pytest.mark.parametrize("damage", FILE_DAMAGE)
    def test_checkpoint_file_defect_is_one_line(self, workspace, tmp_path, capsys, damage):
        ckpt = broken_checkpoint(os.path.join(workspace["run"], "checkpoint.bin"),
                                 tmp_path, damage)
        code = main(["evaluate", "--checkpoint", ckpt, "--data", workspace["data"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
        assert "pickle" not in err

    @pytest.mark.parametrize("damage", TENSOR_DAMAGE)
    def test_checkpoint_tensor_defect_is_one_line(self, workspace, tmp_path, capsys, damage):
        ckpt = damaged_checkpoint(os.path.join(workspace["run"], "checkpoint.bin"),
                                  tmp_path, damage)
        code = main(["evaluate", "--checkpoint", ckpt, "--data", workspace["data"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(damage.split(":")[1]) in err


# configs no model can be built from, each with the field its error names
REFUSED_CONFIGS = {
    "negative-seed": ({"seed": -1}, "seed"),
    "dropout-one": ({"dropout": 1.0}, "dropout"),
    "negative-dropout": ({"dropout": -0.1}, "dropout"),
    "nan-dropout": ({"dropout": float("nan")}, "dropout"),
    "unknown-ise-kind": ({"ise": {"kind": "bogus"}}, "ise.kind"),
    "unknown-sse-backbone": ({"sse": {"backbone": "conv"}}, "sse.backbone"),
    "sse-heads-not-dividing-dim": ({"dim": 8, "sse": {"heads": 3}}, "sse.heads"),
    "zero-attention-ise-heads": ({"ise": {"kind": "attention", "heads": 0}}, "ise.heads"),
}
TRAINING_COMMANDS = {"train": [], "sweep-alpha": ["--alphas", "0,0.2"],
                     "scaling": ["--fractions", "0.5,1.0"]}


class TestConfigCheckedBeforeData:
    @pytest.mark.parametrize("command", TRAINING_COMMANDS)
    @pytest.mark.parametrize("refused", REFUSED_CONFIGS)
    def test_refused_config_is_one_line_naming_the_field(self, tmp_path, capsys, command,
                                                         refused):
        blob, field = REFUSED_CONFIGS[refused]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blob))
        out = tmp_path / "run"
        code = main([command, "--data", str(tmp_path / "missing"), "--out", str(out),
                     "--config", str(cfg), *TRAINING_COMMANDS[command]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1
        for name in ("history.jsonl", "sweep.tsv", "scaling.tsv"):
            assert not (out / name).exists()

    def test_negative_seed_flag_names_the_field(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "run"), "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_negative_alpha_in_the_list_fails_the_sweep(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-alpha", "--data", workspace["data"], "--out", str(out),
                     "--alphas", "0,-1", "--config", workspace["cfg"], "--epochs", "1",
                     "--dim", "8", "--val-k", "10"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: alpha must be a finite number >= 0, "
                                           "got -1.0\n")
        assert not (out / "sweep.tsv").exists()
        assert load_json(out / "manifest.json")["status"] == "failed"

    @pytest.mark.parametrize("blob", [
        {"sse": {"backbone": "recurrent", "heads": 0}},
        {"ise": {"kind": "attention", "layers": 0, "heads": 3}},
    ], ids=["recurrent-sse-zero-heads", "attention-ise-no-layers-three-heads"])
    def test_heads_of_encoders_without_attention_blocks_still_train(self, workspace,
                                                                    tmp_path, capsys, blob):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**load_json(workspace["cfg"]), **blob}))
        out = tmp_path / "run"
        code = main(["train", "--data", workspace["data"], "--out", str(out),
                     "--config", str(cfg), "--epochs", "1", "--dim", "8", "--val-k", "10"])
        assert code == 0
        assert (out / "checkpoint.bin").exists()


class TestBench:
    @pytest.mark.parametrize("flags, got", [(["--n", "0", "--m", "2"], "got 0, 2 and 1"),
                                            (["--n", "8", "--m", "0"], "got 8, 0 and 1"),
                                            (["--n", "8", "--m", "2", "--repeats", "0"],
                                             "got 8, 2 and 0")])
    def test_size_below_one_is_one_line(self, capsys, flags, got):
        code = main(["bench", "--dim", "4", "--layers", "1", "--repeats", "1", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: n_items, session_len and repeats must be >= 1, "
                                f"{got}\n")

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_dim_below_one_is_one_line(self, capsys, dim):
        code = main(["bench", "--n", "8", "--m", "2", "--dim", dim, "--layers", "1",
                     "--repeats", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dim must be >= 1, got {dim}\n"

    @pytest.mark.parametrize("flags, named", [
        (["--heads", "3"], "sse.heads (3) must be >= 1 and divide dim (8)"),
        (["--heads", "0"], "sse.heads (0) must be >= 1 and divide dim (8)"),
        (["--layers", "-1"], "sse.layers must be >= 0, got -1"),
    ])
    def test_bad_encoder_shape_is_one_line(self, capsys, flags, named):
        code = main(["bench", "--n", "8", "--m", "2", "--dim", "8", "--repeats", "1", *flags])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {named}\n")

    def test_bench_reports_analytic_ratio(self, capsys):
        code = main(["bench", "--n", "64", "--m", "8", "--dim", "8",
                     "--layers", "1", "--repeats", "1"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["pair_ratio"] == 64.0
        assert blob["item_time_s"] > 0

    def test_bench_writes_output_file(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        code = main(["bench", "--n", "32", "--m", "4", "--dim", "8",
                     "--layers", "1", "--repeats", "1", "--out", out])
        assert code == 0
        blob = load_json(os.path.join(out, "bench.json"))
        assert blob["pair_ratio"] == 16.0
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["status"] == "success"


class TestThreadCap:
    @pytest.mark.parametrize("installed", [False, True])
    def test_manifest_records_whether_the_cap_applied(self, tmp_path, monkeypatch, capsys,
                                                      installed):
        fake = types.ModuleType("threadpoolctl")
        fake.threadpool_limits = lambda limits: contextlib.nullcontext()
        # None in sys.modules makes the import fail, as if it were not installed
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake if installed else None)
        out = str(tmp_path / "bench")
        assert main(["--threads", "1", "bench", "--n", "8", "--m", "4", "--dim", "4",
                     "--layers", "1", "--repeats", "1", "--out", out]) == 0
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["blas_threads_capped"] is installed


class TestSweepAndScaling:
    def test_sweep_alpha_end_to_end(self, workspace, capsys):
        out = str(workspace["root"] / "sweep")
        code = main(["sweep-alpha", "--data", workspace["data"], "--out", out,
                     "--alphas", "0,0.2", "--config", workspace["cfg"],
                     "--epochs", "1", "--dim", "8", "--dropout", "0.0",
                     "--val-k", "10"])
        assert code == 0
        rows = load_json(os.path.join(out, "sweep.json"))
        assert [r["alpha"] for r in rows] == [0.0, 0.2]
        tsv = Path(out, "sweep.tsv").read_text().splitlines()
        assert tsv[0].startswith("alpha\t")
        assert len(tsv) == 3

    def test_scaling_end_to_end(self, workspace, capsys):
        out = str(workspace["root"] / "scaling")
        code = main(["scaling", "--data", workspace["data"], "--out", out,
                     "--fractions", "0.6,1.0", "--recall-k", "10",
                     "--config", workspace["cfg"], "--epochs", "1",
                     "--dim", "8", "--dropout", "0.0", "--val-k", "10"])
        assert code == 0
        rows = load_json(os.path.join(out, "scaling.json"))
        assert len(rows) == 2
        assert rows[0]["train_items"] <= rows[1]["train_items"]
        assert os.path.exists(os.path.join(out, "scaling.tsv"))
