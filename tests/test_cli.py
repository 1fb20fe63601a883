import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from helpers import legacy_copy
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
        assert {"meta.json", "stats.json", "item_map.json", "users.json",
                "interactions.npz", "manifest.json"} <= names
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

    def test_report_hash_is_the_same_for_a_legacy_header(self, workspace, tmp_path,
                                                          capsys):
        ckpt = os.path.join(workspace["run"], "checkpoint.bin")
        old = legacy_copy(ckpt, tmp_path)
        assert trainer.load_checkpoint(old).config_hash != \
            trainer.load_checkpoint(ckpt).config_hash
        hashes = []
        for i, path in enumerate((ckpt, old)):
            out = str(tmp_path / f"eval{i}")
            assert main(["evaluate", "--checkpoint", path, "--data", workspace["data"],
                         "--out", out]) == 0
            capsys.readouterr()
            hashes.append(load_json(os.path.join(out, "report.json"))["config_hash"])
        cfg = trainer.load_checkpoint(ckpt).config
        assert hashes == [trainer.config_hash(cfg)] * 2

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

    def test_failed_run_leaves_failed_manifest(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["train", "--data", str(tmp_path / "missing"), "--out", out])
        assert code == 1
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["status"] == "failed"
        assert "error" in manifest

    @pytest.mark.parametrize("damage,named", [
        ("drop-item-array", "interactions.npz: missing array 'item'"),
        ("users-one-short", "users.json"),
    ])
    def test_corrupt_dataset_is_one_line(self, workspace, tmp_path, capsys, damage, named):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        if damage == "drop-item-array":
            arrays = dict(np.load(data / "interactions.npz"))
            del arrays["item"]
            np.savez(data / "interactions.npz", **arrays)
        else:
            blob = json.loads((data / "users.json").read_text())
            blob["users"].pop()
            blob["session_ids"].pop()
            (data / "users.json").write_text(json.dumps(blob))
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_bad_checkpoint_exits_1(self, workspace, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"garbage")
        code = main(["evaluate", "--checkpoint", str(junk),
                     "--data", workspace["data"]])
        assert code == 1
        assert "magic" in capsys.readouterr().err


class TestBench:
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
