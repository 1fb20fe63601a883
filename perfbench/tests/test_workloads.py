import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pipeline import Round, brute_top_k, pipeline_s, run_workload, tracing_overhead
from spans import TRAIN_STAGES
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Same shape as each workload, small enough to run in seconds.  Every
# workload keeps at least 20 train steps and 20 evaluated users, the fewest
# for which a latency percentile exists, and at least 100 items, the largest
# cutoff.
SMOKE = {
    "train-small-catalog": dict(log={"num_users": 40, "num_sessions": 5, "catalog": 200},
                                epochs=1, prepare_repeats=2, setup_repeats=2, train_users=None),
    "large-catalog": dict(log={"num_users": 80, "num_sessions": 5, "catalog": 300},
                          epochs=1, train_users=24, eval_users=40),
    "long-history-gru": dict(log={"users": 24, "block": 24, "min_sessions": 3, "max_sessions": 8,
                                  "catalog": 200, "pool": 8, "positives": 4, "exposures": 8},
                             epochs=1, prepare_repeats=2, setup_repeats=2, train_users=None,
                             eval_users=None),
}


def smoke(name):
    opts = dict(SMOKE[name])
    train = {**WORKLOADS[name].train, "epochs": opts.pop("epochs")}
    return replace(WORKLOADS[name], train=train, **opts)


def test_every_workload_is_in_benchmark_json_and_has_a_smoke_size():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(SMOKE)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_checks_pass_and_reports_every_metric(name, trace, tmp_path):
    metrics, ops, rounds = run_workload(smoke(name), 0, 0.0, trace, str(tmp_path))
    assert ops.failed == 0 and ops.attempted > 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(metrics) == {m["name"] for m in SPEC[kind]}
    assert len({r.recall for r in rounds}) == 1
    if trace:
        assert metrics["train.step_ms_samples"] >= 20
        stages = [*TRAIN_STAGES, "validation", "other"]
        assert sum(metrics[f"train.{s}_pct"] for s in stages) == pytest.approx(100.0)
    else:
        assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("trace", [False, True])
def test_a_round_that_raises_is_a_failed_operation(trace, monkeypatch, tmp_path):
    from nextsession import trainer

    real_train, calls = trainer.train, []

    def diverge_on_second_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # the traced round of a traced run
            raise trainer.TrainingDiverged("non-finite loss at epoch 0")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(trainer, "train", diverge_on_second_call)
    metrics, ops, rounds = run_workload(smoke("train-small-catalog"), 0, 0.0, trace,
                                        str(tmp_path))
    assert ops.failed == 1 and len(calls) == 2
    if trace:  # the lone untraced round is dropped, and no metric is reported
        assert (metrics, rounds) == ({}, [])
    else:  # the first round's metrics stand
        assert len(rounds) == 1 and set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


def fake_round(scale):
    return Round(prepare_s=[1.0 * scale, 3.0 * scale], setup_s=[0.5 * scale],
                 epoch_s=[2.0 * scale, 2.0 * scale], train_users=4, checkpoint_s=0.25 * scale,
                 eval_s=[1.0 * scale], eval_users=4, recall=0.5, items=10)


def test_pipeline_is_one_pass_at_mean_phase_times():
    # prepare mean 2 + set-up 0.5 + two epochs of 2 + checkpoint 0.25 + eval 1
    assert pipeline_s([fake_round(1.0)]) == pytest.approx(7.75)
    assert pipeline_s([fake_round(1.0), fake_round(3.0), fake_round(2.0)]) == pytest.approx(15.5)


def test_tracing_overhead_is_the_median_paired_difference():
    pairs = [(fake_round(1.0), fake_round(1.1)), (fake_round(2.0), fake_round(2.0)),
             (fake_round(1.0), fake_round(3.0))]
    got = tracing_overhead(pairs)
    assert got["trace.overhead_s"] == pytest.approx(0.775)
    assert got["trace.overhead_pct"] == pytest.approx(10.0)


def test_brute_top_k_orders_by_score_then_id():
    assert brute_top_k([0.5, 2.0, 0.5, 2.0, 1.0], 4) == [1, 3, 4, 0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-catalog",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
