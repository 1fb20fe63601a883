"""One workload run: rounds of the whole pipeline through the library's
public API, the checks on their outputs, and the metrics they yield.

A round is prepare (ingest -> filter -> save) -> set-up (load -> split) ->
train -> checkpoint save/load/restore -> evaluate.  Every library call is
made from here, one after another.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from statistics import fmean, median

import numpy as np

from nextsession import data, evaluator, synth, tensor, trainer
from nextsession.data import DatasetSplit

from spans import Tracer, layer_metrics
from workloads import Workload

RECALL_K = 100
CUTOFFS = (10, RECALL_K)
MIN_ROUNDS = 2  # the fewest for which recall's repeatability is checked
MIN_PAIRS = 2  # untraced/traced round pairs in a traced run, at least
ORACLE_USERS = 8  # evaluated users whose top-K is checked by brute force


class Ops:
    """Counts operations attempted and failed; a failed check is reported
    on stderr and makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Round:
    prepare_s: list[float]  # every prepare call of the round
    setup_s: list[float]  # every set-up call of the round
    epoch_s: list[float]  # wall of each epoch inside train(), validation included
    train_users: int  # users trained per epoch
    checkpoint_s: float
    eval_s: list[float]  # wall of each evaluate() call, one per pass
    eval_users: int  # users scored by each evaluate() call
    recall: float
    items: int


def mean_s(rounds: list[Round], attr: str) -> float:
    """Mean of one phase's samples over ``rounds``."""
    return fmean([x for r in rounds for x in getattr(r, attr)])


def pipeline_s(rounds: list[Round]) -> float:
    """One pass of the pipeline with each phase at its mean over ``rounds``:
    prepare + set-up + one train() call + checkpoint + one evaluate() call."""
    return (mean_s(rounds, "prepare_s") + mean_s(rounds, "setup_s")
            + len(rounds[0].epoch_s) * mean_s(rounds, "epoch_s")
            + fmean([r.checkpoint_s for r in rounds]) + mean_s(rounds, "eval_s"))


def first_users(split: DatasetSplit, n: int | None) -> DatasetSplit:
    if n is None:
        return split
    return DatasetSplit(split.protocol, split.users[:n], split.catalog_size, split.stats)


def set_up(data_dir: str):
    sequences, catalog, meta = data.load_dataset(data_dir)
    split = data.make_split(
        sequences, "session", catalog.num_items,
        max_positive_len=meta["max_positive_len"],
    )
    return split, catalog


def brute_top_k(scores: np.ndarray, k: int) -> list[int]:
    """Reference ranking: descending score, ties by ascending id."""
    return sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))[:k]


def run_round(wl: Workload, seed: int, log_path: str, work_dir: str, ops: Ops,
              tracer: Tracer | None = None) -> Round:
    cfg = wl.train_config(seed)
    data_dir = os.path.join(work_dir, "data")
    ckpt_path = os.path.join(work_dir, "checkpoint.bin")
    clock = time.perf_counter
    scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with scope:
        # Every prepare and set-up call starts from the same heap: the
        # previous result dropped and a full collection done, so the
        # collector's state does not carry over from one sample to the next.
        # A traced round calls each once, so the data spans count one call.
        prepare_s, setup_s = [], []
        for _ in range(wl.prepare_repeats if tracer is None else 1):
            gc.collect()
            start = clock()
            interactions, feature_names = data.ingest(log_path)
            sequences, catalog = data.filter_dataset(interactions, feature_names)
            data.save_dataset(data_dir, sequences, catalog)
            prepare_s.append(clock() - start)
            interactions = sequences = catalog = None
        for _ in range(wl.setup_repeats if tracer is None else 1):
            split = catalog = None
            gc.collect()
            start = clock()
            split, catalog = set_up(data_dir)
            setup_s.append(clock() - start)

        train_split = first_users(split, wl.train_users)
        epoch_ends = [clock()]
        result = trainer.train(train_split, cfg, catalog=catalog,
                               log_fn=lambda entry: epoch_ends.append(clock()))

        start = clock()
        trainer.save_checkpoint(
            ckpt_path, result.model, cfg, epoch=result.best_epoch,
            data_hash=trainer.stats_hash(split.stats),
        )
        model = trainer.restore_model(
            trainer.load_checkpoint(ckpt_path), catalog=catalog, expected_config=cfg
        )
        checkpoint_s = clock() - start

        eval_split = first_users(split, wl.eval_users)
        eval_s, reports = [], []
        for _ in range(wl.eval_passes):
            start = clock()
            reports.append(evaluator.evaluate(model, eval_split, cutoffs=CUTOFFS))
            eval_s.append(clock() - start)

    # train() raises TrainingDiverged on a non-finite batch loss, which
    # run_workload counts as a failed operation; here each epoch it finished
    # is one passed check.
    for entry in result.history:
        ops.check(math.isfinite(entry["train_total_mean"]),
                  f"epoch {entry['epoch']} loss {entry['train_total_mean']}")
    n_eval = len(eval_split.users)
    for report in reports:
        ops.check(report.num_users == n_eval,
                  f"evaluate() scored {report.num_users} of {n_eval} users")
    recalls = [report.recall[RECALL_K] for report in reports]
    ops.check(len(set(recalls)) == 1, f"recall@{RECALL_K} differs between passes: {recalls}")
    trained = result.model.parameters()
    ops.check(all(np.array_equal(p.data, trained[n].data)
                  for n, p in model.parameters().items()),
              "restored checkpoint differs from the trained model")
    check_top_k(model, eval_split.users[:ORACLE_USERS], RECALL_K, ops)

    return Round(
        prepare_s=prepare_s,
        setup_s=setup_s,
        epoch_s=list(np.diff(epoch_ends)),
        train_users=len(train_split.users),
        checkpoint_s=checkpoint_s,
        eval_s=eval_s,
        eval_users=n_eval,
        recall=recalls[0],
        items=catalog.num_items,
    )


def check_top_k(model, users, k: int, ops: Ops) -> None:
    """evaluator.top_k against the brute-force ranking of the same float32
    scores, for each of ``users``."""
    with tensor.no_grad():
        item_matrix = model.embedding.output_item_vectors().data
        for user in users:
            uvec = model.user_vector(data.encoder_views(user.train_sessions)).data
            got = [int(i) for i in evaluator.top_k(uvec, item_matrix, k)]
            ops.check(got == brute_top_k(item_matrix @ uvec, k),
                      f"top_k differs from the oracle for user {user.user_id}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Means over every sample of the run; a rate is the work of all its
    samples over their total time.

    Means, not medians: a shared virtual machine can switch between a fast
    and a slow state for seconds to minutes at a time.  A mean moves in
    proportion to the share of a run spent slow, where a median jumps to
    whichever state held the larger part of the run (README.md, "Noise on a
    shared host").
    """
    return {
        "setup_s": mean_s(rounds, "setup_s"),
        "prepare_s": mean_s(rounds, "prepare_s"),
        "train_users_per_s": sum(r.train_users * len(r.epoch_s) for r in rounds)
        / sum(sum(r.epoch_s) for r in rounds),
        "eval_users_per_s": sum(r.eval_users * len(r.eval_s) for r in rounds)
        / sum(sum(r.eval_s) for r in rounds),
        "pipeline_s": pipeline_s(rounds),
        "peak_rss_mb": peak_rss_mb(),
    }


def tracing_overhead(pairs: list[tuple[Round, Round]]) -> dict[str, float]:
    """Median over (untraced, traced) round pairs of the difference in
    ``pipeline_s``, in seconds and as a percentage of the untraced round."""
    diffs = [(pipeline_s([t]) - pipeline_s([u]), pipeline_s([u])) for u, t in pairs]
    return {
        "trace.overhead_s": median([d for d, _ in diffs]),
        "trace.overhead_pct": median([100.0 * d / base for d, base in diffs]),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: str) -> tuple[dict[str, float], Ops, list[Round]]:
    """Generate the log (untimed), run rounds, check them, return metrics.

    Untraced: rounds repeat until another one would end past ``seconds``,
    but at least ``MIN_ROUNDS`` run.  Traced: pairs of one untraced and one
    traced round, in the same way but at least ``MIN_PAIRS`` of them.  The
    per-layer metrics come from the traced rounds, and the tracing overhead
    from the pairs.

    A round that raises (``TrainingDiverged`` among others) counts as one
    failed operation and ends the run.  An untraced run then reports the
    metrics of the rounds that completed, or none; a traced run reports
    none, since its spans may hold a part of a round.
    """
    ops = Ops()
    log_path = os.path.join(work_dir, "log.csv")
    synth.write_log(log_path, wl.rows(seed))

    tracer = Tracer() if trace else None
    rounds: list[Round] = []
    aborted = False
    step = 2 if trace else 1  # rounds per unit of repetition
    least = MIN_PAIRS * 2 if trace else MIN_ROUNDS
    start = time.perf_counter()
    while len(rounds) < least or (
        time.perf_counter() - start
    ) * (len(rounds) + step) / len(rounds) <= seconds:
        try:
            rounds.append(run_round(wl, seed, log_path, work_dir, ops))
            if trace:
                rounds.append(run_round(wl, seed, log_path, work_dir, ops, tracer))
        except Exception as exc:
            traceback.print_exc()
            ops.check(False, f"round {len(rounds)} raised {type(exc).__name__}: {exc}")
            aborted = True
            break
    rounds = rounds[:len(rounds) // step * step]  # drop an unpaired untraced round

    for r in rounds[1:]:
        ops.check(r.recall == rounds[0].recall,
                  f"recall@{RECALL_K} {r.recall!r} differs from the first round's "
                  f"{rounds[0].recall!r} on the same seed")
    if not rounds or (trace and aborted):
        return {}, ops, rounds
    if not trace:
        return end_to_end(rounds), ops, rounds
    pairs = list(zip(rounds[0::2], rounds[1::2]))
    metrics = layer_metrics(tracer.spans, rounds=len(pairs))
    metrics.update(tracing_overhead(pairs))
    metrics["evaluator.recall_at_100"] = rounds[1].recall
    return metrics, ops, rounds
