"""End-to-end acceptance gate.

One test per shipping criterion, each built on an independent oracle
(finite differences, closed forms, brute-force reimplementations) or on a
frozen training recipe whose numbers were calibrated once and must keep
reproducing bitwise on a pinned platform.  Run `pytest -v tests/test_acceptance.py`
for one pass/fail line per criterion; add `-s` to see the measured numbers.

The slow criteria (learnability, rank-loss effect) take a couple of minutes
each; the whole module stays under ten minutes on one core.
"""

import dataclasses
import json
import math
import time

import numpy as np

import nextsession.tensor as T
from nextsession import cli
from nextsession.data import (
    DatasetSplit,
    UserSplit,
    filter_dataset,
    ingest,
    make_split,
)
from nextsession.evaluator import (
    complexity_bench,
    evaluate,
    ndcg_at_k,
    recall_at_k,
    scaling_run,
    top_k,
)
from nextsession.model import NextSessionModel
from nextsession.objective import LossConfig, TrainingTargets, build_targets, total_loss
from nextsession.session_encoder import IseConfig
from nextsession.sequence_encoder import SequenceEncoder, SseConfig
from nextsession.synth import generate, write_log
from nextsession.trainer import TrainConfig, train

from helpers import assert_grad_close, finite_difference, history, ragged

ISE_KINDS = ("mean", "max", "max_relu", "recurrent", "attention")
BACKBONES = ("causal_attention", "recurrent")


def _report(criterion, detail):
    print(f"[acceptance] {criterion}: PASS  {detail}")


def _pipeline(rows, tmp_path, protocol="session"):
    path = tmp_path / "log.csv"
    write_log(str(path), rows)
    interactions, features = ingest(str(path))
    sequences, catalog = filter_dataset(interactions, features)
    split = make_split(sequences, protocol, catalog.num_items)
    return split, catalog


def _promote_to_float64(model):
    for p in model.parameters().values():
        p.data = p.data.astype(np.float64)


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_01_gradients_match_finite_differences():
    """Analytic gradients of the full loss, through the whole model, match
    central finite differences in float64 on >= 20 random tiny instances."""
    start = time.perf_counter()
    n_instances = 24
    for idx in range(n_instances):
        rng = np.random.default_rng(900 + idx)
        dim = int(rng.choice([4, 6]))
        num_items = int(rng.integers(6, 11))
        cfg = TrainConfig(
            dim=dim,
            dropout=0.0,
            ise=IseConfig(kind=ISE_KINDS[idx % len(ISE_KINDS)], layers=1, heads=2),
            sse=SseConfig(backbone=BACKBONES[idx % len(BACKBONES)], layers=1,
                          heads=2, max_positions=8),
        )
        model = NextSessionModel(cfg, num_items, T.Parameters(rng))
        _promote_to_float64(model)

        sessions = []
        for s in range(int(rng.integers(3, 5))):
            pos = rng.choice(num_items, size=int(rng.integers(1, 4)), replace=False)
            neg = rng.choice(num_items, size=int(rng.integers(0, 3)), replace=False)
            items = list(map(int, pos)) + list(map(int, neg))
            sessions.append((items, [True] * len(pos) + [False] * len(neg),
                             list(range(s * 100, s * 100 + len(items)))))
        num_sampled = int(rng.integers(2, 9))
        view, _, targets = build_targets([history(*sessions)], num_items, num_sampled, rng)
        loss_cfg = LossConfig(alpha=float(rng.choice([0.0, 0.25, 0.8])),
                              num_sampled_negatives=num_sampled)

        params = list(model.parameters().items())
        out = model.forward_sessions(view)
        total_loss(out, targets, model.embedding, loss_cfg).total.backward()
        analytic = [
            p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for _, p in params
        ]

        def make_loss(arrays):
            for (_, p), a in zip(params, arrays):
                p.data = a
            with T.no_grad():
                out = model.forward_sessions(view)
                return float(total_loss(out, targets, model.embedding,
                                        loss_cfg).total.data)

        # eps small enough that no ReLU/max kink lands inside the central
        # window at these seeds, large enough to stay above rounding noise
        numeric = finite_difference(make_loss, [p.data for _, p in params],
                                    eps=3e-7)
        for (name, _), ana, num in zip(params, analytic, numeric):
            try:
                assert_grad_close(ana, num, tol=1e-4)
            except AssertionError as e:
                raise AssertionError(f"instance {idx}, parameter {name}: {e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s (budget 60s)"
    _report("criterion 1 (gradient correctness)",
            f"{n_instances} instances, rel tol 1e-4, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. closed-form losses
# ---------------------------------------------------------------------------

class _TableEmbedding:
    """Minimal embedding stand-in: a float64 lookup table."""

    def __init__(self, table):
        self.table = T.Tensor(np.asarray(table, dtype=np.float64))

    def embed_items(self, ids):
        return T.gather(self.table, np.asarray(ids, dtype=np.int64))


def test_criterion_02_closed_form_losses():
    # uniform logits, one positive vs one sampled negative -> ln 2 per term
    emb = _TableEmbedding(np.zeros((4, 3)))
    outputs = T.Tensor(np.zeros((1, 3)))
    targets = TrainingTargets(
        positives=ragged([[0]]),
        in_session_negatives=ragged([[]]),
        sampled_negatives=np.array([[1]]),
    )
    values = total_loss(outputs, targets, emb,
                        LossConfig(alpha=0.7, num_sampled_negatives=1))
    reported = values.reported()
    assert abs(reported["retrieval_mean"] - math.log(2.0)) < 1e-6
    # negative-free target session contributes exactly zero rank loss
    assert reported["rank_sum"] == 0.0
    assert float(values.total.data) == float(values.retrieval.data)

    # alpha-linearity: L(a1) + L(a2) == L(a1+a2) + L(0)
    rng = np.random.default_rng(42)
    emb = _TableEmbedding(rng.normal(0, 1, (8, 5)))
    outputs = T.Tensor(rng.normal(0, 1, (2, 5)))
    targets = TrainingTargets(
        positives=ragged([[1, 2], [3]]),
        in_session_negatives=ragged([[4], [5, 6]]),
        sampled_negatives=np.array([[0, 7], [2, 4]]),
    )

    def loss_at(alpha):
        return float(total_loss(outputs, targets, emb,
                                LossConfig(alpha=alpha, num_sampled_negatives=2)
                                ).total.data)

    a1, a2 = 0.3, 1.1
    gap = abs(loss_at(a1) + loss_at(a2) - loss_at(a1 + a2) - loss_at(0.0))
    assert gap < 1e-6
    _report("criterion 2 (closed-form losses)",
            f"ln2 / zero-rank / alpha-linearity gap {gap:.2e}")


# ---------------------------------------------------------------------------
# 3. causality and evaluator leakage
# ---------------------------------------------------------------------------

class _SpyModel:
    """Duck-typed evaluation model that records every user vector it emits,
    one per user row of a packed call."""

    def __init__(self, model):
        self._model = model
        self.cfg = model.cfg
        self.embedding = model.embedding
        self.seen = []

    def user_vector(self, view, sessions_per_user=None):
        out = self._model.user_vector(view, sessions_per_user)
        self.seen.extend(np.atleast_2d(out.data).copy())
        return out


def test_criterion_03_causality_and_leakage():
    # (a) sequence encoder: perturbing future tokens leaves earlier output
    # rows untouched, 100 randomized trials over both backbones
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        m = int(rng.integers(2, 11))
        enc = SequenceEncoder(
            SseConfig(backbone=BACKBONES[trial % 2], layers=1 + trial % 2,
                      heads=2, max_positions=16),
            4, T.Parameters(rng),
        )
        x = rng.normal(0, 1, (m, 4)).astype(np.float32)
        j = int(rng.integers(1, m))
        y = x.copy()
        y[j:] += rng.normal(0, 10, (m - j, 4)).astype(np.float32)
        with T.no_grad():
            o1 = enc.encode(T.Tensor(x)).data
            o2 = enc.encode(T.Tensor(y)).data
        assert np.max(np.abs(o1[:j] - o2[:j])) < 1e-6

    # (b) evaluator: rewriting the held-out targets must not change any user
    # vector the evaluator computes, 100 randomized trials
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        model = NextSessionModel(
            TrainConfig(dim=4, dropout=0.0, ise=IseConfig(kind="mean"),
                        sse=SseConfig(backbone=BACKBONES[trial % 2], layers=1,
                                      heads=2, max_positions=8)),
            20,
            T.Parameters(rng),
        )

        rng_sessions = [[rng.choice(20, 2, replace=False) for _ in range(3)]
                        for _ in range(3)]

        def make_users(target_rng):
            users = []
            for u in range(3):
                sessions = []
                for s in range(3):
                    items = list(map(int, rng_sessions[u][s]))
                    sessions.append((items, [True] * len(items),
                                     [s * 10 + i for i in range(len(items))]))
                targets = sorted(map(int, target_rng.choice(20, 2, replace=False)))
                users.append(UserSplit(f"u{u}", history(*sessions), targets))
            return users
        split_a = DatasetSplit("session", make_users(np.random.default_rng(1)),
                               20, {})
        split_b = DatasetSplit("session", make_users(np.random.default_rng(2)),
                               20, {})
        spy_a, spy_b = _SpyModel(model), _SpyModel(model)
        evaluate(spy_a, split_a, cutoffs=(5,))
        evaluate(spy_b, split_b, cutoffs=(5,))
        assert len(spy_a.seen) == len(spy_b.seen) == 3
        for va, vb in zip(spy_a.seen, spy_b.seen):
            assert np.max(np.abs(va - vb)) < 1e-6
    _report("criterion 3 (causality & leakage)", "100 trials each, diff < 1e-6")


# ---------------------------------------------------------------------------
# 4. item-level degeneracy
# ---------------------------------------------------------------------------

def test_criterion_04_item_level_degeneracy():
    """Singleton sessions + mean aggregation must equal an item-level
    pipeline that skips the session stage entirely, bitwise."""
    for backbone in BACKBONES:
        model = NextSessionModel(
            TrainConfig(dim=8, dropout=0.0, ise=IseConfig(kind="mean"),
                        sse=SseConfig(backbone=backbone, layers=2, heads=2,
                                      max_positions=16)),
            20,
            T.Parameters(np.random.default_rng(11)),
        )
        items = [3, 7, 1, 12, 5]
        full = model.forward_sessions(ragged([[it] for it in items])).data
        with T.no_grad():
            vecs = model.embedding.embed_items(np.asarray(items))
            bypass = model.sequence_encoder.encode(vecs).data
        assert np.array_equal(full, bypass), f"{backbone} output differs"
    _report("criterion 4 (item-level degeneracy)",
            "bitwise equal for both backbones")


# ---------------------------------------------------------------------------
# 5. attention cost ratio
# ---------------------------------------------------------------------------

def test_criterion_05_attention_cost_ratio():
    """Session-level attention sees n/M tokens, so pair counts shrink by
    exactly M^2.  The measured time ratio is asserted only at the largest
    size, where both forwards are compute-bound rather than dispatch-bound."""
    start = time.perf_counter()
    ratios = {}
    for n, m in ((1024, 8), (1024, 16), (4096, 16)):
        res = complexity_bench(n, m)
        assert res["pair_ratio"] == m * m
        assert res["item_level_pairs"] == n * n
        assert res["session_level_pairs"] == (n // m) ** 2
        ratios[(n, m)] = res["time_ratio"]
    band = (0.3 * 256, 3 * 256)
    assert band[0] <= ratios[(4096, 16)] <= band[1], (
        f"time ratio {ratios[(4096, 16)]:.1f} outside {band}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"bench took {elapsed:.1f}s (budget 120s)"
    detail = ", ".join(f"{k}: {v:.1f}x" for k, v in ratios.items())
    _report("criterion 5 (attention cost ratio)", f"{detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. learnability
# ---------------------------------------------------------------------------

def test_criterion_06_learnability_copy_task(tmp_path):
    """Copy-last-session corpus (200 users, 10 sessions, catalog 500, d=32):
    Recall@10 >= 0.9 within 50 epochs, under five minutes."""
    start = time.perf_counter()
    rows = generate("copy-last-session", num_users=200, num_sessions=10,
                    catalog=500, seed=0)
    split, catalog = _pipeline(rows, tmp_path)
    cfg = TrainConfig(
        batch_size=8, learning_rate=0.02, epochs=35, dropout=0.0, seed=0,
        dim=32, val_interval=5, val_k=10,
        loss=LossConfig(alpha=0.2, num_sampled_negatives=128),
        ise=IseConfig(kind="mean"),
        sse=SseConfig(backbone="recurrent", layers=1),
    )
    assert cfg.epochs <= 50
    result = train(split, cfg, catalog=catalog)
    report = evaluate(result.model, split, cutoffs=(10,))
    elapsed = time.perf_counter() - start
    assert report.recall[10] >= 0.9, f"Recall@10 = {report.recall[10]:.4f} < 0.9"
    assert elapsed < 300.0, f"took {elapsed:.0f}s (budget 300s)"
    _report("criterion 6 (learnability)",
            f"Recall@10 = {report.recall[10]:.4f} in {cfg.epochs} epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. rank-loss effect
# ---------------------------------------------------------------------------

def test_criterion_07_rank_loss_effect(tmp_path):
    """On the twin-pair hard-negative corpus, a moderate rank-loss weight
    cleans the exposure distractors out of the top ranks (NDCG@10 up >= 5%
    relative), while an aggressive weight starts demoting future positives
    (Recall@500 down vs the moderate weight).  One seed for every cell."""
    start = time.perf_counter()
    rows = generate("hard-negative-sessions", num_users=220, num_sessions=10,
                    seed=0)
    split, catalog = _pipeline(rows, tmp_path)
    base = TrainConfig(
        batch_size=8, learning_rate=0.02, epochs=25, dropout=0.0, seed=0,
        dim=32, val_interval=0, val_k=500,
        loss=LossConfig(alpha=0.2, num_sampled_negatives=32),
        ise=IseConfig(kind="mean"),
        sse=SseConfig(backbone="recurrent", layers=1),
    )
    reports = {}
    for alpha in (0.0, 0.2, 2.0):
        cfg = dataclasses.replace(
            base, loss=dataclasses.replace(base.loss, alpha=alpha))
        result = train(split, cfg, catalog=catalog)
        reports[alpha] = evaluate(result.model, split, cutoffs=(10, 500))
    gain = reports[0.2].ndcg[10] / reports[0.0].ndcg[10] - 1.0
    assert gain >= 0.05, (
        f"NDCG@10 {reports[0.0].ndcg[10]:.4f} -> {reports[0.2].ndcg[10]:.4f}, "
        f"relative gain {gain * 100:.1f}% < 5%"
    )
    assert reports[2.0].recall[500] < reports[0.2].recall[500], (
        f"Recall@500 at alpha=2 ({reports[2.0].recall[500]:.4f}) not below "
        f"alpha=0.2 ({reports[0.2].recall[500]:.4f})"
    )
    elapsed = time.perf_counter() - start
    _report("criterion 7 (rank-loss effect)",
            f"NDCG@10 gain {gain * 100:+.1f}%, Recall@500 "
            f"{reports[0.2].recall[500]:.4f} -> {reports[2.0].recall[500]:.4f} "
            f"at alpha=2, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. metric oracles
# ---------------------------------------------------------------------------

def _brute_top_k(scores, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[:k]


def _brute_recall(ranked, targets, k):
    return sum(1 for it in ranked[:k] if it in targets) / len(targets)


def _brute_ndcg(ranked, targets, k):
    dcg = sum(1.0 / math.log2(p + 1)
              for p, it in enumerate(ranked[:k], start=1) if it in targets)
    ideal = sum(1.0 / math.log2(p + 1)
                for p in range(1, min(k, len(targets)) + 1))
    return dcg / ideal


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(8)
    unit = np.array([1.0])
    for _ in range(10_000):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(1, n + 1))
        scores = rng.normal(0, 1, n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # provoke ties
        targets = set(map(int, rng.choice(n, size=int(rng.integers(1, min(6, n + 1))),
                                          replace=False)))
        ranked = top_k(unit, scores[:, None], k)
        assert list(ranked) == _brute_top_k(scores, k)
        assert abs(recall_at_k(ranked, targets, k) -
                   _brute_recall(list(ranked), targets, k)) < 1e-12
        assert abs(ndcg_at_k(ranked, targets, k) -
                   _brute_ndcg(list(ranked), targets, k)) < 1e-12

    # random rankings over a 1000-item catalog hit 10 targets in the top 100
    # at rate k/|V| = 0.1 in expectation
    mc = np.random.default_rng(88)
    targets = list(range(10))
    mean_recall = float(np.mean([
        recall_at_k(mc.permutation(1000)[:100], targets, 100)
        for _ in range(10_000)
    ]))
    assert abs(mean_recall - 0.100) <= 0.01, f"mean Recall@100 {mean_recall:.4f}"
    _report("criterion 8 (metric oracles)",
            f"10^4 instances exact, Monte-Carlo mean Recall@100 = {mean_recall:.4f}")


# ---------------------------------------------------------------------------
# 9. pipeline determinism
# ---------------------------------------------------------------------------

def _cli_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    log, data = root / "log.csv", root / "data"
    run, ev = root / "run", root / "ev"
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sse": {"layers": 1, "heads": 2, "max_positions": 32},
        "loss": {"num_sampled_negatives": 8},
    }))
    steps = [
        ["synth", "--pattern", "copy-last-session", "--users", "30",
         "--sessions", "6", "--catalog", "50", "--seed", "7", "--out", str(log)],
        ["prepare-data", "--input", str(log), "--output", str(data)],
        ["train", "--data", str(data), "--out", str(run), "--config", str(cfg_path),
         "--epochs", "3", "--batch-size", "8", "--dim", "8", "--dropout", "0.0",
         "--seed", "0", "--val-k", "10"],
        ["evaluate", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data),
         "--out", str(ev), "--cutoffs", "10,50"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, f"step failed: {argv[0]}"
    return (ev / "report.json").read_bytes()


def test_criterion_09_pipeline_determinism(tmp_path):
    """Two single-threaded synth -> prepare -> train(3 epochs) -> evaluate
    runs with the same seeds produce byte-identical reports."""
    first = _cli_pipeline(tmp_path / "a")
    second = _cli_pipeline(tmp_path / "b")
    assert first == second, "reports differ between identical runs"
    _report("criterion 9 (pipeline determinism)",
            f"reports byte-identical ({len(first)} bytes)")


# ---------------------------------------------------------------------------
# 10. scaling harness
# ---------------------------------------------------------------------------

def test_criterion_10_scaling_harness(tmp_path):
    """Four chronological fractions each yield a finite
    (train_items, Recall@500) point; monotonicity is reported, not asserted."""
    rows = generate("copy-last-session", num_users=250, num_sessions=8,
                    catalog=700, seed=3)
    split, catalog = _pipeline(rows, tmp_path)
    assert split.catalog_size >= 500  # keep Recall@500 a genuine cutoff
    cfg = TrainConfig(
        batch_size=16, learning_rate=0.02, epochs=2, dropout=0.0, seed=0,
        dim=8, val_interval=0, val_k=10,
        loss=LossConfig(alpha=0.2, num_sampled_negatives=8),
        ise=IseConfig(kind="mean"),
        sse=SseConfig(backbone="recurrent", layers=1),
    )
    points = scaling_run(split, cfg, fractions=(0.25, 0.5, 0.75, 1.0),
                         catalog=catalog, recall_k=500)
    assert len(points) == 4
    for row in points:
        assert "skipped" not in row, f"fraction {row['fraction']} skipped: {row}"
        assert row["train_items"] > 0
        assert np.isfinite(row["recall@500"])
    sizes = [row["train_items"] for row in points]
    assert sizes == sorted(sizes) and len(set(sizes)) == 4
    detail = ", ".join(f"({r['train_items']}, {r['recall@500']:.3f})" for r in points)
    _report("criterion 10 (scaling harness)", detail)
