"""The benchmark's workloads: how each one makes its interaction log from a
seed, which model it trains, and on which users it trains and evaluates.

Every workload is an offline batch job run by one closed-loop caller: the
next library call starts only when the previous one has returned.  Why each
workload exists is written in README.md and BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nextsession import synth
from nextsession.objective import LossConfig
from nextsession.sequence_encoder import SseConfig
from nextsession.session_encoder import IseConfig
from nextsession.trainer import TrainConfig


@dataclass(frozen=True)
class Workload:
    name: str
    log: dict  # keyword arguments of the log generator, without the seed
    train: dict  # TrainConfig fields, with "loss", "ise" and "sse" as dicts
    train_users: int | None = None  # first N users of the split; None = all
    eval_users: int | None = None
    eval_passes: int = 3  # evaluate() calls per round, each on all eval_users
    prepare_repeats: int = 3  # prepare calls per round
    setup_repeats: int = 7  # set-up calls per round
    generator: str = "copy-last-session"  # a synth pattern, or "long-history"

    def rows(self, seed: int) -> list[tuple]:
        if self.generator == "long-history":
            return long_history_rows(seed=seed, **self.log)
        return synth.generate(self.generator, seed=seed, **self.log)

    def train_config(self, seed: int) -> TrainConfig:
        blob = dict(self.train)
        return TrainConfig(
            seed=seed,
            loss=LossConfig(**blob.pop("loss")),
            ise=IseConfig(**blob.pop("ise")),
            sse=SseConfig(**blob.pop("sse")),
            **blob,
        )


def long_history_rows(seed, users, block, min_sessions, max_sessions, catalog,
                      pool, positives, exposures):
    """A log whose history length varies per user.

    Each user owns ``pool`` items; every session clicks ``positives`` of
    them and is exposed to ``exposures`` uniformly drawn catalog items.  In
    every block of ``block`` consecutive users the session counts are spread
    evenly over [min_sessions, max_sessions], in a seeded order, so every
    seed and every block holds the same amount of encoder work.  ``synth``
    cannot express this (it fixes one count for every user).  Timestamps
    follow ``synth``'s session-major layout.
    """
    if users % block:
        raise ValueError(f"users ({users}) must be a multiple of block ({block})")
    rng = np.random.default_rng(seed)
    spread = np.linspace(min_sessions, max_sessions, block).round().astype(int)
    lengths = np.concatenate([rng.permutation(spread) for _ in range(users // block)])
    rows = []
    for u in range(users):
        own = rng.choice(catalog, size=pool, replace=False)
        for s in range(lengths[u]):
            clicked = rng.choice(own, size=positives, replace=False)
            exposed = rng.integers(0, catalog, size=exposures)
            events = [(int(i), "click") for i in clicked]
            events += [(int(i), "exposure") for i in exposed]
            for pos, (item, action) in enumerate(events):
                ts = s * 10_000_000 + u * 1_000 + pos
                rows.append((f"u{u:05d}", f"i{item:05d}", f"u{u:05d}-s{s:03d}", ts, action))
    return rows


_ATTENTION_MODEL = {
    "batch_size": 8,
    "learning_rate": 0.02,
    "dropout": 0.0,
    "dim": 32,
    "loss": {"alpha": 0.2, "num_sampled_negatives": 128},
    "ise": {"kind": "mean"},
    "sse": {"backbone": "causal_attention", "layers": 2, "heads": 2},
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-small-catalog",
            log={"num_users": 200, "num_sessions": 10, "catalog": 500},
            train={**_ATTENTION_MODEL, "epochs": 3, "val_interval": 1, "val_k": 100},
            train_users=96,
            eval_passes=5,
        ),
        Workload(
            name="large-catalog",
            log={"num_users": 10_000, "num_sessions": 10, "catalog": 50_000},
            train={**_ATTENTION_MODEL, "epochs": 2, "val_interval": 0},
            train_users=64,
            eval_users=128,
            eval_passes=2,
            prepare_repeats=1,
            setup_repeats=1,
        ),
        Workload(
            name="long-history-gru",
            generator="long-history",
            log={"users": 96, "block": 8, "min_sessions": 3, "max_sessions": 60,
                 "catalog": 1000, "pool": 8, "positives": 4, "exposures": 8},
            train={
                "batch_size": 8,
                "learning_rate": 0.02,
                "dropout": 0.0,
                "dim": 32,
                "epochs": 4,
                "val_interval": 0,
                "loss": {"alpha": 1.0, "num_sampled_negatives": 128},
                "ise": {"kind": "recurrent"},
                "sse": {"backbone": "recurrent", "layers": 2},
            },
            # whole blocks: the same length mix on every seed
            train_users=8,
            eval_users=24,
        ),
    )
}
