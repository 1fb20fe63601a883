"""Training loop, optimizer, experiment config, and checkpoint I/O.

``TrainConfig`` is the one config: ``train`` builds the model from it,
checkpoints store it, and ``restore_model`` builds the model of the stored
copy straight from the checkpoint's tensors.  A checkpoint is one npz
archive, a JSON header plus one member per parameter, read by the reader
that loads a dataset's arrays.  Validation ranks users with
``evaluator.ranked``, the loop that ``evaluator.evaluate`` uses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .data import Catalog, DatasetSplit, read_archive, write_archive
from .model import NextSessionModel
from .objective import LossConfig, build_targets, total_loss, user_targets
from .session_encoder import IseConfig
from .sequence_encoder import SseConfig


# Users packed into one training graph; a larger minibatch, sorted by
# session count (ties in shuffled order), is trained as consecutive graphs
# of this many, so a graph's histories are of similar length.  Packing all
# of a minibatch's users is faster (train_users_per_s on long-history-gru at
# batch 8: 2.4x one graph per user, against 1.3x at 2), but the traced
# smoke runs in perfbench/tests, with 3 to 5 minibatches per round, need at
# least 20 graphs for a step-latency percentile, and 2 is the largest size
# that gives them that.  What a graph costs whatever its size is kept
# small instead: its targets are joined from per-user records built once
# per train() call (``objective.user_targets``), and each encoder block is
# one node.
PACK_USERS = 2


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """Checked when made, each nested config checking its own fields: ``batch_size``,
    ``dim``, ``val_k``, ``feature_dim`` and ``id_dim`` (unless None) >= 1; ``epochs``,
    ``val_interval`` and ``seed`` >= 0; ``learning_rate`` positive and finite; ``dropout``
    in [0, 1); ``heads`` >= 1 dividing ``dim`` for attention ISE or SSE ``layers`` >= 1."""

    batch_size: int = 64
    learning_rate: float = 0.001
    epochs: int = 200
    dropout: float = 0.2
    seed: int = 0
    dim: int = 64
    id_dim: int | None = None
    feature_dim: int = 16
    val_interval: int = 1
    val_k: int = 500
    loss: LossConfig = field(default_factory=LossConfig)
    ise: IseConfig = field(default_factory=IseConfig)
    sse: SseConfig = field(default_factory=SseConfig)

    def __post_init__(self):
        # a float field holds a float, so equal configs hash equal
        self.learning_rate, self.dropout = float(self.learning_rate), float(self.dropout)
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if not 0 < self.learning_rate < math.inf:  # also a NaN rate
            raise ValueError(f"learning_rate must be a positive finite number, "
                             f"got {self.learning_rate}")
        if self.dim < 1 or self.val_k < 1:
            raise ValueError(f"dim and val_k must be >= 1, got {self.dim} and {self.val_k}")
        if self.id_dim is not None and self.id_dim < 1:
            raise ValueError(f"id_dim must be >= 1 (or null to use dim), got {self.id_dim}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.val_interval < 0:
            raise ValueError(f"val_interval must be >= 0 (0 turns validation off), "
                             f"got {self.val_interval}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:  # also a NaN rate
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name, sub, attends in (("ise", self.ise, self.ise.kind == "attention"),
                                   ("sse", self.sse, self.sse.backbone == "causal_attention")):
            if attends and sub.layers and (sub.heads < 1 or self.dim % sub.heads):
                raise ValueError(f"{name}.heads ({sub.heads}) must be >= 1 and divide "
                                 f"dim ({self.dim})")


def config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


_FIELD_TYPES = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "int | None": (int, type(None)),
}


def _field_values(cls, values: dict, prefix: str = "") -> dict:
    """Check ``values`` against ``cls``'s fields."""
    kwargs = {}
    for key, value in values.items():
        name = prefix + key
        if key not in cls.__dataclass_fields__:
            raise ValueError(f"unknown config key {name!r}")
        kind = cls.__dataclass_fields__[key].type
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
            raise ValueError(f"config field {name!r} must be {kind}, got {value!r}")
        kwargs[key] = value
    return kwargs


def config_from_dict(blob: dict) -> TrainConfig:
    if not isinstance(blob, dict):
        raise ValueError(f"config must be a mapping, got {type(blob).__name__}")
    nested = {"loss": LossConfig, "ise": IseConfig, "sse": SseConfig}
    kwargs = _field_values(TrainConfig, {k: v for k, v in blob.items() if k not in nested})
    for key, cls in nested.items():
        if key in blob:
            if not isinstance(blob[key], dict):
                raise ValueError(f"config field {key!r} must be a mapping")
            kwargs[key] = cls(**_field_values(cls, blob[key], f"{key}."))
    return TrainConfig(**kwargs)


def _dotted(cfg: TrainConfig) -> dict:
    """The config's values by dotted path, such as ``sse.heads``."""
    out = config_to_dict(cfg)
    for key in [key for key, value in out.items() if isinstance(value, dict)]:
        out.update({f"{key}.{sub}": value for sub, value in out.pop(key).items()})
    return out


def config_hash(cfg: TrainConfig) -> str:
    return stats_hash(config_to_dict(cfg))


def stats_hash(stats: dict) -> str:
    """The first 16 hex digits of the sha256 of ``stats`` as sorted-key JSON."""
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()[:16]


class Adam:
    """Adam (Kingma & Ba, 2015), lazy per row for gathered tables.

    A parameter whose gradient only ``tensor.gather`` wrote (its ``rows``
    record is set) is updated at the distinct rows those gathers touched, as
    in LazyAdam or SparseAdam: the rows of items absent from a step keep
    both their values and moments.  Every other parameter takes the standard
    update of every entry, an exactly-zero gradient included.  The
    bias-correction step count is global.
    """

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.names = sorted(params)
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(params[n].data) for n in self.names}
        self.v = {n: np.zeros_like(params[n].data) for n in self.names}

    def zero_grad(self):
        for n in self.names:
            self.params[n].grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.B1 ** self.t
        bc2 = 1.0 - self.B2 ** self.t
        for n in self.names:
            p = self.params[n]
            if p.grad is None:
                continue
            if p.rows is None:
                at = slice(None)
            else:  # the sorted distinct rows, as np.unique gives them, without a sort
                touched = np.zeros(len(p.data), dtype=bool)
                for rows in p.rows:
                    touched[rows] = True
                at = np.flatnonzero(touched)
            g = p.grad[at]
            m = self.B1 * self.m[n][at] + (1.0 - self.B1) * g
            v = self.B2 * self.v[n][at] + (1.0 - self.B2) * g * g
            self.m[n][at], self.v[n][at] = m, v
            mhat = m / bc1
            vhat = v / bc2
            p.data[at] -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)


def _param_norm(params: dict) -> float:
    return float(np.sqrt(sum(float(np.sum(p.data.astype(np.float64) ** 2))
                             for p in params.values())))


def _first_nonfinite_grad(params: dict) -> str:
    """Name the first parameter, in sorted order, with a non-finite gradient."""
    for name in sorted(params):
        g = params[name].grad
        if g is not None and not np.isfinite(g).all():
            return f"first non-finite gradient in {name}"
    return "no parameter gradient is non-finite"


@dataclass
class TrainResult:
    model: NextSessionModel
    history: list
    best_epoch: int  # the epoch whose weights ``model`` holds
    best_metric: float | None  # None when no validation ran


def _validation_recall(model, records, val_k):
    """Recall@val_k of each user's last train session given the earlier
    ones, read from the users' ``objective.user_targets`` records: each
    record's view is ranked against its ``last_positives``.  Each block of
    ``evaluator.SCORE_USERS`` views is encoded by one ``user_vector`` call:
    unlike ``evaluate()``, validation has no per-call latency to sample."""
    from .evaluator import SCORE_USERS, block_metrics, mean_in_user_order, ranked

    k = min(val_k, model.embedding.num_items)
    recalls = np.empty(len(records))
    for index, ids in ranked(model, [r.view for r in records], k, SCORE_USERS):
        targets = [records[i].last_positives() for i in index]
        recalls[index] = block_metrics(ids, targets, (k,))[0][0]
    return mean_in_user_order(recalls)


def trainable_users(split: DatasetSplit, cfg: TrainConfig) -> list:
    """The split's users with at least two train sessions, in split order; a
    ValueError when there are none, or when any train view holds more than
    ``cfg.sse.max_positions`` sessions, since evaluation encodes whole views."""
    users = [user for user in split.users if len(user.train_sessions) >= 2]
    if not users:
        raise ValueError("no trainable users: every train view has < 2 sessions")
    longest = max(len(user.train_sessions) for user in split.users)
    if longest > cfg.sse.max_positions:
        raise ValueError(
            f"a train view holds {longest} sessions, more than sse.max_positions="
            f"{cfg.sse.max_positions}; raise sse.max_positions or re-run prepare-data "
            f"with --max-pos-len {cfg.sse.max_positions} or less"
        )
    return users


def train(
    split: DatasetSplit,
    cfg: TrainConfig,
    catalog: Catalog | None = None,
    log_fn=None,
) -> TrainResult:
    """Run the full optimization loop and return the best-validation model.

    Per epoch: shuffle users and form minibatches.  A minibatch is sorted
    in ascending order of session count, ties in shuffled order, and
    trained as graphs of ``PACK_USERS`` consecutive users of that order, so
    a graph's recurrent encoder runs few steps past its shorter histories;
    where every user has the same session count the shuffled order is kept
    and so are the floats, and on ragged histories the sort changes which
    users share a graph and which negatives each draws.  Each graph packs
    its users into one model input, scores all of their positions with one
    raw-sum loss and is back-propagated once; the graphs' gradients add up
    before the minibatch's one optimizer step.  Model selection is by
    validation recall on each user's final train session; when no
    validation runs, the final epoch's model is returned with no metric.
    Only ``trainable_users`` train, and its checks of the split run before
    the model is built.
    """
    train_users = [(user.user_id, user.train_sessions) for user in trainable_users(split, cfg)]
    records = user_targets([sessions for _, sessions in train_users])
    ss = np.random.SeedSequence(cfg.seed)
    init_rng, neg_rng, drop_rng, shuffle_rng = (
        np.random.default_rng(s) for s in ss.spawn(4)
    )
    model = NextSessionModel(cfg, split.catalog_size, T.Parameters(init_rng), catalog)
    params = model.parameters()
    opt = Adam(params, cfg.learning_rate)

    session_counts = np.array([len(sessions) for _, sessions in train_users])
    history = []
    best_metric = None
    best_epoch = -1
    best_state = None  # the weights of the best validated epoch

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(train_users))
        epoch_total = 0.0
        epoch_retr = 0.0
        epoch_rank = 0.0
        n_pos = 0
        n_rank = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            batch = batch[np.argsort(session_counts[batch], kind="stable")]
            opt.zero_grad()
            batch_total = 0.0
            for lo in range(0, len(batch), PACK_USERS):
                view, sessions_per_user, targets = build_targets(
                    [records[ui] for ui in batch[lo : lo + PACK_USERS]],
                    split.catalog_size, cfg.loss.num_sampled_negatives, neg_rng,
                )
                outputs = model.forward_sessions(
                    view, training=True, dropout_rng=drop_rng,
                    sessions_per_user=sessions_per_user,
                )
                losses = total_loss(outputs, targets, model.embedding, cfg.loss)
                losses.total.backward()
                batch_total += losses.total.item()
                epoch_retr += losses.retrieval.item()
                epoch_rank += losses.rank.item()
                n_pos += losses.retrieval_count
                n_rank += losses.rank_count
            epoch_total += batch_total
            if not np.isfinite(batch_total):
                users = [train_users[ui][0] for ui in batch]
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} on batch users {users}; "
                    f"parameter norm {_param_norm(params):.4g}; "
                    f"{_first_nonfinite_grad(params)}"
                )
            opt.step()

        entry = {
            "epoch": epoch,
            "train_total_mean": epoch_total / max(n_pos, 1),
            "train_retrieval_mean": epoch_retr / max(n_pos, 1),
            "train_rank_mean": epoch_rank / max(n_rank, 1),
        }
        if cfg.val_interval > 0 and (epoch + 1) % cfg.val_interval == 0:
            val = _validation_recall(model, records, cfg.val_k)
            entry["val_recall"] = val
            if best_metric is None or val > best_metric:
                best_metric = val
                best_epoch = epoch
                best_state = {n: p.data.copy() for n, p in params.items()}
        history.append(entry)
        if log_fn is not None:
            log_fn(entry)

    if best_metric is None:
        best_epoch = cfg.epochs - 1
    else:
        for n, p in params.items():
            p.data[...] = best_state[n]
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_metric=best_metric,
    )


# ---------------------------------------------------------------------------
# checkpoint format 3: one ``data.write_archive`` archive, the layout of a
# dataset's.  Its header holds the format version, config, data hash, epoch
# and metrics; every other member is the parameter of its name.
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = 3


def save_checkpoint(
    path: str,
    model: NextSessionModel,
    cfg: TrainConfig,
    epoch: int,
    metrics: dict | None = None,
    data_hash: str = "",
) -> None:
    header = {
        "format_version": CHECKPOINT_FORMAT,
        "config": config_to_dict(cfg),
        "data_hash": data_hash,
        "epoch": epoch,
        "metrics": metrics or {},
    }
    params = model.parameters()
    write_archive(path, header, {name: params[name].data for name in sorted(params)})


@dataclass
class CheckpointData:
    config: TrainConfig
    data_hash: str
    epoch: int
    metrics: dict
    tensors: dict


def load_checkpoint(path: str) -> CheckpointData:
    """Read a checkpoint of format ``CHECKPOINT_FORMAT``; a file of any
    other format, or a damaged one, is a ValueError naming ``path``."""
    header, tensors = read_archive(path, "checkpoint", CHECKPOINT_FORMAT, "retrain the model",
                                   ("config", "data_hash", "epoch", "metrics"))
    try:
        config = config_from_dict(header["config"])
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return CheckpointData(
        config=config,
        data_hash=header["data_hash"],
        epoch=header["epoch"],
        metrics=header["metrics"],
        tensors=tensors,
    )


def restore_model(
    ckpt: CheckpointData,
    catalog: Catalog | None = None,
    expected_config: TrainConfig | None = None,
    force: bool = False,
) -> NextSessionModel:
    """Build the model of a checkpoint's config straight from its tensors.

    Every parameter is a copy of the stored tensor of its name, so the
    model shares no memory with ``ckpt`` and draws no random numbers.  A
    missing, extra or wrongly shaped tensor is a ValueError naming it.
    When expected_config is given and a field differs, refuses unless
    force; the error names the first differing field by its dotted path.
    """
    if expected_config is not None and not force:
        want, got = _dotted(expected_config), _dotted(ckpt.config)
        for path in sorted(want):
            if want[path] != got[path]:
                raise ValueError(f"checkpoint config mismatch on {path!r}: checkpoint has "
                                 f"{got[path]!r}, expected {want[path]!r} (pass force to override)")

    table = ckpt.tensors.get("emb.item_table")
    if table is None:
        raise ValueError("checkpoint has no tensor 'emb.item_table'")
    if table.ndim != 2:
        raise ValueError(f"checkpoint tensor 'emb.item_table' is not a matrix: "
                         f"shape {table.shape}")
    params = T.Parameters(stored=ckpt.tensors)
    model = NextSessionModel(ckpt.config, table.shape[0], params, catalog)
    extra = sorted(set(ckpt.tensors) - set(params))
    if extra:
        raise ValueError(f"checkpoint tensors not in the model: {extra}")
    return model
