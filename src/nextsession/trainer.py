"""Training loop, optimizer, experiment config, and checkpoint I/O."""

from __future__ import annotations

import copy
import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .data import Catalog, DatasetSplit, Sessions, encoder_views
from .model import ModelConfig, NextSessionModel
from .objective import LossConfig, build_targets, total_loss
from .session_encoder import IseConfig
from .sequence_encoder import SseConfig


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
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
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


# Keys that older configs and checkpoint headers carry, each at the only
# value it ever accepted; they are checked and dropped.
_RETIRED_KEYS = {"optimizer": "adam", "loss.sampling": "uniform"}
# Carried by older configs and checkpoint headers but never read: the
# top-level dropout always replaced it.  Any rate in [0, 1) is dropped.
_UNREAD_RATE = "sse.dropout"

_FIELD_TYPES = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "int | None": (int, type(None)),
}


def _field_values(cls, values: dict, prefix: str = "") -> dict:
    """Check ``values`` against ``cls``'s fields, dropping retired keys."""
    kwargs = {}
    for key, value in values.items():
        name = prefix + key
        if name in _RETIRED_KEYS:
            if value != _RETIRED_KEYS[name]:
                raise ValueError(
                    f"config field {name!r} only supports "
                    f"{_RETIRED_KEYS[name]!r}, got {value!r}"
                )
            continue
        if name == _UNREAD_RATE:
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < 1:
                raise ValueError(f"config field {name!r} must be in [0, 1), got {value!r}")
            continue
        if key not in cls.__dataclass_fields__:
            raise ValueError(f"unknown config key {name!r}")
        kind = cls.__dataclass_fields__[key].type
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
            raise ValueError(f"config field {name!r} must be {kind}, got {value!r}")
        kwargs[key] = value
    return kwargs


def config_from_dict(blob: dict) -> TrainConfig:
    nested = {"loss": LossConfig, "ise": IseConfig, "sse": SseConfig}
    kwargs = _field_values(TrainConfig, {k: v for k, v in blob.items() if k not in nested})
    for key, cls in nested.items():
        if key in blob:
            if not isinstance(blob[key], dict):
                raise ValueError(f"config field {key!r} must be a mapping")
            kwargs[key] = cls(**_field_values(cls, blob[key], f"{key}."))
    return TrainConfig(**kwargs)


def config_hash(cfg: TrainConfig) -> str:
    return hashlib.sha256(
        json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    ).hexdigest()[:16]


def stats_hash(stats: dict) -> str:
    return hashlib.sha256(
        json.dumps(stats, sort_keys=True).encode()
    ).hexdigest()[:16]


class Adam:
    """Adam with lazy (masked) moment updates.

    Only entries with a nonzero gradient are touched in a step, so embedding
    rows of items absent from a batch keep both their values and moments.
    The bias-correction step count is global.
    """

    def __init__(self, params: dict, lr: float, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.names = sorted(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(params[n].data) for n in self.names}
        self.v = {n: np.zeros_like(params[n].data) for n in self.names}

    def zero_grad(self):
        for n in self.names:
            self.params[n].grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for n in self.names:
            p = self.params[n]
            g = p.grad
            if g is None:
                continue
            mask = g != 0
            if not mask.any():
                continue
            gm = g[mask]
            self.m[n][mask] = self.b1 * self.m[n][mask] + (1.0 - self.b1) * gm
            self.v[n][mask] = self.b2 * self.v[n][mask] + (1.0 - self.b2) * gm * gm
            mhat = self.m[n][mask] / bc1
            vhat = self.v[n][mask] / bc2
            p.data[mask] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _trainable_sessions(sessions: Sessions) -> Sessions:
    """Drop trailing positive-free sessions (split-truncation artifacts)."""
    last = np.flatnonzero(sessions.positive_counts()).max(initial=-1)  # last with a positive
    return sessions[:int(last) + 1]


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
    best_epoch: int
    best_metric: float
    config: TrainConfig


def build_model(cfg: TrainConfig, catalog_size: int, rng, catalog: Catalog | None = None):
    schema = ()
    item_features = None
    if catalog is not None and catalog.feature_names:
        schema = tuple(zip(catalog.feature_names, catalog.feature_vocab_sizes()))
        item_features = catalog.item_features
    mcfg = ModelConfig(
        num_items=catalog_size,
        dim=cfg.dim,
        id_dim=cfg.id_dim,
        feature_dim=cfg.feature_dim,
        feature_schema=schema,
        dropout=cfg.dropout,
        ise=copy.deepcopy(cfg.ise),
        sse=copy.deepcopy(cfg.sse),
    )
    return NextSessionModel(mcfg, rng, item_features=item_features)


def _validation_recall(model, train_users, val_k):
    """Recall@val_k of each user's last train session given the earlier ones."""
    from .evaluator import recall_at_k, top_k

    k = min(val_k, model.cfg.num_items)
    with T.no_grad():
        item_matrix = model.embedding.output_item_vectors().data
    total, n = 0.0, 0
    for sessions in train_users:
        if len(sessions) < 2:
            continue
        targets, _ = encoder_views(sessions[-1:])
        with T.no_grad():
            uvec = model.user_vector(encoder_views(sessions[:-1])).data
        ranked = top_k(uvec, item_matrix, k)
        total += recall_at_k(ranked, targets, k)
        n += 1
    return total / n if n else 0.0


def train(
    split: DatasetSplit,
    cfg: TrainConfig,
    catalog: Catalog | None = None,
    log_fn=None,
) -> TrainResult:
    """Run the full optimization loop and return the best-validation model.

    Per epoch: shuffle users, form minibatches, accumulate gradients of the
    raw-sum loss across the batch's users, take one optimizer step.  Model
    selection is by validation recall on each user's final train session.
    """
    ss = np.random.SeedSequence(cfg.seed)
    init_rng, neg_rng, drop_rng, shuffle_rng = (
        np.random.default_rng(s) for s in ss.spawn(4)
    )
    model = build_model(cfg, split.catalog_size, init_rng, catalog)
    params = model.parameters()
    opt = Adam(params, cfg.learning_rate)

    train_users = []
    for user in split.users:
        sessions = _trainable_sessions(user.train_sessions)
        if len(sessions) >= 2:
            train_users.append((user.user_id, sessions))
    if not train_users:
        raise ValueError("no trainable users: every train view has < 2 usable sessions")

    history = []
    best_metric = -1.0
    best_epoch = -1
    best_state = {n: p.data.copy() for n, p in params.items()}

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(train_users))
        epoch_total = 0.0
        epoch_retr = 0.0
        epoch_rank = 0.0
        n_pos = 0
        n_rank = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            opt.zero_grad()
            batch_total = 0.0
            for ui in batch:
                _, sessions = train_users[ui]
                view, targets = build_targets(
                    sessions, split.catalog_size, cfg.loss.num_sampled_negatives, neg_rng
                )
                outputs = model.forward_sessions(
                    view, training=True, dropout_rng=drop_rng
                )
                losses = total_loss(outputs, targets, model.embedding, cfg.loss)
                losses.total.backward()
                batch_total += losses.total.item()
                epoch_total += losses.total.item()
                epoch_retr += losses.retrieval.item()
                epoch_rank += losses.rank.item()
                n_pos += losses.retrieval_count
                n_rank += losses.rank_count
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
            val = _validation_recall(model, [s for _, s in train_users], cfg.val_k)
            entry["val_recall"] = val
            if val > best_metric:
                best_metric = val
                best_epoch = epoch
                best_state = {n: p.data.copy() for n, p in params.items()}
        history.append(entry)
        if log_fn is not None:
            log_fn(entry)

    if best_epoch >= 0:
        for n, p in params.items():
            p.data[...] = best_state[n]
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_metric=best_metric,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, little-endian u64 header length, JSON
# header (config, hashes, epoch, metrics, tensor manifest), raw tensor blobs.
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"NSCK"
CKPT_VERSION = 1


def save_checkpoint(
    path: str,
    model: NextSessionModel,
    cfg: TrainConfig,
    epoch: int,
    metrics: dict | None = None,
    data_hash: str = "",
) -> None:
    params = model.parameters()
    manifest = []
    blobs = []
    offset = 0

    def add_tensor(name, arr):
        nonlocal offset
        arr = np.ascontiguousarray(arr)
        raw = arr.tobytes()
        manifest.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": str(arr.dtype),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)

    for name in sorted(params):
        add_tensor(name, params[name].data)

    header = {
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "data_hash": data_hash,
        "epoch": epoch,
        "metrics": metrics or {},
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for raw in blobs:
            fh.write(raw)


@dataclass
class CheckpointData:
    config: TrainConfig
    config_hash: str
    data_hash: str
    epoch: int
    metrics: dict
    tensors: dict


def load_checkpoint(path: str) -> CheckpointData:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if header_end > len(blob):
        raise ValueError(f"{path}: checkpoint truncated inside header")
    try:
        header = json.loads(blob[16:header_end])
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: corrupt checkpoint header: {e}") from None

    tensors = {}
    for entry in header["tensors"]:
        if entry["name"].startswith("opt."):
            continue  # optimizer moments, which earlier versions could store
        start = header_end + entry["offset"]
        end = start + entry["nbytes"]
        if end > len(blob):
            raise ValueError(
                f"{path}: checkpoint truncated in tensor {entry['name']!r}"
            )
        arr = np.frombuffer(blob[start:end], dtype=np.dtype(entry["dtype"]))
        tensors[entry["name"]] = arr.reshape(entry["shape"]).copy()

    return CheckpointData(
        config=config_from_dict(header["config"]),
        config_hash=header["config_hash"],
        data_hash=header.get("data_hash", ""),
        epoch=header["epoch"],
        metrics=header.get("metrics", {}),
        tensors=tensors,
    )


def restore_model(
    ckpt: CheckpointData,
    catalog: Catalog | None = None,
    expected_config: TrainConfig | None = None,
    force: bool = False,
) -> NextSessionModel:
    """Rebuild a model from a checkpoint and load its weights.

    When expected_config is given and hashes differ, refuses unless force;
    the error names the first differing field.
    """
    if expected_config is not None and not force:
        if config_hash(expected_config) != config_hash(ckpt.config):
            want = config_to_dict(expected_config)
            got = config_to_dict(ckpt.config)
            for key in sorted(want):
                if want[key] != got.get(key):
                    raise ValueError(
                        f"checkpoint config mismatch on {key!r}: "
                        f"checkpoint has {got.get(key)!r}, expected {want[key]!r} "
                        f"(pass force to override)"
                    )
            raise ValueError("checkpoint config hash mismatch (pass force to override)")

    cfg = ckpt.config
    num_items = ckpt.tensors["emb.item_table"].shape[0]
    rng = np.random.default_rng(0)
    model = build_model(cfg, num_items, rng, catalog)
    params = model.parameters()
    missing = sorted(set(params) - set(ckpt.tensors))
    extra = sorted(set(ckpt.tensors) - set(params))
    if missing or extra:
        raise ValueError(
            f"checkpoint tensors do not match model: missing {missing}, extra {extra}"
        )
    for name, p in params.items():
        stored = ckpt.tensors[name]
        if tuple(stored.shape) != p.shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {tuple(stored.shape)}, "
                f"model expects {p.shape}"
            )
        p.data[...] = stored
    return model
