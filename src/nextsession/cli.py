"""Command-line entry point.

Subcommands: synth, prepare-data, train, evaluate, sweep-alpha, scaling,
bench.  Every command that has an output location writes a run manifest
there before doing any work and rewrites it with the outcome at exit.
Config precedence for training commands: flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time

from . import evaluator, synth, trainer
from .data import filter_dataset, ingest, load_dataset, make_split, save_dataset


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


class Manifest:
    """Run manifest: written with status=running up front, finalized at exit."""

    def __init__(self, path, command, args, config=None):
        self.path = path
        self.started = time.time()
        self.blob = {
            "command": command,
            "argv": sys.argv[1:],
            "resolved_config": config,
            "args": {k: v for k, v in vars(args).items() if k != "func"},
            "seed": getattr(args, "seed", None),
            "git": _git_describe(),
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(self.started)),
            "status": "running",
        }
        self._write()

    def _write(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "w") as fh:
            json.dump(self.blob, fh, indent=2, sort_keys=True)

    def finish(self, status, error=None, **extra):
        self.blob["status"] = status
        self.blob["wall_clock_s"] = time.time() - self.started
        if error:
            self.blob["error"] = error
        self.blob.update(extra)
        self._write()


@contextlib.contextmanager
def _manifest_scope(path, command, args, config=None):
    if path is None:
        yield None
        return
    manifest = Manifest(path, command, args, config)
    try:
        yield manifest
    except BaseException as e:
        manifest.finish("failed", error=f"{type(e).__name__}: {e}")
        raise
    else:
        manifest.finish("success")


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _resolve_train_config(args) -> trainer.TrainConfig:
    blob = {}
    if args.config:
        with open(args.config) as fh:
            try:
                blob = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValueError(f"config file {args.config}: {e}") from None
        if not isinstance(blob, dict):
            raise ValueError(
                f"config file {args.config}: expected a JSON object, "
                f"got {type(blob).__name__}"
            )
    overrides = {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "learning_rate": args.lr,
        "dropout": args.dropout,
        "seed": args.seed,
        "dim": args.dim,
        "val_k": args.val_k,
    }
    for key, value in overrides.items():
        if value is not None:
            blob[key] = value
    if getattr(args, "alpha", None) is not None:
        blob.setdefault("loss", {})["alpha"] = args.alpha
    if getattr(args, "ise", None) is not None:
        blob.setdefault("ise", {})["kind"] = args.ise
    if getattr(args, "backbone", None) is not None:
        blob.setdefault("sse", {})["backbone"] = args.backbone
    return trainer.config_from_dict(blob)


def _load_split(args):
    sequences, catalog, meta = load_dataset(args.data)
    split = make_split(
        sequences,
        args.protocol,
        catalog.num_items,
        max_positive_len=meta.get("max_positive_len", 200),
    )
    return split, catalog


def _add_train_flags(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--protocol", choices=["session", "item"], default="session")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--val-k", type=int, dest="val_k")
    p.add_argument("--alpha", type=float, help="rank-loss weight")
    p.add_argument("--ise", help="session aggregator kind")
    p.add_argument("--backbone", help="sequence backbone")


def cmd_synth(args) -> int:
    manifest_path = args.out + ".manifest.json"
    with _manifest_scope(manifest_path, "synth", args):
        kwargs = {
            "num_users": args.users,
            "num_sessions": args.sessions,
            "seed": args.seed,
        }
        if args.pattern == "hard-negative-sessions":
            for flag in ("catalog", "positives", "exposures"):
                if getattr(args, flag) is not None:
                    raise ValueError(
                        f"--{flag} does not apply to hard-negative-sessions; "
                        "its catalog and session shape are fixed by the pair design"
                    )
            if args.twin_exposures is not None:
                kwargs["twin_exposures"] = args.twin_exposures
            if args.self_exposure_rate is not None:
                kwargs["self_exposure_rate"] = args.self_exposure_rate
        else:
            if args.catalog is not None:
                kwargs["catalog"] = args.catalog
            if args.positives is not None:
                kwargs["positives_per_session"] = args.positives
            if args.exposures is not None:
                kwargs["exposures_per_session"] = args.exposures
        rows = synth.generate(args.pattern, **kwargs)
        synth.write_log(args.out, rows)
        print(f"wrote {len(rows)} interactions to {args.out}")
    return 0


def cmd_prepare_data(args) -> int:
    with _manifest_scope(os.path.join(args.output, "manifest.json"), "prepare-data", args):
        interactions, feature_names = ingest(args.input)
        sequences, catalog = filter_dataset(
            interactions, feature_names, bin_count=args.bin_count
        )
        save_dataset(args.output, sequences, catalog, max_positive_len=args.max_pos_len)
        with open(os.path.join(args.output, "stats.json")) as fh:
            print(fh.read())
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_train_config(args)
    with _manifest_scope(
        os.path.join(args.out, "manifest.json"), "train", args,
        config=trainer.config_to_dict(cfg),
    ):
        split, catalog = _load_split(args)
        log = open(os.path.join(args.out, "history.jsonl"), "w")

        def log_fn(entry):
            log.write(json.dumps(entry, sort_keys=True) + "\n")
            log.flush()
            msg = f"epoch {entry['epoch']}: loss {entry['train_total_mean']:.4f}"
            if "val_recall" in entry:
                msg += f"  val_recall@{cfg.val_k} {entry['val_recall']:.4f}"
            print(msg)

        try:
            result = trainer.train(split, cfg, catalog=catalog, log_fn=log_fn)
        finally:
            log.close()
        ckpt_path = os.path.join(args.out, "checkpoint.bin")
        trainer.save_checkpoint(
            ckpt_path,
            result.model,
            cfg,
            epoch=result.best_epoch,
            metrics={"val_recall": result.best_metric},
            data_hash=trainer.stats_hash(split.stats),
        )
        print(
            f"best epoch {result.best_epoch} "
            f"val_recall@{cfg.val_k} {result.best_metric:.4f} -> {ckpt_path}"
        )
    return 0


def cmd_evaluate(args) -> int:
    manifest_path = os.path.join(args.out, "manifest.json") if args.out else None
    with _manifest_scope(manifest_path, "evaluate", args):
        ckpt = trainer.load_checkpoint(args.checkpoint)
        sequences, catalog, meta = load_dataset(args.data)
        split = make_split(
            sequences, args.protocol, catalog.num_items,
            max_positive_len=meta.get("max_positive_len", 200),
        )
        model = trainer.restore_model(ckpt, catalog=catalog)
        cutoffs = tuple(args.cutoffs) if args.cutoffs else evaluator.DEFAULT_CUTOFFS
        cutoffs = tuple(sorted({min(k, catalog.num_items) for k in cutoffs}))
        report = evaluator.evaluate(
            model, split, cutoffs=cutoffs, config_hash=ckpt.config_hash
        )
        print(report.to_json())
        if args.out:
            with open(os.path.join(args.out, "report.json"), "w") as fh:
                fh.write(report.to_json() + "\n")
            with open(os.path.join(args.out, "report.txt"), "w") as fh:
                fh.write(report.table() + "\n")
    return 0


def cmd_sweep_alpha(args) -> int:
    cfg = _resolve_train_config(args)
    with _manifest_scope(
        os.path.join(args.out, "manifest.json"), "sweep-alpha", args,
        config=trainer.config_to_dict(cfg),
    ):
        split, catalog = _load_split(args)
        alphas = _float_list(args.alphas)
        rows = evaluator.alpha_sweep(split, cfg, alphas, catalog=catalog)
        table = evaluator.sweep_table(rows)
        print(table)
        with open(os.path.join(args.out, "sweep.tsv"), "w") as fh:
            fh.write(table + "\n")
        with open(os.path.join(args.out, "sweep.json"), "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
    return 0


def cmd_scaling(args) -> int:
    cfg = _resolve_train_config(args)
    with _manifest_scope(
        os.path.join(args.out, "manifest.json"), "scaling", args,
        config=trainer.config_to_dict(cfg),
    ):
        split, catalog = _load_split(args)
        fractions = _float_list(args.fractions)
        rows = evaluator.scaling_run(
            split, cfg, fractions, catalog=catalog, recall_k=args.recall_k
        )
        table = evaluator.scaling_table(rows, recall_k=args.recall_k)
        print(table)
        with open(os.path.join(args.out, "scaling.tsv"), "w") as fh:
            fh.write(table + "\n")
        with open(os.path.join(args.out, "scaling.json"), "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
    return 0


def cmd_bench(args) -> int:
    manifest_path = os.path.join(args.out, "manifest.json") if args.out else None
    with _manifest_scope(manifest_path, "bench", args):
        result = evaluator.complexity_bench(
            args.n, args.m, dim=args.dim, layers=args.layers,
            heads=args.heads, repeats=args.repeats, seed=args.seed,
        )
        print(json.dumps(result, indent=2, sort_keys=True))
        if args.out:
            with open(os.path.join(args.out, "bench.json"), "w") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nextsession",
        description="Session-level sequential recommender: data prep, training, "
        "evaluation, and benchmarks.",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="BLAS thread cap (1 = fully deterministic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic interaction log")
    p.add_argument("--pattern", choices=synth.PATTERNS, required=True)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--sessions", type=int, default=10)
    p.add_argument("--catalog", type=int, help="catalog size (not a knob of every pattern)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--positives", type=int, help="positives per session")
    p.add_argument("--exposures", type=int, help="exposures per session")
    p.add_argument("--twin-exposures", type=int, dest="twin_exposures")
    p.add_argument("--self-exposure-rate", type=float, dest="self_exposure_rate")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare-data", help="ingest, filter, and persist a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--max-pos-len", type=int, default=200, dest="max_pos_len")
    p.add_argument("--bin-count", type=int, default=16, dest="bin_count")
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("train", help="train a model on a prepared dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--protocol", choices=["session", "item"], default="session")
    p.add_argument("--cutoffs", type=_int_list, help="comma list, default 10,100,500")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-alpha", help="train and evaluate across rank-loss weights")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alphas", required=True, help="comma list, e.g. 0,0.1,0.2")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("scaling", help="train on chronological fractions")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fractions", required=True, help="comma list in (0,1]")
    p.add_argument("--recall-k", type=int, default=500, dest="recall_k")
    _add_train_flags(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("bench", help="attention cost: item vs session granularity")
    p.add_argument("--n", type=int, required=True, help="total item count")
    p.add_argument("--m", type=int, required=True, help="items per session")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with evaluator.blas_thread_limits(args.threads):
            return args.func(args)
    except (ValueError, OSError, trainer.TrainingDiverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
