"""Tracing from outside the library: spans around each layer's public entry
points, and the per-layer metrics computed from them.

A span records a name, a start, an end, the span that was open when it
began (its parent) and, optionally, counts of the work the call did.  A
span's self time is its duration minus the part of its interval that its
child spans cover.  Spans are kept in memory; wrappers are installed for one
traced round and removed afterwards, so untraced rounds run the library's
own, unpatched functions.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

from stats import percentile, tail_percentile


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into Tracer.spans; -1 at top level
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover.

    Children that overlap each other are counted once, and any part of a
    child outside its parent's interval is ignored.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_length(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Records spans in memory and patches entry points to open them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span; yields it so the caller can fill in ``work``."""
        s = Span(name, self.clock(), parent=self._open[-1] if self._open else -1)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            self._open.pop()
            s.end = self.clock()

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` by a version that runs inside a span.

        ``work(args, kwargs, result)``, when given, returns a dict of counts
        stored on the span; it runs after the span has closed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if work is not None:
                s.work = work(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Put every patched entry point back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        install_layer_wrappers(self)
        try:
            yield self
        finally:
            self.remove()


def graph_size(root) -> int:
    """Number of autodiff nodes reachable from ``root``, ``root`` included:
    the set that ``Tensor.backward`` visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points.

    The trainer imports ``build_targets`` and ``total_loss`` by name, so they
    are patched on ``nextsession.trainer``; ``_validation_recall`` imports
    ``top_k`` and ``recall_at_k`` from the evaluator module when it runs, so
    patching the module attributes reaches it.
    """
    from nextsession import data, evaluator, trainer
    from nextsession.embedding import EmbeddingSpace
    from nextsession.model import NextSessionModel
    from nextsession.sequence_encoder import SequenceEncoder
    from nextsession.session_encoder import SessionEncoder
    from nextsession.tensor import Tensor

    def count_nodes(args, kwargs, result):
        with tracer.span("trace.count_nodes"):
            return {"nodes": graph_size(args[0])}

    w = tracer.wrap
    w(data, "ingest", "data.ingest", lambda a, k, r: {"rows": len(r[0])})
    w(data, "filter_dataset", "data.filter", lambda a, k, r: {
        "rows": sum(s.num_interactions() for s in r[0]), "items": r[1].num_items})
    w(data, "save_dataset", "data.save")
    w(data, "load_dataset", "data.load")
    w(data, "make_split", "data.split")
    w(EmbeddingSpace, "embed_items", "embedding.embed", lambda a, k, r: {"rows": r.shape[0]})
    w(EmbeddingSpace, "output_item_vectors", "embedding.catalog")
    w(SessionEncoder, "encode_sessions", "session_encoder.encode",
      lambda a, k, r: {"tokens": r.shape[0]})
    w(SequenceEncoder, "encode", "sequence_encoder.encode", lambda a, k, r: {"tokens": r.shape[0]})
    w(NextSessionModel, "forward_sessions", "model.forward")
    w(NextSessionModel, "user_vector", "model.user_vector")
    w(trainer, "build_targets", "objective.targets")
    w(trainer, "total_loss", "objective.loss",
      lambda a, k, r: {"terms": r.retrieval_count + r.rank_count})
    w(Tensor, "backward", "tensor.backward", count_nodes)
    w(trainer.Adam, "step", "trainer.adam")
    w(trainer, "_validation_recall", "trainer.validation")
    w(trainer, "train", "trainer.train")
    for fn in ("save_checkpoint", "load_checkpoint", "restore_model"):
        w(trainer, fn, "trainer.checkpoint")
    w(evaluator, "evaluate", "evaluator.evaluate")
    w(evaluator, "top_k", "evaluator.top_k")
    w(evaluator, "recall_at_k", "evaluator.metrics")
    w(evaluator, "ndcg_at_k", "evaluator.metrics")


# train() stages, as self time of the spans named, outside validation
TRAIN_STAGES = {
    "embed": ("embedding.embed",),
    "ise": ("session_encoder.encode",),
    "sse": ("sequence_encoder.encode",),
    "loss": ("objective.targets", "objective.loss"),
    "backward": ("tensor.backward",),
    "optimizer": ("trainer.adam",),
}


class _Index:
    """Self times plus the names of each span's ancestors.  Sums and counts
    are per round: totals over the spans divided by ``rounds``."""

    def __init__(self, spans: list[Span], rounds: int = 1):
        self.spans = spans
        self.rounds = rounds
        self.self_s = self_times(spans)
        self.ancestors: list[frozenset] = []
        for s in spans:
            up = self.ancestors[s.parent] | {spans[s.parent].name} if s.parent >= 0 else frozenset()
            self.ancestors.append(frozenset(up))

    def select(self, name, inside=None, outside=()):
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name
            and (inside is None or inside in self.ancestors[i])
            and not any(o in self.ancestors[i] for o in outside)
        ]

    def count(self, name, **where) -> float:
        return len(self.select(name, **where)) / self.rounds

    def self_sum(self, name, **where) -> float:
        return sum(self.self_s[i] for i in self.select(name, **where)) / self.rounds

    def wall_sum(self, name, **where) -> float:
        return sum(self.spans[i].duration for i in self.select(name, **where)) / self.rounds

    def work_sum(self, name, key, **where) -> float:
        return sum(self.spans[i].work.get(key, 0)
                   for i in self.select(name, **where)) / self.rounds


def layer_metrics(spans: list[Span], rounds: int = 1) -> dict[str, float]:
    """Per-layer metrics of ``rounds`` traced rounds, as per-round averages
    of times and counts; latency samples are pooled.  See README.md for
    each metric."""
    ix = _Index(spans, rounds)
    not_catalog = {"outside": ("embedding.catalog",)}
    rows_in = ix.work_sum("data.ingest", "rows")
    m = {
        "data.ingest_s": ix.self_sum("data.ingest"),
        "data.filter_s": ix.self_sum("data.filter"),
        "data.save_s": ix.self_sum("data.save"),
        "data.load_s": ix.self_sum("data.load"),
        "data.split_s": ix.self_sum("data.split"),
        "data.rows_in": rows_in,
        "data.rows_kept": ix.work_sum("data.filter", "rows"),
        "data.kept_ratio": ix.work_sum("data.filter", "rows") / rows_in,
        "data.items": ix.work_sum("data.filter", "items"),
        "embedding.embed_s": ix.self_sum("embedding.embed", **not_catalog),
        "embedding.embed_calls": ix.count("embedding.embed", **not_catalog),
        "embedding.rows": ix.work_sum("embedding.embed", "rows", **not_catalog),
        "embedding.catalog_s": ix.wall_sum("embedding.catalog"),
        "session_encoder.encode_s": ix.self_sum("session_encoder.encode"),
        "session_encoder.calls": ix.count("session_encoder.encode"),
        "session_encoder.tokens": ix.work_sum("session_encoder.encode", "tokens"),
        "sequence_encoder.encode_s": ix.self_sum("sequence_encoder.encode"),
        "sequence_encoder.calls": ix.count("sequence_encoder.encode"),
        "sequence_encoder.tokens": ix.work_sum("sequence_encoder.encode", "tokens"),
        "objective.targets_s": ix.self_sum("objective.targets"),
        "objective.loss_s": ix.self_sum("objective.loss"),
        "objective.terms": ix.work_sum("objective.loss", "terms"),
        "tensor.backward_s": ix.self_sum("tensor.backward"),
        "tensor.nodes_per_user": (
            ix.work_sum("tensor.backward", "nodes") / ix.count("tensor.backward")
        ),
        "trainer.adam_s": ix.self_sum("trainer.adam"),
        "trainer.validation_s": ix.wall_sum("trainer.validation"),
        "trainer.checkpoint_s": ix.wall_sum("trainer.checkpoint"),
        "model.forward_s": ix.wall_sum("model.forward"),
        "model.user_vector_s": ix.wall_sum("model.user_vector"),
        "evaluator.top_k_s": ix.self_sum("evaluator.top_k"),
        "evaluator.top_k_calls": ix.count("evaluator.top_k"),
        "evaluator.metrics_s": ix.self_sum("evaluator.metrics"),
    }
    m.update(train_stage_shares(ix))
    m.update(_latency("train.step_ms", train_step_ms(spans)))
    m.update(_latency("eval.user_ms", eval_user_ms(spans)))
    return m


def train_stage_shares(ix: _Index) -> dict[str, float]:
    """Each stage's self time as a percentage of train() wall.

    The tracer's own node counting is taken out of the wall first.
    Validation is its own stage, and spans inside it count only there.
    ``other`` is what no stage accounts for.
    """
    wall = ix.wall_sum("trainer.train") - ix.wall_sum("trace.count_nodes", inside="trainer.train")
    where = {"inside": "trainer.train", "outside": ("trainer.validation",)}
    shares = {}
    for stage, names in TRAIN_STAGES.items():
        shares[stage] = sum(ix.self_sum(n, **where) for n in names)
    shares["validation"] = ix.wall_sum("trainer.validation")
    shares["other"] = wall - sum(shares.values())
    return {f"train.{k}_pct": 100.0 * v / wall for k, v in shares.items()}


def train_step_ms(spans: list[Span]) -> list[float]:
    """Per user-step latency inside train(): from the start of the user's
    build_targets to the end of its backward."""
    starts = [s.start for s in spans if s.name == "objective.targets"]
    ends = [s.end for s in spans if s.name == "tensor.backward"]
    if len(starts) != len(ends):
        raise ValueError(f"{len(starts)} target builds but {len(ends)} backward passes")
    return [1e3 * (b - a) for a, b in zip(starts, ends)]


def eval_user_ms(spans: list[Span]) -> list[float]:
    """Per user latency inside evaluate(): from one user_vector call to the
    next, the last one ending with evaluate()."""
    out = []
    for i, ev in enumerate(spans):
        if ev.name != "evaluator.evaluate":
            continue
        starts = [s.start for s in spans if s.name == "model.user_vector" and s.parent == i]
        out += [1e3 * (b - a) for a, b in zip(starts, starts[1:] + [ev.end])]
    return out


def _latency(prefix: str, samples: list[float]) -> dict[str, float]:
    pct, value = tail_percentile(samples)
    return {
        f"{prefix}_p50": percentile(samples, 5000),
        f"{prefix}_tail": value,
        f"{prefix}_tail_pctl": pct,
        f"{prefix}_samples": len(samples),
    }
