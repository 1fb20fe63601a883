import math

import pytest

from spans import Span, Tracer, covered_length, graph_size, self_times


def test_self_time_subtracts_nested_children_once_per_level():
    spans = [
        Span("root", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("grandchild", 2.0, 3.0, parent=1),
        Span("child", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 3.0, 7.0, parent=0),  # overlaps a on [3, 5]
        Span("c", 6.0, 6.5, parent=0),  # inside b
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_child_outside_parent_interval_is_clipped():
    assert covered_length(0.0, 10.0, [(-5.0, 2.0), (9.0, 15.0)]) == pytest.approx(3.0)
    assert covered_length(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_tracer_records_parent_and_work():
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 5.0]))
    with tracer.span("outer"):
        with tracer.span("inner") as s:
            s.work = {"rows": 3}
    outer, inner = tracer.spans
    assert (outer.start, outer.end, outer.parent) == (0.0, 5.0, -1)
    assert (inner.start, inner.end, inner.parent) == (1.0, 2.0, 0)
    assert inner.work == {"rows": 3}
    assert self_times(tracer.spans) == [4.0, 1.0]


class Box:
    def value(self, x):
        return x + 1


def test_wrap_records_span_and_remove_restores_original():
    original = Box.__dict__["value"]
    tracer = Tracer()
    tracer.wrap(Box, "value", "box.value", lambda a, k, r: {"out": r})
    assert Box().value(1) == 2
    tracer.remove()
    assert Box.__dict__["value"] is original
    Box().value(5)  # unpatched: records nothing
    assert [(s.name, s.work) for s in tracer.spans] == [("box.value", {"out": 2})]


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError
    assert not math.isnan(tracer.spans[0].end)
    with tracer.span("next"):
        pass
    assert tracer.spans[1].parent == -1


def test_every_layer_wrapper_is_removed_after_the_traced_scope():
    from nextsession import trainer

    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            patched = list(tracer._patches)
            assert all(getattr(o, a) is not orig for o, a, orig in patched)
            raise KeyError  # removal must survive a failing round
    assert len(patched) >= 20 and (trainer, "total_loss") in [(o, a) for o, a, _ in patched]
    assert all(getattr(o, a) is orig for o, a, orig in patched)


def test_graph_size_counts_shared_nodes_once():
    from nextsession import tensor as T
    import numpy as np

    x = T.parameter(np.ones(3))
    y = T.add(x, x)
    z = T.sum_all(T.mul(y, y))
    assert graph_size(z) == 4  # x, y, mul, sum
