"""Span arithmetic and hook handling of the benchmark's tracer.

    python3 -m pytest perfbench/test_spans.py
"""

import sys
import types

import pytest

from layers import CLI_SPAN, layer_metrics
from spans import Hook, HookMissing, Span, Tracer, self_times, union_length


def test_union_merges_overlaps_and_clips():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2.0
    assert union_length([(3, 1)]) == 0.0


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        Span("root", 0, 10, None, -1),
        Span("a", 1, 4, 0, 0),
        Span("a.child", 2, 3, 1, 0),
        Span("b", 3, 6, 0, 0),   # overlaps a
        Span("c", 8, 12, 0, 1),  # runs past the end of root
        Span("c.x", 8, 9, 4, 1),
        Span("c.y", 8.5, 11, 4, 1),
    ]
    # root: 10 minus the union (1, 6) + (8, 10); a.child is not root's child
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0, 1.0, 2.5]


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


@pytest.fixture
def prog(monkeypatch):
    mod = types.ModuleType("fake_prog")

    def sample(n):
        return list(range(n))

    def solve(cloud, nodes=3):
        return len(mod.sample(len(cloud))) + nodes

    class Field:
        def __call__(self, x):
            return x

    mod.sample, mod.solve, mod.Field = sample, solve, Field
    monkeypatch.setitem(sys.modules, "fake_prog", mod)
    return mod


def test_tracer_records_parents_reps_counts_and_restores(prog):
    originals = (prog.sample, prog.solve, prog.Field.__call__)
    hooks = [Hook("fake_prog.sample", "sampling",
                  lambda b, out: {"points": b["n"]}, new_rep=True),
             Hook("fake_prog.solve", "solve",
                  lambda b, out: {"nodes": b.get("nodes", 3)}),
             Hook("fake_prog.Field.__call__", "query")]
    tracer = Tracer(clock=_Clock())
    with tracer.installed(hooks):
        top = tracer.begin("top")
        assert prog.solve([1, 2], nodes=5) == 7
        prog.sample(4)
        assert prog.Field()(9) == 9
        tracer.end(top)
    assert (prog.sample, prog.solve, prog.Field.__call__) == originals
    got = [(s.name, s.parent, s.rep, s.counts) for s in tracer.spans]
    assert got == [("top", None, -1, {}),
                   ("solve", 0, -1, {"nodes": 5}),
                   ("sampling", 1, 0, {"points": 2}),
                   ("sampling", 0, 1, {"points": 4}),
                   ("query", 0, 1, {})]
    assert all(s.end > s.start for s in tracer.spans)


@pytest.mark.parametrize("target", ["fake_prog.gone", "fake_prog.Field.gone",
                                    "fake_prog.Field.__call__x",
                                    "no_such_module.f"])
def test_missing_hook_is_named_and_nothing_is_replaced(prog, target):
    original = prog.sample
    hooks = [Hook("fake_prog.sample", "sampling"), Hook(target, "x")]
    with pytest.raises(HookMissing, match=target.replace(".", r"\.")):
        with Tracer().installed(hooks):
            pass
    assert prog.sample is original


def test_inherited_class_attribute_is_not_a_hook(prog):
    class Plain:
        pass

    prog.Plain = Plain  # every class has a __call__, from type
    with pytest.raises(HookMissing):
        with Tracer().installed([Hook("fake_prog.Plain.__call__", "x")]):
            pass


def test_layer_metrics_self_times_and_counts():
    spans = [
        Span(CLI_SPAN, 0, 20, None, -1),
        Span("harness.run", 1, 19, 0, -1),
        Span("grids.build", 2, 3, 1, -1, {"nodes": 100}),
        Span("sampling", 3, 4, 1, 0, {"points": 10}),
        Span("coverage.threshold", 4, 10, 1, 0),
        Span("coverage.tree", 4, 5, 4, 0),
        Span("coverage.query", 5, 8, 4, 0, {"nodes": 100}),
        Span("grids.refine", 8, 9, 4, 0, {"centers": 2, "nodes": 7}),
        Span("sampling", 10, 11, 1, 1, {"points": 10}),
        Span("coverage.threshold", 11, 14, 1, 1),
        Span("coverage.query", 11, 13, 9, 1, {"nodes": 101}),
        Span("harness.ks", 15, 17, 1, -1),
        Span("limits.cdf", 16, 17, 11, -1),
    ]
    m = layer_metrics(spans, reps=2)
    assert m["cli.total_s"] == 20 and m["cli.io_s"] == 2
    assert m["harness.run_s"] == 18
    assert m["harness.self_s"] == 18 - (1 + 1 + 6 + 1 + 3 + 2)
    assert m["coverage.threshold_s"] == 9 and m["coverage.self_s"] == 2
    assert m["coverage.query_s"] == 5 and m["coverage.query_nodes"] == 100.5
    assert m["grids.refine_calls"] == 1 and m["grids.refine_centers"] == 2
    assert m["sampling.points"] == 20 and m["limits.cdf_s"] == 1
    assert m["geometry.depth_s"] == 0 and m["limits.transform_s"] == 0
