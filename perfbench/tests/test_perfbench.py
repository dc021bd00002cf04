"""Tests of the benchmark itself: generators, the tail rule, span
arithmetic.  Run with ``python -m pytest perfbench/tests -q``."""

import asyncio
import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from loadgen import process_cpu_s  # noqa: E402
from spans import Recorder, self_times, union_length  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    return gen.load_graph()


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def test_stream_plan_is_a_pure_function_of_seed(graph):
    a = gen.stream_plan(graph, 7, 20.0, 300)
    b = gen.stream_plan(graph, 7, 20.0, 300)
    c = gen.stream_plan(graph, 8, 20.0, 300)
    assert a.ops == b.ops
    assert a.ops != c.ops


def test_stream_writes_are_valid(graph):
    plan = gen.stream_plan(graph, 11, 20.0, 2000)
    edges = {(min(u, v), max(u, v)) for u, v in np.asarray(graph.edges)}
    live = graph.num_nodes
    for op in plan.ops:
        body = op.body
        if op.kind == "write":
            assert op.conn == "ndjson"
        if body["op"] == "add_edge":
            u, v = body["u"], body["v"]
            assert u != v
            assert 0 <= u < live and 0 <= v < live
            key = (min(u, v), max(u, v))
            assert key not in edges
            edges.add(key)
        elif body["op"] == "add_node":
            assert len(body["features"]) == graph.num_features
            assert all(math.isfinite(x) for x in body["features"])
            live += 1
        elif body["op"] == "update_features":
            assert 0 <= body["node"] < live
            assert len(body["features"]) == graph.num_features
            assert all(math.isfinite(x) for x in body["features"])
        elif body["op"] == "score":
            assert all(0 <= n < graph.num_nodes for n in body["nodes"])
        elif body["op"] == "score_edge":
            u, v = body["u"], body["v"]
            assert (min(u, v), max(u, v)) in edges


def test_stream_plan_mix_and_schedule(graph):
    plan = gen.stream_plan(graph, 5, 20.0, 1200)
    kinds = [op.kind for op in plan.ops]
    assert kinds.count("reload") == 2
    share = kinds.count("write") / len(kinds)
    assert abs(share - gen.WRITE_SHARE) < 0.05
    dues = [op.due for op in plan.ops]
    assert dues == sorted(dues)
    assert dues[1] - dues[0] == pytest.approx(1 / 20.0)
    assert {op.conn for op in plan.ops if op.kind == "read"} == {"ndjson",
                                                                 "http"}


def test_cold_order_disjoint_and_deterministic():
    warm, measured = gen.cold_order(406, 3, 4)
    assert (warm, measured) == gen.cold_order(406, 3, 4)
    assert len(warm) == 4 and not set(warm) & set(measured)
    assert sorted(warm + measured) == list(range(406))


def test_graph_is_fixed_and_finite():
    a = gen.load_graph()
    b = gen.load_graph()
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.features, b.features)
    assert np.isfinite(a.features).all()


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count,expected", [
    (9, 0), (20, 50), (25, 60), (40, 75), (100, 90), (200, 95),
    (1000, 99), (1009, 99)])
def test_tail_percentile(count, expected):
    assert stats.tail_percentile(count) == expected


@pytest.mark.parametrize("count", [20, 33, 57, 140, 999, 5000])
def test_tail_percentile_is_the_highest_with_ten_beyond(count):
    p = stats.tail_percentile(count)
    assert count - stats.nearest_rank(count, p) >= 10
    if p < 99:
        assert count - stats.nearest_rank(count, p + 1) < 10


def test_min_count_inverts_tail_percentile():
    for p in (60, 75, 90, 95, 99):
        n = stats.min_count(p)
        assert stats.tail_percentile(n) >= p
        assert stats.tail_percentile(n - 1) < p


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile([3.0], 99) == 3.0


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (1.5, 2.5)]) == 3.0


def _span(sid, parent, start, end, name="x"):
    return (sid, parent, name, start, end, None, 0, None)


def test_self_time_subtracts_clipped_children():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 3.0),
             _span(3, 1, 2.0, 4.0), _span(4, 1, 8.0, 12.0),
             _span(5, 2, 1.5, 2.5)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - (3 + 2))
    assert selfs[2] == pytest.approx(2 - 1)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)


def test_recorder_nests_sync_and_async_calls():
    rec = Recorder()

    def leaf():
        return 1

    wrapped_leaf = rec.wrap(leaf, "leaf")

    def mid():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_mid = rec.wrap(mid, "mid")

    async def outer():
        return wrapped_mid()

    wrapped_outer = rec.wrap(outer, "outer")
    assert asyncio.run(wrapped_outer()) == 2
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[2], []).append(span)
    (outer_span,) = by_name["outer"]
    (mid_span,) = by_name["mid"]
    assert outer_span[1] is None
    assert mid_span[1] == outer_span[0]
    assert all(s[1] == mid_span[0] for s in by_name["leaf"])
    selfs = self_times(rec.spans)
    assert 0 <= selfs[mid_span[0]] <= mid_span[4] - mid_span[3]


def test_serving_layers_join_reads_to_scoring_calls():
    # One request (dispatch 0..10 ms) whose node 7 waited 2 ms in the
    # batcher and was scored by a shared call from 3 to 8 ms.
    ms = 1e-3
    spans = [
        (1, None, "gateway.dispatch", 0.0, 10 * ms, 1, 0, "score"),
        (2, 1, "gateway.batcher", 1 * ms, 9 * ms, 1, 1, (7,)),
        (3, None, "serving.score_nodes", 3 * ms, 8 * ms, None, 2, (7, 9)),
        (4, 3, "forward", 4 * ms, 6 * ms, None, 2, None),
    ]
    zero = {"store_compactions": 0, "table_hits": 0, "table_misses": 0,
            "cache_hits": 0, "cache_misses": 0}
    out = layers.serving_layers(spans, (0.0, 1.0), zero, zero)
    assert out["gateway.coalesce_wait_ms"] == pytest.approx(2.0)
    assert out["gateway.overhead_ms"] == pytest.approx(5.0)
    assert out["gateway.batch_nodes_mean"] == 2.0
    assert out["forward.ms"] == pytest.approx(2.0)
    assert out["forward.share"] == pytest.approx(0.2)
    assert out["gateway.share"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# CPU accounting
# ----------------------------------------------------------------------
def test_process_cpu_s_agrees_with_process_time():
    """``/proc`` CPU of this process moves with ``time.process_time``
    (to within a few clock ticks) while it burns CPU."""
    proc_start, own_start = process_cpu_s(os.getpid()), time.process_time()
    deadline = own_start + 0.3
    while time.process_time() < deadline:
        pass
    proc = process_cpu_s(os.getpid()) - proc_start
    own = time.process_time() - own_start
    assert own >= 0.3
    assert abs(proc - own) <= 0.05
