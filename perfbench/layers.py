"""Per-layer metrics from a traced run's spans.

Every metric in :data:`PER_LAYER` is reported by every traced run; a
layer that does not run on a workload (the gateway offline, the trainer
behind a server) reports ``0``.  Times are milliseconds.  ``*.ms`` and
``*.rows``/``*.calls`` are totals over the measured window; ``*_ms`` of
a request-shaped call is its median; ``*.share`` is the layer's self
time divided by request time (wall time with a request in flight;
serving) or by job time (offline).

Cross-thread attribution.  A gateway request runs on the event loop;
the scoring call that answers it runs on the scoring thread, possibly
shared with other coalesced requests.  A read's scoring call is found
on the timeline: the first ``ScoringService`` call for the same node
(or edge) that starts after the request entered the ``MicroBatcher``
and ends before the batcher answered.  Its start minus the enqueue time
is the coalesce wait; the request's dispatch time minus the union of
its scoring calls is the gateway overhead.  Writes and reloads match
the store write / registry load and model swap inside their dispatch
window (all writes travel on one connection, so at most one is in
flight).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from spans import Span, self_times, union_length
from stats import median, percentile, tail_percentile

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("gateway.request_p50_ms", "ms"),
    ("gateway.request_tail_ms", "ms"),
    ("gateway.overhead_ms", "ms"),
    ("gateway.coalesce_wait_ms", "ms"),
    ("gateway.batch_nodes_mean", "count"),
    ("serving.score_nodes_ms", "ms"),
    ("serving.score_edge_ms", "ms"),
    ("serving.table_hit_ratio", "ratio"),
    ("serving.view_cache_hit_ratio", "ratio"),
    ("serving.swap_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("store.compactions", "count"),
    ("sampling.ms", "ms"),
    ("sampling.rows", "count"),
    ("views.build_ms", "ms"),
    ("views.rows", "count"),
    ("views.rebatch_ms", "ms"),
    ("forward.ms", "ms"),
    ("forward.rows", "count"),
    ("forward.calls", "count"),
    ("scoring.loop_self_ms", "ms"),
    ("trainer.chunk_ms", "ms"),
    ("trainer.steps", "count"),
    ("trainer.update_ms", "ms"),
    ("gateway.share", "ratio"),
    ("serving.share", "ratio"),
    ("store.share", "ratio"),
    ("sampling.share", "ratio"),
    ("views.share", "ratio"),
    ("forward.share", "ratio"),
    ("scoring.share", "ratio"),
    ("trainer.share", "ratio"),
    ("loadgen.lag_ms", "ms"),
    ("calib.probe_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

#: Span name -> layer whose share its self time counts toward.
LAYER_OF = {
    "gateway.dispatch": "gateway", "gateway.batcher": "gateway",
    "serving.score_nodes": "serving", "serving.score_edge": "serving",
    "serving.swap": "serving", "serving.load": "serving",
    "store.write": "store", "store.compact": "store",
    "sampling": "sampling", "views.build": "views", "views.rebatch": "views",
    "forward": "forward", "scoring.loop": "scoring",
    "trainer.fit": "trainer", "trainer.chunk": "trainer",
    "trainer.step": "trainer",
}
SHARE_LAYERS = ("gateway", "serving", "store", "sampling", "views",
                "forward", "scoring", "trainer")


def empty_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def compute_totals(spans: Sequence[Span], selfs: Dict[int, float],
                   out: Dict[str, float]) -> None:
    """Busy time and work counts of the compute layers."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    out["sampling.ms"] = _ms(sum(selfs[s[0]] for s in by_name["sampling"]))
    out["sampling.rows"] = float(sum(s[6] for s in by_name["sampling"]))
    out["views.build_ms"] = _ms(sum(selfs[s[0]]
                                    for s in by_name["views.build"]))
    out["views.rows"] = float(sum(s[6] for s in by_name["views.build"]))
    out["views.rebatch_ms"] = _ms(sum(selfs[s[0]]
                                      for s in by_name["views.rebatch"]))
    out["forward.ms"] = _ms(sum(selfs[s[0]] for s in by_name["forward"]))
    out["forward.rows"] = float(sum(s[6] for s in by_name["forward"]))
    out["forward.calls"] = float(len(by_name["forward"]))
    out["scoring.loop_self_ms"] = _ms(sum(selfs[s[0]]
                                          for s in by_name["scoring.loop"]))


def trainer_totals(spans: Sequence[Span], selfs: Dict[int, float],
                   out: Dict[str, float]) -> None:
    chunks = [s for s in spans if s[2] == "trainer.chunk"]
    fits = [s for s in spans if s[2] == "trainer.fit"]
    steps = [s for s in spans if s[2] == "trainer.step"]
    out["trainer.chunk_ms"] = _ms(sum(s[4] - s[3] for s in chunks))
    out["trainer.steps"] = float(len(steps))
    out["trainer.update_ms"] = _ms(sum(s[4] - s[3] for s in fits)
                                   - sum(s[4] - s[3] for s in chunks))


def shares(spans: Sequence[Span], selfs: Dict[int, float], denominator: float,
           out: Dict[str, float], overrides: Optional[Dict[str, float]] = None
           ) -> None:
    """``<layer>.share`` = summed self time / ``denominator`` seconds;
    ``overrides`` replaces a layer's self time (the gateway's, which
    needs the cross-thread join)."""
    busy = defaultdict(float)
    for span in spans:
        layer = LAYER_OF.get(span[2])
        if layer is not None:
            busy[layer] += selfs[span[0]]
    busy.update(overrides or {})
    for layer in SHARE_LAYERS:
        out[f"{layer}.share"] = busy[layer] / denominator if denominator else 0.0


def offline_layers(spans: Sequence[Span], train_window, score_window
                   ) -> Dict[str, float]:
    """Offline: compute layers over the scoring phase, trainer layers
    over the training phase, shares over the whole job."""
    out = empty_metrics()
    selfs = self_times(spans)
    compute_totals([s for s in spans
                    if score_window[0] <= s[3] < score_window[1]], selfs, out)
    trainer_totals([s for s in spans
                    if train_window[0] <= s[3] < train_window[1]], selfs, out)
    job = (score_window[1] - score_window[0]) + (train_window[1]
                                                 - train_window[0])
    shares(spans, selfs, job, out)
    return out


def hit_ratio(before: dict, after: dict, prefix: str) -> float:
    """Hits / lookups of the score table (``"table"``) or the view cache
    (``"cache"``) between two ``stats`` snapshots; 0 without lookups."""
    hits = after[f"{prefix}_hits"] - before[f"{prefix}_hits"]
    misses = after[f"{prefix}_misses"] - before[f"{prefix}_misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _index_calls(spans: Sequence[Span]):
    """Scoring calls by node (node reads) and by edge key (edge reads),
    each a start-sorted list of spans."""
    by_node = defaultdict(list)
    by_edge = defaultdict(list)
    for span in spans:
        if span[2] == "serving.score_nodes" and span[7]:
            for node in set(span[7]):
                by_node[node].append(span)
        elif span[2] == "serving.score_edge" and span[7]:
            by_edge[tuple(span[7])].append(span)
    for table in (by_node, by_edge):
        for calls in table.values():
            calls.sort(key=lambda s: s[3])
    return by_node, by_edge


def _match(calls: List[Span], start: float, end: float) -> Optional[Span]:
    """First call starting at or after ``start`` that ends by ``end``."""
    i = bisect.bisect_left([c[3] for c in calls], start)
    for call in calls[i:]:
        if call[3] > end:
            return None
        if call[4] <= end:
            return call
    return None


def serving_layers(spans: Sequence[Span], window, stats_before: dict,
                   stats_after: dict) -> Dict[str, float]:
    """Serving workloads: every span that started inside ``window``
    (loop-clock seconds of the traced server) counts."""
    out = empty_metrics()
    spans = [s for s in spans if window[0] <= s[3] < window[1]]
    selfs = self_times(spans)
    compute_totals(spans, selfs, out)
    by_node, by_edge = _index_calls(spans)
    batcher_by_parent = defaultdict(list)
    for span in spans:
        if span[2] == "gateway.batcher":
            batcher_by_parent[span[1]].append(span)
    backend_spans = sorted((s for s in spans if s[2] in (
        "store.write", "serving.load", "serving.swap")), key=lambda s: s[3])
    starts = [s[3] for s in backend_spans]

    requests, overheads, waits = [], [], []
    in_flight, in_calls = [], []
    for span in spans:
        if span[2] != "gateway.dispatch":
            continue
        duration = span[4] - span[3]
        requests.append(_ms(duration))
        in_flight.append((span[3], span[4]))
        covered = []
        for batcher in batcher_by_parent.get(span[0], ()):
            key = tuple(batcher[7] or ())
            calls = by_edge.get(key) if len(key) == 2 else \
                by_node.get(key[0]) if key else None
            call = _match(calls or [], batcher[3], batcher[4])
            if call is not None:
                covered.append((call[3], call[4]))
                waits.append(_ms(call[3] - batcher[3]))
        i = bisect.bisect_left(starts, span[3])
        while i < len(backend_spans) and backend_spans[i][3] < span[4]:
            other = backend_spans[i]
            if other[4] <= span[4] and other[1] is None:
                covered.append((other[3], other[4]))
            i += 1
        overheads.append(_ms(duration - union_length(covered)))
        in_calls.extend(covered)
    if requests:
        p = tail_percentile(len(requests)) or 50
        out["gateway.request_p50_ms"] = percentile(requests, 50)
        out["gateway.request_tail_ms"] = percentile(requests, p)
        out["gateway.overhead_ms"] = percentile(overheads, 50)
    if waits:
        out["gateway.coalesce_wait_ms"] = percentile(waits, 50)
    node_calls = [s for s in spans if s[2] == "serving.score_nodes"]
    if node_calls:
        out["gateway.batch_nodes_mean"] = (sum(s[6] for s in node_calls)
                                           / len(node_calls))
        out["serving.score_nodes_ms"] = median(
            [_ms(s[4] - s[3]) for s in node_calls])
    edge_calls = [s for s in spans if s[2] == "serving.score_edge"]
    if edge_calls:
        out["serving.score_edge_ms"] = median(
            [_ms(s[4] - s[3]) for s in edge_calls])
    swaps = [s for s in spans if s[2] in ("serving.swap", "serving.load")]
    reloads = sum(1 for s in spans if s[2] == "serving.swap")
    if reloads:
        out["serving.swap_ms"] = _ms(sum(s[4] - s[3] for s in swaps)) / reloads
    writes = [s for s in spans if s[2] == "store.write"]
    if writes:
        out["store.write_ms"] = median([_ms(s[4] - s[3]) for s in writes])
    compacts = [s for s in spans if s[2] == "store.compact"]
    if compacts:
        out["store.compact_ms"] = _ms(sum(s[4] - s[3] for s in compacts))
    out["store.compactions"] = float(stats_after["store_compactions"]
                                     - stats_before["store_compactions"])
    out["serving.table_hit_ratio"] = hit_ratio(stats_before, stats_after,
                                               "table")
    out["serving.view_cache_hit_ratio"] = hit_ratio(stats_before,
                                                    stats_after, "cache")
    # Request time is wall time with at least one request in flight, so
    # coalesced requests are not counted twice; the gateway's own share
    # is the part of it in which no scoring call or write ran.
    request_s = union_length(in_flight)
    shares(spans, selfs, request_s, out,
           overrides={"gateway": request_s - union_length(in_calls)})
    return out
