"""Workload inputs, each a pure function of ``(workload, seed)``.

The program under test only ever sees what these functions return: the
benchmark graph (``load_benchmark`` at the fixed dataset, scale and
seed), the training configs, and the request schedules sent over the
wire.  Nothing here reads a clock or a global RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

DATASET = "cora"
SCALE = 0.15
#: The dataset is fixed, like a file a benchmark ships with: the run
#: seed drives everything drawn at run time instead (model init,
#: training and inference sampling streams, request order, the stream
#: schedule).  Different graphs differ in cost per epoch by up to 30%,
#: which would drown a regression in the seed-to-seed spread.
DATASET_SEED = 0

#: ``python -m repro train`` defaults (hidden 64, K=12, alpha 0.8,
#: beta 0.2, 25 epochs) -- the offline job trains exactly this.
TRAIN_DEFAULTS = dict(hidden_dim=64, predictor_hidden=128, subgraph_size=12,
                      alpha=0.8, beta=0.2, epochs=25)
OFFLINE_ROUNDS = 160
COLD_ROUNDS = 160
STREAM_ROUNDS = 8          # ``serve --rounds`` default

#: Epochs of the models the serving workloads publish (v1, v2).  Serving
#: cost does not depend on how long a model trained; short training
#: keeps set-up, which runs three times per run, small.
SERVE_EPOCHS = (1, 2)

#: Stream mix.
WRITE_SHARE = 0.25
READ_ON_NDJSON = 0.3       # share of reads sent on the write connection
EDGE_READ_SHARE = 0.15     # score_edge among reads
MULTI_READ_SHARE = 0.1     # reads that carry 8 nodes instead of 1
MULTI_READ_NODES = 8
ZIPF_S = 1.1
#: Write kinds, in order: add_edge, update_features, add_node.
WRITE_MIX = (0.6, 0.35, 0.05)


def seed_for(workload: str, seed: int) -> int:
    """Model seed of a run (``BourneConfig.seed``, which also seeds the
    serving streams).  The workload name is folded in so two workloads
    never share inputs by accident."""
    salt = {"offline-r160": 0, "serve-cold-r160": 1, "serve-stream-r8": 2}
    return int(seed) * 3 + salt[workload]


def load_graph():
    """The benchmark graph the program scores (the CLI's own recipe)."""
    from repro.datasets import load_benchmark
    from repro.eval import normalize_graph

    return normalize_graph(load_benchmark(DATASET, seed=DATASET_SEED,
                                          scale=SCALE))


def model_config(model_seed: int, epochs: int, rounds: int):
    from repro.core import BourneConfig

    return BourneConfig(eval_rounds=rounds, seed=model_seed,
                        **{**TRAIN_DEFAULTS, "epochs": epochs})


# ----------------------------------------------------------------------
# serve-cold-r160
# ----------------------------------------------------------------------
def cold_order(num_nodes: int, seed: int, warmup: int) -> Tuple[List[int],
                                                                List[int]]:
    """``(warm-up nodes, measured nodes)``: a seeded permutation, so
    every measured request scores a node nobody scored before."""
    order = np.random.default_rng((seed, 11)).permutation(num_nodes)
    order = [int(n) for n in order]
    return order[:warmup], order[warmup:]


# ----------------------------------------------------------------------
# serve-stream-r8
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One scheduled request.  ``due`` is seconds after the phase start;
    ``conn`` is ``"ndjson"`` (carries every write) or ``"http"``
    (reads only); ``kind`` is ``"read"``, ``"write"`` or ``"reload"``."""
    due: float
    conn: str
    kind: str
    body: dict
    path: Optional[str] = None


@dataclass
class StreamPlan:
    ops: List[Op]
    node_reads: int = 0
    nodes_read: int = 0
    edge_reads: int = 0
    writes: Dict[str, int] = field(default_factory=dict)


def _zipf_pool(rng, order: np.ndarray, s: float, size: int):
    """``size`` picks from ``order`` (most popular first) in exact
    bounded-Zipf proportions (largest remainder), in seeded order: like
    :func:`_exact_mix`, the seed moves which request reads a node, never
    how often each node is read.  I.i.d. draws moved the score-table
    hit share of a 300-request run between 0.21 and 0.30 over five
    seeds, and the CPU a request costs with it."""
    ranks = np.arange(1, len(order) + 1, dtype=np.float64)
    quota = ranks ** -s
    quota *= size / quota.sum()
    counts = np.floor(quota).astype(np.int64)
    short = size - int(counts.sum())
    counts[np.argsort(counts - quota, kind="stable")[:short]] += 1
    return iter(rng.permutation(np.repeat(order, counts)).tolist())


def popularity(graph) -> tuple:
    """``(node order, edge order)``, most popular first: nodes by degree,
    edges by their endpoints' degree sum (ties by id).  Popular accounts
    are the well-connected ones; fixing the ranking to the graph keeps
    the cost of the hot set from changing with the seed."""
    edges = np.asarray(graph.edges, dtype=np.int64)
    degree = np.bincount(edges.ravel(), minlength=graph.num_nodes)
    nodes = np.lexsort((np.arange(graph.num_nodes), -degree))
    edge_weight = degree[edges[:, 0]] + degree[edges[:, 1]]
    edge_order = np.lexsort((np.arange(len(edges)), -edge_weight))
    return nodes, edge_order


def _exact_mix(rng, count: int) -> np.ndarray:
    """``count`` op kinds in the exact shares of the mix, in seeded
    order: the seed moves *when* each kind comes and which nodes it
    touches, never how many of each there are."""
    reads = 1.0 - WRITE_SHARE
    shares = {
        "add_edge": WRITE_SHARE * WRITE_MIX[0],
        "update_features": WRITE_SHARE * WRITE_MIX[1],
        "add_node": WRITE_SHARE * WRITE_MIX[2],
        "score_edge": reads * EDGE_READ_SHARE,
        "score_multi": reads * (1 - EDGE_READ_SHARE) * MULTI_READ_SHARE,
    }
    counts = {kind: int(round(count * share)) for kind, share in shares.items()}
    counts["score"] = count - sum(counts.values())
    kinds = np.repeat(np.array(list(counts)), list(counts.values()))
    return rng.permutation(kinds)


def stream_plan(graph, seed: int, rate: float, count: int,
                reload_versions=(1, 2)) -> StreamPlan:
    """The open-loop schedule: ``count`` requests, one every
    ``1/rate`` seconds, exactly :data:`WRITE_SHARE` of them writes.

    Writes are always valid: ``add_edge`` never proposes a self-loop or
    an edge that exists (initial or added earlier in the schedule),
    ``update_features`` and ``add_node`` carry an existing finite
    feature row.  Reads pick nodes (and edges) Zipf-skewed over
    :func:`popularity`, in exact proportions (:func:`_zipf_pool`); exactly :data:`READ_ON_NDJSON` of them travel
    on the write connection.  ``reload`` ops switch versions at one
    third and two thirds of the schedule.
    """
    rng = np.random.default_rng((seed, 22))
    num_nodes = graph.num_nodes
    features = np.asarray(graph.features, dtype=np.float64)
    edges = np.asarray(graph.edges, dtype=np.int64)
    edge_set = {(int(min(u, v)), int(max(u, v))) for u, v in edges}
    node_order, edge_order = popularity(graph)
    plan = StreamPlan(ops=[], writes={"add_edge": 0, "update_features": 0,
                                      "add_node": 0})
    kinds = _exact_mix(rng, count)
    kind_list = kinds.tolist()
    node_pool = _zipf_pool(rng, node_order, ZIPF_S, kind_list.count("score")
                           + MULTI_READ_NODES * kind_list.count("score_multi"))
    edge_pool = _zipf_pool(rng, edge_order, ZIPF_S,
                           kind_list.count("score_edge"))
    on_ndjson = rng.permutation(count) < READ_ON_NDJSON * count
    reload_at = {count // 3: reload_versions[0],
                 (2 * count) // 3: reload_versions[1]}
    live_nodes = num_nodes
    for i, kind in enumerate(kinds):
        due = i / rate
        if i in reload_at:
            plan.ops.append(Op(due, "ndjson", "reload",
                               {"op": "reload", "version": reload_at[i]}))
            continue
        if kind == "add_edge":
            while True:
                u, v = (int(x) for x in rng.integers(0, live_nodes, 2))
                key = (min(u, v), max(u, v))
                if u != v and key not in edge_set:
                    break
            edge_set.add(key)
            body = {"op": "add_edge", "u": u, "v": v}
        elif kind == "update_features":
            node = int(rng.integers(0, live_nodes))
            row = features[int(rng.integers(0, num_nodes))]
            body = {"op": "update_features", "node": node,
                    "features": row.tolist()}
        elif kind == "add_node":
            row = features[int(rng.integers(0, num_nodes))]
            body = {"op": "add_node", "features": row.tolist()}
            live_nodes += 1
        if kind in plan.writes:
            plan.writes[kind] += 1
            plan.ops.append(Op(due, "ndjson", "write", body))
            continue
        conn = "ndjson" if on_ndjson[i] else "http"
        if kind == "score_edge":
            u, v = (int(x) for x in edges[next(edge_pool)])
            body = {"op": "score_edge", "u": u, "v": v}
            path = "/v1/score_edge"
            plan.edge_reads += 1
        else:
            width = MULTI_READ_NODES if kind == "score_multi" else 1
            nodes = [next(node_pool) for _ in range(width)]
            body = {"op": "score", "nodes": nodes}
            path = "/v1/score_node"
            plan.node_reads += 1
            plan.nodes_read += len(nodes)
        plan.ops.append(Op(due, conn, "read", body,
                           path if conn == "http" else None))
    return plan
