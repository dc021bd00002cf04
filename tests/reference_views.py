"""Per-target reference builders: test oracles for the batched pipeline.

The library samples and builds views for whole batches at once
(:func:`repro.graph.sampling.sample_enclosing_subgraphs`,
:func:`repro.core.views.build_batched_views`).  The straightforward
one-target-at-a-time versions below — a BFS k-hop pool, the
prioritized enclosing-subgraph sampler, dense per-view operators, and
the Γ1/Γ2 augmentations on a sequential ``Generator`` — are kept here
only as oracles the tests compare the vectorized code against.
"""

from collections import deque
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.views import GraphView, HypergraphView
from repro.graph import Graph
from repro.graph.dual import edge_features
from repro.graph.sampling import SampledSubgraph


def khop_neighbors(graph: Graph, node: int, k: int,
                   max_pool: Optional[int] = None) -> np.ndarray:
    """Nodes within ``k`` hops of ``node`` (excluding ``node`` itself).

    ``max_pool`` truncates the BFS once enough candidates are collected —
    on dense graphs the full 2-hop ball can be most of the graph, and the
    samplers only need a pool to draw from.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seen = {node}
    frontier = deque([(node, 0)])
    collected: List[int] = []
    while frontier:
        current, depth = frontier.popleft()
        if depth == k:
            continue
        for neighbor in graph.neighbors(current):
            neighbor = int(neighbor)
            if neighbor not in seen:
                seen.add(neighbor)
                collected.append(neighbor)
                frontier.append((neighbor, depth + 1))
                if max_pool is not None and len(collected) >= max_pool:
                    return np.asarray(collected, dtype=np.int64)
    return np.asarray(collected, dtype=np.int64)


def sample_enclosing_subgraph(
    graph: Graph,
    target: int,
    k: int,
    size: int,
    rng: np.random.Generator,
) -> SampledSubgraph:
    """Sample the enclosing subgraph of ``target`` (graph view ``G_t``).

    Parameters
    ----------
    graph:
        Parent attributed graph.
    target:
        Target node ``v_t``.
    k:
        Hop radius of the candidate pool.
    size:
        ``K`` — number of context slots (subgraph has ``K+1`` slots).
    rng:
        Random generator (sampling is with replacement).
    """
    one_hop = graph.neighbors(target).astype(np.int64)

    # Prioritize distinct 1-hop neighbours so target edges survive; the
    # k-hop pool is only materialized when filler slots remain.
    if len(one_hop) >= size:
        chosen = rng.choice(one_hop, size=size, replace=False)
    else:
        chosen = one_hop.copy()
        remaining = size - len(chosen)
        pool = khop_neighbors(graph, target, k, max_pool=50 * size)
        if len(pool) > 0:
            filler = rng.choice(pool, size=remaining, replace=True)
        else:
            filler = np.full(remaining, target, dtype=np.int64)
        chosen = np.concatenate([chosen, filler])

    node_ids = np.concatenate([[target], chosen]).astype(np.int64)
    features = graph.features[node_ids]

    # Induce slot-level edges by pairwise lookup in the parent's edge
    # index (identical underlying nodes have no self-edge).  For the
    # subgraph sizes used here (K ≤ ~40) this beats sparse submatrix
    # indexing by a wide margin.
    edge_index = graph._build_edge_index()
    slot_edges: List[tuple] = []
    orig_ids: List[int] = []
    ids = [int(n) for n in node_ids]
    num_slots = len(ids)
    for a in range(num_slots):
        ua = ids[a]
        for b in range(a + 1, num_slots):
            ub = ids[b]
            if ua == ub:
                continue
            key = (ua, ub) if ua < ub else (ub, ua)
            eid = edge_index.get(key)
            if eid is not None:
                slot_edges.append((a, b))
                orig_ids.append(eid)
    edges = np.asarray(slot_edges, dtype=np.int64).reshape(-1, 2)
    orig = np.asarray(orig_ids, dtype=np.int64)

    # Reorder so target edges (incident to slot 0) come first, and drop
    # duplicate realizations of the same parent target edge so M_tar
    # counts distinct target edges.
    if len(edges):
        touches_target = edges[:, 0] == 0
        target_rows = np.where(touches_target)[0]
        other_rows = np.where(~touches_target)[0]
        _, keep = np.unique(orig[target_rows], return_index=True)
        target_rows = target_rows[np.sort(keep)]
        order = np.concatenate([target_rows, other_rows])
        edges, orig = edges[order], orig[order]
        num_target = len(target_rows)
    else:
        num_target = 0

    return SampledSubgraph(
        target=int(target),
        node_ids=node_ids,
        features=features,
        edges=edges,
        edge_orig_ids=orig,
        num_target_edges=int(num_target),
    )


def random_walk_subgraph(
    graph: Graph,
    start: int,
    size: int,
    rng: np.random.Generator,
    restart_prob: float = 0.5,
    max_steps: Optional[int] = None,
) -> np.ndarray:
    """Random walk with restart; returns ``size`` node ids (start first).

    Used by the CoLA / SL-GAD baselines.  If the walk cannot reach enough
    distinct nodes, the result is padded by repeating the start node —
    the standard practice in the reference implementations.
    """
    if max_steps is None:
        max_steps = 20 * size
    visited: List[int] = [int(start)]
    seen = {int(start)}
    current = int(start)
    for _ in range(max_steps):
        if len(visited) >= size:
            break
        if rng.random() < restart_prob:
            current = int(start)
            continue
        neighbors = graph.neighbors(current)
        if len(neighbors) == 0:
            current = int(start)
            continue
        current = int(neighbors[rng.integers(0, len(neighbors))])
        if current not in seen:
            seen.add(current)
            visited.append(current)
    while len(visited) < size:
        visited.append(int(start))
    return np.asarray(visited[:size], dtype=np.int64)


def _inverse_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values**exponent`` with zeros mapped to zero (no warnings)."""
    out = np.zeros_like(values)
    positive = values > 0
    out[positive] = values[positive] ** exponent
    return out


def dense_gcn_operator(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric GCN normalization of a small dense adjacency (Eq. 4)."""
    a_tilde = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = _inverse_power(a_tilde.sum(axis=1), -0.5)
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


def dense_hgnn_operator(incidence: np.ndarray) -> np.ndarray:
    """HGNN propagation of a small dense incidence matrix (Eq. 10)."""
    dv = _inverse_power(incidence.sum(axis=1), -0.5)
    de = _inverse_power(incidence.sum(axis=0), -1.0)
    scaled = incidence * dv[:, None]
    return (scaled * de[None, :]) @ scaled.T


def build_graph_view(sub: SampledSubgraph) -> GraphView:
    """Anonymize the target node (Eq. 1) and extend the adjacency (Eq. 2)."""
    ns = sub.num_nodes
    dim = sub.features.shape[1]

    features = np.zeros((ns + 1, dim))
    features[1:ns] = sub.features[1:]
    features[ns] = sub.features[0]          # raw copy of the target

    adjacency = np.zeros((ns + 1, ns + 1))
    if len(sub.edges):
        adjacency[sub.edges[:, 0], sub.edges[:, 1]] = 1.0
        adjacency[sub.edges[:, 1], sub.edges[:, 0]] = 1.0
    adjacency[ns, ns] = 1.0                 # isolated self-loop of Eq. 2
    operator = dense_gcn_operator(adjacency)

    return GraphView(
        features=features,
        operator=operator,
        patch_row=0,
        target_row=ns,
        num_context_rows=ns,
    )


def mask_features(features: np.ndarray, prob: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Γ1 — zero random feature dimensions with probability ``prob``."""
    if prob <= 0.0:
        return features
    keep = rng.random(features.shape[1]) >= prob
    return features * keep[None, :]


def perturb_incidence(incidence, prob: float,
                      rng: np.random.Generator):
    """Γ2 — kick nodes out of hyperedges i.i.d. Bernoulli(``prob``).

    Only incidence entries are dropped; the dual-node count is unchanged
    (Section IV-A: hyperedge perturbation keeps the node set constant).
    Zero-degree rows created by the drop are handled by the operator
    normalization.  Accepts dense arrays or scipy sparse matrices.
    """
    if sp.issparse(incidence):
        if prob <= 0.0 or incidence.nnz == 0:
            return incidence
        result = incidence.tocoo()
        keep = rng.random(result.nnz) >= prob
        return sp.csr_matrix(
            (result.data[keep], (result.row[keep], result.col[keep])),
            shape=incidence.shape,
        )
    if prob <= 0.0:
        return incidence
    mask = rng.random(incidence.shape) >= prob
    return incidence * mask


def build_hypergraph_view(
    sub: SampledSubgraph,
    rng: np.random.Generator,
    feature_mask_prob: float = 0.2,
    incidence_drop_prob: float = 0.2,
    augment: bool = True,
) -> Optional[HypergraphView]:
    """Dual-transform, augment (Γ2∘Γ1), and anonymize target edges.

    Returns ``None`` when the subgraph has no edges at all (isolated
    target) — the caller substitutes a zero context, which maximizes the
    disagreement score for such degenerate nodes.
    """
    ms = sub.num_edges
    if ms == 0:
        return None
    mtar = sub.num_target_edges
    ns = sub.num_nodes
    dim = sub.features.shape[1]

    dual_features = edge_features(sub.features, sub.edges)       # (Ms, D)
    incidence = np.zeros((ms, ns))                               # M* = Mᵀ
    edge_ids = np.arange(ms)
    incidence[edge_ids, sub.edges[:, 0]] = 1.0
    incidence[edge_ids, sub.edges[:, 1]] = 1.0

    if augment:
        dual_features = mask_features(dual_features, feature_mask_prob, rng)
        incidence = perturb_incidence(incidence, incidence_drop_prob, rng)

    # Eq. 7: zero the target-edge rows, append their raw features.
    features = np.zeros((ms + mtar, dim))
    features[mtar:ms] = dual_features[mtar:]
    features[ms:] = dual_features[:mtar]

    # Eq. 8: extend the incidence with an identity block for the copies.
    extended = np.zeros((ms + mtar, ns + mtar))
    extended[:ms, :ns] = incidence
    if mtar > 0:
        extended[ms:, ns:] = np.eye(mtar)
    operator = dense_hgnn_operator(extended)

    return HypergraphView(
        features=features,
        operator=operator,
        num_target_edges=mtar,
        num_context_rows=ms,
        edge_orig_ids=sub.target_edge_orig_ids.copy(),
    )
