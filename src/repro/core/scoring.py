"""Inference: multi-round anomaly scoring (Algorithm 1, inference stage).

Every node is visited as a target ``R`` times; each visit scores the
node and its sampled target edges.  Per-object scores are averaged over
all visits — edges accumulate evidence from both endpoints.

One stream scheme
-----------------
Every inference draw is counter-based and keyed by ``(stream seed,
round, target)``.  Round ``r``'s base is :func:`sampling_base`; each
(target, round) pair's seed folds that base with the target id
(:func:`repro.graph.index.derive_target_seeds`) and drives the pair's
subgraph sampling *and* its Γ1/Γ2 view augmentation; the ``node_only``
forward mask of round ``r`` is seeded by
``derive_stream_seed(base_r, _ROUND_MASK_TAG)``.  The stream seed is
:func:`inference_seed` — the model seed (or an explicit ``seed``) plus
:data:`INFERENCE_SEED_OFFSET` — for the offline scorer and the serving
layer alike, so a node's score depends on ``(model, graph, seed,
rounds)`` only: never on batch layout, sharding, request history, or
which surface asked.

One pipeline, one loop
----------------------
:func:`sample_target_views` samples and builds the views of one chunk
of (target, round) pairs; :func:`score_span` runs the shared
accumulation loop :func:`score_target_span` over it.  The serial
:func:`score_graph`, the sharded workers (:mod:`repro.parallel`), and
the serving layer (:class:`repro.serving.ScoringService`, router
replicas, lifecycle probes) all call :func:`score_span`; the service
only adds its subgraph-cache lookup through the ``sample`` hook.  Rounds
are a batch axis: a span's ``R × B`` pairs are flattened round-major
into chunks of ``batch_size`` pairs, one sampling call, one view build
and one forward each — ``⌈R·B / batch_size⌉`` forwards.  Each chunk's
node scores are added per round segment in round order and its edge
evidence is filed per round, so the accumulation sequence is exactly
the rounds-outermost serial one, and offline, sharded and served
scores are bitwise-equal by construction.  The loop returns
:class:`RoundEvidence` — raw per-round edge contributions in target
order — and :func:`replay_edge_rounds` / :func:`mean_edge_rounds` fold
spans of evidence back together by replaying the serial accumulation
sequence (rounds outermost, spans in ascending target order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..graph.graph import Graph
from ..graph.index import derive_stream_seed, derive_target_seeds, splitmix64
from ..graph.sampling import SampledSubgraphBatch, sample_enclosing_subgraphs
from ..obs import trace as obs_trace
from ..tensor.backend import resolve_backend
from .model import Bourne
from .views import (
    batch_graph_views_from_subgraphs,
    batch_hypergraph_views_from_subgraphs,
    seeded_forward_mask_draws,
)

#: Offset folded into every inference stream seed, keeping inference
#: draws disjoint from the training streams of the same base seed.
INFERENCE_SEED_OFFSET = 104729

#: Stream tag folding a round base into the round's ``node_only``
#: forward-mask seed; distinct from the sampler's tags 1/2 and the
#: views' tags 3/4/5 so no stream ever collides.
_ROUND_MASK_TAG = 11


@dataclass
class AnomalyScores:
    """Final anomaly scores for a graph.

    Attributes
    ----------
    node_scores:
        ``(N,)`` — higher means more anomalous; NaN-free (degenerate
        targets inherit the mean score).
    edge_scores:
        ``(M,)`` aligned with ``graph.edges``; edges never sampled in
        any round inherit the mean edge score.
    node_rounds / edge_rounds:
        How many score samples were accumulated per object.
    """

    node_scores: np.ndarray
    edge_scores: np.ndarray
    node_rounds: np.ndarray
    edge_rounds: np.ndarray

    @property
    def edge_coverage(self) -> float:
        """Fraction of edges that received at least one score sample."""
        if len(self.edge_rounds) == 0:
            return 1.0
        return float((self.edge_rounds > 0).mean())


def inference_seed(config, seed: Optional[int] = None) -> int:
    """Stream seed of inference: ``seed`` (default: the model seed)
    plus :data:`INFERENCE_SEED_OFFSET`.  :func:`score_graph` and
    :class:`repro.serving.ScoringService` both derive their streams
    here, so the same ``seed`` names the same streams on every
    surface."""
    return (config.seed if seed is None else int(seed)) + INFERENCE_SEED_OFFSET


def sampling_base(seed: int, round_index) -> np.ndarray:
    """Base of round ``round_index``'s counter-based draws —
    ``derive_stream_seed(seed, 0, round)``, vectorized: ``round_index``
    may be one round or an array with one round per (target, round)
    pair."""
    rounds = np.asarray(round_index, dtype=np.uint64)
    return splitmix64(derive_stream_seed(seed, 0) ^ splitmix64(rounds))


def round_mask_seed(seed: int, round_index: int) -> int:
    """Seed of round ``round_index``'s ``node_only`` forward mask."""
    return int(derive_stream_seed(int(sampling_base(seed, round_index)),
                                  _ROUND_MASK_TAG))


def inference_forward_streams(model: Bourne, seed: int, rounds: int):
    """``forward_streams`` callback giving every row its round's
    ``node_only`` forward mask.

    The table of ``R`` Γ1 keep-vectors is drawn once (round ``r``'s from
    :func:`round_mask_seed`) and each forward receives ``row_masks`` —
    one row per (target, round) pair, keyed by the row's round — so a
    row's mask never depends on which rounds share its chunk.  Modes
    without a forward mask get no keyword arguments at all.
    """
    cfg = model.config
    if cfg.mode != "node_only" or cfg.feature_mask_prob <= 0.0 or rounds < 1:
        return lambda chunk_rounds: {}
    table = np.stack([
        seeded_forward_mask_draws(model.num_features, cfg.feature_mask_prob,
                                  round_mask_seed(seed, round_index))
        for round_index in range(rounds)])
    return lambda chunk_rounds: {"row_masks": table[chunk_rounds]}


#: ``sample(targets, round_ids, seeds)`` hook of :func:`sample_target_views`.
PairSampler = Callable[[np.ndarray, np.ndarray, np.ndarray],
                       SampledSubgraphBatch]


def sample_target_views(graph_like, targets: np.ndarray,
                        round_ids: np.ndarray, seed: int, config,
                        sample: Optional[PairSampler] = None):
    """Sample + build the views of one chunk of (target, round) pairs.

    THE inference view pipeline: each pair's seed is
    ``derive_target_seeds(sampling_base(seed, round), target)``; ONE
    vectorized sampling call draws every pair's subgraph from it, and
    ONE vectorized build produces both batched views, keying the Γ1/Γ2
    augmentation (``config.augment_at_inference``) off the same seeds.
    ``sample`` replaces the sampling call — the serving layer answers
    pairs from its subgraph cache through it; it must return exactly
    the batch :func:`sample_enclosing_subgraphs` would.  Pure function
    of ``(topology, seed, pairs)``.  Returns ``(BatchedGraphViews,
    BatchedHypergraphViews)``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    round_ids = np.asarray(round_ids, dtype=np.int64)
    seeds = derive_target_seeds(sampling_base(seed, round_ids), targets)
    if sample is None:
        batch = sample_enclosing_subgraphs(
            graph_like, targets, k=config.hop_size,
            size=config.subgraph_size, target_seeds=seeds)
    else:
        batch = sample(targets, round_ids, seeds)
    # The two builders of build_batched_views, called directly so this
    # function stays the one view-build stage a chunk is timed under.
    with obs_trace.span("views.build_batched") as sp:
        sp.set(pairs=len(targets))
        return (batch_graph_views_from_subgraphs(batch),
                batch_hypergraph_views_from_subgraphs(
                    batch, feature_mask_prob=config.feature_mask_prob,
                    incidence_drop_prob=config.incidence_drop_prob,
                    augment=config.augment_at_inference,
                    target_seeds=seeds))


def finalize_scores(node_sum: np.ndarray, node_count: np.ndarray,
                    edge_sum: np.ndarray, edge_count: np.ndarray) -> AnomalyScores:
    """Average accumulated evidence; impute never-scored objects with
    the mean of the scored ones (shared by the serial and sharded
    engines so both finalize identically)."""
    node_scores = np.divide(node_sum, node_count,
                            out=np.zeros_like(node_sum), where=node_count > 0)
    if (node_count == 0).any() and (node_count > 0).any():
        node_scores[node_count == 0] = node_scores[node_count > 0].mean()
    edge_scores = np.divide(edge_sum, edge_count,
                            out=np.zeros_like(edge_sum), where=edge_count > 0)
    if (edge_count == 0).any() and (edge_count > 0).any():
        edge_scores[edge_count == 0] = edge_scores[edge_count > 0].mean()
    return AnomalyScores(
        node_scores=node_scores,
        edge_scores=edge_scores,
        node_rounds=node_count,
        edge_rounds=edge_count,
    )


@dataclass
class RoundEvidence:
    """Raw evidence accumulated over one contiguous span of targets.

    ``node_sum``/``node_count`` align with the span's targets; edge
    contributions are kept *per round and in target order* so callers
    can replay the serial accumulation sequence exactly (floating-point
    addition is order-sensitive — summing per-span partials would not
    be bitwise-reproducible).
    """

    node_sum: np.ndarray
    node_count: np.ndarray
    edge_ids: List[np.ndarray] = field(default_factory=list)
    edge_vals: List[np.ndarray] = field(default_factory=list)
    forward_batches: int = 0


def concat_round_parts(parts_ids: List[np.ndarray],
                       parts_vals: List[np.ndarray]):
    """Concatenate one round's per-batch edge evidence (empty-safe)."""
    if parts_ids:
        return np.concatenate(parts_ids), np.concatenate(parts_vals)
    return np.zeros(0, dtype=np.int64), np.zeros(0)


def score_target_span(
    model: Bourne,
    targets: np.ndarray,
    rounds: int,
    batch_size: int,
    build_views: Callable[[np.ndarray, np.ndarray], tuple],
    forward_streams: Callable[[np.ndarray], dict],
    backend=None,
) -> RoundEvidence:
    """Run the multi-round scoring loop over one span of targets.

    This is the single inner loop of every scoring surface (reached
    through :func:`score_span`).  Rounds are a batch axis:
    the span's ``rounds × len(targets)`` (round, target) pairs are
    flattened round-major and cut into chunks of ``batch_size`` pairs,
    so the loop runs ``⌈R·B / batch_size⌉`` forwards — one forward
    may mix rows of several rounds.  ``build_views(chunk_targets,
    chunk_rounds)`` returns the prepared ``(BatchedGraphViews,
    BatchedHypergraphViews)`` for one chunk (one round index per row);
    ``forward_streams(chunk_rounds)`` returns the keyword arguments
    that pin the forward pass's per-row draws (see
    :func:`inference_forward_streams`).  Both callbacks must be pure
    functions of each row's ``(target, round)`` — never of batch
    layout — which is what makes every caller's output
    bitwise-identical however the span is split.

    Each chunk's node scores are added into ``node_sum`` one per-round
    segment at a time, in round order, and edge evidence is filed per
    round in target order: the accumulation sequence is exactly the
    rounds-outermost serial one, with no ``R × B`` buffer.

    ``backend`` selects the compute backend for the forward pass (a
    registered name, a :class:`repro.tensor.TensorBackend` instance, or
    ``None`` for the process default) — this call site is the single
    seam every scoring surface inherits it through.  The default
    ``numpy`` backend is the model's own forward, bitwise-unchanged.
    """
    backend = resolve_backend(backend)
    targets = np.asarray(targets, dtype=np.int64)
    width = len(targets)
    evidence = RoundEvidence(node_sum=np.zeros(width),
                             node_count=np.zeros(width))
    parts_ids: List[List[np.ndarray]] = [[] for _ in range(rounds)]
    parts_vals: List[List[np.ndarray]] = [[] for _ in range(rounds)]
    total = rounds * width
    for start in range(0, total, batch_size):
        pairs = np.arange(start, min(start + batch_size, total))
        chunk_rounds = pairs // width
        chunk = targets[pairs - chunk_rounds * width]
        # Tracing stages, not draws: span ids are counter-based and
        # the callbacks are untouched, so scores stay bitwise-equal
        # with tracing on (the obs pin tests assert it).
        with obs_trace.span("scoring.build_views") as sp:
            sp.set(pairs=len(chunk), first_round=int(chunk_rounds[0]),
                   last_round=int(chunk_rounds[-1]))
            gviews, hviews = build_views(chunk, chunk_rounds)
        with obs_trace.span("scoring.forward") as sp:
            sp.set(pairs=len(chunk), backend=backend.name)
            scores = backend.forward_batch(model, gviews, hviews,
                                           **forward_streams(chunk_rounds))
        evidence.forward_batches += 1
        node_scores = (scores.node_scores.data
                       if scores.node_scores is not None else None)
        has_edges = (scores.edge_scores is not None
                     and len(scores.edge_orig_ids) > 0)
        if has_edges:
            edge_ids = np.asarray(scores.edge_orig_ids, dtype=np.int64)
            edge_vals = scores.edge_scores.data
        # Per-round segments of the chunk, in round order; each edge's
        # owner row is sorted, so a segment's edges are contiguous too.
        for round_index in range(int(chunk_rounds[0]),
                                 int(chunk_rounds[-1]) + 1):
            lo = max(start, round_index * width)
            hi = min(start + len(chunk), (round_index + 1) * width)
            row_lo, row_hi = lo - start, hi - start
            pos_lo, pos_hi = lo - round_index * width, hi - round_index * width
            if node_scores is not None:
                evidence.node_sum[pos_lo:pos_hi] += node_scores[row_lo:row_hi]
                evidence.node_count[pos_lo:pos_hi] += 1
            if has_edges:
                e_lo, e_hi = np.searchsorted(scores.edge_owner,
                                             (row_lo, row_hi))
                if e_hi > e_lo:
                    parts_ids[round_index].append(edge_ids[e_lo:e_hi])
                    parts_vals[round_index].append(edge_vals[e_lo:e_hi])
    for round_index in range(rounds):
        ids, vals = concat_round_parts(parts_ids[round_index],
                                       parts_vals[round_index])
        evidence.edge_ids.append(ids)
        evidence.edge_vals.append(vals)
    return evidence


def score_span(model: Bourne, graph_like, targets: np.ndarray, seed: int,
               rounds: int, batch_size: int, backend=None,
               sample: Optional[PairSampler] = None) -> RoundEvidence:
    """Score one span of targets on the inference streams of ``seed``.

    :func:`score_target_span` over :func:`sample_target_views` and
    :func:`inference_forward_streams` — the one composition every
    scoring surface runs (``sample`` is the serving cache's hook).
    """
    config = model.config

    def build(chunk: np.ndarray, chunk_rounds: np.ndarray):
        return sample_target_views(graph_like, chunk, chunk_rounds, seed,
                                   config, sample=sample)

    return score_target_span(model, targets, rounds, batch_size, build,
                             inference_forward_streams(model, seed, rounds),
                             backend=backend)


def replay_edge_rounds(edge_sum: np.ndarray, edge_count: np.ndarray,
                       rounds: int, spans: Sequence[RoundEvidence]) -> None:
    """Fold edge evidence into dense accumulators in serial order:
    rounds outermost, spans in ascending target order — exactly the
    sequence a single-process pass over the whole range adds in."""
    for round_index in range(rounds):
        for span in spans:
            ids = span.edge_ids[round_index]
            if len(ids):
                np.add.at(edge_sum, ids, span.edge_vals[round_index])
                np.add.at(edge_count, ids, 1)


def mean_edge_rounds(rounds: int,
                     spans: Sequence[RoundEvidence]) -> Dict[int, float]:
    """Per-edge-id mean evidence, replayed in serial accumulation order
    (the sparse counterpart of :func:`replay_edge_rounds`, used by the
    serving layer's edge table)."""
    edge_sums: Dict[int, float] = {}
    edge_counts: Dict[int, int] = {}
    for round_index in range(rounds):
        for span in spans:
            vals = span.edge_vals[round_index]
            for eid, value in zip(span.edge_ids[round_index], vals):
                eid = int(eid)
                edge_sums[eid] = edge_sums.get(eid, 0.0) + float(value)
                edge_counts[eid] = edge_counts.get(eid, 0) + 1
    return {eid: total / edge_counts[eid] for eid, total in edge_sums.items()}


def score_graph(
    model: Bourne,
    graph: Graph,
    rounds: Optional[int] = None,
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    planner=None,
    pool=None,
    backend=None,
) -> AnomalyScores:
    """Score every node and edge of ``graph`` with ``rounds`` evaluations.

    Parameters
    ----------
    rounds:
        Evaluation rounds ``R`` (default from the model config).
    batch_size:
        (target, round) pairs per forward (default from the model
        config); scores do not depend on it.
    seed:
        Seed of the inference streams (default: the model seed); see
        :func:`inference_seed`.  ``ScoringService(seed=s)`` scores a
        static graph bitwise like ``score_graph(seed=s)``.
    workers:
        When > 1, fan the target range out to that many worker
        processes via :func:`repro.parallel.score_graph_sharded`; the
        merged output is bitwise-identical to the serial path.
    shards / planner / pool:
        Forwarded to the sharded engine: number of work shards (default
        ``4 × workers``), the :class:`repro.parallel.ShardPlanner`
        that places the shard boundaries, and an optional persistent
        :class:`repro.parallel.WorkerPool` to reuse.
    backend:
        Compute backend for the forward pass — a registered name
        (``"numpy"``/``"fused"``/``"numba"``), a backend instance, or
        ``None`` for the process default.  The ``numpy`` reference is
        the bitwise pin; fast backends stay within ``1e-5`` relative
        tolerance (workers > 1 requires a registered name so worker
        processes can resolve it).
    """
    cfg = model.config
    rounds = rounds if rounds is not None else cfg.eval_rounds
    batch_size = batch_size if batch_size is not None else cfg.batch_size
    if workers is not None and workers > 1:
        from ..parallel import score_graph_sharded
        return score_graph_sharded(
            model, graph, rounds=rounds, batch_size=batch_size, seed=seed,
            workers=workers, shards=shards, planner=planner, pool=pool,
            backend=backend,
        )
    model.eval_mode()
    evidence = score_span(model, graph, np.arange(graph.num_nodes),
                          inference_seed(cfg, seed), rounds, batch_size,
                          backend=backend)
    model.train_mode()
    edge_sum = np.zeros(graph.num_edges)
    edge_count = np.zeros(graph.num_edges)
    replay_edge_rounds(edge_sum, edge_count, rounds, [evidence])
    return finalize_scores(evidence.node_sum, evidence.node_count,
                           edge_sum, edge_count)
