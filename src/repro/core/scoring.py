"""Inference: multi-round anomaly scoring (Algorithm 1, inference stage).

Every node is visited as a target ``R`` times; each visit scores the
node and its sampled target edges.  Per-object scores are averaged over
all visits — edges accumulate evidence from both endpoints.

The batched path draws one *base* per round up front and derives every
``(round, target)`` pair's sampling seed from ``(base, target id)``,
so scores never depend on batch layout; :func:`score_graph` exposes
the same computation sharded over worker processes (``workers=``) with
bitwise-identical output (see :mod:`repro.parallel`).

Shared accumulation loop
------------------------
:func:`score_target_span` is THE inner scoring loop: the serial
:func:`score_graph`, the sharded workers
(:mod:`repro.parallel.engine`), and the serving layer
(:class:`repro.serving.ScoringService`, router replicas, lifecycle
probes) all run it — they differ only in how a chunk's views are built
and which RNG streams feed the forward.  Rounds are a batch axis: a
span's ``R × B`` (round, target) pairs are flattened round-major into
chunks of ``batch_size`` pairs, one sampling call, one view build and
one forward each — ``⌈R·B / batch_size⌉`` forwards where a loop over
rounds ran ``R·⌈B / batch_size⌉``.  Each chunk's node scores are added
per round segment in round order and its edge evidence is filed per
round, so the accumulation sequence is exactly the rounds-outermost
serial one.  Bitwise equivalence between the serial, sharded, and
served paths is therefore structural: there is exactly one
accumulation order to drift from.  The helper returns
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
from ..graph.index import derive_stream_seed, derive_target_seeds
from ..obs import trace as obs_trace
from ..tensor.backend import resolve_backend
from ..utils.seed import rng_from_seed
from .model import Bourne
from .views import seeded_forward_mask_draws

#: Offset keeping inference RNG streams disjoint from training draws.
INFERENCE_SEED_OFFSET = 104729

#: Stream tag folding a round base into the per-round forward mask seed
#: (``node_only`` mode); distinct from the sampler's tags 1/2 and the
#: views' mask tag 3 so no stream ever collides.
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


def inference_round_streams(config, rounds: int, seed: Optional[int]):
    """Derive the per-round RNG streams of batched inference.

    Returns ``(rng, round_bases, mask_seeds)``: the sequential RNG (used
    only when augmentation draws remain sequential), one ``uint64``
    sampling base per round, and one forward-mask seed per round derived
    from each base *without* consuming the RNG.  The sharded engine
    calls this with identical arguments, which is what makes its output
    bitwise-identical to the serial path.
    """
    rng = rng_from_seed((config.seed if seed is None else seed)
                        + INFERENCE_SEED_OFFSET)
    round_bases = rng.integers(0, 2 ** 64, size=rounds, dtype=np.uint64)
    mask_seeds = np.array(
        [derive_stream_seed(int(base), _ROUND_MASK_TAG) for base in round_bases],
        dtype=np.uint64,
    )
    return rng, round_bases, mask_seeds


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

    This is the single inner loop shared by the serial scorer, the
    sharded workers, and the serving layer.  Rounds are a batch axis:
    the span's ``rounds × len(targets)`` (round, target) pairs are
    flattened round-major and cut into chunks of ``batch_size`` pairs,
    so the loop runs ``⌈R·B / batch_size⌉`` forwards — one forward
    may mix rows of several rounds.  ``build_views(chunk_targets,
    chunk_rounds)`` returns the prepared ``(BatchedGraphViews,
    BatchedHypergraphViews)`` for one chunk (one round index per row);
    ``forward_streams(chunk_rounds)`` returns the keyword arguments
    that pin the forward pass's per-row RNG streams (see
    :func:`round_mask_streams`).  Both callbacks must be pure functions
    of each row's ``(target, round)`` — never of batch layout — which
    is what makes every caller's output bitwise-identical however the
    span is split.

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


def round_mask_streams(model: Bourne, rounds: int,
                       round_mask: Callable[[int, int, float],
                                            Optional[np.ndarray]]):
    """``forward_streams`` callback giving every row its round's
    ``node_only`` forward mask.

    ``round_mask(round_index, dim, prob)`` returns round ``r``'s Γ1
    keep-vector (``None`` when masking is off); the table of ``R``
    vectors is drawn once and each forward receives ``row_masks`` — one
    row per (target, round) pair, keyed by the row's round — so a row's
    mask never depends on which rounds share its chunk.  Modes without a
    forward mask get no keyword arguments at all.
    """
    cfg = model.config
    if cfg.mode != "node_only" or cfg.feature_mask_prob <= 0.0 or rounds < 1:
        return lambda chunk_rounds: {}
    table = np.stack([round_mask(round_index, model.num_features,
                                 cfg.feature_mask_prob)
                      for round_index in range(rounds)])
    return lambda chunk_rounds: {"row_masks": table[chunk_rounds]}


def offline_forward_streams(model: Bourne, mask_seeds: np.ndarray):
    """``forward_streams`` callback of the offline batched path: each
    row's ``node_only`` mask is the counter-based draw of its round's
    ``mask_seeds`` entry."""
    return round_mask_streams(
        model, len(mask_seeds),
        lambda round_index, dim, prob: seeded_forward_mask_draws(
            dim, prob, int(mask_seeds[round_index])))


def offline_view_builder(model: Bourne, graph, round_bases: np.ndarray):
    """``build_views`` callback of the offline batched path: vectorized
    sampling + counter-based augmentation keyed by per-``(round,
    target)`` seeds derived from one base per round."""
    augment = model.config.augment_at_inference

    def build(chunk: np.ndarray, chunk_rounds: np.ndarray):
        target_seeds = derive_target_seeds(round_bases[chunk_rounds], chunk)
        return model.prepare_batch(graph, chunk, augment=augment,
                                   target_seeds=target_seeds)

    return build


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
    sampler: str = "batched",
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
        Inference batch size (default from the model config).
    seed:
        Seed for inference-time sampling/augmentation; defaults to the
        model seed shifted so inference never replays training draws.
    sampler:
        ``"batched"`` (default) samples each minibatch through the
        vectorized pipeline with per-``(round, target)`` seeds, so a
        node's subgraphs do not depend on ``batch_size``;
        ``"per_target"`` keeps the legacy per-target loop as a
        reference/benchmark baseline.
    workers:
        When > 1, fan the target range out to that many worker
        processes via :func:`repro.parallel.score_graph_sharded`.  The
        merged output is bitwise-identical to the serial path with view
        augmentation on or off — Γ1/Γ2 draws are counter-based, keyed
        by the same per-``(round, target)`` seeds as sampling.
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
        if sampler != "batched":
            raise ValueError(
                "workers > 1 requires sampler='batched' (the per-target "
                "loop threads one sequential RNG and cannot be sharded)")
        from ..parallel import score_graph_sharded
        return score_graph_sharded(
            model, graph, rounds=rounds, batch_size=batch_size, seed=seed,
            workers=workers, shards=shards, planner=planner, pool=pool,
            backend=backend,
        )
    edge_sum = np.zeros(graph.num_edges)
    edge_count = np.zeros(graph.num_edges)

    model.eval_mode()
    if sampler == "batched":
        # One base per round, drawn up front: per-target seeds derive
        # from (round base, target id) — never from batch layout.  The
        # accumulation loop itself is score_target_span, shared with
        # the sharded workers and the serving layer.
        _, round_bases, mask_seeds = inference_round_streams(cfg, rounds, seed)
        evidence = score_target_span(
            model, np.arange(graph.num_nodes), rounds, batch_size,
            offline_view_builder(model, graph, round_bases),
            offline_forward_streams(model, mask_seeds),
            backend=backend,
        )
        node_sum, node_count = evidence.node_sum, evidence.node_count
        replay_edge_rounds(edge_sum, edge_count, rounds, [evidence])
        model.train_mode()
        return finalize_scores(node_sum, node_count, edge_sum, edge_count)

    # Legacy per-target reference path: one sequential RNG threads
    # through sampling, augmentation, and the forward mask, so it
    # cannot share the counter-based span loop.
    resolved = resolve_backend(backend)
    rng = rng_from_seed((cfg.seed if seed is None else seed)
                        + INFERENCE_SEED_OFFSET)
    node_sum = np.zeros(graph.num_nodes)
    node_count = np.zeros(graph.num_nodes)
    all_nodes = np.arange(graph.num_nodes)
    for round_index in range(rounds):
        for start in range(0, graph.num_nodes, batch_size):
            batch = all_nodes[start:start + batch_size]
            gviews, hviews = model.prepare_batch(
                graph, batch, rng=rng, augment=cfg.augment_at_inference,
                sampler=sampler,
            )
            scores = resolved.forward_batch(model, gviews, hviews, rng=rng)
            if scores.node_scores is not None:
                values = scores.node_scores.data
                node_sum[batch] += values
                node_count[batch] += 1
            if scores.edge_scores is not None and len(scores.edge_orig_ids):
                values = scores.edge_scores.data
                np.add.at(edge_sum, scores.edge_orig_ids, values)
                np.add.at(edge_count, scores.edge_orig_ids, 1)
    model.train_mode()

    return finalize_scores(node_sum, node_count, edge_sum, edge_count)
