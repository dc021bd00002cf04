"""Online scoring service: micro-batched, cached, incrementally refreshed.

:class:`ScoringService` turns a trained :class:`repro.core.Bourne`
checkpoint into a long-lived scorer over a mutable
:class:`~repro.serving.store.GraphStore`:

* **Rounds as a batch axis** — pending requests are resolved at
  ``flush()`` time by the shared span loop
  (:func:`repro.core.scoring.score_target_span`), which flattens the
  request's ``R × B`` (round, target) pairs into chunks of
  ``max_batch`` pairs: ``⌈R·B / max_batch⌉`` forwards per flush, so a
  cold single-node request at ``R = 160`` is one forward, not 160.
* **Deterministic per-pair streams** — every draw is a pure function of
  ``(seed, round, target)``: sampling seeds fold the round's
  :func:`sampling_base` with the target id, Γ1/Γ2 outcomes come from
  :func:`view_rng`, and the ``node_only`` forward mask of a row is the
  first draw of its round's :func:`forward_rng`.  A node's score
  therefore never depends on which other requests shared its batch or
  on the mutation history that produced the store — the property the
  serving-equivalence tests pin down bitwise.
* **One pair builder** — :func:`sample_target_views` samples a chunk's
  pairs in one vectorized call and builds both views once; with the
  version-aware :class:`~repro.serving.cache.SubgraphCache` it answers
  hits from cached sampled rows and builds hits and misses together.
  The store's dirty-region tracking invalidates exactly the
  neighbourhoods a mutation could have changed.
* **Incremental refresh** — :meth:`refresh` maintains a full score
  table and re-scores only nodes whose region changed since they were
  last scored, which is what makes per-mutation rescoring cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.model import Bourne
from ..core.scoring import (
    RoundEvidence,
    mean_edge_rounds,
    round_mask_streams,
    score_target_span,
)
from ..core.views import (
    batch_graph_views_from_subgraphs,
    batch_hypergraph_views_from_subgraphs,
    forward_mask_draws,
)
from ..graph.graph import Graph
from ..graph.index import derive_stream_seed, derive_target_seeds, splitmix64
from ..graph.sampling import SampledSubgraphBatch, sample_enclosing_subgraphs
from ..obs import trace as obs_trace
from ..tensor.backend import resolve_backend
from .cache import CacheEntry, SubgraphCache
from .store import GraphStore

#: Offset keeping serving RNG streams disjoint from training draws
#: (same constant the offline scorer uses).
_SEED_OFFSET = 104729

#: Sampling-relevant config fields; a hot-swapped model with identical
#: values (and an unchanged serving seed) can keep the warm subgraph
#: cache — sampled pairs depend on topology and these knobs only,
#: never weights.
_SAMPLING_FIELDS = ("hop_size", "subgraph_size", "feature_mask_prob",
                    "incidence_drop_prob", "augment_at_inference")


# ----------------------------------------------------------------------
# Deterministic serving streams (module-level so the sharded refresh
# workers replay the exact streams the in-process service uses)
# ----------------------------------------------------------------------
def sampling_base(seed: int, round_index) -> np.ndarray:
    """Base of the counter-based sampling seeds of a round —
    ``derive_stream_seed(seed, 0, round)``, vectorized: ``round_index``
    may be one round or an array with one round per (target, round)
    pair.  The batch sampler folds each base with its target id, so
    draws depend on ``(seed, round, target)`` only — never on batch
    layout."""
    rounds = np.asarray(round_index, dtype=np.uint64)
    return splitmix64(derive_stream_seed(seed, 0) ^ splitmix64(rounds))


def view_rng(seed: int, target: int, round_index: int) -> np.random.Generator:
    """Per-``(target, round)`` stream for view augmentation."""
    return np.random.default_rng((seed, 0, round_index, int(target)))


def forward_rng(seed: int, round_index: int) -> np.random.Generator:
    """Per-round forward stream; the ``node_only`` mask of every row of
    round ``round_index`` is its first draw."""
    return np.random.default_rng((seed, 1, round_index))


def service_forward_streams(model: Bourne, seed: int, rounds: int):
    """``forward_streams`` callback of the serving span loop: each row's
    ``node_only`` mask is the first draw of its round's
    :func:`forward_rng`."""
    return round_mask_streams(
        model, rounds,
        lambda round_index, dim, prob: forward_mask_draws(
            dim, prob, forward_rng(seed, round_index)))


def _draw_view_augmentation(batch, targets: np.ndarray,
                            round_ids: np.ndarray, seed: int,
                            mask_prob: float, drop_prob: float):
    """Γ1/Γ2 outcomes for a sampled chunk of (target, round) pairs from
    the per-pair ``Generator`` streams.

    Replays exactly the draws ``build_hypergraph_view(sub,
    view_rng(seed, target, round))`` would consume — first the ``(D,)``
    feature mask (only when ``mask_prob > 0``), then the ``(Ms, slots)``
    incidence-drop matrix (only when ``drop_prob > 0``); degenerate
    targets draw nothing.  Returns ``(feature_masks, incidence_keep)``
    for :func:`batch_hypergraph_views_from_subgraphs` (``None`` for
    whichever augmentation is disabled).
    """
    num_views = len(batch)
    slots = batch.slots
    dim = batch.features.shape[1]
    edge_counts = np.diff(batch.edge_offsets)
    masks = np.ones((num_views, dim), dtype=bool) if mask_prob > 0.0 else None
    keep = (np.ones((len(batch.edges), 2), dtype=bool)
            if drop_prob > 0.0 else None)
    if masks is None and keep is None:
        return None, None
    for i, (target, round_index) in enumerate(zip(targets, round_ids)):
        ms = int(edge_counts[i])
        if ms == 0:
            continue
        rng = view_rng(seed, int(target), int(round_index))
        if masks is not None:
            masks[i] = rng.random(dim) >= mask_prob
        if keep is not None:
            e0 = int(batch.edge_offsets[i])
            local = batch.edges[e0:e0 + ms]
            mat = rng.random((ms, slots)) >= drop_prob
            rows = np.arange(ms)
            keep[e0:e0 + ms, 0] = mat[rows, local[:, 0]]
            keep[e0:e0 + ms, 1] = mat[rows, local[:, 1]]
    return masks, keep


def _sample_pairs(graph_like, targets: np.ndarray, round_ids: np.ndarray,
                  seed: int, config):
    """``(batch, feature_masks, incidence_keep)`` of a chunk of pairs:
    ONE batch sampling call seeded per pair, then the per-pair Γ1/Γ2
    streams."""
    seeds = derive_target_seeds(sampling_base(seed, round_ids), targets)
    sampled = sample_enclosing_subgraphs(
        graph_like, targets, k=config.hop_size,
        size=config.subgraph_size, target_seeds=seeds)
    masks = keep = None
    if config.augment_at_inference:
        masks, keep = _draw_view_augmentation(
            sampled, targets, round_ids, seed,
            config.feature_mask_prob, config.incidence_drop_prob)
    return sampled, masks, keep


def _entry_of(batch, masks, keep, i: int, version: int) -> CacheEntry:
    """Cache entry of pair ``i`` — copies, so it pins no batch array."""
    view = batch.view(i)
    e0, e1 = int(batch.edge_offsets[i]), int(batch.edge_offsets[i + 1])
    view.node_ids = view.node_ids.copy()
    view.features = view.features.copy()
    view.edges = view.edges.copy()
    view.edge_orig_ids = view.edge_orig_ids.copy()
    return CacheEntry(
        sub=view,
        feature_mask=None if masks is None else masks[i].copy(),
        incidence_keep=None if keep is None else keep[e0:e1].copy(),
        version=version)


def _stack_entries(entries: Sequence[CacheEntry]):
    """One chunk's ``(batch, feature_masks, incidence_keep)`` from its
    pairs' entries, in pair order."""
    batch = SampledSubgraphBatch.from_views([entry.sub for entry in entries])
    masks = keep = None
    if entries[0].feature_mask is not None:
        masks = np.stack([entry.feature_mask for entry in entries])
    if entries[0].incidence_keep is not None:
        keep = np.concatenate([entry.incidence_keep for entry in entries])
    return batch, masks, keep


def _cached_pairs(store, targets: np.ndarray, round_ids: np.ndarray,
                  seed: int, config, cache: SubgraphCache):
    """:func:`_sample_pairs` answered from ``cache`` where it can be:
    hits come back from their entries, misses are sampled in one call
    and written back, and the chunk is put together in pair order."""
    with obs_trace.span("service.view_cache") as sp:
        entries: List[Optional[CacheEntry]] = [
            cache.get((int(target), int(round_index)),
                      store.region_version(int(target)))
            for target, round_index in zip(targets, round_ids)]
        misses = [i for i, entry in enumerate(entries) if entry is None]
        sp.set(pairs=len(targets), hits=len(targets) - len(misses),
               misses=len(misses))
    if not misses:
        return _stack_entries(entries)
    miss = np.asarray(misses, dtype=np.int64)
    sampled, masks, keep = _sample_pairs(store, targets[miss],
                                         round_ids[miss], seed, config)
    # A zero-size cache stores nothing, so it never hits and every
    # chunk takes the all-miss return below: skip building entries.
    if cache.maxsize:
        version = store.version
        for j, i in enumerate(misses):
            entries[i] = cache.put(
                (int(targets[i]), int(round_ids[i])),
                _entry_of(sampled, masks, keep, j, version))
    if len(misses) == len(targets):
        return sampled, masks, keep
    return _stack_entries(entries)


def sample_target_views(graph_like, targets: np.ndarray,
                        round_ids: np.ndarray, seed: int, config,
                        cache: Optional[SubgraphCache] = None):
    """Sample + build the views of one chunk of (target, round) pairs.

    THE serving pair builder: one vectorized batch sampling call seeded
    per pair from :func:`sampling_base`, the per-pair Γ1/Γ2 streams,
    then ONE vectorized build of both batched views straight from the
    sampled rows (no per-target views).  With a ``cache`` (the service
    passes its :class:`SubgraphCache`; ``graph_like`` is then the
    store), pairs are looked up first and only misses are sampled.
    Pure function of
    ``(topology, seed, pairs)`` — the service, the sharded refresh
    workers, router replicas and lifecycle probes all call it, which is
    what keeps their scores bitwise-identical.  Returns
    ``(BatchedGraphViews, BatchedHypergraphViews)``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    round_ids = np.asarray(round_ids, dtype=np.int64)
    if cache is None:
        batch, masks, keep = _sample_pairs(graph_like, targets, round_ids,
                                           seed, config)
    else:
        batch, masks, keep = _cached_pairs(graph_like, targets, round_ids,
                                           seed, config, cache)
    with obs_trace.span("views.build_batched") as sp:
        sp.set(pairs=len(targets))
        return (batch_graph_views_from_subgraphs(batch),
                batch_hypergraph_views_from_subgraphs(
                    batch, augment=False,
                    feature_masks=masks, incidence_keep=keep))


def score_service_span(model: Bourne, graph_like, targets: np.ndarray,
                       seed: int, rounds: int, max_batch: int,
                       backend=None) -> RoundEvidence:
    """Uncached service-stream scoring of one target span.

    Runs the same :func:`repro.core.scoring.score_target_span` loop as
    ``ScoringService._score_span`` with the same per-``(seed, round,
    target)`` streams — the sharded refresh workers, router replicas
    and lifecycle probes call this, which is what makes them
    bitwise-identical to the in-process service.  ``backend`` names the
    compute backend (workers receive the parent service's backend name
    and resolve it locally).
    """
    config = model.config

    def build(chunk: np.ndarray, chunk_rounds: np.ndarray):
        return sample_target_views(graph_like, chunk, chunk_rounds, seed,
                                   config)

    return score_target_span(
        model, targets, rounds, max_batch, build,
        service_forward_streams(model, seed, rounds),
        backend=backend,
    )


def edge_mean_from_evidence(endpoint_scores: np.ndarray,
                            means: Dict[int, float],
                            edge_id: int) -> Tuple[float, bool]:
    """Resolve one edge's score from its endpoints' round evidence.

    ``(mean, imputed)``: the edge's mean contribution across rounds
    when the sampler realized it, else the endpoint-score mean
    (``imputed=True``) — the offline scorer's treatment of unsampled
    edges.  Shared by :meth:`ScoringService.score_edge` and the replica
    workers so both resolve identically, bit for bit.
    """
    mean = means.get(edge_id)
    if mean is None:
        return float(np.asarray(endpoint_scores).mean()), True
    return float(mean), False


def score_edge_span(model: Bourne, graph_like, u: int, v: int, edge_id: int,
                    seed: int, rounds: int, max_batch: int,
                    backend=None) -> Tuple[float, bool]:
    """Uncached pure counterpart of :meth:`ScoringService.score_edge`.

    Scores the canonical ``(min, max)`` endpoint pair through
    :func:`score_service_span` and resolves the edge mean with
    :func:`edge_mean_from_evidence`.  ``edge_id`` is the store's id for
    the edge (computed by the caller, which owns the store — replica
    workers only hold the shared read-only graph).  Returns ``(mean,
    imputed)``, bitwise what the in-process service computes on the
    same store state.
    """
    key = (min(int(u), int(v)), max(int(u), int(v)))
    evidence = score_service_span(
        model, graph_like, np.asarray(key, dtype=np.int64),
        seed, rounds, max_batch, backend=backend)
    scores = evidence.node_sum / rounds
    means = mean_edge_rounds(rounds, [evidence])
    return edge_mean_from_evidence(scores, means, int(edge_id))


class PendingScore:
    """Handle for an enqueued request; resolved by ``flush()``."""

    __slots__ = ("node", "_value")

    def __init__(self, node: int):
        self.node = node
        self._value: Optional[float] = None

    @property
    def done(self) -> bool:
        return self._value is not None

    def result(self) -> float:
        if self._value is None:
            raise RuntimeError(
                f"score for node {self.node} not computed yet; "
                "call ScoringService.flush() first")
        return self._value


@dataclass
class RefreshResult:
    """Outcome of one incremental refresh pass."""

    scores: np.ndarray          # (N,) current score table
    rescored: np.ndarray        # node ids actually recomputed this pass
    version: int                # store version the table now reflects

    @property
    def num_rescored(self) -> int:
        return len(self.rescored)


class ScoringService:
    """Serve anomaly scores for a mutable graph from a trained model.

    Parameters
    ----------
    model:
        Trained :class:`Bourne`; must be a node-scoring mode
        (``unified`` or ``node_only``).
    store:
        The mutable graph; a plain :class:`Graph` is wrapped
        automatically.
    rounds:
        Evaluation rounds ``R`` per score (default: model config).
    seed:
        Base seed of the serving RNG streams (default: model seed +
        the inference offset, mirroring the offline scorer).
    cache_size:
        Capacity of the pair cache in ``(target, round)`` entries.
    max_batch:
        Cap on (target, round) pairs per forward call (default: model
        batch size).
    backend:
        Compute backend for the forward passes — a registered name
        (``"numpy"``/``"fused"``/``"numba"``) or a backend instance;
        ``None`` uses the process default (the bitwise-pinned numpy
        reference).  Sharded refreshes ship the backend *name* to the
        worker processes.
    """

    def __init__(
        self,
        model: Bourne,
        store,
        rounds: Optional[int] = None,
        seed: Optional[int] = None,
        cache_size: int = 4096,
        max_batch: Optional[int] = None,
        backend=None,
    ):
        if isinstance(store, Graph):
            store = GraphStore.from_graph(
                store, influence_radius=max(2, model.config.hop_size))
        self.store: GraphStore = store
        self.model = model
        self._check_model(model)
        cfg = model.config
        self.rounds = rounds if rounds is not None else cfg.eval_rounds
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        self._explicit_seed = seed is not None
        self.seed = (cfg.seed + _SEED_OFFSET) if seed is None else seed
        self.max_batch = max_batch if max_batch is not None else cfg.batch_size
        self.backend = resolve_backend(backend)
        self.cache = SubgraphCache(cache_size)
        model.eval_mode()

        self._node_table: Dict[int, Tuple[float, int]] = {}
        self._edge_table: Dict[Tuple[int, int], Tuple[float, int]] = {}
        self._edge_scores: Dict[Tuple[int, int], Tuple[float, int]] = {}
        self._pending: Dict[int, PendingScore] = {}
        self._requests = 0
        self._flushes = 0
        self._forward_batches = 0
        self._nodes_scored = 0
        self._table_hits = 0
        self._table_misses = 0
        self._edge_requests = 0
        self._edge_table_hits = 0
        self._edge_imputations = 0
        self._refreshes = 0
        self._swaps = 0

    def _check_model(self, model: Bourne) -> None:
        cfg = model.config
        if cfg.mode == "edge_only":
            raise ValueError(
                "ScoringService requires a node-scoring mode "
                "('unified' or 'node_only'); got mode='edge_only'")
        if model.num_features != self.store.num_features:
            raise ValueError(
                f"model expects {model.num_features} features but the "
                f"store has {self.store.num_features}")
        if self.store.influence_radius < cfg.hop_size:
            raise ValueError(
                f"store influence_radius={self.store.influence_radius} is "
                f"smaller than the model hop_size={cfg.hop_size}; dirty "
                "regions would under-invalidate the subgraph cache")

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def enqueue(self, node: int) -> PendingScore:
        """Register a score request; duplicates share one handle."""
        node = int(node)
        if not 0 <= node < self.store.num_nodes:
            raise IndexError(f"node {node} not in store "
                             f"(num_nodes={self.store.num_nodes})")
        self._requests += 1
        handle = self._pending.get(node)
        if handle is None:
            handle = PendingScore(node)
            self._pending[node] = handle
        return handle

    def flush(self) -> int:
        """Resolve all pending requests with micro-batched forwards.

        Requests whose table entry is still fresh are answered from the
        score table; the rest are recomputed in shared batches.  Returns
        the number of nodes actually recomputed.
        """
        if not self._pending:
            return 0
        self._flushes += 1
        pending = self._pending
        self._pending = {}
        stale: List[int] = []
        for node, handle in pending.items():
            cached = self._node_table.get(node)
            if cached is not None and cached[1] >= self.store.region_version(node):
                handle._value = cached[0]
                self._table_hits += 1
            else:
                stale.append(node)
        if stale:
            self._table_misses += len(stale)
            targets = np.asarray(stale, dtype=np.int64)
            scores = self._score_targets(targets)
            for node, score in zip(stale, scores):
                self._node_table[node] = (float(score), self.store.version)
                pending[node]._value = float(score)
        return len(stale)

    def score_node(self, node: int) -> float:
        handle = self.enqueue(node)
        self.flush()
        return handle.result()

    def score_nodes(self, nodes: Sequence[int],
                    _force: bool = False) -> np.ndarray:
        """Score ``nodes`` in one micro-batched pass.

        ``_force`` drops fresh table entries first so the forward
        passes actually run even for already-tabled nodes.
        """
        handles = [self.enqueue(n) for n in nodes]
        if _force:
            for handle in handles:
                self._node_table.pop(handle.node, None)
        self.flush()
        return np.asarray([h.result() for h in handles])

    def score_edge(self, u: int, v: int) -> float:
        """Score edge ``(u, v)`` from its endpoints' fresh evidence.

        The score is the mean of the edge's contributions across one
        forced scoring of *both endpoints together* — a pure function
        of ``(u, v, store state, serving seed)``, never of request
        history or batch layout.  That purity is what lets the gateway
        coalesce concurrent ``score_edge`` requests freely: any
        interleaving returns bitwise the sequential answer (the gateway
        pin tests assert it).  Canonical values are cached
        version-aware, so repeats are table hits until a nearby
        mutation invalidates them.  If the sampler never realizes the
        edge in any round (possible for high-degree endpoints), the
        endpoint mean is imputed, matching the offline scorer's
        treatment of unsampled edges.
        """
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if not self.store.has_edge(*key):
            raise KeyError(f"edge {key} not in store")
        self._edge_requests += 1
        needed = max(self.store.region_version(key[0]),
                     self.store.region_version(key[1]))
        cached = self._edge_scores.get(key)
        if cached is not None and cached[1] >= needed:
            self._edge_table_hits += 1
            return cached[0]
        with obs_trace.span("service.score_edge") as sp:
            sp.set(u=key[0], v=key[1])
            scores, means = self._score_span(np.asarray(key, dtype=np.int64))
        version = self.store.version
        for node, score in zip(key, scores):
            self._node_table[int(node)] = (float(score), version)
        mean, imputed = edge_mean_from_evidence(
            scores, means, self.store.edge_id(*key))
        if imputed:
            self._edge_imputations += 1
        self._edge_scores[key] = (mean, version)
        return mean

    # ------------------------------------------------------------------
    # Incremental refresh
    # ------------------------------------------------------------------
    def refresh(self, workers: Optional[int] = None,
                shards: Optional[int] = None,
                pool=None) -> RefreshResult:
        """Bring the full score table up to date, re-scoring only nodes
        whose neighbourhood changed since their last score.

        ``workers > 1`` drains the stale set through the sharded scoring
        engine (:mod:`repro.parallel`): the store's features and index
        go into shared memory once, worker processes score contiguous
        shards of the miss queue with the *same* per-``(seed, round,
        target)`` streams the in-process path uses, and the merged node
        and edge tables are bitwise-identical to a serial refresh.
        ``pool`` reuses a persistent :class:`repro.parallel.WorkerPool`
        — for example one kept warm by a sharded trainer — instead of
        spinning processes up per refresh.
        """
        n = self.store.num_nodes
        self._refreshes += 1
        with obs_trace.span("service.refresh") as sp:
            stale = [node for node in range(n)
                     if (entry := self._node_table.get(node)) is None
                     or entry[1] < self.store.region_version(node)]
            sp.set(stale=len(stale), num_nodes=n,
                   workers=workers if workers is not None else 1)
            if stale and workers is not None and workers > 1:
                self._refresh_sharded(np.asarray(stale, dtype=np.int64),
                                      workers, shards, pool)
            elif stale:
                targets = np.asarray(stale, dtype=np.int64)
                scores = self._score_targets(targets)
                version = self.store.version
                for node, score in zip(stale, scores):
                    self._node_table[node] = (float(score), version)
        table = np.asarray([self._node_table[node][0] for node in range(n)])
        return RefreshResult(scores=table,
                             rescored=np.asarray(stale, dtype=np.int64),
                             version=self.store.version)

    def _refresh_sharded(self, targets: np.ndarray, workers: int,
                         shards: Optional[int], pool=None) -> None:
        """Score ``targets`` through the multi-process engine and fold
        the results into the node/edge tables exactly like
        :meth:`_score_targets` would."""
        from ..parallel import service_refresh_scores

        scores, edge_means, forward_batches = service_refresh_scores(
            self, targets, workers=workers, shards=shards, pool=pool)
        version = self.store.version
        for node, score in zip(targets, scores):
            self._node_table[int(node)] = (float(score), version)
        for eid, mean in edge_means.items():
            self._edge_table[self.store.edge_key(eid)] = (mean, version)
        self._forward_batches += forward_batches
        self._nodes_scored += len(targets)

    # ------------------------------------------------------------------
    # Model hot-swap
    # ------------------------------------------------------------------
    def swap_model(self, model: Bourne) -> None:
        """Replace the served model in place.

        Score tables are dropped (different weights, different scores);
        the subgraph cache survives when the sampling-relevant config is
        unchanged, so a hot-swap starts warm.
        """
        self._check_model(model)
        old_cfg, new_cfg = self.model.config, model.config
        new_seed = (self.seed if self._explicit_seed
                    else new_cfg.seed + _SEED_OFFSET)
        same_sampling = new_seed == self.seed and all(
            getattr(old_cfg, f) == getattr(new_cfg, f)
            for f in _SAMPLING_FIELDS)
        if not same_sampling:
            self.cache.clear()
        self.seed = new_seed
        self.model = model
        model.eval_mode()
        self._node_table.clear()
        self._edge_table.clear()
        self._edge_scores.clear()
        self._swaps += 1

    # ------------------------------------------------------------------
    # Scoring internals
    # ------------------------------------------------------------------
    def _score_targets(self, targets: np.ndarray) -> np.ndarray:
        """Mean score over ``rounds`` forward passes for ``targets``."""
        scores, _ = self._score_span(targets)
        return scores

    def _score_span(self, targets: np.ndarray):
        """Score ``targets`` and return ``(scores, edge_means)``.

        Runs the shared :func:`repro.core.scoring.score_target_span`
        loop — the same accumulation the offline scorer and the sharded
        refresh workers run — with :func:`sample_target_views` answering
        each chunk of (target, round) pairs through the version-aware
        pair cache.  ``edge_means`` is THIS call's per-edge-id evidence
        (folded into the evidence table as a side effect).
        """
        config = self.model.config

        def build(chunk: np.ndarray, chunk_rounds: np.ndarray):
            return sample_target_views(self.store, chunk, chunk_rounds,
                                       self.seed, config, cache=self.cache)

        with obs_trace.span("service.score_span") as sp:
            sp.set(targets=len(targets), rounds=self.rounds)
            evidence = score_target_span(
                self.model, targets, self.rounds, self.max_batch, build,
                service_forward_streams(self.model, self.seed, self.rounds),
                backend=self.backend,
            )
        self._forward_batches += evidence.forward_batches
        version = self.store.version
        means = mean_edge_rounds(self.rounds, [evidence])
        for eid, mean in means.items():
            self._edge_table[self.store.edge_key(eid)] = (mean, version)
        self._nodes_scored += len(targets)
        return evidence.node_sum / self.rounds, means

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters for monitoring and tests.

        ``table_hits``/``table_misses`` tally *request-path* score-table
        answers vs. recomputations (refresh rescans and edge-endpoint
        scorings count toward ``nodes_scored``, not misses);
        ``cache_hits``/``cache_misses`` (from the subgraph LRU) tally
        view reuse; ``pending`` is the current micro-batch queue depth.
        The gateway's ``/metrics`` endpoint re-exports all of these in
        Prometheus text format.
        """
        stats = {
            "requests": self._requests,
            "pending": len(self._pending),
            "flushes": self._flushes,
            "forward_batches": self._forward_batches,
            "nodes_scored": self._nodes_scored,
            "table_hits": self._table_hits,
            "table_misses": self._table_misses,
            "table_size": len(self._node_table),
            "edge_requests": self._edge_requests,
            "edge_table_hits": self._edge_table_hits,
            "edge_imputations": self._edge_imputations,
            "edge_table_size": len(self._edge_scores),
            "edge_evidence_size": len(self._edge_table),
            "refreshes": self._refreshes,
            "model_swaps": self._swaps,
            "backend": self.backend.name,
            "store_version": self.store.version,
            "store_pending_edges": getattr(self.store, "pending_edges", 0),
            "store_compactions": getattr(self.store, "compactions", 0),
            "store_drift_total": float(getattr(self.store, "drift_total", 0.0)),
            "store_mutations": getattr(self.store, "mutations", 0),
            "store_nodes_added": getattr(self.store, "nodes_added", 0),
            "store_edges_added": getattr(self.store, "edges_added", 0),
            "store_features_updated": getattr(self.store,
                                              "features_updated", 0),
            "rounds": self.rounds,
        }
        stats.update({f"cache_{k}": v for k, v in self.cache.stats().items()})
        return stats
