"""Rounds as a batch axis: flattened (round, target) pairs vs a
per-round reference loop.

``score_target_span`` flattens a span's ``R × B`` (round, target) pairs
round-major into chunks of ``max_batch`` pairs, so one forward may mix
rounds.  The oracle below is the loop it replaced — rounds outermost,
targets chunked inside, one forward per (round, chunk) — written
straight from the stream scheme's definition: round ``r``'s base is
``derive_stream_seed(seed, 0, r)``, a pair's seed folds the base with
the target id and drives its sampling and Γ1/Γ2 views
(``prepare_batch``), and the ``node_only`` forward mask of round ``r``
is the counter-based mask of ``derive_stream_seed(base, 11)``.  The
flattened evidence must equal it bitwise: ``node_sum`` and the
per-round edge ids and values, for the offline composition and the
service's cached one alike; the ``fused`` backend within 1e-5.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Bourne, BourneConfig, score_graph
from repro.core.scoring import (
    inference_seed,
    sample_target_views,
    sampling_base,
    score_span,
)
from repro.graph import Graph
from repro.graph.index import derive_stream_seed, derive_target_seeds
from repro.serving import GraphStore, ScoringService, SubgraphCache
from repro.serving.service import score_service_span
from repro.tensor.autograd import MATMUL_K_BLOCK, blocked_matmul

SEED = 1234


def small_graph(seed=0, num_nodes=48, num_edges=110):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(rng.normal(size=(num_nodes, 6)), np.array(sorted(edges)),
                 name="rounds-test")


GRAPH = small_graph()


def make_model(mode="unified", augment=True, seed=3):
    config = BourneConfig(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                          hop_size=2, eval_rounds=3, batch_size=16,
                          seed=seed, mode=mode,
                          augment_at_inference=augment)
    model = Bourne(GRAPH.num_features, config)
    model.eval_mode()
    return model


def reference_span(model, targets, rounds, max_batch, seed=SEED):
    """The per-round loop on the reference forward, on the stream
    scheme's definition: ``(node_sum, node_count, edge_ids,
    edge_vals)`` with edge evidence per round in target order."""
    cfg = model.config
    width = len(targets)
    node_sum, node_count = np.zeros(width), np.zeros(width)
    edge_ids, edge_vals = [], []
    for round_index in range(rounds):
        base = derive_stream_seed(seed, 0, round_index)
        mask_seed = int(derive_stream_seed(int(base), 11))
        ids, vals = [], []
        for offset in range(0, width, max_batch):
            chunk = targets[offset:offset + max_batch]
            gviews, hviews = model.prepare_batch(
                GRAPH, chunk, derive_target_seeds(int(base), chunk),
                augment=cfg.augment_at_inference)
            scores = model.forward_batch(gviews, hviews, mask_seed=mask_seed)
            node_sum[offset:offset + len(chunk)] += scores.node_scores.data
            node_count[offset:offset + len(chunk)] += 1
            if scores.edge_scores is not None and len(scores.edge_orig_ids):
                ids.append(np.asarray(scores.edge_orig_ids, dtype=np.int64))
                vals.append(scores.edge_scores.data)
        edge_ids.append(np.concatenate(ids) if ids
                        else np.zeros(0, dtype=np.int64))
        edge_vals.append(np.concatenate(vals) if vals else np.zeros(0))
    return node_sum, node_count, edge_ids, edge_vals


def offline_pair(model, targets, rounds, max_batch, backend=None):
    evidence = score_span(model, GRAPH, targets, SEED, rounds, max_batch,
                          backend=backend)
    return evidence, reference_span(model, targets, rounds, max_batch)


def service_pair(model, targets, rounds, max_batch, backend=None):
    """The service's composition: the pair cache answers the second,
    half-warm pass from entries written by the first."""
    store = GraphStore.from_graph(GRAPH, influence_radius=2)
    cache = SubgraphCache(4096)
    score_service_span(model, store, targets[::2], SEED, rounds, max_batch,
                       backend=backend, cache=cache)
    evidence = score_service_span(model, store, targets, SEED, rounds,
                                  max_batch, backend=backend, cache=cache)
    return evidence, reference_span(model, targets, rounds, max_batch)


def assert_bitwise(evidence, reference, rounds):
    node_sum, node_count, edge_ids, edge_vals = reference
    np.testing.assert_array_equal(evidence.node_sum, node_sum)
    np.testing.assert_array_equal(evidence.node_count, node_count)
    assert len(evidence.edge_ids) == len(evidence.edge_vals) == rounds
    for r in range(rounds):
        np.testing.assert_array_equal(evidence.edge_ids[r], edge_ids[r])
        np.testing.assert_array_equal(evidence.edge_vals[r], edge_vals[r])


def assert_close(evidence, reference, rounds, rtol=1e-5):
    node_sum, node_count, edge_ids, edge_vals = reference
    np.testing.assert_allclose(evidence.node_sum, node_sum, rtol=rtol,
                               atol=1e-7)
    np.testing.assert_array_equal(evidence.node_count, node_count)
    for r in range(rounds):
        np.testing.assert_array_equal(evidence.edge_ids[r], edge_ids[r])
        np.testing.assert_allclose(evidence.edge_vals[r], edge_vals[r],
                                   rtol=rtol, atol=1e-7)


MODELS = {(mode, augment): make_model(mode, augment)
          for mode in ("unified", "node_only") for augment in (True, False)}

spans = dict(
    rounds=st.integers(1, 9),
    targets=st.lists(st.integers(0, GRAPH.num_nodes - 1), min_size=1,
                     max_size=20, unique=True),
    max_batch=st.sampled_from([1, 3, 7, 256]),
    mode=st.sampled_from(["unified", "node_only"]),
    augment=st.booleans(),
)


class TestFlattenedEvidence:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**spans)
    def test_offline_builder_bitwise(self, rounds, targets, max_batch, mode,
                                     augment):
        targets = np.asarray(targets, dtype=np.int64)
        evidence, reference = offline_pair(MODELS[mode, augment], targets,
                                           rounds, max_batch)
        assert_bitwise(evidence, reference, rounds)
        assert evidence.forward_batches == -(-rounds * len(targets)
                                             // max_batch)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**spans)
    def test_service_builder_bitwise(self, rounds, targets, max_batch, mode,
                                     augment):
        targets = np.asarray(targets, dtype=np.int64)
        evidence, reference = service_pair(MODELS[mode, augment], targets,
                                           rounds, max_batch)
        assert_bitwise(evidence, reference, rounds)
        assert evidence.forward_batches == -(-rounds * len(targets)
                                             // max_batch)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**spans)
    def test_fused_backend_within_tolerance(self, rounds, targets, max_batch,
                                            mode, augment):
        targets = np.asarray(targets, dtype=np.int64)
        model = MODELS[mode, augment]
        for pair in (offline_pair, service_pair):
            evidence, reference = pair(model, targets, rounds, max_batch,
                                       backend="fused")
            assert_close(evidence, reference, rounds)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**spans)
    def test_cached_service_matches_oracle(self, rounds, targets, max_batch,
                                           mode, augment):
        """The in-process service — chunks mixing cache hits and misses,
        built once in pair order — scores bitwise what the oracle
        accumulates."""
        targets = np.asarray(targets, dtype=np.int64)
        model = MODELS[mode, augment]
        node_sum, *_ = reference_span(model, targets, rounds, max_batch,
                                      seed=inference_seed(model.config, SEED))
        service = ScoringService(model, GRAPH, rounds=rounds, seed=SEED,
                                 max_batch=max_batch)
        service.score_nodes(targets[::2])        # warm half the pairs
        scores = service.score_nodes(targets, _force=True)
        np.testing.assert_array_equal(scores, node_sum / rounds)


class TestPairStreams:
    def test_sampling_base_vectorizes_the_round_streams(self):
        rounds = np.arange(40)
        expected = [derive_stream_seed(SEED, 0, int(r)) for r in rounds]
        np.testing.assert_array_equal(sampling_base(SEED, rounds),
                                      np.asarray(expected, dtype=np.uint64))
        assert sampling_base(SEED, 7) == derive_stream_seed(SEED, 0, 7)

    def test_pair_views_independent_of_chunk_composition(self):
        """A pair's views are the same alone or among other rounds."""
        model = MODELS["unified", True]
        targets = np.array([4, 9, 4, 17], dtype=np.int64)
        rounds = np.array([0, 0, 5, 2], dtype=np.int64)
        gviews, hviews = sample_target_views(GRAPH, targets, rounds, SEED,
                                             model.config)
        for i in range(len(targets)):
            g1, h1 = sample_target_views(GRAPH, targets[i:i + 1],
                                         rounds[i:i + 1], SEED, model.config)
            np.testing.assert_array_equal(gviews.operator_stack[i],
                                          g1.operator_stack[0])
            owned = hviews.edge_owner == i
            np.testing.assert_array_equal(hviews.edge_orig_ids[owned],
                                          h1.edge_orig_ids)

    def test_hypergraph_operator_is_canonical(self):
        model = MODELS["unified", True]
        targets = np.arange(20, dtype=np.int64)
        _, hviews = sample_target_views(GRAPH, targets, targets % 3, SEED,
                                        model.config)
        assert hviews.operator.has_sorted_indices

    def test_disabled_cache_scores_the_same(self):
        model = MODELS["unified", True]
        nodes = np.arange(12)
        cached = ScoringService(model, GRAPH, rounds=3, seed=SEED,
                                max_batch=7)
        cached.score_nodes(nodes[::3])
        uncached = ScoringService(model, GRAPH, rounds=3, seed=SEED,
                                  max_batch=7, cache_size=0)
        np.testing.assert_array_equal(
            uncached.score_nodes(nodes),
            cached.score_nodes(nodes, _force=True))
        assert len(uncached.cache) == 0

    def test_cache_entries_pin_no_batch_arrays(self):
        service = ScoringService(MODELS["unified", True], GRAPH, rounds=4,
                                 seed=SEED)
        service.score_nodes(range(10))
        assert len(service.cache) == 40
        for entry in service.cache._entries.values():
            arrays = [entry.sub.node_ids, entry.sub.features,
                      entry.sub.edges, entry.sub.edge_orig_ids]
            assert all(a.base is None for a in arrays)


class TestBlockedProduct:
    """Dense layers contract in fixed K blocks, so a row's output does
    not depend on how many (target, round) rows share the product —
    BLAS switches kernels by problem size, and for long contractions
    the kernels round differently."""

    @pytest.mark.parametrize("k,n", [(512, 8), (512, 128), (1433, 64)])
    def test_rows_independent_of_row_count(self, k, n):
        rng = np.random.default_rng(k + n)
        a, b = rng.normal(size=(300, k)), rng.normal(size=(k, n))
        full = blocked_matmul(a, b)
        for rows in (2, 3, 5, 14, 40, 120, 299):
            np.testing.assert_array_equal(blocked_matmul(a[:rows], b),
                                          full[:rows])

    def test_short_contractions_are_the_plain_product(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, MATMUL_K_BLOCK))
        b = rng.normal(size=(MATMUL_K_BLOCK, 16))
        np.testing.assert_array_equal(blocked_matmul(a, b), a @ b)
        np.testing.assert_allclose(
            blocked_matmul(np.hstack([a, a]), np.vstack([b, b])),
            2 * (a @ b), rtol=1e-12)


def digest(values):
    return hashlib.sha256(
        np.round(np.asarray(values, dtype=np.float64), 4).tobytes()
    ).hexdigest()


class TestServedScorePin:
    """Served scores on the tiny config (re-pinned when serving moved to
    the offline stream scheme); they are the offline scores bitwise."""

    GOLDEN = {
        "unified": (
            "85a1661a67e95647fbf527fdd53739d46e33a34033376fe53dd0768c91df4bae",
            "32057b87787f7647dd1ebcb7b8d734e96f664a2afb5dd652f9e5ca2d409e2ee1",
        ),
        "node_only": (
            "ae17b9c0bc0f28be9bae7ffd77e021d39003e3b070a0510997a69e672c57850d",
            "77014cbb0f38ad572cf782613698dba536f0de0a62768dd5dc62c03d7da9759d",
        ),
    }

    @pytest.mark.parametrize("mode", ["unified", "node_only"])
    def test_served_digests(self, mode):
        config = BourneConfig(hidden_dim=8, predictor_hidden=16,
                              subgraph_size=4, hop_size=2, eval_rounds=3,
                              batch_size=16, seed=3, mode=mode)
        model = Bourne(GRAPH.num_features, config)
        service = ScoringService(model, GRAPH, max_batch=5)
        nodes = service.score_nodes(range(GRAPH.num_nodes))
        edges = [service.score_edge(int(u), int(v))
                 for u, v in GRAPH.edges[:8]]
        assert (digest(nodes), digest(edges)) == self.GOLDEN[mode]
        np.testing.assert_array_equal(nodes,
                                      score_graph(model, GRAPH).node_scores)
