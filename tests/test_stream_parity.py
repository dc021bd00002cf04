"""Cross-surface stream parity: every surface scores bitwise alike.

All inference draws — sampling, Γ1/Γ2 view augmentation, the
``node_only`` forward mask — come from one counter-based scheme keyed by
``(stream seed, round, target)``, and every surface runs the same view
pipeline and accumulation loop.  On a static graph the in-process
:class:`ScoringService` (cache off, or warm on half its pairs), the
uncached :func:`score_service_span` the replicas and lifecycle probes
use, and sharded ``score_graph(workers=2)`` must therefore all equal
serial :func:`score_graph` bit for bit, and a realized edge's
``score_edge`` must equal its offline edge score.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Bourne, BourneConfig, score_graph
from repro.core.scoring import inference_seed
from repro.graph import Graph
from repro.parallel import WorkerPool
from repro.serving import ScoringService
from repro.serving.service import score_service_span


def random_graph(seed, num_nodes, density):
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(0, num_nodes - 1, 2)}
    for _ in range(int(density * num_nodes)):
        u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(rng.normal(size=(num_nodes, 5)),
                 np.array(sorted(edges), dtype=np.int64), name="parity")


def make_model(graph, mode, augment, seed):
    config = BourneConfig(hidden_dim=8, predictor_hidden=16,
                          subgraph_size=4, hop_size=2, eval_rounds=2,
                          batch_size=16, seed=seed, mode=mode,
                          augment_at_inference=augment)
    return Bourne(graph.num_features, config)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as shared:
        yield shared


surfaces = dict(
    graph_seed=st.integers(0, 2 ** 16),
    num_nodes=st.integers(6, 30),
    density=st.floats(0.5, 3.0),
    rounds=st.integers(1, 9),
    max_batch=st.sampled_from([1, 3, 7, 256]),
    mode=st.sampled_from(["unified", "node_only"]),
    augment=st.booleans(),
    model_seed=st.integers(0, 50),
)


class TestServedEqualsOffline:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(**surfaces)
    def test_every_surface_bitwise(self, pool, graph_seed, num_nodes,
                                   density, rounds, max_batch, mode,
                                   augment, model_seed):
        graph = random_graph(graph_seed, num_nodes, density)
        model = make_model(graph, mode, augment, model_seed)
        nodes = np.arange(graph.num_nodes)
        offline = score_graph(model, graph, rounds=rounds)

        sharded = score_graph(model, graph, rounds=rounds, workers=2,
                              pool=pool)
        np.testing.assert_array_equal(sharded.node_scores,
                                      offline.node_scores)
        np.testing.assert_array_equal(sharded.edge_scores,
                                      offline.edge_scores)

        span = score_service_span(model, graph, nodes,
                                  inference_seed(model.config), rounds,
                                  max_batch)
        np.testing.assert_array_equal(span.node_sum / rounds,
                                      offline.node_scores)

        uncached = ScoringService(model, graph, rounds=rounds,
                                  max_batch=max_batch, cache_size=0)
        np.testing.assert_array_equal(uncached.score_nodes(nodes),
                                      offline.node_scores)

        cached = ScoringService(model, graph, rounds=rounds,
                                max_batch=max_batch)
        cached.score_nodes(nodes[::2])             # warm half the pairs
        np.testing.assert_array_equal(cached.score_nodes(nodes, _force=True),
                                      offline.node_scores)
        assert cached.cache.hits > 0

        if mode == "unified":
            realized = np.nonzero(offline.edge_rounds > 0)[0]
            for edge_id in realized:
                u, v = graph.edges[edge_id]
                assert cached.score_edge(int(u), int(v)) \
                    == offline.edge_scores[edge_id]

    def test_explicit_seed_names_the_same_streams(self):
        graph = random_graph(4, 20, 2.0)
        model = make_model(graph, "unified", True, 7)
        offline = score_graph(model, graph, rounds=3, seed=99)
        served = ScoringService(model, graph, rounds=3, seed=99)
        np.testing.assert_array_equal(
            served.score_nodes(range(graph.num_nodes)), offline.node_scores)
        other = score_graph(model, graph, rounds=3, seed=98)
        assert not np.array_equal(other.node_scores, offline.node_scores)
