"""Tests for the mutable serving-side GraphStore."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.serving import GraphStore


def random_topology(seed=7, n=60, d=8, m=150):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return features, np.array(sorted(edges))


class TestIncrementalConstruction:
    def test_matches_fresh_graph(self):
        """Piecewise construction reproduces a from-scratch Graph exactly."""
        features, edges = random_topology()
        rng = np.random.default_rng(0)

        store = GraphStore(features[:30])
        store.add_nodes(features[30:])
        perm = rng.permutation(len(edges))
        store.add_edges(edges[perm[: len(edges) // 2]])
        store.add_edges(edges[perm[len(edges) // 2:]])
        updated = features.copy()
        updated[[5, 17]] *= 2.0
        store.update_features([5, 17], updated[[5, 17]])

        graph = Graph(updated, edges)
        assert store.num_nodes == graph.num_nodes
        assert store.num_edges == graph.num_edges
        np.testing.assert_array_equal(store.features, graph.features)
        for node in range(graph.num_nodes):
            np.testing.assert_array_equal(
                np.asarray(store.neighbors(node), dtype=np.int64),
                graph.neighbors(node).astype(np.int64))

    def test_snapshot_round_trips(self):
        features, edges = random_topology(seed=3)
        store = GraphStore(features, edges)
        snap = store.snapshot()
        reference = Graph(features, edges)
        np.testing.assert_array_equal(snap.edges, reference.edges)
        np.testing.assert_array_equal(snap.features, reference.features)

    def test_edge_labels_survive_snapshot(self):
        features = np.zeros((4, 2))
        store = GraphStore(features)
        store.add_edges(np.array([[2, 3], [0, 1]]), labels=[1, 0])
        snap = store.snapshot()
        # canonical order sorts (0,1) before (2,3)
        np.testing.assert_array_equal(snap.edge_labels, [0, 1])

    def test_from_graph_carries_labels(self):
        features, edges = random_topology(seed=5, n=20, m=30)
        node_labels = np.zeros(20, dtype=np.int64)
        node_labels[[3, 9]] = 1
        graph = Graph(features, edges, node_labels=node_labels)
        store = GraphStore.from_graph(graph)
        np.testing.assert_array_equal(store.node_labels, node_labels)
        np.testing.assert_array_equal(store.snapshot().node_labels, node_labels)


class TestMutationValidation:
    def test_self_loop_rejected(self):
        store = GraphStore(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            store.add_edges(np.array([[1, 1]]))

    def test_out_of_range_edge_rejected(self):
        store = GraphStore(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            store.add_edges(np.array([[0, 7]]))

    def test_duplicate_edges_skipped(self):
        store = GraphStore(np.zeros((3, 2)))
        assert store.add_edges(np.array([[0, 1], [1, 0], [0, 2]])) == 2
        assert store.add_edges(np.array([[2, 0]])) == 0
        assert store.num_edges == 2

    def test_feature_dim_mismatch_rejected(self):
        store = GraphStore(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            store.add_nodes(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            store.update_features([0], np.zeros((1, 5)))

    def test_update_features_out_of_range(self):
        store = GraphStore(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            store.update_features([5], np.zeros((1, 2)))


class TestDirtyRegions:
    def path_store(self, length=9):
        """0 - 1 - 2 - ... - length-1 path graph."""
        store = GraphStore(np.zeros((length, 2)), influence_radius=2)
        store.add_edges(np.array([[i, i + 1] for i in range(length - 1)]))
        return store

    def test_version_monotone(self):
        store = self.path_store()
        v0 = store.version
        store.add_edge(0, 2)
        assert store.version == v0 + 1
        store.update_features([4], np.ones((1, 2)))
        assert store.version == v0 + 2

    def test_edge_insertion_dirties_radius_ball(self):
        store = self.path_store()
        baseline = store.version
        store.add_edge(3, 5)
        dirty = set(store.dirty_nodes(baseline).tolist())
        # radius-2 ball around {3, 5} on the post-mutation path graph
        assert dirty == {1, 2, 3, 4, 5, 6, 7}

    def test_far_nodes_untouched(self):
        store = self.path_store(length=12)
        baseline = store.version
        store.update_features([0], np.ones((1, 2)))
        dirty = set(store.dirty_nodes(baseline).tolist())
        assert dirty == {0, 1, 2}
        assert store.region_version(11) <= baseline

    def test_new_nodes_are_dirty(self):
        store = self.path_store()
        baseline = store.version
        (node,) = store.add_nodes(np.zeros((1, 2)))
        assert store.region_version(node) > baseline

    def test_influence_radius_validation(self):
        with pytest.raises(ValueError):
            GraphStore(np.zeros((2, 2)), influence_radius=0)


class TestNonFiniteFeatures:
    """A NaN/inf feature row is rejected before any state changes — it
    would otherwise poison ``drift_total`` for good and silently disable
    the lifecycle drift trigger."""

    BAD = [np.nan, np.inf, -np.inf]

    def state(self, store):
        return (store.version, store.drift_total, store.num_nodes,
                store.features_updated, store.nodes_added,
                store.features.copy())

    def assert_unchanged(self, store, before):
        after = self.state(store)
        assert after[:5] == before[:5]
        np.testing.assert_array_equal(after[5], before[5])

    @pytest.mark.parametrize("bad", BAD)
    def test_constructor_rejects(self, bad):
        features, edges = random_topology()
        features[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            GraphStore(features, edges)

    @pytest.mark.parametrize("bad", BAD)
    def test_update_features_rejects_without_state_change(self, bad):
        features, edges = random_topology()
        store = GraphStore(features, edges)
        store.update_features([1], features[[1]] + 1.0)
        before = self.state(store)
        row = features[[4]].copy()
        row[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            store.update_features([4], row)
        self.assert_unchanged(store, before)
        assert np.isfinite(store.drift_total)

    @pytest.mark.parametrize("bad", BAD)
    def test_add_nodes_rejects_without_state_change(self, bad):
        features, edges = random_topology()
        store = GraphStore(features, edges)
        before = self.state(store)
        rows = features[:2].copy()
        rows[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            store.add_nodes(rows)
        self.assert_unchanged(store, before)
