"""Unit tests for the DAG type (:mod:`repro.dag.graph`)."""

import numpy as np
import pytest

from repro.dag import CycleError, Dag
from repro.dag.graph import canonical_successors


class TestConstruction:
    def test_empty_graph(self):
        g = Dag(0)
        assert g.n_nodes == 0
        assert g.n_edges == 0
        assert g.topological_order() == ()

    def test_no_edges(self):
        g = Dag(3)
        assert g.n_nodes == 3
        assert g.sources() == (0, 1, 2)
        assert g.sinks() == (0, 1, 2)

    def test_simple_edges(self):
        g = Dag(3, [(0, 1), (1, 2)])
        assert g.n_edges == 2
        assert g.successors(0) == (1,)
        assert g.predecessors(2) == (1,)

    def test_duplicate_edges_collapsed(self):
        g = Dag(2, [(0, 1), (0, 1), (0, 1)])
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            Dag(2, [(1, 1)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(2, [(0, 1), (1, 0)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Dag(2, [(0, 2)])
        with pytest.raises(ValueError):
            Dag(2, [(-1, 0)])

    def test_out_of_range_edge_beyond_the_index_type(self):
        with pytest.raises(ValueError, match="out of range"):
            Dag(2, [(0, 10**30)])

    @pytest.mark.parametrize("edges", [
        [(0, 1, 2)], [(0,), (1,)], [0, 1], np.array([0, 1]),
        np.zeros((2, 3), dtype=int),
    ])
    def test_non_pair_edges_rejected(self, edges):
        # Flat or wide input used to be re-paired silently.
        with pytest.raises(ValueError, match="pairs"):
            Dag(3, edges)

    def test_canonical_successors_is_the_dag_csr(self):
        edges = [(2, 3), (0, 2), (0, 1), (2, 3), (1, 3), (0, 1)]
        indptr, indices = canonical_successors(4, edges)
        csr = Dag(4, edges).to_csr()
        assert indptr.tolist() == csr.succ_indptr.tolist() == [0, 2, 3, 4, 4]
        assert indices.tolist() == csr.succ_indices.tolist() == [1, 2, 3, 3]

    def test_negative_node_count(self):
        with pytest.raises(ValueError):
            Dag(-1)

    def test_from_adjacency(self):
        g = Dag.from_adjacency([[1, 2], [2], []])
        assert g.n_edges == 3
        assert g.has_edge(0, 2)

    def test_chain_constructor(self):
        g = Dag.chain(4)
        assert g.n_edges == 3
        assert g.sources() == (0,)
        assert g.sinks() == (3,)

    def test_empty_constructor(self):
        g = Dag.empty(5)
        assert g.n_edges == 0


class TestAccessors:
    def setup_method(self):
        #    0 -> 1 -> 3
        #     \-> 2 -/
        self.g = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_degrees(self):
        assert self.g.in_degree(0) == 0
        assert self.g.out_degree(0) == 2
        assert self.g.in_degree(3) == 2
        assert self.g.out_degree(3) == 0

    def test_sources_sinks(self):
        assert self.g.sources() == (0,)
        assert self.g.sinks() == (3,)

    def test_has_edge(self):
        assert self.g.has_edge(0, 1)
        assert not self.g.has_edge(1, 0)
        assert not self.g.has_edge(0, 3)

    def test_edges_sorted(self):
        assert self.g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))


class TestTopologicalOrder:
    def test_respects_precedence(self):
        g = Dag(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for (u, v) in g.edges:
            assert pos[u] < pos[v]

    def test_deterministic_smallest_first(self):
        g = Dag(3)
        assert g.topological_order() == (0, 1, 2)

    def test_covers_all_nodes(self):
        g = Dag(6, [(5, 0), (4, 1)])
        assert sorted(g.topological_order()) == list(range(6))


class TestReachability:
    def setup_method(self):
        self.g = Dag(5, [(0, 1), (1, 2), (0, 3)])

    def test_ancestors(self):
        assert self.g.ancestors(2) == {0, 1}
        assert self.g.ancestors(0) == set()
        assert self.g.ancestors(4) == set()

    def test_descendants(self):
        assert self.g.descendants(0) == {1, 2, 3}
        assert self.g.descendants(2) == set()

    def test_reachable(self):
        assert self.g.reachable(0, 2)
        assert not self.g.reachable(2, 0)
        assert not self.g.reachable(0, 0)
        assert not self.g.reachable(3, 4)


class TestTransforms:
    def test_transitive_closure(self):
        g = Dag(3, [(0, 1), (1, 2)])
        c = g.transitive_closure()
        assert c.has_edge(0, 2)
        assert c.n_edges == 3

    def test_transitive_reduction_removes_redundant(self):
        g = Dag(3, [(0, 1), (1, 2), (0, 2)])
        r = g.transitive_reduction()
        assert not r.has_edge(0, 2)
        assert r.n_edges == 2

    def test_reduction_of_closure_is_original_chain(self):
        g = Dag.chain(5)
        assert g.transitive_closure().transitive_reduction() == g

    def test_closure_idempotent(self):
        g = Dag(4, [(0, 1), (1, 2), (2, 3)])
        c = g.transitive_closure()
        assert c.transitive_closure() == c

    def test_reversed(self):
        g = Dag(3, [(0, 1), (1, 2)])
        r = g.reversed_dag()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert r.reversed_dag() == g

    def test_induced_subgraph(self):
        g = Dag(4, [(0, 1), (1, 2), (2, 3)])
        sub, remap = g.induced_subgraph([1, 2, 3])
        assert sub.n_nodes == 3
        assert sub.n_edges == 2
        assert remap == {1: 0, 2: 1, 3: 2}

    def test_induced_subgraph_bad_node(self):
        g = Dag(2)
        with pytest.raises(ValueError):
            g.induced_subgraph([0, 5])


class TestLongestPath:
    def test_chain_weights(self):
        g = Dag.chain(3)
        assert g.longest_path_length([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_parallel_picks_max(self):
        g = Dag(3, [(0, 1), (0, 2)])
        assert g.longest_path_length([1.0, 5.0, 2.0]) == pytest.approx(6.0)

    def test_path_realizes_length(self):
        g = Dag(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
        w = [1.0, 10.0, 1.0, 1.0, 2.0]
        path = g.longest_path(w)
        assert sum(w[v] for v in path) == pytest.approx(
            g.longest_path_length(w)
        )
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)

    def test_empty_graph_path(self):
        g = Dag(0)
        assert g.longest_path_length([]) == 0.0
        assert g.longest_path([]) == []

    def test_weight_length_mismatch(self):
        g = Dag(2)
        with pytest.raises(ValueError):
            g.longest_path_length([1.0])
        with pytest.raises(ValueError):
            g.longest_path([1.0, 2.0, 3.0])

    def test_depth(self):
        assert Dag.chain(4).depth() == 4
        assert Dag.empty(4).depth() == 1
        assert Dag(0).depth() == 0


class TestDunder:
    def test_equality(self):
        a = Dag(2, [(0, 1)])
        b = Dag(2, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert Dag(2, [(0, 1)]) != Dag(2)
        assert Dag(2) != Dag(3)

    def test_repr(self):
        assert "n_nodes=2" in repr(Dag(2, [(0, 1)]))
