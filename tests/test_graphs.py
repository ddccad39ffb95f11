import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from referees import (build_path, build_star, cartesian_product,
                      induced_subgraph, is_equitable, stellar_partition,
                      symmetrized_quotient)
from revival_lab.graphs import (Graph, build_stellar, graph_from_graph6,
                                graph_from_json, graph_to_dot, graph_to_json,
                                stellar_cells)


def degree(X: Graph, v: int) -> int:
    return int(X.adjacency()[v].sum())


def discrete(n: int) -> list[set[int]]:
    return [{v} for v in range(n)]


class TestGraphInvariants:
    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_adjacency_is_symmetric_01(self):
        X = build_stellar(2, 3, 4)
        A = X.adjacency()
        assert np.array_equal(A, A.T)
        assert set(np.unique(A)) <= {0.0, 1.0}
        assert np.abs(np.diag(A)).max() == 0


class TestBuildStar:
    def test_k2(self):
        X = build_star(1)
        assert X.n == 2 and X.edges == frozenset({(0, 1)})

    def test_degree(self):
        X = build_star(3)
        assert X.n == 4 and degree(X, 0) == 3

    def test_rank_two_adjacency(self):
        # star adjacency has rank 2 regardless of leaf count
        assert np.linalg.matrix_rank(build_star(7).adjacency()) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_star(0)


class TestBuildPath:
    def test_small(self):
        assert build_path(1).n == 1 and not build_path(1).edges
        assert build_path(2).edges == frozenset({(0, 1)})

    def test_p3_eigenvalues(self):
        vals = np.linalg.eigvalsh(build_path(3).adjacency())
        assert vals == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_path(0)


class TestBuildStellar:
    def test_3_2_6(self):
        X = build_stellar(3, 2, 6)
        assert X.n == 13
        assert degree(X, 0) == 5 and degree(X, 1) == 8
        assert (1, 0) not in X.edges and (0, 1) not in X.edges
        A = X.adjacency()
        assert (A @ A)[0, 1] == 2  # common neighbours of the centers

    def test_1_1_1_char_poly(self):
        A = build_stellar(1, 1, 1).adjacency()
        coeffs = np.poly(A)  # descending
        assert coeffs == pytest.approx([1, 0, -4, 0, 3, 0])

    def test_1_4_1_degrees(self):
        X = build_stellar(1, 4, 1)
        assert X.n == 8 and degree(X, 0) == degree(X, 1) == 5

    def test_leaf_count_and_common_neighbors(self):
        X = build_stellar(4, 3, 5)
        leaves = [v for v in range(X.n) if degree(X, v) == 1]
        assert len(leaves) == 9
        A = X.adjacency()
        assert (A @ A)[0, 1] == 3

    def test_rejects_zero_parameter(self):
        with pytest.raises(ValueError):
            build_stellar(0, 1, 1)


class TestCartesianProduct:
    def test_k2_square(self):
        K2 = build_path(2)
        Q2 = cartesian_product(K2, K2)
        assert Q2.n == 4 and len(Q2.edges) == 4
        assert all(degree(Q2, v) == 2 for v in range(4))

    def test_p2_p3_ladder(self):
        Z = cartesian_product(build_path(2), build_path(3))
        assert Z.n == 6 and len(Z.edges) == 7

    def test_big_product_degree(self):
        Z = cartesian_product(build_path(2), build_stellar(16, 36, 37))
        assert Z.n == 182
        assert degree(Z, 0) == 1 + 16 + 36

    @given(st.integers(2, 5), st.integers(2, 5), st.randoms())
    def test_degree_law(self, m, n, rnd):
        X = build_path(m)
        Y = build_star(n)
        Z = cartesian_product(X, Y)
        for _ in range(5):
            x = rnd.randrange(X.n)
            y = rnd.randrange(Y.n)
            assert degree(Z, x * Y.n + y) == degree(X, x) + degree(Y, y)


class TestEquitable:
    def test_stellar_five_cell(self):
        a, k, c = 3, 2, 6
        X = build_stellar(a, k, c)
        ok, counts = is_equitable(X, stellar_partition(a, k, c))
        assert ok
        # cell order: a-cell, {0}, k-cell, {1}, c-cell
        assert counts[0, 1] == 1 and counts[1, 0] == a
        assert counts[1, 2] == k and counts[2, 1] == 1

    def test_discrete_always_equitable(self):
        X = build_stellar(2, 2, 2)
        ok, counts = is_equitable(X, discrete(X.n))
        assert ok and np.array_equal(counts, X.adjacency())

    def test_p3_unbalanced_cells(self):
        ok, _ = is_equitable(build_path(3), [{0, 1}, {2}])
        assert not ok


class TestSymmetrizedQuotient:
    def test_stellar_weighted_path(self):
        a, k, c = 3, 2, 6
        Q = symmetrized_quotient(build_stellar(a, k, c),
                                 stellar_partition(a, k, c))
        expected = [math.sqrt(a), math.sqrt(k), math.sqrt(k), math.sqrt(c)]
        got = [Q[i, i + 1] for i in range(4)]
        assert got == pytest.approx(expected)

    def test_1_4_1_weights(self):
        Q = symmetrized_quotient(build_stellar(1, 4, 1),
                                 stellar_partition(1, 4, 1))
        assert [Q[i, i + 1] for i in range(4)] == pytest.approx(
            [1, 2, 2, 1])

    def test_discrete_partition_recovers_graph(self):
        X = build_star(3)
        Q = symmetrized_quotient(X, discrete(X.n))
        assert np.array_equal(Q, X.adjacency())

    def test_quotient_spectrum_embeds(self):
        # quotient eigenvalues are a subset of the graph's
        a, k, c = 2, 3, 5
        X = build_stellar(a, k, c)
        Q = symmetrized_quotient(X, stellar_partition(a, k, c))
        qvals = np.linalg.eigvalsh(Q)
        gvals = np.linalg.eigvalsh(X.adjacency())
        for qv in qvals:
            assert np.abs(gvals - qv).min() < 1e-9


class TestInducedSubgraph:
    def test_whole_graph(self):
        X = build_stellar(2, 2, 2)
        sub, label_map = induced_subgraph(X, range(X.n))
        assert sub.edges == X.edges and label_map == list(range(X.n))

    def test_centers_nonadjacent(self):
        sub, _ = induced_subgraph(build_stellar(3, 2, 6), {0, 1})
        assert sub.n == 2 and not sub.edges

    def test_ladder_rung(self):
        Z = cartesian_product(build_path(2), build_path(3))
        sub, _ = induced_subgraph(Z, {0, 3})
        assert len(sub.edges) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(build_path(3), {5})


class TestSerialization:
    def test_json_round_trip(self):
        X = build_stellar(2, 3, 4)
        Y = graph_from_json(graph_to_json(X))
        assert Y.n == X.n and Y.edges == X.edges

    def test_graph6_round_trip(self):
        """Decode what networkx encodes; n >= 63 takes the 4-byte size."""
        for n in (1, 7, 62, 63, 100):
            g = nx.empty_graph(n)  # nodes 0..n-1 in order
            g.add_edges_from(nx.gnp_random_graph(n, 0.3, seed=n).edges())
            X = graph_from_graph6(nx.to_graph6_bytes(g, header=False).decode())
            assert X.n == n, n
            assert X.edges == {tuple(sorted(e)) for e in g.edges()}, n

    def test_graph6_known_string(self):
        # "D?{" decodes to a 5-vertex graph; spot-check via round trip
        X = graph_from_graph6(">>graph6<<DQc")
        assert X.n == 5

    def test_graph6_rejects_garbage(self):
        with pytest.raises(ValueError):
            graph_from_graph6("")
        with pytest.raises(ValueError):
            graph_from_graph6("\x01\x02")
        for text, message in [
                ("A_~~", "too long"),      # K2 and two bytes past its edge bit
                ("A`", "padding"),         # K2 with a padding bit set
                ("DQcA", "too long"),
                ("DQ", "too short"),
                ("~?", "size header"),     # a 4-byte size cut after 2 bytes
                ("~??", "size header"),
                ("~~???", "size header")]:  # an 8-byte size cut after 5
            with pytest.raises(ValueError, match=message):
                graph_from_graph6(text)

    def test_dot_output(self):
        text = graph_to_dot(build_path(2))
        assert "0 -- 1;" in text


def test_stellar_cells_cover():
    a_cell, k_cell, c_cell = stellar_cells(3, 2, 6)
    assert list(a_cell) + list(k_cell) + list(c_cell) == list(range(2, 13))
