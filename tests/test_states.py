import math

import numpy as np
import pytest

from referees import (build_path, components, is_complete_with_loops,
                      is_periodic, isolated_loopless, state_matrix)
from revival_lab.spectral import decompose, stellar_decompose
from revival_lab.states import subset_state, support_graph, support_graph_to_dot


class TestStateMatrix:
    """The state matrix D_S of a vertex set, held as the set S itself."""

    def test_subset_state_validation(self):
        with pytest.raises(ValueError):
            subset_state(set(), 3)
        with pytest.raises(ValueError):
            subset_state({3}, 3)

    def test_state_is_its_vertex_set(self):
        assert subset_state([2, 0, 2], 5) == frozenset({0, 2})
        assert type(subset_state({1}, 2)) is frozenset


class TestEigenvalueSupport:
    """The pairs (r, s) with E_r D_S E_s nonzero, read as the loops and
    edges of the support graph."""

    def test_vertex_state_full_support_on_path(self):
        D = decompose(build_path(3))
        G = support_graph(D, subset_state({0}, 3))
        # an end vertex of P3 sees every eigenvalue pair
        assert G.loops == {0, 1, 2} and G.edges == {(0, 1), (0, 2), (1, 2)}

    def test_stellar_pair_state_support(self):
        D = stellar_decompose(3, 2, 6)
        G = support_graph(D, subset_state({0, 1}, D.n))
        active = G.loops.union(*G.edges)
        assert {round(D.eigenvalues[r]) for r in active} == {3, 2, -2, -3}

    def test_matches_explicit_projectors(self, parity_cases):
        for name, D, E, pairs in parity_cases:
            stack = np.array(E)
            for S in pairs[:3] + [(0,), (D.n - 1,)]:
                M = state_matrix(S, D.n)
                threshold = 1e-8 * np.abs(M).max()
                # entry [r, s] is max |E_r M E_s|
                peaks = np.abs((stack @ M)[:, None] @ stack[None]).max(axis=(2, 3))
                loops, edges = set(), set()
                for r, s in zip(*np.nonzero(peaks > threshold)):
                    if r == s:
                        loops.add(r)
                    else:
                        edges.add((min(r, s), max(r, s)))
                G = support_graph(D, subset_state(S, D.n))
                assert (G.loops, G.edges) == (loops, edges), name

    def test_identity_sees_only_loops(self):
        D = decompose(build_path(3))
        G = support_graph(D, subset_state(range(3), 3))
        assert G.loops == {0, 1, 2} and not G.edges


class TestSupportGraph:
    def test_stellar_two_complete_components(self):
        D = stellar_decompose(3, 2, 6)
        G = support_graph(D, subset_state({0, 1}, D.n))
        comps = components(G)
        assert len(comps) == 2
        assert all(is_complete_with_loops(G, c) for c in comps)
        assert isolated_loopless(G) == {2}  # the zero eigenvalue

    def test_vertex_state_complete(self):
        D = decompose(build_path(3))
        G = support_graph(D, subset_state({0}, 3))
        comps = components(G)
        assert len(comps) == 1 and is_complete_with_loops(G, comps[0])

    def test_dot_rendering(self):
        D = decompose(build_path(2))
        G = support_graph(D, subset_state({0}, 2))
        text = support_graph_to_dot(G, colors={0: "lightblue"})
        assert "0 -- 0;" in text and "lightblue" in text


class TestPeriodicity:
    def test_k2_period(self):
        D = decompose(build_path(2))
        assert is_periodic(D, subset_state({0}, 2), math.pi)
        assert not is_periodic(D, subset_state({0}, 2), 1.0)

    def test_stellar_pair_period(self):
        D = stellar_decompose(3, 2, 6)
        rho = subset_state({0, 1}, D.n)
        assert is_periodic(D, rho, 2 * math.pi)
        # FR time: the pair state is preserved but individual vertices move
        assert is_periodic(D, rho, math.pi)
        assert not is_periodic(D, subset_state({0}, D.n), math.pi)
