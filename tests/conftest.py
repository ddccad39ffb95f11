import pytest

from referees import build_path, projectors
from revival_lab.graphs import Graph, build_stellar
from revival_lab.spectral import decompose


def _prism(m: int) -> Graph:
    """C_m x K2: cycle 0..m-1, its copy m..2m-1, and the rungs between."""
    cycle = [(i, (i + 1) % m) for i in range(m)]
    edges = cycle + [(u + m, v + m) for u, v in cycle] + [(i, i + m) for i in range(m)]
    return Graph.from_edges(2 * m, edges)


def _pairs(n: int) -> list[tuple[int, int]]:
    """Every pair on small graphs; ends, neighbours and middle pairs else."""
    if n <= 8:
        return [(a, b) for a in range(n) for b in range(a + 1, n)]
    return sorted({(0, 1), (0, n - 1), (1, n - 2), (n // 2 - 1, n // 2),
                   (n // 3, 2 * n // 3)})


@pytest.fixture(scope="session")
def parity_cases():
    """(name, decomposition, reference projectors, vertex pairs) for every
    connected graph on at most 6 vertices, the paths P2..P40, the prisms
    C_m x K2 for m = 3..12 (which have repeated eigenvalues) and X(a, k, c)
    of small triples, all decomposed densely (a fused star's cells are
    checked against these in test_spectral.TestStellarQuotient). The
    reference projectors E_r = V_r V_r^T are the referee's, built from the
    decomposition's factors.
    """
    import networkx as nx
    named = []
    for i, g in enumerate(nx.graph_atlas_g()[1:], start=1):
        n = g.number_of_nodes()
        if n <= 6 and nx.is_connected(g):
            named.append((f"atlas {i}",
                          decompose(Graph.from_edges(n, list(g.edges())))))
    named += [(f"P{n}", decompose(build_path(n))) for n in range(2, 41)]
    named += [(f"prism {m}", decompose(_prism(m))) for m in range(3, 13)]
    named += [(f"X{t}", decompose(build_stellar(*t)))
              for t in [(1, 1, 1), (3, 2, 6), (1, 4, 1), (2, 6, 11), (4, 3, 5)]]
    return [(name, D, projectors(D), _pairs(D.n)) for name, D in named]


@pytest.fixture
def square_free_calls(monkeypatch):
    """The arguments of every ``square_free_part`` call that the exact
    arithmetic and the fused-star analysis make while the test runs."""
    from revival_lab import exact, stellar
    calls = []
    real = exact.square_free_part

    def counting(n, **options):
        calls.append(n)
        return real(n, **options)

    monkeypatch.setattr(exact, "square_free_part", counting)
    monkeypatch.setattr(stellar, "square_free_part", counting)
    return calls
