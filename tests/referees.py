"""Referees for the tests: plain dense forms of quantities that the package
computes in factored form or not at all.

Each one builds the whole n x n matrix it needs (U(t), the projectors E_r)
and states its check the way the theory does, so a test can compare the
package's factored answers against it. The tolerances are those that the
acceptance criteria were written with.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import networkx as nx
import numpy as np

from revival_lab.graphs import Graph, stellar_cells
from revival_lab.spectral import SpectralDecomposition, _transition_cells
from revival_lab.states import SupportGraph
from revival_lab.transfer import ZERO_BLOCKS

# A state is a dense matrix, or a vertex set S standing for the 0/1 diagonal
# D_S (what ``subset_state`` returns).
State = np.ndarray | frozenset[int] | set[int]


def state_matrix(S: set[int] | frozenset[int], n: int) -> np.ndarray:
    """The dense n x n indicator D_S."""
    d = np.zeros(n)
    d[sorted(S)] = 1.0
    return np.diag(d)


def _array(rho: State, n: int) -> np.ndarray:
    return (state_matrix(rho, n) if isinstance(rho, (set, frozenset))
            else np.asarray(rho))


# --- graphs ------------------------------------------------------------------

def build_star(leaves: int) -> Graph:
    """Star K_{1,leaves} with the center at index 0."""
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def build_path(n: int) -> Graph:
    """Path P_n with consecutive indices adjacent."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cartesian_product(X: Graph, Y: Graph) -> Graph:
    """Cartesian product; vertex (x, y) maps to index x * Y.n + y."""
    n = Y.n
    edges = []
    for x in range(X.n):
        edges += [(x * n + u, x * n + v) for u, v in Y.edges]
    for u, v in X.edges:
        edges += [(u * n + y, v * n + y) for y in range(n)]
    return Graph.from_edges(X.n * Y.n, edges)


def induced_subgraph(X: Graph, S) -> tuple[Graph, list[int]]:
    """Subgraph on S with relabeled vertices; returns (graph, label map).

    label_map[i] is the original index of new vertex i.
    """
    label_map = sorted(set(int(v) for v in S))
    if not label_map:
        raise ValueError("vertex set must be nonempty")
    if label_map[0] < 0 or label_map[-1] >= X.n:
        raise ValueError("vertex out of range")
    index = {v: i for i, v in enumerate(label_map)}
    edges = [(index[u], index[v]) for u, v in X.edges
             if u in index and v in index]
    return Graph.from_edges(len(label_map), edges), label_map


# --- the walk and the projectors -------------------------------------------

def adjacency(D: SpectralDecomposition) -> np.ndarray:
    """A = V diag(theta) V^T, rebuilt from the decomposition's factors."""
    thetas = np.repeat(D.eigenvalues, np.diff(D.bounds))
    return (D.vectors * thetas) @ D.vectors.T


def lift(x: np.ndarray, D: SpectralDecomposition, rows: list[int] | slice,
         axis: int = -1) -> np.ndarray:
    """Values over the columns of D's row factors for ``rows``, on
    ``axis``, over the n vertices: a fused star's cells (those of
    ``split_partition``) each repeated over their vertices."""
    if D.exact is None:
        return x
    e = D.exact
    at = np.empty(D.n, dtype=int)
    rows = range(D.n)[rows] if isinstance(rows, slice) else rows
    for j, cell in enumerate(split_partition(e.a, e.k, e.c, rows)):
        at[sorted(cell)] = j
    return np.take(x, at, axis)


def transition_rows(D: SpectralDecomposition, rows: list[int] | slice,
                    t: float) -> np.ndarray:
    """Rows of U(t) = exp(itA) over the n vertices: the package's rows over
    the columns of its row factors, lifted."""
    return lift(_transition_cells(D, rows, t)[0], D, rows)


def transition_matrix(D: SpectralDecomposition, t: float) -> np.ndarray:
    """U(t) = exp(itA), every row."""
    return transition_rows(D, slice(None), t)


def lifted_subset_transfer(D: SpectralDecomposition, S: set[int],
                           T: set[int], t: float,
                           tol: float = 1e-8) -> tuple[float, tuple]:
    """(residual, block_zero_pattern) of ``detect_subset_transfer`` read
    from the rows of U(t) on S | T over the n vertices: the residual
    U[:, S] U[:, S]^* - D_T as an n x n matrix, and each zero block of U(t)
    with the complement as the vertices outside S | T."""
    union = sorted(S | T)
    rows = transition_rows(D, union, t)
    at = {v: i for i, v in enumerate(union)}
    W = rows[[at[v] for v in sorted(S)]]
    R = W.T @ W.conj()
    R[sorted(T), sorted(T)] -= 1
    groups = [sorted(S - T), sorted(S & T), sorted(T - S),
              sorted(set(range(D.n)) - S - T)]
    pattern = []
    for i, j in ZERO_BLOCKS:
        if not groups[i] or not groups[j]:
            pattern.append(True)
            continue
        if i == 3:
            i, j = j, i
        block = rows[np.ix_([at[v] for v in groups[i]], groups[j])]
        pattern.append(bool(np.abs(block).max() < tol))
    return float(np.abs(R).max()), tuple(pattern)


def lifted_product_rows(D: SpectralDecomposition,
                        vertices: list[tuple[int, int]],
                        t: float) -> np.ndarray:
    """Rows of U(t) on K2 x X at the vertices (x, y), index x n + y, over
    all 2n vertices: U_K2(t) (x) U_X(t) from the rows y of U_X(t)."""
    xs, ys = zip(*vertices)
    k2 = np.array([[math.cos(t), 1j * math.sin(t)],
                   [1j * math.sin(t), math.cos(t)]])
    rows = transition_rows(D, list(ys), t)
    return (k2[list(xs), :, None] * rows[:, None, :]).reshape(len(xs), -1)


def unitarity_error(U: np.ndarray) -> float:
    """max |U U^* - I|."""
    return float(np.abs(U @ U.conj().T - np.eye(U.shape[0])).max())


def projectors(D: SpectralDecomposition) -> list[np.ndarray]:
    """The dense E_r = V_r V_r^T, one per distinct eigenvalue."""
    V = D.vectors
    return [V[:, lo:hi] @ V[:, lo:hi].T
            for lo, hi in zip(D.bounds, D.bounds[1:])]


def is_periodic(D: SpectralDecomposition, rho: State, t: float,
                tol: float = 1e-8) -> bool:
    """Whether U(t) commutes with the state rho."""
    M, U = _array(rho, D.n), transition_matrix(D, t)
    return bool(np.abs(U @ M - M @ U).max() < tol)


def average_state_equality(D: SpectralDecomposition, rho1: State,
                           rho2: State, tol: float = 1e-8) -> bool:
    """Whether E_r rho1 E_r = E_r rho2 E_r for every projector."""
    M1, M2 = _array(rho1, D.n), _array(rho2, D.n)
    return all(float(np.abs(P @ M1 @ P - P @ M2 @ P).max()) < tol
               for P in projectors(D))


def induced_transfer_check(D: SpectralDecomposition, rho1: State,
                           rho2: State, t: float,
                           tol: float = 1e-8) -> tuple[tuple[bool, ...], bool]:
    """Per eigenvalue, whether U(t) rho1 E_r rho1 U(-t) = rho2 E_r rho2;
    and the composite U(t) rho1^2 U(-t) = rho2^2, which holds whenever
    every per-eigenvalue check does."""
    M1, M2 = _array(rho1, D.n), _array(rho2, D.n)
    U = transition_matrix(D, t)

    def moves(X1: np.ndarray, X2: np.ndarray) -> bool:
        return bool(float(np.abs(U @ X1 @ U.conj().T - X2).max()) < tol)

    per_r = tuple(moves(M1 @ P @ M1, M2 @ P @ M2) for P in projectors(D))
    return per_r, moves(M1 @ M1, M2 @ M2)


# --- support graphs ----------------------------------------------------------

def _active(G: SupportGraph) -> set[int]:
    return set(G.loops).union(*G.edges)


def components(G: SupportGraph) -> list[set[int]]:
    """Connected components over the vertices that carry a loop or an edge."""
    g = nx.Graph(list(G.edges))
    g.add_nodes_from(_active(G))
    return [set(c) for c in nx.connected_components(g)]


def isolated_loopless(G: SupportGraph) -> set[int]:
    return set(range(len(G.vertices))) - _active(G)


def is_complete_with_loops(G: SupportGraph, comp: set[int]) -> bool:
    return comp <= G.loops and all(
        (r, s) in G.edges for r in comp for s in comp if r < s)


# --- equitable partitions ----------------------------------------------------

def stellar_partition(a: int, k: int, c: int) -> list[set[int]]:
    """The cells a, {0}, k, {1}, c of build_stellar(a, k, c): in this order
    the symmetrized quotient is a weighted path."""
    a_cell, k_cell, c_cell = stellar_cells(a, k, c)
    return [set(a_cell), {0}, set(k_cell), {1}, set(c_cell)]


def split_partition(a: int, k: int, c: int, rows) -> list[set[int]]:
    """The cells of the fused star's quotient for ``rows``, in its column
    order: those of ``stellar_partition`` less the twins in ``rows`` (an
    emptied cell left out), then {v} for each such twin v, ascending."""
    twins = sorted(set(rows) - {0, 1})
    cells = [cell - set(twins) for cell in stellar_partition(a, k, c)]
    return [cell for cell in cells if cell] + [{v} for v in twins]


def is_equitable(X: Graph,
                 cells: list[set[int]]) -> tuple[bool, np.ndarray | None]:
    """Whether every vertex of cell j has the same number of neighbours in
    cell l, for all j and l; on success also that count matrix."""
    A = X.adjacency()
    counts = np.zeros((len(cells), len(cells)), dtype=int)
    for j, cj in enumerate(cells):
        for l, cl in enumerate(cells):
            per_vertex = A[np.ix_(sorted(cj), sorted(cl))].sum(axis=1)
            if (per_vertex != per_vertex[0]).any():
                return False, None
            counts[j, l] = per_vertex[0]
    return True, counts


def symmetrized_quotient(X: Graph, cells: list[set[int]]) -> np.ndarray:
    """B with B[j, l] = sqrt(c_jl c_lj) over an equitable partition."""
    ok, counts = is_equitable(X, cells)
    if not ok:
        raise ValueError("partition is not equitable")
    return np.sqrt(counts * counts.T)


# --- the fused stars ---------------------------------------------------------

def stellar_center_blocks(a: int, k: int, c: int) -> list:
    """The 2x2 blocks of E_r on the centers {0, 1} of X(a, k, c), for the
    eigenvalues theta5, theta3, 0, -theta3, -theta5 in that order. Each
    entry is a pair (p, q) of Fractions standing for p + q/sqrt(sigma),
    sigma = 4k^2 + (a - c)^2. With x = (a - c)/(4 sqrt(sigma)) and
    e = k/(2 sqrt(sigma)) the blocks are [[1/4 + x, e], [e, 1/4 - x]] for
    +-theta5, [[1/4 - x, -e], [-e, 1/4 + x]] for +-theta3, and 0."""
    x, e = Fraction(a - c, 4), Fraction(k, 2)
    quarter, zero = Fraction(1, 4), Fraction(0)
    plus = [[(quarter, x), (zero, e)], [(zero, e), (quarter, -x)]]
    minus = [[(quarter, -x), (zero, -e)], [(zero, -e), (quarter, x)]]
    null = [[(zero, zero)] * 2] * 2
    return [plus, minus, null, minus, plus]


def surd_values(blocks: list, root: int | float) -> list:
    """The entries p + q/root of ``stellar_center_blocks``, with root =
    sqrt(sigma): Fractions for an integer root, floats for a float one."""
    return [[[p + q / root for p, q in row] for row in block]
            for block in blocks]


_SURD = re.compile(r"(\S+) ([-+]) (?:(\S+)\*)?sqrt\((\d+)\)")


def theta_squares(doc: dict) -> tuple[Fraction, Fraction, int]:
    """(p, q, d) with theta3^2, theta5^2 = p -+ q sqrt(d), parsed from the
    strings of ``StellarAnalysis.to_json_dict``: "p - q*sqrt(d)" and
    "p + q*sqrt(d)" ("q*" left out when q is 1), or two fractions, when
    d = 1 is returned."""
    three, five = doc["theta3_sq"], doc["theta5_sq"]
    m3, m5 = _SURD.fullmatch(three), _SURD.fullmatch(five)
    if m3 is None:
        y3, y5 = Fraction(three), Fraction(five)
        return (y3 + y5) / 2, (y5 - y3) / 2, 1
    assert m3[2] == "-" and m5[2] == "+", (three, five)
    assert m3[1] == m5[1] and m3[3] == m5[3] != "1", (three, five)
    assert m3[4] == m5[4], (three, five)
    return Fraction(m3[1]), Fraction(m3[3] or 1), int(m3[4])


# --- named graphs, observations and polynomials -----------------------------

def double_star_tree(a: int) -> tuple[Graph, float]:
    """Two stars K_{1,a} with their centers 0 and 1 joined by an edge, and
    the time 2 pi/sqrt(4a + 1) of proper FR on the centers."""
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, a + 2)]
    edges += [(1, v) for v in range(a + 2, 2 * a + 2)]
    return Graph.from_edges(2 * a + 2, edges), 2 * math.pi / math.sqrt(4 * a + 1)


def block_is_scalar(obs, tol: float = 1e-8) -> bool:
    """Whether an observation's 2x2 block on the pair is a multiple of I."""
    B = obs.block
    return (abs(B[0, 0] - B[1, 1]) < tol and abs(B[0, 1]) < tol
            and abs(B[1, 0]) < tol)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_sub(a: list[int], b: list[int]) -> list[int]:
    """a - b as ascending coefficients, trailing zeros dropped (at least
    one coefficient kept)."""
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out
