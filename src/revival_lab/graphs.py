"""Simple undirected graphs, equitable partitions and quotients.

Graphs are immutable after construction; every operation returns a new
value. Vertex indices run over [0, n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def _normalize_edges(n: int, edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    out = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        out.add((min(u, v), max(u, v)))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label count must match vertex count")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Sequence[str] | None = None) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges),
                   tuple(labels) if labels is not None else None)

    def adjacency(self) -> np.ndarray:
        """The 0/1 adjacency matrix, written through a flat memoryview of
        its buffer: cheaper per edge than numpy item assignment."""
        n = self.n
        A = np.zeros((n, n))
        cells = memoryview(A).cast("B").cast("d")
        for u, v in self.edges:
            cells[u * n + v] = cells[v * n + u] = 1.0
        return A

    def neighbors(self, v: int) -> set[int]:
        return {b if a == v else a for a, b in self.edges if v in (a, b)}

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


@dataclass(frozen=True)
class Partition:
    """Ordered partition of [0, n) into disjoint nonempty cells."""

    cells: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        cells = tuple(frozenset(c) for c in self.cells)
        if any(not c for c in cells):
            raise ValueError("empty cell")
        all_vertices: list[int] = []
        for c in cells:
            all_vertices.extend(c)
        if len(all_vertices) != len(set(all_vertices)):
            raise ValueError("cells are not disjoint")
        object.__setattr__(self, "cells", cells)

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)

    def covers(self, n: int) -> bool:
        return set().union(*self.cells) == set(range(n))

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(tuple(frozenset({v}) for v in range(n)))


@dataclass(frozen=True)
class WeightedGraph:
    """Weighted graph given by a symmetric nonnegative matrix, zero diagonal."""

    n: int
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        W = np.asarray(self.weights, dtype=float)
        if W.shape != (self.n, self.n):
            raise ValueError("weight matrix shape mismatch")
        if not np.allclose(W, W.T):
            raise ValueError("weight matrix must be symmetric")
        if (W < 0).any():
            raise ValueError("weights must be nonnegative")
        if np.abs(np.diag(W)).max(initial=0.0) > 0:
            raise ValueError("diagonal must be zero")
        W = W.copy()
        W.flags.writeable = False
        object.__setattr__(self, "weights", W)

    def adjacency(self) -> np.ndarray:
        return np.array(self.weights)


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


def build_stellar(a: int, k: int, c: int) -> Graph:
    """Two fused stars: centers 0 and 1 share exactly k leaf neighbors.

    Vertex order: 0, 1, then the a private neighbors of 0, the k shared
    vertices, and the c private neighbors of 1.
    """
    if min(a, k, c) < 1:
        raise ValueError("all of a, k, c must be positive")
    edges = []
    a_cell, k_cell, c_cell = stellar_cells(a, k, c)
    edges += [(0, v) for v in a_cell]
    edges += [(0, v) for v in k_cell]
    edges += [(1, v) for v in k_cell]
    edges += [(1, v) for v in c_cell]
    return Graph.from_edges(a + k + c + 2, edges)


def stellar_cells(a: int, k: int, c: int) -> tuple[range, range, range]:
    """Index ranges of the a-cell, k-cell and c-cell of build_stellar."""
    return (range(2, 2 + a), range(2 + a, 2 + a + k),
            range(2 + a + k, 2 + a + k + c))


def stellar_partition(a: int, k: int, c: int) -> Partition:
    """The five-cell equitable partition, ordered a-cell, {0}, k-cell, {1}, c-cell.

    With this cell order the symmetrized quotient is a weighted path.
    """
    a_cell, k_cell, c_cell = stellar_cells(a, k, c)
    return Partition((frozenset(a_cell), frozenset({0}), frozenset(k_cell),
                      frozenset({1}), frozenset(c_cell)))


def cartesian_product(X: Graph, Y: Graph) -> Graph:
    """Cartesian product; vertex (x, y) maps to index x * Y.n + y."""
    n = Y.n
    edges = []
    for x in range(X.n):
        edges += [(x * n + u, x * n + v) for u, v in Y.edges]
    for u, v in X.edges:
        edges += [(u * n + y, v * n + y) for y in range(n)]
    return Graph.from_edges(X.n * Y.n, edges)


def is_equitable(X: Graph, P: Partition) -> tuple[bool, np.ndarray | None]:
    """Check whether every vertex of cell j has the same number of neighbors
    in cell l; on success also return the cell-count matrix.
    """
    if not P.covers(X.n):
        raise ValueError("partition does not cover the vertex set")
    k = len(P.cells)
    cell_of = {}
    for j, cell in enumerate(P.cells):
        for v in cell:
            cell_of[v] = j
    counts = np.zeros((k, k), dtype=int)
    for j, cell in enumerate(P.cells):
        rows = []
        for v in cell:
            row = [0] * k
            for w in X.neighbors(v):
                row[cell_of[w]] += 1
            rows.append(row)
        if any(row != rows[0] for row in rows[1:]):
            return False, None
        counts[j] = rows[0]
    return True, counts


def symmetrized_quotient(X: Graph, P: Partition) -> WeightedGraph:
    """Weighted graph on the cells with edge weight sqrt(c_jl * c_lj)."""
    ok, counts = is_equitable(X, P)
    if not ok:
        raise ValueError("partition is not equitable")
    assert counts is not None
    k = len(P.cells)
    W = np.zeros((k, k))
    for j in range(k):
        for l in range(j + 1, k):
            W[j, l] = W[l, j] = math.sqrt(counts[j, l] * counts[l, j])
    return WeightedGraph(k, W)


def induced_subgraph(X: Graph, S: Iterable[int]) -> tuple[Graph, list[int]]:
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


# --- serialization ---------------------------------------------------------

def graph_to_json(X: Graph) -> str:
    doc: dict = {"n": X.n, "edges": sorted([u, v] for u, v in X.edges)}
    if X.labels is not None:
        doc["labels"] = list(X.labels)
    return json.dumps(doc)


def graph_from_json(text: str) -> Graph:
    doc = json.loads(text)
    return Graph.from_edges(doc["n"], [tuple(e) for e in doc["edges"]],
                            doc.get("labels"))


def graph_from_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally with the >>graph6<< header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(ch) - 63 for ch in s]
    if not data:
        raise ValueError("empty graph6 input")
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    if data[0] <= 62:
        n, data = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = ((data[2] << 30) | (data[3] << 24) | (data[4] << 18)
             | (data[5] << 12) | (data[6] << 6) | data[7])
        data = data[8:]
    bits = []
    for b in data:
        bits += [(b >> shift) & 1 for shift in range(5, -1, -1)]
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise ValueError("graph6 string too short")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(max(n, 1), edges)


def graph_to_graph6(X: Graph) -> str:
    if X.n > 62:
        raise ValueError("encoding supports at most 62 vertices")
    bits = []
    A = X.adjacency()
    for v in range(1, X.n):
        bits += [int(A[u, v]) for u in range(v)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(X.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for bit in bits[i:i + 6]:
            val = (val << 1) | bit
        chars.append(chr(val + 63))
    return "".join(chars)


def graph_to_dot(X: Graph | WeightedGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    if isinstance(X, Graph):
        for v in range(X.n):
            label = X.labels[v] if X.labels else str(v)
            lines.append(f'  {v} [label="{label}"];')
        for u, v in sorted(X.edges):
            lines.append(f"  {u} -- {v};")
    else:
        for v in range(X.n):
            lines.append(f'  {v} [label="{v}"];')
        for u in range(X.n):
            for v in range(u + 1, X.n):
                w = X.weights[u, v]
                if w:
                    lines.append(f'  {u} -- {v} [label="{w:.6g}"];')
    lines.append("}")
    return "\n".join(lines)
