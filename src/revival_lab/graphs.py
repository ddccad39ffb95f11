"""Simple undirected graphs, their constructions and serialization.

Graphs are immutable after construction; every operation returns a new
value. Vertex indices run over [0, n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    """Decode a graph6 string (optionally with the >>graph6<< header).

    The size takes 1 byte below 63 vertices, else 4 (``~`` and 3 bytes) or 8
    (``~~`` and 6 bytes); after it come exactly ceil(n(n-1)/12) bytes of
    edge bits, padded with zero bits. Anything else is rejected."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(ch) - 63 for ch in s]
    if not data:
        raise ValueError("empty graph6 input")
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    head = 1 if data[0] < 63 else 8 if data[1:2] == [63] else 4
    if len(data) < head:
        raise ValueError("graph6 size header too short")
    n = 0
    for b in data[head // 4:head]:
        n = n << 6 | b
    data = data[head:]
    need = n * (n - 1) // 2
    size = -(-need // 6)
    if len(data) != size:
        raise ValueError(
            f"graph6 string too {'short' if len(data) < size else 'long'}")
    bits = []
    for b in data:
        bits += [(b >> shift) & 1 for shift in range(5, -1, -1)]
    if any(bits[need:]):
        raise ValueError("graph6 padding bits are not zero")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


def graph_to_dot(X: Graph) -> str:
    lines = ["graph G {"]
    for v in range(X.n):
        label = X.labels[v] if X.labels else str(v)
        lines.append(f'  {v} [label="{label}"];')
    for u, v in sorted(X.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
