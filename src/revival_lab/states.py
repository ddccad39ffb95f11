"""Subset states and their support graphs over the distinct eigenvalues.

A subset state is the 0/1 diagonal indicator D_S of a vertex set S, and is
held as S itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .revival import SUPPORT_TOL
from .spectral import SpectralDecomposition


def subset_state(S: Iterable[int], n: int) -> frozenset[int]:
    """The state D_S, raw (unnormalized), as its vertex set S: nonempty and
    within the n vertices."""
    S = frozenset(int(v) for v in S)
    if not S:
        raise ValueError("subset must be nonempty")
    if min(S) < 0 or max(S) >= n:
        raise ValueError("vertex out of range")
    return S


def _support_mask(D: SpectralDecomposition, S: Iterable[int]) -> np.ndarray:
    """(m, m) booleans: [r, s] when E_r D_S E_s is nonzero, that is when
    an entry exceeds SUPPORT_TOL times max |D_S| = 1, read over the
    columns of the row factors: maxima over cells are those over vertices."""
    rows, V, bounds, _ = D._row_factors(sorted(subset_state(S, D.n)))
    G = rows.T @ rows  # V^T D_S V
    cols = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # max |entry| of E_r D_S E_s = V_r G_rs V_s^T; for one-dimensional
    # eigenspaces that is |g| max|v_r| max|v_s|
    starts = np.asarray(bounds[:-1])
    peak = np.abs(V[:, starts]).max(axis=0)
    big = np.abs(G[np.ix_(starts, starts)]) * np.outer(peak, peak) > SUPPORT_TOL
    for r in np.nonzero(np.diff(bounds) > 1)[0]:
        for s in range(D.m):
            for i, j in ((r, s), (s, r)):
                block = V[:, cols[i]] @ G[cols[i], cols[j]] @ V[:, cols[j]].T
                big[i, j] = np.abs(block).max() > SUPPORT_TOL
    return big


@dataclass(frozen=True)
class SupportGraph:
    """Graph on the distinct eigenvalues induced by a state's support."""

    vertices: tuple[float, ...]
    loops: frozenset[int]
    edges: frozenset[tuple[int, int]]


def support_graph(D: SpectralDecomposition, S: Iterable[int]) -> SupportGraph:
    """A loop on r when E_r D_S E_r is nonzero, an edge {r, s} when
    E_r D_S E_s or E_s D_S E_r is."""
    big = _support_mask(D, S)
    loops = np.flatnonzero(np.diagonal(big)).tolist()
    r, s = np.nonzero(np.triu(big | big.T, 1))
    return SupportGraph(tuple(D.eigenvalues), frozenset(loops),
                        frozenset(zip(r.tolist(), s.tolist())))


def support_graph_to_dot(G: SupportGraph,
                         colors: dict[int, str] | None = None) -> str:
    """DOT rendering with loops; eigenvalues as labels."""
    lines = ["graph support {"]
    for r, th in enumerate(G.vertices):
        attrs = [f'label="{th:.6g}"']
        if colors and r in colors:
            attrs += ["style=filled", f'fillcolor="{colors[r]}"']
        lines.append(f"  {r} [{', '.join(attrs)}];")
    for r in sorted(G.loops):
        lines.append(f"  {r} -- {r};")
    for r, s in sorted(G.edges):
        lines.append(f"  {r} -- {s};")
    lines.append("}")
    return "\n".join(lines)
