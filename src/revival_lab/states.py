"""States and their support graphs over the distinct eigenvalues."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .spectral import SpectralDecomposition

PSD_TOL = 1e-10
# E_r rho E_s is in the support above this multiple of max |rho|
SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class StateMatrix:
    """Real symmetric PSD matrix representing an (unnormalized) state."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        M = np.asarray(self.entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("state matrix must be square")
        if not np.allclose(M, M.T):
            raise ValueError("state matrix must be symmetric")
        # a diagonal matrix's eigenvalues are its diagonal: no O(n^3) solve
        d = np.diagonal(M)
        lowest = (d.min() if np.count_nonzero(M) == np.count_nonzero(d)
                  else np.linalg.eigvalsh(M).min())
        if lowest < -PSD_TOL:
            raise ValueError("state matrix must be positive semidefinite")
        M = M.copy()
        M.flags.writeable = False
        object.__setattr__(self, "entries", M)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def subset_state(S: Iterable[int], n: int) -> StateMatrix:
    """Diagonal 0/1 indicator state D_S, raw (unnormalized)."""
    S = set(int(v) for v in S)
    if not S:
        raise ValueError("subset must be nonempty")
    if min(S) < 0 or max(S) >= n:
        raise ValueError("vertex out of range")
    d = np.zeros(n)
    d[list(S)] = 1.0
    return StateMatrix(np.diag(d))


def _support_mask(D: SpectralDecomposition,
                  rho: StateMatrix | np.ndarray) -> np.ndarray:
    """(m, m) booleans: [r, s] when E_r rho E_s is nonzero."""
    M = rho.entries if isinstance(rho, StateMatrix) else np.asarray(rho)
    if M.shape[0] != D.n:
        raise ValueError("dimension mismatch")
    threshold = SUPPORT_TOL * max(float(np.abs(M).max()), 1e-300)
    V, bounds = D.vectors, D.bounds
    G = V.T @ M @ V
    cols = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # max |entry| of E_r rho E_s = V_r G_rs V_s^T; for one-dimensional
    # eigenspaces that is |g| max|v_r| max|v_s|
    starts = np.asarray(bounds[:-1])
    peak = np.abs(V[:, starts]).max(axis=0)
    big = np.abs(G[np.ix_(starts, starts)]) * np.outer(peak, peak) > threshold
    for r in np.nonzero(np.diff(bounds) > 1)[0]:
        for s in range(D.m):
            for i, j in ((r, s), (s, r)):
                E_rho_E = V[:, cols[i]] @ G[cols[i], cols[j]] @ V[:, cols[j]].T
                big[i, j] = np.abs(E_rho_E).max() > threshold
    return big


@dataclass(frozen=True)
class SupportGraph:
    """Graph on the distinct eigenvalues induced by a state's support."""

    vertices: tuple[float, ...]
    loops: frozenset[int]
    edges: frozenset[tuple[int, int]]


def support_graph(D: SpectralDecomposition,
                  rho: StateMatrix | np.ndarray) -> SupportGraph:
    """A loop on r when E_r rho E_r is nonzero, an edge {r, s} when
    E_r rho E_s or E_s rho E_r is."""
    big = _support_mask(D, rho)
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
