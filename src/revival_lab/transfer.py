"""Subset state transfer detection and polygamous fractional revival.

Subset state transfer means U(t) D_S U(-t) = D_T for 0/1 diagonal subset
indicators. Detection measures the residual directly and also evaluates the
eight structural zero blocks of U(t) and the induced-subgraph cospectrality
consequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import _charpolys_int
from .graphs import Graph
from .revival import FRObservation, _fr_observation
from .spectral import (SpectralDecomposition, _stellar_decomposition,
                       _transition_cells)
from .stellar import analyze

DEFAULT_TRANSFER_TOL = 1e-8

# zero blocks of U(t) under transfer, in the ordering
# S\T, S&T, T\S, complement (0-based row, col)
ZERO_BLOCKS = ((0, 0), (0, 1), (3, 0), (3, 1),
               (1, 2), (1, 3), (2, 2), (2, 3))


@dataclass(frozen=True)
class SubsetTransferReport:
    """Evidence for or against subset state transfer S -> T at time t."""

    S: frozenset[int]
    T: frozenset[int]
    t: float
    residual: float
    block_zero_pattern: tuple[bool, ...]
    induced_cospectral: bool
    complement_cospectral: bool
    tol: float = DEFAULT_TRANSFER_TOL

    @property
    def is_transfer(self) -> bool:
        return self.residual < self.tol

    def to_json_dict(self) -> dict:
        return {
            "S": sorted(self.S), "T": sorted(self.T), "t": self.t,
            "residual": self.residual,
            "block_zero_pattern": list(self.block_zero_pattern),
            "induced_cospectral": self.induced_cospectral,
            "complement_cospectral": self.complement_cospectral,
            "is_transfer": self.is_transfer,
        }


def detect_subset_transfer(D: SpectralDecomposition, S: set[int], T: set[int],
                           t: float,
                           tol: float = DEFAULT_TRANSFER_TOL) -> SubsetTransferReport:
    """Measure the residual of U(t) D_S U(-t) = D_T and the block structure.

    U(t) is symmetric, so its rows on S | T are all that is read: they give
    the columns U[:, S] of the residual U[:, S] U[:, S]^* - D_T, and one side
    of each zero block lies in S | T. On a quotient the rows and their
    maxima are taken over the cells, which stand for their vertices."""
    S, T = set(S), set(T)
    if not S or not T:
        raise ValueError("subsets must be nonempty")
    union = sorted(S | T)
    rows, cols = _transition_cells(D, union, t)
    at = {v: i for i, v in enumerate(union)}
    col = dict(zip(union, cols))
    W = rows[[at[v] for v in sorted(S)]]
    R = W.T @ W.conj()
    diagonal = [col[v] for v in sorted(T)]
    R[diagonal, diagonal] -= 1  # - D_T
    residual = float(np.abs(R).max())

    # rows and columns of each group; the complement is every other column
    groups = [sorted(S - T), sorted(S & T), sorted(T - S)]
    columns = [[col[v] for v in g] for g in groups]
    columns.append(sorted(set(range(rows.shape[1])) - set(cols)))
    pattern = []
    for i, j in ZERO_BLOCKS:
        if i == 3:  # the complement: read the block from the other side
            i, j = j, i
        if not groups[i] or not columns[j]:
            pattern.append(True)
            continue
        block = rows[np.ix_([at[v] for v in groups[i]], columns[j])]
        pattern.append(bool(np.abs(block).max() < tol))

    cosp, comp_cosp = _cospectrality(D._cell_counts(union),
                                     {col[v] for v in S}, {col[v] for v in T})
    return SubsetTransferReport(frozenset(S), frozenset(T), float(t),
                                residual, tuple(pattern), cosp, comp_cosp, tol)


def induced_cospectrality(X: Graph, S: set[int],
                          T: set[int]) -> tuple[bool, bool]:
    """Exact cospectrality of the induced subgraphs on S vs T and on the
    complements, by integer characteristic polynomials."""
    return _cospectrality(X.adjacency().astype(np.int64), S, T)


def _cospectrality(A: np.ndarray, S: set[int],
                   T: set[int]) -> tuple[bool, bool]:
    """``induced_cospectrality`` of the columns S and T of the integer
    adjacency A: a graph's, or a fused star's cell counts C with S and T
    cells of one vertex. Its cells U of independent twins induce phi = x^z
    det(xI - C[U, U]), z = sum(|cell| - 1), the same z on both sides.

    Sets of different sizes have polynomials of different degrees, and so
    have their complements. Each distinct set is computed once, a slice of
    A, and the sets of one size go through the exact kernel as one stack.
    """
    S, T = frozenset(S), frozenset(T)
    if len(S) != len(T):
        return False, False
    all_v = frozenset(range(len(A)))
    if not (S | T) <= all_v:
        raise ValueError("vertex out of range")
    sets = {S, T, all_v - S, all_v - T} - {frozenset()}
    polys: dict[frozenset[int], list[int]] = {frozenset(): [1]}
    for size in {len(v) for v in sets}:
        group = [v for v in sets if len(v) == size]
        rows = np.array([sorted(v) for v in group])
        polys.update(zip(group, _charpolys_int(A[rows[:, :, None],
                                                 rows[:, None]])))
    return polys[S] == polys[T], polys[all_v - S] == polys[all_v - T]


@dataclass(frozen=True)
class PolygamyReport:
    """Proper FR on two overlapping pairs of K2 x X(a, k, c).

    Vertex (x, y) of the product has index x*n + y where n = a+k+c+2.
    The shared vertex is (0, 0); copies of the fused-star centers are
    (0, 0), (0, 1) and (1, 0) is the twin of (0, 0) across the K2 edge.
    """

    a: int
    k: int
    c: int
    ell: int
    tau_min: float
    twin_pair: tuple[int, int]
    twin_time: float
    twin_observation: FRObservation
    center_pair: tuple[int, int]
    center_time: float
    center_observation: FRObservation

    @property
    def is_polygamous(self) -> bool:
        tol = DEFAULT_TRANSFER_TOL
        return (self.twin_observation.is_proper(tol, 1e-3)
                and self.center_observation.is_proper(tol, 1e-3))


def _product_rows(D: SpectralDecomposition, vertices: list[tuple[int, int]],
                  t: float) -> tuple[np.ndarray, list[int]]:
    """Rows of U(t) on K2 x X at the product vertices (x, y), from the rows
    y of U_X(t): U_{K2 x X}(t) = U_K2(t) (x) U_X(t), with
    U_K2(t) = [[cos t, i sin t], [i sin t, cos t]]; with the column of each
    vertex. Column x' w + j pairs x' with column j of the w of U_X's rows."""
    xs, ys = zip(*vertices)
    k2 = np.array([[math.cos(t), 1j * math.sin(t)],
                   [1j * math.sin(t), math.cos(t)]])
    rows, cols = _transition_cells(D, list(ys), t)
    w = rows.shape[1]
    return ((k2[list(xs), :, None] * rows[:, None, :]).reshape(len(xs), -1),
            [x * w + j for x, j in zip(xs, cols)])


def polygamy_witness(a: int, k: int, c: int, ell: int) -> PolygamyReport:
    """Witness polygamous FR on K2 x X(a, k, c) for tau_min = pi/(2*ell+1).

    Proper FR holds on the two copies of vertex 0 at 2*tau_min and on the
    two fused-star centers at pi = (2*ell+1)*tau_min; both pairs share the
    vertex (0, 0). The rows of U(t) on both pairs are built from the rows of
    U_X(t) on the centers of X, over the cells of its quotient.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    an = analyze(a, k, c)
    if an.verdict != "proper-FR":
        raise ValueError(f"X({a},{k},{c}) has no proper FR")
    assert an.tau_min is not None
    odd = 2 * ell + 1
    if abs(an.tau_min - math.pi / odd) > 1e-12:
        raise ValueError(
            f"tau_min of X({a},{k},{c}) is {an.tau_min:.6g}, not pi/{odd}")

    # D comes from the checked analysis: analyze runs once, and a triple
    # without proper FR is rejected before its exact data, which needs the
    # square-free part of sigma when it is not a square (seconds past 1e24)
    D = _stellar_decomposition(an)
    n = D.n
    twin = (0, n)       # (0, 0) and (1, 0)
    centers = (0, 1)    # (0, 0) and (0, 1)
    t = 2 * an.tau_min
    twin_obs = _fr_observation(*_product_rows(D, [(0, 0), (1, 0)], t), t)
    center_obs = _fr_observation(
        *_product_rows(D, [(0, 0), (0, 1)], math.pi), math.pi)
    return PolygamyReport(a, k, c, ell, an.tau_min, twin, t, twin_obs,
                          centers, math.pi, center_obs)


__all__ = [
    "SubsetTransferReport", "PolygamyReport", "ZERO_BLOCKS",
    "detect_subset_transfer", "induced_cospectrality", "polygamy_witness",
]
