"""Spectral decompositions A = sum_r theta_r E_r and rows of the transition
matrix U(t) = exp(itA).

Arbitrary graphs get a numeric symmetric eigen-solve with gap-based
eigenvalue grouping. Fused-star graphs get closed-form eigenvalues from
their exact analysis, and every query is answered over their cells of
twins, with each requested vertex a cell of its own, whose eigenvectors are
closed forms too: no eigen-solve at all, and no array of size n.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import Graph, stellar_cells
from .stellar import StellarAnalysis, analyze

GROUPING_TOL = 1e-9
# Vertices from which a bipartite graph is solved by the SVD of its half-size
# block rather than by eigh of A (measured crossover, see CHANGES.md).
_SVD_MIN_VERTICES = 48


class Quotient(NamedTuple):
    """X(a, k, c) over its cells of twins a, {0}, k, {1}, c (path order, an
    emptied cell left out), then {v} for each twin v split off, those of a
    first, then k's, then c's. A twin split off its cell is still its twins'
    twin: the partition is equitable, a vertex of cell i having C[i, j] =
    ``sizes[j]`` neighbours in a joined cell j. Column r of
    ``vectors`` is an eigenvector w_r of B = sqrt(C * C^T), grouped by
    ``bounds``, with row j divided by sqrt(sizes[j]): Q w_r on cell j, whose
    rows of every E_r and of U(t) are its vertices' (Godsil & Royle,
    Algebraic Graph Theory, ch. 9). The columns are closed forms of the
    triple (``_stellar_cells``), not an eigen-solve. ``centers`` are the
    cells {0} and {1}, and ``kinds[j]`` is the place of cell j's vertices
    on the path a, {0}, k, {1}, c: 0 to 4."""

    vectors: np.ndarray
    bounds: np.ndarray
    sizes: list[int]
    centers: tuple[int, int]
    kinds: list[int]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (descending) with their orthonormal eigenvectors.

    Columns ``bounds[r]:bounds[r + 1]`` of ``vectors`` span the eigenspace of
    ``eigenvalues[r]``, so the projector is ``E_r = V_r V_r^T``. Consumers
    read these factors, or rows of them; no dense n x n projector is built.
    A fused star (``exact`` is the ``StellarAnalysis`` it was built from)
    has no ``vectors`` and no ``graph``: its readers' columns are the cells
    of a ``Quotient``, which no reader repeats over the n vertices.

    ``memo`` holds results that consumers derive from the decomposition and
    keep with it (the certifier's gate table, a fused star's quotients).
    repr leaves it out, and a ``dataclasses.replace`` copy starts with an
    empty one.

    Equality and hash are by identity: the factors are arrays, whose
    comparison has no single truth value.
    """

    eigenvalues: tuple[float, ...]
    vectors: np.ndarray | None = field(repr=False)
    bounds: tuple[int, ...]
    connected: bool
    warnings: tuple[str, ...] = ()
    exact: StellarAnalysis | None = None
    graph: Graph | None = field(default=None, repr=False)
    memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.bounds[-1]

    @property
    def m(self) -> int:
        return len(self.eigenvalues)

    def _row_factors(self, rows: list[int] | slice) -> tuple:
        """(V[rows], V, bounds, cols): the dense factors, or a fused star's
        cell vectors. A reader's columns are the rows of V, vertices or
        cells, and ``cols`` are those of ``rows``. A listed vertex outside
        [0, n) raises IndexError, where numpy would read a negative one
        from the end."""
        if not isinstance(rows, slice) and (min(rows) < 0
                                            or max(rows) >= self.n):
            raise IndexError(f"vertex out of range for {self.n} vertices")
        if self.exact is None:
            return self.vectors[rows], self.vectors, self.bounds, rows
        if isinstance(rows, slice):
            rows = range(self.n)[rows]
        q, cells = self._quotient(rows)
        return q.vectors[cells], q.vectors, q.bounds, cells

    def _quotient(self, rows: Sequence[int]) -> tuple[Quotient, list[int]]:
        """A fused star's quotient with each vertex of ``rows`` a cell of its
        own, and the cells of ``rows``. ``memo`` keeps it under the counts
        of the twins it splits off the cells a, k and c: (0, 0, 0) for five."""
        e, twins, split = self.exact, (), (0, 0, 0)
        if max(rows) > 1:
            twins = sorted({*rows} - {0, 1})
            split = tuple(bisect_left(twins, r.stop)
                          - bisect_left(twins, r.start)
                          for r in stellar_cells(e.a, e.k, e.c))
        q = self.memo.get(split)
        if q is None:
            q = self.memo[split] = _stellar_cells(e, split)
        first = len(q.sizes) - len(twins)  # the twins' cells are the last
        return q, [q.centers[u] if u < 2 else first + bisect_left(twins, u)
                   for u in rows]

    def _cell_counts(self, rows: Sequence[int]) -> np.ndarray:
        """The integer adjacency over the row factors' columns for ``rows``:
        the graph's in int64, or a fused star's C in Python ints."""
        if self.exact is None:
            return self.graph.adjacency().astype(np.int64)
        q = self._quotient(rows)[0]
        kinds = np.array(q.kinds)  # joined where adjacent on the path
        return (abs(kinds[:, None] - kinds) == 1) * np.array(q.sizes,
                                                             dtype=object)

    def projector_rows(self, rows: list[int] | slice) -> tuple:
        """(P, cols): P[i, j, r] = (E_r)_{rows[i], v} for the vertices v of
        column j of the row factors (one vertex, or a quotient's cell, all
        of whose vertices have that entry), and the columns of ``rows``."""
        R, V, bounds, cols = self._row_factors(rows)
        products = R[:, None, :] * V[None, :, :]
        return np.add.reduceat(products, bounds[:-1], axis=2), cols


def _group_eigenvalues(gaps: list[float],
                       threshold: float) -> tuple[list[int], list[str]]:
    """Cluster bounds of descending eigenvalues split at gaps >= threshold."""
    bounds = [0, *(i for i, gap in enumerate(gaps, 1) if gap >= threshold),
              len(gaps) + 1]
    warnings = [f"eigenvalue gap {gap:.3e} within a factor 10 of the "
                f"grouping threshold {threshold:.3e}" for gap in gaps
                if threshold / 10 <= gap <= threshold * 10]
    return bounds, warnings


def _sides(X: Graph) -> tuple[bool, list[int] | None]:
    """(connected, side) from one stack search over the edge list: side[v]
    is 0 or 1 with every edge joining the two sides, or None when an edge
    joins two vertices of one side (the graph has an odd cycle)."""
    adjacent: list[list[int]] = [[] for _ in range(X.n)]
    for u, v in X.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    side = [-1] * X.n
    bipartite, components = True, 0
    for root in range(X.n):
        if side[root] >= 0:
            continue
        components += 1
        side[root], stack = 0, [root]
        while stack:
            u = stack.pop()
            for w in adjacent[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    bipartite = False
    return components == 1, side if bipartite else None


def _bipartite_eigh(A: np.ndarray,
                    side: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and eigenvectors of A = [[0, B], [B^T, 0]]
    (rows and columns in the order of ``side``'s 0s, then its 1s) from the
    SVD B = U diag(s) W^T of the half-size block: (u_i, +-w_i)/sqrt(2) has
    eigenvalue +-s_i, and the columns of U and W past the k = len(s) paired
    ones, padded with zeros, span the rest of the kernel. The spectrum is
    exactly symmetric."""
    n = A.shape[0]
    ones = np.asarray(side, dtype=bool)
    left, right = np.flatnonzero(~ones), np.flatnonzero(ones)
    U, s, Wt = np.linalg.svd(A[np.ix_(left, right)])
    k, p = len(s), len(left)
    h = math.sqrt(0.5)
    V = np.zeros((n, n))
    V[left, :k] = U[:, :k] * h
    V[right, :k] = Wt[:k].T * h
    V[left, n - k:] = np.flip(U[:, :k], 1) * h
    V[right, n - k:] = np.flip(Wt[:k].T, 1) * -h
    V[left, k:p] = U[:, k:]
    V[right, p:n - k] = Wt[k:].T
    return np.concatenate([s, np.zeros(n - 2 * k), -s[::-1]]), V


def decompose(X: Graph) -> SpectralDecomposition:
    """Numeric spectral decomposition with gap-based eigenvalue grouping.

    A bipartite graph on at least ``_SVD_MIN_VERTICES`` vertices is solved
    by the SVD of its half-size block, any other graph by ``eigh``.
    """
    A, (connected, side) = X.adjacency(), _sides(X)
    by_svd = side is not None and X.n >= _SVD_MIN_VERTICES
    if by_svd:
        vals, vecs = _bipartite_eigh(A, side)
    else:
        vals, vecs = np.linalg.eigh(A)
        # eigh sorts ascending; reversed, the clusters descend
        vals, vecs = vals[::-1], np.ascontiguousarray(vecs[:, ::-1])
    radius = float(max(vals[0], -vals[-1]))  # vals descend
    threshold = GROUPING_TOL * max(1.0, radius)
    bounds, warnings = _group_eigenvalues((vals[:-1] - vals[1:]).tolist(),
                                          threshold)
    # the mean of each cluster; a spectrum of simple eigenvalues is its own
    eigenvalues = vals if len(bounds) > len(vals) else \
        np.add.reduceat(vals, bounds[:-1]) / np.diff(bounds)
    if by_svd:
        # the clusters mirror each other; their means are made to as well
        eigenvalues = (eigenvalues - eigenvalues[::-1]) / 2
    return SpectralDecomposition(tuple(eigenvalues.tolist()), vecs,
                                 tuple(bounds), connected, tuple(warnings),
                                 graph=X)


def _transition_cells(D: SpectralDecomposition, rows: list[int] | slice,
                      t: float) -> tuple:
    """Rows of U(t) = exp(itA) over the columns of the row factors (the
    vertices, or a fused star's cells), with the column of each requested
    row: (V[rows] diag(exp(i t theta))) V^T, whose
    real and imaginary parts come from one real product of the stacked
    rows [R cos(t theta); R sin(t theta)] with V^T."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    R, V, bounds, cols = D._row_factors(rows)
    angles = np.repeat(t * np.asarray(D.eigenvalues), np.diff(bounds))
    parts = np.concatenate([R * np.cos(angles), R * np.sin(angles)]) @ V.T
    k = len(R)
    return parts[:k] + 1j * parts[k:], cols


def stellar_decompose(a: int, k: int, c: int) -> SpectralDecomposition:
    """Spectral decomposition of X(a, k, c) backed by its exact analysis.

    The eigenvalues are the closed forms +-theta5, +-theta3 and 0, of
    multiplicities 1, 1, n - 4, 1, 1, and ``exact`` is ``analyze(a, k, c)``.
    Every query is answered from a ``Quotient``, built on demand.
    """
    return _stellar_decomposition(analyze(a, k, c))


def _stellar_thetas(an: StellarAnalysis) -> tuple[float, float]:
    """theta5 and theta3 as floats with no surd: theta5^2 = (mu +
    sqrt(sigma))/2 and, as theta3^2 theta5^2 = e2 = ak + ck + ac,
    theta3^2 = 2 e2/(mu + sqrt(sigma)), which does not cancel when
    theta3 << theta5."""
    big = an.mu + math.sqrt(an.sigma)
    e2 = an.a * an.k + an.c * an.k + an.a * an.c
    return math.sqrt(big / 2), math.sqrt(2 * e2 / big)


def _stellar_decomposition(an: StellarAnalysis) -> SpectralDecomposition:
    """``stellar_decompose`` of the triple that ``an`` analyzed."""
    a, k, c = an.a, an.k, an.c
    theta5, theta3 = _stellar_thetas(an)
    eigenvalues = (theta5, theta3, 0.0, -theta3, -theta5)
    threshold = GROUPING_TOL * max(1.0, theta5)
    # the gaps of the five, as float subtraction gives them
    gap = theta5 - theta3
    groups, warnings = _group_eigenvalues([gap, theta3, theta3, gap],
                                          threshold)
    if len(groups) != 6:
        # the exact eigenvalues are distinct, but a gap (theta3, or
        # theta5 - theta3) is too small next to theta5 for float grouping
        gap = min(theta3, gap)
        raise ValueError(
            f"X({a}, {k}, {c}) is beyond float resolution: eigenvalue gap "
            f"{gap:.3e} below the grouping threshold {threshold:.3e}")
    n = a + k + c + 2
    return SpectralDecomposition(
        eigenvalues, None, (0, 1, 2, n - 2, n - 1, n), True, tuple(warnings),
        an)


def _stellar_cells(an: StellarAnalysis, split: tuple) -> Quotient:
    """The ``Quotient`` of the triple ``an`` analyzed with the counts
    ``split`` of twins split off its cells a, k and c, in closed form.

    Only the centers have neighbours: {0} in the cells of kinds a and k,
    {1} in those of k and c. So B is bipartite, the centers against the
    rest, and its 2 x (m - 2) block K has K K^T = M = [[a + k, k],
    [k, k + c]] for every split, as the sizes of one kind's cells add up
    to a, k or c. With u = (cos phi, sin phi) for theta5^2 and (-sin phi,
    cos phi) for theta3^2, tan 2 phi = 2k/(a - c), the eigenvectors of
    +-theta are (u, +-K^T u/theta)/sqrt(2): u/sqrt(2) on the centers and
    +-u_0, +-(u_0 + u_1) or +-u_1 over theta sqrt(2) on the scaled rows of
    kinds a, k and c. The eigenvalue 0 is zero on the centers: the cross
    vector z (1/a, -1/k, 1/c) by kind, z = sqrt(akc/e2), and for each kind
    of more than one cell a Householder complement of its sqrt(size)
    vector."""
    a, k, c = an.a, an.k, an.c
    left = [a - split[0], 1, k - split[1], 1, c - split[2]]
    base = [j for j in range(5) if left[j]]
    kinds = base + [0] * split[0] + [2] * split[1] + [4] * split[2]
    sizes = [size for size in left if size] + [1] * (len(kinds) - len(base))
    m, c0, c1 = len(sizes), base.index(1), base.index(3)
    # cos phi and sin phi from the integers d and sigma: of
    # (rs +- d)/(2 rs), the squares of the two, take the one that does not
    # cancel, and the other from (rs + d)(rs - d) = 4k^2
    d, rs = a - c, math.sqrt(an.sigma)
    big = rs + abs(d)
    one, other = math.sqrt(big / (2 * rs)), 2 * k / math.sqrt(2 * rs * big)
    cos, sin = (one, other) if d >= 0 else (other, one)
    theta5, theta3 = _stellar_thetas(an)
    h, z = math.sqrt(0.5), math.sqrt(a * k * c / (a * k + c * k + a * c))
    x5, x3 = h / theta5, h / theta3
    a5, k5, c5 = cos * x5, (cos + sin) * x5, sin * x5
    # cos phi - sin phi = cos 2 phi/(cos phi + sin phi), with no cancelling
    a3, k3, c3 = -sin * x3, d / (rs * (cos + sin)) * x3, cos * x3
    # the row of W in the columns theta5, theta3, 0, -theta3, -theta5 of
    # each kind of cell: a, {0}, k, {1}, c
    row = [(a5, a3, z / a, -a3, -a5),
           (cos * h, -sin * h, 0.0, -sin * h, cos * h),
           (k5, k3, -z / k, -k3, -k5),
           (sin * h, cos * h, 0.0, cos * h, sin * h),
           (c5, c3, z / c, -c3, -c5)]
    W = np.array([row[j] for j in kinds])
    if m > 5:
        # the rest of the eigenvalue 0: for each kind of more than one
        # cell, columns 2 ... of the Householder reflection I - w w^T/w_0,
        # w = v + e_0, of its unit sqrt(size) vector v (its first cell of
        # size s, then cells of one twin), which maps e_0 to -v. On the
        # scaled rows that is -1/sqrt(s total) on the first cell, and the
        # identity less 1/(total + sqrt(s total)) on the others.
        rest, col = np.zeros((m, m - 5)), 0
        for kind, total in ((0, a), (2, k), (4, c)):
            first, *ones = [i for i, j in enumerate(kinds) if j == kind]
            if ones:
                p, root = len(ones), math.sqrt(sizes[first] * total)
                rest[first, col:col + p] = -1 / root
                rest[ones[0]:ones[0] + p, col:col + p] = \
                    np.eye(p) - 1 / (total + root)
                col += p
        W = np.concatenate([W[:, :3], rest, W[:, 3:]], axis=1)
    # bounds as an array: readers take its differences at C speed
    return Quotient(W, np.array((0, 1, 2, m - 2, m - 1, m)), sizes,
                    (c0, c1), kinds)


def char_poly_suite(a: int, k: int, c: int) -> dict[str, list[int]]:
    """Closed-form characteristic polynomials for X(a, k, c) and its key
    vertex-deleted subgraphs, as exact ascending integer coefficient lists.

    psi_01 is the polynomial under the square root in the fractional
    cospectrality identity; here it has integer coefficients.
    """
    if min(a, k, c) < 1:
        raise ValueError("all of a, k, c must be positive")
    mu = a + 2 * k + c
    e2 = a * k + c * k + a * c
    N = a + k + c

    def shifted(coeffs: list[int], exponent: int) -> list[int]:
        return [0] * exponent + coeffs

    return {
        "phi": shifted([e2, 0, -mu, 0, 1], N - 2),
        "phi_minus_0": shifted([-(c + k), 0, 1], N - 1),
        "phi_minus_1": shifted([-(a + k), 0, 1], N - 1),
        "phi_minus_01": shifted([1], N),
        "psi_01": shifted([k], N - 1),
    }


__all__ = [
    "SpectralDecomposition", "decompose", "stellar_decompose",
    "char_poly_suite",
]
