import io
import itertools
import json
import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from referees import (adjacency, build_path, build_star, is_equitable, lift,
                      poly_sub, projectors, split_partition,
                      stellar_center_blocks, surd_values,
                      symmetrized_quotient, theta_squares, transition_matrix,
                      transition_rows, unitarity_error)
from revival_lab.exact import charpoly_int
from revival_lab.graphs import Graph, build_stellar
from revival_lab.revival import certify_fr, verify_fr_at
from revival_lab.spectral import (char_poly_suite, decompose,
                                  stellar_decompose)
from revival_lab.states import support_graph
from revival_lab.stellar import analyze, generate_polygamy_triple
from revival_lab.transfer import detect_subset_transfer, polygamy_witness


def eigen_residuals(q, thetas):
    """||B w_r - theta_r w_r|| for each unit column w_r = Q w_r of a
    quotient, with Q the sqrt(size) scaling, and B = sqrt(C * C^T) joining
    the cells whose kinds are adjacent on the path a, {0}, k, {1}, c."""
    kinds, root = np.array(q.kinds), np.sqrt(np.array(q.sizes, float))
    B = (abs(kinds[:, None] - kinds) == 1) * np.outer(root, root)
    W = q.vectors * root[:, None]
    return np.linalg.norm(B @ W - W * thetas, axis=0)


def own_scale(thetas):
    """|theta|, and 1 for the eigenvalue 0."""
    return np.where(thetas == 0, 1.0, np.abs(thetas))


def exact_kind_rows(a, k, c):
    """60-digit rows of the quotient's columns theta5, theta3, the cross
    vector of 0, -theta3 and -theta5 for a cell of each kind a, {0}, k,
    {1}, c, from the integers of the triple: u = (cos phi, sin phi) with
    cos 2 phi = (a - c)/sqrt(sigma), (u, +-K^T u/theta)/sqrt(2)."""
    with localcontext() as ctx:
        ctx.prec = 60
        d, k2 = Decimal(a - c), Decimal(4 * k * k)
        root = (d * d + k2).sqrt()
        cos, sin = ((root + d) / (2 * root)).sqrt(), \
            ((root - d) / (2 * root)).sqrt()
        mu = Decimal(a + 2 * k + c)
        h = Decimal("0.5").sqrt()
        x5, x3 = h / ((mu + root) / 2).sqrt(), h / ((mu - root) / 2).sqrt()
        z = (Decimal(a * k * c) / Decimal(a * k + c * k + a * c)).sqrt()
        rows = [(cos * x5, -sin * x3, z / a, sin * x3, -cos * x5),
                (cos * h, -sin * h, 0, -sin * h, cos * h),
                ((cos + sin) * x5, (cos - sin) * x3, -z / k, (sin - cos) * x3,
                 -(cos + sin) * x5),
                (sin * h, cos * h, 0, cos * h, sin * h),
                (sin * x5, cos * x3, z / c, -cos * x3, -sin * x5)]
        return [tuple(+Decimal(x) for x in row) for row in rows]


class TestDecompose:
    def test_k2(self):
        D = decompose(build_path(2))
        assert D.eigenvalues == pytest.approx([1.0, -1.0])
        half = np.full((2, 2), 0.5)
        assert np.allclose(projectors(D)[0], half, atol=1e-12)

    def test_resolution_and_idempotence(self):
        D = decompose(build_stellar(3, 2, 6))
        total = sum(projectors(D))
        assert np.abs(total - np.eye(D.n)).max() < 1e-9
        for E in projectors(D):
            assert np.abs(E @ E - E).max() < 1e-9

    def test_orthogonality_and_reconstruction(self):
        X = build_stellar(2, 3, 4)
        D = decompose(X)
        E = projectors(D)
        for r in range(D.m):
            for s in range(r + 1, D.m):
                assert np.abs(E[r] @ E[s]).max() < 1e-9
        assert np.abs(adjacency(D) - X.adjacency()).max() < 1e-8

    def test_multiplicities_sum(self):
        # K_{1,5}: +-sqrt(5) once each and 0 four times
        D = decompose(build_star(5))
        assert np.diff(D.bounds).tolist() == [1, 4, 1]

    def test_keeps_its_graph(self):
        X = build_stellar(3, 2, 6)
        D = decompose(X)
        assert D.graph is X and "edges" not in repr(D)
        # a fused star is read over its cells: it has no graph or vectors
        D = stellar_decompose(3, 2, 6)
        assert D.graph is None and D.vectors is None

    def test_equality_and_hash_by_identity(self):
        D, D2 = decompose(build_path(3)), decompose(build_path(3))
        assert D == D and D != D2
        assert {D: 1, D2: 2}[D] == 1
        S = stellar_decompose(3, 2, 6)
        assert S == S and S != stellar_decompose(3, 2, 6) and {S: 1}[S] == 1


class TestTransitionMatrix:
    def test_k2_pst_at_half_pi(self):
        D = decompose(build_path(2))
        U = transition_matrix(D, math.pi / 2)
        expected = 1j * np.array([[0, 1], [1, 0]])
        assert np.abs(U - expected).max() < 1e-12

    def test_unitarity(self):
        D = decompose(build_stellar(3, 2, 6))
        assert unitarity_error(transition_matrix(D, 1.7)) < 1e-9

    def test_group_law(self):
        D = decompose(build_stellar(2, 6, 11))
        Us = transition_matrix(D, 0.3)
        Ut = transition_matrix(D, 1.1)
        Ust = transition_matrix(D, 1.4)
        assert np.abs(Us @ Ut - Ust).max() < 1e-8

    def test_rejects_nonfinite_time(self):
        D = decompose(build_path(2))
        with pytest.raises(ValueError):
            transition_matrix(D, float("inf"))


def center_blocks(D):
    """The blocks of every E_r on the centers {0, 1}, as (2, 2, m)."""
    P, cols = D.projector_rows([0, 1])
    return P[:, cols]


class TestStellarDecompose:
    def test_3_2_6_exact_blocks(self):
        D = stellar_decompose(3, 2, 6)
        assert D.exact == analyze(3, 2, 6)
        assert decompose(build_path(2)).exact is None
        assert D.eigenvalues == pytest.approx([3, 2, 0, -2, -3])
        # blocks on the centers, exactly: sigma = 25
        exact = surd_values(stellar_center_blocks(3, 2, 6), 5)
        assert exact[0] == [[Fraction(1, 10), Fraction(2, 10)],
                            [Fraction(2, 10), Fraction(4, 10)]]
        assert exact[1] == [[Fraction(4, 10), Fraction(-2, 10)],
                            [Fraction(-2, 10), Fraction(1, 10)]]
        numeric = center_blocks(D)
        assert all(np.abs(numeric[..., r] - np.array(exact[r], float)).max()
                   < 1e-9 for r in range(5))

    def test_exact_matches_numeric(self):
        for (a, k, c) in [(3, 2, 6), (1, 4, 1), (2, 6, 11), (5, 3, 9)]:
            D = stellar_decompose(a, k, c)
            exact = surd_values(stellar_center_blocks(a, k, c),
                                math.sqrt(D.exact.sigma))
            numeric = center_blocks(D)
            for r in range(5):
                assert np.abs(numeric[..., r] - np.array(exact[r])).max() < 1e-9

    def test_zero_eigenspace_block_vanishes(self):
        D = stellar_decompose(4, 3, 5)
        assert np.abs(center_blocks(D)[..., 2]).max() < 1e-9

    def test_eigenvalue_squares_vieta(self):
        D = stellar_decompose(6, 3, 14)
        p, q, d = theta_squares(D.exact.to_json_dict())
        a, k, c = 6, 3, 14
        assert 2 * p == a + 2 * k + c and 4 * q * q * d == D.exact.sigma
        assert p * p - q * q * d == a * k + c * k + a * c

    def test_built_on_analyze_and_lazy_decompose(self, monkeypatch):
        """The decomposition is built on its analysis; each quotient when a
        query first reads its split, kept under the twins it splits off
        the cells a, k and c, and no dense decomposition ever."""
        from revival_lab import spectral
        seen = {}

        def recording(name):
            real = getattr(spectral, name)

            def call(*args):
                seen[name] = real(*args)
                return seen[name]
            monkeypatch.setattr(spectral, name, call)

        recording("decompose")
        recording("analyze")
        D = stellar_decompose(2, 6, 28)
        an = seen["analyze"]
        assert D.exact is an
        certify_fr(D, 0, 1)
        assert D.memo == {}
        verify_fr_at(D, 0, 1, 1.0)
        q = D.memo[0, 0, 0]
        assert q.centers == (1, 3) and D._quotient([1, 0]) == (q, [3, 1])
        certify_fr(D, 0, 5)  # the gate table splits off every twin
        verify_fr_at(D, 2, 30, 1.0)  # a twin of the cell a and one of c
        verify_fr_at(D, 31, 3, 1.0)
        assert list(D.memo) == [(0, 0, 0), (2, 6, 28), "gates", (1, 0, 1)]
        assert D.memo[0, 0, 0] is q
        assert "decompose" not in seen and D.vectors is None

    def test_reconstruction(self):
        """sum_r theta_r E_r over the quotient that splits every vertex."""
        D = stellar_decompose(3, 2, 6)
        P = lift(D.projector_rows(slice(None))[0], D, slice(None), 1)
        A = P @ np.array(D.eigenvalues)
        assert np.abs(A - build_stellar(3, 2, 6).adjacency()).max() < 1e-8


class TestCharPolySuite:
    @pytest.mark.parametrize("a,k,c", [(3, 2, 6), (1, 1, 1), (2, 6, 11)])
    def test_phi_matches_direct_computation(self, a, k, c):
        suite = char_poly_suite(a, k, c)
        A = build_stellar(a, k, c).adjacency()
        assert suite["phi"] == charpoly_int(A.astype(int).tolist())

    def test_deleted_vertex_polys(self):
        # X minus a center is a star plus isolated leaves
        a, k, c = 3, 2, 6
        suite = char_poly_suite(a, k, c)
        n = a + k + c
        # phi(X - 0) = t^(n-1) (t^2 - (c+k))
        expected = [0] * (n - 1) + [-(c + k), 0, 1]
        assert suite["phi_minus_0"] == expected
        assert suite["phi_minus_01"] == [0] * n + [1]
        assert suite["psi_01"] == [0] * (n - 1) + [k]

    def test_gamma_identity(self):
        # phi(X-0) - phi(X-1) = gamma * psi with gamma = (a-c)/k... as
        # integer polynomials: difference = (a - c) * t^(n-1)
        a, k, c = 3, 2, 6
        suite = char_poly_suite(a, k, c)
        diff = poly_sub(suite["phi_minus_0"], suite["phi_minus_1"])
        gamma = Fraction(a - c, k)
        scaled = [gamma * x for x in suite["psi_01"]]
        assert [Fraction(x) for x in diff] == scaled

    def test_scaled_triples_share_blocks(self):
        # (3m, 2m, 6m) has the same projector blocks on the centers for all
        # m: exactly, as sqrt(sigma) = 5m, and as the decomposition gives them
        base = stellar_decompose(3, 2, 6)
        exact = surd_values(stellar_center_blocks(3, 2, 6), 5)
        for m in range(2, 6):
            D = stellar_decompose(3 * m, 2 * m, 6 * m)
            blocks = stellar_center_blocks(3 * m, 2 * m, 6 * m)
            assert surd_values(blocks, 5 * m) == exact
            assert np.abs(center_blocks(D) - center_blocks(base)).max() < 1e-12


def test_grouping_warning_near_threshold():
    # two eigenvalues separated by just above the threshold trigger a warning
    from revival_lab.spectral import GROUPING_TOL, _group_eigenvalues
    bounds, warnings = _group_eigenvalues([1e-8], GROUPING_TOL)
    assert bounds == [0, 1, 2] and warnings


class TestFactoredParity:
    """Consumers of the eigenvector factors agree with sums over explicit
    projectors E_r = V_r V_r^T."""

    def test_pair_blocks(self, parity_cases):
        for name, D, E, pairs in parity_cases:
            for a, b in pairs:
                ref = np.stack([P[np.ix_([a, b], [a, b])] for P in E], -1)
                P, cols = D.projector_rows([a, b])
                blocks = P[:, cols]
                assert np.abs(blocks - ref).max() < 1e-12, name

    def test_adjacency_and_transition_matrix(self, parity_cases):
        for name, D, E, _ in parity_cases:
            A = sum(th * P for th, P in zip(D.eigenvalues, E))
            assert np.abs(adjacency(D) - A).max() < 1e-12, name
            for t in (0.7, 2.9):
                U = sum(np.exp(1j * t * th) * P for th, P in zip(D.eigenvalues, E))
                assert np.abs(transition_matrix(D, t) - U).max() < 1e-12, name

    def test_verify_fr_at_rows(self, parity_cases):
        t = 1.3
        for name, D, E, pairs in parity_cases:
            U = sum(np.exp(1j * t * th) * P for th, P in zip(D.eigenvalues, E))
            for a, b in pairs:
                obs = verify_fr_at(D, a, b, t)
                others = [v for v in range(D.n) if v not in (a, b)]
                off = np.abs(U[np.ix_([a, b], others)]).max() if others else 0.0
                assert abs(obs.off_block_norm - off) < 1e-12, name
                assert abs(obs.cross_amplitude - abs(U[a, b])) < 1e-12, name
                assert np.abs(obs.block - U[np.ix_([a, b], [a, b])]).max() < 1e-12

    def test_verify_fr_at_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            verify_fr_at(decompose(build_path(3)), 0, 2, float("nan"))


class TestStellarQuotient:
    """Queries on X(a, k, c) come from its cells, with the requested
    vertices split off. The referee is the dense decomposition of the
    graph with D's closed-form eigenvalues, as stellar_decompose answered
    before it had a quotient, and with no exact analysis: its certificates
    come from the float gates."""

    @staticmethod
    def dense(D):
        """decompose(build_stellar(a, k, c)) with D's eigenvalues."""
        e = D.exact
        return replace(decompose(build_stellar(e.a, e.k, e.c)),
                       eigenvalues=D.eigenvalues)

    @staticmethod
    def triples():
        rng = random.Random(9)
        small = itertools.product(range(1, 13), repeat=3)
        sample = [tuple(rng.randint(1, 40) for _ in range(3)) for _ in range(60)]
        return [*small, *sample]

    def test_agrees_with_dense(self):
        for a, k, c in self.triples():
            D = stellar_decompose(a, k, c)
            ref = self.dense(D)
            label = (a, k, c)
            n = D.n
            for rows in ([0, 1], [1, 0], [1], [0, 2], [n - 1, 1, 2 + a]):
                P = lift(D.projector_rows(rows)[0], D, rows, 1)
                assert np.abs(P - ref.projector_rows(rows)[0]).max() < 1e-12, label
            tau = analyze(a, k, c).tau_min
            for t in (0.4, 2.3, tau or 5.1):
                U = transition_rows(D, [0, 1], t)
                assert np.abs(U - transition_rows(ref, [0, 1], t)).max() < 1e-12, label
                obs, ref_obs = verify_fr_at(D, 0, 1, t), verify_fr_at(ref, 0, 1, t)
                assert abs(obs.off_block_norm - ref_obs.off_block_norm) < 1e-12, label
                assert abs(obs.cross_amplitude - ref_obs.cross_amplitude) < 1e-12, label
                assert np.abs(obs.block - ref_obs.block).max() < 1e-12, label
            for pair in ((0, 1), (1, 0)):
                # a fresh copy each time: one call builds no gate table
                cert = json.dumps(certify_fr(D, *pair).to_json_dict())
                assert cert == json.dumps(certify_fr(replace(ref), *pair).to_json_dict()), label

    def test_quotient_matrix_is_the_symmetrized_quotient(self):
        """The counts of every split are those of the refined partition,
        which is equitable, and the vectors diagonalize its symmetrized
        quotient B with the eigenvalues grouped by the bounds."""
        for a, k, c in [(1, 1, 1), (3, 2, 6), (16, 36, 37), (7, 1, 40),
                        (1, 2, 1)]:
            X, n = build_stellar(a, k, c), a + k + c + 2
            for rows in ([0, 1], [1], [0, 2], [2, n - 1], [n - 1, 3, 2],
                         list(range(n))):
                cells = split_partition(a, k, c, rows)
                D = stellar_decompose(a, k, c)
                (q, cols), C = D._quotient(rows), D._cell_counts(rows)
                equitable, counts = is_equitable(X, cells)
                assert equitable and np.array_equal(C, counts)
                B = symmetrized_quotient(X, cells)
                assert np.array_equal(np.sqrt((C * C.T).astype(float)), B)
                sizes = np.array([len(cell) for cell in cells])
                W = q.vectors * np.sqrt(sizes)[:, None]
                assert np.abs(W.T @ W - np.eye(len(cells))).max() < 1e-12
                thetas = np.repeat(stellar_decompose(a, k, c).eigenvalues,
                                   np.diff(q.bounds))
                residuals = np.linalg.norm(B @ W - W * thetas, axis=0)
                assert (residuals <= 1e-14 * own_scale(thetas)).all()
                assert cols == [cells.index({v}) for v in rows]
                assert q.centers == (cells.index({0}), cells.index({1}))

    def test_center_queries_never_solve_dense(self, monkeypatch):
        """No np.linalg call of any size runs on a fused star: its
        eigenvalues and its quotients' vectors are all closed forms."""
        from revival_lab.cli import main

        def refused(name):
            def solve(*args, **kwargs):
                raise AssertionError(f"np.linalg.{name} on a fused star")
            return solve

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)):
                monkeypatch.setattr(np.linalg, name, refused(name))
        small = stellar_decompose(3, 2, 6)
        assert certify_fr(small, 0, 2).verdict == "none"  # the gate table
        assert "gates" in small.memo and (3, 2, 6) in small.memo
        report = detect_subset_transfer(small, {0, 2}, {1, 5}, 1.0)
        # two edges, whose complements are not cospectral
        assert report.induced_cospectral and not report.complement_cospectral
        assert support_graph(small, {0, 2}).loops
        D = stellar_decompose(400, 800, 1200)
        assert analyze(400, 800, 1200).verdict == "no-FR"
        assert certify_fr(D, 0, 1).verdict == "none"
        verify_fr_at(D, 0, 1, 1.7)
        assert certify_fr(stellar_decompose(16, 36, 37), 0, 1).is_proper
        assert polygamy_witness(16, 36, 37, 2).is_polygamous
        out = io.StringIO()
        assert main(["analyze", "--stellar", "400,800,1200", "--pair", "0", "1"],
                    out) == 1
        assert json.loads(out.getvalue())["certificate"]["pair"] == [0, 1]
        # other pairs split their twins off the cells: at most seven
        assert certify_fr(D, 0, 2).verdict == "none"
        verify_fr_at(D, 2, D.n - 1, 1.7)
        assert (1, 0, 1) in D.memo

    def test_vertex_out_of_range(self):
        """A vertex past the n vertices, or a negative one, is refused at
        the row factors with an IndexError, over a fused star's cells and
        over dense factors alike, where numpy would read -1 from the end."""
        star = stellar_decompose(3, 2, 6)
        dense = decompose(build_stellar(3, 2, 6))
        for D, pair in [(star, (0, 13)), (star, (2, 20)), (star, (-1, 1)),
                        (dense, (0, 13)), (dense, (-1, 1)),
                        (decompose(build_path(4)), (-1, 0))]:
            with pytest.raises(IndexError, match="out of range"):
                verify_fr_at(D, *pair, 1.0)
            with pytest.raises(IndexError, match="out of range"):
                D.projector_rows(list(pair))

    def test_one_build_per_split(self, monkeypatch):
        """A quotient depends only on how many twins it splits off the
        cells a, k and c, and is built once for them: the ordered pairs of
        X(20, 30, 40), past the table guard, build at most nine (the
        centers read none), each kept in memo; a subset report builds one
        for both its rows and its counts, and the gate table one."""
        from revival_lab import revival, spectral
        builds = []
        real = spectral._stellar_cells

        def counting(an, split):
            builds.append(split)
            return real(an, split)
        monkeypatch.setattr(spectral, "_stellar_cells", counting)
        D = stellar_decompose(20, 30, 40)
        assert D.n ** 2 * D.m > revival._TABLE_MAX_ENTRIES
        for a, b in itertools.permutations(range(D.n), 2):
            certify_fr(D, a, b)
        assert len(set(builds)) == len(builds) <= 9
        assert set(D.memo) == set(builds)
        builds.clear()
        detect_subset_transfer(stellar_decompose(1, 100000, 2), {0, 2},
                               {1, 5}, 1.0)
        assert builds == [(1, 1, 0)]
        builds.clear()
        D = stellar_decompose(3, 2, 6)
        certify_fr(D, 0, 2)
        assert builds == [(3, 2, 6)] and "gates" in D.memo


class TestClosedFormQuotient:
    """The quotient's vectors are closed forms of the triple: orthonormal
    eigenvectors of B for every split, accurate entry by entry on triples
    whose cells differ by many orders of magnitude, and exact enough that
    the centers read their exact revival."""

    EXTREME = [(1, 1, 10**9), (10**9, 1, 1), (1, 10**15, 2),
               (10**9, 10**15, 1), (1, 10**15, 10**9), (3, 10**15, 10**9),
               (24999989999995, 20000010, 25000020000010)]

    @staticmethod
    def build(a, k, c, split):
        from revival_lab.spectral import _stellar_cells
        return _stellar_cells(analyze(a, k, c), split)

    def test_every_split_of_small_triples(self):
        """Every split of every a, k, c <= 6: W = vectors * sqrt(sizes) is
        orthonormal, and each column meets B w = theta w within 1e-14 of
        its own theta (1e-14 for the eigenvalue 0)."""
        worst = 0.0
        for a, k, c in itertools.product(range(1, 7), repeat=3):
            thetas = stellar_decompose(a, k, c).eigenvalues
            for split in itertools.product(range(a + 1), range(k + 1),
                                           range(c + 1)):
                q = self.build(a, k, c, split)
                W = q.vectors * np.sqrt(np.array(q.sizes, float))[:, None]
                assert np.abs(W.T @ W - np.eye(len(W))).max() <= 1e-14
                theta = np.repeat(thetas, np.diff(q.bounds))
                ratio = eigen_residuals(q, theta) / own_scale(theta)
                worst = max(worst, ratio.max())
        assert worst <= 1e-14

    def test_extreme_triples(self):
        """Cells of 1 to 10^15 twins. Every entry of the columns of
        +-theta5, +-theta3 and the cross vector of 0 is within 1e-14 of its
        60-digit value, relatively: no closed form cancels. W is
        orthonormal within 1e-14. Each residual ||B w - theta w|| is within
        1e-14 |theta| plus four ulps of ||B|| = theta5, the floor that
        rounding w to doubles sets: the 60-digit theta3 vector of
        X(1, 10^15, 2), rounded, has a residual of 3.7e-10 theta3, as rows
        of B of size sqrt(k) meet its centers' rounding."""
        for a, k, c in self.EXTREME:
            exact = exact_kind_rows(a, k, c)
            thetas = stellar_decompose(a, k, c).eigenvalues
            for split in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                          (1, 1, 1), (1, min(k, 3), 1),
                          (min(a, 4), min(k, 4), min(c, 4))]:
                q = self.build(a, k, c, split)
                m = len(q.sizes)
                cols = [0, 1, 2, m - 2, m - 1]
                for row, kind in zip(q.vectors[:, cols], q.kinds):
                    for got, want in zip(row.tolist(), exact[kind]):
                        assert abs(Decimal(got) - want) <= \
                            Decimal("1e-14") * abs(want), (a, k, c, split)
                W = q.vectors * np.sqrt(np.array(q.sizes, float))[:, None]
                assert np.abs(W.T @ W - np.eye(m)).max() <= 1e-14
                theta = np.repeat(thetas, np.diff(q.bounds))
                bound = 1e-14 * abs(theta) + 4 * 2.0 ** -52 * thetas[0]
                assert (eigen_residuals(q, theta) <= bound).all(), (a, k, c)

    def test_centers_read_the_exact_revival(self):
        """At tau_min the centers' cross amplitude is 2k/sqrt(sigma),
        rational on a proper triple, within 1e-14, and nothing leaks off
        the block, on every proper triple with a, k, c <= 40 and on the
        polygamy triples (5, r): at r = 10^6 an eigh of the five cells read
        0.8000000000759749 for 0.8."""
        triples = [t for t in itertools.product(range(1, 41), repeat=3)
                   if analyze(*t).verdict == "proper-FR"]
        triples += [generate_polygamy_triple(5, r) for r in (1, 2, 10**3,
                                                             10**6)]
        for a, k, c in triples:
            an = analyze(a, k, c)
            root = math.isqrt(an.sigma)
            assert root * root == an.sigma
            obs = verify_fr_at(stellar_decompose(a, k, c), 0, 1, an.tau_min)
            assert abs(obs.cross_amplitude - 2 * k / root) <= 1e-14, (a, k, c)
            assert obs.off_block_norm < 1e-14, (a, k, c)


class TestBipartiteSolver:
    """A bipartite graph's decomposition from the SVD of its half-size
    block agrees with eigh of A. The solver is forced at every size, so the
    small graphs below the crossover check it too."""

    @staticmethod
    def cases(parity_cases):
        import networkx as nx

        def graph(g):
            g = nx.convert_node_labels_to_integers(g)
            return Graph.from_edges(g.number_of_nodes(), list(g.edges()))

        out = []
        for name, D, _, _ in parity_cases:
            if nx.is_bipartite(nx.Graph(list(D.graph.edges))):
                out.append((name, D.graph))
        for i, g in enumerate(nx.graph_atlas_g()[1:], start=1):
            if nx.is_connected(g) and nx.is_bipartite(g):
                out.append((f"atlas {i}", graph(g)))
        twice = nx.disjoint_union(nx.path_graph(30), nx.path_graph(30))
        out += [("K30,40", graph(nx.complete_bipartite_graph(30, 40))),
                ("K1,60", build_star(60)),
                ("Q6", graph(nx.hypercube_graph(6))),
                ("2 P30", graph(twice)),
                ("edgeless 50", Graph.from_edges(50, []))]
        return out

    @staticmethod
    def solve(X, monkeypatch):
        """(the SVD decomposition of X, the eigh decomposition of A)."""
        from revival_lab import spectral

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh on the SVD path")

        with monkeypatch.context() as m:
            m.setattr(spectral, "_SVD_MIN_VERTICES", X.n + 1)
            ref = decompose(X)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_SVD_MIN_VERTICES", 1)
            m.setattr(np.linalg, "eigh", no_eigh)
            D = decompose(X)
        return D, ref

    def test_agrees_with_eigh(self, parity_cases, monkeypatch):
        cases = self.cases(parity_cases)
        assert len(cases) > 150
        for name, X in cases:
            D, ref = self.solve(X, monkeypatch)
            assert D.bounds == ref.bounds, name
            assert D.connected == ref.connected, name
            radius = max(1.0, -ref.eigenvalues[-1], ref.eigenvalues[0])
            gap = np.subtract(D.eigenvalues, ref.eigenvalues)
            assert np.abs(gap).max() <= 1e-12 * radius, name
            mirror = tuple(-x for x in reversed(D.eigenvalues))
            assert D.eigenvalues == mirror, name
            V = D.vectors
            assert np.abs(V.T @ V - np.eye(D.n)).max() < 1e-12, name
            for P, Q in zip(projectors(D), projectors(ref)):
                assert np.abs(P - Q).max() < 1e-12, name
            if not D.connected:
                continue
            for a, b in itertools.combinations(range(D.n), 2):
                got, want = certify_fr(D, a, b), certify_fr(ref, a, b)
                assert (got.verdict, got.delta, got.g) == \
                    (want.verdict, want.delta, want.g), (name, a, b)
                if want.tau_min is not None:
                    assert abs(got.tau_min - want.tau_min) <= \
                        1e-12 * want.tau_min, (name, a, b)

    def test_solver_choice(self, monkeypatch):
        from revival_lab import spectral
        calls = []

        def recording(name):
            real = getattr(np.linalg, name)

            def solve(A, *args, **kwargs):
                calls.append(name)
                return real(A, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, solve)

        recording("eigh")
        recording("svd")
        n = spectral._SVD_MIN_VERTICES
        odd = n | 1
        decompose(build_path(n - 1))
        decompose(build_path(n))
        cycle = [(i, (i + 1) % odd) for i in range(odd)]
        decompose(Graph.from_edges(odd, cycle))
        monkeypatch.setattr(spectral, "_SVD_MIN_VERTICES", n + 1)
        decompose(build_path(n))
        # below the crossover and for odd cycles, eigh stays
        assert calls == ["eigh", "svd", "eigh", "eigh"]
