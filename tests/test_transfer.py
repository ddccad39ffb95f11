import itertools
import math

import numpy as np
import pytest

from referees import (average_state_equality, build_path, cartesian_product,
                      induced_subgraph, induced_transfer_check, is_periodic,
                      lifted_product_rows, lifted_subset_transfer,
                      projectors, state_matrix, transition_matrix)
from revival_lab.exact import charpoly_int
from revival_lab.graphs import Graph, build_stellar
from revival_lab.revival import _fr_observation, certify_fr, verify_fr_at
from revival_lab.spectral import (char_poly_suite, decompose,
                                  stellar_decompose)
from revival_lab.states import subset_state
from revival_lab.stellar import generate_polygamy_triple
from revival_lab.transfer import (ZERO_BLOCKS, detect_subset_transfer,
                                  induced_cospectrality, polygamy_witness)


@pytest.fixture(scope="module")
def ladder():
    return decompose(cartesian_product(build_path(2), build_path(3)))


ROOT2 = math.sqrt(2)


class TestDetectSubsetTransfer:
    def test_periodicity_case(self):
        D = decompose(build_path(2))
        report = detect_subset_transfer(D, {0}, {0}, math.pi)
        assert report.is_transfer

    def test_ladder_corner_pair(self, ladder):
        report = detect_subset_transfer(ladder, {0, 3}, {2, 5}, math.pi / ROOT2)
        assert report.residual < 1e-9
        assert all(report.block_zero_pattern)
        assert report.induced_cospectral and report.complement_cospectral

    def test_ladder_sides(self, ladder):
        report = detect_subset_transfer(ladder, {0, 1, 2}, {3, 4, 5}, math.pi / 2)
        assert report.is_transfer
        assert report.induced_cospectral and report.complement_cospectral

    def test_middle_pair_fr_simultaneously(self, ladder):
        cert = certify_fr(ladder, 1, 4)
        assert cert.verdict == "proper-FR"
        assert cert.tau_min == pytest.approx(math.pi / ROOT2)
        assert is_periodic(ladder, subset_state({1, 4}, 6), math.pi / ROOT2)

    def test_no_transfer_at_generic_time(self, ladder):
        report = detect_subset_transfer(ladder, {0, 3}, {2, 5}, 1.0)
        assert not report.is_transfer
        assert not all(report.block_zero_pattern)

    def test_symmetry_and_complement(self, ladder):
        t = math.pi / ROOT2
        back = detect_subset_transfer(ladder, {2, 5}, {0, 3}, t)
        comp = detect_subset_transfer(ladder, {1, 2, 4, 5}, {0, 1, 3, 4}, t)
        assert back.residual < 1e-8 and comp.residual < 1e-8

    def test_periodic_at_doubled_time(self, ladder):
        t = math.pi / ROOT2
        assert is_periodic(ladder, subset_state({0, 3}, 6), 2 * t)
        assert is_periodic(ladder, subset_state({2, 5}, 6), 2 * t)

    def test_rejects_empty(self, ladder):
        with pytest.raises(ValueError):
            detect_subset_transfer(ladder, set(), {1}, 1.0)

    def test_fused_star_reads_its_cells(self, monkeypatch):
        """The rows of U(t) on the centers and the induced subgraphs' cell
        counts come from the 5-cell quotient: no eigen-solve of size
        n = 13."""
        D = stellar_decompose(3, 2, 6)
        real = np.linalg.eigh

        def small_only(A, *args, **kwargs):
            if max(np.shape(A)) > 5:
                raise AssertionError(f"eigh of size {np.shape(A)}")
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", small_only)
        doc = detect_subset_transfer(D, {0}, {1}, math.pi).to_json_dict()
        assert doc.pop("residual") == pytest.approx(0.48, abs=1e-12)
        assert doc == {"S": [0], "T": [1], "t": math.pi,
                       "block_zero_pattern": [False, True, True, True,
                                              True, True, False, True],
                       "induced_cospectral": True,
                       "complement_cospectral": False, "is_transfer": False}


    def test_fused_star_cells_match_the_lifted_rows(self):
        """Read over the quotient's cells, the residual and the zero blocks
        of every X(a, k, c) with a, k, c <= 6 equal those read from the
        rows lifted to all n vertices at three times: bit for bit for S, T
        within the centers, and the residual within 1e-14 (the product
        W^T W has fewer columns over the cells, and BLAS may round its sums
        otherwise) with twins split off their cells, for a, k, c <= 3."""
        for a, k, c in itertools.product(range(1, 7), repeat=3):
            D = stellar_decompose(a, k, c)
            sides = [{0}, {1}, {0, 1}]
            if max(a, k, c) <= 3:
                sides += [{2}, {1, D.n - 1}, {2 + a, 2}]
            for S, T in itertools.product(sides, repeat=2):
                for t in (0.4, math.pi / 2, math.pi):
                    report = detect_subset_transfer(D, S, T, t)
                    residual, pattern = lifted_subset_transfer(D, S, T, t)
                    if S | T <= {0, 1}:
                        assert report.residual.hex() == residual.hex(), \
                            (a, k, c)
                    assert abs(report.residual - residual) < 1e-14, (a, k, c)
                    assert report.block_zero_pattern == pattern, (a, k, c)

    def test_fused_star_cospectrality_from_cell_counts(self):
        """The exact flags read from the cell counts equal those of the
        induced subgraphs of the graph, for every S, T below on every
        X(a, k, c) with a, k, c <= 4; within the centers they are also the
        closed forms of char_poly_suite."""
        for a, k, c in itertools.product(range(1, 5), repeat=3):
            D, X = stellar_decompose(a, k, c), build_stellar(a, k, c)
            n = D.n
            sides = [{0}, {1}, {0, 1}, {2}, {n - 1}, {0, 2}, {1, n - 1},
                     {2, 3}, {2 + a, n - 1}, {0, 1, 2}]
            for S, T in itertools.product(sides, repeat=2):
                report = detect_subset_transfer(D, S, T, 1.0)
                expected = induced_cospectrality(X, S, T)
                assert (report.induced_cospectral,
                        report.complement_cospectral) == expected, \
                    (a, k, c, S, T)
            suite = char_poly_suite(a, k, c)
            minus = {0: suite["phi_minus_0"], 1: suite["phi_minus_1"]}
            for s, t in itertools.product((0, 1), repeat=2):
                report = detect_subset_transfer(D, {s}, {t}, 1.0)
                assert report.induced_cospectral
                assert report.complement_cospectral == (minus[s] == minus[t])

    def test_fused_star_counts_past_int64(self):
        """Cells of 10^20 twins: the counts stay exact integers, and the
        complements of the centers are cospectral exactly when a = c, also
        where a and c round to one float."""
        for a, k, c in [(10**20, 10**20, 10**20), (10**20, 10**20, 3 * 10**20),
                        (2**63, 2**63, 2**63 - 1)]:
            report = detect_subset_transfer(stellar_decompose(a, k, c), {0},
                                            {1}, 1.0)
            assert report.induced_cospectral
            assert report.complement_cospectral == (a == c), (a, k, c)


class TestInducedCospectrality:
    def test_equal_sets(self):
        X = build_path(4)
        assert induced_cospectrality(X, {0, 1}, {0, 1}) == (True, True)

    def test_ladder_pairs(self):
        Z = cartesian_product(build_path(2), build_path(3))
        assert induced_cospectrality(Z, {0, 3}, {2, 5}) == (True, True)
        assert induced_cospectrality(Z, {0, 1, 2}, {3, 4, 5}) == (True, True)

    def test_size_mismatch(self):
        X = build_path(4)
        first, _ = induced_cospectrality(X, {0}, {0, 1})
        assert not first

    @pytest.mark.parametrize("S,T", [({-1}, {0}), ({0, 1}, {2, 4})])
    def test_vertex_out_of_range(self, S, T):
        with pytest.raises(ValueError, match="out of range"):
            induced_cospectrality(build_path(4), S, T)

    def test_one_side_only(self):
        """One stacked pass serves S, T and both complements, and no set's
        polynomial leaks into another's verdict."""
        # P4: {0, 1} and {1, 2} both induce an edge, but their complements
        # are an edge and two isolated vertices
        assert induced_cospectrality(build_path(4), {0, 1}, {1, 2}) \
            == (True, False)
        # K_{1,3} with center 0: a path P3 against three isolated leaves,
        # while both complements are one vertex
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert induced_cospectrality(star, {0, 1, 2}, {1, 2, 3}) \
            == (False, True)

    def test_random_graphs_match_per_set_charpolys(self):
        """Seeded G(12, 0.4) graphs and set pairs of each size: the verdicts
        are those of charpoly_int run on each induced subgraph alone, and
        all four pairs of verdicts occur."""
        rng = np.random.default_rng(12)
        everyone = frozenset(range(12))

        def poly(X, vertices):
            if not vertices:
                return [1]
            sub, _ = induced_subgraph(X, vertices)
            return charpoly_int(sub.adjacency().astype(int).tolist())

        seen = set()
        for trial in range(30):
            M = np.triu(rng.random((12, 12)) < 0.4, 1)
            X = Graph.from_edges(12, zip(*M.nonzero()))
            size = 1 + trial % 11
            S = frozenset(rng.choice(12, size, replace=False).tolist())
            T = frozenset(rng.choice(12, size, replace=False).tolist())
            if trial % 5 == 0:
                T = everyone - S if size == 6 else S
            expected = (poly(X, S) == poly(X, T),
                        poly(X, everyone - S) == poly(X, everyone - T))
            assert induced_cospectrality(X, S, T) == expected, (trial, S, T)
            seen.add(expected)
        assert len(seen) == 4


class TestAverageStateEquality:
    def test_identical_states(self):
        D = decompose(build_path(3))
        rho = subset_state({0}, 3)
        assert average_state_equality(D, rho, rho)

    def test_strongly_cospectral_endpoints(self):
        D = decompose(build_path(2))
        assert average_state_equality(D, subset_state({0}, 2),
                                      subset_state({1}, 2))

    def test_non_cospectral_centers_differ(self):
        D = decompose(build_stellar(3, 2, 6))
        assert not average_state_equality(D, subset_state({0}, D.n),
                                          subset_state({1}, D.n))

    def test_transfer_implies_average_equality(self):
        D = decompose(cartesian_product(build_path(2), build_path(3)))
        assert average_state_equality(D, subset_state({0, 3}, 6),
                                      subset_state({2, 5}, 6))


class TestProjectorParity:
    def test_detect_subset_transfer(self, parity_cases):
        """The residual and zero blocks read from the rows of U(t) on S | T
        equal those of the whole U(t) = sum_r exp(i t theta_r) E_r."""
        t, tol = 1.3, 1e-8
        for name, D, E, pairs in parity_cases:
            n = D.n
            U = sum(np.exp(1j * t * th) * P for th, P in zip(D.eigenvalues, E))
            half = set(range(n // 2)) or {0}
            sets = [({a}, {b}) for a, b in pairs[:1]] + \
                [(half, set(range(n)) - half or {0}), ({0, n - 1}, {n - 1})]
            for S, T in sets:
                DS = np.diag([float(v in S) for v in range(n)])
                DT = np.diag([float(v in T) for v in range(n)])
                groups = [sorted(S - T), sorted(S & T), sorted(T - S),
                          sorted(set(range(n)) - S - T)]
                pattern = tuple(
                    not groups[i] or not groups[j]
                    or bool(abs(U[np.ix_(groups[i], groups[j])]).max() < tol)
                    for i, j in ZERO_BLOCKS)
                report = detect_subset_transfer(D, S, T, t)
                residual = np.abs(U @ DS @ U.conj().T - DT).max()
                assert abs(report.residual - residual) < 1e-12, (name, S, T)
                assert report.block_zero_pattern == pattern, (name, S, T)


class TestInducedTransferCheck:
    def test_identity_states(self):
        D = decompose(build_path(3))
        per_r, composite = induced_transfer_check(D, np.eye(3), np.eye(3), 0.7)
        assert all(per_r) and composite

    def test_ladder_pair(self):
        D = decompose(cartesian_product(build_path(2), build_path(3)))
        per_r, composite = induced_transfer_check(
            D, subset_state({0, 3}, 6), subset_state({2, 5}, 6),
            math.pi / ROOT2)
        assert all(per_r) and composite

    def test_mismatched_pair_fails(self):
        D = decompose(build_path(4))
        per_r, composite = induced_transfer_check(
            D, subset_state({0}, 4), subset_state({2}, 4), 1.0)
        assert not all(per_r) and not composite

    def test_equivalence_with_detection(self):
        # per-eigenvalue transfer for all r iff subset transfer
        D = decompose(cartesian_product(build_path(2), build_path(3)))
        for (S, T, t) in [({0, 3}, {2, 5}, math.pi / ROOT2),
                          ({0, 1, 2}, {3, 4, 5}, math.pi / 2),
                          ({0, 3}, {2, 5}, 1.3)]:
            report = detect_subset_transfer(D, S, T, t)
            per_r, _ = induced_transfer_check(
                D, subset_state(S, 6), subset_state(T, 6), t)
            assert report.is_transfer == all(per_r)

    def test_periodicity_heredity(self):
        # D_S periodic at t implies each D_S E_r D_S periodic at t
        D = decompose(cartesian_product(build_path(2), build_path(3)))
        t = 2 * math.pi / ROOT2
        DS = state_matrix({0, 3}, 6)
        U = transition_matrix(D, t)
        assert is_periodic(D, DS, t)
        for E in projectors(D):
            M = DS @ E @ DS
            assert np.abs(U @ M - M @ U).max() < 1e-8


class TestPolygamyWitness:
    @pytest.mark.parametrize("a,k,c,ell", [(16, 36, 37, 2), (10, 30, 55, 2),
                                           (27, 18, 54, 1)])
    def test_paper_families(self, a, k, c, ell):
        report = polygamy_witness(a, k, c, ell)
        assert report.is_polygamous
        assert report.twin_time == pytest.approx(2 * math.pi / (2 * ell + 1))
        assert report.center_time == pytest.approx(math.pi)
        assert report.twin_observation.off_block_norm < 1e-7
        assert report.center_observation.off_block_norm < 1e-7
        # overlapping pairs share vertex (0, 0) = index 0
        assert set(report.twin_pair) & set(report.center_pair) == {0}

    @pytest.mark.parametrize("a,k,c,ell", [(16, 36, 37, 2), (10, 30, 55, 2),
                                           (27, 18, 54, 1)])
    def test_matches_dense_product(self, a, k, c, ell):
        """Against verify_fr_at on a dense decomposition of K2 x X."""
        report = polygamy_witness(a, k, c, ell)
        X = build_stellar(a, k, c)
        D = decompose(cartesian_product(build_path(2), X))
        for pair, t, obs in [(report.twin_pair, report.twin_time,
                              report.twin_observation),
                             (report.center_pair, report.center_time,
                              report.center_observation)]:
            ref = verify_fr_at(D, *pair, t)
            assert abs(obs.off_block_norm - ref.off_block_norm) < 1e-12
            assert abs(obs.cross_amplitude - ref.cross_amplitude) < 1e-12
            assert np.abs(obs.block - ref.block).max() < 1e-12
        assert report.twin_pair == (0, X.n) and report.center_pair == (0, 1)

    def test_cells_match_the_lifted_rows(self):
        """Read over the cells of K2 times the quotient, both observations
        equal those read from the rows lifted to all 2n vertices, bit for
        bit, on the polygamy triples of p = 5, 13, 17 and 29 with r <= 3 and
        n <= 3,000."""
        checked = 0
        for p, r in itertools.product((5, 13, 17, 29), (1, 2, 3)):
            a, k, c = generate_polygamy_triple(p, r)
            n = a + k + c + 2
            if n > 3000:
                continue
            report = polygamy_witness(a, k, c, (p - 1) // 2)
            D = stellar_decompose(a, k, c)
            for vertices, pair, t, obs in [
                    ([(0, 0), (1, 0)], [0, n], report.twin_time,
                     report.twin_observation),
                    ([(0, 0), (0, 1)], [0, 1], report.center_time,
                     report.center_observation)]:
                ref = _fr_observation(lifted_product_rows(D, vertices, t),
                                      pair, t)
                assert (obs.t, obs.off_block_norm, obs.cross_amplitude) \
                    == (ref.t, ref.off_block_norm, ref.cross_amplitude)
                assert obs.block.tobytes() == ref.block.tobytes()
            assert report.is_polygamous
            checked += 1
        assert checked == 6

    def test_huge_triple_within_one_gib(self):
        """The p = 5, r = 10^6 triple has n about 5 10^13: over the cells
        the witness answers in a child process capped at 1 GiB of address
        space, where rows over the vertices would take petabytes."""
        import os
        import resource
        import subprocess
        import sys
        from pathlib import Path

        import revival_lab

        def capped():
            cap = 2**30
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        a, k, c = generate_polygamy_triple(5, 10**6)
        src = str(Path(revival_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "revival_lab.cli", "product",
             "--stellar", f"{a},{k},{c}", "--ell", "2"],
            env=env, preexec_fn=capped, capture_output=True, text=True,
            timeout=120)
        assert "Traceback" not in done.stderr
        assert done.returncode == 0, done.stderr
        assert '"is_polygamous": true' in done.stdout

    def test_rejects_wrong_tau(self):
        with pytest.raises(ValueError, match="not pi/3"):
            polygamy_witness(3, 2, 6, 1)  # tau_min = pi, not pi/3

    def test_rejects_no_fr(self):
        with pytest.raises(ValueError, match="no proper FR"):
            polygamy_witness(1, 2, 3, 1)
        # rejected before the exact data, whose non-square sigma = 4e30 + 1
        # would need its square-free part
        with pytest.raises(ValueError, match="no proper FR"):
            polygamy_witness(1, 10**15, 2, 1)
        with pytest.raises(ValueError, match="ell must be a positive"):
            polygamy_witness(16, 36, 37, 0)

    def test_one_analyze_call(self, monkeypatch):
        from revival_lab import spectral, stellar, transfer
        real, calls = stellar.analyze, []

        def counting(*args):
            calls.append(args)
            return real(*args)
        for module in (spectral, stellar, transfer):
            monkeypatch.setattr(module, "analyze", counting)
        for a, k, c, ell in [(16, 36, 37, 2), (27, 18, 54, 1)]:
            calls.clear()
            assert polygamy_witness(a, k, c, ell).is_polygamous
            assert calls == [(a, k, c)]
