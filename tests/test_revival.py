import gc
import inspect
import itertools
import json
import math
import time
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from referees import (build_path, build_star, cartesian_product, components,
                      double_star_tree, is_complete_with_loops, lift,
                      projectors, transition_rows)
from revival_lab import revival
from revival_lab.graphs import Graph, build_stellar
from revival_lab.revival import (RevivalCertificate, _fr_observation,
                                 _gate_block, certify_fr, verify_fr_at)
from revival_lab.spectral import decompose, stellar_decompose
from revival_lab.states import subset_state, support_graph
from revival_lab.stellar import analyze


class TestCospectralParallel:
    """The certificate's parallel and cospectral gates."""

    def test_stellar_centers_not_cospectral(self):
        cert = certify_fr(stellar_decompose(3, 2, 6), 0, 1)
        assert not cert.cospectral and cert.parallel

    def test_k2_strongly_cospectral(self):
        cert = certify_fr(decompose(build_path(2)), 0, 1)
        assert cert.cospectral and cert.parallel

    def test_p3_ends_parallel(self):
        cert = certify_fr(decompose(build_path(3)), 0, 2)
        assert cert.cospectral and cert.parallel

    def test_star_leaves_not_parallel(self):
        # repeated zero eigenvalue: the leaf pair block has rank 2
        assert not certify_fr(decompose(build_star(3)), 1, 2).parallel

    def test_exact_centers_cospectral_iff_a_equals_c(self):
        # at sigma = 4 * 10^30 + 1 the diagonal entries of the centers
        # differ by (a - c)/(2 sqrt(sigma)), about 2.5e-16: below float
        # resolution of entries near 1/4, so only the exact gamma sees it
        assert not certify_fr(stellar_decompose(1, 10**15, 2), 0, 1).cospectral
        assert certify_fr(stellar_decompose(2, 10**15, 2), 0, 1).cospectral
        for a, k, c in itertools.product((1, 2, 5, 12), repeat=3):
            D = stellar_decompose(a, k, c)
            for pair in ((0, 1), (1, 0)):
                assert certify_fr(D, *pair).cospectral == (a == c), (a, k, c)


class TestCospectralIsGammaZero:
    """cert.cospectral is read from gamma: a and b are cospectral exactly
    when every (E_r)_aa - (E_r)_bb is 0, which is the gamma = 0 case of
    (E_r)_aa - (E_r)_bb = gamma (E_r)_ab. The referee reads the diagonals
    of the dense projectors: cospectral when max_r |(E_r)_aa - (E_r)_bb|
    < 1e-9. Both orders of every pair are checked."""

    @staticmethod
    def outcomes(D, pairs=None, dense=None):
        """The set of cospectral values seen, each equal to the referee's,
        read from the projectors of D or of its ``dense`` referee."""
        diag = np.array([np.diagonal(E) for E in projectors(dense or D)])
        seen = set()
        for a, b in pairs or itertools.permutations(range(D.n), 2):
            expected = bool(np.abs(diag[:, a] - diag[:, b]).max() < 1e-9)
            assert certify_fr(D, a, b).cospectral == expected, (D.n, a, b)
            seen.add(expected)
        return seen

    def test_seeded_random_graphs(self):
        rng = np.random.default_rng(27)
        seen, graphs = set(), 0
        while graphs < 150:
            n = int(rng.integers(4, 13))
            M = np.triu(rng.random((n, n)) < 0.4, 1)
            D = decompose(Graph.from_edges(n, zip(*M.nonzero())))
            if D.connected:
                seen |= self.outcomes(D)
                graphs += 1
        assert seen == {False, True}

    def test_trees(self):
        import networkx as nx
        seen = set()
        for n in range(4, 11):
            for tree in nx.nonisomorphic_trees(n):
                seen |= self.outcomes(decompose(Graph.from_edges(n, tree.edges)))
        assert seen == {False, True}

    def test_star_leaves_cospectral_not_parallel(self):
        D = decompose(build_star(3))
        assert self.outcomes(D, [(1, 2), (2, 1)]) == {True}
        assert not certify_fr(D, 1, 2).parallel

    def test_fused_star_centers(self):
        """X(3, 2, 6): the exact gamma of the centers and the float ratio
        of a dense decomposition, both -3/2, so not cospectral; every other
        pair, read over the cells, against the dense projectors."""
        dense = decompose(build_stellar(3, 2, 6))
        assert self.outcomes(dense, [(0, 1), (1, 0)]) == {False}
        D = stellar_decompose(3, 2, 6)
        assert self.outcomes(D, [(0, 1), (1, 0)], dense) == {False}
        assert self.outcomes(D, None, dense) == {False, True}


class TestFractionalCospectrality:
    """The certificate's gamma."""

    def test_stellar_gamma_exact(self):
        D = stellar_decompose(3, 2, 6)
        assert certify_fr(D, 0, 1).gamma == Fraction(-3, 2)
        assert certify_fr(D, 1, 0).gamma == Fraction(3, 2)

    def test_numeric_agrees_with_exact(self):
        for (a, k, c) in [(3, 2, 6), (2, 6, 11), (6, 4, 12)]:
            X = build_stellar(a, k, c)
            D = decompose(X)  # numeric path, no exact backing
            assert certify_fr(D, 0, 1).gamma == Fraction(a - c, k)

    def test_cospectral_pair_gives_zero(self):
        D = decompose(build_path(2))
        assert certify_fr(D, 0, 1).gamma == 0

    def test_inconsistent_pair_gives_none(self):
        D = decompose(build_path(4))
        assert certify_fr(D, 0, 1).gamma is None


class TestCertifyFR:
    def test_3_2_6_full_certificate(self):
        D = stellar_decompose(3, 2, 6)
        cert = certify_fr(D, 0, 1)
        assert cert.verdict == "proper-FR"
        assert cert.delta == 1 and cert.g == 2
        assert cert.tau_min == pytest.approx(math.pi)
        assert sorted(cert.c_plus) == pytest.approx([-3, 3])
        assert sorted(cert.c_minus) == pytest.approx([-2, 2])
        assert not cert.cospectral
        assert cert.gamma == Fraction(-3, 2)
        assert cert.two_adic == (1, 0)

    def test_k2_pst(self):
        D = decompose(build_path(2))
        cert = certify_fr(D, 0, 1)
        assert cert.verdict == "proper-PST"
        assert cert.tau_min == pytest.approx(math.pi / 2)

    def test_improper_only(self):
        for (a, k, c) in [(1, 4, 1), (1, 16, 25)]:
            D = stellar_decompose(a, k, c)
            cert = certify_fr(D, 0, 1)
            assert cert.verdict == "improper-only"

    def test_no_fr_on_p4_adjacent(self):
        D = decompose(build_path(4))
        assert certify_fr(D, 0, 1).verdict == "none"

    def test_double_star_non_integer_eigenvalues(self):
        # eigenvalues (1 +- sqrt(4a+1))/2 are not quadratic integers, but
        # within-class differences are; the certifier must accept these
        X, tau = double_star_tree(3)
        D = decompose(X)
        cert = certify_fr(D, 0, 1)
        assert cert.verdict == "proper-FR"
        assert cert.tau_min == pytest.approx(tau)
        assert cert.cospectral and cert.gamma == 0

    def test_rejects_disconnected(self):
        X = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            certify_fr(decompose(X), 0, 2)

    def test_rejects_equal_pair(self):
        with pytest.raises(ValueError):
            certify_fr(decompose(build_path(2)), 0, 0)

    def test_rejects_pair_out_of_range(self):
        # the table is read at a n + b: (0, 4) on P4 would read (1, 0)
        D = decompose(build_path(4))
        for pair in ((0, 4), (0, 4), (4, 0), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="out of range"):
                certify_fr(D, *pair)
        certify_fr(D, 0, 1)  # builds the table
        assert "gates" in D.memo
        for pair in ((0, 4), (3, 4), (-1, 2)):
            with pytest.raises(ValueError, match="out of range"):
                certify_fr(D, *pair)

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        calls = []
        real = revival.verify_fr_at

        def counting(*args):
            calls.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(revival, "verify_fr_at", counting)
        return calls

    def test_pst_check_skipped_when_gamma_is_not_zero(self, oracle_calls):
        # PST makes the pair cospectral, so gamma = 0
        cert = certify_fr(stellar_decompose(3, 2, 6), 0, 1)
        assert (cert.verdict, cert.gamma) == ("proper-FR", Fraction(-3, 2))
        assert oracle_calls == []

    def test_pst_check_runs_when_gamma_is_zero(self, oracle_calls):
        cert = certify_fr(decompose(build_path(3)), 0, 2)
        assert (cert.verdict, cert.gamma) == ("proper-PST", 0)
        assert oracle_calls == [(0, 2)]

    def test_json_round_trip(self):
        import json
        D = stellar_decompose(3, 2, 6)
        doc = json.loads(json.dumps(certify_fr(D, 0, 1).to_json_dict()))
        assert doc["verdict"] == "proper-FR" and doc["gamma"] == "-3/2"


class TestStellarCenters:
    """The certificate of the fused-star centers is their exact analysis."""

    VERDICTS = {"no-FR": "none", "improper-FR": "improper-only",
                "proper-FR": "proper-FR"}

    def test_large_cells_follow_the_analysis(self):
        """X(3, j^2 - 1, 1): C-'s gap^2 is 8 - 2/k + O(1/k^2) and C+'s
        integrality window exceeds 0.5 past k = 2.5e6, so float gates read
        Delta = 2 for both classes and a proper pair on 518 of these
        triples, where sigma is no square."""
        for j in range(1000, 2100):
            k = j * j - 1
            an, cert = analyze(3, k, 1), certify_fr(stellar_decompose(3, k, 1),
                                                    0, 1)
            g = 2 * math.gcd(an.alpha, an.beta) if an.alpha else None
            assert (cert.verdict, cert.delta, cert.g, cert.tau_min) == (
                self.VERDICTS[an.verdict], an.delta, g, an.tau_min), j
        assert certify_fr(stellar_decompose(3, 8999999, 1), 0, 1).verdict \
            == "none"

    def test_pst_exactly_when_a_equals_c(self):
        """Every proper triple with a, k, c <= 40: the oracle at tau_min
        reads PST (off-block and both diagonal entries below 1e-7) on the
        26 with a = c, and a nonzero diagonal on the others."""
        cospectral = others = 0
        for a, k, c in itertools.product(range(1, 41), repeat=3):
            if analyze(a, k, c).verdict != "proper-FR":
                continue
            D = stellar_decompose(a, k, c)
            for pair in ((0, 1), (1, 0)):
                cert = certify_fr(D, *pair)
                obs = verify_fr_at(D, *pair, cert.tau_min)
                assert obs.off_block_norm < 1e-7, (a, k, c)
                pst = max(abs(obs.block[0, 0]), abs(obs.block[1, 1])) < 1e-7
                assert pst == (a == c), (a, k, c)
                assert cert.verdict == ("proper-PST" if pst else "proper-FR")
            cospectral += a == c
            others += a != c
        assert cospectral == 26 and others > 0


def test_singleton_pair_entries_match_projector_rows(parity_cases):
    """With every eigenvalue simple, the block [a] x [b] reads rows of V;
    its five arrays equal those read from projector_rows, bit for bit."""
    checked = 0
    for name, D, _, pairs in parity_cases:
        if D.m != D.n or D.vectors is None:
            continue
        for a, b in pairs:
            P, cols = D.projector_rows([a, b])
            own, reach = P[:, cols], abs(P).max(axis=1)
            ref = (own[0, 0], own[1, 1], own[0, 1], reach[0], reach[1])
            got = _gate_block(D, [a], [b])
            assert all(np.array_equal(x.reshape(-1), y)
                       for x, y in zip(got, ref)), name
            checked += 1
    assert checked > 500


def _gamma_ratio(aa, bb, ab, tol):
    """(consistent, ratio) as the first gate kernel computed them."""
    diff = aa - bb
    weighty = abs(ab) > revival.SUPPORT_TOL
    ratios = np.divide(diff, ab, out=np.zeros_like(diff), where=weighty)
    # the first weighty r is the one term that can be nonzero
    ratio = (ratios * (weighty.cumsum(axis=-1) == 1)).sum(axis=-1)
    residual = np.where(weighty, ratios - ratio[..., None], diff)
    return (abs(residual) <= tol).all(axis=-1), ratio


def _reference_gates(aa, bb, ab, reach_a, reach_b):
    """The gate kernel as first written, less its cospectral bit (see
    TestCospectralIsGammaZero), the referee of revival._gates: one
    reduction over r per gate, and the three outcomes packed into flags by
    a matmul with their bit values."""
    consistent, ratio = _gamma_ratio(aa, bb, ab, revival.GAMMA_RESIDUAL_TOL)
    tol = revival.SUPPORT_TOL
    signs = np.subtract(ab > tol, ab < -tol, dtype=np.int8)
    supported = np.maximum(reach_a, reach_b) > tol
    parallel = (abs(aa * bb - ab * ab) <= revival.PARALLEL_TOL).all(axis=-1)
    unclassified = (supported & (signs == 0)).any(axis=-1)
    bits = (parallel, consistent, unclassified)
    values = np.array([revival._PARALLEL, revival._COMMUTATIVE,
                       revival._UNCLASSIFIED], dtype=np.uint8)
    flags = np.concatenate([x[..., None] for x in bits], axis=-1) @ values
    return flags, ratio, signs


@pytest.fixture
def refereed(monkeypatch):
    """Checks every call of revival._gates against _reference_gates: flags
    and signs exactly, with their dtypes, and the ratio under == (a zero
    ratio may differ in sign). Returns the list of batch shapes checked."""
    real, shapes = revival._gates, []

    def checked(*args):
        flags, ratio, signs = got = real(*args)
        ref_flags, ref_ratio, ref_signs = _reference_gates(*args)
        assert flags.dtype == np.uint8 and signs.dtype == np.int8
        assert np.shape(flags) == np.shape(ref_flags)
        assert np.array_equal(flags, ref_flags)
        assert np.shape(ratio) == np.shape(ref_ratio)
        assert np.array_equal(ratio, ref_ratio)
        assert np.array_equal(signs, ref_signs)
        shapes.append(np.shape(flags))
        return got

    monkeypatch.setattr(revival, "_gates", checked)
    return shapes


class TestGateKernel:
    """revival._gates gives the reference kernel's outcomes on every batch
    shape it is called with."""

    def test_p400_pairs_as_batches_of_one(self, refereed):
        D = decompose(build_path(400))
        for pair in ((0, 399), (1, 2)):
            certify_fr(D, *pair)
        assert refereed == [(), ()] and "gates" not in D.memo

    def test_stacked_batch(self, refereed):
        """200 seeded 10-vertex graphs, every pair of each at once."""
        rng = np.random.default_rng(16)
        A = np.triu(rng.random((200, 10, 10)) < 0.4, 1)
        V = np.linalg.eigh((A | A.transpose(0, 2, 1)).astype(float))[1]
        diag, reach = V * V, abs(V)
        reach = reach * reach.max(axis=1, keepdims=True)
        revival._gates(diag[:, :, None], diag[:, None],
                       V[:, :, None] * V[:, None], reach[:, :, None],
                       reach[:, None])
        assert refereed == [(200, 10, 10)]

    def test_entries_near_the_tolerances(self, refereed):
        """Synthetic entries whose determinants, differences, gamma
        residuals and weights spread across every gate's threshold."""
        rng = np.random.default_rng(16)

        def spread(lo, hi):
            return rng.uniform(-1, 1, (4000, 7)) * 10.0 ** rng.uniform(
                lo, hi, (4000, 7))

        ab, aa = spread(-10, -6), abs(spread(-6, 0))
        gamma = rng.integers(-3, 4, (4000, 1)) / 2
        bb = aa - gamma * ab - spread(-12, -5)
        revival._gates(aa, bb, ab, abs(spread(-10, -6)), abs(ab))
        assert refereed == [(4000,)]


class TestGateTable:
    """A decomposition's first certification builds the gates of all its
    pairs at once, when n^2 m <= _TABLE_MAX_ENTRIES; past that guard the
    same gates are evaluated on a batch of one. The fused-star centers,
    whose certificate is their exact analysis, reach neither."""

    @staticmethod
    def assert_paths_agree(D, label):
        """Every ordered pair: the table rows built by D's first
        certification against the gates of the pair alone, read from a copy
        of D with the guard at 0, bit for bit (the ratio through
        float.hex)."""
        certify_fr(D, 0, 1)
        rows = D.memo.get("gates")
        assert (rows is not None) == (
            D.n ** 2 * D.m <= revival._TABLE_MAX_ENTRIES), label
        if rows is None:
            return
        alone = replace(D)
        with mock.patch.object(revival, "_TABLE_MAX_ENTRIES", 0):
            for a, b in itertools.permutations(range(D.n), 2):
                flags, ratio, signs = revival._pair_gates(alone, a, b)
                i = a * D.n + b
                assert rows.flags[i] == flags, (label, a, b)
                assert rows.ratio[i].hex() == ratio.hex(), (label, a, b)
                assert rows.signs[i * D.m:(i + 1) * D.m].tolist() == signs, \
                    (label, a, b)
        assert "gates" not in alone.memo

    def test_atlas_paths_agree(self, refereed):
        import networkx as nx
        count = 0
        for i, g in enumerate(nx.graph_atlas_g()):
            n = g.number_of_nodes()
            if 2 <= n <= 7 and nx.is_connected(g):
                self.assert_paths_agree(
                    decompose(Graph.from_edges(n, list(g.edges()))), i)
                count += 1
        assert count == 995  # every connected graph on 2..7 vertices
        # each table, then each ordered pair alone
        assert refereed.count(()) == len(refereed) - count

    def test_random_graphs_paths_agree(self, refereed):
        import networkx as nx
        crossed = 0
        for n in (8, 13, 20, 21, 30, 40, 41):
            g = nx.gnp_random_graph(n, 0.3, seed=n)
            assert nx.is_connected(g)
            D = decompose(Graph.from_edges(n, list(g.edges())))
            crossed += D.n ** 2 * D.m > revival._TABLE_MAX_ENTRIES
            self.assert_paths_agree(D, n)
        # every spectrum is simple, so n^3 <= 2^13 fails from n = 21 on
        assert crossed == 4
        assert [x for x in refereed if x] == [(n, n) for n in (8, 13, 20)]

    def test_built_on_first_call_and_compact(self, monkeypatch):
        D = decompose(build_path(7))
        # the first call answers from the table, with no block of one pair
        real, blocks = revival._gate_block, []

        def recording(D, rows, cols):
            blocks.append((rows, cols))
            return real(D, rows, cols)

        monkeypatch.setattr(revival, "_gate_block", recording)
        certify_fr(D, 0, 6)
        assert blocks == [(slice(None), slice(None))]
        rows = D.memo["gates"]
        assert (rows.n, rows.m) == (7, D.m)
        assert (type(rows.flags), rows.ratio.typecode, rows.signs.typecode) \
            == (bytes, "d", "b")
        assert (len(rows.flags), len(rows.ratio), len(rows.signs)) == (
            49, 49, 49 * D.m)
        # the rows are copies: no numpy array of the build is kept alive
        assert not any(isinstance(x, np.ndarray)
                       for x in gc.get_referents(rows))

    def test_no_table_past_the_guard(self):
        D = decompose(build_path(60))
        assert D.n ** 2 * D.m > revival._TABLE_MAX_ENTRIES
        certify_fr(D, 0, 59)
        certify_fr(D, 1, 58)
        assert "gates" not in D.memo

    def test_lone_pair_on_a_mid_size_prism(self):
        """C25 x K2 (n = 50, m = 26) is past the guard: a lone pair is
        answered from a batch of one, with the certificate that the table
        of all pairs gives."""
        m = 25
        cycle = [(i, (i + 1) % m) for i in range(m)]
        X = Graph.from_edges(2 * m, cycle + [(u + m, v + m) for u, v in cycle]
                             + [(i, i + m) for i in range(m)])
        D = decompose(X)
        cert = certify_fr(D, 0, 25)
        assert "gates" not in D.memo
        referee = decompose(X)
        referee.memo["gates"] = revival._gate_rows(referee)
        doc = cert.to_json_dict()
        assert doc == certify_fr(referee, 0, 25).to_json_dict()
        assert (doc["verdict"], doc["gamma"], doc["parallel"],
                doc["cospectral"], len(doc["C_plus"]),
                len(doc["C_minus"])) == ("none", "0/1", True, True, 13, 13)

    def test_pair_block_matches_table_and_reference(self, monkeypatch):
        """The gates of a lone pair, read from its block [a] x [b], bit for
        bit (a zero ratio may differ in sign): below the guard, the table's
        entry [a, b]; past it, and on the quotient's pairs, the reference
        kernel's gates of the pair's entries read from its rows over the n
        vertices (a quotient's cell rows lifted), with the reach their
        max."""
        guard = revival._TABLE_MAX_ENTRIES
        # with the guard at 0 no pair builds the table: each is a lone pair
        monkeypatch.setattr(revival, "_TABLE_MAX_ENTRIES", 0)

        def block_gates(D, a, b):
            flags, ratio, signs = revival._pair_gates(D, a, b)
            return flags, ratio, list(signs)

        def reference(D, a, b):
            rows = lift(D.projector_rows([a, b])[0], D, [a, b], 1)
            reach = abs(rows).max(axis=1)
            flags, ratio, signs = _reference_gates(
                rows[0, a], rows[1, b], rows[0, b], reach[0], reach[1])
            return int(flags), float(ratio), signs.tolist()

        import networkx as nx
        rng = np.random.default_rng(28)
        graphs = []
        for n in (6, 9, 12, 20, 24, 32):
            g = nx.gnp_random_graph(n, 0.4, seed=int(rng.integers(2**31)))
            if nx.is_connected(g):
                X = Graph.from_edges(n, list(g.edges()))
                graphs += [X, cartesian_product(build_path(2), X)]
        # prisms C_m x K2, with repeated eigenvalues, on both sides of it
        graphs += [cartesian_product(build_path(2), Graph.from_edges(
            m, [(i, (i + 1) % m) for i in range(m)])) for m in (4, 13)]
        below = past = 0
        repeated = set()
        for X in graphs:
            D = decompose(X)
            pairs = rng.choice(D.n, (12, 2), replace=True).tolist()
            pairs = [(a, b) for a, b in pairs if a != b]
            fits = D.n ** 2 * D.m <= guard
            if D.m < D.n:
                repeated.add(fits)
            if fits:
                rows = revival._gate_rows(D)
                for a, b in pairs:
                    i, m = a * D.n + b, D.m
                    table = (rows.flags[i], rows.ratio[i],
                             rows.signs[i * m:(i + 1) * m].tolist())
                    assert block_gates(D, a, b) == table, (D.n, a, b)
                    below += 1
            else:
                for a, b in pairs:
                    assert block_gates(D, a, b) == reference(D, a, b)
                    past += 1
        quotient = 0
        for a, k, c in itertools.product((1, 2, 5), (1, 3, 6), (2, 7)):
            D = stellar_decompose(a, k, c)
            n = D.n
            for pair in ((0, 1), (1, 0), (0, 2), (2, n - 1), (n - 1, 1)):
                assert block_gates(D, *pair) == reference(D, *pair)
                quotient += 1
            # one quotient a split, kept under the counts of the twins it
            # splits off the cells a, k and c: none, {2}, {2, n - 1}, {n - 1}
            assert list(D.memo) == [(0, 0, 0), (1, 0, 0), (1, 0, 1),
                                    (0, 0, 1)]
        assert below > 20 and past > 20 and quotient == 90
        assert repeated == {True, False}

    def test_centers_skip_the_gate_kernel(self, monkeypatch):
        calls = []

        def recording(name):
            real = getattr(revival, name)

            def record(*args):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(revival, name, record)

        recording("_gates")
        recording("_gate_block")
        for a, k, c in [(3, 2, 6), (1, 4, 1), (12, 6, 28), (58, 46, 127),
                        (2, 3, 2), (1, 2, 3)]:
            D = stellar_decompose(a, k, c)
            for pair in ((0, 1), (1, 0)):
                certify_fr(D, *pair)
            assert calls == [] and D.memo == {}, (a, k, c)
        # another pair builds the table, on the third call
        certify_fr(D, 0, 2)
        assert calls == ["_gate_block", "_gates"] and "gates" in D.memo

    def test_replace_copy_does_not_share_the_table(self):
        D = decompose(build_path(5))
        certify_fr(D, 0, 4)
        certify_fr(D, 1, 3)
        copy = replace(D)
        assert "gates" in D.memo and copy.memo == {}
        assert "memo" not in repr(D)
        assert stellar_decompose(3, 2, 6).memo == {}


class TestFusedStarPairs:
    """Any pair of X(a, k, c) is certified over the cells with its twins
    split off, and reads as the dense decomposition of the graph (with D's
    closed-form eigenvalues) reads it: verdict, gamma, Delta, g and both
    classes."""

    @staticmethod
    def agree(D, pairs, label):
        ref = replace(decompose(build_stellar(*label)),
                      eigenvalues=D.eigenvalues)
        for a, b in pairs:
            got, want = certify_fr(D, a, b), certify_fr(ref, a, b)
            assert (got.verdict, got.gamma, got.delta, got.g, got.c_plus,
                    got.c_minus) == (want.verdict, want.gamma, want.delta,
                                     want.g, want.c_plus, want.c_minus), \
                (label, a, b)

    def test_table_path(self):
        """Every ordered pair of every a, k, c <= 8, from the gate table
        of the quotient that splits every vertex."""
        for a, k, c in itertools.product(range(1, 9), repeat=3):
            D = stellar_decompose(a, k, c)
            self.agree(D, itertools.permutations(range(D.n), 2), (a, k, c))
            assert "gates" in D.memo

    def test_lone_pair_path(self, monkeypatch):
        """With the guard at 0 each pair is a block of at most seven cells:
        every ordered pair for a, k, c <= 3, and for a, k, c in {1, 2, 5,
        8} the pairs among the centers and the first and last twin of each
        cell."""
        monkeypatch.setattr(revival, "_TABLE_MAX_ENTRIES", 0)
        for a, k, c in itertools.product(range(1, 4), repeat=3):
            D = stellar_decompose(a, k, c)
            self.agree(D, itertools.permutations(range(D.n), 2), (a, k, c))
        for a, k, c in itertools.product((1, 2, 5, 8), repeat=3):
            D = stellar_decompose(a, k, c)
            ends = {0, 1, 2, 1 + a, 2 + a, 1 + a + k, 2 + a + k, D.n - 1}
            self.agree(D, itertools.permutations(sorted(ends), 2), (a, k, c))
            assert "gates" not in D.memo


class TestCertificateInit:
    """RevivalCertificate has a hand-written __init__ and stays a frozen
    dataclass."""

    def test_parameters_match_the_fields(self):
        params = inspect.signature(RevivalCertificate).parameters.values()
        fs = fields(RevivalCertificate)
        assert [p.name for p in params] == [f.name for f in fs]
        for p, f in zip(params, fs):
            empty = f.default is MISSING
            assert p.default == (p.empty if empty else f.default), p.name

    def test_frozen_and_comparable(self):
        cert = certify_fr(decompose(build_path(2)), 0, 1)
        with pytest.raises(FrozenInstanceError):
            cert.verdict = "none"
        copy = replace(cert)
        assert copy == cert and hash(copy) == hash(cert)
        assert replace(cert, verdict="none") != cert
        assert RevivalCertificate((0, 1), False, False, None, False, (), (),
                                  None, None, None, "none").warnings == ()


class TestVerifyFRAt:
    def test_3_2_6_at_pi(self):
        D = stellar_decompose(3, 2, 6)
        obs = verify_fr_at(D, 0, 1, math.pi)
        assert obs.off_block_norm < 1e-9
        assert obs.cross_amplitude > 1e-3
        assert obs.is_proper()

    def test_no_fr_at_generic_time(self):
        D = stellar_decompose(3, 2, 6)
        assert not verify_fr_at(D, 0, 1, 1.0).is_fr()

    def test_block_unitary_when_fr(self):
        D = stellar_decompose(3, 2, 6)
        B = verify_fr_at(D, 0, 1, math.pi).block
        assert np.abs(B @ B.conj().T - np.eye(2)).max() < 1e-9

    def test_quotient_cells_match_the_lifted_rows(self):
        """Measured over the quotient's cells, the observation equals the
        one read from the rows lifted to all n vertices, bit for bit."""
        for a, k, c in [(3, 2, 6), (20, 30, 40)]:
            D = stellar_decompose(a, k, c)
            for pair in ((0, 1), (1, 0), (0, 2), (4, D.n - 1)):
                for t in (0.0, 0.4, 1.0, math.pi / 2, math.pi, 5.1):
                    got = verify_fr_at(D, *pair, t)
                    ref = _fr_observation(transition_rows(D, list(pair), t),
                                          list(pair), t)
                    assert (got.t, got.off_block_norm, got.cross_amplitude) \
                        == (ref.t, ref.off_block_norm, ref.cross_amplitude)
                    assert got.block.tobytes() == ref.block.tobytes()

    def test_no_lift_on_a_huge_fused_star(self):
        # n is about 10^15: lifted rows would take petabytes
        D = stellar_decompose(1, 10**15, 2)
        start = time.perf_counter()
        obs = verify_fr_at(D, 0, 1, 1.0)
        assert time.perf_counter() - start < 1.0
        assert 0 < obs.off_block_norm < 1 and not obs.is_fr()


class TestSupportStructure:
    """On a pair with FR, the support graph of D_{a,b} is two
    complete-with-loops components plus loopless isolated vertices."""

    @staticmethod
    def two_complete_components(D, a, b):
        G = support_graph(D, subset_state({a, b}, D.n))
        comps = components(G)
        return len(comps) == 2 and all(is_complete_with_loops(G, comp)
                                       for comp in comps)

    def test_proper_fr_pair(self):
        D = stellar_decompose(3, 2, 6)
        assert self.two_complete_components(D, 0, 1)

    def test_non_fr_pair(self):
        D = decompose(build_path(4))
        assert not self.two_complete_components(D, 0, 1)


def test_certifier_agrees_with_analyze_small_grid():
    # exact analysis and the numeric certifier agree on a coarse grid
    from revival_lab.stellar import analyze
    for a in (1, 2, 3, 6):
        for k in (1, 2, 4, 6):
            for c in (1, 6, 11, 12):
                an = analyze(a, k, c)
                cert = certify_fr(stellar_decompose(a, k, c), 0, 1)
                if an.verdict == "proper-FR":
                    assert cert.verdict in ("proper-FR", "proper-PST")
                    assert cert.tau_min == pytest.approx(an.tau_min)
                elif an.verdict == "improper-FR":
                    assert cert.verdict == "improper-only"
                else:
                    assert cert.verdict == "none"
