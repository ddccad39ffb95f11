"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py`; the printed lines summarize
each criterion's outcome and the measured quantities behind it.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from referees import (adjacency, average_state_equality, block_is_scalar,
                      build_path, cartesian_product, double_star_tree,
                      is_periodic, projectors, stellar_center_blocks,
                      surd_values, transition_matrix, unitarity_error)
from revival_lab.exact import square_free_part
from revival_lab.graphs import Graph, build_stellar
from revival_lab.revival import certify_fr, verify_fr_at
from revival_lab.spectral import decompose, stellar_decompose
from revival_lab.states import subset_state
from revival_lab.stellar import (FamilyRecipe, analyze, diophantine_check,
                                 generate_family)
from revival_lab.transfer import detect_subset_transfer, polygamy_witness

ROOT2 = math.sqrt(2)


def report(num: int, ok: bool, detail: str) -> None:
    import sys
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    # also bypass pytest capture so every criterion line reaches the terminal
    print(line, file=sys.__stdout__)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """All connected graphs on at most 7 vertices."""
    import networkx as nx
    out = []
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(g):
            out.append(Graph.from_edges(n, list(g.edges())))
    assert len(out) >= 500
    return out


def test_criterion_01_worked_triple_certification():
    D = stellar_decompose(3, 2, 6)
    cert = certify_fr(D, 0, 1)
    obs = verify_fr_at(D, 0, 1, math.pi)
    ok = (cert.verdict == "proper-FR"
          and cert.delta == 1 and cert.g == 2
          and abs(cert.tau_min - math.pi) < 1e-12
          and sorted(cert.c_plus) == [-3, 3]
          and sorted(cert.c_minus) == [-2, 2]
          and obs.off_block_norm < 1e-9
          and obs.cross_amplitude > 1e-3
          and not cert.cospectral)
    report(1, ok, f"X(3,2,6): {cert.verdict}, Delta={cert.delta}, g={cert.g}, "
                  f"tau_min={cert.tau_min:.6f}, off={obs.off_block_norm:.2e}, "
                  f"cross={obs.cross_amplitude:.3f}")


def test_criterion_02_exact_projector_blocks():
    D = stellar_decompose(3, 2, 6)
    expected = {
        2: [[Fraction(4, 10), Fraction(-2, 10)],
            [Fraction(-2, 10), Fraction(1, 10)]],
        3: [[Fraction(1, 10), Fraction(2, 10)],
            [Fraction(2, 10), Fraction(4, 10)]],
    }
    # the closed form's entries over 1 and 1/sqrt(sigma), sigma = 25
    exact = surd_values(stellar_center_blocks(3, 2, 6), 5)
    P, cols = D.projector_rows([0, 1])
    blocks = P[:, cols]
    ok = True
    worst = 0.0
    for r, theta in enumerate(D.eigenvalues):
        mag = round(abs(theta))
        if mag not in expected:
            continue
        ok = ok and exact[r] == expected[mag]
        numeric = blocks[..., r]
        err = float(np.abs(numeric - np.array(expected[mag], float)).max())
        worst = max(worst, err)
    ok = ok and worst < 1e-9
    report(2, ok, f"X(3,2,6) blocks exact for theta=+-2,+-3; "
                  f"numeric deviation {worst:.2e}")


def test_criterion_03_fr_table():
    table = [
        ((6, 3, 14), math.pi / ROOT2),
        ((6, 4, 12), math.pi / ROOT2),
        ((9, 6, 18), math.pi / math.sqrt(3)),
        ((2, 6, 11), math.pi / math.sqrt(5)),
        ((12, 6, 28), math.pi / 2),
    ]
    # sigma = 4*6^2 + (2-28)^2 = 820 is not a square, so X(2,6,28) has no
    # fractional revival at any time; (12,6,28) is the only X(a,6,28) that
    # revives, properly at pi/2.
    no_fr = [((2, 6, 28), math.pi / 2)]
    failures = []
    for (a, k, c), tau in table:
        an = analyze(a, k, c)
        if an.tau_min is None or abs(an.tau_min - tau) > 1e-12:
            failures.append(f"X({a},{k},{c}): verdict {an.verdict}, "
                            f"tau_min {an.tau_min}")
            continue
        obs = verify_fr_at(stellar_decompose(a, k, c), 0, 1, tau)
        if obs.off_block_norm >= 1e-8:
            failures.append(f"X({a},{k},{c}): off {obs.off_block_norm:.2e}")
    for (a, k, c), tau in no_fr:
        an = analyze(a, k, c)
        if an.verdict != "no-FR" or an.tau_min is not None:
            failures.append(f"X({a},{k},{c}): verdict {an.verdict}, "
                            f"tau_min {an.tau_min}, expected no-FR")
            continue
        obs = verify_fr_at(stellar_decompose(a, k, c), 0, 1, tau)
        if obs.off_block_norm < 0.1:
            failures.append(f"X({a},{k},{c}): off {obs.off_block_norm:.2e} "
                            f"at {tau:.6f}, expected leakage")
    report(3, not failures,
           f"FR table reproduced on {len(table)} triples; "
           f"{len(no_fr)} no-FR control leaks at its listed time"
           if not failures else "; ".join(failures))


def test_criterion_04_improper_controls():
    failures = []
    for (a, k, c) in [(1, 4, 1), (1, 16, 25)]:
        cert = certify_fr(stellar_decompose(a, k, c), 0, 1)
        an = analyze(a, k, c)
        if cert.verdict != "improper-only" or an.verdict != "improper-FR":
            failures.append(f"X({a},{k},{c}): {cert.verdict}")
            continue
        if abs(an.min_period - 2 * math.pi) > 1e-12:
            failures.append(f"X({a},{k},{c}): period {an.min_period}")
            continue
        obs = verify_fr_at(stellar_decompose(a, k, c), 0, 1, an.min_period)
        B = obs.block
        scalar_err = max(abs(B[0, 0] - B[1, 1]), abs(B[0, 1]), abs(B[1, 0]))
        if obs.off_block_norm > 1e-8 or scalar_err > 1e-8:
            failures.append(f"X({a},{k},{c}): not scalar at period")
    report(4, not failures,
           "X(1,4,1) and X(1,16,25) improper-only, period 2*pi, "
           "U(period) scalar on the centers"
           if not failures else "; ".join(failures))


def _recipe_pool(max_vertices=200):
    pool = []
    for p in (5, 13, 17):
        for delta in range(1, 11):
            if square_free_part(delta)[1] != 1:
                continue
            for alpha in range(1, 12):
                for beta in range(alpha + 1, 13):
                    try:
                        r = FamilyRecipe.from_parameters(p, delta, alpha, beta)
                        a, k, c = generate_family(r)
                    except ValueError:
                        continue
                    if a + k + c + 2 <= max_vertices:
                        pool.append((r, (a, k, c)))
    return pool


def test_criterion_05_family_soundness():
    failures = []
    for alpha in range(1, 6):
        r = FamilyRecipe.from_parameters(5, 5, alpha, 2 * alpha)
        triple = generate_family(r)
        expected = (2 * alpha ** 2, 6 * alpha ** 2, 11 * alpha ** 2)
        if triple != expected:
            failures.append(f"alpha={alpha}: got {triple}")
            continue
        if certify_fr(stellar_decompose(*triple), 0, 1).verdict != "proper-FR":
            failures.append(f"alpha={alpha}: not proper")

    pool = _recipe_pool()
    rng = random.Random(20260823)
    samples = [pool[rng.randrange(len(pool))] for _ in range(100)]
    verified = {}
    for r, (a, k, c) in samples:
        if not diophantine_check(a, k, c, r.delta, r.alpha, r.beta):
            failures.append(f"diophantine failed for ({a},{k},{c})")
            continue
        if (a, k, c) not in verified:
            an = analyze(a, k, c)
            obs = verify_fr_at(stellar_decompose(a, k, c), 0, 1, an.tau_min)
            verified[(a, k, c)] = (an.verdict == "proper-FR"
                                   and obs.off_block_norm < 1e-8
                                   and obs.cross_amplitude > 1e-6)
        if not verified[(a, k, c)]:
            failures.append(f"oracle failed for ({a},{k},{c})")
    report(5, not failures,
           f"(2a^2,6a^2,11a^2) family + 100 sampled recipes over "
           f"{len(pool)} desk-scale candidates all sound"
           if not failures else "; ".join(failures[:5]))


def test_criterion_06_polygamy():
    failures = []
    for (a, k, c, ell) in [(16, 36, 37, 2), (10, 30, 55, 2), (27, 18, 54, 1)]:
        rep = polygamy_witness(a, k, c, ell)
        for obs, pair in [(rep.twin_observation, rep.twin_pair),
                          (rep.center_observation, rep.center_pair)]:
            if obs.off_block_norm >= 1e-7 or obs.cross_amplitude < 1e-3:
                failures.append(f"K2xX({a},{k},{c}) pair {pair}: "
                                f"off {obs.off_block_norm:.2e}")
        if set(rep.twin_pair) & set(rep.center_pair) != {0}:
            failures.append(f"K2xX({a},{k},{c}): pairs do not overlap at 0")
    report(6, not failures,
           "overlapping proper FR pairs on all three product graphs"
           if not failures else "; ".join(failures))


def test_criterion_07_balanced_impossibility():
    target = 1 / ROOT2
    offenders = []
    checked = 0
    for a, k, c in itertools.product(range(1, 21), repeat=3):
        an = analyze(a, k, c)
        if an.verdict != "proper-FR":
            continue
        checked += 1
        if an.gamma == 2:
            offenders.append(f"X({a},{k},{c}): gamma = 2")
            continue
        D = stellar_decompose(a, k, c)
        for j in range(3):
            U = transition_matrix(D, (2 * j + 1) * an.tau_min)
            if (abs(abs(U[0, 0]) - target) < 1e-6
                    and abs(abs(U[0, 1]) - target) < 1e-6):
                offenders.append(f"X({a},{k},{c}) at j={j}")
    report(7, checked > 0 and not offenders,
           f"no balanced FR among {checked} proper triples with a,k,c <= 20; "
           f"gamma rational and != 2 throughout"
           if not offenders else "; ".join(offenders))


def test_criterion_08_subset_transfer():
    D = decompose(cartesian_product(build_path(2), build_path(3)))
    failures = []
    # paper's 1-based labels {1,4}->{3,6} and {2,5} map to 0-based
    # {0,3}->{2,5} and {1,4}
    rep1 = detect_subset_transfer(D, {0, 3}, {2, 5}, math.pi / ROOT2)
    if rep1.residual >= 1e-9:
        failures.append(f"corner transfer residual {rep1.residual:.2e}")
    cert = certify_fr(D, 1, 4)
    if cert.verdict != "proper-FR" or \
            not is_periodic(D, subset_state({1, 4}, 6), math.pi / ROOT2):
        failures.append("middle pair not simultaneously proper FR/periodic")
    rep2 = detect_subset_transfer(D, {0, 1, 2}, {3, 4, 5}, math.pi / 2)
    if not rep2.is_transfer:
        failures.append(f"side transfer residual {rep2.residual:.2e}")
    for rep in (rep1, rep2):
        if not (rep.induced_cospectral and rep.complement_cospectral):
            failures.append("induced cospectrality failed")
        if not average_state_equality(D, subset_state(rep.S, 6),
                                      subset_state(rep.T, 6)):
            failures.append("average-state equality failed")
    report(8, not failures,
           f"P2xP3 transfers at pi/sqrt(2) (residual {rep1.residual:.1e}) "
           f"and pi/2 (residual {rep2.residual:.1e}) with proper FR on the "
           "middle rung" if not failures else "; ".join(failures))


def test_criterion_09_double_stars():
    failures = []
    for a in range(1, 11):
        X, tau = double_star_tree(a)
        D = decompose(X)
        cert = certify_fr(D, 0, 1)
        obs = verify_fr_at(D, 0, 1, tau)
        if (cert.verdict != "proper-FR"
                or abs(cert.tau_min - tau) > 1e-9
                or obs.off_block_norm >= 1e-8
                or obs.cross_amplitude <= 1e-6
                or not cert.cospectral or cert.gamma != 0):
            failures.append(f"a={a}: {cert.verdict}, off "
                            f"{obs.off_block_norm:.2e}")
    report(9, not failures,
           "proper FR on the centers at 2*pi/sqrt(4a+1) for a = 1..10, "
           "centers cospectral with gamma = 0"
           if not failures else "; ".join(failures))


TIMING_MULTIPLES = range(1, 7)


def predicted_scalar_multiples(cert) -> set[int]:
    """Multiples j of tau_min at which the block on the pair is scalar.

    At j * tau_min the phases e^{it theta} already agree within each support
    class, so the block is scalar exactly when they also agree across the
    classes: j * q must be an integer for every cross-class ratio
    q = (theta+ - theta-) * tau_min / (2 pi). Where q = 1/2 (mod 1), as for
    the fused stars, these are the even multiples.
    """
    qs = [(tp - tm) * cert.tau_min / (2 * math.pi)
          for tp in cert.c_plus for tm in cert.c_minus]
    return {j for j in TIMING_MULTIPLES
            if all(abs(j * q - round(j * q)) < 1e-7 for q in qs)}


def timing_law_failures(D, a: int, b: int, cert) -> list[str]:
    """Check block-diagonality and the predicted scalar multiples at j*tau."""
    predicted = predicted_scalar_multiples(cert)
    failures = []
    for j in TIMING_MULTIPLES:
        obs = verify_fr_at(D, a, b, j * cert.tau_min)
        if obs.off_block_norm >= 1e-7:
            failures.append(f"FR law broken at {j}*tau")
        if block_is_scalar(obs, 1e-7) != (j in predicted):
            failures.append(f"scalar law broken at {j}*tau "
                            f"(predicted {sorted(predicted)})")
    return failures


def first_scalar_multiple(cert) -> int | None:
    return min(predicted_scalar_multiples(cert), default=None)


def test_criterion_10_oracle_equivalence(corpus):
    failures = []
    pairs = proper = 0
    first_scalar = Counter()
    for X in corpus:
        D = decompose(X)
        for a, b in itertools.combinations(range(X.n), 2):
            pairs += 1
            cert = certify_fr(D, a, b)
            if not cert.is_proper:
                continue
            proper += 1
            tau = cert.tau_min
            obs = verify_fr_at(D, a, b, tau)
            if obs.off_block_norm >= 1e-7 or obs.cross_amplitude <= 1e-7:
                failures.append(f"{sorted(X.edges)} pair ({a},{b})")
                continue
            failures += [f"{msg} on {sorted(X.edges)} pair ({a},{b})"
                         for msg in timing_law_failures(D, a, b, cert)]
            first_scalar[first_scalar_multiple(cert) or "never"] += 1

    # the middle pair of P4 (q = 1/sqrt(5)) is never scalar; opposite
    # vertices of the 6-cycle (q = 1/3 mod 1) are first scalar at 3*tau_min
    cycle6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    for name, X, (a, b), expected in [("P4", build_path(4), (1, 2), None),
                                      ("C6", cycle6, (0, 3), 3)]:
        D = decompose(X)
        cert = certify_fr(D, a, b)
        if not cert.is_proper:
            failures.append(f"{name} pair ({a},{b}): {cert.verdict}")
            continue
        first = first_scalar_multiple(cert)
        if first != expected:
            failures.append(f"{name} pair ({a},{b}): first scalar multiple "
                            f"{first}, expected {expected}")
        failures += [f"{msg} on {name} pair ({a},{b})"
                     for msg in timing_law_failures(D, a, b, cert)]

    histogram = ", ".join(
        f"{j}: {first_scalar[j]}" for j in sorted(first_scalar, key=str))
    report(10, not failures,
           f"{len(corpus)} connected graphs, {pairs} pairs, {proper} proper "
           "certificates all oracle-confirmed, block-diagonal at j*tau_min "
           f"and scalar exactly where predicted for j = 1..6; first scalar "
           f"multiple {{{histogram}}}"
           if not failures else "; ".join(failures[:5]))


def test_criterion_11_linear_algebra_invariants(corpus):
    rng = random.Random(7)
    failures = []
    sample = corpus[::7]
    for X in sample:
        D = decompose(X)
        eye = np.eye(D.n)
        Es = projectors(D)
        if np.abs(sum(Es) - eye).max() >= 1e-9:
            failures.append("resolution of identity")
        for r, E in enumerate(Es):
            if np.abs(E @ E - E).max() >= 1e-9:
                failures.append("idempotence")
            for s in range(r + 1, D.m):
                if np.abs(E @ Es[s]).max() >= 1e-9:
                    failures.append("orthogonality")
        if np.abs(adjacency(D) - X.adjacency()).max() >= 1e-8:
            failures.append("reconstruction")
        t1, t2 = rng.uniform(0, 6), rng.uniform(0, 6)
        U1 = transition_matrix(D, t1)
        if unitarity_error(U1) >= 1e-9:
            failures.append("unitarity")
        U2 = transition_matrix(D, t2)
        U12 = transition_matrix(D, t1 + t2)
        if np.abs(U1 @ U2 - U12).max() >= 1e-8:
            failures.append("group law")
    # Cartesian factorization U_{XxY}(t) = U_X(t) (x) U_Y(t)
    for X, Y in [(build_path(2), build_path(3)),
                 (build_path(3), build_stellar(1, 1, 1))]:
        t = rng.uniform(0, 4)
        DZ = decompose(cartesian_product(X, Y))
        UX = transition_matrix(decompose(X), t)
        UY = transition_matrix(decompose(Y), t)
        UZ = transition_matrix(DZ, t)
        if np.abs(UZ - np.kron(UX, UY)).max() >= 1e-8:
            failures.append("Cartesian factorization")
    report(11, not failures,
           f"projector, unitarity, group-law and product-factorization "
           f"invariants hold on {len(sample)} corpus graphs"
           if not failures else "; ".join(sorted(set(failures))))
