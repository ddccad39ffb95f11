import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from referees import double_star_tree, theta_squares
from revival_lab.revival import certify_fr, verify_fr_at
from revival_lab.spectral import decompose, stellar_decompose
from revival_lab.stellar import (FamilyRecipe, StellarAnalysis, analyze,
                                 diophantine_check, generate_family,
                                 generate_polygamy_triple)


class TestAnalyze:
    def test_3_2_6(self):
        an = analyze(3, 2, 6)
        assert (an.mu, an.sigma) == (13, 25)
        doc = an.to_json_dict()
        assert (doc["theta3_sq"], doc["theta5_sq"]) == ("4", "9")
        assert (an.delta, an.alpha, an.beta) == (1, 2, 3)
        assert an.verdict == "proper-FR"
        assert an.tau_min == pytest.approx(math.pi)

    def test_1_16_25_improper(self):
        an = analyze(1, 16, 25)
        doc = an.to_json_dict()
        assert (doc["theta3_sq"], doc["theta5_sq"]) == ("9", "49")
        assert an.verdict == "improper-FR"
        assert an.min_period == pytest.approx(2 * math.pi)

    def test_16_36_37(self):
        an = analyze(16, 36, 37)
        assert (an.mu, an.sigma) == (125, 5625)
        doc = an.to_json_dict()
        assert (doc["theta3_sq"], doc["theta5_sq"]) == ("25", "100")
        assert (an.delta, an.alpha, an.beta) == (1, 5, 10)
        assert an.verdict == "proper-FR"
        assert an.tau_min == pytest.approx(math.pi / 5)

    def test_no_fr_when_sigma_not_square(self):
        an = analyze(1, 2, 3)
        assert an.verdict == "no-FR" and an.delta is None

    BIG_K = [(1, 1000012, 2), (1, 10000013, 2), (1, 10**12, 2),
             (7, 10**9 + 7, 3), (1, 10**15, 2)]

    def test_vieta_exact(self, square_free_calls):
        """The printed squares p -+ q sqrt(d) have sum mu, product
        ak + ck + ac and difference sqrt(sigma), exactly, and printing
        them factors sigma at most once."""
        for (a, k, c) in [*itertools.product(range(1, 13), repeat=3),
                          *self.BIG_K]:
            an = analyze(a, k, c)
            square_free_calls.clear()
            p, q, d = theta_squares(an.to_json_dict())
            assert len(square_free_calls) <= 1, (a, k, c)
            assert 2 * p == an.mu and 4 * q * q * d == an.sigma, (a, k, c)
            assert p * p - q * q * d == a * k + c * k + a * c, (a, k, c)

    @pytest.mark.parametrize("triple,theta3_sq,theta5_sq", [
        ((2, 6, 28), "21 - sqrt(205)", "21 + sqrt(205)"),
        ((1, 1000012, 2), "2000027/2 - 1/2*sqrt(4000096000577)",
         "2000027/2 + 1/2*sqrt(4000096000577)"),
    ])
    def test_surd_strings(self, triple, theta3_sq, theta5_sq):
        doc = analyze(*triple).to_json_dict()
        assert (doc["theta3_sq"], doc["theta5_sq"]) == (theta3_sq, theta5_sq)
        assert doc["verdict"] == "no-FR"

    @pytest.mark.parametrize("triple", [(1, 2, 3), (2, 6, 28), (5, 7, 11),
                                        (1, 1000012, 2), (1, 10000013, 2)])
    def test_non_square_sigma_decided_without_factoring(self, triple,
                                                        square_free_calls):
        an = analyze(*triple)
        assert an.verdict == "no-FR" and an.delta is None
        assert square_free_calls == []

    @pytest.mark.parametrize("triple,factorings", [
        ((3, 2, 6), 0), ((1, 16, 25), 0), ((1, 1, 1), 0), ((2, 6, 28), 1),
        ((1, 1000012, 2), 1)])
    def test_rendering_factors_sigma_at_most_once(self, triple, factorings,
                                                  square_free_calls):
        an = analyze(*triple)
        square_free_calls.clear()
        p, q, d = theta_squares(an.to_json_dict())
        assert 2 * p == an.mu and 4 * q * q * d == an.sigma
        assert len(square_free_calls) == factorings

    def test_gamma(self):
        assert analyze(3, 2, 6).gamma == Fraction(-3, 2)
        assert analyze(1, 4, 1).gamma == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            analyze(0, 1, 1)

    @pytest.mark.parametrize("triple,verdict", [
        ((1, 2, 3), "no-FR"), ((1, 16, 25), "improper-FR"),
        ((3, 2, 6), "proper-FR")])
    def test_frozen_dataclass_behaviour(self, triple, verdict):
        """The one-update __init__ gives the same instance as setting each
        field in turn, as the generated __init__ of a frozen dataclass does."""
        an = analyze(*triple)
        assert an.verdict == verdict
        with pytest.raises(dataclasses.FrozenInstanceError):
            an.verdict = "proper-FR"
        ref = object.__new__(StellarAnalysis)
        for f in dataclasses.fields(StellarAnalysis):
            object.__setattr__(ref, f.name, getattr(an, f.name))
        assert an == ref and hash(an) == hash(ref) and repr(an) == repr(ref)
        assert vars(an) == vars(ref)
        other = dataclasses.replace(an, verdict="other")
        assert other.verdict == "other" and other != an
        assert dataclasses.replace(other, verdict=verdict) == an


class TestDiophantine:
    def test_worked_triples(self):
        assert diophantine_check(3, 2, 6, 1, 2, 3)
        assert not diophantine_check(3, 2, 6, 1, 1, 3)
        assert diophantine_check(2, 6, 11, 5, 1, 2)

    def test_rejects_non_square_free_delta(self):
        with pytest.raises(ValueError):
            diophantine_check(3, 2, 6, 4, 1, 2)


class TestFamilyRecipe:
    def test_from_parameters(self):
        r = FamilyRecipe.from_parameters(5, 5, 1, 2)
        assert (r.f, r.g_f) == (2, 1) and r.d == 3

    def test_swaps_alpha_beta(self):
        r = FamilyRecipe.from_parameters(5, 1, 3, 2)
        assert r.alpha == 2 and r.beta == 3

    def test_rejections(self):
        with pytest.raises(ValueError):
            FamilyRecipe.from_parameters(6, 1, 2, 3)  # not prime
        with pytest.raises(ValueError):
            FamilyRecipe.from_parameters(5, 1, 1, 3)  # same 2-adic valuation
        with pytest.raises(ValueError):
            FamilyRecipe.from_parameters(5, 1, 2, 4)  # p does not divide
        with pytest.raises(ValueError):
            FamilyRecipe.from_parameters(5, 8, 1, 2)  # delta not square-free


class TestGenerateFamily:
    def test_worked_examples(self):
        assert generate_family(FamilyRecipe.from_parameters(5, 5, 1, 2)) == (2, 6, 11)
        assert generate_family(FamilyRecipe.from_parameters(5, 1, 2, 3)) == (3, 2, 6)
        assert generate_family(FamilyRecipe.from_parameters(5, 1, 7, 8)) == (46, 6, 55)

    def test_always_diophantine_and_proper(self):
        for (p, delta, alpha, beta) in [(5, 5, 2, 4), (13, 1, 6, 7),
                                        (17, 1, 8, 9), (5, 1, 4, 6)]:
            r = FamilyRecipe.from_parameters(p, delta, alpha, beta)
            a, k, c = generate_family(r)
            assert diophantine_check(a, k, c, r.delta, r.alpha, r.beta)
            an = analyze(a, k, c)
            assert an.verdict == "proper-FR"
            g = math.gcd(r.alpha, r.beta)
            assert an.tau_min == pytest.approx(
                math.pi / (g * math.sqrt(r.delta)))

    def test_positivity_rejection(self):
        # small alpha/beta ratio drives a below zero
        r = FamilyRecipe.from_parameters(5, 1, 1, 6)
        with pytest.raises(ValueError):
            generate_family(r)


class TestPolygamyTriples:
    def test_p5_r1(self):
        assert generate_polygamy_triple(5, 1) == (10, 30, 55)

    @pytest.mark.parametrize("p,r", [(5, 1), (5, 2), (5, 3), (13, 1), (17, 1)])
    def test_tau_is_pi_over_p(self, p, r):
        a, k, c = generate_polygamy_triple(p, r)
        an = analyze(a, k, c)
        assert an.verdict == "proper-FR"
        assert an.tau_min == pytest.approx(math.pi / p)

    def test_rejections(self):
        with pytest.raises(ValueError):
            generate_polygamy_triple(7, 1)
        with pytest.raises(ValueError):
            generate_polygamy_triple(5, 0)


class TestDoubleStar:
    def test_a1_is_p4(self):
        X, tau = double_star_tree(1)
        assert X.n == 4 and len(X.edges) == 3
        assert tau == pytest.approx(2 * math.pi / math.sqrt(5))
        obs = verify_fr_at(decompose(X), 0, 1, tau)
        assert obs.is_proper(1e-8, 1e-3)

    @pytest.mark.parametrize("a,expect", [(2, 2 * math.pi / 3),
                                          (6, 2 * math.pi / 5)])
    def test_rational_period_cases(self, a, expect):
        X, tau = double_star_tree(a)
        assert tau == pytest.approx(expect)
        cert = certify_fr(decompose(X), 0, 1)
        assert cert.verdict == "proper-FR"
        assert cert.tau_min == pytest.approx(tau)


class TestK1NoFR:
    """The trees of the family (k = 1) never have proper FR on the centers:
    sigma = 4 + (a - c)^2 is a square only when a = c, and then
    2 = delta (beta^2 - alpha^2) has no solution."""

    @pytest.mark.parametrize("a,c", [(1, 1), (4, 4), (2, 6), (3, 10)])
    def test_trees_never_proper(self, a, c):
        assert analyze(a, 1, c).verdict != "proper-FR"


def test_exhaustive_agreement_small():
    # exact verdicts agree with the numeric certifier across a dense block
    for a in range(1, 9):
        for k in range(1, 9):
            for c in range(a, 9):
                an = analyze(a, k, c)
                cert = certify_fr(stellar_decompose(a, k, c), 0, 1)
                # the certifier refines proper-FR to proper-PST when the
                # diagonal block vanishes (possible when a = c)
                expected = {"proper-FR": {"proper-FR", "proper-PST"},
                            "improper-FR": {"improper-only"},
                            "no-FR": {"none"}}[an.verdict]
                assert cert.verdict in expected, (a, k, c)
