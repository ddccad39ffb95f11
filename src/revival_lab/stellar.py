"""Closed-form fractional-revival analysis of the fused-star graphs X(a, k, c)
and integer-arithmetic generators for the infinite families built on them.

X(a, k, c) is two stars K_{1,a+k} and K_{1,c+k} with k leaves merged; the
centers are vertices 0 and 1. All decisions here are exact integer
arithmetic; nothing is certified numerically in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import fermat_two_squares, square_free_part, two_adic_valuation

POSITIVITY_RATIO = math.sqrt((math.sqrt(2) - 1) / (math.sqrt(2) + 1))
# Steps of Pollard-Brent rho that may go into reducing sqrt(sigma) for
# output (about 0.1 s); past them sigma is kept as the radicand, unreduced.
_SURD_STEPS = 2 ** 17


@dataclass(frozen=True, init=False)
class StellarAnalysis:
    """Exact FR verdict on the centers {0, 1} of X(a, k, c), decided from
    the integers mu = 2k + a + c and sigma = 4k^2 + (a - c)^2.

    The two nonzero eigenvalue magnitudes theta3 and theta5 have squares
    (mu -+ sqrt(sigma))/2. These are printed by ``to_json_dict`` and are not
    part of the decision. When both are integers sharing a square-free part
    delta, they equal alpha**2 * delta and beta**2 * delta.

    min_period is always 2 * tau_min (None when there is no FR). For a
    proper triple it is the first time at which the block of U(t) on the
    centers {0, 1} is scalar. For an improper triple the block is already
    scalar at tau_min: X(1, 4, 1) and X(1, 16, 25) have U(pi) = -I on
    {0, 1}, so they are periodic at pi, half of min_period. The value is
    not the least period in that case. This scalar-at-2*tau_min law is a
    property of the fused stars; on other graphs a proper pair may first
    become scalar at another multiple of tau_min, or never.
    """

    a: int
    k: int
    c: int
    mu: int
    sigma: int
    delta: int | None = None
    alpha: int | None = None
    beta: int | None = None
    verdict: str = "no-FR"  # no-FR | improper-FR | proper-FR
    tau_min: float | None = None
    min_period: float | None = None
    two_adic: tuple[int, int] | None = None

    def __init__(self, a, k, c, mu, sigma, delta=None, alpha=None, beta=None,
                 verdict="no-FR", tau_min=None, min_period=None,
                 two_adic=None):
        # one update of the instance dict, as in RevivalCertificate: the
        # generated __init__ sets each field with object.__setattr__, and an
        # analysis is built on every call of analyze
        self.__dict__.update(
            a=a, k=k, c=c, mu=mu, sigma=sigma, delta=delta, alpha=alpha,
            beta=beta, verdict=verdict, tau_min=tau_min,
            min_period=min_period, two_adic=two_adic)

    @property
    def gamma(self) -> Fraction:
        """Fractional-cospectrality scalar for the pair (0, 1)."""
        return Fraction(self.a - self.c, self.k)

    def to_json_dict(self) -> dict:
        theta3, theta5 = _theta_square_strings(self.mu, self.sigma)
        gamma = self.gamma
        return {
            "a": self.a, "k": self.k, "c": self.c,
            "mu": self.mu, "sigma": self.sigma,
            "theta3_sq": theta3, "theta5_sq": theta5,
            "Delta": self.delta, "alpha": self.alpha, "beta": self.beta,
            "verdict": self.verdict,
            "tau_min": self.tau_min, "min_period": self.min_period,
            "two_adic": list(self.two_adic) if self.two_adic else None,
            "gamma": f"{gamma.numerator}/{gamma.denominator}",
        }


def _theta_square_strings(mu: int, sigma: int) -> tuple[str, str]:
    """The squares (mu -+ sqrt(sigma))/2 as printed: two fractions when sigma
    is a square, else "p -+ q*sqrt(delta)" with p = mu/2 and sigma =
    m**2 * delta, q = m/2 (and no "q*" when q = 1). sigma is factored at
    most once; when it does not split within _SURD_STEPS steps it is kept
    as the radicand, unreduced, with m = 1: exact all the same."""
    s = math.isqrt(sigma)
    if s * s == sigma:
        return _half(mu - s), _half(mu + s)
    try:
        delta, m = square_free_part(sigma, steps=_SURD_STEPS)
    except ArithmeticError:
        delta, m = sigma, 1
    p, q = _half(mu), "" if m == 2 else f"{_half(m)}*"
    return f"{p} - {q}sqrt({delta})", f"{p} + {q}sqrt({delta})"


def _half(x: int) -> str:  # str(Fraction(x, 2)), with no Fraction
    return f"{x}/2" if x % 2 else str(x // 2)


def analyze(a: int, k: int, c: int) -> StellarAnalysis:
    """Exact FR verdict for X(a, k, c) on the centers.

    FR (at all) requires both eigenvalue squares (mu +- sqrt(sigma))/2 to be
    integers with the same square-free part delta; the revival is proper
    exactly when the quotients alpha, beta have distinct 2-adic valuations.
    Only integers enter: isqrt settles whether sigma is a square, and the
    square-free parts of the two integer squares are taken only when it is.
    """
    if a < 1 or k < 1 or c < 1:
        raise ValueError("all of a, k, c must be positive")
    mu = 2 * k + a + c
    sigma = 4 * k * k + (a - c) ** 2
    s = math.isqrt(sigma)
    if s * s != sigma or (mu - s) % 2:
        return StellarAnalysis(a, k, c, mu, sigma)
    delta, alpha = square_free_part((mu - s) // 2)
    d5, beta = square_free_part((mu + s) // 2)
    if delta != d5:
        return StellarAnalysis(a, k, c, mu, sigma)
    tau = math.pi / (math.gcd(alpha, beta) * math.sqrt(delta))
    two_adic = (two_adic_valuation(alpha), two_adic_valuation(beta))
    verdict = "proper-FR" if two_adic[0] != two_adic[1] else "improper-FR"
    return StellarAnalysis(a, k, c, mu, sigma, delta, alpha, beta, verdict,
                           tau, 2 * tau, two_adic)


def diophantine_check(a: int, k: int, c: int, delta: int, alpha: int,
                      beta: int) -> bool:
    """Exactly verify delta*(beta^2 - alpha^2) = sqrt(4k^2 + (a-c)^2) and
    delta*(alpha^2 + beta^2) = 2k + a + c.
    """
    if min(a, k, c, delta, alpha, beta) < 1:
        raise ValueError("all parameters must be positive")
    if square_free_part(delta)[1] != 1:
        raise ValueError("delta must be square-free")
    sigma = 4 * k * k + (a - c) ** 2
    lhs = delta * (beta * beta - alpha * alpha)
    return lhs * lhs == sigma and delta * (alpha * alpha + beta * beta) == 2 * k + a + c


@dataclass(frozen=True)
class FamilyRecipe:
    """Integer parameters generating a proper-FR triple (a, k, c).

    p = f**2 + g_f**2 is a prime congruent to 1 mod 4, delta is square-free,
    and p divides delta*(beta**2 - alpha**2) = p*d.
    """

    p: int
    f: int
    g_f: int
    delta: int
    alpha: int
    beta: int
    d: int

    @classmethod
    def from_parameters(cls, p: int, delta: int, alpha: int,
                        beta: int) -> "FamilyRecipe":
        f, g_f = fermat_two_squares(p)
        if delta < 1 or square_free_part(delta)[1] != 1:
            raise ValueError("delta must be a square-free positive integer")
        if alpha < 1 or beta < 1:
            raise ValueError("alpha and beta must be positive")
        if alpha > beta:
            alpha, beta = beta, alpha
        if alpha == beta:
            raise ValueError("alpha and beta must be distinct")
        if two_adic_valuation(alpha) == two_adic_valuation(beta):
            raise ValueError("alpha and beta need distinct 2-adic valuations")
        rem = delta * (beta * beta - alpha * alpha)
        if rem % p:
            raise ValueError(f"{p} does not divide delta*(beta^2 - alpha^2)")
        return cls(p, f, g_f, delta, alpha, beta, rem // p)


def generate_family(r: FamilyRecipe) -> tuple[int, int, int]:
    """Triple (a, k, c) with proper FR at pi/(gcd(alpha, beta)*sqrt(delta)).

    Rejects recipes whose alpha/beta ratio is too small to keep a positive;
    the bound is alpha/beta > sqrt((sqrt(2)-1)/(sqrt(2)+1)), about 0.414.
    """
    a = r.delta * r.alpha ** 2 - r.g_f * r.d * (r.f - r.g_f)
    k = r.f * r.g_f * r.d
    c = r.delta * r.alpha ** 2 + r.f * r.d * (r.f - r.g_f)
    if a < 1:
        raise ValueError(
            "nonpositive a: the recipe needs alpha/beta above about "
            f"{POSITIVITY_RATIO:.3f}, got {r.alpha / r.beta:.3f}")
    return a, k, c


def generate_polygamy_triple(p: int, r: int) -> tuple[int, int, int]:
    """Triple (a, k, c) with proper FR on the centers at exactly pi/p."""
    f, g_f = fermat_two_squares(p)
    if r < 1:
        raise ValueError("r must be a positive integer")
    a = p * p * r * r - g_f * p * (2 * r + 1) * (f - g_f)
    k = f * g_f * p * (2 * r + 1)
    c = p * p * r * r + f * p * (2 * r + 1) * (f - g_f)
    if a < 1:
        raise ValueError(f"nonpositive a for p={p}, r={r}; increase r")
    return a, k, c


__all__ = [
    "StellarAnalysis", "FamilyRecipe", "analyze", "diophantine_check",
    "generate_family", "generate_polygamy_triple", "POSITIVITY_RATIO",
]
