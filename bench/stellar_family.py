"""stellar-family: the fused-star family X(a, k, c) end to end.

Per pass, drawn from three seeded sources:

- ``generate_family`` recipes (p, delta, alpha, beta), one from each of
  RECIPES equal strata of the recipe pool ordered by n (n <= 400);
- ``generate_polygamy_triple(p, r)``: p = 5 with r = 1, 2 (n = 97, 277)
  twice each, and p = 13, 17, 29 with r = 2 (n > 1000, exact analysis only);
- random triples with a, c <= 1000 and k in [10^4, 10^5] whose
  sigma = 4k^2 + (a - c)^2 is not a square (exact analysis only),
  stratified by the trial-division work sigma costs (``hardness``).

A request is one triple: ``analyze`` always; when n <= DECOMPOSE_MAX_N also
``stellar_decompose``, ``certify_fr(0, 1)`` and ``verify_fr_at(tau_min)``;
``polygamy_witness`` when the product K2 x X has at most WITNESS_MAX_N
vertices; ``charpoly_int`` on the CHARPOLY small triples. Each pass also
makes two in-process ``cli.main`` calls, ``family --polygamy`` and
``stellar``, each one request.

The referee is integer arithmetic of the benchmark's own: the generator
formulas, the Diophantine identities, whether sigma is a square. The numeric
verdict must equal the exact one, and ``charpoly_int`` must equal
``char_poly_suite()["phi"]``.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import random
from collections import Counter
from functools import lru_cache

from harness import Layers, Request, oracle

DECOMPOSE_MAX_N = 1000
WITNESS_MAX_N = 200
RECIPE_MAX_N = 400
RECIPES = 30
BIG_K = 150
BIG_K_RANGE = (10**4, 10**5)
BIG_AC_MAX = 1000
SMALL_PRIME_LIMIT = 3500  # sigma < 4.1e10 < 3500**3
# The 2%, 4%, ..., 98% quantiles of ``hardness`` over 100,000 draws of
# ``_draw_big_k(random.Random("hardness-reference"))``: 50 equal-mass bins,
# BIG_K / 50 triples from each.
HARDNESS_EDGES = (
    105, 160, 219, 269, 317, 380, 433, 509, 577, 653, 733, 821, 928, 1021,
    1122, 1241, 1381, 1553, 1709, 1889, 2085, 2297, 2544, 2801, 3109, 3442,
    3797, 4217, 4707, 5255, 5861, 6581, 7442, 8369, 9468, 10797, 12324,
    14093, 16329, 19037, 22397, 26299, 31165, 37107, 44700, 55381, 69474,
    88586, 133036)
POLYGAMY = ((5, 1), (5, 2), (5, 1), (5, 2), (13, 2), (17, 2), (29, 2))
CHARPOLY = 2
CHARPOLY_N = (14, 20)
FAMILY_PRIMES = (5, 13, 17, 29)
FAMILY_R = 60
SMOKE = {"recipes": 3, "big_k": 50, "polygamy": ((5, 1), (13, 2)),
         "charpoly": 1, "family_r": 5}
EXACT_OF_NUMERIC = {"proper-FR": "proper-FR", "proper-PST": "proper-FR",
                    "improper-only": "improper-FR", "none": "no-FR"}
TAU_TOL = 1e-12

# Request time of one pass on the reference machine (see NOTES.md).
PASS_SECONDS = 1.8


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _two_squares(p: int) -> tuple[int, int]:
    """p = f^2 + g^2 with f > g > 0."""
    for g in range(1, math.isqrt(p // 2) + 1):
        f = math.isqrt(p - g * g)
        if f * f == p - g * g:
            return f, g
    raise ValueError(f"{p} is not a sum of two squares")


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


def recipe_triple(p: int, delta: int, alpha: int, beta: int) -> tuple[int, int, int]:
    f, g = _two_squares(p)
    d = delta * (beta * beta - alpha * alpha) // p
    return (delta * alpha ** 2 - g * d * (f - g), f * g * d,
            delta * alpha ** 2 + f * d * (f - g))


def polygamy_triple(p: int, r: int) -> tuple[int, int, int]:
    f, g = _two_squares(p)
    return (p * p * r * r - g * p * (2 * r + 1) * (f - g),
            f * g * p * (2 * r + 1),
            p * p * r * r + f * p * (2 * r + 1) * (f - g))


@lru_cache(maxsize=None)
def recipe_pool() -> tuple[tuple[int, int, int, int], ...]:
    """Valid recipes (p, delta, alpha, beta) with p < 200, delta < 40,
    alpha < 40 and beta < 60 whose X(a, k, c) has n <= RECIPE_MAX_N, by n."""
    pool = []
    for p in (q for q in range(5, 200) if q % 4 == 1 and _is_prime(q)):
        for delta in (d for d in range(1, 40) if _squarefree(d)):
            for alpha in range(1, 40):
                for beta in range(alpha + 1, 60):
                    if _v2(alpha) == _v2(beta) or \
                            delta * (beta * beta - alpha * alpha) % p:
                        continue
                    a, k, c = recipe_triple(p, delta, alpha, beta)
                    if a >= 1 and a + k + c + 2 <= RECIPE_MAX_N:
                        pool.append((a + k + c + 2, p, delta, alpha, beta))
    return tuple(r[1:] for r in sorted(pool))


@lru_cache(maxsize=None)
def _small_primes(limit: int = SMALL_PRIME_LIMIT) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit + 1, d)))
    return tuple(i for i, is_p in enumerate(sieve) if is_p)


def _is_prime_mr(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.4e14."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard)."""
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ValueError(f"no factor of {n} found")


def hardness(sigma: int) -> int:
    """Work of trial-division square-free factoring of sigma, in steps.

    The divisor has to pass the second-largest prime factor P2 and the
    square root of the largest, P1: max(P2, isqrt(P1)). Valid for
    sigma < SMALL_PRIME_LIMIT**3, where at most two prime factors exceed
    SMALL_PRIME_LIMIT.
    """
    factors = []
    for p in _small_primes():
        while sigma % p == 0:
            factors.append(p)
            sigma //= p
    if sigma > 1:
        if _is_prime_mr(sigma):
            factors.append(sigma)
        else:
            q = _rho(sigma)
            factors += [q, sigma // q]
    factors.sort()
    p2 = factors[-2] if len(factors) > 1 else 1
    return max(p2, math.isqrt(factors[-1]))


def _draw_big_k(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        a, c = rng.randint(1, BIG_AC_MAX), rng.randint(1, BIG_AC_MAX)
        k = rng.randint(*BIG_K_RANGE)
        sigma = 4 * k * k + (a - c) ** 2
        if math.isqrt(sigma) ** 2 != sigma:
            return a, k, c, hardness(sigma)


def _big_k(rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    """Random big-k triples, stratified by ``hardness``: each of the equal-mass
    bins between HARDNESS_EDGES gets the same share. Their cost spans three
    orders of magnitude, so an unstratified draw moves the median by tens of
    percent from seed to seed."""
    per_bin = count // (len(HARDNESS_EDGES) + 1)
    bins = [[] for _ in range(len(HARDNESS_EDGES) + 1)]
    while any(len(b) < per_bin for b in bins):
        a, k, c, h = _draw_big_k(rng)
        slot = bisect.bisect_right(HARDNESS_EDGES, h)
        if len(bins[slot]) < per_bin:
            bins[slot].append((a, k, c))
    return [t for b in bins for t in b]


def _small(rng: random.Random) -> tuple[int, int, int]:
    n = rng.randint(*CHARPOLY_N)
    a = rng.randint(1, n - 4)
    k = rng.randint(1, n - 3 - a)
    return a, k, n - 2 - a - k


def generate(seed: int, pass_idx: int, smoke: bool) -> list[dict]:
    rng = random.Random(f"stellar-family/{seed}/{pass_idx}")
    recipes = SMOKE["recipes"] if smoke else RECIPES
    pool = recipe_pool()
    items = []
    for i in range(recipes):
        lo, hi = i * len(pool) // recipes, (i + 1) * len(pool) // recipes
        p, delta, alpha, beta = pool[rng.randrange(lo, hi)]
        items.append({"kind": "recipe", "recipe": (p, delta, alpha, beta),
                      "triple": recipe_triple(p, delta, alpha, beta),
                      "tau": math.pi / (math.gcd(alpha, beta) * math.sqrt(delta)),
                      "delta_ab": (delta, alpha, beta)})
    for p, r in SMOKE["polygamy"] if smoke else POLYGAMY:
        items.append({"kind": "polygamy", "p": p, "r": r,
                      "triple": polygamy_triple(p, r), "tau": math.pi / p})
    for triple in _big_k(rng, SMOKE["big_k"] if smoke else BIG_K):
        items.append({"kind": "big-k", "triple": triple})
    for _ in range(SMOKE["charpoly"] if smoke else CHARPOLY):
        items.append({"kind": "charpoly", "triple": _small(rng)})
    p = rng.choice(FAMILY_PRIMES)
    family_r = SMOKE["family_r"] if smoke else FAMILY_R
    items.append({"kind": "cli", "p": p, "r": family_r,
                  "argv": ["family", "--p", str(p), "--polygamy",
                           f"1..{family_r}", "--workers", "2"]})
    a, k, c = items[0]["triple"]
    items.append({"kind": "cli", "argv": ["stellar", "--stellar", f"{a},{k},{c}"],
                  "verdict": "proper-FR"})
    rng.shuffle(items)
    if pass_idx < 0:
        # The untimed warm-up pass needs only a quarter of the triples, and
        # both CLI calls.
        items = [item for i, item in enumerate(items)
                 if item["kind"] == "cli" or i % 4 == 0]
    return items


def build(L: Layers, raw: list[dict]) -> list[dict]:
    """Triples and argument lists go to the program as they are."""
    return raw


def requests(inputs: list[dict], verdicts: Counter) -> list[Request]:
    out = []
    for item in inputs:
        if item["kind"] == "cli":
            out.append(Request(_run_cli(item), _check_cli(item)))
        else:
            out.append(Request(_run(item), _check(item, verdicts)))
    return out


def _run(item: dict):
    kind = item["kind"]

    def run(L: Layers):
        out: dict = {}
        if kind == "recipe":
            out["triple"] = L.generate_family(L.from_parameters(*item["recipe"]))
        elif kind == "polygamy":
            out["triple"] = L.generate_polygamy_triple(item["p"], item["r"])
        else:
            out["triple"] = item["triple"]
        a, k, c = out["triple"]
        out["analysis"] = L.analyze(a, k, c)
        n = a + k + c + 2
        if n <= DECOMPOSE_MAX_N:
            D = L.stellar_decompose(a, k, c)
            cert = out["cert"] = L.certify_fr(D, 0, 1)
            if cert.is_proper:
                out["confirmed"] = oracle(L, D, 0, 1, cert.tau_min)[1]
        if kind == "polygamy" and 2 * n <= WITNESS_MAX_N:
            out["witness"] = L.polygamy_witness(a, k, c, (item["p"] - 1) // 2)
        if kind == "charpoly":
            A = L.build_stellar(a, k, c).adjacency().astype(int).tolist()
            out["charpoly"] = L.charpoly_int(A)
        return out
    return run


def _check(item: dict, verdicts: Counter):
    def check(out: dict) -> list[str]:
        from revival_lab.spectral import char_poly_suite

        problems = []
        a, k, c = out["triple"]
        an = out["analysis"]
        verdicts[an.verdict] += 1
        if out["triple"] != item["triple"]:
            problems.append(f"generated {out['triple']}, expected {item['triple']}")
        mu, sigma = 2 * k + a + c, 4 * k * k + (a - c) ** 2
        if item["kind"] in ("recipe", "polygamy"):
            if an.verdict != "proper-FR" or abs(an.tau_min - item["tau"]) > TAU_TOL:
                problems.append(f"X{out['triple']}: {an.verdict} at {an.tau_min}, "
                                f"expected proper-FR at {item['tau']}")
            elif item["kind"] == "recipe":
                delta, alpha, beta = item["delta_ab"]
                if (delta * (beta ** 2 - alpha ** 2)) ** 2 != sigma or \
                        delta * (alpha ** 2 + beta ** 2) != mu:
                    problems.append("recipe fails the Diophantine identities")
        elif item["kind"] == "big-k" and an.verdict != "no-FR":
            problems.append(f"sigma={sigma} is not a square, got {an.verdict}")
        if "cert" in out:
            exact = EXACT_OF_NUMERIC[out["cert"].verdict]
            if exact != an.verdict:
                problems.append(f"numeric {out['cert'].verdict}, exact {an.verdict}")
            if out.get("confirmed") is False:
                problems.append("oracle does not confirm the proper verdict")
        if "witness" in out and not out["witness"].is_polygamous:
            problems.append("polygamy witness is not polygamous")
        if "charpoly" in out and out["charpoly"] != char_poly_suite(a, k, c)["phi"]:
            problems.append("charpoly_int differs from the closed form")
        return problems
    return check


def _run_cli(item: dict):
    def run(L: Layers):
        out = io.StringIO()
        code = L.main(list(item["argv"]), out)
        return code, out.getvalue()
    return run


def _check_cli(item: dict):
    def check(answer) -> list[str]:
        code, text = answer
        if code != 0:
            return [f"{' '.join(item['argv'])} exited {code}"]
        lines = text.splitlines()
        if item["argv"][0] == "stellar":
            doc = json.loads(text)
            return [] if doc["verdict"] == item["verdict"] else \
                [f"stellar CLI verdict {doc['verdict']}"]
        problems = []
        if len(lines) != item["r"]:
            problems.append(f"family printed {len(lines)} lines, expected {item['r']}")
        for r, line in enumerate(lines, 1):
            doc = json.loads(line)
            if (doc["a"], doc["k"], doc["c"]) != polygamy_triple(item["p"], r) \
                    or doc["verdict"] != "proper-FR" or doc.get("diophantine") is not True:
                problems.append(f"family line {r}: {line[:80]}")
                break
        return problems
    return check
