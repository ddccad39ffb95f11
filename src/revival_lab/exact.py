"""Exact arithmetic helpers: square-free parts, 2-adic valuations and integer
characteristic polynomials.

Everything in this module is exact; no floating point enters except in
explicit conversions (``float(...)``).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np


def square_free_part(n: int, steps: float = math.inf) -> tuple[int, int]:
    """Split a positive integer as n = delta * m**2 with delta square-free.

    Returns (delta, m). Primes p are divided out while p**3 <= the cofactor.
    Once p**3 > it, the cofactor has at most two prime factors, each >= p,
    so it is 1, q, q**2 or q*r, and one isqrt splits it. A cofactor with
    p**3 <= it past _TRIAL_LIMIT goes to _prime_factors. Raises
    ArithmeticError when a split of that cofactor takes more than ``steps``
    steps of Pollard-Brent rho or of trial division past _TRIAL_LIMIT.
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    primes, p = [], 2
    while p < _TRIAL_LIMIT and p * p * p <= n:
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1 if p == 2 else 2
    if p * p * p <= n:
        primes += _prime_factors(n, p, steps)
        n = 1
    r = math.isqrt(n)
    delta, m = (1, r) if r * r == n else (n, 1)
    for q in set(primes):
        e = primes.count(q)
        m *= q ** (e // 2)
        if e % 2:
            delta *= q
    return delta, m


# square_free_part divides out the primes below this; a cofactor past it
# is split by Pollard-Brent rho, with a gcd taken every _RHO_BATCH steps.
_TRIAL_LIMIT = 1000
_RHO_BATCH = 128


def _trial_division(n: int, d: int, limit: float) -> tuple[list[int], int, int]:
    """Divide out of n the primes among the odd numbers from an odd d up to
    below ``limit`` while d**2 <= n; returns (primes with multiplicity,
    cofactor, next d)."""
    primes = []
    while d < limit and d * d <= n:
        while n % d == 0:
            primes.append(d)
            n //= d
        d += 2
    return primes, n, d


def _prime_factors(n: int, d: int, steps: float = math.inf) -> list[int]:
    """The prime factors, with multiplicity, of an n >= 1 that has none
    below d, where d is past _TRIAL_LIMIT. n is prime when below d**2 or
    when ``is_prime`` proves it, and is split by Pollard-Brent rho
    otherwise. A probable prime past the proven range of ``is_prime`` is
    left to trial division, so the result is exact either way. Each rho
    split and that trial division may take ``steps`` steps; past them
    ArithmeticError is raised."""
    if d * d <= n:
        try:
            prime = is_prime(n)
        except ValueError:
            primes, n, d = _trial_division(n, d, d + 2 * steps)
            if d * d <= n:
                raise ArithmeticError(f"{n} not split in {steps} steps")
            return primes + ([n] if n > 1 else [])
        if not prime:
            q = _pollard_brent(n, steps)
            return _prime_factors(q, d, steps) + _prime_factors(n // q, d, steps)
    return [n] if n > 1 else []


def _pollard_brent(n: int, steps: float = math.inf) -> int:
    """A nontrivial factor of an odd composite n: Pollard's rho on
    x -> x**2 + c with Brent's cycle search and batched gcds (Brent, "An
    improved Monte Carlo factorization algorithm", BIT 20, 1980). A c whose
    cycle closes modulo n itself is replaced by the next one. Raises
    ArithmeticError rather than take more than about ``steps`` steps."""
    done = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if done + 2 * r > steps:
                raise ArithmeticError(f"{n} not split in {steps} steps")
            done += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: replay it with one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def two_adic_valuation(n: int) -> int:
    """Largest e such that 2**e divides n. Undefined (rejected) for n = 0."""
    if n == 0:
        raise ValueError("2-adic valuation of 0 is undefined")
    n = abs(n)
    return (n & -n).bit_length() - 1


# Miller-Rabin with these bases decides every n below 3.18e23 (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 3.18e23.

    Above that bound a witness still refutes a composite, but a number that
    passes every base raises ValueError rather than being called prime.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = two_adic_valuation(n - 1)
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime")
    return True


@functools.lru_cache(maxsize=1)
def fermat_two_squares(p: int) -> tuple[int, int]:
    """Write a prime p = 1 (mod 4) as f**2 + g**2 with f > g > 0.

    Cornacchia's algorithm (Cohen, A Course in Computational Algebraic
    Number Theory, 1.5.2): x = c**((p - 1) / 4) mod p, for a quadratic
    non-residue c, is a square root of -1; the Euclidean algorithm on
    (p, x) stops at its first remainder below sqrt(p), which is f. That
    takes O(log p) multiplications once c is found. The last p is kept
    for a family's many triples; a p that raises is not.
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"{p} is not a prime congruent to 1 mod 4")
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    x = pow(c, (p - 1) // 4, p)
    a, b = p, max(x, p - x)
    root = math.isqrt(p)
    while b > root:
        a, b = b, a % b
    g = math.isqrt(p - b * b)
    if g * g != p - b * b:
        raise AssertionError(f"no two-square decomposition found for {p}")
    return max(b, g), min(b, g)


_ZERO = Fraction(0)


def rationalize(x: float, max_denominator: int = 10**6,
                tol: float = 1e-7) -> Fraction | None:
    """Reconstruct a rational from a float via continued fractions.

    Returns None if no fraction with a bounded denominator reproduces x
    within tol.
    """
    if not math.isfinite(x):
        return None
    if abs(x) < min(tol, 0.5 / max_denominator):
        # every fraction but 0 with a bounded denominator is at least
        # 1/max_denominator from 0, so 0 is the closest; this skips the
        # continued fraction for the many ratios that vanish up to rounding
        return _ZERO
    cand = Fraction(x).limit_denominator(max_denominator)
    if abs(float(cand) - x) < tol:
        return cand
    return None


@functools.cache
def _primes_below(bits: int, block: int) -> tuple[int, ...]:
    """The block-th run of 16 primes below 2**bits, counting down from
    2**bits. Found on first use and memoised, so nothing runs at import;
    callers ask for blocks in order, which keeps the recursion one deep.
    """
    q = _primes_below(bits, block - 1)[-1] if block else 1 << bits
    found: list[int] = []
    while len(found) < 16:
        q -= 1
        if is_prime(q):
            found.append(q)
    return tuple(found)


# The int64 bytes of one pass of _charpoly_mod: the (matrix, prime) slices
# of a stack past it run in further passes. At n = 1,000 a pass holds 4.
_PASS_BYTES = 1 << 25


def _charpoly_mod(H: np.ndarray, p: np.ndarray) -> np.ndarray:
    """det(tI - H[i]) mod p[i], ascending, for each slice i of an int64
    stack H of shape (s, n, n) with entries in [0, p[i]); returns the
    (s, n + 1) residues. Each slice is reduced in place to upper Hessenberg
    form by similarity (Cohen, A Course in Computational Algebraic Number
    Theory, alg. 2.2.9) with its own pivots: a slice whose pivot is 0 swaps
    in its first nonzero row below, and one with none below eliminates
    nothing. The steps of column j run on the rows from the first that is
    nonzero in any slice, with factor 0 where a slice's entry is 0. Callers
    keep n * p**2 + p below 2**63, so no int64 sum can overflow.
    """
    s, n, _ = H.shape
    primes = p.tolist()
    p2, p3 = p[:, None], p[:, None, None]
    for j in range(n - 2):
        below = H[:, j + 2:, j].T.nonzero()[0]
        if below.size == 0:
            continue
        lo = j + 2 + int(below[0])
        inverses = []
        for t, (x, q) in enumerate(zip(H[:, j + 1, j].tolist(), primes)):
            if not x:
                rows = H[t, j + 2:, j].nonzero()[0]
                if rows.size:
                    i = j + 2 + int(rows[0])
                    H[t, [i, j + 1]] = H[t, [j + 1, i]]
                    H[t, :, [i, j + 1]] = H[t, :, [j + 1, i]]
                    x = int(H[t, j + 1, j])
            inverses.append(pow(x, -1, q) if x else 0)
        f = H[:, lo:, j] * np.array(inverses)[:, None] % p2
        # row i >= lo loses f_i times row j+1, and column j+1 gains f_i
        # times column i, which undoes the row step on the other side
        block = H[:, lo:, j:]
        block -= f[:, :, None] * H[:, j + 1, None, j:]
        block %= p3
        column = H[:, :, j + 1]
        column += (H[:, :, lo:] @ f[:, :, None])[:, :, 0]
        column %= p2
    # P[m+1] = det(tI - H[:m+1, :m+1]) = t P[m] - sum_{i<=m} H[i, m] w[i] P[i]
    # with w[i] = H[i+1, i] * ... * H[m, m-1] and w[m] = 1; the sum starts
    # at first[m], the first row of column m that is nonzero in any slice
    upper = np.triu((H != 0).any(axis=0))
    first = np.where(upper.any(axis=0), upper.argmax(axis=0),
                     np.arange(1, n + 1)).tolist()
    P = np.zeros((s, n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    w = np.ones((s, n), dtype=np.int64)
    for m, lo in enumerate(first):
        if m:
            w_m = w[:, :m]
            w_m *= H[:, m, m - 1, None]
            w_m %= p2
        row = P[:, m + 1]
        row[:, 1:] = P[:, m, :-1]
        if lo <= m:
            c = H[:, lo:m + 1, m] * w[:, lo:m + 1] % p2
            row -= (c[:, None, :] @ P[:, lo:m + 1])[:, 0]
            row %= p2
    return P[:, n]


def charpoly_int(A: Sequence[Sequence[int]]) -> list[int]:
    """Exact characteristic polynomial of a square integer matrix.

    Returns coefficients c_0..c_n (ascending) of det(tI - A). Multi-modular
    Hessenberg method: for each word-size prime p, A mod p is reduced to
    upper Hessenberg form by similarity and det(tI - A) mod p read from the
    Hessenberg recurrence (Cohen, ch. 2). The residues are combined by the
    Chinese remainder theorem into symmetric residues once the product of
    the primes exceeds 2 C(n, k) (F/n)**(k/2) for every k, where F is the
    sum of the squared entries. |c_{n-k}| is the k-th elementary symmetric
    function of the eigenvalues, so it is at most C(n, k) mean|lambda|**k
    by Maclaurin's inequality, and mean|lambda|**2 <= F/n by Schur's. The
    symmetric residue is then the coefficient itself: the result is exact,
    not probabilistic. Cost: O(n**3) int64 work per prime, with the primes
    planned up front and reduced as one stack, so each numpy step of the
    reduction serves all of them (a stack past 2**25 bytes takes further
    passes). The bound is at most (1 + sqrt(F/n))**n, so about
    n * log2(1 + sqrt(F/n)) / 27 primes of 27 bits at n = 200. As
    F <= n R**2, R the largest absolute row sum, that is never more than
    the n * log2(1 + R) / 27 primes of the row-sum bound C(n, k) R**k.
    """
    n = len(A)
    if n == 0:
        return [1]
    try:
        entries = np.array(A, dtype=np.int64)
    except OverflowError:
        # entries past int64 are reduced as Python ints modulo each prime
        entries = np.array([[int(x) for x in row] for row in A], dtype=object)
    if entries.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    return _charpolys_int(entries[None])[0]


def _charpolys_int(stack: np.ndarray) -> list[list[int]]:
    """charpoly_int of each matrix of an int64 or object stack of shape
    (s, n, n), n >= 1. Each matrix gets the primes of its own bound, and all
    (matrix, prime) slices run through _charpoly_mod together, one pass per
    _PASS_BYTES of them."""
    s, n, _ = stack.shape
    # n * p**2 + p < 2**63 for every p < 2**bits
    bits = (62 - n.bit_length()) // 2
    needs = []
    for M in stack:
        F = sum(x * x for x in M[M != 0].tolist())
        # modulus > 2 C(n, k) (F/n)**(k/2) exactly when modulus**2 exceeds
        # the floor of 4 C(n, k)**2 F**k / n**k, since modulus**2 is an
        # integer. Its term k + 1 is term k times ((n - k)/(k + 1))**2 F/n,
        # a ratio that falls as k grows: the terms rise to one peak, carried
        # as num/den with an exact division (num stays 4 C(n, k)**2 F**k)
        num, den, k = 4, 1, 0
        while (n - k) ** 2 * F > n * (k + 1) ** 2:
            num = num * (n - k) ** 2 * F // (k + 1) ** 2
            den *= n
            k += 1
        needs.append(num // den)
    # moduli[c] is the product of the first c primes; matrix i takes the
    # fewest primes, at least one, whose product squared exceeds needs[i]
    primes, moduli = [], [1]
    for p in (p for block in itertools.count()
              for p in _primes_below(bits, block)):
        primes.append(p)
        moduli.append(moduli[-1] * p)
        if moduli[-1] ** 2 > max(needs):
            break
    counts = [next(c for c, m in enumerate(moduli) if c and m * m > need)
              for need in needs]
    owner = np.repeat(np.arange(s), counts)
    slice_primes = np.array([p for c in counts for p in primes[:c]],
                            dtype=np.int64)
    per_pass = max(1, _PASS_BYTES // (8 * n * n))
    residues: list[list[int]] = []
    for at in range(0, len(owner), per_pass):
        q = slice_primes[at:at + per_pass]
        # object entries are reduced as Python ints, by Python int primes
        H = stack[owner[at:at + len(q)]] % q.astype(stack.dtype)[:, None, None]
        residues += _charpoly_mod(H.astype(np.int64, copy=False), q).tolist()
    polys, at = [], 0
    for c in counts:
        coeffs, modulus = [0] * (n + 1), 1
        for p, r in zip(primes[:c], residues[at:at + c]):
            # Garner step: lift coeffs mod `modulus` to coeffs mod modulus * p
            inv = pow(modulus % p, -1, p)
            coeffs = [x + modulus * ((y - x) * inv % p)
                      for x, y in zip(coeffs, r)]
            modulus *= p
        at += c
        half = modulus // 2
        polys.append([x - modulus if x > half else x for x in coeffs])
    return polys
