import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from referees import build_path, poly_mul, poly_sub
from revival_lab import exact
from revival_lab.exact import (_TRIAL_LIMIT, charpoly_int,
                               fermat_two_squares, is_prime, rationalize,
                               square_free_part, two_adic_valuation)
from revival_lab.graphs import Graph, build_stellar
from revival_lab.spectral import char_poly_suite
from revival_lab.stellar import _SURD_STEPS


class TestSquareFreePart:
    def test_basic_splits(self):
        assert square_free_part(1) == (1, 1)
        assert square_free_part(4) == (1, 2)
        assert square_free_part(12) == (3, 2)
        assert square_free_part(45) == (5, 3)
        assert square_free_part(720) == (5, 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            square_free_part(0)
        with pytest.raises(ValueError):
            square_free_part(-4)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_reconstruction_and_square_freeness(self, n):
        delta, m = square_free_part(n)
        assert delta * m * m == n
        for d in range(2, math.isqrt(delta) + 1):
            assert delta % (d * d) != 0

    @staticmethod
    def trial_division(n):
        delta, m, d = 1, 1, 2
        while d * d <= n:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            m *= d ** (e // 2)
            delta *= d ** (e % 2)
            d += 1
        return delta * n, m

    def test_matches_trial_division(self):
        rng = random.Random(3)
        for n in [rng.randrange(1, 10**7) for _ in range(3000)] + \
                 list(range(999_000, 1_003_000)):
            assert square_free_part(n) == self.trial_division(n), n

    def test_products_of_30_bit_primes(self):
        rng = random.Random(30)

        def prime():
            while True:
                q = rng.getrandbits(30) | (1 << 29) | 1
                if is_prime(q):
                    return q

        for _ in range(4):
            p, q = prime(), prime()
            assert square_free_part(p * q) == (p * q, 1)
            assert square_free_part(p * p) == (1, p)
            assert square_free_part(12 * p * p * q) == (3 * q, 2 * p)
            assert square_free_part(p ** 3 * q ** 2) == (p, p * q)

    @staticmethod
    def split_of(primes):
        """(delta, m) of the product of ``primes``, read from the exponents."""
        delta, m = 1, 1
        for q in set(primes):
            e = primes.count(q)
            delta *= q ** (e % 2)
            m *= q ** (e // 2)
        return delta, m

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []
        real = exact._prime_factors

        def counting(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(exact, "_prime_factors", counting)
        return calls

    def test_cube_root_boundary(self, factor_calls):
        """p**3, p**2 q, p q**2 and p q with q the primes next to p: the
        cube root of n falls between p and q, or on p. Trial division
        stops once p**3 exceeds the cofactor, and the cofactor left (1, q,
        q**2 or q r) is split by one isqrt. Below 10**9 nothing reaches
        _prime_factors."""
        primes = [q for q in range(2, 1000) if is_prime(q)]
        for i in [*range(25), *range(len(primes) - 6, len(primes) - 1)]:
            p = primes[i]
            for q in (primes[i - 1] if i else 2, p, primes[i + 1]):
                for factors in ([p] * 3, [p, p, q], [p, q, q], [p, q]):
                    n = math.prod(factors)
                    expected = self.split_of(factors)
                    assert square_free_part(n) == expected, factors
                    if n < 10**8:
                        assert self.trial_division(n) == expected, factors
        assert factor_calls == []

    def test_products_of_three_primes_below_1000(self, factor_calls):
        primes = [q for q in range(2, 1000) if is_prime(q)]
        rng = random.Random(29)
        for i in range(3000):
            factors = [rng.choice(primes) for _ in range(3)]
            n = math.prod(factors)
            assert square_free_part(n) == self.split_of(factors), factors
            if i < 100:
                assert square_free_part(n) == self.trial_division(n), factors
        assert factor_calls == []

    @pytest.mark.parametrize("factors", [
        [1009, 1009, 1013], [1009, 1013, 1019], [1009] * 3,
        [2, 2, 3, 1009, 1013, 1019], [1009] * 4, [1013, 1019, 1021, 1031]])
    def test_cofactors_past_the_trial_limit(self, factors, factor_calls):
        """A cofactor past 10**9 with no prime below _TRIAL_LIMIT may have
        three or more prime factors: it goes to _prime_factors."""
        n = math.prod(factors)
        assert square_free_part(n) == self.split_of(factors)
        assert square_free_part(n) == self.trial_division(n)
        assert factor_calls[0] == math.prod(q for q in factors
                                            if q > _TRIAL_LIMIT)

    def test_step_budget_still_bounds_the_split(self):
        # sigma of X(1, 10**15, 2): two 16-digit primes, not split by
        # Pollard-Brent within the budget that the surd display allows
        with pytest.raises(ArithmeticError):
            square_free_part(4 * 10**30 + 1, steps=_SURD_STEPS)

    def test_probable_prime_past_the_proven_range(self):
        """A probable prime past the bound of is_prime goes to trial
        division, which the step budget stops."""
        q = exact._MR_BOUND | 1
        while True:
            try:
                is_prime(q)
            except ValueError:
                break
            q += 2
        for n in (q, 12 * q):
            with pytest.raises(ArithmeticError):
                square_free_part(n, steps=1000)


class TestTwoAdic:
    def test_values(self):
        assert two_adic_valuation(1) == 0
        assert two_adic_valuation(2) == 1
        assert two_adic_valuation(-12) == 2
        assert two_adic_valuation(96) == 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            two_adic_valuation(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_definition(self, n):
        e = two_adic_valuation(n)
        assert n % (2 ** e) == 0 and (n // 2 ** e) % 2 == 1


def test_fermat_two_squares():
    assert fermat_two_squares(5) == (2, 1)
    assert fermat_two_squares(13) == (3, 2)
    assert fermat_two_squares(17) == (4, 1)
    f, g = fermat_two_squares(97)
    assert f * f + g * g == 97 and f > g > 0
    with pytest.raises(ValueError):
        fermat_two_squares(7)
    with pytest.raises(ValueError):
        fermat_two_squares(10)


def brute_force_two_squares(p: int) -> tuple[int, int]:
    """Reference: search g = 1, 2, ... until p - g**2 is a square."""
    for g in range(1, math.isqrt(p // 2) + 1):
        f = math.isqrt(p - g * g)
        if f * f == p - g * g:
            return f, g
    raise AssertionError(p)


def test_fermat_two_squares_matches_brute_force():
    sieve = bytearray([1]) * 10**5
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, len(sieve), d)))
    primes = [p for p in range(5, len(sieve), 4) if sieve[p]]
    assert len(primes) == 4783  # primes = 1 (mod 4) below 10**5
    for p in primes:
        assert fermat_two_squares(p) == brute_force_two_squares(p), p


def test_fermat_two_squares_large_prime():
    p = 1234567890123456817  # the least prime = 1 (mod 4) from 1234567890123456789
    assert is_prime(p) and p % 4 == 1
    start = time.perf_counter()
    f, g = fermat_two_squares(p)
    elapsed = time.perf_counter() - start
    assert f * f + g * g == p and f > g > 0
    # the O(sqrt p) search needed about 150 s here
    assert elapsed < 0.01, elapsed


def trial_division_is_prime(n: int) -> bool:
    """Reference primality test: a divisor search up to sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# the least strong pseudoprimes to the first 4..11 prime bases; each has a
# prime factor below 1.1e7, so the reference refutes it quickly
STRONG_PSEUDOPRIMES = [3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051]
# the least strong pseudoprime to all twelve bases 2..37 used by is_prime
PSI_12 = 318665857834031151167461


def test_is_perfect_square_and_prime():
    assert is_prime(2) and is_prime(17) and not is_prime(1)
    assert not is_prime(91)
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n) and not trial_division_is_prime(n), n
    assert is_prime(2**61 - 1)  # Mersenne prime, beyond trial division
    # above the bound a witness still refutes a composite, ...
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    # ... but a number that passes every base is not called prime
    for n in (PSI_12, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_rationalize():
    assert rationalize(0.5) == Fraction(1, 2)
    assert rationalize(float(Fraction(-3, 7))) == Fraction(-3, 7)
    # every float is rational within the default slack; tighten to reject
    assert rationalize(math.pi, max_denominator=50, tol=1e-9) is None
    assert rationalize(float("nan")) is None


def faddeev_leverrier(A):
    """Reference det(tI - A), ascending: Faddeev-LeVerrier over Python ints.

    O(n**4), but every step is plain integer arithmetic with exact
    divisions, so it shares nothing with the multi-modular method.
    """
    n = len(A)
    coeffs = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        M = [[sum(A[i][l] * M[l][j] for l in range(n)) + (c if i == j else 0)
              for j in range(n)] for i in range(n)]
        trace = sum(A[i][l] * M[l][i] for i in range(n) for l in range(n))
        c, r = divmod(-trace, k)
        assert r == 0
        coeffs[n - k] = c
    return coeffs


def per_prime_charpoly_mod(H, p):
    """Reference det(tI - H) mod p for one matrix, given as lists of ints in
    [0, p), and one prime: the Hessenberg reduction and recurrence of
    ``_charpoly_mod`` in pure Python, one entry at a time, with that
    prime's own pivots."""
    H = [list(row) for row in H]
    n = len(H)
    for j in range(n - 2):
        i = next((i for i in range(j + 1, n) if H[i][j]), None)
        if i is None:
            continue
        if i != j + 1:
            H[i], H[j + 1] = H[j + 1], H[i]
            for row in H:
                row[i], row[j + 1] = row[j + 1], row[i]
        pivot = H[j + 1]
        inv = pow(pivot[j], -1, p)
        for r in range(j + 2, n):
            row = H[r]
            if row[j]:
                f = row[j] * inv % p
                row[j:] = [(x - f * y) % p for x, y in zip(row[j:], pivot[j:])]
                for other in H:
                    other[j + 1] = (other[j + 1] + f * other[r]) % p
    # P[m] = det(tI - H[:m, :m]) = t P[m-1] - sum_{i<m} H[i, m-1] w[i] P[i]
    # with w[i] = H[i+1, i] * ... * H[m-1, m-2]
    P = [[1]]
    for m in range(n):
        P.append([0] + P[m])
        w = 1
        for i in range(m, -1, -1):
            if H[i][m]:
                c = H[i][m] * w % p
                for e, x in enumerate(P[i]):
                    P[m + 1][e] -= c * x
            if i:
                w = w * H[i][i - 1] % p
        P[m + 1] = [x % p for x in P[m + 1]]
    return P[n]


def per_prime_charpoly(A, primes):
    """Reference charpoly_int over the given primes: one reduction per
    prime, then the Chinese remainder theorem into symmetric residues."""
    coeffs, modulus = [0] * (len(A) + 1), 1
    for p in primes:
        H = [[x % p for x in row] for row in A]
        for e, r in enumerate(per_prime_charpoly_mod(H, p)):
            # the unique residue mod modulus * p that is coeffs[e] mod
            # modulus and r mod p
            coeffs[e] += modulus * ((r - coeffs[e])
                                    * pow(modulus, -1, p) % p)
        modulus *= p
    return [c - modulus if c > modulus // 2 else c for c in coeffs]


def path_poly(n):
    """phi(P_n) by the Chebyshev recurrence phi_n = t phi_{n-1} - phi_{n-2}."""
    prev, cur = [1], [0, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, poly_sub([0] + cur, prev)
    return cur


def adjacency(X):
    return X.adjacency().astype(int).tolist()


square_int_matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.integers(-2, 2),
                           st.integers(-10**6, 10**6)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))


class TestCharpolyInt:
    def test_small_matrices(self):
        # det(tI - A) for the single edge: t^2 - 1
        assert charpoly_int([[0, 1], [1, 0]]) == [-1, 0, 1]
        # P3: t^3 - 2t
        assert charpoly_int([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) == [0, -2, 0, 1]
        assert charpoly_int([]) == [1]

    def test_matches_numpy(self):
        import numpy as np
        rng = np.random.default_rng(7)
        A = rng.integers(-3, 4, size=(6, 6))
        A = (A + A.T).tolist()
        coeffs = charpoly_int(A)
        roots = np.roots(list(reversed(coeffs)))
        eigs = np.linalg.eigvals(np.array(A, dtype=float))
        assert np.allclose(sorted(roots.real), sorted(eigs.real), atol=1e-6)

    @settings(deadline=None)
    @given(square_int_matrices)
    def test_matches_faddeev_leverrier(self, A):
        assert charpoly_int(A) == faddeev_leverrier(A)

    def test_paths_by_chebyshev(self):
        for n in range(1, 61):
            assert charpoly_int(adjacency(build_path(n))) == path_poly(n), n

    def test_cycles(self):
        # phi(C_n) = phi(P_n) - phi(P_{n-2}) - 2
        for n in range(3, 31):
            C = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            expected = poly_sub(poly_sub(path_poly(n), path_poly(n - 2)), [2])
            assert charpoly_int(adjacency(C)) == expected, n

    def test_complete_graphs(self):
        for n in range(1, 31):
            A = [[int(i != j) for j in range(n)] for i in range(n)]
            expected = [1 - n, 1]
            for _ in range(n - 1):
                expected = poly_mul(expected, [1, 1])
            assert charpoly_int(A) == expected, n

    def test_complete_bipartite(self):
        for m, n in [(1, 1), (1, 5), (2, 3), (4, 4), (3, 9)]:
            A = [[int((i < m) != (j < m)) for j in range(m + n)]
                 for i in range(m + n)]
            expected = [0] * (m + n - 2) + [-m * n, 0, 1]
            assert charpoly_int(A) == expected, (m, n)

    @pytest.mark.parametrize("a,k,c", [(1, 1, 1), (3, 2, 6), (12, 6, 28),
                                       (2, 5, 7)])
    def test_fused_stars_closed_form(self, a, k, c):
        A = adjacency(build_stellar(a, k, c))
        assert charpoly_int(A) == char_poly_suite(a, k, c)["phi"]

    def test_entries_beyond_int64(self):
        big = 2**63
        A = [[big, 3, -1], [-5, 2**70 + 1, 0], [7, -big - 9, -2**64]]
        assert charpoly_int(A) == faddeev_leverrier(A)
        assert charpoly_int([[big]]) == [-big, 1]
        # about 70 primes: more than one memoised block of them
        huge = [[2**1000, -1], [3, -2**999 + 7]]
        assert charpoly_int(huge) == faddeev_leverrier(huge)

    def test_coefficients_beyond_int64(self):
        # c (J - I) on 10 vertices: (t - 9c)(t + c)^9, dense and signed,
        # with coefficients far past 2**63, so several primes are combined
        n, c = 10, 10**6
        A = [[c * (i != j) for j in range(n)] for i in range(n)]
        expected = [-(n - 1) * c, 1]
        for _ in range(n - 1):
            expected = poly_mul(expected, [c, 1])
        assert max(abs(x) for x in expected) > 2**63
        assert min(expected) < 0
        assert charpoly_int(A) == expected == faddeev_leverrier(A)

    def test_trivial_sizes(self):
        assert charpoly_int([[5]]) == [-5, 1]
        assert charpoly_int([[-3]]) == [3, 1]
        for n in (1, 2, 7):
            assert charpoly_int([[0] * n for _ in range(n)]) == [0] * n + [1]

    def test_word_primes_match_trial_division(self):
        # charpoly_int draws its primes from is_prime; 2047, 1373653 and
        # 25326001 are strong pseudoprimes to bases 2; 2, 3; and 2, 3, 5
        candidates = [*range(3000), *range(2**28 - 1000, 2**28),
                      2047, 1373653, 25326001]
        for q in candidates:
            assert is_prime(q) == trial_division_is_prime(q), q

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            charpoly_int([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("d", [1, 2, 7, 1000, -999, 10**6])
    def test_tight_bounds(self, d):
        """Maclaurin's and Schur's inequalities hold with equality here, so
        the product of the primes barely passes the coefficient bound."""
        for n in range(1, 31):
            scalar = [[d * (i == j) for j in range(n)] for i in range(n)]
            expected = [1]
            for _ in range(n):
                expected = poly_mul(expected, [-d, 1])
            assert charpoly_int(scalar) == expected, n
            # d times the cyclic shift: eigenvalues d * (n-th roots of 1)
            shift = [[d * (j == (i + 1) % n) for j in range(n)]
                     for i in range(n)]
            assert charpoly_int(shift) == [-d**n] + [0] * (n - 1) + [1], n

    @staticmethod
    def primes_used(monkeypatch, A):
        """charpoly_int(A) and the number of (matrix, prime) slices that
        its kernel passes reduced."""
        slices = []
        kernel = exact._charpoly_mod

        def counted(H, p):
            slices.extend(p.tolist())
            return kernel(H, p)

        monkeypatch.setattr(exact, "_charpoly_mod", counted)
        coeffs = charpoly_int(A)
        monkeypatch.setattr(exact, "_charpoly_mod", kernel)
        return coeffs, len(slices)

    def test_fused_stars_take_one_prime(self, monkeypatch):
        """Every X(a, k, c) on 14..20 vertices, the range stellar-family
        draws from, takes one prime, but for the six with n = 20 and
        k >= 14: their 4 C(n, k)**2 (F/n)**k reaches 2**57, past the square
        of one 28-bit prime. The row-sum bound asks for two or three."""
        for n in range(14, 21):
            for a in range(1, n - 3):
                for k in range(1, n - 2 - a):
                    c = n - 2 - a - k
                    A = adjacency(build_stellar(a, k, c))
                    coeffs, primes = self.primes_used(monkeypatch, A)
                    assert primes == 1 + (n == 20 and k >= 14), (a, k, c)
                    assert coeffs == char_poly_suite(a, k, c)["phi"]

    def test_dense_graph_takes_half_the_primes(self, monkeypatch):
        """G(50, 0.3) needs at most half the primes that the row-sum bound
        max_k C(n, k) R**k asks for."""
        rng = np.random.default_rng(17)
        M = np.triu(rng.random((50, 50)) < 0.3, 1).astype(int)
        A = (M + M.T).tolist()
        coeffs, primes = self.primes_used(monkeypatch, A)
        R = max(sum(row) for row in A)
        bound = max(math.comb(50, k) * R**k for k in range(51))
        bits = (62 - (50).bit_length()) // 2
        row_sum_primes, modulus = [], 1
        for q in exact._primes_below(bits, 0):
            row_sum_primes.append(q)
            modulus *= q
            if modulus > 2 * bound:
                break
        assert 2 * primes <= len(row_sum_primes)
        assert coeffs == per_prime_charpoly(A, row_sum_primes)

    def test_kernel_matches_per_prime_reference(self):
        """Seeded random matrices, n = 1..40: one stacked kernel pass gives
        the residues of the pure-Python reference modulo each of three
        primes, and charpoly_int the reference's polynomial. At every third
        n one entry equals the first prime of the block: zero modulo that
        prime alone, so the pivot of column 0 is zero in one slice only."""
        rng = random.Random(14)
        for n in range(1, 41):
            bits = (62 - n.bit_length()) // 2
            primes = exact._primes_below(bits, 0)[:3]
            A = [[rng.choice((0, 0, 1, -1, 2, rng.randint(-50, 50)))
                  for _ in range(n)] for _ in range(n)]
            if n % 3 == 0:
                A[1][0], A[2][0] = 0, primes[0]
            H = [[[x % p for x in row] for row in A] for p in primes]
            residues = exact._charpoly_mod(
                np.array(H, dtype=np.int64), np.array(primes)).tolist()
            for h, p, r in zip(H, primes, residues):
                assert r == per_prime_charpoly_mod(h, p), (n, p)
            # every coefficient is at most (1 + R)**n in absolute value
            R = max(sum(abs(x) for x in row) for row in A)
            need, modulus = [], 1
            for q in (q for block in range(100)
                      for q in exact._primes_below(bits, block)):
                if modulus > 2 * (1 + R) ** n:
                    break
                need.append(q)
                modulus *= q
            assert charpoly_int(A) == per_prime_charpoly(A, need), n

    def test_stack_pivots_are_per_slice(self):
        """In column 0 one slice has nothing below its zero pivot while the
        other has rows to eliminate: the first gets inverse 0 and keeps its
        rows, and each slice still matches the per-prime reference."""
        p, q = exact._primes_below(28, 0)[:2]
        lone = [[0, 0, 0, 5], [0, 0, 7, 1], [0, 2, 0, 3], [0, 4, 6, 0]]
        full = [[0, 0, 3, 1], [0, 1, 0, 2], [8, 0, 0, 5], [9, 6, 0, 0]]
        H = np.array([lone, full, full], dtype=np.int64)
        primes = np.array([p, p, q])
        residues = exact._charpoly_mod(H.copy(), primes).tolist()
        for h, prime, r in zip(H.tolist(), primes.tolist(), residues):
            assert r == per_prime_charpoly_mod(h, prime)
        rng = random.Random(25)
        for n in range(2, 16):
            primes = exact._primes_below(28, 0)[:5]
            mats = [[[rng.choice((0, 0, 0, 1, rng.randint(0, 40)))
                      for _ in range(n)] for _ in range(n)]
                    for _ in primes]
            H = [[[x % p for x in row] for row in M]
                 for M, p in zip(mats, primes)]
            residues = exact._charpoly_mod(
                np.array(H, dtype=np.int64), np.array(primes)).tolist()
            for h, p, r in zip(H, primes, residues):
                assert r == per_prime_charpoly_mod(h, p), (n, p)

    def test_byte_budget_cuts_passes(self, monkeypatch):
        """A stack past _PASS_BYTES runs in several kernel passes with the
        same polynomials: G(20, 0.5) takes several primes, and a budget of
        two 20 x 20 slices cuts them and a second matrix into passes."""
        rng = np.random.default_rng(20)
        M = np.triu(rng.random((20, 20)) < 0.5, 1).astype(np.int64)
        A = M + M.T
        B = A.copy()
        B[[0, 1]] = B[[1, 0]]
        stack = np.array([A, 3 * B])
        whole = exact._charpolys_int(stack)
        assert whole == [charpoly_int(S.tolist()) for S in stack]
        passes = []
        kernel = exact._charpoly_mod

        def counted(H, p):
            passes.append(len(p))
            return kernel(H, p)

        monkeypatch.setattr(exact, "_charpoly_mod", counted)
        monkeypatch.setattr(exact, "_PASS_BYTES", 2 * 8 * 20 * 20)
        assert exact._charpolys_int(stack) == whole
        assert len(passes) > 2 and max(passes) == 2
        passes.clear()
        monkeypatch.setattr(exact, "_PASS_BYTES", 1)
        assert exact._charpolys_int(stack) == whole
        assert set(passes) == {1}


def test_poly_helpers():
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert poly_sub([1, 2, 3], [1, 2]) == [0, 0, 3]
