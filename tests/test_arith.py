"""Tests for the integer/modular primitives.

Every routine is checked against an independent brute-force oracle on a
small range (exhaustive scans, Euler's criterion, direct reconstruction)
plus frozen single values computed by hand.
"""

from __future__ import annotations

import math
import random

import pytest

from sqavoid import arith
from sqavoid.arith import (
    BadPrime,
    DomainError,
    NotInvertible,
    factorize,
    iroot,
    is_perfect_square,
    is_prime,
    is_square_mod,
    jacobi,
    least_qnr,
    mod_inverse,
    primes_up_to,
    sqrt_classes,
    squarefree_kernel,
)


# ---------------------------------------------------------------- oracles


def oracle_inverse(a: int, m: int) -> int | None:
    for x in range(m):
        if (a * x) % m == 1 % m:
            return x
    return None


def oracle_kernel(q: int) -> int:
    s = 1
    while not is_perfect_square(s * q):
        s += 1
    return s


def oracle_squares_mod(m: int) -> set[int]:
    return {x * x % m for x in range(m)}


def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


# ----------------------------------------------------------- frozen values


def test_mod_inverse_frozen():
    assert mod_inverse(3, 13) == 9
    assert (3 * 9) % 13 == 1
    assert mod_inverse(1, 1) == 0
    assert mod_inverse(0, 1) == 0


def test_mod_inverse_errors():
    with pytest.raises(NotInvertible):
        mod_inverse(2, 4)
    with pytest.raises(NotInvertible):
        mod_inverse(0, 5)
    with pytest.raises(DomainError):
        mod_inverse(1, 0)


def test_kernel_frozen():
    # 360 = 2^3 * 3^2 * 5 -> odd-exponent primes are 2 and 5.
    assert squarefree_kernel(360) == 10
    assert squarefree_kernel(1) == 1
    assert squarefree_kernel(4) == 1
    assert squarefree_kernel(12) == 3
    with pytest.raises(DomainError):
        squarefree_kernel(0)


def test_jacobi_frozen():
    assert jacobi(2, 15) == 1
    # ... yet 2 is not a square modulo 15 (Jacobi = 1 does not imply residue).
    assert 2 not in oracle_squares_mod(15)
    assert jacobi(0, 3) == 0
    assert jacobi(1, 1) == 1
    assert jacobi(-1, 5) == 1
    assert jacobi(-1, 7) == -1
    with pytest.raises(DomainError):
        jacobi(3, 4)
    with pytest.raises(DomainError):
        jacobi(3, -5)


def test_least_qnr_frozen():
    assert least_qnr(17) == 3
    assert 2 in oracle_squares_mod(17)  # 6^2 = 36 = 2 (mod 17)
    assert least_qnr(3) == 2
    assert least_qnr(13) == 2
    with pytest.raises(BadPrime):
        least_qnr(15)
    with pytest.raises(BadPrime):
        least_qnr(2)


def test_sqrt_classes_frozen():
    assert sqrt_classes(2, {7: 1}) == (7, [3, 4])  # 3^2 = 9 = 2 (mod 7)
    assert sorted(sqrt_classes(4, {3: 1, 5: 1})[1]) == [2, 7, 8, 13]
    assert sqrt_classes(0, {}) == (1, [0])  # modulo 1 every n is a root
    assert sqrt_classes(5, {7: 1}) == (1, [])
    # A non-unit: n^2 = 3 (mod 9) has no root, n^2 = 0 (mod 9) needs 3 | n.
    assert sqrt_classes(3, {3: 2}) == (1, [])
    assert sqrt_classes(0, {3: 2}) == (3, [0])


def test_is_prime_frozen():
    assert is_prime(2) and is_prime(3) and not is_prime(1) and not is_prime(0)
    # Mersenne prime 2^61 - 1.
    assert is_prime(2305843009213693951)
    # 2^67 - 1 = 193707721 * 761838257287 (composite).
    assert not is_prime(147573952589676412927)
    # Strong pseudoprime to bases 2,3,5,7 -- must still be rejected.
    assert not is_prime(3215031751)
    with pytest.raises(DomainError):
        is_prime(arith._MR_VALID_BELOW)


# ------------------------------------------------------- oracle sweeps


def test_mod_inverse_matches_scan():
    for m in range(1, 40):
        for a in range(m):
            want = oracle_inverse(a, m)
            if want is None:
                with pytest.raises(NotInvertible):
                    mod_inverse(a, m)
            else:
                assert mod_inverse(a, m) == want


def test_is_perfect_square_scan():
    squares = {x * x for x in range(200)}
    for n in range(-50, 40000):
        assert is_perfect_square(n) == (n in squares)


def test_iroot_exact():
    rng = random.Random(20260814)
    for _ in range(500):
        k = rng.randint(1, 20)
        n = rng.randint(0, 10**30)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k
    assert iroot(10**18, 2) == 10**9
    assert iroot(2**160 - 1, 16) == 2**10 - 1
    with pytest.raises(DomainError):
        iroot(-1, 2)
    with pytest.raises(DomainError):
        iroot(5, 0)


def test_kernel_matches_scan():
    for q in range(1, 500):
        s = oracle_kernel(q)
        assert squarefree_kernel(q) == s
        assert is_perfect_square(s * q)


def test_jacobi_euler_criterion():
    # On odd primes the Jacobi symbol is the Legendre symbol, which Euler's
    # criterion computes as a^((p-1)/2) mod p.
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 97, 101, 199]:
        for a in range(0, p):
            e = pow(a, (p - 1) // 2, p)
            want = 0 if e == 0 else (1 if e == 1 else -1)
            assert jacobi(a, p) == want


def test_jacobi_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(1, 200, 2)
        n = rng.randrange(1, 200, 2)
        a = rng.randint(-100, 100)
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)
        b = rng.randint(-100, 100)
        assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)


def test_is_prime_matches_trial_division():
    # Miller-Rabin alone at every size, so small n and the witnesses
    # 2..41 themselves (skipped as bases of their own test) are covered.
    for n in range(0, 20_000):
        assert is_prime(n) == oracle_is_prime(n)
    assert [n for n in range(2, 42) if is_prime(n)] == list(arith._MR_WITNESSES)
    # Around TRIAL_BOUND, where factoring's trial division stops.
    for n in range(999_980, 1_000_120):
        assert is_prime(n) == oracle_is_prime(n)


def test_primes_up_to_matches_trial_division():
    for n in (-3, 0, 1, 2, 3, 4, 97, 100, 4999):
        assert list(primes_up_to(n)) == [p for p in range(n + 1) if oracle_is_prime(p)]
    with pytest.raises(DomainError):
        primes_up_to(arith.PRIME_SIEVE_LIMIT + 1)  # refused before any allocation


def test_least_qnr_scan_matches_least_qnr_on_every_prime_to_10_5():
    # The scan skips the primality proof its callers have already made; the
    # oracle is Euler's criterion, which shares no code with the Jacobi scan.
    def euler(p):
        return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)

    primes = [p for p in primes_up_to(10**5) if p > 2]
    assert len(primes) == 9591
    assert all(arith._least_qnr_scan(p) == least_qnr(p) == euler(p) for p in primes)
    for bad in (1, 2, 9, 15, 561, 99_991 * 99_989):
        with pytest.raises(BadPrime):
            least_qnr(bad)


def test_least_qnr_matches_scan():
    for p in range(3, 300):
        if not oracle_is_prime(p):
            continue
        squares = oracle_squares_mod(p)
        want = next(n for n in range(2, p) if n not in squares)
        assert least_qnr(p) == want
        # Classical bound: the least non-residue is below sqrt(p) + 1.
        assert (want - 1) ** 2 < p


def test_tonelli_shanks_exhaustive(monkeypatch):
    # p = 1 (mod 8) takes the full Tonelli-Shanks loop (s >= 3).  It must
    # neither re-prove p prime nor take Jacobi symbols: p comes from factorize.
    def refuse(*args):
        raise AssertionError("called from _tonelli_shanks")

    monkeypatch.setattr(arith, "is_prime", refuse)
    monkeypatch.setattr(arith, "jacobi", refuse)
    primes = [p for p in range(3, 2000) if oracle_is_prime(p) and p % 8 == 1]
    assert len(primes) == 68
    for p in primes:
        squares = oracle_squares_mod(p)
        for a in range(p):
            r = arith._tonelli_shanks(a, p)
            if a in squares:
                assert r is not None and r * r % p == a, (a, p, r)
            else:
                assert r is None, (a, p, r)


def test_sqrt_classes_matches_scan():
    # Every residue, units, non-units and 0, for every modulus up to 300;
    # the character test, which solves no root, agrees with the classes,
    # also on the negative representative that a row x < 0 hands it.
    for m in range(1, 301):
        factors = factorize(m)
        roots: dict[int, set[int]] = {}
        for n in range(m):
            roots.setdefault(n * n % m, set()).add(n)
        for a in range(m):
            mod, residues = sqrt_classes(a, factors)
            assert m % mod == 0, (a, m, mod)
            got = {r + i * mod for r in residues for i in range(m // mod)}
            assert got == roots.get(a, set()), (a, m, mod, residues)
            has_root = is_square_mod(a, factors)
            assert has_root == is_square_mod(a - m, factors) == bool(residues) == (a in roots), (a, m)


def test_factorize_reconstructs():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 10**9)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
    # A semiprime beyond the trial-division bound exercises Brent's method.
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}


def test_brent_rho_backtracks_when_the_batched_gcd_overshoots():
    # On the first three the batched product q is 0 mod n, so gcd(q, n) = n
    # and the run steps back one term at a time from ys.  The backtrack finds
    # a proper factor, or returns n itself (25 at c = 1), and then the next
    # increment, as `factorize` tries it, splits 25 directly.
    assert arith._brent_rho(49, 1) == 7
    assert arith._brent_rho(27, 3) == 9
    assert arith._brent_rho(25, 1) == 25
    assert arith._brent_rho(25, 2) == 5


def test_factorize_refuses_zero():
    with pytest.raises(DomainError, match="factorize requires n >= 1, got 0"):
        factorize(0)
