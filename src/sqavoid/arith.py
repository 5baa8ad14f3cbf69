"""Exact integer and modular arithmetic primitives.

Everything in this module computes over arbitrary-precision Python integers
(and `fractions.Fraction` for rational data).  No floating point is used in
any verdict: inequalities involving fractional powers are decided by integer
cross-multiplication, and square roots by `math.isqrt`.

The factor-dependent routines (`squarefree_kernel`, `is_square_mod`,
`sqrt_classes`) rely on `factorize`, which combines trial division below
10**6 with Brent's cycle method driven by a deterministic parameter
schedule, so repeated runs give identical results.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import compress

isqrt = math.isqrt


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class NotInvertible(DomainError):
    """Modular inverse requested for a non-unit residue."""


class BadPrime(DomainError):
    """A prime (with possible extra congruence conditions) was required."""


class FactorizationFailed(RuntimeError):
    """Complete factorization could not be produced within the guard."""


class TooLarge(RuntimeError):
    """A guarded exhaustive routine was asked to exceed its budget."""


class NotFound(RuntimeError):
    """A bounded search exhausted its range without finding the object."""


class VerificationFailed(RuntimeError):
    """A result failed the independent check that must pass before it is emitted."""


# Factoring divides by every candidate below this bound and falls back to
# Brent's method on the cofactor; primality is Miller-Rabin at every size.
TRIAL_BOUND = 1_000_000

# The witness set {2,3,...,41} is a verified deterministic Miller-Rabin base
# set: it classifies every integer below this bound exactly (Sorenson and
# Webster's published verification; the bound comfortably exceeds 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_VALID_BELOW = 3_317_044_064_679_887_385_961_981


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m).  Raises NotInvertible if none exists."""
    if m < 1:
        raise DomainError(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible modulo {m}") from None


def is_perfect_square(n: int) -> bool:
    """True iff n is a square of an integer (0 and 1 included)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, computed exactly by Newton iteration."""
    if n < 0:
        raise DomainError(f"iroot argument must be non-negative, got {n}")
    if k < 1:
        raise DomainError(f"root order must be positive, got {k}")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton's method on x^k - n, starting above the root.
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def _mr_is_composite(n: int, a: int, d: int, r: int) -> bool:
    # n - 1 = d * 2**r with d odd; returns True if a witnesses compositeness.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Miller-Rabin with the fixed witness set 2..41, whose exactness is proven
    for every n below _MR_VALID_BELOW (about 3.3e24), small n included.
    Beyond that bound the routine refuses to guess and raises DomainError
    rather than returning a probabilistic answer.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n >= _MR_VALID_BELOW:
        raise DomainError(
            f"is_prime is only deterministic below {_MR_VALID_BELOW}; got {n}"
        )
    if n % 2 == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        if _mr_is_composite(n, a, d, r):
            return False
    return True


def _brent_rho(n: int, c: int) -> int:
    """One run of Brent's cycle-finding with increment c on an odd n (`factorize`
    strips every prime below TRIAL_BOUND first); returns a factor or n."""
    y, m, g, r, q = 2, 128, 1, 1, 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def factorize(n: int) -> dict[int, int]:
    """Complete factorization of n >= 1 as {prime: exponent}.

    Trial division removes all primes below 10**6; any remaining cofactor is
    split recursively with Brent's method using the deterministic increment
    schedule c = 1, 2, 3, ...  Raises FactorizationFailed if a cofactor
    resists both primality certification and splitting.
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f < TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return factors
    if f * f > n:
        factors[n] = factors.get(n, 0) + 1
        return factors

    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = m
        for c in range(1, 101):
            d = _brent_rho(m, c)
            if 1 < d < m:
                break
        else:
            raise FactorizationFailed(f"could not split {m}")
        stack.append(d)
        stack.append(m // d)
    return factors


def squarefree_kernel(q: int) -> int:
    """Product of the primes dividing q to an odd power (the squarefree part).

    The kernel s(q) is the smallest positive s such that s*q is a perfect
    square; equivalently q/s(q) is the largest square divisor of q.
    """
    if q < 1:
        raise DomainError(f"squarefree_kernel requires q >= 1, got {q}")
    return _kernel_of(factorize(q))


def _kernel_of(factors: dict[int, int]) -> int:
    """The squarefree kernel of the number whose factorization is `factors`."""
    kernel = 1
    for p, e in factors.items():
        if e % 2:
            kernel *= p
    return kernel


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n; in {-1, 0, 1}."""
    if n <= 0 or n % 2 == 0:
        raise DomainError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def least_qnr(p: int) -> int:
    """Least quadratic non-residue modulo an odd prime p.

    Scans n = 2, 3, ... for the first n with Jacobi symbol (n|p) = -1.  The
    answer is always prime and classically satisfies least_qnr(p) < sqrt(p)+1.
    """
    if p == 2 or not is_prime(p):
        raise BadPrime(f"least_qnr requires an odd prime, got {p}")
    return _least_qnr_scan(p)


def _least_qnr_scan(p: int) -> int:
    """`least_qnr` for a p its caller already knows to be an odd prime."""
    n = 2
    while jacobi(n, p) == 1:
        n += 1
    return n


def _tonelli_shanks(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None.

    Assumes p is an odd prime (callers take it from `factorize`), so the
    non-residue z is the least n >= 2 that `is_square_mod` rejects, without
    re-proving p prime.  A non-residue a is not tested up front: it shows
    as a candidate root that fails (p = 3 mod 4), or as a^q of order
    2^s, the whole 2-part of p - 1 = q*2^s.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while is_square_mod(z, {p: 1}):
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _roots_mod_odd_prime_power(a: int, p: int, k: int) -> list[int]:
    """All square roots of a unit square a modulo p**k, p an odd prime."""
    r = _tonelli_shanks(a % p, p)
    pe = p
    # Hensel lifting: the root modulo p^j lifts uniquely to p^{j+1}.
    for _ in range(k - 1):
        pe_next = pe * p
        diff = (a - r * r) % pe_next
        step = diff // pe * mod_inverse(2 * r % p, p) % p
        r = (r + step * pe) % pe_next
        pe = pe_next
    return sorted({r, pe - r})


def _roots_mod_two_power(a: int, k: int) -> list[int]:
    """All square roots of an odd square a modulo 2**k (a = 1 mod 8 for k >= 3)."""
    a %= 1 << k
    if k == 1:
        return [1]
    # Lift a root from modulus 8 upward one bit at a time; for k = 2 the
    # four candidates below are 1 and 3, each twice.
    r = 1
    for j in range(3, k):
        if (r * r - a) % (1 << (j + 1)) != 0:
            r += 1 << (j - 1)
    mod = 1 << k
    half = 1 << (k - 1)
    return sorted({r % mod, (-r) % mod, (r + half) % mod, (-r + half) % mod})


def is_square_mod(a: int, factors: dict[int, int]) -> bool:
    """True iff n*n = a (mod m) has a solution, where `factors = factorize(m)`.

    No root is computed.  Per prime power p^k of m, with a = p^j * u and p
    not dividing u: p^k | a always has the root 0; an odd j has no root;
    otherwise u needs a root modulo p^(k - j), which for an odd p is
    Euler's criterion u^((p - 1)/2) = 1 (mod p), and for p = 2 is u = 1
    modulo 2^min(k - j, 3).  `sqrt_classes` rejects through this.
    """
    for p, k in factors.items():
        u, j = a % p**k, 0
        if u == 0:
            continue
        while u % p == 0:
            u //= p
            j += 1
        if j % 2:
            return False
        if p == 2:
            if u % (1 << min(k - j, 3)) != 1:
                return False
        elif pow(u, p >> 1, p) != 1:
            return False
    return True


def sqrt_classes(a: int, factors: dict[int, int]) -> tuple[int, list[int]]:
    """The square roots of any a modulo m, where `factors = factorize(m)`.

    Returns (M, residues) with M | m: n*n = a (mod m) iff n mod M is one of
    `residues`, empty when `is_square_mod` finds no root.  Per prime power
    p^k of m, with j the valuation of a at p: j >= k needs
    n = 0 (mod p^ceil(k/2)); otherwise n = p^(j/2)*s (mod p^(k - j/2)) for
    the roots s of the unit a/p^j modulo p^(k - j).  Reducing the moduli
    this way keeps at most 4*2^omega(m) classes, however square m is.
    """
    if not is_square_mod(a, factors):
        return 1, []
    mod, residues = 1, [0]
    for p, k in factors.items():
        u, j = a % p**k, 0
        if u == 0:
            pm, roots = p ** ((k + 1) // 2), [0]
        else:
            while u % p == 0:
                u //= p
                j += 1
            e = k - j
            roots = _roots_mod_two_power(u, e) if p == 2 else _roots_mod_odd_prime_power(u, p, e)
            scale = p ** (j // 2)
            pm = p ** (k - j // 2)
            roots = [scale * s for s in roots]
        # Chinese remaindering: x + mod*t = r (mod pm) for each class pair.
        inv = mod_inverse(mod, pm)
        residues = [x + mod * ((r - x) * inv % pm) for x in residues for r in roots]
        mod *= pm
    return mod, residues


# One byte per integer: the sieve below holds at most about 100 MB.
PRIME_SIEVE_LIMIT = 100_000_000


def primes_up_to(n: int) -> Iterator[int]:
    """The primes p <= n in ascending order, by the sieve of Eratosthenes.

    The sieve is built at call time, so an n above PRIME_SIEVE_LIMIT
    raises DomainError at once; the primes are then read off it lazily.
    """
    if n > PRIME_SIEVE_LIMIT:
        raise DomainError(f"prime sieve capped at 10^8, got {n}")
    if n < 2:
        return iter(())
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return compress(range(n + 1), sieve)
