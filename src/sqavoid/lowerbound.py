"""Explicit square-avoiding progressions built from quadratic non-residues.

For a prime p = 1 (mod 4), let n be the least positive non-residue mod p
and set q = p + n, so q is itself a non-residue.  The progression with
steps (p, q) and radii (p - 1, n - 1) then avoids every non-zero square
up to T = 2*p^2:

* a value x1*p + x2*q is congruent to x2*q mod p;
* for 0 < |x2| < n the factor x2 is a residue (negatives too, since
  -1 is a residue when p = 1 mod 4), so x2*q is a non-residue and cannot
  be congruent to a square prime to p;
* a square divisible by p is at least p^2 and, below 2*p^2, exactly p^2;
  writing p^2 = x1*p + x2*q forces p | x2, hence x2 = 0 and x1 = p,
  which overflows the radius p - 1.

Every link of that argument is replayed as an exact integer check by
`residue_certificate`, so a returned certificate is machine-verified
rather than trusted.  The box has about 4*p*n points against the
sqrt(T)*n(p)-point budget a one-dimensional progression could manage, and
`least_nonresidue_scan` tracks how large n(p) gets in practice.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .arith import BadPrime, _least_qnr_scan, is_prime, isqrt, jacobi, primes_up_to
from .formats import Record
from .progression import TwoDAP, cardinality

F = Fraction

MIN_PRIME = 13

# Burgess exponent 1/(4*sqrt(e)): the classical bound n(p) << p^(this + eps).
BURGESS_EXPONENT = 1 / (4 * math.sqrt(math.e))


class LowerBoundInstance(Record):
    """A prime-indexed progression certified to avoid squares up to t."""

    p: int
    nqr: int
    q: int
    x1bound: int
    x2bound: int
    t: int
    size: int

    @property
    def progression(self) -> TwoDAP:
        return TwoDAP(self.p, self.q, self.x1bound, self.x2bound)


def build_instance(p: int) -> LowerBoundInstance:
    """Instance for the prime p = 1 (mod 4), p >= 13.

    Steps (p, p + n), radii (p - 1, n - 1), ambient bound 2*p^2, where n
    is the least positive non-residue mod p.
    """
    if p < MIN_PRIME or p % 4 != 1 or not is_prime(p):
        raise BadPrime(
            f"need a prime p = 1 (mod 4) with p >= {MIN_PRIME}, got {p}"
        )
    n = _least_qnr_scan(p)
    q = p + n
    a = TwoDAP(p, q, p - 1, n - 1)
    return LowerBoundInstance(p, n, q, p - 1, n - 1, 2 * p * p, cardinality(a))


class ResidueCertificate(Record):
    steps: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.steps)


def residue_certificate(inst: LowerBoundInstance) -> ResidueCertificate:
    """Machine-check each link of the avoidance argument, exactly.

    1. n is the least non-residue and q = p + n is a coprime non-residue.
    2. Every admissible non-zero x2 is a residue mod p, so x2*q is a
       non-residue: squares prime to p are ruled out.
    3. The only square in (0, t] divisible by p is p^2 itself.
    4. p^2 is not a value: p | x2 forces x2 = 0 inside the small radius,
       and then x1 = p overflows the radius p - 1.
    """
    p, n, q, t = inst.p, inst.nqr, inst.q, inst.t
    steps = []

    ok1 = (
        jacobi(n, p) == -1
        and all(jacobi(k, p) == 1 for k in range(1, n))
        and q == p + n
        and math.gcd(q, p) == 1
        and jacobi(q, p) == -1
    )
    steps.append(("least-nonresidue", ok1, f"n={n}, q={q}"))

    ok2 = p % 4 == 1 and jacobi(p - 1, p) == 1 and all(
        jacobi(x2 % p, p) == 1 and jacobi((-x2) % p, p) == 1
        for x2 in range(1, inst.x2bound + 1)
    )
    steps.append(
        ("admissible-coefficients-are-residues", ok2, f"|x2| <= {inst.x2bound}")
    )

    squares_div_p = [m for m in range(p, isqrt(t) + 1, p) if m * m <= t]
    ok3 = squares_div_p == [p] and 4 * p * p > t
    steps.append(("squares-divisible-by-p", ok3, f"only {p}^2 <= {t}"))

    ok4 = inst.x2bound < p and inst.x1bound < p
    steps.append(
        ("p-squared-escapes-box", ok4, f"x1 would need {p} > {inst.x1bound}")
    )

    return ResidueCertificate(tuple(steps))


def size_vs_t(inst: LowerBoundInstance) -> Fraction:
    """Exact ratio of the box size to the sqrt(t) * n(p) comparison budget.

    A single one-dimensional progression avoiding squares up to t has at
    most about sqrt(t) admissible multiples per non-residue class; values
    above 1 show the two-dimensional box genuinely beats that budget.
    """
    return F(inst.size, isqrt(inst.t) * inst.nqr)


class NonResidueRecord(Record):
    """One prime in the scan of least non-residues."""

    p: int
    nqr: int
    is_record: bool
    sq_ok: bool  # (n - 1)^2 < p, exact; the radius fits under sqrt(p)
    root_ratio: float  # n / sqrt(p), display only
    burgess_ratio: float  # n / p^(1/(4*sqrt(e))), display only


def least_nonresidues(p_max: int, p_min: int = MIN_PRIME) -> Iterator[tuple[int, int]]:
    """(p, n(p)) for every prime p = 1 (mod 4) in [p_min, p_max], ascending;
    a p_max above the prime sieve's cap of 10^8 raises DomainError.
    """
    for p in primes_up_to(p_max):
        if p % 4 == 1 and p >= p_min:
            yield p, _least_qnr_scan(p)


def least_nonresidue_scan(p_max: int, p_min: int = MIN_PRIME) -> list[NonResidueRecord]:
    """`least_nonresidues` with running records.  Verdict fields are exact;
    the ratio fields are floats for display and never feed back into any
    decision.
    """
    out: list[NonResidueRecord] = []
    best = 0
    for p, n in least_nonresidues(p_max, p_min):
        rec = n > best
        best = max(best, n)
        out.append(
            NonResidueRecord(
                p,
                n,
                rec,
                (n - 1) ** 2 < p,
                n / math.sqrt(p),
                n / p**BURGESS_EXPONENT,
            )
        )
    return out
