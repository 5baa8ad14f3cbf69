"""Two-dimensional arithmetic progressions and square witnesses.

A progression is the set of integers x1*q1 + x2*q2 with |x1| <= X1 and
|x2| <= X2, where the steps q1, q2 are positive integers and the radii
X1, X2 are exact non-negative rationals (only their floors matter for
membership).  The central questions are whether such a set is *proper*
(all (x1, x2) pairs give distinct values) and whether it avoids all
non-zero perfect squares up to an ambient bound T.

Witness search runs two independent routes:

* `find_square_witness` walks n = 1, 2, ... up to sqrt(min(T, value
  bound)), skipping the n whose square is not x2*q2 modulo q1 for any
  |x2| <= X2 (found once by squaring every residue modulo q1).  For each
  root it visits, the admissible x1 are one residue class modulo
  q2/gcd(q1, q2) intersected with one interval, so the least-|x1| member
  has a closed form: O(1) integer operations per root, whatever the radii;
* `brute_force_witness` enumerates the whole coefficient box, row by row
  (one row per x2) against the set of squares up to the bound, with no
  residue-class arithmetic.

Both apply the same deterministic tie-break (smallest n, then smallest
|x1|, positive x1 before negative), so their results are comparable
object-for-object.

`max_radius`, the largest square-free radius on one axis, walks rows, not
roots: a row of the box holds a square iff a modular square root lands
near the row's centre.  It takes at most min(r, R) + 1 steps past the
centre rows, a few modular square roots each, and shares no code with
`find_square_witness`, which stays an independent check of its boxes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import mod, mul

from .arith import DomainError, TooLarge, factorize, isqrt, mod_inverse, sqrt_classes

BRUTE_FORCE_GUARD = 100_000_000
# Roots one witness walk, or rows one radius walk, may visit: isqrt of the
# largest sweep T, 10^16.
ROOT_WALK_LIMIT = 100_000_000
# Largest q1 whose square residues a witness walk scans to skip roots: the
# scan holds at most this many residues at once.
RESIDUE_SCAN_LIMIT = 1 << 20


@dataclass(frozen=True)
class TwoDAP:
    """Progression {x1*q1 + x2*q2 : |x1| <= x1bound, |x2| <= x2bound}."""

    q1: int
    q2: int
    x1bound: int | Fraction
    x2bound: int | Fraction

    def __post_init__(self) -> None:
        # Integer radii stay ints (equal and hash-equal to their Fractions);
        # anything else, a bool included, becomes an exact Fraction.
        for name in ("x1bound", "x2bound"):
            if type(getattr(self, name)) is not int:
                object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.q1 < 1 or self.q2 < 1:
            raise DomainError(f"steps must be positive, got ({self.q1}, {self.q2})")
        if self.x1bound < 0 or self.x2bound < 0:
            raise DomainError("radii must be non-negative")

    @property
    def b1(self) -> int:
        """Effective integer radius along q1."""
        return int(self.x1bound)

    @property
    def b2(self) -> int:
        """Effective integer radius along q2."""
        return int(self.x2bound)

    def value_bound(self) -> int:
        """Largest attainable |value|."""
        return self.b1 * self.q1 + self.b2 * self.q2


@dataclass(frozen=True)
class SquareWitness:
    """Coefficients with x1*q1 + x2*q2 = n^2 for some n >= 1."""

    x1: int
    x2: int
    n: int


@dataclass(frozen=True)
class Certificate:
    """Outcome of an exhaustive square scan up to n_max."""

    kind: str  # "square_free" or "witness"
    witness: SquareWitness | None
    n_max: int


def cardinality(a: TwoDAP) -> int:
    """Number of coefficient pairs, (2*floor(X1)+1) * (2*floor(X2)+1)."""
    return (2 * a.b1 + 1) * (2 * a.b2 + 1)


def is_proper(a: TwoDAP) -> bool:
    """True iff distinct coefficient pairs give distinct values.

    A collision x1*q1 + x2*q2 = y1*q1 + y2*q2 exists iff the minimal
    non-trivial relation (q2/d, -q1/d), d = gcd(q1, q2), fits inside the
    difference box |dx1| <= 2*floor(X1), |dx2| <= 2*floor(X2).
    """
    d = math.gcd(a.q1, a.q2)
    return not (a.q2 // d <= 2 * a.b1 and a.q1 // d <= 2 * a.b2)


def _root_blocks(q1: int, q2: int, b2: int, top: int) -> Iterator[Iterable[int]]:
    """The roots n = 1 .. top a witness can have, ascending, block by block.

    A witness n^2 = x1*q1 + x2*q2 has n^2 = x2*q2 (mod q1) with |x2| <= b2,
    so n lies in the classes C modulo q1 whose squares are such residues.
    The filter is used only when it can pay and stays bounded: the residues
    x2*q2 miss some class (2*b2 + 1 < q1), at most RESIDUE_SCAN_LIMIT of
    them are held (2*b2 < RESIDUE_SCAN_LIMIT) and at most that many squares
    are scanned (min(q1, top) <= RESIDUE_SCAN_LIMIT).
    A walk that ends before q1 (top < q1) tests each n = 1 .. top itself,
    squaring at C speed.  A longer walk finds C by squaring s = 0 .. q1 // 2
    at C speed (s and q1 - s have one square; 0 is always in C, as x2 = 0
    is allowed, and stands for q1), and each block holds one period's
    members of C, provided C holds at most half the classes.  Otherwise
    every root is a candidate, in one block.
    """
    if 2 * b2 + 1 < q1 and 2 * b2 < RESIDUE_SCAN_LIMIT and min(q1, top) <= RESIDUE_SCAN_LIMIT:
        wanted = set(map(mod, range(-b2 * q2, b2 * q2 + 1, q2), repeat(q1)))
        if top < q1:
            squares = map(mod, accumulate(range(3, 2 * top, 2), initial=1), repeat(q1))
            yield compress(range(1, top + 1), map(wanted.__contains__, squares))
            return
        half = range(q1 // 2 + 1)
        squares = map(mod, accumulate(range(1, 2 * len(half) - 1, 2), initial=0), repeat(q1))
        roots = list(compress(half, map(wanted.__contains__, squares)))  # roots[0] == 0
        classes = sorted({q1 - s for s in roots}.union(roots[1:]))
        if 2 * len(classes) <= q1:
            for base in range(0, top, q1):
                yield map(base.__add__, classes[: bisect_right(classes, top - base)])
            return
    yield range(1, top + 1)


def find_square_witness(a: TwoDAP, t: int) -> SquareWitness | None:
    """Smallest-square witness in a, with n^2 <= min(t, value bound).

    One walk of n = 1 .. isqrt(min(t, value bound)) in ascending order,
    over the admissible classes of `_root_blocks` only: n^2 must be
    x2*q2 modulo q1 for some |x2| <= b2.  With d = gcd(q1, q2) and
    k = n^2/d, the solutions of x1*q1 + x2*q2 = n^2 with |x2| <= b2 are
    the x1 = k*(q1/d)^-1 (mod q2/d) in
    [(k - b2*q2/d) / (q1/d), (k + b2*q2/d) / (q1/d)] clipped to [-b1, b1],
    whose upper end is never negative because k >= 1: O(1) work per root,
    whatever the radii.  So with n_hi the last root and C the classes,
    the cost is O(min(q1, n_hi)) scan steps at C speed plus
    O(n_hi*|C|/q1) visited roots.  The filter squares residues itself,
    sharing nothing with `max_radius`'s modular square roots, so the walk
    stays an independent check of its boxes.  Ties at one n go to the
    smallest |x1|, then to positive x1.  TooLarge if the walk would pass
    ROOT_WALK_LIMIT roots with no witness.
    """
    if t < 0:
        raise DomainError(f"ambient bound must be non-negative, got {t}")
    cap = min(t, a.value_bound())
    if cap < 1:
        return None
    n_hi = isqrt(cap)
    top = min(n_hi, ROOT_WALK_LIMIT)
    q1, q2, b1, b2 = a.q1, a.q2, a.b1, a.b2
    d = math.gcd(q1, q2)
    q1d, q2d = q1 // d, q2 // d
    slack = b2 * q2d  # |x2| <= b2 as a bound on x1*q1d around k
    inv = mod_inverse(q1d % q2d, q2d) if q2d > 1 else 0
    for block in _root_blocks(q1, q2, b2, top):
        for n in block:
            nn = n * n
            if nn % d:
                continue
            k = nn // d
            hi = (k + slack) // q1d
            if hi > b1:
                hi = b1
            lo = -((slack - k) // q1d)
            if lo < -b1:
                lo = -b1
            if lo > hi:
                continue
            if lo >= 0:
                # Least class member >= lo.
                x1 = lo + (k * inv - lo) % q2d
                if x1 > hi:
                    continue
            else:
                # lo < 0 <= hi: the least non-negative member x1 against the
                # greatest negative one, x1 - q2d; ties go to the positive.
                x1 = k * inv % q2d
                if x1 > hi or (q2d - x1 < x1 and x1 - q2d >= lo):
                    x1 -= q2d
                    if x1 < lo:
                        continue
            return SquareWitness(x1, (k - x1 * q1d) // q2d, n)
    if n_hi > ROOT_WALK_LIMIT:
        raise TooLarge(f"the walk needs roots up to {n_hi}, limit is {ROOT_WALK_LIMIT}")
    return None


def _nearest_square(center: int, m: int, factors: dict[int, int], t: int) -> int | None:
    """Least |n^2 - center| over n >= 1 with n^2 <= t and n^2 = center (mod m).

    `factors = factorize(m)`.  The admissible n are the classes of
    `sqrt_classes`; |n^2 - center| falls as n climbs to isqrt(center) and
    rises after it, so each class offers two candidates: its greatest
    member <= isqrt(center) and its least member above.  None if no n fits.
    """
    mod, residues = sqrt_classes(center, factors)
    c = isqrt(center) if center > 0 else 0
    top = isqrt(t)
    best = None
    for s in residues:
        below = c - (c - s) % mod
        for n in (below, below + mod):
            if 1 <= n <= top and (best is None or abs(n * n - center) < best):
                best = abs(n * n - center)
    return best


def max_radius(q: int, other_q: int, other_r: int, t: int) -> int:
    """Largest r with TwoDAP(q, other_q, r, other_r) in [-t, t] and square-free.

    The box is searched one row at a time, out from the centre, within the
    room (t - other_r*other_q) // q that the other axis leaves.  Row x
    (values x*q + y*other_q, |y| <= other_r) holds a square iff the square
    congruent to x*q modulo other_q that lies nearest x*q is within
    other_r*other_q of it.  Row y (values y*other_q + x*q, |x| <= room)
    has its least-|x| square at the square congruent to y*other_q modulo
    q that lies nearest y*other_q.  Step k reads rows x = +-k, and rows
    y = +-k while k <= other_r: a square on row x = +-k makes r = k - 1,
    and once every row y is read, r is the least |x| of their squares,
    less one.  So the walk ends by step k = min(r + 1, other_r): at most
    min(r, other_r) + 1 steps past the centre, each a few modular square
    roots, with both steps factored once per call (`factorize` cannot
    fail below 10^12; sweep steps stay below 2*10^8).  As r <= min(q - 1,
    t // q), that is O(sqrt(t)) steps at worst; a walk that would pass
    step ROOT_WALK_LIMIT raises TooLarge.  Returns -1 when even r = 0
    holds a square.
    """
    if q < 1 or other_q < 1:
        raise DomainError(f"steps must be positive, got ({q}, {other_q})")
    if other_r < 0:
        raise DomainError("radii must be non-negative")
    base = other_r * other_q
    if base > t:
        raise DomainError(f"the other axis reaches {base}, past t = {t}")
    room = (t - base) // q
    fq, fo = factorize(q), factorize(other_q)
    reach = other_r * other_q
    least = room + 1  # least |x| of a square on the rows y read so far
    for k in range(min(room, other_r) + 1):
        if k > ROOT_WALK_LIMIT:
            raise TooLarge(f"the row walk passes {ROOT_WALK_LIMIT} steps")
        rows = (k, -k) if k else (0,)
        for x in rows:
            gap = _nearest_square(x * q, other_q, fo, t)
            if gap is not None and gap <= reach:
                return k - 1
        for y in rows:
            gap = _nearest_square(y * other_q, q, fq, t)
            if gap is not None and gap // q < least:
                least = gap // q
    # Rows x up to k are clear: k = room, or every row y is read into least.
    return min(room, least - 1)


def certify_square_free(a: TwoDAP, t: int) -> Certificate:
    """Exhaustive verdict: a witness, or square-freeness up to min(t, bound)."""
    if t < 0:
        raise DomainError(f"ambient bound must be non-negative, got {t}")
    cap = min(t, a.value_bound())
    n_max = isqrt(cap) if cap >= 0 else 0
    w = find_square_witness(a, t)
    if w is None:
        return Certificate("square_free", None, n_max)
    return Certificate("witness", w, n_max)


def _least(hits) -> SquareWitness | None:
    """The minimal (n, x1, x2) under the tie-break (n, |x1|, x1 < 0)."""
    best = min(hits, key=lambda h: (h[0], abs(h[1]), h[1] < 0), default=None)
    return None if best is None else SquareWitness(best[1], best[2], best[0])


def _row_scan(a: TwoDAP, cap: int) -> SquareWitness | None:
    """Brute force one row (fixed x2) at a time against the set of squares.

    A row's values x1*q1 + x2*q2 in [1, cap] form one range with step q1;
    intersecting it with {1, 4, ..., isqrt(cap)^2} tests every pair by hash
    lookup at C speed.  A row's least square is its only candidate: it
    alone has the row's smallest n.
    """
    r = range(1, isqrt(cap) + 1)
    squares = set(map(mul, r, r))
    q1, b1 = a.q1, a.b1
    hits = []
    for x2 in range(-a.b2, a.b2 + 1):
        base = x2 * a.q2
        lo = max(-b1, -((base - 1) // q1))  # least x1 with base + x1*q1 >= 1
        hi = min(b1, (cap - base) // q1)
        row = squares.intersection(range(base + lo * q1, base + hi * q1 + 1, q1))
        if row:
            v = min(row)
            hits.append((isqrt(v), (v - base) // q1, x2))
    return _least(hits)


def _pair_scan(a: TwoDAP, cap: int) -> SquareWitness | None:
    """Brute force pair by pair, with an integer square root per value."""
    return _least(
        (isqrt(v), x1, x2)
        for x1 in range(-a.b1, a.b1 + 1)
        for x2 in range(-a.b2, a.b2 + 1)
        if 1 <= (v := x1 * a.q1 + x2 * a.q2) <= cap and isqrt(v) ** 2 == v
    )


def brute_force_witness(
    a: TwoDAP, t: int | None = None, guard: int = BRUTE_FORCE_GUARD
) -> SquareWitness | None:
    """Independent oracle: enumerate the whole box and pick the minimal witness.

    Applies the same tie-break as `find_square_witness` ((n, |x1|, sign of
    x1)).  If t is omitted the full value bound is searched.  Refuses boxes
    with more than `guard` coefficient pairs.  Exact at any integer size.
    Scans by rows, unless the box has fewer pairs than there are squares up
    to the cap (small boxes of huge values), so memory stays O(pairs).
    """
    pairs = cardinality(a)
    if pairs > guard:
        raise TooLarge(f"box has {pairs} pairs, guard is {guard}")
    cap = a.value_bound() if t is None else min(t, a.value_bound())
    if cap < 1:
        return None
    return _pair_scan(a, cap) if isqrt(cap) > pairs else _row_scan(a, cap)
