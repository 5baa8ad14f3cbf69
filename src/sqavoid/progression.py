"""Two-dimensional arithmetic progressions and square witnesses.

A progression is the set of integers x1*q1 + x2*q2 with |x1| <= X1 and
|x2| <= X2, where the steps q1, q2 are positive integers and the radii
X1, X2 are exact non-negative rationals (only their floors matter for
membership).  The central questions are whether such a set is *proper*
(all (x1, x2) pairs give distinct values) and whether it avoids all
non-zero perfect squares up to an ambient bound T.

Witness search has two routes to one canonical answer, and
`find_square_witness` takes whichever has fewer steps as estimated up
front (the estimate leaves out Brent's method on a composite cofactor of
a step past 10^12, and cannot foresee an early witness):

* `walk_roots` walks n = 1, 2, ... up to sqrt(min(T, value bound)),
  skipping the n whose square is not x2*q2 modulo q1 for any |x2| <= X2
  (found by squaring s <= q1/2 modulo q1 as it goes).  For each root it
  visits, the admissible x1 are one residue class modulo q2/gcd(q1, q2)
  intersected with one interval, so the least-|x1| member has a closed
  form: O(1) integer operations per root, whatever the radii;
* `_walk_rows` reads the fewer rows, of fixed x2 (step q1) or of fixed x1
  (step q2): a row's least square is the `_least_root` past its start in
  the classes of `sqrt_classes` of its residue.  It costs `factorize` of
  the step plus one step per row, so few rows that reach far, like the
  paper's non-residue boxes, cost almost nothing.

`brute_force_witness`, the independent oracle, enumerates the whole
coefficient box row by row along its longer axis, sieving each row's
values by their residues modulo the small SIEVE_MODULI, a bit per value,
and testing the few left by isqrt; it does no residue arithmetic modulo
q1 or q2.  All three apply the same deterministic tie-break (smallest n,
then smallest |x1|, positive x1 before negative), so their results are
comparable object-for-object.  `certify_box`, behind the `witness` and
`verify` commands, searches by the cheaper route.

`max_radius`, the largest square-free radius r on one axis, also walks
rows, asking `_least_root` as the row route does: a row of the box holds
a square iff a modular square root lands near its centre.  It takes the
other axis's step already factored (the sweep factors q1 once, for X1
and for this), reads the rows across its own axis, min(r + 1, R, room)
steps past the centre row, and only when that walk outlasts R < room
does it factor its own step and read the 2R + 1 rows along it.  Most
rows it settles without solving a root: a character test
(`is_square_mod`), or a row wide enough to span half a period of roots
when the roots pair up as +-r, decides them.  Its boxes are re-certified
by `certify_square_free`, which always takes the root walk: that walk
shares no code with `max_radius`, so it stays an independent check of
them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat, tee
from operator import mod

from .arith import (
    TRIAL_BOUND,
    DomainError,
    FactorizationFailed,
    TooLarge,
    _kernel_of,
    factorize,
    is_square_mod,
    isqrt,
    mod_inverse,
    sqrt_classes,
)
from .formats import Record

BRUTE_FORCE_GUARD = 100_000_000
# Roots one witness walk, or rows one row route or radius walk, may visit:
# isqrt of the largest sweep T, 10^16.
ROOT_WALK_LIMIT = 100_000_000
# Most residues, and most root classes, a witness walk's filter holds at once.
RESIDUE_SCAN_LIMIT = 1 << 20


class TwoDAP(Record):
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


class SquareWitness(Record):
    """Coefficients with x1*q1 + x2*q2 = n^2 for some n >= 1."""

    x1: int
    x2: int
    n: int


class Certificate(Record):
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
    A residue has one root class modulo q1 on average, so C holds about
    2*b2 + 1 classes.  If that is at most half of both q1 and
    RESIDUE_SCAN_LIMIT (past either, the scan tends to overflow and fall
    back, and costs more than it saves), the first block is C's members s <= min(q1 // 2,
    top), found by squaring at C speed as the walk asks for them, so a walk
    that stops early stops the scan.  s and q1 - s have one square, and 0,
    always in C (x2 = 0), stands for q1: the next blocks hold the rest of C,
    one period each, trimmed to top.  The scan stops once it has kept
    RESIDUE_SCAN_LIMIT // 2 + 1 members; if it stops so, or C holds over
    half the classes, the last block is every root past the last one kept.
    """
    last = 0  # the roots up to last are settled
    if 2 * (2 * b2 + 1) <= min(q1, RESIDUE_SCAN_LIMIT):
        wanted = set(map(mod, range(-b2 * q2, b2 * q2 + 1, q2), repeat(q1)))
        half = range(min(q1 // 2, top) + 1)
        squares = map(mod, accumulate(range(1, 2 * len(half) - 1, 2), initial=0), repeat(q1))
        kept = RESIDUE_SCAN_LIMIT // 2
        scan, held = tee(islice(compress(half, map(wanted.__contains__, squares)), kept + 1))
        yield islice(scan, 1, None)  # the first s is 0, no root
        roots = list(held)
        if len(roots) <= kept:
            classes = sorted({q1 - s for s in roots}.union(roots[1:]))
            if 2 * len(classes) <= q1:
                yield classes[len(roots) - 1 : bisect_right(classes, top)]
                for base in range(q1, top, q1):
                    yield map(base.__add__, classes[: bisect_right(classes, top - base)])
                return
        last = roots[-1]
    yield range(last + 1, top + 1)


def _root_bound(a: TwoDAP, t: int) -> int:
    """isqrt(min(t, value bound)), the largest root a witness in a at t can
    have; refuses t < 0 (DomainError)."""
    if t < 0:
        raise DomainError(f"ambient bound must be non-negative, got {t}")
    return isqrt(min(t, a.value_bound()))


def walk_roots(a: TwoDAP, t: int) -> SquareWitness | None:
    """Smallest-square witness in a, with n^2 <= min(t, value bound), by roots.

    One walk of n = 1 .. isqrt(min(t, value bound)) in ascending order,
    over the admissible classes of `_root_blocks` only: n^2 must be
    x2*q2 modulo q1 for some |x2| <= b2.  With d = gcd(q1, q2) and
    k = n^2/d, the solutions of x1*q1 + x2*q2 = n^2 with |x2| <= b2 are
    the x1 = k*(q1/d)^-1 (mod q2/d) in
    [(k - b2*q2/d) / (q1/d), (k + b2*q2/d) / (q1/d)] clipped to [-b1, b1],
    whose upper end is never negative because k >= 1: O(1) work per root,
    whatever the radii.  So with n_hi the last root and C the classes,
    the cost is O(min(q1/2, n_hi)) scan steps at C speed plus
    O(n_hi*|C|/q1) visited roots.  The filter squares residues itself,
    sharing nothing with `max_radius`'s residue tests and modular square
    roots, so the walk stays an independent check of its boxes.  Ties at
    one n go to the smallest |x1|, then to positive x1.  A walk that would
    pass ROOT_WALK_LIMIT roots still walks that many, returning a witness
    found among them, and otherwise raises TooLarge.
    """
    n_hi = _root_bound(a, t)
    if n_hi < 1:
        return None
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
            # hi >= 0, as k >= 1.  The least class member x1 >= max(lo, 0)
            # against the one below it, x1 - q2d; ties go to the positive.
            x1 = lo if lo > 0 else 0
            x1 += (k * inv - x1) % q2d
            if x1 - q2d >= lo and (x1 > hi or q2d - x1 < x1):
                x1 -= q2d
            elif x1 > hi:
                continue
            return SquareWitness(x1, (k - x1 * q1d) // q2d, n)
    if n_hi > ROOT_WALK_LIMIT:
        raise TooLarge(f"the walk needs roots up to {n_hi}, limit is {ROOT_WALK_LIMIT}")
    return None


def _least_root(start: int, m: int, classes: list[int]) -> int:
    """The least n >= start whose residue modulo m is in `classes` (non-empty).

    The one row question of `_walk_rows` and `max_radius`, over the
    (m, classes) of `sqrt_classes`.
    """
    return min(start + (s - start) % m for s in classes)


def _walk_rows(a: TwoDAP, cap: int, factors: dict[int, int], across: bool) -> SquareWitness | None:
    """Smallest-square witness in a with n^2 <= cap (cap >= 1), row by row.

    Row y fixes x2 (step q_x = q1), or x1 when `across` (step q_x = q2), and
    `factors = factorize(q_x)`.  It holds y*q_y + x*q_x with x clipped to
    [lo, hi] so that the values lie in [1, cap].  Its squares are the
    n^2 = y*q_y (mod q_x) between its ends, so its least square, the only
    one that can win the tie-break, is at `_least_root(isqrt(first - 1) + 1,
    ...)` over the classes of `sqrt_classes(y*q_y mod q_x)`, if that
    n^2 <= last.  Rows with one residue share their classes.  The cost is
    2*b_y + 1 rows of at most 2^(omega(q_x) + 1) classes each, whatever
    b_x.  Row squares, mapped back to (x1, x2), merge under (n, |x1|,
    x1 < 0), computed here so that the oracle shares no code with it.
    """
    q_y, b_y, q_x, b_x = (a.q1, a.b1, a.q2, a.b2) if across else (a.q2, a.b2, a.q1, a.b1)
    classes_of: dict[int, tuple[int, list[int]]] = {}
    best = None
    for y in range(-b_y, b_y + 1):
        base = y * q_y
        lo = max(-b_x, -((base - 1) // q_x))  # least x with base + x*q_x >= 1
        hi = min(b_x, (cap - base) // q_x)
        if lo > hi:
            continue
        residue = base % q_x
        if residue not in classes_of:
            classes_of[residue] = sqrt_classes(residue, factors)
        m, classes = classes_of[residue]
        if not classes:
            continue
        n = _least_root(isqrt(base + lo * q_x - 1) + 1, m, classes)
        if n * n <= base + hi * q_x:
            x = (n * n - base) // q_x
            x1, x2 = (y, x) if across else (x, y)
            key = (n, abs(x1), x1 < 0)
            if best is None or key < best[0]:
                best = (key, SquareWitness(x1, x2, n))
    return None if best is None else best[1]


def find_square_witness(a: TwoDAP, t: int) -> SquareWitness | None:
    """Smallest-square witness in a, with n^2 <= min(t, value bound).

    Both routes give the canonical witness; this takes the one with fewer
    steps, counted before either starts.  With n_hi = isqrt(min(t, value
    bound)), `walk_roots` costs n_hi roots.  `_walk_rows` reads 2*b2 + 1
    rows of step q = q1 or 2*b1 + 1 of step q = q2, fewer rows first (then
    smaller q), so a box and its transpose take one route.  A reading costs
    the trial division of `factorize(q)`, up to min(isqrt(q), TRIAL_BOUND)
    steps, plus rows of at most 2^(omega(q) + 1) classes.  So:

    * both n_hi and the fewer rows past ROOT_WALK_LIMIT: TooLarge, at once;
    * n_hi within the limit and at most the trial steps plus the rows (or
      rows past the limit): the walk, and q is never factored;
    * otherwise q is factored, and the rows are read unless n_hi is
      within the limit and at most rows * 2^(omega(q) + 1).

    If q cannot be factored (FactorizationFailed, or DomainError for a
    cofactor past `is_prime`'s proven range), the next reading is tried,
    then the walk, which refuses a walk past the limit only after it.

    The counts are estimates: they leave out Brent's method on a composite
    cofactor of q past 10^12 and cannot foresee an early witness.  At
    q1 = (10^11 + 1009)(3*10^11 + 77), q2 = q1 + 1, radii (10^6, 1) and
    t = 2*10^14, the rows factor q1 for 0.34 s; the walk finds n = 1 in under 1 ms.
    """
    n_hi = _root_bound(a, t)
    readings = sorted([(2 * a.b2 + 1, a.q1, False), (2 * a.b1 + 1, a.q2, True)])
    if n_hi > ROOT_WALK_LIMIT and readings[0][0] > ROOT_WALK_LIMIT:
        raise TooLarge(
            f"the walk needs {n_hi} roots and the row route {readings[0][0]} rows, limit is {ROOT_WALK_LIMIT}"
        )
    walk_fits = n_hi <= ROOT_WALK_LIMIT
    for rows, q, across in readings:
        if rows > ROOT_WALK_LIMIT or (walk_fits and n_hi <= min(isqrt(q), TRIAL_BOUND) + rows):
            break
        try:
            factors = factorize(q)
        except (FactorizationFailed, DomainError):
            continue
        if walk_fits and n_hi <= rows << (len(factors) + 1):
            break
        # n_hi >= 1 here, as n_hi = 0 takes the walk; no square lies in (n_hi^2, min(t, bound)].
        return _walk_rows(a, n_hi * n_hi, factors, across)
    return walk_roots(a, t)


def max_radius(q: int, other_q: int, other_factors: dict[int, int], other_r: int, t: int) -> int:
    """Largest r with TwoDAP(q, other_q, r, other_r) in [-t, t] and square-free.

    Takes other_factors = factorize(other_q), which the sweep already holds,
    steps q, other_q >= 1 and 0 <= other_r*other_q <= t, as the sweep's
    pairs have them.  The box is searched one row at a time, out from the
    centre, within the room (t - other_r*other_q) // q that the other axis
    leaves.  Row x (values x*q + y*other_q, |y| <= other_r) holds a square
    iff some n >= 1 with n^2 = x*q (mod other_q) has |n^2 - x*q| <= reach =
    other_r*other_q.  Step k reads rows x = +-k, and a square there makes
    r = k - 1, so the walk takes min(r + 1, other_r, room) steps past the
    centre row.  Each row takes the cheapest test that decides it:

    * the centre row holds a square iff other_r >= kernel(other_q), as
      other_q*kernel(other_q) is its least (-1 if so);
    * a row whose residue x*q fails `is_square_mod` holds no square;
    * the n with |n^2 - x*q| <= reach form an interval [lo, hi]; if
      other_q does not divide x*q, the roots r != 0 (mod other_q) pair
      up with other_q - r, so each half-block [j*other_q + 1,
      j*other_q + other_q // 2] and [j*other_q + (other_q + 1) // 2,
      j*other_q + other_q - 1] holds one: a row whose [lo, hi] contains a
      half-block (as any other_q consecutive n do) holds a square;
    * otherwise `sqrt_classes` solves the roots (a few modular square
      roots), and the row holds a square iff `_least_root(lo, ...)` <= hi.

    If the walk clears every k <= room, r = room.  If it clears every
    k <= other_r < room, only then is q factored and are the
    2*other_r + 1 rows y read (values y*other_q + x*q, |x| <= room): each
    that passes `is_square_mod` has its least-|x| square at the least root
    above c = isqrt(max(y*other_q, 0)) or the greatest root in [1, c], and
    r is the least such |x| less one, or room if none lies inside it.
    `factorize` cannot fail below 10^12, and sweep steps stay below
    2*10^8; past 3.3*10^24 it can raise DomainError, which a huge q then
    does only when the rows y are read.  As r <= min(q - 1, t // q), the
    walk takes O(sqrt(t)) steps at worst; one that would pass step
    ROOT_WALK_LIMIT raises TooLarge.  Returns -1 when even r = 0 holds a
    square.
    """
    reach = other_r * other_q
    room = (t - reach) // q
    # The half-blocks of a period: [1, half] and [(other_q + 1) // 2, other_q - 1].
    half, half_starts = other_q // 2, [1, (other_q + 1) // 2]
    # Row x = 0 (values y*other_q) has its least square at y = kernel(other_q).
    if _kernel_of(other_factors) <= other_r:
        return -1
    for k in range(1, min(room, other_r) + 1):
        if k > ROOT_WALK_LIMIT:
            raise TooLarge(f"the row walk passes {ROOT_WALK_LIMIT} steps")
        for x in (k, -k):
            center = x * q
            if not is_square_mod(center, other_factors):
                continue
            # The n >= 1 with |n^2 - center| <= reach (n^2 <= t follows) run
            # from lo to hi, none if center + reach < 1.
            if center + reach < 1:
                continue
            lo, hi = isqrt(max(center - reach, 1) - 1) + 1, isqrt(center + reach)
            # Roots r and other_q - r pair up, and r != 0 when other_q does not
            # divide center: every half-block of the period holds one.
            if center % other_q and _least_root(lo, other_q, half_starts) + half <= hi + 1:
                return k - 1
            if _least_root(lo, *sqrt_classes(center, other_factors)) <= hi:
                return k - 1
    if room <= other_r:
        return room
    fq = factorize(q)
    least = room + 1  # least |x| of a square on the rows y
    for y in range(-other_r, other_r + 1):
        center = y * other_q
        if is_square_mod(center, fq):
            # Roots come in pairs +-n, so -_least_root(-c) is the greatest <= c.
            m, classes = sqrt_classes(center, fq)
            c = isqrt(max(center, 0))
            for n in (_least_root(c + 1, m, classes), -_least_root(-c, m, classes)):
                if n >= 1:
                    least = min(least, abs(n * n - center) // q)
    return least - 1


def _certificate(a: TwoDAP, t: int, search) -> Certificate:
    """A witness from `search(a, t)`, or square-freeness up to min(t, bound)."""
    n_max = _root_bound(a, t)
    w = search(a, t)
    if w is None:
        return Certificate("square_free", None, n_max)
    return Certificate("witness", w, n_max)


def certify_square_free(a: TwoDAP, t: int) -> Certificate:
    """Exhaustive verdict by the root walk alone: a witness, or square-freeness.

    Always `walk_roots`, never the row route: the sweep re-certifies with
    this the boxes that `max_radius` found through `is_square_mod` and
    `sqrt_classes`, and the walk shares no code with that search, so it
    checks it independently.
    """
    return _certificate(a, t, walk_roots)


def certify_box(a: TwoDAP, t: int) -> Certificate:
    """Exhaustive verdict by the cheaper route of `find_square_witness`.

    The same certificate as `certify_square_free`; the `witness` and
    `verify` commands use this one, and so does the sweep for the boxes
    its closed-form families find.
    """
    return _certificate(a, t, find_square_witness)


# The moduli whose square residues the brute-force oracle sieves rows by: in
# a row whose step is prime to them all, about 1 value in 4,500 passes.
SIEVE_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Row values the sieve reads at once, one bit each.
SIEVE_CHUNK = 1 << 13
# (l, u) -> `_tile(l, u)`, for units u modulo each l: 196 at most, about 200 KiB.
_tiles: dict[tuple[int, int], tuple[int, int]] = {}


def _tile(ell: int, u: int) -> tuple[int, int]:
    """(u^-1 mod ell, the bits k < SIEVE_CHUNK + ell set where u*k is a
    square modulo ell), kept in `_tiles`."""
    if (ell, u) not in _tiles:
        squares = {n * n % ell for n in range(ell)}
        period = sum(1 << k for k in range(ell) if u * k % ell in squares)
        copies = ((1 << (SIEVE_CHUNK // ell + 2) * ell) - 1) // ((1 << ell) - 1)
        _tiles[ell, u] = pow(u, -1, ell), period * copies & ((1 << SIEVE_CHUNK + ell) - 1)
    return _tiles[ell, u]


def _least(hits) -> SquareWitness | None:
    """The minimal (n, x1, x2) under the tie-break (n, |x1|, x1 < 0)."""
    best = min(hits, key=lambda h: (h[0], abs(h[1]), h[1] < 0), default=None)
    return None if best is None else SquareWitness(best[1], best[2], best[0])


def _least_square(first: int, count: int, step: int, sieve) -> int | None:
    """The least square among first + i*step, 0 <= i < count, or None.

    `sieve` holds (l, step^-1 mod l, tile) triples; the values it lets
    through, a chunk at a time, are tested by isqrt in ascending order."""
    for i in range(0, count, SIEVE_CHUNK):
        start = first + i * step
        bits = (1 << min(SIEVE_CHUNK, count - i)) - 1
        for ell, inv, tile in sieve:
            bits &= tile >> (start * inv % ell)
        while bits:
            low = bits & -bits
            v = start + (low.bit_length() - 1) * step
            if isqrt(v) ** 2 == v:
                return v
            bits ^= low
    return None


def _row_scan(a: TwoDAP, cap: int) -> SquareWitness | None:
    """Brute force one row at a time along the longer axis, by a square sieve.

    A row holds one coefficient fixed: x2 (values x1*q1 + x2*q2, a range
    with step q1), or x1 when b2 > b1 (a range with step q2), so that the
    rows are few and long.  Each row is clipped to the values in [1, cap]
    and read SIEVE_CHUNK values at a time, bit i standing for the value
    first + i*step.  Each modulus l of SIEVE_MODULI prime to the step ANDs
    in the tile of `_tile(l, step mod l)` shifted by first*step^-1 mod l,
    which keeps the i whose value is a square modulo l.  A modulus dividing
    the step fixes the row's residue, and a non-square one skips the row
    whole; one that shares only part of it is dropped for the call.  The
    bits left are read in ascending order and each value tested exactly by
    isqrt, so the first square is the row's least and ends the row; no set
    of squares is held.
    A row's least square is its only candidate: it alone has the row's
    smallest n, and one value of a row fixes its pair, so the tie-break
    (n, |x1|, x1 < 0) stays exact in either orientation.
    """
    # Row y holds the values y*q_y + x*q_x, |x| <= b_x.
    across = a.b2 > a.b1  # rows of fixed x1
    q_y, b_y, q_x, b_x = (a.q1, a.b1, a.q2, a.b2) if across else (a.q2, a.b2, a.q1, a.b1)
    residues = [(ell, q_x % ell) for ell in SIEVE_MODULI]
    sieve = [(ell, *_tile(ell, u)) for ell, u in residues if math.gcd(ell, u) == 1]
    fixed = [(ell, _tile(ell, 1)[1]) for ell, u in residues if u == 0]
    hits = []
    for y in range(-b_y, b_y + 1):
        base = y * q_y
        lo = max(-b_x, -((base - 1) // q_x))  # least x with base + x*q_x >= 1
        hi = min(b_x, (cap - base) // q_x)
        if lo > hi or not all(tile >> (base % ell) & 1 for ell, tile in fixed):
            continue
        v = _least_square(base + lo * q_x, hi - lo + 1, q_x, sieve)
        if v is not None:
            x = (v - base) // q_x
            hits.append((isqrt(v), y, x) if across else (isqrt(v), x, y))
    return _least(hits)


def brute_force_witness(
    a: TwoDAP, t: int, guard: int = BRUTE_FORCE_GUARD
) -> SquareWitness | None:
    """Independent oracle: enumerate the whole box and pick the minimal witness.

    Searches n^2 <= min(t, value bound) and applies the same tie-break as
    `find_square_witness` ((n, |x1|, sign of x1)).  Refuses t < 0 as the
    routes do, a guard outside 0..BRUTE_FORCE_GUARD (DomainError), and a box
    of more than `guard` coefficient pairs (TooLarge): guard = 0 refuses all.
    Exact at any integer size.  Scans by rows (`_row_scan`), sieving out by
    their residues modulo SIEVE_MODULI values that cannot be squares; its
    memory is O(rows) beyond the bounded `_tiles` cache, and it keeps no
    squares.
    """
    if t < 0:
        raise DomainError(f"ambient bound must be non-negative, got {t}")
    if not 0 <= guard <= BRUTE_FORCE_GUARD:
        raise DomainError(f"guard must be in 0..{BRUTE_FORCE_GUARD}, got {guard}")
    pairs = cardinality(a)
    if pairs > guard:
        raise TooLarge(f"box has {pairs} pairs, guard is {guard}")
    cap = min(t, a.value_bound())
    if cap < 1:
        return None
    return _row_scan(a, cap)
