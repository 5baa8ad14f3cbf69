"""Constructive small-square representations x1*q1 + x2*q2 = n^2.

Given coprime steps q1, q2 and a size cap N, the construction produces a
square value with controlled coefficients:

1. scan b = 1, -1, 2, -2, ... coprime to q1 until b*q2 is a quadratic
   residue modulo q1; let c be the canonical (smallest) square root;
2. invert: c_bar = c^{-1} (mod q1);
3. Dirichlet step: among the continued-fraction convergents of c_bar/q1,
   take the largest denominator n <= N; then the nearest-integer residue
   approx_d = n*c_bar + m*q1 satisfies |approx_d| <= q1/N;
4. output x2 = b*approx_d^2 and x1 = (n^2 - b*q2*approx_d^2)/q1, which is
   an exact integer: approx_d = n*c_bar and b*q2 = c^2 (mod q1), so
   b*q2*approx_d^2 = c^2*n^2*c_bar^2 = n^2 (mod q1).

The scan in step 1 terminates within the *cover height* H(q1): the
smallest h such that every unit modulo q1 is y*z^2 with |y| <= h.  The
resulting coefficients obey |x2| <= |b|*(q1/N)^2 and a matching bound for
x1, which is what makes the representation "small".
`square_cover_height` finds H by quadratic characters (0.02 ms at 10^5).
A prime p = 1 (mod 4) has H(p) = n(p), its least non-residue; others, 1.

The kernel runs these steps on plain ints in two parts.  The class step
`_solve_class` does steps 1-3 up to the list of convergent denominators
<= N, which read q2 only modulo q1, and checks the four invariants that
do too: b is a unit, c in [0, q1) is a root of b*q2, and c*c_bar = 1
(mod q1).  The pair step `_solve_pair` picks n from that list and does
steps 3-4, then checks the other five: 1 <= n <= N, approx_d = n*c_bar +
m*q1, |approx_d|*N <= q1, x2 = b*approx_d^2 and x1*q1 + x2*q2 = n^2.
`SmallSquareTrace.validate` runs the same two checks.
`construct_small_square` runs both steps and wraps them in a trace;
`small_square_survey` builds no object per pair.  What depends on q1
alone, the root solver and the list of multipliers b coprime to q1, a
survey row builds once.  It runs the class step once per class q2 mod q1,
and a class step inverts c and walks its convergents only for a root c
new to the row's memo `by_root`: the bench band (seed 1) takes 576,011
class steps and 241,138 root solves, 2..2000 608,293 and 252,902.  Each
class still runs its four checks, and each pair the pair step's five.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Iterator
from itertools import count, repeat

from .arith import (
    DomainError,
    NotFound,
    TooLarge,
    VerificationFailed,
    factorize,
    iroot,
    mod_inverse,
    sqrt_classes,
)
from .formats import Record
from .progression import BRUTE_FORCE_GUARD, SquareWitness

# The survey counts a pair's coefficients as small when they stay below
# this many times the theoretical envelopes.
RATIO_CEILING = 64
# Up to this modulus `_sqrt_solver` builds a table of canonical square
# roots; above it the modulus is factored once and each root solved from
# that factorization.
_SQRT_TABLE_BOUND = 50_000


def square_cover_height(k: int) -> int:
    """Smallest h such that every x coprime to k is y*z^2 (mod k), |y| <= h.

    x is y*z^2 exactly when x and y share a coset of the unit squares, named
    by the Legendre symbols (Euler's criterion) at the odd primes of k and
    the class mod 4 or 8 when 4 or 8 divides k: factor k once, then mark the
    cosets of y and -y for y = 1, 2, ... coprime to k until all are seen.
    Refuses k < 1 (DomainError).
    """
    if k < 1:
        raise DomainError(f"modulus must be positive, got {k}")
    factors = factorize(k)
    odd = [p for p in factors if p > 2]
    two = 1 << min(factors.get(2, 0), 3)
    cosets = max(two // 2, 1) << len(odd)
    seen = set()
    for y in count(1):
        if math.gcd(y, k) == 1:
            seen.update((x % two, *(pow(x, p >> 1, p) for p in odd)) for x in (y, k - y))
            if len(seen) == cosets:
                return y


def _sqrt_table(m: int) -> dict[int, int]:
    """Canonical square roots modulo m: {z*z % m: smallest such z}.

    z and m - z share a square, so each class has a root z <= m // 2; z runs
    down to 0 and the dict keeps the last z of each class, the smallest.
    """
    r = range(m // 2, -1, -1)
    return dict(zip(map(pow, r, repeat(2), repeat(m)), r))


def _sqrt_solver(m: int) -> Callable[[int], int | None]:
    """Maps a unit in [0, m) to its smallest square root modulo m, or None."""
    if m <= _SQRT_TABLE_BOUND:
        return _sqrt_table(m).get
    factors = factorize(m)
    # Units only, so the classes of `sqrt_classes` are taken modulo m itself.
    return lambda a: min(sqrt_classes(a, factors)[1], default=None)


def convergent_denominators(num: int, den: int) -> list[int]:
    """Denominators of the continued-fraction convergents of num/den >= 0."""
    if den < 1 or num < 0:
        raise DomainError(f"need num >= 0 and den >= 1, got {num}/{den}")
    out = []
    h_prev, h = 1, 0  # denominators of the two virtual convergents before a0
    while den:
        q = num // den
        num, den = den, num - q * den
        h_prev, h = h, q * h + h_prev
        out.append(h)
    return out


def _class_invariants_hold(q1, q2, b, c, c_bar) -> bool:
    """The invariants that read q2 only modulo q1: b a unit, c its root, c_bar c's inverse."""
    return (
        math.gcd(b, q1) == 1
        and (b * q2 - c * c) % q1 == 0
        and 0 <= c < max(q1, 1)
        and (c * c_bar - 1) % q1 == 0
    )


def _pair_invariants_hold(q1, q2, n_cap, b, c_bar, n, m, approx_d, x1, x2) -> bool:
    """The invariants of one pair: n within the cap, the Dirichlet step and the square."""
    return (
        1 <= n <= n_cap
        and approx_d == n * c_bar + m * q1
        and abs(approx_d) * n_cap <= q1
        and x2 == b * approx_d * approx_d
        and x1 * q1 + x2 * q2 == n * n
    )


class SmallSquareTrace(Record):
    """Full audit trail of one constructive representation."""

    q1: int
    q2: int
    n_cap: int
    b: int
    c: int
    c_bar: int
    n: int
    m: int
    approx_d: int
    witness: SquareWitness

    def validate(self) -> None:
        """Check every structural invariant of the trace.

        Raises VerificationFailed if any fails.  The cover-height bound
        |b| <= H(q1) bounds the coefficients' size, not the square's truth,
        so it is not checked here.
        """
        w = self.witness
        ok = (
            w.n == self.n
            and _class_invariants_hold(self.q1, self.q2, self.b, self.c, self.c_bar)
            and _pair_invariants_hold(
                self.q1, self.q2, self.n_cap, self.b, self.c_bar,
                self.n, self.m, self.approx_d, w.x1, w.x2,
            )
        )
        if not ok:
            raise VerificationFailed(f"small-square trace breaks an invariant: {self}")


def _multipliers(q1: int) -> Iterator[tuple[int, int]]:
    """(b, b % q1) for b = 1, -1, 2, -2, ... coprime to q1, up to |b| = q1 + 1."""
    for mag in range(1, q1 + 2):
        if math.gcd(mag, q1) == 1:
            yield mag, mag % q1
            yield -mag, -mag % q1


def _scan_b(q1: int, q2: int, root, taken: list, more: Iterator) -> tuple[int, int]:
    """First b (order 1, -1, 2, -2, ...) with b*q2 a square mod q1, and its root.

    The b coprime to q1 come as (b, b % q1): first from `taken`, the ones a
    q1 row has drawn so far, then from the row's `_multipliers(q1)` iterator
    `more`, each draw going onto `taken` for the row's later pairs.
    """
    for b, r in taken:
        c = root(r * q2 % q1)
        if c is not None:
            return b, c
    for b, r in more:
        taken.append((b, r))
        c = root(r * q2 % q1)
        if c is not None:
            return b, c
    raise NotFound(f"no admissible b for ({q1}, {q2})")  # pragma: no cover


def _solve_class(
    q1: int, q2: int, n_cap: int, root, taken: list, more: Iterator, by_root: dict
) -> tuple[int, int, int, list[int]]:
    """The class step, on plain ints: (b, c, c_bar, dens) for q2's class mod q1.

    Takes checked arguments, `root` = `_sqrt_solver(q1)`, the q1 row's
    multipliers `taken`, `more` (see `_scan_b`) and its root memo `by_root`
    {c: (c_bar, dens)}.  dens lists the convergent denominators of c_bar/q1
    that are <= n_cap, found by walking the denominator recurrence of
    `convergent_denominators` until it passes n_cap; the first is 1.  A c
    not in `by_root` is inverted, walked and stored; of the bench band's
    (seed 1) 576,011 class steps, 241,138 do so.  None of this reads q2 but
    modulo q1, so any pair of the class with a cap up to n_cap can use it.
    The class invariants, c*c_bar = 1 for a stored c too, are checked
    before returning; a failure raises VerificationFailed.
    """
    b, c = _scan_b(q1, q2, root, taken, more)
    entry = by_root.get(c)
    if entry is None:
        c_bar = mod_inverse(c, q1) if q1 > 1 else 0
        dens = []
        h_prev, h = 1, 0
        num, den = c_bar, q1
        while den:
            a = num // den
            num, den = den, num - a * den
            h_prev, h = h, a * h + h_prev
            if h > n_cap:
                break
            dens.append(h)
        entry = by_root[c] = c_bar, dens
    c_bar, dens = entry
    if not _class_invariants_hold(q1, q2, b, c, c_bar):
        raise VerificationFailed(f"construction for ({q1}, {q2}) breaks an invariant")
    return b, c, c_bar, dens


def _solve_pair(
    q1: int, q2: int, n_cap: int, b: int, c_bar: int, dens: list[int]
) -> tuple[int, int, int, int, int]:
    """The pair step, on plain ints: (n, m, approx_d, x1, x2) from a class step's b, c_bar, dens.

    n is the largest of dens that is <= n_cap.  The class data are not
    trusted: whatever dens holds, every pair invariant, n <= n_cap and
    x1*q1 + x2*q2 = n^2 among them, is checked before returning; a failure
    raises VerificationFailed.
    """
    n = dens[bisect_right(dens, n_cap) - 1]
    t = n * c_bar
    q, r = divmod(t, q1)
    m = -q - (1 if 2 * r > q1 else 0)
    approx_d = t + m * q1
    x2 = b * approx_d * approx_d
    x1 = (n * n - q2 * x2) // q1
    if not _pair_invariants_hold(q1, q2, n_cap, b, c_bar, n, m, approx_d, x1, x2):
        raise VerificationFailed(f"construction for ({q1}, {q2}) breaks an invariant")
    return n, m, approx_d, x1, x2


def _check_construction_args(q1: int, q2: int, n_cap: int) -> None:
    """Both routes' refusals (DomainError): a step below 1, steps not coprime, n_cap < 1."""
    if q1 < 1 or q2 < 1:
        raise DomainError(f"steps must be positive, got ({q1}, {q2})")
    if math.gcd(q1, q2) != 1:
        raise DomainError(f"steps must be coprime, got ({q1}, {q2})")
    if n_cap < 1:
        raise DomainError(f"size cap must be positive, got {n_cap}")


def construct_small_square(q1: int, q2: int, n_cap: int) -> SmallSquareTrace:
    """Constructive representation with 1 <= n <= n_cap; see module docstring.

    Requires gcd(q1, q2) = 1 and n_cap >= 1.  Checks the arguments, runs
    the plain-int class and pair steps (which check every trace invariant
    before returning) and wraps their result in a trace.
    """
    _check_construction_args(q1, q2, n_cap)
    b, c, c_bar, dens = _solve_class(q1, q2, n_cap, _sqrt_solver(q1), [], _multipliers(q1), {})
    n, m, approx_d, x1, x2 = _solve_pair(q1, q2, n_cap, b, c_bar, dens)
    return SmallSquareTrace(q1, q2, n_cap, b, c, c_bar, n, m, approx_d, SquareWitness(x1, x2, n))


def brute_force_small_square(q1: int, q2: int, n_cap: int) -> SquareWitness:
    """Minimal-coefficient representation by exhaustive search.

    Minimizes max(|x1|, |x2|) over all x1*q1 + x2*q2 = n^2 with n <= n_cap
    and |x1|, |x2| <= q2**2; ties broken by (n, |x1|, sign, |x2|, sign).
    Independent of the constructive route; intended as a test oracle for
    small inputs.  Refuses the arguments `construct_small_square` refuses
    (DomainError) and more than BRUTE_FORCE_GUARD pairs (TooLarge) before
    it starts; raises NotFound if the box contains no representation.
    """
    _check_construction_args(q1, q2, n_cap)
    # Each n reads the x1 = x0 (mod q2) with |x1| <= q2^2: at most 2*q2 + 1.
    if n_cap * (2 * q2 + 1) > BRUTE_FORCE_GUARD:
        raise TooLarge(f"search would read {n_cap * (2 * q2 + 1)} pairs")
    box = q2 * q2
    inv = mod_inverse(q1 % q2, q2) if q2 > 1 else 0
    best: tuple[tuple, SquareWitness] | None = None
    for n in range(1, n_cap + 1):
        nn = n * n
        x0 = (nn % q2) * inv % q2 if q2 > 1 else 0
        first = x0 - q2 * ((x0 + box) // q2)
        for x1 in range(first, box + 1, max(q2, 1)):
            x2 = (nn - x1 * q1) // q2
            if abs(x2) > box:
                continue
            key = (max(abs(x1), abs(x2)), n, abs(x1), x1 < 0, abs(x2), x2 < 0)
            if best is None or key < best[0]:
                best = (key, SquareWitness(x1, x2, n))
    if best is None:
        raise NotFound(f"no representation inside the {box} box for ({q1}, {q2})")
    return best[1]


def balanced_n(q1: int, q2: int) -> int:
    """Smallest N with N**16 >= q1**9 * q2**4, i.e. ceil(q1^(9/16) * q2^(1/4)).

    This choice of size cap balances the two coefficient bounds of the
    construction so that |x2| stays near q1^(1/4) and |x1| near N^2/q1.
    """
    if q1 < 1 or q2 < 1:
        raise DomainError(f"steps must be positive, got ({q1}, {q2})")
    target = q1**9 * q2**4
    r = iroot(target, 16)
    return r if r**16 == target else r + 1


class SurveyReport(Record):
    """Aggregate outcome of a coprime-pair construction survey."""

    pairs: int
    n_in_range: int
    x1_ratio_ok: int
    x2_ratio_ok: int
    max_ratio_x1: float
    max_ratio_x2: float
    argmax_x1: tuple[int, int] | None
    argmax_x2: tuple[int, int] | None

    @property
    def all_ok(self) -> bool:
        return self.pairs == self.n_in_range == self.x1_ratio_ok == self.x2_ratio_ok


def _x2_top(q1: int, ceiling: int) -> int:
    """Largest m >= 0 with m**4 < ceiling**4 * q1**9, or -1 if there is none.

    The survey's x2 envelope |x2| < ceiling * q1^(9/4) / N^2 holds exactly
    when |x2| * N^2 <= _x2_top(q1, ceiling), so one root per row decides it.
    """
    bound = ceiling**4 * q1**9
    return iroot(bound - 1, 4) if bound > 0 else -1


def small_square_survey(q_max: int, *, q_min: int = 2, on_row=None) -> SurveyReport:
    """Run the construction over every coprime pair q_min <= q1 <= q2 <= q_max.

    Each pair uses the balanced size cap N = balanced_n(q1, q2).  The report
    counts pairs whose coefficients stay below RATIO_CEILING times the
    theoretical envelopes (decided exactly); its n_in_range is the pair
    count, as the pair step checks 1 <= n <= N for every pair.  The float
    ratio fields are display-only.  `on_row` receives
    (q1, q2, N, b, n, x1, x2, ratio_x1, ratio_x2) per pair when given.

    The survey works one q1 row at a time.  N starts at balanced_n(q1, q1)
    and is stepped up along the row, N += 1 while N**16 < q1**9 * q2**4,
    which is q2 >= the least q2 that passes N, found once per step of N.
    That is exact: the target grows with q2, so the previous N less one
    still falls short of it, and the stepped N is again the least.  The
    row's powers of q1, its x2 envelope threshold (`_x2_top`), its
    square-root solver (a table, or above _SQRT_TABLE_BOUND one
    factorization of q1) and its list of multipliers (b, b % q1) for b
    coprime to q1 are made once per row; the list grows only when a scan
    passes its end.

    b, c, c_bar and the convergents of c_bar/q1 read q2 only modulo q1, so
    the row keeps one `_solve_class` result per class q2 mod q1 and one
    (c_bar, dens) per root c in its memo `by_root`, walked up to the row's
    last cap balanced_n(q1, q_max) and dropped at the row's end.  The class
    step checks its four invariants (b a unit, c a root of b*q2, c in
    [0, q1), c*c_bar = 1) once per class; `_solve_pair` checks the other
    five (n within the cap, the Dirichlet step, x2 = b*approx_d^2 and
    x1*q1 + x2*q2 = n^2) for every pair, so a wrong entry cannot yield a
    wrong row.  36% of the pairs of the bench band (seed 1), and 50% of
    those of 2..2000, reuse a class; their 576,011 and 608,293 class steps
    solve 241,138 and 252,902 roots.  A failed invariant raises
    VerificationFailed.  Refuses q_min < 1 with DomainError.
    """
    if q_min < 1:
        raise DomainError(f"q_min must be positive, got {q_min}")
    pairs = x1_ratio_ok = x2_ratio_ok = 0
    max_ratio_x1 = max_ratio_x2 = 0.0
    argmax_x1 = argmax_x2 = None
    ceiling = RATIO_CEILING
    ceiling4 = ceiling**4
    for q1 in range(q_min, q_max + 1):
        q1_9 = q1**9
        x2_top = _x2_top(q1, ceiling)
        q1_125, q1_225 = q1**1.25, q1**2.25
        cap, past = balanced_n(q1, q1) - 1, q1  # the first pair steps cap to balanced_n(q1, q1)
        row_cap = balanced_n(q1, q_max)
        root, taken, more = _sqrt_solver(q1), [], _multipliers(q1)
        classes: dict[int, tuple[int, int, int, list[int]]] = {}
        by_root: dict[int, tuple[int, list[int]]] = {}
        for q2 in range(q1, q_max + 1):
            if math.gcd(q1, q2) != 1:
                continue
            while q2 >= past:
                cap += 1
                # The least q2 with q1**9 * q2**4 > cap**16: isqrt twice is
                # the floor of a 4th root.
                past = math.isqrt(math.isqrt(cap**16 // q1_9)) + 1
                cap2 = cap * cap
                x1_fast = ceiling * cap2
            entry = classes.get(q2 % q1)
            if entry is None:
                entry = classes[q2 % q1] = _solve_class(q1, q2, row_cap, root, taken, more, by_root)
            b, _, c_bar, dens = entry
            n, _, _, x1, x2 = _solve_pair(q1, q2, cap, b, c_bar, dens)
            a1, a2 = abs(x1), abs(x2)
            pairs += 1
            r1 = a1 / (cap2 / q1 + q1_125 * q2 / cap2)
            w2 = a2 * cap2
            r2 = w2 / q1_225
            # |x1| < ceiling * (N^2/q1 + q1^(5/4)*q2/N^2).  Clear q1*N^2 and move
            # the rational term left: N^2 * (|x1|*q1 - ceiling*N^2) is negative,
            # or decided by 4th powers.
            if a1 * q1 < x1_fast or (a1 * q1 - x1_fast) ** 4 * cap2**4 < ceiling4 * q1_9 * q2**4:
                x1_ratio_ok += 1
            if w2 <= x2_top:
                x2_ratio_ok += 1
            if r1 > max_ratio_x1:
                max_ratio_x1, argmax_x1 = r1, (q1, q2)
            if r2 > max_ratio_x2:
                max_ratio_x2, argmax_x2 = r2, (q1, q2)
            if on_row is not None:
                on_row((q1, q2, cap, b, n, x1, x2, r1, r2))
    return SurveyReport(
        pairs, pairs, x1_ratio_ok, x2_ratio_ok, max_ratio_x1, max_ratio_x2, argmax_x1, argmax_x2
    )
