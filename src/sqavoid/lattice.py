"""Congruence lattices and gcd-driven reduction of progressions.

When d = gcd(q1, q2) >= 2, every value x1*q1 + x2*q2 is a multiple of d,
and the values that are multiples of d^2 come from the sublattice

    L = {(x1, x2) : x1*(q1/d) + x2*(q2/d) = 0 (mod d)},   det L = d.

A square value lies on L when d is squarefree (then d | n), but not
always: with steps (4, 8), d = 4, the value 4 = 2^2 is not on L.  Only
the forward transfer is used: derived values times d^2 are values of the
original, so a square-free original has a square-free derived instance.

Stretching coordinates by the box aspect ratio U = X2/X1 turns the box
into a square; the successive minima lambda1 <= lambda2 of the gauge

    g(x) = max(|x1| * U^(1/2), |x2| * U^(-1/2))

then produce a basis u, v of L whose integer combinations a1*u + a2*v
with |a_i| <= Xt_i := X1*U^(1/2)/(2*lambda_i) stay inside the original
box.  Values transform as d^2 * (a1*p1 + a2*p2) with p_i = (u_i . qt)/d,
giving a smaller progression with ambient bound T/d^2.  `reduce_box`
returns a `Reduction` whose `.step` is that step (or a divide-out, for a
small d), or None when the box admits no step.

All gauge comparisons are decided on integers: with U = un/ud, the norm
N(x) = max(|x1|*un, |x2|*ud) has N(x)^2 = un*ud*g(x)^2.  `box_minima`
applies to N the generalised Gauss reduction of Kaib and Schnorr (J.
Algorithms 21, 1996).  The second Minkowski theorem pins
d/2 <= lambda1*lambda2 <= d exactly (the gauge ball has volume 4), which
is checked on every step.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    DomainError,
    TooLarge,
    VerificationFailed,
    isqrt,
    mod_inverse,
)
from .formats import Record
from .progression import (
    TwoDAP,
    brute_force_witness,
    is_proper,
)

F = Fraction

# `enumerate_gauge_ball`, the replay of the minima, reads at most this many
# rows, and refuses a ball of more before it reads one.
_ENUM_GUARD = 2_000_000
# `reduce_box` divides a gcd up to this size straight out of both
# steps (x_i = d*a_i) and takes a full lattice step for a larger gcd.
SMALL_GCD = 16


class Lattice2(Record):
    """Rank-2 integer lattice from a congruence, with HNF basis rows."""

    d: int
    qt1: int
    qt2: int
    rows: tuple[tuple[int, int], tuple[int, int]]

    def contains(self, x1: int, x2: int) -> bool:
        return (x1 * self.qt1 + x2 * self.qt2) % self.d == 0


def _hnf(d: int, qt1: int, qt2: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Hermite rows (g, h12), (0, d/g) of {x : x1*qt1 + x2*qt2 = 0 (mod d)}.

    Closed form, for gcd(qt1, qt2, d) = 1: x2*qt2 = 0 (mod d) iff d/g | x2
    with g = gcd(qt2, d), and the row over x1 = g solves
    h12*(qt2/g) = -qt1 (mod d/g), where qt2/g is a unit.
    """
    g = math.gcd(qt2, d)
    h22 = d // g
    return ((g, -qt1 * mod_inverse(qt2 // g, h22) % h22), (0, h22))


def congruence_lattice(d: int, qt1: int, qt2: int) -> Lattice2:
    """The lattice {x : x1*qt1 + x2*qt2 = 0 (mod d)}; has determinant d.

    Requires d >= 1 and gcd(qt1, qt2, d) = 1 (so the congruence map is
    surjective and the index is exactly d).
    """
    if d < 1:
        raise DomainError(f"modulus must be positive, got {d}")
    if math.gcd(qt1, qt2, d) != 1:
        raise DomainError(
            f"need gcd(qt1, qt2, d) = 1, got gcd({qt1}, {qt2}, {d}) > 1"
        )
    rows = _hnf(d, qt1, qt2)
    lat = Lattice2(d, qt1, qt2, rows)
    if rows[0][0] * rows[1][1] != d or not (lat.contains(*rows[0]) and lat.contains(*rows[1])):
        raise VerificationFailed(f"HNF rows {rows} are not a basis of determinant {d}")
    return lat


# ------------------------------------------------------------ gauge minima


def _normalize_sign(x1: int, x2: int) -> tuple[int, int]:
    """Flip the vector so its first non-zero coordinate is positive."""
    if x1 < 0 or (x1 == 0 and x2 < 0):
        return -x1, -x2
    return x1, x2


def _norm(x: tuple[int, int], un: int, ud: int) -> int:
    """N(x) = max(|x1|*un, |x2|*ud), an integer with N(x)^2 = un*ud*g(x)^2."""
    return max(abs(x[0]) * un, abs(x[1]) * ud)


def _ratio_parts(u_ratio: Fraction) -> tuple[int, int]:
    """(un, ud) with U = un/ud in lowest terms; refuses U <= 0 (DomainError)."""
    u_ratio = F(u_ratio)
    if u_ratio <= 0:
        raise DomainError(f"aspect ratio must be positive, got {u_ratio}")
    return u_ratio.numerator, u_ratio.denominator


def _candidate_key(x1: int, x2: int, un: int, ud: int) -> tuple:
    return (_norm((x1, x2), un, ud) ** 2, abs(x1), abs(x2), x2 < 0)


def _is_reduced_basis(lat: Lattice2, u: tuple[int, int], v: tuple[int, int], un: int, ud: int) -> bool:
    """u, v is a basis of lat with N(u) <= N(v) <= N(v +- u), so N(u) and N(v) are the minima."""
    sums = ((v[0] + s * u[0], v[1] + s * u[1]) for s in (1, -1))
    return (
        lat.contains(*u) and lat.contains(*v) and abs(u[0] * v[1] - u[1] * v[0]) == lat.d
        and _norm(u, un, ud) <= _norm(v, un, ud) <= min(_norm(w, un, ud) for w in sums)
    )


def box_minima(
    lat: Lattice2, u_ratio: Fraction
) -> tuple[tuple[Fraction, tuple[int, int]], tuple[Fraction, tuple[int, int]]]:
    """Successive minima of the U-scaled box gauge over lat, with attainers.

    Returns ((lambda1^2, u), (lambda2^2, v)): exact squared gauges, u attaining
    the first minimum and v the second (least over vectors independent of u),
    sign-normalized and chosen by the key (g^2, |x1|, |x2|, sign of x2).

    The generalised Gauss reduction in N (Kaib and Schnorr, "The Generalized
    Gauss Reduction Algorithm", J. Algorithms 21, 1996) replaces b by the
    b - mu*a of least N, mu the floor or ceiling of a kink of the convex
    N(b - t*a) (t = b_i/a_i or (b1*un -+ b2*ud)/(a1*un -+ a2*ud)), and swaps
    while N(b) < N(a).  Then N(a) <= N(b) <= N(b + k*a) for all integers k,
    so phi(t) = N(b + t*a), convex and N(a)-Lipschitz, is >= N(b) - N(a)/2:

        N(m*a + n*b) = |n|*phi(m/n) >= |n|*(N(b) - N(a)/2) >= |n|*N(b)/2,

    and lambda1 = N(a), lambda2 = N(b).  An attainer x = m*a + n*b of lambda1
    has |n| <= 2 by this bound (and lambda1 = lambda2 if n != 0), and |m| <= 2:
    if |n| = 1, |m|*lambda1 <= N(x) + N(b) = 2*lambda1; if |n| = 2, m is odd,
    phi(m/2) = lambda1/2 and phi(0) = lambda1, so by convexity no integer lies
    strictly between 0 and m/2.  u is primitive, so u and v0 = b or a form a
    basis; the bound for it leaves the attainers k*u + n*v0 of lambda2 with n
    in {1, 2} after sign normalization.  For each n, the k with N <= lambda2
    form an interval, all at N = lambda2, where |k*u_i + n*v0_i| is least at
    the clamped floor or ceiling of -n*v0_i/u_i (for u_1 != 0 that decides
    |x1|, else |x1| is constant): v is the least key at those points.

    Raises VerificationFailed, also under python -O, unless (u, v) is a
    reduced basis of lat (`_is_reduced_basis`).
    """
    un, ud = _ratio_parts(u_ratio)

    def norm(x):
        return _norm(x, un, ud)

    def comb(m, x, n, y):
        return (m * x[0] + n * y[0], m * x[1] + n * y[1])

    def least(vectors):
        return min((_candidate_key(*p, un, ud), p) for p in (_normalize_sign(*x) for x in vectors))

    a, b = sorted(lat.rows, key=norm)
    while True:  # N(a) falls at each swap
        (a1, a2), (b1, b2) = a, b
        kinks = ((b1, a1), (b2, a2), (b1 * un - b2 * ud, a1 * un - a2 * ud),
                 (b1 * un + b2 * ud, a1 * un + a2 * ud))
        b = min((comb(1, b, -mu, a) for p, q in kinks if q for mu in (p // q, -(-p // q))), key=norm)
        if norm(b) >= norm(a):
            break
        a, b = b, a

    key1, u = least(comb(m, a, n, b) for m in range(-2, 3) for n in range(-2, 3) if m or n)
    v0 = b if abs(u[0] * b[1] - u[1] * b[0]) == lat.d else a

    def attainers(n):
        lo, hi, turns = [], [], []
        for ui, ci, w in ((u[0], n * v0[0], un), (u[1], n * v0[1], ud)):
            ui, ci, r = abs(ui), ci if ui > 0 else -ci, norm(b) // w  # |k*ui + ci| <= r
            if ui:
                lo.append(-((r + ci) // ui))
                hi.append((r - ci) // ui)
                turns += [-ci // ui, -(ci // ui)]
            elif abs(ci) > r:
                return []
        k0, k1 = max(lo), min(hi)
        return [comb(k, u, n, v0) for k in {min(max(t, k0), k1) for t in turns} if k0 <= k1]

    key2, v = least(attainers(1) + attainers(2))
    if not _is_reduced_basis(lat, u, v, un, ud):
        raise VerificationFailed(f"minima attainers {u}, {v} are not a reduced basis of the lattice")
    return (F(key1[0], un * ud), u), (F(key2[0], un * ud), v)


def enumerate_gauge_ball(
    lat: Lattice2, u_ratio: Fraction, gsq_bound: Fraction
) -> list[tuple[int, int]]:
    """All non-zero lattice points with g(x)^2 <= gsq_bound, sign-normalized,
    sorted by the minima key.  Independent certification route for
    `box_minima`; refuses (TooLarge) a ball of more than _ENUM_GUARD rows
    before it reads one, and a row or a point list past that size.
    """
    un, ud = _ratio_parts(u_ratio)
    bound_scaled = F(gsq_bound) * un * ud
    (h11, h12), (_, h22) = lat.rows
    # Row s holds points only if (s*h11*un)^2 <= bound_scaled, with |x2| <=
    # sqrt(bound_scaled)/ud over the class x2 = s*h12 (mod h22); a negative
    # bound leaves row 0 alone.  floor(sqrt(x)) = isqrt(floor(x)), x >= 0.
    n, m = max(bound_scaled.numerator, 0), bound_scaled.denominator
    rows = isqrt(n // (m * (h11 * un) ** 2))
    if rows > _ENUM_GUARD:
        raise TooLarge(f"gauge ball enumeration would read {rows} rows")
    x2cap = isqrt(n // (m * ud * ud))
    out = []
    for s in range(rows + 1):
        t_lo = -(x2cap + s * h12) // h22
        t_hi = (x2cap - s * h12) // h22
        if t_hi - t_lo > _ENUM_GUARD or len(out) > _ENUM_GUARD:
            raise TooLarge("gauge ball enumeration exceeds guard")
        # Row 0 from t = 1: no zero vector, and no -x beside x.
        for t in range(1 if s == 0 else t_lo, t_hi + 1):
            p = _normalize_sign(s * h11, s * h12 + t * h22)
            if _norm(p, un, ud) ** 2 <= bound_scaled:
                out.append(p)
    return sorted(out, key=lambda p: _candidate_key(*p, un, ud))


# ---------------------------------------------------------- reduction step


class ReductionStep(Record):
    """One reduction event: a gcd divide-out or a full lattice step.

    All quantities live in the post-swap frame where x1bound <= x2bound
    (`swapped` records whether the incoming coordinates were exchanged).
    For mode "divide_out" the substitution is x_i = d*a_i, so u, v are the
    scaled unit vectors and the lambda fields are None.
    """

    mode: str  # "lattice" | "divide_out"
    swapped: bool
    d: int
    qt1: int
    qt2: int
    u_ratio: Fraction
    lam1_sq: Fraction | None
    lam2_sq: Fraction | None
    u: tuple[int, int]
    v: tuple[int, int]
    p1: int
    p2: int
    xt1_sq: Fraction
    xt2_sq: Fraction
    xt1_floor: int
    xt2_floor: int


def _frame(a: TwoDAP, swapped: bool) -> tuple[int, int, Fraction, Fraction]:
    """The box's steps and radii (q1, q2, X1, X2), exchanged if swapped."""
    q1, q2, x1b, x2b = a.q1, a.q2, F(a.x1bound), F(a.x2bound)
    return (q2, q1, x2b, x1b) if swapped else (q1, q2, x1b, x2b)


def _step(
    mode: str, box: TwoDAP, swapped: bool, lam1_sq: Fraction | None, lam2_sq: Fraction | None,
    u: tuple[int, int], v: tuple[int, int],
) -> ReductionStep:
    """The step on basis u, v of L for box, in its frame (swapped or not).

    Derives d, qt, U, p_i = (u_i . qt)/d, Xt_i^2 and floor(Xt_i) =
    isqrt(floor(Xt_i^2)) for both modes.  This is the one place a
    ReductionStep is built, and it runs `_exact_checks` (every check of
    `verify_reduction` but its two replays) on each step: a failed check
    raises VerificationFailed, also under python -O, naming every check
    that failed.
    """
    q1, q2, x1b, x2b = _frame(box, swapped)
    d = math.gcd(q1, q2)
    qt1, qt2 = q1 // d, q2 // d
    if mode == "divide_out":
        xt_sq = ((x1b / d) ** 2, (x2b / d) ** 2)
    else:  # Xt_i^2 = (X1 * X2) / (4 * lambda_i^2), an exact rational.
        xt_sq = (x1b * x2b / (4 * lam1_sq), x1b * x2b / (4 * lam2_sq))
    step = ReductionStep(
        mode, swapped, d, qt1, qt2, x2b / x1b, lam1_sq, lam2_sq, u, v,
        *((w[0] * qt1 + w[1] * qt2) // d for w in (u, v)), *xt_sq,
        *(isqrt(x.numerator // x.denominator) for x in xt_sq),
    )
    failed = [name for name, ok, _ in _exact_checks(step, box) if not ok]
    if failed:
        raise VerificationFailed(f"{mode} step on attainers {u}, {v} mod {d} fails {', '.join(failed)}")
    return step


def reduce_step(
    q1: int, q2: int, x1bound: Fraction, x2bound: Fraction
) -> ReductionStep:
    """Full lattice reduction of a progression with d = gcd(q1, q2) >= 2.

    Requires both radii >= 1.  Coordinates are swapped if needed so the
    aspect ratio U = X2/X1 is >= 1; the returned step records the swap.
    """
    x1b, x2b = F(x1bound), F(x2bound)
    if q1 < 1 or q2 < 1:
        raise DomainError(f"steps must be positive, got ({q1}, {q2})")
    d = math.gcd(q1, q2)
    if d < 2:
        raise DomainError(f"lattice step needs gcd >= 2, got {d}")
    if x1b < 1 or x2b < 1:
        raise DomainError("lattice step needs both radii >= 1")
    box, swapped = TwoDAP(q1, q2, x1b, x2b), x1b > x2b
    q1, q2, x1b, x2b = _frame(box, swapped)
    (lam1_sq, u), (lam2_sq, v) = box_minima(congruence_lattice(d, q1 // d, q2 // d), x2b / x1b)
    return _step("lattice", box, swapped, lam1_sq, lam2_sq, u, v)


def divide_out_step(
    q1: int, q2: int, x1bound: Fraction, x2bound: Fraction
) -> ReductionStep:
    """Crude reduction x_i = d*a_i for small d: steps q_i/d, radii X_i/d."""
    x1b, x2b = F(x1bound), F(x2bound)
    d = math.gcd(q1, q2)
    if d < 2:
        raise DomainError(f"divide-out needs gcd >= 2, got {d}")
    if x1b < d or x2b < d:
        raise DomainError("divide-out needs both radii >= d")
    # The basis (d, 0), (0, d) gives p_i = qt_i and floor(Xt_i) = floor(X_i/d).
    return _step("divide_out", TwoDAP(q1, q2, x1b, x2b), False, None, None, (d, 0), (0, d))


def _exact_sqrt_fraction(x: Fraction) -> Fraction:
    r = F(isqrt(x.numerator), isqrt(x.denominator))
    if r * r != x:
        raise VerificationFailed(f"expected an exact square of a rational, got {x}")
    return r


def derived_instance(step: ReductionStep) -> TwoDAP:
    """Progression reachable after the step.

    Values of the derived progression, multiplied by d^2, are values of
    the original.  Divide-out steps keep exact (possibly fractional)
    radii; lattice steps use the integer coefficient box, i.e. the
    floors.  A zero p_i (possible on improper inputs) contributes nothing
    to the value set, so that axis is normalized to step 1 with radius 0.
    """
    if step.mode == "divide_out":
        return TwoDAP(step.qt1, step.qt2, *map(_exact_sqrt_fraction, (step.xt1_sq, step.xt2_sq)))
    p1, p2 = abs(step.p1), abs(step.p2)
    b1 = step.xt1_floor if p1 else 0
    b2 = step.xt2_floor if p2 else 0
    return TwoDAP(max(p1, 1), max(p2, 1), b1, b2)


class ReductionVerdict(Record):
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def _exact_checks(
    step: ReductionStep, a: TwoDAP, replay: tuple[bool, str] = (True, "")
) -> list[tuple[str, bool, str]]:
    """The checks of `verify_reduction` that read only the step and the box
    a, each exact and O(1) at any size: every check but the two replays.
    The ball replay's verdict and detail, `replay`, are folded into
    minima-certified.  `_step` runs these checks on every step it builds.
    """
    checks: list[tuple[str, bool, str]] = []
    q1, q2, x1b, x2b = _frame(a, step.swapped)
    d = math.gcd(q1, q2)
    (u1, u2), (v1, v2) = step.u, step.v
    checks.append((
        "frame",
        x1b > 0 and d == step.d and (q1 // d, q2 // d) == (step.qt1, step.qt2)
        and step.u_ratio == x2b / x1b and d >= 2,
        f"d={d}",
    ))
    # Integers p_i with p_i*d = (u_i . qt) put u and v on L.
    okc = u1 * v2 - u2 * v1 != 0
    okc &= step.p1 * step.d == u1 * step.qt1 + u2 * step.qt2
    okc &= step.p2 * step.d == v1 * step.qt1 + v2 * step.qt2
    checks.append(("attainers-in-lattice", okc, ""))

    if step.mode == "lattice":
        lat = congruence_lattice(step.d, step.qt1, step.qt2)
        un, ud = step.u_ratio.numerator, step.u_ratio.denominator
        # A reduced basis attains the minima at any size, and confines the
        # attainers of lambda2 independent of u (`box_minima`) to m*u + v for
        # m in an interval and, if lambda1 = lambda2 = lambda, 2*v +- u.
        # Along m*u + v, N, |x1| and |x2| are convex in m, so key(v) <=
        # key(v +- u) bounds every m; for |m| >= 2, ties in N and |x1| would
        # force u1 = 0, and a further tie in |x2| u2 = 0.  If N(2*v + u) =
        # lambda, the midpoints v + u and v of 2*v + u with u and with -u have
        # gauge lambda too, so 2*v + u shares an edge of the gauge square with
        # u and another with -u: it is (u1, -u2), so v = (0, -u2) and
        # key(v) < key(u), or (-u1, u2), so v + u = (0, u2) and key(v + u) <
        # key(v).  Likewise 2*v - u with -u.  So v has the least key of them
        # if key(v) <= key(v +- u), and u the least of all if key(u) <= key(v).
        ok_min = replay[0] and _is_reduced_basis(lat, step.u, step.v, un, ud)
        ok_min &= [_norm(w, un, ud) ** 2 for w in (step.u, step.v)] == [
            step.lam1_sq * un * ud, step.lam2_sq * un * ud]
        ok_min &= _normalize_sign(u1, u2) == step.u and _normalize_sign(v1, v2) == step.v
        keys = [_candidate_key(*_normalize_sign(m * u1 + n * v1, m * u2 + n * v2), un, ud)
                for m, n in ((1, 0), (0, 1), (1, 1), (-1, 1))]
        ok_min &= keys[0] <= keys[1] <= min(keys[2:])
        prod = step.lam1_sq * step.lam2_sq
        radii = step.xt1_sq * 4 * step.lam1_sq == x1b * x2b == step.xt2_sq * 4 * step.lam2_sq
        checks += [
            ("minima-certified", ok_min, replay[1]),
            ("minkowski-window", 4 * prod >= step.d**2 and prod <= step.d**2, f"lam1^2*lam2^2={prod}"),
            ("radii-formula", radii, ""),
        ]
    else:
        checks.append((
            "divide-out-shape",
            (step.u, step.v, step.p1, step.p2) == ((step.d, 0), (0, step.d), step.qt1, step.qt2)
            and (step.xt1_sq, step.xt2_sq) == ((x1b / step.d) ** 2, (x2b / step.d) ** 2),
            "",
        ))
    floors = ((step.xt1_floor, step.xt1_sq), (step.xt2_floor, step.xt2_sq))
    checks.append(("floors", all(f**2 <= x < (f + 1) ** 2 for f, x in floors), ""))

    # Embedding of every (a1, a2) in the derived box, y = a1*u + a2*v, exactly.
    # |y1| and |y2| are convex in (a1, a2), so they peak at a corner, where
    # they are b1t*|u_i| + b2t*|v_i|.  The value identity
    # y1*q1 + y2*q2 = d^2*(a1*p1 + a2*p2) is linear and homogeneous in
    # (a1, a2), so it holds on the box iff it holds at (b1t, 0) and (0, b2t).
    b1t, b2t = step.xt1_floor, step.xt2_floor
    ok_emb = b1t * abs(u1) + b2t * abs(v1) <= x1b and b1t * abs(u2) + b2t * abs(v2) <= x2b
    ok_emb &= b1t == 0 or u1 * q1 + u2 * q2 == step.d**2 * step.p1
    ok_emb &= b2t == 0 or v1 * q1 + v2 * q2 == step.d**2 * step.p2
    checks.append(("embedding", ok_emb, ""))

    if is_proper(a):
        checks.append(("properness-transfer", is_proper(derived_instance(step)), ""))
    else:
        checks.append(("properness-transfer", True, "input improper; vacuous"))
    return checks


def verify_reduction(step: ReductionStep, a: TwoDAP, t: int) -> ReductionVerdict:
    """Independent replay of every claim a ReductionStep makes about a.

    Replays the minima by exhaustive gauge-ball enumeration where the ball
    fits its guard.  Then runs `_exact_checks`, with that replay folded into
    minima-certified: structural consistency, the minima as a reduced basis
    whose attainers carry the least keys, the Minkowski window, the
    embedding of the whole derived box exactly (from its corners and its
    two axis ends), and the transfer of properness.  Last, it replays the
    transfer of square-avoidance by brute force, within its guard.  `_step`
    has run the exact checks on every step the library builds; the two
    replays run only here.  Deterministic: no check samples.
    """
    replay = (True, "")
    if step.mode == "lattice":
        # The ball, sorted by gauge first, also pins the attainers: its first
        # point, and its first point independent of that.
        try:
            lat = congruence_lattice(step.d, step.qt1, step.qt2)
            ball = enumerate_gauge_ball(lat, step.u_ratio, step.lam2_sq)
        except TooLarge:
            replay = (True, "ball beyond guard; replay skipped")
        else:
            indep = (p for p in ball if step.u[0] * p[1] - step.u[1] * p[0] != 0)
            replay = (ball[:1] == [step.u] and next(indep, None) == step.v, f"ball={len(ball)}")
    checks = _exact_checks(step, a, replay)

    try:
        w = brute_force_witness(a, t)
        if w is not None:
            checks.append(("square-transfer", True, "input has a square; vacuous"))
        else:
            wd = brute_force_witness(derived_instance(step), t // (step.d**2))
            checks.append(("square-transfer", wd is None, "" if wd is None else f"derived witness {wd}"))
    except TooLarge:
        checks.append(("square-transfer", True, "box beyond brute-force guard; skipped"))

    return ReductionVerdict(tuple(checks))


# ------------------------------------------------------------- reduction


class Reduction(Record):
    """The reduction's one step (None when it stops), its reason and where it ends."""

    step: ReductionStep | None
    termination: str  # "coprime" | "large-gcd" | "small-box" | "one-dimensional"
    final: TwoDAP
    final_t: int


def reduce_box(q1: int, q2: int, x1bound: Fraction, x2bound: Fraction, t: int) -> Reduction:
    """Take the one reduction step the box admits, or stop.

    The box is checked as `TwoDAP` checks it.  Case analysis on
    d = gcd(q1, q2):

    * d = 1: stop ("coprime"); no reduction applies.
    * d <= SMALL_GCD (small): divide out d when both radii reach d, else stop
      ("small-box": the box is so flat the one-dimensional bound applies).
    * d >= ceil(sqrt(T)): stop ("large-gcd"): for proper inputs one radius
      is already below the complementary reduced step.
    * a radius below 1: stop ("one-dimensional").
    * otherwise: a full lattice step.

    A stop ends on the input box with bound T.  A step ends "coprime" on
    its `derived_instance`, with ambient bound T // d^2: a divide-out
    leaves steps q1/d and q2/d, and after a lattice step x -> x.qt/d maps
    L onto Z while u, v is a basis of L, so gcd(p1, p2) = 1.  So a
    reduction never takes a second step.
    """
    if t < 0:
        raise DomainError(f"ambient bound must be non-negative, got {t}")
    box = TwoDAP(q1, q2, x1bound, x2bound)
    x1b, x2b = box.x1bound, box.x2bound
    d = math.gcd(q1, q2)
    if d == 1:
        stop = "coprime"
    elif d <= SMALL_GCD:
        stop = "small-box" if x1b < d or x2b < d else ""
    elif d * d >= t:
        stop = "large-gcd"
    else:
        stop = "one-dimensional" if x1b < 1 or x2b < 1 else ""
    if stop:
        return Reduction(None, stop, box, t)
    step = (divide_out_step if d <= SMALL_GCD else reduce_step)(q1, q2, x1b, x2b)
    final = derived_instance(step)
    if math.gcd(final.q1, final.q2) != 1:
        raise VerificationFailed(f"{step.mode} step left steps ({final.q1}, {final.q2})")
    return Reduction(step, "coprime", final, t // (d * d))
