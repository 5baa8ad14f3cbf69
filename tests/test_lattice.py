"""Tests for congruence lattices, box-gauge minima, and the one-step reduction."""

from __future__ import annotations

import itertools
import json
import math
import random
import textwrap
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqavoid import lattice
from sqavoid.arith import DomainError, TooLarge, VerificationFailed
from sqavoid.formats import record
from sqavoid.lattice import (
    SMALL_GCD,
    Lattice2,
    Reduction,
    box_minima,
    congruence_lattice,
    derived_instance,
    divide_out_step,
    enumerate_gauge_ball,
    reduce_box,
    reduce_step,
    verify_reduction,
)
from sqavoid.progression import TwoDAP, brute_force_witness, is_proper

F = Fraction


# --------------------------------------------------------------- oracles


def fsqrt(x: Fraction) -> int:
    """Largest k >= 0 with k*k <= x, by search from the integer part."""
    k = math.isqrt(x.numerator // x.denominator)
    while F((k + 1) * (k + 1)) <= x:
        k += 1
    return k


def oracle_gauge_sq(x1: int, x2: int, u_ratio: Fraction) -> Fraction:
    return max(F(x1 * x1) * u_ratio, F(x2 * x2) / u_ratio)


def oracle_ball(
    d: int, qt1: int, qt2: int, u_ratio: Fraction, gsq_bound: Fraction
) -> list[tuple[int, int]]:
    """Direct congruence filter over the bounding rectangle of the ball.

    Independent of any basis computation: only the defining congruence
    and Fraction gauge arithmetic are used.
    """
    x1cap = fsqrt(gsq_bound / u_ratio)
    x2cap = fsqrt(gsq_bound * u_ratio)
    pts = []
    for x1 in range(0, x1cap + 1):
        lo = -x2cap if x1 else 1
        for x2 in range(lo, x2cap + 1):
            if (x1, x2) == (0, 0):
                continue
            if (x1 * qt1 + x2 * qt2) % d:
                continue
            if oracle_gauge_sq(x1, x2, u_ratio) <= gsq_bound:
                pts.append((x1, x2))
    key = lambda p: (
        oracle_gauge_sq(*p, u_ratio),
        abs(p[0]),
        abs(p[1]),
        p[1] < 0,
    )
    return sorted(pts, key=key)


def oracle_minima(d: int, qt1: int, qt2: int, u_ratio: Fraction):
    """Brute-force successive minima: grow the search bound until two
    independent vectors appear, then take minima by the deterministic key.
    """
    bound = F(1)
    while True:
        pts = oracle_ball(d, qt1, qt2, u_ratio, bound)
        if pts:
            u = pts[0]
            for v in pts[1:]:
                if u[0] * v[1] - u[1] * v[0] != 0:
                    g2 = oracle_gauge_sq(*v, u_ratio)
                    # Everything with gauge <= g(v) is already inside pts.
                    if g2 <= bound:
                        return (
                            (oracle_gauge_sq(*u, u_ratio), u),
                            (g2, v),
                        )
        bound *= 4


def member_via_rows(lat: Lattice2, x1: int, x2: int) -> bool:
    (h11, h12), (_, h22) = lat.rows
    if x1 % h11:
        return False
    a = x1 // h11
    return (x2 - a * h12) % h22 == 0


# ----------------------------------------------------------- HNF basics


def test_hnf_frozen_examples():
    assert congruence_lattice(2, 3, 5).rows == ((1, 1), (0, 2))
    assert congruence_lattice(6, 1, 0).rows == ((6, 0), (0, 1))
    assert congruence_lattice(5, 2, 3).rows == ((1, 1), (0, 5))
    assert congruence_lattice(1, 0, 1).rows == ((1, 0), (0, 1))


def test_hnf_shape_and_membership():
    rng = random.Random(20240817)
    for _ in range(200):
        d = rng.randint(1, 48)
        while True:
            qt1, qt2 = rng.randint(0, 3 * d), rng.randint(0, 3 * d)
            if math.gcd(qt1, qt2, d) == 1:
                break
        lat = congruence_lattice(d, qt1, qt2)
        (h11, h12), (z, h22) = lat.rows
        assert z == 0 and h11 > 0 and h22 > 0 and 0 <= h12 < h22
        assert h11 * h22 == d
        for x1 in range(-d, d + 1):
            for x2 in range(-d, d + 1):
                assert member_via_rows(lat, x1, x2) == lat.contains(x1, x2)


def enumerated_hnf(d: int, qt1: int, qt2: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Hermite rows found by search: the least (0, h22), then the least
    x1 > 0 on any lattice row, with its x2 reduced into [0, h22)."""

    def inside(x1, x2):
        return (x1 * qt1 + x2 * qt2) % d == 0

    h22 = next(x2 for x2 in range(1, d + 1) if inside(0, x2))
    h11, h12 = next(
        (x1, x2) for x1 in range(1, d + 1) for x2 in range(h22) if inside(x1, x2)
    )
    return ((h11, h12), (0, h22))


def test_hnf_matches_enumeration_exhaustively():
    count = 0
    for d in range(1, 41):
        for qt1 in range(2 * d):
            for qt2 in range(2 * d):
                if math.gcd(qt1, qt2, d) == 1:
                    assert congruence_lattice(d, qt1, qt2).rows == enumerated_hnf(d, qt1, qt2)
                    count += 1
    assert count > 50_000


_FORGED_INTERNALS = textwrap.dedent(
    """
    import sys
    from fractions import Fraction
    from sqavoid import lattice
    from sqavoid.arith import VerificationFailed

    if not sys.flags.optimize:
        sys.exit("expected to run under python -O")

    def refused(what, call):
        try:
            call()
        except VerificationFailed:
            return
        sys.exit(what + " passed")

    refused("an inexact rational square root", lambda: lattice._exact_sqrt_fraction(Fraction(2)))
    lat = lattice.congruence_lattice(5, 1, 2)
    lattice._normalize_sign = lambda x1, x2: (0, 1)  # every candidate on one line
    refused("a single line of minima candidates", lambda: lattice.box_minima(lat, Fraction(1)))
    lattice._hnf = lambda d, qt1, qt2: ((1, 1), (0, d))  # determinant d, but 1 + 1 != 0 (mod 6)
    refused("a Hermite row outside the lattice", lambda: lattice.congruence_lattice(6, 1, 1))
    lattice._hnf = lambda d, qt1, qt2: ((1, d - 1), (0, 2 * d))  # inside, but determinant 2d
    refused("a Hermite form of the wrong determinant", lambda: lattice.congruence_lattice(6, 1, 1))
    lattice.derived_instance = lambda step: lattice.TwoDAP(2, 4, 1, 1)  # keeps the factor 2
    refused("a step that leaves a common factor", lambda: lattice.reduce_box(12, 20, 9, 9, 10**4))
    """
)


def test_internal_checks_survive_optimized_mode(run_python):
    proc = run_python("-O", "-c", _FORGED_INTERNALS)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_congruence_lattice_rejects_bad_input():
    with pytest.raises(DomainError):
        congruence_lattice(4, 2, 6)  # gcd(2, 6, 4) = 2
    with pytest.raises(DomainError):
        congruence_lattice(0, 1, 1)


# ----------------------------------------------------------- box minima


def test_box_minima_frozen_even_sum_lattice():
    lat = congruence_lattice(2, 1, 1)  # x1 + x2 even
    (l1, u), (l2, v) = box_minima(lat, F(1))
    assert (l1, u) == (F(1), (1, 1))
    assert (l2, v) == (F(1), (1, -1))


def test_box_minima_frozen_integer_lattice_skew_box():
    lat = congruence_lattice(1, 0, 1)
    (l1, u), (l2, v) = box_minima(lat, F(4))
    assert (l1, u) == (F(1, 4), (0, 1))
    assert (l2, v) == (F(4), (1, 0))


def test_box_minima_frozen_mod5():
    lat = congruence_lattice(5, 2, 3)
    (l1, u), (l2, v) = box_minima(lat, F(1))
    assert (l1, u) == (F(1), (1, 1))
    assert (l2, v) == (F(9), (2, -3))


def test_box_minima_against_oracle():
    rng = random.Random(7041)
    for _ in range(150):
        d = rng.randint(1, 40)
        while True:
            qt1, qt2 = rng.randint(0, 2 * d), rng.randint(0, 2 * d)
            if math.gcd(qt1, qt2, d) == 1:
                break
        u_ratio = F(rng.randint(1, 9), rng.randint(1, 9))
        lat = congruence_lattice(d, qt1, qt2)
        got = box_minima(lat, u_ratio)
        want = oracle_minima(d, qt1, qt2, u_ratio)
        assert got == want, (d, qt1, qt2, u_ratio)


def test_minkowski_window_is_tight_somewhere():
    # The even-sum lattice with a square box attains lam1*lam2 = d/2 ... d.
    lat = congruence_lattice(2, 1, 1)
    (l1, _), (l2, _) = box_minima(lat, F(1))
    assert l1 * l2 == F(1)  # = d^2/4: lower edge of the window
    lat = congruence_lattice(3, 1, 0)  # x1 divisible by 3
    (l1, _), (l2, _) = box_minima(lat, F(1))
    assert l1 * l2 == F(9)  # = d^2: upper edge


def test_enumerate_gauge_ball_matches_oracle():
    rng = random.Random(515)
    for _ in range(80):
        d = rng.randint(1, 30)
        while True:
            qt1, qt2 = rng.randint(0, 2 * d), rng.randint(0, 2 * d)
            if math.gcd(qt1, qt2, d) == 1:
                break
        u_ratio = F(rng.randint(1, 6), rng.randint(1, 6))
        lat = congruence_lattice(d, qt1, qt2)
        (_, _), (l2, _) = box_minima(lat, u_ratio)
        bound = l2 * rng.choice([1, 2, F(3, 2)])
        got = enumerate_gauge_ball(lat, u_ratio, bound)
        want = oracle_ball(d, qt1, qt2, u_ratio, bound)
        assert got == want


def test_enumerate_gauge_ball_refuses_what_box_minima_refuses():
    # A non-positive aspect ratio has no gauge: both refuse it at once,
    # before any enumeration.
    lat = congruence_lattice(6, 1, 1)
    for u_ratio in (F(-1), F(-1, 2), F(0)):
        with pytest.raises(DomainError, match="aspect ratio must be positive"):
            enumerate_gauge_ball(lat, u_ratio, F(4))
        with pytest.raises(DomainError, match="aspect ratio must be positive"):
            box_minima(lat, u_ratio)


@pytest.fixture
def sign_reads(monkeypatch):
    """The vectors the lattice code passes to `_normalize_sign`, as it reads them."""
    read = []

    def counted(x1, x2):
        read.append((x1, x2))
        return x1, x2

    monkeypatch.setattr(lattice, "_normalize_sign", counted)
    return read


def test_box_minima_answers_ten_million_rows_at_once(monkeypatch):
    # Z^2 at U = 1/10^7 and the diagonal lattice mod 10^4 at U = 1/10^8 span
    # 10^7 and 10^8 rows of the gauge ball that holds their second minimum.
    # The reduction reads a few dozen vectors for each.
    sign_reads, normalize = [], lattice._normalize_sign
    monkeypatch.setattr(lattice, "_normalize_sign", lambda *x: sign_reads.append(x) or normalize(*x))
    assert box_minima(congruence_lattice(1, 0, 1), F(1, 10**7)) == (
        (F(1, 10**7), (1, 0)), (F(10**7), (0, 1))
    )
    assert box_minima(congruence_lattice(10**4, 1, 1), F(1, 10**8)) == (
        (F(1), (10**4, 0)), (F(10**8), (1, -1))
    )
    assert len(sign_reads) < 100


def test_box_minima_reads_no_more_rows_than_its_replay(monkeypatch, sign_reads):
    # Z^2 at U = 1/10^4: the ball g^2 <= lambda2^2 = 10^4 spans 10^4 rows.
    # With the replay's row limit one below that, the replay refuses the
    # ball before it reads a row, and the search answers from a few dozen
    # vectors.
    lat = congruence_lattice(1, 0, 1)
    monkeypatch.setattr(lattice, "_ENUM_GUARD", 10**4 - 1)
    with pytest.raises(TooLarge, match="would read 10000 rows"):
        enumerate_gauge_ball(lat, F(1, 10**4), F(10**4))
    assert sign_reads == []
    (lam1_sq, _), (lam2_sq, _) = box_minima(lat, F(1, 10**4))
    assert (lam1_sq, lam2_sq) == (F(1, 10**4), F(10**4)) and 0 < len(sign_reads) < 100


def _equal_minima_lattices():
    """(d, qt1, qt2, U, True) with lambda1 = lambda2: a lattice closed under the
    quarter turn (x1, x2) -> (-x2, x1) at U = 1, where x2 = r*x1 (mod d)
    and r^2 = -1 (mod d), or d*Z x Z (or its transpose) at U = 1/d (or d),
    whose minima are attained by (0, 1), (d, 0) and (d, +-1) alike."""
    turn = st.sampled_from([(d, r) for d in range(2, 120) for r in range(d) if (r * r + 1) % d == 0])
    return st.one_of(
        turn.map(lambda dr: (dr[0], -dr[1] % dr[0], 1, F(1), True)),
        st.integers(2, 300).flatmap(
            lambda d: st.sampled_from([(d, 1, 0, F(1, d), True), (d, 0, 1, F(d), True)])
        ),
    )


@st.composite
def _skewed_lattices(draw):
    """(d, qt1, qt2, U, False): small d, U's numerator or denominator up to 300 over up to 5."""
    d = draw(st.integers(1, 12))
    qt1, qt2 = draw(st.integers(0, 2 * d)), draw(st.integers(0, 2 * d))
    assume(math.gcd(qt1, qt2, d) == 1)
    far, near = draw(st.integers(1, 300)), draw(st.integers(1, 5))
    return d, qt1, qt2, F(far, near) if draw(st.booleans()) else F(near, far), False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(_skewed_lattices(), _equal_minima_lattices()))
def test_box_minima_against_oracle_hypothesis(case):
    d, qt1, qt2, u_ratio, equal_minima = case
    got = box_minima(congruence_lattice(d, qt1, qt2), u_ratio)
    assert got == oracle_minima(d, qt1, qt2, u_ratio)
    assert got[0][0] == got[1][0] or not equal_minima


def test_box_minima_holds_constant_memory():
    # The ball of lambda2 holds 30,001 sign-normalized points on 10^4 + 1 rows:
    # a list of them would take several MiB.
    tracemalloc.start()
    try:
        (lam1_sq, u), (lam2_sq, v) = box_minima(congruence_lattice(1, 0, 1), F(1, 10**4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ((lam1_sq, u), (lam2_sq, v)) == ((F(1, 10**4), (1, 0)), (F(10**4), (0, 1)))
    assert peak < 2**20


def test_enumerate_gauge_ball_refuses_too_many_rows_before_reading_one(sign_reads):
    # At U = 1/10^20 the ball g^2 <= 1 spans rows |x1| <= 10^10 of a lattice
    # with h11 = 1: refused at once, though it holds only 10^6 points.
    with pytest.raises(TooLarge, match="would read 10000000000 rows"):
        enumerate_gauge_ball(congruence_lattice(10**4, 1, 1), F(1, 10**20), F(1))
    assert sign_reads == []


def test_enumerate_gauge_ball_row_guard_is_inclusive(monkeypatch):
    # 10^4 rows x1 = s, of which every hundredth holds one point (s, 0).
    # A guard of 10^4 rows answers; one below it refuses.
    lat = congruence_lattice(100, 1, 1)
    monkeypatch.setattr(lattice, "_ENUM_GUARD", 10**4)
    ball = enumerate_gauge_ball(lat, F(1, 10**8), F(1))
    assert ball == [(100 * s, 0) for s in range(1, 101)]
    monkeypatch.setattr(lattice, "_ENUM_GUARD", 10**4 - 1)
    with pytest.raises(TooLarge, match="would read 10000 rows"):
        enumerate_gauge_ball(lat, F(1, 10**8), F(1))


# --------------------------------------------------------- single steps


def test_reduce_step_frozen_square_box():
    step = reduce_step(6, 10, 4, 4)
    assert step.mode == "lattice" and not step.swapped
    assert (step.d, step.qt1, step.qt2) == (2, 3, 5)
    assert (step.lam1_sq, step.lam2_sq) == (F(1), F(1))
    assert (step.u, step.v) == ((1, 1), (1, -1))
    assert (step.p1, step.p2) == (4, -1)
    assert step.xt1_sq == step.xt2_sq == F(4)
    assert step.xt1_floor == step.xt2_floor == 2
    assert derived_instance(step) == TwoDAP(4, 1, 2, 2)


def test_reduce_step_frozen_coprime_quotients():
    step = reduce_step(14, 21, 1, 1)
    assert (step.d, step.qt1, step.qt2) == (7, 2, 3)
    assert (step.u, step.v) == ((2, 1), (1, -3))
    assert (step.lam1_sq, step.lam2_sq) == (F(4), F(9))
    assert (step.p1, step.p2) == (1, -1)
    assert (step.xt1_floor, step.xt2_floor) == (0, 0)


def test_reduce_step_swaps_to_wide_frame():
    step = reduce_step(6, 10, 7, 4)
    assert step.swapped
    assert (step.qt1, step.qt2) == (5, 3)
    assert step.u_ratio == F(7, 4)


def test_reduce_step_rejects_bad_input():
    with pytest.raises(DomainError):
        reduce_step(3, 5, 4, 4)  # coprime steps
    with pytest.raises(DomainError):
        reduce_step(6, 10, F(1, 2), 4)  # radius below 1
    with pytest.raises(DomainError, match=r"steps must be positive, got \(0, 6\)"):
        reduce_step(0, 6, 4, 4)


def test_divide_out_step_rejects_bad_input():
    with pytest.raises(DomainError, match="divide-out needs gcd >= 2, got 1"):
        divide_out_step(3, 5, 9, 9)
    with pytest.raises(DomainError, match="divide-out needs both radii >= d"):
        divide_out_step(12, 20, 9, F(7, 2))  # d = 4


def test_step_refuses_attainers_off_the_lattice(monkeypatch):
    # (1, 0) . (3, 5) = 3 is odd: not on L = {x : 3*x1 + 5*x2 = 0 (mod 2)}.
    monkeypatch.setattr(lattice, "box_minima", lambda lat, u_ratio: ((F(1), (1, 0)), (F(1), (1, 1))))
    message = r"attainers \(1, 0\), \(1, 1\) mod 2 fails attainers-in-lattice"
    with pytest.raises(VerificationFailed, match=message):
        reduce_step(6, 10, 4, 4)


def test_step_refuses_attainers_out_of_key_order(monkeypatch):
    # On L = {x : x1 + x2 even} at U = 1, (1, 1) and (1, -1) both attain
    # lambda1 = lambda2 = 1, and (1, 1) has the lesser key: in the other
    # order they pass every check of the step but the keys of minima-certified.
    monkeypatch.setattr(lattice, "box_minima", lambda lat, u_ratio: ((F(1), (1, -1)), (F(1), (1, 1))))
    message = r"attainers \(1, -1\), \(1, 1\) mod 2 fails minima-certified$"
    with pytest.raises(VerificationFailed, match=message):
        reduce_step(6, 10, 4, 4)


def test_least_key_certificate_needs_no_farther_neighbour():
    # minima-certified compares key(v) with v +- u only; its comment proves
    # that v +- 2u and 2v +- u then cannot have a smaller key.  Over every
    # congruence lattice with 2 <= d < 40 at seven aspect ratios, every basis
    # of sign-normalized attainers of (lambda1, lambda2) that passes the kept
    # key tests passes the dropped ones, and it is box_minima's own basis.
    def key(p):
        x1, x2 = p if p[0] > 0 or (p[0] == 0 and p[1] > 0) else (-p[0], -p[1])
        return (max(abs(x1) * un, abs(x2) * ud) ** 2, abs(x1), abs(x2), x2 < 0)

    ratios = (F(1), F(2), F(1, 2), F(3, 2), F(2, 3), F(3), F(1, 3))
    bases = 0
    for d in range(2, 40):
        lattices = {}
        for qt1, qt2 in itertools.product(range(d), repeat=2):
            if math.gcd(qt1, qt2, d) == 1:
                lat = congruence_lattice(d, qt1, qt2)
                lattices.setdefault(lat.rows, lat)
        for lat, u_ratio in itertools.product(lattices.values(), ratios):
            un, ud = u_ratio.numerator, u_ratio.denominator
            (lam1_sq, u0), (lam2_sq, v0) = box_minima(lat, u_ratio)
            ball = enumerate_gauge_ball(lat, u_ratio, lam2_sq)
            first = [p for p in ball if key(p)[0] == lam1_sq * un * ud]
            second = [p for p in ball if key(p)[0] == lam2_sq * un * ud]
            passing = []
            for u, v in itertools.product(first, second):
                if abs(u[0] * v[1] - u[1] * v[0]) != d:
                    continue
                bases += 1
                near, far = (
                    [key((m * u[0] + n * v[0], m * u[1] + n * v[1])) for m, n in pairs]
                    for pairs in (((1, 1), (-1, 1)), ((2, 1), (-2, 1), (1, 2), (-1, 2)))
                )
                if key(u) <= key(v) <= min(near):
                    assert key(v) <= min(far), (lat, u_ratio, u, v)
                    passing.append((u, v))
            assert passing == [(u0, v0)], (lat, u_ratio, passing)
    assert bases > 40_000


def test_divide_out_frozen():
    step = divide_out_step(12, 20, 9, 9)
    assert step.mode == "divide_out"
    assert (step.d, step.qt1, step.qt2) == (4, 3, 5)
    assert (step.p1, step.p2) == (3, 5)
    assert derived_instance(step) == TwoDAP(3, 5, F(9, 4), F(9, 4))


def test_verify_reduction_frozen_all_green():
    a = TwoDAP(6, 10, 4, 4)
    verdict = verify_reduction(reduce_step(6, 10, 4, 4), a, 1000)
    assert verdict.ok, verdict.checks
    names = [name for name, _, _ in verdict.checks]
    assert "minima-certified" in names and "embedding" in names


def test_verify_reduction_flags_mismatched_instance():
    step = reduce_step(6, 10, 4, 4)
    verdict = verify_reduction(step, TwoDAP(6, 10, 5, 4), 1000)
    assert not verdict.ok
    assert any(name == "frame" and not ok for name, ok, _ in verdict.checks)


def test_verify_reduction_skips_the_square_transfer_past_the_brute_force_guard():
    # d = 17 takes a lattice step; 10,001 * 20,001 pairs exceed the guard of 10^8.
    a = TwoDAP(34, 51, 5000, 10000)
    step = reduce_box(a.q1, a.q2, a.x1bound, a.x2bound, 10**10).step
    verdict = verify_reduction(step, a, 10**10)
    assert step.mode == "lattice" and verdict.ok, verdict.checks
    assert verdict.checks[-1] == ("square-transfer", True, "box beyond brute-force guard; skipped")


_FORGED_MINIMUM = textwrap.dedent(
    """
    import sys
    from fractions import Fraction

    from forge import forge
    from sqavoid.lattice import reduce_box, verify_reduction
    from sqavoid.progression import TwoDAP

    if sys.flags.optimize != int(sys.argv[1]):
        sys.exit(f"expected optimize flag {sys.argv[1]}, got {sys.flags.optimize}")

    # lambda1^2 is 50.  Claimed as 25, with the radii that 25 gives, every
    # gauge in the ball still lies above the claims.
    a = TwoDAP(100, 150, 500, 40)
    step = reduce_box(a.q1, a.q2, a.x1bound, a.x2bound, 10**8).step
    forged = forge(step, lam1_sq=Fraction(25), xt1_sq=Fraction(200), xt1_floor=14)
    for s, want in ((step, []), (forged, ["minima-certified"])):
        failed = [name for name, ok, _ in verify_reduction(s, a, 10**8).checks if not ok]
        if failed != want:
            sys.exit(f"failed checks {failed} on {s}")
    """
)


def test_a_forged_first_minimum_fails_its_certificate(run_python):
    for flags in (["-O"], []):
        proc = run_python(*flags, "-c", _FORGED_MINIMUM, str(len(flags)))
        assert proc.returncode == 0, proc.stdout + proc.stderr


_FORGED_PAST_GUARD = textwrap.dedent(
    """
    import sys
    from fractions import Fraction

    from forge import forge
    from sqavoid.lattice import reduce_box, verify_reduction
    from sqavoid.progression import TwoDAP

    if sys.flags.optimize != int(sys.argv[1]):
        sys.exit(f"expected optimize flag {sys.argv[1]}, got {sys.flags.optimize}")

    # The ball of lambda2 spans 2,500,002 rows, so no replay runs: the
    # reduced-basis and least-key tests alone must catch each forgery.  The
    # radii and p1 or p2 are forged to match, so no other check fails.
    a = TwoDAP(5000003, 5000003, 1, 1)
    step = reduce_box(a.q1, a.q2, a.x1bound, a.x2bound, 10**14).step
    lam2_sq = Fraction(2500003**2)  # longer than lambda2, inside Minkowski's window
    (u1, u2), (v1, v2) = step.u, step.v

    def forge_v(w):  # w on the lattice, its gauge claimed as lambda2
        g_sq = Fraction(max(w) ** 2)
        return forge(step, v=w, p2=(w[0] + w[1]) // step.d, lam2_sq=g_sq, xt2_sq=1 / (4 * g_sq))

    forgeries = (
        forge(step, lam2_sq=lam2_sq, xt2_sq=1 / (4 * lam2_sq)),
        forge_v((2 * v1 + u1, 2 * v2 + u2)),  # (u, w) has determinant 2d
        forge_v((v1 - u1, v2 - u2)),  # a basis, but N(w + u) < N(w)
        forge_v((v1 + 2 * u1, v2 + 2 * u2)),  # a basis, but N(w - u) < N(w)
        forge(step, u=(-u1, -u2), p1=-step.p1),  # attains lambda1, not sign-normalized
        forge(step, v=(-v1, -v2), p2=-step.p2),  # attains lambda2, not sign-normalized
        forge_v((v1 + u1, v2 + u2)),  # attains lambda2, with a larger key than v
    )
    for s, want in ((step, []), *((f, ["minima-certified"]) for f in forgeries)):
        checks = verify_reduction(s, a, 10**14).checks
        failed = [name for name, ok, _ in checks if not ok]
        if failed != want or ("minima-certified", not want, "ball beyond guard; replay skipped") not in checks:
            sys.exit(f"checks {checks} on {s}")
    """
)


def test_a_forged_minimum_past_the_ball_guard_fails_its_certificate(run_python):
    for flags in (["-O"], []):
        proc = run_python(*flags, "-c", _FORGED_PAST_GUARD, str(len(flags)))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_reduction_random_instances():
    rng = random.Random(99712)
    for _ in range(120):
        d = rng.randint(2, 24)
        while True:
            qt1, qt2 = rng.randint(1, 12), rng.randint(1, 12)
            if math.gcd(qt1, qt2) == 1:
                break
        q1, q2 = d * qt1, d * qt2
        x1b = F(rng.randint(4, 40), rng.randint(1, 4))
        x2b = F(rng.randint(4, 40), rng.randint(1, 4))
        mode = rng.random()
        if mode < 0.7:
            step = reduce_step(q1, q2, x1b, x2b)
        else:
            if x1b < d or x2b < d:
                continue
            step = divide_out_step(q1, q2, x1b, x2b)
        a = TwoDAP(q1, q2, x1b, x2b)
        verdict = verify_reduction(step, a, 40_000)
        assert verdict.ok, (q1, q2, x1b, x2b, verdict.checks)


_EXACT_EMBEDDING = textwrap.dedent(
    """
    import math
    import sys
    from fractions import Fraction
    from random import Random

    from forge import forge
    from sqavoid.lattice import congruence_lattice, divide_out_step, reduce_step, verify_reduction
    from sqavoid.progression import TwoDAP

    if not sys.flags.optimize:
        sys.exit("expected to run under python -O")

    def embedding(step, a):
        return next(ok for name, ok, _ in verify_reduction(step, a, 1000).checks if name == "embedding")

    def every_point_embeds(step, a):
        # The claim itself, point by point over the whole derived box.
        q1, q2, x1b, x2b = a.q1, a.q2, Fraction(a.x1bound), Fraction(a.x2bound)
        if step.swapped:
            q1, q2, x1b, x2b = q2, q1, x2b, x1b
        (u1, u2), (v1, v2) = step.u, step.v
        for a1 in range(-step.xt1_floor, step.xt1_floor + 1):
            for a2 in range(-step.xt2_floor, step.xt2_floor + 1):
                y1, y2 = a1 * u1 + a2 * v1, a1 * u2 + a2 * v2
                if abs(y1) > x1b or abs(y2) > x2b:
                    return False
                if y1 * q1 + y2 * q2 != step.d**2 * (a1 * step.p1 + a2 * step.p2):
                    return False
        return True

    for step, a in (
        (reduce_step(6, 10, 4, 4), TwoDAP(6, 10, 4, 4)),
        (divide_out_step(12, 20, 9, 9), TwoDAP(12, 20, 9, 9)),
    ):
        if not embedding(step, a):
            sys.exit(f"the honest step {step} fails embedding")
        for forged in (forge(step, p1=step.p1 + 1), forge(step, xt1_floor=step.xt1_floor + 1)):
            if embedding(forged, a):
                sys.exit(f"the forged step {forged} passes embedding")
            if verify_reduction(forged, a, 1000) != verify_reduction(forged, a, 1000):
                sys.exit(f"two calls disagree on {forged}")

    # Small random steps of both kinds: a third honest, a third with one field
    # forged, and a third with any small lattice vectors u, v (so the value
    # identity holds, with p_i = (w . qt) / d) and floors, in a box whose
    # radii lie within 2 of the widest |y1|, |y2| of the derived box.
    rng = Random(4177)
    forgeries = (
        lambda s: forge(s, p1=s.p1 + rng.choice((-1, 1))),
        lambda s: forge(s, p2=s.p2 + rng.choice((-1, 1))),
        lambda s: forge(s, xt1_floor=s.xt1_floor + rng.randint(1, 2)),
        lambda s: forge(s, xt2_floor=s.xt2_floor + rng.randint(1, 2)),
        lambda s: forge(s, u=(s.u[0] + rng.choice((-1, 1)), s.u[1])),
        lambda s: forge(s, v=(s.v[0], s.v[1] + rng.choice((-1, 1)))),
    )
    verdicts = []
    while len(verdicts) < 210:
        d = rng.randint(2, 12)
        qt1, qt2 = rng.randint(1, 9), rng.randint(1, 9)
        if math.gcd(qt1, qt2) != 1:
            continue
        x1b = Fraction(rng.randint(3, 30), rng.randint(1, 3))
        x2b = Fraction(rng.randint(3, 30), rng.randint(1, 3))
        if rng.random() < 0.5:
            step = reduce_step(d * qt1, d * qt2, x1b, x2b)
        elif x1b >= d and x2b >= d:
            step = divide_out_step(d * qt1, d * qt2, x1b, x2b)
        else:
            continue
        a = TwoDAP(d * qt1, d * qt2, x1b, x2b)
        kind = len(verdicts) % 3
        if kind == 1:
            step = rng.choice(forgeries)(step)
        elif kind == 2:
            (h11, h12), (_, h22) = congruence_lattice(d, step.qt1, step.qt2).rows
            i, j, k, m = (rng.randint(-2, 2) for _ in range(4))
            u, v = (i * h11, i * h12 + j * h22), (k * h11, k * h12 + m * h22)
            p1, p2 = ((w[0] * step.qt1 + w[1] * step.qt2) // d for w in (u, v))
            b1t, b2t = rng.randint(0, 4), rng.randint(0, 4)
            step = forge(step, u=u, v=v, p1=p1, p2=p2, xt1_floor=b1t, xt2_floor=b2t)
            r1, r2 = (max(0, b1t * abs(wu) + b2t * abs(wv) + rng.randint(-2, 1)) for wu, wv in zip(u, v))
            a = TwoDAP(a.q1, a.q2, *((r2, r1) if step.swapped else (r1, r2)))
        verdict = embedding(step, a)
        if verdict != every_point_embeds(step, a):
            sys.exit(f"the embedding check says {verdict} on {step}, {a}")
        verdicts.append((step.mode, verdict))
    kinds = {case: verdicts.count(case) for case in set(verdicts)}
    if len(kinds) < 4 or min(kinds.values()) < 10:
        sys.exit(f"too few cases of some kind: {kinds}")
    """
)


def test_embedding_check_is_exact_under_python_O(run_python):
    proc = run_python("-O", "-c", _EXACT_EMBEDDING)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ------------------------------------------------------------ reduction


def test_reduce_box_frozen_divide_out_to_coprime():
    result = reduce_box(12, 20, 9, 9, 10_000)
    assert result.step.mode == "divide_out"
    assert result.termination == "coprime"
    assert result.final == TwoDAP(3, 5, F(9, 4), F(9, 4))
    assert result.final_t == 625


def test_reduce_box_frozen_lattice_step_degenerate_axis():
    # gcd 17 exceeds the small-gcd cutoff; the first minimum is orthogonal
    # to the step vector, so one axis of the derived instance collapses.
    result = reduce_box(34, 51, 30, 30, 10**6)
    assert result.step.mode == "lattice"
    assert result.step.p1 == 0 and result.step.p2 == 1
    assert result.termination == "coprime"
    assert result.final == TwoDAP(1, 1, 0, 3)
    assert result.final_t == 10**6 // 289


def test_reduce_box_terminal_reasons():
    assert reduce_box(4, 8, 2, 2, 10**6).termination == "small-box"
    assert reduce_box(34, 51, 30, 30, 100).termination == "large-gcd"
    assert reduce_box(36, 54, F(1, 2), 30, 10**6).termination == "one-dimensional"
    assert reduce_box(3, 5, 10, 10, 100).termination == "coprime"


def test_reduce_box_refuses_a_negative_bound():
    with pytest.raises(DomainError, match="ambient bound must be non-negative, got -1"):
        reduce_box(12, 20, 9, 9, -1)


def test_reduce_box_takes_a_step_past_its_replays_guard():
    # d = 5000003 on the square box: the ball of the second minimum spans
    # 2,500,002 rows, past what `enumerate_gauge_ball` replays.  The step is
    # taken at once, and its certificate checks the reduced basis alone.
    a = TwoDAP(5000003, 5000003, 1, 1)
    took = []
    for _ in range(3):
        start = time.perf_counter()
        step = reduce_box(a.q1, a.q2, a.x1bound, a.x2bound, 10**14).step
        took.append(time.perf_counter() - start)
    assert min(took) < 0.01
    assert (step.u, step.v) == ((1, -1), (2500001, 2500002))
    assert (step.lam1_sq, step.lam2_sq) == (F(1), F(2500002**2))
    verdict = verify_reduction(step, a, 10**14)
    assert verdict.ok, verdict.checks
    assert ("minima-certified", True, "ball beyond guard; replay skipped") in verdict.checks


def test_reduce_box_step_replay():
    """The step, when one is taken, must survive independent verification,
    and the reduction must end on its derived instance with bound T // d^2.
    """
    rng = random.Random(360360)
    for _ in range(60):
        d = rng.choice([2, 3, 4, 6, 17, 19, 23, 25, 30])
        qt1, qt2 = rng.randint(1, 9), rng.randint(1, 9)
        q1, q2 = d * qt1, d * qt2
        x1b = F(rng.randint(2, 30))
        x2b = F(rng.randint(2, 30))
        t = rng.choice([10**4, 10**6, 10**8])
        result = reduce_box(q1, q2, x1b, x2b, t)
        step, final = result.step, result.final
        if step is None:
            assert (final, result.final_t) == (TwoDAP(q1, q2, x1b, x2b), t)
        else:
            verdict = verify_reduction(step, TwoDAP(q1, q2, x1b, x2b), t)
            assert verdict.ok, (q1, q2, x1b, x2b, t, verdict.checks)
            assert step.d == math.gcd(q1, q2)
            assert (final, result.final_t) == (derived_instance(step), t // step.d**2)
        if result.termination == "coprime":
            assert math.gcd(final.q1, final.q2) == 1
        elif result.termination == "large-gcd":
            dd = math.gcd(final.q1, final.q2)
            assert dd * dd >= result.final_t


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    d=st.one_of(st.integers(2, SMALL_GCD), st.integers(SMALL_GCD + 1, 400)),
    qt1=st.integers(1, 300),
    qt2=st.integers(1, 300),
    x1b=st.fractions(0, 10**5, max_denominator=4),
    x2b=st.fractions(0, 10**5, max_denominator=4),
    t=st.integers(0, 10**16),
)
def test_one_step_leaves_coprime_steps_hypothesis(d, qt1, qt2, x1b, x2b, t):
    # Why a reduction takes at most one step: every derived instance has
    # coprime steps, so the next stage could only stop as "coprime".
    assume(math.gcd(qt1, qt2) == 1)
    q1, q2 = d * qt1, d * qt2
    derived = []
    if x1b >= d and x2b >= d:
        derived.append(derived_instance(divide_out_step(q1, q2, x1b, x2b)))
    if x1b >= 1 and x2b >= 1:
        derived.append(derived_instance(reduce_step(q1, q2, x1b, x2b)))
    for a in derived:
        assert math.gcd(a.q1, a.q2) == 1, a
    result = reduce_box(q1, q2, x1b, x2b, t)
    if result.step is not None:
        assert result.step.d == d
        assert result.termination == "coprime" and result.final_t == t // (d * d)


def test_reduce_box_refuses_what_twodap_refuses():
    for box in [(12, 20, -9, 9), (12, 20, 9, F(-1, 2)), (-3, 5, 2, 2), (0, 0, 2, 2)]:
        with pytest.raises(DomainError) as refused:
            TwoDAP(*box)
        with pytest.raises(DomainError) as reduce_refused:
            reduce_box(*box, 10_000)
        assert str(reduce_refused.value) == str(refused.value), box


def test_square_avoidance_transfers_to_derived_box():
    """If the original avoids squares up to T, its derived instance
    avoids squares up to the reduced ambient bound (checked by full
    enumeration, the independent route).
    """
    rng = random.Random(1717)
    found = 0
    for _ in range(400):
        d = rng.choice([2, 3, 5, 7])
        qt1, qt2 = rng.randint(1, 20), rng.randint(1, 20)
        if math.gcd(qt1, qt2) != 1:
            continue
        q1, q2 = d * qt1, d * qt2
        x1b, x2b = rng.randint(1, 8), rng.randint(1, 8)
        t = rng.randint(10, 600)
        a = TwoDAP(q1, q2, x1b, x2b)
        if brute_force_witness(a, t) is not None:
            continue
        found += 1
        result = reduce_box(q1, q2, F(x1b), F(x2b), t)
        final = result.final
        floored = TwoDAP(final.q1, final.q2, final.b1, final.b2)
        assert brute_force_witness(floored, result.final_t) is None, (a, result.step)
    assert found >= 40  # the scan must actually exercise square-free inputs


def test_properness_preserved_by_divide_out():
    rng = random.Random(88)
    for _ in range(100):
        d = rng.randint(2, 9)
        qt1, qt2 = rng.randint(1, 30), rng.randint(1, 30)
        if math.gcd(qt1, qt2) != 1:
            continue
        x1b, x2b = F(rng.randint(d, 30)), F(rng.randint(d, 30))
        a = TwoDAP(d * qt1, d * qt2, x1b, x2b)
        if not is_proper(a):
            continue
        assert is_proper(derived_instance(divide_out_step(d * qt1, d * qt2, x1b, x2b)))


def test_reduction_holds_its_step_or_none():
    result = reduce_box(12, 20, 9, 9, 10_000)
    assert isinstance(result, Reduction)
    assert result.step == divide_out_step(12, 20, 9, 9)
    assert result.final == derived_instance(result.step)
    stopped = reduce_box(3, 5, 10, 10, 100)
    assert stopped.step is None
    assert stopped.final == TwoDAP(3, 5, 10, 10)


def test_step_json_round_trip_fields():
    blob = record(reduce_step(6, 10, 4, 4))
    assert blob["mode"] == "lattice" and blob["swapped"] == "false"
    assert blob["d"] == "2"
    assert json.loads(blob["u"]) == ["1", "1"] and json.loads(blob["v"]) == ["1", "-1"]
    assert blob["lam1_sq"] == "1"
    assert blob["xt1_sq"] == "4"
