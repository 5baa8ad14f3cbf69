"""Acceptance suite: one test per primary criterion, each printing a
single PASS line with its measured numbers (the line is only reached when
every assertion in the criterion holds).  Tolerances are exact rational
equalities unless a criterion explicitly reports a float for display.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from sqavoid.arith import is_perfect_square
from sqavoid.bounds import exponent_supremum, one_d_bound
from sqavoid.cli import main
from sqavoid.lattice import (
    box_minima,
    congruence_lattice,
    derived_instance,
    enumerate_gauge_ball,
    reduce_box,
)
from sqavoid.lowerbound import (
    build_instance,
    least_nonresidue_scan,
    residue_certificate,
    size_vs_t,
)
from sqavoid.progression import (
    TwoDAP,
    brute_force_witness,
    find_square_witness,
    is_proper,
)
from sqavoid.small_squares import small_square_survey, square_cover_height

F = Fraction

# Coprime pairs 2 <= q1 <= q2 <= 2000 (cross-checked against a direct gcd
# loop at small scale in the unit suite).
COPRIME_PAIRS_2000 = 1_214_588


def _primes_1_mod_4(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [p for p in range(lo, hi + 1) if sieve[p] and p % 4 == 1]


def test_criterion_1_exponent_supremum(capsys):
    """Grid-54 supremum is exactly 20/27 at (16/27, 2/3); the region
    b <= 4/7 caps its first component at exactly 5/7.  Runtime < 1 s."""
    t0 = time.perf_counter()
    sup, points = exponent_supremum(54)
    assert sup == F(20, 27)
    assert any((p.a, p.b) == (F(16, 27), F(2, 3)) for p in points)
    sup_r, _ = exponent_supremum(54, b_max=F(4, 7), component="case1")
    assert sup_r == F(5, 7)

    # Same answers through the command-line surface.
    assert main(["exponent", "--grid", "54"]) == 0
    recs = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert recs[-1]["supremum"] == "20/27"
    assert recs[-1]["argmax"] == "16/27,2/3"
    assert main(["exponent", "--grid", "54", "--b-max", "4/7", "--component", "case1"]) == 0
    recs = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert recs[-1]["supremum"] == "5/7"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\ncriterion 1 exponent-supremum: PASS "
              f"(20/27 at (16/27, 2/3); restricted 5/7; {elapsed:.2f}s)")


def test_criterion_2_constructive_lemma_soundness(capsys):
    """Every coprime pair 2 <= q1 <= q2 <= 2000 yields a verified witness
    with 1 <= n <= N and coefficient ratios under 64, and every row's x2
    ratio is under 64 by the cover-height bound as well.  Runtime < 2 min."""
    t0 = time.perf_counter()
    report = small_square_survey(2000)
    elapsed = time.perf_counter() - t0
    assert report.pairs == COPRIME_PAIRS_2000
    assert report.all_ok, report
    assert report.max_ratio_x2 < 64 and report.max_ratio_x1 < 64
    assert elapsed < 120.0
    # |x2|*N^2 <= |b|*q1^2 and |b| <= H(q1), so a row with H(q1)^4 < 64^4*q1
    # cannot break the ceiling |x2|*N^2 < 64*q1^(9/4): proven, not only counted.
    heights = {q1: square_cover_height(q1) for q1 in range(2, 2001)}
    assert all(h**4 < 64**4 * q1 for q1, h in heights.items())
    top = max(heights, key=lambda q1: heights[q1] / q1**0.25)
    with capsys.disabled():
        print(f"criterion 2 constructive-lemma: PASS "
              f"({report.pairs} pairs; max |x2| ratio {report.max_ratio_x2:.2f} "
              f"at {report.argmax_x2}, max |x1| ratio {report.max_ratio_x1:.2f} "
              f"at {report.argmax_x1}; max H(q1)/q1^(1/4) "
              f"{heights[top] / top**0.25:.2f} at q1 = {top}, H = {heights[top]}; "
              f"{elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence(capsys):
    """find_square_witness == brute_force_witness (same option, same
    triple) on 10^4 random instances, q2 <= 500, radii <= 50.  < 1 min."""
    t0 = time.perf_counter()
    rng = random.Random(90210)
    for _ in range(10_000):
        q2 = rng.randint(1, 500)
        q1 = rng.randint(1, q2)
        a = TwoDAP(q1, q2, rng.randint(0, 50), rng.randint(0, 50))
        t = rng.randint(1, 2 * a.value_bound() + 1)
        assert find_square_witness(a, t) == brute_force_witness(a, t), (a, t)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"criterion 3 oracle-equivalence: PASS "
              f"(10000 instances, zero mismatches; {elapsed:.1f}s)")


def test_criterion_4_lower_bound_family(capsys):
    """Every prime p = 1 (mod 4) in [13, 2000]: certificate passes,
    independent brute force finds no square, the box is proper, and
    size/(isqrt(T)*n(p)) >= 1.  Runtime < 2 min."""
    t0 = time.perf_counter()
    primes = _primes_1_mod_4(13, 2000)
    worst = None
    for p in primes:
        inst = build_instance(p)
        assert residue_certificate(inst).ok, p
        a = inst.progression
        assert brute_force_witness(a, inst.t) is None, p
        assert is_proper(a), p
        ratio = size_vs_t(inst)
        assert ratio >= 1, (p, ratio)
        if worst is None or ratio < worst[1]:
            worst = (p, ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        print(f"criterion 4 lower-bound-family: PASS "
              f"({len(primes)} primes; min ratio {float(worst[1]):.3f} "
              f"at p={worst[0]}; {elapsed:.1f}s)")


def test_criterion_5_minkowski_window(capsys):
    """10^3 random (d, qt1, qt2, U) with d <= 10^4: exactly
    d/2 <= lambda1*lambda2 <= d, and both minima certified by full
    gauge-ball enumeration.  Zero violations.  Runtime < 2 min."""
    t0 = time.perf_counter()
    rng = random.Random(31337)
    biggest_ball = 0
    for _ in range(1000):
        d = rng.randint(1, 10_000)
        while True:
            qt1, qt2 = rng.randint(0, 2 * d), rng.randint(0, 2 * d)
            if math.gcd(qt1, qt2, d) == 1:
                break
        u_ratio = F(rng.randint(1, 50), rng.randint(1, 50))
        lat = congruence_lattice(d, qt1, qt2)
        (l1, u), (l2, v) = box_minima(lat, u_ratio)
        assert 4 * l1 * l2 >= d * d, (d, qt1, qt2, u_ratio)  # (lam1*lam2)^2 >= d^2/4
        assert l1 * l2 <= d * d, (d, qt1, qt2, u_ratio)
        ball = enumerate_gauge_ball(lat, u_ratio, l2)
        biggest_ball = max(biggest_ball, len(ball))
        assert ball and ball[0] == u
        indep = [p for p in ball if u[0] * p[1] - u[1] * p[0] != 0]
        assert indep and indep[0] == v
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        print(f"criterion 5 minkowski-window: PASS "
              f"(1000 lattices, zero violations, largest certifying ball "
              f"{biggest_ball} points; {elapsed:.1f}s)")


def test_criterion_6_reduction_transfer(capsys):
    """200 composed instances with gcd in [2, 20]: every reduction
    terminates and square-avoidance transfers to its derived instance
    under brute-force checking.  Zero violations."""
    t0 = time.perf_counter()
    rng = random.Random(6174)
    built = 0
    square_free_inputs = 0
    while built < 200:
        d = rng.randint(2, 20)
        qt1, qt2 = rng.randint(1, 15), rng.randint(1, 15)
        if math.gcd(qt1, qt2) != 1:
            continue
        built += 1
        q1, q2 = d * qt1, d * qt2
        x1b, x2b = rng.randint(1, 8), rng.randint(1, 8)
        t = rng.randint(10, 2000)
        a = TwoDAP(q1, q2, x1b, x2b)
        step = reduce_box(q1, q2, F(x1b), F(x2b), t).step  # must terminate
        if brute_force_witness(a, t) is not None:
            continue  # transfer hypothesis is vacuous
        square_free_inputs += 1
        if step is not None:
            derived = derived_instance(step)
            floored = TwoDAP(derived.q1, derived.q2, derived.b1, derived.b2)
            assert brute_force_witness(floored, t // step.d**2) is None, (a, t, step)
    elapsed = time.perf_counter() - t0
    assert square_free_inputs >= 30  # the transfer claim was genuinely exercised
    with capsys.disabled():
        print(f"criterion 6 reduction-transfer: PASS "
              f"(200 reductions terminated; {square_free_inputs} square-free "
              f"inputs transferred with zero violations; {elapsed:.1f}s)")


def test_criterion_7_one_dimensional_characterization(capsys):
    """one_d_bound matches exhaustive search for all q <= 10^4 at
    T = 10^6, and the radius always sits below sqrt(T)."""
    t0 = time.perf_counter()
    t = 10**6
    root = math.isqrt(t)
    squares = [s * s for s in range(1, root + 1)]
    for q in range(1, 10_001):
        # Exhaustive route: the first square multiple of q caps the radius.
        first = next((sq for sq in squares if sq % q == 0), None)
        expected = t // q if first is None else min(t // q, first // q - 1)
        got = one_d_bound(q, t)
        assert got == expected, q
        assert got < root, q
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion 7 one-d-characterization: PASS "
              f"(all q <= 10^4 match, radii < 1000; {elapsed:.1f}s)")


def test_criterion_8_asymptotics_declared_informational(capsys):
    """The epsilon-asymptotics (the 20/27 and 1/2 exponent statements as
    T -> infinity, the Burgess exponent 1/(4*sqrt(e)), and the barrier
    1/2 + 1/(8*sqrt(e)) ~ 0.5758) concern limits no finite run can reach;
    they are NOT asserted here.  This criterion only reports the scan
    statistics that make them plausible at desk scale: max n(p)/log p over
    p <= 10^6 (expected >= 1, no tolerance) and the Burgess ratio."""
    t0 = time.perf_counter()
    recs = least_nonresidue_scan(10**6)
    assert recs  # the informational scan must actually run
    max_log = max(r.nqr / math.log(r.p) for r in recs)
    max_burgess = max(r.burgess_ratio for r in recs)
    top = max(recs, key=lambda r: r.nqr)
    barrier = 0.5 + 1 / (8 * math.sqrt(math.e))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion 8 asymptotics-informational: PASS "
              f"(declared non-reproducible; scan of {len(recs)} primes: "
              f"max n(p)/log p = {max_log:.3f} (expected >= 1, not asserted), "
              f"max Burgess ratio {max_burgess:.3f}, peak n({top.p}) = {top.nqr}, "
              f"barrier exponent {barrier:.4f}; {elapsed:.1f}s)")
