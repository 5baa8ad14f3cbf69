"""Tests for the non-residue construction and its machine certificate."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from sqavoid.arith import BadPrime, is_prime
from sqavoid.formats import record
from sqavoid.lowerbound import (
    LowerBoundInstance,
    build_instance,
    least_nonresidue_scan,
    residue_certificate,
    size_vs_t,
)
from sqavoid.progression import (
    SquareWitness,
    brute_force_witness,
    certify_square_free,
    find_square_witness,
    is_proper,
)

F = Fraction


# --------------------------------------------------------------- oracles


def oracle_least_nonresidue(p: int) -> int:
    """Least positive non-square mod p via an explicit residue table."""
    squares = {x * x % p for x in range(1, p)}
    n = 1
    while n in squares:
        n += 1
    return n


def primes_1_mod_4(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [p for p in range(lo, hi + 1) if sieve[p] and p % 4 == 1]


# ---------------------------------------------------------- construction


def test_build_instance_frozen_smallest_prime():
    inst = build_instance(13)
    assert inst == LowerBoundInstance(
        p=13, nqr=2, q=15, x1bound=12, x2bound=1, t=338, size=75
    )


def test_build_instance_frozen_17():
    inst = build_instance(17)
    assert (inst.nqr, inst.q, inst.x2bound) == (3, 20, 2)
    assert inst.t == 578
    assert inst.size == 33 * 5 == 165


def test_build_instance_rejects_bad_primes():
    for bad in (12, 15, 19, 23, 5):  # composite, 3 mod 4, below the floor
        with pytest.raises(BadPrime):
            build_instance(bad)


def test_instance_progression_is_proper():
    for p in primes_1_mod_4(13, 500):
        assert is_proper(build_instance(p).progression)


# ---------------------------------------------------------- certificates


def test_certificate_frozen_13():
    cert = residue_certificate(build_instance(13))
    assert cert.ok
    assert [name for name, _, _ in cert.steps] == [
        "least-nonresidue",
        "admissible-coefficients-are-residues",
        "squares-divisible-by-p",
        "p-squared-escapes-box",
    ]
    assert all(passed for _, passed, _ in cert.steps)


def test_certificate_rejects_tampered_instance():
    good = build_instance(13)
    # Claim a wider second radius than the argument supports: x2 = 2 is a
    # non-residue mod 13, so the residue step must fail.
    bad = LowerBoundInstance(13, 2, 15, 12, 2, 338, 75)
    assert residue_certificate(good).ok
    cert = residue_certificate(bad)
    assert not cert.ok
    failed = [name for name, passed, _ in cert.steps if not passed]
    assert "admissible-coefficients-are-residues" in failed


def test_certificate_rejects_a_box_that_holds_p_squared():
    # Radius 13 along p = 13 reaches x1 = p: 13*13 + 0*15 = 13^2 is a value,
    # and only the step that rules p^2 out fails.
    bad = LowerBoundInstance(13, 2, 15, 13, 1, 338, 81)
    cert = residue_certificate(bad)
    assert [name for name, passed, _ in cert.steps if not passed] == ["p-squared-escapes-box"]
    assert brute_force_witness(bad.progression, bad.t) == SquareWitness(13, 0, 13)


def test_certificate_and_brute_force_agree():
    """Dual route: the residue argument and raw enumeration must both
    declare every instance square-free up to its ambient bound.
    """
    for p in primes_1_mod_4(13, 300):
        inst = build_instance(p)
        assert residue_certificate(inst).ok, p
        a = inst.progression
        assert brute_force_witness(a, inst.t) is None, p
        assert find_square_witness(a, inst.t) is None, p
        cert = certify_square_free(a, inst.t)
        assert cert.kind == "square_free"


def test_witness_appears_just_past_the_radius():
    # Stretching x1 to p recovers the excluded value p^2: the box is tight.
    inst = build_instance(13)
    widened = inst.progression.__class__(inst.p, inst.q, inst.p, inst.x2bound)
    w = brute_force_witness(widened, inst.t)
    assert w is not None and (w.x1, w.x2, w.n) == (13, 0, 13)


def test_size_beats_one_dimensional_budget():
    for p in primes_1_mod_4(13, 1000):
        inst = build_instance(p)
        ratio = size_vs_t(inst)
        assert ratio >= 1, (p, ratio)


def test_size_vs_t_frozen():
    assert size_vs_t(build_instance(13)) == F(75, 36)
    assert size_vs_t(build_instance(17)) == F(165, 72)


# ------------------------------------------------------------------ scan


def test_scan_frozen_up_to_100():
    got = [(r.p, r.nqr) for r in least_nonresidue_scan(100)]
    assert got == [
        (13, 2),
        (17, 3),
        (29, 2),
        (37, 2),
        (41, 3),
        (53, 2),
        (61, 2),
        (73, 5),
        (89, 3),
        (97, 5),
    ]


def test_scan_record_flags():
    recs = least_nonresidue_scan(100)
    assert [r.p for r in recs if r.is_record] == [13, 17, 73]


def test_scan_against_oracle():
    recs = {r.p: r for r in least_nonresidue_scan(600)}
    assert set(recs) == set(primes_1_mod_4(13, 600))
    for p, r in recs.items():
        n = oracle_least_nonresidue(p)
        assert r.nqr == n, p
        assert r.sq_ok == ((n - 1) ** 2 < p)
        assert r.root_ratio == pytest.approx(n / math.sqrt(p))


def test_scan_sq_ok_everywhere_in_range():
    # The radius check (n-1)^2 < p holds for every scanned prime here;
    # it is still recomputed per instance rather than assumed.
    assert all(r.sq_ok for r in least_nonresidue_scan(2000))


def test_random_primes_full_pipeline():
    rng = random.Random(424242)
    pool = primes_1_mod_4(13, 5000)
    for p in rng.sample(pool, 25):
        inst = build_instance(p)
        assert is_prime(inst.p) and inst.q == inst.p + inst.nqr
        assert inst.size == (2 * inst.x1bound + 1) * (2 * inst.x2bound + 1)
        assert residue_certificate(inst).ok
        assert size_vs_t(inst) >= 1


def test_instance_json_fields():
    blob = record(build_instance(13))
    assert blob == {
        "p": "13",
        "nqr": "2",
        "q": "15",
        "x1bound": "12",
        "x2bound": "1",
        "t": "338",
        "size": "75",
    }
