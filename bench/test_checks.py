"""Tests of the benchmark's independent checkers: each forged answer is rejected.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from random import Random

import checks
import tracing


def naive_first_square(q1, q2, b1, b2, t):
    roots = [
        math.isqrt(v)
        for x1 in range(-b1, b1 + 1)
        for x2 in range(-b2, b2 + 1)
        if 1 <= (v := x1 * q1 + x2 * q2) <= t and math.isqrt(v) ** 2 == v
    ]
    return min(roots, default=None)


def test_first_square_matches_full_enumeration():
    rng = Random(7)
    for _ in range(300):
        q1, q2 = rng.randint(1, 40), rng.randint(1, 40)
        b1, b2, t = rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 400)
        assert checks.first_square(q1, q2, b1, b2, t) == naive_first_square(q1, q2, b1, b2, t)


# ------------------------------------------------------------------ certify

# p = 13 = 5 (mod 8): the non-residue box (13, 15, 12, 1) avoids every square,
# and widening x1's radius to 13 lets in 13^2 = 13*13 + 0*15 and nothing smaller.
WITNESS_BOX = (13, 15, Fraction(13), Fraction(8, 7), 200)
SQUARE_FREE_BOX = (13, 15, Fraction(12), Fraction(1), 338)


def record(box, kind, **fields):
    q1, q2, x1bound, x2bound, t = box
    rec = {"kind": kind, "q1": str(q1), "q2": str(q2), "x1bound": str(x1bound), "x2bound": str(x2bound),
           "t": str(t), "brute_force": "agree", "schema_version": "1"}
    rec.update({k: str(v) for k, v in fields.items()})
    return json.dumps(rec) + "\n"


def test_verify_accepts_true_answers():
    assert checks.check_verify(WITNESS_BOX, 1, record(WITNESS_BOX, "Witness", x1=13, x2=0, n=13)) == []
    assert checks.check_verify(SQUARE_FREE_BOX, 0, record(SQUARE_FREE_BOX, "SquareFree", n_max=13)) == []


def test_verify_rejects_forged_witnesses():
    forged = [
        dict(x1=12, x2=0, n=13),  # not a square
        dict(x1=13, x2=0, n=13, brute_force="MISMATCH"),
        dict(x1=13, x2=0, n=13, brute_force="skipped-guard"),
    ]
    for fields in forged:
        assert checks.check_verify(WITNESS_BOX, 1, record(WITNESS_BOX, "Witness", **fields))
    assert checks.check_verify(WITNESS_BOX, 0, record(WITNESS_BOX, "Witness", x1=13, x2=0, n=13))
    tight = (13, 15, Fraction(13), Fraction(1), 168)  # 13^2 > t
    assert checks.check_verify(tight, 1, record(tight, "Witness", x1=13, x2=0, n=13))
    small = (5, 4, Fraction(3), Fraction(3), 100)  # 1 = 1*5 - 1*4 comes first
    assert checks.check_verify(small, 1, record(small, "Witness", x1=1, x2=-1, n=1)) == []
    assert checks.check_verify(small, 1, record(small, "Witness", x1=1, x2=1, n=3))
    assert checks.check_verify(small, 1, record(small, "Witness", x1=0, x2=1, n=2))
    # 1 = 0*5 + 1*1 = 1*5 - 4*1: the canonical pair has the least |x1|.
    box = (5, 1, Fraction(3), Fraction(9), 9)
    assert checks.check_verify(box, 1, record(box, "Witness", x1=0, x2=1, n=1)) == []
    assert checks.check_verify(box, 1, record(box, "Witness", x1=1, x2=-4, n=1))


def test_verify_rejects_forged_square_free_verdicts():
    assert checks.check_verify(SQUARE_FREE_BOX, 1, record(SQUARE_FREE_BOX, "SquareFree", n_max=13))
    assert checks.check_verify(SQUARE_FREE_BOX, 0, record(SQUARE_FREE_BOX, "SquareFree", n_max=12))
    for box in (WITNESS_BOX, (13, 16, Fraction(12), Fraction(1), 338), (15, 17, Fraction(12), Fraction(1), 338)):
        assert checks.check_verify(box, 0, record(box, "SquareFree", n_max=math.isqrt(box[4])))
    other = (13, 15, Fraction(11), Fraction(1), 338)
    assert checks.check_verify(SQUARE_FREE_BOX, 0, record(other, "SquareFree", n_max=13))


# ------------------------------------------------------------------- survey


def test_balanced_cap_is_least():
    for q1 in range(1, 30):
        for q2 in range(q1, 30):
            n = checks.balanced_cap(q1, q2)
            assert n**16 >= q1**9 * q2**4 and (n == 1 or (n - 1) ** 16 < q1**9 * q2**4)


def true_rows(q_min, q_max):
    rows = []
    for q1 in range(q_min, q_max + 1):
        for q2 in range(q1, q_max + 1):
            if math.gcd(q1, q2) != 1:
                continue
            cap = checks.balanced_cap(q1, q2)
            n, x2 = next((n, x2) for n in range(1, cap + 1) for x2 in range(-q1, q1 + 1) if (n * n - x2 * q2) % q1 == 0)
            rows.append((q1, q2, cap, n, (n * n - x2 * q2) // q1, x2))
    return rows


def test_survey_accepts_true_rows_and_counts_pairs():
    assert checks.coprime_pairs(2, 5) == 5  # (2,3) (2,5) (3,4) (3,5) (4,5)
    assert checks.check_survey(2, 9, true_rows(2, 9)) == []


def test_survey_rejects_forged_rows():
    rows = true_rows(2, 9)
    q1, q2, cap, n, x1, x2 = rows[3]
    forged = [
        (q1, q2, cap, n, x1 + 1, x2),  # not a square
        (q1, q2, cap + 1, n, x1, x2),  # wrong cap
        (q1, q2 + 1, cap, n, x1, x2),  # another pair
    ]
    for row in forged:
        assert checks.check_survey(2, 9, rows[:3] + [row] + rows[4:])
    assert checks.check_survey(2, 9, rows[:-1])  # a pair missing
    assert checks.check_survey(2, 9, rows + rows[-1:])  # a pair twice
    assert checks.check_survey_row(3, 5, 3, 3, 3, 0) == []
    assert checks.check_survey_row(3, 5, 3, 4, 7, -1)  # 16 = 7*3 - 1*5, but n > N = 3
    assert checks.check_survey_row(4, 6, checks.balanced_cap(4, 6), 2, 1, 0)  # not coprime


# -------------------------------------------------------------------- sweep

ONE_D = ("one_d", 12, 1, 2, 0, 5)  # kernel(12) = 3
LOWER = ("lower_bound", 13, 15, 12, 1, 75)
LOCAL = ("random_local", 13, 15, 12, 1, 75)


def test_sweep_accepts_true_boxes():
    assert checks.check_sweep(338, [ONE_D, LOWER], LOWER) == []
    assert checks.check_sweep(338, [ONE_D, LOWER, LOCAL], LOWER) == []


def test_sweep_rejects_forged_boxes():
    t = 338
    forged = [
        ("one_d", 12, 1, 3, 0, 7),  # 3*12 = 36
        ("one_d", 12, 2, 2, 0, 5),  # not one-dimensional
        ("lower_bound", 13, 16, 12, 1, 75),  # 16 is a residue, and a square
        ("lower_bound", 13, 15, 12, 1, 74),  # wrong size
        ("random_local", 7, 9, 1, 1, 9),  # 9 = 0*7 + 1*9
    ]
    for box in forged:
        family = box[0]
        others = [fb for fb in (ONE_D, LOWER) if fb[0] != family]
        assert checks.check_sweep(t, others + [box], max(others + [box], key=lambda fb: fb[5])), box
    assert checks.check_sweep(t, [ONE_D, LOWER], ONE_D)  # not the largest
    assert checks.check_sweep(t, [LOWER], LOWER)  # one_d missing
    # Values of (6, 10, 5, 3) are even, so none is a square up to 3, but
    # 5*6 - 3*10 = 0 makes two pairs collide.
    assert checks.check_family_box("random_local", 6, 10, 5, 3, 77, 3) == [
        "random_local: box (6, 10, 5, 3) is not proper"
    ]


# ------------------------------------------------------------------ tracing


def test_walk_counts_match_direct_count():
    rng = Random(3)
    for _ in range(200):
        q1, q2 = rng.randint(1, 30), rng.randint(1, 30)
        b1, b2, t = rng.randint(0, 15), rng.randint(0, 15), rng.randint(0, 900)
        hit = naive_first_square(q1, q2, b1, b2, t)
        d = math.gcd(q1, q2)
        last = hit if hit is not None else math.isqrt(max(0, min(t, b1 * q1 + b2 * q2)))
        touched = sum(
            1
            for n in range(1, last + 1)
            if n * n % d == 0
            for x1 in range(-b1, b1 + 1)
            if (n * n - x1 * q1) % q2 == 0
        )
        assert tracing.walk_counts(q1, q2, b1, b2, t, hit) == (last if min(t, b1 * q1 + b2 * q2) >= 1 else 0, touched)


def test_b_candidates_counts_the_scan():
    assert tracing.b_candidates(7, 1) == 1
    assert tracing.b_candidates(7, -1) == 2
    assert tracing.b_candidates(6, 5) == 3  # 1, -1, then 5 (2, 3 and 4 share a factor with 6)
