"""Tests for the one-dimensional bound and the exponent calculus."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from sqavoid.arith import DomainError, is_perfect_square
from sqavoid.bounds import (
    MAX_GRID,
    CaseReport,
    ExponentPoint,
    case_exponent,
    exponent_supremum,
    exponent_surface,
    one_d_bound,
)


# ---------------------------------------------------------------- oracles


def oracle_one_d(q: int, t: int) -> int:
    """Scan x = 1, 2, ... for the first square multiple of q inside [1, t]."""
    for x in range(1, t // q + 1):
        if is_perfect_square(x * q):
            return x - 1
    return t // q


# ------------------------------------------------------------- 1-d bounds


def test_one_d_bound_frozen():
    assert one_d_bound(12, 1000) == 2  # 3*12 = 36 = 6^2 kills x = 3
    assert one_d_bound(1, 100) == 0
    assert one_d_bound(9973, 10**6) == 100
    with pytest.raises(DomainError):
        one_d_bound(0, 10)
    with pytest.raises(DomainError, match="ambient bound must be non-negative, got -1"):
        one_d_bound(5, -1)


def test_one_d_bound_matches_scan():
    for q in range(1, 300):
        assert one_d_bound(q, 10**4) == oracle_one_d(q, 10**4), q


def test_one_d_bound_below_sqrt():
    rng = random.Random(2)
    for _ in range(500):
        q = rng.randint(1, 10**6)
        t = rng.randint(0, 10**9)
        assert one_d_bound(q, t) <= math.isqrt(t)


def test_exponent_surface_refuses_an_unknown_component():
    with pytest.raises(DomainError, match="unknown component 'x'"):
        exponent_surface(4, component="x")


# --------------------------------------------------------- case exponents


def test_case_exponent_frozen_supremum_point():
    rep = case_exponent(ExponentPoint(F(16, 27), F(2, 3)))
    assert rep.exponent == F(20, 27)
    assert rep.case_label == "2A1"
    assert rep.case1 == F(2, 3)
    assert rep.case2 == F(20, 27)


def test_case_exponent_frozen_samples():
    rep = case_exponent(ExponentPoint(F(1, 2), F(3, 5)))
    assert rep.case1 == F(7, 10)
    assert rep.case2 == F(20, 27)
    assert rep.exponent == F(20, 27)
    assert rep.case_label == "2B1"

    rep = case_exponent(ExponentPoint(1, 1))
    assert rep.exponent == F(1, 2)
    assert rep.case_label == "1B"
    assert rep.case2 == 0 and rep.case2_label == "2A2"

    rep = case_exponent(ExponentPoint(0, F(4, 7)))
    assert rep.case1 == F(5, 7) and rep.case1_label == "1A"
    assert rep.exponent == F(20, 27)

    # Far corner: everything capped by the interval bounds.
    rep = case_exponent(ExponentPoint(F(9, 10), 1))
    assert rep.case2 == 2 - F(9, 10) - 1 == F(1, 10)


def test_case_exponent_case1_continuous_at_cutoff():
    at = case_exponent(ExponentPoint(F(1, 2), F(4, 7)))
    just_above = case_exponent(ExponentPoint(F(1, 2), F(4, 7) + F(1, 10**6)))
    assert at.case1 == F(5, 7)
    assert abs(just_above.case1 - F(5, 7)) < F(1, 10**5)


def test_exponent_point_validation():
    with pytest.raises(DomainError):
        ExponentPoint(F(2, 3), F(1, 3))  # a > b
    with pytest.raises(DomainError):
        ExponentPoint(F(-1, 3), F(1, 3))


def test_supremum_refuses_a_grid_past_max_grid():
    for resolution in (0, MAX_GRID + 1, 10**12):
        with pytest.raises(DomainError):
            exponent_supremum(resolution)


def test_supremum_overall():
    sup, points = exponent_supremum(54)
    assert sup == F(20, 27)
    assert ExponentPoint(F(16, 27), F(2, 3)) in points
    # Resolution-independence: the boundary vertices carry the supremum.
    for res in (27, 28, 31, 108):
        s, pts = exponent_supremum(res)
        assert s == F(20, 27)
        assert ExponentPoint(F(16, 27), F(2, 3)) in pts


def test_supremum_restricted_case1():
    sup, _ = exponent_supremum(54, b_max=F(4, 7), component="case1")
    assert sup == F(5, 7)
    # The other case never exceeds the global supremum on that strip.
    sup2, _ = exponent_supremum(54, b_max=F(4, 7), component="case2")
    assert sup2 == F(20, 27)


def test_supremum_refuses_an_empty_region():
    # Every point of the simplex has b >= 0; b_max = 0 still keeps (0, 0).
    with pytest.raises(DomainError):
        exponent_supremum(4, b_max=F(-1))
    assert exponent_supremum(4, b_max=F(0))[1] == [ExponentPoint(F(0), F(0))]


def test_supremum_points_come_sorted_by_a_then_b():
    # The walk yields the off-grid vertices after the grid; the points come
    # back re-sorted by (a, b), each once.
    for res in (1, 3, 7, 27):
        for b_max in (None, F(0), F(1, 3), F(4, 7), F(2, 3), F(1)):
            for component in ("overall", "case1", "case2"):
                _, points = exponent_supremum(res, b_max=b_max, component=component)
                keys = [(p.a, p.b) for p in points]
                assert keys == sorted(keys) and len(set(keys)) == len(keys), (res, b_max, component)


def test_supremum_matches_dense_scan():
    # Independent certification on a fine grid: no value above 20/27 and the
    # maximum is attained.
    best = F(0)
    r = 101
    for j in range(r + 1):
        for i in range(j + 1):
            v = case_exponent(ExponentPoint(F(i, r), F(j, r))).exponent
            assert v <= F(20, 27)
            best = max(best, v)
    assert best == F(20, 27)

