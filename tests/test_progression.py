"""Tests for the progression model and the two witness-search routes."""

from __future__ import annotations

import importlib
import inspect
import json
import math
import random
import tracemalloc
import types
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqavoid import progression
from sqavoid.arith import (
    DomainError,
    FactorizationFailed,
    TooLarge,
    factorize,
    is_prime,
    isqrt,
    sqrt_classes,
    squarefree_kernel,
)
from sqavoid.bounds import one_d_bound
from sqavoid.formats import record
from sqavoid.lowerbound import build_instance
from sqavoid.progression import (
    Certificate,
    SquareWitness,
    TwoDAP,
    _least_root,
    _root_blocks,
    _row_scan,
    _walk_rows,
    brute_force_witness,
    cardinality,
    certify_box,
    certify_square_free,
    find_square_witness,
    is_proper,
    max_radius,
    walk_roots,
)

# The package's `sweep` attribute is the function, so fetch the module.
sweep_module = importlib.import_module("sqavoid.sweep")


# ---------------------------------------------------------------- oracles


def oracle_values(a: TwoDAP) -> list[int]:
    return [
        x1 * a.q1 + x2 * a.q2
        for x1 in range(-a.b1, a.b1 + 1)
        for x2 in range(-a.b2, a.b2 + 1)
    ]


def oracle_witness(a: TwoDAP, t: int) -> SquareWitness | None:
    """Reference search: full box scan with the documented tie-break."""
    cap = min(t, a.value_bound())
    best = None
    for x1 in range(-a.b1, a.b1 + 1):
        for x2 in range(-a.b2, a.b2 + 1):
            v = x1 * a.q1 + x2 * a.q2
            if 1 <= v <= cap:
                r = isqrt(v)
                if r * r == v:
                    key = (r, abs(x1), x1 < 0)
                    if best is None or key < best[0]:
                        best = (key, SquareWitness(x1, x2, r))
    return None if best is None else best[1]


def oracle_max_radius(q: int, other_q: int, other_r: int, t: int) -> int:
    """Radius by radius: the largest r whose box fits in [-t, t] and has no square."""
    room = (t - other_r * other_q) // q
    r = -1
    while r < room and brute_force_witness(TwoDAP(q, other_q, r + 1, other_r), t) is None:
        r += 1
    return r


def radius(q: int, other_q: int, other_r: int, t: int) -> int:
    """`max_radius` handed the other step's factors, as the sweep hands them."""
    return max_radius(q, other_q, factorize(other_q), other_r, t)


def random_instance(rng: random.Random, qmax: int = 60, xmax: int = 8) -> TwoDAP:
    q1 = rng.randint(1, qmax)
    q2 = rng.randint(1, qmax)
    x1 = Fraction(rng.randint(0, 4 * xmax), rng.randint(1, 4))
    x2 = Fraction(rng.randint(0, 4 * xmax), rng.randint(1, 4))
    return TwoDAP(q1, q2, x1, x2)


# ----------------------------------------------------------- frozen values


def test_construction_and_floors():
    a = TwoDAP(2, 3, Fraction(5, 2), Fraction(1, 3))
    assert (a.b1, a.b2) == (2, 0)
    assert cardinality(a) == 5
    assert a.value_bound() == 4
    with pytest.raises(DomainError):
        TwoDAP(0, 3, 1, 1)
    with pytest.raises(DomainError):
        TwoDAP(2, 3, -1, 1)


def test_integer_radii_stay_integers():
    a, b = TwoDAP(13, 15, 12, 1), TwoDAP(13, 15, Fraction(12), Fraction(1))
    assert type(a.x1bound) is int and type(b.x1bound) is Fraction
    assert a == b and hash(a) == hash(b)
    assert record(a) == record(b) == {"q1": "13", "q2": "15", "x1bound": "12", "x2bound": "1"}
    # A bool is normalised, not kept as an int subclass.
    assert type(TwoDAP(1, 2, True, False).x1bound) is Fraction
    with pytest.raises(DomainError):
        TwoDAP(13, 15, -1, 1)
    with pytest.raises(DomainError):
        TwoDAP(13, 15, 12, -1)


def test_cardinality_frozen():
    assert cardinality(TwoDAP(13, 15, 12, 1)) == 75
    assert cardinality(TwoDAP(1, 1, 0, 0)) == 1


def test_is_proper_frozen():
    assert is_proper(TwoDAP(13, 15, 12, 1))
    assert not is_proper(TwoDAP(1, 2, 2, 1))
    # One-dimensional boxes are always proper.
    assert is_proper(TwoDAP(4, 4, 5, 0))


def test_is_proper_matches_enumeration():
    for q1 in range(1, 13):
        for q2 in range(1, 13):
            for b1 in range(0, 4):
                for b2 in range(0, 4):
                    a = TwoDAP(q1, q2, b1, b2)
                    vals = oracle_values(a)
                    assert is_proper(a) == (len(set(vals)) == len(vals)), a


def test_find_square_witness_frozen():
    w = find_square_witness(TwoDAP(3, 5, 2, 2), 25)
    assert w == SquareWitness(2, -1, 1)
    assert 2 * 3 - 1 * 5 == 1

    # Tie at n = 1 between (0, 1) and (1, 0): smallest |x1| wins.
    w = find_square_witness(TwoDAP(1, 1, 1, 1), 2)
    assert w == SquareWitness(0, 1, 1)

    w = find_square_witness(TwoDAP(2, 3, Fraction(5, 2), Fraction(1, 3)), 12)
    assert w == SquareWitness(2, 0, 2)

    # The classical large square-free instance: no square up to T = 338.
    assert find_square_witness(TwoDAP(13, 15, 12, 1), 338) is None


def test_certify_square_free_frozen():
    cert = certify_square_free(TwoDAP(13, 15, 12, 1), 338)
    assert cert.kind == "square_free"
    assert cert.witness is None
    # value bound is 171 < 338, so the scan stops at isqrt(171) = 13.
    assert cert.n_max == 13

    cert = certify_square_free(TwoDAP(3, 5, 2, 2), 25)
    assert cert.kind == "witness"
    assert cert.witness == SquareWitness(2, -1, 1)


def test_ambient_truncation():
    a = TwoDAP(3, 5, 2, 2)
    assert find_square_witness(a, 0) is None
    assert find_square_witness(a, 1) == SquareWitness(2, -1, 1)
    with pytest.raises(DomainError):
        find_square_witness(a, -1)


# ------------------------------------------------- route-vs-route checks


def test_find_matches_box_oracle_exhaustive():
    for q1 in range(1, 11):
        for q2 in range(1, 11):
            a = TwoDAP(q1, q2, 3, 2)
            t = a.value_bound()
            assert find_square_witness(a, t) == walk_roots(a, t) == oracle_witness(a, t), (q1, q2)


def test_find_matches_brute_force_random():
    rng = random.Random(20260814)
    for _ in range(400):
        a = random_instance(rng)
        t = rng.choice([a.value_bound(), a.value_bound() // 2, 10**6])
        assert find_square_witness(a, t) == walk_roots(a, t) == brute_force_witness(a, t), a


@st.composite
def boxes_and_bounds(draw) -> tuple[TwoDAP, int]:
    """Boxes that reach the walk's edge cases, with t below or above the value bound.

    A common factor g makes gcd(q1, q2) > 1; drawing q1 as a multiple of q2
    gives q2/gcd = 1, where every x1 in one interval is admissible.  Radii
    include 0 and non-integers.
    """
    g = draw(st.integers(1, 12))
    q2 = draw(st.integers(1, 40))
    q1 = q2 * draw(st.integers(1, 8)) if draw(st.booleans()) else draw(st.integers(1, 40))
    radius = st.builds(Fraction, st.integers(0, 120), st.integers(1, 4))
    a = TwoDAP(g * q1, g * q2, draw(radius), draw(radius))
    vb = a.value_bound()
    t = draw(st.one_of(st.integers(0, vb), st.integers(vb, 3 * vb + 10)))
    return a, t


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(boxes_and_bounds())
def test_find_matches_brute_force_hypothesis(case):
    a, t = case
    assert find_square_witness(a, t) == walk_roots(a, t) == brute_force_witness(a, t)


def _sieved(a: TwoDAP, t: int) -> bool:
    """True iff the walk of a up to t skips roots by their residues to its end."""
    top = min(isqrt(min(t, a.value_bound())), progression.ROOT_WALK_LIMIT)
    return not any(isinstance(b, range) for b in _root_blocks(a.q1, a.q2, a.b2, top))


@st.composite
def sieved_boxes(draw) -> tuple[TwoDAP, int]:
    """Boxes whose walk passes q1 with few admissible residues modulo q1.

    q1 may carry 2^k, 9, 25 or 49, so residues and roots include non-units
    and zero; a common factor g gives gcd(q1, q2) > 1; q2 = g makes some
    boxes (q, g, r, 0) one-dimensional.  b2 is small, x1's radius passes
    q1 so the value bound passes q1^2, and t lies below or above it.
    """
    g = draw(st.integers(1, 6))
    power = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64, 9, 25, 49]))
    q1 = g * power * draw(st.integers(1, 40))
    q2 = g * draw(st.one_of(st.just(1), st.integers(1, 200)))
    x1 = Fraction(draw(st.integers(4 * q1, 12 * q1)), draw(st.integers(1, 4)))
    x2 = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
    a = TwoDAP(q1, q2, x1, x2)
    vb = a.value_bound()
    t = draw(st.one_of(st.integers(q1 * q1, vb), st.integers(vb, 2 * vb)))
    return a, t


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(sieved_boxes())
def test_sieved_walk_matches_brute_force_hypothesis(case):
    a, t = case
    assume(_sieved(a, t))
    assert find_square_witness(a, t) == walk_roots(a, t) == brute_force_witness(a, t)


@st.composite
def short_walk_boxes(draw) -> tuple[TwoDAP, int]:
    """Boxes whose walk ends before q1: q1 > isqrt(min(t, value bound)).

    Such a walk squares s only up to min(q1 // 2, its last root), and its
    one block is trimmed to that root.
    q1 may carry 2^k, 9, 25 or 49 and share a factor g with q2, so squares
    of roots below q1 can still be 0 modulo q1; b2 = 0 gives the one-
    dimensional boxes (q, 1, q - 1, 0) that the sweep's one_d family emits.
    """
    g = draw(st.integers(1, 6))
    power = draw(st.sampled_from([1, 2, 4, 8, 16, 9, 25, 49]))
    q1 = g * power * draw(st.integers(1, 60))
    q2 = g * draw(st.one_of(st.just(1), st.integers(1, 400)))
    x1 = Fraction(draw(st.integers(0, 4 * q1)), draw(st.integers(1, 4)))
    x2 = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
    a = TwoDAP(q1, q2, x1, x2)
    t = draw(st.integers(1, max(1, min(a.value_bound(), q1 * q1 - 1))))
    return a, t


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(short_walk_boxes())
def test_short_walk_matches_brute_force_hypothesis(case):
    a, t = case
    assume(_sieved(a, t))
    assert isqrt(min(t, a.value_bound())) < a.q1
    assert find_square_witness(a, t) == walk_roots(a, t) == brute_force_witness(a, t)


@pytest.mark.parametrize("path", ["filtered", "overflow"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=sieved_boxes(), limit=st.integers(2, 64))
def test_capped_filter_matches_brute_force_hypothesis(path, case, limit):
    # With the class cap patched small, a walk either keeps its filter or,
    # when its classes overflow the cap, falls back to every root; the
    # boxes drawn are all filtered under the real cap, so an unfiltered
    # walk under the patched one is the overflow fallback.
    a, t = case
    assume(_sieved(a, t) and 2 * a.b2 < limit)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(progression, "RESIDUE_SCAN_LIMIT", limit)
        assume(_sieved(a, t) == (path == "filtered"))
        assert walk_roots(a, t) == brute_force_witness(a, t)


def test_walk_past_two_to_the_twenty_is_filtered():
    # The non-residue box of the first prime p = 1 (mod 4) past 2^20: x2*q2
    # is a non-residue modulo p for 0 < |x2| <= b2, so the walk visits the
    # multiples of p alone, not each of its p roots.
    p = next(p for p in range(2**20 + 1, 2**21, 4) if is_prime(p))
    a, t = build_instance(p).progression, 2 * p * p
    assert a.q1 == p > progression.RESIDUE_SCAN_LIMIT
    assert _sieved(a, t)
    top = isqrt(min(t, a.value_bound()))
    assert all(n % p == 0 for block in _root_blocks(a.q1, a.q2, a.b2, top) for n in block)
    assert walk_roots(a, t) is None


def test_unsieved_walks_match_sieved_ones(monkeypatch):
    # Where the filter is off the walk visits every root, with one answer.
    dense = TwoDAP(7, 3, 20, 2)  # x2*q2 hits 5 of 7 residues: most classes
    wide = TwoDAP(2003, 2005, 2002, 1)  # n_hi < q1 below t = 2003^2: one trimmed period
    full = TwoDAP(2003, 2005, 2002, 1001)  # x2*q2 hits every residue modulo 2003
    cases = [(dense, dense.value_bound()), (wide, 2002**2), (wide, 2003**2), (full, 2002**2)]
    assert [_sieved(a, t) for a, t in cases] == [False, True, True, False]
    for a, t in cases:
        assert find_square_witness(a, t) == walk_roots(a, t) == brute_force_witness(a, t)
    rng = random.Random(9)
    boxes = []
    for _ in range(300):
        q1 = rng.choice([1, 2, 4, 8, 9, 25, 49]) * rng.randint(1, 60)
        a = TwoDAP(q1, rng.randint(1, 300), rng.randint(q1, 5 * q1), rng.randint(0, 3))
        boxes.append((a, rng.choice([a.value_bound(), rng.randint(q1 * q1, a.value_bound())])))
    sieved = [walk_roots(a, t) for a, t in boxes]
    assert sum(_sieved(a, t) for a, t in boxes) > 200
    monkeypatch.setattr(progression, "RESIDUE_SCAN_LIMIT", 1)
    assert not any(_sieved(a, t) for a, t in boxes)
    assert [walk_roots(a, t) for a, t in boxes] == sieved


@st.composite
def row_route_boxes(draw) -> tuple[TwoDAP, int]:
    """Boxes for the row route, t below or above the value bound.

    q1 may carry 2^k, 9, 25 or 49 and share a factor g with q2.  q2 is a
    multiple of g, of q1's prime-power part, or of q1 itself, so the row
    residues x2*q2 modulo q1 include non-units and zero.  b2 may be 0 and
    both radii may be fractional.
    """
    g = draw(st.integers(1, 6))
    power = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 9, 25, 49]))
    q1 = g * power * draw(st.integers(1, 40))
    q2 = draw(st.sampled_from([g, g * power, q1])) * draw(st.integers(1, 60))
    x1 = Fraction(draw(st.integers(0, 6 * q1)), draw(st.integers(1, 4)))
    x2 = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 3)))
    a = TwoDAP(q1, q2, x1, x2)
    vb = a.value_bound()
    t = draw(st.one_of(st.integers(0, vb), st.integers(vb, 2 * vb + 10)))
    return a, t


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(row_route_boxes())
def test_row_route_matches_brute_force_and_walk_hypothesis(case):
    a, t = case
    cap = min(t, a.value_bound())
    # Rows of fixed x2 (step q1), then rows of fixed x1 (step q2).
    rows = [_walk_rows(a, cap, factorize(q), across) if cap >= 1 else None
            for q, across in ((a.q1, False), (a.q2, True))]
    assert rows[0] == rows[1] == brute_force_witness(a, t) == walk_roots(a, t) == find_square_witness(a, t)


@st.composite
def transposable_boxes(draw) -> tuple[TwoDAP, int]:
    """Boxes to search in both orientations, t below or above the value bound.

    One axis may be long and the other a few rows, so that either reading
    of the row route can be the fewer; or both radii may share a floor, so
    that b1 == b2 ties.  Steps may share a factor, and small ones
    make the box improper.  Radii may be zero or fractional.
    """
    g = draw(st.integers(1, 6))
    top = draw(st.sampled_from([4, 60, 3000]))
    q1, q2 = (g * draw(st.integers(1, top)) for _ in range(2))
    den = draw(st.integers(1, 3))
    short = Fraction(draw(st.integers(0, 6)), den)
    shape = draw(st.sampled_from(["long x1", "long x2", "tie"]))
    if shape == "tie":
        x1, x2 = short, int(short) + Fraction(draw(st.integers(0, den - 1)), den)
    else:
        long = Fraction(draw(st.integers(0, 2 * max(q1, q2))), den)
        x1, x2 = (long, short) if shape == "long x1" else (short, long)
    a = TwoDAP(q1, q2, x1, x2)
    vb = a.value_bound()
    t = draw(st.one_of(st.integers(0, vb), st.integers(vb, 2 * vb + 10)))
    return a, t


def _outcome(a: TwoDAP, t: int) -> SquareWitness | None | type:
    """`find_square_witness(a, t)`, or TooLarge if it refused."""
    try:
        return find_square_witness(a, t)
    except TooLarge:
        return TooLarge


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(transposable_boxes(), st.sampled_from([None, 3, 30]))
def test_transposed_box_gets_one_answer_hypothesis(case, limit):
    a, t = case
    at = TwoDAP(a.q2, a.q1, a.x2bound, a.x1bound)
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(progression, "ROOT_WALK_LIMIT", limit)
        w, wt = _outcome(a, t), _outcome(at, t)
    # Each orientation's answer is its own oracle's canonical witness, unless
    # both the walk and the fewer rows would pass the limit: then TooLarge.
    bound = progression.ROOT_WALK_LIMIT if limit is None else limit
    refused = isqrt(min(t, a.value_bound())) > bound and 2 * min(a.b1, a.b2) + 1 > bound
    assert w == (TooLarge if refused else brute_force_witness(a, t))
    assert wt == (TooLarge if refused else brute_force_witness(at, t))
    if w is None or w is TooLarge:
        assert wt is w
    elif is_proper(a):
        # One value, one pair: the witnesses are transposes.
        assert wt == SquareWitness(w.x2, w.x1, w.n)
    else:
        assert wt.n == w.n


@st.composite
def least_root_cases(draw) -> tuple[int, int, list[int]]:
    """A start (negative, zero or past 2^64), a modulus m >= 1 and a
    non-empty class list: the roots of some a modulo m from `sqrt_classes`,
    or any classes, often holding 0 or m/2 (m = 1 holds only 0)."""
    start = draw(st.one_of(st.just(0), st.integers(-10**4, 10**4), st.integers(-(10**30), 10**30)))
    m = draw(st.one_of(st.just(1), st.integers(1, 64), st.sampled_from([2**7, 3**4, 4 * 25, 8 * 49])))
    if draw(st.booleans()):
        mod, classes = sqrt_classes(draw(st.integers(0, m - 1)), factorize(m))
        assume(classes)
        return start, mod, classes
    classes = set(draw(st.lists(st.integers(0, m - 1), max_size=6)))
    classes |= draw(st.sampled_from([set(), {0}, {m // 2}, {0, m // 2}]))
    assume(classes)
    return start, m, sorted(classes)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(least_root_cases())
def test_least_root_matches_scan_hypothesis(case):
    start, m, classes = case
    assert _least_root(start, m, classes) == next(k for k in range(start, start + m) if k % m in classes)
    # Classes closed under n -> -n, as roots are, give the greatest member
    # at or below start too: max_radius's rows y take it so.
    if {-s % m for s in classes} == set(classes):
        below = next(k for k in range(start, start - m, -1) if k % m in classes)
        assert -_least_root(-start, m, classes) == below


def test_route_choice(monkeypatch):
    factored = []
    monkeypatch.setattr(progression, "factorize", lambda m: factored.append(m) or factorize(m))
    # The walk is the shorter (4 roots against isqrt(3) + 5 rows): q1 is never factored.
    assert find_square_witness(TwoDAP(3, 5, 2, 2), 25) == SquareWitness(2, -1, 1)
    assert factored == []
    # 21 rows against about 10^9 roots: the rows, with q1 factored once.
    p = 1_000_000_009
    box = TwoDAP(p, p + 11, p - 1, 10)
    assert find_square_witness(box, 2 * p * p) is None
    assert factored == [p]
    # Transposed, the same 21 rows are read as rows of fixed x1: p again.
    assert find_square_witness(TwoDAP(p + 11, p, 10, p - 1), 2 * p * p) is None
    # 21 rows either way: the tie goes to the smaller step, p, in both orientations.
    assert find_square_witness(TwoDAP(p + 11, p, 10, 10), 2 * p * p) is None
    assert find_square_witness(TwoDAP(p, p + 11, 10, 10), 2 * p * p) is None
    assert factored == [p] * 4
    factored.clear()
    # The one-dimensional sweep box: one row against 9,999 roots.
    one_d = TwoDAP(10001, 1, 9999, 0)
    assert find_square_witness(one_d, 10**8) is None
    assert factored == [10001]
    # 300 roots against isqrt(30030) + 3 rows, but against 3 rows of up to
    # 2^7 classes once omega(30030) = 6 is known: factored, then walked.
    monkeypatch.setattr(progression, "_walk_rows", None)
    assert find_square_witness(TwoDAP(30030, 30031, 5, 1), 300**2) == SquareWitness(-1, 1, 1)
    assert factored == [10001, 30030]
    # When q1 cannot be factored the walk answers.
    def fail(m):
        raise FactorizationFailed(f"could not split {m}")

    monkeypatch.setattr(progression, "factorize", fail)
    assert find_square_witness(one_d, 10**8) is None
    assert find_square_witness(TwoDAP(10001, 1, 10001, 0), 10001**2) == SquareWitness(10001, 0, 10001)
    monkeypatch.undo()
    # q1 = r*s past is_prime's proven range, with no factor below 10^6:
    # factorize raises DomainError, and the walk finds the witness at n = 1.
    r = next(n for n in range(2 * 10**12 + 1, 2 * 10**12 + 10**4, 2) if is_prime(n))
    s = next(n for n in range(r + 2, r + 10**4, 2) if is_prime(n))
    with pytest.raises(DomainError):
        factorize(r * s)
    huge = TwoDAP(r * s, r * s + 1, 1, 1)
    assert isqrt(huge.value_bound()) > progression.ROOT_WALK_LIMIT
    assert find_square_witness(huge, huge.value_bound()) == SquareWitness(-1, 1, 1)
    # The fewer rows have that step, r*s, and the walk passes the limit: the
    # other reading, 7 rows of step 5, answers, in either orientation.
    factored.clear()
    monkeypatch.setattr(progression, "factorize", lambda m: factored.append(m) or factorize(m))
    for box in (TwoDAP(5, r * s, 1, 3), TwoDAP(r * s, 5, 3, 1)):
        assert isqrt(box.value_bound()) > progression.ROOT_WALK_LIMIT
        assert find_square_witness(box, box.value_bound()) == brute_force_witness(box, box.value_bound())
    assert factored == [r * s, 5] * 2


def test_too_large_is_refused_before_either_route(monkeypatch):
    def never(*args):
        raise AssertionError("a route started")

    monkeypatch.setattr(progression, "walk_roots", never)
    monkeypatch.setattr(progression, "_walk_rows", never)
    monkeypatch.setattr(progression, "factorize", never)
    # (1013, 4054, 1012, 1) at t = 1014 * 1015: 1014 roots and 3 rows.
    a = TwoDAP(1013, 4054, 1012, 1)
    monkeypatch.setattr(progression, "ROOT_WALK_LIMIT", 2)
    with pytest.raises(TooLarge):
        find_square_witness(a, 1014 * 1015)
    with pytest.raises(TooLarge):
        certify_box(a, 1014 * 1015)


def test_sieve_patterns_are_the_squares_mod_each_modulus(monkeypatch):
    # Each tile is the period-l pattern of the k with u*k a square modulo l,
    # over SIEVE_CHUNK + l bits, so any shift below l still covers a chunk.
    # One tile per unit u of each modulus bounds the cache below 1 MiB.
    monkeypatch.setattr(progression, "_tiles", {})
    chunk = progression.SIEVE_CHUNK
    for ell in progression.SIEVE_MODULI:
        squares = {n * n % ell for n in range(ell)}
        assert {k for k in range(ell) if progression._tile(ell, 1)[1] >> k & 1} == squares
        for u in range(1, ell):
            if math.gcd(u, ell) == 1:
                inv, tile = progression._tile(ell, u)
                assert inv * u % ell == 1 and tile >> (chunk + ell) == 0
                assert [tile >> k & 1 for k in range(chunk + ell)] == [
                    u * k % ell in squares for k in range(chunk + ell)
                ]
    tiles = progression._tiles
    assert len(tiles) == sum(math.gcd(u, ell) == 1 for ell in progression.SIEVE_MODULI for u in range(ell))
    assert len(tiles) <= sum(progression.SIEVE_MODULI)
    assert sum(tile.bit_length() for _, tile in tiles.values()) < 8 * 2**20


def test_row_scan_reads_every_class_that_holds_squares():
    # Row x2 = 1 of (p, q2, 400, 1) runs q2 + x1*p, and q2 = n^2 - j*p puts
    # n^2 at x1 = j, for the least n past sqrt(j*p) with n^2 = r (mod 720),
    # once for each of the 48 square residues r.  As n < p/2, no other n' >= 1
    # with n'^2 = n^2 (mod p) lies below n; row x2 = 0 is x1*p with |x1| < p,
    # and row x2 = -1 is -n^2 (mod p), a non-residue as p = 3 (mod 4).  So
    # n^2 is the box's least square, in the class of residue r.
    for p in (10007, 10**9 + 7):
        for k, r in enumerate(sorted({n * n % 720 for n in range(720)})):
            j = 8 * k + 17
            n = isqrt(j * p) + 1
            while n * n % 720 != r:
                n += 1
            a = TwoDAP(p, n * n - j * p, 400, 1)
            cap = a.value_bound()
            assert _row_scan(a, cap) == oracle_witness(a, cap) == SquareWitness(j, 1, n), (p, r)


def test_sieve_hands_the_exact_test_what_every_kept_modulus_passes(monkeypatch):
    # For every step residue s modulo 720, rows of 95 to 721 values starting
    # at spread residues, read 128 values to a chunk so that a row spans up
    # to 6 chunks.  The exact test is replaced by one that records what it
    # is handed and finds no square, so every row is read to its end.  A
    # modulus sharing only part of the step is dropped for the call; one
    # dividing it fixes each row's residue, and so passes a row whole or
    # none of it.
    read = []
    monkeypatch.setattr(progression, "isqrt", lambda v: read.append(v) or 0)
    monkeypatch.setattr(progression, "SIEVE_CHUNK", 128)
    monkeypatch.setattr(progression, "_tiles", {})
    squares = {ell: {n * n % ell for n in range(ell)} for ell in progression.SIEVE_MODULI}
    # Row x2 = 0 holds `half` values and rows x2 = 1, 2, 3 hold 2*half + 1.
    for s, half in product(range(720), (95, 192, 360)):
        q1 = s + 720
        q2 = half * q1 + 1 + 131 * s  # rows x2 = 1, 2, 3 start at spread residues
        a = TwoDAP(q1, q2, half, 3)
        cap = a.value_bound()
        kept = [ell for ell in progression.SIEVE_MODULI if math.gcd(q1, ell) in (1, ell)]
        expected = [
            v
            for x2 in range(4)  # rows x2 < 0 end at -1 - 131*s
            for v in range(x2 * q2 - half * q1, x2 * q2 + half * q1 + 1, q1)
            if 1 <= v <= cap and all(v % ell in squares[ell] for ell in kept)
        ]
        read.clear()
        assert _row_scan(a, cap) is None
        assert read == expected, s


def test_oracle_past_the_table_keeps_no_set():
    # One row of 4*10^6 values up to 1.6*10^13: a set of the 4*10^6 squares
    # up to the cap would take about 285 MiB.
    a = TwoDAP(4_000_001, 1, 4_000_000, 0)
    tracemalloc.start()
    try:
        w = brute_force_witness(a, a.value_bound())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is None and peak < 2 * 2**20, peak


def test_brute_force_refuses_a_negative_guard():
    a = TwoDAP(3, 5, 2, 2)
    with pytest.raises(DomainError):
        brute_force_witness(a, 25, guard=-5)
    with pytest.raises(TooLarge):  # guard 0 refuses every box: verify skips
        brute_force_witness(a, 25, guard=0)
    assert brute_force_witness(a, 25, guard=cardinality(a)) == SquareWitness(2, -1, 1)


def test_brute_force_refuses_a_guard_past_its_own_limit():
    # The guard can lower the oracle's limit, never lift it, so a box of
    # 242,000,121 pairs is refused whatever guard the caller names.
    limit = progression.BRUTE_FORCE_GUARD
    for a in (TwoDAP(3, 5, 2, 2), TwoDAP(7, 1000003, 10**6, 60)):
        for guard in (limit + 1, 10**12):
            with pytest.raises(DomainError, match=f"guard must be in 0..{limit}, got {guard}"):
                brute_force_witness(a, 10**14, guard=guard)
    with pytest.raises(TooLarge, match="box has 242000121 pairs"):
        brute_force_witness(TwoDAP(7, 1000003, 10**6, 60), 10**14, guard=limit)


def _code_reached(*fns) -> dict[types.CodeType, types.FunctionType]:
    """The code of the functions and of every sqavoid function they name, at
    any depth, and the comprehensions inside them, each with its function."""
    seen, todo = {}, [(f, f.__code__) for f in fns]
    while todo:
        f, code = todo.pop()
        if code in seen:
            continue
        seen[code] = f
        todo += [(f, c) for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in code.co_names:
            g = f.__globals__.get(name)
            if inspect.isfunction(g) and g.__module__.startswith("sqavoid."):
                todo.append((g, g.__code__))
    return seen


def _names_reached(*fns) -> set[str]:
    """Global and attribute names the functions use, following every sqavoid
    function they name, and the comprehensions inside them."""
    return {name for code in _code_reached(*fns) for name in code.co_names}


def _functions_reached(*fns) -> set[str]:
    """`module.name` of the functions and of every sqavoid function they reach."""
    return {f"{f.__module__.rpartition('.')[2]}.{f.__name__}" for f in _code_reached(*fns).values()}


# What the row searches (max_radius and the row route) are built from, and
# what the brute-force oracle is built from.
ROW_SEARCH = {
    "sqrt_classes",
    "is_square_mod",
    "factorize",
    "max_radius",
    "_least_root",
    "_walk_rows",
}
ORACLE = {
    "brute_force_witness",
    "_row_scan",
    "_least",
    "_least_square",
    "_tile",
    "_tiles",
    "SIEVE_MODULI",
    "SIEVE_CHUNK",
}


# What a family's search and its re-certification may share: factoring and
# modular inversion, whose answers are checked facts of arithmetic.
SHARED_PRIMITIVES = {
    "arith.factorize",
    "arith.is_prime",
    "arith._mr_is_composite",
    "arith._brent_rho",
    "arith.mod_inverse",
}


def _sweep_routes() -> dict[str, object]:
    """Family -> the route `sweep` re-certifies that family's box by."""
    taken = []
    with pytest.MonkeyPatch.context() as mp:
        for route in (certify_box, certify_square_free):
            mp.setattr(
                sweep_module,
                route.__name__,
                lambda a, t, route=route: taken.append((a, route)) or route(a, t),
            )
        res = sweep_module.sweep(sweep_module.SweepConfig(t=10**6))
    assert len(taken) == len(res.family_bests) == 3
    return {fb.family: route for fb in res.family_bests for a, route in taken if a == fb.progression}


def test_walk_filter_shares_no_code_with_max_radius():
    # The root walk re-certifies random_local's boxes, which max_radius
    # finds by modular square roots: neither the walk nor its certificate
    # may reach those routines or the row route.
    for f in (walk_roots, _root_blocks, certify_square_free):
        assert not (ROW_SEARCH | {"find_square_witness"}) & _names_reached(f), f
    assert not {"walk_roots", "_root_blocks", "certify_square_free"} & _names_reached(max_radius)


def test_each_family_route_reaches_none_of_its_search():
    # one_d and lower_bound find their boxes in closed form, from the kernel
    # and from `jacobi`, so the row route re-certifies them; random_local
    # searches by rows, so its box stays on the root walk.
    routes = _sweep_routes()
    assert routes == {"one_d": certify_box, "lower_bound": certify_box, "random_local": certify_square_free}
    for family, route in routes.items():
        search = _functions_reached(getattr(sweep_module, f"_{family}_family")) - SHARED_PRIMITIVES
        assert not search & _functions_reached(route), family


def test_oracle_shares_no_code_with_either_route():
    routes = {"walk_roots", "_root_blocks", "find_square_witness", "mod_inverse"} | ROW_SEARCH
    assert not routes & _names_reached(brute_force_witness, _row_scan)
    assert not ORACLE & _names_reached(find_square_witness, certify_box, certify_square_free)


def test_degenerate_one_d_box_matches_brute_force():
    # The sweep's one_d winner at T = 10^8: q2/gcd = 1, 19,999 pairs and
    # 10,000 roots, each with 19,999 admissible x1 before the closed form.
    a = TwoDAP(10001, 1, 9999, 0)
    t = 10**8
    assert cardinality(a) == 19_999
    assert find_square_witness(a, t) is None and walk_roots(a, t) is None
    assert brute_force_witness(a, t) is None
    assert certify_square_free(a, t) == Certificate("square_free", None, 9999)


@st.composite
def huge_step_boxes(draw) -> tuple[TwoDAP, int]:
    """Boxes with steps up to about 2^73 that still hold squares below a small t.

    q1 = m1*B + d1 and q2 = m2*B + d2 share the large part B, so
    m2*q1 - m1*q2 = m2*d1 - m1*d2 is small and pairs along that relation
    give small values although each step is huge (m = 0 gives small steps).
    Radii include 0 and non-integers; t keeps the set of squares small.
    """
    k = draw(st.integers(0, 70))
    big = draw(st.integers(2**k, 2 ** (k + 1)))  # log-uniform, so steps past 2^63 are common
    q1 = draw(st.integers(0, 3)) * big + draw(st.integers(1, 50))
    q2 = draw(st.integers(0, 3)) * big + draw(st.integers(1, 50))
    radius = st.builds(Fraction, st.integers(0, 60), st.integers(1, 3))
    return TwoDAP(q1, q2, draw(radius), draw(radius)), draw(st.integers(0, 10**6))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(huge_step_boxes())
def test_row_scan_matches_pair_scan_hypothesis(case):
    a, t = case
    w = find_square_witness(a, t)
    assert brute_force_witness(a, t) == w
    cap = min(t, a.value_bound())
    if cap >= 1:
        assert _row_scan(a, cap) == oracle_witness(a, cap) == w


@st.composite
def long_row_boxes(draw) -> tuple[TwoDAP, int]:
    """Boxes whose rows hold 600 to 5,001 values before clipping.

    q1 is a multiple of 1, 2, 3, 5, 16, 48, 80, 144 or 720, so the step
    shares with the sieve moduli 16, 9 and 5 nothing, part of one, or the
    whole of some, and log-uniform, so steps past 2^64 are common.  Most
    boxes get a square planted at (x1, +-1), which gives rows with negative
    bases; t falls in the upper half of the value bound, past it, on either
    side of 2^32, or where isqrt(t) meets the pair count.  Half the boxes
    are transposed, (q2, q1, b2, b1), so that b2 > b1 and the oracle reads
    them by rows of fixed x1.
    """
    k = draw(st.integers(0, 70))
    q1 = draw(st.sampled_from([1, 2, 3, 5, 16, 48, 80, 144, 720])) * draw(st.integers(2**k, 2 ** (k + 1)))
    b1, b2 = draw(st.integers(600, 2500)), draw(st.integers(0, 2))
    q2 = draw(st.integers(1, b1 * q1))
    if b2 and draw(st.booleans()):
        x1 = draw(st.integers(-b1, b1))
        q2 = abs(draw(st.integers(1, isqrt(2 * b1 * q1))) ** 2 - x1 * q1) or q2
    a = TwoDAP(q2, q1, b2, b1) if draw(st.booleans()) else TwoDAP(q1, q2, b1, b2)
    bound, pairs = a.value_bound(), cardinality(a)
    t = draw(
        st.one_of(
            st.integers(bound // 2, bound),
            st.integers(bound, 2 * bound),
            st.integers(2**32 - 2**20, 2**32 + 2**20),
            st.integers(max(0, pairs * pairs - 3 * pairs), pairs * pairs + 3 * pairs),
        )
    )
    return a, t


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(long_row_boxes())
def test_filtered_row_scan_matches_pair_oracle_hypothesis(case):
    a, t = case
    w = find_square_witness(a, t)
    assert brute_force_witness(a, t) == w
    cap = min(t, a.value_bound())
    if cap >= 1:
        assert _row_scan(a, cap) == oracle_witness(a, cap) == w


# The product of the sieve moduli, 16*9*5*7*...*37, and of their primes.
SIEVE_PRODUCT = math.prod(progression.SIEVE_MODULI)
SIEVE_PRIMES = math.prod(squarefree_kernel(ell) for ell in progression.SIEVE_MODULI)


@st.composite
def shared_factor_boxes(draw) -> tuple[TwoDAP, int]:
    """Long-row boxes whose row step shares a factor with every sieve modulus, or one.

    The row step is SIEVE_PRODUCT (every modulus divides it, so each row is
    passed whole or skipped by its residues), SIEVE_PRIMES (16 and 9 share
    only part of it and are dropped) or one modulus, times a log-uniform
    factor up to 2^61, so that steps past 2^64 occur.  Rows hold 201 to
    1,201 values; most boxes get a square planted at (x1, +-1), and half
    are transposed.
    """
    k = draw(st.integers(0, 60))
    base = draw(st.sampled_from([SIEVE_PRODUCT, SIEVE_PRIMES, *progression.SIEVE_MODULI]))
    q1 = base * draw(st.integers(2**k, 2 ** (k + 1)))
    b1, b2 = draw(st.integers(100, 600)), draw(st.integers(0, 2))
    q2 = draw(st.integers(1, b1 * q1))
    if b2 and draw(st.booleans()):
        x1 = draw(st.integers(-b1, b1))
        q2 = abs(draw(st.integers(1, isqrt(2 * b1 * q1))) ** 2 - x1 * q1) or q2
    a = TwoDAP(q2, q1, b2, b1) if draw(st.booleans()) else TwoDAP(q1, q2, b1, b2)
    bound = a.value_bound()
    return a, draw(st.one_of(st.integers(bound // 2, bound), st.integers(bound, 2 * bound)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shared_factor_boxes())
def test_sieve_with_shared_factors_matches_pair_oracle_hypothesis(case):
    a, t = case
    w = find_square_witness(a, t)
    assert brute_force_witness(a, t) == w
    cap = min(t, a.value_bound())
    if cap >= 1:
        assert _row_scan(a, cap) == oracle_witness(a, cap) == w


def test_row_scan_reads_the_longer_axis(monkeypatch):
    # One column x1 = 0 of 2*10^6 + 1 values up to about 10^12, and its
    # transpose: each is read as one row, whose sieve hands a few hundred
    # values to isqrt, not one per row of 2*10^6 one-value rows.
    calls = []
    monkeypatch.setattr(progression, "isqrt", lambda n: calls.append(n) or isqrt(n))
    for a in (TwoDAP(7, 1000003, 0, 10**6), TwoDAP(1000003, 7, 10**6, 0)):
        calls.clear()
        assert brute_force_witness(a, a.value_bound()) is None
        assert len(calls) < 70_000, len(calls)


def test_brute_force_exact_past_int64():
    # 7*q1 = 1 (mod 2^64): a 64-bit product would wrap to the square 1.
    q1 = 7905747460161236407
    assert 7 * q1 % 2**64 == 1
    a = TwoDAP(q1, 10**6, 8, 16)
    assert brute_force_witness(a, 100) is None
    assert find_square_witness(a, 100) is None and walk_roots(a, 100) is None
    # Steps past 2^63, with and without a square in range.
    assert brute_force_witness(TwoDAP(2**63 + 7, 10**6, 8, 16), 100) is None
    a = TwoDAP(2**64 + 1, 2**64, 8, 16)
    assert brute_force_witness(a, 100) == find_square_witness(a, 100) == SquareWitness(1, -1, 1)


@st.composite
def radius_cases(draw) -> tuple[int, int, int, int]:
    """(q, other_q, other_r, t) with the other axis inside [-t, t].

    A common factor g gives gcd > 1; steps may carry a prime power (2^k,
    3^k, 5^2, 7^2), so the square roots modulo a step include non-units
    and zero with reduced moduli; an other_r of at most 3 beside a wide
    room makes the rows y decide the radius.  In the other half of the
    cases other_q, even or odd, has a reach other_r*other_q of other_q^2/4
    to other_q^2, so rows x = +-1 span n from 1 to about other_q/2 ..
    other_q: more than half a period of roots but often less than a whole
    one.  There q is a multiple of other_q half the time, so every row x
    has x*q = 0 (mod other_q), whose roots include 0 and do not pair up.
    """
    g = draw(st.integers(1, 6))
    if draw(st.booleans()):
        power = st.sampled_from([1, 2, 4, 8, 16, 32, 3, 9, 27, 25, 49])
        q = g * draw(st.integers(1, 40)) * draw(power)
        other_q = g * draw(st.integers(1, 40)) * draw(power)
        other_r = draw(st.one_of(st.integers(0, 3), st.integers(0, 12)))
    else:
        other_q = draw(st.integers(2, 90))
        kernel = squarefree_kernel(other_q)  # other_r below it leaves row 0 clear
        other_r = draw(st.integers(other_q // 4, max(other_q // 4, kernel - 1)))
        q = other_q * draw(st.integers(1, 3)) if draw(st.booleans()) else g * draw(st.integers(1, 90))
    t = other_r * other_q + draw(st.one_of(st.integers(0, 3000), st.integers(0, 60 * q)))
    return q, other_q, other_r, t


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(radius_cases())
def test_max_radius_matches_radius_by_radius_oracle(case):
    q, other_q, other_r, t = case
    r = radius(q, other_q, other_r, t)
    assert r == oracle_max_radius(q, other_q, other_r, t)
    assert radius(q, other_q, 0, t) == one_d_bound(q, t)


@st.composite
def rootless_radius_cases(draw) -> tuple[int, int, int, int]:
    """(q, other_q, other_r, t) whose rows the walk often decides without a root.

    The centre row's least square is other_q*kernel(other_q), so
    other_r >= kernel(other_q) puts it on the centre row, and so does a
    reach other_r*other_q >= other_q^2: half the cases are such.  In the
    other half other_r lies in [other_q/2, kernel(other_q)), which leaves
    the centre clear, and q is drawn so that row x = 1 has
    other_q^2 - reach <= q <= reach: it spans n = 1 .. isqrt(q + reach)
    >= other_q, a whole period of root classes.
    """
    if draw(st.booleans()):
        other_q = draw(st.integers(1, 24)) * draw(st.sampled_from([1, 4, 8, 9]))
        kernel = squarefree_kernel(other_q)
        other_r = draw(st.one_of(st.integers(kernel, kernel + 4), st.integers(other_q, other_q + 4)))
        q = draw(st.integers(1, 200))
    else:
        other_q = draw(st.integers(2, 60).filter(lambda n: 2 * squarefree_kernel(n) > n + 1))
        other_r = draw(st.integers((other_q + 1) // 2, squarefree_kernel(other_q) - 1))
        reach = other_r * other_q
        q = draw(st.integers(other_q * other_q - reach, reach))
    return q, other_q, other_r, other_r * other_q + draw(st.integers(0, 40 * q))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rootless_radius_cases())
def test_max_radius_rootless_rows_match_oracle(case):
    q, other_q, other_r, t = case
    assert radius(q, other_q, other_r, t) == oracle_max_radius(q, other_q, other_r, t)


def test_max_radius_frozen():
    # The lower-bound box (13, 15, 12, 1): x1 = 13 gives 13^2.
    assert radius(13, 15, 1, 10**6) == 12
    # Containment alone: 13 + 15 > 27 leaves room for x1 <= 0 only.
    assert radius(13, 15, 1, 27) == 0
    # The square 4 = 4*1 + 0*5 at r = 0: no radius works.
    assert radius(5, 4, 1, 100) == -1
    # Row x = 1 (14 + 7y, |y| <= 4) spans n = 1 .. 6, one short of a period,
    # and misses 14's one root class, n = 0 (mod 7); row 2 holds 7^2 = 28 + 3*7.
    assert radius(14, 7, 4, 56) == 1
    # Rows y: row 1 (15 + 3x) holds 3^2 at x = -2, its root 3 = isqrt(15)
    # itself, the greatest root at or below the centre.
    assert radius(3, 15, 1, 21) == 1 == oracle_max_radius(3, 15, 1, 21)


def _counted_row_search(monkeypatch) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The steps max_radius factors itself (the other step comes factored),
    the moduli of the rows it examines, and the (centre, modulus) of the
    rows it solves roots for, in order.

    Every row but the centre row, which has a closed form, first takes the
    character test `is_square_mod`, so its calls count the rows examined;
    a row solves roots through `sqrt_classes`, so its calls count those.
    """
    factored, read, solved = [], [], []
    factorize_, residue_test = progression.factorize, progression.is_square_mod
    classes_of = progression.sqrt_classes

    def counted_factorize(n):
        factored.append(n)
        return factorize_(n)

    def counted_residue_test(a, factors):
        read.append(math.prod(p**k for p, k in factors.items()))
        return residue_test(a, factors)

    def counted_classes(center, factors):
        solved.append((center, math.prod(p**k for p, k in factors.items())))
        return classes_of(center, factors)

    monkeypatch.setattr(progression, "factorize", counted_factorize)
    monkeypatch.setattr(progression, "is_square_mod", counted_residue_test)
    monkeypatch.setattr(progression, "sqrt_classes", counted_classes)
    return factored, read, solved


def _has_root(center: int, m: int) -> bool:
    return any((n * n - center) % m == 0 for n in range(m))


def test_max_radius_walk_ending_early_reads_no_row_y(monkeypatch):
    factored, read, solved = _counted_row_search(monkeypatch)
    # A square on row x = 10, with other_r = 2232 and room 111: rows x only,
    # x = +-1 .. +-10 at most, as the centre row reads none.
    assert radius(2834, 2233, 2232, 5_300_000) == 9
    assert factored == [] and set(read) == {2233} and len(read) <= 20
    # Roots are solved only for a row whose residue has them.
    assert len(solved) <= len(read) and all(_has_root(c, m) for c, m in solved)
    # The room, 0, runs out before other_r = 1: row x = 0 alone, in closed form.
    factored.clear()
    read.clear()
    solved.clear()
    assert radius(13, 15, 1, 27) == 0
    assert factored == read == solved == []
    # Rows x = +-1 fail the character test; row x = 2 (34 + 15y) spans
    # n = 1 .. 15, which holds a half-block of the period 15, and 15 does not
    # divide 34: the half-block test decides it, no root solved.
    assert radius(17, 15, 13, 535) == 1 == oracle_max_radius(17, 15, 13, 535)
    assert read == [15] * 3 and solved == []


def test_max_radius_rows_y_decide_past_other_r(monkeypatch):
    # other_r < room and rows x are clear through other_r, so q is factored
    # and the 2*other_r + 1 rows y give the radius: the least |x| of their
    # squares less one, or the room when none lies inside it.
    inside = [
        (13, 15, 1, 10**6, 12),  # 13^2 = 13*13 + 0*15
        (10, 38, 0, 130, 9),
        (40, 50, 0, 1425, 9),
        (43, 8, 1, 1296, 2),
        (44, 13, 2, 1149, 10),
        (58, 46, 2, 446, 3),
    ]
    clear = [(43, 26, 1, 218, 4), (59, 22, 0, 91, 1), (58, 26, 1, 1754, 29), (39, 39, 3, 1442, 33)]
    factored, read, solved = _counted_row_search(monkeypatch)
    for q, other_q, other_r, t, r in inside + clear:
        factored.clear()
        read.clear()
        solved.clear()
        room = (t - other_r * other_q) // q
        assert radius(q, other_q, other_r, t) == r, (q, other_q, other_r, t)
        assert factored == [q] and other_r < room
        # Rows x = +-1 .. +-other_r, then exactly the 2*other_r + 1 rows y.
        assert read == [other_q] * (2 * other_r) + [q] * (2 * other_r + 1)
        assert all(_has_root(c, m) for c, m in solved)
        assert (r == room) == ((q, other_q, other_r, t, r) in clear)
        assert oracle_max_radius(q, other_q, other_r, t) == r


def test_max_radius_factors_a_huge_step_only_for_rows_y():
    # q's cofactor is past is_prime's proven range (3.3*10^24), so it cannot
    # be factored: walks that end on rows x answer anyway.
    q = 2_000_000_000_003 * 2_000_001_000_001
    with pytest.raises(DomainError):
        factorize(q)
    assert radius(q, 3, 2, 10) == 0  # the room, 0, runs out first
    assert radius(q, 1, 5, 10) == -1  # 1 and 4 on row x = 0
    with pytest.raises(DomainError):
        radius(q, 3, 0, 10**30)  # room 249,999 > other_r: rows y need q's factors


def test_root_walk_limit(monkeypatch):
    # A witness within the limit is an answer, however far the cap reaches.
    a = TwoDAP(10**30, 10**30 + 1, 2, 2)
    assert isqrt(a.value_bound()) > progression.ROOT_WALK_LIMIT
    assert walk_roots(a, 10**62) == find_square_witness(a, 10**62) == SquareWitness(-1, 1, 1)
    # A square-free root walk that would pass the limit is refused.
    monkeypatch.setattr(progression, "ROOT_WALK_LIMIT", 1000)
    one_d = TwoDAP(10001, 1, 9999, 0)  # square-free up to 10^8: 10^4 roots
    with pytest.raises(TooLarge):
        walk_roots(one_d, 10**8)
    assert walk_roots(one_d, 10**6) is None  # 1000 roots: within
    # find_square_witness reads its one row instead, and refuses only when
    # the rows pass the limit too.
    assert find_square_witness(one_d, 10**8) is None
    monkeypatch.setattr(progression, "ROOT_WALK_LIMIT", 0)
    with pytest.raises(TooLarge):
        find_square_witness(one_d, 10**8)
    # The row walk counts steps: r = 9 needs 10 of them, past a limit of 5.
    monkeypatch.setattr(progression, "ROOT_WALK_LIMIT", 10**8)
    assert radius(2834, 2233, 2232, 5_300_000) == 9
    monkeypatch.setattr(progression, "ROOT_WALK_LIMIT", 5)
    with pytest.raises(TooLarge):
        radius(2834, 2233, 2232, 5_300_000)


def test_brute_force_guard():
    a = TwoDAP(1, 1, 10**6, 10**6)
    with pytest.raises(TooLarge):
        brute_force_witness(a, a.value_bound())


def test_brute_force_refuses_a_negative_bound():
    # No square lies below a negative bound, but that is not a verdict: the
    # oracle refuses t < 0 as both routes do, with their message.
    a = TwoDAP(3, 5, 2, 2)
    for t in (-1, -(10**30)):
        for search in (find_square_witness, walk_roots, brute_force_witness):
            with pytest.raises(DomainError, match=f"^ambient bound must be non-negative, got {t}$"):
                search(a, t)


# ------------------------------------------------------------- invariants


def test_witness_always_valid_and_minimal():
    rng = random.Random(11)
    for _ in range(200):
        a = random_instance(rng)
        t = a.value_bound()
        w = find_square_witness(a, t)
        if w is None:
            continue
        assert w.x1 * a.q1 + w.x2 * a.q2 == w.n * w.n
        assert abs(w.x1) <= a.b1 and abs(w.x2) <= a.b2
        assert 1 <= w.n * w.n <= t
        # No smaller square value exists in the set.
        smaller = [v for v in oracle_values(a) if 1 <= v < w.n * w.n]
        assert all(isqrt(v) ** 2 != v for v in smaller)


def test_value_bound_caps():
    rng = random.Random(13)
    for _ in range(200):
        a = random_instance(rng)
        vb = a.value_bound()
        assert all(abs(v) <= vb for v in oracle_values(a))
        # Whenever the set fits in [-T, T], the radii obey the interval caps.
        t = vb + rng.randint(0, 50)
        assert a.b1 <= t / a.q1 and a.b2 <= t / a.q2


# ---------------------------------------------------------- serialization


def test_json_round_trip():
    # Encode with the record codec, decode as docs/schema.md says to.
    a = TwoDAP(13, 15, Fraction(338, 15), 1)
    obj = record(a)
    assert obj == {"q1": "13", "q2": "15", "x1bound": "338/15", "x2bound": "1"}
    q1, q2, x1bound, x2bound = obj.values()
    assert TwoDAP(int(q1), int(q2), Fraction(x1bound), Fraction(x2bound)) == a

    w = SquareWitness(-2, 2, 2)
    assert record(w) == {"x1": "-2", "x2": "2", "n": "2"}
    assert SquareWitness(*map(int, record(w).values())) == w

    cert = Certificate("witness", w, 5)
    obj = record(cert)
    assert obj == {"kind": "witness", "witness": '{"n": "2", "x1": "-2", "x2": "2"}', "n_max": "5"}
    nested = {k: int(v) for k, v in json.loads(obj["witness"]).items()}
    assert Certificate(obj["kind"], SquareWitness(**nested), int(obj["n_max"])) == cert
    free = Certificate("square_free", None, 13)
    assert record(free) == {"kind": "square_free", "witness": "", "n_max": "13"}
