"""Tests for cover heights, convergents, and the constructive representation."""

from __future__ import annotations

import itertools
import math
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqavoid import arith, small_squares
from sqavoid.arith import DomainError, TooLarge
from sqavoid.progression import SquareWitness
from sqavoid.small_squares import (
    _SQRT_TABLE_BOUND,
    SmallSquareTrace,
    SurveyReport,
    _sqrt_solver,
    _sqrt_table,
    _x2_top,
    balanced_n,
    brute_force_small_square,
    construct_small_square,
    convergent_denominators,
    small_square_survey,
    square_cover_height,
)


# ---------------------------------------------------------------- oracles


def oracle_cover_height(k: int) -> int:
    """Direct two-loop definition of the cover height (tiny k only)."""
    if k <= 2:
        return 1
    units = [x for x in range(1, k) if math.gcd(x, k) == 1]
    for h in range(1, k + 1):
        good = True
        for x in units:
            if not any(
                (x - y * z * z) % k == 0
                for y in range(-h, h + 1)
                if y != 0
                for z in range(k)
            ):
                good = False
                break
        if good:
            return h
    raise AssertionError(f"no cover height below {k}")


def oracle_convergents(num: int, den: int) -> list[Fraction]:
    """Convergents rebuilt from the textbook a-sequence with Fractions."""
    a, b = num, den
    terms = []
    while b:
        q = a // b
        terms.append(q)
        a, b = b, a - q * b
    convs = []
    for i in range(len(terms)):
        # Evaluate [a0; a1, ..., ai] bottom-up exactly.
        val = Fraction(terms[i])
        for t in reversed(terms[:i]):
            val = t + (1 / val if val else Fraction(0))
        convs.append(val)
    return convs


def oracle_minimal_representation(q1: int, q2: int, n_cap: int):
    box = q2 * q2
    best = None
    for x1 in range(-box, box + 1):
        for x2 in range(-box, box + 1):
            v = x1 * q1 + x2 * q2
            if v < 1:
                continue
            n = math.isqrt(v)
            if n * n == v and n <= n_cap:
                key = (max(abs(x1), abs(x2)), n, abs(x1), x1 < 0, abs(x2), x2 < 0)
                if best is None or key < best[0]:
                    best = (key, SquareWitness(x1, x2, n))
    return None if best is None else best[1]


# ------------------------------------------------------------ cover height


def test_cover_height_frozen():
    assert square_cover_height(1) == 1
    assert square_cover_height(2) == 1
    assert square_cover_height(5) == 2
    assert square_cover_height(7) == 1
    assert square_cover_height(8) == 3


def test_cover_height_matches_oracle():
    # The oracle's cost grows about as k^4: k < 180 takes about a second.
    for k in range(1, 180):
        assert square_cover_height(k) == oracle_cover_height(k), k


def test_cover_height_guard():
    with pytest.raises(TooLarge):
        square_cover_height(200_000)
    with pytest.raises(DomainError):
        square_cover_height(0)


def test_cover_height_envelope():
    # Informational envelope: H(k) stays far below 64 * k^(1/4) * log(k+2),
    # checked on the integer side via fourth powers.
    for k in range(1, 800):
        h = square_cover_height(k)
        log_bound = math.log(k + 2)
        assert h**4 <= 64**4 * k * math.ceil(log_bound) ** 4, k


# ------------------------------------------------------------- convergents


def test_convergent_denominators_frozen():
    assert convergent_denominators(3, 5) == [1, 1, 2, 5]
    assert convergent_denominators(0, 1) == [1]
    assert convergent_denominators(1, 1) == [1]
    # pi-like: 355/113's predecessor structure
    assert convergent_denominators(355, 113)[-1] == 113


def test_convergent_denominators_refuses_a_zero_denominator():
    with pytest.raises(DomainError, match="need num >= 0 and den >= 1, got 1/0"):
        convergent_denominators(1, 0)


def test_convergents_match_fraction_oracle():
    rng = random.Random(42)
    for _ in range(300):
        den = rng.randint(1, 10**6)
        num = rng.randint(0, den)
        denoms = convergent_denominators(num, den)
        convs = oracle_convergents(num, den)
        assert [c.denominator for c in convs] == [
            d // math.gcd(d, 1) for d in denoms
        ] or len(convs) == len(denoms)
        # The final convergent is the fraction itself in lowest terms.
        g = math.gcd(num, den) if num else den
        assert denoms[-1] == den // g
        # Denominators ascend (weakly at the first step, strictly after).
        assert all(a <= b for a, b in zip(denoms, denoms[1:]))


def test_dirichlet_guarantee():
    # The largest convergent denominator <= N approximates within 1/N.
    rng = random.Random(1)
    for _ in range(400):
        den = rng.randint(2, 5000)
        num = rng.randint(0, den - 1)
        cap = rng.randint(1, den + 10)
        n = 1
        for h in convergent_denominators(num, den):
            if h > cap:
                break
            n = h
        # dist(n * num/den) <= 1/cap  <=>  min residue * cap <= den
        r = n * num % den
        assert min(r, den - r) * cap <= den, (num, den, cap)


def test_construct_takes_the_last_convergent_within_the_cap():
    # The kernel walks the denominator recurrence inline; its n must be the
    # largest denominator of convergent_denominators(c_bar, q1) that is <= N.
    rng = random.Random(27)
    cases = [(1, 7, 1), (1, 7, 5)]
    while len(cases) < 400:
        q1, q2 = rng.randint(1, 2000), rng.randint(1, 2000)
        if math.gcd(q1, q2) == 1:
            cases.append((q1, q2, rng.randint(1, 2 * q1 + 2)))
    assert any(cap >= q1 > 1 for q1, _, cap in cases)
    for q1, q2, cap in cases:
        tr = construct_small_square(q1, q2, cap)
        want = max(h for h in convergent_denominators(tr.c_bar, q1) if h <= cap)
        assert tr.n == want, (q1, q2, cap)


# ------------------------------------------------------------ construction


def test_construct_frozen_5_7():
    tr = construct_small_square(5, 7, 3)
    assert (tr.b, tr.c, tr.c_bar) == (2, 2, 3)
    assert (tr.n, tr.m, tr.approx_d) == (2, -1, 1)
    assert tr.witness == SquareWitness(-2, 2, 2)
    assert -2 * 5 + 2 * 7 == 4


def test_construct_degenerate_step_one():
    tr = construct_small_square(1, 7, 1)
    assert tr.witness == SquareWitness(1, 0, 1)
    assert (tr.b, tr.c, tr.c_bar, tr.n, tr.approx_d) == (1, 0, 0, 1, 0)


def test_construct_large_cap_hits_exact_multiple():
    # Once the cap admits the full denominator q1, the construction can use
    # n = q1 and a zero displacement.
    tr = construct_small_square(12, 35, 100)
    tr.validate()
    assert abs(tr.b) <= square_cover_height(12)
    assert 1 <= tr.n <= 100
    assert tr.witness.x1 * 12 + tr.witness.x2 * 35 == tr.n**2


def test_construct_errors():
    with pytest.raises(DomainError):
        construct_small_square(6, 10, 5)
    with pytest.raises(DomainError):
        construct_small_square(5, 7, 0)
    with pytest.raises(DomainError):
        construct_small_square(0, 7, 1)


def test_construct_invariants_random():
    rng = random.Random(20260814)
    count = 0
    while count < 300:
        q1 = rng.randint(1, 300)
        q2 = rng.randint(1, 300)
        if math.gcd(q1, q2) != 1:
            continue
        count += 1
        cap = rng.randint(1, 40)
        tr = construct_small_square(q1, q2, cap)
        tr.validate()
        w = tr.witness
        assert w.x1 * q1 + w.x2 * q2 == tr.n * tr.n
        assert 1 <= tr.n <= cap
        assert abs(tr.approx_d) * cap <= q1
        # The scan for b ends within the cover height, so |b| <= H(q1) and
        # |x2| = |b| * approx_d^2 <= H(q1) * (q1/cap)^2.
        h = square_cover_height(q1)
        assert abs(tr.b) <= h
        assert abs(w.x2) * cap * cap <= h * q1 * q1


def test_canonical_sqrt_routes_agree(monkeypatch):
    # Table route vs factored route on every unit of every small modulus.
    tables = {m: _sqrt_solver(m) for m in range(1, 300)}
    monkeypatch.setattr(small_squares, "_SQRT_TABLE_BOUND", 0)
    for m, table_root in tables.items():
        factored_root = _sqrt_solver(m)
        for a in range(m):
            if math.gcd(a, m) != 1:
                continue
            assert table_root(a) == factored_root(a), (a, m)


def test_sqrt_solver_above_the_table_bound_matches_scan():
    # Just above the bound the solver factors its modulus: a prime, a prime
    # cube, and composites with 2^2, 2^5 and squared odd primes in them.
    rng = random.Random(99)
    for m in (50_021, 50_653, 50_001, 50_004, 50_016, 50_094):
        assert m > _SQRT_TABLE_BOUND
        root = _sqrt_solver(m)
        least: dict[int, int] = {}
        for z in range(m):
            least.setdefault(z * z % m, z)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        for a in rng.sample(units, 200) + [1, m - 1]:
            assert root(a) == least.get(a), (a, m)


def test_sqrt_table_is_the_plain_definition():
    for m in range(1, 2001):
        want: dict[int, int] = {}
        for z in range(m):
            want.setdefault(z * z % m, z)
        assert _sqrt_table(m) == want, m


def test_large_modulus_is_factored_once(monkeypatch):
    # Above the table bound the scan tries 11 multipliers b; one
    # factorization of q1 serves all of them.
    calls = []
    factor = arith.factorize

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(arith, "factorize", counted)
    monkeypatch.setattr(small_squares, "factorize", counted, raising=False)
    q1, q2 = 15014789789234235, 15014789789234252
    tr = construct_small_square(q1, q2, balanced_n(q1, q2))
    assert calls == [q1]
    assert (tr.b, tr.c, tr.c_bar, tr.n, tr.m, tr.approx_d) == (17, 17, 10598675145341813, 17, -12, 1)
    assert tr.witness == SquareWitness(-17, 17, 17)


# --------------------------------------------------- brute-force existence


def test_brute_force_small_square_frozen():
    w = brute_force_small_square(3, 5, 5)
    assert w == SquareWitness(2, -1, 1)
    assert max(abs(w.x1), abs(w.x2)) == 2


def test_brute_force_small_square_matches_oracle():
    for q1 in range(1, 7):
        for q2 in range(1, 7):
            if math.gcd(q1, q2) != 1:
                continue
            want = oracle_minimal_representation(q1, q2, 5)
            assert brute_force_small_square(q1, q2, 5) == want, (q1, q2)


def test_brute_force_small_square_refuses_non_positive_steps():
    # (1, 0) is coprime, but a zero step has no classes to scan.
    for q1, q2 in ((1, 0), (0, 1), (-1, 2), (3, -5)):
        with pytest.raises(DomainError, match="steps must be positive"):
            brute_force_small_square(q1, q2, 3)


def test_brute_force_small_square_refuses_non_coprime_steps():
    with pytest.raises(DomainError, match=r"steps must be coprime, got \(4, 6\)"):
        brute_force_small_square(4, 6, 5)


def test_brute_force_small_square_refuses_what_the_construction_refuses():
    # The same DomainError, message included, on a grid of steps and caps; a
    # size cap below 1 leaves no n to search: a refusal, not NotFound.  The
    # search is bounded by its guard, so each valid input runs quickly.
    for q1, q2, n_cap in itertools.product(range(-2, 5), range(-2, 5), (-2, 0, 1, 3)):
        outcomes = []
        for route in (construct_small_square, brute_force_small_square):
            try:
                route(q1, q2, n_cap)
                outcomes.append(None)
            except DomainError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (q1, q2, n_cap, outcomes)
        valid = q1 >= 1 and q2 >= 1 and math.gcd(q1, q2) == 1 and n_cap >= 1
        assert (outcomes[0] is None) == valid, (q1, q2, n_cap)
    with pytest.raises(DomainError, match="^size cap must be positive, got -2$"):
        brute_force_small_square(3, 5, -2)


def test_brute_force_small_square_refuses_past_the_guard_before_its_loop(monkeypatch):
    # n_cap*(2*q2 + 1) pairs: about 2*10^12 here, against a guard of 10^8.
    # The search calls mod_inverse after the guard, so a missing guard fails
    # with a TypeError here instead of walking the pairs.
    monkeypatch.setattr(small_squares, "mod_inverse", None)
    with pytest.raises(TooLarge, match="^search would read 2000009000000 pairs$"):
        brute_force_small_square(10**6 + 3, 10**6 + 4, 10**6)


def test_construction_dominated_by_minimal():
    # The constructive witness can never beat the exhaustive minimizer.
    rng = random.Random(3)
    for _ in range(50):
        q1 = rng.randint(2, 12)
        q2 = rng.randint(2, 12)
        if math.gcd(q1, q2) != 1:
            continue
        cap = rng.randint(2, 10)
        tr = construct_small_square(q1, q2, cap)
        best = brute_force_small_square(q1, q2, cap)
        assert max(abs(best.x1), abs(best.x2)) <= max(
            abs(tr.witness.x1), abs(tr.witness.x2)
        )


# ------------------------------------------------------------- balanced cap


def test_balanced_n_frozen():
    assert balanced_n(16, 16) == 10
    assert balanced_n(1, 1) == 1
    assert balanced_n(4, 9) == 4


def test_balanced_n_refuses_a_zero_step():
    with pytest.raises(DomainError, match=r"steps must be positive, got \(0, 5\)"):
        balanced_n(0, 5)


def test_balanced_n_is_exact_ceiling():
    rng = random.Random(8)
    for _ in range(300):
        q1 = rng.randint(1, 10**6)
        q2 = rng.randint(1, 10**6)
        n = balanced_n(q1, q2)
        assert n**16 >= q1**9 * q2**4
        assert (n - 1) ** 16 < q1**9 * q2**4


# ------------------------------------------------------------------ survey


def test_survey_small_grid():
    rows = []
    rep = small_square_survey(40, on_row=rows.append)
    want_pairs = sum(
        1
        for q1 in range(2, 41)
        for q2 in range(q1, 41)
        if math.gcd(q1, q2) == 1
    )
    assert rep.pairs == want_pairs == len(rows)
    assert rep.all_ok
    assert rep.max_ratio_x2 < 64.0
    assert rep.max_ratio_x1 < 64.0


def reference_survey(q_max: int, q_min: int, ceiling: int = 64):
    """Pair by pair: a fresh balanced_n, the construction and the exact envelope tests."""
    pairs = n_in_range = x1_ratio_ok = x2_ratio_ok = 0
    max_ratio_x1 = max_ratio_x2 = 0.0
    argmax_x1 = argmax_x2 = None
    rows = []
    for q1 in range(q_min, q_max + 1):
        for q2 in range(q1, q_max + 1):
            if math.gcd(q1, q2) != 1:
                continue
            cap = balanced_n(q1, q2)
            tr = construct_small_square(q1, q2, cap)
            x1, x2 = tr.witness.x1, tr.witness.x2
            pairs += 1
            n_in_range += 1 <= tr.n <= cap
            r1 = abs(x1) / (cap * cap / q1 + q1**1.25 * q2 / (cap * cap))
            r2 = abs(x2) * cap * cap / q1**2.25
            # |x1| < ceiling*(N^2/q1 + q1^(5/4)*q2/N^2), |x2| < ceiling*q1^(9/4)/N^2
            lhs = abs(x1) * q1 * cap**2 - ceiling * cap**4
            x1_ratio_ok += lhs < 0 or lhs**4 < ceiling**4 * q1**9 * q2**4
            x2_ratio_ok += (abs(x2) * cap**2) ** 4 < ceiling**4 * q1**9
            if r1 > max_ratio_x1:
                max_ratio_x1, argmax_x1 = r1, (q1, q2)
            if r2 > max_ratio_x2:
                max_ratio_x2, argmax_x2 = r2, (q1, q2)
            rows.append((q1, q2, cap, tr.b, tr.n, x1, x2, r1, r2))
    report = (pairs, n_in_range, x1_ratio_ok, x2_ratio_ok, max_ratio_x1, max_ratio_x2, argmax_x1, argmax_x2)
    return SurveyReport(*report), rows


def test_row_stepped_cap_is_balanced_n():
    rows = []
    small_square_survey(300, q_min=1, on_row=rows.append)
    assert len(rows) > 27_000
    assert all(cap == balanced_n(q1, q2) for q1, q2, cap, *_ in rows)


def scan_order(q1: int) -> list[tuple[int, int]]:
    """(b, b % q1) for b = 1, -1, 2, -2, ... coprime to q1, as far as |b| = q1 + 1."""
    return [
        (b, b % q1) for mag in range(1, q1 + 2) if math.gcd(mag, q1) == 1 for b in (mag, -mag)
    ]


def assert_survey_matches_reference(q_min: int, q_max: int) -> int:
    """Checks the survey, with a spy on its class step, against `reference_survey`.

    Returns how many rows drew a multiplier past their first pair's b.
    """
    calls, lists, solve_class = [], {}, small_squares._solve_class

    def spy(q1, q2, cap, root, taken, more):
        assert lists.setdefault(q1, taken) is taken  # one list per row
        calls.append((q1, q2 % q1))
        return solve_class(q1, q2, cap, root, taken, more)

    want_report, want_rows = reference_survey(q_max, q_min)
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(small_squares, "_solve_class", spy)
        report = small_square_survey(q_max, q_min=q_min, on_row=rows.append)
    assert rows == want_rows  # floats included, bit for bit
    assert report == want_report
    # One class step per class q2 mod q1 of each row, at its first pair.
    assert calls == list(dict.fromkeys((q1, q2 % q1) for q1, q2, *_ in rows))
    # Each row's list is the scan order up to the furthest b its pairs took:
    # grown only when needed, never restarted and with no magnitude skipped.
    grown = 0
    for q1, taken in lists.items():
        order = scan_order(q1)
        reach = [order.index((b, b % q1)) for r_q1, _, _, b, *_ in rows if r_q1 == q1]
        assert taken == order[: max(reach) + 1], q1
        grown += max(reach) > reach[0]
    return grown


# Row 1320 of the last band draws multipliers up to |b| = 131, at q2 = 1451.
@pytest.mark.parametrize("q_min, q_max", [(1, 60), (150, 260), (1320, 1451)])
def test_survey_matches_pair_by_pair_reference(q_min, q_max):
    assert assert_survey_matches_reference(q_min, q_max) > 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 300).flatmap(lambda q_max: st.tuples(st.integers(1, q_max), st.just(q_max))))
@example((_SQRT_TABLE_BOUND - 3, _SQRT_TABLE_BOUND + 9))
def test_survey_matches_pair_by_pair_reference_hypothesis(band):
    assert_survey_matches_reference(*band)


@pytest.mark.parametrize("ceiling", [1, 2, 64])
def test_x2_threshold_is_exact(ceiling):
    # m stands for |x2| * N^2 >= 0: m <= top exactly when m^4 < ceiling^4 * q1^9.
    for q1 in range(1, 2001):
        top = _x2_top(q1, ceiling)
        for m in (top - 1, top, top + 1):
            if m >= 0:
                assert (m <= top) == (m**4 < ceiling**4 * q1**9), (q1, m)
    assert all(_x2_top(q1, 0) == -1 for q1 in range(1, 2001))  # admits no m >= 0


def test_survey_ceiling_decides_the_envelopes(monkeypatch):
    # A ceiling of 0 admits no pair; at ceiling 1 both tests refuse some
    # pairs, and exactly the reference's.
    monkeypatch.setattr(small_squares, "RATIO_CEILING", 0)
    none = small_square_survey(30)
    assert none.x1_ratio_ok == none.x2_ratio_ok == 0 < none.pairs
    monkeypatch.setattr(small_squares, "RATIO_CEILING", 1)
    tight = small_square_survey(60)
    assert tight == reference_survey(60, 2, 1)[0]
    assert (tight.pairs, tight.x1_ratio_ok, tight.x2_ratio_ok) == (1042, 1040, 1004)


def test_survey_refuses_bad_arguments():
    for q_min in (0, -3):
        with pytest.raises(DomainError, match="q_min"):
            small_square_survey(60, q_min=q_min)


def test_survey_above_the_table_bound_factors_each_row_once(monkeypatch):
    q_min, q_max = _SQRT_TABLE_BOUND, _SQRT_TABLE_BOUND + 12
    want_report, want_rows = reference_survey(q_max, q_min)
    calls, factor = [], arith.factorize
    monkeypatch.setattr(small_squares, "factorize", lambda n: calls.append(n) or factor(n))
    rows = []
    report = small_square_survey(q_max, q_min=q_min, on_row=rows.append)
    assert rows == want_rows and report == want_report
    assert calls == list(range(q_min + 1, q_max + 1))  # q_min itself takes the table


_FORGED_ROOTS = textwrap.dedent(
    """
    import sys

    from forge import forge
    from sqavoid import small_squares
    from sqavoid.arith import VerificationFailed

    if not sys.flags.optimize:
        sys.exit("expected to run under python -O")
    trace = small_squares.construct_small_square(5, 7, 3)
    try:
        forge(trace, c=1).validate()  # 1^2 != 2*7 (mod 5)
    except VerificationFailed:
        pass
    else:
        sys.exit("a forged trace passed validate()")
    # Every class gets the root 1: a unit, but seldom a root of b*q2.
    solver = small_squares._sqrt_solver
    small_squares._sqrt_solver = lambda m: lambda a: 1
    try:
        small_squares.small_square_survey(40)
    except VerificationFailed:
        pass
    else:
        sys.exit("a survey on forged roots passed")
    small_squares._sqrt_solver = solver
    # Each multiplier b comes as q1*b, which shares q1's factors, with the
    # residue of the true b kept, so the roots still look right.
    multipliers = small_squares._multipliers
    small_squares._multipliers = lambda q1: ((q1 * b, r) for b, r in multipliers(q1))
    try:
        small_squares.small_square_survey(40)
    except VerificationFailed:
        pass
    else:
        sys.exit("a survey on forged multipliers passed")
    small_squares._multipliers = multipliers

    # A class entry is checked, not trusted, when a later pair reuses it.  The
    # entry of q2 = 2 (mod 7) unpacks true for its first pair, q2 = 9, and
    # forged for every later one, from q2 = 16 on.
    class Reused:
        def __init__(self, true, forged):
            self.next, self.forged = true, forged

        def __iter__(self):
            entry, self.next = self.next, self.forged
            return iter(entry)

    solve_class = small_squares._solve_class
    for name, forge_entry in (
        ("a wrong c_bar", lambda b, c, c_bar, dens: (b, c, c_bar + 1, dens)),
        ("denominators past the cap", lambda b, c, c_bar, dens: (b, c, c_bar, [h * 10**6 for h in dens])),
    ):
        def forged_class(q1, q2, *rest, forge_entry=forge_entry):
            entry = solve_class(q1, q2, *rest)
            return Reused(entry, forge_entry(*entry)) if (q1, q2) == (7, 9) else entry

        small_squares._solve_class = forged_class
        rows = []
        try:
            small_squares.small_square_survey(40, on_row=rows.append)
        except VerificationFailed:
            if rows[-1][:2] != (7, 15):  # the pair before (7, 16)
                sys.exit(f"the entry with {name} failed at {rows[-1][:2]}, not at its reuse")
        else:
            sys.exit(f"a survey reusing an entry with {name} passed")
    small_squares._solve_class = solve_class
    """
)


def test_survey_checks_survive_optimized_mode(run_python):
    proc = run_python("-O", "-c", _FORGED_ROOTS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
