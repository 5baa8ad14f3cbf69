"""Tests for the extremal-search sweep families and their merge logic."""

from __future__ import annotations

import importlib
import json
import math
import random
import textwrap
from pathlib import Path

import pytest
from forge import forge

from sqavoid import arith, progression
from sqavoid.arith import (
    DomainError,
    VerificationFailed,
    factorize,
    is_perfect_square,
    isqrt,
    least_qnr,
    primes_up_to,
)
from sqavoid.bounds import one_d_bound
from sqavoid.cli import main
from sqavoid.formats import value
from sqavoid.lowerbound import MIN_PRIME, build_instance
from sqavoid.progression import TwoDAP, cardinality, certify_square_free, is_proper, max_radius
from sqavoid.sweep import (
    MAX_BUDGET,
    FamilyBest,
    SweepConfig,
    _lower_bound_family,
    _one_d_family,
    _random_local_family,
    sweep,
)


# --------------------------------------------------------------- oracles


def oracle_one_d_radius(q: int, t: int) -> int:
    """Largest radius X with no square among q, 2q, ..., Xq within (0, t]."""
    x = 0
    while True:
        v = (x + 1) * q
        if v <= t and is_perfect_square(v):
            return x
        if v > t:
            return t // q
        x += 1


def oracle_one_d_best(t: int, q_max: int) -> tuple[int, int]:
    best = (0, 0)
    for q in range(1, q_max + 1):
        size = 2 * oracle_one_d_radius(q, t) + 1
        if size > best[0]:
            best = (size, q)
    return best


def oracle_lower_bound(t: int) -> FamilyBest | None:
    """Every instance built, the largest box in [-t, t] kept, ties to the smaller p."""
    best = None
    for p in primes_up_to(isqrt(t)):
        if p % 4 == 1 and p >= MIN_PRIME:
            inst = build_instance(p)
            if inst.progression.value_bound() <= t and (best is None or inst.size > best.size):
                best = inst
    return None if best is None else FamilyBest("lower_bound", best.progression, best.size)


# The package's `sweep` attribute is the function, so fetch the module.
sweep_module = importlib.import_module("sqavoid.sweep")


# ------------------------------------------------------------- families


def test_one_d_family_frozen_small_t():
    # The walk out from sqrt(T) against an exhaustive scan of every q <= T.
    for t in [*range(100, 1501), 2000, 3599, 3600, 4096, 5000, 9999, 10_000]:
        fb = _one_d_family(t)
        size, q = oracle_one_d_best(t, t)
        assert (fb.size, fb.progression.q1) == (size, q), t
        assert fb.progression.q2 == 1 and fb.progression.x2bound == 0


def test_one_d_family_frozen_large_t():
    fb = _one_d_family(10**8)
    assert (fb.progression.q1, fb.size) == (10001, 19999)
    # Far past int64 products: exact integers throughout.
    fb = _one_d_family(10**19)
    assert (fb.progression.q1, fb.size) == (3162277661, 6324555319)


def test_lower_bound_family_frozen_smallest_window():
    # p = 17 fits: its box reaches 312 <= 338, though 2*17^2 > 338.
    fb = _lower_bound_family(338)
    assert fb is not None
    assert fb.size == 165
    assert (fb.progression.q1, fb.progression.q2) == (17, 20)


def test_lower_bound_family_full_reach():
    # Every prime p <= isqrt(T) whose box lies in [-T, T], not only 2*p^2 <= T.
    for t, p, size in ((10**6, 769, 19_981), (10**7, 2689, 134_425)):
        fb = _lower_bound_family(t)
        assert (fb.progression.q1, fb.size) == (p, size), t
        assert fb.progression.value_bound() <= t < 2 * p * p


def test_lower_bound_family_none_below_first_prime():
    assert _lower_bound_family(100) is None


def test_lower_bound_member_at_997():
    # 997 = 5 (mod 8), so 2 is already a non-residue: the instance is thin
    # but certified, and appears among the family candidates at T = 2*997^2.
    inst = build_instance(997)
    assert inst.nqr == 2
    assert inst.size == (2 * 996 + 1) * (2 * 1 + 1) == 5979
    fb = _lower_bound_family(2 * 997 * 997)
    assert fb is not None and fb.size >= inst.size


def test_lower_bound_closed_form_matches_build_instance():
    # The size and value bound that _lower_bound_family compares without
    # building an instance.
    for p in primes_up_to(10**4):
        if p % 4 != 1 or p < MIN_PRIME:
            continue
        inst, n = build_instance(p), least_qnr(p)
        assert (2 * p - 1) * (2 * n - 1) == inst.size, p
        assert (p - 1) * p + (n - 1) * (p + n) == inst.progression.value_bound(), p


def test_lower_bound_family_matches_building_every_instance():
    rng = random.Random(13)
    band = [rng.randint(5 * 10**6, 10**7) for _ in range(20)]
    for t in [100, 338, *(10**k for k in range(3, 8)), *band]:
        assert _lower_bound_family(t) == oracle_lower_bound(t), t


def test_lower_bound_family_builds_and_certifies_only_the_winner(monkeypatch):
    calls = []

    def counted(name, f):
        def g(*args):
            calls.append(name)
            return f(*args)

        return g

    for name in ("build_instance", "residue_certificate"):
        monkeypatch.setattr(sweep_module, name, counted(name, getattr(sweep_module, name)))
    for t in (338, 10**6, 7_500_000):
        calls.clear()
        assert _lower_bound_family(t) is not None
        assert calls == ["build_instance", "residue_certificate"], t
    calls.clear()
    assert _lower_bound_family(100) is None and calls == []


def test_lower_bound_family_refuses_a_winner_off_its_closed_form(monkeypatch):
    # build_instance disagreeing with the closed form is a failed check.
    monkeypatch.setattr(sweep_module, "build_instance", lambda p: forge(build_instance(p), size=1))
    with pytest.raises(VerificationFailed):
        _lower_bound_family(10**6)


def test_random_local_family_is_deterministic():
    a = _random_local_family(10_000, seed=5, budget=40)
    b = _random_local_family(10_000, seed=5, budget=40)
    assert a == b
    c = _random_local_family(10_000, seed=6, budget=40)
    assert c is not None and a is not None
    assert is_proper(a.progression) and is_proper(c.progression)


def test_random_local_work_is_its_budget_for_every_seed(monkeypatch):
    """`budget` coprime pairs drawn, each q1 factored once; at most that many walks."""
    drawn, walks = [], []
    factor, kernel = sweep_module.factorize, sweep_module.max_radius

    def counted_factorize(n):
        drawn.append(n)
        return factor(n)

    def counted(q, other_q, fo, other_r, t):
        walks.append((q, other_q, other_r))
        return kernel(q, other_q, fo, other_r, t)

    monkeypatch.setattr(sweep_module, "factorize", counted_factorize)
    monkeypatch.setattr(sweep_module, "max_radius", counted)
    t, budget = 1_000_000, 30
    for seed in range(5):
        drawn.clear()
        walks.clear()
        fb = _random_local_family(t, seed=seed, budget=budget)
        assert len(drawn) == budget and len(walks) <= budget, seed
        assert all(math.gcd(q, other_q) == 1 for q, other_q, _ in walks)
        assert fb.progression.value_bound() <= t


def test_random_local_factors_q1_once_per_pair(monkeypatch):
    # X1's kernel and the row walk's other step share one factorization of
    # q1; the walk may factor q2 for its rows y, and nothing else.  A pair
    # whose walk is skipped factors q1 alone.
    pairs, walks = [], []
    factor, kernel = arith.factorize, sweep_module.max_radius

    def pair_factorize(n):  # the sweep's own call: one per coprime pair, on q1
        pairs.append([n])
        return factor(n)

    def inner_factorize(n):
        pairs[-1].append(n)
        return factor(n)

    def counted_kernel(q, other_q, fo, other_r, t):
        walks.append((len(pairs) - 1, other_q, q))
        return kernel(q, other_q, fo, other_r, t)

    for module in (arith, progression):
        monkeypatch.setattr(module, "factorize", inner_factorize)
    monkeypatch.setattr(sweep_module, "factorize", pair_factorize)
    monkeypatch.setattr(sweep_module, "max_radius", counted_kernel)
    for t, seed in ((5_200_000, 1), (7_300_000, 2), (9_700_000, 3)):
        pairs.clear()
        walks.clear()
        _random_local_family(t, seed=seed, budget=200)
        assert len(pairs) == 200 and len(walks) <= 200
        walked = {i: (q1, q2) for i, q1, q2 in walks}
        for i, calls in enumerate(pairs):
            q1, q2 = walked.get(i, (calls[0], None))
            assert calls[0] == q1 and calls.count(q1) == 1 and set(calls) <= {q1, q2}, (t, calls)


def oracle_random_local(t: int, seed: int, budget: int) -> FamilyBest | None:
    """random_local with every pair walked: the largest proper box, ties to the
    smallest steps, over the same seeded coprime pairs."""
    rng, top = random.Random(seed), max(3, 2 * isqrt(t))
    best, pairs = None, 0
    while pairs < budget:
        q1, q2 = sorted((rng.randint(2, top), rng.randint(2, top)))
        if math.gcd(q1, q2) != 1:
            continue
        pairs += 1
        x1 = one_d_bound(q1, t)
        a = TwoDAP(q1, q2, x1, max_radius(q2, q1, factorize(q1), x1, t))
        rank = (cardinality(a), -q1, -q2)
        if is_proper(a) and (best is None or rank > best[0]):
            best = (rank, a)
    return None if best is None else FamilyBest("random_local", best[1], best[0][0])


def test_random_local_skips_no_winning_pair():
    # Walks the family skips could not have beaten its best box.  At small
    # T the room X1 leaves is often the winner's X2 itself.
    for t in (*range(100, 1000, 49), 10_000, 1_000_000, 7_500_000, 10**8):
        for seed in range(10):
            assert _random_local_family(t, seed, 200) == oracle_random_local(t, seed, 200), (t, seed)


# ------------------------------------------------------------ full sweep


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(t=50)
    with pytest.raises(DomainError):
        SweepConfig(t=10**16 + 1)  # lower_bound would sieve, and walks pass, 10^8
    assert SweepConfig(t=10**16).t == 10**16
    with pytest.raises(DomainError):
        SweepConfig(t=1000, budget=0)
    # About 40 us a pair at T = 10^7: a budget past MAX_BUDGET is refused.
    assert SweepConfig(t=1000, budget=MAX_BUDGET).budget == MAX_BUDGET
    for budget in (MAX_BUDGET + 1, 10**18):
        with pytest.raises(DomainError):
            SweepConfig(t=1000, budget=budget)
    with pytest.raises(DomainError):
        SweepConfig(t=1000, families=("one_d", "mystery"))
    assert SweepConfig(t=1000, families=("one_d", "one_d")).families == ("one_d",)


def test_sweep_refuses_when_no_family_finds_a_candidate(capsys):
    # Below the first prime the lower_bound family has no instance, so a
    # sweep of that family alone has nothing to report.
    with pytest.raises(DomainError, match="^no family produced a candidate$"):
        sweep(SweepConfig(t=100, families=("lower_bound",)))
    assert main(["sweep", "--t", "100", "--families", "lower_bound"]) == 2
    captured = capsys.readouterr()
    (rec,) = map(json.loads, captured.out.splitlines())
    assert (rec["kind"], rec["error"], rec["message"]) == (
        "Error", "DomainError", "no family produced a candidate"
    )


def test_sweep_config_refuses_no_family(capsys):
    # Refused when built, before any family runs: an empty list is not a sweep.
    with pytest.raises(DomainError, match="families must name at least one of"):
        SweepConfig(t=1000, families=())
    assert main(["sweep", "--t", "1000", "--families", ""]) == 2
    captured = capsys.readouterr()
    (rec,) = map(json.loads, captured.out.splitlines())
    assert (rec["kind"], rec["error"]) == ("Error", "DomainError")
    assert rec["message"] == "families must name at least one of one_d, lower_bound, random_local"
    assert captured.err == f"error: {rec['message']}\n"


def test_sweep_emits_only_verified_instances():
    for t in (10_000, 100_000, 1_000_000):
        res = sweep(SweepConfig(t=t, seed=1, budget=40))
        for fb in res.family_bests:
            a = fb.progression
            assert is_proper(a), (t, fb)
            assert certify_square_free(a, t).kind == "square_free", (t, fb)
            assert cardinality(a) == fb.size
        # Floor: at least the one-dimensional sqrt(T) scale.
        assert res.best.size >= math.isqrt(t)
        # Cap: the box cannot out-range the ambient interval on either axis.
        a = res.best.progression
        cap = (2 * (t // a.q1) + 1) * (2 * (t // a.q2) + 1)
        assert res.best.size <= cap


def test_sweep_boxes_lie_in_the_interval():
    # Growing each radius up to t // q on its own once gave
    # TwoDAP(1234, 1661, 810, 2) here, whose values reach 1,002,862.
    t = 10**6
    res = sweep(SweepConfig(t=t, seed=0))
    for fb in res.family_bests:
        assert fb.progression.value_bound() <= t, fb


def test_sweep_family_bests_frozen_large_t():
    # All three family bests at T = 10^8; random_local's box is sized by
    # its max_radius calls.
    res = sweep(SweepConfig(t=10**8, seed=0))
    got = {fb.family: (fb.progression, fb.size) for fb in res.family_bests}
    assert got == {
        "random_local": (TwoDAP(9894, 10981, 9893, 12), 494_675),
        "lower_bound": (TwoDAP(8761, 8778, 8760, 16), 578_193),
        "one_d": (TwoDAP(10001, 1, 9999, 0), 19_999),
    }


BENCH_BAND = Path(__file__).parent / "data" / "sweep_bench_band.jsonl"


def test_sweep_records_frozen_in_the_bench_band(capsys):
    # `sqavoid sweep --t T --seed S` for T in 5*10^6, 7.5*10^6, 10^7 and
    # S in 0, 1, in that order, byte for byte.
    out = []
    for t in (5_000_000, 7_500_000, 10_000_000):
        for seed in (0, 1):
            assert main(["sweep", "--t", str(t), "--seed", str(seed)]) == 0
            out.append(capsys.readouterr().out)
    assert "".join(out) == BENCH_BAND.read_text()


def test_sweep_records_frozen_under_python_O(run_python):
    # The first sweep of the bench band, in a fresh interpreter under -O:
    # max_radius's shortcuts and the emission checks rely on no assert.
    proc = run_python("-O", "-m", "sqavoid.cli", "sweep", "--t", "5000000", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    frozen = BENCH_BAND.read_text().splitlines(keepends=True)
    first = frozen[: 1 + next(i for i, line in enumerate(frozen) if '"kind": "SweepBest"' in line)]
    assert len(first) == 4 and proc.stdout == "".join(first)


def test_sweep_records_frozen_past_the_residue_scan_limit(capsys):
    # `sqavoid sweep --t 4*10^12 --seed S` for S in 0, 1, byte for byte.
    out = []
    for seed in (0, 1):
        assert main(["sweep", "--t", str(4 * 10**12), "--seed", str(seed)]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (BENCH_BAND.parent / "sweep_4e12.jsonl").read_text()


def test_sweep_records_frozen_at_1e14(capsys):
    # `sqavoid sweep --t 10^14 --seed 0`, byte for byte.  random_local's q1,
    # 7,289,821, passes RESIDUE_SCAN_LIMIT, so its re-certifying root walk is
    # filtered only because the limit bounds the classes held, not q1.
    assert main(["sweep", "--t", str(10**14), "--seed", "0"]) == 0
    assert capsys.readouterr().out == (BENCH_BAND.parent / "sweep_1e14.jsonl").read_text()


def test_sweep_best_dominates_families():
    res = sweep(SweepConfig(t=100_000, seed=7, budget=60))
    assert res.best.size == max(fb.size for fb in res.family_bests)
    assert value(res.ratio_to_t_20_27) == f"{res.best.size / 100_000 ** (20 / 27):.6f}"


def test_sweep_family_subset():
    res = sweep(SweepConfig(t=10_000, families=("one_d",)))
    assert [fb.family for fb in res.family_bests] == ["one_d"]
    assert res.best.family == "one_d"


def test_sweep_deterministic_across_calls():
    cfg = SweepConfig(t=10_000, seed=123, budget=50)
    assert sweep(cfg) == sweep(cfg)


_REJECT_ALL = textwrap.dedent(
    """
    import importlib
    import sys
    from sqavoid import cli
    from sqavoid.arith import VerificationFailed
    from sqavoid.progression import Certificate, SquareWitness

    if not sys.flags.optimize:
        sys.exit("expected to run under python -O")
    sweep_module = importlib.import_module("sqavoid.sweep")  # the package's `sweep` is the function
    # Every box now looks as if it held the square 1 = 1*q1 + 0*q2.
    sweep_module.certify_square_free = lambda a, t: Certificate(
        "witness", SquareWitness(1, 0, 1), 1
    )
    try:
        sweep_module.sweep(sweep_module.SweepConfig(t=1000, budget=20))
    except VerificationFailed:
        pass
    else:
        sys.exit("sweep reported a box its check rejected")
    sys.exit(cli.main(["sweep", "--t", "1000", "--budget", "20"]))
    """
)


_UNCONTAINED = textwrap.dedent(
    """
    import importlib
    import sys
    from sqavoid import cli
    from sqavoid.arith import VerificationFailed
    from sqavoid.progression import TwoDAP, cardinality

    if not sys.flags.optimize:
        sys.exit("expected to run under python -O")
    sweep_module = importlib.import_module("sqavoid.sweep")  # the package's `sweep` is the function
    # Proper and square-free up to 10^6, but its values reach 1,002,862.
    box = TwoDAP(1234, 1661, 810, 2)
    sweep_module._random_local_family = lambda t, seed, budget: sweep_module.FamilyBest(
        "random_local", box, cardinality(box)
    )
    try:
        sweep_module.sweep(sweep_module.SweepConfig(t=10**6))
    except VerificationFailed:
        pass
    else:
        sys.exit("sweep reported a box that leaves [-T, T]")
    sys.exit(cli.main(["sweep", "--t", "1000000"]))
    """
)


# A forgery planted in the sweep module, then a sweep that must refuse it.
_FORGED_EMISSION = textwrap.dedent(
    """
    import importlib
    import sys
    from types import SimpleNamespace
    from sqavoid import cli
    from sqavoid.arith import VerificationFailed
    from sqavoid.progression import TwoDAP, cardinality

    if not sys.flags.optimize:
        sys.exit("expected to run under python -O")
    sweep_module = importlib.import_module("sqavoid.sweep")  # the package's `sweep` is the function
    FamilyBest = sweep_module.FamilyBest
    {forgery}
    try:
        sweep_module.sweep(sweep_module.SweepConfig(t={t}))
    except VerificationFailed:
        pass
    else:
        sys.exit("sweep reported a result its check should refuse")
    sys.exit(cli.main(["sweep", "--t", "{t}"]))
    """
)

_FORGERIES = {
    # Every residue certificate fails.
    "residue-certificate": (
        "sweep_module.residue_certificate = lambda inst: SimpleNamespace(ok=False)",
        10**6,
        "residue certificate failed for p = ",
    ),
    # 2*2 + 4*0 = 2*0 + 4*1: two pairs, one value.
    "improper": (
        'sweep_module._random_local_family = lambda *args: FamilyBest("random_local", TwoDAP(2, 4, 3, 1), 21)',
        1000,
        "random_local box is not proper",
    ),
    # The square-free lower-bound box for p = 13, one pair too many.
    "miscounted": (
        "box = TwoDAP(13, 15, 12, 1)\n"
        'sweep_module._random_local_family = lambda *args: FamilyBest("random_local", box, cardinality(box) + 1)',
        1000,
        "random_local box size is not 76",
    ),
}


_PLANTED = textwrap.dedent(
    """
    import importlib
    import sys
    from sqavoid.arith import VerificationFailed
    from sqavoid.progression import TwoDAP, cardinality, is_proper

    if not sys.flags.optimize:
        sys.exit("expected to run under python -O")
    sweep_module = importlib.import_module("sqavoid.sweep")  # the package's `sweep` is the function
    # Proper boxes inside [-1000, 1000], each one radius past square-free.
    planted = {
        "one_d": TwoDAP(12, 1, 5, 0),  # 3*12 = 6^2
        "lower_bound": TwoDAP(13, 15, 13, 1),  # 13*13 = 13^2
        "random_local": TwoDAP(7, 9, 5, 1),  # 0*7 + 1*9 = 3^2
    }
    for family, box in planted.items():
        if not (is_proper(box) and box.value_bound() <= 1000):
            sys.exit(f"{family}: {box} would fail another check first")
        found = sweep_module.FamilyBest(family, box, cardinality(box))
        setattr(sweep_module, f"_{family}_family", lambda *args, found=found: found)
        try:
            sweep_module.sweep(sweep_module.SweepConfig(t=1000, families=(family,)))
        except VerificationFailed as e:
            if "holds a square" not in str(e):
                sys.exit(f"{family}: {e}")
        else:
            sys.exit(f"sweep reported {family}'s box {box}, which holds a square")
    """
)


_FORGED = textwrap.dedent(
    """
    import sys

    from forge import forge
    from sqavoid.arith import VerificationFailed
    from sqavoid.progression import SquareWitness
    from sqavoid.small_squares import construct_small_square

    if not sys.flags.optimize:
        sys.exit("expected to run under python -O")
    trace = construct_small_square(5, 7, 3)
    w = trace.witness
    # x1*q1 + x2*q2 = n^2 + q1 no longer holds.
    forged = forge(trace, witness=SquareWitness(w.x1 + 1, w.x2, w.n))
    try:
        forged.validate()
    except VerificationFailed:
        pass
    else:
        sys.exit("a forged trace passed validate()")
    """
)


def test_emission_checks_survive_optimized_mode(run_python):
    proc = run_python("-O", "-c", _REJECT_ALL)
    assert proc.returncode == 2, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert (rec["kind"], rec["error"]) == ("Error", "VerificationFailed")


def test_containment_check_survives_optimized_mode(run_python):
    proc = run_python("-O", "-c", _UNCONTAINED)
    assert proc.returncode == 2, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert (rec["kind"], rec["error"]) == ("Error", "VerificationFailed")
    assert "leaves" in rec["message"]


@pytest.mark.parametrize("forgery", _FORGERIES)
def test_emission_refuses_a_forged_result_under_python_O(run_python, forgery):
    code, t, message = _FORGERIES[forgery]
    proc = run_python("-O", "-c", _FORGED_EMISSION.format(forgery=code, t=t))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert (rec["kind"], rec["error"]) == ("Error", "VerificationFailed")
    assert message in rec["message"]


def test_every_family_route_rejects_a_planted_square_under_python_O(run_python):
    proc = run_python("-O", "-c", _PLANTED)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_trace_check_survives_optimized_mode(run_python):
    proc = run_python("-O", "-c", _FORGED)
    assert proc.returncode == 0, proc.stdout + proc.stderr
