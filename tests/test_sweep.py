"""Tests for the extremal-search sweep families and their merge logic."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from sqavoid.arith import DomainError, is_perfect_square, squarefree_kernel
from sqavoid.progression import cardinality, certify_square_free, is_proper
from sqavoid.sweep import (
    SweepConfig,
    _kernel_table,
    _lower_bound_family,
    _one_d_family,
    _one_d_shard,
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


# ------------------------------------------------------------- families


def test_kernel_table_matches_scalar_kernel():
    table = _kernel_table(2000)
    for q in range(1, 2001):
        assert table[q] == squarefree_kernel(q), q


def test_one_d_shard_matches_oracle_small():
    t = 10_000
    got = _one_d_shard(t, 1, 201)
    want = oracle_one_d_best(t, 200)
    assert got == want


def test_one_d_family_frozen_small_t():
    t = 10_000
    fb = _one_d_family(t, threads=1)
    size, q = oracle_one_d_best(t, t)
    assert fb.size == size
    assert fb.progression.q1 == q
    assert fb.progression.q2 == 1 and fb.progression.x2bound == 0


def test_one_d_family_shard_merge_is_thread_invariant():
    t = 50_000
    assert _one_d_family(t, threads=1) == _one_d_family(t, threads=3)
    assert _one_d_family(t, threads=1) == _one_d_family(t, threads=7)


def test_lower_bound_family_frozen_smallest_window():
    fb = _lower_bound_family(338, threads=1)
    assert fb is not None
    assert fb.size == 75
    assert (fb.progression.q1, fb.progression.q2) == (13, 15)


def test_lower_bound_family_none_below_first_prime():
    assert _lower_bound_family(100, threads=1) is None


def test_lower_bound_member_at_997():
    # 997 = 5 (mod 8), so 2 is already a non-residue: the instance is thin
    # but certified, and appears among the family candidates at T = 2*997^2.
    from sqavoid.lowerbound import build_instance

    inst = build_instance(997)
    assert inst.nqr == 2
    assert inst.size == (2 * 996 + 1) * (2 * 1 + 1) == 5979
    fb = _lower_bound_family(2 * 997 * 997, threads=1)
    assert fb is not None and fb.size >= inst.size


def test_lower_bound_family_thread_invariant():
    t = 2 * 10**6
    assert _lower_bound_family(t, 1) == _lower_bound_family(t, 4)


def test_random_local_family_is_deterministic():
    a = _random_local_family(10_000, seed=5, budget=40, threads=1)
    b = _random_local_family(10_000, seed=5, budget=40, threads=1)
    assert a == b
    c = _random_local_family(10_000, seed=6, budget=40, threads=1)
    assert c is not None and a is not None
    assert is_proper(a.progression) and is_proper(c.progression)


# ------------------------------------------------------------ full sweep


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(t=50)
    with pytest.raises(DomainError):
        SweepConfig(t=1000, budget=0)
    with pytest.raises(DomainError):
        SweepConfig(t=1000, families=("one_d", "mystery"))
    assert SweepConfig(t=1000, families=("one_d", "one_d")).families == ("one_d",)


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


def test_sweep_best_dominates_families():
    res = sweep(SweepConfig(t=100_000, seed=7, budget=60))
    assert res.best.size == max(fb.size for fb in res.family_bests)
    assert res.ratio_to_t_20_27 == f"{res.best.size / 100_000 ** (20 / 27):.6f}"


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


def test_emission_checks_survive_optimized_mode():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REJECT_ALL],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert (rec["kind"], rec["error"]) == ("Error", "VerificationFailed")
