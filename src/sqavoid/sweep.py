"""Extremal-search sweep: how large can a square-avoiding box get below T?

Three candidate families are searched, each deterministic given the
configuration:

* ``one_d``      - exhaustive over single steps q: the radius is pinned
                   exactly by min(T // q, kernel(q) - 1), so this family
                   realizes the classical sqrt(T)-scale floor.
* ``lower_bound``- the non-residue construction over every prime
                   p = 1 (mod 4) with 2*p^2 <= T; its value bound sits
                   below 2*p^2, so avoidance extends to all of [-T, T].
* ``random_local``- a seeded coordinate hill-climb over (q1, q2, X1, X2)
                   using `certify_square_free` as the feasibility oracle
                   and cardinality as the objective (algorithm: alternate
                   exponential-then-binary radius growth per axis, with
                   random coprime restarts until the evaluation budget is
                   spent).

Families run concurrently when asked; within a family the candidate space
is sharded by worker and merged deterministically (max size, ties to the
lexicographically smallest (q1, q2)).  Every emitted best instance is
re-certified and properness-checked at emission time; the sweep refuses
to report anything it cannot verify.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .arith import DomainError, VerificationFailed, isqrt
from .lowerbound import MIN_PRIME, build_instance, residue_certificate
from .progression import TwoDAP, cardinality, certify_square_free, is_proper

F = Fraction

FAMILIES = ("one_d", "lower_bound", "random_local")

# Exhaustive single-step scans beyond this T switch to the provably
# sufficient window around sqrt(T) (radii for q > 4*sqrt(T) are dominated).
_ONE_D_EXHAUSTIVE_LIMIT = 10_000_000


@dataclass(frozen=True)
class SweepConfig:
    t: int
    families: tuple[str, ...] = FAMILIES
    budget: int = 200
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.t < 100:
            raise DomainError(f"sweep needs T >= 100, got {self.t}")
        if self.budget < 1:
            raise DomainError(f"budget must be >= 1, got {self.budget}")
        if self.threads < 1:
            raise DomainError(f"threads must be >= 1, got {self.threads}")
        bad = [f for f in self.families if f not in FAMILIES]
        if bad:
            raise DomainError(f"unknown families: {bad}")
        object.__setattr__(self, "families", tuple(sorted(set(self.families))))


@dataclass(frozen=True)
class FamilyBest:
    family: str
    progression: TwoDAP
    size: int


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    family_bests: tuple[FamilyBest, ...]
    best: FamilyBest
    ratio_to_t_20_27: str  # size / T^(20/27), display decimal string
    ratio_to_sqrt_t_log_t: str  # size / (sqrt(T) * log T), display


def _kernel_table(n: int) -> np.ndarray:
    """kernel(q) for q = 0..n: q divided by its largest square divisor."""
    q = np.arange(n + 1, dtype=np.int64)
    biggest_sq = np.ones(n + 1, dtype=np.int64)
    for d in range(2, isqrt(n) + 1):
        biggest_sq[d * d :: d * d] = d * d  # ascending d: last write wins
    kern = q.copy()
    kern[1:] //= biggest_sq[1:]
    return kern


def _one_d_shard(t: int, lo: int, hi: int) -> tuple[int, int] | None:
    """Best (size, q) over q in [lo, hi)."""
    if hi <= lo:
        return None
    kern = _kernel_table(hi - 1)[lo:hi]
    q = np.arange(lo, hi, dtype=np.int64)
    radius = np.minimum(t // q, kern - 1)
    i = int(np.argmax(radius))  # first max = smallest q on ties
    return int(2 * radius[i] + 1), int(q[i])


def _one_d_family(t: int, threads: int) -> FamilyBest:
    q_max = t if t <= _ONE_D_EXHAUSTIVE_LIMIT else 4 * isqrt(t) + 4
    shards = []
    step = max(1, (q_max - 1) // threads + 1)
    bounds = [(lo, min(lo + step, q_max + 1)) for lo in range(1, q_max + 1, step)]
    if threads == 1:
        shards = [_one_d_shard(t, lo, hi) for lo, hi in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(lambda b: _one_d_shard(t, *b), bounds))
    best = max(
        ((s, -q) for s, q in shards if s is not None),
        key=lambda x: x,
    )
    size, q = best[0], -best[1]
    radius = (size - 1) // 2
    return FamilyBest("one_d", TwoDAP(q, 1, radius, 0), size)


def _primes_1_mod_4_up_to(n: int) -> list[int]:
    if n < MIN_PRIME:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [p for p in range(MIN_PRIME, n + 1) if sieve[p] and p % 4 == 1]


def _lower_shard(ps: list[int]) -> tuple[int, int, int] | None:
    """Best (size, -p, p) over the given primes."""
    best = None
    for p in ps:
        inst = build_instance(p)
        cand = (inst.size, -p, p)
        if best is None or cand > best:
            best = cand
    return best


def _lower_bound_family(t: int, threads: int) -> FamilyBest | None:
    p_cap = isqrt(t // 2)
    primes = _primes_1_mod_4_up_to(p_cap)
    if not primes:
        return None
    if threads == 1:
        shards = [_lower_shard(primes)]
    else:
        chunks = [primes[i::threads] for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(_lower_shard, chunks))
    size, _, p = max(s for s in shards if s is not None)
    inst = build_instance(p)
    if not residue_certificate(inst).ok:
        raise VerificationFailed(f"residue certificate failed for p = {p}")
    return FamilyBest("lower_bound", inst.progression, inst.size)


def _grow_axis(
    q1: int, q2: int, x1: int, x2: int, axis: int, t: int, budget: list[int]
) -> tuple[int, int]:
    """Largest feasible radius on one axis, by doubling then bisection.

    Radii are capped at t // q so the whole box stays inside [-t, t];
    beyond that, growth adds no values below the ambient bound and the
    size comparison would be meaningless.
    """
    cap = t // (q2 if axis else q1)

    def feasible(r: int) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        box = (x1, r) if axis else (r, x2)
        a = TwoDAP(q1, q2, box[0], box[1])
        return certify_square_free(a, t).kind == "square_free"

    lo = x2 if axis else x1
    hi = lo + 1
    while hi <= cap and feasible(hi):
        lo = hi
        hi = 2 * hi + 1
    ub = min(hi, cap + 1)
    while lo + 1 < ub:
        mid = (lo + ub) // 2
        if feasible(mid):
            lo = mid
        else:
            ub = mid
    return (x1, lo) if axis else (lo, x2)


def _random_local_shard(t: int, seed: int, budget: int) -> tuple[int, int, int, TwoDAP] | None:
    rng = Random(seed)
    remaining = [budget]
    root = isqrt(t)
    best: tuple[int, int, int, TwoDAP] | None = None
    while remaining[0] > 0:
        q1 = rng.randint(2, max(3, 2 * root))
        q2 = rng.randint(2, max(3, 2 * root))
        if math.gcd(q1, q2) != 1:
            continue
        q1, q2 = min(q1, q2), max(q1, q2)
        x1, x2 = 0, 0
        for axis in (0, 1, 0, 1):
            x1, x2 = _grow_axis(q1, q2, x1, x2, axis, t, remaining)
        a = TwoDAP(q1, q2, x1, x2)
        if not is_proper(a):
            continue
        cand = (cardinality(a), -q1, -q2, a)
        if best is None or cand[:3] > best[:3]:
            best = cand
    return best


def _random_local_family(
    t: int, seed: int, budget: int, threads: int
) -> FamilyBest | None:
    if threads == 1:
        shards = [_random_local_shard(t, seed, budget)]
    else:
        per = max(1, budget // threads)
        args = [(t, seed * 1_000_003 + i, per) for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(lambda a: _random_local_shard(*a), args))
    shards = [s for s in shards if s is not None]
    if not shards:
        return None
    best = max(shards, key=lambda s: s[:3])
    return FamilyBest("random_local", best[3], best[0])


def sweep(config: SweepConfig) -> SweepResult:
    """Run the configured families and report the verified best instance."""
    t = config.t
    runners = {
        "one_d": lambda: _one_d_family(t, config.threads),
        "lower_bound": lambda: _lower_bound_family(t, config.threads),
        "random_local": lambda: _random_local_family(
            t, config.seed, config.budget, config.threads
        ),
    }
    names = list(config.families)
    if config.threads > 1 and len(names) > 1:
        with ThreadPoolExecutor(max_workers=len(names)) as pool:
            results = list(pool.map(lambda n: runners[n](), names))
    else:
        results = [runners[n]() for n in names]
    bests = tuple(r for r in results if r is not None)
    if not bests:
        raise DomainError("no family produced a candidate")
    best = max(
        bests,
        key=lambda fb: (fb.size, -fb.progression.q1, -fb.progression.q2),
    )
    # Verification is part of emission: never report an unverified box.
    for fb in bests:
        if not is_proper(fb.progression):
            raise VerificationFailed(f"{fb.family} box is not proper: {fb.progression}")
        if certify_square_free(fb.progression, t).kind != "square_free":
            raise VerificationFailed(f"{fb.family} box holds a square <= {t}: {fb.progression}")
        if cardinality(fb.progression) != fb.size:
            raise VerificationFailed(f"{fb.family} box size is not {fb.size}: {fb.progression}")
    r1 = best.size / t ** (20 / 27)
    r2 = best.size / (math.sqrt(t) * math.log(t))
    return SweepResult(config, bests, best, f"{r1:.6f}", f"{r2:.6f}")
