"""Extremal-search sweep: how large can a square-avoiding box get below T?

Three candidate families are searched, one after another, each
deterministic given the configuration:

* ``one_d``      - the best single step q: the radius is pinned exactly by
                   min(T // q, kernel(q) - 1), so this family realizes the
                   classical sqrt(T)-scale floor.  A short walk out from
                   q = isqrt(T) finds the best q among all q >= 1.
* ``lower_bound``- the non-residue construction over every prime
                   p = 1 (mod 4) whose box lies in [-T, T]; that value
                   bound sits below 2*p^2, where its certificate holds.
                   Boxes are compared in closed form, n(p) from
                   `least_nonresidues`; only the winner is built and certified.
* ``random_local``- seeded random coprime pairs q1 < q2 up to 2*sqrt(T):
                   X1 = one_d_bound(q1, T), exact while X2 = 0, then
                   X2 = max_radius(q2, q1, factors of q1, X1, T) in the
                   room X1 leaves, with q1 factored once for both.
                   X1 leaves room for X2 >= 1 exactly when
                   q1*(kernel(q1) - 1) <= T - q2; otherwise (as when
                   q1*(kernel(q1) - 1) >= T and X1 = T // q1 takes all the
                   room) the box is one-dimensional and never beats
                   ``one_d``.  The budget counts the coprime pairs drawn.
                   A pair is walked only if X2 = room, the most the walk
                   can return, would beat the best so far; the walk takes
                   min(X2 + 1, X1, room) steps past the centre, and then
                   X1's 2*X1 + 1 rows, with q2 factored, only when it
                   outlasts X1 < room.  Most rows solve no modular square
                   root (see `max_radius`).  Pairs are ranked on plain
                   integers; one is built as a box, and checked for
                   properness, only if it would beat the best so far.

Within a family ties go to the lexicographically smallest steps; the
overall best is the largest box, ties to the smallest (q1, q2).  Every
emitted best instance is re-certified, properness-checked and checked to
lie in [-T, T] at emission time; the sweep refuses to report anything it
cannot verify.  Each family is re-certified by the cheapest route that
shares no kernel with its search, as the runner table in `sweep` names:

* ``one_d`` and ``lower_bound`` find their boxes in closed form, from the
  squarefree kernel and from `jacobi`, so `certify_box` checks them (by
  the row route at sweep sizes: one row for ``one_d``, 2n - 1 for
  ``lower_bound``);
* ``random_local`` searches by rows (`max_radius`'s `is_square_mod`,
  `sqrt_classes` and `_least_root`), so its box takes the root walk of
  `certify_square_free`, which shares none of them.
"""

from __future__ import annotations

import math
from random import Random

from .arith import PRIME_SIEVE_LIMIT, DomainError, VerificationFailed, _kernel_of, factorize, isqrt
from .bounds import one_d_bound
from .formats import Record
from .lowerbound import build_instance, least_nonresidues, residue_certificate
from .progression import TwoDAP, cardinality, certify_box, certify_square_free, is_proper, max_radius

FAMILIES = ("one_d", "lower_bound", "random_local")
# Most random_local pairs one sweep may take: about 40 s at T = 10^7.
MAX_BUDGET = 1_000_000


class SweepConfig(Record):
    t: int
    families: tuple[str, ...] = FAMILIES
    budget: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.t < 100:
            raise DomainError(f"sweep needs T >= 100, got {self.t}")
        # lower_bound sieves up to isqrt(T); walks need isqrt(T) <= ROOT_WALK_LIMIT.
        if self.t > PRIME_SIEVE_LIMIT**2:
            raise DomainError(f"sweep needs T <= 10^16, got {self.t}")
        if not 1 <= self.budget <= MAX_BUDGET:
            raise DomainError(f"budget must be in 1..{MAX_BUDGET}, got {self.budget}")
        if not self.families:
            raise DomainError(f"families must name at least one of {', '.join(FAMILIES)}")
        bad = [f for f in self.families if f not in FAMILIES]
        if bad:
            raise DomainError(f"unknown families: {bad}")
        object.__setattr__(self, "families", tuple(sorted(set(self.families))))


class FamilyBest(Record):
    family: str
    progression: TwoDAP
    size: int


class SweepResult(Record):
    config: SweepConfig
    family_bests: tuple[FamilyBest, ...]
    best: FamilyBest
    ratio_to_t_20_27: float  # size / T^(20/27), display only
    ratio_to_sqrt_t_log_t: float  # size / (sqrt(T) * log T), display only


def _one_d_family(t: int) -> FamilyBest:
    """The step q >= 1 of largest radius one_d_bound(q, t), ties to the smallest q.

    Since kernel(q) <= q, the radius is at most u(q) = min(t // q, q - 1).
    With s = isqrt(t): for q <= s, t // q >= s >= q, so u(q) = q - 1, which
    rises with q; for q > s, t // q <= t // (s + 1) <= s <= q - 1 (as
    t < (s + 1)^2), so u(q) = t // q, which never rises.  Walking down from
    s, once q - 1 falls below the best radius no smaller q can reach it;
    walking up from s + 1, once t // q falls to the best radius no larger q
    can beat it, and a tie would lose to the smaller q already seen.  Near
    s some q is squarefree and reaches about s - 1, so both walks are short.
    """
    s = isqrt(t)
    best_r, best_q = -1, 0
    q = s
    while q >= 1 and q - 1 >= best_r:
        r = one_d_bound(q, t)
        if r >= best_r:  # walking down: a tie moves to the smaller q
            best_r, best_q = r, q
        q -= 1
    q = s + 1
    while t // q > best_r:
        r = one_d_bound(q, t)
        if r > best_r:
            best_r, best_q = r, q
        q += 1
    return FamilyBest("one_d", TwoDAP(best_q, 1, best_r, 0), 2 * best_r + 1)


def _lower_bound_family(t: int) -> FamilyBest | None:
    """The largest non-residue box in [-t, t], ties to the smaller p.

    Each box (p, p + n, p - 1, n - 1), with n = n(p) from
    `least_nonresidues`, is judged by its closed-form size and value bound;
    only the winner is built, checked against them and certified.
    """
    best = None  # (size, value bound, p)
    for p, n in least_nonresidues(isqrt(t)):
        size, bound = (2 * p - 1) * (2 * n - 1), (p - 1) * p + (n - 1) * (p + n)
        if bound <= t and (best is None or size > best[0]):  # ties to the smaller p
            best = (size, bound, p)
    if best is None:
        return None
    size, bound, p = best
    inst = build_instance(p)
    a = inst.progression
    if inst.size != size or a.value_bound() != bound:
        raise VerificationFailed(f"the box for p = {p} is not the closed form's: {a}")
    if not residue_certificate(inst).ok:
        raise VerificationFailed(f"residue certificate failed for p = {p}")
    return FamilyBest("lower_bound", a, size)


def _random_local_family(t: int, seed: int, budget: int) -> FamilyBest | None:
    rng = Random(seed)
    root = isqrt(t)
    best: tuple[int, int, int, TwoDAP] | None = None  # (size, -q1, -q2, box)
    pairs = 0
    while pairs < budget:
        q1 = rng.randint(2, max(3, 2 * root))
        q2 = rng.randint(2, max(3, 2 * root))
        if math.gcd(q1, q2) != 1:
            continue
        pairs += 1
        q1, q2 = min(q1, q2), max(q1, q2)
        f1 = factorize(q1)  # once: for X1 and as max_radius's other step
        x1 = min(t // q1, _kernel_of(f1) - 1)  # one_d_bound(q1, t)
        # X2 is at most the room X1 leaves: skip the walk if even that loses.
        # Up to T = 10^16 a walk cannot raise, so a skip hides no refusal.
        room = (t - x1 * q1) // q2
        if best is not None and ((2 * x1 + 1) * (2 * room + 1), -q1, -q2) <= best[:3]:
            continue
        x2 = max_radius(q2, q1, f1, x1, t)
        rank = ((2 * x1 + 1) * (2 * x2 + 1), -q1, -q2)
        # Only a pair that would win is built and checked for properness.
        if best is None or rank > best[:3]:
            a = TwoDAP(q1, q2, x1, x2)
            if is_proper(a):
                best = (*rank, a)
    if best is None:
        return None
    return FamilyBest("random_local", best[3], best[0])


def sweep(config: SweepConfig) -> SweepResult:
    """Run the configured families and report the verified best instance."""
    t = config.t
    # Each family's search, and the re-certification that shares no kernel with it.
    runners = {
        "one_d": (lambda: _one_d_family(t), certify_box),
        "lower_bound": (lambda: _lower_bound_family(t), certify_box),
        "random_local": (
            lambda: _random_local_family(t, config.seed, config.budget),
            certify_square_free,
        ),
    }
    results = [runners[n][0]() for n in config.families]
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
        if runners[fb.family][1](fb.progression, t).kind != "square_free":
            raise VerificationFailed(f"{fb.family} box holds a square <= {t}: {fb.progression}")
        if cardinality(fb.progression) != fb.size:
            raise VerificationFailed(f"{fb.family} box size is not {fb.size}: {fb.progression}")
        if fb.progression.value_bound() > t:
            raise VerificationFailed(f"{fb.family} box leaves [-{t}, {t}]: {fb.progression}")
    r1 = best.size / t ** (20 / 27)
    r2 = best.size / (math.sqrt(t) * math.log(t))
    return SweepResult(config, bests, best, r1, r2)
