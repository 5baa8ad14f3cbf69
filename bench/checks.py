"""Independent checks of sqavoid's outputs, using the standard library only.

Nothing here imports sqavoid.  Every verdict is recomputed from first
principles (enumeration, trial division, Euler's criterion), so a fault in
the program cannot hide behind the same fault in its check.  Each function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def trial_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def squarefree_part(q: int) -> int:
    """Product of the primes dividing q to an odd power, by trial division."""
    s, f = 1, 2
    while f * f <= q:
        e = 0
        while q % f == 0:
            q //= f
            e += 1
        if e % 2:
            s *= f
        f += 1
    return s * q


def euler(x: int, p: int) -> int:
    """Euler's criterion: 1 for a residue, -1 for a non-residue, 0 if p | x."""
    r = pow(x % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def proper(q1: int, q2: int, b1: int, b2: int) -> bool:
    """No two coefficient pairs in the box give the same value.

    Two pairs collide iff some non-zero (dx1, dx2) with |dx1| <= 2*b1 and
    |dx2| <= 2*b2 solves dx1*q1 + dx2*q2 = 0; every solution is a multiple
    of (q2/g, -q1/g) with g = gcd(q1, q2).
    """
    g = math.gcd(q1, q2)
    return q2 // g > 2 * b1 or q1 // g > 2 * b2


def residue_argument(q1: int, q2: int, b1: int, b2: int) -> list[str]:
    """Problems with the non-residue proof that the box avoids every square.

    With p = q1 prime, p = 1 (mod 4), b1 < p and b2 < p: a value with x2 != 0
    is x2*q2 mod p, a non-zero non-residue when q2 is one and every
    1 <= x2 <= b2 is a residue (-1 is a residue, so the sign does not
    matter); a value x1*p with 0 < |x1| < p is divisible by p once, so it is
    no square either.  The proof holds for every ambient bound T.
    """
    p = q1
    if not trial_prime(p):
        return [f"q1 = {p} is not prime"]
    problems = []
    if p % 4 != 1:
        problems.append(f"p = {p} is not 1 mod 4")
    if not (b1 < p and b2 < p):
        problems.append(f"radii ({b1}, {b2}) not below p = {p}")
    if euler(q2, p) != -1:
        problems.append(f"q2 = {q2} is not a non-residue mod {p}")
    bad = [x for x in range(1, min(b2, p - 1) + 1) if euler(x, p) != 1]
    if bad:
        problems.append(f"x2 = {bad[0]} is not a residue mod {p}")
    return problems


def _short_axis(q1, q2, b1, b2):
    """(q_short, b_short, q_long, b_long, swapped) with the shorter radius first."""
    if b1 <= b2:
        return q1, b1, q2, b2, False
    return q2, b2, q1, b1, True


def hits(q1: int, q2: int, b1: int, b2: int, v: int) -> list[tuple[int, int]]:
    """Every (x1, x2) in the box with x1*q1 + x2*q2 = v, by enumerating the short axis."""
    qs, bs, ql, bl, swapped = _short_axis(q1, q2, b1, b2)
    out = []
    for xs in range(-bs, bs + 1):
        rest = v - xs * qs
        if rest % ql == 0 and abs(rest // ql) <= bl:
            xl = rest // ql
            out.append((xl, xs) if swapped else (xs, xl))
    return out


def first_square(q1: int, q2: int, b1: int, b2: int, t: int) -> int | None:
    """Smallest n >= 1 with n^2 <= t a value of the box, walking the short axis.

    For each short coefficient the long one sweeps an interval of values;
    only the squares inside that interval are tested.
    """
    qs, bs, ql, bl, _ = _short_axis(q1, q2, b1, b2)
    best = None
    for xs in range(-bs, bs + 1):
        base = xs * qs
        lo, hi = max(1, base - bl * ql), min(t, base + bl * ql)
        if best is not None:
            hi = min(hi, (best - 1) ** 2)
        m = math.isqrt(lo - 1) + 1
        while m * m <= hi:
            if (m * m - base) % ql == 0:
                best = m
                break
            m += 1
    return best


# ------------------------------------------------------------------ certify


def check_verify(box: tuple[int, int, Fraction, Fraction, int], code: int, out: str) -> list[str]:
    """Check one `sqavoid verify` call: its exit code, record and verdict."""
    q1, q2, x1bound, x2bound, t = box
    b1, b2 = math.floor(x1bound), math.floor(x2bound)
    lines = out.splitlines()
    if len(lines) != 1:
        return [f"expected one record, got {len(lines)}"]
    rec = json.loads(lines[0])
    problems = []
    kind = rec.get("kind")
    if (kind, code) not in (("Witness", 1), ("SquareFree", 0)):
        return [f"record kind {kind!r} with exit code {code}"]
    echoed = (int(rec["q1"]), int(rec["q2"]), Fraction(rec["x1bound"]), Fraction(rec["x2bound"]), int(rec["t"]))
    if echoed != (q1, q2, x1bound, x2bound, t):
        problems.append(f"record echoes {echoed}, asked {box}")
    if rec.get("brute_force") != "agree":
        problems.append(f"routes: {rec.get('brute_force')!r}")
    if kind == "Witness":
        x1, x2, n = int(rec["x1"]), int(rec["x2"]), int(rec["n"])
        if x1 * q1 + x2 * q2 != n * n:
            problems.append(f"{x1}*{q1} + {x2}*{q2} != {n}^2")
        if abs(x1) > b1 or abs(x2) > b2:
            problems.append(f"({x1}, {x2}) outside radii ({b1}, {b2})")
        if not (n >= 1 and n * n <= t):
            problems.append(f"n = {n} not in 1..sqrt({t})")
        smaller = first_square(q1, q2, b1, b2, min(t, (n - 1) ** 2))
        if smaller is not None:
            problems.append(f"smaller root {smaller} hits the box")
        at_n = hits(q1, q2, b1, b2, n * n)
        if at_n and min(at_n, key=lambda h: (abs(h[0]), h[0] < 0)) != (x1, x2):
            problems.append(f"({x1}, {x2}) is not the canonical pair at n = {n}")
    else:
        n_max = math.isqrt(max(0, min(t, b1 * q1 + b2 * q2)))
        if int(rec["n_max"]) != n_max:
            problems.append(f"n_max {rec['n_max']} != {n_max}")
        problems += residue_argument(q1, q2, b1, b2)
    return problems


# ------------------------------------------------------------------- survey


def balanced_cap(q1: int, q2: int) -> int:
    """Least N with N^16 >= q1^9 * q2^4."""
    target = q1**9 * q2**4
    n = max(1, int(math.exp(math.log(target) / 16)))
    while n**16 < target:
        n += 1
    while n > 1 and (n - 1) ** 16 >= target:
        n -= 1
    return n


def coprime_pairs(q_min: int, q_max: int) -> int:
    """Coprime pairs q_min <= q1 <= q2 <= q_max."""
    return sum(
        1
        for q1 in range(q_min, q_max + 1)
        for q2 in range(q1, q_max + 1)
        if math.gcd(q1, q2) == 1
    )


def check_survey_row(q1: int, q2: int, cap: int, n: int, x1: int, x2: int) -> list[str]:
    problems = []
    if math.gcd(q1, q2) != 1:
        problems.append(f"({q1}, {q2}) not coprime")
    if x1 * q1 + x2 * q2 != n * n:
        problems.append(f"({q1}, {q2}): {x1}*q1 + {x2}*q2 != {n}^2")
    big_n = balanced_cap(q1, q2)
    if cap != big_n:
        problems.append(f"({q1}, {q2}): cap {cap} != least N = {big_n}")
    if not 1 <= n <= big_n:
        problems.append(f"({q1}, {q2}): n = {n} outside 1..{big_n}")
    return problems


def check_survey(q_min: int, q_max: int, rows) -> list[str]:
    """rows: iterable of (q1, q2, cap, n, x1, x2), one per pair reported."""
    problems = []
    seen = 0
    last = None
    for row in rows:
        seen += 1
        q1, q2 = row[0], row[1]
        if not (q_min <= q1 <= q2 <= q_max) or (last is not None and (q1, q2) <= last):
            problems.append(f"pair ({q1}, {q2}) out of band or out of order")
        last = (q1, q2)
        problems += check_survey_row(*row)
        if len(problems) > 20:
            break
    expected = coprime_pairs(q_min, q_max)
    if seen != expected and len(problems) <= 20:
        problems.append(f"{seen} pairs reported, {expected} coprime pairs in the band")
    return problems


# -------------------------------------------------------------------- sweep


def check_family_box(family: str, q1: int, q2: int, b1: int, b2: int, size: int, t: int) -> list[str]:
    """A sweep family's reported box: proper, sized right and square-free up to t."""
    problems = []
    if not proper(q1, q2, b1, b2):
        problems.append(f"{family}: box ({q1}, {q2}, {b1}, {b2}) is not proper")
    if size != (2 * b1 + 1) * (2 * b2 + 1):
        problems.append(f"{family}: size {size} != (2*{b1}+1)*(2*{b2}+1)")
    if family == "one_d":
        if q2 != 1 or b2 != 0:
            problems.append(f"one_d: box ({q1}, {q2}, {b1}, {b2}) is not one-dimensional")
        elif b1 >= squarefree_part(q1):
            problems.append(f"one_d: radius {b1} reaches the kernel {squarefree_part(q1)} of {q1}")
    elif family == "lower_bound":
        problems += [f"lower_bound: {p}" for p in residue_argument(q1, q2, b1, b2)]
    else:
        n = first_square(q1, q2, b1, b2, t)
        if n is not None:
            problems.append(f"{family}: {n}^2 <= {t} is a value of ({q1}, {q2}, {b1}, {b2})")
    return problems


def check_sweep(t: int, bests: list[tuple[str, int, int, int, int, int]], best: tuple) -> list[str]:
    """bests: (family, q1, q2, b1, b2, size) per family; best: the overall pick."""
    problems = []
    families = [fb[0] for fb in bests]
    if len(set(families)) != len(families) or not {"one_d", "lower_bound"} <= set(families):
        problems.append(f"families reported: {families}")
    for fb in bests:
        problems += check_family_box(*fb, t)
    top = max(bests, key=lambda fb: (fb[5], -fb[1], -fb[2]), default=None)
    if tuple(best) != top:
        problems.append(f"best {best} is not the largest of {bests}")
    return problems
