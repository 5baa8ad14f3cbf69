"""Constructing a square with provably small coefficients.

For coprime steps q1 < q2 one can always write n^2 = x1*q1 + x2*q2 with n
at most a balanced cap N and coefficients far smaller than brute force would
suggest.  The construction picks a small multiplier b with b*q2 a square
c^2 mod q1, inverts c to c_bar, and takes n from the continued-fraction
convergents of c_bar/q1, so that n*c_bar lies within q1/N of a multiple of
q1.  Then x2 = b*d^2 with |d| <= q1/N, so |x2| <= |b|*(q1/N)^2, which at the
balanced cap N ~ q1^(9/16)*q2^(1/4) is about |b|*q1^(7/8)/q2^(1/2).

This demo walks one construction in detail, then surveys a whole range.
"""

from __future__ import annotations

from sqavoid import (
    balanced_n,
    brute_force_small_square,
    construct_small_square,
    convergent_denominators,
    least_qnr,
    small_square_survey,
    square_cover_height,
)
from sqavoid.small_squares import RATIO_CEILING

q1, q2 = 120, 1963
n_cap = balanced_n(q1, q2)
print(f"steps q1 = {q1}, q2 = {q2}; balanced root cap = {n_cap}")

trace = construct_small_square(q1, q2, n_cap)
w = trace.witness
print(f"\nchosen multiplier b = {trace.b} (b*q2 is a residue mod q1)")
print(f"root of b*q2 mod q1: c = {trace.c}; its inverse mod q1: c_bar = {trace.c_bar}")
print(f"convergent denominators of {trace.c_bar}/{q1}: "
      f"{convergent_denominators(trace.c_bar, q1)}")
print(f"root n = {trace.n}, recentering shift m = {trace.m}")
print(f"displacement d = n*c_bar + m*q1 = {trace.approx_d}")
print(f"result: ({w.x1})*{q1} + ({w.x2})*{q2} = {trace.n}^2 = {trace.n ** 2}")
print(f"|x2| = {abs(w.x2)} <= |b|*(q1/N)^2 = {abs(trace.b) * q1**2 / n_cap**2:.2f}")

# Independent route: smallest-coefficient square by exhaustive search.
best = brute_force_small_square(q1, q2, n_cap)
print(f"exhaustive smallest-|x2| witness: {best}")
print(f"construction used |x2| = {abs(w.x2)}, exhaustive best |x2| = {abs(best.x2)}")

# The cover height H(k) is the least h such that every unit mod k is y*z^2
# with |y| <= h.  It bounds |b|: the scan for b stops by |b| = H(q1).
print(f"\ncover height H({q1}) = {square_cover_height(q1)} >= |b| = {abs(trace.b)}")
# For a prime p = 1 (mod 4), -1 is a square, so H(p) is the least
# quadratic non-residue n(p), the quantity the lower bounds rest on.
for p in (13, 73, 193, 1201, 2521):
    h, n = square_cover_height(p), least_qnr(p)
    assert h == n
    print(f"cover height H({p}) = {h} = n({p})")
# One factorization and a scan up to H: a modulus with many prime factors
# is as quick as any other.
h = square_cover_height(157080)
assert h == 1511
print(f"cover height H(157080 = 8*3*5*7*11*17) = {h}")

# Survey every coprime pair 2 <= q1 <= q2 <= 300: each construction is
# verified and its coefficient ratios compared to the theoretical ceilings.
report = small_square_survey(300)
print(f"\nsurvey up to 300: {report.pairs} coprime pairs, all verified: {report.all_ok}")
print(f"  max |x1| ratio {report.max_ratio_x1:.3f} at {report.argmax_x1}")
print(f"  max |x2| ratio {report.max_ratio_x2:.3f} at {report.argmax_x2}")

# |x2|*N^2 <= |b|*q1^2 and |b| <= H(q1), so a row with H(q1)/q1^(1/4) below
# the ceiling keeps every |x2| ratio below it by proof, not only by count.
heights = {q1: square_cover_height(q1) for q1 in range(2, 301)}
proven = sum(h**4 < RATIO_CEILING**4 * q1 for q1, h in heights.items())
assert proven == len(heights) == 299
top = max(heights, key=lambda q1: heights[q1] / q1**0.25)
print(f"  proven x2 ceiling H(q1)/q1^(1/4): max {heights[top] / top**0.25:.2f} "
      f"at q1 = {top} (H = {heights[top]}); {proven} of {len(heights)} rows "
      f"below {RATIO_CEILING}")
k = 157080
print(f"  at q1 = {k}: H/q1^(1/4) = {square_cover_height(k) / k**0.25:.1f} > {RATIO_CEILING}, "
      f"so there the x2 envelope is only measured")
