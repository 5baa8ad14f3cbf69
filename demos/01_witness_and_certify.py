"""Finding squares in a box of two-step combinations, or proving there are none.

The basic object is the set {x1*q1 + x2*q2} with |x1| <= X1, |x2| <= X2.
We ask: does it contain a non-zero perfect square at most T?  The answer is
decided twice, by structurally different routes, and the routes must agree.
"""

from __future__ import annotations

from sqavoid import (
    TwoDAP,
    brute_force_witness,
    cardinality,
    certify_square_free,
    find_square_witness,
    is_proper,
)

# A small box around steps 3 and 5.  Radii 2 means x1, x2 range over -2..2.
a = TwoDAP(3, 5, 2, 2)
print(f"box: steps ({a.q1}, {a.q2}), radii ({a.x1bound}, {a.x2bound})")
print(f"distinct-values check (properness): {is_proper(a)}")
print(f"coefficient pairs: {cardinality(a)}")

# Route 1: modular solve, per root or per row, whichever has fewer steps.
# Route 2: enumerate every pair.
t = 25
w = find_square_witness(a, t)
bw = brute_force_witness(a, t)
print(f"\nsearch up to T = {t}")
print(f"  modular route:     {w}")
print(f"  brute-force route: {bw}")
assert w == bw
print(f"  check: ({w.x1})*{a.q1} + ({w.x2})*{a.q2} = {w.x1 * a.q1 + w.x2 * a.q2} = {w.n}^2")

# Shrink the box until the square escapes, then certify the absence.
b = TwoDAP(3, 5, 0, 1)  # only x1 = 0, x2 in -1..1: values -5, 0, 5
assert find_square_witness(b, 100) is None
cert = certify_square_free(b, 100)
print(f"\nshrunken box values: {sorted(x2 * b.q2 for x2 in range(-1, 2))}")
print(f"certified square-free up to 100 (all roots 1..{cert.n_max} excluded)")

# The same decision, scaled: steps near 10^9 are still exact.
big = TwoDAP(10**9 + 7, 10**9 + 9, 3, 3)
w = find_square_witness(big, (6 * 10**9 + 48) ** 2)
print(f"\nbillion-scale steps: witness {w}")
print(f"  ({w.x1})*(10^9+7) + ({w.x2})*(10^9+9) = {w.n}^2 = {w.n**2}")
