"""Reducing a box whose steps share a common factor.

When gcd(q1, q2) = d > 1, the values divisible by d^2 form a congruence
sublattice of the coefficient box.  Reducing that lattice (Gauss-style,
under the gauge induced by the box's aspect ratio) produces a derived box
with coprime steps and ambient bound T/d^2, and square-avoidance
transfers.  Coprime steps leave nothing to reduce, so one step is all a
reduction takes.

Every step here is re-verified by an independent checker that replays the
lattice enumeration, the Minkowski window, and the value-preserving
embedding of the derived box back into the original.
"""

from __future__ import annotations

from fractions import Fraction as F

from sqavoid import (
    TwoDAP,
    box_minima,
    brute_force_witness,
    congruence_lattice,
    derived_instance,
    reduce_box,
    verify_reduction,
)

# First, the lattice machinery on its own: coefficient pairs with
# 3*x1 + 1*x2 = 0 (mod 5), reduced under the square gauge.
lat = congruence_lattice(5, 3, 1)
print(f"congruence lattice det 5, row basis {lat.rows}")
(l1_sq, u), (l2_sq, v) = box_minima(lat, F(1))
print(f"successive minima: |{u}|^2 = {l1_sq}, |{v}|^2 = {l2_sq}")
print(f"Minkowski window: d^2/4 = {F(25, 4)} <= {l1_sq * l2_sq} <= {25}\n")

# Now the reduction itself.  A small gcd (here 6) is divided straight out
# of the coefficients; a larger one (here 17) goes through the lattice step,
# with the derived radii set by the reduced basis's successive minima.
for q1, q2, x1b, x2b, t in [(84, 198, 40, 40, 10**8), (34, 51, 30, 30, 10**6)]:
    result = reduce_box(q1, q2, F(x1b), F(x2b), t)
    step, final = result.step, result.final
    print(f"reduce ({q1}, {q2}) radii ({x1b}, {x2b}) under T = {t}:")
    verdict = verify_reduction(step, TwoDAP(q1, q2, x1b, x2b), t)
    print(f"  step: mode {step.mode}, d = {step.d}, "
          f"minima attainers u = {step.u}, v = {step.v}")
    print(f"        derived steps ({final.q1}, {final.q2}), "
          f"radii ({final.x1bound}, {final.x2bound}), T -> {result.final_t}")
    print(f"        independent verifier: "
          f"{'all checks pass' if verdict.ok else verdict.checks}")
    assert verdict.ok
    assert final == derived_instance(step) and result.final_t == t // step.d**2
    print(f"  terminated: {result.termination}; final steps "
          f"({final.q1}, {final.q2}), final T = {result.final_t}\n")

# Square-avoidance transfers: if the original box misses all squares up to
# T, so does the derived box up to its rescaled bound.  (20, 26) with
# radii 3 is square-free under T = 400; its values are all even, so any
# square among them would be 4*m^2 with 2*m^2 landing in the derived box.
a0 = TwoDAP(20, 26, 3, 3)  # gcd 2
t0 = 400
result0 = reduce_box(20, 26, F(3), F(3), t0)
w0 = brute_force_witness(a0, t0)
assert w0 is None
print(f"({a0.q1}, {a0.q2}) radii 3 under T = {t0}: square-free")
final0 = result0.final
floored = TwoDAP(final0.q1, final0.q2, final0.b1, final0.b2)
wd = brute_force_witness(floored, result0.final_t)
print(f"  derived ({floored.q1}, {floored.q2}) radii "
      f"({floored.x1bound}, {floored.x2bound}) under T = {result0.final_t}: "
      f"{'square-free' if wd is None else f'witness {wd}'}")
assert wd is None  # avoidance transfers
