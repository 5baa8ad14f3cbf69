"""Large square-avoiding boxes: an explicit family, and a search harness.

For a prime p = 1 (mod 4) the box with steps (p, p + n) — n the least
non-residue mod p — and radii (p - 1, n - 1) avoids every non-zero square
up to 2*p^2.  A four-step residue certificate proves it without any
enumeration, and an independent brute-force pass confirms it.  The box's
size beats sqrt(T), which is why these instances anchor the lower-bound
side of the size question.

The sweep harness pits that family against the best one-dimensional
progression and seeded random step pairs, whose radii grow by exact root
walks inside [-T, T], re-verifying everything it reports.
"""

from __future__ import annotations

import math

from sqavoid import (
    SweepConfig,
    brute_force_witness,
    build_instance,
    cardinality,
    least_nonresidue_scan,
    residue_certificate,
    size_vs_t,
    sweep,
)

inst = build_instance(13)
print(f"p = 13: steps ({inst.p}, {inst.q}), radii ({inst.x1bound}, {inst.x2bound}), "
      f"T = {inst.t}, size = {inst.size}")
for name, passed, detail in residue_certificate(inst).steps:
    print(f"  [{'ok' if passed else 'FAIL'}] {name}: {detail}")
assert brute_force_witness(inst.progression, inst.t) is None
print(f"  brute force agrees: no square up to {inst.t}")
print(f"  size / (sqrt(T) * n) = {size_vs_t(inst)} "
      f"(~{float(size_vs_t(inst)):.3f}, always >= 1)")

# The family's strength at each p tracks the least non-residue n(p).
print("\nrecord-setting least non-residues up to 10^4:")
for r in least_nonresidue_scan(10**4):
    if r.is_record:
        print(f"  n({r.p}) = {r.nqr}   n/sqrt(p) = {r.root_ratio:.4f}, "
              f"Burgess ratio = {r.burgess_ratio:.4f}")

# Sweep three families under the same ambient bound and compare.
t = 2 * 997**2
result = sweep(SweepConfig(t=t, families=("one_d", "lower_bound", "random_local"),
                           budget=60, seed=7))
print(f"\nsweep under T = {t}:")
for fb in result.family_bests:
    a = fb.progression
    print(f"  {fb.family:>12}: size {fb.size:>6} at steps ({a.q1}, {a.q2}), "
          f"radii ({a.x1bound}, {a.x2bound})")
best = result.best
print(f"overall best: {best.family} with {best.size} pairs "
      f"(= {cardinality(best.progression)} re-counted)")
print(f"  size / T^(20/27)      = {result.ratio_to_t_20_27:.6f}")
print(f"  size / (sqrt(T) ln T) = {result.ratio_to_sqrt_t_log_t:.6f}")
print(f"  for scale: sqrt(T) = {math.isqrt(t)}")
