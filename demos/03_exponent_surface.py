"""The piecewise exponent surface and its supremum.

Write the two steps as q1 ~ T^a and q2 ~ T^b with 0 <= a <= b <= 1.  The
size of a proper square-avoiding box is O(T^(e(a,b) + eps)) where e(a,b)
is a piecewise-linear function assembled from several regimes.  Its
supremum over the whole triangle is exactly 20/27, attained on a plateau
whose extreme corner is (a, b) = (16/27, 2/3); restricting to b <= 4/7
caps the first regime's contribution at exactly 5/7.

Everything here is exact rational arithmetic; floats appear only in the
ASCII rendering at the end.
"""

from __future__ import annotations

from fractions import Fraction as F

from sqavoid import ExponentPoint, case_exponent, exponent_supremum

# A few individual points, with the regime that decides each.
for a, b in [(F(1, 10), F(1, 5)), (F(1, 2), F(1, 2)), (F(16, 27), F(2, 3)), (F(4, 5), F(9, 10))]:
    rep = case_exponent(ExponentPoint(a, b))
    print(f"e({a}, {b}) = {rep.exponent}   [{rep.case_label}]")

# Supremum over a fine grid plus every vertex of the regime boundaries.
sup, points = exponent_supremum(108)
corner = max(points, key=lambda p: (p.b, p.a))
print(f"\nsupremum over the triangle: {sup} "
      f"({len(points)} grid points attain it; extreme corner ({corner.a}, {corner.b}))")

sup_r, _ = exponent_supremum(108, b_max=F(4, 7), component="case1")
print(f"restricted to b <= 4/7, first-regime component: {sup_r}")

# Coarse ASCII rendering of the surface (row = b descending, col = a).
n = 24
# grid[j][i] is e(i/n, j/n), or None outside the triangle (a > b).
grid = [
    [float(case_exponent(ExponentPoint(F(i, n), F(j, n))).exponent) if i <= j else None
     for i in range(n + 1)]
    for j in range(n + 1)
]
shades = " .:-=+*#%@"
values = [v for row in grid for v in row if v is not None]
lo, hi = min(values), max(values)
print(f"\nsurface, {lo:.3f} (' ') to {hi:.3f} ('@'), a rightward, b upward:")
for j in range(n, -1, -1):
    row = "".join(
        " " if v is None else shades[int((v - lo) / (hi - lo) * (len(shades) - 1))]
        for v in grid[j]
    )
    print("  |" + row)
print("  +" + "-" * (n + 1))
