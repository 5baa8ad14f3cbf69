"""Exponent calculus for the size of square-avoiding progressions.

Write q1 = T^a and q2 = T^b with 0 <= a <= b <= 1.  For each exponent
point (a, b) the product X1*X2 of admissible radii is bounded by T^e for
a piecewise-linear exponent e(a, b) assembled from five elementary
mechanisms:

* interval-cap        X_i <= T / q_i (the set lives in [-T, T]);
* one-dim-square      a one-dimensional progression avoiding squares
                      has radius below sqrt(T) (see `one_d_bound`);
* small-side-cutoff   X1 <= sqrt(q2) or X2 <= sqrt(q2), else the
                      constructive representation lands in the box;
* rep-window          the constructive small-square family, optimized
                      over the admissible window of size caps N;
* tuned-rep-product   the same family at the balanced cap
                      N ~ q1^(9/16) * q2^(1/4).

The two top-level cases condition on which side the cutoff kills; the
final exponent is the max of the two case bounds, with global supremum
exactly 20/27 attained at (a, b) = (16/27, 2/3).  All values are exact
`fractions.Fraction`s.  On each region cut out by the boundary lines both
case bounds are linear, so their max is convex there; it also creases
along lines that are not boundary lines (1B = 2A2 along a + b/2 = 1).  A
convex function on a polygon peaks at a vertex, so the suprema are
certified by evaluating on a grid together with every pairwise
intersection of the boundary lines, which covers all vertices of the
regions.  `exponent_surface` walks that set once; `exponent_supremum` and
`sqavoid exponent` reduce the walk.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, combinations

from .arith import DomainError, squarefree_kernel
from .formats import Record

F = Fraction

# Finest grid `exponent_surface` takes.  `sqavoid exponent` ran 38 s (344 MiB
# peak) at grid 1000 on a 2-vCPU VM; the cost grows a little faster than grid^2.
MAX_GRID = 1000

COMPONENTS = ("overall", "case1", "case2")  # the bounds `CaseReport.component` selects


def one_d_bound(q: int, t: int) -> int:
    """Largest radius B such that {x*q : 1 <= x <= B} avoids squares in [1, t].

    The first square multiple of q is s(q)*q where s(q) is the squarefree
    kernel, so B = min(floor(t/q), s(q) - 1).
    """
    if q < 1:
        raise DomainError(f"step must be positive, got {q}")
    if t < 0:
        raise DomainError(f"ambient bound must be non-negative, got {t}")
    return min(t // q, squarefree_kernel(q) - 1)


class ExponentPoint(Record):
    """Normalized step sizes (a, b) = (log_T q1, log_T q2), 0 <= a <= b <= 1."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", F(self.a))
        object.__setattr__(self, "b", F(self.b))
        if not (0 <= self.a <= self.b <= 1):
            raise DomainError(f"need 0 <= a <= b <= 1, got ({self.a}, {self.b})")

    def on_grid(self, resolution: int) -> bool:
        """Whether a*resolution and b*resolution are both integers."""
        return (self.a * resolution).denominator == 1 == (self.b * resolution).denominator


class CaseReport(Record):
    """Exponent bound at one point, with both case values and their labels."""

    point: ExponentPoint
    case1: Fraction
    case1_label: str
    case2: Fraction
    case2_label: str
    exponent: Fraction
    case_label: str
    constituents: tuple[str, ...]

    def component(self, name: str) -> tuple[Fraction, str]:
        """(value, label) of the bound `name`, one of COMPONENTS."""
        return {
            "overall": (self.exponent, self.case_label),
            "case1": (self.case1, self.case1_label),
            "case2": (self.case2, self.case2_label),
        }[name]


_CONSTITUENTS = {
    "1A": ("small-side-cutoff", "rep-window-swapped", "interval-cap"),
    "1B": ("small-side-cutoff", "interval-cap"),
    "2A1": ("small-side-cutoff", "tuned-rep-product"),
    "2A2": ("interval-cap", "interval-cap"),
    "2B1": ("small-side-cutoff", "rep-window", "interval-cap"),
    "2B2": ("small-side-cutoff", "interval-cap"),
}


# Boundary lines of the linearity regions, as A*a + B*b = C.  The three
# switches of `case_exponent` read their thresholds C from here by name.
_BOUNDARY_LINES: dict[str, tuple[Fraction, Fraction, Fraction]] = {
    "case-1 cutoff switch": (F(0), F(1), F(4, 7)),
    "case-2 cutoff switch": (F(0), F(1), F(2, 3)),
    "tuned-product crossover at b = 2/3": (F(1), F(0), F(16, 27)),
    "window-compatibility boundary": (F(1), F(2), F(52, 27)),
    "tuned product = double interval-cap": (F(9), F(4), F(8)),
    "simplex edge a = b": (F(1), F(-1), F(0)),
    "simplex edge a = 0": (F(1), F(0), F(0)),
    "simplex edge b = 1": (F(0), F(1), F(1)),
}


def case_exponent(point: ExponentPoint) -> CaseReport:
    """Piecewise-linear exponent bound at (a, b); all arithmetic exact.

    Case 1 assumes the cutoff bounds X1; Case 2 assumes it bounds X2; the
    worst case (max) governs.  Ties inside the Case-2 min go to the tuned
    product ("2A1"); ties between the cases go to Case 1.
    """
    a, b = point.a, point.b
    # Case 1: X1 below the cutoff.
    if b <= _BOUNDARY_LINES["case-1 cutoff switch"][2]:
        case1, lab1 = F(5, 7), "1A"
    else:
        case1, lab1 = 1 - b / 2, "1B"
    # Case 2: X2 below the cutoff.
    if b >= _BOUNDARY_LINES["case-2 cutoff switch"][2]:
        t1 = 1 + a / 8 - b / 2
        t2 = 2 - a - b
        if t1 <= t2:
            case2, lab2 = t1, "2A1"
        else:
            case2, lab2 = t2, "2A2"
    elif a + 2 * b <= _BOUNDARY_LINES["window-compatibility boundary"][2]:
        case2, lab2 = F(20, 27), "2B1"
    else:
        case2, lab2 = 1 - a + b / 2, "2B2"
    if case2 > case1:
        exponent, label = case2, lab2
    else:
        exponent, label = case1, lab1
    return CaseReport(
        point, case1, lab1, case2, lab2, exponent, label, _CONSTITUENTS[label]
    )


def _boundary_vertices() -> set[ExponentPoint]:
    pts = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(_BOUNDARY_LINES.values(), 2):
        det = a1 * b2 - a2 * b1
        if det != 0:
            a, b = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
            if 0 <= a <= b <= 1:
                pts.add(ExponentPoint(a, b))
    return pts


def _surface_points(r: int) -> Iterator[ExponentPoint]:
    """The grid {(i/r, j/r) : i <= j} by (a, b), then the boundary vertices off it."""
    grid = (ExponentPoint(F(i, r), F(j, r)) for i in range(r + 1) for j in range(i, r + 1))
    return chain(grid, (v for v in _boundary_vertices() if not v.on_grid(r)))


def exponent_surface(
    resolution: int, *, b_max: Fraction | None = None, component: str = "overall"
) -> Iterator[tuple[ExponentPoint, Fraction, str]]:
    """(point, value, label) of `CaseReport.component` at each point with
    b <= b_max: the grid {(i/r, j/r)} by (a, b), then the boundary vertices.
    `resolution` runs 1..MAX_GRID.  The arguments are checked on the call;
    the points are then made and evaluated lazily, each once."""
    if resolution < 1:
        raise DomainError(f"resolution must be positive, got {resolution}")
    if resolution > MAX_GRID:
        raise DomainError(f"resolution must be at most {MAX_GRID}, got {resolution}")
    if component not in COMPONENTS:
        raise DomainError(f"unknown component {component!r}")
    if b_max is not None and b_max < 0:  # every point has b >= 0
        raise DomainError(f"b_max = {b_max} leaves no point of the simplex")
    return (
        (p, *case_exponent(p).component(component))
        for p in _surface_points(resolution)
        if b_max is None or p.b <= b_max
    )


def surface_supremum(
    surface: Iterable[tuple[ExponentPoint, Fraction, str]],
) -> tuple[Fraction, list[ExponentPoint]]:
    """Largest value of an `exponent_surface` walk and its attaining points, in
    walk order.  No walk is empty: (0, 0) passes every b_max filter."""
    best, attaining = None, []
    for p, val, _ in surface:
        if best is None or val > best:
            best, attaining = val, [p]
        elif val == best:
            attaining.append(p)
    return best, attaining


def exponent_supremum(
    resolution: int, *, b_max: Fraction | None = None, component: str = "overall"
) -> tuple[Fraction, list[ExponentPoint]]:
    """Exact supremum of the exponent over the simplex 0 <= a <= b <= 1, and
    the points attaining it, sorted by (a, b), from one `exponent_surface`
    walk (its arguments and `DomainError`s).  Each case bound is linear on
    each region cut out by the boundary lines, and "overall", their max, is
    convex there, though it creases inside a region (1B = 2A2 along
    a + b/2 = 1).  A convex function on a polygon peaks at a vertex, and
    the regions' vertices are the boundary lines' intersections, so the
    grid and those vertices, each evaluated once, give the supremum over
    the simplex.  A vertex takes the value of the one piece whose
    inequalities it meets, so a neighbouring piece with a strict edge there
    counts only if it reaches its peak at a vertex it contains.
    """
    sup, points = surface_supremum(exponent_surface(resolution, b_max=b_max, component=component))
    return sup, sorted(points, key=lambda p: (p.a, p.b))
