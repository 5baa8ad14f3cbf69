"""Exact arithmetic for two-dimensional progressions that avoid squares.

A progression here is the set {x1*q1 + x2*q2 : |x1| <= X1, |x2| <= X2}.
The package answers, with integer-exact certificates rather than floats:

* does a given box contain a non-zero perfect square below a bound T
  (`find_square_witness`, which takes the cheaper of `walk_roots` and a
  row route, `certify_box`, `certify_square_free`, `brute_force_witness`);
* how to construct a square hit with a small root for coprime steps
  (`construct_small_square`, driven by continued-fraction approximation);
* the piecewise exponent surface governing upper bounds on square-free
  box sizes, and its exact supremum 20/27 (`case_exponent`,
  `exponent_supremum`);
* how a box with gcd(q1, q2) > 1 reduces in one step to a box with
  coprime steps, through congruence lattices and gauge minima
  (`congruence_lattice`, `box_minima`, `reduce_box`, whose result's
  `.step` is that one step, or None when the box stops as it is);
* explicit large square-avoiding boxes from quadratic non-residues
  (`build_instance`, `residue_certificate`);
* an extremal-search sweep tying the families together (`sweep`), also
  exposed as the `sqavoid` command-line tool.
"""

from .arith import (
    BadPrime,
    DomainError,
    FactorizationFailed,
    NotFound,
    NotInvertible,
    TooLarge,
    VerificationFailed,
    factorize,
    is_perfect_square,
    is_prime,
    jacobi,
    least_qnr,
    squarefree_kernel,
)
from .bounds import (
    CaseReport,
    ExponentPoint,
    case_exponent,
    exponent_supremum,
    one_d_bound,
)
from .lattice import (
    Lattice2,
    Reduction,
    ReductionStep,
    ReductionVerdict,
    box_minima,
    congruence_lattice,
    derived_instance,
    divide_out_step,
    enumerate_gauge_ball,
    reduce_box,
    reduce_step,
    verify_reduction,
)
from .lowerbound import (
    LowerBoundInstance,
    NonResidueRecord,
    ResidueCertificate,
    build_instance,
    least_nonresidue_scan,
    residue_certificate,
    size_vs_t,
)
from .progression import (
    Certificate,
    SquareWitness,
    TwoDAP,
    brute_force_witness,
    cardinality,
    certify_box,
    certify_square_free,
    find_square_witness,
    is_proper,
    walk_roots,
)
from .small_squares import (
    SmallSquareTrace,
    SurveyReport,
    balanced_n,
    brute_force_small_square,
    construct_small_square,
    convergent_denominators,
    small_square_survey,
    square_cover_height,
)
from .sweep import FAMILIES, FamilyBest, SweepConfig, SweepResult, sweep

__version__ = "0.1.0"

__all__ = [
    "BadPrime",
    "Certificate",
    "CaseReport",
    "DomainError",
    "ExponentPoint",
    "FAMILIES",
    "FactorizationFailed",
    "FamilyBest",
    "Lattice2",
    "LowerBoundInstance",
    "NonResidueRecord",
    "NotFound",
    "NotInvertible",
    "Reduction",
    "ReductionStep",
    "ReductionVerdict",
    "ResidueCertificate",
    "SmallSquareTrace",
    "SquareWitness",
    "SurveyReport",
    "SweepConfig",
    "SweepResult",
    "TooLarge",
    "TwoDAP",
    "VerificationFailed",
    "balanced_n",
    "box_minima",
    "brute_force_small_square",
    "brute_force_witness",
    "build_instance",
    "cardinality",
    "case_exponent",
    "certify_box",
    "certify_square_free",
    "congruence_lattice",
    "construct_small_square",
    "convergent_denominators",
    "derived_instance",
    "divide_out_step",
    "enumerate_gauge_ball",
    "exponent_supremum",
    "factorize",
    "find_square_witness",
    "is_perfect_square",
    "is_prime",
    "is_proper",
    "jacobi",
    "least_nonresidue_scan",
    "least_qnr",
    "one_d_bound",
    "reduce_box",
    "reduce_step",
    "residue_certificate",
    "size_vs_t",
    "small_square_survey",
    "square_cover_height",
    "squarefree_kernel",
    "sweep",
    "verify_reduction",
    "walk_roots",
]
