"""Certification toolkit for the linear independence of p-norm curves.

Vectors that differ only by zero coordinates, permutation, negation, or
positive rescaling have proportional norm curves p -> ||v||_p; across
equivalence classes the curves are linearly independent.  This package
realizes the complex-analytic machinery behind that fact (exponential
sums, argument-principle zero finding, branch-tracked continuation and
monodromy, Hadamard-style ratio recovery) and certifies the independence
numerically via sampled rank and null-space analysis.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryProximityError,
    ClearanceError,
    ContinuationError,
    InvalidInputError,
    MonodromyMismatchError,
    QuadratureError,
    SingularEvaluationError,
)
from .vectors import (
    CanonicalForm,
    EquivalencePartition,
    RealVector,
    canonicalize,
    equivalent,
    partition,
    trivial_null_basis,
)
from .exppoly import (
    ExpPoly,
    RatioFit,
    Rectangle,
    Zero,
    ZeroSet,
    count_zeros,
    evaluate,
    evaluate_log,
    find_zeros,
    from_vector,
    ratio_factor,
    zero_multiset_equal,
)
from .continuation import (
    BranchState,
    Path,
    build_loop_path,
    continue_log,
    loop_monodromies,
    loop_monodromy,
    pnorm_at,
    pnorm_value,
)
from .dependence import (
    DependenceReport,
    NormMatrix,
    SampleGrid,
    analyze,
    build_matrix,
    make_grid,
    numeric_rank,
)
