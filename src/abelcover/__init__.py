"""Local classification of normal finite abelian covers at a branch point.

The input is the combinatorial data of the cover at the point: the ambient
group G and, for each branch component through the point, a cyclic subgroup
with a generating character of its dual.  From that data alone the package
decides whether the points upstairs are locally simple, Gorenstein (with an
explicit lifted-character certificate), a local complete intersection, or
smooth, and constructs the Artinian fiber algebra behind those verdicts.
"""

from .groups import (
    AbelianGroup,
    Character,
    DEFAULT_ENUMERATION_LIMIT,
    Element,
    LimitExceeded,
    smith_normal_form,
    solve_character_congruences,
)
from .cover import (
    BranchDatum,
    CombinatorialData,
    InvalidCoverData,
    KernelDescription,
    SumMapPresentation,
    ValidationIssue,
    kernel_K,
    ramification_factorization,
    restrict,
    sum_map,
    validate,
)
from .fiber import (
    DEFAULT_FIBER_ORDER_LIMIT,
    FiberRing,
    HilbertNumerator,
    build_fiber_ring,
    hilbert_numerator,
    invariant_monomials_up_to_degree,
    socle_basis,
)
from .classify import (
    ClassificationReport,
    GorensteinChecks,
    LCI,
    NOT_LCI,
    NOT_SMOOTH,
    SMOOTH_CONDITIONAL,
    UNKNOWN,
    classify,
    gorenstein_lift,
    gorenstein_watanabe,
    lci_classify,
)

__version__ = "0.1.0"
