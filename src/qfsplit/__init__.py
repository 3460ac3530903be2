"""qfsplit: quasi-F-split heights of hypersurfaces and complete intersections
over prime fields, via Fedder-type coefficient and chain criteria."""

from .rings import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    Grading,
    HomogeneityError,
    ParseError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    RingError,
    check_homogeneous,
    parse_polynomial,
    serialize_polynomial,
)
from .witt import delta1
from .frobenius import (
    in_max_ideal_frobenius_power,
    iterated_u,
    theta,
    u_map,
)
from .groebner import (
    Budget,
    BudgetExceededError,
    FreeModuleVector,
    Ideal,
    buchberger,
    colon_ideal,
    frobenius_module_intersect_keru,
    ideal_equal,
    ideal_membership,
    module_buchberger,
    normal_form,
)
from .criteria import (
    Certificate,
    ChainStep,
    HeightResult,
    enclosure_closure,
    fedder_fsplit,
    height,
    height_graded_cy,
    height_local,
    non_qfs_quick,
    product_witness,
    qfs_decide,
    result_to_json,
    verify_certificate,
    verify_infinity_certificate,
    verify_witness_chain,
)
from .strata import (
    FamilyContext,
    StrataPolynomials,
    degree_monomials,
    delta1_tilde,
    is_smooth_at_rational_points,
    search_height,
    strata_polynomials,
)

__version__ = "0.1.0"
