"""Certificates for threshold and volume invariants of polynomial
ideals in prime characteristic: splitting polytopes, base-p digit
arithmetic, exact rational linear programming, and brute-force
Frobenius oracles."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .basep import (
    INFINITY,
    CarryHorizon,
    DigitStream,
    adds_without_carrying,
    carry_horizon,
    digit_at,
    digits,
    in_P_rho_0,
    in_P_rho_inf,
    is_prime,
    multinomial_nonzero_mod_p,
    truncation,
)
from .budgets import Budgets, Meter
from .errors import (
    BudgetExceeded,
    DenominatorDivisibleByP,
    DimensionTooLarge,
    EmptyBlock,
    FptcertError,
    HypothesisError,
    InputError,
    NonUniqueMaximalPoint,
    NotDiagonal,
    NotInMaximalIdeal,
    ParseError,
    RingMismatch,
)
from .fvolume import (
    FVolumeCertificate,
    fvolume_count,
    fvolume_estimate,
    fvolume_lower_bound,
    fvolume_points,
    term_ideal_volume_bound,
    volume_witness_floor,
)
from .geometry import (
    ExponentMatrix,
    MaximalPointCert,
    ReducedMapping,
    diagonal_face_columns,
    diagonal_position,
    exponent_matrix,
    lp_maximize,
    maximal_point,
    newton_min_diagonal,
    reduce_generators,
    vertices,
)
from .polyring import (
    QQ,
    IntegersMod,
    Polynomial,
    Rationals,
    coefficient_of,
    format_polynomial,
    in_frobenius_power,
    parse_polynomial,
    reduce_mod_p,
    support,
)
from .simplex import LpInfeasible, LpUnbounded, solve_lp
from .thresholds import (
    FptCertificate,
    LctVerdict,
    PrimeCheck,
    WitnessReport,
    coefficient_witness,
    fpt_bound,
    fpt_estimate,
    lct_fpt_classifier,
    monomial_fpt,
    newton_polyhedron_preserved,
    nu,
    verify_prime,
    witness_floor,
)

# Every public name imported above, without the submodules themselves.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
