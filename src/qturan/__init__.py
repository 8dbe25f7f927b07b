"""Basic hypergeometric series, generalized Turanians, and certification.

Exact mode works in Q (or Q(sqrt(q)) when the half-power base is
irrational) so sign verdicts and identity checks carry no tolerance; float
mode is arbitrary-precision mpmath with explicit error budgets.
"""

from .scalar import (
    DEFAULT_DIGITS,
    CollisionError,
    DimensionError,
    DomainError,
    ExactModeError,
    ExactScalar,
    FloatScalar,
    HypothesisError,
    ModeMismatchError,
    OffGridError,
    PoleError,
    QTuranError,
    Scalar,
    ex,
    fl,
)
from .qcore import (
    QBase,
    elementary_symmetric,
    pochhammer_classical,
    q_exponential,
    qgamma,
    qgamma_ratio,
    qpochhammer_finite,
    qpochhammer_infinite,
    weak_supermajorizes,
)
from .series import (
    PhiSpec,
    TruncatedSeries,
    g_series,
    heine_f_series,
    heine_f_tilde_series,
    kummer_1f1_unit_top,
    modified_qbessel_i1,
    qbessel_j1,
    qbessel_j2,
    tphis_series,
)
from .turanian import (
    Family,
    SignReport,
    SignVerdict,
    TuranianSpec,
    delta_sign_certificate,
    delta_tilde_sign_certificate,
    gamma_sign_certificate,
    integer_shift_reduction_check,
    logconcavity_grid_check,
    sign_certificate,
    turan_point_inequality,
    turanian_series,
    verdict_satisfies,
)
from .conditions import (
    ChainVerdict,
    RtsDirection,
    chain_case,
    chain_condition_a,
    chain_condition_b,
    derive_cd,
    majorization_sufficiency,
    rts_monotonicity_probe,
)
from .identities import (
    Residual,
    q_to_1_limit_study,
    verify_connection_formula,
    verify_finite_sum_identity,
    verify_kummer_linearization,
    verify_linearization,
    verify_rahman_product,
    verify_recqgamma,
)
from .analysis import (
    MeasureDensity,
    complete_monotonicity_check,
    laplace_representation_check,
    measure_from_series,
    multiplicative_convexity_check,
    tau_density,
)

__version__ = "0.1.0"
