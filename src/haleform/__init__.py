"""Simulation and Lyapunov-Krasovskii certification for neutral delay systems
in Hale's form: d/dt D x_t = f(x_t), D phi = phi(0) - sum_j A_j phi(-Delta_j)."""

__version__ = "0.1.0"

from .certify import (
    AttractionResult,
    CertificateConstants,
    CertificateReport,
    ConverseFunctional,
    Counterexample,
    FitResult,
    GesEstimate,
    IssEstimate,
    LipschitzEstimate,
    check_uniform_attraction,
    construct_converse_ges,
    converse_horizon,
    estimate_ges,
    estimate_lipschitz,
    fit_constants,
    iss_probe,
    reverify_counterexample,
    sample_shells,
    verify_gas_conditions,
    verify_ges_conditions,
    verify_ges_seminorm,
)
from .comparison import ComparisonFunction, monotone_envelope
from .errors import (
    DimensionError,
    EvaluationBlowupError,
    FitImpossibleError,
    HaleformError,
    HorizonError,
    PreconditionError,
    SchemaError,
    UnsupportedDimensionError,
)
from .functionals import (
    ConsistencyResult,
    DerivativeEstimate,
    DopNormFunctional,
    DopSemiNorm,
    EndpointSemiNorm,
    Functional,
    IntegralQuadraticFunctional,
    L2SemiNorm,
    LadderSpec,
    QuadraticDopFunctional,
    SemiNorm,
    SupNormFunctional,
    WeightedCompositeFunctional,
    WeightedSemiNorm,
    driver_derivative,
    driver_derivatives,
    phi_h_extend,
    trajectory_consistency,
    trajectory_grid,
)
from .histories import HistorySegment, combine, sample_histories, sample_history, sup_norm_diff
from .integrate import (
    StepPolicy,
    Trajectory,
    integrate,
    integrate_batch,
    residual_check,
    segment,
)
from .operators import (
    DifferenceOperator,
    DistributedTerm,
    InputTerm,
    LinearTerm,
    NfdeSystem,
    NonlinearTerm,
    RhsMap,
    dop_apply,
    rhs_eval,
)
from .signals import InputSignal
from .stability import StabilityMargin, gamma0, is_strongly_stable
