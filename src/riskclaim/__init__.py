"""riskclaim: risk-minimal contingent claims under capital constraints.

Solvers for the constrained problem

    minimize  risk(-X)   over claims  0 <= X <= K  with price E[phi X] = v

for law-invariant risk measures (average value at risk, quantile-weighted
coherent measures, worst-case expected loss, its translation-invariant
modification, and value at risk), together with an independent brute-force
oracle on discretized densities that certifies every solver output.
"""

from .densities import (
    EmpiricalDiscrete,
    PiecewiseLinearQuantile,
    PriceDensity,
    Uniform,
    ValidationIssue,
    density_from_dict,
    parse_density,
)
from .errors import (
    BracketFailure,
    ConfigError,
    CurveShapeViolation,
    Infeasible,
    InvalidParameter,
    NoBracket,
    NonConvergence,
    RiskclaimError,
    UnsupportedDensity,
)
from .measures import (
    AVaRMeasure,
    CappedInverse,
    Constant,
    Exponential,
    LossFunction,
    Measure,
    Payoff,
    Power,
    QuantileMeasure,
    QuantileTable,
    RobustMeasure,
    Shifted,
    ShiftedMeasure,
    StepVector,
    TwoStep,
    VaRMeasure,
    WeightFunction,
    avar_risk,
    avar_weight,
    g_k_value,
    gamma_value,
    hardy_littlewood_bounds,
    measure_from_dict,
    measure_is_convex,
    measure_label,
    measure_risk,
    measure_to_dict,
    mix_payoffs,
    parse_loss,
    parse_measure,
    parse_weight,
    payoff_from_dict,
    price,
    quantile_risk,
    robust_risk,
    shifted_risk,
    two_level_weight,
    var_risk,
)
from .numerics import (
    Bracket,
    Minimize1D,
    Minimize2D,
    geometric_bracket,
    minimize_1d,
    minimize_2d,
    root_bracketed,
)
from .oracle import (
    DiscreteInstance,
    OracleQuantileResult,
    OracleRobustResult,
    discretize,
    oracle_avar_dual,
    oracle_quantile_based,
    oracle_robust,
    payoff_distance,
    tail_weights,
    verification_report,
)
from .solvers import (
    DEFAULT_TOLERANCES,
    CurvePoint,
    CurveResult,
    ProblemSpec,
    Solution,
    Tolerances,
    critical_value_robust,
    huber_strassen_pi,
    risk_curve,
    solve_avar,
    solve_problem,
    solve_quantile_based,
    solve_robust_utility,
    solve_shifted,
    solve_var,
    y_lambda,
)

__version__ = "0.1.0"
