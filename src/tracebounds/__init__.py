"""Point and partial identification of treatment effects among
treatment-reactive units: trimming bounds, monotone-reaction bounds,
and a sensitivity analysis that maps assumptions about non-reactive
units into the implied reactive-group effect."""

from .bounds import (
    BoundKind,
    Interval,
    NaiveEstimates,
    Side,
    TrimSpec,
    dim_m1,
    mt_bounds,
    naive_estimates,
    no_assumption_bounds,
    trimmed_mean,
    type3_dim_bounds,
)
from .data import Dataset, load_csv, schema_for, write_csv
from .errors import (
    AllReplicatesFailed,
    DegenerateP,
    DegenerateShare,
    EmptyCell,
    EmptyInput,
    EmptyReactiveStratum,
    InvariantViolation,
    MissingBlockLabels,
    MissingColumn,
    MissingM,
    MonotonicityViolatedEmpirically,
    NegativeControlMean,
    NoReactiveTreated,
    OutOfRange,
    OutOfSupportWarning,
    ParseError,
    RankDeficient,
    RequirementUnmet,
    SignUndefined,
    TooLarge,
    TraceBoundsError,
    ZeroFraction,
)
from .chart import render_chart
from .estimators import (
    StrataShares,
    TEEstimate,
    TEMethod,
    arm_reaction_rate,
    conditional_mean,
    estimate_p_m1,
    estimate_te_dim,
    estimate_te_ols,
    moments_to_te,
    strata_shares_monotone,
    te_point,
)
from .inference import (
    BootstrapConfig,
    BootstrapResult,
    ResampleUnit,
    bootstrap_replicates,
    percentile_ci,
)
from .oracle import (
    AppendixDResult,
    DGPConfig,
    OutcomeMeans,
    StrataProbs,
    TruthRecord,
    brute_force_trim_extremes,
    check_appendix_d,
    simulate,
    true_estimands,
)
from .sensitivity import (
    AltAssumption,
    AltQuantity,
    AnalysisResult,
    AssumptionKind,
    AssumptionSpec,
    CurveRow,
    SensitivityCurve,
    alt_quantity_to_trace0,
    analyze,
    build_curve,
    combined_region,
    preset_interval,
    threshold_trace0,
    trace0_from_trace,
    trace_from_trace0,
)

__version__ = "0.1.0"
