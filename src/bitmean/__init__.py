"""Sequential 1-bit mean estimation under threshold queries.

A simulation library for the adaptive estimator (localize, cut off, partition,
randomized threshold probability estimation, median-of-means), its anytime /
unknown-scale / two-stage / multivariate variants, and the hard-instance
families used to verify its limits.
"""

from .distributions import (
    Distribution,
    DiscreteMixture,
    FamilyCheck,
    FamilyParams,
    Gaussian,
    PointMass,
    TwoSidedPareto,
    make_discrete,
    make_gaussian_budget_tight,
    make_point_mass,
    make_two_sided_pareto,
    operative_order,
    validate_family,
)
from .channel import (
    Agent,
    BitAgent,
    GrayBit,
    Interval,
    Query,
    QueryTable,
    ThresholdGE,
    ThresholdGT,
    ThresholdLE,
    ThresholdLT,
    Transcript,
    UniformThreshold,
    evaluate_query,
    query_probabilities,
    query_probability,
    repeated_fraction,
    uniform_threshold_probability,
)
from .localization import (
    GrayPlan,
    LocalizationResult,
    gray_bit_value,
    gray_change_points,
    gray_decode,
    gray_plan,
    localize_gray,
    localize_median,
    median_search_cost,
)
from .refine import (
    CostBreakdown,
    EstimateReport,
    RefinementPlan,
    Region,
    base_estimate,
    build_plan,
    cutoff_threshold,
    estimate_mean,
    estimate_region,
    predict_cost,
    refinement_plan,
)
from .variants import (
    AnytimeResult,
    BudgetError,
    MultivariateResult,
    ScaleAdaptResult,
    anytime_estimate,
    multivariate_estimate,
    two_stage_estimate,
    unknown_scale_estimate,
)
from .hardness import (
    K2HardPair,
    PairGrid,
    make_k2_pair,
    make_pair_grid,
    nonadaptive_baseline,
    verify_kl_bound,
)
from .harness import (
    ExperimentConfig,
    Fixture,
    acceptance_matrix,
    run_gap,
    run_pac,
    run_scaling,
    run_verify,
    trial_rng,
)

__version__ = "0.1.0"
