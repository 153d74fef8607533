"""multidist: min-max learning over families of discrete distributions.

Exact worst-case error metrics, a Hedge-based randomized learner, a
bias-table derandomizer with explicit or hash-compact rounding, and
binary-matrix hard-instance machinery with exact rational accounting.
"""

from .model import (
    LabeledDistribution,
    DistributionFamily,
    HypothesisClass,
    RandomizedClassifier,
    ExplicitClassifier,
    LabelConsistencyError,
    validate_family,
    full_labeling_class,
)
from .metrics import (
    ErrorReport,
    error_matrix,
    worst_case_error,
    randomized_worst_case_error,
    randomized_per_distribution,
    support_worst_case,
    exceedance_probability,
    opt_bruteforce,
    bayes_labels,
    heavy_bias_threshold,
    heavy_mask,
)
from .learner import (
    SampleOracle,
    EmpiricalSample,
    HedgeConfig,
    erm,
    hedge_learn,
)
from .derand import (
    DerandConfig,
    BiasTable,
    DerandResult,
    build_bias_table,
    round_outside_t,
    derandomize,
)
from .hashing import (
    PolyHash,
    CompactClassifier,
    is_prime,
    next_prime,
    sample_hash,
    plus_probability,
    choose_hash_params,
    TailCheckConfig,
    TailCheckReport,
    empirical_tail_bound_check,
)
from .discrepancy import (
    BinaryMatrix,
    Coloring,
    ReductionFamily,
    Verdict,
    row_identity_errors,
    coloring_error,
    bruteforce_min_discrepancy,
    min_deterministic_error,
    planted_zero_matrix,
    planted_high_discrepancy_matrix,
    distinguisher,
    dummy_point_variant,
    dummy_min_deterministic_error,
)
from .instances import (
    GenSpec,
    gen_random_label_consistent,
    gen_gap_example,
    gen_heavy_point_probe,
    generate,
)
from .harness import (
    TrialReport,
    CampaignConfig,
    CampaignSummary,
    run_trial,
    run_campaign,
    trial_seed,
    wilson_interval,
)

__version__ = "0.1.0"
