"""The public names of the package, pinned so that any growth or shrinkage of
the API shows up as a reviewed diff of this list."""

import types

import multidist as md

PUBLIC_NAMES = [
    "BiasTable", "BinaryMatrix", "CampaignConfig", "CampaignSummary",
    "Coloring", "CompactClassifier", "DerandConfig", "DerandResult", "DistributionFamily",
    "EmpiricalSample", "ErrorReport", "ExplicitClassifier", "GenSpec",
    "HedgeConfig", "HypothesisClass", "LabelConsistencyError",
    "LabeledDistribution", "PolyHash", "RandomizedClassifier", "ReductionFamily",
    "SampleOracle", "TailCheckConfig", "TailCheckReport", "TrialReport", "Verdict",
    "bayes_labels", "bruteforce_min_discrepancy", "build_bias_table", "choose_hash_params",
    "coloring_error", "derandomize", "distinguisher",
    "dummy_min_deterministic_error", "dummy_point_variant",
    "empirical_tail_bound_check", "erm", "error_matrix", "exceedance_probability",
    "full_labeling_class", "gen_gap_example", "gen_heavy_point_probe",
    "gen_random_label_consistent", "generate", "heavy_bias_threshold", "heavy_mask",
    "hedge_learn", "is_prime", "min_deterministic_error",
    "next_prime", "opt_bruteforce",
    "planted_high_discrepancy_matrix", "planted_zero_matrix", "plus_probability",
    "randomized_per_distribution", "randomized_worst_case_error", "round_outside_t",
    "row_identity_errors", "run_campaign", "run_trial", "sample_hash",
    "support_worst_case", "trial_seed", "validate_family", "wilson_interval",
    "worst_case_error",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes of the package
    # depends on what the session imported first
    names = [n for n in dir(md)
             if not n.startswith("_") and not isinstance(getattr(md, n), types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES
