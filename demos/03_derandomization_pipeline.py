#!/usr/bin/env python3
"""The full pipeline: learn a mixture, pin confidently biased points, round
the rest.

When all distributions share the conditional label law, a randomized learner's
mixture can be converted into a single deterministic classifier that keeps the
worst-case guarantee: points whose empirical label skew clears a
sqrt(ln(gamma)/count) threshold get their majority label fixed in a table T,
and every other point independently copies one mixture draw. The strongly
biased points are exactly the ones where rounding could hurt; once they are
pinned, the light remainder concentrates simultaneously for all distributions.
"""

import numpy as np

import multidist as md

eps = delta = 0.15

spec = md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=7)
fam, cls = md.gen_random_label_consistent(spec)
assert fam.label_consistent

opt, opt_idx = md.opt_bruteforce(cls, fam)
print(f"instance: |X|={fam.domain_size}, k={fam.k}, |H|={len(cls)}")
print(f"brute-force OPT = {opt:.4f} (hypothesis {opt_idx})\n")

# the black-box learner runs at eps/2; its mixture is the input
cfg = md.DerandConfig(eps=eps, delta=delta, mode="calibrated", m_override=5000)
f_rand = md.hedge_learn(md.SampleOracle(fam), cls, cfg.learner_eps())
result = md.derandomize(fam, f_rand, cfg, np.random.default_rng(11))

rand_err = md.randomized_worst_case_error(f_rand, fam)
det = md.worst_case_error(result.classifier, fam)
print(f"mixture worst-case expected error : {rand_err:.4f}  (target OPT + eps/2 = {opt + eps/2:.4f})")
print(f"derandomized worst-case error     : {det.worst_case:.4f}  (target OPT + eps = {opt + eps:.4f})")
print(f"bias table size |T| = {len(result.table)} of {fam.domain_size} points\n")

# the error splits exactly into the pinned part and the rounded part
inside = np.zeros(fam.domain_size, dtype=bool)
inside[result.table.points] = True
plus = (result.classifier.label_vector() == 1).astype(float)  # Pr[f(x) = +1]
t_terms = md.error_matrix(plus, fam, inside)
o_terms = md.error_matrix(plus, fam, ~inside)
print("per-distribution error = pinned-points term + rounded-points term:")
for i in range(fam.k):
    print(f"  D_{i}: {det.error[i]:.4f} = {t_terms[i]:.4f} + {o_terms[i]:.4f}")

# a short campaign: how often do the guarantees hold across fresh instances?
print("\n200-trial campaign on fresh instances (this takes a few seconds)...")
campaign = md.CampaignConfig(gen_spec=spec, derand=cfg, master_seed=23)
summary, _ = md.run_campaign(campaign, trials=200, parallelism=2, measure_time=False)
for pred in summary.predicates:
    print(f"  {pred.name}: {pred.successes}/{pred.trials} "
          f"(95% CI [{pred.ci_low:.3f}, {pred.ci_high:.3f}])")
print(f"target: at least 1 - delta = {1 - delta:.2f} of trials for each predicate")
