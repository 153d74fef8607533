#!/usr/bin/env python3
"""Matrix balancing as the obstacle to deterministic min-max learning.

Any 0/1 matrix turns into a family of paired distributions (one +1-labeling
and one -1-labeling member per row). A deterministic classifier of the points
is exactly a coloring, and its worst-case error obeys an exact identity:

    error = 1/2 + max_i |a_i . z| / (2 m_i)

So worst-case error 1/2 is achievable iff some coloring balances every row
(Az = 0), and a learner that could always find a near-1/2-error deterministic
classifier would decide that balancing question. This script walks the
reduction on a solvable and an unsolvable instance, plus the dummy-point
rescaling that plants the same obstacle at any target error level.
"""

from fractions import Fraction

import numpy as np

import multidist as md

rng = np.random.default_rng(42)
n = 12
eps = 1.0 / (2.0 * (n**0.5))

print("=== planted balanced instance ===")
A, z = md.planted_zero_matrix(n, density=0.5, rng=rng)
rf = md.ReductionFamily(A)
print(f"n={n}, family of k={rf.k} distributions; planted coloring balances all rows:")
print("  Az =", (A.entries.astype(int) @ z.z.astype(int)).tolist())
print("  exact worst-case error of the planted coloring:", md.coloring_error(z, rf))

zc, inf_norm, two_norm = md.bruteforce_min_discrepancy(A)
print(f"  brute-force minimum imbalance: inf_norm={inf_norm} two_norm={two_norm:.3f}")
print("  exact best deterministic error:", md.min_deterministic_error(rf))
print("  distinguisher on the best labeling:",
      md.distinguisher(A, zc, eps).value)

print("\n=== unbalanceable instance (pair-row gadget) ===")
H = md.planted_high_discrepancy_matrix(n, rng)
rfh = md.ReductionFamily(H)
zh, inf_h, _ = md.bruteforce_min_discrepancy(H)
print(f"  brute-force certifies inf_norm = {inf_h} >= 2")
print("  exact best deterministic error:", md.min_deterministic_error(rfh),
      "(every labeling fails some member completely)")
print("  distinguisher on the best labeling:",
      md.distinguisher(H, zh, eps).value)

print("\n=== exact row identity, spot check ===")
v = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
for i in (0, 1):
    er_opposing, er_aligned, sigma = md.row_identity_errors(rf, v, i)
    print(f"  row {i}: sigma={sigma:+d}  errors {er_opposing} + {er_aligned} = "
          f"{er_opposing + er_aligned}")

print("\n=== dummy point: planting the obstacle at a lower error level ===")
target = Fraction(1, 4)
fam_low = md.dummy_point_variant(rf, target)
print(f"  added a sure-label point with mass {1 - 2 * target}; "
      f"best achievable error is now {md.dummy_min_deterministic_error(rf, target)}")
print("  (so near-optimal deterministic output stays hard even when OPT is small)")

print("\n=== what naive rounding loses here (reported, not asserted) ===")
# a mixture over ALL labelings of a smaller planted instance nearly reaches
# error 1/2, but pointwise rounding -- the bias table is inapplicable because
# these paired families are never label-consistent -- lands strictly above
# 1/2 whenever any row comes out imbalanced
n_small = 10
A_small, _ = md.planted_zero_matrix(n_small, density=0.5, rng=rng)
rf_small = md.ReductionFamily(A_small)
full_cls = md.full_labeling_class(n_small)
F = md.hedge_learn(md.SampleOracle(rf_small.family), full_cls, 0.1)
rand_err = md.randomized_worst_case_error(F, rf_small.family)
print(f"  mixture over all {len(full_cls)} labelings: worst-case expected error "
      f"{rand_err:.4f} (best deterministic: 0.5)")
round_rng = np.random.default_rng(1)
above = 0
excess = []
trials = 200
for _ in range(trials):
    labels = md.round_outside_t(F, md.BiasTable(), round_rng)
    err = md.coloring_error(labels, rf_small)
    above += err > Fraction(1, 2)
    excess.append(float(err) - 0.5)
print(f"  pointwise rounding of that mixture: error > 1/2 in {above}/{trials} trials, "
      f"mean excess {np.mean(excess):.4f}")
