#!/usr/bin/env python3
"""Why a mixture of classifiers is not the same as one classifier.

A uniform mixture over k carefully chosen hypotheses can have worst-case
expected error 1/k over k distributions while EVERY single hypothesis in its
support has worst-case error 1. Drawing one hypothesis from the mixture and
hoping is therefore a bad derandomization strategy: per distribution, the
draw is catastrophic with probability 1/k, and a union bound over the k
distributions only gives the weak factor-2k Markov guarantee.
"""

import numpy as np

import multidist as md

k = 8
fam, cls, mixture = md.gen_gap_example(k)

print(f"domain of {k} points, {k} point-mass distributions, {k} hypotheses")
print(f"hypothesis i labels point i with -1 and everything else +1\n")

rand_err = md.randomized_worst_case_error(mixture, fam)
single_err = md.support_worst_case(mixture, fam)
print(f"worst-case EXPECTED error of the uniform mixture : {rand_err:.4f}  (= 1/k)")
print(f"worst-case error of every single support member  : {single_err:.4f}")
print(f"gap factor: {single_err / rand_err:.0f}x\n")

# per distribution, a single draw is terrible with probability exactly 1/k
exceedance = md.exceedance_probability(mixture, fam, 1.0)
for i in (0, k - 1):
    print(f"Pr over one draw that the error on distribution {i} equals 1 : {exceedance[i]:.4f}")

# the only generic single-draw guarantee is Markov + union bound:
# with probability 1/2, error <= 2k * (mixture guarantee) on every distribution
opt, _ = md.opt_bruteforce(cls, fam)
print(f"\nbrute-force OPT over this class: {opt:.1f} "
      f"(every hypothesis errs fully on its own point)")
print(f"Markov-style single-draw bound: 2k * mixture error = {2 * k * rand_err:.1f} "
      "-- vacuous here")

# sanity: simulate single draws and watch the worst distribution suffer
rng = np.random.default_rng(0)
draws = 2000
bad = 0
cum = np.cumsum(mixture.weights)
for _ in range(draws):
    h = mixture.support[int(np.searchsorted(cum, rng.random()))]
    if md.worst_case_error(cls.label_matrix[h], fam).worst_case == 1.0:
        bad += 1
print(f"\nsimulated {draws} single draws: {bad}/{draws} had worst-case error 1 "
      "(all of them, as predicted)")
