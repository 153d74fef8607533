#!/usr/bin/env python3
"""Storing the rounded classifier in a few machine words.

Explicit rounding remembers one independent mixture draw per domain point —
fine for 40 points, hopeless for 10^6. The compact variant stores only a
random polynomial over a prime field plus the mixture itself: at each point it
compares the polynomial's value against the mixture's +1-marginal, which
reproduces the per-point rounding probability up to 1/p, and any r keys are
hashed jointly uniformly, which is enough independence for the concentration
argument to survive.
"""

import numpy as np

import multidist as md
from multidist import serialize
from multidist.hashing import _plus_thresholds, coefficient_matrix_eval

eps = delta = 0.15
spec = md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=5)
fam, cls = md.gen_random_label_consistent(spec)

r, p = md.choose_hash_params(fam.k, eps, delta, fam.domain_size)
print(f"hash parameters for k={fam.k}, eps={eps}, delta={delta}, |X|={fam.domain_size}:")
print(f"  degree r = {r} (smallest even integer >= 2 ln(4k/delta))")
print(f"  prime p = {p} (exceeds the domain and both range-size floors)\n")

cfg = md.DerandConfig(eps=eps, delta=delta, mode="calibrated", m_override=5000,
                      rounding="hash")
f_rand = md.hedge_learn(md.SampleOracle(fam), cls, cfg.learner_eps())
result = md.derandomize(fam, f_rand, cfg, np.random.default_rng(3))
clf = result.classifier
print(f"compact classifier: polynomial of {clf.hash.degree_r} coefficients mod {clf.hash.prime}, "
      f"table of {len(clf.t_points)} pinned labels, mixture of {len(clf.f_rand.support)} hypotheses")
print(serialize.hash_stanza(clf.hash))

det = md.worst_case_error(clf, fam)
opt, _ = md.opt_bruteforce(cls, fam)
print(f"worst-case error {det.worst_case:.4f} vs OPT + eps = {opt + eps:.4f}\n")

# the rounding law: over fresh hash draws, Pr[label = +1] = floor(m*p)/p
# (probe the untabled point whose marginal is most mixed); each row of coeffs
# is one hash draw, evaluated and rounded as the classifier does
outside = [x for x in range(fam.domain_size) if x not in clf.t_points]
x = min(outside, key=lambda x: abs(clf.f_rand.marginals[x] - 0.5))
marginal = float(clf.f_rand.marginals[x])
rng = np.random.default_rng(0)
draws = 50_000
coeffs = rng.integers(0, p, size=(draws, r))
q_vals = coefficient_matrix_eval(coeffs, np.array([x]), p)[:, 0]
hits = int(np.count_nonzero(q_vals < _plus_thresholds([marginal], p)[0]))
law = md.plus_probability(marginal, p)
print(f"rounding law at point {x}: marginal {marginal:.6f}")
print(f"  empirical Pr[+1] over {draws} hash draws: {hits / draws:.6f}")
print(f"  exact law floor(m*p)/p              : {float(law):.6f}")

# both rounding styles keep the same guarantee and essentially the same error;
# each trial derandomizes the one mixture learned above, and reads OPT and
# the mixture's errors from the class's (|H|, k) error matrix
errors = md.error_matrix((cls.label_matrix == 1).astype(float), fam)
errs = {}
for rounding in ("explicit", "hash"):
    cfg_r = md.DerandConfig(eps=eps, delta=delta, mode="calibrated", m_override=5000,
                            rounding=rounding)
    runs = [md.run_trial(fam, cls, f_rand, errors, cfg_r, seed=s, measure_time=False)
            for s in range(60)]
    errs[rounding] = np.mean([t.deterministic_error for t in runs])
print(f"\nmean worst-case error over 60 seeds: explicit {errs['explicit']:.4f}, "
      f"hash {errs['hash']:.4f}")
