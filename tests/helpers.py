"""Builders shared by the test modules."""

import numpy as np

import multidist as md
from multidist.metrics import plus_rows


def family_from_arrays(mass_matrix, label_prob_matrix) -> md.DistributionFamily:
    """A family from a (k, n) mass array and a (k, n) or shared (n,) array of
    label probabilities."""
    mass = np.asarray(mass_matrix, dtype=np.float64)
    eta = np.broadcast_to(np.asarray(label_prob_matrix, dtype=np.float64), mass.shape)
    members = tuple(md.LabeledDistribution(m, e) for m, e in zip(mass, eta))
    return md.DistributionFamily(md.Domain(mass.shape[1]), members)


def learned(fam, cls, cfg, hedge=None):
    """What a trial of derandomization config cfg starts from: the exact-mode
    Hedge mixture at cfg's learner precision, and the class's (|H|, k) error
    matrix on fam."""
    f_rand = md.hedge_learn(md.SampleOracle.exact_mode(fam), cls, *cfg.learner_eps_delta(), hedge)
    return f_rand, md.error_matrix(plus_rows(cls.label_matrix), fam)
