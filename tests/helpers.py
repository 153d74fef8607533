"""Builders shared by the test modules."""

import multidist as md
from multidist.metrics import plus_rows


def learned(fam, cls, cfg, hedge=None):
    """What a trial of derandomization config cfg starts from: the exact-mode
    Hedge mixture at cfg's learner precision, and the class's (|H|, k) error
    matrix on fam."""
    f_rand = md.hedge_learn(md.SampleOracle(fam), cls, cfg.learner_eps(), cfg=hedge)
    return f_rand, md.error_matrix(plus_rows(cls.label_matrix), fam)
