"""Builders shared by the test modules."""

import multidist as md


def learned(fam, cls, cfg, hedge=None):
    """What a trial of derandomization config cfg starts from: the exact-mode
    Hedge mixture at cfg's learner precision."""
    return md.hedge_learn(md.SampleOracle(fam), cls, cfg.learner_eps(), cfg=hedge)
