"""Builders shared by the test modules."""

import numpy as np

import multidist as md


def learned(fam, cls, cfg, hedge=None):
    """What a trial of derandomization config cfg starts from: the exact-mode
    Hedge mixture at cfg's learner precision."""
    return md.hedge_learn(md.SampleOracle(fam), cls, cfg.learner_eps(), cfg=hedge)


def listed(doc):
    """doc with each ndarray in it, through dicts and lists, as its .tolist():
    the document that json.dumps writes as the package writes doc."""
    if isinstance(doc, dict):
        return {key: listed(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [listed(value) for value in doc]
    return doc.tolist() if isinstance(doc, np.ndarray) else doc
