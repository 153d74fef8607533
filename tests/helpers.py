"""Builders shared by the test modules."""

import numpy as np
from scipy.optimize import linprog

import multidist as md
from multidist.metrics import _heaviness, class_errors, heavy_bias_threshold


def plan_of(fam, cfg, hedge=None):
    """The RunPlan of derandomization config cfg on fam's shape."""
    return md.RunPlan(fam.k, fam.domain_size, cfg, hedge or md.HedgeConfig())


def learned(fam, cls, cfg, hedge=None):
    """What a trial of derandomization config cfg starts from: the exact-mode
    Hedge mixture at its plan's learner precision."""
    return md.hedge_learn(md.SampleOracle(fam), cls, plan_of(fam, cfg, hedge).learner_eps,
                          cfg=hedge)


def heavy_mask(fam, eps, delta, variant="explicit", c_prime=4.0):
    """The points whose beta_x^2 * D_i(x) is strictly above
    heavy_bias_threshold(eps, delta, fam.k, variant, c_prime) for some member
    i: the points heavy_coverage requires in the table."""
    return _heaviness(fam) > heavy_bias_threshold(eps, delta, fam.k, variant, c_prime)


def listed(doc):
    """doc with each ndarray in it, through dicts and lists, as its .tolist():
    the document that json.dumps writes as the package writes doc."""
    if isinstance(doc, dict):
        return {key: listed(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [listed(value) for value in doc]
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def game_value(fam, cls):
    """The game value V of cls on fam, the least worst-case error of any
    mixture over cls: one LP, minimise t over q in the simplex on cls subject
    to q . E[:, i] <= t for each member i, E = class_errors(cls, fam). HiGHS
    solves it to its feasibility tolerance, 1e-7 by default."""
    errors = class_errors(cls, fam)
    h, k = errors.shape
    # variables q_1..q_h, t
    objective = np.zeros(h + 1)
    objective[-1] = 1.0
    rows = np.hstack([errors.T, -np.ones((k, 1))])
    simplex = np.append(np.ones(h), 0.0)[None]
    result = linprog(objective, A_ub=rows, b_ub=np.zeros(k), A_eq=simplex, b_eq=[1.0],
                     bounds=[(0, None)] * h + [(None, None)], method="highs")
    assert result.status == 0, result.message
    return float(result.x[-1])
