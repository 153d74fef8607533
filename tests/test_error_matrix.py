"""The error-matrix core against exact rational sums and against the
per-member loops it replaced, which stay here as references."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidist as md
from multidist.learner import _mixture
from multidist.metrics import plus_rows

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def error_problems(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    r = draw(st.integers(1, 5))
    members = tuple(
        md.LabeledDistribution(draw(st.lists(unit, min_size=n, max_size=n)),
                               draw(st.lists(unit, min_size=n, max_size=n)))
        for _ in range(k)
    )
    fam = md.DistributionFamily(md.Domain(n), members)
    if draw(st.booleans()):
        plus = np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=n,
                                                max_size=n), min_size=r, max_size=r)))
    else:
        plus = np.array(draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                                      min_size=r, max_size=r)))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    return plus, fam, mask


def fraction_errors(plus, fam, mask):
    points = range(fam.domain.size) if mask is None else np.nonzero(mask)[0]
    out = np.empty((plus.shape[0], fam.k))
    for j, row in enumerate(plus):
        for i, m in enumerate(fam.members):
            total = Fraction(0)
            for x in points:
                p, eta = Fraction(row[x]), Fraction(m.label_one_prob[x])
                total += Fraction(m.mass[x]) * (p * (1 - eta) + (1 - p) * eta)
            out[j, i] = float(total)
    return out


@settings(max_examples=200, deadline=None)
@given(error_problems())
def test_error_matrix_equals_exact_fraction_sums(problem):
    plus, fam, mask = problem
    got = md.error_matrix(plus, fam, mask)
    assert got.shape == (plus.shape[0], fam.k)
    assert np.allclose(got, fraction_errors(plus, fam, mask), rtol=0.0, atol=1e-12)


def test_error_matrix_shapes_and_domain_check():
    fam = md.family_from_arrays([[0.5, 0.5], [1.0, 0.0]], [[1.0, 0.0], [0.3, 0.3]])
    assert md.error_matrix(np.array([1.0, 0.0]), fam).tolist() == [0.0, 1.0 - 0.3]
    assert md.error_matrix(np.array([[1.0, 0.0]]), fam.members[1]).tolist() == [[1.0 - 0.3]]
    with pytest.raises(ValueError, match="domain size mismatch"):
        md.error_matrix(np.ones(3), fam)


def loop_error_terms(labels, member):
    """The former per-point error mass of one labeling on one member."""
    eta = member.label_one_prob
    return member.mass * np.where(labels == -1, eta, 1.0 - eta)


def loop_error_table(cls, fam, mask=None):
    """The former |H| x k table: one loop iteration per (hypothesis, member)."""
    keep = slice(None) if mask is None else mask
    return np.array([[float(loop_error_terms(h.labels, m)[keep].sum()) for m in fam.members]
                     for h in cls.hypotheses])


def loop_hedge(fam, cls, eps):
    """The former exact Hedge: build the weighted mixture every round and
    best-respond with the exhaustive ERM."""
    rounds, eta = md.HedgeConfig().resolve(fam.k, eps)
    table = loop_error_table(cls, fam)
    w = np.full(fam.k, 1.0 / fam.k)
    counts = {}
    for _ in range(rounds):
        h = md.erm(cls, _mixture(fam, w))
        counts[h] = counts.get(h, 0) + 1
        w = w * np.exp(eta * table[h])
        w = w / w.sum()
    support = tuple(sorted(counts))
    return support, np.array([counts[i] / rounds for i in support])


# the C06 trial shape at the derandomizer's eps/2, and a wider one
CASES = ([(dict(domain_size=40, k=6, hypothesis_count=16), 0.075, seed) for seed in range(24)]
         + [(dict(domain_size=300, k=16, hypothesis_count=64), 0.3, seed) for seed in range(6)])


@pytest.mark.parametrize("shape,eps,seed", CASES)
def test_error_matrix_and_hedge_match_the_loops(shape, eps, seed):
    fam, cls = md.gen_random_label_consistent(md.GenSpec(**shape, seed=seed))
    plus = plus_rows(cls.label_matrix)
    table = loop_error_table(cls, fam)
    assert np.array_equal(md.error_matrix(plus, fam), table)
    mask = np.random.default_rng(seed).random(fam.domain.size) < 0.5
    assert np.array_equal(md.error_matrix(plus, fam, mask), loop_error_table(cls, fam, mask))

    F = md.hedge_learn(md.SampleOracle.exact_mode(fam), cls, eps, 0.1)
    support, weights = loop_hedge(fam, cls, eps)
    assert F.support == support
    assert np.array_equal(F.weights, weights)
    assert np.array_equal(md.randomized_per_distribution(F, fam), weights @ table[list(support)])


def test_ties_go_to_the_lowest_index():
    fam, cls = md.gen_random_label_consistent(md.GenSpec(domain_size=12, k=3,
                                                         hypothesis_count=5, seed=8))
    doubled = md.HypothesisClass(cls.hypotheses + cls.hypotheses)
    assert md.opt_bruteforce(doubled, fam) == md.opt_bruteforce(cls, fam)
    oracle = md.SampleOracle.exact_mode(fam)
    F = md.hedge_learn(oracle, doubled, 0.2, 0.1)
    F_once = md.hedge_learn(oracle, cls, 0.2, 0.1)
    assert F.support == F_once.support and np.array_equal(F.weights, F_once.weights)

    # gap example: under uniform weights every h_i errs 1/k; the first round takes h_0
    gap_fam, gap_cls, _ = md.gen_gap_example(4)
    trace = []
    md.hedge_learn(md.SampleOracle.exact_mode(gap_fam), gap_cls, 0.5, 0.1, trace=trace)
    assert trace[0].hypothesis_index == 0
    assert md.opt_bruteforce(gap_cls, gap_fam) == (1.0, 0)
