"""The error-matrix core against exact rational sums; the error matrix, the
Hedge rounds, the bucket-table draws and the one-pass bias table against the
per-member loops they replaced, which stay here as references."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidist as md
from multidist import learner
from multidist.instances import gen_gap_example, gen_random_label_consistent
from multidist.learner import (BLOCK_DRAWS, EmpiricalSample, HedgeStack, _bucket_table, _draw,
                               _tally, erm, rolling_mixtures)
from multidist.metrics import BUDGET, _errors, class_errors, plus_rows, randomized_per_distribution


unit = st.floats(0.0, 1.0, allow_nan=False)


def members(fam):
    """The family's rows, one (mass, eta) row pair per member, for the
    per-member references below."""
    return list(zip(fam.mass_matrix, fam.label_prob_matrix))


@st.composite
def error_problems(draw):
    """Labelings, (k, n) member arrays whose masses need not sum to 1, and a
    mask or None."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    r = draw(st.integers(1, 5))
    mass, eta = (np.array([draw(st.lists(unit, min_size=n, max_size=n)) for _ in range(k)])
                 for _ in range(2))
    if draw(st.booleans()):
        plus = np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=n,
                                                max_size=n), min_size=r, max_size=r)))
    else:
        plus = np.array(draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                                      min_size=r, max_size=r)))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    return plus, (mass, eta), mask


def fraction_errors(plus, members, mask):
    mass_rows, eta_rows = members
    points = range(mass_rows.shape[1]) if mask is None else np.nonzero(mask)[0]
    out = np.empty((plus.shape[0], mass_rows.shape[0]))
    for j, row in enumerate(plus):
        for i, (mass, etas) in enumerate(zip(mass_rows, eta_rows)):
            total = Fraction(0)
            for x in points:
                p, eta = Fraction(row[x]), Fraction(etas[x])
                total += Fraction(mass[x]) * (p * (1 - eta) + (1 - p) * eta)
            out[j, i] = float(total)
    return out


@settings(max_examples=200, deadline=None)
@given(error_problems())
def test_error_matrix_equals_exact_fraction_sums(problem):
    plus, (mass, eta), mask = problem
    got = _errors(plus, mass, eta, mask)
    assert got.shape == (plus.shape[0], mass.shape[0])
    assert np.allclose(got, fraction_errors(plus, (mass, eta), mask), rtol=0.0, atol=1e-12)
    # one labeling at a time
    assert np.array_equal(np.array([_errors(row, mass, eta, mask) for row in plus]), got)
    # the same members as a family, once each row is made a distribution
    if np.all(mass.sum(axis=1) > 0):
        fam = md.DistributionFamily(mass / mass.sum(axis=1, keepdims=True), eta)
        assert np.array_equal(md.error_matrix(plus, fam, mask), _errors(
            plus, fam.mass_matrix, fam.label_prob_matrix, mask))


def test_error_matrix_shapes_and_domain_check():
    fam = md.DistributionFamily([[0.5, 0.5], [1.0, 0.0]], [[1.0, 0.0], [0.3, 0.3]])
    assert md.error_matrix(np.array([1.0, 0.0]), fam).tolist() == [0.0, 1.0 - 0.3]
    one = (fam.mass_matrix[1:], fam.label_prob_matrix[1:])
    assert _errors(np.array([[1.0, 0.0]]), *one).tolist() == [[1.0 - 0.3]]
    with pytest.raises(ValueError, match="domain size mismatch"):
        md.error_matrix(np.ones(3), fam)
    # members as arrays, of one shape or not, are no family
    for rows in (one, (fam.mass_matrix, fam.label_prob_matrix[0]), members(fam)[1]):
        with pytest.raises(TypeError, match="fam must be a DistributionFamily, got tuple"):
            md.error_matrix(np.ones(2), rows)


def test_error_matrix_rejects_a_mask_that_is_not_a_boolean_vector_of_length_n():
    fam = md.DistributionFamily([[0.2, 0.3, 0.5]], [[0.1, 0.9, 0.4]])
    plus = np.array([[1.0, 0.0, 1.0], [0.5, 0.5, 0.5]])
    # an int array used to fancy-index columns 1, 0, 1 and return numbers
    with pytest.raises(ValueError, match=r"mask must be a boolean vector of length 3, "
                                         r"got int64 of shape \(3,\)"):
        md.error_matrix(plus, fam, np.array([1, 0, 1]))
    # a boolean mask of the wrong length used to raise IndexError
    for mask in (np.array([True, False]), np.ones((3, 1), dtype=bool), np.bool_(True)):
        with pytest.raises(ValueError, match="mask must be a boolean vector of length 3"):
            md.error_matrix(plus, fam, mask)
    # a list of bools is a mask
    assert np.array_equal(md.error_matrix(plus, fam, [True, False, True]),
                          md.error_matrix(plus, fam, np.array([True, False, True])))


def entry_loop(plus, mass, eta, mask=None):
    """The (r, k) error matrix one (labeling, member) entry at a time: the
    four products of the entry, then one contiguous sum of its (masked) row."""
    out = np.empty((plus.shape[0], mass.shape[0]))
    for j, p in enumerate(plus):
        for i, (d, e) in enumerate(zip(mass, eta)):
            terms = d * (p * (1.0 - e) + (1.0 - p) * e)
            out[j, i] = (terms if mask is None else terms[mask]).sum()
    return out


def same_bits(got, want):
    """True iff two float64 arrays have one shape and the same bits: unlike
    np.array_equal, -0.0 and +0.0 differ."""
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


# the edge values drawn into eta: both zeros, one and the least subnormal
EDGE_ETA = np.array([-0.0, 0.0, 1.0, 5e-324])


@st.composite
def blocked_problems(draw):
    """An error-matrix problem with fewer labelings than members, with at
    least as many in one block of the budget, or in several blocks (the last
    one ragged when the block size does not divide r); with or without a
    mask. The rows are boolean labelings (the kernel's |p - eta| path),
    float labelings of +0.0 and 1.0, float labelings that also hold -0.0
    entries, fractional rows, or float labelings with a last fractional row
    (all of which take the blend). Masses hold some +0.0 and -0.0 entries and
    eta some EDGE_ETA entries."""
    steps = draw(st.sampled_from(["r < k", "one block", "several blocks"]))
    if steps == "r < k":
        k = draw(st.integers(2, 6))
        r, n = draw(st.integers(1, k - 1)), draw(st.integers(1, 60))
    elif steps == "one block":
        k = draw(st.integers(1, 6))
        r, n = draw(st.integers(k, 12)), draw(st.integers(1, 60))
        assert r <= BUDGET // n
    else:
        # blocks of 2, 2 and 1 labelings at n = 2^14 or 11,000; of 1 at 40,000
        r, n = draw(st.integers(3, 5)), draw(st.sampled_from([1 << 14, 11_000, 40_000]))
        k = draw(st.integers(1, r))
        assert max(1, BUDGET // n) < r
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.random((k, n))
    mass /= mass.sum(axis=1, keepdims=True)
    zeros = rng.random((k, n)) < 0.1
    mass[zeros] = rng.choice([-0.0, 0.0], size=zeros.sum())
    eta = rng.random((k, n))
    edges = rng.random((k, n)) < 0.2
    eta[edges] = rng.choice(EDGE_ETA, size=edges.sum())
    plus = rng.random((r, n))
    rows = draw(st.sampled_from(["boolean", "labelings", "signed labelings", "fractional",
                                 "mixed"]))
    if rows == "boolean":
        plus = plus < 0.5
    elif rows != "fractional":
        marginals, plus = plus, (plus < 0.5).astype(np.float64)
        if rows == "signed labelings":
            plus[(plus == 0.0) & (rng.random((r, n)) < 0.5)] = -0.0
        elif rows == "mixed":
            plus[-1] = marginals[-1]
    mask = rng.random(n) < 0.6 if draw(st.booleans()) else None
    return plus, (mass, eta), mask


@settings(max_examples=120, deadline=None)
@given(blocked_problems())
def test_blocked_error_matrix_is_bitwise_the_entry_loop(problem):
    plus, (mass, eta), mask = problem
    assert same_bits(_errors(plus, mass, eta, mask), entry_loop(plus, mass, eta, mask))


def test_boolean_rows_take_the_absolute_value_and_any_other_rows_the_blend():
    assert plus_rows([1, -1, 1]).tolist() == [True, False, True]
    assert plus_rows(np.array([[1, -1]], dtype=np.int8)).dtype == bool
    # eta = 2, which no family holds, tells the two terms apart: at p = 1,
    # |p - eta| is 1 and the blend p (1 - eta) + (1 - p) eta is -1
    mass, eta = np.ones((1, 1)), np.full((1, 1), 2.0)
    assert _errors(np.array([True]), mass, eta).tolist() == [1.0]
    for row in ([1.0], [1], np.array([1], dtype=np.int8), np.array([1.0], dtype=np.float32)):
        assert _errors(np.asarray(row), mass, eta).tolist() == [-1.0]
    # with eta in [0, 1] both paths are the entry loop bit for bit: boolean
    # rows, float 0/1 rows, rows holding -0.0 (where p = eta = -0.0 gives the
    # blend's term -0.0 and |p - eta| +0.0) and fractional rows
    p, e = np.float64(-0.0), np.float64(-0.0)
    assert np.signbit(p * (1.0 - e) + (1.0 - p) * e) and not np.signbit(abs(p - e))
    mass = np.array([[0.25, 0.25, 0.25, 0.25], [0.5, 0.0, -0.0, 0.5]])
    eta = np.array([EDGE_ETA, [0.3, -0.0, 1.0, 0.7]])
    for rows in (np.array([[True, False, True, False], [False] * 4]),
                 np.array([[1.0, 0.0, 1.0, 0.0], [0.0] * 4]),
                 np.array([[1.0, -0.0, 1.0, -0.0], [-0.0] * 4]),
                 np.array([[1.0, 0.0, 0.25, 0.5], [0.75, -0.0, 1.0, 0.125]])):
        for keep in (None, np.array([True, False, True, True])):
            assert same_bits(_errors(rows, mass, eta, keep), entry_loop(rows, mass, eta, keep))
            assert same_bits(_errors(rows[0], mass, eta, keep),
                             entry_loop(rows[:1], mass, eta, keep)[0])


def test_error_matrix_at_the_cli_wide_shape_is_bitwise_the_entry_loop():
    fam, cls = gen_random_label_consistent(
        md.GenSpec(domain_size=1000, k=24, hypothesis_count=128, seed=5))
    mass, eta = fam.mass_matrix, fam.label_prob_matrix
    plus = plus_rows(cls.label_matrix)
    mixture = np.random.default_rng(5).dirichlet(np.ones(128)) @ plus
    mask = np.random.default_rng(6).random(1000) < 0.5
    # the last rows are rounding_deviation's: a labeling and a mixture's marginals
    for rows, keep in ((plus, None), (plus, mask), (mixture[None], mask),
                       (np.stack([plus[0], mixture]), mask)):
        assert same_bits(md.error_matrix(rows, fam, keep), entry_loop(rows, mass, eta, keep))


def loop_error_terms(labels, member):
    """The former per-point error mass of one labeling on one member."""
    mass, eta = member
    return mass * np.where(labels == -1, eta, 1.0 - eta)


def loop_error_table(cls, fam, mask=None):
    """The former |H| x k table: one loop iteration per (hypothesis, member)."""
    keep = slice(None) if mask is None else mask
    return np.array([[float(loop_error_terms(h, m)[keep].sum()) for m in members(fam)]
                     for h in cls.label_matrix])


def loop_mixture(fam, w):
    """The former mixture of a family's members, as its (mass, eta) vectors."""
    mass = w @ fam.mass_matrix
    numer = w @ (fam.mass_matrix * fam.label_prob_matrix)
    eta = np.divide(numer, mass, out=np.full(fam.domain_size, 0.5), where=mass > 0)
    return mass / mass.sum(), eta


def loop_hedge(fam, cls, eps):
    """The former exact Hedge: build the weighted mixture every round and
    best-respond with the exhaustive ERM."""
    rounds, eta = md.HedgeConfig().resolve(fam.k, eps)
    table = loop_error_table(cls, fam)
    w = np.full(fam.k, 1.0 / fam.k)
    counts = {}
    for _ in range(rounds):
        h = erm(cls, loop_mixture(fam, w))
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
    fam, cls = gen_random_label_consistent(md.GenSpec(**shape, seed=seed))
    plus = plus_rows(cls.label_matrix)
    table = loop_error_table(cls, fam)
    assert np.array_equal(md.error_matrix(plus, fam), table)
    mask = np.random.default_rng(seed).random(fam.domain_size) < 0.5
    assert np.array_equal(md.error_matrix(plus, fam, mask), loop_error_table(cls, fam, mask))

    F = md.hedge_learn(md.SampleOracle(fam), cls, eps)
    support, weights = loop_hedge(fam, cls, eps)
    assert F.support == support
    assert np.array_equal(F.weights, weights)
    assert np.array_equal(randomized_per_distribution(F, fam), weights @ table[list(support)])


def test_ties_go_to_the_lowest_index():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=12, k=3,
                                                      hypothesis_count=5, seed=8))
    doubled = md.HypothesisClass(np.vstack([cls.label_matrix] * 2))
    assert md.opt_bruteforce(doubled, fam) == md.opt_bruteforce(cls, fam)
    oracle = md.SampleOracle(fam)
    F = md.hedge_learn(oracle, doubled, 0.2)
    F_once = md.hedge_learn(oracle, cls, 0.2)
    assert F.support == F_once.support and np.array_equal(F.weights, F_once.weights)

    # gap example: under uniform weights every h_i errs 1/k; the first round takes h_0
    gap_fam, gap_cls, _ = gen_gap_example(4)
    trace = []
    md.hedge_learn(md.SampleOracle(gap_fam), gap_cls, 0.5, trace=trace)
    assert trace[0].hypothesis_index == 0
    assert md.opt_bruteforce(gap_cls, gap_fam) == (1.0, 0)


def loop_draw(member, size, rng):
    """The former per-member draw: inverse CDF over a fresh cumsum, then one
    label coin per draw."""
    mass, eta = member
    xs = np.searchsorted(np.cumsum(mass), rng.random(size), side="right")
    np.clip(xs, 0, len(mass) - 1, out=xs)
    return xs, np.where(rng.random(size) < eta[xs], 1, -1).astype(np.int8)


def test_oracle_draw_matches_the_former_draw():
    fam, _ = gen_random_label_consistent(md.GenSpec(**CLI_WIDE, seed=9))
    for seed, (i, member) in enumerate(list(enumerate(members(fam)))[:3]):
        got = md.SampleOracle(fam).draw(i, 5000, np.random.default_rng(seed))
        want = loop_draw(member, 5000, np.random.default_rng(seed))
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))
    # masses summing to a little under 1, which no family holds, through the
    # oracle's own table and draw: some uniforms land past the last
    # cumulative mass and are clipped to the last point
    short = np.array([0.25, 0.25, 0.5 - 1e-3]), np.array([0.1, 0.9, 0.5])
    cells, plus = _draw(_bucket_table(short[0][None]), short[1][None], 5000,
                        np.random.default_rng(3))
    xs, ys = loop_draw(short, 5000, np.random.default_rng(3))
    assert np.array_equal(cells[0, 0], xs) and np.array_equal(np.where(plus[0, 0], 1, -1), ys)
    assert np.any(np.random.default_rng(3).random(5000) >= np.cumsum(short[0])[-1])


class FixedUniforms:
    """An rng stand-in whose one random() call returns the given
    (rounds, r, 2, size) uniforms, so a test chooses every key."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u.copy()


def buckets_of(n):
    return 1 << (8 * n - 1).bit_length()


@st.composite
def bucket_problems(draw):
    """(r, n) masses built from runs of zeros, multiples of 1/G (cumulative
    masses on bucket edges), slivers of a bucket (several cumulative masses
    inside one bucket), subnormals and arbitrary floats, summing short of 1
    or a little over it; and one to three rounds of keys that include uniform
    floats, the cumulative masses, their neighbours and the bucket edges."""
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, 3))
    rounds = draw(st.integers(1, 3))
    G = buckets_of(n)
    piece = st.one_of(
        st.just(0.0),
        st.integers(1, G // n).map(lambda a: a / G),
        st.integers(1, 63).map(lambda a: a / (64 * G)),
        st.floats(0.0, 1.0 / G, allow_nan=False),
        st.integers(1, 1 << 20).map(lambda a: a * 5e-324),
        st.floats(0.0, 1.5 / n, allow_nan=False),
    )
    mass = np.array([draw(st.lists(piece, min_size=n, max_size=n)) for _ in range(r)])
    cum = np.cumsum(mass, axis=1)
    special = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.random((rounds, r, 2, special + draw(st.integers(0, 60))))
    for t in range(rounds):
        for i in range(r):
            pool = np.concatenate([cum[i], np.nextafter(cum[i], 0.0),
                                   np.nextafter(cum[i], 2.0), np.arange(G) / G])
            pool = pool[pool < 1.0]
            u[t, i, 0, :special] = draw(st.lists(st.sampled_from(pool.tolist()),
                                                 min_size=special, max_size=special))
    probs = np.array([draw(st.lists(unit, min_size=n, max_size=n)) for _ in range(r)])
    return mass, probs, u


@settings(max_examples=200, deadline=None)
@given(bucket_problems())
def test_bucket_lookup_is_searchsorted_then_clip(problem):
    mass, probs, u = problem
    rounds, r, _, size = u.shape
    n = mass.shape[1]
    cells, plus = _draw(_bucket_table(mass), probs, size, FixedUniforms(u), rounds)
    xs = cells - np.arange(r)[:, None] * n
    cum = np.cumsum(mass, axis=1)
    for t in range(rounds):
        for i in range(r):
            want = np.minimum(np.searchsorted(cum[i], u[t, i, 0], side="right"), n - 1)
            assert np.array_equal(xs[t, i], want)
            assert np.array_equal(plus[t, i], u[t, i, 1] < probs[i, want])


def test_bucket_lookup_edge_cases():
    # a subnormal mass followed by a run of zero masses; a cumulative mass
    # exactly on a bucket edge; masses summing short of 1; keys equal to
    # every cumulative mass; and n = 1
    G = buckets_of(5)
    mass = np.array([[5e-324, 0.0, 0.0, 1 / G, 0.5]])
    cum = np.cumsum(mass, axis=1)
    keys = np.concatenate([cum[0], [0.0, np.nextafter(1 / G, 0.0), 0.75]])
    u = np.stack([keys, np.full(keys.size, 0.5)])[None, None]
    cells, _ = _draw(_bucket_table(mass), np.full((1, 5), 0.5), keys.size, FixedUniforms(u))
    want = np.minimum(np.searchsorted(cum[0], keys, side="right"), 4)
    assert np.array_equal(cells[0, 0], want)
    assert cells[0, 0].tolist() == [3, 3, 3, 4, 4, 0, 3, 4]
    cells, _ = _draw(_bucket_table(np.array([[0.3]])), np.array([[1.0]]), 3,
                     FixedUniforms(np.array([[[[0.0, 0.3, 0.9], [0.0, 0.0, 0.0]]]])))
    assert cells.tolist() == [[[0, 0, 0]]]
    # two cumulative masses inside the last bucket, [31/32, 1)
    keys = np.array([[[[0.97, 0.993, 0.995, 0.999], [0.0] * 4]]])
    cells, _ = _draw(_bucket_table(np.array([[0.5, 0.5 - 1 / 128, 1 / 256]])),
                     np.zeros((1, 3)), 4, FixedUniforms(keys))
    assert cells.tolist() == [[[1, 2, 2, 2]]]
    # one cumulative mass inside a bucket, as entry 0 and as the last entry,
    # whose answers past it clip to n - 1; and two equal ones (a zero mass)
    # inside one bucket, searched
    G = buckets_of(3)
    for mass, keys, want in (
            ([0.5 / G, 0.5, 0.25], [0.0, 0.25 / G, 0.5 / G, 0.75 / G, 0.9], [0, 0, 1, 1, 2]),
            ([0.25, 0.5, 0.1 / G], [0.75, 0.75 + 0.05 / G, 0.75 + 0.1 / G, 0.99], [2, 2, 2, 2]),
            ([0.5 / G, 0.0, 0.5], [0.25 / G, 0.5 / G, 0.75 / G, 0.5 + 0.5 / G], [0, 2, 2, 2])):
        u = np.stack([keys, np.zeros(len(keys))])[None, None]
        cells, _ = _draw(_bucket_table(np.array([mass])), np.zeros((1, 3)), len(keys),
                         FixedUniforms(u))
        assert cells.tolist() == [[want]]
        assert np.array_equal(want, np.minimum(np.searchsorted(np.cumsum(mass), keys, "right"), 2))


C06 = dict(domain_size=40, k=6, hypothesis_count=16)
CLI_WIDE = dict(domain_size=1000, k=24, hypothesis_count=128)
ONE_MEMBER = dict(domain_size=30, k=1, hypothesis_count=8)


def block_of(shape, m=200):
    """The rounds sampling-mode Hedge draws in one _draw call at this shape."""
    return max(1, BLOCK_DRAWS // (shape["k"] * m))


@pytest.mark.parametrize("shape", [C06, CLI_WIDE], ids=["C06", "cli_wide"])
def test_block_draws_are_the_per_round_draws(shape):
    fam, _ = gen_random_label_consistent(md.GenSpec(**shape, seed=3))
    table = _bucket_table(fam.mass_matrix)
    probs = fam.label_prob_matrix
    block = block_of(shape)
    for rounds in (1, block - 1, block, block + 1, 57):
        rng, per_round = np.random.default_rng(rounds), np.random.default_rng(rounds)
        cells, plus = _draw(table, probs, 200, rng, rounds)
        assert cells.shape == plus.shape == (rounds, fam.k, 200)
        for t in range(rounds):
            want_cells, want_plus = _draw(table, probs, 200, per_round)
            assert np.array_equal(cells[t], want_cells[0])
            assert np.array_equal(plus[t], want_plus[0])
        assert rng.bit_generator.state == per_round.bit_generator.state


@st.composite
def tally_problems(draw):
    """A family, a block size and a per-member size on either side of a round
    boundary (k * size against the block), a member boundary (size against
    the block) or a boundary of a member's own blocks (size against twice the
    block), or any size up to three blocks; one to three rounds; and a PCG64
    or an MT19937 stream."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    block = draw(st.integers(1, 150))
    target = draw(st.sampled_from([block // k, block, 2 * block, None]))
    if target is None:
        size = draw(st.integers(1, 3 * block))
    else:
        size = max(1, target + draw(st.integers(-1, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rows with zero masses, made distributions again; a row that lost every
    # point keeps the first
    mass = rng.dirichlet(np.ones(n), size=k) * (rng.random((k, n)) < 0.8)
    mass[mass.sum(axis=1) == 0, 0] = 1.0
    fam = md.DistributionFamily(mass / mass.sum(axis=1, keepdims=True), rng.random((k, n)))
    bits = draw(st.sampled_from([np.random.PCG64, np.random.MT19937]))
    return fam, block, size, draw(st.integers(1, 3)), bits, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(tally_problems())
def test_tallies_are_bitwise_those_of_one_draw_call(problem):
    fam, block, size, rounds, bits, seed = problem
    k, n = fam.k, fam.domain_size
    rng, ref = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
    cells, plus = _draw(_bucket_table(fam.mass_matrix), fam.label_prob_matrix, size, ref, rounds)
    with mock.patch.object(learner, "BLOCK_DRAWS", block):
        got = list(learner._tallies(fam, size, rng, rounds))
    assert len(got) == rounds
    for (counts, pos), t in zip(got, range(rounds)):
        want_counts, want_pos = _tally(cells[t], plus[t], k, n)
        assert counts.shape == pos.shape == (k, n)
        assert counts.tobytes() == want_counts.tobytes() and pos.tobytes() == want_pos.tobytes()
    # an MT19937 state holds an array, so the streams are compared going on
    assert rng.bit_generator.random_raw(4).tolist() == ref.bit_generator.random_raw(4).tolist()


class BoundedRng:
    """A Generator stand-in that fails if one call asks for more than
    2 * BLOCK_DRAWS values."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def random(self, shape=None, out=None):
        assert np.prod(shape if out is None else out.shape) <= 2 * learner.BLOCK_DRAWS, shape
        return self.rng.random(shape, out=out)


# per-member sizes at C06's k = 6 that just overfill half a block in each way
# a block is cut: a round, a member, and a member of 3.5 blocks (blocks of
# one member's draws)
BLOCK_SIZES = {"rounds": lambda block: block // 12 + 1, "members": lambda block: block // 2 + 1,
               "two passes": lambda block: 7 * block // 2}


@pytest.mark.parametrize("cut", list(BLOCK_SIZES))
@pytest.mark.parametrize("block", [BLOCK_DRAWS, 64])
def test_no_draw_call_takes_more_than_two_blocks(block, cut, monkeypatch):
    fam, cls = gen_random_label_consistent(md.GenSpec(**C06, seed=4))
    m = BLOCK_SIZES[cut](block)
    cfg = md.DerandConfig(eps=0.15, delta=0.15, mode="calibrated", m_override=m)
    hedge_cfg = md.HedgeConfig(rounds=3, erm_sample_size=m)
    want_table = md.build_bias_table(fam, cfg, np.random.default_rng(1))
    want_mixture = md.hedge_learn(md.SampleOracle(fam, np.random.default_rng(2)),
                                  cls, 0.3, cfg=hedge_cfg)
    monkeypatch.setattr(learner, "BLOCK_DRAWS", block)
    table = md.build_bias_table(fam, cfg, BoundedRng(1))
    for name in ("points", "labels", "members", "rho", "counts"):
        assert np.array_equal(getattr(table, name), getattr(want_table, name))
    mixture = md.hedge_learn(md.SampleOracle(fam, BoundedRng(2)), cls, 0.3,
                             cfg=hedge_cfg)
    assert mixture.support == want_mixture.support
    assert np.array_equal(mixture.weights, want_mixture.weights)


def loop_bias_table(fam, cfg, rng):
    """The former build_bias_table: one loop_draw per member, each member's
    tallies on their own; point -> (label, member, rho, count), in member
    order."""
    n, m = fam.domain_size, cfg.sample_size(fam.k)
    threshold = cfg.threshold_scale * np.sqrt(np.log(cfg.gamma(fam.k)))
    entries = {}
    for i, member in enumerate(members(fam)):
        xs, ys = loop_draw(member, m, rng)
        counts = np.bincount(xs, minlength=n)
        pos = np.bincount(xs[ys == 1], minlength=n)
        for x in range(n):
            if counts[x] == 0 or x in entries:
                continue
            rho = (2.0 * pos[x] - counts[x]) / counts[x]
            if abs(rho) > threshold / np.sqrt(counts[x]):
                entries[x] = (1 if rho >= 0 else -1, i, float(rho), int(counts[x]))
    return entries


def test_one_pass_bias_table_is_the_member_loop():
    cases = [(md.GenSpec(**C06, seed=s), 5000, 1.0) for s in range(3)]
    cases += [(md.GenSpec(**CLI_WIDE, seed=3), 500, 0.3),
              (md.GenSpec(kind="heavy_point_probe", domain_size=60, k=4, seed=4), 2000, 1.0)]
    for seed, (spec, m, scale) in enumerate(cases):
        fam, _, _ = md.generate(spec)
        cfg = md.DerandConfig(eps=0.15, delta=0.15, mode="calibrated", m_override=m,
                              threshold_scale=scale)
        rng = np.random.default_rng(seed)
        table = md.build_bias_table(fam, cfg, rng)
        ref_rng = np.random.default_rng(seed)
        want = loop_bias_table(fam, cfg, ref_rng)
        assert len(want) > 0
        points = sorted(want)
        columns = [list(column) for column in zip(*(want[x] for x in points))]
        assert table.points.tolist() == points
        assert [table.labels.tolist(), table.members.tolist(), table.rho.tolist(),
                table.counts.tolist()] == columns
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def round_hedge(fam, cls, eps, cfg, rng=None):
    """The former Hedge rounds, for both modes: the exact mode recomputes
    exp(eta * errors) every round; the sampling mode (rng given) draws
    each member in turn, builds k empirical distributions, their mixture, and
    a per-member error loop. Returns the support, the weights and the trace
    rows as (hypothesis, errors, weights)."""
    rounds, eta = cfg.resolve(fam.k, eps)
    table = loop_error_table(cls, fam) if rng is None else None
    w = np.full(fam.k, 1.0 / fam.k)
    counts, rows = {}, []
    for _ in range(rounds):
        if rng is None:
            h = int(np.argmin(table @ w))
            errs = table[h]
        else:
            empirical = [
                EmpiricalSample(*loop_draw(m, cfg.erm_sample_size, rng),
                                fam.domain_size).to_distribution()
                for m in members(fam)]
            empirical = [(m.mass, m.label_one_prob) for m in empirical]
            emp = md.DistributionFamily(*zip(*empirical))
            h = erm(cls, loop_mixture(emp, w))
            errs = np.array([loop_error_terms(cls.label_matrix[h], m).sum()
                             for m in empirical])
        counts[h] = counts.get(h, 0) + 1
        rows.append((h, errs, w))
        w = w * np.exp(eta * errs)
        w = w / w.sum()
    support = tuple(sorted(counts))
    return support, np.array([counts[i] / rounds for i in support]), rows


# (shape, eps, HedgeConfig fields, seed, sampling, every hypothesis twice);
# the exact C06 cases run at the derandomizer's eps/2, the cli_wide ones at
# the eps the CLI session uses (learn --sampling at 0.6, derand at 0.6 / 2)
LEAN_CASES = (
    [(C06, 0.075, {}, seed, False, False) for seed in range(4)]
    + [(CLI_WIDE, 0.3, {}, 0, False, False),
       (C06, 0.2, {}, 5, False, True),
       (ONE_MEMBER, 0.2, {}, 6, False, False),
       (C06, 0.3, dict(rounds=57, eta=0.9), 7, False, False),
       (C06, 0.6, {}, 0, True, False),
       (C06, 0.4, {}, 1, True, False),
       (CLI_WIDE, 0.6, {}, 2, True, False),
       (CLI_WIDE, 0.4, dict(erm_sample_size=50), 3, True, False),
       (C06, 0.4, {}, 4, True, True),
       (ONE_MEMBER, 0.3, {}, 5, True, False),
       (C06, 0.3, dict(rounds=40, eta=2.5, erm_sample_size=37), 6, True, False)]
    # sampling rounds that end one short of a draw block, on it, and one past it
    + [(C06, 0.4, dict(rounds=block_of(C06) + d), 7 + d, True, False) for d in (-1, 0, 1)])


def lean_id(case):
    shape, eps, fields, seed, sampling, doubled = case
    return "-".join([("sampling" if sampling else "exact"),
                     f"n{shape['domain_size']}k{shape['k']}", f"eps{eps}", f"seed{seed}"]
                    + [f"{key}{value}" for key, value in fields.items()]
                    + (["doubled"] if doubled else []))


@pytest.mark.parametrize("shape,eps,fields,seed,sampling,doubled", LEAN_CASES,
                         ids=[lean_id(case) for case in LEAN_CASES])
def test_lean_rounds_match_the_former_rounds(shape, eps, fields, seed, sampling, doubled):
    fam, cls = gen_random_label_consistent(md.GenSpec(**shape, seed=seed))
    if doubled:
        cls = md.HypothesisClass(np.vstack([cls.label_matrix] * 2))
    cfg = md.HedgeConfig(**fields)
    if sampling:
        oracle = md.SampleOracle(fam, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        want = round_hedge(fam, cls, eps, cfg, replay)
    else:
        oracle = md.SampleOracle(fam)
        want = round_hedge(fam, cls, eps, cfg)
    trace = []
    F = md.hedge_learn(oracle, cls, eps, cfg=cfg, trace=trace)
    support, weights, rows = want
    assert F.support == support
    assert np.array_equal(F.weights, weights)
    assert len(trace) == len(rows)
    for t, (got, (h, errs, w)) in enumerate(zip(trace, rows)):
        assert (got.round, got.hypothesis_index) == (t, h)
        assert np.array_equal(got.error, errs)
        assert np.array_equal(got.weight, w)
    if doubled:
        assert max(support) < len(cls) // 2
    if sampling:
        assert oracle.rng.bit_generator.state == replay.bit_generator.state


def exact_hedge(errors, rounds, eta):
    """B exact-Hedge runs on a (B, |H|, k) stack, all started together: the
    (rounds, B) choices and each round's (B, k) weights, from the stack's
    log, after checking the stack's counts against the logged choices."""
    B, H, k = errors.shape
    stack = HedgeStack(B, H, k, eta)
    for b in range(B):
        stack.load(b, errors[b])
    log = []
    stack.advance(rounds, log=log)
    chosen = np.array([h for h, _ in log])
    for b in range(B):
        assert np.array_equal(stack.counts[b], np.bincount(chosen[:, b], minlength=H))
    return chosen, [w for _, w in log]


# choice blocks of 7 rounds split the tallies inside a step and inside a
# leaving run's last rounds
CHOICE_BLOCKS = (learner.CHOICE_BLOCK, 7)
# (|H|, k, B): the C06 campaign stack, wider classes and more members, one
# member, one hypothesis, and |H| = 256 and 257
STACKS = [(16, 6, 50), (128, 24, 8), (64, 16, 16), (4, 2, 20), (7, 1, 5), (256, 50, 4),
          (257, 3, 4), (1, 3, 4)]
BLAS_MESSAGE = ("with this numpy/BLAS build a stacked matmul is not bitwise equal to np.dot, "
                "so a chunked campaign would not reproduce hedge_learn's mixtures")
LOOP_MESSAGE = ("the stacked exact-Hedge loop is not bit for bit the one-run loop, so a "
                "chunked campaign would not reproduce hedge_learn's mixtures")


@pytest.mark.parametrize("H,k,B", STACKS, ids=[f"H{h}-k{k}-B{b}" for h, k, b in STACKS])
def test_stacked_exact_hedge_is_bitwise_the_one_run_loop(H, k, B, monkeypatch):
    eps = 0.075 if (H, k) == (16, 6) else 0.3
    cfg = md.HedgeConfig()
    rounds, eta = cfg.resolve(k, eps)
    instances = [gen_random_label_consistent(md.GenSpec(domain_size=30, k=k,
                                                        hypothesis_count=H, seed=seed))
                 for seed in range(B)]
    errors = np.stack([md.error_matrix(plus_rows(cls.label_matrix), fam)
                       for fam, cls in instances])
    reference = [round_hedge(fam, cls, eps, cfg)[2] for fam, cls in instances]
    for block in CHOICE_BLOCKS:
        monkeypatch.setattr(learner, "CHOICE_BLOCK", block)
        chosen, log = exact_hedge(errors, rounds, eta)
        assert chosen.shape == (rounds, B) and len(log) == rounds
        # the product itself, on the weights of the first rounds: a stacked
        # matmul that differs from np.dot in the last bit can flip a near-tie
        for w in log[:50]:
            stacked = np.matmul(errors, w[:, :, None])[:, :, 0]
            assert all(np.array_equal(stacked[b], np.dot(errors[b], w[b])) for b in range(B)), \
                BLAS_MESSAGE
        for b, rows in enumerate(reference):
            alone, alone_log = exact_hedge(errors[b:b + 1], rounds, eta)
            for got, got_log in ((chosen[:, b], [w[b] for w in log]),
                                 (alone[:, 0], [w[0] for w in alone_log])):
                assert np.array_equal(got, [h for h, _, _ in rows]), LOOP_MESSAGE
                assert all(np.array_equal(w, want) for w, (_, _, want) in zip(got_log, rows)), \
                    LOOP_MESSAGE


@pytest.mark.parametrize("H,k,B", [(16, 6, 5), (257, 3, 3)], ids=["H16-k6-B5", "H257-k3-B3"])
def test_runs_entering_a_stack_late_are_bitwise_runs_alone(H, k, B, monkeypatch):
    # 3 * B runs through B slots, each entering `step` rounds after the one
    # before, so slots are reused; each leaves after `last` rounds of its
    # B-th step, its T-th round, as in rolling_mixtures
    cfg = md.HedgeConfig()
    rounds, eta = cfg.resolve(k, 0.3)
    step = -(-rounds // B)
    last = rounds - (B - 1) * step
    assert 0 < last <= step
    errors = [md.error_matrix(plus_rows(cls.label_matrix), fam) for fam, cls in
              (gen_random_label_consistent(md.GenSpec(domain_size=30, k=k,
                                                      hypothesis_count=H, seed=seed))
               for seed in range(3 * B))]
    for block in CHOICE_BLOCKS:
        monkeypatch.setattr(learner, "CHOICE_BLOCK", block)
        stack = HedgeStack(B, H, k, eta)
        log = []
        for j, e in enumerate(errors):
            stack.load(j % B, e)
            if j < B - 1:
                stack.advance(step, log=log)
                continue
            stack.advance(last, log=log)
            slot, first = (j + 1) % B, (j - B + 1) * step
            alone = exact_hedge(errors[j - B + 1][None], rounds, eta)[0][:, 0]
            assert np.array_equal([h[slot] for h, _ in log[first:]], alone), LOOP_MESSAGE
            assert np.array_equal(stack.counts[slot], np.bincount(alone, minlength=H))
            stack.advance(step - last, log=log)


def test_rolling_mixtures_are_hedge_learn_alone(monkeypatch):
    cfg = md.HedgeConfig()
    instances = [gen_random_label_consistent(md.GenSpec(domain_size=40, k=6, seed=seed))
                 for seed in range(9)]
    want = [md.hedge_learn(md.SampleOracle(fam), cls, 0.2, cfg=cfg)
            for fam, cls in instances]
    for block in CHOICE_BLOCKS:
        monkeypatch.setattr(learner, "CHOICE_BLOCK", block)
        for runs in (1, 4, 32):
            got = list(rolling_mixtures(((j, fam, cls) for j, (fam, cls) in enumerate(instances)),
                                        0.2, cfg, runs))
            assert [key for key, *_ in got] == list(range(9))
            assert all(seconds >= 0.0 for *_, seconds in got)
            for (j, fam, cls, F, _), G in zip(got, want):
                assert fam is instances[j][0] and cls is instances[j][1]
                assert F.support == G.support and np.array_equal(F.weights, G.weights)
                assert np.array_equal(class_errors(cls, fam),
                                      md.error_matrix(plus_rows(cls.label_matrix), fam))
    assert list(rolling_mixtures([], 0.2, cfg)) == []


def test_after_the_last_item_a_stack_plays_only_the_runs_left(monkeypatch):
    # it kept playing every slot below min(loads, slots) until the last run
    # left, the slots of runs that had left included; the first run's trace
    # follows it when the runs left move to the first slots
    cfg = md.HedgeConfig()
    instances = [gen_random_label_consistent(md.GenSpec(domain_size=40, k=6, seed=seed))
                 for seed in range(9)]
    want = []
    md.hedge_learn(md.SampleOracle(instances[0][0]), instances[0][1], 0.2, cfg=cfg, trace=want)
    advance, mixture = HedgeStack.advance, learner.uniform_mixture
    drained, reads, calls = [], [], []

    def counted_advance(self, rounds, active=None, log=None):
        if drained:
            calls.append((active, len(instances) - len(reads)))
        advance(self, rounds, active, log)

    def counted_mixture(cls, picks):
        reads.append(cls)
        return mixture(cls, picks)

    def items():
        yield from ((j, fam, cls) for j, (fam, cls) in enumerate(instances))
        drained.append(True)

    monkeypatch.setattr(HedgeStack, "advance", counted_advance)
    monkeypatch.setattr(learner, "uniform_mixture", counted_mixture)
    # T = 359: 9 runs through 4 slots of 90 rounds a step leave 3 runs after
    # the last item, each leaving at a step split in two; through 30 slots of
    # 12 rounds, all 9 are left, 20 steps before the first leaves
    for runs, advances in ((4, 3 * 2), (32, 20 + 9 * 2)):
        drained.clear(), reads.clear(), calls.clear()
        trace = []
        got = list(rolling_mixtures(items(), 0.2, cfg, runs, trace))
        assert [key for key, *_ in got] == list(range(9))
        assert trace == want
        assert len(calls) == advances
        assert all(active == left for active, left in calls)


def test_an_error_matrix_of_another_shape_is_rejected():
    (fam6, cls6), (fam1, cls1) = (
        gen_random_label_consistent(md.GenSpec(domain_size=12, k=k, hypothesis_count=4,
                                               seed=3)) for k in (6, 1))
    stack = HedgeStack(2, 4, 6, 0.5)
    with pytest.raises(ValueError, match=r"\(4, 1\).*\(4, 6\)"):
        stack.load(0, md.error_matrix(plus_rows(cls1.label_matrix), fam1))
    # a k = 1 item after a k = 6 one was once broadcast across the six members
    items = [(0, fam6, cls6), (1, fam1, cls1)]
    with pytest.raises(ValueError, match=r"\(4, 1\).*\(4, 6\)"):
        list(rolling_mixtures(items, 0.3, md.HedgeConfig(), 4))


def test_exact_hedge_memory_does_not_grow_with_the_rounds():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=12, k=2, hypothesis_count=4,
                                                      seed=1))
    oracle = md.SampleOracle(fam)

    def peak(rounds):
        tracemalloc.start()
        try:
            md.hedge_learn(oracle, cls, 0.3, cfg=md.HedgeConfig(rounds=rounds))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2_000)  # warm caches and imports
    assert peak(50_000) - peak(2_000) <= 64 * 1024


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 40), st.floats(1e-6, 50.0),
       st.integers(0, 2**32 - 1))
def test_exp_table_rows_equal_exp_of_each_row(rows, k, eta, seed):
    errors = np.random.default_rng(seed).random((rows, k))
    table = np.exp(eta * errors)
    for h in range(rows):
        assert np.array_equal(table[h].view(np.int64), np.exp(eta * errors[h]).view(np.int64))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_one_batched_draw_uses_the_stream_as_k_pairs_of_draws(k, m, seed):
    batched = np.random.default_rng(seed).random((k, 2, m))
    rng = np.random.default_rng(seed)
    pairs = np.array([[rng.random(m), rng.random(m)] for _ in range(k)])
    assert np.array_equal(batched, pairs)
    # and both leave the stream at the same place
    assert rng.random() == np.random.default_rng(seed).random(2 * k * m + 1)[-1]
