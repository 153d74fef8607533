import dataclasses
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidist as md
from multidist import learner
from multidist.instances import gen_gap_example, gen_random_label_consistent
from multidist.learner import (EmpiricalSample, _mixture, _tallies, erm, rolling_mixtures,
                               uniform_mixture)
from multidist.metrics import class_errors, plus_rows

from helpers import game_value


def one_member(mass, label_one_prob) -> md.SampleOracle:
    """An exact-mode oracle over the one-member family (mass, label_one_prob)."""
    return md.SampleOracle(md.DistributionFamily([mass], [label_one_prob]))


def test_draw_point_mass_always_hits():
    oracle = one_member([0, 0, 0, 1.0], [0.5, 0.5, 0.5, 1.0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        xs, ys = oracle.draw(0, 1, rng)
        assert (xs.tolist(), ys.tolist()) == ([3], [1])


def test_draw_label_zero_prob_gives_minus():
    xs, ys = one_member([0.5, 0.5], [0.0, 0.0]).draw(0, 200, np.random.default_rng(1))
    assert np.all(ys == -1)


def test_draw_uniform_frequencies():
    xs, _ = one_member([0.25] * 4, [0.5] * 4).draw(0, 100_000, np.random.default_rng(2))
    freqs = np.bincount(xs, minlength=4) / 100_000
    assert np.all(np.abs(freqs - 0.25) < 0.01)  # ~7 sigma at this sample size


def test_draw_label_frequency_matches_eta():
    _, ys = one_member([1.0], [0.7]).draw(0, 100_000, np.random.default_rng(3))
    sigma = math.sqrt(0.7 * 0.3 / 100_000)
    assert abs(np.mean(ys == 1) - 0.7) < 3 * sigma + 1e-9


def test_erm_picks_zero_error_hypothesis():
    cls = md.HypothesisClass([[-1, 1], [1, 1]])
    assert erm(cls, ([0.5, 0.5], [1.0, 1.0])) == 1
    with pytest.raises(ValueError, match="domain size mismatch"):
        erm(cls, ([0.5, 0.5, 0.0], [1.0, 1.0, 1.0]))


def test_erm_gap_example_tie_breaks_low():
    fam, cls, _ = gen_gap_example(4)
    w = np.full(4, 0.25)
    mixture = _mixture(fam.mass_matrix, fam.label_prob_matrix, w)
    # every h_i has mixture error 1/k; lowest index wins
    assert erm(cls, mixture) == 0


def test_erm_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = 7
        mass = rng.random(n)
        mass /= mass.sum()
        eta = rng.random(n)
        cls = md.HypothesisClass([np.where(rng.random(n) < 0.5, 1, -1) for _ in range(8)])
        errors = md.error_matrix(plus_rows(cls.label_matrix),
                                 md.DistributionFamily([mass], [eta]))[:, 0]
        assert erm(cls, (mass, eta)) == int(np.argmin(errors))


def test_erm_empirical_sample_equals_empirical_distribution():
    rng = np.random.default_rng(4)
    xs = rng.integers(0, 5, size=100)
    ys = np.where(rng.random(100) < 0.5, 1, -1).astype(np.int8)
    empirical = EmpiricalSample(xs, ys, 5).to_distribution()
    cls = md.HypothesisClass([np.where(rng.random(5) < 0.5, 1, -1) for _ in range(6)])
    # the 0-1 loss on the sample itself, lowest index on ties
    mistakes = (cls.label_matrix[:, xs] != ys).sum(axis=1)
    assert erm(cls, (empirical.mass, empirical.label_one_prob)) == int(np.argmin(mistakes))


def test_empirical_sample_rejects_points_outside_the_domain():
    for point in (5, 7, -1):
        with pytest.raises(ValueError, match=r"sample points must lie in \[0, 5\)"):
            EmpiricalSample([0, point], [1, 1], 5)
    assert EmpiricalSample([0, 4], [1, -1], 5).to_distribution().mass.tolist() == [
        0.5, 0.0, 0.0, 0.0, 0.5]


def test_empirical_sample_rejects_non_integer_points_and_labels():
    for xs in ([2.7, 0.2], [np.nan, 1], [np.inf, 1]):
        with pytest.raises(ValueError, match="sample points must be integers"):
            EmpiricalSample(xs, [1, 1], 5)
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        EmpiricalSample([0, 1], [1.5, -1], 5)
    assert EmpiricalSample([2.0, 0.0], [1, -1], 5).xs.tolist() == [2, 0]


@pytest.mark.parametrize("draws", [1, 100_000])
def test_empirical_distributions_pass_the_family_row_check(draws):
    rng = np.random.default_rng(draws)
    for n in (1, 5, 1000):
        xs = rng.integers(0, n, size=draws)
        ys = np.where(rng.random(draws) < 0.3, 1, -1)
        dist = EmpiricalSample(xs, ys, n).to_distribution()
        assert np.array_equal(dist.mass, np.bincount(xs, minlength=n) / draws)
        assert abs(dist.mass.sum() - 1.0) <= 1e-12


def test_an_empty_sample_has_no_empirical_distribution():
    sample = EmpiricalSample(np.array([], dtype=int), np.array([], dtype=np.int8), 3)
    with pytest.raises(ValueError, match="empty sample"):
        sample.to_distribution()


def test_mixture_error_is_weighted_member_error():
    rng = np.random.default_rng(7)
    masses = rng.random((3, 6))
    masses /= masses.sum(axis=1, keepdims=True)
    fam = md.DistributionFamily(masses, rng.random((3, 6)))
    w = rng.random(3)
    w /= w.sum()
    mixture = _mixture(fam.mass_matrix, fam.label_prob_matrix, w)
    assert [a.shape for a in mixture] == [(6,), (6,)]
    plus = plus_rows(np.where(rng.random(6) < 0.5, 1, -1))
    direct = w @ md.error_matrix(plus, fam)
    one = md.DistributionFamily(*(a[None] for a in mixture))
    assert md.error_matrix(plus, one)[0] == pytest.approx(direct, abs=1e-13)


def test_hedge_config_defaults():
    cfg = md.HedgeConfig()
    rounds, eta = cfg.resolve(6, 0.15)
    assert rounds == math.ceil(8 * math.log(6) / 0.15**2)
    assert eta == pytest.approx(math.sqrt(8 * math.log(6) / rounds))
    with pytest.raises(ValueError):
        md.HedgeConfig(rounds=0).resolve(6, 0.15)
    for eta in (-1.0, 0.0, math.nan, math.inf, True, np.True_):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            md.HedgeConfig(eta=eta).resolve(6, 0.15)
    # past ln(DBL_MAX / k) a round's weight sum, at most k e^eta, can overflow
    bound = math.log(sys.float_info.max / 6)
    assert md.HedgeConfig(eta=bound).resolve(6, 0.15)[1] == bound
    for eta in (math.nextafter(bound, math.inf), 800.0, 1e308):
        with pytest.raises(ValueError, match=r"eta must be at most ln\(DBL_MAX / k\)"):
            md.HedgeConfig(eta=eta).resolve(6, 0.15)
    # a bool would run as 1 round or 1 sample, and a fraction would fail deep
    # in the sampling rounds; an integral float names its integer
    for field in ("rounds", "erm_sample_size"):
        for value in (True, 10.5, "10", math.inf):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                md.HedgeConfig(**{field: value})
        assert getattr(md.HedgeConfig(**{field: 10.0}), field) == 10
    cfg = md.HedgeConfig(rounds=np.int64(12), erm_sample_size=30.0)
    assert cfg.resolve(6, 0.15)[0] == 12 and type(cfg.erm_sample_size) is int


def test_hedge_rounds_and_erm_draws_stop_at_their_exactness_limits():
    # eps 1e-200 divided by eps**2 = 0.0 and 1e-160 took the ceil of inf;
    # 5e-10 gave 5.7e19 rounds, past the intp counts of a run's picks
    from multidist.learner import DRAWS_LIMIT, ROUNDS_LIMIT

    assert ROUNDS_LIMIT == np.iinfo(np.intp).max and DRAWS_LIMIT == 2**53
    assert md.HedgeConfig(rounds=ROUNDS_LIMIT).resolve(6, 0.15)[0] == ROUNDS_LIMIT
    with pytest.raises(ValueError, match=f"^rounds must be at most ROUNDS_LIMIT = "
                                         f"{ROUNDS_LIMIT}, got {ROUNDS_LIMIT + 1}$"):
        md.HedgeConfig(rounds=ROUNDS_LIMIT + 1).resolve(6, 0.15)

    def fits(eps):
        try:
            return md.HedgeConfig().resolve(6, eps)[0]
        except ValueError:
            return None

    # bisect for the least eps whose derived T fits: adjacent floats, T
    # within a few ulps of the limit at the one, past it at the other
    eps, fit = 1e-300, 1e-3
    while (mid := (eps + fit) / 2) not in (eps, fit):
        eps, fit = (eps, mid) if fits(mid) else (mid, fit)
    assert fit == math.nextafter(eps, 1.0)
    assert ROUNDS_LIMIT - 2**13 < fits(fit) <= ROUNDS_LIMIT
    for tiny in (eps, 5e-10, 1e-160, 1e-200, 5e-324):
        with pytest.raises(ValueError, match=f"^Hedge at eps = {tiny!r} needs .* rounds at "
                                             f"k = 6, more than ROUNDS_LIMIT = {ROUNDS_LIMIT}; "
                                             "its eps must be at least about 1.25e-09$"):
            md.HedgeConfig().resolve(6, tiny)
    assert md.HedgeConfig(erm_sample_size=DRAWS_LIMIT).resolve(6, 0.15)
    with pytest.raises(ValueError, match=f"^erm_sample_size must be at most DRAWS_LIMIT = "
                                         f"2\\^53, got {DRAWS_LIMIT + 1}$"):
        md.HedgeConfig(erm_sample_size=DRAWS_LIMIT + 1).resolve(6, 0.15)


def test_hedge_realizable_instance():
    # constant +1 is perfect; the mixture must be eps-good
    rng = np.random.default_rng(7)
    masses = rng.random((3, 10))
    masses /= masses.sum(axis=1, keepdims=True)
    fam = md.DistributionFamily(masses, np.ones((3, 10)))
    cls = md.HypothesisClass([np.where(rng.random(10) < 0.5, 1, -1), np.ones(10)])
    F = md.hedge_learn(md.SampleOracle(fam), cls, 0.1)
    assert md.randomized_worst_case_error(F, fam) <= 0.1


def test_hedge_gap_example_near_uniform():
    fam, cls, _ = gen_gap_example(4)
    F = md.hedge_learn(md.SampleOracle(fam), cls, 0.2)
    err = md.randomized_worst_case_error(F, fam)
    opt, _ = md.opt_bruteforce(cls, fam)
    assert opt == 1.0
    assert err <= opt + 0.2
    assert err <= 0.5  # far better than any single hypothesis


def test_hedge_contract_on_random_instances():
    # 20 seeded instances at |X|=40, k=6, |H|=16, eps=0.15, exact mode
    eps = 0.15
    for seed in range(20):
        fam, cls = gen_random_label_consistent(
            md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=seed))
        F = md.hedge_learn(md.SampleOracle(fam), cls, eps)
        opt, _ = md.opt_bruteforce(cls, fam)
        assert md.randomized_worst_case_error(F, fam) <= opt + eps


def test_hedge_weights_stay_on_simplex():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=20, k=5, seed=3))
    trace = []
    md.hedge_learn(md.SampleOracle(fam), cls, 0.3, trace=trace)
    assert len(trace) >= 1
    for row in trace:
        w = np.array(row.weight)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0)


def test_hedge_no_regret_sanity():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=30, k=6, seed=9))
    trace = []
    F = md.hedge_learn(md.SampleOracle(fam), cls, 0.2, trace=trace)
    opt, _ = md.opt_bruteforce(cls, fam)
    rounds = len(trace)
    avg_play = np.mean([
        np.dot(row.weight, row.error) for row in trace
    ])
    assert avg_play <= opt + 3.0 * math.sqrt(math.log(fam.k) / rounds)


def test_hedge_monotone_under_class_superset():
    eps = 0.2
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=25, k=4,
                                                      hypothesis_count=8, seed=14))
    rng = np.random.default_rng(100)
    extra = [np.where(rng.random(25) < 0.5, 1, -1) for _ in range(4)]
    bigger = md.HypothesisClass(np.vstack([cls.label_matrix, *extra]))
    opt_small, _ = md.opt_bruteforce(cls, fam)
    opt_big, _ = md.opt_bruteforce(bigger, fam)
    assert opt_big <= opt_small
    F = md.hedge_learn(md.SampleOracle(fam), bigger, eps)
    assert md.randomized_worst_case_error(F, fam) <= opt_big + eps


def test_hedge_returns_merged_uniform_average():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=15, k=3, seed=5))
    cfg = md.HedgeConfig(rounds=40)
    trace = []
    F = md.hedge_learn(md.SampleOracle(fam), cls, 0.3, cfg=cfg, trace=trace)
    counts = {}
    for row in trace:
        counts[row.hypothesis_index] = counts.get(row.hypothesis_index, 0) + 1
    assert set(F.support) == set(counts)
    for idx, w in zip(F.support, F.weights):
        assert w == pytest.approx(counts[idx] / 40)
    assert abs(F.weights.sum() - 1.0) <= 1e-12


def test_hedge_exact_mode_deterministic():
    fam, cls = gen_random_label_consistent(md.GenSpec(seed=8))
    oracle = md.SampleOracle(fam)
    F1 = md.hedge_learn(oracle, cls, 0.2)
    F2 = md.hedge_learn(oracle, cls, 0.2)
    assert F1.support == F2.support
    assert np.array_equal(F1.weights, F2.weights)


def test_an_oracle_is_exact_when_it_has_no_stream_of_its_own():
    fam, _ = gen_random_label_consistent(md.GenSpec(domain_size=12, k=3, seed=6))
    assert md.SampleOracle(fam).exact
    assert not md.SampleOracle(fam, np.random.default_rng(0)).exact


def test_hedge_sampling_mode_deterministic_given_seed():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=12, k=3, seed=6))
    cfg = md.HedgeConfig(rounds=30, erm_sample_size=50)
    runs = []
    for _ in range(2):
        oracle = md.SampleOracle(fam, np.random.default_rng(77))
        runs.append(md.hedge_learn(oracle, cls, 0.3, cfg=cfg))
    assert runs[0].support == runs[1].support
    assert np.array_equal(runs[0].weights, runs[1].weights)


def test_hedge_sampling_mode_learns_realizable():
    rng = np.random.default_rng(15)
    masses = rng.random((3, 8))
    masses /= masses.sum(axis=1, keepdims=True)
    fam = md.DistributionFamily(masses, np.ones((3, 8)))
    cls = md.HypothesisClass([np.where(rng.random(8) < 0.5, 1, -1), np.ones(8)])
    oracle = md.SampleOracle(fam, np.random.default_rng(16))
    F = md.hedge_learn(oracle, cls, 0.2, cfg=md.HedgeConfig(erm_sample_size=100))
    assert md.randomized_worst_case_error(F, fam) <= 0.2


# HiGHS's default feasibility tolerance: game_value's V is exact to about this
TOL = 1e-7


@st.composite
def games(draw):
    """Three random label-consistent instances of one shape (k from 2 to 8,
    |H| at most 32, n at most 60), a learner precision eps in [0.05, 0.5] and
    a seed for weights on the members."""
    spec = md.GenSpec(domain_size=draw(st.integers(1, 60)), k=draw(st.integers(2, 8)),
                      hypothesis_count=draw(st.integers(1, 32)),
                      seed=draw(st.integers(0, 2**32 - 3)))
    instances = [gen_random_label_consistent(dataclasses.replace(spec, seed=spec.seed + j))
                 for j in range(3)]
    return instances, draw(st.floats(0.05, 0.5)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(games())
def test_exact_hedge_is_within_eps_over_4_of_the_game_value(game):
    # at the default T and eta the weights player's average regret is at most
    # sqrt(ln k / (2T)) <= eps/4 and each best response scores at most V, so
    # the uniform mixture's worst case is at most V + eps/4 (Freund & Schapire
    # 1999); OPT, the best single hypothesis, can lie further above V
    instances, eps, seed = game
    fam, cls = instances[0]
    values = [game_value(f, c) for f, c in instances]
    worst = md.randomized_worst_case_error(md.hedge_learn(md.SampleOracle(fam), cls, eps), fam)
    assert values[0] - TOL <= worst <= values[0] + eps / 4 + TOL
    rolled = list(rolling_mixtures(((j, f, c) for j, (f, c) in enumerate(instances)),
                                   *md.HedgeConfig().resolve(fam.k, eps)))
    assert [key for key, *_ in rolled] == [0, 1, 2]
    for (_, f, c, mixture, _), value in zip(rolled, values):
        assert md.randomized_worst_case_error(mixture, f) <= value + eps / 4 + TOL
        assert value <= md.opt_bruteforce(c, f)[0] + TOL
    # any weights on the members give a lower bound on V
    for w in np.random.default_rng(seed).dirichlet(np.ones(fam.k), 8):
        assert (class_errors(cls, fam) @ w).min() <= values[0] + TOL


def test_sampling_oracle_draws_from_its_own_stream():
    fam, _ = gen_random_label_consistent(md.GenSpec(domain_size=12, k=2, seed=4))
    a = md.SampleOracle(fam, np.random.default_rng(0))
    b = md.SampleOracle(fam, np.random.default_rng(0))
    xs, ys = a.draw(1, 50)
    # the caller's rng is ignored
    xs_b, ys_b = b.draw(1, 50, rng=np.random.default_rng(99))
    assert np.array_equal(xs, xs_b) and np.array_equal(ys, ys_b)


FULL_16 = md.full_labeling_class(16)


@st.composite
def pick_counts(draw):
    """picks[h] for the 2^16 hypotheses of full_labeling_class(16): a support
    of 1 to 2^16 hypotheses, each chosen 1 to 2^50 times, in all fewer than
    2^63 times (the intp counts' range), as random, equal or extreme counts."""
    size = draw(st.sampled_from([1, 2, 3, 1 << 13, 1 << 16]) | st.integers(1, 1 << 16))
    top = min(1 << 50, (2**63 - 1) // size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "equal", "extreme"]))
    if kind == "random":
        counts = rng.integers(1, top, size, endpoint=True)
    elif kind == "equal":
        counts = np.full(size, draw(st.sampled_from([1, 3, top])))
    else:
        counts = np.where(rng.random(size) < 0.5, 1, top)
    picks = np.zeros(len(FULL_16), dtype=np.intp)
    picks[np.sort(rng.choice(len(FULL_16), size, replace=False))] = counts
    return picks


@settings(max_examples=100, deadline=None)
@given(pick_counts())
def test_uniform_mixtures_always_pass_the_weight_check(picks):
    # each quotient c / sum(picks) rounds within 2^-53 relative, so the
    # weights sum to 1 far inside WEIGHT_TOL, and a learned mixture is always
    # one that can be built
    f_rand = uniform_mixture(FULL_16, picks)
    assert f_rand.support == tuple(np.flatnonzero(picks).tolist())
    assert abs(float(f_rand.weights.sum()) - 1.0) <= 1e-13


@pytest.mark.parametrize("mass", [[0.25, math.nan, 0.5], [0.25, math.inf, 0.5],
                                  [0.25, -0.25, 0.5], [1e308, 1e308, 0.0]])
def test_bad_masses_are_rejected_before_any_draw(mass):
    # no family, and so no oracle, holds masses that cannot be sampled; the
    # last masses are finite but their sum is not
    for i, build in ((1, lambda: md.DistributionFamily([[0.5, 0.25, 0.25], mass],
                                                       [[0.5] * 3] * 2)),
                     (0, lambda: one_member(mass, [0.5] * 3))):
        kinds = ", point 1: negative mass|: non-finite mass entries|: mass sum inf"
        with pytest.raises(ValueError, match=rf"^member {i}({kinds})"):
            build()


def test_tallies_are_those_of_consecutive_member_draws():
    fam, _ = gen_random_label_consistent(md.GenSpec(domain_size=12, k=3, seed=5))
    rng = np.random.default_rng(1)
    tallies = list(_tallies(fam, 40, rng, 2))
    replay = np.random.default_rng(1)
    assert len(tallies) == 2
    for counts, pos in tallies:
        for i in range(fam.k):
            xs, ys = md.SampleOracle(fam).draw(i, 40, replay)
            assert np.array_equal(counts[i], np.bincount(xs, minlength=12))
            assert np.array_equal(pos[i], np.bincount(xs[ys == 1], minlength=12))
    assert rng.bit_generator.state == replay.bit_generator.state


def _keep_the_points_tallies(fam, size, rng):
    """One round of _tallies for members larger than a block, as two passes
    over the stream: every point of a member in one array, then its labels."""
    k, n = fam.k, fam.domain_size
    counts, pos = np.zeros((2, k, n))
    for i in range(k):
        xs = np.minimum(np.searchsorted(np.cumsum(fam.mass_matrix[i]), rng.random(size), "right"),
                        n - 1)
        counts[i] = np.bincount(xs, minlength=n)
        pos[i] = np.bincount(xs, rng.random(size) < fam.label_prob_matrix[i][xs], n)
    return counts, pos


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937, np.random.Philox,
                                  np.random.SFC64])
def test_tallies_of_a_member_larger_than_a_block_keep_no_points(bits, monkeypatch):
    fam, _ = gen_random_label_consistent(md.GenSpec(domain_size=12, k=3, seed=5))
    monkeypatch.setattr(learner, "BLOCK_DRAWS", 64)
    for size in (65, 128, 129, 500):
        rng, ref = np.random.Generator(bits(size)), np.random.Generator(bits(size))
        counts, pos = next(_tallies(fam, size, rng))
        want_counts, want_pos = _keep_the_points_tallies(fam, size, ref)
        assert counts.tobytes() == want_counts.tobytes() and pos.tobytes() == want_pos.tobytes()
        # the stream goes on where the two passes left it
        assert rng.bit_generator.random_raw(4).tolist() == ref.bit_generator.random_raw(4).tolist()


def test_tallies_memory_does_not_grow_with_the_draws():
    fam, _ = gen_random_label_consistent(md.GenSpec(seed=4))  # the C06 shape
    block = learner.BLOCK_DRAWS

    def peak(size):
        tracemalloc.start()
        next(_tallies(fam, size, np.random.default_rng(1)))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    peak(block + 1)  # the family keeps its bucket table from here on
    # a round of 20 blocks a member takes what one of two blocks takes; one
    # keeping a member's points would take about 20 * block bytes more
    assert peak(20 * block) <= peak(2 * block + 1) + 4096


def test_exact_oracle_requires_caller_rng():
    fam, _, _ = gen_gap_example(3)
    oracle = md.SampleOracle(fam)
    with pytest.raises(ValueError):
        oracle.draw(0, 5)


def test_hedge_rejects_bad_precision():
    # the campaign's Hedge once ran at -0.2 and 1.5, divided by zero at 0,
    # and failed converting NaN rounds to an integer; its rounds and rate
    # come from resolve, through the campaign's run plan
    fam, cls, _ = gen_gap_example(3)
    oracles = (md.SampleOracle(fam),
               md.SampleOracle(fam, np.random.default_rng(0)))
    for eps in (0.0, math.nan, -0.2, 1.5):
        message = f"eps must lie in \\(0, 1\\), got {eps!r}"
        with pytest.raises(ValueError, match=message):
            md.HedgeConfig().resolve(6, eps)
        for oracle in oracles:
            with pytest.raises(ValueError, match=message):
                md.hedge_learn(oracle, cls, eps)


def test_hedge_learn_takes_no_delta():
    # Hedge's rounds and rate depend on k and eps alone; cfg and trace are
    # keyword-only, so a delta left in a call is not read as the config
    fam, cls, _ = gen_gap_example(3)
    params = inspect.signature(md.hedge_learn).parameters
    assert list(params) == ["oracle", "cls", "eps", "cfg", "trace"]
    assert params["cfg"].kind == params["trace"].kind == inspect.Parameter.KEYWORD_ONLY
    with pytest.raises(TypeError):
        md.hedge_learn(md.SampleOracle(fam), cls, 0.2, 0.1)
