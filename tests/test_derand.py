import math

import numpy as np
import pytest
from scipy.stats import binom

import multidist as md
from multidist import derand
from multidist.instances import gen_gap_example, gen_heavy_point_probe, gen_random_label_consistent
from multidist.metrics import heavy_mask, plus_rows

from helpers import learned


def table_of(counts, gamma, scale=1.0):
    """The bias table when point x gets counts[x] = (#+1, #-1) draws, at the
    given gamma (k = 1, eps = delta = 1/2): the table's one round of tallies
    is fixed to those counts."""
    pos, neg = np.array(counts, dtype=np.float64).T
    n = len(pos)
    fam = md.DistributionFamily([np.full(n, 1.0 / n)], [np.full(n, 0.5)])
    cfg = md.DerandConfig(eps=0.5, delta=0.5, c_const=gamma / 4.0, mode="calibrated",
                          m_override=int((pos + neg).sum()), threshold_scale=scale)
    assert cfg.gamma(1) == gamma
    rng = np.random.default_rng(0)

    def fixed_tallies(family, size, stream, rounds=1):
        assert family is fam and stream is rng and (size, rounds) == ((pos + neg).sum(), 1)
        yield (pos + neg)[None], pos[None]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(derand, "_tallies", fixed_tallies)
        return md.build_bias_table(fam, cfg, rng)


def test_empirical_rho_examples():
    # rho = (#positive - #negative) / count; rho 0 never clears the threshold
    table = table_of([(10, 0), (5, 5), (7, 3), (0, 0)], 2.0, scale=1e-6)
    assert table.points.tolist() == [0, 2]
    assert table.rho.tolist() == [1.0, 0.4]
    assert table.counts.tolist() == [10, 10]
    assert table.labels.tolist() == [1, 1]
    minus = table_of([(3, 7)], 2.0, scale=1e-6)
    assert minus.rho.tolist() == [-0.4] and minus.labels.tolist() == [-1]


def test_threshold_test_derived_example():
    # sqrt(ln(100)/100) ~ 0.2146
    assert math.sqrt(math.log(100) / 100) == pytest.approx(0.2145966026, abs=1e-9)
    table = table_of([(100, 0), (60, 40)], 100.0)  # rho 1.0 and 0.2
    assert table.points.tolist() == [0]


def test_threshold_test_zero_rho_and_boundary():
    assert len(table_of([(9, 8), (8, 9)], 50.0, scale=1e-9)) == 2
    assert len(table_of([(8, 8)], 50.0, scale=1e-9)) == 0
    # a scale that puts the threshold bit-exactly on rho = 1 for count 16
    threshold = math.sqrt(math.log(50.0) / 16)
    scale = next(s for s in (math.nextafter(1 / threshold, 0), 1 / threshold,
                             math.nextafter(1 / threshold, 2)) if s * threshold == 1.0)
    assert len(table_of([(16, 0)], 50.0, scale)) == 0  # strict inequality
    assert len(table_of([(16, 0)], 50.0, scale * (1 - 1e-12))) == 1


def test_threshold_test_rejects_bad_args():
    # ln(gamma) must be positive, and gamma >= c_const / (eps * delta)
    for c_const in (0.25, 0.1):
        with pytest.raises(ValueError, match="c_const must exceed eps \\* delta"):
            md.DerandConfig(eps=0.5, delta=0.5, c_const=c_const)
    assert md.DerandConfig(eps=0.5, delta=0.5, c_const=0.26).gamma(1) > 1.0


def test_derand_config_formulas():
    cfg = md.DerandConfig(eps=0.1, delta=0.1, c_const=4.0)
    k = 2
    gamma = 4.0 * k / (0.1 * 0.1)
    assert cfg.gamma(k) == gamma
    assert cfg.sample_size(k) == math.ceil(4.0 * math.log(gamma) ** 2 / 0.01)
    hash_cfg = md.DerandConfig(eps=0.1, delta=0.1, c_const=4.0, c_prime=4.0, rounding="hash")
    assert hash_cfg.sample_size(k) == math.ceil(4.0 * 4.0 * math.log(gamma) ** 3 / 0.01)


def test_table_draws_stop_at_the_exactness_limit():
    # eps 1e-200 divided by eps**2 = 0.0, and 1e-9 gave 2.6e21 draws per
    # member, past the 2^53 where the table's float counts stop being exact
    from multidist.learner import DRAWS_LIMIT

    def calibrated(m):
        return md.DerandConfig(eps=0.1, delta=0.1, mode="calibrated", m_override=m)

    assert calibrated(DRAWS_LIMIT).sample_size(6) == DRAWS_LIMIT
    with pytest.raises(ValueError, match=f"^m_override must be at most DRAWS_LIMIT = 2\\^53, "
                                         f"got {DRAWS_LIMIT + 1}$"):
        calibrated(DRAWS_LIMIT + 1)

    def fits(eps):
        try:
            return md.DerandConfig(eps=eps, delta=0.2).sample_size(6)
        except ValueError:
            return None

    # bisect for the least eps whose derived m fits: adjacent floats, m
    # within a few draws of the limit at the one, past it at the other
    eps, fit = 1e-300, 1e-3
    while (mid := (eps + fit) / 2) not in (eps, fit):
        eps, fit = (eps, mid) if fits(mid) else (mid, fit)
    assert fit == math.nextafter(eps, 1.0)
    assert DRAWS_LIMIT - 16 < fits(fit) <= DRAWS_LIMIT
    for tiny in (eps, 1e-9, 1e-200, 5e-324):
        with pytest.raises(ValueError, match=f"^eps = {tiny!r} needs .* table draws per member "
                                             "at k = 6, more than DRAWS_LIMIT = 2\\^53$"):
            md.DerandConfig(eps=tiny, delta=0.2).sample_size(6)
    with pytest.raises(ValueError, match="more than DRAWS_LIMIT"):
        md.DerandConfig(eps=1e-6, delta=0.2, rounding="hash").sample_size(6)


def test_derand_config_validation():
    with pytest.raises(ValueError):
        md.DerandConfig(eps=0.0, delta=0.1)
    with pytest.raises(ValueError):
        md.DerandConfig(eps=0.1, delta=0.1, mode="calibrated")  # missing m_override
    with pytest.raises(ValueError):
        md.DerandConfig(eps=0.1, delta=0.1, mode="calibrated", m_override=100,
                        threshold_scale=0.0)
    with pytest.raises(ValueError):
        md.DerandConfig(eps=0.1, delta=0.1, rounding="magic")
    # a bool would draw 1 sample and 50.5 would draw 50
    for value in (True, 50.5, "50"):
        with pytest.raises(ValueError, match="m_override must be an integer"):
            md.DerandConfig(eps=0.1, delta=0.1, mode="calibrated", m_override=value)
    cfg = md.DerandConfig(eps=0.1, delta=0.1, mode="calibrated", m_override=50.0)
    assert cfg.sample_size(3) == 50 and type(cfg.sample_size(3)) is int
    # a bool would run as 1.0, as HedgeConfig's eta would
    for name in ("c_const", "c_prime", "threshold_scale"):
        for value in (0.0, -1.0, math.nan, math.inf, True, np.True_, "4"):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                md.DerandConfig(eps=0.1, delta=0.1, mode="calibrated", m_override=100,
                                **{name: value})


def test_theory_mode_rejects_calibrated_knobs():
    # theory mode ignored both: sample_size(4) stayed 3590 and the threshold
    # scale 1.0
    for knobs in (dict(m_override=7, threshold_scale=3.0), dict(m_override=7),
                  dict(threshold_scale=3.0)):
        with pytest.raises(ValueError, match="m_override and threshold_scale apply only "
                                             "in calibrated mode"):
            md.DerandConfig(eps=0.2, delta=0.2, **knobs)
    # the positivity check comes first
    with pytest.raises(ValueError, match="threshold_scale must be finite and positive"):
        md.DerandConfig(eps=0.2, delta=0.2, threshold_scale=math.nan)
    cfg = md.DerandConfig(eps=0.2, delta=0.2, threshold_scale=1.0)
    assert cfg.sample_size(4) == 3590 and cfg.threshold_scale == 1.0
    # explicit rounding ignored c_prime: sample_size(4) stayed 3590
    with pytest.raises(ValueError, match="c_prime applies only to hash rounding, got 100.0"):
        md.DerandConfig(eps=0.2, delta=0.2, c_prime=100.0)
    assert md.DerandConfig(eps=0.2, delta=0.2, c_prime=4.0).learner_eps() == 0.1
    assert md.DerandConfig(eps=0.2, delta=0.2, c_prime=100.0, rounding="hash").c_prime == 100.0


def test_bias_table_is_arrays_of_one_length():
    table = md.BiasTable([2, 5], [1, -1], [0, 1], [0.5, -0.25], [8, 4])
    assert len(table) == 2 and table.labels.dtype == np.int8
    assert not any(getattr(table, name).flags.writeable
                   for name in ("points", "labels", "members", "rho", "counts"))
    for args, message in (
            (([5, 2], [1, -1], [0, 1], [0.5, -0.25], [8, 4]), "point 2 is negative, repeated"),
            (([2, 2], [1, -1], [0, 1], [0.5, -0.25], [8, 4]), "point 2 is negative, repeated"),
            (([-1], [1], [0], [0.5], [8]), "point -1 is negative"),
            (([2, 5], [1, 0], [0, 1], [0.5, -0.25], [8, 4]), "label entries must be exactly"),
            (([2, 5], [1], [0, 1], [0.5, -0.25], [8, 4]), "points of shape \\(2,\\), labels"),
            (([2, 5], [1, -1], [0, 1], [0.5], [8, 4]), "table rho has shape \\(1,\\)")):
        with pytest.raises(ValueError, match=message):
            md.BiasTable(*args)


def test_table_collects_sure_labels():
    # all labels +1, small domain, sample count >> ln(gamma): every point lands
    # in the table with label +1
    fam = md.DistributionFamily([[0.4, 0.3, 0.2, 0.1]], [[1.0, 1.0, 1.0, 1.0]])
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=4000)
    table = md.build_bias_table(fam, cfg, np.random.default_rng(0))
    assert len(table) == 4
    assert table.labels.tolist() == [1, 1, 1, 1]


def test_table_insertion_rate_matches_binomial_tail():
    # eta = 1/2 everywhere: conditioned on a point's count n, the insertion
    # event is |2*Bin(n,1/2) - n|/n > sqrt(ln(gamma)/n); compare measured
    # frequency per count against the exact tail
    d = 8
    m = 400
    runs = 400
    fam = md.DistributionFamily([np.full(d, 1.0 / d)], [np.full(d, 0.5)])
    cfg = md.DerandConfig(eps=0.3, delta=0.3, mode="calibrated", m_override=m)
    gamma = cfg.gamma(1)
    oracle = md.SampleOracle(fam)

    by_count: dict[int, list[int]] = {}
    for run in range(runs):
        rng = np.random.default_rng(1000 + run)
        table = md.build_bias_table(fam, cfg, rng)
        # replay the identical draw stream to recover every point's count
        replay = np.random.default_rng(1000 + run)
        xs, _ = oracle.draw(0, m, replay)
        counts = np.bincount(xs, minlength=d)
        for x in range(d):
            if counts[x] > 0:
                by_count.setdefault(int(counts[x]), []).append(int(x in table.points))

    checked = 0
    for n, flags in by_count.items():
        if len(flags) < 120:
            continue
        thresh = math.sqrt(math.log(gamma) / n)
        # insertion iff pos > n(1+t)/2 or pos < n(1-t)/2, pos ~ Bin(n, 1/2)
        hi = math.floor(n * (1 + thresh) / 2)
        lo = math.ceil(n * (1 - thresh) / 2)
        exact = float(1.0 - binom.cdf(hi, n, 0.5) + binom.cdf(lo - 1, n, 0.5))
        observed = float(np.mean(flags))
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / len(flags))
        assert abs(observed - exact) <= 3 * sigma + 1e-9, (n, observed, exact)
        checked += 1
    assert checked >= 3


def test_table_heavy_point_nearly_always_caught():
    # single point with mass 1 and bias 0.4 under theory-mode sampling: the
    # coverage guarantee says it lands in the table with the right sign in at
    # least 1 - delta/4 of runs; here it is essentially always
    fam = md.DistributionFamily([[1.0, 0.0]], [[0.9, 0.5]])
    cfg = md.DerandConfig(eps=0.1, delta=0.1, c_const=4.0, mode="theory")
    assert heavy_mask(fam, 0.1, 0.1)[0]
    hits = 0
    runs = 300
    for run in range(runs):
        table = md.build_bias_table(fam, cfg, np.random.default_rng(run))
        if table.labels[table.points == 0].tolist() == [1]:
            hits += 1
    assert hits / runs >= 1.0 - 0.1 / 4 - 0.05


def test_table_skips_points_in_earlier_iterations():
    # both members sample point 0 heavily; the entry must credit member 0
    fam = md.DistributionFamily(
        [[0.9, 0.1], [0.9, 0.1]],
        [[0.95, 0.5]] * 2,
    )
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=2000)
    table = md.build_bias_table(fam, cfg, np.random.default_rng(3))
    assert table.members[table.points == 0].tolist() == [0]


def test_table_rejects_inconsistent_family():
    # reduction families (what disc reduce writes) are never label-consistent;
    # a one-point family whose members disagree on its label law is not either
    families = [md.ReductionFamily(md.BinaryMatrix(a)).family
                for a in (np.array([[1, 1], [1, 1]]), np.array([[1, 0], [0, 1]]))]
    families.append(md.ReductionFamily(
        md.planted_zero_matrix(6, 0.5, np.random.default_rng(1))[0]).family)
    families.append(md.DistributionFamily([[1.0], [1.0]], [[0.9], [0.8]]))
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=100)
    for fam in families:
        assert not fam.label_consistent
        with pytest.raises(md.LabelConsistencyError):
            md.build_bias_table(fam, cfg, np.random.default_rng(0))


def test_round_outside_t_singleton_copies_hypothesis():
    cls = md.HypothesisClass([[1, -1, 1, -1]])
    F = md.RandomizedClassifier(cls, (0,), np.array([1.0]))
    labels = md.round_outside_t(F, md.BiasTable(), np.random.default_rng(0))
    assert labels.tolist() == [1, -1, 1, -1]


def test_round_outside_t_respects_table():
    cls = md.HypothesisClass([[1, 1, 1]])
    F = md.RandomizedClassifier(cls, (0,), np.array([1.0]))
    table = md.BiasTable([1], [-1], [0], [-1.0], [10])
    labels = md.round_outside_t(F, table, np.random.default_rng(0))
    assert labels.tolist() == [1, -1, 1]


def test_round_outside_t_balanced_mixture_frequency():
    n = 10_000
    cls = md.HypothesisClass([np.ones(n), -np.ones(n)])
    F = md.RandomizedClassifier(cls, (0, 1), np.array([0.5, 0.5]))
    labels = md.round_outside_t(F, md.BiasTable(), np.random.default_rng(5))
    assert abs(np.mean(labels == 1) - 0.5) < 0.02


def test_round_outside_t_gap_marginal_frequency():
    k = 8
    fam, cls, F = gen_gap_example(k)
    rng = np.random.default_rng(9)
    minus_counts = np.zeros(k)
    reps = 12_500  # k points per rep -> 1e5 observations
    for _ in range(reps):
        labels = md.round_outside_t(F, md.BiasTable(), rng)
        minus_counts += labels == -1
    freq = minus_counts / reps
    sigma = math.sqrt((1 / k) * (1 - 1 / k) / reps)
    assert np.all(np.abs(freq - 1 / k) <= 3 * sigma)


def test_rounding_unbiasedness_of_outside_term():
    # for fixed T, the rounded classifier's outside-T error term averages to
    # the mixture's outside-T term
    rng = np.random.default_rng(12)
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=12, k=3,
                                                      hypothesis_count=6, seed=2))
    w = rng.random(4)
    w /= w.sum()
    F = md.RandomizedClassifier(cls, (0, 2, 3, 5), w)
    table = md.BiasTable([0, 7], [1, -1], [0, 1], [1.0, -1.0], [5, 9])
    outside = np.ones(12, dtype=bool)
    outside[[0, 7]] = False

    want = md.error_matrix(F.marginals, fam, outside)
    reps = 10_000
    acc = np.zeros(fam.k)
    per_run = np.zeros((reps, fam.k))
    for i in range(reps):
        labels = md.round_outside_t(F, table, rng)
        per_run[i] = md.error_matrix(plus_rows(labels), fam, outside)
    mean = per_run.mean(axis=0)
    sem = per_run.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mean - want) <= 3 * sem + 1e-12)


def _small_instance(seed=0):
    return gen_random_label_consistent(
        md.GenSpec(domain_size=20, k=3, hypothesis_count=8, seed=seed))


def _derandomized(fam, cls, cfg, seed):
    """Learn the mixture, then derandomize it with streams from seed."""
    f_rand = learned(fam, cls, cfg)
    return md.derandomize(fam, f_rand, cfg, np.random.default_rng(seed))


def test_derandomize_deterministic_given_seed():
    fam, cls = _small_instance(4)
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=1500)
    a = _derandomized(fam, cls, cfg, 99).classifier
    b = _derandomized(fam, cls, cfg, 99).classifier
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("rounding", ["explicit", "hash"])
def test_derandomize_is_a_function_of_its_arguments(rounding):
    # the table is drawn from the first stream spawned from rng, so equal
    # seeds give equal tables and labels, and another seed another table
    fam, cls = _small_instance(8)
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=300,
                          rounding=rounding)
    f_rand = learned(fam, cls, cfg)
    a, b, other = (md.derandomize(fam, f_rand, cfg, np.random.default_rng(seed))
                   for seed in (5, 5, 6))
    want = md.build_bias_table(fam, cfg, np.random.default_rng(5).spawn(2)[0])
    for name in ("points", "labels", "members", "rho", "counts"):
        assert np.array_equal(getattr(a.table, name), getattr(want, name))
        assert np.array_equal(getattr(b.table, name), getattr(want, name))
    assert np.array_equal(a.classifier.label_vector(), b.classifier.label_vector())
    assert not np.array_equal(other.table.counts, want.counts)


def test_derandomize_hash_mode_returns_compact():
    fam, cls = _small_instance(5)
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=1500,
                          rounding="hash")
    result = _derandomized(fam, cls, cfg, 7)
    clf = result.classifier
    assert isinstance(clf, md.CompactClassifier)
    assert np.array_equal(clf.t_points, result.table.points)
    assert np.array_equal(clf.t_labels, result.table.labels)
    assert clf.hash.degree_r % 2 == 0
    assert clf.hash.prime > fam.domain_size
    # evaluation total over the domain
    assert set(np.unique(clf.label_vector())) <= {-1, 1}


@pytest.mark.parametrize("rounding", ["explicit", "hash"])
@pytest.mark.parametrize("width", [10, 6])
def test_derandomize_rejects_a_mixture_over_another_domain(rounding, width):
    # an 8-point family, a mixture over 10 or 6 points: the error names both
    # sizes before rng is spawned from or drawn from
    fam, _ = gen_random_label_consistent(
        md.GenSpec(domain_size=8, k=3, hypothesis_count=4, seed=3))
    labels = np.where(np.random.default_rng(2).random((4, width)) < 0.5, 1, -1)
    f_rand = md.RandomizedClassifier(md.HypothesisClass(labels), (0, 1), np.array([0.5, 0.5]))
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=100,
                          rounding=rounding)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"domain size mismatch: mixture {width}, family 8"):
        md.derandomize(fam, f_rand, cfg, rng)
    assert rng.bit_generator.state == state
    assert rng.bit_generator.seed_seq.n_children_spawned == 0


def test_derandomize_rejects_inconsistent_family():
    rf = md.ReductionFamily(md.BinaryMatrix(np.array([[1, 1], [1, 0]])))
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=100)
    f_rand = md.RandomizedClassifier(md.full_labeling_class(2), (0,), [1.0])
    with pytest.raises(md.LabelConsistencyError):
        md.derandomize(rf.family, f_rand, cfg, np.random.default_rng(0))


def test_error_decomposition_is_exact():
    fam, cls = _small_instance(6)
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=1500)
    result = _derandomized(fam, cls, cfg, 3)
    inside = np.zeros(fam.domain_size, dtype=bool)
    if len(result.table):
        inside[result.table.points] = True
    plus = plus_rows(result.classifier.label_vector())
    t_terms = md.error_matrix(plus, fam, inside)
    o_terms = md.error_matrix(plus, fam, ~inside)
    report = md.worst_case_error(result.classifier, fam)
    for i in range(fam.k):
        assert t_terms[i] + o_terms[i] == pytest.approx(report.error[i], abs=1e-12)


def test_table_term_attains_pointwise_minimum_when_signs_correct():
    fam, cls = _small_instance(7)
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=2500)
    result = _derandomized(fam, cls, cfg, 11)
    eta = fam.shared_label_one_prob
    beta_sign = np.where(eta - 0.5 >= 0, 1, -1)
    points = result.table.points
    assert len(points) > 0
    correct = np.array_equal(result.table.labels, beta_sign[points])
    if not correct:
        pytest.skip("a table sign came out wrong on this seed; optimality only holds when signs are correct")
    inside = np.zeros(fam.domain_size, dtype=bool)
    inside[points] = True
    t_terms = md.error_matrix(plus_rows(result.classifier.label_vector()), fam, inside)
    for i, mass in enumerate(fam.mass_matrix):
        floor = float((mass * np.minimum(eta, 1 - eta))[inside].sum())
        assert t_terms[i] == pytest.approx(floor, abs=1e-12)


def test_rounding_deviation_small_on_light_instance():
    # all-light family: outside-T rounding deviation <= eps/2 almost always
    spec = md.GenSpec(kind="heavy_point_probe", domain_size=30, k=3, heavy_count=0,
                      light_beta_max=0.05, eps=0.2, delta=0.2, seed=21)
    fam = gen_heavy_point_probe(spec)
    cls = md.HypothesisClass([np.where(np.random.default_rng(s).random(30) < 0.5, 1, -1)
                              for s in range(6)])
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=2000)
    f_rand = learned(fam, cls, cfg)
    ok = 0
    runs = 120
    for run in range(runs):
        rep, _ = md.run_trial(fam, cls, f_rand, cfg, seed=run, measure_time=False)
        if rep.rounding_deviation <= 0.1:
            ok += 1
    assert ok / runs >= 1 - 0.2 / 4 - 0.05


def test_derandomize_gap_family_trivially_meets_contract():
    # point-mass members: each table iteration samples a single point; the
    # guarantee er <= OPT + eps holds trivially because OPT = 1 here
    fam, cls, _ = gen_gap_example(5)
    assert fam.label_consistent
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=500)
    clf = _derandomized(fam, cls, cfg, 1).classifier
    opt, _ = md.opt_bruteforce(cls, fam)
    report = md.worst_case_error(clf, fam)
    assert opt == 1.0
    assert report.worst_case <= opt + 0.2
    # every point is surely labeled +1, so the table pins everything to +1
    assert np.all(clf.labels == 1)
    assert report.worst_case == 0.0  # the table beats the class benchmark


def test_realizable_instance_reaches_low_error():
    rng = np.random.default_rng(30)
    masses = rng.random((3, 15))
    masses /= masses.sum(axis=1, keepdims=True)
    target = np.where(rng.random(15) < 0.5, 1, -1).astype(np.int8)
    fam = md.DistributionFamily(masses, np.broadcast_to(target == 1, masses.shape).astype(float))
    cls = md.HypothesisClass([np.where(rng.random(15) < 0.5, 1, -1), target])
    opt, _ = md.opt_bruteforce(cls, fam)
    assert opt == 0.0
    cfg = md.DerandConfig(eps=0.15, delta=0.15, mode="calibrated", m_override=3000)
    f_rand = learned(fam, cls, cfg)
    good = 0
    runs = 80
    for run in range(runs):
        rep, _ = md.run_trial(fam, cls, f_rand, cfg, seed=run, measure_time=False)
        if rep.deterministic_error <= 0.15:
            good += 1
    assert good / runs >= 1 - 0.15
