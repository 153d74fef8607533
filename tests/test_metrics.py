import math

import numpy as np
import pytest

import multidist as md
from multidist import metrics
from multidist.metrics import class_errors, plus_rows


def oracle_error(labels, member):
    """Independent oracle: enumerate every (x, y) outcome directly. member is
    one row of the family, as a pair (mass, label_one_prob)."""
    mass, eta = member
    total = 0.0
    for x in range(len(mass)):
        for y, p_y in ((1, eta[x]), (-1, 1.0 - eta[x])):
            if labels[x] != y:
                total += mass[x] * p_y
    return total


def members(fam):
    """The family's rows as (mass, label_one_prob) pairs, member by member."""
    return list(zip(fam.mass_matrix, fam.label_prob_matrix))


def random_family(rng, n=9, k=3, shared=True):
    masses = rng.random((k, n))
    masses /= masses.sum(axis=1, keepdims=True)
    if shared:
        eta = rng.random(n)
        return md.DistributionFamily(masses, np.broadcast_to(eta, masses.shape))
    return md.DistributionFamily(masses, rng.random((k, n)))


def test_error_point_mass_examples():
    fam, cls, _ = md.gen_gap_example(4)
    # h_i on its own point-mass distribution errs surely; on others never
    assert md.worst_case_error(cls.label_matrix[0], fam).error == (1.0, 0.0, 0.0, 0.0)
    assert md.worst_case_error(cls.label_matrix[1], fam).error[0] == 0.0


def test_error_half_labels_give_half():
    fam = md.DistributionFamily([[0.2, 0.3, 0.5]], [[0.5, 0.5, 0.5]])
    for labels in ([1, 1, 1], [-1, -1, -1], [1, -1, 1]):
        assert md.worst_case_error(md.ExplicitClassifier(labels), fam).worst_case == pytest.approx(
            0.5, abs=1e-15)


def test_error_matches_independent_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        fam = random_family(rng, shared=False)
        labels = np.where(rng.random(9) < 0.5, 1, -1).astype(np.int8)
        errors = md.worst_case_error(md.ExplicitClassifier(labels), fam).error
        for e, member in zip(errors, members(fam)):
            assert e == pytest.approx(oracle_error(labels, member), abs=1e-14)


def test_error_domain_mismatch():
    fam = md.DistributionFamily([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        md.worst_case_error(md.ExplicitClassifier([1, 1]), fam)


def test_worst_case_gap_example():
    fam, cls, _ = md.gen_gap_example(5)
    for h in cls.label_matrix:
        assert md.worst_case_error(h, fam).worst_case == 1.0


def test_worst_case_realizable_zero():
    fam = md.DistributionFamily([[0.5, 0.5], [0.1, 0.9]], [[1.0, 1.0]] * 2)
    assert md.worst_case_error(md.ExplicitClassifier([1, 1]), fam).worst_case == 0.0


def test_worst_case_matches_oracle_on_random_instance():
    rng = np.random.default_rng(33)
    fam = random_family(rng, n=7, k=3, shared=False)
    labels = np.where(rng.random(7) < 0.5, 1, -1).astype(np.int8)
    report = md.worst_case_error(md.ExplicitClassifier(labels), fam)
    direct = [oracle_error(labels, m) for m in members(fam)]
    assert list(report.error) == pytest.approx(direct, abs=1e-14)
    assert report.worst_case == max(report.error)
    assert report.argmax_index == int(np.argmax(direct))


def test_error_report_tie_breaks_to_lowest_index():
    r = md.ErrorReport.from_errors([0.3, 0.7, 0.7])
    assert r.argmax_index == 1 and r.worst_case == 0.7


def test_randomized_error_gap_example():
    fam, cls, F = md.gen_gap_example(6)
    assert md.randomized_worst_case_error(F, fam) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert md.support_worst_case(F, fam) == 1.0


def test_randomized_error_singleton_equals_plain():
    rng = np.random.default_rng(4)
    fam = random_family(rng)
    labels = np.where(rng.random(9) < 0.5, 1, -1).astype(np.int8)
    cls = md.HypothesisClass([labels])
    F = md.RandomizedClassifier(cls, (0,), np.array([1.0]))
    assert md.randomized_worst_case_error(F, fam) == pytest.approx(
        md.worst_case_error(cls.label_matrix[0], fam).worst_case, abs=1e-15)


def test_randomized_error_two_point_brute_force():
    fam = md.DistributionFamily([[0.4, 0.6]], [[0.8, 0.1]])
    cls = md.HypothesisClass([[1, -1], [-1, 1]])
    F = md.RandomizedClassifier(cls, (0, 1), np.array([0.3, 0.7]))
    # brute force over support x domain x labels
    expected = 0.0
    for w, h in zip((0.3, 0.7), cls.label_matrix):
        expected += w * oracle_error(h, members(fam)[0])
    assert md.randomized_worst_case_error(F, fam) == pytest.approx(expected, abs=1e-15)


def test_randomized_error_rejects_bad_weights():
    # a mixture whose weights miss a unit sum cannot be built, so no error
    # is ever taken of it
    cls = md.HypothesisClass([[1]])
    with pytest.raises(ValueError, match="mixture weights sum to 0.5, expected 1"):
        md.RandomizedClassifier(cls, (0,), np.array([0.5]))


def test_randomized_error_linear_in_weights():
    rng = np.random.default_rng(17)
    fam = random_family(rng, n=8, k=4)
    cls = md.HypothesisClass([np.where(rng.random(8) < 0.5, 1, -1) for _ in range(5)])
    err_matrix = np.array([[oracle_error(h, m) for m in members(fam)]
                           for h in cls.label_matrix])
    w = rng.random(5)
    w /= w.sum()
    F = md.RandomizedClassifier(cls, tuple(range(5)), w)
    assert md.randomized_per_distribution(F, fam) == pytest.approx(w @ err_matrix, abs=1e-13)


def test_support_dominates_mixture_property():
    rng = np.random.default_rng(9)
    for _ in range(10):
        fam = random_family(rng, n=6, k=3)
        cls = md.HypothesisClass([np.where(rng.random(6) < 0.5, 1, -1) for _ in range(4)])
        w = rng.random(4)
        w /= w.sum()
        F = md.RandomizedClassifier(cls, tuple(range(4)), w)
        assert md.randomized_worst_case_error(F, fam) <= md.support_worst_case(F, fam) + 1e-12


def test_exceedance_probability_gap():
    fam, cls, F = md.gen_gap_example(8)
    got = md.exceedance_probability(F, fam, 1.0)
    assert got.shape == (8,)
    assert np.all(np.abs(got - 0.125) <= 1e-15)


def test_exceedance_probability_rejects_a_nan_level():
    # nan gave all zeros, as if no draw could reach it
    fam, cls, F = md.gen_gap_example(8)
    for level in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="level must be a number, got nan"):
            md.exceedance_probability(F, fam, level)
    assert md.exceedance_probability(F, fam, math.inf).tolist() == [0.0] * 8
    assert md.exceedance_probability(F, fam, -math.inf).tolist() == [F.weights.sum()] * 8
    assert F.weights.sum() == 1.0


def test_exceedance_probability_is_the_member_by_member_sum():
    # entry i is bitwise the former one-member form: the weights of the
    # support rows whose error on member i alone is at or above level, summed
    rng = np.random.default_rng(31)
    for trial in range(20):
        fam = random_family(rng, n=7, k=4, shared=trial % 2 == 0)
        cls = md.HypothesisClass(np.where(rng.random((12, 7)) < 0.5, 1, -1))
        support = tuple(np.sort(rng.choice(12, 6, replace=False)).tolist())
        w = rng.random(6)
        F = md.RandomizedClassifier(cls, support, w / w.sum())
        plus = plus_rows(F.support_label_matrix)
        errors = md.error_matrix(plus, fam)
        for level in (0.0, *errors.ravel().tolist(), 1.0):
            got = md.exceedance_probability(F, fam, level)
            want = [F.weights[md.error_matrix(plus, md.DistributionFamily([mass], [eta]))[:, 0]
                              >= level].sum()
                    for mass, eta in members(fam)]
            assert got.tolist() == want


def test_opt_gap_example_is_one():
    fam, cls, _ = md.gen_gap_example(4)
    opt, idx = md.opt_bruteforce(cls, fam)
    assert opt == 1.0 and idx == 0


def test_opt_bayes_in_class_attains_bayes():
    spec = md.GenSpec(kind="bayes_in_class", domain_size=10, k=1, hypothesis_count=5, seed=2)
    fam, cls = md.gen_random_label_consistent(spec)
    eta = fam.label_prob_matrix[0]
    bayes_err = float((fam.mass_matrix[0] * np.minimum(eta, 1.0 - eta)).sum())
    opt, _ = md.opt_bruteforce(cls, fam)
    assert opt == pytest.approx(bayes_err, abs=1e-12)


def test_opt_matches_independent_enumeration():
    rng = np.random.default_rng(51)
    fam = random_family(rng, n=8, k=3, shared=False)
    cls = md.HypothesisClass([np.where(rng.random(8) < 0.5, 1, -1) for _ in range(16)])
    opt, idx = md.opt_bruteforce(cls, fam)
    reports = [max(oracle_error(h, m) for m in members(fam)) for h in cls.label_matrix]
    assert opt == pytest.approx(min(reports), abs=1e-14)
    assert idx == int(np.argmin(reports))
    for h in cls.label_matrix:
        assert opt <= md.worst_case_error(h, fam).worst_case + 1e-15


def test_the_class_error_matrix_gives_opt_and_mixture_errors_bitwise():
    # support rows taken from the class's matrix equal the support's own
    # matrix for supports smaller than k (one labeling per step) and not
    # (one member per step)
    rng = np.random.default_rng(52)
    fam = random_family(rng, n=30, k=5, shared=False)
    cls = md.HypothesisClass([np.where(rng.random(30) < 0.5, 1, -1) for _ in range(12)])
    errors = class_errors(cls, fam)
    worst = errors.max(axis=1)
    assert md.opt_bruteforce(cls, fam) == (float(worst.min()), int(np.argmin(worst)))
    for size in (1, 3, 5, 9, 12):
        support = tuple(sorted(rng.choice(12, size, replace=False).tolist()))
        weights = rng.random(size)
        F = md.RandomizedClassifier(cls, support, weights / weights.sum())
        own = md.error_matrix(plus_rows(cls.label_matrix[list(support)]), fam)
        assert np.array_equal(errors[list(support)], own)
        assert np.array_equal(md.randomized_per_distribution(F, fam), F.weights @ own)


def test_class_errors_keeps_the_last_class_matrix_on_the_family():
    rng = np.random.default_rng(54)
    fam = random_family(rng, n=20, k=4, shared=False)
    first, second = (md.HypothesisClass([np.where(rng.random(20) < 0.5, 1, -1)
                                         for _ in range(size)]) for size in (6, 7))
    errors = class_errors(first, fam)
    assert class_errors(first, fam) is errors
    assert not errors.flags.writeable
    want = md.error_matrix(plus_rows(first.label_matrix), fam)
    assert errors.tobytes() == want.tobytes()
    other = class_errors(second, fam)
    assert other.shape == (7, 4)
    assert other.tobytes() == md.error_matrix(plus_rows(second.label_matrix), fam).tobytes()
    # the entry now holds the second class, so the first is computed again
    again = class_errors(first, fam)
    assert again is not errors and again.tobytes() == want.tobytes()


def test_mixture_errors_on_a_fresh_family_compute_only_the_support_rows(monkeypatch):
    # reading the whole class's matrix for a 3-hypothesis mixture made one
    # call on a fresh n=1000, k=24, |H|=128 family about 40 times slower
    rng = np.random.default_rng(36)
    fam = random_family(rng, n=30, k=5, shared=False)
    cls = md.HypothesisClass([np.where(rng.random(30) < 0.5, 1, -1) for _ in range(12)])
    F = md.RandomizedClassifier(cls, (2, 7, 9), [0.5, 0.3, 0.2])
    rows, errors = [], metrics._errors
    monkeypatch.setattr(metrics, "_errors", lambda plus, *args: rows.append(len(plus))
                        or errors(plus, *args))
    fresh = md.randomized_per_distribution(F, fam)
    assert rows == [3] and "_class_error_entry" not in vars(fam)
    class_errors(cls, fam)
    assert rows == [3, 12]
    # the kept matrix's rows give the same bits, and are read, not computed
    kept = md.randomized_per_distribution(F, fam)
    assert rows == [3, 12] and fresh.tobytes() == kept.tobytes()


def test_mixture_reports_read_the_kept_matrix_to_the_same_bits(monkeypatch):
    # support_worst_case and exceedance_probability computed the support's
    # rows even where the family kept its class's matrix
    rng = np.random.default_rng(38)
    fam = random_family(rng, n=30, k=5, shared=False)
    cls = md.HypothesisClass([np.where(rng.random(30) < 0.5, 1, -1) for _ in range(12)])
    F = md.RandomizedClassifier(cls, (2, 7, 9), [0.5, 0.3, 0.2])
    level = float(np.median(class_errors(cls, fam)[list(F.support)]))
    vars(fam).pop("_class_error_entry")

    def reports():
        return [np.asarray(md.randomized_per_distribution(F, fam)).tobytes(),
                np.float64(md.support_worst_case(F, fam)).tobytes(),
                md.exceedance_probability(F, fam, level).tobytes()]

    rows, errors = [], metrics._errors
    monkeypatch.setattr(metrics, "_errors", lambda plus, *args: rows.append(len(plus))
                        or errors(plus, *args))
    fresh = reports()
    assert rows == [3, 3, 3]
    class_errors(cls, fam)
    rows.clear()
    assert reports() == fresh and rows == []


def test_error_reports_take_only_a_checked_family():
    # an unchecked (mass, eta) pair with masses summing to 1.1 and a label
    # probability of 1.5 gave an error of 1.15 and an OPT of -0.05
    pair = (np.array([[0.5, 0.6]]), np.array([[0.5, 1.5]]))
    cls = md.HypothesisClass([[1, -1], [-1, 1]])
    F = md.RandomizedClassifier(cls, (0,), [1.0])
    for report in (lambda fam: md.error_matrix(np.array([1.0, 0.0]), fam),
                   lambda fam: md.worst_case_error(cls.label_matrix[0], fam),
                   lambda fam: class_errors(cls, fam),
                   lambda fam: md.randomized_per_distribution(F, fam),
                   lambda fam: md.randomized_worst_case_error(F, fam),
                   lambda fam: md.support_worst_case(F, fam),
                   lambda fam: md.exceedance_probability(F, fam, 0.5),
                   lambda fam: md.opt_bruteforce(cls, fam)):
        with pytest.raises(TypeError, match="fam must be a DistributionFamily, got tuple"):
            report(pair)
        report(md.DistributionFamily([[0.5, 0.5]], [[0.5, 1.0]]))


def test_bias_values():
    # biases 1/2, 0 and 0.3 under masses 1/4, 1/4 and 1/2 give beta^2 * mass
    # 0.0625, 0 and 0.045, so the mask follows a threshold between them
    fam = md.DistributionFamily([[0.25, 0.25, 0.5]], [[1.0, 0.5, 0.8]])
    assert 0.045 < md.heavy_bias_threshold(0.9, 0.1, 1, "hash", c_prime=1.0) < 0.0625
    assert md.heavy_mask(fam, 0.9, 0.1, "hash", c_prime=1.0).tolist() == [True, False, False]
    assert md.heavy_mask(fam, 0.9, 0.1, "hash", c_prime=4.0).tolist() == [True, False, True]


def test_bias_rejects_inconsistent_family():
    A = md.BinaryMatrix(np.array([[1, 1], [1, 0]]))
    rf = md.ReductionFamily(A)
    with pytest.raises(md.LabelConsistencyError):
        md.heavy_mask(rf.family, 0.1, 0.1)


def test_heavy_bias_zero_bias_never_heavy():
    fam = md.DistributionFamily([[1.0]], [[0.5]])
    assert not md.heavy_mask(fam, 0.1, 0.1)[0]


def test_heavy_bias_derived_example():
    # beta = 1/2, D_1(x) = 1, k = 1: 0.25 > 0.01 / (8 ln 40)
    fam = md.DistributionFamily([[1.0]], [[1.0]])
    rhs = 0.1**2 / (8.0 * math.log(4 * 1 / 0.1))
    assert 0.25 > rhs
    assert md.heavy_mask(fam, 0.1, 0.1)[0]


def test_heavy_bias_boundary_is_strict():
    # mass chosen so beta^2 * mass equals the threshold bit-exactly
    thresh = md.heavy_bias_threshold(0.1, 0.1, 1)
    mass = thresh * 4.0  # beta = 1/2 -> beta^2 = 0.25, exact in floats
    fam = md.DistributionFamily([[mass, 1.0 - mass]], [[1.0, 0.5]])
    assert (0.5**2) * fam.mass_matrix[0, 0] == thresh
    assert not md.heavy_mask(fam, 0.1, 0.1)[0]


def test_heavy_bias_hash_variant_threshold():
    explicit = md.heavy_bias_threshold(0.1, 0.1, 4, "explicit")
    hashed = md.heavy_bias_threshold(0.1, 0.1, 4, "hash", c_prime=4.0)
    log_term = math.log(160.0)
    assert explicit == pytest.approx(0.01 / (8 * log_term), rel=1e-15)
    assert hashed == pytest.approx(0.01 / (4.0 * log_term**2), rel=1e-15)


def test_bayes_labeling_is_optimal_for_single_distribution():
    rng = np.random.default_rng(8)
    n = 9
    mass = rng.random(n)
    mass /= mass.sum()
    eta = rng.random(n)
    fam = md.DistributionFamily([mass], [eta])
    bayes = md.bayes_labels(fam)
    bayes_err = md.worst_case_error(bayes, fam).worst_case
    # enumerate all 2^n labelings
    best = min(
        oracle_error(np.array([1 if (code >> j) & 1 else -1 for j in range(n)]), members(fam)[0])
        for code in range(2**n)
    )
    assert bayes_err == pytest.approx(best, abs=1e-12)


def test_bayes_labeling_attains_pointwise_floor_per_member():
    rng = np.random.default_rng(13)
    fam = random_family(rng, n=10, k=4)
    errors = md.worst_case_error(md.bayes_labels(fam), fam).error
    eta = fam.shared_label_one_prob
    for e, mass in zip(errors, fam.mass_matrix):
        floor = float((mass * np.minimum(eta, 1.0 - eta)).sum())
        assert e == pytest.approx(floor, abs=1e-12)


def test_shattering_full_class():
    cls = md.full_labeling_class(3)
    # all 2^3 labelings of the three points, each once
    assert len({tuple(row) for row in cls.label_matrix}) == len(cls) == 8
    assert cls.vc_dim == 3


def test_gap_class_shatters_no_pair():
    _, cls, _ = md.gen_gap_example(5)
    # no hypothesis assigns -1 to two points, so (-1, -1) is never realized
    for i in range(5):
        for j in range(i + 1, 5):
            assert len({tuple(row) for row in cls.label_matrix[:, [i, j]]}) < 4
