import json

import numpy as np
import pytest

import multidist as md
from multidist import serialize

from helpers import family_from_arrays


def test_domain_requires_positive_size():
    with pytest.raises(ValueError):
        md.Domain(0)
    assert md.Domain(3).size == 3


def test_validate_uniform_family_ok():
    fam = family_from_arrays([[0.25] * 4], [[1.0] * 4])
    report = md.validate_family(fam)
    assert report.ok and not report.violations


def test_validate_reports_mass_sum_violation():
    fam = family_from_arrays([[0.5, 0.6]], [[1.0, 1.0]])
    report = md.validate_family(fam)
    assert not report.ok
    assert any("mass sum" in issue.message for issue in report.violations)


def test_validate_reports_probability_range_violation():
    fam = family_from_arrays([[0.5, 0.5]], [[0.3, 1.2]])
    report = md.validate_family(fam)
    assert not report.ok
    assert any("point 1" in issue.location for issue in report.violations)


def test_validate_reports_negative_mass_with_index():
    fam = family_from_arrays([[-0.1, 1.1]], [[0.5, 0.5]])
    assert any("point 0" in i.location for i in md.validate_family(fam).violations)


def test_hypothesis_rejects_non_sign_labels():
    # 1.5 and 255 would pass as 1 and -1 if cast to int8 before the check
    for labels in ([1, 0, -1], [1.5, -1], np.array([255, -1])):
        for make in (md.Hypothesis, md.ExplicitClassifier):
            with pytest.raises(ValueError, match="exactly -1 or \\+1"):
                make(labels)


def test_hypothesis_class_checks_its_matrix_once():
    # 1.5 and 255 would pass as 1 and -1 if cast to int8 before the check
    for rows in ([[1, 1.5]], [[1, -1], [255, 1]], np.array([[255, -1]]), [[1, 0]]):
        with pytest.raises(ValueError, match="exactly -1 or \\+1"):
            md.HypothesisClass(rows)
    for rows in ([1, -1], [], [[]], np.ones((0, 3)), [[[1, -1]], [[1, 1]]]):
        with pytest.raises(ValueError, match="must be a nonempty 2-D label matrix"):
            md.HypothesisClass(rows)
    # a ragged or non-list row is named by its index, not by numpy's message
    for rows, message in (
            ([[1, 1], [1, 1], [1, -1], [1]], "hypothesis row 3 has 1 labels, expected 2"),
            ([[1, 1], [1, 1, 1]], "hypothesis row 1 has 3 labels, expected 2"),
            ([[1, 1], 1], "hypothesis row 1 must be a flat list of labels"),
            ([[1, 1], [1, [1]]], "hypothesis row 1 must be a flat list of labels")):
        with pytest.raises(ValueError, match=message):
            md.HypothesisClass(rows)
    labels = np.array([[1, -1, 1], [-1, -1, 1]])
    cls = md.HypothesisClass(labels, vc_dim=1)
    assert len(cls) == 2 and cls.domain_size == 3 and cls.vc_dim == 1
    assert cls.label_matrix.dtype == np.int8 and np.array_equal(cls.label_matrix, labels)
    # the class holds its own read-only copy
    labels[0, 0] = -1
    assert cls.label_matrix[0, 0] == 1
    with pytest.raises(ValueError):
        cls.label_matrix[0, 0] = -1
    with pytest.raises(ValueError, match="vc_dim must be nonnegative"):
        md.HypothesisClass(labels, vc_dim=-1)


def test_family_rejects_mismatched_domain():
    d = md.LabeledDistribution([1.0], [0.5])
    with pytest.raises(ValueError):
        md.DistributionFamily(md.Domain(2), (d,))


def test_randomized_classifier_structural_checks():
    cls = md.HypothesisClass([[1, 1], [-1, 1]])
    with pytest.raises(ValueError):
        md.RandomizedClassifier(cls, (), np.array([]))
    with pytest.raises(ValueError):
        md.RandomizedClassifier(cls, (0,), np.array([-0.5]))
    with pytest.raises(ValueError, match="support index 5 outside hypothesis class of 2"):
        md.RandomizedClassifier(cls, (5,), np.array([1.0]))
    f = md.RandomizedClassifier(cls, (0, 1), np.array([0.25, 0.75]))
    assert f.weight_sum_ok()
    assert f.marginals.tolist() == [0.25, 1.0]
    # support indices are integers: int() would truncate these silently
    for bad in (0.9, True, "1"):
        with pytest.raises(ValueError, match="support index must be an integer"):
            md.RandomizedClassifier(cls, (bad,), np.array([1.0]))
    assert md.RandomizedClassifier(cls, (1.0, np.int64(0)), np.array([0.5, 0.5])).support == (1, 0)


def test_label_consistency_shared_vector():
    rng = np.random.default_rng(0)
    eta = rng.random(6)
    masses = rng.random((3, 6))
    masses /= masses.sum(axis=1, keepdims=True)
    fam = family_from_arrays(masses, eta)
    assert md.is_label_consistent(fam)


def test_label_consistency_fails_on_reduction_family():
    A = md.BinaryMatrix(np.array([[1, 1], [0, 1]]))
    rf = md.ReductionFamily(A)
    assert not md.is_label_consistent(rf.family)


def test_label_consistency_ignores_disjoint_supports():
    fam = family_from_arrays(
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 1.0], [0.0, 0.0]],  # conditionals differ only off-support
    )
    assert md.is_label_consistent(fam)


def test_duplicate_hypotheses_accepted():
    cls = md.HypothesisClass([[1, -1], [1, -1]])
    assert len(cls) == 2 and cls.label_matrix.tolist() == [[1, -1], [1, -1]]


def test_shared_label_one_prob_uses_first_supporting_member():
    fam = family_from_arrays(
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.9, 0.3], [0.7, 0.1]],
    )
    # point 0 supported first by member 1, point 1 by member 0
    assert fam.shared_label_one_prob.tolist() == [0.7, 0.3]


def test_types_are_immutable():
    fam = family_from_arrays([[0.5, 0.5]], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        fam.members[0].mass[0] = 0.9
    h = md.Hypothesis([1, -1])
    with pytest.raises(ValueError):
        h.labels[0] = -1
    cls = md.HypothesisClass([h.labels, [1, 1]])
    # the float copy erm multiplies with is cached, read-only and exact
    assert cls.float_label_matrix is cls.float_label_matrix
    assert cls.float_label_matrix.dtype == np.float64
    assert np.array_equal(cls.float_label_matrix, cls.label_matrix)
    with pytest.raises(ValueError):
        cls.float_label_matrix[0, 0] = 0.0


def test_instance_round_trip_bit_exact(tmp_path):
    spec = md.GenSpec(domain_size=15, k=4, hypothesis_count=6, seed=11)
    fam, cls = md.gen_random_label_consistent(spec)
    path = tmp_path / "inst.json"
    serialize.save_instance(path, fam, cls, spec)
    fam2, cls2, spec2 = serialize.load_instance(path)
    assert spec2 == spec
    for a, b in zip(fam.members, fam2.members):
        assert np.array_equal(a.mass, b.mass)
        assert np.array_equal(a.label_one_prob, b.label_one_prob)
    assert np.array_equal(cls.label_matrix, cls2.label_matrix)


def test_instance_round_trip_per_member_conditionals(tmp_path):
    fam = family_from_arrays(
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 1.0], [0.0, 0.0]],
    )
    cls = md.HypothesisClass([[1, 1]], vc_dim=0)
    path = tmp_path / "inst.json"
    serialize.save_instance(path, fam, cls)
    fam2, cls2, spec2 = serialize.load_instance(path)
    assert spec2 is None
    assert cls2.vc_dim == 0
    assert np.array_equal(fam.label_prob_matrix, fam2.label_prob_matrix)


def test_explicit_classifier_round_trip(tmp_path):
    clf = md.ExplicitClassifier(np.array([1, -1, 1, 1], dtype=np.int8))
    path = tmp_path / "clf.json"
    serialize.save_classifier(path, clf)
    clf2 = serialize.load_classifier(path)
    assert np.array_equal(clf.labels, clf2.labels)


def test_compact_classifier_round_trip(tmp_path):
    # exhaustive evaluation equality over a 10^4-point domain
    rng = np.random.default_rng(5)
    n = 10_000
    cls = md.HypothesisClass([np.where(rng.random(n) < 0.5, 1, -1) for _ in range(4)])
    f_rand = md.RandomizedClassifier(cls, (0, 2, 3), np.array([0.5, 0.25, 0.25]))
    q = md.sample_hash(md.next_prime(n + 1), 4, rng)
    clf = md.CompactClassifier(q, {3: -1, 17: 1, 9999: 1}, f_rand, n, q.prime)
    path = tmp_path / "clf.json"
    serialize.save_classifier(path, clf)
    clf2 = serialize.load_classifier(path, cls)
    assert clf2.hash == clf.hash
    assert clf2.t_table == clf.t_table
    assert clf2.range_size == clf.range_size
    assert np.array_equal(clf.label_vector(), clf2.label_vector())


def test_randomized_round_trip(tmp_path):
    cls = md.HypothesisClass([[1, 1], [-1, 1]])
    f = md.RandomizedClassifier(cls, (0, 1), np.array([1.0 / 3.0, 2.0 / 3.0]))
    path = tmp_path / "rand.json"
    serialize.save_randomized(path, f)
    f2 = serialize.load_randomized(path, cls)
    assert f2.support == f.support
    assert np.array_equal(f2.weights, f.weights)


def test_matrix_round_trip(tmp_path):
    A = md.BinaryMatrix(np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]]))
    path = tmp_path / "A.txt"
    serialize.save_matrix(path, A)
    B = serialize.load_matrix(path)
    assert np.array_equal(A.entries, B.entries)
    assert path.read_text().splitlines()[0] == "3"


def test_load_instance_rejects_invalid_family(tmp_path):
    fam = family_from_arrays([[0.5, 0.5], [0.25, 0.75]], [[0.2, 0.4], [0.2, 0.4]])
    doc = serialize.instance_to_dict(fam, md.HypothesisClass([[1, -1]]))
    doc["distributions"][0]["mass"] = [0.5, 0.4]
    doc["distributions"][1]["mass"] = [-0.25, 1.25]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        serialize.load_instance(path)
    msg = str(info.value)
    assert "member 0: mass sum" in msg and "member 1, point 0: negative mass" in msg
