import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidist as md
from multidist import serialize


def test_domain_requires_positive_size():
    # a family needs a member and a point; k and n are its matrices' shape
    for shape in ((0, 3), (2, 0)):
        with pytest.raises(ValueError, match="needs at least one member and one point"):
            md.DistributionFamily(np.zeros(shape), np.zeros(shape))
    fam = md.DistributionFamily([[0.5, 0.5, 0.0]] * 2, [[0.5] * 3] * 2)
    assert (fam.k, fam.domain_size) == (2, 3)


def test_validate_uniform_family_ok():
    fam = md.DistributionFamily([[0.25] * 4], [[1.0] * 4])
    report = md.validate_family(fam)
    assert report.ok and not report.violations


def test_validate_reports_mass_sum_violation():
    fam = md.DistributionFamily([[0.5, 0.6]], [[1.0, 1.0]])
    report = md.validate_family(fam)
    assert not report.ok
    assert any("mass sum" in issue.message for issue in report.violations)


def test_validate_reports_probability_range_violation():
    fam = md.DistributionFamily([[0.5, 0.5]], [[0.3, 1.2]])
    report = md.validate_family(fam)
    assert not report.ok
    assert any("point 1" in issue.location for issue in report.violations)


def test_validate_reports_negative_mass_with_index():
    fam = md.DistributionFamily([[-0.1, 1.1]], [[0.5, 0.5]])
    assert any("point 0" in i.location for i in md.validate_family(fam).violations)


def loop_validation(mass, eta, tol):
    """The former validate_family, one member at a time, as (location,
    message) pairs."""
    out = []
    for i in range(mass.shape[0]):
        m, e = mass[i].copy(), eta[i].copy()
        if np.any(~np.isfinite(m)):
            out.append((f"member {i}", "non-finite mass entries"))
            continue
        for x in np.nonzero(m < 0)[0]:
            out.append((f"member {i}, point {x}", f"negative mass {m[x]}"))
        total = float(m.sum())
        if abs(total - 1.0) > tol:
            out.append((f"member {i}", f"mass sum {total!r} != 1"))
        if np.any(~np.isfinite(e)):
            out.append((f"member {i}", "non-finite label_one_prob entries"))
            continue
        for x in np.nonzero((e < 0.0) | (e > 1.0))[0]:
            out.append((f"member {i}, point {x}", f"label_one_prob {e[x]} outside [0, 1]"))
    return out


@st.composite
def planted_families(draw):
    """(k, n) masses normalized row by row and label probabilities in [0, 1],
    with planted violations: negative or non-finite entries, probabilities
    outside [0, 1], and rows scaled off a unit sum by more or less than the
    tolerance."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    unit = st.floats(0.0, 1.0)
    mass = np.array(draw(st.lists(unit, min_size=k * n, max_size=k * n))).reshape(k, n) + 0.01
    mass /= mass.sum(axis=1, keepdims=True)
    eta = np.array(draw(st.lists(unit, min_size=k * n, max_size=k * n))).reshape(k, n)
    special = st.sampled_from([-0.25, -1e-300, -0.0, np.nan, np.inf, -np.inf, 1.5, 1.0 + 2**-52])
    for _ in range(draw(st.integers(0, 6))):
        i, x = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["mass", "eta", "scale"]))
        if kind == "scale":
            mass[i] *= draw(st.sampled_from([1.0 + 1e-13, 1.0 - 1e-11, 0.5, 3.0]))
        else:
            (mass if kind == "mass" else eta)[i, x] = draw(special)
    return mass, eta, draw(st.sampled_from([md.model.MASS_TOL, 1e-9, 0.0]))


@settings(max_examples=300, deadline=None)
@given(planted_families())
def test_validate_family_reports_as_the_member_loop(case):
    mass, eta, tol = case
    report = md.validate_family(md.DistributionFamily(mass, eta), tol)
    assert [(v.location, v.message) for v in report.violations] == loop_validation(mass, eta, tol)
    assert report.ok == (not loop_validation(mass, eta, tol))


def test_hypothesis_rejects_non_sign_labels():
    # a classifier's labels and a coloring pass one check: 1.5 and 255 would
    # pass as 1 and -1 if cast to int8 before it, and True as 1
    for make in (md.ExplicitClassifier, md.Coloring):
        for labels in ([1, 0, -1], [1.5, -1], [255, -1], np.array([255, -1]),
                       [True, -1], np.array([True, True])):
            with pytest.raises(ValueError, match="exactly -1 or \\+1"):
                make(labels)
        for labels in (True, 0, np.array([[1, -1], [-1, 1]])):
            with pytest.raises(ValueError, match="must be one-dimensional"):
                make(labels)
    for vector in (md.ExplicitClassifier([1, -1, 1]).labels, md.Coloring([1, -1, 1]).z):
        assert vector.dtype == np.int8 and vector.tolist() == [1, -1, 1]


def test_hypothesis_class_checks_its_matrix_once():
    # 1.5 and 255 would pass as 1 and -1 if cast to int8 before the check,
    # and np.asarray would read a bool among ints as 1
    for rows in ([[1, 1.5]], [[1, -1], [255, 1]], np.array([[255, -1]]), [[1, 0]],
                 np.array([[True, True]]), [[True, -1], [1, 1]], [[1, -1], [1, np.True_]],
                 [np.array([True, False]), [1, -1]], [[1, -1], [1, 2**70]], [[-129, 1]],
                 np.array([[True, -1]], dtype=object)):
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
    with pytest.raises(ValueError, match=r"shapes differ: \(1, 1\) vs \(1, 2\)"):
        md.DistributionFamily([[1.0]], [[0.5, 0.5]])
    with pytest.raises(ValueError, match=r"shapes differ: \(1, 2\) vs \(2, 2\)"):
        md.DistributionFamily([[0.5, 0.5]], [[0.5, 0.5]] * 2)
    # one shared label vector is broadcast by the caller, not by the family
    with pytest.raises(ValueError, match=r"label_one_prob must be two-dimensional, got shape \(2,\)"):
        md.DistributionFamily([[0.5, 0.5]], [0.5, 0.5])
    for rows, message in (([[0.5, 0.5], [1.0]], "mass row 1 has 1 numbers, expected 2"),
                          ([[0.5, [0.5]]], "mass row 0 must be a flat list of numbers")):
        with pytest.raises(ValueError, match=re.escape(message)):
            md.DistributionFamily(rows, [[0.5, 0.5]] * len(rows))


def test_float_entries_must_be_numbers():
    # np.asarray would read True as 1.0 and "0.5" as 0.5, in a list or an array
    bad = ([1.0, True], [np.False_, 1.0], ["0.5", 0.5], np.array([True, False]),
           np.array(["0.5", "0.5"]), np.array([0.5, True], dtype=object))
    for values in bad:
        with pytest.raises(ValueError, match="mass must hold numbers, got (bool|str)"):
            md.LabeledDistribution(values, [0.5, 0.5])
        with pytest.raises(ValueError, match="mass must hold numbers, got (bool|str)"):
            md.DistributionFamily([[0.5, 0.5], values], [[0.5, 0.5]] * 2)
        with pytest.raises(ValueError, match="label_one_prob must hold numbers, got (bool|str)"):
            md.DistributionFamily([[0.5, 0.5]] * 2, [[0.5, 0.5], values])
        with pytest.raises(ValueError, match="weights must hold numbers, got (bool|str)"):
            md.RandomizedClassifier(md.HypothesisClass([[1, 1], [1, -1]]), (0, 1), values)
    with pytest.raises(ValueError, match="mass must hold numbers, got bool"):
        md.DistributionFamily(np.array([[True, False]]), [[0.5, 0.5]])
    # integers, numpy scalars and integer arrays are numbers
    fam = md.DistributionFamily([[1, 0], np.array([0, 1])], [[np.float32(0.5), 1], [0, 1]])
    assert fam.mass_matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]


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
    fam = md.DistributionFamily(masses, np.broadcast_to(eta, masses.shape))
    assert fam.label_consistent


def test_label_consistency_fails_on_reduction_family():
    A = md.BinaryMatrix(np.array([[1, 1], [0, 1]]))
    rf = md.ReductionFamily(A)
    assert not rf.family.label_consistent


def test_label_consistency_ignores_disjoint_supports():
    fam = md.DistributionFamily(
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 1.0], [0.0, 0.0]],  # conditionals differ only off-support
    )
    assert fam.label_consistent


def test_duplicate_hypotheses_accepted():
    cls = md.HypothesisClass([[1, -1], [1, -1]])
    assert len(cls) == 2 and cls.label_matrix.tolist() == [[1, -1], [1, -1]]


def test_shared_label_one_prob_uses_first_supporting_member():
    fam = md.DistributionFamily(
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.9, 0.3], [0.7, 0.1]],
    )
    # point 0 supported first by member 1, point 1 by member 0
    assert fam.shared_label_one_prob.tolist() == [0.7, 0.3]


def test_types_are_immutable():
    mass = np.asfortranarray([[0.5, 0.5], [0.25, 0.75]])
    fam = md.DistributionFamily(mass, np.broadcast_to([1.0, 0.0], (2, 2)))
    for matrix in (fam.mass_matrix, fam.label_prob_matrix):
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.9
    # the family holds its own copy
    mass[0, 0] = 0.9
    assert fam.mass_matrix[0, 0] == 0.5
    h = md.ExplicitClassifier([1, -1])
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
    assert np.array_equal(fam.mass_matrix, fam2.mass_matrix)
    assert np.array_equal(fam.label_prob_matrix, fam2.label_prob_matrix)
    assert np.array_equal(cls.label_matrix, cls2.label_matrix)


def test_instance_round_trip_per_member_conditionals(tmp_path):
    fam = md.DistributionFamily(
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
    clf = md.CompactClassifier(q, [3, 17, 9999], [-1, 1, 1], f_rand)
    path = tmp_path / "clf.json"
    serialize.save_classifier(path, clf)
    clf2 = serialize.load_classifier(path, cls)
    assert clf2.hash == clf.hash
    assert np.array_equal(clf2.t_points, clf.t_points)
    assert np.array_equal(clf2.t_labels, clf.t_labels)
    assert clf2.domain_size == clf.domain_size == n
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


def test_matrix_header_must_be_decimal_digits(tmp_path):
    # int() reads each of these headers as 2, so the file loaded as a 2 x 2 matrix
    path = tmp_path / "A.txt"
    for header in ("0_2", "+2", "\uff12", "\u0662", "2.0"):
        path.write_text(f"{header}\n01\n10\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"matrix header must be the row count in decimal digits, got {header!r}")):
            serialize.load_matrix(path)
    path.write_text(" 2 \n01\n10\n")
    assert serialize.load_matrix(path).entries.tolist() == [[0, 1], [1, 0]]


def test_load_instance_rejects_invalid_family(tmp_path):
    fam = md.DistributionFamily([[0.5, 0.5], [0.25, 0.75]], [[0.2, 0.4], [0.2, 0.4]])
    doc = serialize.instance_to_dict(fam, md.HypothesisClass([[1, -1]]))
    doc["distributions"][0]["mass"] = [0.5, 0.4]
    doc["distributions"][1]["mass"] = [-0.25, 1.25]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        serialize.load_instance(path)
    msg = str(info.value)
    assert "member 0: mass sum" in msg and "member 1, point 0: negative mass" in msg
