import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import multidist as md


def random_matrix(rng, n, density=0.5):
    while True:
        entries = (rng.random((n, n)) < density).astype(np.int8)
        if np.all(entries.sum(axis=1) >= 1):
            return md.BinaryMatrix(entries)


def random_labels(rng, n):
    return np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)


def dummy_member_errors(rf, opt_prime, labels):
    """Exact per-member errors on the dummy-point family of a labeling of all
    n + 1 points (dummy last): the dummy point costs 1 - 2q where it is
    labeled -1, and the original points keep their errors scaled by 2q."""
    q = Fraction(opt_prime)
    dummy_err = (1 - 2 * q) if labels[rf.n] == -1 else Fraction(0)
    return [dummy_err + 2 * q * e for e in rf.member_errors(labels[: rf.n])]


def oracle_member_errors(matrix, v):
    """Definition-based oracle: error of the +/- member of each row is the
    fraction of its support the labeling gets wrong."""
    out = []
    for i in range(matrix.n):
        support = [j for j in range(matrix.n) if matrix.entries[i, j] == 1]
        m_i = len(support)
        out.append(Fraction(sum(1 for j in support if v[j] == -1), m_i))
        out.append(Fraction(sum(1 for j in support if v[j] == 1), m_i))
    return out


def test_matrix_validation():
    with pytest.raises(ValueError):
        md.BinaryMatrix(np.array([[1, 0], [0, 0]]))  # zero row
    with pytest.raises(ValueError):
        md.BinaryMatrix(np.array([[1, 0, 1], [0, 1, 0]]))  # not square
    with pytest.raises(ValueError):
        md.BinaryMatrix(np.array([[2, 0], [0, 1]]))


def test_coloring_validation():
    with pytest.raises(ValueError):
        md.Coloring(np.array([1, 0, -1]))


def test_all_ones_2x2_reduction():
    rf = md.ReductionFamily(md.BinaryMatrix(np.ones((2, 2), dtype=np.int8)))
    fam = rf.family
    assert fam.k == 4
    for member in fam.members:
        assert member.mass.tolist() == [0.5, 0.5]
    assert fam.members[0].label_one_prob.tolist() == [1.0, 1.0]
    assert fam.members[1].label_one_prob.tolist() == [0.0, 0.0]
    assert md.validate_family(fam).ok


def test_identity_reduction_gives_point_masses():
    rf = md.ReductionFamily(md.BinaryMatrix(np.eye(3, dtype=np.int8)))
    for i in range(3):
        assert rf.family.members[2 * i].mass.tolist() == [float(j == i) for j in range(3)]


def test_reduction_family_never_label_consistent():
    rng = np.random.default_rng(0)
    for _ in range(5):
        rf = md.ReductionFamily(random_matrix(rng, 6))
        assert not md.is_label_consistent(rf.family)


def test_row_identity_matches_direct_summation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        matrix = random_matrix(rng, 8)
        rf = md.ReductionFamily(matrix)
        v = random_labels(rng, 8)
        direct = oracle_member_errors(matrix, v)
        for i in range(8):
            er_minus_sigma, er_sigma, sigma = md.row_identity_errors(rf, v, i)
            dot = int(v.astype(int) @ matrix.entries[i].astype(int))
            assert sigma == (1 if dot >= 0 else -1)
            m_i = int(matrix.row_ones[i])
            assert er_minus_sigma == Fraction(1, 2) + Fraction(abs(dot), 2 * m_i)
            assert er_minus_sigma + er_sigma == 1
            plus_err, minus_err = direct[2 * i], direct[2 * i + 1]
            if sigma == 1:
                assert (er_minus_sigma, er_sigma) == (minus_err, plus_err)
            else:
                assert (er_minus_sigma, er_sigma) == (plus_err, minus_err)


def test_sigma_convention_at_zero_dot():
    matrix = md.BinaryMatrix(np.ones((2, 2), dtype=np.int8))
    rf = md.ReductionFamily(matrix)
    er_ms, er_s, sigma = md.row_identity_errors(rf, np.array([1, -1]), 0)
    assert sigma == 1
    assert er_ms == er_s == Fraction(1, 2)


def test_coloring_error_examples():
    rng = np.random.default_rng(2)
    A, z = md.planted_zero_matrix(8, 0.5, rng)
    rf = md.ReductionFamily(A)
    assert md.coloring_error(z, rf) == Fraction(1, 2)

    ones = md.ReductionFamily(md.BinaryMatrix(np.ones((4, 4), dtype=np.int8)))
    balanced = np.array([1, 1, -1, -1], dtype=np.int8)
    assert md.coloring_error(balanced, ones) == Fraction(1, 2)

    ident = md.ReductionFamily(md.BinaryMatrix(np.eye(3, dtype=np.int8)))
    for v in itertools.product((-1, 1), repeat=3):
        assert md.coloring_error(np.array(v, dtype=np.int8), ident) == 1


def test_coloring_error_floor_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        matrix = random_matrix(rng, 7)
        rf = md.ReductionFamily(matrix)
        v = random_labels(rng, 7)
        err = md.coloring_error(v, rf)
        assert err >= Fraction(1, 2)
        dots = matrix.entries.astype(int) @ v.astype(int)
        assert (err == Fraction(1, 2)) == bool(np.all(dots == 0))


def test_bruteforce_all_ones_and_identity():
    ones = md.BinaryMatrix(np.ones((6, 6), dtype=np.int8))
    _, inf_n, two_n = md.bruteforce_min_discrepancy(ones)
    assert inf_n == 0 and two_n == 0.0
    ident = md.BinaryMatrix(np.eye(5, dtype=np.int8))
    _, inf_n, _ = md.bruteforce_min_discrepancy(ident)
    assert inf_n == 1


def test_bruteforce_planted_zero_instances():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A, z = md.planted_zero_matrix(10, 0.5, rng)
        zc, inf_n, two_n = md.bruteforce_min_discrepancy(A)
        assert inf_n == 0 and two_n == 0.0
        assert np.all(A.entries.astype(int) @ zc.z.astype(int) == 0)


def test_bruteforce_returns_lex_smallest_minimizer():
    rng = np.random.default_rng(5)
    for _ in range(5):
        matrix = random_matrix(rng, 7)
        zc, inf_n, _ = md.bruteforce_min_discrepancy(matrix)
        assert zc.z[0] == -1
        # independent full scan over all 2^n colorings in lex order
        best = None
        best_z = None
        for bits in itertools.product((-1, 1), repeat=7):
            z = np.array(bits, dtype=np.int64)
            val = int(np.abs(matrix.entries.astype(np.int64) @ z).max())
            if best is None or val < best:
                best, best_z = val, bits
        assert inf_n == best
        assert tuple(zc.z.tolist()) == best_z



def test_oracles_agree_across_block_sizes():
    # blocks of 1, 3 and 5 colorings split the 64 colorings of n = 7 into many
    # blocks, the last one partial; the minimizer must not depend on the split
    rng = np.random.default_rng(11)
    for _ in range(5):
        matrix = random_matrix(rng, 7)
        rf = md.ReductionFamily(matrix)
        zc, inf_n, two_n = md.bruteforce_min_discrepancy(matrix)
        for block in (1, 3, 5):
            zb, inf_b, two_b = md.bruteforce_min_discrepancy(matrix, block=block)
            assert (zb.z.tolist(), inf_b, two_b) == (zc.z.tolist(), inf_n, two_n)
            assert md.min_deterministic_error(rf, block=block) == md.min_deterministic_error(rf)

def test_bruteforce_size_limit():
    with pytest.raises(ValueError):
        md.bruteforce_min_discrepancy(md.BinaryMatrix(np.eye(21, dtype=np.int8)))


def test_norm_bridge_inf_vs_two():
    rng = np.random.default_rng(6)
    for _ in range(30):
        matrix = random_matrix(rng, 9)
        z = random_labels(rng, 9)
        az = matrix.entries.astype(int) @ z.astype(int)
        inf_n = int(np.abs(az).max())
        two_sq = int(az @ az)
        assert inf_n * inf_n * 9 >= two_sq  # |Az|_inf >= |Az|_2 / sqrt(n), exactly


def test_min_deterministic_error_planted_and_identity():
    rng = np.random.default_rng(7)
    A, _ = md.planted_zero_matrix(10, 0.5, rng)
    assert md.min_deterministic_error(md.ReductionFamily(A)) == Fraction(1, 2)
    ident = md.ReductionFamily(md.BinaryMatrix(np.eye(4, dtype=np.int8)))
    assert md.min_deterministic_error(ident) == 1


def test_min_deterministic_error_matches_independent_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(5):
        matrix = random_matrix(rng, 8)
        rf = md.ReductionFamily(matrix)
        got = md.min_deterministic_error(rf)
        best = min(
            max(oracle_member_errors(matrix, np.array(v, dtype=np.int8)))
            for v in itertools.product((-1, 1), repeat=8)
        )
        assert got == best


def test_planted_zero_construction_properties():
    rng = np.random.default_rng(9)
    A, z = md.planted_zero_matrix(12, 0.4, rng)
    assert np.all(A.entries.astype(int) @ z.z.astype(int) == 0)
    assert np.all(A.entries.sum(axis=1) >= 2)
    with pytest.raises(ValueError):
        md.planted_zero_matrix(7, 0.5, rng)


def test_planted_high_discrepancy_construction():
    rng = np.random.default_rng(10)
    for _ in range(5):
        H = md.planted_high_discrepancy_matrix(10, rng)
        _, inf_n, _ = md.bruteforce_min_discrepancy(H)
        assert inf_n >= 2
        assert md.min_deterministic_error(md.ReductionFamily(H)) == 1


def test_planted_matrices_reject_a_density_outside_zero_one_before_drawing():
    for density in (0.0, -0.5, 7.0, float("nan"), float("inf")):
        for make in (lambda rng: md.planted_zero_matrix(10, density, rng),
                     lambda rng: md.planted_high_discrepancy_matrix(10, rng, density)):
            rng = np.random.default_rng(12)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match=r"density must lie in \(0, 1\]"):
                make(rng)
            assert rng.bit_generator.state == state
    # density 1 is allowed, and the default keeps its stream
    md.planted_high_discrepancy_matrix(10, np.random.default_rng(12), 1.0)
    a = md.planted_high_discrepancy_matrix(10, np.random.default_rng(13))
    b = md.planted_high_discrepancy_matrix(10, np.random.default_rng(13), 0.5)
    assert np.array_equal(a.entries, b.entries)


def test_distinguisher_verdicts():
    rng = np.random.default_rng(11)
    A, z = md.planted_zero_matrix(10, 0.5, rng)
    assert md.distinguisher(A, z, Fraction(1, 10**6)) == md.Verdict.ZERO_DISCREPANCY_LIKELY

    ident = md.BinaryMatrix(np.eye(5, dtype=np.int8))
    for v in (np.ones(5, dtype=np.int8), -np.ones(5, dtype=np.int8)):
        assert md.distinguisher(ident, v, 0.49) == md.Verdict.HIGH_DISCREPANCY

    # a row with |v . a_i| >= c sqrt(n) forces the high verdict at eps <= c/(2 sqrt(n))
    n = 9
    c = 2.0
    row = np.ones(n, dtype=np.int8)
    entries = np.eye(n, dtype=np.int8)
    entries[0] = row
    A2 = md.BinaryMatrix(entries)
    v = np.ones(n, dtype=np.int8)  # v . row = 9 >= 2*3
    eps = c / (2 * math.sqrt(n))
    assert md.distinguisher(A2, v, Fraction(1, 3)) == md.Verdict.HIGH_DISCREPANCY
    assert Fraction(1, 3) == Fraction(eps).limit_denominator(10)


def test_dummy_point_variant_boundary_recovers_original():
    rng = np.random.default_rng(12)
    A, _ = md.planted_zero_matrix(8, 0.5, rng)
    rf = md.ReductionFamily(A)
    fam = md.dummy_point_variant(rf, Fraction(1, 2))
    assert fam.domain.size == 9
    for i, member in enumerate(fam.members):
        assert member.mass[8] == 0.0
        assert np.allclose(member.mass[:8], rf.family.members[i].mass, atol=1e-15)
    assert md.validate_family(fam).ok


def test_dummy_point_minimum_error_by_bruteforce():
    rng = np.random.default_rng(13)
    A, _ = md.planted_zero_matrix(8, 0.5, rng)
    rf = md.ReductionFamily(A)
    q = Fraction(1, 4)
    got = md.dummy_min_deterministic_error(rf, q)
    assert got == q
    # independent brute force over all 2^(n+1) labelings
    best = min(
        max(dummy_member_errors(rf, q, np.array(v, dtype=np.int8)))
        for v in itertools.product((-1, 1), repeat=9)
    )
    assert best == got


def test_dummy_point_minus_label_costs_everywhere():
    rng = np.random.default_rng(14)
    A, _ = md.planted_zero_matrix(6, 0.5, rng)
    rf = md.ReductionFamily(A)
    q = Fraction(1, 5)
    v = np.append(random_labels(rng, 6), -1).astype(np.int8)
    errors = dummy_member_errors(rf, q, v)
    assert all(e >= 1 - 2 * q for e in errors)


def test_dummy_point_rejects_out_of_range():
    rng = np.random.default_rng(15)
    A, _ = md.planted_zero_matrix(6, 0.5, rng)
    rf = md.ReductionFamily(A)
    for bad in (0, Fraction(3, 5), 0.75):
        with pytest.raises(ValueError):
            md.dummy_point_variant(rf, bad)


def test_dummy_point_float_family_matches_exact_errors():
    rng = np.random.default_rng(16)
    A, _ = md.planted_zero_matrix(6, 0.5, rng)
    rf = md.ReductionFamily(A)
    q = Fraction(1, 4)
    fam = md.dummy_point_variant(rf, q)
    v = np.append(random_labels(rng, 6), 1).astype(np.int8)
    exact = dummy_member_errors(rf, q, v)
    got = md.worst_case_error(v, fam).per_distribution
    assert got == pytest.approx([float(e) for e in exact], abs=1e-12)


def test_labels_of_wrong_length_or_values_rejected():
    A = md.BinaryMatrix(np.eye(4, dtype=np.int8))
    rf = md.ReductionFamily(A)
    for labels in ([1, 1, 1, 1, -1, -1, -1], [1, 1, -1]):
        with pytest.raises(ValueError, match="expected 4"):
            md.distinguisher(A, np.array(labels), Fraction(1, 10))
        with pytest.raises(ValueError, match="expected 4"):
            md.coloring_error(labels, rf)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        md.distinguisher(A, np.array([1, 0, 1, -1]), Fraction(1, 10))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        rf.member_errors([1, 2, 1, -1])
    assert md.coloring_error(md.Coloring([1, -1, 1, -1]), rf) == 1
