import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multidist as md
from multidist.discrepancy import _colorings_block, _min_scaled_imbalance


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


def test_matrix_entries_are_checked_before_the_int8_cast():
    # the cast would read 0.5 as 0, True as 1 and 257 as 1 (or overflow)
    for entries in ([[1, 0.5], [1, 1]], [[1, 1.0], [1, 1]], np.array([[1.0, 0.0], [1.0, 1.0]]),
                    [[True, 1], [1, 1]], np.array([[True, False], [True, True]])):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            md.BinaryMatrix(entries)
    for entries in ([[1, 257], [1, 1]], np.array([[1, 257], [1, 1]]), [[1, -1], [1, 1]]):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            md.BinaryMatrix(entries)
    for entries in (np.zeros((0, 0), dtype=np.int8), [], [[]]):
        with pytest.raises(ValueError, match="square and nonempty"):
            md.BinaryMatrix(entries)
    # integer lists and any integer dtype load, as int8
    for entries in ([[1, 0], [1, 1]], np.array([[1, 0], [1, 1]], dtype=np.uint64)):
        loaded = md.BinaryMatrix(entries).entries
        assert loaded.dtype == np.int8 and loaded.tolist() == [[1, 0], [1, 1]]


def test_coloring_validation():
    with pytest.raises(ValueError):
        md.Coloring(np.array([1, 0, -1]))


def test_all_ones_2x2_reduction():
    rf = md.ReductionFamily(md.BinaryMatrix(np.ones((2, 2), dtype=np.int8)))
    fam = rf.family
    assert fam.k == 4
    assert fam.mass_matrix.tolist() == [[0.5, 0.5]] * 4
    assert fam.label_prob_matrix.tolist() == [[1.0, 1.0], [0.0, 0.0]] * 2
    assert md.validate_family(fam).ok


def test_identity_reduction_gives_point_masses():
    rf = md.ReductionFamily(md.BinaryMatrix(np.eye(3, dtype=np.int8)))
    for i in range(3):
        assert rf.family.mass_matrix[2 * i].tolist() == [float(j == i) for j in range(3)]


def test_reduction_family_never_label_consistent():
    rng = np.random.default_rng(0)
    for _ in range(5):
        rf = md.ReductionFamily(random_matrix(rng, 6))
        assert not rf.family.label_consistent


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
    # blocks of 1, 3 and 5 (scanned as 1, 2 and 4 colorings) split the 64
    # colorings of n = 7 into many blocks; the minimizer must not depend on it
    rng = np.random.default_rng(11)
    for _ in range(5):
        matrix = random_matrix(rng, 7)
        rf = md.ReductionFamily(matrix)
        zc, inf_n, two_n = md.bruteforce_min_discrepancy(matrix)
        for block in (1, 3, 5):
            zb, inf_b, two_b = md.bruteforce_min_discrepancy(matrix, block=block)
            assert (zb.z.tolist(), inf_b, two_b) == (zc.z.tolist(), inf_n, two_n)
            assert md.min_deterministic_error(rf, block=block) == md.min_deterministic_error(rf)


def test_oracles_reject_a_non_integer_block():
    # int() would run 2.7 as 2 and True as 1
    matrix = md.BinaryMatrix(np.eye(4, dtype=np.int8))
    rf = md.ReductionFamily(matrix)
    for block in (2.7, True, "4", float("nan")):
        with pytest.raises(ValueError, match="block must be an integer"):
            md.bruteforce_min_discrepancy(matrix, block=block)
        with pytest.raises(ValueError, match="block must be an integer"):
            md.min_deterministic_error(rf, block=block)
    for block in (0, -3):
        with pytest.raises(ValueError, match="block must be >= 1"):
            md.bruteforce_min_discrepancy(matrix, block=block)
    assert md.bruteforce_min_discrepancy(matrix, block=4.0)[1] == 1


def lex_scan(scaled):
    """Definition-based scan: every coloring of all n coordinates in
    itertools.product order (-1 before +1, first coordinate most
    significant) with Python integers; the first minimizer of
    max_i |scaled_i . z| and its value."""
    rows = [[int(v) for v in row] for row in scaled]
    best, best_z = None, None
    for z in itertools.product((-1, 1), repeat=len(rows)):
        val = max(abs(sum(s * zj for s, zj in zip(row, z))) for row in rows)
        if best is None or val < best:
            best, best_z = val, z
    return best, list(best_z)


def lcm_scaled(matrix):
    """The rows min_deterministic_error scans: row i times lcm(m) / m_i."""
    m = [int(v) for v in matrix.row_ones]
    l = math.lcm(*m)
    return matrix.entries.astype(np.int64) * np.array([l // mi for mi in m])[:, None], 2 * l


@st.composite
def scan_inputs(draw):
    n = draw(st.integers(2, 10))
    if draw(st.booleans()):
        # planted zero: the scan stops at the first zero-imbalance block
        matrix, _ = md.planted_zero_matrix(n - n % 2, draw(st.sampled_from([0.2, 0.5, 1.0])),
                                           np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        matrix = md.BinaryMatrix([row if any(row) else [1] + row[1:] for row in rows])
    block = draw(st.one_of(st.just(1), st.integers(1, 2 ** (matrix.n - 1) + 3)))
    return matrix, block


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scan_inputs())
def test_narrow_scan_equals_a_lex_order_product_scan(inputs):
    matrix, block = inputs
    # unit scale: the discrepancy oracle
    best, best_z = lex_scan(matrix.entries)
    got_z, got_inf, got_two = md.bruteforce_min_discrepancy(matrix, block=block)
    assert (got_inf, got_z.z.tolist()) == (best, best_z)
    az = matrix.entries.astype(int) @ np.array(best_z)
    assert got_two == math.sqrt(float(az @ az))
    # lcm scale: the deterministic-error oracle
    scaled, denom = lcm_scaled(matrix)
    best, best_z = lex_scan(scaled)
    value, z = _min_scaled_imbalance(scaled, block)
    assert (value, z.tolist()) == (best, best_z)
    assert md.min_deterministic_error(md.ReductionFamily(matrix), block=block) == \
        Fraction(1, 2) + Fraction(best, denom)


@pytest.mark.parametrize("cap", [2**7 - 1, 2**7, 2**15 - 1, 2**15, 2**31 - 1, 2**31])
def test_narrow_scan_at_each_side_of_a_dtype_switch(cap):
    # row 0 reaches +-cap at the first coloring and is 0 or 1 elsewhere, so a
    # dtype one step too narrow wraps cap to its minimum, whose abs stays
    # negative, and the first coloring would look best
    a = cap // 2
    scaled = np.array([[a, cap - a, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int64)
    for sign in (1, -1):
        for block in (1, 2, 4):
            value, z = _min_scaled_imbalance(sign * scaled, block)
            assert (value, z.tolist()) == lex_scan(sign * scaled) == (1, [-1, 1, -1])
    # past int64 the scan refuses rather than wraps
    with pytest.raises(ValueError, match="past int64"):
        _min_scaled_imbalance(np.array([[2**62, 2**62], [1, 0]], dtype=np.int64), 4)


def int64_scan(scaled, block):
    """The scan as it was before it ran in narrow dtypes, kept as the
    reference: int64 sign matrices and an integer matmul for the low rows."""
    n = scaled.shape[0]
    b = min(n - 1, int(block).bit_length() - 1)
    low = scaled[:, n - b :] @ _colorings_block(b + 1, 0, 1 << b)[1:]
    az = np.empty_like(low)
    best, best_code = None, None
    for high in range(1 << (n - 1 - b)):
        column = scaled[:, : n - b] @ _colorings_block(n - b, high, high + 1)
        vals = np.abs(np.add(low, column, out=az), out=az).max(axis=0)
        idx = int(np.argmin(vals))
        if best is None or int(vals[idx]) < best:
            best, best_code = int(vals[idx]), (high << b) | idx
            if best == 0:
                break
    return best, _colorings_block(n, best_code, best_code + 1)[:, 0]


def test_narrow_scan_matches_the_int64_scan_at_n18():
    for seed in range(10):
        matrix = md.planted_high_discrepancy_matrix(18, np.random.default_rng([1818, seed]))
        best, best_z = int64_scan(matrix.entries.astype(np.int64), 1 << 14)
        got_z, got_inf, got_two = md.bruteforce_min_discrepancy(matrix)
        assert got_inf == best >= 2 and np.array_equal(got_z.z, best_z)
        az = matrix.entries.astype(np.int64) @ best_z
        assert got_two == math.sqrt(float(az @ az))
        scaled, denom = lcm_scaled(matrix)
        best, best_z = int64_scan(scaled, 1 << 14)
        value, z = _min_scaled_imbalance(scaled, 1 << 14)
        assert value == best and z.dtype == best_z.dtype and np.array_equal(z, best_z)
        assert md.min_deterministic_error(md.ReductionFamily(matrix)) == \
            Fraction(1, 2) + Fraction(best, denom) == 1


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
    assert fam.domain_size == 9
    assert np.all(fam.mass_matrix[:, 8] == 0.0)
    assert np.allclose(fam.mass_matrix[:, :8], rf.family.mass_matrix, atol=1e-15)
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


def test_dummy_minimum_labels_the_dummy_plus_and_checks_opt_prime():
    rf = md.ReductionFamily(md.BinaryMatrix(np.eye(4, dtype=np.int8)))
    base = md.min_deterministic_error(rf)
    for q in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
        # the dummy labeled -1 pays 1 - 2q more in every member
        assert md.dummy_min_deterministic_error(rf, q) == min(2 * q * base,
                                                              1 - 2 * q + 2 * q * base)
    for q in (0, Fraction(3, 4)):
        with pytest.raises(ValueError, match="opt_prime must lie in"):
            md.dummy_min_deterministic_error(rf, q)


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
    got = md.worst_case_error(v, fam).error
    assert got == pytest.approx([float(e) for e in exact], abs=1e-12)


def test_reduction_families_are_the_per_member_builds_bitwise():
    # row i gives a + member and a - member with masses 1/m_i on its ones;
    # the dummy-point variant scales them to 2q/m_i and puts 1 - 2q, labelled
    # +1, on the extra point
    A = md.planted_high_discrepancy_matrix(7, np.random.default_rng(17))
    rf = md.ReductionFamily(A)
    q = Fraction(1, 3)
    a, n = A.entries, A.n
    plain, dummy = [], []
    for i in range(n):
        m_i = int(A.row_ones[i])
        mass = a[i].astype(np.float64) / float(m_i)
        plain += [(mass, np.ones(n)), (mass, np.zeros(n))]
        mass = np.append(a[i].astype(np.float64) * float(2 * q / m_i), float(1 - 2 * q))
        dummy += [(mass, np.append(np.ones(n), 1.0)), (mass, np.append(np.zeros(n), 1.0))]
    for fam, members in ((rf.family, plain), (md.dummy_point_variant(rf, q), dummy)):
        mass, eta = (np.array(rows) for rows in zip(*members))
        assert fam.mass_matrix.tobytes() == mass.tobytes()
        assert fam.label_prob_matrix.tobytes() == eta.tobytes()


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
