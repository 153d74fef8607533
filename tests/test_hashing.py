import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import multidist as md
from multidist import hashing
from multidist.hashing import (
    PRIME_LIMIT,
    TAIL_BLOCK_VALUES,
    TAIL_KEYS_LIMIT,
    TAIL_RUN_KEYS,
    TailCheckReport,
    TailCheckRow,
    _plus_thresholds,
    choose_hash_params,
    coefficient_matrix_eval,
    is_prime,
    limited_independence_tail_bound,
    next_prime,
    sample_hash,
    standard_hoeffding_bound,
)
from multidist.instances import gen_gap_example


def _horner(coeffs, x: int, p: int) -> int:
    """Reference evaluation in Python integers, which never overflow."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + int(c)) % p
    return acc


def _eval(q: md.PolyHash, x: int) -> int:
    """The package evaluator at one key."""
    return int(coefficient_matrix_eval([q.coefficients], [x], q.prime)[0, 0])


def test_is_prime_against_sympy():
    for n in range(2000):
        assert is_prime(n) == sympy.isprime(n), n
    rng = np.random.default_rng(0)
    for n in rng.integers(1, 2**61, size=200):
        assert is_prime(int(n)) == sympy.isprime(int(n)), n


def test_next_prime_examples():
    assert next_prime(10) == 11
    assert next_prime(11) == 11
    assert next_prime(10**6) == 1000003
    assert sympy.isprime(1000003)
    with pytest.raises(ValueError):
        next_prime(0)
    with pytest.raises(OverflowError):
        next_prime(2**63)


def test_next_prime_matches_sympy_on_random_inputs():
    rng = np.random.default_rng(1)
    for n in rng.integers(2, 10**7, size=50):
        assert next_prime(int(n)) == int(sympy.nextprime(int(n) - 1))


def test_polyhash_validation():
    with pytest.raises(ValueError):
        md.PolyHash(6, (1, 2))  # not prime
    with pytest.raises(ValueError):
        md.PolyHash(5, (5, 0))  # coefficient out of range
    with pytest.raises(ValueError):
        md.PolyHash(5, ())
    q = md.PolyHash(5, (0, 0))  # all-zero coefficients are a legal draw
    assert _eval(q, 3) == 0
    # int() would read 2.7 as 2, True as 1 and "5" as 5
    for coeffs in ((2.7, 3), (True, 3), ("5", 3), (np.float64(1.5), 3)):
        with pytest.raises(ValueError, match="hash coefficient must be an integer"):
            md.PolyHash(67, coeffs)
    rng = np.random.default_rng(2)
    for prime in (67.5, True, "67", np.float64(66.5)):
        with pytest.raises(ValueError, match="hash prime must be an integer"):
            md.PolyHash(prime, (1, 2))
        with pytest.raises(ValueError, match="hash prime must be an integer"):
            sample_hash(prime, 4, rng)
    for r in (4.5, True, "4"):
        with pytest.raises(ValueError, match="hash degree r must be an integer"):
            sample_hash(67, r, rng)
    # an integral float is the integer it names, and draws the same hash
    q = md.PolyHash(67.0, (2.0, np.int64(3)))
    assert q == md.PolyHash(67, (2, 3))
    assert type(q.prime) is int and all(type(c) is int for c in q.coefficients)
    assert (sample_hash(67.0, 4.0, np.random.default_rng(3))
            == sample_hash(67, 4, np.random.default_rng(3)))


def test_sample_hash_requires_even_degree():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        sample_hash(5, 3, rng)
    with pytest.raises(ValueError):
        sample_hash(5, 1, rng)
    q = md.PolyHash(5, (3,))
    assert q.degree_r == 1  # a constant polynomial
    assert all(_eval(q, x) == q.coefficients[0] for x in range(5))


def test_sample_hash_coefficient_uniformity():
    rng = np.random.default_rng(3)
    p, r, draws = 101, 4, 10_000
    counts = np.zeros((r, p))
    for _ in range(draws):
        q = sample_hash(p, r, rng)
        for i, c in enumerate(q.coefficients):
            counts[i, c] += 1
    freq = counts / draws
    sigma = math.sqrt((1 / p) * (1 - 1 / p) / draws)
    assert np.all(np.abs(freq - 1 / p) <= 4 * sigma)


def test_eval_hash_example():
    q = md.PolyHash(7, (3, 2))
    assert _eval(q, 4) == (3 + 2 * 4) % 7


def test_eval_hash_bounds():
    q = md.PolyHash(7, (1, 1))
    with pytest.raises(ValueError):
        _eval(q, 7)
    # both arithmetic paths, negative keys, and a bad key among good ones
    for p in (7, next_prime(2**40)):
        for key in (-1, p):
            with pytest.raises(ValueError, match="outside"):
                coefficient_matrix_eval([[1, 1]], [0, key], p)
        # a scalar key and a 2-D key array
        for keys in (3, [[1, 2], [3, 4]]):
            with pytest.raises(ValueError, match="keys must be a 1-D array"):
                coefficient_matrix_eval([[1, 2]], keys, p)


def test_eval_hash_against_bigint_oracle():
    rng = np.random.default_rng(4)
    p = 1000003
    for _ in range(50):
        coeffs = tuple(int(c) for c in rng.integers(0, p, size=6))
        q = md.PolyHash(p, coeffs)
        x = int(rng.integers(0, p))
        oracle = sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
        assert _eval(q, x) == oracle


def test_eval_hash_vector_matches_scalar():
    rng = np.random.default_rng(5)
    q = sample_hash(211, 6, rng)
    xs = rng.integers(0, 211, size=100)
    vec = coefficient_matrix_eval([q.coefficients], xs, q.prime)[0]
    assert vec.tolist() == [_horner(q.coefficients, int(x), q.prime) for x in xs]


def test_pairwise_independence_exhaustive_p5():
    # for every pair of distinct keys, (a0, a1) -> (q(x1), q(x2)) is a
    # bijection over all 25 coefficient pairs
    p = 5
    for x1 in range(p):
        for x2 in range(p):
            if x1 == x2:
                continue
            images = set()
            for a0 in range(p):
                for a1 in range(p):
                    q = md.PolyHash(p, (a0, a1))
                    images.add((_eval(q, x1), _eval(q, x2)))
            assert len(images) == p * p


def test_threewise_independence_exhaustive_p7():
    p = 7
    triples = list(itertools.combinations(range(p), 3))
    coeffs = np.array(list(itertools.product(range(p), repeat=3)), dtype=np.int64)
    for keys in triples:
        vals = coefficient_matrix_eval(coeffs, np.array(keys), p)
        images = {tuple(row) for row in vals}
        assert len(images) == p**3


def test_marginal_one_probability():
    fam, cls, F = gen_gap_example(5)
    for j in range(5):
        assert F.marginals[j] == pytest.approx(1 - 1 / 5, abs=1e-15)
    single = md.RandomizedClassifier(cls, (2,), np.array([1.0]))
    assert single.marginals[2] == 0.0
    assert single.marginals[0] == 1.0


def test_plus_probability_floor_law():
    assert md.plus_probability(0.3, 7) == Fraction(2, 7)
    assert md.plus_probability(0.0, 7) == 0
    assert md.plus_probability(1.0, 7) == 1
    assert md.plus_probability(0.5, 7) == Fraction(3, 7)


def test_floor_law_sandwich_property():
    rng = np.random.default_rng(6)
    for p in (5, 7, 101, 1009):
        for m in rng.random(50):
            got = md.plus_probability(float(m), p)
            exact_m = Fraction(float(m))
            assert exact_m - Fraction(1, p) <= got <= exact_m


def _compact(marginal: float, q: md.PolyHash, n: int) -> md.CompactClassifier:
    # a two-hypothesis class whose mixture marginal is exactly `marginal` everywhere
    cls = md.HypothesisClass([np.ones(n), -np.ones(n)])
    F = md.RandomizedClassifier(cls, (0, 1), np.array([marginal, 1.0 - marginal]))
    return md.CompactClassifier(q, (), (), F)


def test_compact_evaluate_extreme_marginals():
    rng = np.random.default_rng(7)
    q = sample_hash(11, 2, rng)
    assert np.all(_compact(1.0, q, 8).label_vector() == 1)
    assert np.all(_compact(0.0, q, 8).label_vector() == -1)


def test_compact_evaluate_matches_floor_law_frequency():
    # marginal 0.3 at p = 7: Pr[+1] = floor(2.1)/7 = 2/7 over hash draws
    p, n, draws = 7, 5, 100_000
    rng = np.random.default_rng(8)
    coeffs = rng.integers(0, p, size=(draws, 2))
    vals = coefficient_matrix_eval(coeffs, np.array([3]), p)[:, 0]
    marginal = 0.3
    plus = np.array([Fraction(int(v) + 1) <= Fraction(marginal) * p for v in vals])
    want = float(md.plus_probability(marginal, p))
    sigma = math.sqrt(want * (1 - want) / draws)
    assert abs(plus.mean() - want) <= 3 * sigma


def test_compact_evaluate_pure_and_total():
    rng = np.random.default_rng(9)
    n = 200
    cls = md.HypothesisClass([np.where(rng.random(n) < 0.5, 1, -1) for _ in range(3)])
    F = md.RandomizedClassifier(cls, (0, 1, 2), np.array([0.2, 0.5, 0.3]))
    q = sample_hash(next_prime(n + 1), 4, rng)
    clf = md.CompactClassifier(q, [5, 9], [1, -1], F)
    first = clf.label_vector().tolist()
    second = md.CompactClassifier(q, [5, 9], [1, -1], F).label_vector().tolist()
    assert first == second and len(first) == n
    assert first[5] == 1 and first[9] == -1


def test_compact_classifier_derives_its_domain_and_range():
    # the range is the hash's prime and the domain the mixture's class width;
    # fields that could hold only those values are gone
    assert [f.name for f in dataclasses.fields(md.CompactClassifier)] == [
        "hash", "t_points", "t_labels", "f_rand"]
    assert [f.name for f in dataclasses.fields(md.DerandResult)] == ["classifier", "table"]
    cls = md.HypothesisClass([np.ones(6), -np.ones(6)])
    F = md.RandomizedClassifier(cls, (0, 1), np.array([0.5, 0.5]))
    assert md.CompactClassifier(md.PolyHash(7, (1, 1)), [5], [1], F).domain_size == 6
    for prime, points, message in ((5, [], "hash prime must exceed the domain size"),
                                   (7, [6], "table key 6 outside the domain")):
        with pytest.raises(ValueError, match=message):
            md.CompactClassifier(md.PolyHash(prime, (1, 1)), points, [1] * len(points), F)


def test_compact_vector_boundary_matches_exact_decision():
    # marginals that make marginal*p land exactly on an integer stress the
    # boundary: q(x) + 1 <= marginal*p must use exact arithmetic
    p = 7
    q = md.PolyHash(p, (1, 1))  # q(x) = 1 + x
    n = 6
    cls = md.HypothesisClass([np.ones(n), -np.ones(n)])
    for num in range(p + 1):
        marginal = num / p  # marginal*p is exactly num up to float rounding
        F = md.RandomizedClassifier(cls, (0, 1), np.array([marginal, 1 - marginal]))
        clf = md.CompactClassifier(q, (), (), F)
        for x in range(n):
            want = 1 if Fraction(_horner(q.coefficients, x, p) + 1) <= Fraction(marginal) * p else -1
            assert clf.label_vector()[x] == want


def _primes_of_bits(lo: int, hi: int):
    """Primes at every scale from 2^lo to 2^hi: a bit length, then the next
    prime after a number of that length (2^62 - 57 is the last prime below
    PRIME_LIMIT)."""
    return st.integers(lo, hi).flatmap(lambda b: st.integers(1 << b, (1 << (b + 1)) - 1)).map(
        lambda n: next_prime(min(n, PRIME_LIMIT - 57)))


primes = _primes_of_bits(1, 61)

# The primes on the two sides of each switch of the evaluator's working dtype:
# the largest prime p with p(p - 1) + (p - 1) <= 2^15 - 1 and the next one
# (int16 / int32), the same for 2^31 - 1 (int32 / int64), and the largest
# prime with p(p - 1) < 2^63 and the next one (int64 / Python integers).
INT16_SPLIT_PRIMES = (181, 191)
INT32_SPLIT_PRIMES = (46337, 46349)
SPLIT_PRIMES = (3037000493, 3037000507)
DTYPE_SPLIT_PRIMES = INT16_SPLIT_PRIMES + INT32_SPLIT_PRIMES + SPLIT_PRIMES


def _result_dtype(p: int):
    """The evaluator's documented result dtype at p: its working dtype, and
    int64 for the Python-integer path."""
    return np.int16 if p <= 181 else np.int32 if p <= 46337 else np.int64


@settings(max_examples=300, deadline=None)
@given(st.data(), primes, st.integers(1, 12))
def test_evaluator_matches_python_int_horner(data, p, r):
    rows = data.draw(st.integers(1, 4))
    coeffs = [[data.draw(st.integers(0, p - 1)) for _ in range(r)] for _ in range(rows)]
    xs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    got = coefficient_matrix_eval(coeffs, xs, p)
    assert got.dtype == _result_dtype(p) and got.shape == (rows, len(xs))
    assert got.tolist() == [[_horner(row, x, p) for x in xs] for row in coeffs]


@settings(max_examples=300, deadline=None)
@given(st.data(), _primes_of_bits(1, 20) | st.sampled_from(DTYPE_SPLIT_PRIMES), st.integers(1, 40))
def test_lazy_reduction_matches_python_int_horner(data, p, r):
    # at small p the loop skips several reductions, then reduces in mid-loop
    rows = data.draw(st.integers(1, 3))
    coeffs = [[data.draw(st.integers(0, p - 1)) for _ in range(r)] for _ in range(rows)]
    xs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5))
    got = coefficient_matrix_eval(coeffs, xs, p)
    assert got.dtype == _result_dtype(p)
    assert got.tolist() == [[_horner(row, x, p) for x in xs] for row in coeffs]


def test_lazy_reduction_exact_at_worst_case_bound():
    # every coefficient and the key p - 1 make each step reach its bound, so a
    # reduction skipped once too often overflows the working dtype
    for p in (2, 3, 5, 7, 11, 67, 1009, 65537, 2**31 - 1, *DTYPE_SPLIT_PRIMES):
        for r in range(1, 41):
            coeffs = [[p - 1] * r, [p - 1] * (r - 1) + [1]]
            xs = [p - 1, p - 2, 1, 0]
            got = coefficient_matrix_eval(coeffs, xs, p)
            assert got.dtype == _result_dtype(p)
            assert got.tolist() == [[_horner(row, x, p) for x in xs] for row in coeffs], (p, r)


def _cap(p: int) -> int:
    """The largest value the evaluator lets a partial sum reach at p."""
    return p * (p - 1) if p > SPLIT_PRIMES[0] else int(np.iinfo(_result_dtype(p)).max)


def _step_bounds(p: int, top: int) -> list[int]:
    """The bounds of the evaluator's Horner steps from a reduced acc at keys
    up to top: p - 1, then b * top + (p - 1) for as long as that stays
    within the cap, so the step after the last one reduces first."""
    bounds = [p - 1]
    while bounds[-1] * top + (p - 1) <= _cap(p):
        bounds.append(bounds[-1] * top + (p - 1))
    return bounds


def _recording_reduce(monkeypatch) -> list[int]:
    """Patch hashing._reduce to record the largest entry of each acc it
    reduces; returns the list it records into."""
    seen = []
    reduce = hashing._reduce

    def recording(acc, p, quot):
        seen.append(int(acc.max()))
        reduce(acc, p, quot)

    monkeypatch.setattr(hashing, "_reduce", recording)
    return seen


@pytest.mark.parametrize("p", (67, *DTYPE_SPLIT_PRIMES))
def test_lazy_reduction_exact_where_consecutive_powers_are_heavy(p, monkeypatch):
    # with every coefficient p - 1 at the largest key x = p - 1, an unreduced
    # acc after j steps is (p - 1)(1 + x + ... + x^j), its heaviest value, so
    # each step from the top coefficient reaches its bound exactly; the
    # schedule must reduce there, where one more unreduced step would pass
    # the cap, and not before
    bounds = _step_bounds(p, p - 1)
    assert bounds[-1] * (p - 1) + (p - 1) > _cap(p)
    seen = _recording_reduce(monkeypatch)
    keys = [p - 1, p - 2, 1, 0]
    for r in range(1, 41):
        seen.clear()
        coeffs = [[p - 1] * r, [p - 1] * (r - 1) + [1]]
        got = coefficient_matrix_eval(coeffs, keys, p)
        assert got.dtype == _result_dtype(p)
        assert got.tolist() == [[_horner(row, x, p) for x in keys] for row in coeffs], (p, r)
        # r - 1 steps: one reduction before each step that would pass the cap, one at the end
        assert len(seen) == 1 + max(0, (r - 2) // (len(bounds) - 1))
        assert seen[0] == bounds[min(r, len(bounds)) - 1], (p, r)


def test_evaluator_reduces_once_at_the_tail_check_seed_shape(monkeypatch):
    # the default tail check seeds each hash at the keys 0..3 with p = 67:
    # from 66 the steps reach at most 66 * 3 + 66 = 264, then 858, then
    # 2640, within int16, so one reduction at the end suffices (a power
    # table made four)
    seen = _recording_reduce(monkeypatch)
    coeffs = np.random.default_rng(0).integers(0, 67, size=(16384, 4))
    got = coefficient_matrix_eval(coeffs, np.arange(4), 67)
    assert len(seen) == 1
    assert got.dtype == np.int16
    want = [[_horner(row, x, 67) for x in range(4)] for row in coeffs[:50]]
    assert got[:50].tolist() == want


def test_split_primes_straddle_int64_products():
    below, above = SPLIT_PRIMES
    assert sympy.isprime(below) and sympy.isprime(above)
    assert sympy.nextprime(below) == above
    assert below * (below - 1) < 2**63 <= above * (above - 1)


def test_split_primes_straddle_each_dtype():
    for (below, above), dtype in ((INT16_SPLIT_PRIMES, np.int16), (INT32_SPLIT_PRIMES, np.int32),
                                  (SPLIT_PRIMES, np.int64)):
        assert sympy.isprime(below) and sympy.isprime(above)
        assert sympy.nextprime(below) == above
        top = np.iinfo(dtype).max
        assert below * (below - 1) + (below - 1) <= top < above * (above - 1) + (above - 1)


def test_evaluator_rejects_unreduced_coefficients():
    for p in (7, next_prime(2**40)):
        for coeffs in ([[p + 2, 1]], [[1, p]], [[-1, 1]], [[1, 2], [3, p + 2]]):
            with pytest.raises(ValueError, match="coefficients outside"):
                coefficient_matrix_eval(coeffs, [0, 1], p)
    # at p = 67 the loop runs in int16, where 65537 and -65535 would wrap to 1
    for coeffs in ([[65537, 1]], [[1, -65535]], np.array([[65537, -65535]])):
        with pytest.raises(ValueError, match="coefficients outside"):
            coefficient_matrix_eval(coeffs, [0, 1], 67)
    for keys in ([65537], [0, -65535], np.array([65537, 1])):
        with pytest.raises(ValueError, match="keys outside"):
            coefficient_matrix_eval([[1, 1]], keys, 67)


def test_evaluator_rejects_non_integer_keys_and_coefficients():
    # a cast would evaluate key 2.7 as 2, coefficient 1.5 as 1 and True as 1
    for p in (7, 67, next_prime(2**40)):
        for keys in ([2.7], [0, 2.0], [True], [0, True], np.array([2.0]), np.array([True, False]),
                     ["3"]):
            with pytest.raises(ValueError, match="keys must be integers"):
                coefficient_matrix_eval([[1, 2]], keys, p)
        for coeffs in ([[1.5, 2]], [[1, 2], [3, 2.0]], [[True, 2]], np.array([[1.0, 2.0]]),
                       np.array([[True, False]])):
            with pytest.raises(ValueError, match="coefficients must be integers"):
                coefficient_matrix_eval(coeffs, [0, 1], p)


def test_evaluator_rejects_a_non_integer_modulus():
    # int() would run 7.9 as mod 7 and True as mod 1
    for p in (7.9, 66.5, True, "7", np.float64(67.5)):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            coefficient_matrix_eval([[1, 2]], [3], p)
    # an integral float is the integer it names
    assert np.array_equal(coefficient_matrix_eval([[1, 2]], [3], 7.0),
                          coefficient_matrix_eval([[1, 2]], [3], 7))


def test_evaluator_rejects_coefficients_not_2d_with_a_column():
    for coeffs in ([1, 2], 3, np.zeros((3, 0), dtype=np.int64), np.zeros((1, 2, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="2-D array with at least one column"):
            coefficient_matrix_eval(coeffs, [0, 1], 7)


def test_evaluator_exact_where_int64_products_overflow():
    # (p - 1)^2 is about 2^80 here: int64 Horner wraps without an error
    p = next_prime(2**40)
    x = 2**30 + 7
    coeffs = np.random.default_rng(10).integers(0, p, size=(50, 4))
    got = coefficient_matrix_eval(coeffs, [x], p)[:, 0]
    assert got.tolist() == [_horner(row, x, p) for row in coeffs]


def _constant_hash_classifier(p: int, q0: int, marginal: float, n: int = 3):
    """q(x) = q0 at every point and mixture marginal `marginal` everywhere."""
    cls = md.HypothesisClass([np.ones(n), -np.ones(n)])
    F = md.RandomizedClassifier(cls, (0, 1), np.array([marginal, 1.0 - marginal]))
    return md.CompactClassifier(md.PolyHash(p, (q0, 0)), (), (), F)


def _fraction_rule(q_value: int, marginal: float, p: int) -> int:
    return 1 if Fraction(q_value + 1) <= Fraction(marginal) * p else -1


# above 2^53 neither q + 1 nor p need be a float, so those primes are drawn
# twice as often; floats() favours simple values, so uniform ones are mixed in
@settings(max_examples=300, deadline=None)
@given(_primes_of_bits(2, 61) | _primes_of_bits(53, 61),
       st.floats(0.0, 1.0) | st.integers(0, 2**32 - 1).map(
           lambda seed: float(np.random.default_rng(seed).random())),
       st.integers(-2, 1))
def test_label_vector_matches_fraction_rule(p, marginal, step):
    # q0 + 1 within two of marginal * p, on both sides of the boundary
    q0 = min(max(math.floor(Fraction(marginal) * p) + step, 0), p - 1)
    clf = _constant_hash_classifier(p, q0, marginal)
    want = _fraction_rule(q0, float(clf.f_rand.marginals[0]), p)
    assert clf.label_vector().tolist() == [want] * 3


def test_label_vector_exact_at_float_tie_above_2_53():
    # q0 = 2^53 + 81 sits halfway between floats, so fl(fl(q0) + 1) = q0 - 1,
    # while m * p = q0 + 1/2 rounds up to q0 + 1: floats say +1, the rule -1
    p = next_prime(2**54 + 1)
    q0 = 9007199254741073
    marginal = 0.5 + 2.0**-53  # the float after 0.5
    assert abs(Fraction(marginal) * p - q0 - Fraction(1, 2)) < Fraction(1, 100)
    clf = _constant_hash_classifier(p, q0, marginal)
    assert _fraction_rule(q0, float(clf.f_rand.marginals[0]), p) == -1
    assert clf.label_vector().tolist() == [-1, -1, -1]


# 0.0, -0.0, the least subnormal, the largest subnormal, 1.0 and the float after it
EDGE_MARGINALS = (0.0, -0.0, 5e-324, 2.0**-1022 - 5e-324, 1.0, math.nextafter(1.0, 2.0))


def _boundary_marginals(p: int):
    """k / p as a float, or the float one step below or above it."""
    return st.tuples(st.integers(0, p), st.sampled_from([-math.inf, None, math.inf])).map(
        lambda kd: kd[0] / p if kd[1] is None else math.nextafter(kd[0] / p, kd[1]))


@settings(max_examples=300, deadline=None)
@given(st.data(), primes | _primes_of_bits(53, 61))
def test_plus_thresholds_are_exact_floors(data, p):
    marginals = data.draw(st.lists(
        st.sampled_from(EDGE_MARGINALS) | _boundary_marginals(p) | st.floats(0.0, 1.0),
        min_size=1, max_size=20))
    got = _plus_thresholds(marginals, p)
    assert got.dtype == np.int64
    assert got.tolist() == [math.floor(Fraction(m) * p) for m in marginals]
    assert md.plus_probability(marginals[0], p) == Fraction(int(got[0]), p)


def test_plus_thresholds_reject_marginals_outside_minus_two_two():
    for bad in (math.nan, math.inf, -math.inf, 2.0, -2.0, 1e300):
        with pytest.raises(ValueError, match="marginals must be finite and lie in"):
            _plus_thresholds([0.5, bad, 0.25], 7)
        with pytest.raises(ValueError, match="marginals must be finite and lie in"):
            md.plus_probability(bad, 7)


def test_choose_hash_params_examples():
    r, _ = choose_hash_params(4, 0.5, 0.1, 10)
    assert r == 12  # smallest even integer >= 2 ln(160) ~ 10.15
    # large domain dominates
    _, p = choose_hash_params(2, 0.5, 0.5, 10**6)
    assert p == next_prime(10**6 + 1)
    # eps^-3 term dominates: ceil(1000 ln 160) = 5076 -> prime 5077
    _, p = choose_hash_params(4, 0.1, 0.1, 40)
    assert p == 5077 and sympy.isprime(5077)


def test_choose_hash_params_rejects_an_eps_past_the_prime_limit():
    # eps^-3 ln(4k/delta) passes 2^62 just below eps = 1e-6 at k = 6, delta = 0.2;
    # the prime search's OverflowError was a traceback
    with pytest.raises(ValueError, match=r"^eps = 1e-06 needs a hash prime above 2\^62$"):
        choose_hash_params(6, 1e-6, 0.2, 40)
    # below about 1e-103, eps^-3 itself overflowed a float
    for eps in (1e-103, 1e-120, 5e-324):
        with pytest.raises(ValueError, match=f"^eps = {eps!r} needs a hash prime above 2\\^62$"):
            choose_hash_params(6, eps, 0.2, 40)
    _, p = choose_hash_params(6, 1.1e-6, 0.2, 40)
    assert p < 2**62 and is_prime(p)


def test_choose_hash_params_prime_exceeds_all_bounds():
    for (k, eps, delta, n) in [(2, 0.3, 0.2, 17), (8, 0.05, 0.01, 1000), (3, 0.9, 0.9, 5)]:
        r, p = choose_hash_params(k, eps, delta, n)
        log_term = math.log(4 * k / delta)
        alpha = 2 * eps / (log_term * math.sqrt(4.0))
        assert r % 2 == 0 and r >= 2 * log_term
        assert p > n
        assert p >= eps**-3 * log_term
        assert p > 4 * alpha**2 / eps
        assert is_prime(p)


def test_tail_bound_formula():
    assert limited_independence_tail_bound(4.0, 4, 16.0) == pytest.approx(
        (4 * 16 / (math.exp(2 / 3) * 16)) ** 2)
    with pytest.raises(ValueError):
        limited_independence_tail_bound(1.0, 3, 4.0)


@pytest.mark.parametrize("n, r", [(64, 200), (256, 234), (4096, 286)])
def test_a_tail_bound_past_every_float_is_inf(n, r):
    # at the tail check's smallest deviation, (...) ** (r / 2) once raised
    # OverflowError from these r; a bound above every float is vacuous
    cfg = md.TailCheckConfig(n=n, r=r, draws=1)
    mu = cfg.threshold / cfg.prime
    t, variance = cfg.t_values[0], n * mu * (1 - mu)
    assert limited_independence_tail_bound(t, r, max(r, variance)) == math.inf
    assert math.isfinite(limited_independence_tail_bound(t, r - 2, max(r - 2, variance)))
    report = md.empirical_tail_bound_check(md.TailCheckConfig(n=n, r=r, draws=10))
    assert report.rows[0].bound == math.inf and report.rows[0].slack_3sigma == 0.0
    assert report.ok


def test_tail_check_hash_mode_within_bound():
    report = md.empirical_tail_bound_check(md.TailCheckConfig(
        n=64, r=4, draws=30_000, seed=1))
    assert report.ok
    # mean/variance are the exact indicator values
    p = report.config.prime
    thr = report.config.threshold
    assert report.mean == 64 * thr / p
    assert report.variance == pytest.approx(64 * (thr / p) * (1 - thr / p))


def exact_z_distribution(cfg: md.TailCheckConfig) -> list[Fraction]:
    """Pr[Z = z] for z = 0..n, exactly, for the config's indicators
    Z_x = 1{q(x) < threshold} over the keys 0..n-1.

    Hash mode enumerates every polynomial of degree < r mod p: for each
    non-constant part g, the histogram of g(x) mod p over the keys; then Z
    for the constant c0 is the number of keys with (g(x) + c0) mod p below
    the threshold, one cyclic window sum of that histogram. Independent mode
    is Binomial(n, threshold / p), with exact rational masses."""
    n, p, thr = cfg.n, cfg.prime, cfg.threshold
    if cfg.independent:
        return [Fraction(math.comb(n, z) * thr**z * (p - thr) ** (n - z), p**n)
                for z in range(n + 1)]
    parts = np.indices((p,) * (cfg.r - 1)).reshape(cfg.r - 1, -1).T  # (p^(r-1), r-1)
    powers = np.array([[pow(x, j, p) for x in range(n)] for j in range(1, cfg.r)])
    g = (parts @ powers) % p  # (p^(r-1), n), sums below r p^2
    rows = np.arange(len(parts))[:, None]
    hist = np.bincount((rows * p + g).ravel(), minlength=len(parts) * p).reshape(-1, p)
    # the window {(u - c0) mod p : 0 <= u < thr} starts at s = -c0 mod p
    cum = np.concatenate([np.zeros((len(parts), 1), dtype=np.int64),
                          np.cumsum(np.hstack([hist, hist]), axis=1)], axis=1)
    starts = -np.arange(p) % p
    z = cum[:, starts + thr] - cum[:, starts]  # (p^(r-1), p): one Z per hash
    counts = np.bincount(z.ravel(), minlength=n + 1)
    return [Fraction(int(c), p**cfg.r) for c in counts]


@pytest.mark.parametrize("n,r,independent", [(16, 4, False), (32, 4, False), (32, 2, False),
                                             (16, 4, True), (32, 4, True)])
def test_tail_check_matches_the_exact_tail(n, r, independent):
    report = md.empirical_tail_bound_check(md.TailCheckConfig(
        n=n, r=r, draws=100_000, independent=independent, seed=0))
    cfg = report.config
    pz = exact_z_distribution(cfg)
    assert sum(pz) == 1
    mean = sum(z * q for z, q in enumerate(pz))
    variance = sum(z * z * q for z, q in enumerate(pz)) - mean**2
    assert report.mean == pytest.approx(float(mean), rel=1e-14)
    assert report.variance == pytest.approx(float(variance), rel=1e-14)
    for row in report.rows:
        # the report's own test of a count z, so `observed` estimates `exact`
        exact = float(sum(q for z, q in enumerate(pz) if abs(z - report.mean) >= row.t))
        assert exact <= row.bound
        assert abs(row.observed - exact) <= 4 * math.sqrt(exact * (1 - exact) / cfg.draws)


def test_tail_check_rejects_non_integer_fields():
    # n=True would run with one key
    cases = [("n", True, "n"), ("n", 16.5, "n"), ("draws", 10.5, "draws"),
             ("r", 4.5, "degree r"), ("seed", 0.5, "seed"), ("draws", "10", "draws")]
    for field, value, name in cases:
        with pytest.raises(ValueError, match=f"tail-check {name} must be an integer, got {value!r}"):
            md.TailCheckConfig(**{"n": 64, "draws": 10, field: value})


def test_tail_check_takes_only_a_bool_for_independent():
    # "no" and 1 once ran in independent mode, and the report kept "no"
    for value in ("no", 1, 0.0, None):
        with pytest.raises(ValueError, match=f"^tail-check independent must be a bool, "
                                             f"got {value!r}$"):
            md.TailCheckConfig(n=64, draws=1000, independent=value)
    assert md.TailCheckConfig(n=16, r=3, independent=np.True_).independent is True
    assert md.TailCheckConfig(n=16, independent=False).independent is False


def test_tail_check_takes_integral_floats_as_ints():
    as_floats = md.TailCheckConfig(n=64.0, r=4.0, draws=500.0, seed=3.0)
    as_ints = md.TailCheckConfig(n=64, r=4, draws=500, seed=3)
    assert as_floats == as_ints
    assert all(type(v) is int for v in (as_floats.n, as_floats.r, as_floats.draws,
                                        as_floats.prime, as_floats.threshold, as_floats.seed))
    assert md.empirical_tail_bound_check(as_floats) == md.empirical_tail_bound_check(as_ints)


def test_tail_check_rejects_odd_or_zero_degree_before_any_work(monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("the hashes were evaluated before the config was checked")

    monkeypatch.setattr(md.hashing, "coefficient_matrix_eval", no_evaluation)
    for r in (3, 0, -2):
        with pytest.raises(ValueError, match=f"degree r must be an even integer >= 2, got {r}"):
            md.empirical_tail_bound_check(md.TailCheckConfig(n=16, r=r, draws=1000))


def test_tail_check_rejects_no_draws():
    for draws in (0, -1):
        with pytest.raises(ValueError, match="draws >= 1"):
            md.empirical_tail_bound_check(md.TailCheckConfig(n=16, draws=draws))


def test_tail_check_rejects_no_keys():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1"):
            md.empirical_tail_bound_check(md.TailCheckConfig(n=n, draws=100))


def test_tail_config_takes_at_most_tail_keys_limit_keys(monkeypatch):
    # only built, never run: a check at 2^20 keys would take seconds
    def no_evaluation(*args):
        raise AssertionError("the hashes were evaluated to check a config")

    monkeypatch.setattr(md.hashing, "coefficient_matrix_eval", no_evaluation)
    assert TAIL_KEYS_LIMIT == 2**20
    cfg = md.TailCheckConfig(n=TAIL_KEYS_LIMIT, draws=1)
    assert cfg.prime == next_prime(TAIL_KEYS_LIMIT + 1) < 2**21
    with pytest.raises(ValueError, match=r"at most TAIL_KEYS_LIMIT = 2\^20 keys, got n = 1048577$"):
        md.TailCheckConfig(n=TAIL_KEYS_LIMIT + 1, draws=1)


@pytest.mark.parametrize("n, limit", [(64, 2**18), (4096, 4096), (4097, 4032),
                                      (TAIL_KEYS_LIMIT, 16)])
def test_tail_config_fits_one_draw_of_differences_in_a_block(n, limit, monkeypatch):
    # only built, never run: a hash-mode block holds r differences per run of
    # TAIL_RUN_KEYS keys for each draw, so its arrays grew with r
    def no_evaluation(*args):
        raise AssertionError("the hashes were evaluated to check a config")

    monkeypatch.setattr(md.hashing, "coefficient_matrix_eval", no_evaluation)
    assert limit * -(-n // TAIL_RUN_KEYS) <= TAIL_BLOCK_VALUES
    assert md.TailCheckConfig(n=n, r=limit, draws=1).r == limit
    with pytest.raises(ValueError, match=r"degree r must be at most TAIL_BLOCK_VALUES / "
                       rf"ceil\(n / TAIL_RUN_KEYS\) = {limit} at n = {n}, got {limit + 1}$"):
        md.TailCheckConfig(n=n, r=limit + 1, draws=1)
    # fresh values per key take no degree
    assert md.TailCheckConfig(n=n, r=limit + 1, draws=1, independent=True).r == limit + 1


@dataclasses.dataclass(frozen=True)
class _Counted:
    """What the histogram builders read of a TailCheckConfig, at any prime
    and threshold."""

    n: int
    r: int
    draws: int
    prime: int
    threshold: int
    independent: bool = False
    seed: int = 0


def _streamed_counts(cfg) -> np.ndarray:
    """The histogram the tail check streams for cfg, from its seed."""
    counts = hashing._independent_counts if cfg.independent else hashing._difference_counts
    return counts(np.random.default_rng(cfg.seed), cfg)


def _one_shot_z(cfg) -> np.ndarray:
    """Each draw's count Z with every draw in one matrix: one rng call, then
    the whole (draws, n) matrix of values."""
    p = cfg.prime
    rng = np.random.default_rng(cfg.seed)
    if cfg.independent:
        values = rng.integers(0, p, size=(cfg.draws, cfg.n))
    else:
        values = coefficient_matrix_eval(rng.integers(0, p, size=(cfg.draws, cfg.r)),
                                         np.arange(cfg.n), p)
    return (values < cfg.threshold).sum(axis=1)


def _one_shot_counts(cfg) -> np.ndarray:
    return np.bincount(_one_shot_z(cfg), minlength=cfg.n + 1)


def _report_from_counts(cfg: md.TailCheckConfig, z: np.ndarray) -> TailCheckReport:
    """The report of a config from its per-draw counts z."""
    mu_one = cfg.threshold / cfg.prime
    mean, variance = cfg.n * mu_one, cfg.n * mu_one * (1.0 - mu_one)
    rows = []
    for t in cfg.t_values:
        observed = float(np.mean(np.abs(z - mean) >= t))
        if cfg.independent:
            bound = standard_hoeffding_bound(t, cfg.n)
        else:
            bound = limited_independence_tail_bound(t, cfg.r, max(cfg.r, variance))
        capped = min(bound, 1.0)
        slack = 3.0 * math.sqrt(capped * (1.0 - capped) / cfg.draws)
        rows.append(TailCheckRow(t, observed, bound, slack, observed <= capped + slack))
    return TailCheckReport(cfg, mean, variance, tuple(rows))


def _one_shot_report(cfg: md.TailCheckConfig) -> TailCheckReport:
    """The tail check with every draw in one matrix, then the same rows."""
    return _report_from_counts(cfg, _one_shot_z(cfg))


@pytest.mark.parametrize("prime", [67, 191, 46349])
def test_tail_check_counts_match_python_int_horner(prime):
    # the same draws as the check, each hash evaluated in Python integers
    n, draws = 16, 400
    cfg = _Counted(n, 4, draws, prime, prime // 2, seed=prime)
    coeffs = np.random.default_rng(cfg.seed).integers(0, prime, size=(draws, cfg.r)).tolist()
    z = [sum(_horner(row, x, prime) < cfg.threshold for x in range(n)) for row in coeffs]
    assert len(set(z)) > 3
    assert np.array_equal(_streamed_counts(cfg), np.bincount(z, minlength=n + 1))


@pytest.mark.parametrize("independent", [False, True])
@pytest.mark.parametrize("n, draws, prime", [
    (64, 1000, None),           # fewer draws than one block of 4096
    (64, 9001, None),           # two full blocks and a partial one
    (64, 5000, 191),            # int32 evaluation
    (64, 5000, 1009),
    (64, 5000, 46349),          # int64 evaluation
    (64, 5000, 2**40 + 15),
    (2**18 + 3, 3, None),       # more keys than a block holds: one draw per block
    (16, 700, next_prime(2**32)),  # Python-integer evaluation
    (255, 3000, None),          # the last n counted in uint8
    (256, 3000, None),          # the first n counted in uint16
])
def test_streamed_tail_check_equals_one_shot(n, draws, prime, independent):
    # a prime that is not n's, such as 2^40 + 15 at n = 64, is reached
    # through the histogram builders
    assert TAIL_BLOCK_VALUES == 2**18
    if prime is None:
        cfg = md.TailCheckConfig(n=n, r=4, draws=draws, independent=independent, seed=draws + n)
        assert md.empirical_tail_bound_check(cfg) == _one_shot_report(cfg)
    else:
        cfg = _Counted(n, 4, draws, prime, prime // 2, independent, seed=draws + n)
        assert np.array_equal(_streamed_counts(cfg), _one_shot_counts(cfg))


@pytest.mark.parametrize("independent", [False, True])
@pytest.mark.parametrize("n, threshold", [(255, 257), (256, 257), (256, 256)])
def test_streamed_tail_check_counts_reach_n_at_the_count_dtype_switch(n, threshold, independent):
    # at the default threshold p // 2 a count near n never happens; at
    # threshold p every count is n, at p - 1 about a third of them at n = 256,
    # so a count type too narrow for n wraps
    assert np.min_scalar_type(255) == np.uint8 and np.min_scalar_type(256) == np.uint16
    assert md.TailCheckConfig(n=n).prime == 257
    cfg = _Counted(n, 4, 3000, 257, threshold, independent, seed=n)
    assert np.array_equal(_streamed_counts(cfg), _one_shot_counts(cfg))


# primes at each end of the difference count's unsigned dtypes, each of which
# must hold 2p - 1: uint8 up to 127, uint16 from 131 to 32749, uint32 from
# 32771 to 2^31 - 1, uint64 from 2147483659, and one near 2^61
DIFFERENCE_BAND_PRIMES = (2, 67, 127, 131, 257, 32749, 32771, 2**31 - 1, 2147483659,
                          next_prime(2**61))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(DIFFERENCE_BAND_PRIMES), st.sampled_from([2, 4, 6, 8]),
       st.sampled_from([1, 40, 300, TAIL_BLOCK_VALUES]))
def test_difference_counts_match_the_one_shot_oracle(data, p, r, block_values):
    # n = 1, n < r and n = p - 1 (seed keys past p wrap to 0, 1, ...), and n
    # across several runs of nearly equal length; small blocks give partial
    # last blocks
    edges = [1, min(r - 1, p - 1)] + ([p - 1] if p < 300 else [])
    n = data.draw(st.sampled_from(edges) | st.integers(1, min(p - 1, 3 * TAIL_RUN_KEYS + 5)))
    threshold = data.draw(st.sampled_from([0, p]) | st.integers(0, p))
    draws = data.draw(st.integers(1, 40))
    cfg = _Counted(n, r, draws, p, threshold, seed=data.draw(st.integers(0, 2**32)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(md.hashing, "TAIL_BLOCK_VALUES", block_values)
        counts = _streamed_counts(cfg)
    assert np.array_equal(counts, _one_shot_counts(cfg))


def test_wide_shallow_tail_check_seeds_each_run_not_each_key(monkeypatch):
    # 20,000 keys at 20 draws are one block: its seeds are the first r keys
    # of each of ceil(n / TAIL_RUN_KEYS) runs, so the count takes at most
    # TAIL_RUN_KEYS steps, not n
    n, r, draws = 20_000, 4, 20
    cfg = md.TailCheckConfig(n=n, r=r, draws=draws, seed=11)
    calls = []

    def recorded(coeffs, xs, p):
        calls.append((len(coeffs), len(xs)))
        return coefficient_matrix_eval(coeffs, xs, p)

    monkeypatch.setattr(md.hashing, "coefficient_matrix_eval", recorded)
    report = md.empirical_tail_bound_check(cfg)
    monkeypatch.undo()
    assert report == _one_shot_report(cfg)
    assert calls and all(keys == math.ceil(n / TAIL_RUN_KEYS) * r for _, keys in calls)
    assert sum(rows for rows, _ in calls) == draws


def test_resolved_tail_config_is_hashable_with_its_t_values_as_a_tuple():
    cfg = md.TailCheckConfig(n=16, draws=100)
    assert cfg.t_values == (2.0, 4.0, 8.0)
    assert hash(cfg) == hash(md.TailCheckConfig(n=16.0, draws=100))
    assert md.empirical_tail_bound_check(cfg).config is cfg


def test_tail_check_rejects_a_negative_seed_before_any_work(monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("the hashes were evaluated before the config was checked")

    monkeypatch.setattr(md.hashing, "coefficient_matrix_eval", no_evaluation)
    for independent in (False, True):
        with pytest.raises(ValueError, match="tail-check seed must be >= 0, got -1"):
            md.TailCheckConfig(n=16, draws=100, independent=independent, seed=-1)


def test_tail_check_memory_does_not_grow_with_draws():
    # numpy reports its buffers to tracemalloc; one count per draw peaked at
    # 2.5 MiB at 20,000 draws and 9.5 MiB at 400,000
    def peak(draws):
        tracemalloc.start()
        try:
            md.empirical_tail_bound_check(md.TailCheckConfig(n=64, r=4, draws=draws, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400_000) <= 4 * 2**20


def test_tail_check_independent_mode_cross_check():
    report = md.empirical_tail_bound_check(md.TailCheckConfig(
        n=64, r=4, draws=30_000, independent=True, seed=2))
    assert report.ok
    for row in report.rows:
        assert row.bound == pytest.approx(standard_hoeffding_bound(row.t, 64))
