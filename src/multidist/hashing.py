"""Limited-independence hashing over a prime field and the compact classifier
built on it.

A random degree-(r-1) polynomial q(x) = sum_i alpha_i x^i mod p with i.i.d.
uniform coefficients maps any r distinct keys to jointly uniform values in
[0, p): an r-wise independent hash. The compact classifier stores only the
polynomial, a small table of fixed labels, and a hypothesis mixture F; at a
point x outside the table it outputs +1 iff q(x) <= Pr_{f~F}[f(x)=1] * p - 1,
which makes Pr over the hash choice of a +1 equal to floor(marginal * p) / p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .model import (RandomizedClassifier, check_eps_delta, frozen_pins, integer_array,
                    is_positive_real, require_integer)

PRIME_LIMIT = 1 << 62
# Hash values per block of the tail check, small enough to stay in cache: 512 KiB
# in int16 (the default prime while n <= 180), 1 MiB in int32, 2 MiB in int64.
# The evaluator holds two such arrays, the key-major sum and the buffer for its
# quotients and products, and the count one byte per value for the mask
# q(x) < threshold.
TAIL_BLOCK_VALUES = 1 << 18
# Witnesses making Miller-Rabin deterministic for all n < 3.3e24 (covers 64-bit).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact over the 64-bit range."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n < 1:
        raise ValueError("next_prime needs n >= 1")
    if n > PRIME_LIMIT:
        raise OverflowError(f"prime search capped at 2^62, got {n}")
    c = max(n, 2)
    while not is_prime(c):
        c += 1
        if c > PRIME_LIMIT:
            raise OverflowError("prime search exceeded 2^62")
    return c


@dataclass(frozen=True)
class PolyHash:
    """q(x) = sum_{i=0}^{r-1} coefficients[i] * x^i mod prime.

    Degree r = len(coefficients) gives r-wise independence for r >= 2 with
    uniform coefficients. r = 1 (a constant) is structurally allowed;
    sample_hash never draws it.
    """

    prime: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prime", require_integer(self.prime, "hash prime"))
        object.__setattr__(self, "coefficients", tuple(
            require_integer(c, "hash coefficient") for c in self.coefficients))
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if len(self.coefficients) < 1:
            raise ValueError("need at least one coefficient")
        for c in self.coefficients:
            if not 0 <= c < self.prime:
                raise ValueError(f"coefficient {c} outside [0, {self.prime})")

    @property
    def degree_r(self) -> int:
        return len(self.coefficients)


def sample_hash(p: int, r: int, rng: np.random.Generator) -> PolyHash:
    """r i.i.d. uniform coefficients in [0, p); r must be even and >= 2."""
    p = require_integer(p, "hash prime")
    r = require_integer(r, "hash degree r")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 2 or r % 2 != 0:
        raise ValueError(f"degree r must be an even integer >= 2, got {r}")
    coeffs = tuple(int(c) for c in rng.integers(0, p, size=r))
    return PolyHash(p, coeffs)


def _reduce(acc: np.ndarray, p: int, quot: np.ndarray) -> None:
    """acc -= acc // p * p in place, with quot as the buffer for acc // p:
    acc mod p wherever acc >= 0."""
    np.floor_divide(acc, p, out=quot)
    quot *= p
    acc -= quot


# The evaluator's working dtypes, narrowest first; past int64 it works on
# Python integers in an object array.
_EVAL_DTYPES = (np.int16, np.int32, np.int64)


def coefficient_matrix_eval(coeffs, xs, p: int) -> np.ndarray:
    """Evaluate many polynomials (rows of integer coeffs in [0, p), constant
    term first) at many integer keys in [0, p): returns the (n_polys, n_keys)
    values in the working dtype below, or int64 past int64.

    Key-major in the power basis, with lazy reduction. First the (r, n_keys)
    table of x^i mod p: each row is the previous one times x, reduced at
    once, so its products are at most (p - 1)^2. Then the sum
    acc (n_keys, n_polys) = sum_i (x^i mod p)[:, None] * c_i, a term at a
    time. Invariant: every entry of acc lies in [0, bound]. bound is p - 1
    after the constant term and after each reduction (coefficients and keys
    are checked to lie in [0, p) before any cast), and a term adds at most
    (p - 1)^2 to it. acc is reduced mod p only before a term that would take
    bound past `cap`, and once at the end. Every reduction is
    a -= a // p * p: for a >= 0 and p > 0, a // p * p <= a, so it cannot
    overflow, and a - (a // p) * p = a mod p. Why the sum is exact: no entry
    ever exceeds `cap`, so every product and sum is computed without
    overflow, and reducing a partial sum mod p leaves its residue unchanged,
    so reducing before some terms instead of all of them leaves the final
    residue unchanged.

    The sum runs in the narrowest signed dtype whose maximum, `cap`, is at
    least p(p - 1) + (p - 1) = p^2 - 1. A term needs less: a reduced acc
    plus one product is at most (p - 1) + (p - 1)^2 = p(p - 1) <= p^2 - 1.

    ========  ===================  ========
    dtype     primes               cap
    ========  ===================  ========
    int16     p <= 181             2^15 - 1
    int32     p <= 46337           2^31 - 1
    int64     p <= 3037000493      2^63 - 1
    object    larger p             p(p - 1)
    ========  ===================  ========

    3037000493 is the largest prime with p(p - 1) < 2^63. At p = 67 and
    r = 4 the int16 sum reaches at most 66 + 3 * 66^2 = 13134, so it reduces
    once, at the end. Above int64 the sum runs on Python integers, which
    cannot overflow; there `cap` is p(p - 1), so it reduces before every
    other term and the integers stay small. Floor division is what makes the
    narrow dtypes pay: numpy divides by a scalar with a precomputed
    multiplier (libdivide), while its remainder has no such path. acc is
    key-major so that each term scales a contiguous row of coefficients by
    one power; the result is its transpose, a view.
    """
    p = require_integer(p, "modulus")
    coeffs = integer_array(coeffs, "coefficients")
    xs = integer_array(xs, "keys")
    if coeffs.ndim != 2 or coeffs.shape[1] < 1:
        raise ValueError(f"coefficients must be a 2-D array with at least one column, "
                         f"got shape {coeffs.shape}")
    if xs.ndim != 1:
        raise ValueError(f"keys must be a 1-D array, got shape {xs.shape}")
    if np.any((coeffs < 0) | (coeffs >= p)):
        raise ValueError(f"coefficients outside [0, {p})")
    if np.any((xs < 0) | (xs >= p)):
        raise ValueError(f"keys outside [0, {p})")
    dtype = next((dt for dt in _EVAL_DTYPES if np.iinfo(dt).max >= p * (p - 1) + (p - 1)),
                 object)
    cap = p * (p - 1) if dtype is object else int(np.iinfo(dtype).max)
    terms = np.ascontiguousarray(coeffs.T, dtype=dtype)  # row i holds every c_i
    xs = xs.astype(dtype)
    powers = np.empty((terms.shape[0], xs.shape[0]), dtype=dtype)
    powers[0] = 1
    row_quot = np.empty_like(xs)
    for i in range(1, terms.shape[0]):
        np.multiply(powers[i - 1], xs, out=powers[i])
        _reduce(powers[i], p, row_quot)
    acc = np.empty((xs.shape[0], terms.shape[1]), dtype=dtype)
    quot = np.empty_like(acc)  # also holds each term's product
    acc[...] = terms[0]
    bound = p - 1
    for i in range(1, terms.shape[0]):
        if bound + (p - 1) ** 2 > cap:
            _reduce(acc, p, quot)
            bound = p - 1
        np.multiply(powers[i][:, None], terms[i], out=quot)
        acc += quot
        bound += (p - 1) ** 2
    _reduce(acc, p, quot)
    return acc.T.astype(np.int64) if dtype is object else acc.T


def plus_probability(marginal: float, p: int) -> Fraction:
    """Exact law of the hash rounding: floor(marginal * p) / p.

    The float marginal is taken at face value (every float is a rational), so
    the law is bit-exact for the marginals the mixture actually produces.
    """
    scaled = Fraction(marginal) * p
    return Fraction(math.floor(scaled), p)


def _plus_decision_vector(q_values: np.ndarray, marginals: np.ndarray, p: int) -> np.ndarray:
    """The rounding decision q(x) + 1 <= marginal * p, exact for every prime
    below PRIME_LIMIT: floats decide, and comparisons in a window around the
    boundary are redone in exact rational arithmetic.

    Why the window |lhs - rhs| <= p * 2^-50 suffices, with u = 2^-53 the unit
    roundoff: the float sides lhs = fl(fl(q) + 1) and rhs = fl(marginal * fl(p))
    each pass through two roundings to nearest, so each is within a relative
    2u + u^2 of its exact value, A = q + 1 <= p or B = marginal * p. Where the
    float and the exact comparisons disagree, lhs - rhs and A - B do not have
    the same strict sign, so |lhs - rhs| <= |lhs - A| + |rhs - B|, and B is
    below p(1 + 5u) (either B < A, or B is within rounding of rhs < lhs). The
    sum is then below 4.01 u p < p * 2^-50. For p <= 2^53 the argument is
    simpler: q + 1 and p are floats, so lhs = A exactly, and round-to-nearest
    is monotone, so a wrong float answer needs rhs == lhs. Above 2^53,
    fl(q) + 1 is no longer exact, so the window has to grow with p.
    """
    lhs = q_values.astype(np.float64) + 1.0
    rhs = marginals * float(p)
    out = lhs <= rhs
    for idx in np.nonzero(np.abs(lhs - rhs) <= p * 2.0**-50)[0]:
        out[idx] = Fraction(int(q_values[idx]) + 1) <= Fraction(float(marginals[idx])) * p
    return out


@dataclass(frozen=True)
class CompactClassifier:
    """Deterministic classifier stored as (hash, override table, mixture).

    Points t_points (distinct, ascending) carry fixed labels t_labels; any
    other point is labeled +1 iff q(x) + 1 <= Pr_{f~F}[f(x)=1] * p for the
    hash's prime p, evaluated exactly. The domain is the mixture's class's.
    """

    hash: PolyHash
    t_points: np.ndarray
    t_labels: np.ndarray
    f_rand: RandomizedClassifier

    def __post_init__(self):
        points, labels = frozen_pins(self.t_points, self.t_labels, "t_table")
        object.__setattr__(self, "t_points", points)
        object.__setattr__(self, "t_labels", labels)
        if self.hash.prime <= self.domain_size:
            raise ValueError("hash prime must exceed the domain size")
        if points.size and points[-1] >= self.domain_size:
            raise ValueError(f"table key {points[-1]} outside the domain")

    @property
    def domain_size(self) -> int:
        return self.f_rand.domain_size

    @cached_property
    def _label_vector(self) -> np.ndarray:
        q_vals = coefficient_matrix_eval([self.hash.coefficients], np.arange(self.domain_size),
                                         self.hash.prime)[0]
        plus = _plus_decision_vector(q_vals, self.f_rand.marginals, self.hash.prime)
        labels = np.where(plus, 1, -1).astype(np.int8)
        labels[self.t_points] = self.t_labels
        labels.flags.writeable = False
        return labels

    def label_vector(self) -> np.ndarray:
        return self._label_vector


def choose_hash_params(k: int, eps: float, delta: float, domain_size: int,
                       c_prime: float = 4.0) -> tuple[int, int]:
    """Degree and prime for compact rounding at the given precision.

    r is the smallest even integer >= 2 ln(4k/delta). The prime takes the max
    of three lower bounds — it must exceed the domain, the eps^-3 ln(4k/delta)
    range-size prescription, and the 4 alpha^2 / eps floor with
    alpha = 2 eps / (ln(4k/delta) sqrt(c_prime)) — because the stated bounds
    disagree in magnitude and the max is safe.
    """
    check_eps_delta(eps, delta)
    log_term = math.log(4.0 * k / delta)
    r = max(2, 2 * math.ceil(log_term))  # smallest even integer >= 2*log_term
    alpha = 2.0 * eps / (log_term * math.sqrt(c_prime))
    lower = max(
        domain_size + 1,
        math.ceil(eps**-3 * log_term),
        math.ceil(4.0 * alpha**2 / eps) + 1,
    )
    return r, next_prime(lower)


def standard_hoeffding_bound(t: float, n: int) -> float:
    """Two-sided Hoeffding tail for n independent [0,1] variables."""
    return 2.0 * math.exp(-2.0 * t * t / n)


def limited_independence_tail_bound(t: float, r: int, q_cap: float) -> float:
    """(r * Q / (e^(2/3) * T^2))^(r/2) for even r and Q >= max(r, variance)."""
    if r < 2 or r % 2 != 0:
        raise ValueError("the tail bound holds for even r >= 2")
    if t <= 0:
        return math.inf
    return (r * q_cap / (math.exp(2.0 / 3.0) * t * t)) ** (r / 2)


@dataclass(frozen=True)
class TailCheckConfig:
    """Monte-Carlo setup for checking the limited-independence tail bound on
    hash-derived indicators Z_x = 1{q(x) < threshold}."""

    n: int = 64
    r: int = 4
    draws: int = 100_000
    t_values: tuple[float, ...] = ()
    prime: int | None = None
    threshold: int | None = None
    independent: bool = False  # fresh randomness per point instead of one hash
    seed: int = 0

    def resolved(self) -> "TailCheckConfig":
        """This config with its defaults filled in and its integer fields as
        ints (67.0 is 67); raises ValueError on a config the check cannot run,
        such as a threshold of 33.5, n=True or a t value of 0 or NaN, before
        any work is done."""
        n = require_integer(self.n, "tail-check n")
        r = require_integer(self.r, "tail-check degree r")
        draws = require_integer(self.draws, "tail-check draws")
        seed = require_integer(self.seed, "tail-check seed")
        if n < 1:
            raise ValueError(f"tail check needs n >= 1 keys, got {n}")
        if draws < 1:
            raise ValueError(f"tail check needs draws >= 1, got {draws}")
        if not self.independent and (r < 2 or r % 2 != 0):
            raise ValueError(f"tail-check degree r must be an even integer >= 2, got {r}")
        p = (require_integer(self.prime, "tail-check prime") if self.prime is not None
             else next_prime(n + 1))
        thr = (require_integer(self.threshold, "tail-check threshold")
               if self.threshold is not None else p // 2)
        if p >= PRIME_LIMIT or not is_prime(p):
            raise ValueError(f"tail-check prime {p} is not a prime below 2^62")
        if p <= n:
            raise ValueError("prime must exceed the number of keys")
        if not 0 <= thr <= p:
            raise ValueError(f"threshold {thr} outside [0, {p}]")
        ts = self.t_values or tuple(c * math.sqrt(n) for c in (0.5, 1.0, 2.0))
        for t in ts:
            if not is_positive_real(t):
                raise ValueError(f"tail-check t values must be finite positive numbers, got {t!r}")
        return TailCheckConfig(n, r, draws, ts, p, thr, self.independent, seed)


@dataclass(frozen=True)
class TailCheckRow:
    t: float
    observed: float
    bound: float
    slack_3sigma: float
    ok: bool


@dataclass(frozen=True)
class TailCheckReport:
    config: TailCheckConfig
    mean: float
    variance: float
    rows: tuple[TailCheckRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def empirical_tail_bound_check(cfg: TailCheckConfig) -> TailCheckReport:
    """Measure Pr[|Z - mu| >= T] for Z = sum of n hash-derived indicators and
    compare against the limited-independence tail bound (or plain Hoeffding in
    independent mode, as a harness cross-check).

    The draws stream in blocks of about TAIL_BLOCK_VALUES hash values, each
    reduced at once to its per-draw counts Z, so memory stays bounded
    whatever the number of draws. A block's counts are sums along its keys
    axis, which the evaluator lays out as the outer one, in the narrowest
    unsigned dtype that holds n.

    Each indicator has exactly known mean threshold/p, so mu and sigma^2 are
    exact. A row fails only if the observed frequency exceeds the bound by
    more than 3 binomial standard errors.
    """
    cfg = cfg.resolved()
    p, thr = cfg.prime, cfg.threshold
    rng = np.random.default_rng(cfg.seed)
    mu_one = thr / p
    mean = cfg.n * mu_one
    variance = cfg.n * mu_one * (1.0 - mu_one)

    # Chunked int64 draws continue the generator's stream exactly, so the
    # blocks see the same values as one (draws, r) or (draws, n) call would.
    keys = np.arange(cfg.n)
    count_dtype = np.min_scalar_type(cfg.n)  # a count is at most n
    block = max(1, TAIL_BLOCK_VALUES // cfg.n)
    z = np.empty(cfg.draws, dtype=np.int64)
    for start in range(0, cfg.draws, block):
        b = min(block, cfg.draws - start)
        if cfg.independent:
            values = rng.integers(0, p, size=(b, cfg.n))
        else:
            values = coefficient_matrix_eval(rng.integers(0, p, size=(b, cfg.r)), keys, p)
        z[start : start + b] = np.add.reduce(np.less(values.T, thr).view(np.uint8), axis=0,
                                             dtype=count_dtype)

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
