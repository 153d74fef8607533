"""Limited-independence hashing over a prime field and the compact classifier
built on it.

A random degree-(r-1) polynomial q(x) = sum_i alpha_i x^i mod p with i.i.d.
uniform coefficients maps any r distinct keys to jointly uniform values in
[0, p): an r-wise independent hash. The compact classifier stores only the
polynomial, a small table of fixed labels, and a hypothesis mixture F; at a
point x outside the table it outputs +1 iff q(x) < floor(Pr_{f~F}[f(x)=1] * p),
which makes Pr over the hash choice of a +1 equal to floor(marginal * p) / p.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .model import (RandomizedClassifier, check_eps_delta, frozen_pins, integer_array,
                    require_integer)

PRIME_LIMIT = 1 << 62
# Values per block of the tail check, small enough to stay in cache. In hash
# mode a block holds the differences of every run of keys for each of its
# draws, r values per run and draw: 256 KiB in uint8 (the default prime while
# n <= 126), 512 KiB in uint16. In independent mode it holds n hash values per
# draw, in int64. A hash-mode config whose one draw would not fit a block, r
# differences for each of ceil(n / TAIL_RUN_KEYS) runs, is refused: its arrays
# grow with r.
TAIL_BLOCK_VALUES = 1 << 18
# Most keys of the tail check. Its histogram has n + 1 bins and an
# independent-mode block holds the n values of a draw, so memory grows with
# n whatever the draws; under this limit the derived prime stays below 2^21.
TAIL_KEYS_LIMIT = 1 << 20
# Most work of one tail check: draws * n * r difference steps in hash mode,
# draws * n values in independent mode. The check's time grows with it: at
# the limit, about 7 s in hash mode at r = 4 and 2 min in independent mode on
# a 2-core x86_64 host. A config past it is refused when built.
TAIL_WORK_LIMIT = 1 << 34
# Most consecutive keys in one run of the hash-mode tail check: a block takes
# at most this many Python steps, whatever n is. Fewer keys per run means more
# runs, so more seeds to evaluate; more means more steps on narrower arrays.
TAIL_RUN_KEYS = 64
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

    Key-major Horner with lazy reduction: acc (n_keys, n_polys) starts as
    the top coefficients, and each step is acc = acc * x + c_i. Every entry
    of acc lies in [0, bound]: bound is p - 1 at the start and after a
    reduction (coefficients and keys are checked to lie in [0, p) before
    any cast), and a step takes it to bound * top + (p - 1), top being the
    largest key. acc is reduced, a -= a // p * p (a // p * p <= a for
    a >= 0, so this cannot overflow), only before a step that would take
    bound past `cap`, and once at the end; a step from a reduced acc
    reaches at most (p - 1)^2 + (p - 1) = p(p - 1) <= cap. So no value
    overflows, and reducing before some steps, not all, keeps the residue.

    The dtype is the narrowest whose maximum, `cap`, is at least p^2 - 1:

    ========  ===================  ========
    dtype     primes               cap
    ========  ===================  ========
    int16     p <= 181             2^15 - 1
    int32     p <= 46337           2^31 - 1
    int64     p <= 3037000493      2^63 - 1
    object    larger p             p(p - 1)
    ========  ===================  ========

    3037000493 is the largest prime with p(p - 1) < 2^63; above it the
    steps run on Python integers, with cap p(p - 1) to keep them small. At
    the tail check's seeds (keys 0..3, p = 67, r = 4) the steps reach at
    most 264, 858 and 2640, so it reduces once. numpy divides by a scalar
    with a precomputed multiplier (libdivide) and has no such path for its
    remainder, hence floor division. The result is acc's transpose, a view.
    """
    p = require_integer(p, "modulus")
    coeffs = integer_array(coeffs, "coefficients")
    xs = integer_array(xs, "keys")
    if coeffs.ndim != 2 or coeffs.shape[1] < 1:
        raise ValueError(f"coefficients must be a 2-D array with at least one column, "
                         f"got shape {coeffs.shape}")
    if xs.ndim != 1:
        raise ValueError(f"keys must be a 1-D array, got shape {xs.shape}")
    # min and max: two passes, and no mask to allocate
    if coeffs.size and (coeffs.min() < 0 or coeffs.max() >= p):
        raise ValueError(f"coefficients outside [0, {p})")
    top = int(xs.max()) if xs.size else 0
    if xs.size and (xs.min() < 0 or top >= p):
        raise ValueError(f"keys outside [0, {p})")
    dtype = next((dt for dt in _EVAL_DTYPES if np.iinfo(dt).max >= p * p - 1), object)
    cap = p * (p - 1) if dtype is object else int(np.iinfo(dtype).max)
    terms = np.ascontiguousarray(coeffs.T, dtype=dtype)  # row i holds every c_i
    column = xs.astype(dtype)[:, None]
    acc = np.tile(terms[-1], (xs.shape[0], 1))
    quot = np.empty_like(acc)
    bound = p - 1
    for c in terms[-2::-1]:
        if bound * top + (p - 1) > cap:
            _reduce(acc, p, quot)
            bound = p - 1
        acc *= column
        acc += c
        bound = bound * top + (p - 1)
    _reduce(acc, p, quot)
    return acc.T.astype(np.int64) if dtype is object else acc.T


# The dtypes of the forward-difference count, narrowest first: each holds
# 2p - 1, a sum of two residues, up to its last prime.
_DIFFERENCE_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def _difference_counts(rng: np.random.Generator, cfg: "TailCheckConfig") -> np.ndarray:
    """The tail check's hash-mode histogram: how many of cfg.draws hashes,
    drawn from rng as one (draws, r) call would draw them, give each count
    Z = #{x < n : q(x) < threshold}.

    The keys split into ceil(n / TAIL_RUN_KEYS) runs of consecutive keys,
    their lengths at most one apart. q is evaluated only at each run's first
    r keys, taken mod p since q(x) = q(x mod p); a difference triangle turns
    those seeds into the forward differences D_j = Delta^j q, j < r, at the
    run's first key. One step then tests q(x) = D_0 < threshold for every run
    and draw at once and moves each run to its next key,
    D_j <- D_j + D_{j+1} for j < r - 1: Delta^r q = 0 for a polynomial of
    degree r - 1 over any ring, so D_{r-1} stays fixed.

    A sum s of two residues is reduced as min(s, s - p), and a difference
    d = a - b as min(d, d + p), in the narrowest unsigned dtype that holds
    2p - 1. When s < p, s - p wraps to a value above s; otherwise it is the
    residue. When a < b, d wraps to a value above p and d + p wraps back to
    the residue; otherwise d is the residue and d + p is not. So the count
    takes additions and comparisons only, one byte per value up to p = 127.

    A block holds about TAIL_BLOCK_VALUES differences (r per run and draw);
    its coefficients are drawn and seeded in quarters of it.
    """
    n, r, p, thr = cfg.n, cfg.r, cfg.prime, cfg.threshold
    runs = -(-n // TAIL_RUN_KEYS)
    base, extra = divmod(n, runs)  # the first `extra` runs hold base + 1 keys
    steps = base + (extra > 0)
    starts = np.arange(runs) * base + np.minimum(np.arange(runs), extra)
    seed_keys = ((starts[:, None] + np.arange(r)) % p).ravel()  # run-major
    dtype = next(dt for dt in _DIFFERENCE_DTYPES if np.iinfo(dt).max >= 2 * p - 1)
    count_dtype = np.min_scalar_type(n)  # a count is at most n
    block = max(1, TAIL_BLOCK_VALUES // (r * runs))
    seed_block = max(1, block // 4)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, cfg.draws, block):
        b = min(block, cfg.draws - start)
        diffs = np.empty((r, runs, b), dtype=dtype)  # diffs[j, run, draw] = D_j
        for lo in range(0, b, seed_block):
            hi = min(b, lo + seed_block)
            seeds = coefficient_matrix_eval(rng.integers(0, p, size=(hi - lo, r)), seed_keys, p)
            diffs[:, :, lo:hi] = seeds.reshape(hi - lo, runs, r).transpose(2, 1, 0)
        for level in range(1, r):  # D_i <- D_i - D_{i-1} for i >= level, all at once
            diff = np.subtract(diffs[level:], diffs[level - 1:-1])
            np.minimum(diff, diff + p, out=diffs[level:])
        run_counts = np.zeros((runs, b), dtype=np.min_scalar_type(steps))
        below = np.empty((runs, b), dtype=bool)
        total = np.empty((r - 1, runs, b), dtype=dtype)
        for step in range(steps):
            live = runs if step < base else extra  # the runs that hold key start + step
            np.less(diffs[0, :live], thr, out=below[:live])
            run_counts[:live] += below[:live].view(np.uint8)
            if step + 1 < steps:
                np.add(diffs[:-1], diffs[1:], out=total)
                np.subtract(total, p, out=diffs[:-1])
                np.minimum(diffs[:-1], total, out=diffs[:-1])
        z = np.add.reduce(run_counts, axis=0, dtype=count_dtype)
        counts += np.bincount(z, minlength=n + 1)
    return counts


def _independent_counts(rng: np.random.Generator, cfg: "TailCheckConfig") -> np.ndarray:
    """The tail check's independent-mode histogram: how many of cfg.draws
    draws of n values uniform in [0, prime), drawn from rng as one (draws, n)
    call would draw them, give each count Z = #{x < n : value_x < threshold}.
    A block holds about TAIL_BLOCK_VALUES values, n per draw."""
    n, p, thr = cfg.n, cfg.prime, cfg.threshold
    count_dtype = np.min_scalar_type(n)  # a count is at most n
    block = max(1, TAIL_BLOCK_VALUES // n)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, cfg.draws, block):
        values = rng.integers(0, p, size=(min(block, cfg.draws - start), n))
        z = np.add.reduce(np.less(values.T, thr).view(np.uint8), axis=0, dtype=count_dtype)
        counts += np.bincount(z, minlength=n + 1)
    return counts


def plus_probability(marginal: float, p: int) -> Fraction:
    """Exact law of the hash rounding: floor(marginal * p) / p.

    The float marginal is taken at face value (every float is a rational), so
    the law is bit-exact for the marginals the mixture actually produces.
    """
    return Fraction(int(_plus_thresholds([marginal], p)[0]), p)


def _plus_thresholds(marginals, p: int) -> np.ndarray:
    """T = floor(m * p), exactly, for each marginal m: the hash rounding labels
    a point +1 iff q(x) < T, since for an integer q, q + 1 <= m * p iff
    q < floor(m * p). Each distinct marginal is one integer division of its
    exact ratio num / den. T fits int64 for |m| < 2 at every prime below
    PRIME_LIMIT; any other marginal, NaN and infinities included, is an error.
    """
    values, inverse = np.unique(np.asarray(marginals, dtype=np.float64), return_inverse=True)
    if (bad := values[~(np.abs(values) < 2.0)]).size:
        raise ValueError(f"marginals must be finite and lie in (-2, 2), got {bad[0]}")
    p = operator.index(p)  # a Python int: num * p must not wrap
    ratios = map(float.as_integer_ratio, values.tolist())
    return np.array([num * p // den for num, den in ratios], dtype=np.int64)[inverse]


@dataclass(frozen=True)
class CompactClassifier:
    """Deterministic classifier stored as (hash, override table, mixture).

    Points t_points (distinct, ascending) carry fixed labels t_labels; any
    other point is labeled +1 iff q(x) < floor(Pr_{f~F}[f(x)=1] * p) for the
    hash's prime p, one exact integer comparison. The domain is the mixture's
    class's.
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
        plus = q_vals < _plus_thresholds(self.f_rand.marginals, self.hash.prime)
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
    try:  # eps**-3 overflows below about 1e-103, next_prime past PRIME_LIMIT
        lower = max(
            domain_size + 1,
            math.ceil(eps**-3 * log_term),
            math.ceil(4.0 * alpha**2 / eps) + 1,
        )
        return r, next_prime(lower)
    except OverflowError:
        raise ValueError(f"eps = {eps!r} needs a hash prime above 2^62") from None


def standard_hoeffding_bound(t: float, n: int) -> float:
    """Two-sided Hoeffding tail for n independent [0,1] variables."""
    return 2.0 * math.exp(-2.0 * t * t / n)


def limited_independence_tail_bound(t: float, r: int, q_cap: float) -> float:
    """(r * Q / (e^(2/3) * T^2))^(r/2) for even r and Q >= max(r, variance);
    inf where it passes every float, as it is then vacuous."""
    if r < 2 or r % 2 != 0:
        raise ValueError("the tail bound holds for even r >= 2")
    if t <= 0:
        return math.inf
    try:
        return (r * q_cap / (math.exp(2.0 / 3.0) * t * t)) ** (r / 2)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TailCheckConfig:
    """Monte-Carlo setup for checking the limited-independence tail bound on
    hash-derived indicators Z_x = 1{q(x) < threshold} over the keys 0..n-1.
    Integral floats are taken as ints; a config the check cannot run (n=True,
    2.5 draws, a negative seed, an odd r in hash mode, an independent that
    is not a bool) or whose work passes TAIL_WORK_LIMIT is a ValueError when
    built. The prime is the smallest above n, the threshold prime // 2 and
    the deviations T (0.5, 1, 2) * sqrt(n)."""

    n: int = 64
    r: int = 4
    draws: int = 100_000
    independent: bool = False  # fresh randomness per point instead of one hash
    seed: int = 0

    def __post_init__(self):
        for name, label in (("n", "n"), ("r", "degree r"), ("draws", "draws"), ("seed", "seed")):
            value = require_integer(getattr(self, name), f"tail-check {label}")
            object.__setattr__(self, name, value)
        if not isinstance(self.independent, (bool, np.bool_)):
            raise ValueError(f"tail-check independent must be a bool, got {self.independent!r}")
        object.__setattr__(self, "independent", bool(self.independent))
        if self.n < 1:
            raise ValueError(f"tail check needs n >= 1 keys, got {self.n}")
        if self.n > TAIL_KEYS_LIMIT:
            raise ValueError(f"tail check takes at most TAIL_KEYS_LIMIT = 2^20 keys, "
                             f"got n = {self.n}")
        if self.draws < 1:
            raise ValueError(f"tail check needs draws >= 1, got {self.draws}")
        if self.seed < 0:
            raise ValueError(f"tail-check seed must be >= 0, got {self.seed}")
        if not self.independent:
            # one draw's differences, r for each run of keys, fit one block
            limit = TAIL_BLOCK_VALUES // -(-self.n // TAIL_RUN_KEYS)
            if self.r > limit:
                raise ValueError(f"tail-check degree r must be at most TAIL_BLOCK_VALUES / "
                                 f"ceil(n / TAIL_RUN_KEYS) = {limit} at n = {self.n}, "
                                 f"got {self.r}")
            if self.r < 2 or self.r % 2 != 0:
                raise ValueError(f"tail-check degree r must be an even integer >= 2, "
                                 f"got {self.r}")
        per_draw, name = (self.n, "n") if self.independent else (self.n * self.r, "n * r")
        if self.draws * per_draw > TAIL_WORK_LIMIT:
            raise ValueError(f"tail check's draws * {name} must be at most TAIL_WORK_LIMIT = "
                             f"2^34, got {self.draws * per_draw}; at most "
                             f"{TAIL_WORK_LIMIT // per_draw} draws at n = {self.n}"
                             + ("" if self.independent else f", r = {self.r}"))

    @cached_property
    def prime(self) -> int:
        return next_prime(self.n + 1)

    @property
    def threshold(self) -> int:
        return self.prime // 2

    @property
    def t_values(self) -> tuple[float, ...]:
        return tuple(c * math.sqrt(self.n) for c in (0.5, 1.0, 2.0))


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

    The draws stream in blocks of about TAIL_BLOCK_VALUES values: in hash
    mode, forward differences along runs of keys (_difference_counts); in
    independent mode, the values themselves (_independent_counts). A block's
    counts Z, in the narrowest unsigned dtype that holds n, are tallied into
    a histogram of the n + 1 values Z takes, so memory is O(n + block)
    whatever the number of draws. A row's frequency sums the bins k with
    |k - mu| >= T, exactly as one Z per draw would give it: the same float64
    k - mu, one division.

    Each indicator has exactly known mean threshold/p, so mu and sigma^2 are
    exact. A row fails only if the observed frequency exceeds the bound by
    more than 3 binomial standard errors.
    """
    rng = np.random.default_rng(cfg.seed)
    mu_one = cfg.threshold / cfg.prime
    mean = cfg.n * mu_one
    variance = cfg.n * mu_one * (1.0 - mu_one)
    counts = (_independent_counts if cfg.independent else _difference_counts)(rng, cfg)
    deviation = np.abs(np.arange(cfg.n + 1) - mean)
    rows = []
    for t in cfg.t_values:
        observed = int(counts[deviation >= t].sum()) / cfg.draws
        if cfg.independent:
            bound = standard_hoeffding_bound(t, cfg.n)
        else:
            bound = limited_independence_tail_bound(t, cfg.r, max(cfg.r, variance))
        capped = min(bound, 1.0)
        slack = 3.0 * math.sqrt(capped * (1.0 - capped) / cfg.draws)
        rows.append(TailCheckRow(t, observed, bound, slack, observed <= capped + slack))
    return TailCheckReport(cfg, mean, variance, tuple(rows))
