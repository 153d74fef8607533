"""Binary-matrix hard instances: the matrix-to-family reduction, exact row
error identities, a brute-force discrepancy oracle, and the distinguisher.

Every row i of a 0/1 matrix A (no zero rows, m_i ones) yields two
distributions on the points {x_j : a_ij = 1}, each with mass 1/m_i: one labels
everything +1, the other everything -1. For any labeling v of the points, with
sigma = sign(v . a_i) (+1 at zero), the member errors obey exactly

    er on the -sigma member = 1/2 + |v . a_i| / (2 m_i)
    er on the  sigma member = 1/2 - |v . a_i| / (2 m_i)

so worst-case error 1/2 is attainable iff some coloring z has Az = 0. All
arithmetic in this module is exact (integers and fractions); nothing is
rounded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .metrics import label_vector_of
from .model import (
    DistributionFamily,
    _frozen_label_array,
    integer_array,
)

BRUTEFORCE_LIMIT = 20
# Colorings per block of the exhaustive scan, rounded down to a power of two;
# the block size changes no result, only the scan's memory and speed.
SCAN_BLOCK = 1 << 14


@dataclass(frozen=True)
class BinaryMatrix:
    """A nonempty square 0/1 matrix with no all-zero rows. Entries are
    checked before the int8 cast, so 0.5, True or 257 is an error, not a
    truncated or wrapped value."""

    entries: np.ndarray

    def __post_init__(self):
        arr = integer_array(self.entries, "matrix entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"matrix must be square and nonempty, got shape {arr.shape}")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("entries must be 0 or 1")
        arr = arr.astype(np.int8)
        row_ones = arr.sum(axis=1)
        zero_rows = np.nonzero(row_ones == 0)[0]
        if zero_rows.size:
            raise ValueError(f"rows {zero_rows.tolist()} are all zero")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def row_ones(self) -> np.ndarray:
        out = self.entries.sum(axis=1, dtype=np.int64)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class Coloring:
    """A vector in {-1, +1}^n."""

    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", _frozen_label_array(self.z, "coloring"))

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _as_label_array(labels, n: int) -> np.ndarray:
    """The +-1 labels of exactly n points, as int64 for exact dot products."""
    if isinstance(labels, Coloring):
        labels = labels.z
    return label_vector_of(labels, n).astype(np.int64)


@dataclass(frozen=True)
class ReductionFamily:
    """The 2n-member family derived from a matrix; member order is
    (row 0 +, row 0 -, row 1 +, row 1 -, ...) and point x_j is index j."""

    matrix: BinaryMatrix

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def k(self) -> int:
        return 2 * self.n

    @cached_property
    def family(self) -> DistributionFamily:
        """Float-mass view for interop with the learner and metrics modules."""
        mass = self.matrix.entries / self.matrix.row_ones[:, None].astype(np.float64)
        # each row's + member labels everything +1, its - member -1
        return DistributionFamily(np.repeat(mass, 2, axis=0),
                                  np.tile([[1.0], [0.0]], (self.n, self.n)))

    def member_errors(self, labels) -> list[Fraction]:
        """Exact per-member errors of a labeling, by direct summation: the +
        member errs where the labeling says -1, the - member where it says +1."""
        v = _as_label_array(labels, self.n)
        a = self.matrix.entries
        out: list[Fraction] = []
        for i in range(self.n):
            m_i = int(self.matrix.row_ones[i])
            support = a[i] == 1
            plus_hits = int(np.count_nonzero(support & (v == -1)))
            minus_hits = int(np.count_nonzero(support & (v == 1)))
            out.append(Fraction(plus_hits, m_i))
            out.append(Fraction(minus_hits, m_i))
        return out


def row_identity_errors(rf: ReductionFamily, labels, i: int) -> tuple[Fraction, Fraction, int]:
    """(error on the -sigma member, error on the sigma member, sigma) for row i,
    via the exact identity 1/2 +- |v . a_i| / (2 m_i)."""
    v = _as_label_array(labels, rf.n)
    dot = int(v @ rf.matrix.entries[i].astype(np.int64))
    sigma = 1 if dot >= 0 else -1
    m_i = int(rf.matrix.row_ones[i])
    shift = Fraction(abs(dot), 2 * m_i)
    return Fraction(1, 2) + shift, Fraction(1, 2) - shift, sigma


def coloring_error(labels, rf: ReductionFamily) -> Fraction:
    """Worst-case error of a labeling over all 2n members, exactly.

    Computed via the row identity and cross-checked against direct summation;
    the two must agree identically.
    """
    v = _as_label_array(labels, rf.n)
    dots = rf.matrix.entries.astype(np.int64) @ v
    per_row = [
        Fraction(1, 2) + Fraction(abs(int(d)), 2 * int(m))
        for d, m in zip(dots, rf.matrix.row_ones)
    ]
    via_identity = max(per_row)
    via_summation = max(rf.member_errors(v))
    if via_identity != via_summation:
        raise AssertionError(
            f"row identity {via_identity} disagrees with direct summation {via_summation}"
        )
    return via_identity


def _colorings_block(n: int, start: int, stop: int) -> np.ndarray:
    """Colorings with z[0] = -1, indexed lexicographically (-1 before +1):
    returns an (n, stop-start) sign matrix."""
    codes = np.arange(start, stop, dtype=np.int64)
    bits = (codes[None, :] >> np.arange(n - 2, -1, -1)[:, None]) & 1
    z = np.empty((n, stop - start), dtype=np.int64)
    z[0] = -1
    z[1:] = np.where(bits == 1, 1, -1)
    return z


# The scan's working dtypes, narrowest first.
_SCAN_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _min_scaled_imbalance(scaled: np.ndarray) -> tuple[int, np.ndarray]:
    """min over colorings z with z[0] = -1 of max_i |scaled_i . z|, and the
    lexicographically first minimizer; stops at the first 0 found.

    The rows of scaled are matrix rows times a positive integer row scale, so
    |scaled_i . z| = scale_i * |a_i . z| exactly. Colorings are scanned in
    blocks of 2^b codes (2^b <= SCAN_BLOCK) that share their high
    coordinates, so each block's products are the products of the b low
    coordinates, built once, plus one column for the high ones.

    The low products are built by sign doubling: from one zero column, each
    low coordinate j, last to first, turns the w columns built so far into
    2w, the left half prev - scaled[:, j] and the right half
    prev + scaled[:, j]. Column c then holds the products of the code c
    colorings in lexicographic order (-1 before +1, the first coordinate
    most significant), so argmin's first minimizer is the lex-first one.

    Why the scan is exact: let cap = max_i sum_j |scaled_ij|. Every value the
    scan holds (a doubling's partial sum, a high column, their sum and its
    absolute value) is a sum of +-scaled_ij over some j of one row i, so it
    lies in [-cap, cap]. The scan runs in the narrowest signed dtype whose
    maximum is at least cap, so nothing overflows, and abs never meets the
    dtype's minimum:

    ========  =====================
    dtype     cap
    ========  =====================
    int8      cap <= 2^7 - 1
    int16     cap <= 2^15 - 1
    int32     cap <= 2^31 - 1
    int64     cap <= 2^63 - 1
    ========  =====================

    A 0/1 matrix has cap <= n <= 20, so bruteforce_min_discrepancy scans in
    int8. min_deterministic_error scales row i by lcm(m) / m_i, so its cap
    is at most lcm(1..20) = 232792560 < 2^31, and it scans in int32 at most.
    """
    n = scaled.shape[0]
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {BRUTEFORCE_LIMIT}, got {n}")
    cap = max(sum(map(abs, row)) for row in scaled.tolist())
    dtype = next((dt for dt in _SCAN_DTYPES if np.iinfo(dt).max >= cap), None)
    if dtype is None:
        raise ValueError(f"row sums of |scaled| reach {cap}, past int64")
    b = min(n - 1, SCAN_BLOCK.bit_length() - 1)
    low = np.zeros((n, 1 << b), dtype=dtype)
    for j in range(n - 1, n - 1 - b, -1):
        width = 1 << (n - 1 - j)
        col = scaled[:, j : j + 1].astype(dtype)
        np.add(low[:, :width], col, out=low[:, width : 2 * width])
        low[:, :width] -= col
    az = np.empty_like(low)
    best, best_code = None, None
    for high in range(1 << (n - 1 - b)):
        column = (scaled[:, : n - b] @ _colorings_block(n - b, high, high + 1)).astype(dtype)
        vals = np.abs(np.add(low, column, out=az), out=az).max(axis=0)
        idx = int(np.argmin(vals))
        if best is None or int(vals[idx]) < best:
            best, best_code = int(vals[idx]), (high << b) | idx
            if best == 0:
                break
    return best, _colorings_block(n, best_code, best_code + 1)[:, 0]


def bruteforce_min_discrepancy(matrix: BinaryMatrix) -> tuple[Coloring, int, float]:
    """Exhaustive coloring minimizing the max row imbalance |Az|_inf.

    Negating a coloring never changes the norms, so only the 2^(n-1) colorings
    with z[0] = -1 are enumerated; scanning them in lexicographic order makes
    the first minimizer found the lexicographically smallest one overall.
    Ties beyond that would fall to the 2-norm, which the lex rule already
    pins down. Returns (coloring, inf_norm, two_norm).

    The scan (_min_scaled_imbalance) runs in int8: every |a_i . z| and every
    partial sum is at most cap = max_i m_i <= n <= 20 < 2^7. At n = 18 it
    takes about 1 ms.
    """
    a = matrix.entries.astype(np.int64)
    best_inf, best_z = _min_scaled_imbalance(a)
    az_best = a @ best_z
    two_norm = math.sqrt(float(az_best @ az_best))
    return Coloring(best_z.astype(np.int8)), best_inf, two_norm


def min_deterministic_error(rf: ReductionFamily) -> Fraction:
    """Exact min over all 2^n labelings of the worst-case error; equals
    1/2 + min_z max_i |a_i . z| / (2 m_i).

    Per-row weights 1/(2 m_i) are put over the common denominator
    2 * lcm(m_i) so the inner max/min runs in integer arithmetic.

    Row i is scaled by lcm(m) / m_i, so the scan's cap is lcm(m) <=
    lcm(1..20) = 232792560 < 2^31: it runs in int8 while lcm(m) <= 127 (every
    m_i in {1, 2, 4}, say), int16 while lcm(m) <= 32767, and int32 beyond;
    see _min_scaled_imbalance for the table. At n = 18 it takes about 1.5 ms.
    """
    m = [int(v) for v in rf.matrix.row_ones]
    l = 2 * math.lcm(*m)
    row_scale = np.array([l // (2 * mi) for mi in m], dtype=np.int64)
    best, _ = _min_scaled_imbalance(rf.matrix.entries.astype(np.int64) * row_scale[:, None])
    return Fraction(1, 2) + Fraction(best, l)


def planted_zero_matrix(n: int, density: float, rng: np.random.Generator
                        ) -> tuple[BinaryMatrix, Coloring]:
    """A matrix guaranteed to have a zero-discrepancy coloring.

    Draws z uniformly (redrawn in the 2^(1-n) chance it is single-signed,
    since a balanced row then cannot exist), then gives every row an equal
    count of +1-positions and -1-positions of z, so a_i . z = 0 by
    construction. density steers the expected row support size.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"planted instances need an even n >= 2, got {n}")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    while True:
        z = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        if np.any(z == 1) and np.any(z == -1):
            break
    plus = np.nonzero(z == 1)[0]
    minus = np.nonzero(z == -1)[0]
    half_target = max(1, round(density * n / 2.0))
    rows = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        s = min(half_target, plus.size, minus.size)
        rows[i, rng.choice(plus, size=s, replace=False)] = 1
        rows[i, rng.choice(minus, size=s, replace=False)] = 1
    return BinaryMatrix(rows), Coloring(z)


def planted_high_discrepancy_matrix(n: int, rng: np.random.Generator,
                                    density: float = 0.5) -> BinaryMatrix:
    """A matrix on which every labeling has worst-case error 1 over the
    derived family.

    Three points get all three of their pair rows {a,b}, {b,c}, {a,c}; any
    +-1 assignment makes some pair equal, so that row has |a_i . z| = 2 with
    m_i = 2, forcing error 1/2 + 1/2 on one of its members. Remaining rows are
    random nonempty fill. The brute-force oracle certifies |Az|_inf >= 2 on
    every output.
    """
    if n < 3:
        raise ValueError("need n >= 3 for the pair-row gadget")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    tri = rng.choice(n, size=3, replace=False)
    rows = np.zeros((n, n), dtype=np.int8)
    pairs = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
    order = rng.permutation(n)
    for row_idx, (a, b) in zip(order[:3], pairs):
        rows[row_idx, a] = 1
        rows[row_idx, b] = 1
    for row_idx in order[3:]:
        picks = np.nonzero(rng.random(n) < density)[0]
        if picks.size == 0:
            picks = rng.choice(n, size=1)
        rows[row_idx, picks] = 1
    return BinaryMatrix(rows)


class Verdict(enum.Enum):
    ZERO_DISCREPANCY_LIKELY = "zero_discrepancy_likely"
    HIGH_DISCREPANCY = "high_discrepancy"


def distinguisher(matrix: BinaryMatrix, labels, eps) -> Verdict:
    """Evaluate a classifier on the matrix's points and threshold its exact
    worst-case error at 1/2 + eps: below means a zero-discrepancy coloring
    plausibly exists, at-or-above means high discrepancy. eps must be
    finite."""
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    rf = ReductionFamily(matrix)
    err = coloring_error(labels, rf)
    if err < Fraction(1, 2) + Fraction(eps):
        return Verdict.ZERO_DISCREPANCY_LIKELY
    return Verdict.HIGH_DISCREPANCY


def _opt_prime(opt_prime) -> Fraction:
    if not 0 < (q := Fraction(opt_prime)) <= Fraction(1, 2):
        raise ValueError("opt_prime must lie in (0, 1/2]")
    return q


def dummy_point_variant(rf: ReductionFamily, opt_prime) -> DistributionFamily:
    """Extend the family with a sure-label point so that the best achievable
    error drops to about opt_prime.

    The new point (appended as the last domain index) gets mass
    1 - 2*opt_prime with label +1 in every member; original masses are
    rescaled to 2*opt_prime/m_i. opt_prime must lie in (0, 1/2]; at 1/2 the
    original family reappears with a zero-mass extra point.
    """
    q = _opt_prime(opt_prime)
    n = rf.n
    scale = np.array([float(2 * q / int(m)) for m in rf.matrix.row_ones])
    mass = np.hstack([rf.matrix.entries * scale[:, None], np.full((n, 1), float(1 - 2 * q))])
    eta = np.tile([[1.0], [0.0]], (n, n + 1))
    eta[:, n] = 1.0
    return DistributionFamily(np.repeat(mass, 2, axis=0), eta)


def dummy_min_deterministic_error(rf: ReductionFamily, opt_prime) -> Fraction:
    """Exact min over all 2^(n+1) labelings of the dummy-point family's
    worst-case error: 2*opt_prime times the base minimum, reached with the
    dummy labeled +1. Labeling it -1 adds 1 - 2*opt_prime >= 0 to every
    member's error, so it never does better. opt_prime must lie in (0, 1/2]."""
    return 2 * _opt_prime(opt_prime) * min_deterministic_error(rf)
