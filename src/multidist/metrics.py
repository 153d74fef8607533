"""Exact error functionals over distribution families.

Everything here is a closed-form expectation over known masses; nothing
samples. er_D(f) = Pr_{(x,y)~D}[f(x) != y] = sum_x D(x) * (eta(x) if f(x) = -1
else 1 - eta(x)) with eta(x) = Pr[y = +1 | x].

A labeling is a boolean row, True where the label is +1 (plus_rows), and
takes the error term d * |p - eta|; any other row, such as a mixture's
marginals, takes the blend d * (p (1 - eta) + (1 - p) eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DistributionFamily,
    HypothesisClass,
    RandomizedClassifier,
    check_eps_delta,
    plus_rows,
    require_label_consistent,
    _frozen_label_array,
)


def label_vector_of(f, domain_size: int | None = None) -> np.ndarray:
    """The +-1 label vector of a classifier: f.label_vector() where f has one
    (ExplicitClassifier, CompactClassifier), else f itself as an array whose
    entries must be exactly -1 or +1. With domain_size given, the vector must
    have exactly that length.
    """
    if hasattr(f, "label_vector"):
        labels = f.label_vector()
    else:
        labels = _frozen_label_array(f, "label")
    if domain_size is not None and labels.shape[0] != domain_size:
        raise ValueError(f"labeling covers {labels.shape[0]} points, expected {domain_size}")
    return labels


# doubles in each of _errors's work buffers: at 2^15 (256 KB) a
# block of labelings, its complements and both buffers fit a 2 MB L2 together;
# 2^14 and 2^16 were slower at n = 1000 and n = 5000 in alternating timings
BUDGET = 1 << 15


def _family(fam) -> DistributionFamily:
    """fam, which must be a DistributionFamily: a (mass, eta) pair of arrays
    is not checked to hold distributions, so its errors could exceed 1."""
    if not isinstance(fam, DistributionFamily):
        raise TypeError(f"fam must be a DistributionFamily, got {type(fam).__name__}")
    return fam


def error_matrix(plus: np.ndarray, fam: DistributionFamily,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Exact errors of labelings on every member of a family: the (r, k) core
    of every error in the package.

    Each row of the (r, n) array plus is one labeling as Pr[f(x) = +1]: a
    boolean row for a deterministic classifier, the marginals for a mixture.
    Entry (j, i) is sum_x D_i(x) * (plus_j(x) (1 - eta_i(x)) + (1 - plus_j(x)) eta_i(x)),
    summed over the points where mask, a boolean vector of length n, is True
    when one is given. A one-dimensional plus gives a (k,) vector. fam must
    be a DistributionFamily, whose constructor checked its masses and label
    probabilities; anything else is a TypeError.
    """
    fam = _family(fam)
    return _errors(plus, fam.mass_matrix, fam.label_prob_matrix, mask)


def _errors(plus: np.ndarray, mass: np.ndarray, eta: np.ndarray,
            mask: np.ndarray | None = None) -> np.ndarray:
    """error_matrix on members given as (k, n) float64 arrays of masses and
    label probabilities, which are not checked to be distributions: the array
    core, also called on the empirical measures of sampling-mode Hedge.

    With fewer labelings than members (r < k), each step takes one labeling
    against every member, in (k, n) work buffers. Otherwise each step takes
    one member against a block of at most B = max(1, BUDGET // n) labelings
    (BUDGET = 2^15 doubles), in (B, n) work buffers, and a block meets every
    member before the next block starts, so that its rows stay in cache.
    Each entry takes the same operations in every order: every term is the
    same product, and each entry sums one contiguous row of n (or masked)
    terms.

    Boolean rows, which hold exactly 0 or 1, take each term as d * |p - eta|
    in one work buffer; rows of any other dtype take the blend, in two.
    """
    plus = np.asarray(plus)
    labelings = plus.dtype == bool
    plus = plus.astype(np.float64, copy=False)
    k, n = mass.shape
    if plus.shape[-1] != n:
        raise ValueError(f"domain size mismatch: classifier {plus.shape[-1]}, distribution {n}")
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (n,):
            raise ValueError(f"mask must be a boolean vector of length {n}, "
                             f"got {mask.dtype} of shape {mask.shape}")
    rows = plus.reshape(-1, n)
    r = rows.shape[0]
    # the blend's complements; labelings need none
    comp, eta_minus = (None, None) if labelings else (1.0 - rows, 1.0 - eta)
    out = np.empty((r, k))
    if r < k:  # one labeling against every member per step
        width = k
        steps = ((out[j], j, slice(None)) for j in range(r))
    else:  # a block of labelings against one member per step
        width = min(r, max(1, BUDGET // n))
        steps = ((out[s:s + width, i], slice(s, s + width), i)
                 for s in range(0, r, width) for i in range(k))
    # in-place buffers: per-step temporaries of this size would each cost
    # fresh pages from the allocator
    buffers = np.empty((1 if labelings else 2, width, n))
    for dest, j, i in steps:
        if len(dest) < buffers.shape[1]:  # a ragged last block: the leading rows
            buffers = buffers[:, :len(dest)]
        terms = buffers[0]
        if labelings:
            np.subtract(rows[j], eta[i], out=terms)
            np.absolute(terms, out=terms)
        else:
            np.multiply(rows[j], eta_minus[i], out=terms)
            np.multiply(comp[j], eta[i], out=buffers[1])
            np.add(terms, buffers[1], out=terms)
        np.multiply(mass[i], terms, out=terms)
        if mask is None:
            terms.sum(axis=-1, out=dest)
        else:
            # a[:, mask] is F-ordered; summing it contiguous keeps the order
            # in which each row accumulates the same as for a single row
            np.ascontiguousarray(terms[:, mask]).sum(axis=-1, out=dest)
    return out if plus.ndim > 1 else out[0]


@dataclass(frozen=True)
class ErrorReport:
    """Per-member errors plus their maximum (lowest index on ties)."""

    error: tuple[float, ...]
    worst_case: float
    argmax_index: int

    @classmethod
    def from_errors(cls, errors) -> "ErrorReport":
        errors = tuple(float(e) for e in errors)
        idx = int(np.argmax(errors))
        return cls(errors, errors[idx], idx)


def worst_case_error(f, fam: DistributionFamily) -> ErrorReport:
    return ErrorReport.from_errors(error_matrix(plus_rows(label_vector_of(f)), fam))


def class_errors(cls: HypothesisClass, fam: DistributionFamily) -> np.ndarray:
    """The class's (|H|, k) error matrix on fam, error_matrix(plus_rows(
    cls.label_matrix), fam), read-only: the matrix that exact Hedge loads and
    OPT and a mixture's errors are read from.

    The matrix of the last class asked, the same object, is kept on the
    family, as cached_property keeps label_consistent, so these three callers
    share one computation on one family.
    """
    matrix = _kept_class_errors(cls, fam)
    if matrix is None:
        matrix = error_matrix(plus_rows(cls.label_matrix), fam)
        matrix.flags.writeable = False
        vars(fam)["_class_error_entry"] = (cls, matrix)
    return matrix


def _kept_class_errors(cls: HypothesisClass, fam: DistributionFamily) -> np.ndarray | None:
    """The class error matrix of cls that fam keeps, or None."""
    kept = vars(_family(fam)).get("_class_error_entry")
    return kept[1] if kept is not None and kept[0] is cls else None


def _support_errors(f_rand: RandomizedClassifier, fam: DistributionFamily) -> np.ndarray:
    """The mixture's (|support|, k) error rows: read from class_errors where fam
    keeps its class's matrix, else computed for the support alone, to the same bits."""
    matrix = _kept_class_errors(f_rand.hypothesis_class, fam)
    return (error_matrix(plus_rows(f_rand.support_label_matrix), fam) if matrix is None
            else matrix[list(f_rand.support)])


def randomized_per_distribution(f_rand: RandomizedClassifier,
                                fam: DistributionFamily) -> np.ndarray:
    """E_{f~F}[er_{D_i}(f)] for every member i, by linearity of expectation:
    the mixture's weights times its support's error rows."""
    return f_rand.weights @ _support_errors(f_rand, fam)


def randomized_worst_case_error(f_rand: RandomizedClassifier, fam: DistributionFamily) -> float:
    return float(randomized_per_distribution(f_rand, fam).max())


def support_worst_case(f_rand: RandomizedClassifier, fam: DistributionFamily) -> float:
    """max over f in the support of worst_case_error(f) — what a single
    unlucky draw from the mixture can cost."""
    return float(_support_errors(f_rand, fam).max())


def exceedance_probability(f_rand: RandomizedClassifier, fam: DistributionFamily,
                           level: float) -> np.ndarray:
    """Pr over a single draw f~F that er_{D_i}(f) >= level, for every member
    i of fam: the weights of the support rows whose error on D_i is at or
    above level, summed. A NaN level, which no error reaches, is a ValueError."""
    if math.isnan(level):
        raise ValueError("level must be a number, got nan")
    errs = _support_errors(f_rand, fam)
    return np.array([f_rand.weights[hit].sum() for hit in (errs >= level).T])


def opt_bruteforce(cls: HypothesisClass, fam: DistributionFamily) -> tuple[float, int]:
    """Exhaustive min over the class of the worst-case error, read from
    class_errors; lowest index on ties."""
    worst = class_errors(cls, fam).max(axis=1)
    idx = int(np.argmin(worst))
    return float(worst[idx]), idx


def bayes_labels(fam: DistributionFamily) -> np.ndarray:
    """Pointwise majority labeling sign(2*eta - 1) under the shared conditional,
    ties to +1."""
    eta = fam.shared_label_one_prob
    return np.where(2.0 * eta - 1.0 >= 0.0, 1, -1).astype(np.int8)


def heavy_bias_threshold(eps: float, delta: float, k: int, variant: str = "explicit",
                         c_prime: float = 4.0) -> float:
    """The per-point heaviness threshold on beta_x^2 * D_i(x).

    variant "explicit": eps^2 / (8 ln(4k/delta)); variant "hash" (compact
    rounding): eps^2 / (c_prime * ln^2(4k/delta)).
    """
    check_eps_delta(eps, delta)
    log_term = math.log(4.0 * k / delta)
    if variant == "explicit":
        return eps**2 / (8.0 * log_term)
    if variant == "hash":
        return eps**2 / (c_prime * log_term**2)
    raise ValueError(f"unknown variant {variant!r}")


def _heaviness(fam: DistributionFamily) -> np.ndarray:
    """max over members i of beta_x^2 * D_i(x) at each point x, where beta_x
    = eta(x) - 1/2 under the shared conditional of a label-consistent fam."""
    require_label_consistent(fam)
    beta = fam.shared_label_one_prob - 0.5
    return ((beta**2)[None, :] * fam.mass_matrix).max(axis=0)
