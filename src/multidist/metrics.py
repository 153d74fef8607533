"""Exact error functionals over distribution families.

Everything here is a closed-form expectation over known masses; nothing
samples. er_D(f) = Pr_{(x,y)~D}[f(x) != y] = sum_x D(x) * (eta(x) if f(x) = -1
else 1 - eta(x)) with eta(x) = Pr[y = +1 | x].
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


# doubles in each of error_matrix's two work buffers: at 2^15 (256 KB) a
# block of labelings, its complements and both buffers fit a 2 MB L2 together;
# 2^14 and 2^16 were slower at n = 1000 and n = 5000 in alternating timings
BUDGET = 1 << 15


def error_matrix(plus: np.ndarray,
                 fam: DistributionFamily | tuple[np.ndarray, np.ndarray],
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Exact errors of labelings on every member: the (r, k) core of every
    error in the package.

    Each row of the (r, n) array plus is one labeling as Pr[f(x) = +1]: 0/1
    for a deterministic classifier, the marginals for a mixture. Entry (j, i)
    is sum_x D_i(x) * (plus_j(x) (1 - eta_i(x)) + (1 - plus_j(x)) eta_i(x)),
    summed over the points where mask, a boolean vector of length n, is True
    when one is given. A one-dimensional plus gives a (k,) vector. The
    members are a family or a pair (mass, eta) of (k, n) arrays.

    With fewer labelings than members (r < k), each step takes one labeling
    against every member, in two (k, n) work buffers. Otherwise each step
    takes one member against a block of at most B = max(1, BUDGET // n)
    labelings (BUDGET = 2^15 doubles), in two (B, n) work buffers, and a
    block meets every member before the next block starts, so that its rows
    stay in cache. Each entry takes the same operations in every order:
    every term is the same product, and each entry sums one contiguous row
    of n (or masked) terms.
    """
    plus = np.asarray(plus, dtype=np.float64)
    if isinstance(fam, DistributionFamily):
        mass, eta = fam.mass_matrix, fam.label_prob_matrix
    else:
        mass, eta = (np.asarray(a, dtype=np.float64) for a in fam)
        if mass.ndim != 2 or mass.shape != eta.shape:
            raise ValueError(f"member arrays must be two (k, n) arrays of one shape, "
                             f"got {mass.shape} and {eta.shape}")
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
    eta_minus = 1.0 - eta
    out = np.empty((r, k))
    if r < k:  # one labeling against every member per step
        width = k
        steps = ((out[j], rows[j], 1.0 - rows[j], mass, eta, eta_minus) for j in range(r))
    else:  # a block of labelings against one member per step
        width = min(r, max(1, BUDGET // n))
        blocks = ((out[s:s + width], rows[s:s + width], 1.0 - rows[s:s + width])
                  for s in range(0, r, width))
        steps = ((dest[:, i], p, q, mass[i], eta[i], eta_minus[i])
                 for dest, p, q in blocks for i in range(k))
    # in-place buffers: per-step temporaries of this size would each cost
    # fresh pages from the allocator
    terms, tmp = buffers = np.empty((2, width, n))
    for dest, p, q, d, e, e_minus in steps:
        if len(dest) < len(terms):  # a ragged last block: the leading rows
            terms, tmp = buffers[:, :len(dest)]
        np.multiply(p, e_minus, out=terms)
        np.multiply(q, e, out=tmp)
        np.add(terms, tmp, out=terms)
        np.multiply(d, terms, out=terms)
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


def _class_errors(errors, cls: HypothesisClass, fam: DistributionFamily) -> np.ndarray:
    """errors, checked to have the shape (|H|, k) of the class's error matrix
    on fam; a transposed or foreign matrix would give wrong numbers silently."""
    errors = np.asarray(errors)
    if errors.shape != (len(cls), fam.k):
        raise ValueError(f"errors must be the class's (|H|, k) = {(len(cls), fam.k)} error "
                         f"matrix, got shape {errors.shape}")
    return errors


def randomized_per_distribution(f_rand: RandomizedClassifier, fam: DistributionFamily,
                                errors: np.ndarray | None = None) -> np.ndarray:
    """E_{f~F}[er_{D_i}(f)] for every member i, by linearity of expectation.

    errors, if the caller has it, is the class's (|H|, k) error matrix on
    fam; its support rows are the ones error_matrix gives the support alone.
    """
    if errors is None:
        return f_rand.weights @ error_matrix(plus_rows(f_rand.support_label_matrix), fam)
    errors = _class_errors(errors, f_rand.hypothesis_class, fam)
    return f_rand.weights @ errors[list(f_rand.support)]


def randomized_worst_case_error(f_rand: RandomizedClassifier, fam: DistributionFamily) -> float:
    return float(randomized_per_distribution(f_rand, fam).max())


def support_worst_case(f_rand: RandomizedClassifier, fam: DistributionFamily) -> float:
    """max over f in the support of worst_case_error(f) — what a single
    unlucky draw from the mixture can cost."""
    return float(error_matrix(plus_rows(f_rand.support_label_matrix), fam).max())


def exceedance_probability(f_rand: RandomizedClassifier, fam: DistributionFamily,
                           level: float) -> np.ndarray:
    """Pr over a single draw f~F that er_{D_i}(f) >= level, for every member
    i of fam: the weights of the support rows whose error on D_i is at or
    above level, summed."""
    errs = error_matrix(plus_rows(f_rand.support_label_matrix), fam)
    return np.array([f_rand.weights[hit].sum() for hit in (errs >= level).T])


def opt_bruteforce(cls: HypothesisClass, fam: DistributionFamily,
                   errors: np.ndarray | None = None) -> tuple[float, int]:
    """Exhaustive min over the class of the worst-case error; lowest index on
    ties. errors, if the caller has it, is the class's (|H|, k) error matrix
    on fam."""
    if errors is None:
        errors = error_matrix(plus_rows(cls.label_matrix), fam)
    else:
        errors = _class_errors(errors, cls, fam)
    worst = errors.max(axis=1)
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


def heavy_mask(fam: DistributionFamily, eps: float, delta: float, variant: str = "explicit",
               c_prime: float = 4.0) -> np.ndarray:
    """Boolean mask over the domain: beta_x^2 * D_i(x) strictly above the
    threshold for at least one member i."""
    require_label_consistent(fam)
    thresh = heavy_bias_threshold(eps, delta, fam.k, variant, c_prime)
    beta = fam.shared_label_one_prob - 0.5
    stat = (beta**2)[None, :] * fam.mass_matrix
    return np.any(stat > thresh, axis=0)
