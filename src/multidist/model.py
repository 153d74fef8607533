"""Core value types: labeled distributions and their families, hypothesis
classes and classifiers.

All types are immutable after construction (arrays are frozen read-only) and
safe to share across threads. Each constructor is the one check of its
object's invariants: a family's members are probability distributions with
label probabilities in [0, 1], and a mixture's weights are nonnegative and sum
to 1, so no object that breaks them can be built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MASS_TOL = 1e-12
WEIGHT_TOL = 1e-12
LABEL_CONSISTENCY_TOL = 1e-9


class LabelConsistencyError(ValueError):
    """Raised when an operation requiring a shared conditional label law is
    applied to a family whose members disagree on some supported point."""


def _entry_types(values) -> set:
    """The types of the entries of a list, or of a list of rows, and the
    scalar type of an array's dtype (the entries' own types in an object
    array): np.asarray would read the True in [True, -1] as 1 and the "0.5"
    in ["0.5", 0.3] as 0.5, so callers check the entries' types before any
    cast."""
    if isinstance(values, np.ndarray):
        return set(map(type, values.flat)) if values.dtype == object else {values.dtype.type}
    kinds = set()
    if isinstance(values, (list, tuple)):
        for v in values:
            if isinstance(v, np.ndarray):
                kinds |= _entry_types(v)
            elif isinstance(v, (list, tuple)):
                kinds.update(map(type, v))
            else:
                kinds.add(type(v))
    return kinds


def _check_row_widths(rows, what: str, unit: str) -> None:
    """A ValueError naming the first of rows that is not a flat sequence, or
    whose length differs from the first row's; numpy's message for a ragged
    list names no row."""
    width = None
    for i, row in enumerate(rows):
        try:
            (w,) = np.shape(row)
        except ValueError:  # a single value, or a ragged or nested row
            raise ValueError(f"{what} row {i} must be a flat list of {unit}") from None
        if width not in (None, w):
            raise ValueError(f"{what} row {i} has {w} {unit}, expected {width}") from None
        width = w


_NOT_NUMBERS = {bool, np.bool_, str, np.str_, bytes, np.bytes_}


def _frozen_float_array(values, name: str, ndim: int = 1) -> np.ndarray:
    """values as a read-only, C-contiguous float64 copy with ndim axes: the one
    check of a vector or matrix of floats. A bool or a string among the
    entries is a ValueError naming `name`, not a 1.0 or a parsed number."""
    bad = _entry_types(values) & _NOT_NUMBERS
    if bad:
        raise ValueError(f"{name} must hold numbers, got {bad.pop().__name__}")
    try:
        arr = np.array(values, dtype=np.float64, order="C")
    except (TypeError, ValueError) as exc:  # a JSON object among the numbers, a ragged list
        if ndim == 2:
            _check_row_widths(values, name, "numbers")
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if ndim == 2 and arr.shape == (0,):  # a list of no rows: no row gives a width
        arr = arr.reshape(0, 0)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional, "
                         f"got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _frozen_labels(arr: np.ndarray, name: str) -> np.ndarray:
    # checked before the int8 cast, which would turn 1.5 into 1 and 255 into
    # -1; a bool equals 1 or 0 but is no label
    if arr.dtype == np.bool_ or not np.all((arr == 1) | (arr == -1)):
        raise ValueError(f"{name} entries must be exactly -1 or +1")
    arr = arr.astype(np.int8)
    arr.flags.writeable = False
    return arr


def _frozen_label_array(values, name: str) -> np.ndarray:
    """values as a read-only int8 vector of +-1 labels: the one check of a
    labeling, whatever type holds it."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if _entry_types(values) & {bool, np.bool_}:
        raise ValueError(f"{name} entries must be exactly -1 or +1")
    return _frozen_labels(arr, name)


def _frozen_label_matrix(rows) -> np.ndarray:
    if _entry_types(rows) & {bool, np.bool_}:
        raise ValueError("hypothesis label entries must be exactly -1 or +1")
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged
        _check_row_widths(rows, "hypothesis", "labels")
        raise
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"hypothesis class must be a nonempty 2-D label matrix, "
                         f"got shape {arr.shape}")
    return _frozen_labels(arr, "hypothesis label")


def plus_rows(labels) -> np.ndarray:
    """Pr[f(x) = +1] of +-1 labels as boolean rows: True where the label is
    +1. error_matrix reads a boolean row as a labeling."""
    return np.asarray(labels) == 1


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, which is an int
    subclass, and for anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def is_positive_real(value) -> bool:
    """True for a finite positive real number; False for a bool, which is an
    int subclass, and for anything else."""
    return (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
            and math.isfinite(value) and value > 0)


def shown(value) -> str:
    """value for an error message: its repr, but a list or dict named by its
    JSON type, since the repr of a deeply nested value read from a file
    recurses past Python's limit."""
    if isinstance(value, list):
        return "a list"
    if isinstance(value, dict):
        return "a JSON object"
    return repr(value)


def require_integer(value, name: str) -> int:
    """value as an int: an integer, or a float with an integral value below
    2^53 in magnitude. Any other value (2.7, True, "3", 1e30) is a ValueError
    naming the field, where int() would truncate or convert it silently. A
    float at or above 2^53 may be a rounded integer: a file's integer outside
    64 bits is parsed as the nearest float, so 10**30 would load as
    1000000000000000019884624838656."""
    if is_integer(value):
        return int(value)
    if (isinstance(value, (float, np.floating)) and abs(value) < 2.0 ** 53
            and value == int(value)):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {shown(value)}")


def check_eps_delta(eps: float, delta: float) -> None:
    """A ValueError unless eps and delta both lie in (0, 1)."""
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")


def integer_array(values, name: str) -> np.ndarray:
    """values as an array, with no cast: an integer ndarray as it is, anything
    else element by element as objects. A bool, a float or any other
    non-integer is a ValueError naming `name`, before a narrowing cast could
    hide it (np.asarray([1, True]) would read True as 1)."""
    arr = np.asarray(values, dtype=None if isinstance(values, np.ndarray) else object)
    if arr.dtype == object:
        bad = next((v for v in arr.flat if not is_integer(v)), None)
        if bad is not None:
            raise ValueError(f"{name} must be integers, got {shown(bad)}")
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got an array of {arr.dtype}")
    return arr


def frozen_pins(points, labels, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Points and the +-1 label pinned at each, as read-only int64 and int8
    vectors of one length: the one check of a table of pinned labels, whose
    points must be nonnegative, distinct and ascending."""
    try:
        pts = integer_array(points, f"{name} points").astype(np.int64)
    except OverflowError:  # a file's integer of 2^63 or more
        raise ValueError(f"{name} points must fit in 64 bits") from None
    lab = _frozen_label_array(labels, f"{name} label")
    if pts.shape != lab.shape:
        raise ValueError(f"{name} has points of shape {pts.shape}, labels {lab.shape}")
    if pts.size and (pts[0] < 0 or np.any(pts[1:] <= pts[:-1])):
        # prepending -1 also flags a negative first point
        x = pts[np.flatnonzero(np.diff(pts, prepend=-1) <= 0)[0]]
        raise ValueError(f"{name} point {x} is negative, repeated or out of order")
    pts.flags.writeable = False
    return pts, lab


@dataclass(frozen=True)
class LabeledDistribution:
    """A distribution over (point, label) pairs on a finite domain.

    mass[x] is the probability of drawing x; label_one_prob[x] is the
    conditional probability that the label is +1 given x. Both are checked
    as one row of a DistributionFamily is.
    """

    mass: np.ndarray
    label_one_prob: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _frozen_float_array(self.mass, "mass"))
        object.__setattr__(
            self, "label_one_prob", _frozen_float_array(self.label_one_prob, "label_one_prob")
        )
        if self.mass.shape != self.label_one_prob.shape:
            raise ValueError(
                f"mass and label_one_prob lengths differ: "
                f"{self.mass.shape[0]} vs {self.label_one_prob.shape[0]}"
            )
        if issues := _family_violations(self.mass[None], self.label_one_prob[None]):
            raise ValueError("; ".join(issues))

    @property
    def domain_size(self) -> int:
        return self.mass.shape[0]


class _InvalidFamily(ValueError):
    """Raised by DistributionFamily for rows that are not distributions; its
    message names every offending member and point."""


def _family_violations(masses: np.ndarray, etas: np.ndarray) -> list[str]:
    """"member i[, point x]: message" for every way a row of masses misses a
    probability distribution, or a row of label probabilities leaves [0, 1]."""
    # one pass over the matrices picks the rows to report on (a NaN fails
    # every comparison); each sum of a C-contiguous row is the row's own sum,
    # and an overflowing one is inf
    with np.errstate(invalid="ignore", over="ignore"):
        totals = masses.sum(axis=1)
        ok = ((masses >= 0.0).all(axis=1) & (np.abs(totals - 1.0) <= MASS_TOL)
              & ((etas >= 0.0) & (etas <= 1.0)).all(axis=1))
    issues = []
    for i in np.flatnonzero(~ok):
        mass, eta = masses[i], etas[i]
        if np.any(~np.isfinite(mass)):
            issues.append(f"member {i}: non-finite mass entries")
            continue
        issues += [f"member {i}, point {x}: negative mass {mass[x]}"
                   for x in np.flatnonzero(mass < 0)]
        if abs(totals[i] - 1.0) > MASS_TOL:
            issues.append(f"member {i}: mass sum {float(totals[i])!r} != 1")
        if np.any(~np.isfinite(eta)):
            issues.append(f"member {i}: non-finite label_one_prob entries")
            continue
        issues += [f"member {i}, point {x}: label_one_prob {eta[x]} outside [0, 1]"
                   for x in np.flatnonzero((eta < 0.0) | (eta > 1.0))]
    return issues


@dataclass(frozen=True)
class DistributionFamily:
    """k labeled distributions over one domain of n points, the dense indices
    0..n-1, as two (k, n) matrices: row i of mass_matrix holds member i's
    point masses, row i of label_prob_matrix its conditional probabilities of
    label +1. Both are read-only, C-contiguous float64 copies made when the
    family is built. Every row of masses must be nonnegative and sum to 1
    within MASS_TOL, and every label probability must lie in [0, 1]; a
    family that breaks this is a ValueError naming every offending member
    and point."""

    mass_matrix: np.ndarray
    label_prob_matrix: np.ndarray

    def __post_init__(self):
        mass = _frozen_float_array(self.mass_matrix, "mass", ndim=2)
        eta = _frozen_float_array(self.label_prob_matrix, "label_one_prob", ndim=2)
        if mass.shape != eta.shape:
            raise ValueError(f"mass and label_one_prob shapes differ: {mass.shape} vs {eta.shape}")
        if mass.size == 0:
            raise ValueError(f"a distribution family needs at least one member and one point, "
                             f"got shape {mass.shape}")
        if issues := _family_violations(mass, eta):
            raise _InvalidFamily("; ".join(issues))
        object.__setattr__(self, "mass_matrix", mass)
        object.__setattr__(self, "label_prob_matrix", eta)

    @property
    def k(self) -> int:
        return self.mass_matrix.shape[0]

    @property
    def domain_size(self) -> int:
        return self.mass_matrix.shape[1]

    @cached_property
    def shared_label_one_prob(self) -> np.ndarray:
        """Per-point conditional +1 probability taken from the first member
        that supports the point (member 0 where no member does).

        Meaningful for label-consistent families; see label_consistent.
        """
        masses = self.mass_matrix
        probs = self.label_prob_matrix
        supported = masses > 0.0
        first = np.argmax(supported, axis=0)  # 0 when nothing supports x
        out = probs[first, np.arange(self.domain_size)]  # a copy
        out.flags.writeable = False
        return out

    @cached_property
    def label_consistent(self) -> bool:
        """True iff all members that support a point agree on its conditional
        label law, to within LABEL_CONSISTENCY_TOL; computed once per family.

        A member's conditional at a point it gives zero mass is ignored: only
        points supported by at least two members can witness a disagreement.
        """
        supported = self.mass_matrix > 0.0
        multi = supported.sum(axis=0) >= 2
        if not np.any(multi):
            return True
        sub = self.label_prob_matrix[:, multi]
        sup = supported[:, multi]
        hi = np.where(sup, sub, -np.inf).max(axis=0)
        lo = np.where(sup, sub, np.inf).min(axis=0)
        return bool(np.all(hi - lo <= LABEL_CONSISTENCY_TOL))


@dataclass(frozen=True)
class HypothesisClass:
    """A finite, explicitly enumerated set of hypotheses: the read-only int8
    (|H|, |X|) matrix whose row h holds hypothesis h's labels, checked once
    when the class is built.

    vc_dim is optional metadata, set by full_labeling_class and carried by
    instance files; algorithms never trust it.
    """

    label_matrix: np.ndarray
    vc_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "label_matrix", _frozen_label_matrix(self.label_matrix))
        if self.vc_dim is not None:
            object.__setattr__(self, "vc_dim", require_integer(self.vc_dim, "vc_dim"))
            if self.vc_dim < 0:
                raise ValueError("vc_dim must be nonnegative")

    def __len__(self) -> int:
        return self.label_matrix.shape[0]

    @property
    def domain_size(self) -> int:
        return self.label_matrix.shape[1]

    @cached_property
    def float_label_matrix(self) -> np.ndarray:
        """label_matrix as float64 (an exact cast), kept for matrix products."""
        out = self.label_matrix.astype(np.float64)
        out.flags.writeable = False
        return out


def full_labeling_class(n: int) -> HypothesisClass:
    """All 2^n labelings of an n-point domain (n <= 16)."""
    if n > 16:
        raise ValueError(f"full labeling class limited to n <= 16, got {n}")
    bits = (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return HypothesisClass(np.where(bits == 1, 1, -1), vc_dim=n)


@dataclass(frozen=True)
class RandomizedClassifier:
    """A finitely supported mixture over a hypothesis class.

    support holds distinct indices into hypothesis_class; weights are
    nonnegative and sum to 1 within WEIGHT_TOL, checked when the mixture is
    built.
    """

    hypothesis_class: HypothesisClass
    support: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support",
                           tuple(require_integer(i, "support index") for i in self.support))
        object.__setattr__(self, "weights", _frozen_float_array(self.weights, "weights"))
        if len(self.support) == 0:
            raise ValueError("randomized classifier must have nonempty support")
        if len(self.support) != self.weights.shape[0]:
            raise ValueError("support and weights lengths differ")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        seen = set()
        for i in self.support:
            if not 0 <= i < len(self.hypothesis_class):
                raise ValueError(f"support index {i} outside hypothesis class "
                                 f"of {len(self.hypothesis_class)}")
            # a repeat would split one hypothesis's weight over two entries
            if i in seen:
                raise ValueError(f"support index {i} is repeated")
            seen.add(i)
        total = float(self.weights.sum())
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")

    @property
    def domain_size(self) -> int:
        return self.hypothesis_class.domain_size

    @cached_property
    def support_label_matrix(self) -> np.ndarray:
        """(|support|, |X|) labels of the supported hypotheses."""
        out = self.hypothesis_class.label_matrix[list(self.support)]  # a copy
        out.flags.writeable = False
        return out

    @cached_property
    def marginals(self) -> np.ndarray:
        """Per-point probability of label +1 under a draw from the mixture."""
        out = self.weights @ plus_rows(self.support_label_matrix)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class ExplicitClassifier:
    """A deterministic classifier, or any total labeling of the domain, stored
    as its +-1 label vector."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen_label_array(self.labels, "labels"))

    @property
    def domain_size(self) -> int:
        return self.labels.shape[0]

    def label_vector(self) -> np.ndarray:
        return self.labels


def require_label_consistent(fam: DistributionFamily) -> None:
    if not fam.label_consistent:
        raise LabelConsistencyError(
            "operation requires a label-consistent family "
            "(all members must share the conditional label law on shared support)"
        )
