"""Core value types: domains, labeled distributions, hypothesis classes and classifiers.

All types are immutable after construction (arrays are frozen read-only) and
safe to share across threads. Constructors enforce structural sanity (shapes,
value domains that would make an object meaningless); numeric invariants such
as mass normalization are checked by :func:`validate_family`, which reports
violations instead of raising so that deliberately broken inputs can be
inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MASS_TOL = 1e-12
WEIGHT_TOL = 1e-12
LABEL_CONSISTENCY_TOL = 1e-9


class LabelConsistencyError(ValueError):
    """Raised when an operation requiring a shared conditional label law is
    applied to a family whose members disagree on some supported point."""


def _frozen_float_array(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # a JSON object among the numbers, a ragged list
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _frozen_labels(arr: np.ndarray, name: str) -> np.ndarray:
    # checked before the int8 cast, which would turn 1.5 into 1 and 255 into -1
    if not np.all((arr == 1) | (arr == -1)):
        raise ValueError(f"{name} entries must be exactly -1 or +1")
    arr = arr.astype(np.int8)
    arr.flags.writeable = False
    return arr


def _frozen_label_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return _frozen_labels(arr, name)


def _frozen_label_matrix(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged; numpy's message names no row
        width = None
        for i, row in enumerate(rows):
            try:
                (w,) = np.shape(row)
            except ValueError:  # a single value, or a ragged or nested row
                raise ValueError(f"hypothesis row {i} must be a flat list of labels") from None
            if width not in (None, w):
                raise ValueError(f"hypothesis row {i} has {w} labels, expected {width}") from None
            width = w
        raise
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"hypothesis class must be a nonempty 2-D label matrix, "
                         f"got shape {arr.shape}")
    return _frozen_labels(arr, "hypothesis label")


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, which is an int
    subclass, and for anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


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
    raise ValueError(f"{name} must be an integer, got {value!r}")


def integer_array(values, name: str) -> np.ndarray:
    """values as an array, with no cast: an integer ndarray as it is, anything
    else element by element as objects. A bool, a float or any other
    non-integer is a ValueError naming `name`, before a narrowing cast could
    hide it (np.asarray([1, True]) would read True as 1)."""
    arr = np.asarray(values, dtype=None if isinstance(values, np.ndarray) else object)
    if arr.dtype == object:
        bad = next((v for v in arr.flat if not is_integer(v)), None)
        if bad is not None:
            raise ValueError(f"{name} must be integers, got {bad!r}")
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got an array of {arr.dtype}")
    return arr


@dataclass(frozen=True)
class Domain:
    """A finite input domain; points are the dense indices 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"domain size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class LabeledDistribution:
    """A distribution over (point, label) pairs on a finite domain.

    mass[x] is the probability of drawing x; label_one_prob[x] is the
    conditional probability that the label is +1 given x.
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

    @property
    def domain_size(self) -> int:
        return self.mass.shape[0]


@dataclass(frozen=True)
class DistributionFamily:
    """k labeled distributions over one shared domain."""

    domain: Domain
    members: tuple[LabeledDistribution, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 1:
            raise ValueError("a distribution family needs at least one member")
        for i, m in enumerate(self.members):
            if m.domain_size != self.domain.size:
                raise ValueError(
                    f"member {i} has domain size {m.domain_size}, expected {self.domain.size}"
                )

    @property
    def k(self) -> int:
        return len(self.members)

    @cached_property
    def mass_matrix(self) -> np.ndarray:
        """(k, |X|) matrix of point masses."""
        out = np.stack([m.mass for m in self.members])
        out.flags.writeable = False
        return out

    @cached_property
    def label_prob_matrix(self) -> np.ndarray:
        """(k, |X|) matrix of conditional +1 probabilities."""
        out = np.stack([m.label_one_prob for m in self.members])
        out.flags.writeable = False
        return out

    @cached_property
    def shared_label_one_prob(self) -> np.ndarray:
        """Per-point conditional +1 probability taken from the first member
        that supports the point (member 0 where no member does).

        Meaningful for label-consistent families; see is_label_consistent.
        """
        masses = self.mass_matrix
        probs = self.label_prob_matrix
        supported = masses > 0.0
        first = np.argmax(supported, axis=0)  # 0 when nothing supports x
        out = probs[first, np.arange(self.domain.size)]  # a copy
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
class Hypothesis:
    """A total labeling of the domain with values in {-1, +1}."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen_label_array(self.labels, "labels"))

    @property
    def domain_size(self) -> int:
        return self.labels.shape[0]

    def label(self, x: int) -> int:
        return int(self.labels[x])


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
        if self.vc_dim is not None and self.vc_dim < 0:
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

    support holds indices into hypothesis_class; weights are nonnegative and
    are expected to sum to 1 (checked by consumers that rely on it).
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
        for i in self.support:
            if not 0 <= i < len(self.hypothesis_class):
                raise ValueError(f"support index {i} outside hypothesis class "
                                 f"of {len(self.hypothesis_class)}")

    @property
    def domain_size(self) -> int:
        return self.hypothesis_class.domain_size

    def weight_sum_ok(self, tol: float = WEIGHT_TOL) -> bool:
        return abs(float(self.weights.sum()) - 1.0) <= tol

    @cached_property
    def support_label_matrix(self) -> np.ndarray:
        """(|support|, |X|) labels of the supported hypotheses."""
        out = self.hypothesis_class.label_matrix[list(self.support)]  # a copy
        out.flags.writeable = False
        return out

    @cached_property
    def marginals(self) -> np.ndarray:
        """Per-point probability of label +1 under a draw from the mixture."""
        plus = (self.support_label_matrix == 1).astype(np.float64)
        out = self.weights @ plus
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class ExplicitClassifier:
    """A deterministic classifier stored as a full label table."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen_label_array(self.labels, "labels"))

    @property
    def domain_size(self) -> int:
        return self.labels.shape[0]

    def label(self, x: int) -> int:
        return int(self.labels[x])

    def label_vector(self) -> np.ndarray:
        return self.labels


@dataclass(frozen=True)
class ValidationIssue:
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_family(fam: DistributionFamily, tol: float = MASS_TOL) -> ValidationReport:
    """Check mass normalization and probability ranges for every member.

    Returns a report listing all violations with their member/point indices;
    the report is empty iff the family satisfies the numeric invariants.
    """
    issues: list[ValidationIssue] = []
    for i, m in enumerate(fam.members):
        if np.any(~np.isfinite(m.mass)):
            issues.append(ValidationIssue(f"member {i}", "non-finite mass entries"))
            continue
        neg = np.nonzero(m.mass < 0)[0]
        for x in neg:
            issues.append(
                ValidationIssue(f"member {i}, point {x}", f"negative mass {m.mass[x]}")
            )
        total = float(m.mass.sum())
        if abs(total - 1.0) > tol:
            issues.append(
                ValidationIssue(f"member {i}", f"mass sum {total!r} != 1")
            )
        if np.any(~np.isfinite(m.label_one_prob)):
            issues.append(
                ValidationIssue(f"member {i}", "non-finite label_one_prob entries")
            )
            continue
        bad = np.nonzero((m.label_one_prob < 0.0) | (m.label_one_prob > 1.0))[0]
        for x in bad:
            issues.append(
                ValidationIssue(
                    f"member {i}, point {x}",
                    f"label_one_prob {m.label_one_prob[x]} outside [0, 1]",
                )
            )
    return ValidationReport(tuple(issues))


def is_label_consistent(fam: DistributionFamily) -> bool:
    """The family's verdict, computed once: see DistributionFamily.label_consistent."""
    return fam.label_consistent


def require_label_consistent(fam: DistributionFamily) -> None:
    if not fam.label_consistent:
        raise LabelConsistencyError(
            "operation requires a label-consistent family "
            "(all members must share the conditional label law on shared support)"
        )
