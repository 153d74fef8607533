"""Randomized min-max learner: Hedge over distributions with an exhaustive ERM
best response.

The learner treats the k distributions as experts: it keeps a weight vector on
them, best-responds each round with the exhaustive ERM over the weighted
mixture, re-weights distributions proportionally to exp(eta * error) so that
hard distributions gain influence, and returns the uniform mixture over the
chosen hypotheses. With rounds T = ceil(8 ln(k) / eps^2) and learning rate
eta = sqrt(8 ln(k) / T), the no-regret bound puts the mixture within eps/4 of
the best single hypothesis's worst-case error in exact mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DistributionFamily,
    HypothesisClass,
    LabeledDistribution,
    RandomizedClassifier,
)
from .metrics import error_matrix, plus_rows


@dataclass(frozen=True)
class EmpiricalSample:
    """Draws (x_j, y_j) from one distribution, as parallel arrays."""

    xs: np.ndarray
    ys: np.ndarray
    domain_size: int

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.int64)
        ys = np.asarray(self.ys, dtype=np.int8)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be parallel one-dimensional arrays")
        if not np.all((ys == 1) | (ys == -1)):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return self.xs.shape[0]

    def to_distribution(self) -> LabeledDistribution:
        """The empirical measure: counts/n masses with per-point label frequencies."""
        if len(self) == 0:
            raise ValueError("cannot take the empirical distribution of an empty sample")
        counts = np.bincount(self.xs, minlength=self.domain_size).astype(np.float64)
        pos = np.bincount(self.xs[self.ys == 1], minlength=self.domain_size).astype(np.float64)
        eta = np.divide(pos, counts, out=np.full(self.domain_size, 0.5), where=counts > 0)
        return LabeledDistribution(counts / len(self), eta)


def draw_batch(member: LabeledDistribution, size: int, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
    """size i.i.d. draws (x, y): inverse-CDF over the mass vector, then a
    conditional label coin per draw."""
    cum = np.cumsum(member.mass)
    u = rng.random(size)
    xs = np.searchsorted(cum, u, side="right")
    np.clip(xs, 0, member.domain_size - 1, out=xs)
    ys = np.where(rng.random(size) < member.label_one_prob[xs], 1, -1).astype(np.int8)
    return xs.astype(np.int64), ys


def draw_sample(member: LabeledDistribution, rng: np.random.Generator) -> tuple[int, int]:
    xs, ys = draw_batch(member, 1, rng)
    return int(xs[0]), int(ys[0])


@dataclass(frozen=True)
class SampleOracle:
    """Access to a distribution family, either with known masses ("exact") or
    through i.i.d. draws only ("sampling").

    A sampling oracle owns its rng stream and must not be shared across
    concurrent callers; exact-mode draws consume the rng passed by the caller.
    """

    family: DistributionFamily
    exact: bool
    rng: np.random.Generator | None = None

    @classmethod
    def exact_mode(cls, family: DistributionFamily) -> "SampleOracle":
        return cls(family, exact=True, rng=None)

    @classmethod
    def sampling_mode(cls, family: DistributionFamily, rng: np.random.Generator) -> "SampleOracle":
        return cls(family, exact=False, rng=rng)

    @property
    def k(self) -> int:
        return self.family.k

    @property
    def domain_size(self) -> int:
        return self.family.domain.size

    def exact_family(self) -> DistributionFamily:
        if not self.exact:
            raise ValueError("masses are not readable through a sampling oracle")
        return self.family

    def draw(self, member_index: int, size: int,
             rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Draw i.i.d. (x, y) pairs from one member. A sampling oracle always
        uses its own stream; an exact oracle synthesizes draws from the known
        masses with the caller's rng."""
        member = self.family.members[member_index]
        if self.exact:
            if rng is None:
                raise ValueError("exact-mode draws need the caller's rng")
            return draw_batch(member, size, rng)
        return draw_batch(member, size, self.rng)


@dataclass(frozen=True)
class HedgeConfig:
    """Knobs for the Hedge learner. rounds/eta default from (k, eps):
    T = ceil(8 ln(k) / eps^2) (minimum 1), eta = sqrt(8 ln(k) / T)."""

    rounds: int | None = None
    eta: float | None = None
    erm_sample_size: int = 200
    seed: int = 0

    def resolve(self, k: int, eps: float) -> tuple[int, float]:
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.erm_sample_size < 1:
            raise ValueError("erm_sample_size must be >= 1")
        # k = 1 would give eta = 0; ln 2 keeps eta positive and is otherwise
        # irrelevant (a single weight renormalizes to 1 whatever eta is)
        log_k = math.log(max(k, 2))
        rounds = self.rounds if self.rounds is not None else max(1, math.ceil(8.0 * log_k / eps**2))
        eta = self.eta if self.eta is not None else math.sqrt(8.0 * log_k / rounds)
        return rounds, eta


def _mixture(fam: DistributionFamily, w: np.ndarray) -> LabeledDistribution:
    """The w-weighted mixture as a labeled distribution. Its error against any
    h equals sum_i w_i er_{D_i}(h)."""
    mass = w @ fam.mass_matrix
    numer = w @ (fam.mass_matrix * fam.label_prob_matrix)
    eta = np.divide(numer, mass, out=np.full(fam.domain.size, 0.5), where=mass > 0)
    return LabeledDistribution(mass / mass.sum(), eta)


def erm(cls: HypothesisClass, data: LabeledDistribution | EmpiricalSample) -> int:
    """Exhaustive empirical/exact risk minimizer; lowest index on ties.

    Accepts a labeled distribution (exact risk) or a sample (0-1 loss on the
    empirical measure — identical by construction).
    """
    if isinstance(data, EmpiricalSample):
        if len(data) == 0:
            raise ValueError("erm needs a nonempty sample")
        data = data.to_distribution()
    if data.domain_size != cls.domain_size:
        raise ValueError("domain size mismatch between class and data")
    # err(h) = 0.5 - 0.5 * sum_x mass[x] * h(x) * (2 eta[x] - 1); argmin err = argmax score
    score = cls.label_matrix.astype(np.float64) @ (data.mass * (2.0 * data.label_one_prob - 1.0))
    return int(np.argmax(score))


@dataclass(frozen=True)
class HedgeRound:
    """One row of the optional per-round trace."""

    round_index: int
    hypothesis_index: int
    per_distribution_errors: tuple[float, ...]
    weights: tuple[float, ...]


def hedge_learn(oracle: SampleOracle, cls: HypothesisClass, eps: float, delta: float,
                cfg: HedgeConfig | None = None,
                trace: list | None = None) -> RandomizedClassifier:
    """Run Hedge for T rounds and return the uniform mixture over the chosen
    hypotheses (duplicate choices merged by summing weights).

    In exact mode the procedure is deterministic: the |H| x k error matrix E
    is computed once, and each round's best response is argmin_h (E @ w)[h],
    the exact ERM over the w-weighted mixture. In sampling mode each round
    draws cfg.erm_sample_size fresh samples per member from the oracle's
    stream, and both the ERM and the weight update use the resulting empirical
    measures. delta only enters through the caller's contract—Hedge itself has
    no failure branch in exact mode.
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")
    cfg = cfg or HedgeConfig()
    fam = oracle.family
    k = fam.k
    rounds, eta = cfg.resolve(k, eps)

    if oracle.exact:
        err_matrix = error_matrix(plus_rows(cls.label_matrix), fam)

    w = np.full(k, 1.0 / k)
    counts: dict[int, int] = {}
    for t in range(rounds):
        if oracle.exact:
            # np.argmin breaks ties to the lowest index, as erm does
            h_idx = int(np.argmin(err_matrix @ w))
            errs = err_matrix[h_idx]
        else:
            empiricals = [
                EmpiricalSample(*oracle.draw(i, cfg.erm_sample_size), fam.domain.size).to_distribution()
                for i in range(k)
            ]
            emp_fam = DistributionFamily(fam.domain, tuple(empiricals))
            h_idx = erm(cls, _mixture(emp_fam, w))
            errs = error_matrix(plus_rows(cls.label_matrix[h_idx]), emp_fam)
        counts[h_idx] = counts.get(h_idx, 0) + 1
        if trace is not None:
            trace.append(HedgeRound(t, h_idx, tuple(float(e) for e in errs), tuple(float(v) for v in w)))
        w = w * np.exp(eta * errs)
        w = w / w.sum()

    support = tuple(sorted(counts))
    weights = np.array([counts[i] / rounds for i in support])
    return RandomizedClassifier(cls, support, weights)


def make_hedge_learner(cfg: HedgeConfig | None = None):
    """Adapter giving hedge_learn the (oracle, cls, eps, delta) -> F shape the
    derandomizer expects of any black-box learner."""

    def learner(oracle: SampleOracle, cls: HypothesisClass, eps: float, delta: float
                ) -> RandomizedClassifier:
        return hedge_learn(oracle, cls, eps, delta, cfg)

    return learner
