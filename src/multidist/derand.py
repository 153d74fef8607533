"""Turning a hypothesis mixture into a single deterministic classifier.

The procedure takes the mixture F that a black-box randomized learner gave
at precision eps/2 (RunPlan.learner_eps); its delta/2 is the caller's
accounting, which exact-mode Hedge meets with probability 1. Then, sampling
each distribution in turn, it collects every point whose empirical label
skew clears a sqrt(ln(gamma)/count) threshold into a table T and pins its
majority label; finally it labels every remaining point by an independent
draw from F (or, in compact mode, by the hash rounding rule, which needs no
per-point storage).

Points with strong bias under some distribution land in T with the correct
sign with high probability; the rest have so little bias that the independent
rounding concentrates within eps/2 of F's error simultaneously for all
members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (DistributionFamily, ExplicitClassifier, RandomizedClassifier, check_eps_delta,
                    frozen_pins, is_integer, is_positive_real, require_integer,
                    require_label_consistent)
from .metrics import heavy_bias_threshold
from .learner import DRAWS_LIMIT, HedgeConfig, _tallies
from .hashing import CompactClassifier, choose_hash_params, sample_hash

# Most draws one bias table takes, m per member times k: a run's draws are its
# work, about 25 million a second on a 2-core x86_64 host, so a plan at the
# limit samples for under a minute. A plan past it is refused when built,
# before any learning.
TABLE_DRAWS_LIMIT = 1 << 30


@dataclass(frozen=True)
class DerandConfig:
    """Derandomization knobs, whose sizes a RunPlan derives. Only calibrated
    mode takes m_override (its table draws per member) and threshold_scale,
    because the "large enough" constants make theory-mode m impractical for
    tight eps at desk scale, and only hash rounding takes a c_prime other
    than 4.0."""

    eps: float
    delta: float
    c_const: float = 4.0
    c_prime: float = 4.0
    mode: str = "theory"  # "theory" | "calibrated"
    m_override: int | None = None
    threshold_scale: float = 1.0
    rounding: str = "explicit"  # "explicit" | "hash"

    def __post_init__(self):
        check_eps_delta(self.eps, self.delta)
        for name in ("c_const", "c_prime", "threshold_scale"):
            value = getattr(self, name)
            if not is_positive_real(value):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.mode not in ("theory", "calibrated"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rounding not in ("explicit", "hash"):
            raise ValueError(f"unknown rounding {self.rounding!r}")
        if self.m_override is not None:
            object.__setattr__(self, "m_override", require_integer(self.m_override, "m_override"))
        if self.mode == "calibrated":
            if self.m_override is None or self.m_override < 1:
                raise ValueError("calibrated mode needs a positive m_override")
            if self.m_override > DRAWS_LIMIT:
                raise ValueError(f"m_override must be at most DRAWS_LIMIT = 2^53, "
                                 f"got {self.m_override}")
        elif self.m_override is not None or self.threshold_scale != 1.0:
            raise ValueError("m_override and threshold_scale apply only in calibrated mode")
        if self.rounding != "hash" and self.c_prime != 4.0:
            raise ValueError(f"c_prime applies only to hash rounding, got {self.c_prime!r}")
        # gamma(k) >= c_const / (eps * delta), and the table threshold
        # sqrt(ln(gamma) / count) needs gamma > 1
        if self.c_const <= self.eps * self.delta:
            raise ValueError(f"c_const must exceed eps * delta so that gamma > 1, "
                             f"got {self.c_const!r}")


@dataclass(frozen=True)
class RunPlan:
    """The sizes of one derandomization run on k members over domain_size
    points, derived once and checked in this order when built: the hash
    parameters (r, p) under hash rounding, Hedge's rounds and rate at the
    learner's eps (HedgeConfig.resolve), then m, the table's draws per
    member, at most DRAWS_LIMIT, and its m * k draws in all, at most
    TABLE_DRAWS_LIMIT. Theory mode derives m = ceil(c_const * ln^2(gamma) /
    eps^2), times c_prime * ln(gamma) under hash rounding, with gamma =
    c_const * k / (eps * delta); calibrated mode takes m_override."""

    k: int
    domain_size: int
    derand: DerandConfig
    hedge: HedgeConfig = HedgeConfig()
    learner_eps: float = field(init=False)
    rounds: int = field(init=False)
    eta: float = field(init=False)
    ln_gamma: float = field(init=False)
    m: int = field(init=False)
    heavy_threshold: float = field(init=False)
    hash_params: tuple[int, int] | None = field(init=False)  # (r, p) under hash rounding

    def __post_init__(self):
        k, n, d = self.k, self.domain_size, self.derand
        if not all(is_integer(v) and v >= 1 for v in (k, n)):
            raise ValueError(f"a run plan needs integers k, domain_size >= 1, got {k!r}, {n!r}")
        hash_params = (choose_hash_params(k, d.eps, d.delta, n, d.c_prime)
                       if d.rounding == "hash" else None)
        learner_eps = d.eps / 2.0  # the learner's precision: half of the run's
        rounds, eta = self.hedge.resolve(k, learner_eps)
        # eps * delta underflows to 0.0 near 5e-324, and eps**2 below eps = 1.5e-162
        ln_gamma = math.log(d.c_const * k / (d.eps * d.delta) if d.eps * d.delta else math.inf)
        m = d.m_override
        if d.mode == "theory":
            m = d.c_const * ln_gamma**2 / d.eps**2 if d.eps**2 else math.inf
            if d.rounding == "hash":
                m *= d.c_prime * ln_gamma
            if m > DRAWS_LIMIT:
                raise ValueError(f"eps = {d.eps!r} needs {m:.3g} table draws per member at "
                                 f"k = {k}, more than DRAWS_LIMIT = 2^53")
            m = math.ceil(m)
        if m * k > TABLE_DRAWS_LIMIT:
            raise ValueError(f"the bias table needs m * k = {m * k} draws (m = {m} per member at "
                             f"k = {k}), more than TABLE_DRAWS_LIMIT = 2^30; m must be at most "
                             f"{TABLE_DRAWS_LIMIT // k} at k = {k}")
        heavy_threshold = heavy_bias_threshold(d.eps, d.delta, k, d.rounding, d.c_prime)
        vars(self).update(learner_eps=learner_eps, rounds=rounds, eta=eta, ln_gamma=ln_gamma,
                          m=m, heavy_threshold=heavy_threshold, hash_params=hash_params)

    def check_family(self, fam: DistributionFamily) -> None:
        """A ValueError unless fam has the plan's k and domain size."""
        if (fam.k, fam.domain_size) != (self.k, self.domain_size):
            raise ValueError(f"a family of k = {fam.k} on {fam.domain_size} points, but the plan "
                             f"is for k = {self.k} on {self.domain_size}")


@dataclass(frozen=True)
class BiasTable:
    """Points with empirically certain label bias, as read-only arrays of one
    length: the points, ascending; the +-1 label pinned at each; the member
    whose samples put it in; its empirical skew rho and its sample count
    under that member."""

    points: np.ndarray = ()
    labels: np.ndarray = ()
    members: np.ndarray = ()
    rho: np.ndarray = ()
    counts: np.ndarray = ()

    def __post_init__(self):
        points, labels = frozen_pins(self.points, self.labels, "table")
        for name, arr in (("points", points), ("labels", labels),
                          ("members", np.array(self.members, dtype=np.int64)),
                          ("rho", np.array(self.rho, dtype=np.float64)),
                          ("counts", np.array(self.counts, dtype=np.int64))):
            if arr.shape != points.shape:
                raise ValueError(f"table {name} has shape {arr.shape}, points {points.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.points)


def build_bias_table(fam: DistributionFamily, plan: RunPlan,
                     rng: np.random.Generator) -> BiasTable:
    """Sample each member plan.m times, in order, and collect points whose
    label skew clears the plan's threshold; fam must be label-consistent and
    of the plan's shape.

    Points already in the table are skipped in later member iterations. The
    masses are known, yet the table samples: its guarantees are statements
    about its sampling randomness, so reading the masses would test nothing.
    The draws are tallied by learner._tallies, in bounded blocks, using rng
    as k consecutive per-member draws would.
    """
    plan.check_family(fam)
    require_label_consistent(fam)
    counts, pos = next(_tallies(fam, plan.m, rng))
    drawn = np.maximum(counts, 1)  # a cell with no draws gets rho 0, which never passes
    rho = (2.0 * pos - counts) / drawn
    passing = np.abs(rho) > plan.derand.threshold_scale * np.sqrt(plan.ln_gamma / drawn)

    # a point an earlier member put in the table is skipped (the x in X\T
    # guard), so each point's entry comes from the first member it passes for
    first = passing & (np.cumsum(passing, axis=0) == 1)
    points, members = np.nonzero(first.T)
    r = rho[members, points]
    return BiasTable(points, np.where(r >= 0, 1, -1), members, r, counts[members, points])


def round_outside_t(f_rand: RandomizedClassifier, table: BiasTable,
                    rng: np.random.Generator) -> np.ndarray:
    """Full label vector over the mixture's domain: table labels where fixed,
    and one independent draw from the mixture per remaining point (a fresh
    draw per point, never one shared hypothesis)."""
    labels = np.empty(f_rand.domain_size, dtype=np.int8)
    labels[table.points] = table.labels
    idx_outside = np.delete(np.arange(f_rand.domain_size), table.points)
    picks = np.searchsorted(np.cumsum(f_rand.weights), rng.random(idx_outside.size), side="right")
    np.clip(picks, 0, len(f_rand.support) - 1, out=picks)
    labels[idx_outside] = f_rand.support_label_matrix[picks, idx_outside]
    return labels


@dataclass(frozen=True)
class DerandResult:
    """The produced classifier together with the table behind it, for
    reporting and diagnostics."""

    classifier: object  # ExplicitClassifier | CompactClassifier
    table: BiasTable


def derandomize(fam: DistributionFamily, f_rand: RandomizedClassifier, plan: RunPlan,
                rng: np.random.Generator) -> DerandResult:
    """Round the mixture f_rand to one deterministic classifier of fam
    (ExplicitClassifier, or CompactClassifier with the plan's hash
    parameters under hash rounding), returned with the bias table behind it.

    f_rand is the black-box learner's mixture, learned at
    plan.learner_eps before any table samples are drawn, so it never
    sees them; the table sampling and the rounding consume two streams
    spawned from rng. The mixture's domain and the family's shape are
    compared with the family's and the plan's before rng is used, so a
    mismatch fails at once.
    """
    if f_rand.domain_size != fam.domain_size:
        raise ValueError(f"domain size mismatch: mixture {f_rand.domain_size}, "
                         f"family {fam.domain_size}")
    plan.check_family(fam)
    table_rng, round_rng = rng.spawn(2)
    table = build_bias_table(fam, plan, table_rng)

    if plan.hash_params is None:
        labels = round_outside_t(f_rand, table, round_rng)
        return DerandResult(ExplicitClassifier(labels), table)

    r, p = plan.hash_params
    q = sample_hash(p, r, round_rng)
    return DerandResult(CompactClassifier(q, table.points, table.labels, f_rand), table)
