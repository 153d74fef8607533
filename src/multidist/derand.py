"""Turning a hypothesis mixture into a single deterministic classifier.

The procedure takes the mixture F that a black-box randomized learner gave
at precision eps/2 (DerandConfig.learner_eps); its delta/2 is the caller's
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
from dataclasses import dataclass

import numpy as np

from .model import (
    ExplicitClassifier,
    RandomizedClassifier,
    check_eps_delta,
    frozen_pins,
    is_positive_real,
    require_integer,
    require_label_consistent,
)
from .learner import SampleOracle
from .hashing import CompactClassifier, choose_hash_params, sample_hash


@dataclass(frozen=True)
class DerandConfig:
    """Derandomization knobs.

    Theory mode derives gamma = c_const * k / (eps * delta) and a per-member
    sample count m = ceil(c_const * ln^2(gamma) / eps^2) (times an extra
    c_prime * ln(gamma) factor for hash rounding). Only calibrated mode takes
    m_override (its m) and threshold_scale, because the "large enough"
    constants make theory-mode m impractical for tight eps at desk scale, and
    only hash rounding takes a c_prime other than 4.0.
    """

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
        elif self.m_override is not None or self.threshold_scale != 1.0:
            raise ValueError("m_override and threshold_scale apply only in calibrated mode")
        if self.rounding != "hash" and self.c_prime != 4.0:
            raise ValueError(f"c_prime applies only to hash rounding, got {self.c_prime!r}")
        # gamma(k) >= c_const / (eps * delta), and the table threshold
        # sqrt(ln(gamma) / count) needs gamma > 1
        if self.c_const <= self.eps * self.delta:
            raise ValueError(f"c_const must exceed eps * delta so that gamma > 1, "
                             f"got {self.c_const!r}")

    def gamma(self, k: int) -> float:
        return self.c_const * k / (self.eps * self.delta)

    def sample_size(self, k: int) -> int:
        if self.mode == "calibrated":
            return self.m_override
        ln_gamma = math.log(self.gamma(k))
        m = self.c_const * ln_gamma**2 / self.eps**2
        if self.rounding == "hash":
            m *= self.c_prime * ln_gamma
        return math.ceil(m)

    def learner_eps(self) -> float:
        """The precision the learner is run at: half of this configuration's."""
        return self.eps / 2.0


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


def build_bias_table(oracle: SampleOracle, cfg: DerandConfig,
                     rng: np.random.Generator | None = None) -> BiasTable:
    """Sample each member in order and collect points whose label skew clears
    the threshold.

    Points already in the table are skipped in later member iterations. Even
    with an exact-mode oracle this procedure samples — the table's guarantees
    are statements about its sampling randomness, so reading the masses would
    test nothing. The draws are tallied by SampleOracle._tallies, in bounded
    blocks, using the stream as k consecutive per-member draws would: rng's
    for an exact-mode oracle, which needs it, and the oracle's own otherwise.
    """
    fam = oracle.family
    if oracle.exact:
        require_label_consistent(fam)
    ln_gamma = math.log(cfg.gamma(fam.k))
    counts, pos = next(oracle._tallies(cfg.sample_size(fam.k), rng=rng))
    drawn = np.maximum(counts, 1)  # a cell with no draws gets rho 0, which never passes
    rho = (2.0 * pos - counts) / drawn
    passing = np.abs(rho) > cfg.threshold_scale * np.sqrt(ln_gamma / drawn)

    # a point an earlier member put in the table is skipped (the x in X\T
    # guard), so each point's entry comes from the first member it passes for
    first = passing & (np.cumsum(passing, axis=0) == 1)
    points, members = np.nonzero(first.T)
    r = rho[members, points]
    return BiasTable(points, np.where(r >= 0, 1, -1), members, r, counts[members, points])


def round_outside_t(f_rand: RandomizedClassifier, table: BiasTable, domain_size: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Full label vector: table labels where fixed, and one independent draw
    from the mixture per remaining point (a fresh draw per point, never one
    shared hypothesis)."""
    labels = np.empty(domain_size, dtype=np.int8)
    labels[table.points] = table.labels
    idx_outside = np.delete(np.arange(domain_size), table.points)
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


def derandomize(oracle: SampleOracle, f_rand: RandomizedClassifier, cfg: DerandConfig,
                rng: np.random.Generator) -> DerandResult:
    """Round the mixture f_rand to one deterministic classifier
    (ExplicitClassifier or CompactClassifier per cfg.rounding), returned with
    the bias table behind it.

    f_rand is the black-box learner's mixture, learned at
    cfg.learner_eps() before any table samples are drawn, so it never
    sees them; the table sampling and the rounding consume two streams
    spawned from rng.
    """
    fam = oracle.family
    table_rng, round_rng = rng.spawn(2)
    table = build_bias_table(oracle, cfg, table_rng)

    if cfg.rounding == "explicit":
        labels = round_outside_t(f_rand, table, fam.domain_size, round_rng)
        return DerandResult(ExplicitClassifier(labels), table)

    r, p = choose_hash_params(fam.k, cfg.eps, cfg.delta, fam.domain_size, cfg.c_prime)
    q = sample_hash(p, r, round_rng)
    return DerandResult(CompactClassifier(q, table.points, table.labels, f_rand), table)
