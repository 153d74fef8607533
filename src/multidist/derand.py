"""Turning a hypothesis mixture into a single deterministic classifier.

The procedure takes the mixture F that a black-box randomized learner gave
at precision eps/2 and confidence delta/2 (DerandConfig.learner_eps_delta);
then, sampling each distribution in turn, it collects every point whose
empirical label skew clears a sqrt(ln(gamma)/count) threshold into a table T
and pins its majority label; finally it labels every remaining point by an
independent draw from F (or, in compact mode, by the hash rounding rule,
which needs no per-point storage).

Points with strong bias under some distribution land in T with the correct
sign with high probability; the rest have so little bias that the independent
rounding concentrates within eps/2 of F's error simultaneously for all
members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ExplicitClassifier,
    RandomizedClassifier,
    check_eps_delta,
    is_positive_real,
    require_integer,
    require_label_consistent,
    require_unit_weights,
)
from .learner import SampleOracle, _tally
from .hashing import CompactClassifier, choose_hash_params, sample_hash


@dataclass(frozen=True)
class DerandConfig:
    """Derandomization knobs.

    Theory mode derives gamma = c_const * k / (eps * delta) and a per-member
    sample count m = ceil(c_const * ln^2(gamma) / eps^2) (times an extra
    c_prime * ln(gamma) factor for hash rounding). Calibrated mode overrides m
    directly and scales the table threshold, because the "large enough"
    constants make theory-mode m impractical for tight eps at desk scale.
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

    def scale(self) -> float:
        return self.threshold_scale if self.mode == "calibrated" else 1.0

    def learner_eps_delta(self) -> tuple[float, float]:
        """The precision and failure probability the learner is run at: half
        of this configuration's own."""
        return self.eps / 2.0, self.delta / 2.0


@dataclass(frozen=True)
class BiasEntry:
    label: int
    member: int  # distribution whose samples triggered the insertion
    rho: float
    count: int


@dataclass(frozen=True)
class BiasTable:
    """Points with empirically certain label bias, and the label fixed for each."""

    entries: dict[int, BiasEntry] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, x: int) -> bool:
        return x in self.entries

    def points(self) -> np.ndarray:
        return np.array(sorted(self.entries), dtype=np.int64)

    def labels(self) -> dict[int, int]:
        return {x: e.label for x, e in self.entries.items()}

    def label_of(self, x: int) -> int:
        return self.entries[x].label


def _sign(v: float) -> int:
    return 1 if v >= 0 else -1


def build_bias_table(oracle: SampleOracle, cfg: DerandConfig,
                     rng: np.random.Generator | None = None) -> BiasTable:
    """Sample each member in order and collect points whose label skew clears
    the threshold.

    Points already in the table are skipped in later member iterations. Even
    with an exact-mode oracle this procedure samples — the table's guarantees
    are statements about its sampling randomness, so reading the masses would
    test nothing. All members are drawn in one oracle.draw_family call, which
    uses the stream as k consecutive per-member draws would: rng's for an
    exact-mode oracle, which needs it, and the oracle's own otherwise.
    """
    fam = oracle.family
    if oracle.exact:
        require_label_consistent(fam)
    k, n = fam.k, fam.domain_size
    gamma = cfg.gamma(k)
    m = cfg.sample_size(k)
    scale = cfg.scale()
    ln_gamma = math.log(gamma)

    xs, ys = oracle.draw_family(m, rng=rng)
    counts, pos = _tally(xs + np.arange(k)[:, None] * n, ys == 1, k, n)
    with np.errstate(invalid="ignore"):
        rho = np.where(counts > 0, (2.0 * pos - counts) / np.maximum(counts, 1), 0.0)
    passing = np.zeros((k, n), dtype=bool)
    seen = counts > 0
    passing[seen] = np.abs(rho[seen]) > scale * np.sqrt(ln_gamma / counts[seen])

    # a point an earlier member put in the table is skipped (the x in X\T
    # guard), so each point's entry comes from the first member it passes for;
    # entries go in member by member, points ascending
    first = passing & (np.cumsum(passing, axis=0) == 1)
    members, points = np.nonzero(first)
    return BiasTable({x: BiasEntry(_sign(r), i, r, c) for i, x, r, c in
                      zip(members.tolist(), points.tolist(), rho[first].tolist(),
                          counts[first].astype(np.int64).tolist())})


def round_outside_t(f_rand: RandomizedClassifier, table: BiasTable, domain_size: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Full label vector: table labels where fixed, and one independent draw
    from the mixture per remaining point (a fresh draw per point, never one
    shared hypothesis)."""
    require_unit_weights(f_rand)
    labels = np.empty(domain_size, dtype=np.int8)
    outside = np.ones(domain_size, dtype=bool)
    for x, entry in table.entries.items():
        labels[x] = entry.label
        outside[x] = False
    idx_outside = np.nonzero(outside)[0]
    if idx_outside.size:
        cum = np.cumsum(f_rand.weights)
        picks = np.searchsorted(cum, rng.random(idx_outside.size), side="right")
        np.clip(picks, 0, len(f_rand.support) - 1, out=picks)
        labels[idx_outside] = f_rand.support_label_matrix[picks, idx_outside]
    return labels


@dataclass(frozen=True)
class DerandResult:
    """The produced classifier together with the mixture and table behind it,
    for reporting and diagnostics."""

    classifier: object  # ExplicitClassifier | CompactClassifier
    f_rand: RandomizedClassifier
    table: BiasTable


def derandomize(oracle: SampleOracle, f_rand: RandomizedClassifier, cfg: DerandConfig,
                rng: np.random.Generator) -> DerandResult:
    """Round the mixture f_rand to one deterministic classifier
    (ExplicitClassifier or CompactClassifier per cfg.rounding), returned with
    the mixture and the bias table behind it.

    f_rand is the black-box learner's mixture, learned at
    cfg.learner_eps_delta() before any table samples are drawn, so it never
    sees them; the table sampling and the rounding consume two streams
    spawned from rng.
    """
    fam = oracle.family
    table_rng, round_rng = rng.spawn(2)
    table = build_bias_table(oracle, cfg, table_rng)

    if cfg.rounding == "explicit":
        labels = round_outside_t(f_rand, table, fam.domain_size, round_rng)
        return DerandResult(ExplicitClassifier(labels), f_rand, table)

    r, p = choose_hash_params(fam.k, cfg.eps, cfg.delta, fam.domain_size, cfg.c_prime)
    q = sample_hash(p, r, round_rng)
    return DerandResult(CompactClassifier(q, table.labels(), f_rand, fam.domain_size, p),
                        f_rand, table)
