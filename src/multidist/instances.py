"""Reproducible instance generators: random label-consistent families, the
k-point worst-case mixture example, and engineered heavy/light bias probes.

Every generator is a pure function of its spec (seed included): the same spec
yields a bit-identical instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    DistributionFamily,
    HypothesisClass,
    RandomizedClassifier,
    shown,
)
from .metrics import _heaviness, bayes_labels, heavy_bias_threshold


GENERATOR_KINDS = ("random_label_consistent", "bayes_in_class", "gap_example",
                   "heavy_point_probe")


@dataclass(frozen=True)
class GenSpec:
    """Parameters for an instance generator, serializable into instance files.

    kind selects the generator, one of GENERATOR_KINDS:
    "random_label_consistent" (or "bayes_in_class" to also append the
    pointwise-majority labeling to the class, hypothesis_count + 1 in all),
    "gap_example", or "heavy_point_probe". A spec records its instance's
    shape: a gap example's domain_size and hypothesis_count are its k, and a
    probe's hypothesis_count is 1, whatever was given. The bias profile
    splits the domain into near-deterministic points (|bias| drawn from
    det_beta range), near-fair points (|bias| <= fair_beta_max), and a
    remainder with moderate label noise. An int field takes an integer (a
    numpy one is kept as a Python int), a float field an int or a float, and
    neither a bool; a str field a str that encodes as UTF-8 (no lone
    surrogate).
    """

    kind: str = "random_label_consistent"
    domain_size: int = 40
    k: int = 6
    hypothesis_count: int = 16
    det_fraction: float = 0.3
    det_beta_lo: float = 0.3
    det_beta_hi: float = 0.5
    fair_fraction: float = 0.4
    fair_beta_max: float = 0.05
    # heavy_point_probe only:
    heavy_count: int = 0
    heavy_beta: float = 0.4
    heavy_mass: float = 0.25
    light_beta_max: float = 0.05
    eps: float = 0.2
    delta: float = 0.2
    variant: str = "explicit"
    c_prime: float = 4.0
    seed: int = 0

    def __post_init__(self):
        for name, (kind, accepted) in _GEN_SPEC_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"gen_spec field {name!r} must be {kind}, got {shown(value)}")
            if kind == "int" and type(value) is not int:
                object.__setattr__(self, name, int(value))
            if kind == "str":
                # json writes a lone surrogate as a \u escape, which orjson rejects
                try:
                    value.encode()
                except UnicodeEncodeError:
                    raise ValueError(f"gen_spec field {name!r} must be UTF-8 text, "
                                     f"got {shown(value)}") from None
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "gap_example":
            object.__setattr__(self, "domain_size", self.k)
            object.__setattr__(self, "hypothesis_count", self.k)
        elif self.kind == "heavy_point_probe":
            object.__setattr__(self, "hypothesis_count", 1)
        if self.domain_size < 1 or self.k < 1 or self.hypothesis_count < 1:
            raise ValueError("counts must be positive")
        if self.heavy_count < 0:
            raise ValueError(f"heavy_count must be nonnegative, got {self.heavy_count}")
        if self.kind == "gap_example" and self.k < 2:
            raise ValueError("the gap example needs k >= 2")
        # an instance file's integers must fit in 64 bits to load again
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if max(self.domain_size, self.k, self.hypothesis_count, self.heavy_count) >= 2**64:
            raise ValueError("counts must lie below 2^64")
        # NaN fails every comparison, so this also rejects it
        for name in ("det_fraction", "fair_fraction", "heavy_mass"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.det_fraction + self.fair_fraction > 1.0 + 1e-12:
            raise ValueError("det_fraction + fair_fraction must not exceed 1")
        if not 0.0 <= self.det_beta_lo <= self.det_beta_hi <= 0.5:
            raise ValueError("det beta range must satisfy 0 <= lo <= hi <= 1/2")
        for name in ("fair_beta_max", "light_beta_max", "heavy_beta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"{name} must lie in [0, 1/2], got {v}")
        if self.kind == "heavy_point_probe":
            if self.heavy_count >= self.domain_size:
                raise ValueError("a heavy point probe needs at least one light point")
            if self.heavy_count > 0 and self.heavy_beta <= 0.0:
                raise ValueError("heavy points need heavy_beta > 0")
            if self.heavy_count > 0 and self.heavy_mass * self.heavy_count > 1.0:
                raise ValueError("heavy masses exceed total probability")
        for name in ("eps", "delta", "c_prime"):  # no reader takes json's NaN or Infinity
            if not math.isfinite(v := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {v}")


# each GenSpec field's type name and the types it takes, read once rather than per spec
_GEN_SPEC_TYPES = {f.name: (f.type, {"int": (int, np.integer), "float": (int, float),
                                     "str": str}[f.type]) for f in fields(GenSpec)}


def _random_mass(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    # exponential draws normalized per row = symmetric Dirichlet(1) rows; the
    # stream fills the rows in order, as one draw per row would
    raw = rng.exponential(1.0, size=shape)
    return raw / raw.sum(axis=1, keepdims=True)


def _bias_profile_eta(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.domain_size
    n_det = min(round(spec.det_fraction * n), n)
    n_fair = min(round(spec.fair_fraction * n), n - n_det)
    order = rng.permutation(n)
    det, fair = order[:n_det], order[n_det : n_det + n_fair]
    # numpy's uniform(low, high) is low + (high - low) * u, here element-wise
    low, high, base = np.full(n, 0.2), np.full(n, 0.8), np.zeros(n)
    low[det], high[det], base[det] = spec.det_beta_lo, spec.det_beta_hi, 0.5
    low[fair], high[fair], base[fair] = -spec.fair_beta_max, spec.fair_beta_max, 0.5
    # the doubles go to the points in index order, one each, and a det point
    # takes a second one for its sign
    is_det = np.bincount(det, minlength=n)
    first = np.arange(n) + np.cumsum(is_det) - is_det
    u = rng.random(n + n_det)
    sign = np.where((is_det == 1) & (u[first + is_det] >= 0.5), -1.0, 1.0)
    eta = base + (low + (high - low) * u[first]) * sign
    return np.clip(eta, 0.0, 1.0)


def _random_hypotheses(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return np.where(rng.random((count, n)) < 0.5, 1, -1).astype(np.int8)


def gen_random_label_consistent(spec: GenSpec) -> tuple[DistributionFamily, HypothesisClass]:
    """k independent random mass vectors sharing one conditional label vector
    drawn from the bias profile, plus a class of random labelings (and, for
    kind "bayes_in_class", the pointwise-majority labeling as the last one)."""
    rng = np.random.default_rng(spec.seed)
    eta = _bias_profile_eta(spec, rng)
    masses = _random_mass((spec.k, spec.domain_size), rng)
    fam = DistributionFamily(masses, np.broadcast_to(eta, masses.shape))
    labels = _random_hypotheses(spec.domain_size, spec.hypothesis_count, rng)
    if spec.kind == "bayes_in_class":
        labels = np.vstack([labels, bayes_labels(fam)])
    return fam, HypothesisClass(labels)


def gen_gap_example(k: int) -> tuple[DistributionFamily, HypothesisClass, RandomizedClassifier]:
    """The k-point construction where a uniform mixture has worst-case error
    1/k but every single hypothesis in its support has worst-case error 1:
    member i is a point mass on (x_i, +1) and hypothesis i labels x_i with -1
    and everything else +1."""
    if k < 2:
        raise ValueError("the gap example needs k >= 2")
    fam = DistributionFamily(np.eye(k), np.ones((k, k)))
    cls = HypothesisClass(1 - 2 * np.eye(k, dtype=np.int8))
    f_rand = RandomizedClassifier(cls, tuple(range(k)), np.full(k, 1.0 / k))
    return fam, cls, f_rand


def gen_heavy_point_probe(spec: GenSpec) -> DistributionFamily:
    """A family whose designated points sit strictly above the heavy-bias
    threshold at (eps, delta, k) while every other point sits strictly below
    it under every member. heavy_count = 0 gives an all-light instance.

    Member 0 concentrates heavy_mass on each heavy point; other members avoid
    the heavy points entirely so lightness only needs to hold against spread
    mass. A spec that lands any point exactly on the threshold is rejected.
    """
    rng = np.random.default_rng(spec.seed)
    n, k, h = spec.domain_size, spec.k, spec.heavy_count
    heavy_points = np.arange(h)
    light_points = np.arange(h, n)

    eta = np.empty(n)
    signs = np.where(np.arange(h) % 2 == 0, 1.0, -1.0)
    eta[:h] = 0.5 + spec.heavy_beta * signs
    eta[h:] = 0.5 + rng.uniform(-spec.light_beta_max, spec.light_beta_max, size=n - h)

    masses = np.zeros((k, n))
    masses[:, light_points] = _random_mass((k, light_points.size), rng)
    masses[0, light_points] *= 1.0 - spec.heavy_mass * h
    masses[0, heavy_points] = spec.heavy_mass
    fam = DistributionFamily(masses, np.broadcast_to(eta, masses.shape))

    thresh = heavy_bias_threshold(spec.eps, spec.delta, k, spec.variant, spec.c_prime)
    best = _heaviness(fam)
    if np.any(best == thresh):
        raise ValueError("a point sits exactly on the heavy-bias threshold; adjust the spec")
    is_heavy = best > thresh
    expected = np.zeros(n, dtype=bool)
    expected[heavy_points] = True
    if not np.array_equal(is_heavy, expected):
        raise ValueError(
            "spec does not separate heavy and light points at the requested (eps, delta)"
        )
    return fam


def generate(spec: GenSpec):
    """Dispatch on spec.kind. Returns (family, hypothesis_class, mixture|None);
    heavy_point_probe instances come with a trivial one-hypothesis class."""
    if spec.kind == "gap_example":
        return gen_gap_example(spec.k)
    if spec.kind == "heavy_point_probe":
        fam = gen_heavy_point_probe(spec)
        cls = HypothesisClass(np.ones((1, spec.domain_size), dtype=np.int8))
        return fam, cls, None
    fam, cls = gen_random_label_consistent(spec)
    return fam, cls, None
