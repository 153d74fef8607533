"""Randomized min-max learner: Hedge over distributions with an exhaustive ERM
best response.

The learner treats the k distributions as experts: it keeps a weight vector on
them, best-responds each round with the exhaustive ERM over the weighted
mixture, re-weights distributions proportionally to exp(eta * error) so that
hard distributions gain influence, and returns the uniform mixture over the
chosen hypotheses. With rounds T = ceil(8 ln(k) / eps^2) and learning rate
eta = sqrt(8 ln(k) / T), the no-regret bound puts the mixture's worst-case
error in exact mode at most eps/4 above the game value V, the best mixture's
worst-case error (Freund & Schapire 1999), and so at most OPT + eps/4.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import (
    DistributionFamily,
    HypothesisClass,
    LabeledDistribution,
    RandomizedClassifier,
    is_positive_real,
    plus_rows,
    require_integer,
)
from .metrics import _errors, class_errors


@dataclass(frozen=True)
class EmpiricalSample:
    """Draws (x_j, y_j) from one distribution, as parallel arrays."""

    xs: np.ndarray
    ys: np.ndarray
    domain_size: int

    def __post_init__(self):
        xs = np.asarray(self.xs)
        # checked before the int64 cast, which would truncate 2.7 to 2
        if xs.dtype.kind == "f" and not np.all(np.isfinite(xs) & (np.floor(xs) == xs)):
            raise ValueError("sample points must be integers")
        xs = xs.astype(np.int64)
        ys = np.asarray(self.ys)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be parallel one-dimensional arrays")
        if not np.all((ys == 1) | (ys == -1)):
            raise ValueError("labels must be -1 or +1")
        if np.any((xs < 0) | (xs >= self.domain_size)):
            raise ValueError(f"sample points must lie in [0, {self.domain_size})")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys.astype(np.int8))

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


def _bucket_table(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse-CDF table of r members given as (r, n) masses: the
    cumulative masses times G, and an (r, G + 1) bucket index over [0, 1)
    whose first G columns are the buckets, G = the smallest power of two
    >= 8n. The index is held in the narrowest signed integer type that holds
    -n (int16 up to n = 32768).

    G is a power of two, so u * G and cum * G are exact, and a key u lies in
    bucket j = floor(u * G) iff j/G <= u < (j + 1)/G. A key's answer is
    #{cum * G <= u * G}, clipped to n - 1 (a family's masses may sum a little
    short of 1). Where no cum * G lies strictly inside (j, j + 1), every key
    in bucket j has the answer #{cum * G <= j}, clipped, and the index holds
    it. Where exactly one does, it is the row's entry b = #{cum * G <= j}, a
    key's answer is b + (cum * G[b] <= u * G), and the index holds ~b; b =
    n - 1 would clip both answers to n - 1, so the index holds n - 1 there.
    Where two or more do, the index holds ~(n - 1), and such keys are
    searched. A family's masses are nonnegative, so each row of cum is
    sorted.
    """
    r, n = mass.shape
    G = 1 << (8 * n - 1).bit_length()
    cum = np.cumsum(mass, axis=1)
    cum *= G
    ceil = np.minimum(np.ceil(cum), G).astype(np.intp)
    # strictly inside bucket ceil - 1: cum * G on a bucket edge equals ceil,
    # and one past every bucket exceeds it
    inside = cum < ceil
    # column G counts the cumulative masses above every bucket; no key reads it
    ceil += np.arange(r)[:, None] * (G + 1)
    # counted over all entries but the last, #{cum * G <= j} comes out
    # clipped to n - 1
    guide = np.bincount(ceil[:, :-1].ravel(), minlength=r * (G + 1)).reshape(r, G + 1)
    guide = np.cumsum(guide, axis=1, dtype=np.min_scalar_type(-n))
    # cum is sorted, so the entries inside one bucket are neighbours, the
    # first being entry b = guide[bucket]
    shared = inside[:, 1:] & (ceil[:, 1:] == ceil[:, :-1])
    several = np.zeros((r, n), dtype=bool)
    several[:, :-1] = shared
    several[:, 1:] |= shared
    one = inside & ~several
    one[:, -1] = False
    flat = guide.reshape(-1)
    at = ceil[one] - 1
    flat[at] = ~flat[at]
    flat[ceil[several] - 1] = ~(n - 1)
    return cum, guide


def _lookup(table: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """The cells i * n + x, in u's shape, of the uniforms u (any strides),
    whose rows along axis -2 are keys of the r members of a _bucket_table:
    x = #{cum <= u} clipped to n - 1, as searchsorted "right" gives it. u is
    scaled by G in place. A key is read from the bucket index, decided by one
    comparison, or (in a bucket with several cumulative masses inside)
    searched on its member's row of cum * G."""
    scaled_cum, guide = table
    r, n = scaled_cum.shape
    size = u.shape[-1]
    u *= guide.shape[1] - 1
    keys = u.astype(np.intp)
    keys += np.arange(r)[:, None] * guide.shape[1]
    xs = guide.take(keys)
    # the cells overwrite the keys, so that the call holds at most two
    # arrays of 8 bytes a draw and the narrow xs
    cells = np.add(xs, np.arange(r)[:, None] * n, out=keys)
    missed = np.flatnonzero(xs < 0)
    if missed.size:
        # draw f is row f // size of the (... * r, size) keys, of member row % r
        row = missed // size
        first = row % r * n
        scaled = u.flat[missed]
        found = ~xs.take(missed).astype(np.intp)
        several = np.flatnonzero(found == n - 1)
        found += scaled_cum.take(first + found) <= scaled
        if several.size:
            member = row.take(several) % r
            order = np.argsort(member, kind="stable")
            several, member = several[order], member[order]
            bounds = np.searchsorted(member, np.arange(r + 1)).tolist()
            for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                if start < stop:
                    at = several[start:stop]
                    found[at] = scaled_cum[i].searchsorted(scaled.take(at), "right")
            np.minimum(found, n - 1, out=found)
        found += first
        cells.put(missed, found)
    return cells


def _draw(table: tuple[np.ndarray, np.ndarray], label_one_prob: np.ndarray, size: int,
          rng: np.random.Generator, rounds: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """size i.i.d. draws from each of r members given as their _bucket_table
    and (r, n) label probabilities, in each of `rounds` rounds: (rounds, r,
    size) cells from _lookup, and booleans, True where the label is +1. One
    rng.random((rounds, r, 2, size)) call gives member 0's point uniforms,
    then its label uniforms, then member 1's, as 2 * rounds * r calls would."""
    u = rng.random((rounds, len(label_one_prob), 2, size))
    cells = _lookup(table, u[:, :, 0])
    return cells, u[:, :, 1] < label_one_prob.take(cells)


def _tally(cells: np.ndarray, plus: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) counts, as floats, of the draws in each cell i * n + x (member
    i's point x), and of those whose label is +1, from cells and +1 flags of
    one shape."""
    cells = cells.ravel()
    counts = np.bincount(cells, minlength=k * n).astype(np.float64)
    pos = np.bincount(cells, weights=plus.ravel(), minlength=k * n)
    return counts.reshape(k, n), pos.reshape(k, n)


def _tallies(fam: DistributionFamily, size: int, rng: np.random.Generator, rounds: int = 1):
    """Yield each of `rounds` rounds' (k, n) point and +1 counts, as floats,
    of size i.i.d. draws from every member of fam, using rng as rounds * k
    consecutive SampleOracle.draw(i, size, rng) calls would, through one
    _bucket_table of fam built per call. No array holds more than
    BLOCK_DRAWS draws: blocks are whole rounds if one fits, else whole
    members of a round (a row slice of the bucket table), else a member's
    draws in blocks, its labels read from a copy of rng advanced past its
    size point uniforms, whose state rng then takes. Summed block tallies
    are exact integers."""
    k, n = fam.k, fam.domain_size
    cum, guide = table = _bucket_table(fam.mass_matrix)
    eta = fam.label_prob_matrix
    if k * size <= BLOCK_DRAWS:
        block = BLOCK_DRAWS // (k * size)
        for start in range(0, rounds, block):
            for cells, plus in zip(*_draw(table, eta, size, rng, min(block, rounds - start))):
                yield _tally(cells, plus, k, n)
        return
    group = max(1, BLOCK_DRAWS // size)  # members a block holds
    for _ in range(rounds):
        counts, pos = np.zeros((2, k, n))
        for a in range(0, k, group):
            rows = slice(a, a + group)
            if size <= BLOCK_DRAWS:
                cells, plus = _draw((cum[rows], guide[rows]), eta[rows], size, rng)
                counts[rows], pos[rows] = _tally(cells, plus, len(eta[rows]), n)
                continue
            # one buffer takes the skipped, point and label uniforms in turn
            u = np.empty((1, BLOCK_DRAWS))
            labels = copy.deepcopy(rng)
            for start in range(0, size, BLOCK_DRAWS):
                labels.random(out=u[:, :min(BLOCK_DRAWS, size - start)])
            for start in range(0, size, BLOCK_DRAWS):
                points = rng.random(out=u[:, :min(BLOCK_DRAWS, size - start)])
                x = _lookup((cum[rows], guide[rows]), points)[0]  # one member: cells are points
                counts[a] += np.bincount(x, minlength=n)
                pos[a] += np.bincount(x, labels.random(out=points[0]) < eta[a].take(x), n)
            rng.bit_generator.state = labels.bit_generator.state
        yield counts, pos


@dataclass(frozen=True)
class SampleOracle:
    """hedge_learn's access to a distribution family: with known masses
    ("exact"), or through i.i.d. draws from a stream of its own
    ("sampling"); it is exact iff it has no rng. A sampling oracle must not
    be shared across concurrent callers."""

    family: DistributionFamily
    rng: np.random.Generator | None = None

    @property
    def exact(self) -> bool:
        return self.rng is None

    def draw(self, member_index: int, size: int,
             rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Draw i.i.d. (x, y) pairs from one member. A sampling oracle always
        uses its own stream; an exact oracle synthesizes draws from the known
        masses with the caller's rng: inverse-CDF over the member's one-row
        bucket table, then a conditional label coin per draw."""
        if self.rng is not None:
            rng = self.rng
        elif rng is None:
            raise ValueError("exact-mode draws need the caller's rng")
        fam = self.family
        table = _bucket_table(fam.mass_matrix[member_index][None])
        cells, plus = _draw(table, fam.label_prob_matrix[member_index][None], size, rng)
        return cells[0, 0].astype(np.int64), plus[0, 0].view(np.int8) * np.int8(2) - np.int8(1)


# Most Hedge rounds one run may play, derived or given: HedgeStack.counts and
# sampling Hedge's picks count a run's choices of each hypothesis in intp.
ROUNDS_LIMIT = int(np.iinfo(np.intp).max)

# Most draws of one member that _tallies counts at once (a table's m, a
# sampling round's erm_sample_size): its counts are float64, whose integers
# are exact up to 2^53.
DRAWS_LIMIT = 1 << 53


@dataclass(frozen=True)
class HedgeConfig:
    """Knobs for the Hedge learner. rounds/eta default from (k, eps):
    T = ceil(8 ln(k) / eps^2) (minimum 1), eta = sqrt(8 ln(k) / T). Hedge's
    guarantee depends on k and eps alone, so the learner takes no delta."""

    rounds: int | None = None
    eta: float | None = None
    erm_sample_size: int = 200

    def __post_init__(self):
        # a bool or 10.5 would run as 1 or fail deep in the rounds; their
        # ranges are checked by resolve
        if self.rounds is not None:
            object.__setattr__(self, "rounds", require_integer(self.rounds, "rounds"))
        object.__setattr__(self, "erm_sample_size",
                           require_integer(self.erm_sample_size, "erm_sample_size"))

    def resolve(self, k: int, eps: float) -> tuple[int, float]:
        """(T, eta) for k members at precision eps, which must lie in (0, 1);
        T, derived or given, is at most ROUNDS_LIMIT, and erm_sample_size at
        most DRAWS_LIMIT."""
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.eta is not None and not is_positive_real(self.eta):
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        # errors lie in [0, 1], so a round's weight sum is at most k e^eta
        eta_max = math.log(np.finfo(np.float64).max / k)
        if self.eta is not None and self.eta > eta_max:
            raise ValueError(f"eta must be at most ln(DBL_MAX / k) = {eta_max!r}, got {self.eta!r}")
        if self.erm_sample_size < 1:
            raise ValueError("erm_sample_size must be >= 1")
        if self.erm_sample_size > DRAWS_LIMIT:
            raise ValueError(f"erm_sample_size must be at most DRAWS_LIMIT = 2^53, "
                             f"got {self.erm_sample_size}")
        # k = 1 would give eta = 0; ln 2 keeps eta positive and is otherwise
        # irrelevant (a single weight renormalizes to 1 whatever eta is)
        log_k = math.log(max(k, 2))
        rounds = self.rounds
        if rounds is None:
            # eps**2 is 0.0 below about 1.5e-162
            needed = 8.0 * log_k / eps**2 if eps**2 else math.inf
            if needed > ROUNDS_LIMIT:
                raise ValueError(
                    f"Hedge at eps = {eps!r} needs {needed:.3g} rounds at k = {k}, more than "
                    f"ROUNDS_LIMIT = {ROUNDS_LIMIT}; its eps must be at least about "
                    f"{math.sqrt(8.0 * log_k / ROUNDS_LIMIT):.3g}")
            rounds = max(1, math.ceil(needed))
        elif rounds > ROUNDS_LIMIT:
            raise ValueError(f"rounds must be at most ROUNDS_LIMIT = {ROUNDS_LIMIT}, got {rounds}")
        eta = self.eta if self.eta is not None else math.sqrt(8.0 * log_k / rounds)
        return rounds, eta


def _mixture(mass: np.ndarray, label_one_prob: np.ndarray,
             w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The w-weighted mixture of the members given as (k, n) mass and label
    probability arrays, as its (mass, eta) vectors. Its error against any h
    equals sum_i w_i er_{D_i}(h)."""
    mix = w @ mass
    numer = w @ (mass * label_one_prob)
    eta = np.divide(numer, mix, out=np.full(mass.shape[1], 0.5), where=mix > 0)
    return mix / mix.sum(), eta


def erm(cls: HypothesisClass, dist: tuple[np.ndarray, np.ndarray]) -> int:
    """Exhaustive risk minimizer on the distribution given as its (mass, eta)
    vectors, an empirical measure's included; lowest index on ties. The
    vectors are not checked to be a distribution: this is the array core
    that sampling-mode Hedge calls on its empirical measures."""
    mass, eta = (np.asarray(a, dtype=np.float64) for a in dist)
    if mass.shape != (cls.domain_size,) or eta.shape != mass.shape:
        raise ValueError("domain size mismatch between class and data")
    # err(h) = 0.5 - 0.5 * sum_x mass[x] * h(x) * (2 eta[x] - 1); argmin err = argmax score
    score = cls.float_label_matrix @ (mass * (2.0 * eta - 1.0))
    return int(np.argmax(score))


@dataclass(frozen=True)
class HedgeRound:
    """One row of the optional per-round trace."""

    round: int
    hypothesis_index: int
    error: tuple[float, ...]
    weight: tuple[float, ...]


# Most draws a block of _tallies holds: a _draw call's fixed costs and the
# searches of keys in buckets with several cumulative masses are paid once
# per block, and its arrays (at most about 34 bytes a draw) stay near 1 MB.
# On the cli_wide learn shape (6 rounds a block), 2^14 and 2^16 were no
# faster.
BLOCK_DRAWS = 1 << 15

# Most bytes the runs of one rolling_mixtures batch hold at once (_run_bytes
# each). On a 2-core x86_64 host, a stack round cost about 8.5 us of numpy
# call set-up plus 0.26 us per run at the C06 shape (|H| = 16, k = 6): 0.53 us
# per run-round at 32 runs, 0.39 at 64, 0.33 at 128 and 0.29 at 256, so a
# wider stack is cheaper per run. At |H| = 128, k = 24 the cost per run levels
# off near 0.8-0.95 us from 16 runs, while each run holds a large instance.
# 4 MiB gives 520 runs at C06 and 7 at n = 1000, k = 24, |H| = 128; at 2 MiB
# (3 runs) a 140-trial campaign of that shape took 9% longer than through 32
# runs, at 4 MiB 2%.
STACK_BYTES = 4 << 20

# Most rounds of choices HedgeStack.advance holds before one bincount into counts.
CHOICE_BLOCK = 256


class HedgeStack:
    """Exact-mode Hedge runs in the S slots of one (S, |H|, k) stack of error
    matrices, all with the same eta, advanced together one round at a time.

    load() starts a run in a slot at uniform weights, advance() plays rounds
    on every slot, and counts[s, h] is how often slot s's run has chosen h.
    Each round best-responds with argmin_h (E_s @ w_s)[h] (ties to the lowest
    index, as erm breaks them), multiplies w_s by row h of the precomputed
    exp(eta * E_s) and renormalizes. No array grows with T.

    Every operation acts on each slot's own rows in the order a one-run loop
    uses, so a run's weights and choices depend neither on the other slots
    nor on the round it entered at; tests pin this bit for bit against a
    per-run loop.
    """

    def __init__(self, slots: int, hypotheses: int, k: int, eta: float):
        self.eta = eta
        self.errors = np.zeros((slots, hypotheses, k))
        # row s * |H| + h is np.exp(eta * errors[s, h]) element for element
        self._factors = np.ones((slots * hypotheses, k))
        self.weights = np.full((slots, k), 1.0 / k)
        self.counts = np.zeros((slots, hypotheses), dtype=np.intp)
        self._scores = np.empty((slots, hypotheses, 1))
        self._best = np.empty(slots, dtype=np.intp)
        self._offsets = np.arange(slots) * hypotheses
        self._rows = np.empty((CHOICE_BLOCK, slots), dtype=np.intp)
        self._factor = np.empty((slots, k))
        self._total = np.empty((slots, 1))

    def load(self, slot: int, errors: np.ndarray) -> None:
        """Start a run on the (|H|, k) error matrix in the given slot."""
        H, k = self.errors.shape[1:]
        if errors.shape != (H, k):
            raise ValueError(f"error matrix of shape {errors.shape}, not the stack's {(H, k)}")
        self.errors[slot] = errors
        np.exp(self.eta * errors, out=self._factors[slot * H:(slot + 1) * H])
        self.weights[slot] = 1.0 / k
        self.counts[slot] = 0

    def advance(self, rounds: int, log: list | None = None) -> None:
        """Play rounds on every slot; each round appends its (S,) choices and
        (S, k) starting weights to log, if given."""
        errors, w, scores, factors = self.errors, self.weights, self._scores, self._factors
        w_column, flat_scores = w[:, :, None], scores[:, :, 0]
        best, offsets, factor, total = self._best, self._offsets, self._factor, self._total
        tally = self.counts.reshape(-1)
        while rounds > 0:
            block = self._rows[:rounds]
            # Call set-up, not arithmetic, is the cost on these small arrays,
            # so every call writes into a preallocated buffer.
            for rows in block:
                np.matmul(errors, w_column, scores)
                flat_scores.argmin(1, best)
                np.add(best, offsets, rows)
                factors.take(rows, 0, factor, "clip")
                if log is not None:
                    log.append((best.copy(), w.copy()))
                np.multiply(w, factor, w)
                np.add.reduce(w, 1, None, total, True)
                np.divide(w, total, w)
            tally += np.bincount(block.reshape(-1), minlength=tally.size)
            rounds -= len(block)


def uniform_mixture(cls: HypothesisClass, picks: np.ndarray) -> RandomizedClassifier:
    """The uniform mixture over one run's choices, given as picks[h] = times h was chosen."""
    support = np.flatnonzero(picks)
    return RandomizedClassifier(cls, tuple(support.tolist()), picks[support] / picks.sum())


def _run_bytes(hypotheses: int, k: int, domain_size: int) -> int:
    """The bytes one run of a rolling_mixtures batch holds: its two (|H|, k)
    float64 stack rows (errors and factors), its intp column of the stack's
    CHOICE_BLOCK rounds of choices, its family's (k, n) float64 masses and
    label probabilities, and its class's (|H|, n) int8 labels."""
    return 16 * hypotheses * k + 8 * CHOICE_BLOCK + 16 * k * domain_size + hypotheses * domain_size


def rolling_mixtures(items, rounds: int, eta: float, *, log: list | None = None):
    """The exact-mode Hedge mixture of each (key, family, class) item, learned
    in lockstep batches, with T = rounds and learning rate eta (a RunPlan's).
    Yields (key, family, class, mixture, seconds) in the order the items
    came: seconds is an equal share of its batch's learning time. A run loads
    its class_errors matrix. Items not sharing k and |H| are a ValueError.
    Each batch's advance appends its rounds to log, if given (hedge_learn's
    trace of its one item).

    A batch takes as many items as fit STACK_BYTES at the first item's shape
    (_run_bytes each), and at least one, into a HedgeStack of one slot per
    item, and plays all T rounds in one advance; after it, stack.weights
    holds every run's weights at round T. The stack is dropped before the
    batch's first mixture is yielded, and the batch before the next one is
    taken, so items taken but not yet yielded never outnumber a batch. With
    fewer items than a batch holds, every mixture is learned before the
    first is yielded.
    """
    items = iter(items)
    batch = list(itertools.islice(items, 1))
    if not batch:
        return
    _, fam, cls = batch[0]
    shape = len(cls), fam.k
    runs = max(1, STACK_BYTES // _run_bytes(*shape, fam.domain_size))
    batch += itertools.islice(items, runs - 1)
    while batch:
        t0 = time.perf_counter()
        stack = HedgeStack(len(batch), *shape, eta)
        for slot, (_, fam, cls) in enumerate(batch):
            stack.load(slot, class_errors(cls, fam))
        stack.advance(rounds, log=log)
        mixtures = [uniform_mixture(cls, picks) for (_, _, cls), picks in zip(batch, stack.counts)]
        del stack  # before the caller's work on the mixtures
        share = (time.perf_counter() - t0) / len(batch)
        for (key, fam, cls), mixture in zip(batch, mixtures):
            yield key, fam, cls, mixture, share
        del batch, mixtures  # before the next batch's items are made
        batch = list(itertools.islice(items, runs))


def hedge_learn(oracle: SampleOracle, cls: HypothesisClass, eps: float, *,
                cfg: HedgeConfig | None = None,
                trace: list | None = None) -> RandomizedClassifier:
    """Run Hedge for T rounds and return the uniform mixture over the chosen
    hypotheses (duplicate choices merged by summing weights).

    In exact mode the procedure is deterministic: one run plays the |H| x k
    matrix class_errors(cls, family) as the one item of a rolling_mixtures
    batch, whose stack's log gives the trace. In sampling mode each round
    tallies cfg.erm_sample_size fresh draws per member from the oracle's
    stream (_tallies, one round at a time), and both the ERM and the weight
    update use the resulting empirical measures.
    """
    cfg = cfg or HedgeConfig()
    fam = oracle.family
    k, n = fam.k, fam.domain_size
    rounds, eta = cfg.resolve(k, eps)
    if oracle.exact:
        log = None if trace is None else []
        ((*_, mixture, _),) = rolling_mixtures([(None, fam, cls)], rounds, eta, log=log)
        if log is not None:
            errors = class_errors(cls, fam)
            trace.extend(HedgeRound(t, int(h), tuple(errors[h].tolist()), tuple(w[0].tolist()))
                         for t, ((h,), w) in enumerate(log))
        return mixture

    plus = plus_rows(cls.label_matrix)
    m = cfg.erm_sample_size
    w = np.full(k, 1.0 / k)
    picks = np.zeros(len(cls), dtype=np.intp)
    emp_mass, emp_eta = np.empty((2, k, n))
    for t, (counts, pos) in enumerate(_tallies(fam, m, oracle.rng, rounds)):
        np.divide(counts, m, out=emp_mass)
        # a point without draws has emp_mass +0.0, which zeroes every term its
        # eta enters, so 0 / 1 there gives the bits a masked 0.5 would
        np.maximum(counts, 1.0, out=counts)
        np.divide(pos, counts, out=emp_eta)
        h_idx = erm(cls, _mixture(emp_mass, emp_eta, w))
        errs = _errors(plus[h_idx], emp_mass, emp_eta)
        picks[h_idx] += 1
        if trace is not None:
            trace.append(HedgeRound(t, h_idx, tuple(errs.tolist()), tuple(w.tolist())))
        np.multiply(w, np.exp(eta * errs), out=w)
        np.divide(w, np.add.reduce(w), out=w)
    return uniform_mixture(cls, picks)
