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

import copy
import math
import time
from collections import deque
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


def _family_table(fam: DistributionFamily) -> tuple[np.ndarray, np.ndarray]:
    """fam's _bucket_table, read-only: built on first use and kept on the
    family, as class_errors keeps the class matrix, so that the draws of
    sampling-mode Hedge and of a bias table on one family share one build."""
    table = vars(fam).get("_bucket_table")
    if table is None:
        table = _bucket_table(fam.mass_matrix)
        for array in table:
            array.flags.writeable = False
        vars(fam)["_bucket_table"] = table
    return table


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
    consecutive SampleOracle.draw(i, size, rng) calls would, through the
    bucket table fam keeps (_family_table). No array holds more than
    BLOCK_DRAWS draws: blocks are whole rounds if one fits, else whole
    members of a round (a row slice of the bucket table), else a member's
    draws in blocks, its labels read from a copy of rng advanced past its
    size point uniforms, whose state rng then takes. Summed block tallies
    are exact integers."""
    k, n = fam.k, fam.domain_size
    cum, guide = table = _family_table(fam)
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
        masses with the caller's rng: inverse-CDF over the member's masses,
        then a conditional label coin per draw."""
        if self.rng is not None:
            rng = self.rng
        elif rng is None:
            raise ValueError("exact-mode draws need the caller's rng")
        fam = self.family
        cells, plus = _draw(_bucket_table(fam.mass_matrix[member_index][None]),
                            fam.label_prob_matrix[member_index][None], size, rng)
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

# Most runs one rolling_mixtures stack holds at once. Past a few dozen runs a
# round costs little less per run, and the stack's ramp-up (the rounds before
# the first run leaves) grows with it.
STACK_RUNS = 32

# Most rounds of choices HedgeStack.advance holds before one bincount into counts.
CHOICE_BLOCK = 256


class HedgeStack:
    """Exact-mode Hedge runs in the S slots of one (S, |H|, k) stack of error
    matrices, all with the same eta, advanced together one round at a time.

    load() starts a run in a slot at uniform weights, advance() plays rounds
    on the first `active` slots, gather() moves runs to the first slots, and
    counts[s, h] is how often slot s's run has chosen h. Each round
    best-responds with argmin_h (E_s @ w_s)[h] (ties to the lowest index, as
    erm breaks them), multiplies w_s by row h of the precomputed
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

    def gather(self, slots) -> None:
        """Move the runs in the given slots, in that order, to the first len(slots) slots."""
        H = self.errors.shape[1]
        factors = self._factors.reshape(len(self.errors), H, -1)
        for array in (self.errors, factors, self.weights, self.counts):
            array[:len(slots)] = array[slots]

    def advance(self, rounds: int, active: int | None = None, log: list | None = None) -> None:
        """Play rounds on the first `active` slots (all by default); each round
        appends its (active,) choices and (active, k) starting weights to log, if given."""
        n = len(self.weights) if active is None else active
        errors, w, scores = self.errors[:n], self.weights[:n], self._scores[:n]
        w_column, flat_scores, factors = w[:, :, None], scores[:, :, 0], self._factors
        best, offsets = self._best[:n], self._offsets[:n]
        factor, total = self._factor[:n], self._total[:n]
        tally = self.counts[:n].reshape(-1)
        while rounds > 0:
            block = self._rows[:rounds, :n]
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


def rolling_mixtures(items, eps: float, cfg: HedgeConfig | None = None,
                     runs: int | None = None, trace: list | None = None):
    """The exact-mode Hedge mixture of each (key, family, class) item, learned
    in one HedgeStack that runs enter and leave at staggered rounds, with T
    and eta resolved from (k, eps). Yields (key, family, class, mixture,
    seconds) as runs finish, in the order the items came: seconds is the
    learning time since the previous yield. A run loads its class_errors
    matrix. Items not sharing k and |H| are a ValueError.

    The stack holds at most `runs` runs (STACK_RUNS by default). Each step
    takes the next item into the stack and plays ceil(T / slots) rounds, so
    that a run has had its T rounds in `slots` steps; its last step is split
    at its T-th round, where its mixture is read. Once the stack is full, one
    mixture comes out for each item taken in, and learning costs the same at
    every step. When the items run out, the runs left move to the first
    slots, youngest first, so that each step plays only the runs still in
    the stack. Only the items in the stack are held in memory. With trace
    given, each of the first run's rounds appends its HedgeRound.
    """
    cfg = cfg or HedgeConfig()
    items = iter(items)
    item = next(items, None)
    if item is None:
        return
    t0 = time.perf_counter()
    rounds, eta = cfg.resolve(item[1].k, eps)
    step = -(-rounds // (runs or STACK_RUNS))
    slots = -(-rounds // step)
    # run j enters slot j % slots at step j and leaves `last` rounds into step j + slots - 1
    last = rounds - (slots - 1) * step
    stack = HedgeStack(slots, len(item[2]), item[1].k, eta)
    # the first run's (choice, weights) of each round, while it is in the stack
    log = None if trace is None else []
    # the (slot, item) of each run in the stack, oldest first
    queue, loads, steps, spent = deque(), 0, 0, 0.0
    while item is not None or queue:
        if item is not None:
            stack.load(loads % slots, class_errors(item[2], item[1]))
            queue.append((loads % slots, item))
            loads += 1
        # the runs in the stack hold the first len(queue) slots: in load order
        # while items come (every slot once the stack is full), youngest first after
        active = len(queue)
        finished = steps >= slots - 1
        played = None if log is None else []
        stack.advance(last if finished else step, active, played)
        if log is not None:
            first = queue[0][0]
            log += [(h[first], w[first]) for h, w in played]
        if finished:
            slot, (key, fam, cls) = queue.popleft()
            if log is not None:
                errors = stack.errors[slot]
                trace.extend(HedgeRound(t, int(h), tuple(errors[h].tolist()), tuple(w.tolist()))
                             for t, (h, w) in enumerate(log))
                log = None
            mixture = uniform_mixture(cls, stack.counts[slot])
            # a run that leaves while items remain gives its slot to the next
            # item; after, the runs left are the first len(queue) slots
            stack.advance(step - last, active if item is not None else len(queue))
        spent += time.perf_counter() - t0
        if finished:
            yield key, fam, cls, mixture, spent
            spent = 0.0
        if item is not None:
            item = next(items, None)
            if item is None:  # youngest first, so that the leaving run is the last
                stack.gather([s for s, _ in reversed(queue)])
                queue = deque((len(queue) - 1 - p, it) for p, (_, it) in enumerate(queue))
        steps += 1
        t0 = time.perf_counter()


def hedge_learn(oracle: SampleOracle, cls: HypothesisClass, eps: float, *,
                cfg: HedgeConfig | None = None,
                trace: list | None = None) -> RandomizedClassifier:
    """Run Hedge for T rounds and return the uniform mixture over the chosen
    hypotheses (duplicate choices merged by summing weights).

    In exact mode the procedure is deterministic: rolling_mixtures runs the
    |H| x k matrix class_errors(cls, family) in a stack of one. In sampling
    mode each round tallies cfg.erm_sample_size fresh draws per member from
    the oracle's stream (_tallies, one round at a time), and both the ERM
    and the weight update use the resulting empirical measures.
    """
    cfg = cfg or HedgeConfig()
    fam = oracle.family
    if oracle.exact:
        return next(rolling_mixtures([(None, fam, cls)], eps, cfg, 1, trace))[3]

    k, n = fam.k, fam.domain_size
    rounds, eta = cfg.resolve(k, eps)
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
