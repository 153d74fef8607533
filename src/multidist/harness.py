"""Trial and campaign drivers: run the learn-then-derandomize pipeline many
times with derived rng streams and aggregate pass rates with confidence
intervals.

All randomness flows from the master seed; per-trial streams are derived from
(master seed, trial index), so campaign output is independent of worker
scheduling and can be reproduced exactly.

A campaign's workers take trial indices one at a time from a shared counter.
Each worker feeds its instances, as it generates them, through one rolling
exact-Hedge stack (learner.rolling_mixtures) and finishes each trial with
run_trial as its mixture comes out, so every trial costs about the same. Each
run of the stack is bit for bit the run hedge_learn makes alone, so which
worker or stack a trial lands in changes no output.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import DistributionFamily, HypothesisClass, RandomizedClassifier, plus_rows
from .metrics import (
    bayes_labels,
    error_matrix,
    heavy_mask,
    label_vector_of,
    opt_bruteforce,
    randomized_worst_case_error,
    worst_case_error,
)
from .learner import HedgeConfig, rolling_mixtures
from .derand import BiasTable, DerandConfig, DerandResult, derandomize
from .hashing import choose_hash_params
from .instances import GenSpec, generate
from .serialize import _json_text

PREDICATE_OPT = "er_le_opt_plus_eps"
PREDICATE_CONDITIONAL = "er_le_randomized_plus_half_eps"


@dataclass(frozen=True)
class TrialReport:
    """Per-trial record of everything the derandomization theory talks about."""

    trial_id: int
    seed: int
    opt: float
    randomized_error: float
    deterministic_error: float
    table_size: int
    heavy_covered: bool
    rounding_deviation: float
    wall_time: float

    def __post_init__(self):
        for name in ("opt", "randomized_error", "deterministic_error"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")


# the trials.csv header, also written for a campaign with no reports
TrialReport.CSV_FIELDS = tuple(f.name for f in dataclasses.fields(TrialReport))


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer, np.bool_)):  # a bool is 0 or 1
        return str(int(value))
    raise TypeError(f"no CSV cell for a {type(value).__name__}")


def record_columns(record) -> tuple[list[str], list[str]]:
    """The CSV header and cells of a frozen record: a column per dataclass field
    in order, a tuple field x as x_0, x_1, ...; a bool is 0 or 1, an integer
    decimal, a float (numpy scalars too) the repr of the Python float."""
    header, cells = [], []
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        many = isinstance(value, tuple)
        header += [f"{f.name}_{i}" for i in range(len(value))] if many else [f.name]
        cells += map(_cell, value if many else (value,))
    return header, cells


def rounding_deviation(f_hat, f_rand, fam: DistributionFamily, table: BiasTable) -> float:
    """max over members of |outside-T error of the rounded classifier minus
    the mixture's expected outside-T error|."""
    outside = np.ones(fam.domain_size, dtype=bool)
    outside[table.points] = False
    rows = np.stack([plus_rows(label_vector_of(f_hat)), f_rand.marginals])
    got, want = error_matrix(rows, fam, outside)
    return float(np.abs(got - want).max())


def heavy_coverage(table: BiasTable, fam: DistributionFamily, eps: float, delta: float,
                   variant: str, c_prime: float) -> bool:
    """True iff every heavily biased point is in the table with the sign of
    its bias (sign of zero taken as +1)."""
    mask = heavy_mask(fam, eps, delta, variant, c_prime)
    pinned = np.zeros(fam.domain_size, dtype=np.int8)  # 0 off the table
    pinned[table.points] = table.labels
    return bool(np.all(pinned[mask] == bayes_labels(fam)[mask]))


def run_trial(fam: DistributionFamily, cls: HypothesisClass, f_rand: RandomizedClassifier,
              derand_cfg: DerandConfig, seed: int, trial_id: int = 0,
              measure_time: bool = True) -> tuple[TrialReport, DerandResult]:
    """One derandomization of the mixture f_rand, learned on fam by the
    caller, deterministic given the seed; returns the report together with
    the derandomization result.

    The bias table and rounding consume streams derived from the trial
    seed. OPT and the mixture's errors are read from class_errors(cls, fam),
    which the exact-mode learner has loaded.
    """
    t0 = time.perf_counter() if measure_time else 0.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    result = derandomize(fam, f_rand, derand_cfg, rng)
    f_hat, table = result.classifier, result.table

    opt, _ = opt_bruteforce(cls, fam)
    rand_err = randomized_worst_case_error(f_rand, fam)
    det_err = worst_case_error(f_hat, fam).worst_case
    covered = heavy_coverage(table, fam, derand_cfg.eps, derand_cfg.delta,
                             derand_cfg.rounding, derand_cfg.c_prime)
    deviation = rounding_deviation(f_hat, f_rand, fam, table)
    wall = (time.perf_counter() - t0) if measure_time else 0.0
    report = TrialReport(trial_id, seed, opt, rand_err, det_err, len(table),
                         covered, deviation, wall)
    return report, result


@dataclass(frozen=True)
class CampaignConfig:
    """A campaign: fresh instances from gen_spec (seeded per trial), one
    pipeline run each, and the two acceptance predicates evaluated per trial.

    required_fractions maps predicate name (PREDICATE_OPT or
    PREDICATE_CONDITIONAL) -> minimum success fraction in [0, 1]; unmet
    requirements flip the campaign's passed flag (and the CLI's exit code).
    """

    gen_spec: GenSpec
    hedge: HedgeConfig = HedgeConfig()
    derand: DerandConfig = DerandConfig(eps=0.15, delta=0.15, mode="calibrated",
                                        m_override=5000)
    master_seed: int = 0
    required_fractions: dict = field(default_factory=dict)

    def __post_init__(self):
        # checked before any trial: an unknown name would be ignored, and a
        # fraction above 1 or NaN would fail the campaign only after every trial
        for name, frac in self.required_fractions.items():
            if name not in (PREDICATE_OPT, PREDICATE_CONDITIONAL):
                raise ValueError(f"unknown predicate {name!r} in required_fractions")
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"required fraction for {name} must lie in [0, 1], got {frac!r}")
        # hash parameters no trial could round with, which it found only after
        # learning; then Hedge settings no trial could learn with, such as
        # rounds 0, and table sizes past DRAWS_LIMIT
        spec, derand = self.gen_spec, self.derand
        if derand.rounding == "hash":
            n = spec.k if spec.kind == "gap_example" else spec.domain_size
            choose_hash_params(spec.k, derand.eps, derand.delta, n, derand.c_prime)
        self.hedge.resolve(spec.k, derand.learner_eps())
        derand.sample_size(spec.k)


@dataclass(frozen=True)
class PredicateSummary:
    name: str
    successes: int
    trials: int
    fraction: float
    ci_low: float
    ci_high: float
    required: float | None
    met: bool | None


@dataclass(frozen=True)
class CampaignSummary:
    """A campaign's outcome; its fields, in order, are summary.json's keys."""

    trials: int
    errors: int
    partial: bool
    passed: bool
    predicates: tuple[PredicateSummary, ...]
    config: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; always contains the point estimate."""
    if n == 0:
        return 0.0, 1.0
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # clamp against float rounding so the interval always contains phat
    return min(phat, max(0.0, center - half)), max(phat, min(1.0, center + half))


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Stable per-trial seed derived from (master seed, trial index)."""
    ss = np.random.SeedSequence([master_seed, trial_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


# In a campaign's worker process: the counter, shared by all of the
# campaign's workers, that holds the index of the next trial to run. The
# pool's initializer sets it.
_next_trial = None


def _share_next_trial(counter) -> None:
    global _next_trial
    _next_trial = counter


def _trial_pool(workers: int):
    """A process pool of `workers` campaign workers that share one next-trial
    counter. The pool's modules are imported here, by the first parallel
    campaign of a process, so that a serial campaign and every other verb
    start without them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, initializer=_share_next_trial,
                               initargs=(multiprocessing.Value("q", 0),))


def _pulled_trials(trials: int):
    """Trial indices below trials, each taken once from the shared counter,
    so that a worker on a faster CPU takes more of them."""
    while True:
        with _next_trial.get_lock():
            i = _next_trial.value
            _next_trial.value = i + 1
        if i >= trials:
            return
        yield i


def _failed(trial_index: int, exc: Exception) -> tuple[int, None, str]:
    return trial_index, None, f"{type(exc).__name__}: {exc}"


def _campaign_worker(args) -> list[tuple[int, TrialReport | None, str | None]]:
    """Run trials until none is left: every trial of a one-process campaign,
    or those this worker takes from the shared counter. Their mixtures are
    learned by rolling_mixtures as their instances are generated. Under
    measure_time a trial's wall_time is its own run_trial time plus an equal
    share of this worker's learning time. Errors are recorded per trial, and
    the worker continues past them; a learning error is the error of every
    trial not yet finished."""
    cfg, trials, measure_time = args
    indices = iter(range(trials)) if _next_trial is None else _pulled_trials(trials)
    results, taken = [], []

    def instances():
        for i in indices:
            taken.append(i)
            try:
                seed = trial_seed(cfg.master_seed, i)
                fam, cls, _ = generate(dataclasses.replace(cfg.gen_spec, seed=seed ^ 0x5EED))
            except Exception as exc:  # recorded, campaign continues
                results.append(_failed(i, exc))
                continue
            yield (i, seed), fam, cls

    learning = 0.0
    try:
        # a spec gives every instance the same k and |H|, so they share a stack
        for (i, seed), fam, cls, f_rand, spent in rolling_mixtures(
                instances(), cfg.derand.learner_eps(), cfg.hedge):
            learning += spent
            try:
                # through the module attribute, which a caller may wrap
                report, _ = run_trial(fam, cls, f_rand, cfg.derand, seed, trial_id=i,
                                      measure_time=measure_time)
                results.append((i, report, None))
            except Exception as exc:  # recorded, campaign continues
                results.append(_failed(i, exc))
    except Exception as exc:  # a learning error, see above
        done = {r[0] for r in results}
        results += [_failed(i, exc) for i in [*taken, *indices] if i not in done]
    if measure_time:
        reports = [r for _, r, _ in results if r is not None]
        share = learning / len(reports) if reports else 0.0
        results = [(i, r if r is None else dataclasses.replace(r, wall_time=r.wall_time + share),
                     err) for i, r, err in results]
    return results


def run_campaign(cfg: CampaignConfig, trials: int, parallelism: int = 1,
                 out_dir=None, measure_time: bool = True
                 ) -> tuple[CampaignSummary, list[TrialReport]]:
    """Run trials (optionally in a process pool whose workers take them one at
    a time), write one CSV row per trial plus a JSON summary stanza, and
    aggregate predicate pass rates.

    Trial errors are recorded and skipped; the summary is then flagged
    partial. Output is sorted by trial id, so content is identical for any
    parallelism.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    job = (cfg, trials, measure_time)
    # under fork the pool starts every worker at once, wanted or not
    workers = min(parallelism, trials)
    if workers == 1:
        shares = [_campaign_worker(job)]
    else:
        with _trial_pool(workers) as pool:
            shares = list(pool.map(_campaign_worker, [job] * workers))
    results = sorted((r for share in shares for r in share), key=lambda r: r[0])

    reports = [r for _, r, err in results if r is not None]
    errors = [(idx, err) for idx, r, err in results if err is not None]

    eps = cfg.derand.eps
    preds = {
        PREDICATE_OPT: lambda r: r.deterministic_error <= r.opt + eps,
        PREDICATE_CONDITIONAL: lambda r: r.deterministic_error <= r.randomized_error + eps / 2.0,
    }
    summaries = []
    for name, fn in preds.items():
        succ = sum(1 for r in reports if fn(r))
        frac = succ / len(reports) if reports else 0.0
        lo, hi = wilson_interval(succ, len(reports))
        required = cfg.required_fractions.get(name)
        met = None if required is None else frac >= required
        summaries.append(PredicateSummary(name, succ, len(reports), frac, lo, hi, required, met))

    summary = CampaignSummary(
        trials=trials,
        errors=len(errors),
        partial=bool(errors),
        passed=not errors and all(p.met is not False for p in summaries),
        predicates=tuple(summaries),
        config={
            "gen_spec": dataclasses.asdict(cfg.gen_spec),
            "hedge": dataclasses.asdict(cfg.hedge),
            "derand": dataclasses.asdict(cfg.derand),
            "master_seed": cfg.master_seed,
            "trials": trials,
            "parallelism": parallelism,
            "measure_time": measure_time,
        },
    )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trials_csv(out_dir / "trials.csv", reports)
        stanza = summary.to_dict()
        if errors:
            stanza["trial_errors"] = [{"trial_id": i, "error": e} for i, e in errors]
        (out_dir / "summary.json").write_text(_json_text(stanza))
    return summary, reports


def write_records_csv(path, records, header=()) -> None:
    """One row per record, under the first one's header (header if there are none)."""
    rows = [record_columns(r) for r in records]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0][0] if rows else header, *(cells for _, cells in rows)])


def write_trials_csv(path, reports) -> None:
    write_records_csv(path, reports, TrialReport.CSV_FIELDS)
