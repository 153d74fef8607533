"""Trial and campaign drivers: run the learn-then-derandomize pipeline many
times with derived rng streams and aggregate pass rates with confidence
intervals.

All randomness flows from the master seed; per-trial streams are derived from
(master seed, trial index), so campaign output is independent of worker
scheduling and can be reproduced exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import DistributionFamily, HypothesisClass
from .metrics import (
    error_matrix,
    heavy_mask,
    label_vector_of,
    opt_bruteforce,
    plus_rows,
    randomized_per_distribution,
    worst_case_error,
)
from .learner import HedgeConfig, SampleOracle, make_hedge_learner
from .derand import BiasTable, DerandConfig, derandomize_with_details
from .instances import GenSpec, generate

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

    CSV_FIELDS = (
        "trial_id", "seed", "opt", "randomized_error", "deterministic_error",
        "table_size", "heavy_covered", "rounding_deviation", "wall_time",
    )

    def csv_row(self) -> list[str]:
        return [
            str(self.trial_id), str(self.seed), repr(self.opt),
            repr(self.randomized_error), repr(self.deterministic_error),
            str(self.table_size), str(int(self.heavy_covered)),
            repr(self.rounding_deviation), repr(self.wall_time),
        ]


def rounding_deviation(f_hat, f_rand, fam: DistributionFamily, table: BiasTable) -> float:
    """max over members of |outside-T error of the rounded classifier minus
    the mixture's expected outside-T error|."""
    outside = np.ones(fam.domain.size, dtype=bool)
    outside[table.points()] = False
    rows = np.stack([plus_rows(label_vector_of(f_hat)), f_rand.marginals])
    got, want = error_matrix(rows, fam, outside)
    return float(np.abs(got - want).max())


def heavy_coverage(table: BiasTable, fam: DistributionFamily, eps: float, delta: float,
                   variant: str, c_prime: float) -> bool:
    """True iff every heavily biased point is in the table with the sign of
    its bias (sign of zero taken as +1)."""
    mask = heavy_mask(fam, eps, delta, variant, c_prime)
    beta = fam.shared_label_one_prob - 0.5
    for x in np.nonzero(mask)[0]:
        x = int(x)
        if x not in table:
            return False
        want = 1 if beta[x] >= 0 else -1
        if table.label_of(x) != want:
            return False
    return True


def run_trial_detailed(fam: DistributionFamily, cls: HypothesisClass, hedge_cfg: HedgeConfig,
                       derand_cfg: DerandConfig, seed: int, trial_id: int = 0,
                       measure_time: bool = True):
    """One full pipeline run, deterministic given the seed; returns the report
    together with the derandomization result.

    The mixture is learned first (exact-mode oracle), then the bias table and
    rounding consume streams derived from the trial seed.
    """
    t0 = time.perf_counter() if measure_time else 0.0
    oracle = SampleOracle.exact_mode(fam)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    result = derandomize_with_details(oracle, cls, make_hedge_learner(hedge_cfg),
                                      derand_cfg, rng=rng)
    f_hat, f_rand, table = result.classifier, result.f_rand, result.table

    opt, _ = opt_bruteforce(cls, fam)
    rand_err = float(randomized_per_distribution(f_rand, fam).max())
    det_err = worst_case_error(f_hat, fam).worst_case
    covered = heavy_coverage(table, fam, derand_cfg.eps, derand_cfg.delta,
                             derand_cfg.rounding, derand_cfg.c_prime)
    deviation = rounding_deviation(f_hat, f_rand, fam, table)
    wall = (time.perf_counter() - t0) if measure_time else 0.0
    report = TrialReport(trial_id, seed, opt, rand_err, det_err, len(table),
                         covered, deviation, wall)
    return report, result


def run_trial(fam: DistributionFamily, cls: HypothesisClass, hedge_cfg: HedgeConfig,
              derand_cfg: DerandConfig, seed: int, trial_id: int = 0,
              measure_time: bool = True) -> TrialReport:
    report, _ = run_trial_detailed(fam, cls, hedge_cfg, derand_cfg, seed, trial_id,
                                   measure_time)
    return report


@dataclass(frozen=True)
class CampaignConfig:
    """A campaign: fresh instances from gen_spec (seeded per trial), one
    pipeline run each, and the two acceptance predicates evaluated per trial.

    required_fractions maps predicate name -> minimum success fraction; unmet
    requirements flip the campaign's passed flag (and the CLI's exit code).
    """

    gen_spec: GenSpec
    hedge: HedgeConfig = HedgeConfig()
    derand: DerandConfig = DerandConfig(eps=0.15, delta=0.15, mode="calibrated",
                                        m_override=5000)
    master_seed: int = 0
    required_fractions: dict = field(default_factory=dict)


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
    trials: int
    errors: int
    partial: bool
    predicates: tuple[PredicateSummary, ...]
    config_echo: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "errors": self.errors,
            "partial": self.partial,
            "passed": self.passed,
            "predicates": [dataclasses.asdict(p) for p in self.predicates],
            "config": self.config_echo,
        }


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval; always contains the point estimate."""
    if n == 0:
        return 0.0, 1.0
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


def _campaign_worker(args) -> tuple[int, TrialReport | None, str | None]:
    cfg, trial_index, measure_time = args
    try:
        seed = trial_seed(cfg.master_seed, trial_index)
        fam, cls, _ = generate(dataclasses.replace(cfg.gen_spec, seed=seed ^ 0x5EED))
        report = run_trial(fam, cls, cfg.hedge, cfg.derand, seed,
                           trial_id=trial_index, measure_time=measure_time)
        return trial_index, report, None
    except Exception as exc:  # recorded, campaign continues
        return trial_index, None, f"{type(exc).__name__}: {exc}"


def run_campaign(cfg: CampaignConfig, trials: int, parallelism: int = 1,
                 out_dir=None, measure_time: bool = True
                 ) -> tuple[CampaignSummary, list[TrialReport]]:
    """Run trials (optionally in a process pool), write one CSV row per trial
    plus a JSON summary stanza, and aggregate predicate pass rates.

    Trial errors are recorded and skipped; the summary is then flagged
    partial. Output is sorted by trial id, so content is identical for any
    parallelism.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    jobs = [(cfg, t, measure_time) for t in range(trials)]
    results: list[tuple[int, TrialReport | None, str | None]] = []
    if parallelism == 1:
        results = [_campaign_worker(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_campaign_worker, jobs))
    results.sort(key=lambda r: r[0])

    reports = [r for _, r, err in results if r is not None]
    errors = [(idx, err) for idx, r, err in results if err is not None]

    eps = cfg.derand.eps
    preds = {
        PREDICATE_OPT: lambda r: r.deterministic_error <= r.opt + eps,
        PREDICATE_CONDITIONAL: lambda r: r.deterministic_error <= r.randomized_error + eps / 2.0,
    }
    summaries = []
    all_met = True
    for name, fn in preds.items():
        succ = sum(1 for r in reports if fn(r))
        frac = succ / len(reports) if reports else 0.0
        lo, hi = wilson_interval(succ, len(reports))
        required = cfg.required_fractions.get(name)
        met = None if required is None else frac >= required
        if met is False:
            all_met = False
        summaries.append(PredicateSummary(name, succ, len(reports), frac, lo, hi, required, met))

    summary = CampaignSummary(
        trials=trials,
        errors=len(errors),
        partial=bool(errors),
        predicates=tuple(summaries),
        config_echo={
            "gen_spec": dataclasses.asdict(cfg.gen_spec),
            "hedge": dataclasses.asdict(cfg.hedge),
            "derand": dataclasses.asdict(cfg.derand),
            "master_seed": cfg.master_seed,
            "trials": trials,
            "parallelism": parallelism,
            "measure_time": measure_time,
        },
        passed=not errors and all_met,
    )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trials_csv(out_dir / "trials.csv", reports)
        stanza = summary.to_dict()
        if errors:
            stanza["trial_errors"] = [{"trial_id": i, "error": e} for i, e in errors]
        (out_dir / "summary.json").write_text(json.dumps(stanza, indent=1))
    return summary, reports


def write_trials_csv(path, reports) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TrialReport.CSV_FIELDS)
        for r in reports:
            writer.writerow(r.csv_row())
