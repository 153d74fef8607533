import csv
import dataclasses
import json

import numpy as np
import pytest

import multidist as md
from multidist import harness, learner
from multidist.harness import (
    PREDICATE_CONDITIONAL,
    PREDICATE_OPT,
    heavy_coverage,
    record_columns,
    rounding_deviation,
    trial_seed,
    wilson_interval,
    write_records_csv,
    write_trials_csv,
)
from multidist.instances import gen_random_label_consistent
from multidist.metrics import plus_rows, randomized_per_distribution

from helpers import heavy_mask, learned, plan_of


def small_campaign(seed=0, **derand_kwargs):
    derand = dict(eps=0.2, delta=0.2, mode="calibrated", m_override=1200)
    derand.update(derand_kwargs)
    return md.CampaignConfig(
        gen_spec=md.GenSpec(domain_size=20, k=3, hypothesis_count=8, seed=seed),
        hedge=md.HedgeConfig(),
        derand=md.DerandConfig(**derand),
        master_seed=seed,
    )


def test_masked_terms_partition_total_error():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=10, k=3, seed=1))
    h = cls.label_matrix[0]
    mask = np.zeros(10, dtype=bool)
    mask[[1, 4, 7]] = True
    inside = md.error_matrix(plus_rows(h), fam, mask)
    outside = md.error_matrix(plus_rows(h), fam, ~mask)
    total = md.worst_case_error(h, fam).error
    assert (inside + outside).tolist() == pytest.approx(total, abs=1e-14)


def test_randomized_masked_terms_match_weighted_average():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=8, k=2,
                                                      hypothesis_count=4, seed=2))
    w = np.array([0.4, 0.6])
    F = md.RandomizedClassifier(cls, (0, 1), w)
    mask = np.array([True] * 4 + [False] * 4)
    got = md.error_matrix(F.marginals, fam, mask)
    terms = md.error_matrix(plus_rows(cls.label_matrix[:2]), fam, mask)
    want = w[0] * terms[0] + w[1] * terms[1]
    assert got == pytest.approx(want.tolist(), abs=1e-14)


def test_rounding_deviation_zero_for_exact_marginal_copy():
    # singleton mixture: rounding copies the hypothesis, deviation is exactly 0
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=8, k=2,
                                                      hypothesis_count=3, seed=3))
    F = md.RandomizedClassifier(cls, (1,), np.array([1.0]))
    f_hat = md.ExplicitClassifier(cls.label_matrix[1])
    assert rounding_deviation(f_hat, F, fam, md.BiasTable()) == 0.0


def test_heavy_coverage_flag():
    fam = md.DistributionFamily([[0.9, 0.1]], [[0.9, 0.5]])
    assert heavy_mask(fam, 0.1, 0.1).tolist() == [True, False]
    good = md.BiasTable([0], [1], [0], [0.8], [50])
    bad_sign = md.BiasTable([0], [-1], [0], [-0.8], [50])
    empty = md.BiasTable()
    threshold = plan_of(fam, md.DerandConfig(eps=0.1, delta=0.1)).heavy_threshold
    assert heavy_coverage(good, fam, threshold)
    assert not heavy_coverage(bad_sign, fam, threshold)
    assert not heavy_coverage(empty, fam, threshold)


def test_trial_report_validation_and_row():
    rep = md.TrialReport(3, 7, 0.5, 0.4, 0.45, 10, True, 0.02, 0.0)
    header, row = record_columns(rep)
    assert header == list(md.TrialReport.CSV_FIELDS)
    assert row[0] == "3" and row[6] == "1"
    with pytest.raises(ValueError):
        md.TrialReport(0, 0, 1.5, 0.4, 0.4, 0, True, 0.0, 0.0)


def test_run_trial_deterministic():
    fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=20, k=3,
                                                      hypothesis_count=8, seed=5))
    cfg = md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=1000)
    f_rand, plan = learned(fam, cls, cfg), plan_of(fam, cfg)
    a, _ = md.run_trial(fam, cls, f_rand, plan, seed=42, measure_time=False)
    b, _ = md.run_trial(fam, cls, f_rand, plan, seed=42, measure_time=False)
    assert a == b
    c, _ = md.run_trial(fam, cls, f_rand, plan, seed=43, measure_time=False)
    assert c.seed != a.seed


def test_run_trial_reports_the_classifier_and_table_it_returns():
    cfg = md.DerandConfig(eps=0.15, delta=0.15, mode="calibrated", m_override=5000)
    for seed in range(6):
        fam, cls = gen_random_label_consistent(md.GenSpec(domain_size=40, k=6,
                                                          hypothesis_count=16, seed=seed))
        f_rand = learned(fam, cls, cfg)
        report, result = md.run_trial(fam, cls, f_rand, plan_of(fam, cfg), seed=seed,
                                      measure_time=False)
        assert md.worst_case_error(result.classifier, fam).worst_case == \
            report.deterministic_error
        assert len(result.table) == report.table_size


def test_campaign_trials_match_opt_and_mixture_errors_computed_afresh(tmp_path):
    # a campaign trial reads OPT and its mixture's errors from the matrix
    # its learner loaded; recomputing them gives the same floats
    cfg = md.CampaignConfig(
        gen_spec=md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=0),
        derand=md.DerandConfig(eps=0.15, delta=0.15, mode="calibrated", m_override=500),
        master_seed=606)
    _, reports = md.run_campaign(cfg, trials=8, out_dir=tmp_path, measure_time=False)
    rows = []
    for r in reports:
        fam, cls, _ = md.generate(dataclasses.replace(cfg.gen_spec, seed=r.seed ^ 0x5EED))
        F = learned(fam, cls, cfg.derand, cfg.hedge)
        assert r.opt == md.opt_bruteforce(cls, fam)[0]
        assert r.randomized_error == float(randomized_per_distribution(F, fam).max())
        rows.append(md.run_trial(fam, cls, F, cfg.plan, r.seed, trial_id=r.trial_id,
                                 measure_time=False)[0])
    write_trials_csv(tmp_path / "afresh.csv", rows)
    assert (tmp_path / "afresh.csv").read_bytes() == (tmp_path / "trials.csv").read_bytes()


def test_wilson_interval_contains_point_estimate():
    for succ, n in [(0, 10), (5, 10), (10, 10), (199, 200)]:
        lo, hi = wilson_interval(succ, n)
        assert lo <= succ / n <= hi
        assert 0.0 <= lo <= hi <= 1.0


def test_trial_seed_stable():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    assert trial_seed(0, 1) != trial_seed(0, 2)


def test_campaign_serial_runs_and_passes(tmp_path):
    cfg = dataclasses.replace(small_campaign(seed=2),
                              required_fractions={PREDICATE_OPT: 0.5})
    summary, reports = md.run_campaign(cfg, trials=6, parallelism=1, out_dir=tmp_path,
                                       measure_time=False)
    assert summary.trials == 6 and summary.errors == 0 and not summary.partial
    assert len(reports) == 6
    assert summary.passed
    names = {p.name for p in summary.predicates}
    assert names == {PREDICATE_OPT, PREDICATE_CONDITIONAL}
    for p in summary.predicates:
        assert p.ci_low <= p.fraction <= p.ci_high

    rows = list(csv.reader((tmp_path / "trials.csv").open()))
    assert rows[0] == list(md.TrialReport.CSV_FIELDS)
    assert len(rows) == 7
    stanza = json.loads((tmp_path / "summary.json").read_text())
    assert stanza["passed"] is True
    assert stanza["config"]["trials"] == 6


def test_campaign_parallel_matches_serial(tmp_path):
    cfg = small_campaign(seed=3)
    s1, r1 = md.run_campaign(cfg, trials=6, parallelism=1,
                             out_dir=tmp_path / "serial", measure_time=False)
    s2, r2 = md.run_campaign(cfg, trials=6, parallelism=4,
                             out_dir=tmp_path / "parallel", measure_time=False)
    assert r1 == r2
    assert (tmp_path / "serial/trials.csv").read_bytes() == \
        (tmp_path / "parallel/trials.csv").read_bytes()
    # with no requested thresholds the predicates are reported without judgment
    assert all(p.required is None and p.met is None for p in s1.predicates)
    assert s1.passed


def test_campaign_records_errors_and_flags_partial(tmp_path):
    # heavy probe spec that fails separation: every trial errors, campaign continues
    bad_spec = md.GenSpec(kind="heavy_point_probe", domain_size=20, k=2, heavy_count=2,
                          heavy_beta=0.01, heavy_mass=0.05, eps=0.3, delta=0.3, seed=0)
    cfg = md.CampaignConfig(gen_spec=bad_spec,
                            derand=md.DerandConfig(eps=0.3, delta=0.3, mode="calibrated",
                                                   m_override=100))
    summary, reports = md.run_campaign(cfg, trials=3, out_dir=tmp_path, measure_time=False)
    assert summary.errors == 3 and summary.partial and not summary.passed
    assert reports == []
    stanza = json.loads((tmp_path / "summary.json").read_text())
    assert len(stanza["trial_errors"]) == 3


def test_summary_files_are_the_text_of_json_dumps_indent_1(tmp_path):
    failing = md.CampaignConfig(
        gen_spec=md.GenSpec(kind="heavy_point_probe", domain_size=20, k=2, heavy_count=2,
                            heavy_beta=0.01, heavy_mass=0.05, eps=0.3, delta=0.3, seed=0),
        derand=md.DerandConfig(eps=0.3, delta=0.3, mode="calibrated", m_override=100))
    for cfg, trials in ((small_campaign(seed=2), 4), (failing, 2)):
        summary, _ = md.run_campaign(cfg, trials=trials, out_dir=tmp_path, measure_time=False)
        text = (tmp_path / "summary.json").read_text()
        stanza = summary.to_dict()
        # the error messages, which the campaign does not return, as written
        if summary.errors:
            stanza["trial_errors"] = json.loads(text)["trial_errors"]
        assert text == json.dumps(stanza, indent=1)
    assert len(stanza["trial_errors"]) == 2


def test_campaign_requirement_failure_fails_campaign():
    # a 10-draw table rounds one of these three trials too far from its mixture
    cfg = dataclasses.replace(small_campaign(seed=3, m_override=10),
                              required_fractions={PREDICATE_CONDITIONAL: 1.0})
    summary, _ = md.run_campaign(cfg, trials=3, measure_time=False)
    assert [p.met for p in summary.predicates] == [None, False]
    assert not summary.passed


def test_campaign_requirements_name_a_predicate_and_a_fraction():
    # each of these was read as no requirement, or failed the campaign only
    # after every trial had run
    for required, message in (({"er_le_opt": 0.99}, "unknown predicate 'er_le_opt'"),
                              ({PREDICATE_OPT: 1.1}, "must lie in \\[0, 1\\], got 1.1"),
                              ({PREDICATE_CONDITIONAL: -0.2}, "got -0.2"),
                              ({PREDICATE_OPT: float("nan")}, "got nan")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(small_campaign(), required_fractions=required)
    for frac in (0.0, 1.0):
        dataclasses.replace(small_campaign(), required_fractions={PREDICATE_OPT: frac})


def test_write_trials_csv_round_trip(tmp_path):
    # every report record, numpy scalars among its values, by one cell rule
    # (under numpy 2, repr(np.float64(0.1)) is 'np.float64(0.1)')
    third = 1 / 3
    records = {
        "trial": (md.TrialReport(0, np.int64(1), 0.3, np.float64(0.1), 0.25, 4, np.bool_(True),
                                 third, 1e-300), write_trials_csv,
                  ["trial_id", "seed", "opt", "randomized_error", "deterministic_error",
                   "table_size", "heavy_covered", "rounding_deviation", "wall_time"]),
        "hedge_round": (learner.HedgeRound(np.int64(2), 5, (np.float64(0.1), third),
                                           (0.5, 0.5)), write_records_csv,
                        ["round", "hypothesis_index", "error_0", "error_1",
                         "weight_0", "weight_1"]),
        "error_report": (md.ErrorReport.from_errors([0.1, np.float64(third), 0.2]),
                         write_records_csv,
                         ["error_0", "error_1", "error_2", "worst_case", "argmax_index"]),
    }
    for name, (record, write, want_header) in records.items():
        path = tmp_path / f"{name}.csv"
        write(path, [record, record])
        header, *rows = list(csv.reader(path.open()))
        assert header == want_header and len(rows) == 2
        values = []
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            values += value if isinstance(value, tuple) else [value]
        for cell, value in zip(rows[0], values, strict=True):
            if isinstance(value, (bool, np.bool_)):
                assert cell == ("1" if value else "0")
            elif isinstance(value, (int, np.integer)):
                assert cell == str(int(value))
            else:
                assert float(cell) == value and cell == repr(float(value))
    assert list(csv.reader((tmp_path / "trial.csv").open()))[1][:4] == ["0", "1", "0.3", "0.1"]
    write_trials_csv(tmp_path / "none.csv", [])
    assert (tmp_path / "none.csv").read_text().strip() == ",".join(md.TrialReport.CSV_FIELDS)
    with pytest.raises(TypeError, match="str"):
        record_columns(learner.HedgeRound("2", 5, (), ()))


def test_a_failed_generation_is_reported_for_its_own_trial(tmp_path, monkeypatch):
    cfg = small_campaign(seed=5)
    md.run_campaign(cfg, trials=5, out_dir=tmp_path / "whole", measure_time=False)
    broken_seed = trial_seed(cfg.master_seed, 2) ^ 0x5EED
    generate = harness.generate

    def failing_generate(spec):
        if spec.seed == broken_seed:
            raise ValueError("generator broke")
        return generate(spec)

    monkeypatch.setattr(harness, "generate", failing_generate)
    summary, reports = md.run_campaign(cfg, trials=5, out_dir=tmp_path / "broken",
                                       measure_time=False)
    assert summary.errors == 1 and summary.partial
    assert [r.trial_id for r in reports] == [0, 1, 3, 4]
    stanza = json.loads((tmp_path / "broken/summary.json").read_text())
    assert stanza["trial_errors"] == [{"trial_id": 2, "error": "ValueError: generator broke"}]
    whole = (tmp_path / "whole/trials.csv").read_text().splitlines()
    assert (tmp_path / "broken/trials.csv").read_text().splitlines() == whole[:3] + whole[4:]


def break_hedge(monkeypatch):
    """Make every Hedge step raise, in this process and in workers forked from it."""
    def advance(self, *args, **kwargs):
        raise ValueError("hedge broke")

    monkeypatch.setattr(learner.HedgeStack, "advance", advance)


def test_a_learning_error_is_every_trial_error(tmp_path, monkeypatch):
    break_hedge(monkeypatch)
    summary, reports = md.run_campaign(small_campaign(seed=6), trials=3, out_dir=tmp_path,
                                       measure_time=False)
    assert summary.errors == 3 and reports == []
    errors = json.loads((tmp_path / "summary.json").read_text())["trial_errors"]
    assert errors == [{"trial_id": i, "error": "ValueError: hedge broke"} for i in range(3)]


def test_a_campaign_rejects_hedge_settings_every_trial_would_reject():
    # each ran every trial into the same error; the default k is 6, and
    # ln(DBL_MAX / 6) is about 707.99
    spec = md.GenSpec()
    for hedge, message in ((md.HedgeConfig(rounds=0), "rounds must be >= 1"),
                           (md.HedgeConfig(eta=-1.0), "eta must be finite and positive"),
                           (md.HedgeConfig(eta=800.0), "eta must be at most ln\\(DBL_MAX / k\\)"),
                           (md.HedgeConfig(erm_sample_size=0), "erm_sample_size must be >= 1")):
        with pytest.raises(ValueError, match=message):
            md.CampaignConfig(gen_spec=spec, hedge=hedge)
    assert md.CampaignConfig(gen_spec=spec, hedge=md.HedgeConfig(eta=700.0)).hedge.eta == 700.0


def test_a_campaign_rejects_hash_parameters_every_trial_would_reject():
    # eps 1e-9 needs a prime past 2^62; a trial found out only after exact
    # Hedge at eps/2, about 10^19 rounds
    hash_cfg = md.DerandConfig(eps=1e-9, delta=0.2, mode="calibrated", m_override=10,
                               rounding="hash")
    with pytest.raises(ValueError, match="eps = 1e-09 needs a hash prime above 2\\^62"):
        md.CampaignConfig(gen_spec=md.GenSpec(), derand=hash_cfg)
    # the prime must exceed the domain of the instances the spec generates: a
    # gap example has k points, whatever its spec's domain_size
    coarse = dataclasses.replace(hash_cfg, eps=0.2)
    gap = md.GenSpec(kind="gap_example", domain_size=2**63, k=4)
    assert md.CampaignConfig(gen_spec=gap, derand=coarse).gen_spec is gap
    with pytest.raises(ValueError, match="needs a hash prime above 2\\^62"):
        md.CampaignConfig(gen_spec=dataclasses.replace(gap, kind="bayes_in_class",
                                                       domain_size=2**63), derand=coarse)
    assert md.CampaignConfig(gen_spec=md.GenSpec(), derand=coarse).derand is coarse


def test_a_hash_campaign_chooses_its_hash_parameters_once(tmp_path, monkeypatch):
    # each trial searched for the prime again; the campaign's plan holds it
    from multidist import derand

    calls = []

    def counted(*args):
        calls.append(args)
        return choose(*args)

    choose = derand.choose_hash_params
    monkeypatch.setattr(derand, "choose_hash_params", counted)
    cfg = small_campaign(seed=4, rounding="hash")
    summary, reports = md.run_campaign(cfg, trials=5, out_dir=tmp_path, measure_time=False)
    assert summary.errors == 0 and len(reports) == 5
    assert calls == [(3, 0.2, 0.2, 20, 4.0)]
    assert cfg.plan.hash_params == choose(3, 0.2, 0.2, 20, 4.0)


def test_a_campaign_checks_its_kind_seed_and_counts_before_any_trial(monkeypatch):
    # an unknown kind or a negative seed failed every trial, one error each;
    # a bool seed or trial count ran as 0 or 1 and was written as true, and
    # 2.5 trials ended in a TypeError
    def unreachable(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "rolling_mixtures", unreachable)
    with pytest.raises(ValueError, match="unknown generator kind 'nope'"):
        md.CampaignConfig(gen_spec=md.GenSpec(kind="nope"))
    for seed, message in ((-1, "master_seed must be >= 0, got -1"),
                          (True, "master_seed must be an integer, got True"),
                          (2.5, "master_seed must be an integer, got 2.5")):
        with pytest.raises(ValueError, match=message):
            md.CampaignConfig(gen_spec=md.GenSpec(), master_seed=seed)
    assert type(md.CampaignConfig(gen_spec=md.GenSpec(), master_seed=np.int64(3)).master_seed) \
        is int
    cfg = small_campaign()
    for name in ("trials", "parallelism"):
        for value in (True, 2.5):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
                md.run_campaign(cfg, **{"trials": 2, name: value})


def test_a_campaign_checks_its_spec_shape_before_any_trial(monkeypatch):
    # the first two specs once built and then failed every trial in their
    # generators, one error each
    def unreachable(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "rolling_mixtures", unreachable)
    probe = "heavy_point_probe"
    for fields, message in (
            ({"kind": "gap_example", "k": 1}, "the gap example needs k >= 2"),
            ({"kind": probe, "domain_size": 3, "heavy_count": 5}, "at least one light point"),
            ({"kind": probe, "domain_size": 3, "heavy_count": 3}, "at least one light point"),
            ({"kind": probe, "heavy_count": 2, "heavy_beta": 0.0}, "heavy_beta > 0"),
            ({"kind": probe, "heavy_count": 5}, "heavy masses exceed total probability")):
        with pytest.raises(ValueError, match=message):
            md.CampaignConfig(gen_spec=md.GenSpec(**fields))
    # an all-light probe takes any heavy_beta, and the smallest gap is k = 2
    md.CampaignConfig(gen_spec=md.GenSpec(kind=probe, domain_size=1, heavy_beta=0.0))
    md.CampaignConfig(gen_spec=md.GenSpec(kind="gap_example", k=2))


def test_campaign_through_a_small_rolling_stack_matches_a_wide_one(tmp_path, monkeypatch):
    cfg = small_campaign(seed=7)
    # bytes of one run at the campaign's shape (n = 20, k = 3, |H| = 8)
    run = learner._run_bytes(8, 3, 20)
    default = learner.STACK_BYTES
    monkeypatch.setattr(learner, "STACK_BYTES", 64 * run)
    _, wide = md.run_campaign(cfg, trials=7, out_dir=tmp_path / "wide", measure_time=False)
    # batches of two runs: four batches, the last of one
    monkeypatch.setattr(learner, "STACK_BYTES", 2 * run)
    _, small = md.run_campaign(cfg, trials=7, out_dir=tmp_path / "small", measure_time=False)
    assert small == wide
    assert (tmp_path / "small/trials.csv").read_bytes() == \
        (tmp_path / "wide/trials.csv").read_bytes()
    # timed, each trial is charged its own run plus a share of its worker's learning
    _, timed = md.run_campaign(cfg, trials=7, parallelism=2, measure_time=True)
    assert all(r.wall_time > 0.0 for r in timed)
    assert [dataclasses.replace(r, wall_time=0.0) for r in timed] == wide
    # the default budget: 1180 runs, one batch for the 7 trials
    monkeypatch.setattr(learner, "STACK_BYTES", default)
    for parallelism in (1, 2):
        _, never_full = md.run_campaign(cfg, trials=7, parallelism=parallelism,
                                        measure_time=False)
        assert never_full == wide


def test_a_one_trial_c06_campaign_plays_its_rounds_in_one_advance(monkeypatch):
    # a stack the items never filled was played one step of 4 rounds at a
    # time until its run left: 638 calls
    advance, calls = learner.HedgeStack.advance, []

    def counted_advance(self, rounds, log=None):
        calls.append((len(self.weights), rounds))
        advance(self, rounds, log)

    monkeypatch.setattr(learner.HedgeStack, "advance", counted_advance)
    cfg = md.CampaignConfig(gen_spec=md.GenSpec(domain_size=40, k=6, hypothesis_count=16))
    assert cfg.plan.rounds == 2549
    summary, _ = md.run_campaign(cfg, trials=1, measure_time=False)
    assert summary.errors == 0 and calls == [(1, 2549)]


def test_pooled_workers_match_one_process_and_share_a_learning_error(tmp_path, monkeypatch):
    cfg = small_campaign(seed=8)
    _, serial = md.run_campaign(cfg, trials=9, out_dir=tmp_path / "p1", measure_time=False)
    _, pooled = md.run_campaign(cfg, trials=9, parallelism=3, out_dir=tmp_path / "p3",
                                measure_time=False)
    assert pooled == serial
    assert (tmp_path / "p3/trials.csv").read_bytes() == (tmp_path / "p1/trials.csv").read_bytes()
    break_hedge(monkeypatch)
    summary, reports = md.run_campaign(cfg, trials=5, parallelism=2, out_dir=tmp_path / "broken",
                                       measure_time=False)
    assert summary.errors == 5 and reports == []
    errors = json.loads((tmp_path / "broken/summary.json").read_text())["trial_errors"]
    assert errors == [{"trial_id": i, "error": "ValueError: hedge broke"} for i in range(5)]


def test_a_campaign_starts_no_more_workers_than_trials(monkeypatch):
    # under fork the pool starts all of its workers at the first submit; a
    # recording stand-in runs the jobs in this process and starts none
    started, dealt = [], []

    class InProcessPool:
        def __init__(self, workers):
            started.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def map(self, fn, jobs):
            shares = [fn(job) for job in jobs]
            dealt.append([[i for i, *_ in share] for share in shares])
            return shares

    monkeypatch.setattr(harness, "_trial_pool", InProcessPool)
    cfg = small_campaign(seed=9)
    _, serial = md.run_campaign(cfg, trials=3, measure_time=False)
    for parallelism, trials, workers in ((5000, 3, [3]), (2, 3, [2]), (5000, 1, [])):
        started.clear()
        summary, reports = md.run_campaign(cfg, trials=trials, parallelism=parallelism,
                                           measure_time=False)
        assert started == workers
        assert reports == serial[:trials]
        assert summary.config["parallelism"] == parallelism
    # each worker is dealt every W-th trial, from its own first
    assert dealt == [[[0], [1], [2]], [[0, 2], [1]]]


def test_a_trial_checks_label_consistency_once(tmp_path, monkeypatch):
    # the bias table and heavy_coverage both require a label-consistent family;
    # the family computes its verdict once and both read it
    prop = md.DistributionFamily.__dict__["label_consistent"]
    checked = []

    def counted(fam, check=prop.func):
        checked.append(id(fam))
        return check(fam)

    monkeypatch.setattr(prop, "func", counted)
    cfg = md.CampaignConfig(gen_spec=md.GenSpec(), master_seed=606)  # the C06 shape
    summary, _ = md.run_campaign(cfg, trials=5, out_dir=tmp_path, measure_time=False)
    assert summary.errors == 0
    assert len(checked) == len(set(checked)) == 5
