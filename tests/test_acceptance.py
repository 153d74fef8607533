"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Expected values are either exact constructions checked bit-exactly, or are
recomputed here by independent oracles (definition-based enumerations,
exhaustive scans, exact binomial/rational arithmetic) before being asserted
against the library's answers.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

import multidist as md
from multidist.harness import PREDICATE_CONDITIONAL, PREDICATE_OPT, rounding_deviation
from multidist.hashing import coefficient_matrix_eval
from multidist.instances import gen_gap_example, gen_heavy_point_probe, gen_random_label_consistent

from helpers import heavy_mask, learned, plan_of


def _report(cid: str, desc: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{cid}] {desc}: {status} ({detail}; {elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"{cid} failed: {detail}"
    assert elapsed < budget, f"{cid} exceeded runtime budget: {elapsed:.2f}s >= {budget}s"


def _random_nonzero_matrix(rng, n, density=0.5):
    while True:
        entries = (rng.random((n, n)) < density).astype(np.int8)
        if np.all(entries.sum(axis=1) >= 1):
            return md.BinaryMatrix(entries)


def _definition_member_errors(matrix, v):
    """Definition-based oracle: member errors as wrong-label fractions."""
    out = []
    for i in range(matrix.n):
        support = np.nonzero(matrix.entries[i] == 1)[0]
        m_i = support.size
        out.append(Fraction(int(np.sum(v[support] == -1)), int(m_i)))
        out.append(Fraction(int(np.sum(v[support] == 1)), int(m_i)))
    return out


def _all_colorings(n):
    codes = np.arange(2**n, dtype=np.int64)
    bits = (codes[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1
    return np.where(bits == 1, 1, -1).astype(np.int64)  # (n, 2^n)


def _definition_min_worst_error(matrix):
    """Second, definition-based enumeration of min over labelings of the
    worst-case member error: counts of disagreement per support, scaled to a
    common integer denominator. Returns (min error, a minimizing labeling)."""
    n = matrix.n
    z = _all_colorings(n)
    a = matrix.entries.astype(np.int64)
    m = [int(v) for v in matrix.row_ones]
    lcm = math.lcm(*m)
    worst = np.zeros(z.shape[1], dtype=np.int64)
    for i in range(n):
        wrong_plus = a[i] @ (z == -1)   # support points labeled -1
        wrong_minus = a[i] @ (z == 1)
        scale = lcm // m[i]
        worst = np.maximum(worst, np.maximum(wrong_plus, wrong_minus) * scale)
    idx = int(np.argmin(worst))
    return Fraction(int(worst[idx]), lcm), z[:, idx].astype(np.int8)


def test_c01_gap_example():
    t0 = time.perf_counter()
    fam, cls, F = gen_gap_example(8)
    rand_err = md.randomized_worst_case_error(F, fam)
    support = md.support_worst_case(F, fam)
    exceed = md.exceedance_probability(F, fam, 1.0).tolist()
    ok = (abs(rand_err - 0.125) <= 1e-12 and support == 1.0
          and all(e == 0.125 for e in exceed))
    _report("C01", "mixture-vs-single gap at k=8", ok,
            f"rand={rand_err!r} support={support!r} exceedance={exceed[0]!r}",
            time.perf_counter() - t0, 1.0)


def test_c02_row_identity_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(100):
        matrix = _random_nonzero_matrix(rng, 12)
        rf = md.ReductionFamily(matrix)
        v = np.where(rng.random(12) < 0.5, 1, -1).astype(np.int8)
        direct = _definition_member_errors(matrix, v)
        for i in range(12):
            er_ms, er_s, sigma = md.row_identity_errors(rf, v, i)
            dot = int(v.astype(np.int64) @ matrix.entries[i].astype(np.int64))
            want = Fraction(1, 2) + Fraction(abs(dot), 2 * int(matrix.row_ones[i]))
            plus_err, minus_err = direct[2 * i], direct[2 * i + 1]
            direct_ms = minus_err if sigma == 1 else plus_err
            ok &= (er_ms == want == direct_ms) and (er_ms + er_s == 1)
    _report("C02", "exact row error identity on 100 random pairs", ok,
            "all 1200 rows matched the definition oracle with pair sums 1",
            time.perf_counter() - t0, 1.0)


def test_c03_zero_discrepancy_half_error():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    details = []
    for _ in range(20):
        A, z = md.planted_zero_matrix(12, 0.5, rng)
        rf = md.ReductionFamily(A)
        ok &= md.coloring_error(z, rf) == Fraction(1, 2)
        _, inf_n, _ = md.bruteforce_min_discrepancy(A)
        ok &= inf_n == 0
        lib = md.min_deterministic_error(rf)
        half = Fraction(1, 2)
        indep, _ = _definition_min_worst_error(A)
        ok &= lib == half and indep == half
        details.append(str(lib))
    _report("C03", "planted zero-discrepancy instances have exact min error 1/2", ok,
            "coloring error, brute-force norm, and both enumerations agree on 20 instances",
            time.perf_counter() - t0, 30.0)


def test_c04_distinguisher():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    eps = 1.0 / (2.0 * math.sqrt(12))
    correct = 0
    for _ in range(20):
        A, _ = md.planted_zero_matrix(12, 0.5, rng)
        _, best = _definition_min_worst_error(A)
        if md.distinguisher(A, best, eps) == md.Verdict.ZERO_DISCREPANCY_LIKELY:
            correct += 1
    for _ in range(20):
        A = md.planted_high_discrepancy_matrix(12, rng)
        _, inf_n, _ = md.bruteforce_min_discrepancy(A)
        assert inf_n >= 2  # brute-force certification
        _, best = _definition_min_worst_error(A)
        if md.distinguisher(A, best, eps) == md.Verdict.HIGH_DISCREPANCY:
            correct += 1
    _report("C04", "distinguisher verdicts on best labelings", correct == 40,
            f"{correct}/40 correct at eps=1/(2*sqrt(12))",
            time.perf_counter() - t0, 60.0)


def test_c05_hedge_contract():
    t0 = time.perf_counter()
    eps = 0.15
    wins = 0
    for seed in range(50):
        fam, cls = gen_random_label_consistent(
            md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=seed))
        F = md.hedge_learn(md.SampleOracle(fam), cls, eps)
        opt, _ = md.opt_bruteforce(cls, fam)
        if md.randomized_worst_case_error(F, fam) <= opt + eps:
            wins += 1
    _report("C05", "mixture within eps of brute-force OPT", wins >= 48,
            f"{wins}/50 instances (need >= 48)", time.perf_counter() - t0, 60.0)


def test_c06_end_to_end_guarantee():
    t0 = time.perf_counter()
    cfg = md.CampaignConfig(
        gen_spec=md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=606),
        hedge=md.HedgeConfig(),
        derand=md.DerandConfig(eps=0.15, delta=0.15, mode="calibrated", m_override=5000,
                               threshold_scale=1.0),
        master_seed=606,
    )
    summary, reports = md.run_campaign(cfg, trials=200, parallelism=2, measure_time=False)
    assert summary.errors == 0
    frac = {p.name: p.fraction for p in summary.predicates}
    need = (1.0 - 0.15) - 0.06
    ok = frac[PREDICATE_OPT] >= need and frac[PREDICATE_CONDITIONAL] >= need
    _report("C06", "200-trial derandomization guarantee", ok,
            f"opt-pred {frac[PREDICATE_OPT]:.3f}, conditional {frac[PREDICATE_CONDITIONAL]:.3f}, "
            f"need >= {need:.2f}", time.perf_counter() - t0, 300.0)


def test_c07_heavy_point_coverage():
    t0 = time.perf_counter()
    eps = delta = 0.1
    spec = md.GenSpec(kind="heavy_point_probe", domain_size=25, k=2, heavy_count=3,
                      heavy_beta=0.4, heavy_mass=0.25, light_beta_max=0.02,
                      eps=eps, delta=delta, seed=707)
    fam = gen_heavy_point_probe(spec)
    heavy = np.nonzero(heavy_mask(fam, eps, delta))[0]
    assert heavy.tolist() == [0, 1, 2]
    beta_sign = np.where(fam.shared_label_one_prob - 0.5 >= 0, 1, -1)
    plan = plan_of(fam, md.DerandConfig(eps=eps, delta=delta, c_const=4.0, mode="theory"))
    runs, hits = 500, 0
    for run in range(runs):
        table = md.build_bias_table(fam, plan, np.random.default_rng(run))
        pinned = np.zeros(fam.domain_size, dtype=np.int8)  # 0 off the table
        pinned[table.points] = table.labels
        if np.all(pinned[heavy] == beta_sign[heavy]):
            hits += 1
    need = 1.0 - delta / 4 - 0.05
    _report("C07", "heavy points enter the table with correct signs", hits / runs >= need,
            f"coverage {hits}/{runs} = {hits/runs:.3f}, need >= {need:.3f}",
            time.perf_counter() - t0, 120.0)


def test_c08_light_rounding_deviation():
    t0 = time.perf_counter()
    eps = delta = 0.2
    spec = md.GenSpec(kind="heavy_point_probe", domain_size=30, k=3, heavy_count=0,
                      light_beta_max=0.05, eps=eps, delta=delta, seed=808)
    fam = gen_heavy_point_probe(spec)
    assert not heavy_mask(fam, eps, delta).any()
    assert np.all(np.abs(fam.shared_label_one_prob - 0.5) <= 0.05)
    rng_h = np.random.default_rng(8080)
    cls = md.HypothesisClass([np.where(rng_h.random(30) < 0.5, 1, -1) for _ in range(8)])
    F = md.hedge_learn(md.SampleOracle(fam), cls, eps / 2)
    plan = plan_of(fam, md.DerandConfig(eps=eps, delta=delta, mode="calibrated", m_override=2500))
    runs, hits = 500, 0
    for run in range(runs):
        rng = np.random.default_rng(run)
        table = md.build_bias_table(fam, plan, rng)
        labels = md.round_outside_t(F, table, rng)
        dev = rounding_deviation(md.ExplicitClassifier(labels), F, fam, table)
        if dev <= eps / 2:
            hits += 1
    need = 1.0 - delta / 4 - 0.05
    _report("C08", "all-light rounding deviation within eps/2", hits / runs >= need,
            f"{hits}/{runs} = {hits/runs:.3f}, need >= {need:.3f}",
            time.perf_counter() - t0, 120.0)


def test_c09_hash_exactness():
    t0 = time.perf_counter()
    # exhaustive pairwise independence at p=5
    p = 5
    pairs_ok = True
    coeffs = np.array(list(itertools.product(range(p), repeat=2)), dtype=np.int64)
    for x1, x2 in itertools.combinations(range(p), 2):
        vals = coefficient_matrix_eval(coeffs, np.array([x1, x2]), p)
        pairs_ok &= len({tuple(r) for r in vals}) == p * p
    # exhaustive 3-wise independence at p=7 over all key triples
    p3 = 7
    triples_ok = True
    coeffs3 = np.array(list(itertools.product(range(p3), repeat=3)), dtype=np.int64)
    for keys in itertools.combinations(range(p3), 3):
        vals = coefficient_matrix_eval(coeffs3, np.array(keys), p3)
        triples_ok &= len({tuple(r) for r in vals}) == p3**3
    # marginal rounding law at p=7 over 1e5 draws
    rng = np.random.default_rng(909)
    law_ok = True
    law_detail = []
    draws = 100_000
    qvals = coefficient_matrix_eval(rng.integers(0, 7, size=(draws, 2)), np.array([3]), 7)[:, 0]
    for marginal in (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        threshold = Fraction(marginal) * 7
        observed = float(np.mean([Fraction(int(v) + 1) <= threshold for v in qvals]))
        want = float(md.plus_probability(marginal, 7))
        sigma = math.sqrt(want * (1.0 - want) / draws)
        law_ok &= abs(observed - want) <= 3 * sigma + 1e-12
        law_detail.append(f"{marginal:.2f}:{observed:.4f}~{want:.4f}")
    ok = pairs_ok and triples_ok and law_ok
    _report("C09", "hash independence exact, rounding law within 3 sigma", ok,
            "; ".join(law_detail), time.perf_counter() - t0, 30.0)


def test_c10_limited_independence_tail():
    t0 = time.perf_counter()
    report = md.empirical_tail_bound_check(md.TailCheckConfig(
        n=64, r=4, draws=100_000, seed=1010))
    detail = "; ".join(
        f"T={row.t:.1f}: {row.observed:.5f} <= {min(row.bound, 1.0):.5f}+{row.slack_3sigma:.5f}"
        for row in report.rows)
    _report("C10", "hash-derived sums respect the moment tail bound", report.ok,
            detail, time.perf_counter() - t0, 60.0)


def test_c11_rounding_path_equivalence():
    t0 = time.perf_counter()
    fam, cls = gen_random_label_consistent(
        md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=1111))
    eps, delta = 0.15, 0.15
    # exact Hedge is deterministic: one mixture serves all 400 trials
    f_rand = learned(fam, cls, md.DerandConfig(eps=eps, delta=delta))
    results = {}
    for rounding in ("explicit", "hash"):
        plan = plan_of(fam, md.DerandConfig(eps=eps, delta=delta, mode="calibrated",
                                            m_override=5000, rounding=rounding))
        reports = [md.run_trial(fam, cls, f_rand, plan, seed=s, measure_time=False)[0]
                   for s in range(200)]
        errs = np.array([r.deterministic_error for r in reports])
        opt_ok = np.mean([r.deterministic_error <= r.opt + eps for r in reports])
        cond_ok = np.mean([r.deterministic_error <= r.randomized_error + eps / 2
                           for r in reports])
        results[rounding] = (errs.mean(), opt_ok, cond_ok)
    need = (1.0 - delta) - 0.06
    mean_gap = abs(results["explicit"][0] - results["hash"][0])
    ok = (mean_gap <= 0.02
          and all(v[1] >= need and v[2] >= need for v in results.values()))
    _report("C11", "explicit and hash rounding agree", ok,
            f"mean gap {mean_gap:.4f} (<= 0.02), pass rates "
            f"explicit {results['explicit'][1]:.3f}/{results['explicit'][2]:.3f}, "
            f"hash {results['hash'][1]:.3f}/{results['hash'][2]:.3f}, need {need:.2f}",
            time.perf_counter() - t0, 300.0)


def test_c12_campaign_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = md.CampaignConfig(
        gen_spec=md.GenSpec(domain_size=25, k=4, hypothesis_count=8, seed=1212),
        derand=md.DerandConfig(eps=0.2, delta=0.2, mode="calibrated", m_override=2000),
        master_seed=1212,
    )
    outputs = []
    for name, parallelism in (("a1", 1), ("b1", 1), ("a8", 8)):
        out = tmp_path / name
        md.run_campaign(cfg, trials=16, parallelism=parallelism, out_dir=out,
                        measure_time=False)
        outputs.append((out / "trials.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report("C12", "campaign CSV reproducible across reruns and parallelism", ok,
            "3 runs byte-identical after trial-id ordering",
            time.perf_counter() - t0, 300.0)
