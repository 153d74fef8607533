"""Command-line front door. One verb per capability:

  gen        write an instance file from a generator spec
  learn      run the Hedge learner on an instance, write the mixture
  derand     learn + derandomize, write a classifier and a report row
  eval       exact error report of a classifier file against an instance
  disc       matrix tooling: gen / solve / reduce / distinguish
  trial      Monte-Carlo campaign with CSV + summary output
  hashcheck  hash independence, rounding-law, and tail-bound suites

All randomness flows from --seed. MULTIDIST_OUTDIR overrides the default
output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import serialize
from .derand import DerandConfig, RunPlan
from .discrepancy import (
    ReductionFamily,
    Verdict,
    bruteforce_min_discrepancy,
    coloring_error,
    distinguisher,
    planted_high_discrepancy_matrix,
    planted_zero_matrix,
)
from .harness import (
    PREDICATE_CONDITIONAL,
    PREDICATE_OPT,
    CampaignConfig,
    record_columns,
    run_campaign,
    run_trial,
    write_records_csv,
    write_trials_csv,
)
from .hashing import (
    TailCheckConfig,
    _plus_thresholds,
    coefficient_matrix_eval,
    empirical_tail_bound_check,
)
from .instances import GENERATOR_KINDS, GenSpec, generate
from .learner import (
    HedgeConfig,
    SampleOracle,
    hedge_learn,
)
from .metrics import (
    opt_bruteforce,
    randomized_per_distribution,
    worst_case_error,
)
from .model import full_labeling_class, require_label_consistent


def _out_dir(path_arg: str | None) -> Path:
    base = path_arg or os.environ.get("MULTIDIST_OUTDIR", ".")
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generators from integers >= 0 only, so
    a negative seed is refused here, before any work, by the flag's name."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _add_hedge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rounds", type=int, default=None, help="Hedge rounds (default from k, eps)")
    p.add_argument("--eta", type=float, default=None, help="Hedge learning rate (default from rounds)")
    p.add_argument("--seed", type=_seed, default=0, help="master seed for all randomness")


def _add_derand_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, required=True, help="target excess error")
    p.add_argument("--delta", type=float, required=True, help="failure probability budget")
    p.add_argument("--c-const", type=float, default=4.0, help="sample-count constant")
    p.add_argument("--c-prime", type=float, default=4.0, help="hash-rounding constant")
    p.add_argument("--mode", choices=["theory", "calibrated"], default="theory",
                   help="derive the sample count from the formulas, or override it")
    p.add_argument("--m-override", type=int, default=None,
                   help="per-member sample count (calibrated mode)")
    p.add_argument("--threshold-scale", type=float, default=1.0,
                   help="table threshold multiplier (calibrated mode)")
    p.add_argument("--rounding", choices=["explicit", "hash"], default="explicit",
                   help="per-point label table vs compact polynomial-hash classifier")


def _hedge_cfg(args) -> HedgeConfig:
    return HedgeConfig(rounds=args.rounds, eta=args.eta)


def _derand_cfg(args) -> DerandConfig:
    return DerandConfig(eps=args.eps, delta=args.delta, c_const=args.c_const,
                        c_prime=args.c_prime, mode=args.mode, m_override=args.m_override,
                        threshold_scale=args.threshold_scale, rounding=args.rounding)


def cmd_gen(args) -> int:
    spec = GenSpec(kind=args.kind, domain_size=args.domain_size, k=args.k,
                   hypothesis_count=args.hypotheses, det_fraction=args.det_fraction,
                   fair_fraction=args.fair_fraction, heavy_count=args.heavy_count,
                   heavy_beta=args.heavy_beta, heavy_mass=args.heavy_mass,
                   eps=args.eps, delta=args.delta, seed=args.seed)
    fam, cls, _ = generate(spec)
    serialize.save_instance(args.output, fam, cls, spec)
    print(f"wrote instance ({fam.domain_size} points, k={fam.k}, |H|={len(cls)}) to {args.output}")
    return 0


def cmd_learn(args) -> int:
    fam, cls, _ = serialize.load_instance(args.instance)
    cfg = dataclasses.replace(_hedge_cfg(args), erm_sample_size=args.erm_samples)
    trace = [] if args.trace else None
    oracle = SampleOracle(fam, np.random.default_rng(args.seed) if args.sampling else None)
    f_rand = hedge_learn(oracle, cls, args.eps, cfg=cfg, trace=trace)
    serialize.save_randomized(args.output, f_rand)
    opt, _ = opt_bruteforce(cls, fam)
    errs = randomized_per_distribution(f_rand, fam)
    print(f"mixture over {len(f_rand.support)} hypotheses; "
          f"worst-case expected error {errs.max():.6f} (OPT {opt:.6f})")
    if trace is not None:
        write_records_csv(args.trace, trace)
        print(f"wrote per-round trace to {args.trace}")
    return 0


def cmd_derand(args) -> int:
    fam, cls, _ = serialize.load_instance(args.instance)
    plan = RunPlan(fam.k, fam.domain_size, _derand_cfg(args), _hedge_cfg(args))
    require_label_consistent(fam)
    t0 = time.perf_counter()
    f_rand = hedge_learn(SampleOracle(fam), cls, plan.learner_eps, cfg=plan.hedge)
    learning = time.perf_counter() - t0
    report, result = run_trial(fam, cls, f_rand, plan, args.seed)
    report = dataclasses.replace(report, wall_time=report.wall_time + learning)
    serialize.save_classifier(args.output, result.classifier)
    if args.report:
        write_trials_csv(args.report, [report])
        print(f"wrote report row to {args.report}")
    print(f"OPT={report.opt:.6f} randomized={report.randomized_error:.6f} "
          f"deterministic={report.deterministic_error:.6f} |T|={report.table_size} "
          f"heavy_covered={int(report.heavy_covered)} seed={args.seed}")
    return 0


def cmd_eval(args) -> int:
    fam, cls, _ = serialize.load_instance(args.instance)
    clf = serialize.load_classifier(args.classifier, cls)
    report = worst_case_error(clf, fam)
    if args.output:
        header, cells = record_columns(report)
        with open(args.output, "w", newline="") as fh:
            csv.writer(fh).writerows([["instance_id", "classifier_id", *header],
                                      [args.instance, args.classifier, *cells]])
        print(f"wrote error report to {args.output}")
    print(f"worst_case={report.worst_case:.6f} argmax_index={report.argmax_index}")
    return 0


def cmd_disc(args) -> int:
    if args.disc_cmd == "gen":
        rng = np.random.default_rng(args.seed)
        if args.planted == "zero":
            matrix, coloring = planted_zero_matrix(args.n, args.density, rng)
            serialize.save_matrix(args.output, matrix)
            print(f"wrote planted zero-discrepancy matrix n={args.n} to {args.output}")
            print("planted coloring:", " ".join(str(int(v)) for v in coloring.z))
        else:
            matrix = planted_high_discrepancy_matrix(args.n, rng, args.density)
            serialize.save_matrix(args.output, matrix)
            print(f"wrote high-discrepancy matrix n={args.n} to {args.output}")
        return 0
    matrix = serialize.load_matrix(args.matrix)
    if args.disc_cmd == "solve":
        coloring, inf_norm, two_norm = bruteforce_min_discrepancy(matrix)
        print("coloring:", " ".join(str(int(v)) for v in coloring.z))
        print(f"inf_norm={inf_norm} two_norm={two_norm:.6f}")
        return 0
    if args.disc_cmd == "reduce":
        rf = ReductionFamily(matrix)
        serialize.save_instance(args.output, rf.family, full_labeling_class(matrix.n))
        print(f"wrote {2 * matrix.n}-member reduction family to {args.output}")
        return 0
    if args.disc_cmd == "distinguish":
        labels = [int(v) for v in args.labels.split(",")]
        verdict = distinguisher(matrix, labels, args.eps)
        err = coloring_error(labels, ReductionFamily(matrix))
        print(f"worst-case error {err} -> {verdict.value}")
        return 0 if verdict == Verdict.ZERO_DISCREPANCY_LIKELY else 1
    raise ValueError(f"unknown disc subcommand {args.disc_cmd!r}")


def cmd_trial(args) -> int:
    spec = GenSpec(kind=args.kind, domain_size=args.domain_size, k=args.k,
                   hypothesis_count=args.hypotheses, seed=args.seed)
    required = {}
    if args.require_opt_frac is not None:
        required[PREDICATE_OPT] = args.require_opt_frac
    if args.require_cond_frac is not None:
        required[PREDICATE_CONDITIONAL] = args.require_cond_frac
    cfg = CampaignConfig(gen_spec=spec, hedge=_hedge_cfg(args), derand=_derand_cfg(args),
                         master_seed=args.seed, required_fractions=required)
    out = _out_dir(args.outdir)
    summary, _ = run_campaign(cfg, args.trials, parallelism=args.parallelism,
                              out_dir=out, measure_time=not args.no_timing)
    print(serialize._json_text(summary.to_dict()))
    if not summary.passed:
        failure = {
            "failed_predicates": [p.name for p in summary.predicates if p.met is False],
            "trial_errors": summary.errors,
        }
        print("CAMPAIGN FAILED " + json.dumps(failure))
        return 1
    return 0


def cmd_hashcheck(args) -> int:
    tail_cfg = TailCheckConfig(n=args.n, r=args.r, draws=args.draws, seed=args.seed)
    failures = []

    # exhaustive pairwise independence at p=5 (all coefficient pairs, all key pairs)
    p = 5
    coeffs = np.array([(a0, a1) for a0 in range(p) for a1 in range(p)], dtype=np.int64)
    vals = coefficient_matrix_eval(coeffs, np.arange(p), p).tolist()
    for x1 in range(p):
        for x2 in range(x1 + 1, p):
            if len({(row[x1], row[x2]) for row in vals}) != p * p:
                failures.append(f"pairwise independence broken at keys ({x1},{x2})")
    print(f"pairwise independence p=5: {'ok' if not failures else 'FAILED'}")

    # marginal rounding law at p=7, exactly: a point is +1 iff q < T, T =
    # floor(marginal * 7) of the marginal's exact ratio, and at key 3 the 49
    # coefficient pairs give each q in [0, 7) seven times, so exactly 7T of
    # them label it +1
    law_fail = 0
    p7 = 7
    pairs = np.array([(a0, a1) for a0 in range(p7) for a1 in range(p7)], dtype=np.int64)
    q = coefficient_matrix_eval(pairs, np.array([3]), p7)[:, 0]
    marginals = (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)
    for marginal, threshold in zip(marginals, _plus_thresholds(marginals, p7).tolist()):
        if np.count_nonzero(q < threshold) != p7 * math.floor(Fraction(marginal) * p7):
            law_fail += 1
            failures.append(f"rounding law off at marginal {marginal}")
    print(f"rounding law p=7: {'ok' if law_fail == 0 else 'FAILED'}")

    report = empirical_tail_bound_check(tail_cfg)
    for row in report.rows:
        status = "ok" if row.ok else "VIOLATION"
        # a large finite bound in fixed point runs to hundreds of digits
        bound = f"{row.bound:.6e}" if 1e6 <= row.bound < math.inf else f"{row.bound:.6f}"
        print(f"tail T={row.t:.3f}: observed={row.observed:.6f} bound={bound} {status}")
        if not row.ok:
            failures.append(f"tail bound violated at T={row.t}")

    if failures:
        print("HASHCHECK FAILED " + json.dumps({"failures": failures}))
        return 1
    print("hashcheck passed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process: parsing leaves it
    unchanged, and main runs verb X as cmd_X."""
    parser = argparse.ArgumentParser(prog="multidist", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write an instance file")
    p.add_argument("--kind", default="random_label_consistent", choices=GENERATOR_KINDS,
                   help="generator family")
    p.add_argument("--domain-size", type=int, default=40, help="number of domain points")
    p.add_argument("-k", type=int, default=6, help="number of distributions")
    p.add_argument("--hypotheses", type=int, default=16, help="random labelings in the class")
    p.add_argument("--det-fraction", type=float, default=0.3,
                   help="fraction of near-deterministic-label points")
    p.add_argument("--fair-fraction", type=float, default=0.4,
                   help="fraction of near-fair-label points")
    p.add_argument("--heavy-count", type=int, default=0,
                   help="engineered heavy points (heavy_point_probe)")
    p.add_argument("--heavy-beta", type=float, default=0.4,
                   help="label bias magnitude of heavy points")
    p.add_argument("--heavy-mass", type=float, default=0.25,
                   help="mass each heavy point gets under the first member")
    p.add_argument("--eps", type=float, default=0.2,
                   help="precision the probe's heavy/light split targets")
    p.add_argument("--delta", type=float, default=0.2,
                   help="confidence the probe's heavy/light split targets")
    p.add_argument("--seed", type=_seed, default=0, help="generator seed")
    p.add_argument("-o", "--output", required=True, help="instance file to write")

    p = sub.add_parser("learn", help="run the Hedge learner")
    p.add_argument("instance", help="instance file")
    p.add_argument("--eps", type=float, required=True, help="target excess error")
    p.add_argument("--sampling", action="store_true",
                   help="draw samples instead of reading exact masses")
    _add_hedge_flags(p)
    p.add_argument("--erm-samples", type=int, default=200,
                   help="fresh draws per member per round in sampling mode")
    p.add_argument("--trace", default=None, help="per-round trace CSV path")
    p.add_argument("-o", "--output", required=True, help="mixture file to write")

    p = sub.add_parser("derand", help="learn and derandomize")
    p.add_argument("instance", help="instance file")
    _add_derand_flags(p)
    _add_hedge_flags(p)
    p.add_argument("--report", default=None, help="trial-report CSV path")
    p.add_argument("-o", "--output", required=True, help="classifier file to write")

    p = sub.add_parser("eval", help="exact error report for a classifier")
    p.add_argument("classifier", help="classifier file")
    p.add_argument("instance", help="instance file")
    p.add_argument("-o", "--output", default=None, help="error-report CSV to write")

    p = sub.add_parser("disc", help="binary-matrix tooling")
    dsub = p.add_subparsers(dest="disc_cmd", required=True)
    g = dsub.add_parser("gen", help="generate a matrix")
    g.add_argument("--n", type=int, default=12, help="matrix size")
    g.add_argument("--planted", choices=["zero", "high"], default="zero",
                   help="plant a balanced coloring or an unbalanceable gadget")
    g.add_argument("--density", type=float, default=0.5, help="target row density")
    g.add_argument("--seed", type=_seed, default=0, help="generator seed")
    g.add_argument("-o", "--output", required=True, help="matrix file to write")
    s = dsub.add_parser("solve", help="brute-force minimum discrepancy")
    s.add_argument("matrix", help="matrix file")
    r = dsub.add_parser("reduce", help="matrix -> instance file")
    r.add_argument("matrix", help="matrix file")
    r.add_argument("-o", "--output", required=True, help="instance file to write")
    d = dsub.add_parser(
        "distinguish",
        help="threshold a labeling's exact error at 1/2 + eps "
             "(exit 0: zero discrepancy likely, exit 1: high discrepancy)")
    d.add_argument("matrix", help="matrix file")
    d.add_argument("--labels", required=True,
                   help="comma-separated -1/+1 labels (use --labels=-1,1,... form)")
    d.add_argument("--eps", type=float, required=True, help="verdict threshold offset")

    p = sub.add_parser("trial", help="Monte-Carlo campaign")
    p.add_argument("--kind", default="random_label_consistent",
                   choices=["random_label_consistent", "bayes_in_class"],
                   help="per-trial instance generator")
    p.add_argument("--domain-size", type=int, default=40, help="number of domain points")
    p.add_argument("-k", type=int, default=6, help="number of distributions")
    p.add_argument("--hypotheses", type=int, default=16, help="random labelings in the class")
    p.add_argument("--trials", type=int, default=50, help="number of trials")
    p.add_argument("--parallelism", type=int, default=1, help="worker processes")
    p.add_argument("--no-timing", action="store_true",
                   help="zero the wall_time column for byte-reproducible output")
    p.add_argument("--require-opt-frac", type=float, default=None,
                   help="minimum success fraction for er <= OPT + eps")
    p.add_argument("--require-cond-frac", type=float, default=None,
                   help="minimum success fraction for er <= randomized + eps/2")
    p.add_argument("--outdir", default=None, help="output directory (or MULTIDIST_OUTDIR)")
    _add_derand_flags(p)
    _add_hedge_flags(p)

    p = sub.add_parser("hashcheck", help="hash independence and tail-bound suites")
    p.add_argument("--n", type=int, default=64, help="indicator count for the tail check")
    p.add_argument("--r", type=int, default=4, help="hash degree for the tail check")
    p.add_argument("--draws", type=int, default=100_000, help="Monte-Carlo draws")
    p.add_argument("--seed", type=_seed, default=0, help="rng seed")

    return parser


def main(argv=None) -> int:
    """Run one verb, as cmd_<verb> of this module at the time of the call.
    Bad input (a malformed file, an out-of-range value) and a file that
    cannot be read or written (missing, a directory, in a missing directory)
    print their error and exit 2, a code no verb returns on its own. An
    OSError that names no file is the system's, not the input's, and is
    raised."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
