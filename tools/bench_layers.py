"""Time the sampling, loading, hashing and discrepancy layers of two source trees back to back.

    python3 tools/bench_layers.py --parent ../parent-checkout -o BENCH_REV.json

Each round runs one fresh interpreter per tree, alternating which tree goes
first, with glibc's mmap threshold fixed at 128 KiB (MALLOC_MMAP_THRESHOLD_),
and each interpreter reports the median time of every layer below over a few
repetitions. The file written holds, per layer, the median over the
rounds for each tree ("parent" is the tree given by --parent, "change" the
tree holding this script), the first and third quartiles of those rounds, and
the ratio of the medians. A ratio whose quartile ranges overlap is within the
spread between interpreters of one tree. Both trees must take the family, not
a SampleOracle, in build_bias_table and derandomize, take no error matrix
in run_trial and no domain size in round_outside_t, and have the module
function learner._tallies, so a tree whose round_outside_t takes a domain
size cannot be timed. The layers:

- eval_block: coefficient_matrix_eval on a (16384, 4) block of coefficients
  at the keys 0..3, p = 67 (the seed call of the default tail check, which
  evaluates each hash only at the first r keys of each run of keys);
- eval_one_poly: coefficient_matrix_eval on one polynomial with r = 14 at the
  1000 keys 0..999, p = 1009 (the hash that derand --rounding hash draws
  for the cli_wide benchmark instance, labelled by its compact classifier);
- tail_check: empirical_tail_bound_check at n = 64, r = 4, 100,000 draws;
- bruteforce_min_discrepancy and min_deterministic_error on a planted
  high-discrepancy n = 18 matrix (no early exit);
- hedge_sampling: sampling-mode hedge_learn at the cli_wide learn shape
  (n = 1000, k = 24, |H| = 128, seed 5; eps 0.6, so 71 rounds of 200 draws
  per member), with the bucket table the family keeps dropped before each
  call;
- hedge_exact_c06: exact-mode hedge_learn at the C06 shape (n = 40, k = 6,
  |H| = 16, seed 5) and a C06 trial's learner precision, eps 0.075 (2549
  rounds), with the class error matrix the family keeps dropped before each
  call;
- hedge_stack_advance_32: one HedgeStack.advance step (ceil(2549 / 32) = 80
  rounds) of a full stack of STACK_RUNS = 32 runs, on the error matrices of
  the C06-shape instances of seeds 0..31, as a campaign worker plays it;
- draw_family_24x1000x5000 and draw_family_6x40x5000: one round of
  learner._tallies, 5000 draws per member tallied into (k, n) counts, the
  bias-table draws of derand on the cli_wide instance (in member blocks)
  and of a C06 campaign trial (in one block), with the family's kept bucket
  table dropped before each call; the names are draw_family's, which these
  layers timed until it was removed;
- draw_family_6x40x1000000: the same at the C06 shape with 1,000,000 draws
  per member, each member larger than a block;
- load_instance: serialize.load_instance of the cli_wide instance file,
  parsed: the file the loader keeps from its last parse is dropped before
  each call;
- load_instance_deferred: the same of that file with every label written as
  1.0, which the loader's label route cannot prove and leaves to orjson (the
  cost of a failed scan on top of a whole parse);
- load_instance_again: serialize.load_instance of the cli_wide instance file
  that the call before loaded, which the loader reads and compares with the
  bytes it kept (a tree without the kept file parses it again);
- load_classifier_24x1000: serialize.load_classifier of the compact
  classifier file that derand --rounding hash writes for that instance, at
  the cli_wide derand flags (the file cli_wide's eval reads every op);
- save_instance_24x1000: serialize.save_instance of the cli_wide instance
  (the file cli_wide's set-up writes, and gen and disc reduce write);
- save_classifier_24x1000: serialize.save_classifier of that compact
  classifier (the file derand -o writes every cli_wide op);
- generate_c06: md.generate at the C06 campaign spec (n = 40, k = 6,
  |H| = 16, seed 5);
- reduction_family: a fresh ReductionFamily(matrix).family of the n = 18
  matrix above (36 members);
- error_matrix_128x24x1000 and error_matrix_16x6x40: error_matrix of the
  whole class on the cli_wide and C06 instances above (the OPT and Hedge
  matrices of learn, derand and a campaign trial);
- error_matrix_1x24x1000: error_matrix of the cli_wide class's first
  labeling (eval's one classifier);
- error_matrix_masked_2x24x1000: error_matrix of two rows, that labeling
  and the class's mean labeling, over a random 90% of the points (the
  outside-T rounding deviation of a derand report);
- build_parser: the build of cli.build_parser, which cli.main caches per
  process;
- build_bias_table_24x1000x5000 and build_bias_table_6x40x5000: a
  build_bias_table of 5000 draws per member on the cli_wide and C06
  instances above (eps 0.6, delta 0.2 as derand on the cli_wide benchmark
  instance, about 440 points pinned; eps = delta = 0.15 as a C06 campaign
  trial), with the family's kept bucket table dropped before each call;
- compact_label_vector_24x1000: a fresh copy of the compact classifier that
  derand --rounding hash makes from a three-hypothesis mixture on the
  cli_wide instance (m = 5000), constructed and labelled over the domain;
- round_outside_t_24x1000: explicit rounding of the exact-mode Hedge
  mixture at eps 0.3 (derand's learner at eps 0.6) on the cli_wide instance,
  outside its bias table above;
- opt_bruteforce_128x24x1000: opt_bruteforce of the cli_wide class, with
  the class error matrix the family keeps dropped before each call;
- run_trial_c06: one run_trial at the C06 campaign's derandomization
  config, from the exact-mode mixture of hedge_exact_c06, reading the class
  error matrix that its learner left on the family; the family's kept bucket
  table is dropped before each call, since a campaign trial's family is
  fresh;
- package_import: `import multidist, multidist.cli, multidist.serialize`
  after numpy, as each CLI process makes it; a module is imported once per
  interpreter, so it is timed once in each, and the median is over the
  interpreters (compile both trees with `python3 -m compileall -q src` first,
  or the first interpreter of each writes the bytecode).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# interpreters per tree
ROUNDS = 11
# repetitions per layer within one interpreter
REPS = {"eval_block": 40, "eval_one_poly": 100, "tail_check": 5, "bruteforce_min_discrepancy": 15,
        "min_deterministic_error": 15, "hedge_sampling": 15, "draw_family_24x1000x5000": 30,
        "draw_family_6x40x5000": 200, "draw_family_6x40x1000000": 5, "load_instance": 15,
        "load_instance_deferred": 15, "load_instance_again": 15,
        "load_classifier_24x1000": 100, "save_instance_24x1000": 10,
        "save_classifier_24x1000": 100,
        "generate_c06": 200, "reduction_family": 200, "error_matrix_128x24x1000": 30,
        "error_matrix_16x6x40": 500,
        "error_matrix_1x24x1000": 300, "error_matrix_masked_2x24x1000": 300, "build_parser": 100,
        "build_bias_table_24x1000x5000": 30, "build_bias_table_6x40x5000": 200,
        "compact_label_vector_24x1000": 100, "hedge_exact_c06": 15, "hedge_stack_advance_32": 100,
        "round_outside_t_24x1000": 300, "opt_bruteforce_128x24x1000": 30, "run_trial_c06": 200,
        "package_import": 1}


def time_layers(src: str) -> dict:
    """Median seconds per call of each layer, importing multidist from src."""
    sys.path.insert(0, src)
    import numpy as np

    start = perf_counter()
    import multidist as md
    from multidist import cli, serialize
    out = {"package_import": perf_counter() - start}
    from multidist.hashing import coefficient_matrix_eval
    from multidist.learner import STACK_RUNS, HedgeStack, _tallies

    coeffs = np.random.default_rng(0).integers(0, 67, size=(16384, 4))
    keys = np.arange(4)
    one_poly = np.random.default_rng(1).integers(0, 1009, size=(1, 14))
    domain = np.arange(1000)
    matrix = md.planted_high_discrepancy_matrix(18, np.random.default_rng([1, 0]))
    family = md.ReductionFamily(matrix)
    tail = md.TailCheckConfig(n=64, r=4, draws=100_000, seed=1)
    wide_fam, wide_cls, _ = md.generate(
        md.GenSpec(domain_size=1000, k=24, hypothesis_count=128, seed=5))
    c06_spec = md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=5)
    c06_fam, c06_cls, _ = md.generate(c06_spec)
    wide_plus = (wide_cls.label_matrix == 1).astype(np.float64)
    c06_plus = (c06_cls.label_matrix == 1).astype(np.float64)
    two_rows = np.stack([wide_plus[0], wide_plus.mean(axis=0)])
    outside = np.random.default_rng(3).random(1000) < 0.9
    tmp = tempfile.TemporaryDirectory()
    instance = Path(tmp.name) / "inst.json"
    serialize.save_instance(instance, wide_fam, wide_cls)
    float_labels = Path(tmp.name) / "inst_float_labels.json"
    doc = json.loads(instance.read_text())
    doc["hypotheses"] = [[float(v) for v in row] for row in doc["hypotheses"]]
    float_labels.write_text(json.dumps(doc, indent=1))
    classifier = Path(tmp.name) / "clf.json"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["derand", str(instance), "--rounding", "hash", "--mode", "calibrated",
                  "--m-override", "5000", "--eps", "0.6", "--delta", "0.2", "--seed", "1",
                  "-o", str(classifier)])
    saved = Path(tmp.name) / "saved.json"
    loaded_classifier = serialize.load_classifier(classifier, wide_cls)
    draw_rng = np.random.default_rng(2)
    wide_table_cfg = md.DerandConfig(eps=0.6, delta=0.2, mode="calibrated", m_override=5000)
    c06_table_cfg = md.DerandConfig(eps=0.15, delta=0.15, mode="calibrated", m_override=5000)
    wide_mixture = md.RandomizedClassifier(wide_cls, (0, 1, 2), [0.5, 0.3, 0.2])
    compact = md.derandomize(wide_fam, wide_mixture,
                             dataclasses.replace(wide_table_cfg, rounding="hash"),
                             np.random.default_rng(4)).classifier
    c06_oracle = md.SampleOracle(c06_fam)
    c06_mixture = md.hedge_learn(c06_oracle, c06_cls, 0.075)
    rounds, eta = md.HedgeConfig().resolve(6, 0.075)
    step = -(-rounds // STACK_RUNS)
    stack = HedgeStack(STACK_RUNS, 16, 6, eta)
    for seed in range(STACK_RUNS):
        fam, cls, _ = md.generate(dataclasses.replace(c06_spec, seed=seed))
        stack.load(seed, md.error_matrix((cls.label_matrix == 1).astype(np.float64), fam))

    def tallies(fam, size=5000):
        return next(_tallies(fam, size, draw_rng))

    def parsed(path):
        serialize._last_instance = None  # no file kept from the call before
        return serialize.load_instance(path)

    def afresh(entry, fam, call, *args):
        # no class error matrix ("_class_error_entry") or bucket table
        # ("_bucket_table") kept on fam from the call before
        vars(fam).pop(entry, None)
        return call(*args)

    wide_learned = md.hedge_learn(md.SampleOracle(wide_fam), wide_cls, 0.3)
    wide_table = md.build_bias_table(wide_fam, wide_table_cfg, np.random.default_rng(5))
    calls = {
        "eval_block": lambda: coefficient_matrix_eval(coeffs, keys, 67),
        "eval_one_poly": lambda: coefficient_matrix_eval(one_poly, domain, 1009),
        "tail_check": lambda: md.empirical_tail_bound_check(tail),
        "bruteforce_min_discrepancy": lambda: md.bruteforce_min_discrepancy(matrix),
        "min_deterministic_error": lambda: md.min_deterministic_error(family),
        "hedge_sampling": lambda: afresh("_bucket_table", wide_fam, md.hedge_learn,
                                         md.SampleOracle(wide_fam, np.random.default_rng(7)),
                                         wide_cls, 0.6),
        "draw_family_24x1000x5000": lambda: afresh("_bucket_table", wide_fam, tallies, wide_fam),
        "draw_family_6x40x5000": lambda: afresh("_bucket_table", c06_fam, tallies, c06_fam),
        "draw_family_6x40x1000000": lambda: afresh("_bucket_table", c06_fam, tallies, c06_fam,
                                                   1_000_000),
        "load_instance": lambda: parsed(instance),
        "load_instance_deferred": lambda: parsed(float_labels),
        "load_instance_again": lambda: serialize.load_instance(instance),
        "load_classifier_24x1000": lambda: serialize.load_classifier(classifier, wide_cls),
        "save_instance_24x1000": lambda: serialize.save_instance(saved, wide_fam, wide_cls),
        "save_classifier_24x1000": lambda: serialize.save_classifier(saved, loaded_classifier),
        "generate_c06": lambda: md.generate(c06_spec),
        "reduction_family": lambda: md.ReductionFamily(matrix).family,
        "error_matrix_128x24x1000": lambda: md.error_matrix(wide_plus, wide_fam),
        "error_matrix_16x6x40": lambda: md.error_matrix(c06_plus, c06_fam),
        "error_matrix_1x24x1000": lambda: md.error_matrix(wide_plus[:1], wide_fam),
        "error_matrix_masked_2x24x1000": lambda: md.error_matrix(two_rows, wide_fam, outside),
        # the parser's build, not the per-process cache in front of it
        "build_parser": getattr(cli.build_parser, "__wrapped__", cli.build_parser),
        "build_bias_table_24x1000x5000": lambda: afresh(
            "_bucket_table", wide_fam, md.build_bias_table, wide_fam, wide_table_cfg, draw_rng),
        "build_bias_table_6x40x5000": lambda: afresh(
            "_bucket_table", c06_fam, md.build_bias_table, c06_fam, c06_table_cfg, draw_rng),
        # a copy, since a classifier caches its label vector
        "compact_label_vector_24x1000": lambda: dataclasses.replace(compact).label_vector(),
        "hedge_exact_c06": lambda: afresh("_class_error_entry", c06_fam, md.hedge_learn,
                                          c06_oracle, c06_cls, 0.075),
        "hedge_stack_advance_32": lambda: stack.advance(step),
        "round_outside_t_24x1000": lambda: md.round_outside_t(wide_learned, wide_table, draw_rng),
        "opt_bruteforce_128x24x1000": lambda: afresh("_class_error_entry", wide_fam,
                                                     md.opt_bruteforce, wide_cls, wide_fam),
        "run_trial_c06": lambda: afresh("_bucket_table", c06_fam, md.run_trial, c06_fam,
                                        c06_cls, c06_mixture, c06_table_cfg, 606),
    }
    for name, call in calls.items():
        call()  # warm-up
        times = []
        for _ in range(REPS[name]):
            start = perf_counter()
            call()
            times.append(perf_counter() - start)
        out[name] = statistics.median(times)
    tmp.cleanup()
    return out


# glibc's mmap threshold, fixed in every timing interpreter: left dynamic, it
# rises with the first large blocks an interpreter frees, so whether a layer's
# arrays of 128 KiB and more come from fresh pages or reused heap differs
# between interpreters of identical code
MMAP_THRESHOLD = 131072


def run_child(tree: Path) -> dict:
    result = subprocess.run([sys.executable, __file__, "--child", str(tree / "src")],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "MALLOC_MMAP_THRESHOLD_": str(MMAP_THRESHOLD)})
    return json.loads(result.stdout.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="root of the source tree to compare against")
    p.add_argument("-o", "--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    trees = {"change": ROOT, "parent": args.parent.resolve()}
    runs = {side: [] for side in trees}
    for i in range(ROUNDS):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for side in order:
            runs[side].append(run_child(trees[side]))
    import numpy as np

    layers = {}
    for name in REPS:
        row = {}
        for side in trees:
            q1, median, q3 = statistics.quantiles([1e3 * r[name] for r in runs[side]], n=4)
            row[f"{side}_ms"] = round(median, 4)
            row[f"{side}_quartiles_ms"] = [round(q1, 4), round(q3, 4)]
        row["parent_over_change"] = round(row["parent_ms"] / row["change_ms"], 3)
        layers[name] = row
    report = {
        "how": f"median and quartiles over {ROUNDS} interpreters per tree, alternating "
               "which runs first; each interpreter reports the median of its repetitions "
               f"and runs with MALLOC_MMAP_THRESHOLD_={MMAP_THRESHOLD}",
        "repetitions": REPS,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
        "layers": layers,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(layers, indent=2))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:  # one timing interpreter, started by run_child
        print(json.dumps(time_layers(sys.argv[2])))
    else:
        sys.exit(main())
