"""Time the sampling, loading, hashing and discrepancy layers of two source trees back to back.

    python3 tools/bench_layers.py --parent ../parent-checkout -o BENCH_REV.json

Each round runs one fresh interpreter per tree, alternating which tree goes
first, and each interpreter reports the median time of every layer below over
a few repetitions. The file written holds, per layer, the median over the
rounds for each tree ("parent" is the tree given by --parent, "change" the
tree holding this script), the first and third quartiles of those rounds, and
the ratio of the medians. A ratio whose quartile ranges overlap is within the
spread between interpreters of one tree. The layers:

- eval_block: coefficient_matrix_eval on a (4096, 4) block of coefficients at
  the 64 keys 0..63, p = 67 (one block of the default tail check);
- eval_one_poly: coefficient_matrix_eval on one polynomial with r = 14 at the
  1000 keys 0..999, p = 1009 (the hash that derand --rounding hash draws
  for the cli_wide benchmark instance, labelled by its compact classifier);
- tail_check: empirical_tail_bound_check at n = 64, r = 4, 100,000 draws;
- bruteforce_min_discrepancy and min_deterministic_error on a planted
  high-discrepancy n = 18 matrix (no early exit);
- hedge_sampling: sampling-mode hedge_learn at the cli_wide learn shape
  (n = 1000, k = 24, |H| = 128, seed 5; eps 0.6, so 71 rounds of 200 draws
  per member);
- draw_family_24x1000x5000 and draw_family_6x40x5000: one exact-mode
  draw_family of 5000 draws per member, the bias-table draw of derand on the
  cli_wide instance and of a C06 campaign trial;
- load_instance: serialize.load_instance of the cli_wide instance file;
- generate_c06: md.generate at the C06 campaign spec (n = 40, k = 6,
  |H| = 16, seed 5);
- reduction_family: a fresh ReductionFamily(matrix).family of the n = 18
  matrix above (36 members).
"""

from __future__ import annotations

import argparse
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
        "draw_family_6x40x5000": 200, "load_instance": 15, "generate_c06": 200,
        "reduction_family": 200}


def time_layers(src: str) -> dict:
    """Median seconds per call of each layer, importing multidist from src."""
    sys.path.insert(0, src)
    import numpy as np

    import multidist as md
    from multidist import serialize
    from multidist.hashing import coefficient_matrix_eval

    coeffs = np.random.default_rng(0).integers(0, 67, size=(4096, 4))
    keys = np.arange(64)
    one_poly = np.random.default_rng(1).integers(0, 1009, size=(1, 14))
    domain = np.arange(1000)
    matrix = md.planted_high_discrepancy_matrix(18, np.random.default_rng([1, 0]))
    family = md.ReductionFamily(matrix)
    tail = md.TailCheckConfig(n=64, r=4, draws=100_000, seed=1)
    wide_fam, wide_cls = md.gen_random_label_consistent(
        md.GenSpec(domain_size=1000, k=24, hypothesis_count=128, seed=5))
    c06_spec = md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=5)
    c06_fam, _ = md.gen_random_label_consistent(c06_spec)
    tmp = tempfile.TemporaryDirectory()
    instance = Path(tmp.name) / "inst.json"
    serialize.save_instance(instance, wide_fam, wide_cls)
    draw_rng = np.random.default_rng(2)
    calls = {
        "eval_block": lambda: coefficient_matrix_eval(coeffs, keys, 67),
        "eval_one_poly": lambda: coefficient_matrix_eval(one_poly, domain, 1009),
        "tail_check": lambda: md.empirical_tail_bound_check(tail),
        "bruteforce_min_discrepancy": lambda: md.bruteforce_min_discrepancy(matrix),
        "min_deterministic_error": lambda: md.min_deterministic_error(family),
        "hedge_sampling": lambda: md.hedge_learn(
            md.SampleOracle.sampling_mode(wide_fam, np.random.default_rng(7)), wide_cls, 0.6, 0.1),
        "draw_family_24x1000x5000": lambda: md.SampleOracle.exact_mode(wide_fam).draw_family(
            5000, draw_rng),
        "draw_family_6x40x5000": lambda: md.SampleOracle.exact_mode(c06_fam).draw_family(
            5000, draw_rng),
        "load_instance": lambda: serialize.load_instance(instance),
        "generate_c06": lambda: md.generate(c06_spec),
        "reduction_family": lambda: md.ReductionFamily(matrix).family,
    }
    out = {}
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


def run_child(tree: Path) -> dict:
    result = subprocess.run([sys.executable, __file__, "--child", str(tree / "src")],
                            capture_output=True, text=True, check=True)
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
               "which runs first; each interpreter reports the median of its repetitions",
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
