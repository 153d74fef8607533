"""Time the hashing and discrepancy layers of two source trees back to back.

    python3 tools/bench_layers.py --parent ../parent-checkout -o BENCH_REV.json

Each round runs one fresh interpreter per tree, alternating which tree goes
first, and each interpreter reports the median time of every layer below over
a few repetitions. The file written holds, per layer, the median over the
rounds for each tree ("parent" is the tree given by --parent, "change" the
tree holding this script) and their ratio. The layers:

- eval_block: coefficient_matrix_eval on a (4096, 4) block of coefficients at
  the 64 keys 0..63, p = 67 (one block of the default tail check);
- eval_one_poly: coefficient_matrix_eval on one polynomial with r = 14 at the
  1000 keys 0..999, p = 1009 (the hash that derand --rounding hash draws
  for the cli_wide benchmark instance, labelled by its compact classifier);
- tail_check: empirical_tail_bound_check at n = 64, r = 4, 100,000 draws;
- bruteforce_min_discrepancy and min_deterministic_error on a planted
  high-discrepancy n = 18 matrix (no early exit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# interpreters per tree
ROUNDS = 11
# repetitions per layer within one interpreter
REPS = {"eval_block": 40, "eval_one_poly": 100, "tail_check": 5, "bruteforce_min_discrepancy": 15,
        "min_deterministic_error": 15}


def time_layers(src: str) -> dict:
    """Median seconds per call of each layer, importing multidist from src."""
    sys.path.insert(0, src)
    import numpy as np

    import multidist as md
    from multidist.hashing import coefficient_matrix_eval

    coeffs = np.random.default_rng(0).integers(0, 67, size=(4096, 4))
    keys = np.arange(64)
    one_poly = np.random.default_rng(1).integers(0, 1009, size=(1, 14))
    domain = np.arange(1000)
    matrix = md.planted_high_discrepancy_matrix(18, np.random.default_rng([1, 0]))
    family = md.ReductionFamily(matrix)
    tail = md.TailCheckConfig(n=64, r=4, draws=100_000, seed=1)
    calls = {
        "eval_block": lambda: coefficient_matrix_eval(coeffs, keys, 67),
        "eval_one_poly": lambda: coefficient_matrix_eval(one_poly, domain, 1009),
        "tail_check": lambda: md.empirical_tail_bound_check(tail),
        "bruteforce_min_discrepancy": lambda: md.bruteforce_min_discrepancy(matrix),
        "min_deterministic_error": lambda: md.min_deterministic_error(family),
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
        row = {f"{side}_ms": round(1e3 * statistics.median(r[name] for r in runs[side]), 4)
               for side in trees}
        row["parent_over_change"] = round(row["parent_ms"] / row["change_ms"], 3)
        layers[name] = row
    report = {
        "how": f"median over {ROUNDS} interpreters per tree, alternating which runs "
               "first; each interpreter reports the median of its repetitions",
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
