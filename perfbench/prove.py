"""Repeat perfbench runs and summarise their spread.

    python3 perfbench/prove.py --runs 10 --sets 2 --traced -o perfbench/trajectory/NAME.json

For each workload in BENCHMARK.json it runs run.py once per seed, one set of
seeds after another, then reports for every end-to-end metric the median and
the quartile spread (q3 - q1) / median of each set, the spread's ratio to the
metric's bound, and how far each later set's median is from the first set's,
in the worse direction, as a share of the first. It also reports the spread
of the serial median under each calibration mix (the detail's
op_p50_ms_by_loop_weight), the evidence for each workload's loop_weight.
--traced adds one traced run per workload. The JSON written holds every
run's last output line and detail. Seeds run from 1 upward.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(spec: dict, workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
           *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(result_line),
            "detail": json.loads(detail_line)["detail"]}


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def summarise(spec: dict, runs_by_set: list[list[dict]]) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sets = []
        for runs in runs_by_set:
            med, spr = spread([r["result"]["metrics"][name]["value"] for r in runs])
            sets.append({"median": med, "spread": spr, "spread_over_bound": spr / bound})
        first = sets[0]["median"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for s in sets[1:]:
            s["worse_than_first_set"] = sign * (s["median"] - first) / first if first else 0.0
        out[name] = {"bound": bound, "sets": sets}
    out["op_p50_ms_by_loop_weight"] = {
        w: [spread([r["detail"]["op_p50_ms_by_loop_weight"][w] for r in runs])[1]
            for runs in runs_by_set]
        for w in runs_by_set[0][0]["detail"]["op_p50_ms_by_loop_weight"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs (seeds) per set and workload")
    p.add_argument("--sets", type=int, default=1, help="sets of runs, each with fresh seeds")
    p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    p.add_argument("-o", "--output", default=None, help="JSON file to write")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for k in range(args.sets):
            first = 1 + k * args.runs
            sets.append([one_run(spec, workload, seed, 0, spec["run_seconds"])
                         for seed in range(first, first + args.runs)])
        entry = {"summary": summarise(spec, sets), "sets": sets}
        if args.traced:
            entry["traced"] = one_run(spec, workload, 1, 1, spec["run_seconds"])
        report["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            print(workload, name, json.dumps(s if name == "op_p50_ms_by_loop_weight"
                                             else s["sets"]), flush=True)
        if args.traced:
            m = entry["traced"]["result"]["metrics"]
            print(workload, "tracing overhead",
                  m["trace.overhead_frac"]["value"], flush=True)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
