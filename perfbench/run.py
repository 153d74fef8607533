"""multidist benchmark: one seeded workload per run, checked by oracles.

    python3 perfbench/run.py --workload campaign_small --seed 1 --seconds 16 --trace 0

Run it from the root of a source checkout; it imports the package from src/
and writes scratch files under .perfbench_work/ (removed at the end of the
run) and span files under .perfbench_out/. With --trace 0 the last line of
standard output is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. The line before it
holds the run's detail: op counts, phase times, self-test and manifest.
perfbench/NOTES.md defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBES = 9
# set-up runs at least SETUP_MIN times, and more (up to SETUP_MAX) until
# SETUP_BUDGET_S seconds of set-up have been measured
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
CALIBRATION_MIXES = (1.0, 0.75, 0.5, 0.25, 0.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="campaign_small, cli_wide or hardness_exact")
    p.add_argument("--seed", type=int, default=0, help="workload seed; inputs derive from it")
    p.add_argument("--seconds", type=float, required=True,
                   help="sizes the run: ops are chosen to take about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    return p.parse_args(argv)


MODULES = ("multidist", "multidist.cli", "multidist.serialize")
# A fresh interpreter times the import between two runs of a pure-Python
# kernel, so the import is calibrated in the process that does it (the
# kernel in workloads.py needs numpy, which the import must load first).
IMPORT_PROBE = """
import importlib, sys, time
def kernel():
    t, s = time.perf_counter(), 0
    for i in range(100000):
        s += i * i % 7
    return time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
before = kernel()
t = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
t = time.perf_counter() - t
print(t, before, kernel())
"""
PROBE_KERNEL_NOMINAL_S = 6.5e-3  # the probe kernel's time at nominal speed


def import_package() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    for name in MODULES:
        importlib.import_module(name)
    origin = Path(sys.modules["multidist"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"multidist was imported from {origin}, not from this checkout")


def import_times() -> tuple[list[float], list[float]]:
    """The package's import time in IMPORT_PROBES fresh interpreters (an
    import happens once per process): raw, and divided by each probe's own
    kernel slowdown."""
    raw, calibrated = [], []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), *MODULES],
                               cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        t, before, after = map(float, probe.stdout.split())
        raw.append(t)
        calibrated.append(t / ((before + after) / 2.0 / PROBE_KERNEL_NOMINAL_S))
    return raw, calibrated


def machine_slowdown(loop_weight: float) -> float:
    """The slowdown now, as the median of five kernel samples: set-up is
    timed in few, long pieces, so one sample per piece is too noisy."""
    from workloads import kernel_sample

    return statistics.median(loop_weight * a + (1.0 - loop_weight) * b
                             for a, b in (kernel_sample() for _ in range(5)))


def timed_setup(wl, seed: int, n1: int, work: Path, least: int, most: int):
    """Set the workload up at least `least` times, and up to `most` times
    while under SETUP_BUDGET_S; returns the last state, and the raw and
    calibrated seconds of each repeat."""
    raw, calibrated = [], []
    while len(raw) < least or (len(raw) < most and sum(raw) < SETUP_BUDGET_S):
        rep = len(raw)
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
        (work / f"setup{rep}").mkdir()
        before = machine_slowdown(wl.loop_weight)
        start = perf_counter()
        state = wl.setup(seed, n1, work / f"setup{rep}")
        raw.append(perf_counter() - start)
        calibrated.append(raw[-1] / ((before + machine_slowdown(wl.loop_weight)) / 2))
    return state, raw, calibrated


def manifest(load_at_start) -> dict:
    import numpy

    src = ROOT / "src" / "multidist"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "pinning": "CPUs and clock frequency are not pinned on this machine; figures are "
                   "medians over many ops and runs",
    }


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it: the latency
    that exactly ten ops exceed (the median when there are fewer than twenty
    ops). Returns (value, percentile)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def serial_figures(phase, loop_weight: float) -> tuple[list[float], float]:
    """Calibrated op latencies (ms) and ops per second of a serial phase:
    each op's time divided by the machine's slowdown around it."""
    slow = phase.slowdowns(loop_weight)
    lat = [t / f for t, f in zip(phase.latencies, slow)]
    busy = sum(lat) + phase.wall / slow[-1]
    return [t * 1000.0 for t in lat], len(lat) / busy


def calibrated_share(phase, loop_weight: float) -> float:
    """Calibrated over raw busy time of a p2 phase: each task's busy time is
    divided by the slowdown sampled around it in its worker."""
    slow = phase.slowdowns(loop_weight)
    return sum(t / f for t, f in zip(phase.latencies, slow)) / sum(phase.latencies)


def count_failures(wl, state, outputs, errors, ref=None) -> list[str]:
    """One entry per failed op: it raised, or its oracle (ref is None) or its
    comparison with the serial run's output (ref given) rejected it."""
    failures = []
    for i, (output, error) in enumerate(zip(outputs, errors)):
        if error is None:
            try:
                if ref is None:
                    error = wl.check(state, i, output)
                elif ref[i] is None:
                    error = "no serial output to compare with"
                else:
                    error = wl.same(ref[i], output)
            except Exception as exc:  # malformed output: the oracle could not read it
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"op {i}: {error}")
    return failures


def run(args) -> tuple[dict, dict]:
    load_at_start = list(os.getloadavg())
    import_package()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    n1, n2 = wl.op_counts(args.seconds)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    try:
        import_raw, import_cal = map(statistics.median, import_times())
        state, setup_raw, setup_norm = timed_setup(
            wl, args.seed, n1, work, *((1, 1) if args.trace else (SETUP_MIN, SETUP_MAX)))

        p1 = wl.serial(state, n1, work / "p1")
        p2 = wl.parallel(state, n2, work / "p2")
        failures = count_failures(wl, state, p1.outputs, p1.errors)
        failures += count_failures(wl, state, p2.outputs, p2.errors, ref=p1.outputs)
        attempted = n1 + n2
        # a wrong output and one the oracle cannot read must both count as failed
        corrupted = wl.corrupt(p1.outputs[0]) if p1.errors[0] is None else None
        selftest = corrupted is not None and \
            len(count_failures(wl, state, [corrupted, "malformed"], [None, None])) == 2
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = wl.serial(state, n1, work / "p1_traced", tracer)
            finally:
                tracer.uninstall()
            failures += count_failures(wl, state, traced.outputs, traced.errors, ref=p1.outputs)
            attempted += n1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat_ms, ops_per_s = serial_figures(p1, wl.loop_weight)
    tail_ms, tail_pct = tail(lat_ms)
    p2_share = calibrated_share(p2, wl.loop_weight)
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": {"serial": n1, "p2": n2, "completed_serial": len(lat_ms)},
        "op_tail": {"percentile": tail_pct, "ops": len(lat_ms)},
        "loop_weight": wl.loop_weight,
        "slowdown_median": {"serial": statistics.median(p1.slowdowns(wl.loop_weight)),
                            "p2": statistics.median(p2.slowdowns(wl.loop_weight))},
        "p2_calibrated_share": p2_share,
        # the serial median under each calibration mix: prove.py compares
        # their spreads over runs, which is how loop_weight was chosen
        "op_p50_ms_by_loop_weight": {str(w): statistics.median(serial_figures(p1, w)[0])
                                     for w in CALIBRATION_MIXES},
        "raw": {
            "ops_per_s": n1 / (sum(p1.latencies) + p1.wall),
            "op_p50_ms": statistics.median(p1.latencies) * 1000.0,
            "op_tail_ms": tail([s * 1000.0 for s in p1.latencies])[0],
            "ops_per_s_p2": n2 / p2.wall,
            "setup_s": import_raw + statistics.median(setup_raw),
        },
        "setup_s": {"import": import_cal, "repeats": setup_norm},
        "selftest_corrupted_output_counted_failed": selftest,
        "failures": failures[:10],
        "manifest": manifest(load_at_start),
    }
    if args.trace:
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{wl.name}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        traced_rate = serial_figures(traced, wl.loop_weight)[1]
        metrics = tracer.layer_metrics(n1)
        metrics |= {
            # what run_campaign's pool costs: the p2 time beyond half the
            # workers' busy time. Both terms come from the same phase, so
            # drift cancels. Raw times: calibration would also cancel the
            # slowdown the two workers cause each other. 0 where p2 does not
            # go through run_campaign (the bypass reading).
            "harness.pool_overhead_s": (p2.wall - sum(p2.latencies) / 2.0
                                        if wl.p2_runs_campaign else 0.0, "s"),
            "trace.ops_per_s_untraced": (ops_per_s, "1/s"),
            "trace.ops_per_s_traced": (traced_rate, "1/s"),
            "trace.overhead_frac": (1.0 - traced_rate / ops_per_s, "ratio"),
        }
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["slowdown_median"]["traced"] = statistics.median(traced.slowdowns(wl.loop_weight))
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "ops_per_s_p2": (n2 / (p2.wall * p2_share), "1/s"),
            "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
            "setup_s": (import_cal + statistics.median(setup_norm), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not failures and selftest,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "multidist" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'multidist'}; "
              "run from a multidist source checkout", file=sys.stderr)
        return 2
    result, detail = run(args)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
