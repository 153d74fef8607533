"""The three perfbench workloads: their inputs, ops, parallel phase and oracles.

Each workload runs a serial closed loop (one op at a time, in this process),
then runs the first ops again through two worker processes. The oracles are
definition-based checks written here; they do not call the package's own
error, hashing or discrepancy code.

This module imports multidist at the top, so run.py imports it only after it
has timed the package import.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import multiprocessing
import os
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import multidist as md
from multidist import cli, harness, serialize

TOL = 1e-9


@dataclasses.dataclass
class Phase:
    """What one phase produced: per op, its output or the exception text of an
    op that raised; the phase's time; and the kernel's two slowdowns around
    each op (serial phases) or each task (p2)."""

    outputs: list
    errors: list
    latencies: list  # seconds per op (p2: busy seconds per task in its worker)
    kernel: list  # (interpreter, memory) slowdown per op, see kernel_sample
    wall: float  # serial: time outside the ops (campaign epilogue); p2: the phase

    def slowdowns(self, loop_weight: float) -> list:
        """Per-op slowdown, the kernel's two parts mixed loop_weight : 1 - loop_weight."""
        return [loop_weight * a + (1.0 - loop_weight) * b for a, b in self.kernel]


def child_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# Calibration. The machine's speed drifts by tens of percent over seconds on a
# shared host. A fixed kernel, timed between ops, measures how much slower
# than nominal the machine runs at that moment; the end-to-end times are
# divided by it. The kernel is the benchmark's own code, so a change to the
# package cannot move it. It has an interpreter part (a Python loop over tiny
# numpy ops, like a Hedge round) and a memory part (passes over a 16 MiB
# array). Both are always timed; each workload mixes them by its loop_weight,
# and every run reports its serial median under other mixes too (run.py,
# detail "op_p50_ms_by_loop_weight"), which is the evidence for the weights.
_LOOP_A, _LOOP_B = np.arange(40.0), np.ones((16, 40))
_STREAM = np.zeros(1 << 21, dtype=np.int64)
LOOP_NOMINAL_S, STREAM_NOMINAL_S = 1.8e-3, 10.3e-3


def kernel_sample() -> tuple[float, float]:
    """The kernel's two parts, each as time now over its nominal time; 1.0
    is nominal speed."""
    t0 = perf_counter()
    w, s = _LOOP_A.copy(), 0
    for i in range(300):
        w = w * 1.0001
        s += int(np.argmax(_LOOP_B @ w)) + i * i % 7
        w = w / w.sum()
    t1 = perf_counter()
    np.add(_STREAM, 3, out=_STREAM)
    np.remainder(_STREAM, 1009, out=_STREAM)
    return (t1 - t0) / LOOP_NOMINAL_S, (perf_counter() - t1) / STREAM_NOMINAL_S


def _around(samples: list) -> list:
    """Per-op kernel slowdowns from the samples taken before and after each op."""
    return [((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0) for a, b in zip(samples, samples[1:])]


def _timed_loop(n: int, op, tracer=None) -> Phase:
    outputs, errors, latencies, samples = [], [], [], [kernel_sample()]
    for i in range(n):
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            outputs.append(op(i))
            errors.append(None)
        except Exception as exc:  # an op that raises is a failed op
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t0)
        samples.append(kernel_sample())
    return Phase(outputs, errors, latencies, _around(samples), 0.0)


def _ready(pause: float) -> int:
    time.sleep(pause)
    return os.getpid()


def _calibrated_task(task, args):
    t0 = perf_counter()
    before = kernel_sample()
    t1 = perf_counter()
    try:
        result, error = task(*args), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    t2 = perf_counter()
    after = kernel_sample()
    return result, error, t2 - t1, _around([before, after])[0], (t1 - t0) + (perf_counter() - t2)


def _pool_phase(task, arg_list) -> Phase:
    """Run task(*args) for each args through a pool of two forked workers.

    The workers are started before the clock starts. Each task is bracketed
    by calibration samples in its worker; the phase time excludes them (half
    their sum, as two workers overlap). Forked, not spawned: a spawn pool
    starts multiprocessing's resource tracker, a process that outlives the
    run, while a fork pool starts no process beyond its two workers, and
    join() waits for both.
    """
    pool = multiprocessing.get_context("fork").Pool(2)
    try:
        pids: set[int] = set()
        for _ in range(10):
            pids.update(pool.map(_ready, [0.05, 0.05], chunksize=1))
            if len(pids) == 2:
                break
        start = perf_counter()
        results = pool.starmap(_calibrated_task, [(task, args) for args in arg_list], chunksize=1)
        wall = perf_counter() - start
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    outputs, errors, op_s, slow, calibrating = zip(*results)
    return Phase(list(outputs), list(errors), list(op_s), list(slow),
                 wall - sum(calibrating) / 2.0)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _member_errors(mass: np.ndarray, eta: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """er_i(h) = sum_x D_i(x) * (eta_i(x) if h(x) = -1 else 1 - eta_i(x)),
    for every hypothesis row of labels (|H|, n) and member row of mass (k, n)."""
    neg = (np.atleast_2d(labels) == -1).astype(np.float64)
    return neg @ (mass * eta).T + (1.0 - neg) @ (mass * (1.0 - eta)).T


class Workload:
    """Sizing: a run does a fixed number of ops, derived from --seconds and the
    nominal op costs measured at the commit that defined the benchmark, so two
    commits compared at the same --seconds do the same work on the same
    inputs."""

    name = ""
    serial_op_s = 1.0  # nominal seconds per serial op
    p2_op_s = 1.0  # nominal wall seconds per op through two workers
    p2_fraction = 1.0  # share of the serial ops that the p2 phase runs again
    p2_runs_campaign = False  # whether the p2 phase goes through run_campaign
    loop_weight = 1.0  # calibration mix: interpreter part vs memory part

    def op_counts(self, seconds: float) -> tuple[int, int]:
        per_op = self.serial_op_s + self.p2_fraction * self.p2_op_s
        n1 = max(20, round(seconds / per_op))
        return n1, math.ceil(self.p2_fraction * n1)

    def setup(self, seed: int, n1: int, work: Path):
        """Make the inputs of n1 ops and warm up; returns the workload state."""
        raise NotImplementedError

    def serial(self, state, n: int, out: Path, tracer=None) -> Phase:
        raise NotImplementedError

    def parallel(self, state, n: int, out: Path) -> Phase:
        raise NotImplementedError

    def check(self, state, i: int, output) -> str | None:
        """Independent oracle for op i; returns what is wrong, or None."""
        raise NotImplementedError

    def same(self, ref, output) -> str | None:
        """Whether a re-run of an op (in the p2 or traced phase) reproduced the
        serial phase's output."""
        return None if ref == output else "output differs from the serial run"

    def corrupt(self, output):
        """A deliberately wrong copy of an output, for the self-test."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# campaign_small

class CampaignSmall(Workload):
    """run_campaign at the C06 configuration: fresh n=40, k=6, |H|=16 instance
    per trial, calibrated derandomization at eps = delta = 0.15, m = 5000,
    explicit rounding, out_dir set and timing off, so that the p1 and p2
    trials.csv files can be compared byte for byte."""

    name = "campaign_small"
    serial_op_s = 0.065
    p2_op_s = 0.042
    p2_fraction = 1.0
    p2_runs_campaign = True

    @staticmethod
    def config(master_seed: int):
        return md.CampaignConfig(
            gen_spec=md.GenSpec(domain_size=40, k=6, hypothesis_count=16, seed=master_seed),
            hedge=md.HedgeConfig(),
            derand=md.DerandConfig(eps=0.15, delta=0.15, mode="calibrated", m_override=5000),
            master_seed=master_seed,
        )

    def setup(self, seed, n1, work):
        md.run_campaign(self.config(child_seed(seed, 1 << 20)), trials=1, out_dir=work / "warm",
                        measure_time=False)
        return self.config(seed)

    def _probed_campaign(self, state, n, parallelism, out, after_trial):
        """run_campaign with a probe on the module attribute through which the
        campaign loop reaches run_trial; after_trial(fam, cls) runs after each
        trial, in whichever process ran it."""
        original = harness.run_trial

        def probe(fam, cls, *args, **kwargs):
            report = original(fam, cls, *args, **kwargs)
            after_trial(fam, cls)
            return report

        harness.run_trial = probe
        try:
            start = perf_counter()
            _, reports = md.run_campaign(state, trials=n, parallelism=parallelism,
                                         out_dir=out, measure_time=False)
            return start, perf_counter(), reports
        finally:
            harness.run_trial = original

    def serial(self, state, n, out, tracer=None):
        # The campaign is one call. The probe stamps the end of each trial,
        # keeps its instance for the oracle and takes a calibration sample;
        # trial i's latency runs from the end of that sample to the end of
        # trial i, so it covers instance generation too.
        ends, starts, samples, instances = [], [], [], []

        def after_trial(fam, cls):
            ends.append(perf_counter())
            instances.append((fam, cls))
            if tracer is not None:
                tracer.op_id = len(ends)
            samples.append(kernel_sample())
            starts.append(perf_counter())

        if tracer is not None:
            tracer.op_id = 0
        samples.append(kernel_sample())
        start, end, reports = self._probed_campaign(state, n, 1, out, after_trial)
        if len(ends) != len(reports):
            raise RuntimeError("the run_trial probe saw %d trials, the campaign returned %d"
                               % (len(ends), len(reports)))
        rows = self._rows(out)
        by_id = {r.trial_id: (r, fam, cls) for r, (fam, cls) in zip(reports, instances)}
        outputs = [(*by_id[i], rows.get(i)) if i in by_id else None for i in range(n)]
        errors = [None if i in by_id else f"trial {i} errored inside the campaign"
                  for i in range(n)]
        latencies = [b - a for a, b in zip([start] + starts, ends)]
        # the epilogue (trials.csv and summary.json) is outside every trial
        return Phase(outputs, errors, latencies, _around(samples), end - starts[-1])

    @staticmethod
    def _rows(out: Path) -> dict:
        """trials.csv as {trial id: (header line, row line)}, lines verbatim."""
        header, *lines = (out / "trials.csv").read_text().splitlines()
        return {int(line.split(",", 1)[0]): (header, line) for line in lines}

    def parallel(self, state, n, out):
        # run_campaign forks its workers, which inherit the probe; each worker
        # appends its calibration samples to a file of its own
        def after_trial(fam, cls):
            t0 = perf_counter()
            loop, stream = kernel_sample()
            with open(out / f"calibration-{os.getpid()}.txt", "a") as fh:
                fh.write(f"{t0!r} {loop!r} {stream!r} {perf_counter() - t0!r}\n")

        out.mkdir(parents=True)
        start, end, _ = self._probed_campaign(state, n, 2, out, after_trial)
        busy, slow, calibrating = [], [], 0.0
        for path in out.glob("calibration-*.txt"):
            free = start  # a worker's trial runs from the end of its last sample
            for line in path.read_text().splitlines():
                t0, loop, stream, spent = map(float, line.split())
                busy.append(t0 - free)
                slow.append((loop, stream))
                calibrating += spent
                free = t0 + spent
        rows = self._rows(out)
        return Phase([(None, None, None, rows.get(i)) for i in range(n)],
                     [None if i in rows else f"trial {i} missing" for i in range(n)],
                     busy, slow, end - start - calibrating / 2.0)

    def check(self, state, i, output):
        report, fam, cls, row = output
        if report.trial_id != i:
            return f"trial id {report.trial_id} in slot {i}"
        errs = _member_errors(fam.mass_matrix, fam.label_prob_matrix, cls.label_matrix)
        opt = float(errs.max(axis=1).min())
        if abs(opt - report.opt) > TOL:
            return f"opt {report.opt!r} but the definition gives {opt!r}"
        for name in ("opt", "randomized_error", "deterministic_error", "rounding_deviation"):
            if not 0.0 <= getattr(report, name) <= 1.0:
                return f"{name} = {getattr(report, name)!r} outside [0, 1]"
        cells = row[1].split(",") if row else []
        if not cells or cells[0] != str(i) or float(cells[2]) != report.opt:
            return f"trials.csv row {row!r} does not match the report"
        return None

    def same(self, ref, output):
        # byte identity of trials.csv (header and row), compared row by row
        # so that a difference is charged to the trial that has it
        return None if ref[3] == output[3] else f"trials.csv differs: {ref[3]} vs {output[3]}"

    def corrupt(self, output):
        report, fam, cls, row = output
        return (dataclasses.replace(report, opt=report.opt + 1e-6), fam, cls, row)


# --------------------------------------------------------------------------
# cli_wide

CLI_SHAPE = dict(domain_size=1000, k=24, hypothesis_count=128)


@dataclasses.dataclass
class CliState:
    seed: int
    paths: list  # instance file per op
    arrays: list  # (mass (k, n), eta (k, n), labels (|H|, n)) per op


def cli_session(instance: str, out: str, seed: int) -> dict:
    """One user session on one saved instance: sampling-mode learn, hash
    derandomization, exact eval. Returns exit codes, captured stdout and the
    written files' text."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    mix, clf, report = str(out / "mix.json"), str(out / "clf.json"), str(out / "eval.csv")
    s = str(seed)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes = [
            cli.main(["learn", instance, "--sampling", "--eps", "0.6", "--seed", s, "-o", mix]),
            cli.main(["derand", instance, "--rounding", "hash", "--mode", "calibrated",
                      "--m-override", "5000", "--eps", "0.6", "--delta", "0.2", "--seed", s,
                      "-o", clf]),
            cli.main(["eval", clf, instance, "-o", report]),
        ]
    return {"codes": codes, "stdout": buf.getvalue(),
            **{name: Path(p).read_text() for name, p in
               (("mix", mix), ("clf", clf), ("eval", report))}}


class CliWide(Workload):
    """The CLI session a user runs on one saved n=1000, k=24, |H|=128
    instance, with multidist.cli.main called in this process."""

    name = "cli_wide"
    serial_op_s = 0.41
    p2_op_s = 0.27
    p2_fraction = 0.6
    loop_weight = 0.75

    def setup(self, seed, n1, work):
        paths, arrays = [], []
        for i in range(n1 + 1):  # the last one is the warm-up's
            spec = md.GenSpec(**CLI_SHAPE, seed=child_seed(seed, i))
            fam, cls, _ = md.generate(spec)
            path = work / f"instance{i}.json"
            serialize.save_instance(path, fam, cls, spec)
            paths.append(str(path))
            arrays.append((fam.mass_matrix, fam.label_prob_matrix, cls.label_matrix))
        cli_session(paths[-1], str(work / "warm"), child_seed(seed, 1 << 20))
        return CliState(seed, paths[:-1], arrays[:-1])

    def _args(self, state, i, out):
        return state.paths[i], str(out / f"op{i}"), child_seed(state.seed, i, 1)

    def serial(self, state, n, out, tracer=None):
        return _timed_loop(n, lambda i: cli_session(*self._args(state, i, out)), tracer)

    def parallel(self, state, n, out):
        return _pool_phase(cli_session, [self._args(state, i, out) for i in range(n)])

    def check(self, state, i, output):
        if output["codes"] != [0, 0, 0]:
            return f"exit codes {output['codes']}"
        mass, eta, hyp = state.arrays[i]
        n = mass.shape[1]
        mix = json.loads(output["mix"])
        if err := _mixture_problem(mix, len(hyp)):
            return "learn: " + err
        clf = json.loads(output["clf"])
        p, coeffs = clf["prime"], clf["coefficients"]
        if clf["kind"] != "compact" or not _is_prime(p) or p <= n or clf["range_size"] != p:
            return f"classifier header {clf['kind']}, prime {p}"
        if len(coeffs) != clf["degree_r"] or len(coeffs) < 2 or len(coeffs) % 2:
            return f"degree {clf['degree_r']} with {len(coeffs)} coefficients"
        if not all(0 <= c < p for c in coeffs):
            return "hash coefficient outside [0, p)"
        if err := _mixture_problem(clf["randomized"], len(hyp)):
            return "derand: " + err
        table = {}
        for x, label in clf["t_table"]:
            if not 0 <= x < n or label not in (-1, 1) or x in table:
                return f"bad table entry {[x, label]}"
            table[x] = label
        labels = _compact_labels(clf, hyp, n, table)
        errs = _member_errors(mass, eta, labels)[0]
        row = next(csv.reader(io.StringIO(output["eval"].splitlines()[1])))
        got = [float(v) for v in row[2:-1]]
        if len(got) != len(errs) + 1 or max(abs(a - b) for a, b in zip(got, errs)) > TOL:
            return "eval per-member errors differ from the classifier's labels"
        if abs(got[-1] - errs.max()) > TOL:
            return f"eval worst_case {got[-1]!r}, labels give {errs.max()!r}"
        derand_line = [ln for ln in output["stdout"].splitlines() if ln.startswith("OPT=")]
        fields = dict(f.split("=") for f in derand_line[0].split())
        if abs(float(fields["deterministic"]) - errs.max()) > 5e-7 + TOL:
            return f"derand reported {fields['deterministic']}, eval finds {errs.max()!r}"
        return None

    def same(self, ref, output):
        for key in ("codes", "mix", "clf"):
            if ref[key] != output[key]:
                return f"{key} differs from the serial run"
        # eval.csv names the classifier's path, which differs between phases
        if [ln.split(",")[2:] for ln in ref["eval"].splitlines()] != \
                [ln.split(",")[2:] for ln in output["eval"].splitlines()]:
            return "eval differs from the serial run"
        return None

    def corrupt(self, output):
        header, row = output["eval"].splitlines()[:2]
        cells = row.split(",")
        cells[-2] = repr(float(cells[-2]) + 1e-6)
        return {**output, "eval": header + "\n" + ",".join(cells) + "\n"}


def _mixture_problem(doc: dict, class_size: int) -> str | None:
    support, weights = doc["support_indices"], doc["weights"]
    if len(support) != len(weights) or len(set(support)) != len(support):
        return "support and weights do not pair up"
    if not all(0 <= s < class_size for s in support) or min(weights) < 0:
        return "support index or weight out of range"
    if abs(math.fsum(weights) - 1.0) > TOL:
        return f"mixture weights sum to {math.fsum(weights)!r}"
    return None


def _compact_labels(clf: dict, hyp: np.ndarray, n: int, table: dict) -> np.ndarray:
    """Labels of a saved compact classifier, from its definition: table label
    where fixed, otherwise +1 iff q(x) + 1 <= Pr_F[f(x) = +1] * p, with q
    evaluated in Python integers and the comparison made exactly."""
    p, coeffs = clf["prime"], clf["coefficients"]
    mix = clf["randomized"]
    # the mixture's marginal, formed as the classifier defines it
    plus = (hyp[mix["support_indices"]] == 1).astype(np.float64)
    marginals = np.asarray(mix["weights"], dtype=np.float64) @ plus
    labels = np.empty(n, dtype=np.int8)
    for x in range(n):
        if x in table:
            labels[x] = table[x]
            continue
        q = 0
        for c in reversed(coeffs):
            q = (q * x + c) % p
        num, den = float(marginals[x]).as_integer_ratio()
        labels[x] = 1 if (q + 1) * den <= num * p else -1
    return labels


# --------------------------------------------------------------------------
# hardness_exact

TAIL_N, TAIL_R, TAIL_DRAWS = 64, 4, 100_000


@dataclasses.dataclass
class HardnessState:
    matrices: list
    tail_seeds: list


def hardness_op(matrix, tail_seed: int) -> dict:
    """Both exact discrepancy oracles on one n=18 matrix, then the
    limited-independence tail check at the default prime (as hashcheck and
    the C10 acceptance test run it)."""
    z, inf_norm, two_norm = md.bruteforce_min_discrepancy(matrix)
    min_det = md.min_deterministic_error(md.ReductionFamily(matrix))
    tail = md.empirical_tail_bound_check(
        md.TailCheckConfig(n=TAIL_N, r=TAIL_R, draws=TAIL_DRAWS, seed=tail_seed))
    return {
        "z": z.z.tolist(), "inf": inf_norm, "two": two_norm,
        "min_det": (min_det.numerator, min_det.denominator),
        "prime": tail.config.prime, "threshold": tail.config.threshold,
        "mean": tail.mean, "variance": tail.variance, "ok": tail.ok,
        "rows": [(r.t, r.observed, r.bound, r.ok) for r in tail.rows],
    }


class HardnessExact(Workload):
    """Exact discrepancy and hash-tail oracles; no learner, metrics or derand."""

    name = "hardness_exact"
    serial_op_s = 0.50
    p2_op_s = 0.28
    p2_fraction = 0.6
    loop_weight = 0.25  # the tail check streams 50 MB arrays

    def setup(self, seed, n1, work):
        matrices = [md.planted_high_discrepancy_matrix(18, np.random.default_rng([seed, i]))
                    for i in range(n1 + 1)]
        seeds = [child_seed(seed, i) for i in range(n1 + 1)]
        hardness_op(matrices[-1], seeds[-1])  # warm-up
        return HardnessState(matrices[:-1], seeds[:-1])

    def serial(self, state, n, out, tracer=None):
        return _timed_loop(n, lambda i: hardness_op(state.matrices[i], state.tail_seeds[i]),
                           tracer)

    def parallel(self, state, n, out):
        return _pool_phase(hardness_op, [(state.matrices[i], state.tail_seeds[i])
                                         for i in range(n)])

    def check(self, state, i, output):
        a = state.matrices[i].entries.astype(np.int64)
        z = np.asarray(output["z"], dtype=np.int64)
        if z.shape != (a.shape[0],) or not np.all(np.abs(z) == 1):
            return "coloring is not a +-1 vector of the right length"
        az = a @ z
        if int(np.abs(az).max()) != output["inf"]:
            return f"|Az|_inf is {int(np.abs(az).max())}, reported {output['inf']}"
        if abs(math.sqrt(float(az @ az)) - output["two"]) > TOL * max(1.0, output["two"]):
            return f"|Az|_2 reported {output['two']!r}"
        if output["inf"] < 2:
            return "a planted high-discrepancy matrix reported |Az|_inf < 2"
        m = a.sum(axis=1)
        min_det = Fraction(*output["min_det"])
        lower = Fraction(1, 2) + Fraction(output["inf"], 2 * int(m.max()))
        upper = max(Fraction(1, 2) + Fraction(abs(int(d)), 2 * int(mi)) for d, mi in zip(az, m))
        if not lower <= min_det <= upper:
            return f"min deterministic error {min_det} outside [{lower}, {upper}]"
        p = next(c for c in range(TAIL_N + 1, 4 * TAIL_N) if _is_prime(c))
        thr = p // 2
        if (output["prime"], output["threshold"]) != (p, thr):
            return f"tail check ran at ({output['prime']}, {output['threshold']}), default is ({p}, {thr})"
        mu = thr / p
        if abs(output["mean"] - TAIL_N * mu) > TOL or \
                abs(output["variance"] - TAIL_N * mu * (1 - mu)) > TOL:
            return "tail report mean or variance differs from n*thr/p, n*(thr/p)(1-thr/p)"
        if not output["ok"] or len(output["rows"]) != 3 or \
                not all(0.0 <= r[1] <= 1.0 for r in output["rows"]):
            return f"tail rows {output['rows']}"
        return None

    def corrupt(self, output):
        return {**output, "inf": output["inf"] + 1}


WORKLOADS = {w.name: w for w in (CampaignSmall(), CliWide(), HardnessExact())}
