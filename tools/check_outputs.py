"""Check a tree's outputs on one fixed suite against committed digests or another tree.

    python3 tools/check_outputs.py --check
    python3 tools/check_outputs.py --write
    python3 tools/check_outputs.py --parent ../parent-checkout

A tree runs the suite below in one fresh interpreter, with that tree's src
first on PYTHONPATH, in an empty work directory of its own, so every output
path is the same relative path in every run (eval.csv's path columns match).
It leaves 88 files; a command's stdout and stderr, followed by its exit code,
are kept as <name>.out (a command that raises, as its exception's last line
and exit 1). --check runs the suite on the tree holding this script and
compares the SHA-256 digest of each file with tools/outputs.sha256, one
"name digest" line per output; --write writes that file from the same run. --parent runs the suite on both trees and compares each file byte for
byte. The script prints the outputs it compared and exits 0 when all are
identical, or exits 1 listing each that differs or exists on one side only.
The suite:

- demos 01-05, stdout;
- trial: a 200-trial C06 campaign (n = 40, k = 6, |H| = 16, calibrated
  eps = delta = 0.15, m = 5000, seed 606, --no-timing) at parallelism 1
  and 2: stdout, trials.csv and the summary;
- trial: an 800-trial campaign of the same C06 flags at parallelism 1, whose
  mixtures are learned in two batches of rolling_mixtures (520 runs, then
  280): trial_long.out, trial_long/trials.csv and trial_long/summary.json;
- trial --rounding hash: a 40-trial campaign of the same C06 flags, whose
  trials round by one hash degree and prime, (12, 1511), chosen once for the
  campaign, at parallelism 1 and 2: stdout, trials.csv and the summary;
- on a gen --domain-size 1000 -k 24 --hypotheses 128 instance: learn, exact
  and --sampling, with --trace; derand, explicit and --rounding hash, with
  the report row less its wall_time column; eval of both classifiers;
  derand --rounding hash --m-override 1, one draw per member, whose
  compact classifier has an empty t_table;
- eval of the explicit classifier on that instance rewritten five ways, stdout:
  with compact separators (the loader's label route reads it), with every
  label written as 1.0 (the route defers and orjson reads it as a whole),
  with one label written as true (rejected, exit 2), with member 1's masses
  times 0.9 (rejected as an invalid instance naming member 1, exit 2) and
  with every mass row and the shared label vector cut to 999 entries (the
  domain_size message wins over the invalid masses, exit 2);
- derand, stdout, on that instance rewritten with member 1's label_one_prob
  one minus the shared vector: rejected as not label-consistent, exit 2,
  before it learns, with no classifier written;
- eval, stdout and CSV, of the hash classifier rewritten with prime and
  range_size next_prime(2^54 + 1), where the evaluator works in Python
  integers and fl(q) + 1 is not exact;
- eval of the explicit classifier, stdout and CSV, on inst.json rewritten in
  place with members 0 and 1 swapped, the same number of bytes, after the
  evals above loaded it in the same process (then the file is restored); the
  CSV's per-member errors show the swap, which the printed worst case does
  not;
- learn --sampling --trace --rounds 57 --erm-samples 37 (rounds that are not
  a whole number of draw blocks) on a C06-shape gen instance and on a gen
  --kind heavy_point_probe --heavy-count 2 instance, whose members other
  than the first put zero mass on the heavy points;
- learn --trace --rounds 600, exact, on that C06-shape instance: a stack of
  one whose choices are tallied in blocks of 256 rounds, the last partial;
- derand of that C06-shape instance at the default --mode theory, eps 0.3 and
  delta 0.2, explicit and --rounding hash, with the report row less its
  wall_time column; eval of both classifiers. The paper's sample size is
  m = 1,596 draws per member for explicit rounding and 38,237 for hash
  rounding, more than a block of BLOCK_DRAWS = 32,768: the hash run tallies
  each member in blocks, keeping none of its points;
- gen --kind gap_example -k 5 and gen --kind bayes_in_class, the instance
  files. A spec records its instance's shape, so gap.json's gen_spec holds
  domain_size = hypothesis_count = 5, not the flags' defaults 40 and 16, and
  heavy.json's (the probe above) holds hypothesis_count 1;
- hashcheck, stdout, at its defaults; at --n 256 --r 6 --draws 70001
  --seed 5 (the first n counted in uint16, p = 257 past the uint8
  differences, and a last block of draws that is partial); at --n 3000
  --r 4 --draws 40 --seed 7 (p = 3001, differences in uint16, over 47 runs
  of 64 and 63 keys); at --n 1048577 --draws 1, one key past
  TAIL_KEYS_LIMIT, rejected with exit 2 before any check; and at --n 64
  --r 200 --draws 10, whose bound at the smallest deviation passes every
  float and is printed as inf, a vacuous bound the check passes, and whose
  finite bounds at the larger deviations, 1e6 and more, are printed in
  exponent notation (%.6e, not 250 digits of fixed point);
- disc gen (planted zero, n = 12), then solve, reduce and distinguish (with
  the planted coloring) on that matrix.

Where the writer's array path runs: every instance file (inst.json, c06.json,
heavy.json, gap.json, bayes.json, reduction.json) writes its masses, label
vectors and label matrix from arrays, every mixture file (mix_*.json) its
weights, clf_explicit.json and clf_c06_theory_explicit.json their labels,
clf_hash.json and clf_c06_theory_hash.json their t_tables and weights, and
clf_empty_table.json its weights, its t_table being an array of
shape (0, 2), written as its empty list; the summaries and the other lists in
those files take the per-item path. The int8 arrays of 1 and -1 take the
label path, eight labels per table lookup: every instance file's label
matrix, in whole bytes in inst.json (width 1000) and c06.json, heavy.json
and bayes.json (40), with a partial last byte in gap.json (5) and
reduction.json (12), and the 1-D labels of clf_explicit.json (1000) and
clf_c06_theory_explicit.json (40); the masses, label vectors, weights and
t_tables take orjson.

Where the one-entry paths run: every output goes through error_matrix;
demos 01-05 call the package's public names, demo 04 unpacking run_trial's
(report, result) pair; derand_* goes through run_trial; the suite runs in
one interpreter, so learn_exact and learn_sampling share one class error
matrix, the one metrics.class_errors keeps on the family of the instance
file the loader kept, and derand_explicit and derand_hash share another
(learn_c06_*, learn_heavy_* and the c06_theory runs load other files between
them); trial_p* reads the matrix its Hedge stack loaded; learn_*_sampling
through _errors, the array core of sampling-mode Hedge; gen_heavy through
_heaviness, which heavy_coverage also reads; trial_p* and trial_hash_p*
through heavy_coverage's bayes_labels signs (the heavy_covered column) and the
summary's passed flag, derived from the predicate summaries.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "outputs.sha256"
DEMOS = ("01_mixture_vs_single_classifier", "02_hardness_from_discrepancy",
         "03_derandomization_pipeline", "04_compact_hash_classifier", "05_tail_bound_check")
C06 = ["--domain-size", "40", "-k", "6", "--hypotheses", "16", "--eps", "0.15",
       "--delta", "0.15", "--mode", "calibrated", "--m-override", "5000", "--seed", "606",
       "--no-timing"]
# next_prime(2**54 + 1)
BIG_PRIME = 18014398509482143
DERAND = ["--mode", "calibrated", "--m-override", "5000", "--eps", "0.6", "--delta", "0.2",
          "--seed", "7"]


def run_suite(tree: Path) -> None:
    """Run the suite in the current directory, importing multidist from tree."""
    import multidist
    from multidist import cli

    if Path(multidist.__file__).resolve().parent != (tree / "src" / "multidist").resolve():
        raise SystemExit(f"imported multidist from {multidist.__file__}, not from {tree}")

    def record(name: str, call) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = call()
            except SystemExit as exc:  # argparse, or a demo's exit
                code = exc.code
            except Exception as exc:  # a process of its own ends in a traceback, exit 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        Path(f"{name}.out").write_text(f"{out.getvalue()}exit {code}\n")
        return out.getvalue()

    def verb(name: str, *argv: str) -> str:
        return record(name, lambda: cli.main(list(argv)))

    def demo(name: str) -> int:
        runpy.run_path(str(tree / "demos" / f"{name}.py"), run_name="__main__")
        return 0

    def derand_and_eval(name: str, instance: str, *argv: str) -> None:
        """derand, its report row less wall_time, then eval of its classifier."""
        report = Path(f"derand_{name}_row.csv")
        verb(f"derand_{name}", "derand", instance, *argv, "--report", str(report),
             "-o", f"clf_{name}.json")
        if report.exists():
            with report.open(newline="") as fh:
                rows = list(csv.reader(fh))
            keep = [i for i, col in enumerate(rows[0]) if col != "wall_time"]
            with report.open("w", newline="") as fh:
                csv.writer(fh).writerows([row[i] for i in keep] for row in rows)
        verb(f"eval_{name}", "eval", f"clf_{name}.json", instance, "-o", f"eval_{name}.csv")

    for name in DEMOS:
        record(f"demo_{name[:2]}", lambda: demo(name))
    for par in ("1", "2"):
        verb(f"trial_p{par}", "trial", "--trials", "200", "--parallelism", par,
             "--outdir", f"trial_p{par}", *C06)
    verb("trial_long", "trial", "--trials", "800", "--parallelism", "1",
         "--outdir", "trial_long", *C06)
    for par in ("1", "2"):
        verb(f"trial_hash_p{par}", "trial", "--trials", "40", "--parallelism", par,
             "--rounding", "hash", "--outdir", f"trial_hash_p{par}", *C06)
    verb("gen", "gen", "--domain-size", "1000", "-k", "24", "--hypotheses", "128",
         "--seed", "5", "-o", "inst.json")
    verb("learn_exact", "learn", "inst.json", "--eps", "0.6", "--seed", "7",
         "--trace", "learn_exact_trace.csv", "-o", "mix_exact.json")
    verb("learn_sampling", "learn", "inst.json", "--sampling", "--eps", "0.6", "--seed", "7",
         "--trace", "learn_sampling_trace.csv", "-o", "mix_sampling.json")
    for name, kind in (("c06", []), ("heavy", ["--kind", "heavy_point_probe", "--heavy-count", "2"])):
        verb(f"gen_{name}", "gen", *kind, "--seed", "3", "-o", f"{name}.json")
        verb(f"learn_{name}_sampling", "learn", f"{name}.json", "--sampling", "--eps", "0.3",
             "--rounds", "57", "--erm-samples", "37", "--seed", "7",
             "--trace", f"learn_{name}_sampling_trace.csv", "-o", f"mix_{name}_sampling.json")
    verb("learn_c06_exact", "learn", "c06.json", "--eps", "0.3", "--rounds", "600",
         "--trace", "learn_c06_exact_trace.csv", "-o", "mix_c06_exact.json")
    for rounding in ("explicit", "hash"):
        derand_and_eval(f"c06_theory_{rounding}", "c06.json", "--rounding", rounding,
                        "--eps", "0.3", "--delta", "0.2")
    for rounding in ("explicit", "hash"):
        derand_and_eval(rounding, "inst.json", "--rounding", rounding, *DERAND)
    # one draw per member: no skew clears the threshold, and t_table is empty
    verb("derand_empty_table", "derand", "inst.json", "--rounding", "hash", "--mode",
         "calibrated", "--m-override", "1", "--eps", "0.6", "--delta", "0.2",
         "-o", "clf_empty_table.json")
    # the hash classifier with its prime moved above 2^53, where hash values
    # are evaluated in Python integers and q + 1 is not always a float
    clf = json.loads(Path("clf_hash.json").read_text())
    big_prime = Path("clf_hash_big_prime.json")
    big_prime.write_text(json.dumps({**clf, "prime": BIG_PRIME, "range_size": BIG_PRIME}))
    verb("eval_hash_big_prime", "eval", str(big_prime), "inst.json",
         "-o", "eval_hash_big_prime.csv")
    big_prime.unlink()
    instance = Path("inst.json")
    doc = json.loads(instance.read_text())
    labels, members = doc["hypotheses"], doc["distributions"]
    # the file this process last loaded, rewritten at its path and length:
    # the loader must read the new members, not the old file's
    original = instance.read_bytes()
    instance.write_text(json.dumps(
        {**doc, "distributions": [members[1], members[0], *members[2:]]}, indent=1))
    verb("eval_inst_swapped_in_place", "eval", "clf_explicit.json", str(instance),
         "-o", "eval_inst_swapped_in_place.csv")
    instance.write_bytes(original)
    for name, text in (
            ("compact", json.dumps(doc, separators=(",", ":"))),
            ("float_labels", json.dumps(
                {**doc, "hypotheses": [[float(v) for v in row] for row in labels]}, indent=1)),
            ("bool_label", json.dumps(
                {**doc, "hypotheses": [[True] + labels[0][1:]] + labels[1:]}, indent=1)),
            ("scaled_mass", json.dumps(
                {**doc, "distributions": [members[0], {**members[1], "mass": [
                    m * 0.9 for m in members[1]["mass"]]}, *members[2:]]}, indent=1)),
            ("cut_rows", json.dumps(
                {**doc, "distributions": [{**d, "mass": d["mass"][:999]} for d in members],
                 "shared_label_one_prob": doc["shared_label_one_prob"][:999]}, indent=1))):
        # the rewritten file is this script's, not the tree's: only the eval is compared
        rewritten = Path(f"inst_{name}.json")
        rewritten.write_text(text)
        verb(f"eval_inst_{name}", "eval", "clf_explicit.json", str(rewritten))
        rewritten.unlink()
    flipped = [1 - p for p in doc["shared_label_one_prob"]]
    inconsistent = Path("inst_inconsistent.json")
    inconsistent.write_text(json.dumps({**doc, "distributions": [
        members[0], {**members[1], "label_one_prob": flipped}, *members[2:]]}, indent=1))
    verb("derand_inst_inconsistent", "derand", str(inconsistent), *DERAND,
         "-o", "clf_inst_inconsistent.json")
    inconsistent.unlink()
    verb("gen_gap", "gen", "--kind", "gap_example", "-k", "5", "-o", "gap.json")
    verb("gen_bayes", "gen", "--kind", "bayes_in_class", "--seed", "4", "-o", "bayes.json")
    verb("hashcheck", "hashcheck")
    verb("hashcheck_n256", "hashcheck", "--n", "256", "--r", "6", "--draws", "70001",
         "--seed", "5")
    verb("hashcheck_n3000", "hashcheck", "--n", "3000", "--r", "4", "--draws", "40",
         "--seed", "7")
    verb("hashcheck_n1048577", "hashcheck", "--n", "1048577", "--draws", "1")
    verb("hashcheck_r200", "hashcheck", "--n", "64", "--r", "200", "--draws", "10")
    planted = verb("disc_gen", "disc", "gen", "--n", "12", "--planted", "zero", "--seed", "2",
                   "-o", "A.txt")
    # a tree that prints no planted coloring still runs distinguish; disc_gen.out
    # shows the difference
    coloring = next((line.split(":", 1)[1].split() for line in planted.splitlines()
                     if line.startswith("planted coloring:")), ["1"] * 12)
    verb("disc_solve", "disc", "solve", "A.txt")
    verb("disc_reduce", "disc", "reduce", "A.txt", "-o", "reduction.json")
    verb("disc_distinguish", "disc", "distinguish", "A.txt", f"--labels={','.join(coloring)}",
         "--eps", "0.144")


def suite_outputs(tree: Path, work: Path) -> dict[str, bytes]:
    """Every file the suite leaves when tree runs it in work, by relative path."""
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, __file__, "--child", str(tree)], cwd=work, env=env,
                   check=True)
    return {f.relative_to(work).as_posix(): f.read_bytes()
            for f in sorted(work.rglob("*")) if f.is_file()}


def first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return f"line {i + 1}"
    return f"{len(lines_a)} vs {len(lines_b)} lines"


def compare(got: dict, want: dict, sides: tuple[str, str], differs) -> int:
    """Print each output's status, got against want; differs(a, b) describes
    a difference. 0 when every output is in both and identical, else 1."""
    status = {}
    for name in sorted(set(got) | set(want)):
        a, b = got.get(name), want.get(name)
        status[name] = (f"only in {sides[1]}" if a is None else f"only in {sides[0]}"
                        if b is None else None if a == b else differs(a, b))
        print(f"{'DIFFERS' if status[name] else 'same   '} {name}")
    differ = [f"{name}: {problem}" for name, problem in status.items() if problem]
    if differ:
        print(f"\n{len(differ)} of {len(status)} outputs differ:", *differ, sep="\n  ")
        return 1
    print(f"\nall {len(status)} outputs byte-identical")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help=f"compare this tree's outputs with the digests in {MANIFEST.name}")
    mode.add_argument("--write", action="store_true",
                      help=f"write this tree's output digests to {MANIFEST.name}")
    mode.add_argument("--parent", type=Path,
                      help="root of the source tree to compare against")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        files = suite_outputs(ROOT, Path(tmp) / "change")
        if args.parent:
            parent = suite_outputs(args.parent.resolve(), Path(tmp) / "parent")
            return compare(files, parent, ("change", "parent"),
                           lambda a, b: f"differs at {first_difference(a, b)}")
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    if args.write:
        MANIFEST.write_text("".join(f"{name} {digest}\n" for name, digest in digests.items()))
        print(f"wrote {len(digests)} digests to {MANIFEST}")
        return 0
    want = dict(line.split(" ") for line in MANIFEST.read_text().splitlines())
    return compare(digests, want, ("this tree", MANIFEST.name), lambda a, b: "differs")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:  # one suite interpreter, started by suite_outputs
        run_suite(Path(sys.argv[2]))
    else:
        sys.exit(main())
