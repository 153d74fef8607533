import argparse
import csv
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multidist as md
from multidist import cli, harness, learner, metrics, serialize
from multidist.cli import main


def run_cli_process(argv, cwd=None):
    """argv run as a fresh `python -m multidist.cli` process on this tree's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "multidist.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=env, cwd=cwd)


def test_gen_learn_derand_eval_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "20", "-k", "3", "--hypotheses", "8",
                 "--seed", "5", "-o", str(inst)]) == 0

    mix = tmp_path / "mix.json"
    trace = tmp_path / "trace.csv"
    assert main(["learn", str(inst), "--eps", "0.2", "--seed", "1",
                 "--trace", str(trace), "-o", str(mix)]) == 0
    fam, cls, _ = serialize.load_instance(inst)
    F = serialize.load_randomized(mix, cls)
    assert abs(F.weights.sum() - 1.0) <= md.model.WEIGHT_TOL
    rows = list(csv.reader(trace.open()))
    assert rows[0][0] == "round" and len(rows) > 1

    clf_path = tmp_path / "clf.json"
    report_path = tmp_path / "row.csv"
    assert main(["derand", str(inst), "--eps", "0.2", "--delta", "0.2",
                 "--mode", "calibrated", "--m-override", "1000",
                 "--seed", "2", "--report", str(report_path), "-o", str(clf_path)]) == 0
    clf = serialize.load_classifier(clf_path, cls)
    assert isinstance(clf, md.ExplicitClassifier)
    rows = list(csv.reader(report_path.open()))
    assert rows[0] == list(md.TrialReport.CSV_FIELDS)

    out_csv = tmp_path / "eval.csv"
    assert main(["eval", str(clf_path), str(inst), "-o", str(out_csv)]) == 0
    rows = list(csv.reader(out_csv.open()))
    assert len(rows) == 2 and rows[0][-1] == "argmax_index"


def test_derand_hash_rounding_writes_compact(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
          "--seed", "3", "-o", str(inst)])
    clf_path = tmp_path / "clf.json"
    assert main(["derand", str(inst), "--eps", "0.25", "--delta", "0.25",
                 "--mode", "calibrated", "--m-override", "800",
                 "--rounding", "hash", "--seed", "4", "-o", str(clf_path)]) == 0
    doc = json.loads(clf_path.read_text())
    assert doc["kind"] == "compact"
    assert doc["degree_r"] % 2 == 0
    fam, cls, _ = serialize.load_instance(inst)
    clf = serialize.load_classifier(clf_path, cls)
    assert set(np.unique(clf.label_vector())) <= {-1, 1}


def test_disc_workflow(tmp_path):
    mat = tmp_path / "A.txt"
    assert main(["disc", "gen", "--n", "10", "--planted", "zero",
                 "--seed", "7", "-o", str(mat)]) == 0
    assert main(["disc", "solve", str(mat)]) == 0

    inst = tmp_path / "red.json"
    assert main(["disc", "reduce", str(mat), "-o", str(inst)]) == 0
    fam, cls, _ = serialize.load_instance(inst)
    assert fam.k == 20 and len(cls) == 2**10

    A = serialize.load_matrix(mat)
    zc, inf_n, _ = md.bruteforce_min_discrepancy(A)
    labels = ",".join(str(int(v)) for v in zc.z)
    assert inf_n == 0
    assert main(["disc", "distinguish", str(mat), f"--labels={labels}",
                 "--eps", "0.1443"]) == 0

    high = tmp_path / "H.txt"
    assert main(["disc", "gen", "--n", "10", "--planted", "high",
                 "--seed", "8", "-o", str(high)]) == 0
    H = serialize.load_matrix(high)
    zc2, _, _ = md.bruteforce_min_discrepancy(H)
    labels = ",".join(str(int(v)) for v in zc2.z)
    assert main(["disc", "distinguish", str(high), f"--labels={labels}",
                 "--eps", "0.1443"]) == 1


def test_trial_campaign_cli(tmp_path):
    outdir = tmp_path / "campaign"
    rc = main(["trial", "--domain-size", "20", "-k", "3", "--hypotheses", "8",
               "--trials", "4", "--eps", "0.2", "--delta", "0.2",
               "--mode", "calibrated", "--m-override", "1000",
               "--seed", "5", "--no-timing", "--outdir", str(outdir),
               "--require-opt-frac", "0.5"])
    assert rc == 0
    assert (outdir / "trials.csv").exists()
    stanza = json.loads((outdir / "summary.json").read_text())
    assert stanza["trials"] == 4


def test_trial_campaign_cli_fails_on_unmet_requirement(tmp_path, capsys):
    # a 10-draw table rounds one of these three trials too far from its mixture
    rc = main(["trial", "--domain-size", "20", "-k", "3", "--hypotheses", "8",
               "--trials", "3", "--eps", "0.2", "--delta", "0.2",
               "--mode", "calibrated", "--m-override", "10",
               "--seed", "3", "--no-timing", "--outdir", str(tmp_path),
               "--require-cond-frac", "1.0"])
    assert rc == 1
    assert ('CAMPAIGN FAILED {"failed_predicates": ["er_le_randomized_plus_half_eps"]'
            in capsys.readouterr().out)


def test_trial_rejects_required_fractions_outside_the_unit_interval(tmp_path, capsys):
    # 1.5 and nan ran every trial and then failed the campaign; -0.2 passed it
    for flag, value in (("--require-opt-frac", "1.5"), ("--require-opt-frac", "nan"),
                        ("--require-cond-frac", "-0.2")):
        rc = main(["trial", "--trials", "2", "--eps", "0.2", "--delta", "0.2",
                   "--mode", "calibrated", "--m-override", "400", "--no-timing",
                   "--outdir", str(tmp_path), flag, value])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "must lie in [0, 1], got" in err
    assert not list(tmp_path.iterdir())


def test_trial_rejects_hedge_flags_no_trial_could_learn_with(tmp_path, capsys):
    # each ran every trial into the same ValueError and exited 1 with
    # CAMPAIGN FAILED; at k = 6, ln(DBL_MAX / 6) is about 707.99
    trial = ["trial", "--trials", "2", "--eps", "0.2", "--delta", "0.2", "--mode",
             "calibrated", "--m-override", "400", "--no-timing", "--outdir", str(tmp_path)]
    for flag, message in (("--rounds=0", "rounds must be >= 1"),
                          ("--eta=-1", "eta must be finite and positive, got -1.0"),
                          ("--eta=800", "eta must be at most ln(DBL_MAX / k) = 707.")):
        assert main(trial + [flag]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"multidist: error: {message}")
        assert not (tmp_path / "trials.csv").exists()
    assert main(trial + ["--eta=700"]) == 0
    assert (tmp_path / "trials.csv").exists()


def test_derand_rejects_an_eps_past_the_hash_prime_limit(tmp_path, capsys):
    # it died with OverflowError: prime search capped at 2^62, exit 1
    inst, out = tmp_path / "inst.json", tmp_path / "clf.json"
    assert main(["gen", "--seed", "6", "-o", str(inst)]) == 0
    capsys.readouterr()
    assert main(["derand", str(inst), "--rounding", "hash", "--eps", "1e-6", "--delta", "0.2",
                 "--mode", "calibrated", "--m-override", "10", "--rounds", "1",
                 "-o", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err == "multidist: error: eps = 1e-06 needs a hash prime above 2^62\n"
    assert not out.exists()


def test_derand_and_trial_check_the_hash_parameters_before_learning(tmp_path, capsys,
                                                                    monkeypatch):
    # both hung in exact Hedge at eps/2, about 10^19 rounds, before rounding
    # found that eps 1e-9 needs a prime past 2^62
    def unreachable(*args, **kwargs):
        raise AssertionError("learned before checking the hash parameters")

    monkeypatch.setattr(cli, "hedge_learn", unreachable)
    monkeypatch.setattr(harness, "rolling_mixtures", unreachable)
    inst, out = tmp_path / "inst.json", tmp_path / "clf.json"
    assert main(["gen", "--seed", "6", "-o", str(inst)]) == 0
    capsys.readouterr()
    flags = ["--rounding", "hash", "--eps", "1e-9", "--delta", "0.2", "--mode", "calibrated",
             "--m-override", "10"]
    for argv in (["derand", str(inst), *flags, "-o", str(out)],
                 ["trial", "--trials", "2", *flags, "--no-timing", "--outdir",
                  str(tmp_path / "campaign")]):
        assert main(argv) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == "multidist: error: eps = 1e-09 needs a hash prime above 2^62\n"
    assert not out.exists() and not (tmp_path / "campaign").exists()


def test_a_tiny_eps_exits_2_before_learning(tmp_path, capsys, monkeypatch):
    # each died with a ZeroDivisionError or OverflowError traceback, exit 1,
    # but the last two, which learned until stopped: 5.7e19 rounds, and
    # 5.7e15 before 1.75e17 table draws per member; exact and sampling Hedge
    # check their rounds before they play one
    def unreachable(*args, **kwargs):
        raise AssertionError("learned before checking the sizes")

    monkeypatch.setattr(learner, "HedgeStack", unreachable)
    monkeypatch.setattr(learner, "_tallies", unreachable)
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert main(["gen", "--seed", "6", "-o", str(inst)]) == 0
    capsys.readouterr()
    rounds = ("Hedge at eps = {} needs {} rounds at k = 6, more than ROUNDS_LIMIT = "
              "9223372036854775807; its eps must be at least about 1.25e-09")
    derand = ["derand", str(inst), "--delta", "0.2", "-o", str(out)]
    for argv, message in (
            (["learn", str(inst), "--eps", "1e-200", "-o", str(out)],
             rounds.format("1e-200", "inf")),
            (["learn", str(inst), "--eps", "1e-200", "--sampling", "-o", str(out)],
             rounds.format("1e-200", "inf")),
            (["trial", "--eps", "1e-200", "--delta", "0.2", "--outdir", str(tmp_path / "t")],
             rounds.format("5e-201", "inf")),
            ([*derand, "--eps", "1e-120", "--rounding", "hash"],
             "eps = 1e-120 needs a hash prime above 2^62"),
            ([*derand, "--eps", "1e-9", "--mode", "calibrated", "--m-override", "5"],
             rounds.format("5e-10", "5.73e+19")),
            ([*derand, "--eps", "1e-7"], "eps = 1e-07 needs 1.75e+17 table draws per member at "
                                         "k = 6, more than DRAWS_LIMIT = 2^53")):
        assert main(argv) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == f"multidist: error: {message}\n"
    assert not out.exists() and not (tmp_path / "t").exists()


def test_derand_checks_label_consistency_before_learning(tmp_path, capsys, monkeypatch):
    # it learned first, 0.73 s at eps 0.02, and only the bias table rejected
    # the family
    def unreachable(*args, **kwargs):
        raise AssertionError("learned before checking label consistency")

    monkeypatch.setattr(cli, "hedge_learn", unreachable)
    inst, out = tmp_path / "inst.json", tmp_path / "clf.json"
    assert main(["gen", "--seed", "6", "-o", str(inst)]) == 0
    capsys.readouterr()
    doc = json.loads(inst.read_text())
    doc["distributions"][1]["label_one_prob"] = [1 - p for p in doc["shared_label_one_prob"]]
    inst.write_text(json.dumps(doc))
    # a file that fails both checks reports the hash parameters, checked first
    for flags, message in (
            (["--eps", "0.02"], "operation requires a label-consistent family (all members "
                                "must share the conditional label law on shared support)"),
            (["--rounding", "hash", "--eps", "1e-9"], "eps = 1e-09 needs a hash prime above 2^62")):
        assert main(["derand", str(inst), *flags, "--delta", "0.2", "-o", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == f"multidist: error: {message}\n"
    assert not out.exists()


def test_gen_rejects_a_non_finite_heavy_mass(tmp_path, capsys):
    # nan once reached the JSON writer, whose error named no flag
    for value in ("nan", "inf", "-inf"):
        rc = main(["gen", "--kind", "heavy_point_probe", f"--heavy-mass={value}",
                   "-o", str(tmp_path / "inst.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "heavy_mass must lie in [0, 1], got" in err
    assert not list(tmp_path.iterdir())


def test_gen_rejects_a_heavy_beta_outside_half_the_unit_interval(tmp_path, capsys):
    # nan once reached the JSON writer, whose error named no flag; 0.9 was
    # written into the spec of a kind that ignores it
    for kind in ("heavy_point_probe", "random_label_consistent"):
        for value in ("nan", "inf", "-0.1", "0.9"):
            rc = main(["gen", "--kind", kind, f"--heavy-beta={value}",
                       "-o", str(tmp_path / "inst.json")])
            assert rc == 2
            out, err = capsys.readouterr()
            assert out == "" and "heavy_beta must lie in [0, 1/2], got" in err
    assert not list(tmp_path.iterdir())


def test_hashcheck_cli():
    assert main(["hashcheck", "--draws", "20000", "--seed", "0"]) == 0


def test_hashcheck_counts_its_rounding_law_exactly(monkeypatch, capsys):
    # one evaluation of all 49 coefficient pairs at key 3, where each hash
    # value comes up 7 times, so exactly 7T pairs fall below a threshold T
    from multidist.hashing import _plus_thresholds, coefficient_matrix_eval

    calls = []

    def recorded(coeffs, xs, p):
        out = coefficient_matrix_eval(coeffs, xs, p)
        if p == 7:  # the law, not the pairwise check at p = 5
            calls.append((coeffs.tolist(), xs.tolist(), out[:, 0]))
        return out

    monkeypatch.setattr(cli, "coefficient_matrix_eval", recorded)
    assert main(["hashcheck", "--draws", "2000", "--seed", "3"]) == 0
    assert "rounding law p=7: ok" in capsys.readouterr().out
    [(coeffs, keys, q)] = calls
    assert sorted(map(tuple, coeffs)) == [(a0, a1) for a0 in range(7) for a1 in range(7)]
    assert keys == [3] and np.bincount(q, minlength=7).tolist() == [7] * 7
    thresholds = _plus_thresholds([0.0, 1 / 3, 0.5, 2 / 3, 1.0], 7).tolist()
    assert thresholds == [0, 2, 3, 4, 7]
    assert [np.count_nonzero(q < t) for t in thresholds] == [0, 14, 21, 28, 49]


def test_hashcheck_fails_a_rounding_law_off_by_one(monkeypatch, capsys):
    # thresholds one above floor(marginal * 7) label 7 pairs too many +1
    from multidist.hashing import _plus_thresholds

    monkeypatch.setattr(cli, "_plus_thresholds", lambda m, p: _plus_thresholds(m, p) + 1)
    assert main(["hashcheck", "--draws", "2000", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "rounding law p=7: FAILED" in out
    assert "rounding law off at marginal 0.0" in out.splitlines()[-1]


def test_hashcheck_rejects_bad_tail_config_before_any_check(capsys):
    for flags, message in ((["--draws", "0"], "draws >= 1"),
                           (["--r", "3", "--draws", "1000"], "got 3"),
                           (["--n", "0"], "n >= 1")):
        assert main(["hashcheck", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("multidist: error: ") and message in err


def test_every_verb_rejects_a_negative_seed_by_its_flag_before_any_work(tmp_path, capsys):
    # numpy refuses a negative seed, so each verb refuses it first, naming the
    # flag, before it prints or writes anything; exact-mode learn, which
    # draws nothing, refuses it too
    inst, out = str(tmp_path / "inst.json"), str(tmp_path / "out.json")
    derand = ["--eps", "0.3", "--delta", "0.3", "--mode", "calibrated", "--m-override", "500"]
    for argv in (["hashcheck"],
                 ["learn", inst, "--eps", "0.3", "-o", out],
                 ["learn", inst, "--sampling", "--eps", "0.3", "-o", out],
                 ["derand", inst, *derand, "-o", out],
                 ["trial", "--trials", "2", *derand, "--outdir", str(tmp_path)],
                 ["gen", "-o", inst],
                 ["disc", "gen", "-o", str(tmp_path / "A.txt")]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert "argument --seed: must be a non-negative integer, got -1" in err
    assert not list(tmp_path.iterdir())
    with pytest.raises(SystemExit):
        main(["hashcheck", "--seed", "x"])
    assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["hashcheck", "--draws", "2000", "--seed", "0"]) == 0


def test_trial_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTIDIST_OUTDIR", str(tmp_path / "envout"))
    rc = main(["trial", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
               "--trials", "2", "--eps", "0.25", "--delta", "0.25",
               "--mode", "calibrated", "--m-override", "400",
               "--seed", "9", "--no-timing"])
    assert rc == 0
    assert (tmp_path / "envout" / "trials.csv").exists()


def test_distinguish_rejects_labels_of_wrong_length(tmp_path, capsys):
    mat = tmp_path / "m4.txt"
    serialize.save_matrix(mat, md.BinaryMatrix(np.eye(4, dtype=np.int8)))
    rc = main(["disc", "distinguish", str(mat), "--labels=1,1,1,1,-1,-1,-1", "--eps", "0.1"])
    assert rc == 2
    assert "labeling covers 7 points, expected 4" in capsys.readouterr().err
    # 255 is checked as it is, not cast to int8 first (an OverflowError)
    for labels in ("1,1,0,1", "255,1,1,1"):
        rc = main(["disc", "distinguish", str(mat), f"--labels={labels}", "--eps", "0.1"])
        assert rc == 2
        assert "label entries must be exactly -1 or +1" in capsys.readouterr().err


def test_eval_rejects_unnormalized_instance(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "10", "-k", "2", "--hypotheses", "4",
                 "--seed", "1", "-o", str(inst)]) == 0
    fam, cls, _ = serialize.load_instance(inst)
    clf = tmp_path / "clf.json"
    serialize.save_classifier(clf, md.ExplicitClassifier(cls.label_matrix[0]))
    doc = json.loads(inst.read_text())
    doc["distributions"][1]["mass"] = [m * 0.9 for m in doc["distributions"][1]["mass"]]
    inst.write_text(json.dumps(doc))
    assert main(["eval", str(clf), str(inst)]) == 2
    err = capsys.readouterr().err
    assert "invalid instance" in err and "member 1: mass sum" in err


def test_eval_rejects_classifier_of_other_domain_size(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
          "--seed", "3", "-o", str(inst)])
    clf = tmp_path / "clf.json"
    assert main(["derand", str(inst), "--eps", "0.25", "--delta", "0.25",
                 "--mode", "calibrated", "--m-override", "800",
                 "--rounding", "hash", "--seed", "4", "-o", str(clf)]) == 0
    doc = json.loads(clf.read_text())
    # a compact classifier's domain is its mixture's, on either side
    for size in (12, 16):
        doc["domain_size"] = size
        doc["t_table"] = [entry for entry in doc["t_table"] if entry[0] < size]
        clf.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", str(clf), str(inst)]) == 2
        assert (f"domain size mismatch: classifier domain_size {size}, mixture class width 15"
                in capsys.readouterr().err)


def test_eval_rejects_support_index_outside_the_class(tmp_path, capsys):
    # an IndexError here once ended eval in a traceback and exit 1; a repeated
    # index once loaded as two entries of one hypothesis
    inst = tmp_path / "inst.json"
    main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "3",
          "--seed", "3", "-o", str(inst)])
    clf = tmp_path / "clf.json"
    assert main(["derand", str(inst), "--eps", "0.25", "--delta", "0.25",
                 "--mode", "calibrated", "--m-override", "800",
                 "--rounding", "hash", "--seed", "4", "-o", str(clf)]) == 0
    doc = json.loads(clf.read_text())
    support, weights = doc["randomized"]["support_indices"], doc["randomized"]["weights"]
    capsys.readouterr()
    for bad, message in (
            ({"support_indices": [99] + support[1:], "weights": weights},
             "support index 99 outside hypothesis class of 3"),
            # the first entry's weight split over two entries of its index
            ({"support_indices": support[:1] + support,
              "weights": [weights[0] / 2] * 2 + weights[1:]},
             f"support index {support[0]} is repeated")):
        clf.write_text(json.dumps({**doc, "randomized": bad}))
        assert main(["eval", str(clf), str(inst)]) == 2
        assert capsys.readouterr().err.startswith(f"multidist: error: {message}")


def test_eval_rejects_classifier_with_unnormalized_mixture(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
          "--seed", "3", "-o", str(inst)])
    clf = tmp_path / "clf.json"
    assert main(["derand", str(inst), "--eps", "0.25", "--delta", "0.25",
                 "--mode", "calibrated", "--m-override", "800",
                 "--rounding", "hash", "--seed", "4", "-o", str(clf)]) == 0
    doc = json.loads(clf.read_text())
    doc["randomized"]["weights"] = [0.3 * w for w in doc["randomized"]["weights"]]
    clf.write_text(json.dumps(doc))
    assert main(["eval", str(clf), str(inst)]) == 2
    assert "multidist: error: mixture weights sum to 0.3" in capsys.readouterr().err


def test_learn_and_derand_reject_non_finite_constants(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
                 "--seed", "3", "-o", str(inst)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.json")
    derand = ["derand", str(inst), "--eps", "0.3", "--delta", "0.3",
              "--mode", "calibrated", "--m-override", "500", "-o", out]
    for argv, message in (
            (["learn", str(inst), "--eps", "0.3", "--eta", "nan", "-o", out], "eta"),
            (["learn", str(inst), "--eps", "0.3", "--eta", "inf", "-o", out], "eta"),
            (derand + ["--threshold-scale", "nan"], "threshold_scale"),
            (derand + ["--c-const", "nan"], "c_const"),
            (derand + ["--c-prime", "inf", "--rounding", "hash"], "c_prime")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("multidist: error: ")
        assert f"{message} must be finite and positive" in captured.err
    assert not (tmp_path / "out.json").exists()


def test_learn_rejects_an_eta_whose_weights_overflow(tmp_path, capsys):
    # --eta 1e308 once overflowed np.exp, turned the weights into NaN and
    # exited 0 with a mixture worse than OPT
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
                 "--seed", "3", "-o", str(inst)]) == 0
    out = tmp_path / "out.json"
    learn = ["learn", str(inst), "--eps", "0.3", "-o", str(out)]
    just_above = math.nextafter(math.log(sys.float_info.max / 2), math.inf)
    for eta in ("1e308", repr(just_above)):
        capsys.readouterr()
        for sampling in ([], ["--sampling"]):
            assert main(learn + ["--eta", eta, *sampling]) == 2
            err = capsys.readouterr().err
            assert err.startswith("multidist: error: eta must be at most ln(DBL_MAX / k)")
    assert not out.exists()
    assert main(learn + ["--eta", "700"]) == 0
    worst = float(capsys.readouterr().out.split("worst-case expected error ")[1].split()[0])
    assert 0.0 <= worst <= 1.0


def test_verbs_take_no_flag_that_changes_nothing(tmp_path, capsys):
    # learn's --delta, and the --erm-samples of derand and trial, which learn
    # by exact Hedge, were read by nothing but validation, and explicit
    # rounding never read --c-prime: each left every output byte-identical
    parsers = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    settable = {verb: [a.dest for a in parsers[verb]._actions if a.dest != "help"]
                for verb in ("learn", "derand", "trial")}
    assert {verb: len(dests) for verb, dests in settable.items()} == {
        "learn": 9, "derand": 14, "trial": 21}
    assert "delta" not in settable["learn"] and "erm_samples" in settable["learn"]
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
                 "--seed", "3", "-o", str(inst)]) == 0
    out = tmp_path / "out.json"
    derand = ["derand", str(inst), "--eps", "0.3", "--delta", "0.3",
              "--mode", "calibrated", "--m-override", "500", "-o", str(out)]
    capsys.readouterr()
    for argv in (["learn", str(inst), "--eps", "0.3", "--delta", "0.1", "-o", str(out)],
                 derand + ["--erm-samples", "5"],
                 ["trial", "--trials", "2", "--eps", "0.2", "--delta", "0.2",
                  "--mode", "calibrated", "--m-override", "400", "--erm-samples", "5",
                  "--outdir", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main(derand + ["--c-prime", "8"]) == 2
    assert "multidist: error: c_prime applies only to hash rounding, got 8.0" in (
        capsys.readouterr().err)
    assert not out.exists() and not (tmp_path / "summary.json").exists()
    assert main(derand + ["--c-prime", "8", "--rounding", "hash"]) == 0
    assert json.loads(out.read_text())["kind"] == "compact"


def test_disc_rejects_non_finite_eps_and_bad_density(tmp_path, capsys):
    # --eps inf once ended in an OverflowError traceback and exit 1
    mat = tmp_path / "A.txt"
    assert main(["disc", "gen", "--n", "4", "--seed", "1", "-o", str(mat)]) == 0
    capsys.readouterr()
    distinguish = ["disc", "distinguish", str(mat), "--labels=1,1,-1,-1"]
    for argv, message in (
            (distinguish + ["--eps=inf"], "eps must be finite, got inf"),
            (distinguish + ["--eps=-inf"], "eps must be finite, got -inf"),
            (distinguish + ["--eps=nan"], "eps must be finite, got nan"),
            (["disc", "gen", "--planted", "high", "--density", "7",
              "-o", str(tmp_path / "H.txt")], "density must lie in (0, 1]"),
            (["disc", "gen", "--planted", "high", "--density", "0",
              "-o", str(tmp_path / "H.txt")], "density must lie in (0, 1]")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("multidist: error: ") and message in captured.err
    assert not (tmp_path / "H.txt").exists()


def test_disc_gen_rejects_n_zero_without_hanging(tmp_path):
    # an empty planted coloring never has both signs, so n = 0 once redrew it
    # forever; the subprocess lets a timeout stop a regression
    proc = run_cli_process(["disc", "gen", "--n", "0", "-o", str(tmp_path / "A.txt")])
    assert proc.returncode == 2
    assert "planted instances need an even n >= 2, got 0" in proc.stderr


def test_trial_rejects_parallelism_below_one(tmp_path, capsys):
    for value in ("0", "-3"):
        rc = main(["trial", "--trials", "2", "--eps", "0.2", "--delta", "0.2",
                   "--mode", "calibrated", "--m-override", "400", "--no-timing",
                   "--parallelism", value, "--outdir", str(tmp_path)])
        assert rc == 2
        assert f"parallelism must be >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_bad_files_name_the_missing_or_unknown_key(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "10", "-k", "2", "--hypotheses", "4",
                 "--seed", "1", "-o", str(inst)]) == 0
    doc = json.loads(inst.read_text())
    fam, cls, _ = serialize.load_instance(inst)
    clf = tmp_path / "clf.json"
    serialize.save_classifier(clf, md.ExplicitClassifier(cls.label_matrix[0]))
    no_kind = tmp_path / "no_kind.json"
    no_kind.write_text(json.dumps({"labels": cls.label_matrix[0].tolist()}))
    no_hyps = tmp_path / "no_hyps.json"
    no_hyps.write_text(json.dumps({k: v for k, v in doc.items() if k != "hypotheses"}))
    bogus_spec = tmp_path / "bogus_spec.json"
    bogus_spec.write_text(json.dumps({**doc, "gen_spec": {**doc["gen_spec"], "bogus": 1}}))
    bogus_top = tmp_path / "bogus_top.json"
    bogus_top.write_text(json.dumps({**doc, "vc_dimension": 2}))
    # a misspelt label_one_prob once loaded as the shared vector in its place
    misspelt = tmp_path / "misspelt.json"
    member = {**doc["distributions"][0], "label_one_prb": [0.0] * 10}
    misspelt.write_text(json.dumps({**doc, "distributions": [member, *doc["distributions"][1:]]}))
    # stray keys in classifier files, and in a compact one's mixture, once loaded
    labls = tmp_path / "labls.json"
    labls.write_text(json.dumps({**json.loads(clf.read_text()), "labls": [1] * 10}))
    compact = tmp_path / "compact.json"
    assert main(["derand", str(inst), "--eps", "0.3", "--delta", "0.3", "--mode", "calibrated",
                 "--m-override", "200", "--rounding", "hash", "-o", str(compact)]) == 0
    compact_doc = json.loads(compact.read_text())
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({**compact_doc, "extra": 1}))
    weigths = tmp_path / "weigths.json"
    weigths.write_text(json.dumps({**compact_doc, "randomized": {**compact_doc["randomized"],
                                                                 "weigths": [1.0]}}))
    capsys.readouterr()
    for classifier, instance, message in (
            (clf, no_hyps, "instance lacks the 'hypotheses' field"),
            (no_kind, inst, "classifier lacks the 'kind' field"),
            (clf, bogus_spec, "gen_spec has unknown fields ['bogus']"),
            (clf, bogus_top, "instance has unknown fields ['vc_dimension']"),
            (clf, misspelt, "distribution entry has unknown fields ['label_one_prb']"),
            (labls, inst, "classifier has unknown fields ['labls']"),
            (extra, inst, "classifier has unknown fields ['extra']"),
            (weigths, inst, "mixture has unknown fields ['weigths']")):
        assert main(["eval", str(classifier), str(instance)]) == 2
        assert f"multidist: error: {message}" in capsys.readouterr().err


def test_every_written_instance_file_loads(tmp_path):
    # the files gen and disc reduce write hold only the keys the loader knows
    written = []
    for kind in ("random_label_consistent", "bayes_in_class", "gap_example",
                 "heavy_point_probe"):
        written.append(tmp_path / f"{kind}.json")
        assert main(["gen", "--kind", kind, "--domain-size", "12", "-k", "3",
                     "--heavy-count", "2", "-o", str(written[-1])]) == 0
    mat = tmp_path / "m.txt"
    assert main(["disc", "gen", "--n", "6", "-o", str(mat)]) == 0
    written.append(tmp_path / "reduced.json")
    assert main(["disc", "reduce", str(mat), "-o", str(written[-1])]) == 0
    for inst in written:
        doc = json.loads(inst.read_text())
        clf = tmp_path / "clf.json"
        serialize.save_classifier(clf, md.ExplicitClassifier(doc["hypotheses"][0]))
        assert main(["eval", str(clf), str(inst)]) == 0
    assert "label_one_prob" in json.loads(written[-1].read_text())["distributions"][0]


def test_every_written_instance_file_takes_the_label_route(tmp_path):
    # a writer change that the byte route no longer proves would still load,
    # through orjson, only slower; this names it
    argvs = {kind: ["gen", "--kind", kind, "--domain-size", "12", "-k", "3",
                    "--heavy-count", "2"]
             for kind in ("random_label_consistent", "bayes_in_class", "gap_example",
                          "heavy_point_probe")}
    argvs["cli_wide"] = ["gen", "--domain-size", "1000", "-k", "24", "--hypotheses", "128",
                         "--seed", "5"]
    mat = tmp_path / "m.txt"
    assert main(["disc", "gen", "--n", "6", "-o", str(mat)]) == 0
    argvs["reduction"] = ["disc", "reduce", str(mat)]
    for name, argv in argvs.items():
        path = tmp_path / f"{name}.json"
        assert main([*argv, "-o", str(path)]) == 0
        data = path.read_bytes()
        assert serialize._label_route(data) is not None, name
        loaded = serialize.load_instance(path)
        ref = serialize._instance(json.loads(data), None)
        assert loaded[1].label_matrix.tobytes() == ref[1].label_matrix.tobytes()
        assert loaded[1].label_matrix.shape == ref[1].label_matrix.shape


def test_classifier_files_reject_non_integer_values(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
          "--seed", "3", "-o", str(inst)])
    clf = tmp_path / "clf.json"
    assert main(["derand", str(inst), "--eps", "0.25", "--delta", "0.25",
                 "--mode", "calibrated", "--m-override", "800",
                 "--rounding", "hash", "--seed", "4", "-o", str(clf)]) == 0
    doc = json.loads(clf.read_text())
    assert main(["eval", str(clf), str(inst)]) == 0
    capsys.readouterr()
    # int() would load these as point 3 with label 1, support (0,), a prime
    # of 17 and so on, and the CLI would exit 0
    bad = tmp_path / "bad.json"
    for edit, message in (
            (dict(t_table=[[3.7, 1.5]]), "t_table point must be an integer, got 3.7"),
            (dict(t_table=[[3, 1.5]]), "t_table label must be an integer, got 1.5"),
            (dict(t_table=[[3, 1, 0]]), "t_table entries must be [point, label] pairs"),
            (dict(randomized={**doc["randomized"], "support_indices": [0.9]}),
             "support index must be an integer, got 0.9"),
            (dict(prime=doc["prime"] + 0.5), "classifier field 'prime' must be an integer"),
            (dict(domain_size="15"), "classifier field 'domain_size' must be an integer"),
            # written from the hash's prime, and checked against it on loading
            (dict(range_size=doc["prime"] + 2), "range_size must equal the hash prime"),
            (dict(coefficients=[c + 0.25 for c in doc["coefficients"]]),
             "hash coefficient must be an integer"),
            (dict(degree_r=True), "classifier field 'degree_r' must be an integer"),
            # integers outside 64 bits parse as floats that may have been rounded
            (dict(randomized={**doc["randomized"], "support_indices":
                              [2**70] + doc["randomized"]["support_indices"][1:]}),
             "support index must be an integer, got 1.1805916207174113e+21"),
            (dict(t_table=[[10**30, 1]]), "t_table point must be an integer, got 1e+30"),
            (dict(coefficients=[2**70] + doc["coefficients"][1:]),
             "hash coefficient must be an integer, got 1.1805916207174113e+21"),
            (dict(t_table={}), "classifier field 't_table' must be a list, got dict"),
            # loaded as {0: -1} once, the last entry winning
            (dict(t_table=[[0, 1], [0, -1]]), "t_table point 0 is negative, repeated or out"),
            (dict(t_table=[[3, 1], [0, -1], [3, 1]]), "t_table point 3 is negative, repeated"),
            (dict(t_table=[[-1, 1]]), "t_table point -1 is negative, repeated or out of order"),
            (dict(t_table=[[2**63, 1]]), "t_table points must fit in 64 bits")):
        bad.write_text(json.dumps({**doc, **edit}))
        assert main(["eval", str(bad), str(inst)]) == 2
        assert f"multidist: error: {message}" in capsys.readouterr().err
    # integral floats carry no fraction to lose, so they still load
    bad.write_text(json.dumps({**doc, "domain_size": 15.0}))
    assert main(["eval", str(bad), str(inst)]) == 0
    # distinct points load in any order, as the sorted table does
    assert len(doc["t_table"]) >= 2
    capsys.readouterr()
    assert main(["eval", str(clf), str(inst)]) == 0
    want = capsys.readouterr().out
    bad.write_text(json.dumps({**doc, "t_table": doc["t_table"][::-1]}))
    assert main(["eval", str(bad), str(inst)]) == 0
    assert capsys.readouterr().out == want


def test_instance_files_check_json_value_types(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "10", "-k", "2", "--hypotheses", "4",
                 "--seed", "1", "-o", str(inst)]) == 0
    doc = json.loads(inst.read_text())
    fam, cls, _ = serialize.load_instance(inst)
    clf = tmp_path / "clf.json"
    serialize.save_classifier(clf, md.ExplicitClassifier(cls.label_matrix[0]))
    spec = doc["gen_spec"]
    mass = doc["distributions"][0]["mass"]
    shared = doc["shared_label_one_prob"]
    rows = doc["hypotheses"]
    bad = tmp_path / "bad.json"
    capsys.readouterr()
    for edit, message in (
            (dict(gen_spec={**spec, "domain_size": "10"}),
             "gen_spec field 'domain_size' must be int, got '10'"),
            (dict(gen_spec={**spec, "k": 2.0}), "gen_spec field 'k' must be int, got 2.0"),
            (dict(gen_spec={**spec, "eps": None}), "gen_spec field 'eps' must be float"),
            (dict(gen_spec={**spec, "kind": 3}), "gen_spec field 'kind' must be str, got 3"),
            (dict(gen_spec={**spec, "seed": True}), "gen_spec field 'seed' must be int"),
            (dict(gen_spec=[1, 2]), "gen_spec must be a JSON object, got list"),
            (dict(hypotheses="abc"), "instance field 'hypotheses' must be a list, got str"),
            (dict(hypotheses=7), "instance field 'hypotheses' must be a list, got int"),
            (dict(domain_size="10"), "instance field 'domain_size' must be an integer"),
            (dict(domain_size=10.5), "instance field 'domain_size' must be an integer"),
            (dict(vc_dim="2"), "instance field 'vc_dim' must be an integer"),
            (dict(vc_dim=10**30), "instance field 'vc_dim' must be an integer, got 1e+30"),
            (dict(distributions={}), "instance field 'distributions' must be a list"),
            (dict(distributions=[]), "a distribution family needs at least one member and one "
                                     "point, got shape (0, 0)"),
            (dict(distributions=[mass]), "distribution entry must be a JSON object, got list"),
            (dict(distributions=[{"mass": {}}]),
             "distribution entry field 'mass' must be a list, got dict"),
            (dict(distributions=[{"mass": [{}] * 10}]), "mass must hold numbers"),
            (dict(distributions=[{"mass": mass[:9] + [[0.1, 0.2]]}]),
             "mass row 0 must be a flat list of numbers"),
            (dict(distributions=[{"mass": mass}, {"mass": mass[:9]}]),
             "mass row 1 has 9 numbers, expected 10"),
            (dict(distributions=[{"mass": mass[:9]}]),
             "mass and label_one_prob shapes differ: (1, 9) vs (1, 10)"),
            (dict(distributions=[{"mass": mass[:9]}], shared_label_one_prob=shared[:9]),
             "mass row 0 has 9 numbers, expected domain_size 10"),
            (dict(hypotheses=rows[:2] + [rows[2][:9]] + rows[3:]),
             "hypothesis row 2 has 9 labels, expected 10"),
            (dict(hypotheses=rows[:3] + [1]), "hypothesis row 3 must be a flat list of labels"),
            (dict(hypotheses=[row[:9] for row in rows]),
             "hypothesis row 0 has 9 labels, expected domain_size 10"),
            (dict(hypotheses=[]), "hypothesis class must be a nonempty 2-D label matrix"),
            (dict(hypotheses=rows[:1] + [[True] + rows[1][1:]] + rows[2:]),
             "hypothesis label entries must be exactly -1 or +1"),
            (dict(hypotheses=rows[:1] + [[255] + rows[1][1:]] + rows[2:]),
             "hypothesis label entries must be exactly -1 or +1"),
            (dict(shared_label_one_prob=0.5),
             "instance field 'shared_label_one_prob' must be a list, got float")):
        bad.write_text(json.dumps({**doc, **edit}))
        assert main(["eval", str(clf), str(bad)]) == 2
        assert f"multidist: error: {message}" in capsys.readouterr().err
    bad.write_text(json.dumps([doc]))
    assert main(["eval", str(clf), str(bad)]) == 2
    assert "instance must be a JSON object, got list" in capsys.readouterr().err
    # a float field given an int is still a number of the right kind
    bad.write_text(json.dumps({**doc, "gen_spec": {**spec, "eps": 1}}))
    assert main(["eval", str(clf), str(bad)]) == 0
    # a seed of 2^64 would parse back as a float, so gen refuses to write it
    gen = ["gen", "--domain-size", "10", "-o", str(bad), "--seed"]
    assert main(gen + [str(2**64 - 1)]) == 0
    assert main(["eval", str(clf), str(bad)]) == 0
    assert main(gen + [str(2**64)]) == 2
    assert "seed must lie in [0, 2^64), got 18446744073709551616" in capsys.readouterr().err


@pytest.mark.parametrize("file, path, value, message", [
    ("instance", ["shared_label_one_prob", 0], True,
     "shared_label_one_prob must hold numbers, got bool"),
    ("instance", ["distributions", 0, "mass"], [True, False], "mass must hold numbers, got bool"),
    ("instance", ["distributions", 0, "mass"], ["0.5", "0.5"], "mass must hold numbers, got str"),
    ("classifier", ["randomized"], {"support_indices": [0], "weights": [True]},
     "weights must hold numbers, got bool"),
])
def test_files_reject_bool_and_string_numbers(tmp_path, capsys, file, path, value, message):
    # np.asarray would read these as 1.0, [1.0, 0.0], [0.5, 0.5] and [1.0]
    paths = {"instance": tmp_path / "inst.json", "classifier": tmp_path / "clf.json"}
    assert main(["gen", "--domain-size", "2", "-k", "2", "--hypotheses", "2",
                 "--seed", "1", "-o", str(paths["instance"])]) == 0
    assert main(["derand", str(paths["instance"]), "--eps", "0.25", "--delta", "0.25",
                 "--mode", "calibrated", "--m-override", "100", "--rounding", "hash",
                 "--seed", "4", "-o", str(paths["classifier"])]) == 0
    assert main(["eval", str(paths["classifier"]), str(paths["instance"])]) == 0
    doc = json.loads(paths[file].read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    paths[file].write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", str(paths["classifier"]), str(paths["instance"])]) == 2
    assert f"multidist: error: {message}" in capsys.readouterr().err


def test_deeply_nested_files_exit_2_in_every_verb(tmp_path, capsys):
    # json.loads recursed on these, so every verb ended in a RecursionError
    # traceback; the repr of a deep t_table entry in its message recursed too
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
                 "--seed", "3", "-o", str(inst)]) == 0
    clf = tmp_path / "clf.json"
    assert main(["derand", str(inst), "--eps", "0.25", "--delta", "0.25",
                 "--mode", "calibrated", "--m-override", "800",
                 "--rounding", "hash", "--seed", "4", "-o", str(clf)]) == 0
    doc, clf_doc = json.loads(inst.read_text()), json.loads(clf.read_text())
    # far deeper than the interpreter's recursion limit, and within the
    # nesting the readers parse (deeper files: test_too_deeply_nested_files_exit_2)
    depth = 5000
    deep = "[" * depth + "]" * depth
    deep_object = '{"a": ' * depth + "0" + "}" * depth

    def with_deep(doc, *keys, value=deep):
        """doc's text with the value at the key path replaced by value."""
        doc = json.loads(json.dumps(doc))
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "DEEP"
        return json.dumps(doc).replace('"DEEP"', value)

    bad_inst, bad_clf = tmp_path / "bad_inst.json", tmp_path / "bad_clf.json"
    out = str(tmp_path / "out")
    verbs = (["learn", str(bad_inst), "--eps", "0.3", "-o", out],
             ["derand", str(bad_inst), "--eps", "0.3", "--delta", "0.3", "-o", out],
             ["eval", str(clf), str(bad_inst)])
    capsys.readouterr()
    for text, message in (
            (deep, "instance must be a JSON object, got list"),
            (with_deep(doc, "hypotheses", 0), "hypothesis row 0 must be a flat list of labels"),
            (with_deep(doc, "distributions", 0, "mass"),
             "mass row 0 must be a flat list of numbers"),
            # the repr of a deep scalar field in its message recursed too
            (with_deep(doc, "vc_dim"), "instance field 'vc_dim' must be an integer, got a list"),
            (with_deep(doc, "domain_size", value=deep_object),
             "instance field 'domain_size' must be an integer, got a JSON object"),
            (with_deep(doc, "gen_spec", "seed"), "gen_spec field 'seed' must be int, got a list")):
        bad_inst.write_text(text)
        for argv in verbs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("multidist: error: ") and message in err
    for text, message in (
            (deep, "classifier must be a JSON object, got list"),
            (with_deep(clf_doc, "t_table", 0),
             "t_table entries must be [point, label] pairs, entry 0 is a list of 1"),
            (with_deep(clf_doc, "t_table", 0, 0), "t_table point must be an integer, got a list"),
            (with_deep(clf_doc, "kind"), "unknown classifier kind a list"),
            (with_deep(clf_doc, "kind", value=deep_object),
             "unknown classifier kind a JSON object")):
        bad_clf.write_text(text)
        assert main(["eval", str(bad_clf), str(inst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("multidist: error: ") and message in err
    assert not Path(out).exists()


def test_too_deeply_nested_files_exit_2(tmp_path):
    # orjson overflowed the C stack on these, and the process died with exit
    # 139 and no message; a fresh process keeps a regression from killing the suite
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "15", "-k", "2", "--hypotheses", "4",
                 "--seed", "3", "-o", str(inst)]) == 0
    doc = json.loads(inst.read_text())
    deep = tmp_path / "deep.json"
    for text, depth in (
            ('{"a": ' * 100_000 + "0" + "}" * 100_000, 100_000),
            ("[" * 200_000 + "]" * 200_000, 200_000),
            # beside a label matrix that the label route reads from the bytes
            (json.dumps({**doc, "vc_dim": "DEEP"}).replace('"DEEP"', "[" * 100_000 + "]" * 100_000),
             100_001)):
        deep.write_text(text)
        for argv in (["learn", str(deep), "--eps", "0.3", "-o", str(tmp_path / "mix.json")],
                     ["eval", str(deep), str(inst)]):
            result = run_cli_process(argv)
            assert result.returncode == 2, result.stderr
            assert result.stderr == (f"multidist: error: JSON nested {depth} levels deep; "
                                     f"at most {serialize.MAX_JSON_DEPTH} are read\n")


def test_unreadable_files_exit_2(tmp_path, capsys, monkeypatch):
    # each of these printed an OSError traceback and exited 1
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "12", "-k", "2", "--hypotheses", "4",
                 "--seed", "3", "-o", str(inst)]) == 0
    clf = tmp_path / "clf.json"
    assert main(["derand", str(inst), "--eps", "0.3", "--delta", "0.3", "--mode", "calibrated",
                 "--m-override", "200", "-o", str(clf)]) == 0
    missing = tmp_path / "missing.json"
    into_missing_dir = tmp_path / "no_such_dir" / "mix.json"
    capsys.readouterr()
    for argv, path in (
            (["learn", str(missing), "--eps", "0.3", "-o", str(tmp_path / "x.json")], missing),
            (["derand", str(tmp_path), "--eps", "0.3", "--delta", "0.3", "-o",
              str(tmp_path / "x.json")], tmp_path),
            (["eval", str(missing), str(inst)], missing),
            (["learn", str(inst), "--eps", "0.3", "-o", str(into_missing_dir)],
             into_missing_dir)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("multidist: error: ") and str(path) in err
    assert not (tmp_path / "x.json").exists() and not into_missing_dir.parent.exists()
    # an OSError that names no file is not the input's fault: it is raised

    def out_of_descriptors(args):
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(cli, "cmd_learn", out_of_descriptors)
    with pytest.raises(OSError, match="Too many open files"):
        main(["learn", str(inst), "--eps", "0.3", "-o", str(tmp_path / "x.json")])


def test_one_process_runs_verbs_as_fresh_processes_do(tmp_path, capsys, monkeypatch):
    # main reuses one parser for every call in a process; a call must still
    # see only its own arguments (the first learn's --trace is not the
    # second's), and a verb that exits 2 must not disturb the next
    source = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "30", "-k", "3", "--hypotheses", "8",
                 "--seed", "2", "-o", str(source)]) == 0
    commands = (
        ["learn", "inst.json", "--eps", "0.3", "--trace", "trace.csv", "-o", "mix.json"],
        ["derand", "inst.json", "--eps", "0.4", "--delta", "0.3", "--mode", "calibrated",
         "--m-override", "500", "--rounding", "hash", "--seed", "4", "-o", "clf.json"],
        ["eval", "clf.json", "inst.json", "-o", "eval.csv"],
        ["learn", "inst.json", "--eps", "0", "-o", "bad.json"],
        ["learn", "inst.json", "--eps", "0.3", "--sampling", "--seed", "1", "-o", "mix2.json"],
    )
    one, fresh = tmp_path / "one", tmp_path / "fresh"
    for d in (one, fresh):
        d.mkdir()
        (d / "inst.json").write_bytes(source.read_bytes())
    monkeypatch.chdir(one)
    capsys.readouterr()
    in_process = []
    for argv in commands:
        code = main(list(argv))
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    processes = [run_cli_process(argv, cwd=fresh) for argv in commands]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in processes]
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0]
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    assert names == ["clf.json", "eval.csv", "inst.json", "mix.json", "mix2.json", "trace.csv"]
    for name in names:
        assert (one / name).read_bytes() == (fresh / name).read_bytes(), name


def test_learn_then_derand_computes_the_class_error_matrix_once(tmp_path, monkeypatch):
    # learn --sampling needs the matrix for its OPT line and derand's exact
    # Hedge loads it; on one instance file in one process it is computed once
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "40", "-k", "4", "--hypotheses", "12",
                 "--seed", "3", "-o", str(inst)]) == 0
    monkeypatch.setattr(serialize, "_last_instance", None)
    full, errors = [], metrics._errors

    def counted(plus, *args, **kwargs):
        full.append(np.ndim(plus) == 2 and len(plus) == 12)
        return errors(plus, *args, **kwargs)

    monkeypatch.setattr(metrics, "_errors", counted)
    assert main(["learn", str(inst), "--sampling", "--eps", "0.3", "--seed", "1",
                 "-o", str(tmp_path / "mix.json")]) == 0
    assert main(["derand", str(inst), "--eps", "0.4", "--delta", "0.3", "--mode", "calibrated",
                 "--m-override", "500", "--seed", "2", "-o", str(tmp_path / "clf.json")]) == 0
    assert sum(full) == 1


def test_learn_then_derand_builds_the_bucket_table_once(tmp_path, monkeypatch):
    # learn --sampling's draws and derand's bias table draw from the family
    # the loader keeps, which keeps one read-only bucket table
    inst = tmp_path / "inst.json"
    assert main(["gen", "--domain-size", "40", "-k", "4", "--hypotheses", "12",
                 "--seed", "3", "-o", str(inst)]) == 0
    monkeypatch.setattr(serialize, "_last_instance", None)
    built, build = [], learner._bucket_table

    def counted(mass):
        built.append(mass.shape)
        return build(mass)

    monkeypatch.setattr(learner, "_bucket_table", counted)
    assert main(["learn", str(inst), "--sampling", "--eps", "0.3", "--seed", "1",
                 "-o", str(tmp_path / "mix.json")]) == 0
    assert main(["derand", str(inst), "--eps", "0.4", "--delta", "0.3", "--mode", "calibrated",
                 "--m-override", "500", "--seed", "2", "-o", str(tmp_path / "clf.json")]) == 0
    assert built == [(4, 40)]
    fam, _, _ = serialize.load_instance(inst)
    table = learner._family_table(fam)
    assert len(built) == 1 and table is vars(fam)["_bucket_table"]
    assert not any(array.flags.writeable for array in table)
    with pytest.raises(ValueError, match="read-only"):
        table[1][0, 0] = 0
    # an equal family is another object, with a table of its own
    other = md.DistributionFamily(fam.mass_matrix, fam.label_prob_matrix)
    own = learner._family_table(other)
    assert len(built) == 2 and own is not table
    assert all(a.tobytes() == b.tobytes() for a, b in zip(own, table))
