"""Span tracer for the traced perfbench run, and the per-layer metrics.

Tracer.install() wraps every public function of each multidist module at
every module attribute that refers to it, so a call that goes through another
module's imported name (learner's error_on_distribution, the package's
run_campaign) is traced too. It also wraps a few public methods and counts
LabeledDistribution constructions. Each call records a span: name, start,
end, parent span and op id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("model", "metrics", "learner", "derand", "hashing", "discrepancy", "instances",
          "harness", "serialize", "cli")
METHODS = (("learner", "SampleOracle", "draw"), ("learner", "EmpiricalSample", "to_distribution"),
           ("hashing", "CompactClassifier", "label_vector"))


def _hedge_rounds(args, kwargs, result):
    from multidist.learner import HedgeConfig, hedge_learn

    bound = inspect.signature(hedge_learn).bind(*args, **kwargs).arguments
    cfg = bound.get("cfg") or HedgeConfig()
    return (("hedge_rounds", cfg.resolve(bound["oracle"].family.k, bound["eps"])[0]),)


def _draws(args, kwargs, result):
    return (("draws_exact" if args[0].exact else "draws_sampling", len(result[0])),)


def _matrix_hash(args, kwargs, result):
    coeffs, xs = np.asarray(args[0]), np.asarray(args[1])
    # int64 coefficients, keys and result: the bytes the evaluation must read
    # and write, computed from array sizes (not measured traffic)
    return (("hash_evals", result.size), ("hash_bytes", 8 * (coeffs.size + xs.size + result.size)))


def _vector_hash(args, kwargs, result):
    r = len(args[0].coefficients)
    return (("hash_evals", result.size), ("hash_bytes", 8 * (r + 2 * result.size)))


def _colorings(n, early_exit):
    return (("colorings", 1 << (n - 1) if n > 1 else 1), ("early_exit", int(early_exit)))


def _file_size(key):
    return lambda args, kwargs, result: ((key, os.path.getsize(args[0])),)


NOTES = {
    "learner.hedge_learn": _hedge_rounds,
    "learner.SampleOracle.draw": _draws,
    "derand.build_bias_table": lambda a, k, r: (("table_size", len(r)),),
    "hashing.coefficient_matrix_eval": _matrix_hash,
    "hashing.eval_hash_vector": _vector_hash,
    "hashing.eval_hash": lambda a, k, r: (("hash_evals", 1),),
    # both enumerate the 2^(n-1) colorings with z[0] = -1 unless one is
    # perfectly balanced, in which case they stop early; early_exit flags it
    "discrepancy.bruteforce_min_discrepancy": lambda a, k, r: _colorings(a[0].n, r[1] == 0),
    "discrepancy.min_deterministic_error": lambda a, k, r: _colorings(a[0].n, r * 2 == 1),
    **{f"serialize.load_{kind}": _file_size("bytes_read")
       for kind in ("instance", "randomized", "classifier", "matrix")},
    **{f"serialize.save_{kind}": _file_size("bytes_written")
       for kind in ("instance", "randomized", "classifier", "matrix")},
}


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.notes: list[tuple[int, str, float]] = []
        self.distributions_built = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        note = NOTES.get(qualname)
        stack, t0, t1 = self._stack, self.t0, self.t1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            t1.append(0)
            stack.append(idx)
            t0.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter_ns()
                stack.pop()
            if note is not None:
                self.notes.extend((idx, key, value) for key, value in note(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import multidist

        modules = {layer: importlib.import_module(f"multidist.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (multidist, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            owner = getattr(modules[layer], cls_name)
            self._patch(owner, meth, self._wrap(f"{layer}.{cls_name}.{meth}", vars(owner)[meth]))
        dist_cls = modules["model"].LabeledDistribution
        post_init = dist_cls.__post_init__

        def counted(inst):
            self.distributions_built += 1
            post_init(inst)

        self._patch(dist_cls, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as gzipped CSV: span, name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            names = self.names
            fh.writelines(f"{i},{names[n]},{a},{b},{p},{o}\n" for i, (n, a, b, p, o) in
                          enumerate(zip(self.name, self.t0, self.t1, self.parent, self.op)))

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per op. A time is self time: a span's duration
        minus the time its child spans cover, summed over the spans a metric
        selects."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.t1, dtype=np.int64) - np.frombuffer(self.t0, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.names] + [-1])

        def ids(*qualnames):
            return np.isin(name, [self._ids[q] for q in qualnames if q in self._ids])

        def within(*qualnames):
            # the named spans and every span below them; parents precede
            # children, so a fixed point is reached within the tree depth
            flag = ids(*qualnames)
            while True:
                new = flag | (has_parent & flag[np.where(has_parent, parent, 0)])
                if np.array_equal(new, flag):
                    return flag
                flag = new

        def in_layer(layer):
            return layer_of[name] == LAYERS.index(layer)

        def note(key, where=None):
            return float(sum(v for i, k, v in self.notes if k == key and (where is None or where[i])))

        per = 1.0 / n_ops
        hedge = within("learner.hedge_learn")
        opt = within("metrics.opt_bruteforce")
        table = within("derand.build_bias_table")
        hash_eval = ids("hashing.coefficient_matrix_eval", "hashing.eval_hash_vector",
                        "hashing.eval_hash")
        solve, mindet = within("discrepancy.bruteforce_min_discrepancy"), \
            within("discrepancy.min_deterministic_error")
        rounds = note("hedge_rounds")
        hedge_top = ids("learner.hedge_learn")  # hedge_learn does not nest
        hash_s = self_s[hash_eval].sum()
        disc_s = self_s[solve | mindet].sum()
        colorings = note("colorings")
        draws = {k: note(k) for k in ("draws_exact", "draws_sampling")}
        m = {
            "model.distributions_built": (self.distributions_built * per, "count"),
            "learner.hedge_s": (self_s[hedge & in_layer("learner")].sum() * per, "s"),
            "learner.hedge_rounds": (rounds * per, "count"),
            "learner.round_us": (dur[hedge_top].sum() / rounds * 1e6 if rounds else 0.0, "us"),
            "learner.erm_calls": (ids("learner.erm").sum() * per, "count"),
            "learner.draws_exact": (draws["draws_exact"] * per, "count"),
            "learner.draws_sampling": (draws["draws_sampling"] * per, "count"),
            "metrics.opt_s": (self_s[opt].sum() * per, "s"),
            "metrics.eval_s": (self_s[in_layer("metrics") & ~opt].sum() * per, "s"),
            "metrics.error_evals": (ids("metrics.error_on_distribution").sum() * per, "count"),
            "derand.table_s": (self_s[table].sum() * per, "s"),
            "derand.table_draws": ((note("draws_exact", table) + note("draws_sampling", table))
                                   * per, "count"),
            "derand.table_size": (note("table_size") * per, "count"),
            "derand.round_s": (self_s[within("derand.round_outside_t", "hashing.choose_hash_params",
                                             "hashing.sample_hash")].sum() * per, "s"),
            "hashing.tailcheck_s": (self_s[within("hashing.empirical_tail_bound_check")].sum()
                                    * per, "s"),
            "hashing.hash_evals": (note("hash_evals") * per, "count"),
            "hashing.hash_evals_per_s": (note("hash_evals") / hash_s if hash_s else 0.0, "1/s"),
            "hashing.computed_bytes": (note("hash_bytes") * per, "B"),
            "hashing.label_vector_s": (self_s[within("hashing.CompactClassifier.label_vector")].sum()
                                       * per, "s"),
            "discrepancy.solve_s": (self_s[solve].sum() * per, "s"),
            "discrepancy.mindet_s": (self_s[mindet].sum() * per, "s"),
            "discrepancy.colorings": (colorings * per, "count"),
            "discrepancy.colorings_per_s": (colorings / disc_s if disc_s else 0.0, "1/s"),
            "discrepancy.early_exits": (note("early_exit") * per, "count"),
            "instances.generate_s": (self_s[within("instances.generate")].sum() * per, "s"),
            "harness.trial_s": (self_s[within("harness.run_trial", "harness.run_trial_detailed")]
                                .sum() * per, "s"),
            "harness.self_s": (self_s[in_layer("harness")].sum() * per, "s"),
            "harness.report_write_s": (self_s[within("harness.write_trials_csv")].sum() * per, "s"),
            "serialize.load_s": (self_s[within(*(q for q in self.names
                                                 if q.startswith("serialize.load_")))].sum()
                                 * per, "s"),
            "serialize.save_s": (self_s[within(*(q for q in self.names
                                                 if q.startswith("serialize.save_")))].sum()
                                 * per, "s"),
            "serialize.bytes_read": (note("bytes_read") * per, "B"),
            "serialize.bytes_written": (note("bytes_written") * per, "B"),
            "cli.self_s": (self_s[in_layer("cli")].sum() * per, "s"),
            "trace.spans_per_op": (len(name) * per, "count"),
        }
        return {k: (float(v), unit) for k, (v, unit) in m.items()}
