"""The public names of the package, pinned so that any growth or shrinkage of
the API shows up as a reviewed diff of this list; the helpers that stay in
their modules; the serializer's public functions; the package names that
perfbench's tracer hooks or selects; and the modules that importing the
package leaves out."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import multidist as md
from multidist import serialize

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the pipeline's steps: each name that the demos, the README, tools/ or
# perfbench reach through the package root, and each type such a name
# takes, returns or raises
PUBLIC_NAMES = [
    "BiasTable", "BinaryMatrix", "CampaignConfig", "CampaignSummary", "Coloring",
    "CompactClassifier", "DerandConfig", "DerandResult", "DistributionFamily", "ErrorReport",
    "ExplicitClassifier", "GenSpec", "HedgeConfig", "HypothesisClass", "LabelConsistencyError",
    "PolyHash", "RandomizedClassifier", "ReductionFamily", "SampleOracle", "TailCheckConfig",
    "TailCheckReport", "TrialReport", "Verdict", "bruteforce_min_discrepancy",
    "build_bias_table", "choose_hash_params", "coloring_error", "derandomize", "distinguisher",
    "dummy_min_deterministic_error", "dummy_point_variant", "empirical_tail_bound_check",
    "error_matrix", "exceedance_probability", "full_labeling_class", "generate", "hedge_learn",
    "min_deterministic_error", "opt_bruteforce", "planted_high_discrepancy_matrix",
    "planted_zero_matrix", "plus_probability", "randomized_worst_case_error", "round_outside_t",
    "row_identity_errors", "run_campaign", "run_trial", "support_worst_case",
    "worst_case_error",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes of the package
    # depends on what the session imported first
    names = [n for n in dir(md)
             if not n.startswith("_") and not isinstance(getattr(md, n), types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES


# helpers that the pipeline's steps call: each is a public function of its
# module, so the tracer wraps it, and no root name
MODULE_HELPERS = {
    "hashing": ["is_prime", "next_prime", "sample_hash"],
    "harness": ["trial_seed", "wilson_interval"],
    "metrics": ["heavy_bias_threshold", "heavy_mask", "bayes_labels",
                "randomized_per_distribution"],
    "instances": ["gen_random_label_consistent", "gen_gap_example", "gen_heavy_point_probe"],
}


def test_helpers_are_public_functions_of_their_modules_not_of_the_root():
    for layer, helpers in MODULE_HELPERS.items():
        traced = _traced_functions(layer)
        for name in helpers:
            assert f"{layer}.{name}" in traced
            assert not hasattr(md, name), name


# one save and one load per file kind, and the hash dump demo 04 prints
SERIALIZE_FUNCTIONS = [
    "hash_stanza", "load_classifier", "load_instance", "load_matrix", "load_randomized",
    "save_classifier", "save_instance", "save_matrix", "save_randomized",
]


def test_the_serializer_defines_only_its_saves_and_loads():
    defined = [name for name, obj in vars(serialize).items()
               if not name.startswith("_") and inspect.isfunction(obj)
               and obj.__module__ == serialize.__name__]
    assert sorted(defined) == SERIALIZE_FUNCTIONS


# names the tracer still holds that the package no longer defines; each reads
# as 0 or is skipped until the tracer drops it
TRACER_ABSENT = {"hashing.eval_hash_vector", "hashing.eval_hash", "harness.run_trial_detailed",
                 "metrics.error_on_distribution"}


def _tracer_names():
    """(names, prefixes): every "layer.function" or "layer.Class.attribute"
    that perfbench/tracer.py hooks or selects (its NOTES keys, its METHODS,
    the classes its install reads from a layer module, and the names that
    layer_metrics passes to a call), and each prefix it matches names by."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = set(tracer.NOTES) | {".".join(method) for method in tracer.METHODS}
    prefixes = set()
    tree = ast.parse(TRACER.read_text())
    methods = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(methods["install"]):
        # modules["layer"].Name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "modules"):
            names.add(f"{node.value.slice.value}.{node.attr}")
    for node in ast.walk(methods["layer_metrics"]):
        if isinstance(node, ast.Call):
            for arg in node.args:
                if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        and arg.value.split(".")[0] in tracer.LAYERS and "." in arg.value):
                    prefixing = isinstance(node.func, ast.Attribute) and node.func.attr == "startswith"
                    (prefixes if prefixing else names).add(arg.value)
    return names, prefixes


def _traced_functions(layer: str) -> list[str]:
    """The "layer.function" name of each public function the layer defines,
    which the tracer wraps."""
    module = importlib.import_module(f"multidist.{layer}")
    return [f"{layer}.{name}" for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


def _defined(qualname: str) -> bool:
    """A traced function of its layer, or a class of it with the named attribute."""
    layer, name, *attr = qualname.split(".")
    owner = getattr(importlib.import_module(f"multidist.{layer}"), name, None)
    if inspect.isclass(owner):
        return all(a in vars(owner) for a in attr)
    return not attr and qualname in _traced_functions(layer)


def test_every_name_the_tracer_hooks_or_selects_exists():
    names, prefixes = _tracer_names()
    assert {"learner.SampleOracle.draw", "model.LabeledDistribution", "serialize.load_instance",
            "metrics.opt_bruteforce"} <= names
    assert prefixes == {"serialize.load_", "serialize.save_"}
    assert {name for name in names if not _defined(name)} == TRACER_ABSENT
    for prefix in prefixes:
        assert any(name.startswith(prefix)
                   for name in _traced_functions(prefix.split(".")[0])), prefix


def test_importing_the_package_loads_no_process_pool():
    # only a parallel campaign needs the pool, and its modules (about 30 with
    # what they import) were a seventh of every CLI verb's import time
    src = str(Path(__file__).resolve().parents[1] / "src")
    pool_modules = ["concurrent.futures", "multiprocessing", "subprocess", "socket"]
    probe = ("import sys\n"
             "import multidist, multidist.cli, multidist.serialize\n"
             f"print([m for m in {pool_modules!r} if m in sys.modules])")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=60, env=env, check=True)
    assert result.stdout == "[]\n"
