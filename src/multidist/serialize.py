"""Instance, classifier, and matrix file formats.

Instances and classifiers are JSON (numbers as decimal text, arrays in domain
index order), written by `json` with indent=1 and read by orjson, which
parses a float to the same double as `json` and rejects NaN and Infinity
literals. Matrices use a plain text format: first line n, then n lines of n
characters from {0,1}.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
from orjson import loads as orjson_loads

from .hashing import CompactClassifier, PolyHash
from .instances import GenSpec
from .model import (
    DistributionFamily,
    ExplicitClassifier,
    HypothesisClass,
    RandomizedClassifier,
    _frozen_float_array,
    require_integer,
    require_unit_weights,
    validate_family,
)
from .discrepancy import BinaryMatrix


_JSON_NAMES = {list: "list", dict: "object"}


def _field(doc: dict, key: str, what: str, kind: type | None = None):
    """doc[key], or a ValueError that names the missing key, or the key
    whose value is not of the JSON kind given (list or dict)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{what} lacks the {key!r} field")
    if kind is not None and not isinstance(doc[key], kind):
        raise ValueError(f"{what} field {key!r} must be a {_JSON_NAMES[kind]}, "
                         f"got {type(doc[key]).__name__}")
    return doc[key]


def _known_fields(doc: dict, known, what: str) -> None:
    # a misspelt optional key would otherwise be read as absent
    if unknown := set(doc) - set(known):
        raise ValueError(f"{what} has unknown fields {sorted(unknown)}")


# the JSON values each GenSpec field annotation accepts (bool never counts)
_GEN_SPEC_TYPES = {"int": int, "float": (int, float), "str": str}


def _gen_spec_from_dict(doc) -> GenSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"gen_spec must be a JSON object, got {type(doc).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(GenSpec)}
    _known_fields(doc, types, "gen_spec")
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, _GEN_SPEC_TYPES[types[key]]):
            raise ValueError(f"gen_spec field {key!r} must be {types[key]}, got {value!r}")
    return GenSpec(**doc)


def instance_to_dict(fam: DistributionFamily, cls: HypothesisClass,
                     gen_spec: GenSpec | None = None) -> dict:
    # rows compared bit for bit, so a -0.0 is not written as another row's 0.0
    bits = fam.label_prob_matrix.view(np.uint64)
    shared = bool(np.all(bits == bits[0]))
    masses, etas = fam.mass_matrix.tolist(), fam.label_prob_matrix.tolist()
    doc: dict = {"domain_size": fam.domain_size}
    if shared:
        doc["shared_label_one_prob"] = etas[0]
        doc["distributions"] = [{"mass": mass} for mass in masses]
    else:
        doc["distributions"] = [{"mass": mass, "label_one_prob": eta}
                                for mass, eta in zip(masses, etas)]
    doc["hypotheses"] = cls.label_matrix.tolist()
    if cls.vc_dim is not None:
        doc["vc_dim"] = cls.vc_dim
    if gen_spec is not None:
        doc["gen_spec"] = dataclasses.asdict(gen_spec)
    return doc


def instance_from_dict(doc: dict) -> tuple[DistributionFamily, HypothesisClass, GenSpec | None]:
    n = require_integer(_field(doc, "domain_size", "instance"), "instance field 'domain_size'")
    _known_fields(doc, ("domain_size", "shared_label_one_prob", "distributions", "hypotheses",
                        "vc_dim", "gen_spec"), "instance")
    shared = None
    if "shared_label_one_prob" in doc:
        # read once, and given as that one array to every member without one
        shared = _frozen_float_array(_field(doc, "shared_label_one_prob", "instance", list),
                                     "shared_label_one_prob")
    masses, etas = [], []
    for entry in _field(doc, "distributions", "instance", list):
        masses.append(_field(entry, "mass", "distribution entry", list))
        _known_fields(entry, ("mass", "label_one_prob"), "distribution entry")
        eta = (_field(entry, "label_one_prob", "distribution entry", list)
               if "label_one_prob" in entry else shared)
        if eta is None:
            raise ValueError("distribution entry lacks label_one_prob and no shared vector given")
        etas.append(eta)
    fam = DistributionFamily(masses, etas)
    if fam.domain_size != n:
        # every row has the family's width, so row 0 is the first wrong one
        raise ValueError(f"mass row 0 has {fam.domain_size} numbers, expected domain_size {n}")
    report = validate_family(fam)
    if not report.ok:
        raise ValueError("invalid instance: " + "; ".join(
            f"{v.location}: {v.message}" for v in report.violations))
    vc_dim = doc.get("vc_dim")
    if vc_dim is not None:
        vc_dim = require_integer(vc_dim, "instance field 'vc_dim'")
    cls = HypothesisClass(_field(doc, "hypotheses", "instance", list), vc_dim=vc_dim)
    if cls.domain_size != n:
        # every row has the class's width, so row 0 is the first wrong one
        raise ValueError(f"hypothesis row 0 has {cls.domain_size} labels, expected domain_size {n}")
    spec = _gen_spec_from_dict(doc["gen_spec"]) if "gen_spec" in doc else None
    return fam, cls, spec


def _read_json(path):
    """The JSON value in the file; malformed JSON is an orjson.JSONDecodeError,
    which is a ValueError."""
    return orjson_loads(Path(path).read_bytes())


def save_instance(path, fam: DistributionFamily, cls: HypothesisClass,
                  gen_spec: GenSpec | None = None) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(fam, cls, gen_spec), indent=1))


def load_instance(path) -> tuple[DistributionFamily, HypothesisClass, GenSpec | None]:
    return instance_from_dict(_read_json(path))


def randomized_to_dict(f_rand: RandomizedClassifier) -> dict:
    return {
        "support_indices": list(f_rand.support),
        "weights": f_rand.weights.tolist(),
    }


def randomized_from_dict(doc: dict, cls: HypothesisClass) -> RandomizedClassifier:
    f_rand = RandomizedClassifier(cls, tuple(_field(doc, "support_indices", "mixture", list)),
                                  _field(doc, "weights", "mixture", list))
    require_unit_weights(f_rand)
    return f_rand


def save_randomized(path, f_rand: RandomizedClassifier) -> None:
    Path(path).write_text(json.dumps(randomized_to_dict(f_rand), indent=1))


def load_randomized(path, cls: HypothesisClass) -> RandomizedClassifier:
    return randomized_from_dict(_read_json(path), cls)


def classifier_to_dict(clf) -> dict:
    if isinstance(clf, ExplicitClassifier):
        return {"kind": "explicit", "labels": clf.labels.tolist()}
    if isinstance(clf, CompactClassifier):
        return {
            "kind": "compact",
            "prime": clf.hash.prime,
            "degree_r": clf.hash.degree_r,
            "coefficients": list(clf.hash.coefficients),
            "range_size": clf.hash.prime,
            "domain_size": clf.domain_size,
            "t_table": np.column_stack([clf.t_points, clf.t_labels]).tolist(),
            "randomized": randomized_to_dict(clf.f_rand),
        }
    raise TypeError(f"cannot serialize classifier of type {type(clf).__name__}")


def classifier_from_dict(doc: dict, cls: HypothesisClass | None = None):
    def field(key, kind=None):
        return _field(doc, key, "classifier", kind)

    def integer(key):
        return require_integer(field(key), f"classifier field {key!r}")

    kind = field("kind")
    if kind == "explicit":
        return ExplicitClassifier(field("labels", list))
    if kind == "compact":
        if cls is None:
            raise ValueError("loading a compact classifier needs the hypothesis class")
        coeffs = field("coefficients", list)
        if len(coeffs) != integer("degree_r"):
            raise ValueError("degree_r does not match the coefficient count")
        q = PolyHash(integer("prime"),
                     tuple(require_integer(c, "hash coefficient") for c in coeffs))
        f_rand = randomized_from_dict(field("randomized", dict), cls)
        table = []
        for i, entry in enumerate(field("t_table", list)):
            if not (isinstance(entry, list) and len(entry) == 2):
                # named by index and type: the repr of a deeply nested entry recurses
                what = (f"a list of {len(entry)}" if isinstance(entry, list)
                        else f"a {type(entry).__name__}")
                raise ValueError(f"t_table entries must be [point, label] pairs, "
                                 f"entry {i} is {what}")
            table.append((require_integer(entry[0], "t_table point"),
                          require_integer(entry[1], "t_table label")))
        # entries may come in any order; a repeated point is rejected
        table.sort()
        # written for the file's readers, and checked against what the classifier derives
        domain_size, range_size = integer("domain_size"), integer("range_size")
        if range_size != q.prime:
            raise ValueError("range_size must equal the hash prime")
        if domain_size != f_rand.domain_size:
            raise ValueError(f"domain size mismatch: classifier domain_size {domain_size}, "
                             f"mixture class width {f_rand.domain_size}")
        return CompactClassifier(q, [x for x, _ in table], [lab for _, lab in table], f_rand)
    raise ValueError(f"unknown classifier kind {kind!r}")


def save_classifier(path, clf) -> None:
    Path(path).write_text(json.dumps(classifier_to_dict(clf), indent=1))


def load_classifier(path, cls: HypothesisClass | None = None):
    return classifier_from_dict(_read_json(path), cls)


def save_matrix(path, matrix: BinaryMatrix) -> None:
    lines = [str(matrix.n)]
    lines += ["".join(str(int(v)) for v in row) for row in matrix.entries]
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path) -> BinaryMatrix:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    if not (lines[0].isascii() and lines[0].isdigit()):
        raise ValueError(f"matrix header must be the row count in decimal digits, got {lines[0]!r}")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"malformed matrix row {ln!r}")
        rows.append([int(c) for c in ln])
    return BinaryMatrix(np.asarray(rows, dtype=np.int8))


def hash_stanza(q: PolyHash) -> str:
    """Standalone text dump of hash parameters, one decimal value per line."""
    lines = [f"prime {q.prime}", f"degree_r {q.degree_r}"]
    lines += [f"coefficient {i} {c}" for i, c in enumerate(q.coefficients)]
    return "\n".join(lines) + "\n"
