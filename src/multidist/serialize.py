"""Instance, mixture, classifier, and matrix file formats.

Each file kind has one save and one load. Instances, mixtures and classifiers
are JSON (numbers as decimal text, arrays in domain index order); each of
these kinds also has one document builder (`_instance_doc`, `_randomized_doc`,
`_classifier_doc`), which puts in the arrays the objects hold, and one reader
of a parsed document (`_instance`, `_randomized`, `_classifier`). A document
is written by `_json_text`, which gives the bytes of `json.dumps(doc,
indent=1)` with each ndarray in doc written as its `.tolist()`: an int8
array of 1 and -1 (a class's label matrix, an explicit classifier's labels)
eight labels per lookup of a table of byte texts, orjson each other array in
one call, `float.__repr__` each nonzero float of magnitude outside [1e-4,
1e16), and json's C encoder keys, single values and each item of a list.
The files are read by orjson, which parses a float to the same double as
`json` and rejects NaN and Infinity literals. A file nested deeper
than `MAX_JSON_DEPTH` is rejected before orjson parses it. An instance
file's label matrix is read straight from its bytes when they prove it a
rectangular matrix of 1 and -1 (`_label_route`); any other file is read as a
whole by orjson. Matrices use a plain text format: first line n, then n lines
of n characters from {0,1}.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
from pathlib import Path

import numpy as np
from orjson import OPT_SERIALIZE_NUMPY, dumps as orjson_dumps, loads as orjson_loads

from .hashing import CompactClassifier, PolyHash
from .instances import GenSpec
from .model import (
    DistributionFamily,
    ExplicitClassifier,
    HypothesisClass,
    RandomizedClassifier,
    _frozen_float_array,
    _InvalidFamily,
    require_integer,
    shown,
)
from .discrepancy import BinaryMatrix


def _json_kind(kind: type, kind_name: str):
    """The check that a value is a JSON kind_name, which Python reads as a kind."""
    def check(value, name: str):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {kind_name}, got {type(value).__name__}")
        return value
    return check


_list, _object = _json_kind(list, "a list"), _json_kind(dict, "a JSON object")


def _fields(doc, what: str, required: dict, optional: dict = {}) -> dict:
    """doc's values by key, each through its key's check `(value, field name) -> value`;
    a missing required key, or a key of neither (a misspelt optional one), is a ValueError."""
    _object(doc, what)
    if missing := [key for key in required if key not in doc]:
        raise ValueError(f"{what} lacks the {missing[0]!r} field")
    checks = {**required, **optional}
    if unknown := set(doc) - set(checks):
        raise ValueError(f"{what} has unknown fields {sorted(unknown)}")
    return {key: checks[key](value, f"{what} field {key!r}") for key, value in doc.items()}


# every field required, a missing one would load as the default; GenSpec checks the types
_GEN_SPEC_FIELDS = {field.name: lambda value, _: value for field in dataclasses.fields(GenSpec)}


def _instance_doc(fam: DistributionFamily, cls: HypothesisClass,
                  gen_spec: GenSpec | None) -> dict:
    """The instance file's document, each vector and matrix in it an ndarray."""
    # rows compared bit for bit, so a -0.0 is not written as another row's 0.0
    bits = fam.label_prob_matrix.view(np.uint64)
    shared = bool(np.all(bits == bits[0]))
    masses, etas = fam.mass_matrix, fam.label_prob_matrix
    doc: dict = {"domain_size": fam.domain_size}
    if shared:
        doc["shared_label_one_prob"] = etas[0]
        doc["distributions"] = [{"mass": mass} for mass in masses]
    else:
        doc["distributions"] = [{"mass": mass, "label_one_prob": eta}
                                for mass, eta in zip(masses, etas)]
    doc["hypotheses"] = cls.label_matrix
    if cls.vc_dim is not None:
        doc["vc_dim"] = cls.vc_dim
    if gen_spec is not None:
        doc["gen_spec"] = dataclasses.asdict(gen_spec)
    return doc


def _instance(doc, labels: np.ndarray | None):
    """The instance in doc; labels, when given, is the label matrix that
    `_label_route` read from the file in place of doc's "hypotheses", then []."""
    doc = _fields(doc, "instance",
                  {"domain_size": require_integer, "distributions": _list, "hypotheses": _list},
                  # read once, and given as that one array to every member without one
                  {"shared_label_one_prob": lambda v, name: _frozen_float_array(
                      _list(v, name), "shared_label_one_prob"),
                   "vc_dim": lambda v, name: None if v is None else require_integer(v, name),
                   "gen_spec": lambda v, _: GenSpec(**_fields(v, "gen_spec", _GEN_SPEC_FIELDS))})
    n = doc["domain_size"]
    masses, etas = [], []
    for entry in doc["distributions"]:
        entry = _fields(entry, "distribution entry", {"mass": _list}, {"label_one_prob": _list})
        masses.append(entry["mass"])
        etas.append(entry.get("label_one_prob", doc.get("shared_label_one_prob")))
        if etas[-1] is None:
            raise ValueError("distribution entry lacks label_one_prob and no shared vector given")
    try:
        fam, invalid = DistributionFamily(masses, etas), None
    except _InvalidFamily as exc:  # raised only once the rows' shapes passed
        fam, invalid = None, exc
    # every row has row 0's width, so row 0 is the first wrong one
    if (width := len(masses[0])) != n:
        raise ValueError(f"mass row 0 has {width} numbers, expected domain_size {n}")
    if invalid:
        raise ValueError(f"invalid instance: {invalid}")
    cls = HypothesisClass(doc["hypotheses"] if labels is None else labels,
                          vc_dim=doc.get("vc_dim"))
    if cls.domain_size != n:
        # every row has the class's width, so row 0 is the first wrong one
        raise ValueError(f"hypothesis row 0 has {cls.domain_size} labels, expected domain_size {n}")
    return fam, cls, doc.get("gen_spec")


# the deepest JSON nesting a reader parses: orjson 3.8 overflows the C stack,
# and the interpreter dies with no message, on objects about 60,000 deep and
# arrays about 200,000 deep; the package's files nest at most 4 deep
MAX_JSON_DEPTH = 10_000
# every byte but the quote and the four brackets
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'"[]{}')))
_ESCAPE = re.compile(rb"\\.", re.DOTALL)
# the change in depth at each byte
_DEPTH_STEP = np.zeros(256, np.int64)
_DEPTH_STEP[list(b"[{")], _DEPTH_STEP[list(b"]}")] = 1, -1


def _nesting(data: bytes) -> int:
    """The deepest nesting of arrays and objects in data, brackets inside
    strings aside. Exact for JSON, and for any prefix of data that is JSON
    text so far, which is all that a parser reading data from its start
    descends into before it fails."""
    # each escape removed, so that every quote left opens or closes a string
    chars = np.frombuffer(_ESCAPE.sub(b"", data).translate(None, _NOT_STRUCTURE), np.uint8)
    in_string = np.logical_xor.accumulate(chars == ord('"'))
    return int(np.cumsum(_DEPTH_STEP[chars] * ~in_string).max(initial=0))


def _parse(data: bytes):
    """orjson.loads(data), when data nests at most MAX_JSON_DEPTH deep; else a
    ValueError naming the depth. Malformed JSON is an orjson.JSONDecodeError,
    which is a ValueError."""
    # no more openings than the limit bound the depth, so most files are not
    # scanned; numpy counts a byte about four times as fast as bytes.count
    chars = np.frombuffer(data, np.uint8)
    if np.count_nonzero(chars == ord("[")) + np.count_nonzero(chars == ord("{")) > MAX_JSON_DEPTH:
        if (depth := _nesting(data)) > MAX_JSON_DEPTH:
            raise ValueError(f"JSON nested {depth} levels deep; at most {MAX_JSON_DEPTH} are read")
    return orjson_loads(data)


def _read_json(path):
    """The JSON value in the file (`_parse`)."""
    return _parse(Path(path).read_bytes())


# json's C encoder, compact: it writes keys and single values, and NaN or
# Infinity is a ValueError
_compact = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
# orjson writes a finite float with float.__repr__'s digits, and in its notation
# too when the float is 0.0, -0.0 or of magnitude in [_BAND_LOW, _BAND_HIGH)
_BAND_LOW, _BAND_HIGH = 1e-4, 1e16


@functools.cache
def _label_bytes(comma: str) -> tuple[str, ...]:
    """The text of each byte value's eight labels, as np.packbits packs them
    (the first label in the highest bit, 1 where it is set, else -1), each
    label followed by comma. Built on a separator's first use, not at import."""
    one, minus = "1" + comma, "-1" + comma
    return tuple("".join(one if byte >> bit & 1 else minus for bit in range(7, -1, -1))
                 for byte in range(256))


def _label_text(plus: np.ndarray, comma: str, boundary: str) -> str:
    """The text of a matrix of 1 and -1, plus where it is 1, with comma after
    each label but a row's last and boundary between rows: one table lookup
    per eight labels, each row's last lookup cut before its byte's padding
    labels and final comma."""
    table = _label_bytes(comma)
    packed = np.packbits(plus, axis=1)
    texts = [table[byte] for byte in packed.ravel().tolist()]
    cut = -plus.shape[1] % 8 * (len("-1") + len(comma)) + len(comma)
    width = packed.shape[1]
    for end in range(width - 1, len(texts), width):
        texts[end] = texts[end][:-cut] + boundary
    texts[-1] = texts[-1][:-len(boundary)]
    return "".join(texts)


def _array(value: np.ndarray, newline: str, out: list) -> None:
    """Append to out the text that json.dumps(value.tolist(), indent=1) gives a
    nonempty float64 or integer array of one or two dimensions on a line that
    newline starts. An int8 array whose entries are all 1 or -1 is written
    from its rows packed eight labels to a byte, each byte's text, separators
    included, looked up in a table (`_label_text`). Any other array's entries
    are written by one orjson call, and float.__repr__ each nonzero float
    outside orjson's band; the commas and row boundaries are laid out by one
    replace, or by one join per row once a float's text was replaced. NaN or
    Infinity is json's ValueError, raised before orjson writes anything."""
    if value.ndim not in (1, 2) or (value.dtype != np.float64 and value.dtype.kind not in "iu"):
        raise TypeError(f"arrays are written from one or two axes of float64 or integer "
                        f"entries, got {value.ndim} axes of {value.dtype}")
    matrix = np.ascontiguousarray(value if value.ndim == 2 else value[None])
    flat, outside = matrix.ravel(), ()
    if value.dtype.kind == "f":
        if not (finite := np.isfinite(flat)).all():
            _compact(float(flat[~finite][0]))  # json's ValueError
        size = np.abs(flat)
        outside = np.flatnonzero((size != 0) & ((size < _BAND_LOW) | (size >= _BAND_HIGH)))
    inner = newline + " "
    deepest = inner + " " if value.ndim == 2 else inner
    comma, width = "," + deepest, matrix.shape[1]
    boundary = inner + "]," + inner + "[" + deepest
    if value.dtype == np.int8 and ((plus := matrix == 1) | (matrix == -1)).all():
        body = _label_text(plus, comma, boundary)
    elif len(outside):
        # the i-th comma-separated token of the entries' text is entry i's text
        entries = orjson_dumps(flat, option=OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        for i, entry in zip(outside.tolist(), flat[outside].tolist()):
            entries[i] = float.__repr__(entry)
        body = boundary.join(comma.join(entries[i:i + width])
                             for i in range(0, len(entries), width))
    else:
        # laid out before the text is decoded: bytes.replace is the faster
        text = orjson_dumps(matrix, option=OPT_SERIALIZE_NUMPY)[2:-2]
        body = boundary.join(text.replace(b",", comma.encode()).decode().split("]" + comma + "["))
    # the brackets appended apart: adding them to the body would copy it
    if value.ndim == 1:
        out += ("[" + inner, body, newline + "]")
    else:
        out += ("[" + inner + "[" + deepest, body, inner + "]" + newline + "]")


def _write(value, newline: str, out: list) -> None:
    """Append to out the text that json.dumps(..., indent=1) gives value on a
    line that newline (a line break and that line's indent) starts, with each
    ndarray in value written as its .tolist() would be: one `_array` call
    each, or the list of an empty one. A list takes one call per item."""
    if isinstance(value, np.ndarray) and not value.size:
        value = value.tolist()
    inner = newline + " "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            out.append(("," if i else "") + inner + _compact(key) + ": ")
            _write(item, inner, out)
        out.append(newline + "}")
    elif isinstance(value, np.ndarray):
        _array(value, newline, out)
    elif not isinstance(value, (list, tuple)):
        out.append(_compact(value))
    elif not value:
        out.append("[]")
    else:
        out.append("[")
        for i, item in enumerate(value):
            out.append(("," if i else "") + inner)
            _write(item, inner, out)
        out.append(newline + "]")


def _json_text(doc) -> str:
    """json.dumps(doc, indent=1), with each ndarray in doc written as its
    .tolist(), except that NaN and Infinity are a ValueError, as the readers
    reject them, and a key that is not a string is a TypeError."""
    out: list = []
    _write(doc, "\n", out)
    return "".join(out)


def save_instance(path, fam: DistributionFamily, cls: HypothesisClass,
                  gen_spec: GenSpec | None = None) -> None:
    Path(path).write_text(_json_text(_instance_doc(fam, cls, gen_spec)))


_JSON_SPACE = b" \t\n\r"
_LABELS_KEY = b'"hypotheses"'
_LABELS_OPEN = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*\[")
_LABELS_CLOSE = re.compile(rb"\][ \t\n\r]*\]")


def _label_rows(raw: bytes) -> tuple[int, int, bytes] | None:
    """(rows, columns, raw less its JSON space) when raw is a list of rows of
    1 and -1 that orjson would read as such, else None: each "-" must be
    followed by "1", and with its JSON space and dashes removed raw must be
    the all-ones matrix [[1,...,1],...,[1,...,1]]."""
    chars = np.frombuffer(raw, np.uint8)
    # raw ends in "]", so its last byte is no dash
    if np.any((chars[:-1] == ord("-")) & (chars[1:] != ord("1"))):
        return None
    signed = raw.translate(None, _JSON_SPACE)
    ones = signed.translate(None, b"-")
    cols, odd = divmod(ones.find(b"]") - 1, 2)
    rows, rest = divmod(len(ones) - 1, 2 * cols + 2) if cols > 0 else (0, 1)
    if odd or rest or rows < 1:
        return None
    row = b"[" + b"1," * (cols - 1) + b"1]"
    if ones != b"[" + (row + b",") * (rows - 1) + row + b"]":
        return None
    return rows, cols, signed


def _label_route(data: bytes) -> tuple[dict, np.ndarray] | None:
    """(the file's JSON object with its "hypotheses" list read as [], that
    list as an int8 matrix), when the bytes prove the list a rectangular
    matrix of 1 and -1 (`_label_rows`); else None, and the caller reads the
    file as a whole.

    Taken only if the key's text occurs once and no string holds an escape,
    so that the top-level "hypotheses" can be no other key. The list runs
    from the "[" after the key and its ":" to the first "]", JSON space, "]".
    A label is -1 where a dash comes before its "1". Nothing here raises: a
    file the route does not prove goes through orjson whole, with every
    message unchanged."""
    at = data.find(_LABELS_KEY)
    opened = _LABELS_OPEN.match(data, at + len(_LABELS_KEY)) if at >= 0 else None
    if not opened or b"\\" in data:
        return None
    start = opened.end() - 1
    # the first row on its own first, which tells most lists of other entries
    # (floats, bools) at the cost of one row
    first = data.find(b"]", start) + 1
    if not first or not _label_rows(data[start:first] + b"]"):
        return None
    closed = _LABELS_CLOSE.search(data, first - 1)
    if not closed:
        return None
    end = closed.end()
    proven = _label_rows(data[start:end])
    # a proven list holds no quote, so the key can occur again only after it
    if not proven or data.find(_LABELS_KEY, end) >= 0:
        return None
    rows, cols, signed = proven
    try:
        doc = _parse(data[:start] + b"[]" + data[end:])
    except ValueError:
        return None
    if not (isinstance(doc, dict) and doc.get("hypotheses") == []):
        return None
    # the j-th dash of signed comes before the "1" at position dash - j of
    # signed less its dashes, and the "1" at position i there is entry
    # (i - 2) // 2 of a (rows, cols + 1) grid whose last column stands for
    # each row's closing "],"
    dashes = np.flatnonzero(np.frombuffer(signed, np.uint8) == ord("-"))
    dashes -= np.arange(2, dashes.size + 2)
    grid = np.ones(rows * (cols + 1), np.int8)
    grid[dashes >> 1] = -1
    return doc, grid.reshape(rows, cols + 1)[:, :cols]


# (the bytes of the last instance file parsed, the triple they gave), or None
_last_instance: tuple[bytes, tuple] | None = None


def load_instance(path) -> tuple[DistributionFamily, HypothesisClass, GenSpec | None]:
    """The instance in the file. A file whose bytes equal those of the last
    one parsed returns that parse's objects, which are immutable, so each
    file's bytes are parsed once while a process loads it again and again.
    The bytes are compared, not the path: a rewritten file is parsed again,
    and a file that fails to load is not kept."""
    global _last_instance
    data = Path(path).read_bytes()
    if (kept := _last_instance) is not None and kept[0] == data:
        return kept[1]
    # the old file dropped first, so that it and the new one are never both held
    kept = _last_instance = None
    routed = _label_route(data)
    loaded = _instance(*routed) if routed else _instance(_parse(data), None)
    _last_instance = data, loaded
    return loaded


def _randomized_doc(f_rand: RandomizedClassifier) -> dict:
    return {"support_indices": list(f_rand.support), "weights": f_rand.weights}


def _randomized(doc, cls: HypothesisClass) -> RandomizedClassifier:
    doc = _fields(doc, "mixture", {"support_indices": _list, "weights": _list})
    return RandomizedClassifier(cls, tuple(doc["support_indices"]), doc["weights"])


def save_randomized(path, f_rand: RandomizedClassifier) -> None:
    Path(path).write_text(_json_text(_randomized_doc(f_rand)))


def load_randomized(path, cls: HypothesisClass) -> RandomizedClassifier:
    return _randomized(_read_json(path), cls)


def _classifier_doc(clf) -> dict:
    if isinstance(clf, ExplicitClassifier):
        return {"kind": "explicit", "labels": clf.labels}
    if isinstance(clf, CompactClassifier):
        return {
            "kind": "compact",
            "prime": clf.hash.prime,
            "degree_r": clf.hash.degree_r,
            "coefficients": list(clf.hash.coefficients),
            "range_size": clf.hash.prime,
            "domain_size": clf.domain_size,
            "t_table": np.column_stack([clf.t_points, clf.t_labels]),
            "randomized": _randomized_doc(clf.f_rand),
        }
    raise TypeError(f"cannot serialize classifier of type {type(clf).__name__}")


# each classifier kind's keys besides "kind", with the check of each key's value
_CLASSIFIER_FIELDS = {
    "explicit": {"labels": _list},
    "compact": {"prime": require_integer, "degree_r": require_integer, "coefficients": _list,
                "range_size": require_integer, "domain_size": require_integer,
                "t_table": _list, "randomized": _object},
}


def _classifier(doc, cls: HypothesisClass | None):
    """The classifier in doc; a compact one's mixture is over cls."""
    kind = _object(doc, "classifier").get("kind")
    # tested as a string first, since a kind such as [1] cannot be a dict key; with
    # no kind, the table of that one key names it as missing
    if "kind" in doc and not (isinstance(kind, str) and kind in _CLASSIFIER_FIELDS):
        raise ValueError(f"unknown classifier kind {shown(kind)}")
    doc = _fields(doc, "classifier", {"kind": lambda v, _: v, **_CLASSIFIER_FIELDS.get(kind, {})})
    if kind == "explicit":
        return ExplicitClassifier(doc["labels"])
    if cls is None:
        raise ValueError("loading a compact classifier needs the hypothesis class")
    if len(doc["coefficients"]) != doc["degree_r"]:
        raise ValueError("degree_r does not match the coefficient count")
    q = PolyHash(doc["prime"], tuple(doc["coefficients"]))
    f_rand = _randomized(doc["randomized"], cls)
    table = []
    for i, entry in enumerate(doc["t_table"]):
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
    if doc["range_size"] != q.prime:
        raise ValueError("range_size must equal the hash prime")
    if doc["domain_size"] != f_rand.domain_size:
        raise ValueError(f"domain size mismatch: classifier domain_size {doc['domain_size']}, "
                         f"mixture class width {f_rand.domain_size}")
    return CompactClassifier(q, [x for x, _ in table], [lab for _, lab in table], f_rand)


def save_classifier(path, clf) -> None:
    Path(path).write_text(_json_text(_classifier_doc(clf)))


def load_classifier(path, cls: HypothesisClass | None = None):
    return _classifier(_read_json(path), cls)


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
