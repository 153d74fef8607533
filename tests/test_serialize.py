"""Parse parity: every file the package writes loads, through orjson, to the
same arrays and values as the standard library's json.loads, bit for bit.
json.loads is the reference here; the package reads with orjson only.

The label route: an instance file's "hypotheses" list, read from the file's
bytes, gives the matrix or the error that orjson and HypothesisClass give.

Closed schemas: a written file with one key renamed, dropped or added, one
list entry repeated or one value of another JSON type either fails to load
with a ValueError or is exactly the file that its loaded objects write.

The writer: `_json_text` gives the text of json.dumps(doc, indent=1), and
every file the package writes is that text of its document.

Nesting: the readers reject a file nested deeper than MAX_JSON_DEPTH, which
`_nesting` measures as json.loads would nest it.

The kept instance: load_instance parses a file's bytes once while they are
the last it parsed, whatever the path, and keeps no file that fails."""

import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multidist as md
from multidist import serialize
from orjson import loads as orjson_loads

HALF = 0.5
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               math.nextafter(HALF, 0.0), HALF, math.nextafter(HALF, 1.0)]


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


def _from_bits(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def floats_below(upper: float):
    """Doubles in [0, upper): a uniform random bit pattern below upper's (so
    subnormals included), or one of the edge values below upper."""
    return st.one_of(st.integers(0, _bits(upper) - 1).map(_from_bits),
                     st.sampled_from([v for v in EDGE_FLOATS if v < upper]))


def probabilities():
    return st.one_of(floats_below(1.0), st.just(1.0))


@st.composite
def masses(draw, n):
    """n nonnegative doubles summing to 1 within the loader's tolerance: the
    first n - 1 from random bit patterns below 1/(2n), the last the rest."""
    head = draw(st.lists(floats_below(1.0 / (2 * n)), min_size=n - 1, max_size=n - 1))
    return np.array(head + [1.0 - math.fsum(head)])


@st.composite
def instances(draw):
    n, k, h = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    shared = draw(st.booleans())
    eta = [draw(st.lists(probabilities(), min_size=n, max_size=n))]
    eta = eta * k if shared else eta + [draw(st.lists(probabilities(), min_size=n, max_size=n))
                                        for _ in range(k - 1)]
    fam = md.DistributionFamily([draw(masses(n)) for _ in eta], eta)
    labels = draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
                           min_size=h, max_size=h))
    cls = md.HypothesisClass(labels,
                             vc_dim=draw(st.one_of(st.none(), st.integers(0, 2**63 - 1))))
    spec = None
    if draw(st.booleans()):
        spec = md.GenSpec(domain_size=n, k=k, hypothesis_count=h,
                          det_fraction=draw(floats_below(HALF)),
                          fair_fraction=draw(floats_below(HALF)),
                          fair_beta_max=draw(floats_below(HALF)),
                          seed=draw(st.integers(0, 2**64 - 1)))
    return fam, cls, spec


@st.composite
def mixtures(draw):
    n, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cls = md.HypothesisClass(np.ones((h, n)))
    support = draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=h, unique=True))
    return md.RandomizedClassifier(cls, tuple(support), draw(masses(len(support))))


PRIMES = [13, 2**31 - 1, 2**61 - 1, 2**62 - 57]  # the last: the largest below 2^62


@st.composite
def classifiers(draw):
    """(classifier, the class a compact one's mixture is over)"""
    f_rand = draw(mixtures())
    n, cls = f_rand.domain_size, f_rand.hypothesis_class
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        return md.ExplicitClassifier(labels), cls
    p = draw(st.sampled_from(PRIMES))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=6))
    table = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([-1, 1])))
    points = sorted(table)
    return md.CompactClassifier(md.PolyHash(p, tuple(coeffs)), points,
                                [table[x] for x in points], f_rand), cls


def _same(a, b) -> bool:
    """Equal values of equal types, floats compared by bit pattern, arrays by
    dtype, shape and bytes; recurses through tuples, lists and dicts."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return _bits(a) == _bits(b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


def _mixture_values(f: md.RandomizedClassifier):
    return f.support, f.weights, f.hypothesis_class.label_matrix


def _classifier_values(clf):
    if isinstance(clf, md.ExplicitClassifier):
        return clf.labels
    return (clf.hash.prime, clf.hash.coefficients, clf.t_points, clf.t_labels, clf.domain_size,
            _mixture_values(clf.f_rand))


def _instance_values(loaded):
    fam, cls, spec = loaded
    return (fam.mass_matrix, fam.label_prob_matrix, fam.domain_size,
            cls.label_matrix, cls.vc_dim, spec and spec.__dict__)


PARITY = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@PARITY
@given(instances())
def test_instance_files_load_as_json_loads_reads_them(tmp_path, inst):
    path = tmp_path / "inst.json"
    serialize.save_instance(path, *inst)
    assert serialize._label_route(path.read_bytes()) is not None
    ref = serialize.instance_from_dict(json.loads(path.read_text()))
    got = serialize.load_instance(path)
    assert _same(_instance_values(got), _instance_values(ref))
    assert _same(_instance_values(got), _instance_values(inst))


def test_instance_files_keep_the_sign_of_a_zero_label_probability(tmp_path):
    # 0.0 == -0.0, so a value comparison would write both rows as one shared
    # vector and load the -0.0 back as 0.0
    fam = md.DistributionFamily([[1.0], [1.0]], [[0.0], [-0.0]])
    inst = (fam, md.HypothesisClass(np.array([[-1]], dtype=np.int8)), None)
    path = tmp_path / "inst.json"
    serialize.save_instance(path, *inst)
    assert "shared_label_one_prob" not in json.loads(path.read_text())
    assert _same(_instance_values(serialize.load_instance(path)), _instance_values(inst))


@PARITY
@given(mixtures())
def test_mixture_files_load_as_json_loads_reads_them(tmp_path, f_rand):
    path = tmp_path / "mix.json"
    serialize.save_randomized(path, f_rand)
    cls = f_rand.hypothesis_class
    ref = serialize.randomized_from_dict(json.loads(path.read_text()), cls)
    got = serialize.load_randomized(path, cls)
    assert _same(_mixture_values(got), _mixture_values(ref))
    assert _same(_mixture_values(got), _mixture_values(f_rand))


@PARITY
@given(classifiers())
def test_classifier_files_load_as_json_loads_reads_them(tmp_path, clf_cls):
    clf, cls = clf_cls
    path = tmp_path / "clf.json"
    serialize.save_classifier(path, clf)
    ref = serialize.classifier_from_dict(json.loads(path.read_text()), cls)
    got = serialize.load_classifier(path, cls)
    assert type(got) is type(ref)
    assert _same(_classifier_values(got), _classifier_values(ref))
    assert _same(_classifier_values(got), _classifier_values(clf))


# entries that orjson and HypothesisClass read as no label of 1 or -1, or not at all
NEAR_LABELS = ["true", "false", "0", "2", "1.0", "1e0", "+1", "11", "--1", "- 1", "-\n1", "-0",
               "null", '"1"', "[1]", "[]"]
# bytes below 0x20 that are no JSON space
CONTROL_BYTES = ["\x00", "\x0b", "\x0c", "\x1f"]
SPACE = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def label_lists(draw, rows, cols, how):
    """(the text of a list of rows of 1 and -1 with any JSON space, including
    none, around its entries, whether it is still one after the change `how`)"""
    grid = [[draw(st.sampled_from(["1", "-1"])) for _ in range(cols)] for _ in range(rows)]
    r = draw(st.integers(0, rows - 1))
    if how == "entry":
        grid[r][draw(st.integers(0, cols - 1))] = draw(st.sampled_from(NEAR_LABELS))
    elif how == "ragged":
        grid[r] = grid[r][:-1] if cols > 1 else grid[r] + ["1"]

    def join(items):
        return "[" + ",".join(draw(SPACE) + item + draw(SPACE) for item in items) + "]"

    texts = [join(row) for row in grid]
    if how == "nested":
        texts[r] = join([texts[r]])
    text = {"[]": "[]", "[[]]": "[[]]"}.get(how) or join(texts)
    if how == "control":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(CONTROL_BYTES)) + text[at:]
    return text, how == "valid" or (how == "ragged" and rows == 1)


def _instance_text(cols, members) -> str:
    """An instance file of one member on cols points: its other keys, then
    members, each a (key text, value text) pair."""
    head = [("domain_size", str(cols)),
            ("distributions", json.dumps([{"mass": [1.0] + [0.0] * (cols - 1)}])),
            ("shared_label_one_prob", json.dumps([0.5] * cols))]
    return "{" + ", ".join(f'"{key}": {value}' for key, value in head + members) + "}"


def _agrees(path) -> bool:
    """load_instance gives the values, or the ValueError message, that
    orjson.loads and instance_from_dict give."""
    def outcome(load):
        try:
            return "ok", _instance_values(load())
        except ValueError as exc:
            return "error", str(exc)
    return _same(outcome(lambda: serialize.load_instance(path)),
                 outcome(lambda: serialize.instance_from_dict(orjson_loads(path.read_bytes()))))


ROUTE = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@ROUTE
@given(st.integers(1, 4), st.integers(1, 5),
       st.sampled_from(["valid", "entry", "ragged", "nested", "[]", "[[]]", "control"]), st.data())
def test_the_label_route_reads_a_list_as_orjson_and_the_class_do(tmp_path, rows, cols, how,
                                                                  data):
    span, matrix = data.draw(label_lists(rows, cols, how))
    path = tmp_path / "inst.json"
    path.write_text(_instance_text(cols, [("hypotheses", span)]))
    assert (serialize._label_route(path.read_bytes()) is not None) == matrix
    assert _agrees(path)


@ROUTE
@given(st.integers(1, 4), st.integers(1, 5),
       st.sampled_from(["string", "nested", "twice", "escaped before", "escaped after"]),
       st.data())
def test_the_label_route_reads_only_the_top_level_key(tmp_path, rows, cols, placement, data):
    # the key's text also in a string or a nested object, the key twice, or
    # \u-escaped before or after the real one; orjson keeps a repeated key's
    # last value, which an empty list would let the route take for its own
    span, _ = data.draw(label_lists(rows, cols, "valid"))
    other = data.draw(st.one_of(st.just("[]"), label_lists(rows, cols, "valid").map(
        lambda drawn: drawn[0])))
    members = [("hypotheses", span)]
    if placement == "string":
        members.append(("gen_spec", json.dumps(dataclasses.asdict(
            md.GenSpec(kind="hypotheses", domain_size=cols, k=1)))))
    elif placement == "nested":
        members.append(("gen_spec", json.dumps({"hypotheses": [[1]]})))
    elif placement == "twice":
        members.insert(data.draw(st.integers(0, 1)), ("hypotheses", other))
    else:
        members.insert(placement == "escaped after", ("\\u0068ypotheses", other))
    path = tmp_path / "inst.json"
    path.write_text(_instance_text(cols, members))
    assert _agrees(path)


def test_mixture_files_name_a_stray_key_or_a_repeated_index():
    cls = md.HypothesisClass(np.ones((3, 4)))
    for doc, message in (
            ({"support_indices": [0], "weights": [1.0], "weigths": [0.5]},
             r"mixture has unknown fields \['weigths'\]"),
            ({"support_indices": [0, 0], "weights": [0.5, 0.5]}, "support index 0 is repeated")):
        with pytest.raises(ValueError, match=message):
            serialize.randomized_from_dict(doc, cls)


def test_a_null_vc_dim_loads_as_an_unknown_one():
    fam = md.DistributionFamily([[1.0]], [[0.5]])
    doc = serialize.instance_to_dict(fam, md.HypothesisClass([[1]], vc_dim=3))
    assert serialize.instance_from_dict({**doc, "vc_dim": None})[1].vc_dim is None


def _load_instance_text(text: str):
    """load_instance of a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(text)
        return serialize.load_instance(path)


@st.composite
def files(draw):
    """(a valid file's JSON document, its reader, the writer of what the reader
    returns): instances, mixtures, and explicit and compact classifiers."""
    kind = draw(st.sampled_from(["instance", "mixture", "classifier"]))
    if kind == "instance":
        # read from the file's bytes, so that the label route is under test too
        indent = draw(st.sampled_from([None, 1]))
        return (serialize.instance_to_dict(*draw(instances())),
                lambda doc: _load_instance_text(json.dumps(doc, indent=indent)),
                lambda loaded: serialize.instance_to_dict(*loaded))
    if kind == "mixture":
        f_rand = draw(mixtures())
        return (serialize.randomized_to_dict(f_rand),
                lambda doc: serialize.randomized_from_dict(doc, f_rand.hypothesis_class),
                serialize.randomized_to_dict)
    clf, cls = draw(classifiers())
    return (serialize.classifier_to_dict(clf),
            lambda doc: serialize.classifier_from_dict(doc, cls), serialize.classifier_to_dict)


def _nodes(node, path=()):
    """(path, value) of every JSON value in node, node itself first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


# one value of each JSON type but null, which only vc_dim admits
JSON_VALUES = {"number": 0, "string": "0", "bool": True, "array": [], "object": {}}


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return {int: "number", float: "number", str: "string", list: "array",
            dict: "object"}[type(value)]


@st.composite
def mutations(draw, doc):
    """doc with one key renamed, dropped or added, one list entry repeated, or
    one value swapped for a value of another JSON type."""
    doc = json.loads(json.dumps(doc))
    nodes = list(_nodes(doc))
    objects = [node for _, node in nodes if isinstance(node, dict)]
    lists = [node for _, node in nodes if isinstance(node, list) and node]
    how = draw(st.sampled_from(["rename", "drop", "add", "repeat", "swap"]))
    if how in ("rename", "drop"):
        node = draw(st.sampled_from([node for node in objects if node]))
        key = draw(st.sampled_from(sorted(node)))
        value = node.pop(key)
        if how == "rename":
            node[key + "_"] = value
    elif how == "add":
        draw(st.sampled_from(objects))["extra"] = 0
    elif how == "repeat":
        node = draw(st.sampled_from(lists))
        i = draw(st.integers(0, len(node) - 1))
        node.insert(i, json.loads(json.dumps(node[i])))
    else:
        path, value = draw(st.sampled_from(nodes))
        other = draw(st.sampled_from([v for t, v in JSON_VALUES.items()
                                      if t != _json_type(value)]))
        if not path:
            return other
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = other
    return doc


def _json_equal(a, b) -> bool:
    """Equal JSON values: numbers by value, a bool only to a bool, arrays and
    objects entry by entry."""
    if _json_type(a) != _json_type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_equal(a[key], b[key]) for key in a)
    return a == b


@settings(max_examples=200, deadline=None)
@given(files(), st.data())
def test_a_mutated_file_fails_or_is_the_file_its_objects_write(file, data):
    # so a loader ignores no key, fills in no default and converts no value:
    # a stray or misspelt key, a repeated support index or t_table point, a
    # missing gen_spec field or a value of the wrong JSON type is a ValueError
    doc, read, write = file
    mutated = data.draw(mutations(doc))
    try:
        loaded = read(mutated)
    except ValueError:
        return
    assert _json_equal(write(loaded), mutated)


class _Float(float):
    """A float subclass: json writes its value, and the writer's number
    routes, which check exact types, leave it to the recursive path."""


# every type json writes bare, with the values whose text is a near miss of
# another route's: exponents, -0.0, the smallest subnormal, ints past 64 bits
NUMBERS = st.one_of(
    st.integers(), st.integers(-2**100, 2**100), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([True, False, None, -0.0, 1e-05, 1e16, 5e-324, 2**64, -2**70, 0.1]))
# keys and strings with quotes, brackets, commas, escapes and non-ASCII text
TEXT = st.one_of(st.text(max_size=4), st.sampled_from(
    ['a"b', "\\", "\n", "[1,2]", "],[", "\u00e9", "\u00e9t\u00e9", "\U0001f600", "\x00", ""]))
ENTRIES = st.one_of(NUMBERS, NUMBERS, TEXT,
                    st.floats(allow_nan=False, allow_infinity=False).map(_Float))
# number rows, empty ones included, and near misses: a string or a float subclass among them
ROWS = st.one_of(st.lists(NUMBERS, max_size=4), st.lists(ENTRIES, max_size=4))
JSON_DOCS = st.recursive(
    st.one_of(ENTRIES, ROWS, ROWS.map(tuple), st.lists(ROWS, max_size=4),
              st.lists(st.lists(NUMBERS, min_size=1, max_size=4), min_size=1, max_size=4),
              # label matrices, and near misses: an int that is no label, a bool
              st.lists(st.lists(st.sampled_from([-1, 0, 1, 1, -1, 2, True]), min_size=1,
                                max_size=4), min_size=1, max_size=4),
              st.lists(st.one_of(ROWS, ROWS.map(tuple), ENTRIES), max_size=4)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(JSON_DOCS)
def test_the_writer_gives_the_text_of_json_dumps_indent_1(doc):
    assert serialize._json_text(doc) == json.dumps(doc, indent=1)


def _neighbours(value: float, steps: int = 3) -> list[float]:
    """value and the steps doubles on either side of it, in both signs."""
    near = [value]
    for toward in (0.0, math.inf):
        x = value
        for _ in range(steps):
            near.append(x := math.nextafter(x, toward))
    return near + [-x for x in near]


def test_the_writer_writes_json_dumps_text_for_bulk_floats_and_band_edges():
    # orjson writes a float's digits; the writer keeps its text only inside
    # [1e-4, 1e16), so a change to orjson's float text fails here, not in a file
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    anywhere = bits.view(np.float64)
    # sign and mantissa from random bits, the exponent inside the band or next to it
    exponents = rng.integers(1023 - 15, 1023 + 56, bits.size, dtype=np.uint64)
    sign_and_mantissa = bits & np.uint64(0x800F_FFFF_FFFF_FFFF)
    in_band = (sign_and_mantissa | exponents << np.uint64(52)).view(np.float64)
    floats = np.concatenate([anywhere, in_band])
    floats = floats[np.isfinite(floats)].tolist()
    edges = [x for edge in (1e-5, 1e-4, 1e16) for x in _neighbours(edge)]
    edges += [5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 0.0, -0.0]
    assert len(floats) > 199_000 and 1e-4 in edges and math.nextafter(1e16, 0.0) in edges
    # ints orjson writes, beside floats too, and ints beyond 64 bits, which it rejects
    ints, beyond = [2**63, -2**63, 2**63 - 1, 10**16], [2**64, -2**63 - 1]
    for doc in (floats, {"rows": [floats[i:i + 1000] for i in range(0, len(floats), 1000)]},
                edges, [edges, edges[::-1], [1.5]], ints + edges, [ints, edges[::-1] + ints],
                ints + beyond, [ints + edges, beyond], [True, None, 1e-5, 2, 1e16],
                [edges[:3], [None, 1e-5], [False, 2**64, 1e-5]]):
        assert serialize._json_text(doc) == json.dumps(doc, indent=1)


def test_every_writer_writes_the_text_of_json_dumps_indent_1(tmp_path):
    wide_spec = md.GenSpec(domain_size=1000, k=24, hypothesis_count=128, seed=5)
    wide_fam, wide_cls = md.gen_random_label_consistent(wide_spec)
    # one label vector per member, and a -0.0 beside 0.0
    own_labels = md.DistributionFamily([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]],
                                       [[0.0, 1.0], [-0.0, 0.3], [0.1, 5e-324]])
    mixture = md.RandomizedClassifier(wide_cls, (0, 1, 2), [0.5, 0.3, 0.2])
    compact = md.derandomize(wide_fam, mixture,
                             md.DerandConfig(eps=0.6, delta=0.2, mode="calibrated",
                                             m_override=5000, rounding="hash"),
                             np.random.default_rng(4)).classifier
    assert len(compact.t_points) > 0
    path = tmp_path / "file.json"
    for save, to_dict, args in (
            (serialize.save_instance, serialize.instance_to_dict,
             (wide_fam, wide_cls, wide_spec)),
            (serialize.save_instance, serialize.instance_to_dict,
             (own_labels, md.HypothesisClass([[1, -1], [-1, -1]], vc_dim=1))),
            (serialize.save_randomized, serialize.randomized_to_dict, (mixture,)),
            (serialize.save_classifier, serialize.classifier_to_dict,
             (md.ExplicitClassifier(wide_cls.label_matrix[3]),)),
            (serialize.save_classifier, serialize.classifier_to_dict, (compact,))):
        save(path, *args)
        assert path.read_text() == json.dumps(to_dict(*args), indent=1)
    doc = serialize.instance_to_dict(own_labels, md.HypothesisClass([[1, -1]]))
    assert "shared_label_one_prob" not in doc
    assert "shared_label_one_prob" in serialize.instance_to_dict(wide_fam, wide_cls)


def test_the_writer_rejects_nan_and_infinity_before_opening_a_file(tmp_path, monkeypatch):
    # the readers reject these literals, so a file holding one could not be read back
    floats = np.random.default_rng(7).uniform(1e-6, 1.0, 1000).tolist()
    for bad in (math.nan, math.inf, -math.inf):
        # one after 1000 floats, and one inside a float row of a matrix
        for doc in ({"weights": [0.5, bad]}, [[1.0], [bad]], {"x": bad}, [_Float(bad)],
                    [[1.0], ["a", bad]], floats + [bad],
                    {"mass": [floats[:500], floats[500:] + [bad], floats[:10]]}):
            with pytest.raises(ValueError, match="Out of range float values"):
                serialize._json_text(doc)
        monkeypatch.setattr(serialize, "classifier_to_dict", lambda clf: {"labels": [bad]})
        path = tmp_path / "clf.json"
        with pytest.raises(ValueError):
            serialize.save_classifier(path, md.ExplicitClassifier([1]))
        assert not path.exists()
    with pytest.raises(TypeError, match="keys must be str, got int"):
        serialize._json_text({1: 2})


def _depth(value) -> int:
    """How deep value nests lists and dicts."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(_depth, value), default=0)
    return 0


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS, st.sampled_from([None, 1]), st.booleans())
def test_the_nesting_of_a_file_is_how_deep_json_loads_nests_it(doc, indent, ascii_only):
    # \u escapes, or non-ASCII text as UTF-8 bytes
    text = json.dumps(doc, indent=indent, ensure_ascii=ascii_only)
    assert serialize._nesting(text.encode()) == _depth(json.loads(text))


def test_readers_parse_up_to_the_depth_limit_only():
    limit = serialize.MAX_JSON_DEPTH
    deepest = serialize._parse(b"[" * limit + b"]" * limit)
    for _ in range(limit - 1):
        deepest, = deepest
    assert deepest == []
    with pytest.raises(ValueError, match=f"JSON nested {limit + 1} levels deep; at most {limit}"):
        serialize._parse(b"[" * (limit + 1) + b"]" * (limit + 1))
    # more brackets than the limit, few of them nested: the count is no bound,
    # and the scan reads the depth
    assert serialize._parse(json.dumps([[1]] * (limit + 1)).encode()) == [[1]] * (limit + 1)
    assert serialize._parse(json.dumps(["[{" * limit, "\\", "[" * limit]).encode())[1] == "\\"


def _instance_file(path, seed: int, **doc_changes) -> bytes:
    """Write an n=30, k=3, |H|=4 instance of the seed to path, with doc_changes
    made to its document, and return the file's bytes."""
    fam, cls, _ = md.generate(md.GenSpec(domain_size=30, k=3, hypothesis_count=4, seed=seed))
    doc = serialize.instance_to_dict(fam, cls)
    path.write_text(json.dumps({**doc, **doc_changes}, indent=1))
    return path.read_bytes()


@pytest.fixture
def parses(monkeypatch):
    """The files' bytes, one entry per parse that load_instance starts (each
    tries the label route first), with no file kept from an earlier test."""
    monkeypatch.setattr(serialize, "_last_instance", None)
    started, route = [], serialize._label_route
    monkeypatch.setattr(serialize, "_label_route", lambda data: started.append(data) or route(data))
    return started


def test_a_file_loaded_again_gives_the_same_objects_from_one_parse(tmp_path, parses):
    path, copy = tmp_path / "inst.json", tmp_path / "copy.json"
    copy.write_bytes(_instance_file(path, 1))
    first = serialize.load_instance(path)
    # the bytes are what is compared, so a copy at another path is the same file
    for again in (serialize.load_instance(path), serialize.load_instance(copy)):
        assert all(a is b for a, b in zip(again, first, strict=True))
    assert len(parses) == 1


def test_a_same_length_rewrite_in_place_loads_the_new_values(tmp_path, parses):
    path = tmp_path / "inst.json"
    old = _instance_file(path, 2)
    fam = serialize.load_instance(path)[0]
    members, stat = json.loads(old)["distributions"], path.stat()
    new = _instance_file(path, 2, distributions=[members[1], members[0], *members[2:]])
    # the same size and modification time: only the bytes tell the files apart
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert len(new) == len(old) and new != old
    swapped = serialize.load_instance(path)[0]
    assert np.array_equal(swapped.mass_matrix, fam.mass_matrix[[1, 0, 2]])
    assert len(parses) == 2


def test_a_rejected_file_is_parsed_and_rejected_on_every_load(tmp_path, parses):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    _instance_file(good, 3)
    _instance_file(bad, 3, domain_size=29)
    serialize.load_instance(good)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as failed:
            serialize.load_instance(bad)
        messages.append(str(failed.value))
        assert serialize._last_instance is None
    assert messages == ["mass row 0 has 30 numbers, expected domain_size 29"] * 2
    assert len(parses) == 3


def test_only_the_last_file_parsed_is_kept(tmp_path, parses):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _instance_file(a, 4)
    # every label a float, which the label route leaves to orjson
    labels = [[float(v) for v in row] for row in json.loads(_instance_file(b, 5))["hypotheses"]]
    _instance_file(b, 5, hypotheses=labels)
    for path in (a, b, a):
        serialize.load_instance(path)
    assert parses == [a.read_bytes(), b.read_bytes(), a.read_bytes()]


# values a GenSpec field may be handed: bools, None, numpy numbers, integral
# and fractional floats, non-finite ones, ints past 64 bits, and strings
SPEC_VALUES = st.one_of(
    st.integers(-2, 2**66), st.floats(-1, 10), st.text(max_size=3),
    st.sampled_from([True, False, None, 0.0, 0.5, 3.0, math.nan, math.inf, 2**64 - 1, 2**64,
                     "explicit", "hash", "gap_example"]),
    st.integers(0, 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(0, 1).map(np.float64), st.sampled_from([np.bool_(True), np.float32(0.5)]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(md.GenSpec)]),
                       SPEC_VALUES, max_size=4))
def test_a_gen_spec_that_builds_saves_a_file_that_loads(fields):
    try:
        spec = md.GenSpec(**fields)
    except ValueError:
        return
    fam, cls, _ = md.generate(md.GenSpec(domain_size=3, k=2, hypothesis_count=2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        serialize.save_instance(path, fam, cls, spec)
        serialize._last_instance = None
        assert serialize.load_instance(path)[2] == spec
