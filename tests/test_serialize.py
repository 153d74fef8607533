"""Parse parity: every file the package writes loads, through orjson, to the
same arrays and values as the standard library's json.loads, bit for bit.
json.loads is the reference here; the package reads with orjson only."""

import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multidist as md
from multidist import serialize

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
