import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidist as md
from multidist.instances import (_bias_profile_eta, gen_gap_example, gen_heavy_point_probe,
                                 gen_random_label_consistent)
from multidist.metrics import bayes_labels

from helpers import heavy_mask


def test_generators_are_deterministic():
    spec = md.GenSpec(domain_size=18, k=4, hypothesis_count=7, seed=123)
    fam1, cls1 = gen_random_label_consistent(spec)
    fam2, cls2 = gen_random_label_consistent(spec)
    assert np.array_equal(fam1.mass_matrix, fam2.mass_matrix)
    assert np.array_equal(fam1.label_prob_matrix, fam2.label_prob_matrix)
    assert np.array_equal(cls1.label_matrix, cls2.label_matrix)


def test_generated_masses_are_per_member_draws_bitwise():
    # one Dirichlet(1) mass vector per member, drawn from the stream member
    # by member after the label vector; a heavy probe's member 0 scales its
    # light masses to what the heavy points leave
    def member_mass(rng, size):
        raw = rng.exponential(1.0, size=size)
        return raw / raw.sum()

    spec = md.GenSpec(domain_size=37, k=5, seed=9)
    rng = np.random.default_rng(spec.seed)
    eta = _bias_profile_eta(spec, rng)
    want = np.array([member_mass(rng, 37) for _ in range(5)])
    fam, _ = gen_random_label_consistent(spec)
    assert fam.mass_matrix.tobytes() == want.tobytes()
    assert fam.label_prob_matrix.tobytes() == np.array([eta] * 5).tobytes()

    spec = md.GenSpec(kind="heavy_point_probe", domain_size=30, k=4, heavy_count=2,
                      heavy_mass=0.3, eps=0.3, delta=0.3, seed=4)
    rng = np.random.default_rng(spec.seed)
    rng.uniform(-spec.light_beta_max, spec.light_beta_max, size=28)
    want = np.zeros((4, 30))
    want[0, :2] = 0.3
    want[0, 2:] = member_mass(rng, 28) * (1.0 - 0.3 * 2)
    for i in range(1, 4):
        want[i, 2:] = member_mass(rng, 28)
    assert gen_heavy_point_probe(spec).mass_matrix.tobytes() == want.tobytes()


def test_random_instances_are_valid_and_consistent():
    for seed in range(5):
        # built, so its rows are distributions
        fam, cls = gen_random_label_consistent(md.GenSpec(seed=seed))
        assert fam.label_consistent
        assert len(cls) == 16


def test_bayes_in_class_appends_bayes_hypothesis():
    spec = md.GenSpec(kind="bayes_in_class", domain_size=10, k=2,
                      hypothesis_count=4, seed=1)
    fam, cls = gen_random_label_consistent(spec)
    assert len(cls) == 5
    assert np.array_equal(cls.label_matrix[-1], bayes_labels(fam))


def test_gap_example_quantities():
    fam, cls, F = gen_gap_example(8)
    assert md.randomized_worst_case_error(F, fam) == pytest.approx(1 / 8, abs=1e-15)
    assert md.support_worst_case(F, fam) == 1.0
    assert md.exceedance_probability(F, fam, 1.0) == pytest.approx([1 / 8] * 8, abs=1e-15)
    with pytest.raises(ValueError):
        gen_gap_example(1)


def test_gap_example_hardness_is_about_the_class():
    fam, cls, _ = gen_gap_example(5)
    opt, _ = md.opt_bruteforce(cls, fam)
    assert opt == 1.0
    # over all labelings, constant +1 is perfect
    full = md.full_labeling_class(5)
    best, _ = md.opt_bruteforce(full, fam)
    assert best == 0.0


def test_heavy_probe_separates_points():
    spec = md.GenSpec(kind="heavy_point_probe", domain_size=25, k=2, heavy_count=3,
                      heavy_beta=0.4, heavy_mass=0.25, light_beta_max=0.05,
                      eps=0.1, delta=0.1, seed=4)
    fam = gen_heavy_point_probe(spec)  # built, so its rows are distributions
    assert fam.label_consistent
    mask = heavy_mask(fam, 0.1, 0.1)
    assert mask[:3].all() and not mask[3:].any()
    # bias signs alternate
    assert fam.shared_label_one_prob[0] > 0.5 > fam.shared_label_one_prob[1]


def test_heavy_probe_all_fair_has_no_heavy_points():
    spec = md.GenSpec(kind="heavy_point_probe", domain_size=20, k=3, heavy_count=0,
                      light_beta_max=0.0, eps=0.2, delta=0.2, seed=5)
    fam = gen_heavy_point_probe(spec)
    assert not heavy_mask(fam, 0.2, 0.2).any()
    assert np.all(fam.label_prob_matrix == 0.5)


def test_heavy_probe_rejects_non_separating_spec():
    spec = md.GenSpec(kind="heavy_point_probe", domain_size=20, k=2, heavy_count=2,
                      heavy_beta=0.01, heavy_mass=0.05, eps=0.3, delta=0.3, seed=6)
    with pytest.raises(ValueError):
        gen_heavy_point_probe(spec)


def test_heavy_probe_hash_variant_threshold_used():
    spec = md.GenSpec(kind="heavy_point_probe", domain_size=25, k=2, heavy_count=2,
                      heavy_beta=0.45, heavy_mass=0.3, light_beta_max=0.02,
                      eps=0.15, delta=0.15, variant="hash", seed=7)
    fam = gen_heavy_point_probe(spec)
    mask = heavy_mask(fam, 0.15, 0.15, variant="hash")
    assert mask[:2].all() and not mask[2:].any()


def test_generate_dispatch():
    fam, cls, F = md.generate(md.GenSpec(kind="gap_example", k=4))
    assert F is not None and fam.k == 4
    fam, cls, F = md.generate(md.GenSpec(domain_size=12, k=2, hypothesis_count=3, seed=0))
    assert F is None and len(cls) == 3
    with pytest.raises(ValueError):
        md.generate(md.GenSpec(kind="nonsense"))


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        md.GenSpec(domain_size=0)
    with pytest.raises(ValueError):
        md.GenSpec(det_fraction=0.8, fair_fraction=0.5)
    with pytest.raises(ValueError):
        md.GenSpec(det_beta_lo=0.4, det_beta_hi=0.2)
    # numpy once failed to broadcast deep in gen_heavy_point_probe instead
    with pytest.raises(ValueError, match="heavy_count must be nonnegative, got -1"):
        md.GenSpec(kind="heavy_point_probe", heavy_count=-1)
    # a NaN heavy_mass once made every member-0 mass NaN (1 - nan * 0)
    for mass in (float("nan"), float("inf"), -0.1, 1.5):
        with pytest.raises(ValueError, match=r"heavy_mass must lie in \[0, 1\], got"):
            md.generate(md.GenSpec(kind="heavy_point_probe", heavy_mass=mass))
    # a NaN light_beta_max once raised numpy's OverflowError in rng.uniform
    for name in ("fair_beta_max", "light_beta_max", "heavy_beta"):
        for beta in (float("nan"), float("inf"), -0.1, 0.6):
            with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1/2\], got"):
                md.generate(md.GenSpec(kind="heavy_point_probe", **{name: beta}))


def scalar_bias_profile_eta(spec, rng):
    """The former per-point loop: one scalar draw per point, in point order,
    and a second for a det point's sign."""
    n = spec.domain_size
    n_det = min(round(spec.det_fraction * n), n)
    n_fair = min(round(spec.fair_fraction * n), n - n_det)
    kinds = np.array(["mid"] * n, dtype=object)
    order = rng.permutation(n)
    kinds[order[:n_det]] = "det"
    kinds[order[n_det : n_det + n_fair]] = "fair"
    eta = np.empty(n)
    for x in range(n):
        if kinds[x] == "det":
            beta = rng.uniform(spec.det_beta_lo, spec.det_beta_hi)
            eta[x] = 0.5 + beta * (1 if rng.random() < 0.5 else -1)
        elif kinds[x] == "fair":
            eta[x] = 0.5 + rng.uniform(-spec.fair_beta_max, spec.fair_beta_max)
        else:
            eta[x] = rng.uniform(0.2, 0.8)
    return np.clip(eta, 0.0, 1.0)


@st.composite
def bias_specs(draw):
    base = draw(st.sampled_from([
        dict(),  # C06
        dict(domain_size=1000, k=24, hypothesis_count=128),  # cli_wide
        dict(det_fraction=0.0),
        dict(det_fraction=1.0, fair_fraction=0.0),
        dict(det_beta_lo=0.4, det_beta_hi=0.4, fair_beta_max=0.0),
        dict(domain_size=7),
    ]))
    if draw(st.booleans()):
        lo = draw(st.floats(0.0, 0.5))
        det = draw(st.floats(0.0, 1.0))
        base = dict(domain_size=draw(st.integers(1, 60)), det_fraction=det,
                    fair_fraction=draw(st.floats(0.0, 1.0 - det)),
                    det_beta_lo=lo, det_beta_hi=draw(st.floats(lo, 0.5)),
                    fair_beta_max=draw(st.floats(0.0, 0.5)))
    return md.GenSpec(**base, seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=200, deadline=None)
@given(bias_specs())
def test_bias_profile_draws_match_the_scalar_loop_bitwise(spec):
    rng, ref = np.random.default_rng(spec.seed), np.random.default_rng(spec.seed)
    eta = _bias_profile_eta(spec, rng)
    want = scalar_bias_profile_eta(spec, ref)
    assert eta.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_gen_spec_checks_its_field_types():
    # GenSpec(seed=True) once generated with seed 1 and saved a file its
    # loader rejected, and a float domain size failed deep in numpy
    for name, value, shown in (("seed", True, "True"), ("domain_size", 2.5, "2.5"),
                               ("k", 2.0, "2.0"), ("hypothesis_count", "3", "'3'"),
                               ("heavy_count", np.float64(1.0), "np.float64(1.0)"),
                               ("eps", True, "True"), ("delta", "0.2", "'0.2'"),
                               ("kind", 3, "3"), ("variant", None, "None")):
        kind = md.GenSpec.__annotations__[name]
        with pytest.raises(ValueError,
                           match=re.escape(f"gen_spec field {name!r} must be {kind}, got {shown}")):
            md.GenSpec(**{name: value})
    # json writes a lone surrogate as a \u escape, which the loader rejects
    for text in ("\ud800", "ok\udfff", "\ud83d\ude00"):
        with pytest.raises(ValueError, match=re.escape(
                f"gen_spec field 'variant' must be UTF-8 text, got {text!r}")):
            md.GenSpec(variant=text)
    for text in ("\U0001f600", "\u00e9t\u00e9", ""):
        assert md.GenSpec(variant=text).variant == text
    spec = md.GenSpec(seed=np.int64(3), k=np.uint8(4), eps=1, delta=np.float64(0.25))
    assert type(spec.seed) is int and type(spec.k) is int
    assert (spec.seed, spec.k, spec.eps, spec.delta) == (3, 4, 1, 0.25)
    # a campaign's per-trial replace checks the same way
    assert type(dataclasses.replace(spec, seed=np.uint64(7)).seed) is int
