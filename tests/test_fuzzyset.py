import random

import pytest
from hypothesis import given, strategies as st

import quantrel as qr

U5 = qr.IndexSet(["u1", "u2", "u3", "u4", "u5"])
U3 = qr.IndexSet(["c1", "c2", "c3"])

KP = qr.FuzzySet.from_dict(U5, {"u1": 0.5, "u2": 0.8, "u3": 0.2, "u4": 0.6})
BM = qr.FuzzySet.from_dict(U5, {"u1": 0.8, "u2": 0.3, "u3": 0.1, "u4": 0.9, "u5": 1.0})

MICE = qr.FuzzySet.from_dict(U3, {"c1": 0.7, "c2": 0.6, "c3": 0.2})
EAT = qr.FuzzyRelation(U3, {("c1", "c1"): 0.5, ("c1", "c3"): 0.8,
                            ("c2", "c1"): 0.2, ("c2", "c3"): 0.3,
                            ("c3", "c3"): 0.9})
PLANTS = qr.FuzzySet.from_dict(U3, {"c1": 0.2, "c2": 0.3, "c3": 0.6})

grade_lists = st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                       min_size=3, max_size=3)


def test_sigma_count_fixture():
    assert qr.sigma_count(BM) == pytest.approx(3.1, abs=1e-9)
    assert qr.sigma_count(qr.FuzzySet(U5, [0] * 5)) == 0.0
    assert qr.sigma_count(qr.intersect(KP, BM)) == pytest.approx(1.5, abs=1e-9)


def test_sigma_count_threshold_and_rounding():
    assert qr.sigma_count(BM, threshold=0.5) == pytest.approx(0.8 + 0.9 + 1.0, abs=1e-9)


def test_intersect_fixture():
    got = qr.intersect(KP, BM).as_dict()
    assert got == pytest.approx(
        {"u1": 0.5, "u2": 0.3, "u3": 0.1, "u4": 0.6, "u5": 0.0}, abs=1e-9)


def test_intersect_unit_and_mismatch():
    full = qr.FuzzySet(U5, [1.0] * 5)
    assert qr.intersect(KP, full) == KP
    other = qr.FuzzySet(U3, [0, 0, 0])
    with pytest.raises(qr.ShapeMismatchError):
        qr.intersect(KP, other)


@given(grade_lists)
def test_intersect_idempotent(grades):
    fs = qr.FuzzySet(U3, grades)
    assert qr.intersect(fs, fs) == fs


def test_proportion_fixtures():
    assert qr.proportion(KP, BM) == pytest.approx(1.5 / 3.1, abs=1e-9)
    assert qr.proportion(KP, KP) == 1.0
    cats = qr.FuzzySet.from_dict(U3, {"c1": 0.2, "c2": 0.3, "c3": 0.8})
    sleep = qr.FuzzySet.from_dict(U3, {"c1": 0.5, "c2": 0.4, "c3": 0.4})
    assert qr.proportion(sleep, cats) == pytest.approx(0.9 / 1.3, abs=1e-9)


def test_proportion_empty_restrictor():
    empty = qr.FuzzySet(U5, [0] * 5)
    with pytest.raises(qr.EmptyRestrictorError):
        qr.proportion(KP, empty)


def test_verb_image_fixture():
    image = qr.verb_image(EAT, MICE)
    assert image.as_dict() == pytest.approx({"c1": 0.5, "c2": 0.0, "c3": 0.7}, abs=1e-9)


def test_verb_image_identity_and_zero():
    ident = qr.FuzzyRelation(U3, {(u, u): 1.0 for u in U3.elements})
    assert qr.verb_image(ident, MICE) == MICE
    zero = qr.FuzzyRelation(U3, {})
    assert qr.verb_image(zero, MICE).is_empty()


def test_scale_fixture():
    scaled = qr.scale(MICE, 0.4)
    assert scaled.as_dict() == pytest.approx({"c1": 0.28, "c2": 0.24, "c3": 0.08}, abs=1e-9)
    assert qr.scale(MICE, 1.0) == MICE
    assert qr.scale(MICE, 0.0).is_empty()
    with pytest.raises(qr.QuantrelError):
        qr.scale(MICE, 1.2)


def test_crisp_forward_image_basics():
    a2 = qr.IndexSet(["a", "b"])
    rel = qr.CrispRel(a2, a2, [("a", "b")])
    source = qr.FuzzySet.from_support(a2, ["a"])
    assert qr.crisp_forward_image(rel, source).support() == frozenset(["b"])
    ident = qr.CrispRel.identity(a2)
    assert qr.crisp_forward_image(ident, source) == source
    with pytest.raises(qr.QuantrelError):
        qr.crisp_forward_image(rel, qr.FuzzySet(a2, [0.5, 0]))


def test_crisp_forward_image_matches_verb_image():
    """The crisp image and the max-min image agree on lifted inputs."""
    rng = random.Random(11)
    labels = ["a", "b", "c"]
    u = qr.IndexSet(labels)
    for _ in range(100):
        pairs = [(x, y) for x in labels for y in labels if rng.random() < 0.4]
        members = [x for x in labels if rng.random() < 0.5]
        expected = {y for (x, y) in pairs if x in members}
        rel = qr.CrispRel(u, u, pairs)
        fs = qr.FuzzySet.from_support(u, members)
        assert qr.crisp_forward_image(rel, fs).support() == expected
        lifted = qr.FuzzyRelation(u, {p: 1.0 for p in pairs})
        assert qr.verb_image(lifted, fs).support() == expected


@given(grade_lists, grade_lists)
def test_sigma_count_monotone(low, high):
    a = qr.FuzzySet(U3, [min(x, y) for x, y in zip(low, high)])
    b = qr.FuzzySet(U3, high)
    assert qr.sigma_count(a) <= qr.sigma_count(b) + 1e-12


@given(grade_lists, grade_lists)
def test_proportion_conservativity_identity(xs, ys):
    """proportion(a & b, a) is exactly proportion(b, a): min is
    idempotent, so the numerators are the same floats."""
    a, b = qr.FuzzySet(U3, xs), qr.FuzzySet(U3, ys)
    if qr.sigma_count(a) == 0.0:
        return
    assert qr.proportion(qr.intersect(a, b), a) == qr.proportion(b, a)


@given(grade_lists)
def test_verb_image_bounded_by_subject_peak(grades):
    fs = qr.FuzzySet(U3, grades)
    image = qr.verb_image(EAT, fs)
    assert max(image.grades) <= max(fs.grades) + 1e-12


def test_crisp_sigma_count_is_cardinality():
    crisp = qr.FuzzySet.from_support(U5, ["u1", "u4", "u5"])
    assert qr.sigma_count(crisp) == 3.0
