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


def test_fuzzy_relation_rejects_pairs_outside_the_universe():
    for pair in [("c1", "c9"), ("c9", "c1"), ("c9", "c9")]:
        with pytest.raises(qr.ShapeMismatchError):
            qr.FuzzyRelation(U3, {("c1", "c2"): 0.5, pair: 0.5})


def test_fuzzy_relation_rejects_grades_outside_unit_interval():
    for g in (1.5, -0.1):
        with pytest.raises(qr.QuantrelError):
            qr.FuzzyRelation(U3, {("c1", "c2"): 0.5, ("c2", "c3"): g})


def test_fuzzy_relation_drops_zero_grades_and_indexes_rows():
    rel = qr.FuzzyRelation(U3, {("c1", "c1"): 0.0, ("c1", "c3"): 0.8,
                                ("c2", "c2"): 0, ("c3", "c1"): 1,
                                ("c3", "c3"): 0.25})
    assert rel.pairs == {("c1", "c3"): 0.8, ("c3", "c1"): 1.0, ("c3", "c3"): 0.25}
    assert rel.rows == (((2, 0.8),), (), ((0, 1.0), (2, 0.25)))
    assert qr.FuzzyRelation(U3, {("c2", "c2"): 0.0}).rows == ((), (), ())


def _rows_as_pairs(rel):
    labels = rel.universe.elements
    return {(labels[i], labels[j]): g
            for i, row in enumerate(rel.rows) for j, g in row}


def test_fuzzy_relation_rows_hold_exactly_the_pairs():
    rng = random.Random(23)
    for n in range(1, 7):
        u = qr.IndexSet([f"x{i}" for i in range(n)])
        for _ in range(30):
            given_pairs = {(x, y): rng.choice((0.0, 0.0, 0.3, 0.5, 1.0))
                           for x in u.elements for y in u.elements
                           if rng.random() < 0.6}
            rel = qr.FuzzyRelation(u, given_pairs)
            assert rel.pairs == {p: g for p, g in given_pairs.items() if g > 0.0}
            assert len(rel.rows) == n
            assert sum(map(len, rel.rows)) == len(rel.pairs)
            assert _rows_as_pairs(rel) == rel.pairs
            for x in u.elements:
                for y in u.elements:
                    assert rel.grade(x, y) == rel.pairs.get((x, y), 0.0)
            # pairs is read off rows on every access, never kept
            rel.pairs.clear()
            assert _rows_as_pairs(rel) == rel.pairs


def test_verb_image_against_max_over_all_pairs():
    """The row kernel against max over every (x, y) of min(a(x), v(x, y)),
    on relations with empty rows and subjects with zero grades."""
    rng = random.Random(29)
    pool = (0.0, 0.0, 0.1, 0.25, 0.5, 0.7, 1.0)
    for n in range(1, 9):
        u = qr.IndexSet([f"x{i}" for i in range(n)])
        for _ in range(40):
            empty_rows = {x for x in u.elements if rng.random() < 0.3}
            rel = qr.FuzzyRelation(u, {
                (x, y): rng.choice(pool) for x in u.elements for y in u.elements
                if x not in empty_rows})
            subj = qr.FuzzySet(u, [rng.choice(pool) for _ in u.elements])
            expected = [max(min(subj.grade(x), rel.grade(x, y)) for x in u.elements)
                        for y in u.elements]
            assert qr.verb_image(rel, subj).grades == tuple(expected)


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


@st.composite
def _restrictor_and_scopes(draw):
    """A restrictor of n = 1..30 grades (all zero in some draws), up to 8
    scopes over the same elements, and a sigma-count threshold."""
    n = draw(st.integers(min_value=1, max_value=30))
    grade = st.sampled_from((0.0, 0.25, 0.3, 0.5, 1.0)) | st.floats(
        min_value=0, max_value=1, allow_nan=False)
    tuples = st.lists(grade, min_size=n, max_size=n).map(tuple)
    a = draw(tuples | st.just((0.0,) * n))
    bs = draw(st.lists(tuples, max_size=8))
    return a, bs, draw(st.sampled_from((0.0, 0.3, 1.0)))


@given(_restrictor_and_scopes())
def test_proportion_row_equals_its_one_scope_case(case):
    """The row kernel sums sigma(a) once, and each of its proportions is
    the one a single pair's sigma(a & b) / sigma(a) gives, repr for
    repr; a restrictor of sigma-count zero gives None."""
    from quantrel.fuzzyset import proportion_row
    a, bs, t = case
    row = proportion_row(bs, a, t)
    denom = sum(g for g in a if g >= t)
    if denom == 0.0:
        assert row is None
    else:
        pairs = [sum(m for m in map(min, a, b) if m >= t) / denom for b in bs]
        assert repr(row) == repr(pairs)
