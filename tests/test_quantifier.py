import random

import pytest
from hypothesis import given, strategies as st

import brute
import quantrel as qr
from conftest import MOST_BPS, SEVERAL_BPS, interpolation_oracle

SEVERAL = qr.FuzzyQuantifier("several", SEVERAL_BPS)
MOST = qr.FuzzyQuantifier("most", MOST_BPS)

U2 = qr.IndexSet(["a", "b"])
U3 = qr.IndexSet(["a", "b", "c"])


def test_quantifier_validation():
    with pytest.raises(qr.QuantrelError):
        qr.CrispQuantifier("most")
    with pytest.raises(qr.QuantrelError):
        qr.CrispQuantifier("exactly")
    with pytest.raises(qr.QuantrelError):
        qr.CrispQuantifier("every", 2)
    with pytest.raises(qr.QuantrelError):
        qr.FuzzyQuantifier("bad", ((0.1, 0), (1, 0)))
    with pytest.raises(qr.QuantrelError):
        qr.FuzzyQuantifier("bad", ((0, 0), (0.4, 2.0), (1, 0)))
    with pytest.raises(qr.QuantrelError):
        qr.FuzzyQuantifier("bad", ((0, 0), (0.4, 1), (0.4, 0), (1, 0)))


def test_fuzzy_quantifier_rejects_nan_proportion():
    """A NaN proportion between the endpoints fails every comparison, so
    only a range check on each proportion refuses it."""
    with pytest.raises(qr.QuantrelError, match=r"proportions must lie in \[0, 1\]"):
        qr.FuzzyQuantifier("x", ((0, 0), (float("nan"), 1), (1, 0)))


def test_fuzzy_quantifier_stores_proportions_outside_its_value():
    """apply_distribution bisects the stored proportions; repr, == and
    hash still see only the name and the breakpoints."""
    few = qr.FuzzyQuantifier("few", ((0, 1), (0.3, 1), (0.6, 0), (1, 0)))
    assert few.proportions == (0.0, 0.3, 0.6, 1.0)
    assert repr(few) == ("FuzzyQuantifier(name='few', breakpoints="
                         "((0.0, 1.0), (0.3, 1.0), (0.6, 0.0), (1.0, 0.0)))")
    again = qr.FuzzyQuantifier("few", few.breakpoints)
    assert again == few and hash(again) == hash(few)


def test_is_conservative():
    for kind in ("every", "some", "no"):
        assert qr.is_conservative(qr.CrispQuantifier(kind), U3)
    assert qr.is_conservative(qr.CrispQuantifier("exactly", 1), U3)
    # "X has at least one element outside A" is not conservative.
    assert not qr.is_conservative(lambda a, x: bool(x - a), U2)
    big = qr.IndexSet([str(i) for i in range(13)])
    with pytest.raises(qr.EnumerationLimitError):
        qr.is_conservative(qr.CrispQuantifier("some"), big)


def test_apply_distribution_crisp_readings():
    every = qr.CrispQuantifier("every")
    assert qr.apply_distribution(every, 1.0) == 1.0
    assert qr.apply_distribution(every, 1.5 / 3.1) == 0.0
    some = qr.CrispQuantifier("some")
    assert qr.apply_distribution(some, 0.0) == 0.0
    assert qr.apply_distribution(some, 1e-6) == 1.0
    with pytest.raises(qr.EvaluationError):
        qr.apply_distribution(qr.CrispQuantifier("no"), 0.5)


def test_apply_distribution_interpolation():
    assert qr.apply_distribution(SEVERAL, 0.4) == 1.0
    assert qr.apply_distribution(SEVERAL, 0.2) == pytest.approx(0.5, abs=1e-12)
    for p in (0.0, 0.15, 0.4, 0.63, 0.9, 1.0):
        assert qr.apply_distribution(SEVERAL, p) == pytest.approx(
            interpolation_oracle(SEVERAL_BPS, p), abs=1e-12)
    assert qr.apply_distribution(MOST, 1.0) == 1.0
    with pytest.raises(qr.QuantrelError):
        qr.apply_distribution(SEVERAL, 1.2)


@given(st.floats(min_value=0, max_value=1, allow_nan=False))
def test_distribution_continuous_and_bounded(p):
    v = qr.apply_distribution(SEVERAL, p)
    assert 0.0 <= v <= 1.0
    nearby = qr.apply_distribution(SEVERAL, min(1.0, p + 1e-9))
    assert abs(nearby - v) < 1e-8


def test_quantifier_vrel_entries():
    p = qr.PowersetObject(U2, qr.GradeLattice([0, 1]))
    every = qr.quantifier_vrel(qr.CrispQuantifier("every"), p.index, p.index, qr.BOOLEAN)
    for member in p.enumeration:
        assert every.entry(member, member) == 1.0
    some = qr.quantifier_vrel(qr.CrispQuantifier("some"), p.index, p.index, qr.BOOLEAN)
    empty = (0.0, 0.0)
    assert all(some.entry(empty, b) == 0.0 for b in p.enumeration)

    several = qr.quantifier_vrel(SEVERAL, p.index, p.index, qr.GODEL)
    a, b = (1.0, 1.0), (1.0, 0.0)
    assert several.entry(a, b) == pytest.approx(
        qr.apply_distribution(SEVERAL, 0.5), abs=1e-12)
    # empty restrictor rows are bottom for graded determiners
    assert all(several.entry(empty, b) == 0.0 for b in p.enumeration)


def test_quantifier_vrel_rejects_fuzzy_over_boolean():
    p = qr.PowersetObject(U2, qr.GradeLattice([0, 1]))
    with pytest.raises(qr.EvaluationError):
        qr.quantifier_vrel(SEVERAL, p.index, p.index, qr.BOOLEAN)


def test_quantifier_vrel_conservativity_identity():
    lattice = qr.GradeLattice([0, 0.5, 1])
    p = qr.PowersetObject(U2, lattice)
    for d in (SEVERAL, MOST, qr.CrispQuantifier("every"), qr.CrispQuantifier("some")):
        rel = qr.quantifier_vrel(d, p.index, p.index, qr.GODEL)
        for a in p.enumeration:
            for b in p.enumeration:
                meet = qr.PowersetObject.meet(a, b)
                assert rel.entry(a, b) == rel.entry(a, meet)


def test_boolean_specialization_matches_inclusion():
    """Crisp every/some over the crisp lattice equal the lifted crisp
    condition relation."""
    p = qr.PowersetObject(U2, qr.GradeLattice([0, 1]))
    s = p.index

    def support(member):
        return frozenset(u for u, g in zip(U2.elements, member) if g == 1.0)

    for kind in ("every", "some"):
        d = qr.CrispQuantifier(kind)
        crisp_pairs = [(a, b) for a in s.elements for b in s.elements
                       if qr.gq_holds(d, support(a), support(b))]
        lifted = qr.include(qr.CrispRel(s, s, crisp_pairs), qr.BOOLEAN)
        assert qr.quantifier_vrel(d, p.index, p.index, qr.BOOLEAN).equal(lifted)


def test_argmax_fixtures():
    u3 = qr.IndexSet(["c1", "c2", "c3"])
    mice = qr.FuzzySet.from_dict(u3, {"c1": 0.7, "c2": 0.6, "c3": 0.2})
    scaled = qr.apply_quantifier_argmax(SEVERAL, mice)
    assert scaled.as_dict() == pytest.approx(
        {"c1": 0.28, "c2": 0.24, "c3": 0.08}, abs=1e-9)

    plants = qr.FuzzySet.from_dict(u3, {"c1": 0.2, "c2": 0.3, "c3": 0.6})
    assert qr.apply_quantifier_argmax(MOST, plants) == plants

    flat = qr.FuzzyQuantifier("any", ((0.0, 0.7), (1.0, 0.7)))
    assert qr.apply_quantifier_argmax(flat, mice) == mice  # largest-k tie-break


def _argmax_reference(d, np_set):
    """Brute force over the grid: build every scaled set and read its
    proportion back with the public kernel."""
    best_k, best_v = 0.0, -1.0
    for i in range(101):
        k = i * 0.01
        v = qr.apply_distribution(d, qr.proportion(qr.scale(np_set, k), np_set))
        if v >= best_v:
            best_k, best_v = k, v
    return qr.scale(np_set, best_k)


def test_argmax_matches_grid_reference():
    rng = random.Random(20211)
    dets = [SEVERAL, MOST, qr.FuzzyQuantifier("few", ((0, 1), (0.3, 1), (0.6, 0), (1, 0))),
            qr.CrispQuantifier("every"), qr.CrispQuantifier("some")]
    for _ in range(10):
        inner = sorted(rng.random() for _ in range(rng.randint(0, 3)))
        bps = [(0.0, rng.random())] + [(p, rng.random()) for p in inner] + [(1.0, rng.random())]
        dets.append(qr.FuzzyQuantifier("random", bps))
    draws = [lambda: float(rng.random() < 0.5),
             lambda: rng.randint(0, 10) / 10,
             rng.random]
    for n in (1, 2, 3, 8, 30):
        u = qr.IndexSet([f"u{i}" for i in range(n)])
        for draw in draws:
            for _ in range(3):
                grades = [draw() for _ in range(n)]
                if not any(grades):
                    grades[rng.randrange(n)] = 1.0
                np_set = qr.FuzzySet(u, grades)
                for d in dets:
                    got = qr.apply_quantifier_argmax(d, np_set)
                    assert got.grades == _argmax_reference(d, np_set).grades
    zero = qr.FuzzySet(U3, [0.0, 0.0, 0.0])
    with pytest.raises(qr.EmptyRestrictorError):
        qr.apply_quantifier_argmax(SEVERAL, zero)


def test_quantifier_vrel_entry_guard():
    lattice = qr.GradeLattice([i / 11 for i in range(12)])
    p = qr.PowersetObject(qr.IndexSet(["a", "b", "c"]), lattice)
    assert len(p) == 1728  # within the enumeration guard, 1728^2 entries over it
    with pytest.raises(qr.EnumerationLimitError):
        qr.quantifier_vrel(SEVERAL, p.index, p.index, qr.GODEL)


def test_graded_entry_exactly_requires_crisp():
    with pytest.raises(qr.EvaluationError):
        qr.graded_entry(qr.CrispQuantifier("exactly", 1), (0.5, 1.0), (1.0, 1.0))
    assert qr.graded_entry(qr.CrispQuantifier("exactly", 1), (0.0, 1.0), (1.0, 1.0)) == 1.0


FEW = qr.FuzzyQuantifier("few", ((0, 0), (0.1, 1), (0.3, 1), (0.6, 0), (1, 0)))
PAIR_DETS = (SEVERAL, MOST, FEW, qr.CrispQuantifier("every"), qr.CrispQuantifier("some"),
             qr.CrispQuantifier("no"), qr.CrispQuantifier("exactly", 1))


@st.composite
def _determiner_pairs(draw):
    """A determiner, a restrictor and 1..8 scopes of n = 1..6 grades, crisp
    or graded, and a sigma-count threshold."""
    n = draw(st.integers(min_value=1, max_value=6))
    grade = st.sampled_from((0.0, 1.0)) | st.sampled_from((0.25, 0.5)) | st.floats(
        min_value=0, max_value=1, allow_nan=False)
    tuples = st.lists(grade, min_size=n, max_size=n).map(tuple)
    return (draw(st.sampled_from(PAIR_DETS)), draw(tuples),
            draw(st.lists(tuples, min_size=1, max_size=8)),
            draw(st.sampled_from((0.0, 0.3, 1.0))))


@given(_determiner_pairs())
def test_graded_entry_equals_brute_entry(case):
    """`graded_entry` grades every pair as the tests' oracle
    (`brute.entry`) does, repr for repr; "exactly" refuses a pair
    exactly when it holds a graded tuple, and the oracle refuses it
    too."""
    d, a, bs, t = case

    def outcome(grade):
        try:
            return repr(grade())
        except qr.EvaluationError:
            return "EvaluationError"

    exactly = isinstance(d, qr.CrispQuantifier) and d.kind == "exactly"
    for b in bs:
        got = outcome(lambda: qr.graded_entry(d, a, b, t))
        assert got == outcome(lambda: brute.entry(d, a, b, t))
        graded = any(g not in (0.0, 1.0) for g in a + b)
        assert (got == "EvaluationError") == (exactly and graded)
