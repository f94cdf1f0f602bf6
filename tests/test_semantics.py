import itertools
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import brute
import quantrel as qr
from quantrel.sampling import randomize_model
from conftest import (SEVERAL_BPS, animal_lexicon, crisp_lexicon,
                      interpolation_oracle)


def _tree(sentence, model):
    return qr.parse(qr.tokenize(sentence, model))


# -- crisp evaluation ---------------------------------------------------------


def test_crisp_truth_quant_subject(crisp):
    assert qr.eval_crisp_truth(_tree("some men sneeze", crisp), crisp) is True
    moved = qr.load_lexicon({**_crisp_dict(), "vps": {"sneeze": {"c": 1}}})
    assert qr.eval_crisp_truth(_tree("some men sneeze", moved), moved) is False


def _crisp_dict():
    return crisp_lexicon()


def test_crisp_truth_quant_object(crisp):
    assert qr.eval_crisp_truth(_tree("john liked some trees", crisp), crisp) is True
    # john likes nothing: the intersection with trees is empty
    data = _crisp_dict()
    data["verbs"] = {"liked": [["b", "a", 1]]}
    empty = qr.load_lexicon(data)
    assert qr.eval_crisp_truth(_tree("john liked some trees", empty), empty) is False


def test_crisp_truth_rejects_fuzzy(animals):
    with pytest.raises(qr.EvaluationError):
        qr.eval_crisp_truth(_tree("several cats sleep", animals), animals)


def test_crisp_truth_double_quant_nested(crisp):
    # every man liked exactly one tree; both men have exactly one image in trees?
    # liked = {(a,c),(b,a)}: a's tree-image = {c}, b's = {}.
    assert qr.eval_crisp_truth(_tree("every men liked exactly1 trees", crisp),
                               crisp) is False
    assert qr.eval_crisp_truth(_tree("some men liked exactly1 trees", crisp),
                               crisp) is True


CRISP_DETS = {"every": {"kind": "every"}, "some": {"kind": "some"},
              "no": {"kind": "no"}, "exactly1": {"kind": "exactly", "n": 1},
              "exactly2": {"kind": "exactly", "n": 2}}


def _count_holds(det: str, hits: int, size: int) -> bool:
    """A crisp determiner as a condition on |A & X| and |A|."""
    return {"every": hits == size, "some": hits > 0, "no": hits == 0,
            "exactly1": hits == 1, "exactly2": hits == 2}[det]


def test_crisp_double_quant_against_nested_loop():
    """Crisp DoubleQuant truth against counting, element by element, the
    objects each subject is related to."""
    rng = random.Random(31)
    for n in range(1, 9):
        labels = [f"e{i}" for i in range(n)]
        for _ in range(25):
            men = [x for x in labels if rng.random() < 0.6]
            trees = [y for y in labels if rng.random() < 0.6]
            liked = [(x, y) for x in labels for y in labels if rng.random() < 0.4]
            model = qr.load_lexicon({
                "universe": labels, "quantale": "boolean", "grades": [0, 1],
                "nouns": {"men": {x: 1 for x in men}, "trees": {y: 1 for y in trees}},
                "verbs": {"liked": [[x, y, 1] for x, y in liked]},
                "quantifiers": CRISP_DETS})
            for d1, d2 in itertools.product(CRISP_DETS, repeat=2):
                holders = sum(
                    _count_holds(d2, sum((x, y) in liked for y in trees), len(trees))
                    for x in men)
                expected = _count_holds(d1, holders, len(men))
                tree = _tree(f"{d1} men liked {d2} trees", model)
                assert qr.eval_crisp_truth(tree, model) is expected, (d1, d2, n)


# -- direct evaluation ---------------------------------------------------------


def test_direct_fixture_values(animals):
    got = qr.eval_zadeh_direct(_tree("several cats sleep", animals), animals)
    assert got == pytest.approx(interpolation_oracle(SEVERAL_BPS, 0.9 / 1.3), abs=1e-9)
    assert got == pytest.approx(20 / 39, abs=1e-9)

    got = qr.eval_zadeh_direct(_tree("mice eat several plants", animals), animals)
    assert got == pytest.approx(interpolation_oracle(SEVERAL_BPS, 0.8 / 1.1), abs=1e-9)
    assert got == pytest.approx(5 / 11, abs=1e-9)

    got = qr.eval_zadeh_direct(_tree("several mice eat most plants", animals), animals)
    assert got == pytest.approx(0.28, abs=1e-9)


def test_direct_rejects_non_proportional_determiner(animals):
    data = animal_lexicon()
    data["quantifiers"]["no"] = {"kind": "no"}
    model = qr.load_lexicon(data)
    with pytest.raises(qr.EvaluationError):
        qr.eval_zadeh_direct(_tree("no cats sleep", model), model)


def test_direct_bare_forms(animals):
    got = qr.eval_zadeh_direct(_tree("mice sleep", animals), animals)
    mice, sleep = animals.nps["mice"], animals.vps["sleep"]
    assert got == qr.proportion(sleep, mice)

    got = qr.eval_zadeh_direct(_tree("mice eat plants", _with_plants_np(animals)),
                               _with_plants_np(animals))
    image = qr.verb_image(animals.verbs["eat"], mice)
    assert got == qr.proportion(image, animals.nouns["plants"])


def _with_plants_np(animals):
    data = animal_lexicon()
    data["nps"]["plants"] = data["nouns"]["plants"]
    return qr.load_lexicon(data)


def test_direct_derived_vp_reading(animals):
    """'d n v np' scores like a quantified subject whose verb phrase set
    is x -> max_y min(v(x,y), obj(y))."""
    model = _with_plants_np(animals)
    got = qr.eval_zadeh_direct(_tree("several mice eat plants", model), model)
    eat, plants = model.verbs["eat"], model.nps["plants"]
    derived = {
        x: max((min(g, plants.grade(y)) for (xx, y), g in eat.pairs.items() if xx == x),
               default=0.0)
        for x in model.universe.elements
    }
    vp = qr.FuzzySet.from_dict(model.universe, derived)
    expected = qr.apply_distribution(model.quantifiers["several"],
                                     qr.proportion(vp, model.nouns["mice"]))
    assert got == pytest.approx(expected, abs=1e-12)


# -- pipeline compilation --------------------------------------------------------


def test_pipeline_printing():
    pipe = qr.compile_pipeline(qr.SentenceForm.QUANT_SUBJECT)
    assert str(pipe) == "d ∘ (id ⊗ mu) ∘ (delta ⊗ id) ∘ (np ⊗ vp)"
    assert str(qr.compile_pipeline(qr.SentenceForm.BARE_INTRANSITIVE)) == \
        "eps ∘ (np ⊗ vp)"


@pytest.mark.parametrize("sentence, layout, width", [
    ("mice eat several plants",
     "d ∘ (id ⊗ mu) ∘ (delta ⊗ id) ∘ (np' ⊗ id) ∘ v ∘ np", 3),
    ("several mice eat most plants",
     "(d ⊗ d') ∘ (id ⊗ id ⊗ sigma) ∘ (id ⊗ mu ⊗ mu ⊗ id) ∘ "
     "(delta ⊗ id ⊗ id ⊗ delta) ∘ (np ⊗ v ⊗ np')", 6),
])
def test_swap_after_merge_layouts(animals, sentence, layout, width):
    """QuantObject merges (C2, B) with no swap; DoubleQuant merges first
    and swaps the merged scope past the restrictor copy once.  The
    widest boundaries stay 3 and 6 wires."""
    pipe = qr.compile_pipeline(qr.classify(_tree(sentence, animals)))
    assert str(pipe) == layout
    assert max(sum(len(atom.wires_out) for atom in layer)
               for layer in pipe.layers) == width


def test_pipelines_type_check_for_all_forms(animals):
    sentences = {
        "mice sleep": qr.SentenceForm.BARE_INTRANSITIVE,
        "several cats sleep": qr.SentenceForm.QUANT_SUBJECT,
        "mice eat several plants": qr.SentenceForm.QUANT_OBJECT,
        "several mice eat most plants": qr.SentenceForm.DOUBLE_QUANT,
        "mice eat mice": qr.SentenceForm.BARE_TRANSITIVE,
    }
    for sentence, form in sentences.items():
        assert qr.classify(_tree(sentence, animals)) is form
        qr.compile_pipeline(form).check_types()  # raises on any wiring defect
    assert set(sentences.values()) == set(qr.SentenceForm)


# -- categorical evaluation -------------------------------------------------------


def test_restricted_matches_direct_on_quantified_forms(animals):
    model = _with_plants_np(animals)
    for sentence in ("several cats sleep", "mice eat several plants",
                     "several mice eat most plants", "several mice eat plants"):
        tree = _tree(sentence, model)
        direct = qr.eval_zadeh_direct(tree, model)
        categorical = qr.eval_categorical(tree, model, "restricted")
        assert categorical == pytest.approx(direct, abs=1e-9), sentence


def test_bare_forms_join_over_candidate_closure(animals):
    """Bare sentences carry no equivalence claim; the restricted join
    runs over the denotations and their intersection and can exceed the
    proportion reading.  Pin the closure formula explicitly."""
    mice, sleep = animals.nps["mice"], animals.vps["sleep"]
    candidates = [mice, sleep, qr.intersect(mice, sleep)]
    expected = max(min(qr.proportion(c, mice), qr.proportion(c, sleep))
                   for c in candidates)
    tree = _tree("mice sleep", animals)
    got = qr.eval_categorical(tree, animals, "restricted")
    assert got == pytest.approx(expected, abs=1e-12)
    assert got >= qr.eval_zadeh_direct(tree, animals) - 1e-12


def _tiny_lexicon(grades, quantale="godel"):
    mid = 0.5 if 0.5 in grades else 1.0
    return {
        "universe": ["a", "b"],
        "quantale": quantale,
        "grades": grades,
        "nouns": {"men": {"a": mid, "b": 1.0}},
        "vps": {"run": {"a": 1.0, "b": mid}},
        "verbs": {"see": [["a", "a", 1.0], ["b", "a", mid]]},
        "nps": {"john": {"a": 1.0}},
        "quantifiers": {
            "several": {"kind": "fuzzy", "breakpoints": [list(b) for b in SEVERAL_BPS]},
            "every": {"kind": "every"},
            "some": {"kind": "some"},
        },
    }


def _exhaustive_vs_brute(model, sentence):
    """The exhaustive value of the sentence, which must equal the float
    oracle of `brute` with ==, and where each wire ranges over at most
    27 subsets, the exact oracle within 1e-12."""
    got = qr.eval_categorical(_tree(sentence, model), model, "exhaustive")
    assert got == brute.score(model, sentence), sentence
    if len(model.powerset()) <= 27:
        exact = brute.score(model, sentence, num=Fraction)
        assert abs(Fraction(got) - exact) <= 1e-12, sentence
    return got


def test_exhaustive_quant_subject_matches_brute_force():
    """Symbolic flattening: the composed pipeline equals the max-min
    formula computed by nested loops over all enumerated subsets."""
    model = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1]))
    _exhaustive_vs_brute(model, "several men run")


def test_exhaustive_double_quant_matches_brute_force():
    """The doubly quantified pipeline flattens to the five-term max-min."""
    model = qr.load_lexicon(_tiny_lexicon([0, 1]))
    _exhaustive_vs_brute(model, "some men see every men")


def _graded_double_lexicon(quantale):
    """Two elements over grades 0, 0.3, 1 (9 subsets), with graded
    nouns, a graded verb and three graded determiners."""
    return {
        "universe": ["a", "b"],
        "quantale": quantale,
        "grades": [0, 0.3, 1],
        "nouns": {"men": {"a": 0.3, "b": 1.0}, "dogs": {"a": 1.0, "b": 0.3}},
        "verbs": {"see": [["a", "a", 1.0], ["b", "a", 0.3], ["a", "b", 0.3]]},
        "quantifiers": {
            "several": {"kind": "fuzzy", "breakpoints": [list(b) for b in SEVERAL_BPS]},
            "most": {"kind": "fuzzy", "breakpoints": [[0, 0], [0.5, 0], [1, 1]]},
            "few": {"kind": "fuzzy",
                    "breakpoints": [[0, 0], [0.1, 1], [0.3, 1], [0.6, 0], [1, 0]]},
        },
    }


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz"])
def test_exhaustive_graded_double_quant_equals_diagram_order_brute_force(quantale):
    """The DoubleQuant join over every (A, B, D, C) of a graded lattice
    equals, with ==, a loop that tensors the factors as the diagram
    meets them: the states np ⊗ v ⊗ np' left to right, then the
    determiner layer d ⊗ d', at the pairs (A, A∧B) and (C, C∧D).  The
    loop (`brute`) reimplements every factor from the model's data, so
    it checks the kernels as well as the layout and the join."""
    model = qr.load_lexicon(_graded_double_lexicon(quantale))
    values = []
    for subj, det1, obj, det2 in (("men", "several", "dogs", "most"),
                                  ("dogs", "few", "men", "several"),
                                  ("men", "most", "men", "few"),
                                  ("dogs", "most", "dogs", "few")):
        values.append(_exhaustive_vs_brute(model, f"{det1} {subj} see {det2} {obj}"))
    assert any(0.0 < v < 1.0 for v in values)


def test_exhaustive_matches_brute_force_on_random_models():
    """Randomized cross-check of the pipeline machinery against nested
    loops over every enumerated subset."""
    rng = random.Random(13)
    template = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1]))
    for _ in range(20):
        model = randomize_model(template, rng)
        for sentence in ("several men run", "john see several men"):
            _exhaustive_vs_brute(model, sentence)


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz", "boolean"])
def test_exhaustive_bare_forms_equal_diagram_order_brute_force(quantale):
    """BareIntransitive and BareTransitive over every subset (27 per wire,
    8 over the Boolean quantale) equal, with ==, a loop over the subsets
    that tensors the graded factors as the diagram meets them: np ⊗ vp
    at one subset, which the cup joins, and np, v, np' at (A, B).

    The full subset gives every proportion state the unit, so over the
    real quantales the join is the unit unless a denotation is empty
    ("nobody"); the Boolean point states score [np = vp]."""
    crisp = quantale == "boolean"
    data = _tiny_lexicon([0, 0.5, 1])
    data["universe"] = ["a", "b", "c"]
    template = qr.load_lexicon({**data, "quantale": "godel" if crisp else quantale,
                                "nps": {"john": {"a": 1.0}, "mary": {"c": 0.5}}})
    rng = random.Random(17)
    values = []
    for _ in range(6):
        model = randomize_model(template, rng, crisp=crisp)
        model.nps["nobody"] = qr.FuzzySet(model.universe, [0.0] * 3)
        q = model.quantale
        assert len(model.powerset()) == (8 if crisp else 27)
        nps = ("john", "mary", "nobody")
        for sentence in [f"{s} run" for s in nps] + [f"{s} see {o}" for s in nps for o in nps]:
            values.append(_exhaustive_vs_brute(model, sentence))
    assert any(v == q.unit for v in values) and any(v == q.bottom for v in values)


def _object_lexicon(quantale):
    """Three elements and four grades: 64 graded subsets per wire."""
    return {
        "universe": ["u0", "u1", "u2"],
        "quantale": quantale,
        "grades": [0, 0.25, 0.75, 1],
        "nouns": {"men": {"u0": 1.0, "u1": 0.25, "u2": 0.75}},
        "vps": {"run": {"u1": 1.0}},
        "verbs": {"see": [["u0", "u1", 0.75], ["u0", "u2", 0.75], ["u1", "u0", 1.0],
                          ["u2", "u1", 1.0], ["u2", "u2", 1.0]]},
        "nps": {"john": {"u0": 0.75, "u1": 0.25}, "mary": {"u1": 0.75, "u2": 1.0}},
        "quantifiers": {
            "several": {"kind": "fuzzy", "breakpoints": [list(b) for b in SEVERAL_BPS]},
            "few": {"kind": "fuzzy",
                    "breakpoints": [[0, 0], [0.1, 1], [0.3, 1], [0.6, 0], [1, 0]]},
            "every": {"kind": "every"},
        },
    }


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz"])
def test_exhaustive_object_forms_at_64_subsets_match_brute_force(quantale):
    """BareTransitive and QuantObject over 64 subsets per wire: the
    pipeline equals nested loops over every subject, image and object
    subset, with no relation composed."""
    model = qr.load_lexicon(_object_lexicon(quantale))
    assert len(model.powerset()) == 64
    for sentence in ("john see mary", "mary see john"):
        _exhaustive_vs_brute(model, sentence)

    values = []
    for subj, det in (("john", "few"), ("mary", "few"), ("john", "several"),
                      ("mary", "every")):
        values.append(_exhaustive_vs_brute(model, f"{subj} see {det} men"))
    assert min(values) < 0.8 < max(values)


@st.composite
def _tiny_model_and_sentence(draw):
    """A model of `_route_lexicon` over |U| <= 2 elements (3 for a bare
    sentence), a lattice of {0, 1}, {0, .5, 1} or {0, .3, 1} (only
    {0, 1} over the Boolean quantale), threshold 0, 0.3 (a grade) or
    0.6 (which drops .3 and .5) and drawn grades, and one sentence of a
    drawn form over its words."""
    form = draw(st.sampled_from(list(qr.SentenceForm)))
    bare = form in (qr.SentenceForm.BARE_INTRANSITIVE, qr.SentenceForm.BARE_TRANSITIVE)
    size = draw(st.integers(1, 3 if bare else 2))
    quantale = draw(st.sampled_from(("godel", "product", "lukasiewicz", "boolean")))
    grades = draw(st.sampled_from([[0, 1]] if quantale == "boolean" else
                                  [[0, 1], [0, 0.5, 1], [0, 0.3, 1]]))
    data = _route_lexicon(size, grades, quantale, draw(st.sampled_from((0.0, 0.3, 0.6))))
    universe, grade = data["universe"], st.sampled_from(grades)
    for group in ("nouns", "nps", "vps"):
        data[group] = {w: draw(st.fixed_dictionaries({u: grade for u in universe}))
                       for w in data[group]}
    data["verbs"] = {"see": [[x, y, draw(grade)] for x in universe for y in universe]}
    model = qr.load_lexicon(data)
    return model, draw(st.sampled_from(_all_sentences(model, (form,))))


@settings(max_examples=150, deadline=None)
@given(_tiny_model_and_sentence())
def test_exhaustive_equals_brute_force_on_tiny_models(case):
    """On all four quantales and all five forms, the exhaustive value
    equals the float oracle with == and the exact one within 1e-12."""
    _exhaustive_vs_brute(*case)


def test_exhaustive_quant_subject_grades_only_conservative_pairs(monkeypatch):
    """At |P| = 64 the join reaches the determiner only at pairs
    (A, A meet B): each is graded once, with the scope below the
    restrictor, and far fewer than the 4096 pairs of the full table.
    The effect step grades one pair per `graded_entry` call, so the
    pairs are read off those calls."""
    model = qr.load_lexicon(_object_lexicon("godel"))
    calls = []
    graded_entry = qr.semantics.graded_entry

    def counting(d, a, b, threshold=0.0):
        calls.append((a, b))
        return graded_entry(d, a, b, threshold)

    monkeypatch.setattr(qr.semantics, "graded_entry", counting)
    value = qr.eval_categorical(_tree("several men run", model), model, "exhaustive")
    assert 0.0 < value <= 1.0
    assert all(all(y <= x for x, y in zip(a, b)) for a, b in calls)
    assert len(set(calls)) == len(calls)
    # The effect step stops at the first state grade that cannot beat
    # the best value: 30 pairs, where grading every reached pair takes 699.
    assert 0 < len(calls) <= 100


# -- layered vs. factorized contraction --------------------------------------


def test_contraction_plans_join_only_where_atoms_meet():
    """Each form maps factor by factor (f) up to its merges and cups, its
    verb included, and ends in one join step (j) that joins the factors
    there and reads them through its determiners, the bare forms through
    none; a swap across two factors, and a layer after the merges other
    than identities, swaps or the last determiners, is refused.  A
    plan's work exponent is the most wires one atom, or one merge's two
    factors, meet."""
    from quantrel.semantics import (_PLANS, _WORK_EXPONENTS, _contraction_plan, _delta,
                                    _eps, _mu, _sigma, _state)
    steps = {form: "".join(kind[0] for kind, _, _ in plan) for form, plan in _PLANS.items()}
    assert steps == {
        qr.SentenceForm.BARE_INTRANSITIVE: "fj",
        qr.SentenceForm.QUANT_SUBJECT: "ffj",
        qr.SentenceForm.BARE_TRANSITIVE: "fffj",
        qr.SentenceForm.QUANT_OBJECT: "ffffj",
        qr.SentenceForm.DOUBLE_QUANT: "ffj",
    }
    dets = {form: [atom.label for atom in plan[-1][2]] for form, plan in _PLANS.items()}
    assert dets == {
        qr.SentenceForm.BARE_INTRANSITIVE: [],
        qr.SentenceForm.QUANT_SUBJECT: ["d"],
        qr.SentenceForm.BARE_TRANSITIVE: [],
        qr.SentenceForm.QUANT_OBJECT: ["d"],
        qr.SentenceForm.DOUBLE_QUANT: ["d", "d'"],
    }
    assert _WORK_EXPONENTS == {
        qr.SentenceForm.BARE_INTRANSITIVE: 2,
        qr.SentenceForm.QUANT_SUBJECT: 3,
        qr.SentenceForm.BARE_TRANSITIVE: 2,
        qr.SentenceForm.QUANT_OBJECT: 3,
        qr.SentenceForm.DOUBLE_QUANT: 5,
    }
    crossing = qr.MorphismPipeline(qr.SentenceForm.BARE_INTRANSITIVE, (
        (_state("np", "A"), _state("vp", "B")), (_sigma("A", "B"),), (_eps("B", "A"),)))
    crossing.check_types()
    with pytest.raises(qr.ShapeMismatchError, match="neither maps one by one nor merges"):
        _contraction_plan(crossing)
    copied = qr.MorphismPipeline(qr.SentenceForm.BARE_INTRANSITIVE, (
        (_state("np", "A"), _state("vp", "B")), (_mu("A", "B", "G"),),
        (_delta("G", "G1", "G2"),), (_eps("G1", "G2"),)))
    copied.check_types()
    with pytest.raises(qr.ShapeMismatchError, match="after its merges"):
        _contraction_plan(copied)


def test_exhaustive_stores_no_joined_state(monkeypatch):
    """Every form, both QuantSubject readings included, contracts its
    merges and cups by `vrel.merge_join` and `vrel.merge_effect`: no
    `tensor_rel` call in exhaustive mode takes the tensor of two
    states.  The one layer group of two atoms, DoubleQuant's identities
    on the verb's wires, is carried over untensored, so no call is made
    at all."""
    model = randomize_model(qr.load_lexicon(_route_lexicon(2, [0, 0.5, 1], "product")),
                            random.Random(5))
    operands = []
    tensor_rel = qr.semantics.tensor_rel

    def recording(r, s):
        operands.append((r, s))
        return tensor_rel(r, s)

    monkeypatch.setattr(qr.semantics, "tensor_rel", recording)
    sentences = _all_sentences(model)
    forms = {qr.classify(_tree(s, model)) for s in sentences}
    assert forms == set(qr.SentenceForm) and len(sentences) > 100
    for sentence in sentences:
        qr.eval_categorical(_tree(sentence, model), model, "exhaustive")
    assert operands == []


def test_only_double_quant_stores_a_merged_state(monkeypatch):
    """The last merge or cup of every form feeds the join's effect
    directly (`vrel.merge_effect`), so only DoubleQuant, whose first of
    two merges joins the subject and verb factors, calls `merge_join`,
    once per sentence; the other forms call it never."""
    model = randomize_model(qr.load_lexicon(_route_lexicon(2, [0, 0.5, 1], "godel")),
                            random.Random(6))
    merge_join = qr.semantics.merge_join
    calls = []

    def counting(*args):
        calls.append(args)
        return merge_join(*args)

    monkeypatch.setattr(qr.semantics, "merge_join", counting)
    by_form = {}
    for sentence in _all_sentences(model, rng=random.Random(7), most=4):
        form = qr.classify(_tree(sentence, model))
        calls.clear()
        qr.eval_categorical(_tree(sentence, model), model, "exhaustive")
        by_form.setdefault(form, set()).add(len(calls))
    assert by_form == {form: {1 if form is qr.SentenceForm.DOUBLE_QUANT else 0}
                       for form in qr.SentenceForm}


def _layered_value(form, model, wires, den, p=None):
    """The reference route: every layer built after the whole composed
    state and composed with it, one layer at a time, with no factors;
    every atom is built afresh, not read from the maps exhaustive mode
    keeps for the powerset object p."""
    from quantrel.semantics import _PIPELINES, _atom_vrel
    state = None
    for layer in _PIPELINES[form].layers:
        rel = reduce(qr.tensor_rel, [_atom_vrel(a, model, wires, den) for a in layer])
        state = rel if state is None else qr.compose(state, rel)
    return float(state.scalar())


def _value_or_error(tree, model, mode):
    try:
        return qr.eval_categorical(tree, model, mode)
    except qr.QuantrelError as err:
        return f"{type(err).__name__}: {err}"


def _routes_agree(monkeypatch, model, sentences, mode):
    """Evaluate each sentence by the factorized evaluator and by
    `_layered_value`, require == (or the same error) and return the
    factorized values with the number of layered pipelines run."""
    trees = [_tree(s, model) for s in sentences]
    factorized = [_value_or_error(tree, model, mode) for tree in trees]
    layered_runs = []

    def layered(*args):
        layered_runs.append(args[0])
        return _layered_value(*args)

    with monkeypatch.context() as patch:
        patch.setattr(qr.semantics, "_pipeline_value", layered)
        layered = [_value_or_error(tree, model, mode) for tree in trees]
    for sentence, a, b in zip(sentences, factorized, layered):
        assert a == b, (sentence, mode, a, b)
    return factorized, len(layered_runs)


def _all_sentences(model, forms=tuple(qr.SentenceForm), rng=None, most=None):
    """Every sentence of the given forms over the model's words, or `most`
    of each form drawn by rng."""
    dets, nouns = sorted(model.quantifiers), sorted(model.nouns)
    nps, vps, verbs = sorted(model.nps), sorted(model.vps), sorted(model.verbs)
    by_form = {
        qr.SentenceForm.BARE_INTRANSITIVE: [f"{a} {v}" for a in nps for v in vps],
        qr.SentenceForm.QUANT_SUBJECT: (
            [f"{d} {n} {v}" for d in dets for n in nouns for v in vps]
            + [f"{d} {n} {v} {b}" for d in dets for n in nouns for v in verbs for b in nps]),
        qr.SentenceForm.BARE_TRANSITIVE: [f"{a} {v} {b}" for a in nps for v in verbs
                                          for b in nps],
        qr.SentenceForm.QUANT_OBJECT: [f"{a} {v} {d} {n}" for a in nps for v in verbs
                                       for d in dets for n in nouns],
        qr.SentenceForm.DOUBLE_QUANT: [f"{d} {n} {v} {e} {m}" for d in dets for n in nouns
                                       for v in verbs for e in dets for m in nouns],
    }
    if rng is None:
        return [s for form in forms for s in by_form[form]]
    return [s for form in forms
            for s in rng.sample(by_form[form], min(most, len(by_form[form])))]


def _route_lexicon(size, grades, quantale, threshold=0.0):
    universe = [f"u{i}" for i in range(size)]
    top = max(grades)
    crisp = quantale == "boolean"
    dets = {"every": {"kind": "every"}, "some": {"kind": "some"}, "no": {"kind": "no"}}
    if crisp:
        dets["exactly1"] = {"kind": "exactly", "n": 1}
    else:
        dets["several"] = {"kind": "fuzzy", "breakpoints": [list(b) for b in SEVERAL_BPS]}
        dets["few"] = {"kind": "fuzzy",
                       "breakpoints": [[0, 0], [0.1, 1], [0.3, 1], [0.6, 0], [1, 0]]}
    return {
        "universe": universe, "quantale": quantale, "grades": grades,
        "threshold": threshold,
        "nouns": {"men": {"u0": top}, "dogs": {"u1": top}},
        "nps": {"john": {"u0": top}, "mary": {"u1": top}},
        "vps": {"run": {"u0": top}},
        "verbs": {"see": [["u0", "u1", top]]},
        "quantifiers": dets,
    }


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz", "boolean"])
def test_factorized_contraction_equals_layered_exhaustive(quantale, monkeypatch):
    """Exhaustive mode: the factor-by-factor contraction equals, with ==,
    the layer-by-layer composition of the whole state, on up to 24
    sentences of each form over random models at |P| = 8 or 9 (all five
    forms, sigma-count thresholds 0 and 0.3; over the real quantales the
    0.3 cell's lattice [0, 0.25, 1] has a grade the threshold drops) and
    |P| = 16 or 27 (all but DoubleQuant, whose layered route there
    stores the whole tensor of its three states: about 0.9 s and a
    180 MB process peak per sentence at 27 subsets)."""
    crisp = quantale == "boolean"
    rng = random.Random(f"routes:{quantale}")
    forms = tuple(qr.SentenceForm)
    no_double = tuple(f for f in forms if f is not qr.SentenceForm.DOUBLE_QUANT)
    cells = ([(3, [0, 1], forms, 0.0), (3, [0, 1], forms, 0.3), (4, [0, 1], no_double, 0.0)]
             if crisp else
             [(2, [0, 0.5, 1], forms, 0.0), (2, [0, 0.25, 1], forms, 0.3),
              (3, [0, 0.5, 1], no_double, 0.0)])
    values, runs = [], 0
    for size, grades, forms, threshold in cells:
        template = qr.load_lexicon(_route_lexicon(size, grades, quantale, threshold))
        model = randomize_model(template, rng, crisp=crisp)
        p = model.powerset().index
        assert len(p) <= 27
        if threshold and not crisp:
            # The cell is not threshold 0 again: 0.3 drops the grade 0.25.
            assert any(not qr.lexical_state(fs, p, model.quantale, threshold).equal(
                qr.lexical_state(fs, p, model.quantale)) for _, fs in model.iter_sets())
        got, n = _routes_agree(monkeypatch, model, _all_sentences(model, forms, rng, 24),
                               "exhaustive")
        values += got
        runs += n
    floats = [v for v in values if isinstance(v, float)]
    assert runs == len(floats) > 100
    assert len(set(floats)) >= (2 if crisp else 5)


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz"])
def test_factorized_contraction_equals_layered_at_64_subsets(quantale, monkeypatch):
    """The |P| = 64 QuantSubject of `_object_lexicon`, both readings,
    where the copy of np re-keys 64 entries instead of the 64 x 64 of
    np (x) vp.  "walk" holds almost every element, so its full-subset
    state meets a proportion of 1 and the join is not the unit."""
    data = _object_lexicon(quantale)
    data["vps"]["walk"] = {"u0": 1.0, "u1": 1.0, "u2": 0.75}
    model = qr.load_lexicon(data)
    sentences = _all_sentences(model, (qr.SentenceForm.QUANT_SUBJECT,))
    values, runs = _routes_agree(monkeypatch, model, sentences, "exhaustive")
    assert runs == len(sentences) == 12
    assert all(isinstance(v, float) for v in values)
    assert any(0.0 < v < 1.0 for v in values)


@pytest.mark.parametrize("lexicon, quantales", [
    ("small", ("godel", "product", "lukasiewicz")),
    ("demo", ("godel", "product", "lukasiewicz")),
    ("crisp", ("boolean",)),
])
def test_factorized_contraction_equals_layered_restricted(lexicon, quantales, monkeypatch):
    """Restricted mode on random models of a shipped lexicon: every
    sentence of every form, == between the two contractions."""
    import json
    path = Path(__file__).resolve().parent.parent / "lexicons" / f"{lexicon}.json"
    data = json.loads(path.read_text())
    rng = random.Random(f"routes:{lexicon}")
    runs = 0
    values = []
    for quantale in quantales:
        template = qr.load_lexicon({**data, "quantale": quantale})
        for _ in range(3):
            model = randomize_model(template, rng, crisp=quantale == "boolean")
            got, n = _routes_agree(monkeypatch, model, _all_sentences(model), "restricted")
            values += got
            runs += n
    floats = [v for v in values if isinstance(v, float)]
    assert runs > 50
    assert any(v == 1.0 for v in floats) and any(v == 0.0 for v in floats)


def test_exhaustive_exactly_over_graded_lattice_raises():
    data = _object_lexicon("godel")
    data["quantifiers"]["exactly1"] = {"kind": "exactly", "n": 1}
    model = qr.load_lexicon(data)
    for text in ("exactly1 men run", "john see exactly1 men"):
        with pytest.raises(qr.EvaluationError):
            qr.eval_categorical(_tree(text, model), model, "exhaustive")
    # Crisp words: the effect step's scan settles at a crisp pair of
    # grade 1, but the state reaches graded restrictors, so it raises.
    data["nouns"]["men"] = data["vps"]["run"] = {"u0": 1.0}
    model = qr.load_lexicon(data)
    with pytest.raises(qr.EvaluationError, match="crisp membership"):
        qr.eval_categorical(_tree("exactly1 men run", model), model, "exhaustive")


def test_exactly_turns_the_join_stop_rule_off_and_is_read_everywhere():
    """With an "exactly" determiner in its layer the effect may not stop
    early, and it reads every determiner at every position, even where
    an earlier one is bottom: "some" is 0 at an empty restrictor, and
    the graded pair of "exactly1" at the same position still raises."""
    from quantrel.semantics import _PLANS, _det_effect
    data = _object_lexicon("godel")
    data["quantifiers"].update(exactly1={"kind": "exactly", "n": 1}, some={"kind": "some"})
    model = qr.load_lexicon(data)
    p = model.powerset().index
    dets = _PLANS[qr.SentenceForm.DOUBLE_QUANT][-1][2]
    merged = ("A1", "G", "G'", "C2")
    wires = dict.fromkeys(merged, p)
    empty, graded = (0.0, 0.0, 0.0), (0.25, 0.0, 0.0)
    k = 0
    for subset in (empty, empty, graded, graded):
        k = k * len(p) + p.position(subset)
    den = qr.semantics.bind(_tree("some men see every men", model), model)
    effect, stop = _det_effect(dets, model, wires, den, merged)
    assert stop and effect(k) == 0.0
    den = qr.semantics.bind(_tree("some men see exactly1 men", model), model)
    effect, stop = _det_effect(dets, model, wires, den, merged)
    assert not stop
    with pytest.raises(qr.EvaluationError, match="crisp membership"):
        effect(k)


def test_boolean_collapse_sample():
    rng = random.Random(9)
    base = _tiny_lexicon([0, 1], quantale="boolean")
    template = qr.load_lexicon(base)
    for _ in range(60):
        model = randomize_model(template, rng, crisp=True)
        for sentence in ("every men run", "some men run", "john see some men"):
            tree = _tree(sentence, model)
            truth = qr.eval_crisp_truth(tree, model)
            for mode in ("restricted", "exhaustive"):
                value = qr.eval_categorical(tree, model, mode)
                assert (value == 1.0) == truth, (sentence, mode)


def test_exhaustive_dominates_restricted_for_godel():
    rng = random.Random(10)
    template = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1]))
    divergences = 0
    for _ in range(40):
        model = randomize_model(template, rng)
        for sentence in ("several men run", "john see several men"):
            tree = _tree(sentence, model)
            r = qr.eval_categorical(tree, model, "restricted")
            e = qr.eval_categorical(tree, model, "exhaustive")
            assert e >= r - 1e-12, sentence
            divergences += e > r + 1e-12
    # the restricted join runs over a candidate subset, so strict gaps
    # are legitimate; record how often they showed up
    print(f"exhaustive>restricted divergences: {divergences}/80")


def test_restricted_equality_holds_for_all_real_quantales():
    """At the pinned candidates every entry except the determiner's is
    the tensor unit, so the restricted value is quantale-independent."""
    rng = random.Random(14)
    for name in ("godel", "lukasiewicz", "product"):
        template = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1], quantale=name))
        for _ in range(25):
            model = randomize_model(template, rng)
            for sentence in ("several men run", "john see several men",
                             "every men run", "john see some men"):
                tree = _tree(sentence, model)
                direct = qr.eval_zadeh_direct(tree, model)
                got = qr.eval_categorical(tree, model, "restricted")
                assert got == pytest.approx(direct, abs=1e-9), (name, sentence)


def test_nonzero_threshold_threads_through_both_routes():
    """Memberships below the sigma-count threshold drop out of every
    proportion on both evaluation routes."""
    data = _tiny_lexicon([0, 0.25, 0.5, 0.75, 1])
    data["threshold"] = 0.3
    data["nouns"]["men"] = {"a": 0.25, "b": 1.0}
    data["vps"]["run"] = {"a": 1.0, "b": 0.5}
    model = qr.load_lexicon(data)
    tree = _tree("several men run", model)
    direct = qr.eval_zadeh_direct(tree, model)
    # only b survives the cutoff in the noun: proportion = min(1, 0.5)/1
    expected = qr.apply_distribution(model.quantifiers["several"], 0.5 / 1.0)
    assert direct == pytest.approx(expected, abs=1e-12)
    assert qr.eval_categorical(tree, model, "restricted") == \
        pytest.approx(direct, abs=1e-9)

    # Crisp "every" and "some": the grade 0.05 of a in cats is below the
    # cutoff, so it counts neither as a restrictor member nor as a meet.
    model = qr.load_lexicon({
        "universe": ["a", "b", "c"],
        "quantale": "godel",
        "grades": [0, 0.05, 0.5, 1],
        "threshold": 0.1,
        "nouns": {"cats": {"a": 0.05, "b": 1, "c": 0.5}},
        "vps": {"sleep": {"b": 1, "c": 0.5}, "run": {"a": 1}},
        "verbs": {"see": [["a", "b", 1], ["a", "c", 0.5]], "touch": [["a", "a", 1]]},
        "nps": {"john": {"a": 1}},
        "quantifiers": {"every": {"kind": "every"}, "some": {"kind": "some"}},
    })
    for sentence, expected in [("every cats sleep", 1.0), ("john see every cats", 1.0),
                               ("some cats run", 0.0), ("john touch some cats", 0.0)]:
        tree = _tree(sentence, model)
        assert qr.eval_zadeh_direct(tree, model) == expected, sentence
        assert qr.eval_categorical(tree, model, "restricted") == expected, sentence


def test_crisp_every_at_partial_proportion_scores_zero(people):
    """The absolute reading of 'all' fits only proportion one."""
    tree = _tree("all men kind", people)
    assert qr.eval_zadeh_direct(tree, people) == 0.0
    assert qr.eval_categorical(tree, people, "restricted") == 0.0
    most_tree = _tree("most men kind", people)
    # 1.5/3.1 is below the distribution's 0.5 onset
    assert qr.eval_zadeh_direct(most_tree, people) == 0.0


def test_conservativity_invariance_of_direct(animals):
    """Replacing the verb phrase by its intersection with the noun does
    not change the quantified-subject score."""
    data = animal_lexicon()
    inter = qr.intersect(animals.nouns["cats"], animals.vps["sleep"])
    data["vps"]["sleep"] = {u: g for u, g in inter.as_dict().items()}
    clipped = qr.load_lexicon(data)
    a = qr.eval_zadeh_direct(_tree("several cats sleep", animals), animals)
    b = qr.eval_zadeh_direct(_tree("several cats sleep", clipped), clipped)
    assert a == b


def test_conservativity_invariance_on_random_models():
    rng = random.Random(12)
    template = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1]))
    for _ in range(50):
        model = randomize_model(template, rng)
        for det in ("several", "every", "some"):
            tree = _tree(f"{det} men run", model)
            value = qr.eval_zadeh_direct(tree, model)
            clip = qr.Model(
                universe=model.universe, nouns=model.nouns,
                nps=model.nps, verbs=model.verbs,
                vps={"run": qr.intersect(model.nouns["men"], model.vps["run"])},
                quantifiers=model.quantifiers, quantale=model.quantale,
                grades=model.grades, threshold=model.threshold)
            assert qr.eval_zadeh_direct(tree, clip) == value


def test_double_quant_boolean_pipeline_diverges_from_nested_truth():
    """Documented defect: the genuine doubly quantified pipeline is NOT
    equivalent to nested crisp truth; copying the subject variable makes
    the subject determiner existential over supersets."""
    model = qr.load_lexicon({
        "universe": ["a", "b"],
        "quantale": "boolean",
        "grades": [0, 1],
        "nouns": {"men": {"a": 1}, "trees": {"b": 1}},
        "verbs": {"see": [["b", "b", 1]]},
        "quantifiers": {"every": {"kind": "every"}, "some": {"kind": "some"}},
    })
    tree = _tree("every men see some trees", model)
    assert qr.eval_crisp_truth(tree, model) is False
    assert qr.eval_categorical(tree, model, "exhaustive") == 1.0


def test_restricted_double_quant_rejects_graded_determiner_over_boolean():
    """Restricted DoubleQuant faces the same quantale check as exhaustive
    mode: a graded determiner has no Boolean reading."""
    small = Path(__file__).resolve().parent.parent / "lexicons" / "small.json"
    model = randomize_model(qr.load_lexicon(small), random.Random(0), crisp=True)
    tree = _tree("several men see every men", model)
    for mode in ("restricted", "exhaustive"):
        with pytest.raises(qr.EvaluationError, match="needs a real-valued"):
            qr.eval_categorical(tree, model, mode)


def test_direct_rejects_graded_determiner_over_boolean():
    """The direct evaluator refuses what the categorical one does: a
    graded determiner has no Boolean reading in any form."""
    small = Path(__file__).resolve().parent.parent / "lexicons" / "small.json"
    model = randomize_model(qr.load_lexicon(small), random.Random(0), crisp=True)
    for sentence in ("several men see every men", "several men see some men",
                     "most men run", "john see several men"):
        with pytest.raises(qr.EvaluationError, match="needs a real-valued"):
            qr.eval_zadeh_direct(_tree(sentence, model), model)
        with pytest.raises(qr.EvaluationError, match="needs a real-valued"):
            qr.degree_of_truth(sentence, model, method="direct")


# -- state relations -----------------------------------------------------------


def test_lexical_state_peaks_at_denotation(animals):
    p = qr.PowersetObject(animals.universe, qr.GradeLattice([0, 0.5, 1]))
    fs = qr.FuzzySet.from_dict(animals.universe, {"c1": 0.5, "c2": 1.0})
    state = qr.lexical_state(fs, p.index, qr.GODEL)
    assert state.entry("*", fs.as_tuple()) == 1.0
    assert all(0.0 <= g <= 1.0 for g in state.entries().values())


def test_verb_state_peaks_at_image(animals):
    lattice = qr.GradeLattice([0, 0.5, 1])
    p = qr.PowersetObject(qr.IndexSet(["a", "b"]), lattice)
    verb = qr.FuzzyRelation(qr.IndexSet(["a", "b"]), {("a", "b"): 1.0})
    state = qr.verb_state(verb, p.index, p.index, qr.GODEL)
    a = (1.0, 0.0)
    image = (0.0, 1.0)
    n = len(p.index)
    key = (0, p.index.position(a) * n + p.index.position(image))
    assert state.entries()[key] == 1.0


def test_verb_relation_builds_one_row_per_distinct_image(monkeypatch):
    """Sources with equal images share one state row: over 27 subsets the
    verb relation builds exactly as many proportion rows as there are
    distinct images, far fewer than sources, and equals the relation
    with a row built per source."""
    u = qr.IndexSet(["a", "b", "c"])
    p = qr.PowersetObject(u, qr.GradeLattice([0, 0.5, 1])).index
    verb = qr.FuzzyRelation(u, {("a", "b"): 1.0, ("a", "c"): 0.5, ("b", "c"): 1.0})
    images = {qr.semantics.image_grades(verb.rows, a) for a in p.elements}
    assert len(images) < len(p) // 2
    proportion_row = qr.semantics.proportion_row
    built = []

    def counting(*args):
        built.append(args)
        return proportion_row(*args)

    monkeypatch.setattr(qr.semantics, "proportion_row", counting)
    rel = qr.verb_relation(verb, p, p, qr.PRODUCT)
    assert len(built) == len(images)
    monkeypatch.undo()
    want = {}
    for i, a in enumerate(p.elements):
        image = qr.FuzzySet(u, qr.semantics.image_grades(verb.rows, a))
        for (_, j), g in qr.lexical_state(image, p, qr.PRODUCT).entries().items():
            want[(i, j)] = g
    assert rel.entries() == want and want


# -- what exhaustive mode shares per lattice ------------------------------------


def _fresh_maps(s, q):
    """Each structural map exhaustive mode keeps, built afresh by the
    constructor the law checkers certify."""
    return {"delta": qr.delta(s, q), "mu": qr.mu(s, s, s, q), "eps": qr.epsilon(s, q)}


def test_models_over_one_lattice_share_one_powerset():
    """Two models with equal universe labels and grades share one
    powerset object; another lattice, another universe, or a model whose
    lattice was reassigned gets its own, equal to a fresh one."""
    a = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1]))
    b = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1], "product"))
    assert a.universe is not b.universe and a.grades is not b.grades
    assert a.powerset() is b.powerset() is a.powerset()
    finer = qr.load_lexicon(_tiny_lexicon([0, 0.25, 0.5, 1]))
    wider = qr.load_lexicon(_route_lexicon(2, [0, 0.5, 1], "godel"))
    reassigned = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1]))
    reassigned.grades = qr.GradeLattice([0, 0.5, 0.75, 1])
    for model in (finer, wider, reassigned):
        p = model.powerset()
        assert p is not a.powerset()
        fresh = qr.PowersetObject(model.universe, model.grades)
        assert p.enumeration == fresh.enumeration
        assert p.universe == model.universe and p.lattice == model.grades
    assert finer.powerset() is not reassigned.powerset()


@pytest.mark.parametrize("size, grades", [(2, [0, 0.5, 1]), (2, [0, 0.25, 0.75, 1]),
                                          (3, [0, 0.5, 1]), (3, [0, 0.25, 0.75, 1])])
@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz", "boolean"])
def test_shared_maps_equal_fresh_constructors(size, grades, quantale):
    """At |P| = 9, 16, 27 and 64 on all four quantales, each map kept for
    a powerset object is one object per (powerset, quantale) and equals
    its constructor's fresh output."""
    from quantrel.semantics import _per_lattice
    model = qr.load_lexicon(_route_lexicon(size, grades, quantale))
    p, q = model.powerset(), model.quantale
    assert len(p) == len(grades) ** size
    for kind, fresh in _fresh_maps(p.index, q).items():
        kept = _per_lattice(kind, p, q)
        assert kept is _per_lattice(kind, p, q)
        assert kept.quantale is q and kept.equal(fresh), kind


def test_refused_powerset_raises_on_every_call(monkeypatch):
    """No exception is kept: a lattice whose powerset the guard refuses
    is checked and refused again on every call, by `Model.powerset` and
    by exhaustive evaluation alike."""
    from quantrel.semantics import _per_lattice
    checks = []
    check = qr.bialgebra.check_powerset_size

    def counting(n, lattice):
        checks.append(n)
        return check(n, lattice)

    model = qr.load_lexicon(_route_lexicon(15, [0, 0.5, 1], "godel"))
    tree = _tree("john run", model)
    monkeypatch.setattr(qr.bialgebra, "check_powerset_size", counting)
    kept = _per_lattice.cache_info().currsize
    for calls in range(1, 4):
        with pytest.raises(qr.EnumerationLimitError, match="3\\^15 subsets"):
            model.powerset()
        with pytest.raises(qr.EnumerationLimitError, match="3\\^15 subsets"):
            qr.eval_categorical(tree, model, "exhaustive")
        assert checks == [15] * (2 * calls)
    assert _per_lattice.cache_info().currsize == kept


def test_shared_structure_stays_within_its_bound():
    """More lattices than the bound evict the least recently used
    entries: the cache never holds more than PER_LATTICE_CACHE_SIZE."""
    from quantrel.semantics import PER_LATTICE_CACHE_SIZE, _per_lattice
    bound = _per_lattice.cache_info().maxsize
    assert bound == PER_LATTICE_CACHE_SIZE
    for i in range(1, bound + 6):
        model = qr.load_lexicon(_tiny_lexicon([0, i / (bound + 6), 1]))
        for sentence in ("john run", "every men run"):
            qr.eval_categorical(_tree(sentence, model), model, "exhaustive")
        assert _per_lattice.cache_info().currsize <= bound
    assert _per_lattice.cache_info().currsize == bound


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz", "boolean"])
def test_shared_maps_are_unchanged_by_evaluation(quantale):
    """Aliasing guard: the maps every exhaustive evaluation over one
    lattice reads are the same objects after a batch of them, and each
    one's target list still equals a fresh build."""
    from quantrel.semantics import _per_lattice
    model = randomize_model(qr.load_lexicon(_route_lexicon(2, [0, 0.5, 1], quantale)),
                            random.Random(29))
    p, q = model.powerset(), model.quantale
    before = {kind: _per_lattice(kind, p, q) for kind in ("delta", "mu", "eps")}
    sentences = _all_sentences(model, rng=random.Random(30), most=12)
    for sentence in sentences:
        _value_or_error(_tree(sentence, model), model, "exhaustive")
    assert model.powerset() is p
    for kind, fresh in _fresh_maps(p.index, q).items():
        kept = _per_lattice(kind, p, q)
        assert kept is before[kind]
        assert kept._targets() == fresh._targets(), kind


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz", "boolean"])
def test_cold_and_warm_evaluations_match_brute_force(quantale):
    """The first evaluation over a lattice builds what it shares and
    later ones read it; both give the brute-force value with ==."""
    from quantrel.semantics import _per_lattice
    crisp = quantale == "boolean"
    template = qr.load_lexicon(_tiny_lexicon([0, 1] if crisp else [0, 0.5, 1], quantale))
    model = randomize_model(template, random.Random(31), crisp=crisp)
    sentences = ["john run", "several men run", "john see john",
                 "john see several men", "some men see every men"]
    if crisp:
        sentences = [s for s in sentences if "several" not in s]
    _per_lattice.cache_clear()
    cold = [qr.eval_categorical(_tree(s, model), model, "exhaustive") for s in sentences]
    assert _per_lattice.cache_info().misses > 0
    hits = _per_lattice.cache_info().hits
    warm = [qr.eval_categorical(_tree(s, model), model, "exhaustive") for s in sentences]
    assert _per_lattice.cache_info().hits > hits
    assert cold == warm == [brute.score(model, s) for s in sentences]


# -- guards and errors -----------------------------------------------------------


def test_exhaustive_grade_outside_lattice():
    data = _tiny_lexicon([0, 0.5, 1])
    model = qr.load_lexicon(data)
    model.nouns["men"] = qr.FuzzySet(model.universe, (0.3, 1.0))
    tree = _tree("several men run", model)
    with pytest.raises(qr.EvaluationError):
        qr.eval_categorical(tree, model, "exhaustive")
    # restricted mode does not enumerate and still works
    qr.eval_categorical(tree, model, "restricted")
    # So is a verb grade: its images leave the enumerated subsets.
    model = qr.load_lexicon(data)
    model.verbs["see"] = qr.FuzzyRelation(model.universe, {("a", "a"): 0.3, ("a", "b"): 0.7})
    with pytest.raises(qr.EvaluationError, match="grade 0.3 is outside"):
        qr.eval_categorical(_tree("john see several men", model), model, "exhaustive")
    # A "d n v np" verb meets the join only through its derived VP, here in the lattice.
    model.verbs["see"] = qr.FuzzyRelation(model.universe, {("a", "b"): 0.7})
    assert qr.eval_categorical(_tree("several men see john", model), model, "exhaustive") == 0


def test_exhaustive_work_guard():
    data = _tiny_lexicon([0, 0.5, 1])
    data["universe"] = [f"u{i}" for i in range(4)]
    data["nouns"] = {"men": {"u0": 0.5, "u1": 1.0}}
    data["vps"] = {"run": {"u2": 1.0}}
    data["verbs"] = {"see": [["u0", "u1", 1.0]]}
    data["nps"] = {"john": {"u0": 1.0}}
    data["grades"] = [0, 0.25, 0.5, 0.75, 1]
    model = qr.load_lexicon(data)
    tree = _tree("john see several men", model)
    with pytest.raises(qr.EnumerationLimitError):
        qr.eval_categorical(tree, model, "exhaustive")


def _p27_lexicon(quantale):
    """Three elements and three grades: 27 graded subsets per wire."""
    return {
        "universe": ["a", "b", "c"], "quantale": quantale, "grades": [0, 0.5, 1],
        "nouns": {"cats": {"a": 1.0, "b": 0.5}, "dogs": {"b": 1.0, "c": 0.5}},
        "verbs": {"see": [["a", "b", 1.0], ["a", "c", 0.5], ["b", "c", 1.0],
                          ["c", "a", 0.5]]},
        "quantifiers": {
            "few": {"kind": "fuzzy",
                    "breakpoints": [[0, 0], [0.1, 1], [0.3, 1], [0.6, 0], [1, 0]]},
            "every": {"kind": "every"},
        },
    }


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz"])
def test_exhaustive_work_guard_admits_double_quant_at_27_subsets(quantale):
    """The guard prices DoubleQuant by the five wires its second merge
    meets, not by its six-wire boundary, which would refuse 27 subsets;
    the value it admits equals the brute-force join."""
    model = qr.load_lexicon(_p27_lexicon(quantale))
    n = len(model.powerset())
    assert n == 27 and n ** 5 <= qr.semantics.EXHAUSTIVE_WORK_GUARD < n ** 6
    value = _exhaustive_vs_brute(model, "every cats see few dogs")
    assert 0.0 < value < 1.0


def test_exhaustive_bare_forms_stop_at_the_cup_entry_guard():
    """Over 11 crisp entities (2048 subsets) the work guard admits a bare
    sentence, but its cup, an index map of 2048^2 positions, exceeds the
    entry guard, so exhaustive mode refuses it; restricted mode, over the
    denotations alone, still scores it."""
    universe = [f"u{i}" for i in range(11)]
    model = qr.load_lexicon({
        "universe": universe, "quantale": "boolean", "grades": [0, 1],
        "nps": {"john": {"u0": 1}}, "vps": {"sneeze": {"u0": 1, "u3": 1}},
    })
    tree = _tree("john sneeze", model)
    assert len(model.powerset().index) ** 2 <= qr.semantics.EXHAUSTIVE_WORK_GUARD
    with pytest.raises(qr.EnumerationLimitError, match="2048x2048"):
        qr.eval_categorical(tree, model, "exhaustive")
    assert qr.eval_categorical(tree, model, "restricted") == 0.0


def test_exhaustive_bare_transitive_stops_at_the_verb_entry_guard(monkeypatch):
    """Over 11 crisp entities (2048 subsets) the verb of "john see mary"
    relates 2048^2 subject and object subsets, past the entry guard, so
    `verb_relation` refuses it before taking a single image."""
    universe = [f"u{i}" for i in range(11)]
    model = qr.load_lexicon({
        "universe": universe, "quantale": "godel", "grades": [0, 1],
        "nps": {"john": {"u0": 1}, "mary": {"u1": 1}},
        "verbs": {"see": [["u0", "u1", 1]]},
    })
    tree = _tree("john see mary", model)

    def refused(*args):
        raise AssertionError("an image was taken before the guard")

    monkeypatch.setattr(qr.semantics, "image_grades", refused)
    with pytest.raises(qr.EnumerationLimitError, match="verb relation of 4194304 pairs"):
        qr.eval_categorical(tree, model, "exhaustive")


def test_degree_of_truth_report(animals):
    report = qr.degree_of_truth("several cats sleep", animals, method="both")
    assert report.form is qr.SentenceForm.QUANT_SUBJECT
    assert report.diff == pytest.approx(0.0, abs=1e-12)
    assert set(report.values) == {"direct", "categorical"}
    with pytest.raises(qr.QuantrelError):
        qr.degree_of_truth("several cats sleep", animals, method="warp")
    # The mode is checked up front too, whatever the method, so no report
    # carries a mode that does not exist.
    for method in qr.semantics.METHODS:
        with pytest.raises(qr.QuantrelError, match="unknown mode 'warp'"):
            qr.degree_of_truth("several cats sleep", animals, method=method, mode="warp")


def test_degree_of_truth_crisp_method(crisp):
    for sentence, form, truth in [
            ("some men sneeze", qr.SentenceForm.QUANT_SUBJECT, True),
            ("every men sneeze", qr.SentenceForm.QUANT_SUBJECT, False),
            ("john liked no trees", qr.SentenceForm.QUANT_OBJECT, False)]:
        report = qr.degree_of_truth(sentence, crisp, method="crisp")
        assert report.form is form and report.method == "crisp"
        assert report.values == {"crisp": truth}
        assert report.diff is None
    # Crisp memberships over a real quantale admit a graded determiner,
    # which the crisp evaluator refuses by its name.
    data = crisp_lexicon()
    data["quantale"] = "godel"
    data["quantifiers"]["several"] = {"kind": "fuzzy",
                                      "breakpoints": [list(b) for b in SEVERAL_BPS]}
    with pytest.raises(qr.EvaluationError, match="determiner 'several' is graded"):
        qr.degree_of_truth("several men sneeze", qr.load_lexicon(data), method="crisp")


# -- one binding per report ---------------------------------------------------


def _count_calls(patch, name):
    """Record the arguments of every call of `semantics.<name>`."""
    calls = []
    original = getattr(qr.semantics, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    patch.setattr(qr.semantics, name, counted)
    return calls


def test_a_report_shares_one_binding_between_its_routes(animals, monkeypatch):
    """A "both" report binds its sentence once: DoubleQuant scans each
    determiner's argmax grid once (two calls, not four), and QuantObject
    and BareTransitive take the subject's image through the verb once
    (one call, not two).  Each DoubleQuant route still scores the verb
    between the scaled sets itself."""
    model = _with_plants_np(animals)
    argmax = _count_calls(monkeypatch, "apply_quantifier_argmax")
    image = _count_calls(monkeypatch, "verb_image")
    report = qr.degree_of_truth("several mice eat most plants", model)
    assert report.diff == 0.0 and report.values["direct"] == pytest.approx(0.28, abs=1e-9)
    assert [d.name for d, _ in argmax] == ["several", "most"]
    assert len(image) == 2
    subject = (model.verbs["eat"], model.nps["mice"])
    for sentence in ("mice eat several plants", "mice eat plants"):
        image.clear()
        report = qr.degree_of_truth(sentence, model)
        assert report.diff == 0.0
        assert image == [subject], sentence
    # The oracle's crisp loop shares one binding in the same way.
    crisp = qr.load_lexicon(crisp_lexicon())
    image.clear()
    den = qr.semantics.bind(_tree("john liked some trees", crisp), crisp)
    assert qr.eval_crisp_truth(den, crisp) is True
    assert qr.eval_categorical(den, crisp) == 1.0
    assert image == [(crisp.verbs["liked"], crisp.nps["john"])]


def _outcome(evaluate):
    try:
        return evaluate()
    except qr.QuantrelError as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz", "boolean"])
def test_report_values_equal_separate_evaluator_calls(quantale):
    """Every value of a report on one binding is == the value of the same
    evaluator called on its own parse, and a report raises exactly what
    its first failing evaluator raises: all five forms, every method, in
    both modes, over random |P| = 8 or 9 models."""
    crisp = quantale == "boolean"
    template = qr.load_lexicon(_route_lexicon(3 if crisp else 2,
                                              [0, 1] if crisp else [0, 0.5, 1], quantale))
    rng = random.Random(f"report:{quantale}")
    floats = []
    for _ in range(3):
        model = randomize_model(template, rng, crisp=crisp)
        for sentence in _all_sentences(model, rng=rng, most=6):
            for mode in qr.semantics.MODES:
                tree = _tree(sentence, model)
                alone = {
                    "crisp": lambda: qr.eval_crisp_truth(tree, model),
                    "direct": lambda: qr.eval_zadeh_direct(tree, model),
                    "categorical": lambda: qr.eval_categorical(tree, model, mode),
                }
                for method in qr.semantics.METHODS:
                    keys = ("direct", "categorical") if method == "both" else (method,)
                    expected = {}
                    for key in keys:
                        value = _outcome(alone[key])
                        if isinstance(value, str):
                            expected = value
                            break
                        expected[key] = value
                    got = _outcome(lambda: qr.degree_of_truth(sentence, model, method,
                                                              mode).values)
                    assert got == expected, (sentence, method, mode)
                    if isinstance(got, dict):
                        floats += [v for v in got.values() if type(v) is float]
    assert len(floats) > 100
    assert any(0.0 < v < 1.0 for v in floats) or crisp


# -- restrictors of sigma-count zero -------------------------------------------


EMPTY = "EmptyRestrictorError: proportion against a set of sigma-count zero"


def _empty_restrictor_model(quantale):
    data = _tiny_lexicon([0, 0.5, 1], quantale)
    data["nouns"]["ghosts"] = {}
    data["nps"]["nobody"] = {}
    return qr.load_lexicon(data)


@pytest.mark.parametrize("quantale", ["godel", "product", "lukasiewicz"])
@pytest.mark.parametrize("sentence, restricted, exhaustive", [
    ("several ghosts run", 0.0, 0.0),
    ("every ghosts run", 0.0, 0.0),
    ("john see several ghosts", 0.0, 0.0),
    ("nobody run", 0.0, 0.0),
    ("several ghosts see several men", EMPTY, 0.0),
    ("several men see several ghosts", EMPTY, 0.0),
])
def test_sigma_count_zero_restrictor_per_route(quantale, sentence, restricted, exhaustive):
    """What each route gives when a restrictor has sigma-count zero: the
    direct route raises EmptyRestrictorError, and so does restricted
    DoubleQuant, whose argmax scales the empty noun; the other
    categorical routes join over a state with no entries and return 0.0.
    A "both" report raises, as its direct route does."""
    model = _empty_restrictor_model(quantale)
    tree = _tree(sentence, model)
    assert _outcome(lambda: qr.eval_zadeh_direct(tree, model)) == EMPTY
    assert _outcome(lambda: qr.eval_categorical(tree, model)) == restricted
    assert _outcome(lambda: qr.eval_categorical(tree, model, "exhaustive")) == exhaustive
    for mode in qr.semantics.MODES:
        assert _outcome(lambda: qr.degree_of_truth(sentence, model, mode=mode)) == EMPTY


def test_a_binding_whose_derived_set_raised_raises_again(monkeypatch):
    """A derived set that raised is not kept: the next route that reads it
    computes it again and raises again."""
    model = _empty_restrictor_model("godel")
    argmax = _count_calls(monkeypatch, "apply_quantifier_argmax")
    for sentence in ("several ghosts see several men", "several men see several ghosts"):
        den = qr.semantics.bind(_tree(sentence, model), model)
        for evaluate in (qr.eval_zadeh_direct, qr.eval_categorical):
            with pytest.raises(qr.EmptyRestrictorError):
                evaluate(den, model)
    # An empty subject raises on each route.  With an empty object the
    # subject's scaled set is kept, and only the object's scan reruns.
    men, ghosts = model.nouns["men"], model.nouns["ghosts"]
    assert [noun for _, noun in argmax] == [ghosts, ghosts, men, ghosts, ghosts]


def test_a_binding_belongs_to_its_model(animals):
    other = qr.load_lexicon(animal_lexicon())
    den = qr.semantics.bind(_tree("several cats sleep", animals), animals)
    assert qr.semantics.bind(den, animals) is den
    with pytest.raises(qr.EvaluationError, match="different model"):
        qr.eval_zadeh_direct(den, other)
