import itertools
import random

import pytest

import quantrel as qr
from conftest import SEVERAL_BPS, animal_lexicon, interpolation_oracle


def _tree(sentence, model):
    return qr.parse(qr.tokenize(sentence, model))


# -- crisp evaluation ---------------------------------------------------------


def test_crisp_truth_quant_subject(crisp):
    assert qr.eval_crisp_truth(_tree("some men sneeze", crisp), crisp) is True
    moved = qr.load_lexicon({**_crisp_dict(), "vps": {"sneeze": {"c": 1}}})
    assert qr.eval_crisp_truth(_tree("some men sneeze", moved), moved) is False


def _crisp_dict():
    from conftest import crisp_lexicon
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


def test_pipeline_printing(animals):
    tree = _tree("several cats sleep", animals)
    words = qr.extract_words(tree, qr.classify(tree))
    pipe = qr.compile_pipeline(qr.SentenceForm.QUANT_SUBJECT, words)
    assert str(pipe) == "eps ∘ (d ⊗ mu) ∘ (delta ⊗ id) ∘ (np ⊗ vp)"

    tree = _tree("mice sleep", animals)
    words = qr.extract_words(tree, qr.classify(tree))
    assert str(qr.compile_pipeline(qr.SentenceForm.BARE_INTRANSITIVE, words)) == \
        "eps ∘ (np ⊗ vp)"


def test_pipelines_type_check_for_all_forms(animals):
    sentences = {
        "mice sleep": qr.SentenceForm.BARE_INTRANSITIVE,
        "several cats sleep": qr.SentenceForm.QUANT_SUBJECT,
        "mice eat several plants": qr.SentenceForm.QUANT_OBJECT,
        "several mice eat most plants": qr.SentenceForm.DOUBLE_QUANT,
    }
    for sentence, form in sentences.items():
        tree = _tree(sentence, animals)
        assert qr.classify(tree) is form
        pipe = qr.compile_pipeline(form, qr.extract_words(tree, form))
        pipe.check_types()  # raises on any wiring defect


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


def test_exhaustive_quant_subject_matches_brute_force():
    """Symbolic flattening: the composed pipeline equals the max-min
    formula computed by nested loops over all enumerated subsets."""
    model = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1]))
    tree = _tree("several men run", model)
    got = qr.eval_categorical(tree, model, "exhaustive")

    several = model.quantifiers["several"]
    men, run = model.nouns["men"], model.vps["run"]
    members = list(itertools.product((0.0, 0.5, 1.0), repeat=2))

    def prop(b, a):
        denom = sum(a)
        return None if denom == 0 else sum(map(min, a, b)) / denom

    best = 0.0
    for a in members:
        for b in members:
            pa = prop(a, men.as_tuple())
            pb = prop(b, run.as_tuple())
            if pa is None or pb is None:
                continue
            meet_prop = prop(tuple(map(min, a, b)), a)
            dq = 0.0 if meet_prop is None else qr.apply_distribution(several, meet_prop)
            best = max(best, min(pa, pb, dq))
    assert got == pytest.approx(best, abs=1e-12)


def test_exhaustive_double_quant_matches_brute_force():
    """The doubly quantified pipeline flattens to the five-term max-min."""
    model = qr.load_lexicon(_tiny_lexicon([0, 1]))
    tree = _tree("some men see every men", model)
    got = qr.eval_categorical(tree, model, "exhaustive")

    men = model.nouns["men"].as_tuple()
    see = model.verbs["see"]
    members = list(itertools.product((0.0, 1.0), repeat=2))

    def prop(b, a):
        denom = sum(a)
        return None if denom == 0 else sum(map(min, a, b)) / denom

    def image(a):
        out = [0.0, 0.0]
        for (x, y), g in see.pairs.items():
            i = model.universe.position(x)
            j = model.universe.position(y)
            out[j] = max(out[j], min(a[i], g))
        return tuple(out)

    def quant_entry(kind, a, b):
        if kind == "some":
            return 1.0 if any(min(x, y) > 0 for x, y in zip(a, b)) else 0.0
        return 1.0 if all(x <= y for x, y in zip(a, b)) else 0.0

    best = 0.0
    for a in members:
        pa = prop(a, men)
        if pa is None:
            continue
        for b in members:
            for d_ in members:
                pv = prop(d_, image(b))
                if pv is None:
                    continue
                for c in members:
                    pc = prop(c, men)
                    if pc is None:
                        continue
                    term = min(
                        pa, pv, pc,
                        quant_entry("some", a, tuple(map(min, a, b))),
                        quant_entry("every", c, tuple(map(min, c, d_))))
                    best = max(best, term)
    assert got == pytest.approx(best, abs=1e-12)


def test_exhaustive_matches_brute_force_on_random_models():
    """Randomized cross-check of the pipeline machinery against nested
    loops over every enumerated subset."""
    rng = random.Random(13)
    template = qr.load_lexicon(_tiny_lexicon([0, 0.5, 1]))
    from quantrel.sampling import randomize_model
    members = list(itertools.product((0.0, 0.5, 1.0), repeat=2))

    def prop(b, a):
        denom = sum(a)
        return None if denom == 0 else sum(map(min, a, b)) / denom

    for _ in range(20):
        model = randomize_model(template, rng)
        several = model.quantifiers["several"]
        men, run = model.nouns["men"].as_tuple(), model.vps["run"].as_tuple()
        see, john = model.verbs["see"], model.nps["john"].as_tuple()

        tree = _tree("several men run", model)
        best = 0.0
        for a in members:
            pa = prop(a, men)
            if pa is None:
                continue
            for b in members:
                pb = prop(b, run)
                mp = prop(tuple(map(min, a, b)), a)
                if pb is None or mp is None:
                    continue
                best = max(best, min(pa, pb, qr.apply_distribution(several, mp)))
        assert qr.eval_categorical(tree, model, "exhaustive") == \
            pytest.approx(best, abs=1e-12)

        tree = _tree("john see several men", model)
        best = 0.0
        for a in members:
            pa = prop(a, john)
            if pa is None:
                continue
            image = [0.0, 0.0]
            for (x, y), g in see.pairs.items():
                i = model.universe.position(x)
                j = model.universe.position(y)
                image[j] = max(image[j], min(a[i], g))
            for b in members:
                pv = prop(b, tuple(image))
                if pv is None:
                    continue
                for c in members:
                    pc = prop(c, men)
                    mp = prop(tuple(map(min, b, c)), c)
                    if pc is None or mp is None:
                        continue
                    best = max(best, min(pa, pv, pc,
                                         qr.apply_distribution(several, mp)))
        assert qr.eval_categorical(tree, model, "exhaustive") == \
            pytest.approx(best, abs=1e-12)


def test_boolean_collapse_sample():
    rng = random.Random(9)
    base = _tiny_lexicon([0, 1], quantale="boolean")
    template = qr.load_lexicon(base)
    from quantrel.sampling import randomize_model
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
    from quantrel.sampling import randomize_model
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
    from quantrel.sampling import randomize_model
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
    from quantrel.sampling import randomize_model
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
    from pathlib import Path
    from quantrel.sampling import randomize_model
    small = Path(__file__).resolve().parent.parent / "lexicons" / "small.json"
    model = randomize_model(qr.load_lexicon(small), random.Random(0), crisp=True)
    tree = _tree("several men see every men", model)
    for mode in ("restricted", "exhaustive"):
        with pytest.raises(qr.EvaluationError, match="needs a real-valued"):
            qr.eval_categorical(tree, model, mode)


def test_direct_rejects_graded_determiner_over_boolean():
    """The direct evaluator refuses what the categorical one does: a
    graded determiner has no Boolean reading in any form."""
    from pathlib import Path
    from quantrel.sampling import randomize_model
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


def test_degree_of_truth_report(animals):
    report = qr.degree_of_truth("several cats sleep", animals, method="both")
    assert report.form is qr.SentenceForm.QUANT_SUBJECT
    assert report.diff == pytest.approx(0.0, abs=1e-12)
    assert set(report.values) == {"direct", "categorical"}
    with pytest.raises(qr.QuantrelError):
        qr.degree_of_truth("several cats sleep", animals, method="warp")
