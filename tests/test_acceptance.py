"""Acceptance suite.

One test per criterion; each prints an `ACCEPTANCE <id>: PASS/FAIL`
line (visible with `pytest -s` or in failure output) and asserts at the
stated tolerance.  Everything here is fixture- or property-based; the
heavyweight exhaustive sweeps live in this module rather than the unit
tests.
"""

import itertools
import random
from collections import defaultdict

import quantrel as qr
from quantrel.sampling import randomize_model
from conftest import (MOST_BPS, SEVERAL_BPS, animal_lexicon,
                      interpolation_oracle, people_lexicon)

TOL = 1e-9


def _report(tag, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def _tree(sentence, model):
    return qr.parse(qr.tokenize(sentence, model))


# -- criterion 1: fixture reproduction ----------------------------------------


def test_criterion_1a_intersection_and_proportion():
    model = qr.load_lexicon(people_lexicon())
    kp, bm = model.vps["kind"], model.nouns["men"]
    inter = qr.intersect(kp, bm)
    expected = {"u1": 0.5, "u2": 0.3, "u3": 0.1, "u4": 0.6, "u5": 0.0}
    ok_inter = all(abs(inter.grade(u) - expected[u]) <= TOL for u in expected)
    prop = qr.proportion(kp, bm)
    ok_prop = abs(prop - 1.5 / 3.1) <= TOL
    _report("1a", ok_inter and ok_prop, f"proportion={prop:.9f}")


def test_criterion_1b_quantified_subject_reduction():
    model = qr.load_lexicon(animal_lexicon())
    got = qr.eval_zadeh_direct(_tree("several cats sleep", model), model)
    several = model.quantifiers["several"]
    expected = qr.apply_distribution(several, 0.9 / 1.3)
    ok = (abs(got - expected) <= TOL
          and abs(got - interpolation_oracle(SEVERAL_BPS, 0.9 / 1.3)) <= TOL)
    _report("1b", ok, f"value={got:.9f}")


def test_criterion_1c_quantified_object_reduction():
    model = qr.load_lexicon(animal_lexicon())
    image = qr.verb_image(model.verbs["eat"], model.nps["mice"])
    expected_image = {"c1": 0.5, "c2": 0.0, "c3": 0.7}
    ok_image = all(abs(image.grade(c) - expected_image[c]) <= TOL
                   for c in expected_image)
    got = qr.eval_zadeh_direct(_tree("mice eat several plants", model), model)
    expected = qr.apply_distribution(model.quantifiers["several"], 0.8 / 1.1)
    ok = ok_image and abs(got - expected) <= TOL
    _report("1c", ok, f"value={got:.9f}")


def test_criterion_1d_double_quantifier_procedure():
    model = qr.load_lexicon(animal_lexicon())
    mice, plants = model.nouns["mice"], model.nouns["plants"]
    several, most = model.quantifiers["several"], model.quantifiers["most"]

    scaled = qr.apply_quantifier_argmax(several, mice)
    expected_scaled = {"c1": 0.28, "c2": 0.24, "c3": 0.08}
    ok_scaled = all(abs(scaled.grade(c) - expected_scaled[c]) <= TOL
                    for c in expected_scaled)

    obj = qr.apply_quantifier_argmax(most, plants)
    ok_obj = obj == plants

    eat = model.verbs["eat"]
    terms = sorted(min(scaled.grade(a), g, plants.grade(b))
                   for (a, b), g in eat.pairs.items())
    expected_terms = sorted([0.2, 0.28, 0.2, 0.24, 0.08])
    ok_terms = all(abs(x - y) <= TOL for x, y in zip(terms, expected_terms))

    tree = _tree("several mice eat most plants", model)
    direct = qr.eval_zadeh_direct(tree, model)
    categorical = qr.eval_categorical(tree, model, "restricted")
    ok_value = abs(direct - 0.28) <= TOL and abs(categorical - 0.28) <= TOL

    _report("1d", ok_scaled and ok_obj and ok_terms and ok_value,
            f"value={direct:.9f}")


# -- criterion 2: direct/categorical equivalence --------------------------------


def _equivalence_template(size):
    labels = [f"u{i + 1}" for i in range(size)]
    return qr.load_lexicon({
        "universe": labels,
        "quantale": "godel",
        "grades": [0, 0.25, 0.5, 0.75, 1],
        "nouns": {"noun": {labels[0]: 1.0}},
        "nps": {"subj": {labels[0]: 1.0}},
        "vps": {"pred": {labels[0]: 1.0}},
        "verbs": {"verb": [[labels[0], labels[0], 1.0]]},
        "quantifiers": {
            "several": {"kind": "fuzzy", "breakpoints": [list(b) for b in SEVERAL_BPS]},
            "most": {"kind": "fuzzy", "breakpoints": [list(b) for b in MOST_BPS]},
            "every": {"kind": "every"},
            "some": {"kind": "some"},
        },
    })


def test_criterion_2_equivalence_on_random_models():
    rng = random.Random(20260810)
    determiners = ("several", "most", "every", "some")
    templates = {n: _equivalence_template(n) for n in (2, 3, 4)}
    checked, worst = 0, 0.0
    for i in range(240):
        model = randomize_model(templates[2 + i % 3], rng)
        det = determiners[i % 4]
        sentence = (f"{det} noun pred" if i % 2 == 0
                    else f"subj verb {det} noun")
        tree = _tree(sentence, model)
        direct = qr.eval_zadeh_direct(tree, model)
        categorical = qr.eval_categorical(tree, model, "restricted")
        worst = max(worst, abs(direct - categorical))
        checked += 1
    _report("2", checked == 240 and worst <= TOL,
            f"models={checked} max_dev={worst:.2e}")


# -- criterion 3: Boolean collapse -----------------------------------------------


def _bool_model(labels, *, noun, vp=None, john=None, verb=None):
    universe = qr.IndexSet(labels)
    quantifiers = {"every": qr.CrispQuantifier("every"),
                   "some": qr.CrispQuantifier("some"),
                   "no": qr.CrispQuantifier("no"),
                   "exactly1": qr.CrispQuantifier("exactly", 1)}
    return qr.Model(
        universe=universe,
        nouns={"noun": qr.FuzzySet.from_support(universe, noun)},
        vps={"pred": qr.FuzzySet.from_support(universe, vp or ())},
        nps={"john": qr.FuzzySet.from_support(universe, john or ())},
        verbs={"verb": qr.FuzzyRelation(universe, {p: 1.0 for p in (verb or ())})},
        quantifiers=quantifiers,
        quantale=qr.BOOLEAN,
        grades=qr.GradeLattice([0, 1]),
    )


DETS = ("every", "some", "no", "exactly1")


def test_criterion_3_boolean_collapse():
    """Exhaustive sweep of crisp models, |U| in 1..3.

    Quantified-subject sentences run over every (noun, vp) assignment;
    quantified-object sentences over every (john, verb, noun)
    assignment.  Object-side evaluations are cached by (john, image,
    noun, determiner, mode): the evaluators are pure and the value
    depends on the verb only through the subject's image, which a
    200-sample uncached control re-verifies.
    """
    mismatches = 0
    checked = 0

    for n in (1, 2, 3):
        labels = [f"x{i}" for i in range(n)]
        subsets = [frozenset(c) for r in range(n + 1)
                   for c in itertools.combinations(labels, r)]

        for noun in subsets:
            for vp in subsets:
                model = _bool_model(labels, noun=noun, vp=vp)
                for det in DETS:
                    tree = _tree(f"{det} noun pred", model)
                    truth = qr.eval_crisp_truth(tree, model)
                    for mode in ("restricted", "exhaustive"):
                        value = qr.eval_categorical(tree, model, mode)
                        checked += 1
                        mismatches += (value == 1.0) != truth

        pair_space = [(a, b) for a in labels for b in labels]
        verbs = [frozenset(c) for r in range(len(pair_space) + 1)
                 for c in itertools.combinations(pair_space, r)]
        cache = {}
        control = []
        rng = random.Random(99)
        for john in subsets:
            for noun in subsets:
                for verb in verbs:
                    image = frozenset(y for (x, y) in verb if x in john)
                    for det in DETS:
                        key = (john, image, noun, det)
                        if key not in cache:
                            model = _bool_model(labels, noun=noun, john=john, verb=verb)
                            tree = _tree(f"john verb {det} noun", model)
                            truth = qr.eval_crisp_truth(tree, model)
                            values = tuple(qr.eval_categorical(tree, model, m)
                                           for m in ("restricted", "exhaustive"))
                            cache[key] = (truth, values)
                        truth, values = cache[key]
                        checked += 2
                        mismatches += sum((v == 1.0) != truth for v in values)
                        if rng.random() < 0.002 and len(control) < 70:
                            control.append((john, noun, verb, det, truth, values))

        # uncached control: rebuild and re-evaluate from scratch
        for john, noun, verb, det, truth, values in control:
            model = _bool_model(labels, noun=noun, john=john, verb=verb)
            tree = _tree(f"john verb {det} noun", model)
            assert qr.eval_crisp_truth(tree, model) == truth
            fresh = tuple(qr.eval_categorical(tree, model, m)
                          for m in ("restricted", "exhaustive"))
            assert fresh == values

    _report("3", mismatches == 0, f"evaluations={checked} mismatches={mismatches}")


# -- criterion 4: algebraic laws ---------------------------------------------------


QUANTALES = (qr.GODEL, qr.LUKASIEWICZ, qr.PRODUCT, qr.BOOLEAN)


def test_criterion_4_algebraic_laws():
    failures = []

    for q in QUANTALES:
        for n in range(1, 7):
            s = qr.IndexSet([f"s{i}" for i in range(n)])
            if not qr.check_snake(s, q):
                failures.append(f"snake |S|={n} {q.name}")

    lattices = [qr.GradeLattice([0, 1]), qr.GradeLattice([0, 0.5, 1]),
                qr.GradeLattice([0, 0.25, 0.5, 0.75, 1])]
    objects = 0
    for lattice in lattices:
        for size in range(1, 5):
            if len(lattice) ** size > 30:
                continue
            universe = qr.IndexSet([f"u{i}" for i in range(size)])
            p = qr.PowersetObject(universe, lattice)
            objects += 1
            for q in QUANTALES:
                for name, rep in (("bialgebra", qr.check_bialgebra(p, q)),
                                  ("comonoid", qr.check_comonoid(p, q)),
                                  ("monoid", qr.check_monoid(p, q))):
                    if not rep.all_pass:
                        failures.append(f"{name} |G|={len(lattice)} |U|={size} {q.name}")

    rng = random.Random(31)
    for trial in range(100):
        sizes = [rng.randint(1, 4) for _ in range(3)]
        sets = [qr.IndexSet([f"f{i}_{j}" for j in range(k)])
                for i, k in enumerate(sizes)]
        r_pairs = [(a, b) for a in sets[0].elements for b in sets[1].elements
                   if rng.random() < 0.4]
        s_pairs = [(b, c) for b in sets[1].elements for c in sets[2].elements
                   if rng.random() < 0.4]
        r = qr.CrispRel(sets[0], sets[1], r_pairs)
        s = qr.CrispRel(sets[1], sets[2], s_pairs)
        composed = {(x, z) for x, y in r_pairs for y2, z in s_pairs if y == y2}
        q = QUANTALES[trial % 4]
        direct = qr.include(qr.CrispRel(sets[0], sets[2], composed), q)
        ident = qr.include(qr.CrispRel.identity(sets[0]), q)
        if not qr.compose(qr.include(r, q), qr.include(s, q)).equal(direct):
            failures.append(f"functoriality trial {trial}")
        if not ident.equal(qr.identity(sets[0], q)):
            failures.append(f"identity preservation trial {trial}")

    _report("4", not failures,
            f"objects={objects} failures={failures if failures else 0}")


# -- criterion 5: conservativity ------------------------------------------------------


def test_criterion_5_conservativity():
    failures = []
    kinds = [qr.CrispQuantifier("every"), qr.CrispQuantifier("some"),
             qr.CrispQuantifier("no")] + \
            [qr.CrispQuantifier("exactly", n) for n in (0, 1, 2)]
    for size in range(1, 5):
        u = qr.IndexSet([f"u{i}" for i in range(size)])
        for d in kinds:
            if not qr.is_conservative(d, u):
                failures.append(f"{d} |U|={size}")

    lattice = qr.GradeLattice([0, 0.5, 1])
    p = qr.PowersetObject(qr.IndexSet(["a", "b", "c"]), lattice)
    determiners = [qr.FuzzyQuantifier("several", SEVERAL_BPS),
                   qr.FuzzyQuantifier("most", MOST_BPS),
                   qr.CrispQuantifier("every"), qr.CrispQuantifier("some")]
    pairs = 0
    for d in determiners:
        rel = qr.quantifier_vrel(d, p.index, p.index, qr.GODEL)
        for a in p.enumeration:
            for b in p.enumeration:
                pairs += 1
                if rel.entry(a, b) != rel.entry(a, qr.PowersetObject.meet(a, b)):
                    failures.append(f"{d} at {a}/{b}")
    _report("5", not failures, f"entry_pairs={pairs} failures={len(failures)}")


# -- criterion 6: parser vs CYK oracle ---------------------------------------------


class _WordList:
    def __init__(self, table):
        self.table = {w: frozenset(cs) for w, cs in table.items()}

    def categories_of(self, word):
        return self.table.get(word, frozenset())


TEN_WORDS = _WordList({
    "some": {"Det"}, "most": {"Det"},
    "men": {"N"}, "cats": {"N", "NP"}, "mice": {"N", "NP"}, "john": {"NP"},
    "sneeze": {"VP"}, "sleep": {"VP", "V"}, "eat": {"V"},
    "fish": {"N", "NP", "V"},
})

_RULES = (("S", "NP", "VP"), ("VP", "V", "NP"), ("NP", "Det", "N"))


def _cyk_count(category_sets):
    n = len(category_sets)
    table = [[defaultdict(int) for _ in range(n + 1)] for _ in range(n + 1)]
    for i, cats in enumerate(category_sets):
        for c in cats:
            table[i][i + 1][c] += 1
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span
            cell = table[i][j]
            for k in range(i + 1, j):
                left, right = table[i][k], table[k][j]
                for head, first, second in _RULES:
                    if first in left and second in right:
                        cell[head] += left[first] * right[second]
    return table[0][n]["S"]


def test_criterion_6_parser_matches_cyk_oracle():
    words = sorted(TEN_WORDS.table)
    assert len(words) == 10
    verdicts = {}
    strings = 0
    disagreements = 0
    for length in range(1, 6):
        for combo in itertools.product(words, repeat=length):
            strings += 1
            tokens = qr.tokenize(" ".join(combo), TEN_WORDS)
            signature = tuple(t.categories for t in tokens)
            verdict = verdicts.get(signature)
            if verdict is None:
                count = _cyk_count(signature)
                try:
                    qr.parse(tokens)
                    outcome = "unique"
                except qr.AmbiguousParseError:
                    outcome = "ambiguous"
                except qr.ParseFailureError:
                    outcome = "none"
                expected = ("unique" if count == 1
                            else "ambiguous" if count > 1 else "none")
                verdict = (outcome == expected
                           and len(qr.derivations(tokens)) == count)
                verdicts[signature] = verdict
            disagreements += not verdict

    model = qr.load_lexicon(animal_lexicon())
    crisp_words = _WordList({"some": {"Det"}, "men": {"N"}, "sneeze": {"VP"},
                             "john": {"NP"}, "liked": {"V"}, "trees": {"N"}})
    form_cases = [
        ("some men sneeze", crisp_words, qr.SentenceForm.QUANT_SUBJECT),
        ("john liked some trees", crisp_words, qr.SentenceForm.QUANT_OBJECT),
        ("several cats sleep", model, qr.SentenceForm.QUANT_SUBJECT),
        ("mice eat several plants", model, qr.SentenceForm.QUANT_OBJECT),
        ("several mice eat most plants", model, qr.SentenceForm.DOUBLE_QUANT),
    ]
    forms_ok = all(qr.classify(qr.parse(qr.tokenize(s, lex))) is form
                   for s, lex, form in form_cases)

    _report("6", disagreements == 0 and forms_ok,
            f"strings={strings} signatures={len(verdicts)}")
