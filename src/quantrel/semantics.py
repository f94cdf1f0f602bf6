"""Sentence evaluation by three methods.

crisp      classical generalized-quantifier truth over crisp sets.
direct     the fuzzy-quantifier score: a possibility distribution
           applied to a proportion of sigma-counts.
categorical  compilation of the parse into a relation pipeline over
           enumerated graded subsets, evaluated to the single entry of
           a unit-to-unit relation.

The categorical evaluator has two modes.  Exhaustive mode enumerates
every graded subset built from the model's grade lattice and takes the
genuine join over all of them.  Restricted mode (the default) lets each
bound subset variable range only over the small closure of lexicon
denotations under intersection, verb image and quantifier scaling; on
quantified-subject and quantified-object sentences the join is then
pinned at the denotations themselves and the result coincides exactly
with the direct method.  For doubly quantified sentences restricted
mode computes the operational reading (apply each determiner to its
noun by scaling, then score the verb between the two results), which is
also what the direct method does; the compiled pipeline is still built
and type-checked, and exhaustive mode evaluates it as a genuine join.

Every structural atom of a pipeline is built by the same constructor
the law checkers certify: `bialgebra.delta` and `bialgebra.mu`,
`vrel.epsilon`, `vrel.identity` and `vrel.swap`, and
`quantifier.quantifier_vrel` for determiners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Optional, Tuple, Union

from .bialgebra import GradeLattice, PowersetObject, delta, mu
from .errors import (EnumerationLimitError, EvaluationError, QuantrelError,
                     ShapeMismatchError)
from .fuzzyset import (FuzzyRelation, FuzzySet, image_grades, proportion,
                       proportion_grades, verb_image)
from .grammar import ParseTree, SentenceForm, classify, parse, tokenize
from .quantale import Quantale
from .quantifier import (CrispQuantifier, Determiner, apply_distribution,
                         apply_quantifier_argmax, gq_holds, quantifier_vrel,
                         require_quantale)
from .vrel import (IndexSet, VRel, compose, epsilon, identity, swap,
                   tensor_rel)


@dataclass
class Model:
    """A universe plus an interpretation for every lexicon word."""

    universe: IndexSet
    nouns: Dict[str, FuzzySet] = field(default_factory=dict)
    nps: Dict[str, FuzzySet] = field(default_factory=dict)
    vps: Dict[str, FuzzySet] = field(default_factory=dict)
    verbs: Dict[str, FuzzyRelation] = field(default_factory=dict)
    quantifiers: Dict[str, Determiner] = field(default_factory=dict)
    quantale: Quantale = None
    grades: GradeLattice = None
    threshold: float = 0.0

    def categories_of(self, word: str) -> frozenset:
        cats = set()
        if word in self.quantifiers:
            cats.add("Det")
        if word in self.nouns:
            cats.add("N")
        if word in self.nps:
            cats.add("NP")
        if word in self.verbs:
            cats.add("V")
        if word in self.vps:
            cats.add("VP")
        return frozenset(cats)

    def iter_sets(self):
        for group in (self.nouns, self.nps, self.vps):
            for name, fs in group.items():
                yield name, fs

    def validate(self) -> None:
        for name, fs in self.iter_sets():
            if fs.universe != self.universe:
                raise ShapeMismatchError(f"denotation of {name!r} is over a different universe")
            for g in fs.grades:
                if g not in self.grades:
                    raise QuantrelError(
                        f"grade {g:g} of {name!r} is outside the grade lattice")
        for name, rel in self.verbs.items():
            if rel.universe != self.universe:
                raise ShapeMismatchError(f"verb {name!r} is over a different universe")
            for g in rel.pairs.values():
                if g not in self.grades:
                    raise QuantrelError(
                        f"grade {g:g} of verb {name!r} is outside the grade lattice")

    def is_crisp(self) -> bool:
        return (all(fs.is_crisp() for _, fs in self.iter_sets())
                and all(rel.is_crisp() for rel in self.verbs.values()))

    def powerset(self) -> PowersetObject:
        return PowersetObject(self.universe, self.grades)


# -- word extraction --------------------------------------------------------


@dataclass(frozen=True)
class SentenceWords:
    """The lexicon words a parse tree binds to each semantic role."""

    form: SentenceForm
    subj: str = ""          # subject noun (quantified) or noun phrase
    subj_det: str = ""
    vp: str = ""            # lexical intransitive verb, when present
    verb: str = ""          # transitive verb, when present
    obj: str = ""           # object noun or noun phrase
    obj_det: str = ""


def extract_words(tree: ParseTree, form: SentenceForm) -> SentenceWords:
    subject, vp = tree.children
    kw = {"form": form}
    if len(subject.children) == 2:
        kw["subj_det"] = subject.children[0].word
        kw["subj"] = subject.children[1].word
    else:
        kw["subj"] = subject.word
    if vp.is_leaf():
        kw["vp"] = vp.word
    else:
        kw["verb"] = vp.children[0].word
        obj = vp.children[1]
        if len(obj.children) == 2:
            kw["obj_det"] = obj.children[0].word
            kw["obj"] = obj.children[1].word
        else:
            kw["obj"] = obj.word
    return SentenceWords(**kw)


def _require(group: dict, word: str, role: str):
    if word not in group:
        raise EvaluationError(f"no {role} denotation for {word!r}")
    return group[word]


class _Denotations:
    """Resolved fuzzy sets / relations / determiners for one sentence."""

    def __init__(self, words: SentenceWords, model: Model):
        self.words = words
        self.model = model
        form = words.form
        quantified_subject = form in (SentenceForm.QUANT_SUBJECT, SentenceForm.DOUBLE_QUANT)
        self.subj = (model.nouns if quantified_subject else model.nps).get(words.subj)
        if self.subj is None:
            raise EvaluationError(f"no denotation for subject {words.subj!r}")
        self.subj_det = self.obj_det = self.verb = None
        if words.subj_det:
            self.subj_det = _require(model.quantifiers, words.subj_det, "determiner")
            require_quantale(self.subj_det, model.quantale)
        if words.verb:
            self.verb = _require(model.verbs, words.verb, "verb")
        if words.obj_det:
            self.obj_det = _require(model.quantifiers, words.obj_det, "determiner")
            require_quantale(self.obj_det, model.quantale)
        self.obj = None
        if words.obj:
            group = model.nouns if words.obj_det else model.nps
            self.obj = group.get(words.obj)
            if self.obj is None:
                raise EvaluationError(f"no denotation for object {words.obj!r}")
        self.vp = None
        if words.vp:
            self.vp = model.vps.get(words.vp)
            if self.vp is None:
                raise EvaluationError(f"no denotation for verb phrase {words.vp!r}")
        elif form == SentenceForm.QUANT_SUBJECT:
            # "d n v np": the transitive verb phrase plays the VP role;
            # its denotation x -> max_y min(v(x, y), obj(y)) is the image
            # of the object under the converse pairs.
            converse = {(y, x): g for (x, y), g in self.verb.pairs.items()}
            u = self.obj.universe
            self.vp = FuzzySet(u, image_grades(converse, u, self.obj.grades))

    def fuzzy_sets(self):
        return [fs for fs in (self.subj, self.vp, self.obj) if fs is not None]


def verb_between(verb: FuzzyRelation, subj: FuzzySet, obj: FuzzySet) -> float:
    """max over pairs (a, b) of min(subj(a), verb(a, b), obj(b)): the
    height of the image of subj intersected with obj."""
    image = verb_image(verb, subj)
    return max(map(min, image.grades, obj.grades), default=0.0)


def _operational_double_quant(den: _Denotations) -> float:
    """Apply each determiner to its noun by argmax scaling, then score
    the verb between the two resulting sets at membership level."""
    subj_q = apply_quantifier_argmax(den.subj_det, den.subj)
    obj_q = apply_quantifier_argmax(den.obj_det, den.obj)
    return verb_between(den.verb, subj_q, obj_q)


# -- crisp evaluation -------------------------------------------------------


def _crisp_quantifier(d: Determiner, word: str) -> CrispQuantifier:
    if not isinstance(d, CrispQuantifier):
        raise EvaluationError(
            f"determiner {word!r} is graded; the crisp evaluator needs a crisp one")
    return d


def eval_crisp_truth(tree: ParseTree, model: Model) -> bool:
    """Classical truth over crisp sets per the generalized-quantifier reading."""
    form = classify(tree)
    words = extract_words(tree, form)
    den = _Denotations(words, model)
    for fs in den.fuzzy_sets():
        if not fs.is_crisp():
            raise EvaluationError("fuzzy denotation present; use the direct or "
                                  "categorical evaluator")
    if den.verb is not None and not den.verb.is_crisp():
        raise EvaluationError("fuzzy verb present; use the direct or "
                              "categorical evaluator")

    subj = den.subj.support()
    if form == SentenceForm.BARE_INTRANSITIVE:
        return bool(den.vp.support() & subj)
    if form == SentenceForm.BARE_TRANSITIVE:
        return bool(verb_image(den.verb, den.subj).support() & den.obj.support())
    if form == SentenceForm.QUANT_SUBJECT:
        d = _crisp_quantifier(den.subj_det, words.subj_det)
        return gq_holds(d, subj, den.vp.support() & subj)
    if form == SentenceForm.QUANT_OBJECT:
        d = _crisp_quantifier(den.obj_det, words.obj_det)
        obj = den.obj.support()
        return gq_holds(d, obj, obj & verb_image(den.verb, den.subj).support())
    # DOUBLE_QUANT: object condition nested inside the subject condition.
    d1 = _crisp_quantifier(den.subj_det, words.subj_det)
    d2 = _crisp_quantifier(den.obj_det, words.obj_det)
    obj = den.obj.support()
    u = model.universe
    vp_set = frozenset(
        x for x in u.elements
        if gq_holds(d2, obj, obj & verb_image(
            den.verb, FuzzySet.from_support(u, (x,))).support()))
    return gq_holds(d1, subj, subj & vp_set)


# -- direct fuzzy evaluation ------------------------------------------------


def eval_zadeh_direct(tree: ParseTree, model: Model) -> float:
    """Score the sentence with the fuzzy-quantifier formulas."""
    form = classify(tree)
    words = extract_words(tree, form)
    den = _Denotations(words, model)
    t = model.threshold

    if form == SentenceForm.BARE_INTRANSITIVE:
        return proportion(den.vp, den.subj, t)
    if form == SentenceForm.QUANT_SUBJECT:
        return apply_distribution(den.subj_det, proportion(den.vp, den.subj, t))
    if form == SentenceForm.QUANT_OBJECT:
        image = verb_image(den.verb, den.subj)
        return apply_distribution(den.obj_det, proportion(image, den.obj, t))
    if form == SentenceForm.BARE_TRANSITIVE:
        return proportion(verb_image(den.verb, den.subj), den.obj, t)
    # DOUBLE_QUANT
    return _operational_double_quant(den)


# -- pipeline compilation ---------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One generator occurrence inside a pipeline layer."""

    kind: str                      # state | verb_state | quant | delta | mu | eps | id | sigma
    label: str                     # display name
    wires_in: Tuple[str, ...]
    wires_out: Tuple[str, ...]
    word: str = ""                 # lexicon word for state/verb_state/quant


def _state(label, word, wire):
    return Atom("state", label, (), (wire,), word)


def _verb_state(word, w1, w2):
    return Atom("verb_state", "v", (), (w1, w2), word)


def _quant(label, word, w_in, w_out):
    return Atom("quant", label, (w_in,), (w_out,), word)


def _delta(w, w1, w2):
    return Atom("delta", "delta", (w,), (w1, w2))


def _mu(w1, w2, w_out):
    return Atom("mu", "mu", (w1, w2), (w_out,))


def _eps(w1, w2):
    return Atom("eps", "eps", (w1, w2), ())


def _id(w):
    return Atom("id", "id", (w,), (w,))


def _sigma(w1, w2):
    return Atom("sigma", "sigma", (w1, w2), (w2, w1))


@dataclass(frozen=True)
class MorphismPipeline:
    """Layers of generators; composed left to right, printed right to left."""

    form: SentenceForm
    layers: Tuple[Tuple[Atom, ...], ...]

    def check_types(self) -> None:
        """Verify that wires thread consistently and the whole composite is
        a unit-to-unit relation.  A failure is a construction bug."""
        wires: Tuple[str, ...] = ()
        for layer in self.layers:
            consumed = tuple(w for atom in layer for w in atom.wires_in)
            if consumed != wires:
                raise ShapeMismatchError(
                    f"pipeline layer expects wires {consumed} but has {wires}")
            wires = tuple(w for atom in layer for w in atom.wires_out)
        if wires != ():
            raise ShapeMismatchError(f"pipeline leaves open wires {wires}")

    def __str__(self) -> str:
        parts = []
        for layer in reversed(self.layers):
            text = " ⊗ ".join(atom.label for atom in layer)
            parts.append(f"({text})" if len(layer) > 1 else text)
        return " ∘ ".join(parts)


def compile_pipeline(form: SentenceForm, words: SentenceWords) -> MorphismPipeline:
    """Assemble the generator pipeline for a sentence form.

    The composite always type-checks to a unit-to-unit relation, and its
    join-of-tensors expansion is the expected max-min expression over
    the bound subset variables.
    """
    if form == SentenceForm.BARE_INTRANSITIVE:
        layers = (
            (_state("np", words.subj, "A"), _state("vp", words.vp, "B")),
            (_eps("A", "B"),),
        )
    elif form == SentenceForm.QUANT_SUBJECT:
        layers = (
            (_state("np", words.subj, "A"), _state("vp", words.vp or words.verb, "B")),
            (_delta("A", "A1", "A2"), _id("B")),
            (_quant("d", words.subj_det, "A1", "F"), _mu("A2", "B", "G")),
            (_eps("F", "G"),),
        )
    elif form == SentenceForm.BARE_TRANSITIVE:
        layers = (
            (_state("np", words.subj, "A"), _verb_state(words.verb, "A2", "B"),
             _state("np'", words.obj, "C")),
            (_eps("A", "A2"), _id("B"), _id("C")),
            (_eps("B", "C"),),
        )
    elif form == SentenceForm.QUANT_OBJECT:
        layers = (
            (_state("np", words.subj, "A"), _verb_state(words.verb, "A2", "B"),
             _state("np'", words.obj, "C")),
            (_eps("A", "A2"), _id("B"), _id("C")),
            (_id("B"), _delta("C", "C1", "C2")),
            (_sigma("B", "C1"), _id("C2")),
            (_quant("d", words.obj_det, "C1", "F"), _mu("B", "C2", "G")),
            (_eps("F", "G"),),
        )
    else:  # DOUBLE_QUANT
        layers = (
            (_state("np", words.subj, "A"), _verb_state(words.verb, "B", "D"),
             _state("np'", words.obj, "C")),
            (_delta("A", "A1", "A2"), _id("B"), _id("D"), _delta("C", "C1", "C2")),
            (_id("A1"), _id("A2"), _id("B"), _sigma("D", "C1"), _id("C2")),
            (_id("A1"), _id("A2"), _id("B"), _id("C1"), _sigma("D", "C2")),
            (_quant("d", words.subj_det, "A1", "F"), _mu("A2", "B", "G"),
             _quant("d'", words.obj_det, "C1", "F'"), _mu("C2", "D", "G'")),
            (_eps("F", "G"), _eps("F'", "G'")),
        )
    pipeline = MorphismPipeline(form, layers)
    pipeline.check_types()
    return pipeline


# -- lexical state relations ------------------------------------------------


def _state_row(fst: Tuple[float, ...], target: IndexSet, q: Quantale,
               threshold: float) -> List[Tuple[int, float]]:
    """The non-bottom (position, grade) entries of the state of grade
    tuple fst over target, as `lexical_state` documents."""
    if q.carrier == "boolean":
        return [(target.position(fst), q.unit)] if fst in target else []
    row = []
    for j, b in enumerate(target.elements):
        p = proportion_grades(b, fst, threshold)
        if p is not None and p != 0.0:
            row.append((j, p))
    return row


def lexical_state(fs: FuzzySet, target: IndexSet, q: Quantale,
                  threshold: float = 0.0) -> VRel:
    """The state relation of a noun-like word: unit point to subsets.

    Over a real-valued quantale the entry at subset B is the proportion
    of B inside the denotation (bottom when the denotation has
    sigma-count zero).  Over the Boolean quantale the entry is the unit
    exactly at the denotation itself, which is the image of the crisp
    state under inclusion.
    """
    row = _state_row(fs.as_tuple(), target, q, threshold)
    return VRel(IndexSet.unit(), target, q, entries={(0, j): g for j, g in row})


def verb_state(verb: FuzzyRelation, source_set: IndexSet, target_set: IndexSet,
               q: Quantale, threshold: float = 0.0) -> VRel:
    """The state relation of a transitive verb: unit point to subset pairs.

    Entry at (A, B): proportion of B inside the image of A (real
    quantales) or the unit exactly when B is the image of A (Boolean).
    """
    n2 = len(target_set)
    entries = {}
    for i, a in enumerate(source_set.elements):
        image = image_grades(verb.pairs, verb.universe, a)
        for j, g in _state_row(image, target_set, q, threshold):
            entries[(0, i * n2 + j)] = g
    return VRel(IndexSet.unit(), source_set.tensor(target_set), q, entries=entries)


# -- categorical evaluation -------------------------------------------------


def _atom_vrel(atom: Atom, model: Model, wires: Dict[str, IndexSet],
               den: "_Denotations") -> VRel:
    """The relation an atom denotes over the index sets of its wires."""
    q, t = model.quantale, model.threshold
    ins = [wires[w] for w in atom.wires_in]
    outs = [wires[w] for w in atom.wires_out]
    if atom.kind == "state":
        fs = {"np": den.subj, "vp": den.vp, "np'": den.obj}[atom.label]
        return lexical_state(fs, outs[0], q, t)
    if atom.kind == "verb_state":
        return verb_state(den.verb, outs[0], outs[1], q, t)
    if atom.kind == "quant":
        return quantifier_vrel(model.quantifiers[atom.word], ins[0], outs[0], q, t)
    if atom.kind == "delta":
        return delta(ins[0], q)
    if atom.kind == "mu":
        return mu(ins[0], ins[1], outs[0], q)
    if atom.kind == "eps":
        if ins[0] != ins[1]:
            raise ShapeMismatchError(f"eps needs wires {atom.wires_in} over one index set")
        return epsilon(ins[0], q)
    if atom.kind == "id":
        return identity(ins[0], q)
    if atom.kind == "sigma":
        return swap(ins[0], ins[1], q)
    raise ShapeMismatchError(f"unknown pipeline atom {atom.kind!r}")


def _pipeline_value(pipeline: MorphismPipeline, model: Model,
                    wires: Dict[str, IndexSet], den: "_Denotations") -> float:
    layers = [reduce(tensor_rel, (_atom_vrel(atom, model, wires, den) for atom in layer))
              for layer in pipeline.layers]
    return float(reduce(compose, layers).scalar())


def _restricted_wires(form: SentenceForm, den: _Denotations) -> Dict[str, IndexSet]:
    """Candidate subsets per wire: the proof-relevant closure of the
    lexicon denotations under intersection and verb image."""
    if form == SentenceForm.QUANT_SUBJECT:
        n_t, vp_t = den.subj.as_tuple(), den.vp.as_tuple()
        meet = tuple(map(min, n_t, vp_t))
        w_a = IndexSet([n_t])
        w_b = IndexSet([vp_t])
        w_fg = IndexSet([meet])
        return {"A": w_a, "A1": w_a, "A2": w_a, "B": w_b, "F": w_fg, "G": w_fg}
    if form == SentenceForm.QUANT_OBJECT:
        np_t = den.subj.as_tuple()
        image = verb_image(den.verb, den.subj).as_tuple()
        n_t = den.obj.as_tuple()
        meet = tuple(map(min, image, n_t))
        w_a = IndexSet([np_t])
        w_b = IndexSet([image])
        w_c = IndexSet([n_t])
        w_fg = IndexSet([meet])
        return {"A": w_a, "A2": w_a, "B": w_b, "C": w_c, "C1": w_c, "C2": w_c,
                "F": w_fg, "G": w_fg}
    if form == SentenceForm.BARE_INTRANSITIVE:
        np_t, vp_t = den.subj.as_tuple(), den.vp.as_tuple()
        shared = IndexSet(dict.fromkeys([np_t, vp_t, tuple(map(min, np_t, vp_t))]))
        return {"A": shared, "B": shared}
    if form == SentenceForm.BARE_TRANSITIVE:
        np_t = den.subj.as_tuple()
        image = verb_image(den.verb, den.subj).as_tuple()
        obj_t = den.obj.as_tuple()
        w_a = IndexSet([np_t])
        shared = IndexSet(dict.fromkeys([image, obj_t, tuple(map(min, image, obj_t))]))
        return {"A": w_a, "A2": w_a, "B": shared, "C": shared}
    raise EvaluationError(f"no restricted wiring for {form}")


EXHAUSTIVE_WORK_GUARD = 20_000_000


def eval_categorical(tree: ParseTree, model: Model, mode: str = "restricted") -> float:
    """Evaluate the compiled relation pipeline of the sentence.

    mode "restricted" joins over the proof-relevant candidate subsets
    only; mode "exhaustive" joins over every graded subset of the
    model's grade lattice.
    """
    if mode not in ("restricted", "exhaustive"):
        raise QuantrelError(f"unknown mode {mode!r}")
    form = classify(tree)
    words = extract_words(tree, form)
    den = _Denotations(words, model)
    pipeline = compile_pipeline(form, words)

    if mode == "exhaustive":
        p = model.powerset()
        # The layered join enumerates one subset per wire crossing a
        # layer boundary, so the widest boundary sets its cost.
        width = max(sum(len(atom.wires_out) for atom in layer)
                    for layer in pipeline.layers)
        work = len(p) ** width
        if work > EXHAUSTIVE_WORK_GUARD:
            raise EnumerationLimitError(
                f"exhaustive join over {len(p)} subsets needs ~{work:.1e} steps "
                f"for a {form} sentence; use restricted mode or a smaller "
                f"grade lattice")
        for fs in den.fuzzy_sets():
            for g in fs.grades:
                if g not in model.grades:
                    raise EvaluationError(
                        f"lexicon grade {g:g} is outside the grade lattice")
        wires = {w: p.index
                 for layer in pipeline.layers
                 for atom in layer
                 for w in atom.wires_in + atom.wires_out}
        return _pipeline_value(pipeline, model, wires, den)

    if form == SentenceForm.DOUBLE_QUANT:
        # Operational reading; see the module docstring.
        return _operational_double_quant(den)

    return _pipeline_value(pipeline, model, _restricted_wires(form, den), den)


# -- front door -------------------------------------------------------------


@dataclass
class TruthReport:
    sentence: str
    tree: ParseTree
    form: SentenceForm
    method: str
    mode: str
    values: Dict[str, Union[bool, float]]
    diff: Optional[float] = None


METHODS = ("crisp", "direct", "categorical", "both")


def degree_of_truth(sentence: str, model: Model, method: str = "both",
                    mode: str = "restricted") -> TruthReport:
    """Parse, classify and evaluate a sentence by the requested method(s)."""
    if method not in METHODS:
        raise QuantrelError(f"unknown method {method!r}; choose from {METHODS}")
    tokens = tokenize(sentence, model)
    tree = parse(tokens)
    form = classify(tree)
    values: Dict[str, Union[bool, float]] = {}
    if method == "crisp":
        values["crisp"] = eval_crisp_truth(tree, model)
    if method in ("direct", "both"):
        values["direct"] = eval_zadeh_direct(tree, model)
    if method in ("categorical", "both"):
        values["categorical"] = eval_categorical(tree, model, mode)
    diff = None
    if method == "both":
        diff = abs(values["direct"] - values["categorical"])
    return TruthReport(sentence, tree, form, method, mode, values, diff)
