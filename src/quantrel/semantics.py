"""Sentence evaluation by three methods.

crisp      classical generalized-quantifier truth over crisp sets.
direct     the fuzzy-quantifier score: a possibility distribution
           applied to a proportion of sigma-counts.
categorical  compilation of the parse into a relation pipeline over
           enumerated graded subsets, evaluated to the single entry of
           a unit-to-unit relation.

A sentence meets a model in one place, `_Denotations`, which reads
every role from the parse tree and resolves its word once.  One binding
per report, shared derived sets: each evaluator takes a parse tree or
such a binding (`bind`), and a report makes one binding and passes it
to every evaluator it runs, so the routes share the sets the binding
derives: the subject's image through the verb, and in doubly quantified
sentences each determiner's argmax-scaled noun, each computed once, on
first use.  The pipeline's `verb_relation` still computes its own
images, and each DoubleQuant route still scores the verb between the
scaled sets itself (`verb_between`).  A pipeline depends only on the
sentence form, so the five are built when the module loads, and words
reach one only as the denotations its state and determiner atoms take
by label.

The categorical evaluator has two modes.  Exhaustive mode enumerates
every graded subset built from the model's grade lattice and takes the
genuine join over all of them.  Restricted mode (the default) lets each
bound subset variable range only over the small closure of lexicon
denotations under intersection, verb image and quantifier scaling; on
quantified-subject and quantified-object sentences the join is then
pinned at the denotations themselves and the result coincides exactly
with the direct method, except for a determiner with Q(0) > 0 over a
scope of sigma-count zero, whose state has no entries.  For doubly
quantified sentences restricted mode computes the operational reading
(apply each determiner to its noun by scaling, then score the verb
between the two results), which is also what the direct method does;
exhaustive mode evaluates the compiled pipeline as a genuine join.
Exhaustive mode builds the powerset object and the copy, merge and cup
maps over it once per lattice and shares them among every sentence it
scores there (`_per_lattice`); each sentence's states, verb relation
and determiner grades are its own.

Every structural atom of a pipeline is built by the same constructor
the law checkers certify: `bialgebra.delta` and `bialgebra.mu`,
`vrel.epsilon`, `vrel.identity` and `vrel.swap`.  A determiner is the
effect `vrel.coname(quantifier_vrel(...))` on its restrictor and merged
scope wires.  A transitive verb is `verb_relation`, from subject to
object subsets, where its subject is one state wire, and its name
`verb_state` where the subject is copied (doubly quantified sentences).
In the paper's diagrams a determiner maps its restrictor to a fresh
wire that a cup joins with the merged scope, and the verb is a state of
pairs whose subject half a cup joins with the subject's wire; the snake
identities rewrite both into these narrow layouts, and swaps come after
merges, by cocommutativity of copy, commutativity of merge and
naturality of swap (see `compile_pipeline`).  Outside the doubly
quantified form no layer holds more than three subset wires, and values
are the same bit for bit.

The evaluator never composes the pipeline whole.  It contracts a
list of factors by a plan built per form at import, which ends in one
join: the last merge or cup feeds the determiners' effect directly
(`vrel.merge_effect`), so the merged state is never stored.
`_contraction_plan` says which step each layer is and what the
exhaustive work guard prices, and `_pipeline_value` how each step is
computed and why the value is the same bit for bit as composing the
whole state layer by layer with the whole effect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Dict, List, Optional, Tuple, Union

from .bialgebra import GradeLattice, PowersetObject, delta, mu
from .errors import (EnumerationLimitError, EvaluationError, QuantrelError,
                     ShapeMismatchError)
from .fuzzyset import (FuzzyRelation, FuzzySet, image_grades, proportion,
                       proportion_row, verb_image)
from .grammar import ParseTree, SentenceForm, classify, parse, tokenize
from .quantale import Quantale
from .quantifier import (CrispQuantifier, Determiner, FuzzyQuantifier,
                         apply_distribution, apply_quantifier_argmax, gq_holds,
                         graded_entry, quantifier_vrel, require_quantale)
from .vrel import (MAX_ENTRIES, IndexSet, VRel, compose, coname, epsilon,
                   identity, merge_effect, merge_join, name, swap, tensor_rel)


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
            for word, fs in group.items():
                yield word, fs

    def validate(self) -> None:
        for word, fs in self.iter_sets():
            if fs.universe != self.universe:
                raise ShapeMismatchError(f"denotation of {word!r} is over a different universe")
            for g in fs.grades:
                if g not in self.grades:
                    raise QuantrelError(
                        f"grade {g:g} of {word!r} is outside the grade lattice")
        for word, rel in self.verbs.items():
            if rel.universe != self.universe:
                raise ShapeMismatchError(f"verb {word!r} is over a different universe")
            for _, g in itertools.chain.from_iterable(rel.rows):
                if g not in self.grades:
                    raise QuantrelError(
                        f"grade {g:g} of verb {word!r} is outside the grade lattice")

    def is_crisp(self) -> bool:
        return (all(fs.is_crisp() for _, fs in self.iter_sets())
                and all(rel.is_crisp() for rel in self.verbs.values()))

    def powerset(self) -> PowersetObject:
        """The powerset object of the universe over the grade lattice,
        one object shared by every model with the same universe labels
        and lattice grades (`_per_lattice`)."""
        return _per_lattice("powerset", self.universe.elements, self.grades.grades)


# -- binding a sentence to a model -----------------------------------------


def _require(group: dict, word: str, role: str):
    if word not in group:
        raise EvaluationError(f"no {role} denotation for {word!r}")
    return group[word]


def _noun_phrase(np: ParseTree, model: Model, role: str):
    """The determiner (None for a bare noun phrase) and the fuzzy set of
    a noun phrase, read from its parse tree."""
    if np.is_leaf():
        return None, _require(model.nps, np.word, role)
    det, noun = np.children
    d = _require(model.quantifiers, det.word, "determiner")
    require_quantale(d, model.quantale)
    return d, _require(model.nouns, noun.word, role)


class _Denotations:
    """The form of one sentence and the denotations its words bind.

    This is the only place a sentence meets a model: each role is read
    from the parse tree and resolved in the model once, and the
    evaluators and pipeline atoms read the results by role or by atom
    label (`by_label`).  The sets two routes both derive from the roles
    are computed on first use and kept (`subj_image`, `subj_scaled`,
    `obj_scaled`); one that raised is not kept, so it raises again for
    the next route that reads it."""

    def __init__(self, tree: ParseTree, model: Model):
        self.model = model
        self.form = classify(tree)
        subject, predicate = tree.children
        self.subj_det, self.subj = _noun_phrase(subject, model, "subject")
        self.verb = self.obj_det = self.obj = self.vp = None
        if predicate.is_leaf():
            self.vp = _require(model.vps, predicate.word, "verb phrase")
            return
        verb, obj = predicate.children
        self.verb = _require(model.verbs, verb.word, "verb")
        self.obj_det, self.obj = _noun_phrase(obj, model, "object")
        if self.form == SentenceForm.QUANT_SUBJECT:
            # "d n v np": the transitive verb phrase plays the VP role,
            # with denotation x -> max_y min(v(x, y), obj(y)).
            obj = self.obj.grades
            self.vp = FuzzySet(self.obj.universe, [
                max((min(g, obj[y]) for y, g in row), default=0.0)
                for row in self.verb.rows])

    def by_label(self, label: str):
        """The denotation a state or det atom labelled `label` stands
        for: "d" is the sentence's first determiner, "d'" its second."""
        dets = [d for d in (self.subj_det, self.obj_det) if d is not None]
        return {"np": self.subj, "vp": self.vp, "np'": self.obj,
                **dict(zip(("d", "d'"), dets))}[label]

    def fuzzy_sets(self):
        return [fs for fs in (self.subj, self.vp, self.obj) if fs is not None]

    @cached_property
    def subj_image(self) -> FuzzySet:
        """The subject's max-min image through the verb."""
        return verb_image(self.verb, self.subj)

    @cached_property
    def subj_scaled(self) -> FuzzySet:
        """The subject noun scaled by its determiner's argmax."""
        return apply_quantifier_argmax(self.subj_det, self.subj)

    @cached_property
    def obj_scaled(self) -> FuzzySet:
        """The object noun scaled by its determiner's argmax."""
        return apply_quantifier_argmax(self.obj_det, self.obj)


def bind(tree: Union[ParseTree, _Denotations], model: Model) -> _Denotations:
    """The binding of a parse tree to the model; a binding already made
    for this model is returned as it is, so every evaluator it is passed
    to shares its derived sets."""
    if not isinstance(tree, _Denotations):
        return _Denotations(tree, model)
    if tree.model is not model:
        raise EvaluationError("the sentence was bound to a different model")
    return tree


def verb_between(verb: FuzzyRelation, subj: FuzzySet, obj: FuzzySet) -> float:
    """max over pairs (a, b) of min(subj(a), verb(a, b), obj(b)): the
    height of the image of subj intersected with obj."""
    image = verb_image(verb, subj)
    return max(map(min, image.grades, obj.grades), default=0.0)


def _operational_double_quant(den: _Denotations) -> float:
    """Apply each determiner to its noun by argmax scaling, then score
    the verb between the two resulting sets at membership level.

    The scaled sets are the binding's, so a report that runs both routes
    on one binding scans each determiner's grid once; each route still
    scores the verb between them itself."""
    return verb_between(den.verb, den.subj_scaled, den.obj_scaled)


# -- crisp evaluation -------------------------------------------------------


def eval_crisp_truth(tree: Union[ParseTree, _Denotations], model: Model) -> bool:
    """Classical truth over crisp sets per the generalized-quantifier
    reading, of a parse tree or a binding (`bind`)."""
    den = bind(tree, model)
    form = den.form
    for fs in den.fuzzy_sets():
        if not fs.is_crisp():
            raise EvaluationError("fuzzy denotation present; use the direct or "
                                  "categorical evaluator")
    if den.verb is not None and not den.verb.is_crisp():
        raise EvaluationError("fuzzy verb present; use the direct or "
                              "categorical evaluator")
    for d in (den.subj_det, den.obj_det):
        if isinstance(d, FuzzyQuantifier):
            raise EvaluationError(
                f"determiner {d.name!r} is graded; the crisp evaluator needs a crisp one")

    subj = den.subj.support()
    if form == SentenceForm.BARE_INTRANSITIVE:
        return bool(den.vp.support() & subj)
    if form == SentenceForm.BARE_TRANSITIVE:
        return bool(den.subj_image.support() & den.obj.support())
    if form == SentenceForm.QUANT_SUBJECT:
        return gq_holds(den.subj_det, subj, den.vp.support() & subj)
    if form == SentenceForm.QUANT_OBJECT:
        obj = den.obj.support()
        return gq_holds(den.obj_det, obj, obj & den.subj_image.support())
    # DOUBLE_QUANT: object condition nested inside the subject condition.
    obj = den.obj.support()
    u = model.universe
    vp_set = frozenset(
        x for x in u.elements
        if gq_holds(den.obj_det, obj, obj & verb_image(
            den.verb, FuzzySet.from_support(u, (x,))).support()))
    return gq_holds(den.subj_det, subj, subj & vp_set)


# -- direct fuzzy evaluation ------------------------------------------------


def eval_zadeh_direct(tree: Union[ParseTree, _Denotations], model: Model) -> float:
    """Score a parse tree or a binding (`bind`) with the fuzzy-quantifier
    formulas."""
    den = bind(tree, model)
    form = den.form
    t = model.threshold

    if form == SentenceForm.BARE_INTRANSITIVE:
        return proportion(den.vp, den.subj, t)
    if form == SentenceForm.QUANT_SUBJECT:
        return apply_distribution(den.subj_det, proportion(den.vp, den.subj, t))
    if form == SentenceForm.QUANT_OBJECT:
        return apply_distribution(den.obj_det, proportion(den.subj_image, den.obj, t))
    if form == SentenceForm.BARE_TRANSITIVE:
        return proportion(den.subj_image, den.obj, t)
    # DOUBLE_QUANT
    return _operational_double_quant(den)


# -- pipeline compilation ---------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One generator occurrence inside a pipeline layer."""

    kind: str                      # state | verb | verb_state | det | delta | mu | eps | id | sigma
    label: str                     # display name
    wires_in: Tuple[str, ...]
    wires_out: Tuple[str, ...]


def _state(label, wire):
    return Atom("state", label, (), (wire,))


def _verb(w_in, w_out):
    return Atom("verb", "v", (w_in,), (w_out,))


def _verb_state(w1, w2):
    return Atom("verb_state", "v", (), (w1, w2))


def _det(label, restrictor, scope):
    return Atom("det", label, (restrictor, scope), ())


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


def compile_pipeline(form: SentenceForm) -> MorphismPipeline:
    """Assemble the generator pipeline for a sentence form.

    The composite always type-checks to a unit-to-unit relation, and its
    join-of-tensors expansion is the expected max-min expression over
    the bound subset variables.

    Each layout is the sentence's diagram rewritten by the snake
    identities into an equal narrow one (see the module docstring).
    Swaps come after merges, by three laws in diagram order:
    delta ; sigma = delta, sigma ; mu = mu, and naturality of sigma.
    So QuantObject puts the object state and its copy left of id(B) and
    merges (C2, B), with no swap, and DoubleQuant merges (A2, B) and
    (D, C1) first, then swaps the merged G' past the restrictor C2 once.
    The widest boundaries stay 3 and 6 wires.

    The evaluator contracts a layout factor by factor, not layer by
    layer (`_contraction_plan`).
    """
    if form == SentenceForm.BARE_INTRANSITIVE:
        layers = (
            (_state("np", "A"), _state("vp", "B")),
            (_eps("A", "B"),),
        )
    elif form == SentenceForm.QUANT_SUBJECT:
        layers = (
            (_state("np", "A"), _state("vp", "B")),
            (_delta("A", "A1", "A2"), _id("B")),
            (_id("A1"), _mu("A2", "B", "G")),
            (_det("d", "A1", "G"),),
        )
    elif form == SentenceForm.BARE_TRANSITIVE:
        layers = (
            (_state("np", "A"),),
            (_verb("A", "B"),),
            (_id("B"), _state("np'", "C")),
            (_eps("B", "C"),),
        )
    elif form == SentenceForm.QUANT_OBJECT:
        layers = (
            (_state("np", "A"),),
            (_verb("A", "B"),),
            (_state("np'", "C"), _id("B")),
            (_delta("C", "C1", "C2"), _id("B")),
            (_id("C1"), _mu("C2", "B", "G")),
            (_det("d", "C1", "G"),),
        )
    else:  # DOUBLE_QUANT
        layers = (
            (_state("np", "A"), _verb_state("B", "D"), _state("np'", "C")),
            (_delta("A", "A1", "A2"), _id("B"), _id("D"), _delta("C", "C1", "C2")),
            (_id("A1"), _mu("A2", "B", "G"), _mu("D", "C1", "G'"), _id("C2")),
            (_id("A1"), _id("G"), _sigma("G'", "C2")),
            (_det("d", "A1", "G"), _det("d'", "C2", "G'")),
        )
    pipeline = MorphismPipeline(form, layers)
    pipeline.check_types()
    return pipeline


# Every pipeline depends on its sentence form alone, so each is built
# and type-checked once.
_PIPELINES = {form: compile_pipeline(form) for form in SentenceForm}


# Binary maps a layer may apply between two neighbouring factors.
_MERGES = frozenset({"mu", "eps"})


def _contraction_plan(pipeline: MorphismPipeline) -> Tuple[tuple, int]:
    """The steps `_pipeline_value` contracts the pipeline by and the
    plan's work exponent.

    The composed state is a list of factors, one per group of wires that
    no atom has joined yet, in wire order; each factor is a relation
    from the unit.  Every layer up to the merges is a "factorwise" step
    (kind, layer, groups): the consecutive atoms that read one factor
    must consume exactly its wires, and its groups list, per factor
    after the layer, (None, (state,)) for a new state and (k, atoms) for
    factor k composed with the tensor of its atoms: a copy, identity or
    swap re-keys only the factor it acts on, and a verb is composed with
    the one factor it reads.

    The first layer whose atoms other than identities are merges or
    cups, the i-th reading the last wire of factor i and the first wire
    of factor i + 1, makes the last step, ("join", layer, dets): it
    joins the factors left to right into one and reads that through the
    effect `dets`, the pipeline's last layer of determiners, or through
    the unit where the pipeline has none (the bare forms, whose cup
    leaves no wire).  Layers between the merges and the determiners may
    hold only identities and swaps, which keep each wire's name and so
    only change the order in which the determiners read the merged
    wires (DoubleQuant's swap of G' past C2); the join step reads the
    merged state by wire name instead.  Any other layer is a
    construction bug, as is a plan without merges, and raises
    ShapeMismatchError.

    So DoubleQuant's first merge joins the subject and verb factors
    before the object factor is met, and the verb of the bare and
    quantified-object forms meets the subject's factor alone.

    An atom meets its input and output wires, and a merge or cup the
    wires of the two factors it joins.  A step's work is at most |P| to
    the most wires one of them meets, or the size of a factor it re-keys,
    which the step that made the factor already took.  The work exponent
    is the most wires met: 2 for the bare forms, 3 for QuantSubject and
    QuantObject, 5 for DoubleQuant (its second merge joins three wires
    to two).
    """
    factors: List[Tuple[str, ...]] = []
    plan = []
    merge_layer, dets = None, ()
    exponent = 0
    for layer in pipeline.layers:
        kinds = {atom.kind for atom in layer} - {"id"}
        merges = [atom for atom in layer if atom.kind != "id"]
        meets = [len(atom.wires_in) + len(atom.wires_out) for atom in layer]
        if merge_layer is not None:
            if kinds == {"det"} and layer is pipeline.layers[-1]:
                dets = layer
            elif not kinds <= {"sigma"}:
                raise ShapeMismatchError(
                    f"a layer of {pipeline.form} after its merges is neither "
                    f"identities and swaps nor its last layer of determiners")
        elif merges and kinds <= _MERGES and [atom.wires_in for atom in merges] == [
                (f[-1], g[0]) for f, g in zip(factors, factors[1:])]:
            merge_layer = layer
            meets, width = [], len(factors[0])
            for f, atom in zip(factors[1:], merges):
                meets.append(width + len(f))
                width += len(f) - 2 + len(atom.wires_out)
        else:
            owner = {w: k for k, wires in enumerate(factors) for w in wires}
            groups: List[Tuple[Optional[int], List[Atom]]] = []
            for atom in layer:
                k = owner[atom.wires_in[0]] if atom.wires_in else None
                if k is not None and groups and groups[-1][0] == k:
                    groups[-1][1].append(atom)
                else:
                    groups.append((k, [atom]))
            if [tuple(w for atom in atoms for w in atom.wires_in)
                    for k, atoms in groups if k is not None] != factors:
                raise ShapeMismatchError(
                    f"a layer of {pipeline.form} meets factors {factors} "
                    f"that it neither maps one by one nor merges")
            plan.append(("factorwise", layer,
                         tuple((k, tuple(atoms)) for k, atoms in groups)))
            factors = [tuple(w for atom in atoms for w in atom.wires_out)
                       for _, atoms in groups]
        exponent = max([exponent] + meets)
    if merge_layer is None:
        raise ShapeMismatchError(f"the pipeline of {pipeline.form} has no merges")
    return tuple(plan) + (("join", merge_layer, dets),), exponent


_PLANS, _WORK_EXPONENTS = {}, {}
for _form, _pipeline in _PIPELINES.items():
    _PLANS[_form], _WORK_EXPONENTS[_form] = _contraction_plan(_pipeline)


# -- lexical state relations ------------------------------------------------


def _state_row(fst: Tuple[float, ...], target: IndexSet, q: Quantale,
               threshold: float) -> List[Tuple[int, float]]:
    """The non-bottom (position, grade) entries of the state of grade
    tuple fst over target, as `lexical_state` documents: one
    `proportion_row` over target, so sigma(fst) is summed once."""
    if q.carrier == "boolean":
        return [(target.position(fst), q.unit)] if fst in target else []
    row = proportion_row(target.elements, fst, threshold)
    if row is None:
        return []
    return [(j, p) for j, p in enumerate(row) if p != 0.0]


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


def verb_relation(verb: FuzzyRelation, source_set: IndexSet, target_set: IndexSet,
                  q: Quantale, threshold: float = 0.0) -> VRel:
    """The relation of a transitive verb from subject to object subsets.

    Entry at (A, B): proportion of B inside the image of A (real
    quantales) or the unit exactly when B is the image of A (Boolean).
    Each image goes through `image_grades` on the verb's rows, so it
    reads only the rows of the elements A holds with a positive grade.
    Rows of equal images are equal, so each distinct image's row is
    built once and shared by every source with that image.  The entry
    guard counts the pairs and refuses before any image is taken.
    """
    n_pairs = len(source_set) * len(target_set)
    if n_pairs > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"verb relation of {n_pairs} pairs exceeds the entry guard")
    entries = {}
    rows: Dict[Tuple[float, ...], List[Tuple[int, float]]] = {}
    for i, a in enumerate(source_set.elements):
        image = image_grades(verb.rows, a)
        row = rows.get(image)
        if row is None:
            row = rows[image] = _state_row(image, target_set, q, threshold)
        for j, g in row:
            entries[(i, j)] = g
    return VRel(source_set, target_set, q, entries=entries)


def verb_state(verb: FuzzyRelation, source_set: IndexSet, target_set: IndexSet,
               q: Quantale, threshold: float = 0.0) -> VRel:
    """The state relation of a transitive verb: unit point to subset
    pairs, the name of `verb_relation`."""
    return name(verb_relation(verb, source_set, target_set, q, threshold))


# -- categorical evaluation -------------------------------------------------


# Entries `_per_lattice` keeps.  The exhaustive_join benchmark's four
# lattices under three quantales take 40: 4 powersets and 36 copy, merge
# and cup maps (a factor only identities read is carried over, so no
# identity is built).  An entry holds at most MAX_ENTRIES positions: at
# 1369 subsets, the largest powerset the bare forms admit (37 grades on
# 2 elements), the cup is a list of 1.87e6 positions, and one lattice
# and quantale keep 15 MB.
PER_LATTICE_CACHE_SIZE = 64


@lru_cache(maxsize=PER_LATTICE_CACHE_SIZE)
def _per_lattice(kind: str, *key):
    """What exhaustive mode shares among the sentences it scores over
    one lattice, built on first use.

    ("powerset", labels, grades) is the powerset object of the universe
    with those labels over the lattice with those grades (`IndexSet` and
    `GradeLattice` do not hash by value, so their contents are the key).
    (kind, p, q), for kind "delta", "mu" or "eps", is that structural
    map over powerset object p in quantale q, built by the
    constructor the law checkers certify; keyed by the object, a map is
    always over the index set its sentence's states are over.

    Lexical input is never kept: states, verb relations and determiner
    grades are built per sentence.  Restricted wires are fresh sets of
    one to three subsets, so the restricted path builds its maps itself.
    A refused powerset raises on every call, since no exception is
    kept.  Every kept value is immutable (see `vrel`), so sharing it
    across sentences and threads changes no value."""
    if kind == "powerset":
        labels, grades = key
        return PowersetObject(IndexSet(labels), GradeLattice(grades))
    p, q = key
    s = p.index
    if kind == "delta":
        return delta(s, q)
    if kind == "mu":
        return mu(s, s, s, q)
    if kind == "eps":
        return epsilon(s, q)
    raise ShapeMismatchError(f"no shared structural map {kind!r}")


def _atom_vrel(atom: Atom, model: Model, wires: Dict[str, IndexSet],
               den: _Denotations, p: Optional[PowersetObject] = None) -> VRel:
    """The relation an atom denotes over the index sets of its wires.

    With p given, every wire is p's index and a copy, merge or cup is
    the one `_per_lattice` keeps for p.  A det atom is the
    whole effect of its determiner table; the evaluator reads
    determiners through `_det_effect` instead."""
    q, t = model.quantale, model.threshold
    if p is not None and atom.kind in ("delta", "mu", "eps"):
        return _per_lattice(atom.kind, p, q)
    ins = [wires[w] for w in atom.wires_in]
    outs = [wires[w] for w in atom.wires_out]
    if atom.kind == "state":
        return lexical_state(den.by_label(atom.label), outs[0], q, t)
    if atom.kind == "verb":
        return verb_relation(den.verb, ins[0], outs[0], q, t)
    if atom.kind == "verb_state":
        return verb_state(den.verb, outs[0], outs[1], q, t)
    if atom.kind == "det":
        return coname(quantifier_vrel(den.by_label(atom.label), ins[0], ins[1], q, t))
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


def _det_effect(dets: Tuple[Atom, ...], model: Model, wires: Dict[str, IndexSet],
                den: _Denotations, merged: Tuple[str, ...]):
    """The effect of a layer of determiners at position k of the merged
    state over wires `merged`, the function `vrel.merge_effect` reads:
    the entry the tensor of their conames holds at the row of the same
    subsets, and whether the join may stop early.  With no determiners
    it is the unit, the effect of the bare forms' empty last layer.

    This is the one place the evaluator grades a determiner.  Its
    restrictor and scope are the digits of k at their wires' places in
    `merged`, row-major as `merge_join` lays its target out, so a swap
    between the merges and the determiners costs no re-keying; each
    pair is graded by `quantifier.graded_entry` on first read and kept,
    so no pair is graded twice, and the entry is the one
    `quantifier_vrel`'s table holds there.  Two determiners combine left
    to right by the tensor, as `tensor_rel` combines their effects (the
    first meets the unit, which leaves it unchanged), and a bottom grade
    of the first leaves the second unread.  The pairs the state reaches
    are conservative, (A, A∧B), since the scope wire merges the
    restrictor with the scope.  An "exactly" determiner refuses a graded
    restrictor or scope at every pair the state reaches, as the whole
    effect would, so with one in the layer the join may not stop early
    and every determiner is read at every position it reaches."""
    q, t = model.quantale, model.threshold
    places, stride = {}, 1
    for w in reversed(merged):
        places[w] = (stride, len(wires[w]))
        stride *= len(wires[w])

    def grader(d: Determiner, restrictor: str, scope: str):
        (s_a, n_a), (s_b, n_b) = places[restrictor], places[scope]
        restrictors, scopes = wires[restrictor].elements, wires[scope].elements
        graded: Dict[int, float] = {}

        def grade(k: int) -> float:
            i, j = k // s_a % n_a, k // s_b % n_b
            g = graded.get(i * n_b + j)
            if g is None:
                g = graded[i * n_b + j] = graded_entry(d, restrictors[i], scopes[j], t)
            return g

        return grade

    quantifiers = [den.by_label(atom.label) for atom in dets]
    graders = [grader(d, *atom.wires_in) for d, atom in zip(quantifiers, dets)]
    stop = not any(isinstance(d, CrispQuantifier) and d.kind == "exactly"
                   for d in quantifiers)
    tensor, unit, bottom = q.tensor, q.unit, q.bottom

    def effect(k: int) -> float:
        e = unit
        for grade in graders:
            e = tensor(e, grade(k))
            if e == bottom and stop:
                break
        return e

    return effect, stop


def _pipeline_value(form: SentenceForm, model: Model, wires: Dict[str, IndexSet],
                    den: _Denotations, p: Optional[PowersetObject] = None) -> float:
    """The scalar of the form's pipeline, contracted by its plan
    (`_contraction_plan`); p is the powerset object every wire ranges
    over in exhaustive mode, whose structural maps `_per_lattice` keeps.

    A factorwise step starts a factor at each state and composes every
    other factor with the tensor of the atoms that read it, except a
    factor read only by identities, which it carries over as it is:
    compose(r, identity) holds r's entries in r's order.  The join
    step joins the factors left to right, each merge or cup but the last
    by `merge_join` of the state so far, the next factor and its own
    map, so no tensor of two states is stored.  Its last merge goes
    through `merge_effect` with the determiners' effect (`_det_effect`),
    so the merged state is not stored either: the kernel visits the two
    factors' grades from the top, reads the effect only where a pair
    lands above every grade seen at its position, and stops where no
    pair left can beat the best value, since t(g, e) <= t(g, 1) == g for
    every effect grade e.

    The value is the same bit for bit as composing the whole joined
    state layer by layer: copies, identities and swaps are injective
    maps, which only move grades; graded factors still meet in the
    diagram's order (np, v, np', d, d'), as the product and Lukasiewicz
    float tensors are not associative; the tensor is exactly commutative
    on all four quantales (QuantObject's np' factor is joined left of
    the B factor that the diagram composes first); and each float tensor
    is monotone, so t(max(x, y), z) == max(t(x, z), t(y, z)) exactly,
    which lets DoubleQuant's first merge join the (np, v) grades by max
    before they meet np', and the last merge's grades meet the effect
    pair by pair before they are joined.  The join drops only pairs
    whose every candidate is at most the best value, and max is exact.
    """
    *steps, (_, layer, dets) = _PLANS[form]
    factors: List[VRel] = []
    for _, _, groups in steps:
        out = []
        for k, atoms in groups:
            if k is not None and all(atom.kind == "id" for atom in atoms):
                out.append(factors[k])
                continue
            rel = reduce(tensor_rel, [_atom_vrel(atom, model, wires, den, p) for atom in atoms])
            out.append(rel if k is None else compose(factors[k], rel))
        factors = out
    maps = [_atom_vrel(atom, model, wires, den, p) for atom in layer if atom.kind != "id"]
    state = factors[0]
    for right, m in zip(factors[1:-1], maps):
        state = merge_join(state, right, m)
    merged = tuple(w for atom in layer for w in atom.wires_out)
    effect, stop = _det_effect(dets, model, wires, den, merged)
    return float(merge_effect(state, factors[-1], maps[-1], effect, stop))


def _restricted_wires(den: _Denotations) -> Dict[str, IndexSet]:
    """Candidate subsets per wire: the proof-relevant closure of the
    lexicon denotations under intersection and verb image."""
    if den.form == SentenceForm.QUANT_SUBJECT:
        n_t, vp_t = den.subj.as_tuple(), den.vp.as_tuple()
        meet = tuple(map(min, n_t, vp_t))
        w_a = IndexSet([n_t])
        w_b = IndexSet([vp_t])
        return {"A": w_a, "A1": w_a, "A2": w_a, "B": w_b, "G": IndexSet([meet])}
    if den.form == SentenceForm.QUANT_OBJECT:
        np_t = den.subj.as_tuple()
        image = den.subj_image.as_tuple()
        n_t = den.obj.as_tuple()
        meet = tuple(map(min, image, n_t))
        w_c = IndexSet([n_t])
        return {"A": IndexSet([np_t]), "B": IndexSet([image]),
                "C": w_c, "C1": w_c, "C2": w_c, "G": IndexSet([meet])}
    if den.form == SentenceForm.BARE_INTRANSITIVE:
        np_t, vp_t = den.subj.as_tuple(), den.vp.as_tuple()
        shared = IndexSet(dict.fromkeys([np_t, vp_t, tuple(map(min, np_t, vp_t))]))
        return {"A": shared, "B": shared}
    if den.form == SentenceForm.BARE_TRANSITIVE:
        np_t = den.subj.as_tuple()
        image = den.subj_image.as_tuple()
        obj_t = den.obj.as_tuple()
        shared = IndexSet(dict.fromkeys([image, obj_t, tuple(map(min, image, obj_t))]))
        return {"A": IndexSet([np_t]), "B": shared, "C": shared}
    raise EvaluationError(f"no restricted wiring for {den.form}")


EXHAUSTIVE_WORK_GUARD = 20_000_000


def eval_categorical(tree: Union[ParseTree, _Denotations], model: Model,
                     mode: str = "restricted") -> float:
    """Evaluate the compiled relation pipeline of a parse tree or a
    binding (`bind`).

    mode "restricted" joins over the proof-relevant candidate subsets
    only; mode "exhaustive" joins over every graded subset of the
    model's grade lattice.
    """
    _check_mode(mode)
    den = bind(tree, model)
    form = den.form
    pipeline = _PIPELINES[form]

    if mode == "exhaustive":
        p = model.powerset()
        # The guard prices each form by its contraction plan's work
        # exponent (`_contraction_plan`), so it admits |P| up to 4472,
        # 271 and 28 subsets for exponents 2, 3 and 5.  The bare forms
        # stop earlier, at 1414 subsets: their cup, and BareTransitive's
        # verb before it, relate |P|^2 pairs, which `vrel.coname` and
        # `verb_relation` refuse past MAX_ENTRIES before building them.
        work = len(p) ** _WORK_EXPONENTS[form]
        if work > EXHAUSTIVE_WORK_GUARD:
            raise EnumerationLimitError(
                f"exhaustive join over {len(p)} subsets needs ~{work:.1e} steps "
                f"for a {form} sentence; use restricted mode or a smaller "
                f"grade lattice")
        grades = [g for fs in den.fuzzy_sets() for g in fs.grades]
        if den.verb is not None and form != SentenceForm.QUANT_SUBJECT:
            # A "d n v np" verb meets the join only through its derived VP.
            grades += [g for row in den.verb.rows for _, g in row]
        for g in grades:
            if g not in model.grades:
                raise EvaluationError(f"lexicon grade {g:g} is outside the grade lattice")
        wires = {w: p.index
                 for layer in pipeline.layers
                 for atom in layer
                 for w in atom.wires_in + atom.wires_out}
        return _pipeline_value(form, model, wires, den, p)

    if form == SentenceForm.DOUBLE_QUANT:
        # Operational reading; see the module docstring.
        return _operational_double_quant(den)

    return _pipeline_value(form, model, _restricted_wires(den), den)


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
MODES = ("restricted", "exhaustive")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise QuantrelError(f"unknown mode {mode!r}; choose from {MODES}")


def degree_of_truth(sentence: str, model: Model, method: str = "both",
                    mode: str = "restricted") -> TruthReport:
    """Parse, classify and evaluate a sentence by the requested method(s).

    The sentence is bound to the model once, and every evaluator the
    method runs reads that binding, so "both" computes the sets its two
    routes share once."""
    if method not in METHODS:
        raise QuantrelError(f"unknown method {method!r}; choose from {METHODS}")
    _check_mode(mode)
    tree = parse(tokenize(sentence, model))
    den = bind(tree, model)
    values: Dict[str, Union[bool, float]] = {}
    if method == "crisp":
        values["crisp"] = eval_crisp_truth(den, model)
    if method in ("direct", "both"):
        values["direct"] = eval_zadeh_direct(den, model)
    if method in ("categorical", "both"):
        values["categorical"] = eval_categorical(den, model, mode)
    diff = None
    if method == "both":
        diff = abs(values["direct"] - values["categorical"])
    return TruthReport(sentence, tree, den.form, method, mode, values, diff)
