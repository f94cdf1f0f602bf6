"""Seeded random models for equivalence sweeps.

Used by the oracle CLI command and the test suite.  Sampling keeps a
template's vocabulary and quantifiers but redraws every membership
grade; restrictor sets are kept non-empty and every universe element
gets at least one outgoing verb pair, so proportions stay defined on
both evaluation routes.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .bialgebra import GradeLattice
from .fuzzyset import FuzzyRelation, FuzzySet
from .grammar import SentenceForm
from .quantale import BOOLEAN
from .quantifier import CrispQuantifier, FuzzyQuantifier
from .semantics import Model


def _random_set(universe, pool, rng: random.Random) -> FuzzySet:
    while True:
        grades = [rng.choice(pool) for _ in universe.elements]
        if any(g > 0.0 for g in grades):
            return FuzzySet(universe, grades)


def _random_verb(universe, pool, rng: random.Random) -> FuzzyRelation:
    # Draw order is part of every seeded model: a row of grades, then,
    # for an all-zero row, a target element before its positive grade.
    # Only the positive pairs reach the relation.
    positive = [g for g in pool if g > 0.0]
    elements = universe.elements
    pairs = {}
    for x in elements:
        row = [((x, y), g) for y in elements if (g := rng.choice(pool)) > 0.0]
        if row:
            pairs.update(row)
        else:
            y = rng.choice(elements)
            pairs[(x, y)] = rng.choice(positive)
    return FuzzyRelation(universe, pairs)


def randomize_model(template: Model, rng: random.Random,
                    crisp: bool = False) -> Model:
    """A copy of the template with freshly sampled denotation grades."""
    pool = (0.0, 1.0) if crisp else template.grades.grades
    universe = template.universe
    model = Model(
        universe=universe,
        nouns={w: _random_set(universe, pool, rng) for w in template.nouns},
        nps={w: _random_set(universe, pool, rng) for w in template.nps},
        vps={w: _random_set(universe, pool, rng) for w in template.vps},
        verbs={w: _random_verb(universe, pool, rng) for w in template.verbs},
        quantifiers=dict(template.quantifiers),
        quantale=BOOLEAN if crisp else template.quantale,
        grades=GradeLattice((0.0, 1.0)) if crisp else template.grades,
        threshold=template.threshold,
    )
    return model


def graded_determiners(model: Model) -> List[str]:
    """Determiners usable by the proportional (fuzzy) evaluators."""
    return sorted(
        w for w, d in model.quantifiers.items()
        if isinstance(d, FuzzyQuantifier) or d.kind in ("every", "some"))


def crisp_determiners(model: Model) -> List[str]:
    return sorted(w for w, d in model.quantifiers.items()
                  if isinstance(d, CrispQuantifier))


def available_forms(model: Model) -> List[SentenceForm]:
    forms = []
    if model.nouns and model.vps and model.quantifiers:
        forms.append(SentenceForm.QUANT_SUBJECT)
    if model.nps and model.verbs and model.nouns and model.quantifiers:
        forms.append(SentenceForm.QUANT_OBJECT)
    return forms


def sample_sentence(model: Model, form: SentenceForm, rng: random.Random,
                    determiners: Optional[List[str]] = None) -> str:
    """A random sentence of the given form over the model's vocabulary."""
    dets = determiners if determiners is not None else sorted(model.quantifiers)
    if form == SentenceForm.QUANT_SUBJECT:
        return " ".join((rng.choice(dets), rng.choice(sorted(model.nouns)),
                         rng.choice(sorted(model.vps))))
    if form == SentenceForm.QUANT_OBJECT:
        return " ".join((rng.choice(sorted(model.nps)), rng.choice(sorted(model.verbs)),
                         rng.choice(dets), rng.choice(sorted(model.nouns))))
    raise ValueError(f"sampling does not cover {form}")
