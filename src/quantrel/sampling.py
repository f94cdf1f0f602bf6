"""Seeded random models for equivalence sweeps.

Used by the oracle CLI command and the test suite.  Sampling keeps a
template's vocabulary and quantifiers but redraws every membership
grade; restrictor sets are kept non-empty and every universe element
gets at least one outgoing verb pair, so proportions stay defined on
both evaluation routes.

The draw stream is fixed: every draw is the element `rng.choice(pool)`
would return and consumes the same words of the generator, so a seed
gives the same models, in the same order, as a loop of `rng.choice`
calls does on CPython 3.10 and later.  `_draw` makes those draws from
`rng.getrandbits`, in one loop per set or verb row; the tests
pin it against `random.Random.choice` and pin the models of fixed seeds
by digest.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import List, Optional, Sequence

from .bialgebra import GradeLattice
from .fuzzyset import FuzzyRelation, FuzzySet, _check_grade
from .grammar import SentenceForm
from .quantale import BOOLEAN
from .quantifier import CrispQuantifier, FuzzyQuantifier
from .semantics import Model


def _draw(pool: Sequence, count: int, rng: random.Random) -> list:
    """The elements of `count` successive `rng.choice(pool)` calls.

    `Random.choice` takes k = len(pool).bit_length() bits and draws
    again while they read len(pool) or more; this is that loop, run
    `count` times in one frame.
    """
    n = len(pool)
    if count and not n:
        raise IndexError("cannot choose from an empty sequence")
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(pool[r])
    return out


def _random_set(universe, pool, rng: random.Random) -> FuzzySet:
    # A grade in [0, 1] is true exactly when it is positive.
    while True:
        grades = _draw(pool, len(universe), rng)
        if any(grades):
            return FuzzySet._from_grades(universe, grades)


def _random_verb(universe, pool, positive, rng: random.Random) -> FuzzyRelation:
    # Draw order is part of every seeded model: a row of grades, then,
    # for an all-zero row, a target element before its positive grade.
    # Only the positive pairs reach the relation: a grade in [0, 1] is
    # true exactly when it is positive, so `compress` keeps the (j, grade)
    # pairs of positive grades, in ascending j.  Every grade is a pool
    # element, which randomize_model has checked, so the rows go to the
    # constructor that skips the per-pair checks.
    n = len(universe)
    rows = []
    for _ in range(n):
        grades = _draw(pool, n, rng)
        row = list(compress(enumerate(grades), grades))
        if not row:
            row = [(_draw(range(n), 1, rng)[0], _draw(positive, 1, rng)[0])]
        rows.append(tuple(row))
    return FuzzyRelation._from_rows(universe, tuple(rows))


def randomize_model(template: Model, rng: random.Random,
                    crisp: bool = False) -> Model:
    """A copy of the template with freshly sampled denotation grades."""
    pool = (0.0, 1.0) if crisp else tuple(map(_check_grade, template.grades.grades))
    positive = [g for g in pool if g > 0.0]
    universe = template.universe
    model = Model(
        universe=universe,
        nouns={w: _random_set(universe, pool, rng) for w in template.nouns},
        nps={w: _random_set(universe, pool, rng) for w in template.nps},
        vps={w: _random_set(universe, pool, rng) for w in template.vps},
        verbs={w: _random_verb(universe, pool, positive, rng) for w in template.verbs},
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
        words = (dets, sorted(model.nouns), sorted(model.vps))
    elif form == SentenceForm.QUANT_OBJECT:
        words = (sorted(model.nps), sorted(model.verbs), dets, sorted(model.nouns))
    else:
        raise ValueError(f"sampling does not cover {form}")
    return " ".join(_draw(pool, 1, rng)[0] for pool in words)
