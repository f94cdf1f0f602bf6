"""Determiner denotations.

Crisp determiners follow the subsets-of-subsets interpretation: a
determiner maps a restrictor set A to the family of subsets X standing
in the right cardinality relation to A.  Graded determiners such as
"several" or "most" are possibility distributions over proportions,
stored as piecewise-linear breakpoint lists.  Both flavours can be
encoded as a grade-valued relation between enumerated subsets.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from .errors import (EmptyRestrictorError, EnumerationLimitError,
                     EvaluationError, QuantrelError)
from .fuzzyset import FuzzySet, proportion_grades, scale
from .quantale import Grade, Quantale
from .vrel import IndexSet, VRel

CRISP_KINDS = ("every", "some", "no", "exactly")


@dataclass(frozen=True)
class CrispQuantifier:
    """A logical determiner: every | some | no | exactly(n)."""

    kind: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in CRISP_KINDS:
            raise QuantrelError(f"unknown determiner kind {self.kind!r}")
        if self.kind == "exactly":
            if self.n is None or self.n < 0:
                raise QuantrelError("'exactly' needs a count n >= 0")
        elif self.n is not None:
            raise QuantrelError(f"{self.kind!r} takes no count")


@dataclass(frozen=True)
class FuzzyQuantifier:
    """A determiner read as a possibility distribution over proportions.

    Breakpoints are (proportion, possibility) pairs, strictly increasing
    in proportion, starting at 0 and ending at 1; values in between are
    linearly interpolated.
    """

    name: str
    breakpoints: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        bps = tuple((float(p), float(v)) for p, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2 or bps[0][0] != 0.0 or bps[-1][0] != 1.0:
            raise QuantrelError(
                f"{self.name!r}: breakpoints must run from proportion 0 to 1")
        for (p0, _), (p1, _) in zip(bps, bps[1:]):
            if p1 <= p0:
                raise QuantrelError(
                    f"{self.name!r}: breakpoint proportions must strictly increase")
        if any(not 0.0 <= v <= 1.0 for _, v in bps):
            raise QuantrelError(f"{self.name!r}: possibilities must lie in [0, 1]")


Determiner = Union[CrispQuantifier, FuzzyQuantifier]


# -- crisp generalized-quantifier families ---------------------------------


def gq_holds(d: CrispQuantifier, a: frozenset, x: frozenset) -> bool:
    """Whether x belongs to the family the determiner assigns to a."""
    if d.kind == "every":
        return a <= x
    if d.kind == "some":
        return bool(a & x)
    if d.kind == "no":
        return not (a & x)
    return len(a & x) == d.n


CONSERVATIVITY_GUARD = 12


def is_conservative(d, u: IndexSet) -> bool:
    """Exhaustively test the living-on property over one universe:
    X is in d(A) exactly when X & A is.

    Accepts a CrispQuantifier or any predicate of (A, X).
    """
    if len(u) > CONSERVATIVITY_GUARD:
        raise EnumerationLimitError(
            f"conservativity check limited to universes of {CONSERVATIVITY_GUARD}")
    pred = (lambda a, x: gq_holds(d, a, x)) if isinstance(d, CrispQuantifier) else d
    subsets = [frozenset(c)
               for r in range(len(u) + 1)
               for c in itertools.combinations(u.elements, r)]
    for a in subsets:
        for x in subsets:
            if pred(a, x) != pred(a, x & a):
                return False
    return True


# -- possibility distributions ----------------------------------------------


def apply_distribution(d: Determiner, p: float) -> Grade:
    """Possibility that the proportion p fits the determiner.

    Piecewise-linear interpolation for graded determiners; the absolute
    readings for crisp ones: "every" fits only proportion 1, "some" any
    positive proportion.  "no" and "exactly" have no proportional
    reading and are rejected.
    """
    if not -1e-9 <= p <= 1.0 + 1e-9:
        raise QuantrelError(f"proportion {p!r} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    if isinstance(d, CrispQuantifier):
        if d.kind == "every":
            return 1.0 if p == 1.0 else 0.0
        if d.kind == "some":
            return 1.0 if p > 0.0 else 0.0
        raise EvaluationError(
            f"determiner kind {d.kind!r} has no proportional distribution")
    bps = d.breakpoints
    i = bisect_right([x for x, _ in bps], p) - 1
    if i >= len(bps) - 1:
        return bps[-1][1]
    (p0, v0), (p1, v1) = bps[i], bps[i + 1]
    return v0 + (p - p0) * (v1 - v0) / (p1 - p0)


def graded_entry(d: Determiner, a: Sequence[float], b: Sequence[float],
                 threshold: float = 0.0) -> Grade:
    """Grade the pair of membership tuples (restrictor a, scope b).

    Graded determiners score the proportion of b inside a, with bottom
    when a has sigma-count zero.  Crisp determiners use their set
    conditions, read pointwise: "every" needs a below b everywhere,
    "some"/"no" a positive/empty pointwise minimum, and "exactly" counts
    common members of crisp tuples.
    """
    if isinstance(d, FuzzyQuantifier):
        p = proportion_grades(b, a, threshold)
        return 0.0 if p is None else apply_distribution(d, p)
    if d.kind == "every":
        return 1.0 if all(x <= y for x, y in zip(a, b)) else 0.0
    if d.kind == "some":
        return 1.0 if any(min(x, y) > 0.0 for x, y in zip(a, b)) else 0.0
    if d.kind == "no":
        return 1.0 if all(min(x, y) == 0.0 for x, y in zip(a, b)) else 0.0
    if not all(g in (0.0, 1.0) for g in itertools.chain(a, b)):
        raise EvaluationError("'exactly' requires crisp membership tuples")
    return 1.0 if sum(1 for x, y in zip(a, b) if x == y == 1.0) == d.n else 0.0


def require_quantale(d: Determiner, q: Quantale) -> None:
    """Refuse a graded determiner over the Boolean quantale, whose
    carrier has no room for its possibility grades."""
    if isinstance(d, FuzzyQuantifier) and q.carrier == "boolean":
        raise EvaluationError(
            f"graded determiner {d.name!r} needs a real-valued quantale")


def quantifier_vrel(d: Determiner, source: IndexSet, target: IndexSet,
                    q: Quantale, threshold: float = 0.0) -> VRel:
    """Encode the determiner as a relation between index sets of grade
    tuples: restrictor subsets in source, scope subsets in target."""
    require_quantale(d, q)
    return VRel.from_function(
        source, target, q,
        lambda a, b: graded_entry(d, a, b, threshold))


def apply_quantifier_argmax(d: Determiner, np_set: FuzzySet) -> FuzzySet:
    """The scaled copy of np_set whose proportion the determiner likes best.

    Scans k = i * 0.01 for i = 0..100 and returns scale(np_set, k) for
    the k whose proportion gets the highest possibility; ties go to the
    largest k.  Each grid point is scored on the grade tuple, without
    building the scaled set: for 0 <= k <= 1, IEEE rounding gives
    k * g <= g, so min(g, k * g) is k * g, and
    proportion(scale(np, k), np) is sum(k * g) / sum(g), summed in the
    same order, bit for bit.  The proportion uses threshold 0, so every
    grade counts, whatever the model's threshold.  The scan makes one
    apply_distribution call per grid point, 101 in all, which is what
    the benchmark's grid_points span counts.  An np_set of sigma-count
    zero raises EmptyRestrictorError, as proportion does.
    """
    grades = np_set.grades
    denom = sum(grades)
    if denom == 0.0:
        raise EmptyRestrictorError("proportion against a set of sigma-count zero")
    best_k, best_v = 0.0, -1.0
    for k in (i * 0.01 for i in range(101)):
        v = apply_distribution(d, sum([k * g for g in grades]) / denom)
        if v >= best_v:
            best_k, best_v = k, v
    return scale(np_set, best_k)
