"""Graded sets over a finite universe and the operations used to score
quantified sentences: sigma-count, pointwise-min intersection, relative
cardinality, scaling, and the max-min image of a graded binary relation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import EmptyRestrictorError, QuantrelError, ShapeMismatchError
from .vrel import CrispRel, IndexSet


def _check_grade(g) -> float:
    g = float(g)
    if not 0.0 <= g <= 1.0:
        raise QuantrelError(f"membership grade {g!r} outside [0, 1]")
    return g


class FuzzySet:
    """Total map from universe elements to membership grades in [0, 1]."""

    __slots__ = ("universe", "grades")

    def __init__(self, universe: IndexSet, grades: Iterable[float]):
        self.universe = universe
        self.grades = tuple(_check_grade(g) for g in grades)
        if len(self.grades) != len(universe):
            raise ShapeMismatchError("one grade per universe element required")

    @classmethod
    def from_dict(cls, universe: IndexSet, mapping: Mapping[object, float]) -> "FuzzySet":
        """Elements absent from the mapping get membership 0."""
        unknown = set(mapping) - set(universe.elements)
        if unknown:
            raise ShapeMismatchError(f"elements outside the universe: {sorted(map(str, unknown))}")
        return cls(universe, (mapping.get(u, 0.0) for u in universe.elements))

    @classmethod
    def from_support(cls, universe: IndexSet, support: Iterable[object]) -> "FuzzySet":
        members = set(support)
        return cls(universe, (1.0 if u in members else 0.0 for u in universe.elements))

    def grade(self, element) -> float:
        return self.grades[self.universe.position(element)]

    def as_tuple(self) -> Tuple[float, ...]:
        return self.grades

    def as_dict(self) -> Dict[object, float]:
        return dict(zip(self.universe.elements, self.grades))

    def support(self) -> frozenset:
        return frozenset(u for u, g in zip(self.universe.elements, self.grades) if g > 0.0)

    def is_crisp(self) -> bool:
        return all(g in (0.0, 1.0) for g in self.grades)

    def is_empty(self) -> bool:
        return all(g == 0.0 for g in self.grades)

    def __eq__(self, other):
        return (isinstance(other, FuzzySet) and self.universe == other.universe
                and self.grades == other.grades)

    def __hash__(self):
        return hash((self.universe, self.grades))

    def __repr__(self):
        body = " + ".join(f"{g:g} {u}" for u, g in zip(self.universe.elements, self.grades))
        return f"FuzzySet({body or '0'})"


class FuzzyRelation:
    """Graded binary relation over one universe; unlisted pairs grade 0."""

    __slots__ = ("universe", "pairs")

    def __init__(self, universe: IndexSet, pairs: Mapping[Tuple[object, object], float]):
        self.universe = universe
        cleaned = {}
        for (a, b), g in pairs.items():
            if a not in universe or b not in universe:
                raise ShapeMismatchError(f"pair {(a, b)!r} outside the universe")
            g = _check_grade(g)
            if g > 0.0:
                cleaned[(a, b)] = g
        self.pairs = cleaned

    @classmethod
    def from_crisp(cls, rel: CrispRel) -> "FuzzyRelation":
        if rel.source != rel.target:
            raise ShapeMismatchError("verb relations live over a single universe")
        return cls(rel.source, {pair: 1.0 for pair in rel.pairs})

    def grade(self, a, b) -> float:
        return self.pairs.get((a, b), 0.0)

    def is_crisp(self) -> bool:
        return all(g == 1.0 for g in self.pairs.values())

    def __eq__(self, other):
        return (isinstance(other, FuzzyRelation) and self.universe == other.universe
                and self.pairs == other.pairs)

    def __repr__(self):
        return f"FuzzyRelation({len(self.pairs)} graded pairs)"


def sigma_count(a: FuzzySet, threshold: float = 0.0) -> float:
    """Arithmetic sum of memberships at or above the threshold."""
    return sum(g for g in a.grades if g >= threshold)


def intersect(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    """Pointwise minimum of memberships."""
    if a.universe != b.universe:
        raise ShapeMismatchError("intersection needs a shared universe")
    return FuzzySet(a.universe, map(min, a.grades, b.grades))


def proportion_grades(b: Sequence[float], a: Sequence[float],
                      threshold: float) -> Optional[float]:
    """Relative cardinality of grade tuple b in grade tuple a:
    sigma(a & b) / sigma(a), or None when sigma(a) is zero."""
    denom = sum(g for g in a if g >= threshold)
    if denom == 0.0:
        return None
    return sum(m for m in map(min, a, b) if m >= threshold) / denom


def proportion(b: FuzzySet, a: FuzzySet, threshold: float = 0.0) -> float:
    """Relative cardinality of b in a: sigma(a & b) / sigma(a).

    Raises EmptyRestrictorError when sigma(a) is zero, which signals an
    empty restrictor set.
    """
    if a.universe != b.universe:
        raise ShapeMismatchError("proportion needs a shared universe")
    p = proportion_grades(b.grades, a.grades, threshold)
    if p is None:
        raise EmptyRestrictorError("proportion against a set of sigma-count zero")
    return p


def image_grades(pairs: Mapping[Tuple[object, object], float], universe: IndexSet,
                 a: Sequence[float]) -> Tuple[float, ...]:
    """Max-min image of grade tuple a through graded pairs over universe:

        image(b) = max over x of min(a(x), pairs(x, b))
    """
    out = [0.0] * len(universe)
    pos = {u: i for i, u in enumerate(universe.elements)}
    for (x, y), g in pairs.items():
        w = min(a[pos[x]], g)
        if w > 0.0 and w > out[pos[y]]:
            out[pos[y]] = w
    return tuple(out)


def verb_image(v: FuzzyRelation, a: FuzzySet) -> FuzzySet:
    """Max-min image: the degree to which b is reached from a through v.

        image(b) = max over x of min(a(x), v(x, b))
    """
    if v.universe != a.universe:
        raise ShapeMismatchError("image needs a shared universe")
    return FuzzySet(a.universe, image_grades(v.pairs, a.universe, a.grades))


def scale(a: FuzzySet, k: float) -> FuzzySet:
    """Shrink every membership by the factor k in [0, 1]."""
    if not 0.0 <= k <= 1.0:
        raise QuantrelError(f"scale factor {k!r} outside [0, 1]")
    return FuzzySet(a.universe, (k * g for g in a.grades))


def crisp_forward_image(r: CrispRel, a: FuzzySet) -> FuzzySet:
    """Crisp image {y | (x, y) related, x in a} for crisp inputs."""
    if not a.is_crisp():
        raise QuantrelError("crisp_forward_image needs a crisp set")
    return verb_image(FuzzyRelation.from_crisp(r), a)
