"""Graded sets over a finite universe and the operations used to score
quantified sentences: sigma-count, pointwise-min intersection, relative
cardinality, scaling, and the max-min image of a graded binary relation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
    """Graded binary relation over one universe; unlisted pairs grade 0.

    It stores only `rows`, by position, as a tuple of tuples: rows[i]
    holds (j, grade) for every pair from the i-th universe element to
    the j-th with a positive grade, so an image reads only the rows of
    the elements it starts from.  The constructor checks every given
    pair: it must lie inside the universe and its grade in [0, 1].
    Zero grades are dropped.
    """

    __slots__ = ("universe", "rows")

    def __init__(self, universe: IndexSet, pairs: Mapping[Tuple[object, object], float]):
        self.universe = universe
        pos = {u: i for i, u in enumerate(universe.elements)}
        rows = tuple([] for _ in pos)
        for (a, b), g in pairs.items():
            try:
                i, j = pos[a], pos[b]
            except KeyError:
                raise ShapeMismatchError(f"pair {(a, b)!r} outside the universe") from None
            g = _check_grade(g)
            if g > 0.0:
                rows[i].append((j, g))
        self.rows = tuple(map(tuple, rows))

    @classmethod
    def from_crisp(cls, rel: CrispRel) -> "FuzzyRelation":
        if rel.source != rel.target:
            raise ShapeMismatchError("verb relations live over a single universe")
        return cls(rel.source, {pair: 1.0 for pair in rel.pairs})

    @property
    def pairs(self) -> Dict[Tuple[object, object], float]:
        """A new {(a, b): grade} dict of every positive pair, read off `rows`."""
        labels = self.universe.elements
        return {(labels[i], labels[j]): g
                for i, row in enumerate(self.rows) for j, g in row}

    def grade(self, a, b) -> float:
        j = self.universe.position(b)
        return next((g for k, g in self.rows[self.universe.position(a)] if k == j), 0.0)

    def is_crisp(self) -> bool:
        return all(g == 1.0 for row in self.rows for _, g in row)

    def __eq__(self, other):
        return (isinstance(other, FuzzyRelation) and self.universe == other.universe
                and self.pairs == other.pairs)

    def __repr__(self):
        return f"FuzzyRelation({sum(map(len, self.rows))} graded pairs)"


def sigma_count(a: FuzzySet, threshold: float = 0.0) -> float:
    """Arithmetic sum of memberships at or above the threshold."""
    return sum(g for g in a.grades if g >= threshold)


def intersect(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    """Pointwise minimum of memberships."""
    if a.universe != b.universe:
        raise ShapeMismatchError("intersection needs a shared universe")
    return FuzzySet(a.universe, map(min, a.grades, b.grades))


def proportion_row(bs: Iterable[Sequence[float]], a: Sequence[float],
                   threshold: float) -> Optional[List[float]]:
    """Relative cardinality of each grade tuple of bs in grade tuple a,
    sigma(a & b) / sigma(a), with sigma(a) summed once; None when
    sigma(a) is zero.  This is the one proportion kernel."""
    denom = sum(g for g in a if g >= threshold)
    if denom == 0.0:
        return None
    return [sum(m for m in map(min, a, b) if m >= threshold) / denom for b in bs]


def proportion(b: FuzzySet, a: FuzzySet, threshold: float = 0.0) -> float:
    """Relative cardinality of b in a: sigma(a & b) / sigma(a).

    Raises EmptyRestrictorError when sigma(a) is zero, which signals an
    empty restrictor set.
    """
    if a.universe != b.universe:
        raise ShapeMismatchError("proportion needs a shared universe")
    row = proportion_row((b.grades,), a.grades, threshold)
    if row is None:
        raise EmptyRestrictorError("proportion against a set of sigma-count zero")
    return row[0]


def image_grades(rows: Sequence[Sequence[Tuple[int, float]]],
                 a: Sequence[float]) -> Tuple[float, ...]:
    """Max-min image of grade tuple a through the rows of a relation
    (`FuzzyRelation.rows`):

        image(b) = max over x of min(a(x), relation(x, b))

    Elements x with a(x) = 0 add nothing, so their rows are never read
    and an image costs the rows in the support of a.
    """
    out = [0.0] * len(rows)
    for x, ax in enumerate(a):
        if ax > 0.0:
            for y, g in rows[x]:
                w = g if g < ax else ax
                if w > out[y]:
                    out[y] = w
    return tuple(out)


def verb_image(v: FuzzyRelation, a: FuzzySet) -> FuzzySet:
    """Max-min image: the degree to which b is reached from a through v.

        image(b) = max over x of min(a(x), v(x, b))
    """
    if v.universe != a.universe:
        raise ShapeMismatchError("image needs a shared universe")
    return FuzzySet(a.universe, image_grades(v.rows, a.grades))


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
