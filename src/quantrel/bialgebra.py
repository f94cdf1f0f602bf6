"""Copy/merge structure over enumerated powerset-style objects.

The object is the set of all graded subsets of a finite universe whose
membership values are drawn from a finite grade lattice G.  With
G = {0, 1} this is exactly the crisp powerset.  Four structural maps
live on it:

    delta  S -> S x S    copy: relates A to (A, A)
    iota   S -> I        discard: relates every A to the unit point
    mu     S x S -> S    merge: relates (A, B) to their pointwise meet
    zeta   I -> S        unit: relates the unit point to the full subset

(delta, iota) form a comonoid, (mu, zeta) a monoid, and together they
satisfy the four bialgebra interaction laws; `check_bialgebra`,
`check_comonoid` and `check_monoid` verify all of them as matrix
identities over any of the quantale instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import EnumerationLimitError, QuantrelError
from .quantale import Quantale
from .vrel import (MAX_ENTRIES, IndexSet, VRel, compose, identity, swap,
                   tensor_rel)

ENUMERATION_GUARD = 20_000


class GradeLattice:
    """Finite sorted set of grades used as membership values.

    Must contain 0 and 1, so the empty and full subsets always exist;
    being a chain, it is automatically closed under min and max.
    """

    __slots__ = ("grades",)

    def __init__(self, grades: Sequence[float]):
        values = sorted({float(g) for g in grades})
        if not values or values[0] != 0.0 or values[-1] != 1.0:
            raise QuantrelError("grade lattice must contain 0 and 1")
        if any(g < 0.0 or g > 1.0 for g in values):
            raise QuantrelError("grade lattice values must lie in [0, 1]")
        self.grades = tuple(values)

    def __contains__(self, g) -> bool:
        return float(g) in self.grades

    def __iter__(self):
        return iter(self.grades)

    def __len__(self):
        return len(self.grades)

    def __eq__(self, other):
        return isinstance(other, GradeLattice) and self.grades == other.grades

    def __repr__(self):
        return f"GradeLattice({list(self.grades)})"


BOOLEAN_LATTICE = GradeLattice((0.0, 1.0))


class PowersetObject:
    """All graded subsets of a universe, enumerated deterministically.

    Subsets are stored as grade tuples aligned with the universe order;
    the enumeration is lexicographic with the first universe element
    most significant and grades ascending.
    """

    __slots__ = ("universe", "lattice", "index")

    def __init__(self, universe: IndexSet, lattice: GradeLattice,
                 guard: int = ENUMERATION_GUARD):
        size = len(lattice) ** len(universe)
        if size > guard:
            raise EnumerationLimitError(
                f"powerset object of {size} subsets exceeds the guard of {guard}")
        self.universe = universe
        self.lattice = lattice
        enumeration = tuple(itertools.product(lattice.grades,
                                              repeat=len(universe)))
        self.index = IndexSet(enumeration)

    @property
    def enumeration(self) -> Tuple[tuple, ...]:
        return self.index.elements

    def __len__(self):
        return len(self.index)

    def full(self) -> tuple:
        return (1.0,) * len(self.universe)

    @staticmethod
    def meet(a: tuple, b: tuple) -> tuple:
        return tuple(map(min, a, b))


def delta(s: IndexSet, q: Quantale) -> VRel:
    """Copy map S -> S x S: unit at (A, (A, A)), bottom elsewhere."""
    n, e = len(s), q.unit
    return VRel(s, s.tensor(s), q, entries={(i, i * n + i): e for i in range(n)})


def mu(a: IndexSet, b: IndexSet, out: IndexSet, q: Quantale) -> VRel:
    """Merge map A x B -> OUT: unit at ((A, B), pointwise min of A and B).

    The entries are stored, one per pair whose meet is in out.  A meet
    missing from out has no entry, which is how a restricted wire drops
    it; on a whole powerset every meet is present."""
    nb, e = len(b), q.unit
    if len(a) * nb > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"merge of {len(a)}x{nb} pairs exceeds the entry guard")
    meets = ((i * nb + j, PowersetObject.meet(x, y))
             for i, x in enumerate(a.elements) for j, y in enumerate(b.elements))
    return VRel(a.tensor(b), out, q,
                entries={(k, out.position(m)): e for k, m in meets if m in out})


def iota(p: PowersetObject, q: Quantale) -> VRel:
    """Discard map S -> I: unit everywhere."""
    e = q.unit
    return VRel(p.index, IndexSet.unit(), q,
                entries={(i, 0): e for i in range(len(p))})


def zeta(p: PowersetObject, q: Quantale) -> VRel:
    """Unit map I -> S: unit exactly at the full subset."""
    return VRel(IndexSet.unit(), p.index, q,
                entries={(0, p.index.position(p.full())): q.unit})


@dataclass(frozen=True)
class LawReport:
    """Pass/fail per law, in a stable order for printing."""

    laws: Tuple[Tuple[str, bool], ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.laws)

    def __getitem__(self, name: str) -> bool:
        for law, ok in self.laws:
            if law == name:
                return ok
        raise KeyError(name)


def check_bialgebra(p: PowersetObject, q: Quantale) -> LawReport:
    """The four interaction laws between copy/discard and merge/unit."""
    s = p.index
    d, i, m, z = delta(s, q), iota(p, q), mu(s, s, s, q), zeta(p, q)
    one = identity(s, q)
    sw = swap(s, s, q)

    law1 = compose(m, i).equal(tensor_rel(i, i))
    law2 = compose(z, d).equal(tensor_rel(z, z))
    rhs = compose(compose(tensor_rel(d, d),
                          tensor_rel(one, tensor_rel(sw, one))),
                  tensor_rel(m, m))
    law3 = compose(m, d).equal(rhs)
    law4 = compose(z, i).equal(identity(IndexSet.unit(), q))
    return LawReport((
        ("discard-after-merge", law1),
        ("copy-after-unit", law2),
        ("copy-merge-compatibility", law3),
        ("unit-discard", law4),
    ))


def check_comonoid(p: PowersetObject, q: Quantale) -> LawReport:
    """Coassociativity and both counit laws for (delta, iota)."""
    d, i = delta(p.index, q), iota(p, q)
    one = identity(p.index, q)

    coassoc = compose(d, tensor_rel(d, one)).equal(compose(d, tensor_rel(one, d)))
    counit_l = compose(d, tensor_rel(i, one)).equal(one)
    counit_r = compose(d, tensor_rel(one, i)).equal(one)
    return LawReport((
        ("coassociativity", coassoc),
        ("counit-left", counit_l),
        ("counit-right", counit_r),
    ))


def check_monoid(p: PowersetObject, q: Quantale) -> LawReport:
    """Associativity and both unit laws for (mu, zeta)."""
    s = p.index
    m, z = mu(s, s, s, q), zeta(p, q)
    one = identity(s, q)

    assoc = compose(tensor_rel(m, one), m).equal(compose(tensor_rel(one, m), m))
    unit_l = compose(tensor_rel(z, one), m).equal(one)
    unit_r = compose(tensor_rel(one, z), m).equal(one)
    return LawReport((
        ("associativity", assoc),
        ("unit-left", unit_l),
        ("unit-right", unit_r),
    ))
