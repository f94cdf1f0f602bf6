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
from typing import List, Optional, Sequence, Tuple

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
        if any(not 0.0 <= g <= 1.0 for g in values):  # NaN too
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


def check_powerset_size(n: int, lattice: GradeLattice) -> None:
    """Refuse the powerset object of an n-element universe when its
    len(lattice) ** n subsets exceed ENUMERATION_GUARD.  A lattice holds
    at least the grades 0 and 1, so any n past the guard's bit length is
    refused before the power is taken, and the message never prints it."""
    k = len(lattice)
    if n > ENUMERATION_GUARD.bit_length() or k ** n > ENUMERATION_GUARD:
        raise EnumerationLimitError(
            f"powerset object of {k}^{n} subsets exceeds the guard of "
            f"{ENUMERATION_GUARD}")


class PowersetObject:
    """All graded subsets of a universe, enumerated deterministically.

    Subsets are stored as grade tuples aligned with the universe order;
    the enumeration is lexicographic with the first universe element
    most significant and grades ascending.
    """

    __slots__ = ("universe", "lattice", "index")

    def __init__(self, universe: IndexSet, lattice: GradeLattice):
        check_powerset_size(len(universe), lattice)
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
    n = len(s)
    return VRel(s, s.tensor(s), q, index_map=[i * n + i for i in range(n)])


def mu(a: IndexSet, b: IndexSet, out: IndexSet, q: Quantale) -> VRel:
    """Merge map A x B -> OUT: unit at ((A, B), pointwise min of A and B).

    A pair whose meet is missing from out has an empty row, which is
    how a restricted wire drops it; on a whole powerset every meet is
    present.  When a, b and out are one whole powerset, the targets are
    built by digit blocks (`_powerset_meets`), with no tuple meet or
    lookup per pair."""
    if len(a) * len(b) > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"merge of {len(a)}x{len(b)} pairs exceeds the entry guard")
    targets = _powerset_meets(a) if a == b == out else None
    if targets is None:
        pos = {m: j for j, m in enumerate(out.elements)}
        meet = PowersetObject.meet
        targets = [pos.get(meet(x, y), -1) for x in a.elements for y in b.elements]
    return VRel(a.tensor(b), out, q, index_map=targets)


def _powerset_meets(s: IndexSet) -> Optional[List[int]]:
    """mu(s, s, s)'s targets, built by digit blocks, when s holds every
    tuple over an ascending chain of g grades in lexicographic order, as
    `PowersetObject` enumerates them; None for any other s.  With leading
    digits x0, y0, the target of (x0 x', y0 y') is min(x0, y0) * g^(m-1)
    plus that of (x', y'), so each (x0, x', y0) block is one shifted row
    of the (m-1)-digit list."""
    els = s.elements
    try:
        chain = sorted(set(itertools.chain.from_iterable(els)))
    except TypeError:  # elements that are not iterables of grades
        return None
    m = len(els[0]) if els else 0
    # Sizes first: a one-subset restricted wire over 30 entities with two
    # grades would otherwise enumerate 2^30 tuples only to differ.
    if (len(els) != len(chain) ** m
            or els != tuple(itertools.product(chain, repeat=m))):
        return None
    targets, n = [0], 1
    for _ in range(m):
        rows = [targets[i * n:(i + 1) * n] for i in range(n)]
        nxt: List[int] = []
        for x0 in range(len(chain)):
            for row in rows:
                for y0 in range(len(chain)):
                    nxt += map((min(x0, y0) * n).__add__, row)
        targets, n = nxt, n * len(chain)
    return targets


def iota(p: PowersetObject, q: Quantale) -> VRel:
    """Discard map S -> I: unit everywhere."""
    return VRel(p.index, IndexSet.unit(), q, index_map=[0] * len(p))


def zeta(p: PowersetObject, q: Quantale) -> VRel:
    """Unit map I -> S: unit exactly at the full subset."""
    return VRel(IndexSet.unit(), p.index, q,
                index_map=[p.index.position(p.full())])


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
