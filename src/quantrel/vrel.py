"""Finite many-valued relations: grade-valued matrices between index sets.

A relation r from A to B assigns a grade to every (a, b) pair; entries
equal to bottom are never stored, so a missing entry reads as 0.  Two
relations compose by join-of-tensors:

    compose(r, s)(a, c) = join over b of tensor(r(a, b), s(b, c))

The monoidal structure is strict: the unit index set is absorbed by
products, and nested products are flattened, so no unitor or associator
bookkeeping is ever needed.

A relation takes one of two forms.  Most store their entries.  The
structural generators that are functions (identity, swap and the cup
epsilon here, delta, mu, iota and zeta in `bialgebra`) are index maps:
one target position, or none, per source position, always with the unit
grade.  A map is given as a list of targets, or as a tensor of two maps
that keeps its factors and reads their targets on demand; a tensor with
a graded factor stores its entries, and where the other factor is a map
those are the graded factor's grades unchanged, with no quantale
tensor.  Composition of two maps is list indexing; a tensor of maps on
the left is gathered block by block, once per distinct target of its
left factor, and a graded relation passes through a map on its right
unchanged.  That keeps composites like
(mu x mu) o (id x swap x id) o (delta x delta) linear in the size of
their small end rather than in the size of the huge middle object.

`merge_join` joins two states through a merge or cup that reads the
last wire of the first and the first wire of the second: it is their
tensor composed with that map, computed pair by pair without storing
the tensor.  `merge_effect` is that join read through an effect to a
scalar, with the joined state never stored either: it visits both
states' grades from the top and stops where no pair left can beat the
best value found.

identity, swap and epsilon are both what the snake and bialgebra law
checkers certify and what the categorical evaluator wires its sentence
pipelines from.  `name` and `coname` bend a relation X -> Y into a
state I -> X x Y or an effect X x Y -> I by re-indexing its entries;
they are the composites with eta and epsilon that the snake identities
relate, computed without composing; eta and epsilon are the name and
coname of the identity, so the snake checks run that same re-indexing.

Values are immutable after construction: no read writes a slot, so
they are safe to share across threads.  This is load-bearing: a map's
`_targets()` returns its stored list, not a copy, and the structural
maps exhaustive evaluation reads are built once per powerset object and
quantale and shared by every evaluation over that lattice, in any
thread (`semantics._per_lattice`), so a write into a list a read
returned would change every later value over that lattice.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import EnumerationLimitError, ShapeMismatchError
from .quantale import Grade, Quantale

STAR = "*"

# Hard ceiling on stored entries for any single materialized relation.
MAX_ENTRIES = 2_000_000


class IndexSet:
    """Ordered finite set of distinct labels indexing rows or columns.

    An atomic set stores its elements, arbitrary hashables, with their
    positions.  A product set stores only `leaves`, the flat tuple of
    atomic sets it is the product of.  Its elements are flat tuples
    holding one element of each leaf, in row-major order, and a
    position is a mixed-radix number over the leaf sizes; both are
    computed on every call.  The unit set is the empty product: its
    `leaves` are () and its one element is STAR.  An atomic set has no
    leaves (None).
    """

    __slots__ = ("leaves", "size", "_elements", "_pos")

    def __init__(self, elements: Iterable):
        self.leaves = None
        self._elements = tuple(elements)
        self._pos = {el: i for i, el in enumerate(self._elements)}
        if len(self._pos) != len(self._elements):
            raise ShapeMismatchError("index set labels must be distinct")
        self.size = len(self._elements)

    @classmethod
    def unit(cls) -> "IndexSet":
        unit = cls((STAR,))
        unit.leaves = ()
        return unit

    @classmethod
    def _product(cls, leaves: tuple) -> "IndexSet":
        product = cls.__new__(cls)
        product.leaves = leaves
        product.size = math.prod(leaf.size for leaf in leaves)
        return product

    def is_unit(self) -> bool:
        return self.leaves == ()

    @property
    def elements(self) -> tuple:
        if self.leaves:
            return tuple(itertools.product(*(leaf._elements for leaf in self.leaves)))
        return self._elements

    def position(self, element) -> int:
        """The element's position; KeyError for an element not in the set."""
        if not self.leaves:
            return self._pos[element]
        if not isinstance(element, tuple) or len(element) != len(self.leaves):
            raise KeyError(element)
        p = 0
        for leaf, x in zip(self.leaves, element):
            p = p * leaf.size + leaf._pos[x]
        return p

    def __contains__(self, element) -> bool:
        if not self.leaves:
            return element in self._pos
        return (isinstance(element, tuple) and len(element) == len(self.leaves)
                and all(x in leaf._pos for leaf, x in zip(self.leaves, element)))

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, IndexSet) or self.size != other.size:
            return False
        if self.leaves is None or other.leaves is None:
            return self.leaves is other.leaves and self._elements == other._elements
        return (len(self.leaves) == len(other.leaves)
                and all(a == b for a, b in zip(self.leaves, other.leaves)))

    def __hash__(self):
        return hash(self.size)

    def tensor(self, other: "IndexSet") -> "IndexSet":
        """Cartesian product, row-major, flattened to atomic leaves."""
        if self.is_unit():
            return other
        if other.is_unit():
            return self
        return IndexSet._product((self.leaves or (self,)) + (other.leaves or (other,)))

    def __repr__(self):
        if self.leaves:
            return f"IndexSet(product, size={self.size})"
        shown = ", ".join(repr(e) for e in self._elements[:4])
        if self.size > 4:
            shown += ", ..."
        return f"IndexSet([{shown}], size={self.size})"


class CrispRel:
    """Ordinary relation: a set of related (source, target) element pairs."""

    __slots__ = ("source", "target", "pairs")

    def __init__(self, source: IndexSet, target: IndexSet, pairs):
        self.source = source
        self.target = target
        self.pairs = frozenset(pairs)
        for a, b in self.pairs:
            if a not in source or b not in target:
                raise ShapeMismatchError(f"pair {(a, b)!r} outside source x target")

    @classmethod
    def identity(cls, a: IndexSet) -> "CrispRel":
        return cls(a, a, ((x, x) for x in a))

    def compose(self, other: "CrispRel") -> "CrispRel":
        """Set-theoretic composition; self first, other second."""
        if self.target != other.source:
            raise ShapeMismatchError("crisp composition: target != source")
        mids: Dict[object, list] = {}
        for b, c in other.pairs:
            mids.setdefault(b, []).append(c)
        out = {(a, c) for a, b in self.pairs for c in mids.get(b, ())}
        return CrispRel(self.source, other.target, out)

    def __eq__(self, other):
        return (isinstance(other, CrispRel) and self.source == other.source
                and self.target == other.target and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.source, self.target, self.pairs))


class VRel:
    """A many-valued relation; a sparse grade matrix source -> target.

    It takes one of two forms, fixed at construction:

    * stored entries: a {(source position, target position): grade}
      dict without bottom grades;
    * an index map: the relation of a partial function, with every
      related pair graded `q.unit`.  It is given either as a list
      holding one target position per source position, -1 for an
      empty row, or as `factors`, a pair of maps whose tensor it is
      (see `tensor_rel`).

    No slot is written after construction: the entries of a map and the
    target list of a tensor of maps are computed when read and never
    stored.
    """

    __slots__ = ("source", "target", "quantale", "_entries", "_map",
                 "_factors")

    def __init__(self, source: IndexSet, target: IndexSet, quantale: Quantale,
                 entries: Optional[Dict[Tuple[int, int], Grade]] = None,
                 index_map: Optional[List[int]] = None,
                 factors: Optional[Tuple["VRel", "VRel"]] = None):
        if sum(form is not None for form in (entries, index_map, factors)) != 1:
            raise ValueError("exactly one of entries/index_map/factors must be given")
        if factors is not None and not (factors[0].is_map() and factors[1].is_map()):
            raise ValueError("factors must both be index maps")
        self.source = source
        self.target = target
        self.quantale = quantale
        self._entries = entries
        self._map = index_map
        self._factors = factors

    # -- construction ------------------------------------------------

    @classmethod
    def from_dict(cls, source: IndexSet, target: IndexSet, q: Quantale,
                  mapping: Dict[Tuple[object, object], Grade]) -> "VRel":
        """Build from a {(source element, target element): grade} mapping."""
        entries = {}
        for (a, b), g in mapping.items():
            if g != q.bottom:
                entries[(source.position(a), target.position(b))] = q.validate(g)
        return cls(source, target, q, entries=entries)

    # -- access ------------------------------------------------------

    def is_map(self) -> bool:
        """Whether this is an index map (a list or a tensor of maps)."""
        return self._entries is None

    def _targets(self, positions: Optional[List[int]] = None) -> List[int]:
        """Target position of a map at each of `positions` (by default
        every source position, in order), -1 for an empty row or for a
        position of -1.  A tensor reads its factors' targets."""
        if self._map is not None:
            m = self._map
            if positions is None:
                return m
            return [m[i] if i >= 0 else -1 for i in positions]
        if positions is None and len(self.source) > MAX_ENTRIES:
            raise EnumerationLimitError(
                f"map of {len(self.source)} source positions exceeds the entry guard")
        r, s = self._factors
        n_src2, n_tgt2 = len(s.source), len(s.target)
        if positions is None:
            js1 = [j for j in r._targets() for _ in range(n_src2)]
            js2 = s._targets() * len(r.source)
        else:
            js1 = r._targets([i // n_src2 for i in positions])
            js2 = s._targets([i % n_src2 for i in positions])
        return [-1 if j1 < 0 or j2 < 0 else j1 * n_tgt2 + j2
                for j1, j2 in zip(js1, js2)]

    def entries(self) -> Mapping[Tuple[int, int], Grade]:
        """Read-only {(source position, target position): grade} view."""
        if self._entries is not None:
            return MappingProxyType(self._entries)
        e = self.quantale.unit
        return MappingProxyType({(i, j): e for i, j in enumerate(self._targets())
                                 if j >= 0})

    def entry(self, a, b) -> Grade:
        """Grade at an element pair (bottom when absent); a map reads
        only the target of the pair's row."""
        i, j = self.source.position(a), self.target.position(b)
        if self._entries is not None:
            return self._entries.get((i, j), self.quantale.bottom)
        q = self.quantale
        return q.unit if self._targets([i])[0] == j else q.bottom

    def scalar(self) -> Grade:
        """The single entry of a unit-to-unit relation."""
        if not (self.source.is_unit() and self.target.is_unit()):
            raise ShapeMismatchError("scalar() needs a unit-to-unit relation")
        return self.entries().get((0, 0), self.quantale.bottom)

    def to_matrix(self) -> List[List[Grade]]:
        ent = self.entries()
        bot = self.quantale.bottom
        return [[ent.get((i, j), bot) for j in range(len(self.target))]
                for i in range(len(self.source))]

    def support(self) -> int:
        if self.is_map():
            m = self._targets()
            return len(m) - m.count(-1)
        return len(self.entries())

    # -- comparison ---------------------------------------------------

    def equal(self, other: "VRel", tol: float = 0.0) -> bool:
        """Entrywise equality; tol > 0 compares within that tolerance.
        Two maps compare as lists."""
        if self.source != other.source or self.target != other.target:
            return False
        if tol == 0.0 and self.is_map() and other.is_map():
            return self._targets() == other._targets()
        a, b = self.entries(), other.entries()
        if tol == 0.0:
            return a == b
        for key in a.keys() | b.keys():
            if abs(a.get(key, 0.0) - b.get(key, 0.0)) > tol:
                return False
        return True

    def __repr__(self):
        kind = ("map" if self._map is not None else
                "tensor" if self._factors is not None else "entries")
        return (f"VRel({len(self.source)}x{len(self.target)}, "
                f"{self.quantale.name}, {kind})")


# -- categorical operations -----------------------------------------------


def compose(r: VRel, s: VRel) -> VRel:
    """Diagrammatic composition: r from A to B first, then s from B to C.

    Grades form a chain, so the join over the middle index is a running
    maximum and `>` below is `Quantale.join` of two grades.

    A map on the right takes a shortcut that gives the same entries.
    Two maps compose into a map by list indexing.  Every grade of a map
    is the unit, and tensor(g, unit) == g exactly on all four quantales
    (`_lukasiewicz_tensor` keeps this law float-exact), so r o map moves
    each grade of a graded r to the mapped column unchanged.  A tensor
    of maps is never built whole: on the left of a target list it is
    gathered block by block, once per distinct target of its left
    factor (`_gather`), and on the right it is read through its factors
    at r's targets.
    """
    if r.quantale is not s.quantale:
        raise ShapeMismatchError(
            f"cannot compose over {r.quantale.name} and {s.quantale.name}")
    if r.target != s.source:
        raise ShapeMismatchError("composition: r.target differs from s.source")
    q = r.quantale
    bottom = q.bottom
    acc: Dict[Tuple[int, int], Grade] = {}
    if r.is_map() and s.is_map():
        if s._map is not None:
            return VRel(r.source, s.target, q, index_map=_gather(r, s._map))
        return VRel(r.source, s.target, q, index_map=s._targets(r._targets()))
    if s.is_map():
        ent = r._entries
        for ((i, _), g), j in zip(ent.items(), s._targets([k for _, k in ent])):
            if j < 0 or g == bottom:
                continue
            key = (i, j)
            prev = acc.get(key)
            if prev is None or g > prev:
                acc[key] = g
        return VRel(r.source, s.target, q, entries=acc)
    tensor = q.tensor
    rows: Dict[int, List[Tuple[int, Grade]]] = {}
    for (k, j), g in s._entries.items():
        rows.setdefault(k, []).append((j, g))
    for (i, k), g1 in r.entries().items():
        for j, g2 in rows.get(k, ()):
            v = tensor(g1, g2)
            if v == bottom:
                continue
            key = (i, j)
            prev = acc.get(key)
            if prev is None or v > prev:
                acc[key] = v
        if len(acc) > MAX_ENTRIES:
            raise EnumerationLimitError("composition exceeds the entry guard")
    return VRel(r.source, s.target, q, entries=acc)


def _gather(r: VRel, h: List[int]) -> List[int]:
    """h[j] for the target j of each source position of the map r, -1
    where r's row is empty or h[j] is -1.

    A tensor of maps (f, g) is gathered block by block: the block of
    f-target j1 is g gathered through h's slice for j1, computed once
    and reused for every source of f with that target, so no list of
    the tensor's own targets is built."""
    if len(r.source) > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"map of {len(r.source)} source positions exceeds the entry guard")
    if r._map is not None:
        return list(map((h + [-1]).__getitem__, r._map))
    f, g = r._factors
    n2 = len(g.target)
    blocks = {-1: [-1] * len(g.source)}
    out: List[int] = []
    for j1 in f._targets():
        block = blocks.get(j1)
        if block is None:
            block = blocks[j1] = _gather(g, h[j1 * n2:(j1 + 1) * n2])
        out += block
    return out


def identity(a: IndexSet, q: Quantale) -> VRel:
    """Diagonal relation: unit on the diagonal, bottom elsewhere."""
    return VRel(a, a, q, index_map=list(range(len(a))))


def tensor_rel(r: VRel, s: VRel) -> VRel:
    """Parallel composition over product index sets, row-major: entry
    ((i1, i2), (j1, j2)) is tensor(r(i1, j1), s(i2, j2)).

    A tensor of two maps is a map that keeps its factors and reads their
    targets when composition asks for them, since the law checkers' big
    middle objects are tensors of maps.  Any other tensor stores its
    entries.  With one map factor those are the graded factor's grades
    unchanged, since tensor(g, unit) == g exactly (see `compose`).
    """
    if r.quantale is not s.quantale:
        raise ShapeMismatchError(
            f"cannot tensor over {r.quantale.name} and {s.quantale.name}")
    q = r.quantale
    source, target = r.source.tensor(s.source), r.target.tensor(s.target)
    if r.is_map() and s.is_map():
        return VRel(source, target, q, factors=(r, s))
    n_src2, n_tgt2 = len(s.source), len(s.target)
    a, b = r._entries, s._entries
    if a is None or b is None:
        m, graded = (r, b) if a is None else (s, a)
        if len(m.source) * len(graded) > MAX_ENTRIES:
            raise EnumerationLimitError(
                f"tensor of {len(m.source)} by {len(graded)} entries "
                f"exceeds the entry guard")
        pairs = [(i, j) for i, j in enumerate(m._targets()) if j >= 0]
        if a is None:
            entries = {(i1 * n_src2 + i2, j1 * n_tgt2 + j2): g
                       for i1, j1 in pairs for (i2, j2), g in b.items()}
        else:
            entries = {(i1 * n_src2 + i2, j1 * n_tgt2 + j2): g
                       for (i1, j1), g in a.items() for i2, j2 in pairs}
        return VRel(source, target, q, entries=entries)
    if len(a) * len(b) > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"tensor of {len(a)} by {len(b)} entries exceeds the entry guard")
    tensor, bottom = q.tensor, q.bottom
    entries = {}
    for (i1, j1), g1 in a.items():
        for (i2, j2), g2 in b.items():
            g = tensor(g1, g2)
            if g != bottom:
                entries[(i1 * n_src2 + i2, j1 * n_tgt2 + j2)] = g
    return VRel(source, target, q, entries=entries)


def _product(leaves) -> IndexSet:
    return functools.reduce(IndexSet.tensor, leaves, IndexSet.unit())


def _merge_operands(r: VRel, s: VRel, m: VRel, caller: str):
    """Check that an index map m: A x B -> C reads the last wire of the
    state r: I -> X x A and the first wire of the state s: I -> B x Y,
    and refuse, as `tensor_rel` does, a pair of states whose tensor it
    would refuse to store.  Returns the atomic sets of r and of s and
    the sizes of A, B and Y."""
    if not (r.source.is_unit() and s.source.is_unit()):
        raise ShapeMismatchError(f"{caller} needs two states")
    if not (r.quantale is s.quantale is m.quantale):
        raise ShapeMismatchError(f"{caller} needs one quantale")
    if not m.is_map():
        raise ShapeMismatchError(f"{caller} needs an index map to merge by")
    left = r.target.leaves or (r.target,)
    right = s.target.leaves or (s.target,)
    if m.source != _product(left[-1:] + right[:1]):
        raise ShapeMismatchError(f"{caller}: the map does not read the states' "
                                 "last and first wires")
    sizes = [1 if rel.is_map() else len(rel._entries) for rel in (r, s)]
    if sizes[0] * sizes[1] > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"tensor of {sizes[0]} by {sizes[1]} entries exceeds the entry guard")
    n_b = len(right[0])
    return left, right, len(left[-1]), n_b, len(s.target) // n_b


def merge_join(r: VRel, s: VRel, m: VRel) -> VRel:
    """compose(tensor_rel(r, s), id(X) x m x id(Y)) for states r: I -> X x A
    and s: I -> B x Y and an index map m: A x B -> C (a merge or a cup),
    entry for entry, with the tensor never stored.

    Each pair of an entry (x, a) of r and an entry (b, y) of s whose
    row (a, b) of m has a target c meets once, tensor(r grade, s grade),
    and the grades landing on one (x, c, y) are joined by max; m's
    target list is read one row a at a time.  The guard is
    `tensor_rel`'s, so this refuses exactly the states whose tensor
    `tensor_rel` refuses to store."""
    left, right, n_a, n_b, n_y = _merge_operands(r, s, m, "merge_join")
    q = r.quantale
    n_c = len(m.target)
    by_a: Dict[int, List[Tuple[int, Grade]]] = {}
    for (_, k), g in r.entries().items():
        x, a = divmod(k, n_a)
        by_a.setdefault(a, []).append((x * n_c * n_y, g))
    pairs = [divmod(k, n_y) + (g,) for (_, k), g in s.entries().items()]
    targets = m._targets()
    tensor, bottom = q.tensor, q.bottom
    acc: Dict[int, Grade] = {}
    get = acc.get
    for a, xs in by_a.items():
        row = targets[a * n_b:(a + 1) * n_b]
        for x, g1 in xs:
            for b, y, g2 in pairs:
                c = row[b]
                if c < 0:
                    continue
                # Grades are above bottom, so g > bottom stores a new key.
                g = tensor(g1, g2)
                if g != bottom:
                    k = x + c * n_y + y
                    if g > get(k, bottom):
                        acc[k] = g
    target = _product(left[:-1] + (m.target,) + right[1:])
    return VRel(r.source, target, q, entries={(0, k): g for k, g in acc.items()})


def merge_effect(r: VRel, s: VRel, m: VRel, effect: Callable[[int], Grade],
                 stop: bool = True) -> Grade:
    """compose(merge_join(r, s, m), e).scalar() for an effect e given by
    `effect(k)`, its grade at position k of merge_join's target (bottom
    where e has no entry), with the merged state never stored.

    r's entries and s's are each sorted by descending grade, and pairs
    are visited in that order, s's entries from the top for each entry
    of r.  A pair of grades g1, g2 whose row of m has a target lands at
    position k with grade t(g1, g2) and adds t(t(g1, g2), e(k)) to the
    join.  Each float tensor is monotone, so t(max(x, y), e) ==
    max(t(x, e), t(y, e)) exactly, and the join over pairs is compose's
    value bit for bit.  Every tensor keeps its unit law exactly, so
    t(g, e) <= t(g, unit) == g, and a pair whose grade is not above the
    best value so far cannot raise it; nor can a later pair of the same
    entry of r, whose grade is no larger, nor any pair of an entry of r
    whose grade g1 is not above it.  So the inner scan stops at the
    first pair that lands with such a grade and the outer at the first
    such g1: the stopping rule of Fagin, Lotem and Naor's threshold
    algorithm, applied to the join's two inputs as in Ilyas, Aref and
    Elmagarmid's rank join.  e is read only where a pair lands with a
    grade above every grade already seen at its position, since a lower
    one adds nothing.

    With `stop` false the scans skip only the pairs of bottom grade,
    which merge_join does not store, so e is read at every position of
    the merged state's support, for a caller whose effect must see
    each of them."""
    _, _, n_a, n_b, n_y = _merge_operands(r, s, m, "merge_effect")
    n_xc = len(m.target) * n_y
    by_grade = itemgetter(0)
    xs = sorted(((g, k // n_a * n_xc, k % n_a * n_b)
                 for (_, k), g in r.entries().items()), key=by_grade, reverse=True)
    ys = sorted(((g, *divmod(k, n_y)) for (_, k), g in s.entries().items()),
                key=by_grade, reverse=True)
    targets = m._targets()
    q = r.quantale
    tensor, bottom = q.tensor, q.bottom
    best = floor = bottom
    seen: Dict[int, Grade] = {}
    get = seen.get
    for g1, x, row in xs:
        if g1 <= floor:
            break
        for g2, b, y in ys:
            c = targets[row + b]
            if c < 0:
                continue
            g = tensor(g1, g2)
            if g <= floor:
                break
            k = x + c * n_y + y
            if g > get(k, bottom):
                seen[k] = g
                v = tensor(g, effect(k))
                if v > best:
                    best = v
                    if stop:
                        floor = v
    return best


def name(r: VRel) -> VRel:
    """The name of r: X -> Y bent into a state I -> X x Y.

    Each entry (x, y) of r moves to the pair (x, y) unchanged, which is
    eta(X) ; (id(X) x r) entry for entry: r's grades meet only units."""
    n = len(r.target)
    return VRel(IndexSet.unit(), r.source.tensor(r.target), r.quantale,
                entries={(0, i * n + j): g for (i, j), g in r.entries().items()})


def coname(r: VRel) -> VRel:
    """The coname of r: X -> Y bent into an effect X x Y -> I.

    Each entry (x, y) of r moves to the pair (x, y) unchanged, which is
    (r x id(Y)) ; epsilon(Y) entry for entry.  The coname of a map is a
    map: each (x, t(x)) goes to the unit point, every other pair nowhere."""
    n = len(r.target)
    source = r.source.tensor(r.target)
    if not r.is_map():
        return VRel(source, IndexSet.unit(), r.quantale,
                    entries={(i * n + j, 0): g for (i, j), g in r._entries.items()})
    if len(source) > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"coname of {len(r.source)}x{n} positions exceeds the entry guard")
    targets = [-1] * len(source)
    for i, j in enumerate(r._targets()):
        if j >= 0:
            targets[i * n + j] = 0
    return VRel(source, IndexSet.unit(), r.quantale, index_map=targets)


def epsilon(s: IndexSet, q: Quantale) -> VRel:
    """Cup, the coname of the identity: each pair (a, a) to the unit point."""
    return coname(identity(s, q))


def eta(s: IndexSet, q: Quantale) -> VRel:
    """Cap, the name of the identity: the unit point to each pair (a, a)."""
    return name(identity(s, q))


def swap(a: IndexSet, b: IndexSet, q: Quantale) -> VRel:
    """Symmetry: (x, y) goes to (y, x) with grade unit."""
    na, nb = len(a), len(b)
    if na * nb > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"swap of {na}x{nb} entries exceeds the entry guard")
    return VRel(a.tensor(b), b.tensor(a), q,
                index_map=[j * na + i for i in range(na) for j in range(nb)])


def include(r: CrispRel, q: Quantale) -> VRel:
    """Image of a crisp relation: unit where related, bottom elsewhere."""
    entries = {
        (r.source.position(a), r.target.position(b)): q.unit
        for a, b in r.pairs
    }
    return VRel(r.source, r.target, q, entries=entries)


# The snake composites themselves are cheap: 5.1-5.6 ms at n = 64 and
# 0.47-0.51 s at n = 512 (Python 3.11, 2 vCPUs, median of 30 and of 3
# calls), split between storing the n^2 entries of the cap's tensor with
# the identity and reading the targets of the cup's tensor, a map that
# is never stored, at those n^2 rows.  The guard bounds the object that
# `quantrel laws` checks: there `check_monoid` composes maps of n^3
# positions, gathering a tensor of maps on the left block by block, once
# per distinct target of its left factor: 22 ms and a 25 MB process peak
# at 64 subsets, 44 ms and 32 MB at 81 (same machine, median of 7); at
# 243 the entry guard refuses its first n^3 map before building it.
SNAKE_GUARD = 64


def snake_identities(s: IndexSet, q: Quantale) -> Tuple[bool, bool]:
    """The two adjunction identities for a self-dual object:

        (id x eps) o (eta x id) = id
        (eps x id) o (id x eta) = id
    """
    if len(s) > SNAKE_GUARD:
        raise EnumerationLimitError(
            f"snake check limited to index sets of at most {SNAKE_GUARD} elements")
    one = identity(s, q)
    left = compose(tensor_rel(eta(s, q), one), tensor_rel(one, epsilon(s, q)))
    right = compose(tensor_rel(one, eta(s, q)), tensor_rel(epsilon(s, q), one))
    return left.equal(one), right.equal(one)


def check_snake(s: IndexSet, q: Quantale) -> bool:
    return all(snake_identities(s, q))
