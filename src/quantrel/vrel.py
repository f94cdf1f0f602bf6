"""Finite many-valued relations: grade-valued matrices between index sets.

A relation r from A to B assigns a grade to every (a, b) pair; entries
equal to bottom are never stored, so a missing entry reads as 0.  Two
relations compose by join-of-tensors:

    compose(r, s)(a, c) = join over b of tensor(r(a, b), s(b, c))

The monoidal structure is strict: the unit index set is absorbed by
products, and nested products are flattened, so no unitor or associator
bookkeeping is ever needed.

Every relation stores its entries except a tensor product, whose rows
are built from its factors' rows on demand.  That keeps composites like
(mu x mu) o (id x swap x id) o (delta x delta) linear in the size of
their small end rather than in the size of the huge middle object.

identity, swap and epsilon are both what the snake and bialgebra law
checkers certify and what the categorical evaluator wires its sentence
pipelines from.

Values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import EnumerationLimitError, ShapeMismatchError
from .quantale import Grade, Quantale

STAR = "*"

# Hard ceiling on stored entries for any single materialized relation.
MAX_ENTRIES = 2_000_000


def _slots(element, width: int) -> tuple:
    return (element,) if width == 1 else element


class IndexSet:
    """Ordered finite set of distinct labels indexing rows or columns.

    Elements of an atomic set are arbitrary hashables.  Elements of a
    product set are flat tuples holding one slot per atomic factor, in
    row-major order; `width` counts those slots.  The unit set has one
    element and width zero.

    Product elements are materialized lazily: composition only needs
    sizes and equality, and equality of products reduces to comparing
    their sequences of atomic factors.
    """

    __slots__ = ("width", "factors", "size", "_elements", "_pos")

    def __init__(self, elements: Iterable, width: int = 1, factors=None):
        self.width = width
        self.factors = factors
        if factors is None:
            self._elements = tuple(elements)
            self.size = len(self._elements)
            self._build_pos()
        else:
            self._elements = None
            self._pos = None
            self.size = 1
            for f in factors:
                self.size *= f.size

    def _build_pos(self):
        self._pos = {el: i for i, el in enumerate(self._elements)}
        if len(self._pos) != len(self._elements):
            raise ShapeMismatchError("index set labels must be distinct")

    @classmethod
    def unit(cls) -> "IndexSet":
        return cls((STAR,), width=0)

    def is_unit(self) -> bool:
        return self.width == 0

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            a, b = self.factors
            self._elements = tuple(
                _slots(x, a.width) + _slots(y, b.width)
                for x in a.elements for y in b.elements
            )
            self._build_pos()
        return self._elements

    def position(self, element) -> int:
        self.elements
        return self._pos[element]

    def __contains__(self, element) -> bool:
        self.elements
        return element in self._pos

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.elements)

    def leaves(self) -> tuple:
        """The sequence of atomic index sets this set is a product of."""
        if self.factors is None:
            return (self,)
        return tuple(leaf for f in self.factors for leaf in f.leaves())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, IndexSet):
            return False
        if self.width != other.width or self.size != other.size:
            return False
        mine, theirs = self.leaves(), other.leaves()
        if len(mine) != len(theirs):
            return False
        return all(a is b or a._atoms_equal(b) for a, b in zip(mine, theirs))

    def _atoms_equal(self, other: "IndexSet") -> bool:
        return self.size == other.size and self.elements == other.elements

    def __hash__(self):
        return hash((self.width, self.size))

    def tensor(self, other: "IndexSet") -> "IndexSet":
        """Cartesian product, row-major, flattened to atomic slots."""
        if self.is_unit():
            return other
        if other.is_unit():
            return self
        return IndexSet((), width=self.width + other.width,
                        factors=(self, other))

    def __repr__(self):
        if self._elements is None:
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


RowFn = Callable[[int], Iterable[Tuple[int, Grade]]]


class VRel:
    """A many-valued relation; a sparse grade matrix source -> target."""

    __slots__ = ("source", "target", "quantale", "_entries", "_row_fn", "_rows")

    def __init__(self, source: IndexSet, target: IndexSet, quantale: Quantale,
                 entries: Optional[Dict[Tuple[int, int], Grade]] = None,
                 row_fn: Optional[RowFn] = None):
        if (entries is None) == (row_fn is None):
            raise ValueError("exactly one of entries/row_fn must be given")
        self.source = source
        self.target = target
        self.quantale = quantale
        self._entries = entries
        self._row_fn = row_fn
        self._rows: Optional[Dict[int, List[Tuple[int, Grade]]]] = None

    # -- construction ------------------------------------------------

    @classmethod
    def from_function(cls, source: IndexSet, target: IndexSet, q: Quantale,
                      fn: Callable[[object, object], Grade]) -> "VRel":
        """Materialize fn over all element pairs (guarded)."""
        if len(source) * len(target) > MAX_ENTRIES:
            raise EnumerationLimitError(
                f"relation of {len(source)}x{len(target)} entries exceeds guard")
        entries = {}
        for i, a in enumerate(source.elements):
            for j, b in enumerate(target.elements):
                g = fn(a, b)
                if g != q.bottom:
                    entries[(i, j)] = g
        return cls(source, target, q, entries=entries)

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

    def is_materialized(self) -> bool:
        return self._entries is not None

    def entries(self) -> Dict[Tuple[int, int], Grade]:
        if self._entries is None:
            entries: Dict[Tuple[int, int], Grade] = {}
            for i in range(len(self.source)):
                for j, g in self._row_fn(i):
                    if g != self.quantale.bottom:
                        entries[(i, j)] = g
                if len(entries) > MAX_ENTRIES:
                    raise EnumerationLimitError(
                        "relation materialization exceeds the entry guard")
            self._entries = entries
        return self._entries

    def rows(self, i: int) -> Iterable[Tuple[int, Grade]]:
        if self._row_fn is not None:
            return self._row_fn(i)
        if self._rows is None:
            rows: Dict[int, List[Tuple[int, Grade]]] = {}
            for (a, b), g in self._entries.items():
                rows.setdefault(a, []).append((b, g))
            self._rows = rows
        return self._rows.get(i, ())

    def entry(self, a, b) -> Grade:
        """Grade at an element pair (bottom when absent)."""
        key = (self.source.position(a), self.target.position(b))
        return self.entries().get(key, self.quantale.bottom)

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
        return len(self.entries())

    # -- comparison ---------------------------------------------------

    def equal(self, other: "VRel", tol: float = 0.0) -> bool:
        """Entrywise equality; tol > 0 compares within that tolerance."""
        if self.source != other.source or self.target != other.target:
            return False
        a, b = self.entries(), other.entries()
        if tol == 0.0:
            return a == b
        for key in a.keys() | b.keys():
            if abs(a.get(key, 0.0) - b.get(key, 0.0)) > tol:
                return False
        return True

    def __repr__(self):
        kind = "materialized" if self.is_materialized() else "functional"
        return (f"VRel({len(self.source)}x{len(self.target)}, "
                f"{self.quantale.name}, {kind})")


# -- categorical operations -----------------------------------------------


def compose(r: VRel, s: VRel) -> VRel:
    """Diagrammatic composition: r from A to B first, then s from B to C.

    Grades form a chain, so the join over the middle index is a running
    maximum and `>` below is `Quantale.join` of two grades.
    """
    if r.quantale is not s.quantale:
        raise ShapeMismatchError(
            f"cannot compose over {r.quantale.name} and {s.quantale.name}")
    if r.target != s.source:
        raise ShapeMismatchError("composition: r.target differs from s.source")
    q = r.quantale
    tensor, bottom = q.tensor, q.bottom
    acc: Dict[Tuple[int, int], Grade] = {}
    for (i, k), g1 in r.entries().items():
        for j, g2 in s.rows(k):
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


def identity(a: IndexSet, q: Quantale) -> VRel:
    """Diagonal relation: unit on the diagonal, bottom elsewhere."""
    e = q.unit
    return VRel(a, a, q, entries={(i, i): e for i in range(len(a))})


def tensor_rel(r: VRel, s: VRel) -> VRel:
    """Parallel composition over product index sets.

    The only relation kept as a row function: entries of the big product
    matrix are generated row by row only when composition asks for them.
    """
    if r.quantale is not s.quantale:
        raise ShapeMismatchError(
            f"cannot tensor over {r.quantale.name} and {s.quantale.name}")
    q = r.quantale
    source = r.source.tensor(s.source)
    target = r.target.tensor(s.target)
    n_src2, n_tgt2 = len(s.source), len(s.target)
    tensor, bottom = q.tensor, q.bottom

    def row(i: int):
        i1, i2 = divmod(i, n_src2)
        out = []
        for j1, g1 in r.rows(i1):
            for j2, g2 in s.rows(i2):
                g = tensor(g1, g2)
                if g != bottom:
                    out.append((j1 * n_tgt2 + j2, g))
        return out

    return VRel(source, target, q, row_fn=row)


def epsilon(s: IndexSet, q: Quantale) -> VRel:
    """Cup: relates a pair (a, b) to the unit point exactly when a = b."""
    n, e = len(s), q.unit
    return VRel(s.tensor(s), IndexSet.unit(), q,
                entries={(i * n + i, 0): e for i in range(n)})


def eta(s: IndexSet, q: Quantale) -> VRel:
    """Cap: relates the unit point to every diagonal pair (a, a)."""
    n, e = len(s), q.unit
    return VRel(IndexSet.unit(), s.tensor(s), q,
                entries={(0, i * n + i): e for i in range(n)})


def swap(a: IndexSet, b: IndexSet, q: Quantale) -> VRel:
    """Symmetry: (x, y) goes to (y, x) with grade unit."""
    na, nb, e = len(a), len(b), q.unit
    if na * nb > MAX_ENTRIES:
        raise EnumerationLimitError(
            f"swap of {na}x{nb} entries exceeds the entry guard")
    return VRel(a.tensor(b), b.tensor(a), q,
                entries={(i * nb + j, j * na + i): e
                         for i in range(na) for j in range(nb)})


def include(r: CrispRel, q: Quantale) -> VRel:
    """Image of a crisp relation: unit where related, bottom elsewhere."""
    entries = {
        (r.source.position(a), r.target.position(b)): q.unit
        for a, b in r.pairs
    }
    return VRel(r.source, r.target, q, entries=entries)


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
