import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import quantrel as qr
from conftest import godel_compose_oracle

ALL = (qr.GODEL, qr.LUKASIEWICZ, qr.PRODUCT, qr.BOOLEAN)


def _random_vrel(src, tgt, q, rng, density=0.7):
    pool = (0.0, 1.0) if q.carrier == "boolean" else (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    mapping = {}
    for a in src.elements:
        for b in tgt.elements:
            if rng.random() < density:
                mapping[(a, b)] = rng.choice(pool)
    return qr.VRel.from_dict(src, tgt, q, mapping)


def _random_crisp(src, tgt, rng, density=0.4):
    pairs = [(a, b) for a in src.elements for b in tgt.elements
             if rng.random() < density]
    return qr.CrispRel(src, tgt, pairs)


def _sets(*sizes):
    return [qr.IndexSet([f"e{i}_{j}" for j in range(n)]) for i, n in enumerate(sizes)]


# -- composition -------------------------------------------------------------


def test_compose_2x2_godel_fixture():
    a = qr.IndexSet(["x", "y"])
    r = qr.VRel.from_dict(a, a, qr.GODEL, {("x", "x"): 0.2, ("x", "y"): 0.8,
                                           ("y", "x"): 0.5, ("y", "y"): 0.1})
    s = qr.VRel.from_dict(a, a, qr.GODEL, {("x", "x"): 0.9, ("x", "y"): 0.3,
                                           ("y", "x"): 0.4, ("y", "y"): 0.6})
    expected = godel_compose_oracle(r.to_matrix(), s.to_matrix())
    assert expected[0][0] == 0.4
    assert qr.compose(r, s).to_matrix() == expected
    assert qr.compose(r, s).to_matrix() == [[0.4, 0.6], [0.5, 0.3]]


def test_compose_identity_laws():
    rng = random.Random(1)
    a, b = _sets(3, 4)
    for q in ALL:
        r = _random_vrel(a, b, q, rng)
        assert qr.compose(qr.identity(a, q), r).equal(r)
        assert qr.compose(r, qr.identity(b, q)).equal(r)


def test_boolean_compose_matches_set_composition():
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = _sets(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        r = _random_crisp(a, b, rng)
        s = _random_crisp(b, c, rng)
        expected = {(x, z) for x, y in r.pairs for y2, z in s.pairs if y == y2}
        got = qr.compose(qr.include(r, qr.BOOLEAN), qr.include(s, qr.BOOLEAN))
        related = {(a.elements[i], c.elements[j]) for (i, j) in got.entries()}
        assert related == expected


def test_compose_shape_errors():
    a, b, c = _sets(2, 3, 2)
    r = qr.identity(a, qr.GODEL)
    s = qr.identity(b, qr.GODEL)
    with pytest.raises(qr.ShapeMismatchError):
        qr.compose(r, s)
    with pytest.raises(qr.ShapeMismatchError):
        qr.compose(qr.identity(a, qr.GODEL), qr.identity(a, qr.PRODUCT))


def test_associativity_random_triples():
    rng = random.Random(3)
    for q in ALL:
        tol = 0.0 if q in (qr.GODEL, qr.BOOLEAN) else 1e-12
        for _ in range(200):
            a, b, c, d = _sets(*(rng.randint(1, 4) for _ in range(4)))
            r = _random_vrel(a, b, q, rng)
            s = _random_vrel(b, c, q, rng)
            t = _random_vrel(c, d, q, rng)
            lhs = qr.compose(qr.compose(r, s), t)
            rhs = qr.compose(r, qr.compose(s, t))
            assert lhs.equal(rhs, tol=tol)


# -- identity ---------------------------------------------------------------


def test_identity_examples():
    one = qr.IndexSet(["x"])
    assert qr.identity(one, qr.GODEL).to_matrix() == [[1.0]]
    two = qr.IndexSet(["x", "y"])
    ident = qr.identity(two, qr.GODEL)
    assert ident.to_matrix() == [[1.0, 0.0], [0.0, 1.0]]
    assert qr.compose(ident, ident).equal(ident)


# -- tensor ------------------------------------------------------------------


def test_tensor_of_identities_is_product_identity():
    a, c = _sets(2, 3)
    got = qr.tensor_rel(qr.identity(a, qr.GODEL), qr.identity(c, qr.GODEL))
    assert got.equal(qr.identity(a.tensor(c), qr.GODEL))


def test_tensor_scalar_entries():
    i = qr.IndexSet(["x"])
    r = qr.VRel.from_dict(i, i, qr.GODEL, {("x", "x"): 0.3})
    s = qr.VRel.from_dict(i, i, qr.GODEL, {("x", "x"): 0.7})
    assert qr.tensor_rel(r, s).entries() == {(0, 0): 0.3}


def test_tensor_of_lifted_crisp_is_lift_of_product():
    rng = random.Random(4)
    for _ in range(50):
        a, b, c, d = _sets(*(rng.randint(1, 3) for _ in range(4)))
        r = _random_crisp(a, b, rng)
        s = _random_crisp(c, d, rng)
        product_pairs = {((x, y), (u, v))
                         for (x, u) in r.pairs for (y, v) in s.pairs}
        lifted = qr.tensor_rel(qr.include(r, qr.GODEL), qr.include(s, qr.GODEL))
        got = {(lifted.source.elements[i], lifted.target.elements[j])
               for (i, j) in lifted.entries()}
        assert got == product_pairs


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_tensor_stores_unless_both_factors_are_maps(q):
    """Only a tensor of two maps stays lazy; one with a stored factor
    stores the product's entries, and a lazy tensor of a stored factor
    cannot be built.  The product guard refuses before any entry."""
    rng = random.Random(9)
    a, b, c = _sets(2, 3, 2)
    graded = _random_vrel(a, b, q, rng, density=1.0)
    index_map = qr.swap(c, a, q)
    maps = qr.tensor_rel(index_map, qr.identity(b, q))
    assert maps.is_map() and maps._factors is not None
    assert not hasattr(qr.VRel, "_row_fn")
    for r, s in ((graded, index_map), (index_map, graded), (graded, graded),
                 (maps, graded), (graded, _stored(maps))):
        product = qr.tensor_rel(r, s)
        assert not product.is_map()
        want = {(i1 * len(s.source) + i2, j1 * len(s.target) + j2): q.tensor(g1, g2)
                for (i1, j1), g1 in r.entries().items()
                for (i2, j2), g2 in s.entries().items()}
        assert product.entries() == {k: g for k, g in want.items() if g != q.bottom}
        for pair in ((r, s), (s, r)):
            if not (pair[0].is_map() and pair[1].is_map()):
                with pytest.raises(ValueError):
                    qr.VRel(product.source, product.target, q, factors=pair)
    calls = []
    counting = qr.Quantale("counting", lambda x, y: calls.append((x, y)) or min(x, y))
    big = qr.IndexSet(range(2_000))
    diagonal = qr.VRel(big, big, counting, entries={(i, i): 0.5 for i in range(2_000)})
    with pytest.raises(qr.EnumerationLimitError):
        qr.tensor_rel(diagonal, diagonal)
    assert calls == []


def _around(m, x, y, q):
    """id(x) (x) m (x) id(y), where None stands for the unit."""
    if x is not None:
        m = qr.tensor_rel(qr.identity(x, q), m)
    return m if y is None else qr.tensor_rel(m, qr.identity(y, q))


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_merge_join_equals_its_definition(q):
    """merge_join(r, s, m) is compose(tensor_rel(r, s), id (x) m (x) id)
    entry for entry, with no tolerance: m a merge over a whole powerset,
    a merge into a restricted set that lacks some meets (target -1), and
    a cup, each with and without wires beside the ones it reads."""
    rng = random.Random(17)
    p = qr.PowersetObject(qr.IndexSet(["a", "b"]),
                          qr.GradeLattice((0, 1) if q is qr.BOOLEAN else (0, 0.5, 1))).index
    restricted = qr.IndexSet(p.elements[len(p) // 2:])
    assert any(qr.PowersetObject.meet(x, y) not in restricted
               for x in p.elements for y in p.elements)
    x, y = _sets(2, 3)
    maps = [qr.mu(p, p, p, q), qr.mu(p, p, restricted, q), qr.epsilon(p, q)]
    cases = 0
    for m in maps:
        for left in (None, x):
            for right in (None, y, p):
                for density in (0.3, 1.0):
                    r = _random_vrel(qr.IndexSet.unit(), p if left is None else left.tensor(p),
                                     q, rng, density)
                    s = _random_vrel(qr.IndexSet.unit(), p if right is None else p.tensor(right),
                                     q, rng, density)
                    want = qr.compose(qr.tensor_rel(r, s), _around(m, left, right, q))
                    got = qr.merge_join(r, s, m)
                    assert got.equal(want, tol=0.0) and not got.is_map()
                    cases += bool(want.entries())
    assert cases >= 18
    with pytest.raises(qr.ShapeMismatchError, match="last and first wires"):
        qr.merge_join(r, s, qr.epsilon(x, q))


def _kernel_state(draw, target, q, rng):
    """A state on target: stored entries at a drawn density (grades
    0.1 and 0.25 meet to the Lukasiewicz bottom), or an index map with
    one entry or none."""
    kind = draw(st.sampled_from(("entries", "entries", "map", "empty map")))
    if kind == "entries":
        return _random_vrel(qr.IndexSet.unit(), target, q, rng,
                            draw(st.sampled_from((0.2, 0.6, 1.0))))
    j = rng.randrange(len(target)) if kind == "map" else -1
    return qr.VRel(qr.IndexSet.unit(), target, q, index_map=[j])


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_merge_effect_equals_its_definition(q, data):
    """merge_effect(r, s, m, e) is
    compose(compose(tensor_rel(r, s), id (x) m (x) id), e).scalar(), with
    no tolerance, for m a merge over a whole powerset, a merge into a
    restricted set that lacks some meets, or a cup, with and without
    wires beside the ones it reads; states stored or index maps; effects
    with bottom entries, at the unit or empty.  e is read only inside
    the merged state's support, and, with the stop rule off, at every
    position of it."""
    draw = data.draw
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = qr.PowersetObject(qr.IndexSet(["a", "b"]),
                          qr.GradeLattice((0, 1) if q is qr.BOOLEAN else (0, 0.5, 1))).index
    restricted = qr.IndexSet(p.elements[len(p) // 2:])
    x, y = _sets(2, 3)
    m = draw(st.sampled_from((qr.mu(p, p, p, q), qr.mu(p, p, restricted, q),
                              qr.epsilon(p, q))))
    left, right = draw(st.sampled_from((None, x))), draw(st.sampled_from((None, y, p)))
    r = _kernel_state(draw, p if left is None else left.tensor(p), q, rng)
    s = _kernel_state(draw, p if right is None else p.tensor(right), q, rng)
    joined = qr.compose(qr.tensor_rel(r, s), _around(m, left, right, q))
    unit = qr.IndexSet.unit()
    e = draw(st.sampled_from(("random", "unit", "empty")))
    if e == "random":
        e = _random_vrel(joined.target, unit, q, rng, draw(st.sampled_from((0.3, 0.7, 1.0))))
    else:
        e = qr.VRel(joined.target, unit, q, entries={
            (j, 0): 1.0 for j in range(len(joined.target)) if e == "unit"})
    stop = draw(st.booleans())
    grades, reads = e.entries(), []

    def read(k):
        reads.append(k)
        return grades.get((k, 0), q.bottom)

    got = qr.merge_effect(r, s, m, read, stop)
    assert got == qr.compose(joined, e).scalar()
    support = {k for _, k in joined.entries()}
    assert set(reads) <= support
    if not stop:
        assert set(reads) == support


def test_merge_effect_stops_early_and_checks_its_map():
    """Against the unit effect the first pair that lands settles the
    join: over a cup of two full states on 9 subsets the kernel reads
    the effect once, where the merged state has 9 positions' worth of
    pairs; a map that does not read the states' facing wires is
    refused."""
    q = qr.GODEL
    p = qr.PowersetObject(qr.IndexSet(["a", "b"]), qr.GradeLattice((0, 0.5, 1))).index
    unit = qr.IndexSet.unit()
    full = qr.VRel(unit, p, q, entries={(0, j): 1.0 for j in range(len(p))})
    reads = []
    assert qr.merge_effect(full, full, qr.epsilon(p, q),
                           lambda k: reads.append(k) or 1.0) == 1.0
    assert reads == [0]
    x, = _sets(2)
    with pytest.raises(qr.ShapeMismatchError, match="last and first wires"):
        qr.merge_effect(full, full, qr.epsilon(x, q), lambda k: 1.0)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_merge_join_guard_is_the_tensor_guard(q, monkeypatch):
    """merge_join and merge_effect refuse exactly the pairs of states,
    stored or maps, whose tensor `tensor_rel` refuses to store."""
    s = qr.IndexSet(range(12))
    m = qr.epsilon(s, q)
    monkeypatch.setattr(qr.vrel, "MAX_ENTRIES", 40)
    unit = qr.IndexSet.unit()
    states = [qr.VRel(unit, s, q, entries={(0, j): 1.0 for j in range(n)})
              for n in (0, 1, 3, 4, 5, 8, 10, 12)]
    states += [qr.VRel(unit, s, q, index_map=[7]), qr.VRel(unit, s, q, index_map=[-1])]
    refused = 0
    for r in states:
        for t in states:
            try:
                qr.tensor_rel(r, t)
            except qr.EnumerationLimitError:
                refused += 1
                with pytest.raises(qr.EnumerationLimitError):
                    qr.merge_join(r, t, m)
                with pytest.raises(qr.EnumerationLimitError):
                    qr.merge_effect(r, t, m, lambda k: 1.0)
            else:
                assert qr.merge_join(r, t, m).equal(
                    qr.compose(qr.tensor_rel(r, t), m))
                assert qr.merge_effect(r, t, m, lambda k: 1.0) == (
                    qr.compose(qr.tensor_rel(r, t), m).scalar())
    assert 0 < refused < len(states) ** 2


def test_interchange_law():
    rng = random.Random(5)
    for q in ALL:
        tol = 0.0 if q in (qr.GODEL, qr.BOOLEAN) else 1e-12
        for _ in range(60):
            a, b, c = _sets(*(rng.randint(1, 3) for _ in range(3)))
            d, e, f = _sets(*(rng.randint(1, 3) for _ in range(3)))
            r = _random_vrel(a, b, q, rng)
            r2 = _random_vrel(b, c, q, rng)
            s = _random_vrel(d, e, q, rng)
            s2 = _random_vrel(e, f, q, rng)
            lhs = qr.compose(qr.tensor_rel(r, s), qr.tensor_rel(r2, s2))
            rhs = qr.tensor_rel(qr.compose(r, r2), qr.compose(s, s2))
            assert lhs.equal(rhs, tol=tol)


# -- cups and caps ------------------------------------------------------------


def test_epsilon_eta_small():
    one = qr.IndexSet(["x"])
    assert qr.epsilon(one, qr.GODEL).to_matrix() == [[1.0]]
    two = qr.IndexSet(["x", "y"])
    eps = qr.epsilon(two, qr.GODEL)
    assert eps.entry(("x", "y"), "*") == 0.0
    assert eps.entry(("x", "x"), "*") == 1.0
    eta = qr.eta(two, qr.GODEL)
    assert eta.entry("*", ("y", "y")) == 1.0
    assert eta.entry("*", ("x", "y")) == 0.0


def test_snake_identities():
    for n in range(1, 7):
        s = qr.IndexSet([f"s{i}" for i in range(n)])
        for q in ALL:
            assert qr.check_snake(s, q)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_snake_composites_see_a_broken_cup_or_cap(q):
    """Each snake side, built as `snake_identities` builds it, composes a
    stored cap tensor against a tensor of maps holding the cup, and is
    the identity; with one diagonal target of the cup set to -1, or one
    grade of the cap lowered, it differs from the identity there."""
    s = _sets(3)[0]
    x = s.elements[1]
    one, cup, cap = qr.identity(s, q), qr.epsilon(s, q), qr.eta(s, q)
    targets = list(cup._targets())
    targets[s.position(x) * (len(s) + 1)] = -1
    broken_cup = qr.VRel(cup.source, cup.target, q, index_map=targets)
    low = q.bottom if q is qr.BOOLEAN else 0.5
    grades = {k: low if k == (0, s.position(x) * (len(s) + 1)) else g
              for k, g in cap.entries().items()}
    broken_cap = qr.VRel(cap.source, cap.target, q,
                         entries={k: g for k, g in grades.items() if g != q.bottom})

    def left(eta, eps):
        return qr.compose(qr.tensor_rel(eta, one), qr.tensor_rel(one, eps))

    def right(eta, eps):
        return qr.compose(qr.tensor_rel(one, eta), qr.tensor_rel(eps, one))

    assert qr.tensor_rel(one, cup).is_map() and qr.tensor_rel(cup, one).is_map()
    for side in (left, right):
        assert side(cap, cup).equal(one)
        for eta, eps, grade in ((cap, broken_cup, q.bottom), (broken_cap, cup, low)):
            composite = side(eta, eps)
            assert not composite.equal(one)
            assert composite.entry(x, x) == grade
            assert all(composite.entry(y, y) == q.unit for y in s.elements if y != x)


def test_snake_guard():
    big = qr.IndexSet([f"s{i}" for i in range(65)])
    with pytest.raises(qr.EnumerationLimitError):
        qr.check_snake(big, qr.GODEL)


# -- inclusion functor ---------------------------------------------------------


def test_include_identity_and_empty():
    a = _sets(3)[0]
    assert qr.include(qr.CrispRel.identity(a), qr.GODEL).equal(qr.identity(a, qr.GODEL))
    empty = qr.CrispRel(a, a, [])
    assert qr.include(empty, qr.GODEL).support() == 0


def test_include_functoriality_random():
    rng = random.Random(6)
    for q in ALL:
        for _ in range(100):
            a, b, c = _sets(*(rng.randint(1, 4) for _ in range(3)))
            r = _random_crisp(a, b, rng)
            s = _random_crisp(b, c, rng)
            composed = {(x, z) for x, y in r.pairs for y2, z in s.pairs if y == y2}
            direct = qr.include(qr.CrispRel(a, c, composed), q)
            staged = qr.compose(qr.include(r, q), qr.include(s, q))
            assert staged.equal(direct)


# -- swap ----------------------------------------------------------------------


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_cup_and_coname_of_a_map_are_maps(q):
    """The cup, and the coname of a map (a list with -1 rows or a tensor
    of maps), is a map with the entries of the stored coname."""
    rng = random.Random(41)
    a, b, c = _sets(3, 2, 3)
    assert qr.epsilon(a, q).is_map()
    partial = qr.VRel(a, b, q, index_map=[1, -1, 0])
    for r in (qr.identity(a, q), partial, _random_map(a.tensor(b), c, q, rng),
              qr.tensor_rel(partial, qr.swap(b, c, q)),
              qr.tensor_rel(qr.identity(c, q), partial)):
        conamed = qr.coname(r)
        assert conamed.is_map()
        assert conamed.entries() == qr.coname(_stored(r)).entries()


def test_cup_entry_guard():
    """A cup of more than MAX_ENTRIES positions is refused before its
    target list is built: 1414^2 positions fit, 1415^2 do not."""
    import tracemalloc

    assert 1414 ** 2 <= qr.vrel.MAX_ENTRIES < 1415 ** 2
    assert qr.epsilon(qr.IndexSet(range(1414)), qr.GODEL).support() == 1414
    big = qr.IndexSet(range(1415))
    for q in ALL:
        tracemalloc.start()
        try:
            with pytest.raises(qr.EnumerationLimitError, match="1415x1415"):
                qr.epsilon(big, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_tensor_with_one_map_factor_copies_grades(q):
    """A tensor of a map and a graded relation, in either order, stores
    the graded factor's grades unchanged and calls no quantale tensor;
    its entries are the q.tensor product all the same.  The guard counts
    the map's source positions times the graded entries and fires first."""
    calls = []
    counting = qr.Quantale("counting", lambda x, y: calls.append((x, y)) or q.tensor(x, y),
                           q.carrier)
    rng = random.Random(43)
    a, b, c = _sets(2, 3, 2)
    graded = _random_vrel(a, b, counting, rng, density=1.0)
    partial = qr.VRel(c, a, counting, index_map=[1, -1])
    for m in (partial, qr.tensor_rel(qr.swap(a, c, counting), partial)):
        for r, s in ((m, graded), (graded, m)):
            product = qr.tensor_rel(r, s)
            assert calls == [] and not product.is_map()
            want = {(i1 * len(s.source) + i2, j1 * len(s.target) + j2): q.tensor(g1, g2)
                    for (i1, j1), g1 in r.entries().items()
                    for (i2, j2), g2 in s.entries().items()}
            assert product.entries() == {k: g for k, g in want.items() if g != q.bottom}
    big = qr.IndexSet(range(2_000))
    column = qr.VRel(big, c, counting, entries={(i, 0): 0.5 for i in range(1_001)})
    for pair in ((qr.identity(big, counting), column), (column, qr.identity(big, counting))):
        with pytest.raises(qr.EnumerationLimitError, match="2000 by 1001"):
            qr.tensor_rel(*pair)


def test_swap_involution():
    a, b = _sets(2, 3)
    sw = qr.swap(a, b, qr.GODEL)
    back = qr.swap(b, a, qr.GODEL)
    assert qr.compose(sw, back).equal(qr.identity(a.tensor(b), qr.GODEL))


def test_swap_entry_guard():
    a = qr.IndexSet(range(2_000))
    b = qr.IndexSet(range(qr.vrel.MAX_ENTRIES // 2_000 + 1))
    with pytest.raises(qr.EnumerationLimitError):
        qr.swap(a, b, qr.GODEL)


# -- index maps ----------------------------------------------------------------


def _stored(r):
    """The same relation re-stored as plain entries."""
    return qr.VRel(r.source, r.target, r.quantale, entries=dict(r.entries()))


def _random_map(src, tgt, q, rng):
    """A random partial function src -> tgt as an index map."""
    return qr.VRel(src, tgt, q,
                   index_map=[rng.randrange(-1, len(tgt)) for _ in range(len(src))])


def _map_cases(q, form):
    """Every map generator, partial ones included, and nested and partial
    tensors of them; `form` is applied to each generator first.  The
    last two put a partial merge, whose targets repeat and include -1,
    on either side of an identity, as the associativity law does."""
    three = qr.PowersetObject(_sets(2)[0], qr.GradeLattice([0, 0.5, 1]))
    p = qr.PowersetObject(_sets(1)[0], qr.GradeLattice([0, 0.5, 1]))
    s, crisp = p.index, qr.IndexSet([(0.0,), (1.0,)])
    a, b = _sets(2, 3)
    gens = [form(g) for g in (
        qr.identity(a, q), qr.swap(a, b, q),
        qr.delta(three.index, q), qr.mu(three.index, three.index, three.index, q),
        qr.mu(s, s, crisp, q), qr.mu(crisp, s, crisp, q), qr.iota(p, q), qr.zeta(p, q))]
    ident, sw, _, _, partial_mu, partial_mu2, iota, zeta = gens
    return gens + [
        qr.tensor_rel(sw, partial_mu2),
        qr.tensor_rel(qr.tensor_rel(partial_mu2, partial_mu), iota),
        qr.tensor_rel(zeta, qr.tensor_rel(ident, partial_mu)),
        qr.tensor_rel(qr.tensor_rel(iota, zeta), qr.tensor_rel(partial_mu, sw)),
        qr.tensor_rel(partial_mu, ident),
        qr.tensor_rel(ident, partial_mu),
    ]


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_map_forms_match_stored_entries(q):
    """Each map case, built fresh for every use so that a tensor is read
    through its factors, composes on either side with graded relations,
    maps and tensors holding a map exactly as its stored copy does."""
    rng = random.Random(8)
    x, y, one = *_sets(3, 2), qr.IndexSet.unit()
    scalar = qr.VRel.from_dict(one, one, q, {("*", "*"): 1.0 if q is qr.BOOLEAN else 0.75})
    for k, ref in enumerate(_map_cases(q, _stored)):
        def fresh():
            return _map_cases(q, lambda g: g)[k]

        assert fresh().is_map() and not ref.is_map()
        assert fresh().entries() == ref.entries()
        assert fresh().support() == ref.support()
        r_map, s_map = _random_map(x, ref.source, q, rng), _random_map(ref.target, y, q, rng)
        graded = _random_vrel(x, ref.source, q, rng)
        ins = [(graded, graded), (r_map, _stored(r_map)),
               (qr.tensor_rel(scalar, r_map), qr.tensor_rel(scalar, _stored(r_map)))]
        graded = _random_vrel(ref.target, y, q, rng)
        outs = [(graded, graded), (s_map, _stored(s_map)),
                (qr.tensor_rel(s_map, scalar), qr.tensor_rel(_stored(s_map), scalar))]
        for r, r_ref in ins:
            assert qr.compose(r, fresh()).entries() == qr.compose(r_ref, ref).entries()
        for s, s_ref in outs:
            assert qr.compose(fresh(), s).entries() == qr.compose(ref, s_ref).entries()


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_entry_of_a_map_reads_one_target(q, monkeypatch):
    """entry() on a map with a -1 row, a tensor of maps and the cup
    equals the entries() view at every element pair, without building
    that view."""
    a, b = _sets(3, 2)
    partial = qr.VRel(a, b, q, index_map=[1, -1, 0])
    cases = [partial, qr.tensor_rel(partial, qr.swap(b, a, q)), qr.epsilon(a, q)]
    wants = [{(x, y): r.entries().get((i, j), q.bottom)
              for i, x in enumerate(r.source.elements)
              for j, y in enumerate(r.target.elements)} for r in cases]
    assert all(any(g == q.bottom for g in want.values()) for want in wants)
    monkeypatch.setattr(qr.VRel, "entries", None)
    for r, want in zip(cases, wants):
        assert {pair: r.entry(*pair) for pair in want} == want


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_map_equal_across_forms(q):
    """A map differs from itself with one row emptied or moved, in
    either form of the other operand."""
    for m in _map_cases(q, lambda g: g):
        targets = [-1] * len(m.source)
        for i, j in m.entries():
            targets[i] = j
        i = next(k for k, j in enumerate(targets) if j >= 0)
        changed = [targets[:i] + [-1] + targets[i + 1:]]
        if len(m.target) > 1:
            moved = (targets[i] + 1) % len(m.target)
            changed.append(targets[:i] + [moved] + targets[i + 1:])
        for t in changed:
            near = qr.VRel(m.source, m.target, q, index_map=t)
            for other in (near, _stored(near)):
                assert not m.equal(other) and not other.equal(m)
        assert m.equal(_stored(m), tol=1e-9)


def _bent_cases(q, rng):
    """Relations X -> Y to bend: partial graded ones over atomic,
    product and unit index sets, and an index map."""
    a, b, c, d = _sets(2, 3, 4, 1)
    one = qr.IndexSet.unit()
    pairs = [(a, c), (a.tensor(b), c), (c, a.tensor(b)), (a.tensor(b), c.tensor(d)),
             (b.tensor(c), a.tensor(b)), (one, c), (a, one)]
    cases = [_random_vrel(x, y, q, rng, density=0.5) for x, y in pairs]
    cases.append(_random_map(b.tensor(a), c, q, rng))
    return cases


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_name_and_coname_match_their_composites(q):
    """name(r) = eta(X) ; (id(X) x r) and coname(r) = (r x id(Y)) ; eps(Y),
    entry for entry; both keep r's grades at the (x, y) pairs."""
    rng = random.Random(21)
    for r in _bent_cases(q, rng):
        x, y = r.source, r.target
        named = qr.name(r)
        assert named.source.is_unit() and named.target == x.tensor(y)
        composite = qr.compose(qr.eta(x, q), qr.tensor_rel(qr.identity(x, q), r))
        assert named.entries() == composite.entries()
        assert named.equal(composite)
        conamed = qr.coname(r)
        assert conamed.source == x.tensor(y) and conamed.target.is_unit()
        composite = qr.compose(qr.tensor_rel(r, qr.identity(y, q)), qr.epsilon(y, q))
        assert conamed.entries() == composite.entries()
        assert conamed.equal(composite)
        for k, pair in enumerate(x.tensor(y).elements):
            want = r.entries().get(divmod(k, len(y)), q.bottom)
            assert named.entry("*", pair) == want
            assert conamed.entry(pair, "*") == want


def test_crisp_rel_validates_pairs():
    a, b = _sets(2, 2)
    with pytest.raises(qr.ShapeMismatchError):
        qr.CrispRel(a, b, [("e0_0", "nope")])
    with pytest.raises(qr.ShapeMismatchError):
        qr.CrispRel.identity(a).compose(qr.CrispRel.identity(b))


def test_product_set_row_major_order():
    a = qr.IndexSet(["x", "y"])
    b = qr.IndexSet(["1", "2"])
    assert a.tensor(b).elements == (("x", "1"), ("x", "2"), ("y", "1"), ("y", "2"))
    assert qr.IndexSet.unit().tensor(a) is a
    nested_left = (a.tensor(b)).tensor(a)
    nested_right = a.tensor(b.tensor(a))
    assert nested_left == nested_right
    assert nested_left.elements == nested_right.elements


def test_product_positions_match_enumeration():
    """A product's elements, positions and membership are mixed-radix
    arithmetic over its leaves; they match a brute-force enumeration,
    whatever the nesting and wherever the unit is absorbed."""
    rng = random.Random(31)
    unit = qr.IndexSet.unit()
    for _ in range(60):
        atoms = _sets(*(rng.randint(1, 4) for _ in range(rng.randint(2, 4))))
        factors = list(atoms)
        for _ in range(rng.randint(0, 2)):
            factors.insert(rng.randint(0, len(factors)), unit)
        left = right = unit
        for f in factors:
            left = left.tensor(f)
        for f in reversed(factors):
            right = f.tensor(right)
        expected = list(itertools.product(*(a.elements for a in atoms)))
        for p in (left, right):
            assert p == left and len(p) == len(expected)
            assert p.elements == tuple(expected)
            for k, element in enumerate(expected):
                assert p.position(element) == k and element in p
            foreign = [expected[0][:-1], expected[0] + expected[0][-1:],
                       ("nope",) + expected[0][1:], "".join(expected[0]), None]
            for element in foreign:
                assert element not in p
                with pytest.raises(KeyError):
                    p.position(element)
        a, b, c = atoms[0], atoms[1], atoms[-1]
        assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))


def _slot_snapshot(value):
    """(object, slot, held object) for every slot of value and of every
    relation or index set reachable through its slots."""
    snapshot, todo, seen = [], [value], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for slot in type(obj).__slots__:
            held = getattr(obj, slot, None)
            snapshot.append((obj, slot, held))
            parts = held if isinstance(held, tuple) else (held,)
            todo.extend(x for x in parts if isinstance(x, (qr.VRel, qr.IndexSet)))
    return snapshot


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_reads_write_no_slot(q):
    """Reading a relation or an index set stores nothing: after entries,
    support, equal, scalar, compose on either side, position and `in`,
    every slot holds the very object it held before."""
    rng = random.Random(37)
    a, b, c = _sets(2, 3, 2)
    one = qr.IndexSet.unit()
    stored = _random_vrel(a, b, q, rng)
    index_map = _random_map(a, b, q, rng)
    maps = qr.tensor_rel(qr.swap(a, c, q), qr.identity(b, q))
    mixed = qr.tensor_rel(_random_vrel(c, c, q, rng), index_map)
    product = a.tensor(b).tensor(c)
    values = (stored, index_map, maps, mixed, product)
    before = [_slot_snapshot(v) for v in values]
    for r in values[:-1]:
        r.entries()
        r.support()
        r.equal(r)
        r.equal(_stored(r), tol=1e-9)
        state = _random_vrel(one, r.source, q, rng, density=1.0)
        effect = _random_vrel(r.target, one, q, rng, density=1.0)
        qr.compose(qr.compose(state, r), effect).scalar()
        qr.compose(state, qr.compose(r, effect)).scalar()
        qr.compose(qr.identity(r.source, q), r)
        qr.compose(r, qr.identity(r.target, q))
    for s in (product, maps.source, mixed.target):
        for element in s.elements:
            assert s.position(element) >= 0 and element in s
    for v, snapshot in zip(values, before):
        assert [(o, slot) for o, slot, _ in snapshot] == \
            [(o, slot) for o, slot, _ in _slot_snapshot(v)]
        for obj, slot, held in snapshot:
            assert getattr(obj, slot, None) is held, (v, slot)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_reads_refuse_writes(q):
    """The entries a relation hands out and the rows of a fuzzy relation
    are read-only: writing to them raises and leaves the value whole."""
    one = qr.IndexSet.unit()
    r = qr.VRel.from_dict(one, one, q, {("*", "*"): 1.0})
    index_map = qr.identity(_sets(2)[0], q)
    for rel in (r, index_map):
        before = dict(rel.entries())
        with pytest.raises(TypeError):
            rel.entries()[(0, 0)] = 0.5
        with pytest.raises(TypeError):
            del rel.entries()[(0, 0)]
        assert rel.entries() == before
    assert r.scalar() == 1.0
    u = qr.IndexSet(["a", "b"])
    verb = qr.FuzzyRelation(u, {("a", "b"): 0.5})
    with pytest.raises(AttributeError):
        verb.rows[0].append((1, 3.0))
    with pytest.raises(TypeError):
        verb.rows[1] = ((0, 3.0),)
    assert verb.rows == (((1, 0.5),), ()) and verb.pairs == {("a", "b"): 0.5}
