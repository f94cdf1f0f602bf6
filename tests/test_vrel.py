import random

import pytest

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
