import itertools

import pytest

import quantrel as qr
from quantrel.semantics import Model, _atom_vrel, _eps

ALL = (qr.GODEL, qr.LUKASIEWICZ, qr.PRODUCT, qr.BOOLEAN)
BOOL_G = qr.GradeLattice([0, 1])
THREE_G = qr.GradeLattice([0, 0.5, 1])


def _universe(n):
    return qr.IndexSet([f"u{i + 1}" for i in range(n)])


def test_grade_lattice_validation():
    assert qr.GradeLattice([1, 0.5, 0, 0.5]).grades == (0.0, 0.5, 1.0)
    with pytest.raises(qr.QuantrelError):
        qr.GradeLattice([0, 0.5])
    with pytest.raises(qr.QuantrelError):
        qr.GradeLattice([0, 1, 1.5])


def test_enumeration_is_deterministic_and_lexicographic():
    p = qr.PowersetObject(_universe(2), THREE_G)
    assert len(p) == 9
    assert p.enumeration[0] == (0.0, 0.0)
    assert p.enumeration[1] == (0.0, 0.5)
    assert p.enumeration[3] == (0.5, 0.0)
    assert p.enumeration[-1] == (1.0, 1.0)
    again = qr.PowersetObject(_universe(2), THREE_G)
    assert again.enumeration == p.enumeration


def test_boolean_lattice_gives_crisp_powerset():
    p = qr.PowersetObject(_universe(3), BOOL_G)
    assert len(p) == 8
    supports = {frozenset(u for u, g in zip(p.universe.elements, member) if g == 1.0)
                for member in p.enumeration}
    expected = {frozenset(c) for r in range(4)
                for c in itertools.combinations(p.universe.elements, r)}
    assert supports == expected


def test_enumeration_guard():
    with pytest.raises(qr.EnumerationLimitError):
        qr.PowersetObject(_universe(20), THREE_G)


def test_delta_entries():
    p = qr.PowersetObject(_universe(1), BOOL_G)
    d = qr.delta(p.index, qr.GODEL)
    full, empty = (1.0,), (0.0,)
    assert d.entry(full, (full, full)) == 1.0
    assert d.entry(full, (full, empty)) == 0.0
    assert d.entry(empty, (empty, empty)) == 1.0


def test_mu_entries():
    p = qr.PowersetObject(_universe(2), BOOL_G)
    m = qr.mu(p.index, p.index, p.index, qr.GODEL)
    a, b = (1.0, 0.0), (0.0, 1.0)
    assert m.entry((a, a), a) == 1.0
    assert m.entry((a, b), (0.0, 0.0)) == 1.0
    assert m.entry((a, b), a) == 0.0

    fuzzy = qr.PowersetObject(_universe(1), THREE_G)
    mf = qr.mu(fuzzy.index, fuzzy.index, fuzzy.index, qr.GODEL)
    assert mf.entry(((0.5,), (1.0,)), (0.5,)) == 1.0


def test_iota_and_zeta_entries():
    p = qr.PowersetObject(_universe(2), THREE_G)
    i = qr.iota(p, qr.GODEL)
    assert len(p) == 9
    assert all(i.entry(member, "*") == 1.0 for member in p.enumeration)
    z = qr.zeta(p, qr.GODEL)
    assert z.entry("*", (1.0, 1.0)) == 1.0
    assert z.support() == 1


def test_bialgebra_spot_checks():
    assert qr.check_bialgebra(qr.PowersetObject(_universe(2), BOOL_G), qr.BOOLEAN).all_pass
    assert qr.check_bialgebra(qr.PowersetObject(_universe(2), THREE_G), qr.GODEL).all_pass
    assert qr.check_bialgebra(qr.PowersetObject(_universe(1), BOOL_G), qr.LUKASIEWICZ).all_pass


def test_comonoid_and_monoid_laws():
    p = qr.PowersetObject(_universe(2), BOOL_G)
    for q in ALL:
        assert qr.check_comonoid(p, q).all_pass
        assert qr.check_monoid(p, q).all_pass


def test_generators_are_inclusion_images_for_boolean_lattice():
    """With the crisp lattice every structural map equals the lifted
    crisp relation defined by the same condition."""
    p = qr.PowersetObject(_universe(2), BOOL_G)
    s = p.index
    q = qr.GODEL

    crisp_delta = qr.CrispRel(s, s.tensor(s), ((a, (a, a)) for a in s.elements))
    assert qr.include(crisp_delta, q).equal(qr.delta(p.index, q))

    meet = qr.PowersetObject.meet
    crisp_mu = qr.CrispRel(s.tensor(s), s,
                           (((a, b), meet(a, b))
                            for a in s.elements for b in s.elements))
    assert qr.include(crisp_mu, q).equal(qr.mu(s, s, s, q))

    unit = qr.IndexSet.unit()
    crisp_iota = qr.CrispRel(s, unit, ((a, "*") for a in s.elements))
    assert qr.include(crisp_iota, q).equal(qr.iota(p, q))

    crisp_zeta = qr.CrispRel(unit, s, (("*", p.full()),))
    assert qr.include(crisp_zeta, q).equal(qr.zeta(p, q))

    assert qr.include(qr.CrispRel.identity(s), q).equal(qr.identity(s, q))

    t = qr.IndexSet(["x", "y", "z"])
    crisp_swap = qr.CrispRel(s.tensor(t), t.tensor(s),
                             (((a, b), (b, a)) for a in s.elements for b in t.elements))
    assert qr.include(crisp_swap, q).equal(qr.swap(s, t, q))

    crisp_eps = qr.CrispRel(s.tensor(s), unit, (((a, a), "*") for a in s.elements))
    assert qr.include(crisp_eps, q).equal(qr.epsilon(s, q))

    crisp_eta = qr.CrispRel(unit, s.tensor(s), (("*", (a, a)) for a in s.elements))
    assert qr.include(crisp_eta, q).equal(qr.eta(s, q))


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_generalized_generators(q):
    """mu drops meets its target lacks, equals the lifted crisp meet on
    a whole powerset, and the evaluator's eps needs one index set."""
    a = qr.IndexSet([(1.0, 0.0)])
    b = qr.IndexSet([(0.0, 1.0), (1.0, 1.0)])
    restricted = qr.mu(a, b, a, q)
    assert restricted.entries() == {(1, 0): q.unit}
    assert restricted.entry(((1.0, 0.0), (0.0, 1.0)), (1.0, 0.0)) == q.bottom

    s = qr.PowersetObject(_universe(2), THREE_G).index
    crisp_mu = qr.CrispRel(s.tensor(s), s,
                           (((x, y), qr.PowersetObject.meet(x, y))
                            for x in s.elements for y in s.elements))
    assert qr.include(crisp_mu, q).equal(qr.mu(s, s, s, q))

    model = Model(_universe(2), quantale=q)
    with pytest.raises(qr.ShapeMismatchError):
        _atom_vrel(_eps("F", "G"), model, {"F": a, "G": b}, None)
    assert _atom_vrel(_eps("F", "G"), model, {"F": b, "G": b}, None).equal(
        qr.epsilon(b, q))


def test_report_lookup():
    rep = qr.check_bialgebra(qr.PowersetObject(_universe(1), BOOL_G), qr.GODEL)
    assert rep["copy-merge-compatibility"] is True
    with pytest.raises(KeyError):
        rep["no-such-law"]
