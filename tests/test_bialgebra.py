import itertools
import tracemalloc
import types

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


def test_check_monoid_refuses_a_large_object_before_building_it():
    """At 243 subsets the composites of check_monoid have 243^3 source
    positions; the map guard refuses them before allocating any."""
    p = qr.PowersetObject(_universe(5), THREE_G)
    assert len(p) == 243
    with pytest.raises(qr.EnumerationLimitError, match="map of 14348907 source"):
        qr.check_monoid(p, qr.GODEL)


def _associativity_sides(s, q, targets):
    """(mu x id) ; mu and (id x mu) ; mu for the merge map with these
    targets, by compose and by a loop over every (a, b, c)."""
    n, e = len(s), q.unit
    m = qr.VRel(s.tensor(s), s, q, index_map=targets)
    one = qr.identity(s, q)
    composites = (qr.compose(qr.tensor_rel(m, one), m),
                  qr.compose(qr.tensor_rel(one, m), m))
    left, right = {}, {}
    for a, b, c in itertools.product(range(n), repeat=3):
        i = (a * n + b) * n + c
        ab, bc = targets[a * n + b], targets[b * n + c]
        if ab >= 0 and targets[ab * n + c] >= 0:
            left[(i, targets[ab * n + c])] = e
        if bc >= 0 and targets[a * n + bc] >= 0:
            right[(i, targets[a * n + bc])] = e
    return composites, (left, right)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_associativity_composites_match_brute_force_and_can_fail(q):
    """At 27 subsets both sides of the associativity law equal their
    loops, for mu and for two broken copies of it: one with the row
    (full, full) moved to the empty subset, one with that row emptied.
    The broken copies make the two sides differ, so the law can fail."""
    s = qr.PowersetObject(_universe(3), THREE_G).index
    n = len(s)
    targets = [-1] * (n * n)
    for i, j in qr.mu(s, s, s, q).entries():
        targets[i] = j
    assert -1 not in targets
    full = n * n - 1
    moved, emptied = list(targets), list(targets)
    moved[full], emptied[full] = 0, -1
    for t, law_holds in ((targets, True), (moved, False), (emptied, False)):
        (left, right), (brute_left, brute_right) = _associativity_sides(s, q, t)
        assert left.entries() == brute_left and right.entries() == brute_right
        assert left.equal(right) is law_holds


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


def _pairwise_mu(a, b, out, q):
    """mu's definition read pair by pair: one tuple meet and one lookup
    per pair, -1 where out lacks the meet."""
    pos = {m: j for j, m in enumerate(out.elements)}
    return qr.VRel(a.tensor(b), out, q, index_map=[
        pos.get(tuple(map(min, x, y)), -1) for x in a.elements for y in b.elements])


def _counting_meets(monkeypatch):
    calls = []
    meet = qr.PowersetObject.meet

    def counting(a, b):
        calls.append(1)
        return meet(a, b)

    monkeypatch.setattr(qr.PowersetObject, "meet", staticmethod(counting))
    return calls


@pytest.mark.parametrize("size, grades", [
    (1, (0, 1)), (1, (0, 0.3, 0.6, 1)), (2, (0, 0.5, 1)), (3, (0, 0.3, 0.6, 1)),
    (4, (0, 1)), (2, (0, 0.1, 0.25, 0.9, 1)), (6, (0, 1)),
])
def test_mu_on_a_whole_powerset_is_built_by_digit_blocks(size, grades, monkeypatch):
    """On a whole powerset, mu equals the pair-by-pair tuple meet and
    makes no tuple meet at all, on uniform and non-uniform chains."""
    s = qr.PowersetObject(_universe(size), qr.GradeLattice(grades)).index
    expected = _pairwise_mu(s, s, s, qr.GODEL)
    calls = _counting_meets(monkeypatch)
    got = qr.mu(s, s, s, qr.GODEL)
    assert calls == []
    assert got.equal(expected)
    assert -1 not in expected._targets()


def test_mu_on_other_index_sets_falls_back_to_tuple_meets(monkeypatch):
    """A proper subset of P, a permuted P, b over another chain and an
    out that is not a, b: each takes the pair-by-pair meet, so missing
    meets stay empty rows and positions follow each set's own order."""
    p = qr.PowersetObject(_universe(2), THREE_G).index
    other = qr.PowersetObject(_universe(2), qr.GradeLattice([0, 0.3, 1])).index
    part = qr.IndexSet(p.elements[1:])
    permuted = qr.IndexSet(reversed(p.elements))
    calls = _counting_meets(monkeypatch)
    for a, b, out in ((part, part, part), (permuted, permuted, permuted),
                      (p, other, p), (p, p, part)):
        del calls[:]
        got = qr.mu(a, b, out, qr.GODEL)
        assert len(calls) == len(a) * len(b)
        assert got.equal(_pairwise_mu(a, b, out, qr.GODEL))
    assert -1 in _pairwise_mu(part, part, part, qr.GODEL)._targets()
    assert -1 in _pairwise_mu(p, other, p, qr.GODEL)._targets()


def test_mu_guard_fires_before_allocating():
    """2048 subsets give 2048^2 pairs, past MAX_ENTRIES: the guard
    raises before any target list (about 33 MB) is built."""
    s = qr.PowersetObject(_universe(11), BOOL_G).index
    assert len(s) ** 2 > qr.vrel.MAX_ENTRIES
    tracemalloc.start()
    try:
        with pytest.raises(qr.EnumerationLimitError, match="merge of 2048x2048"):
            qr.mu(s, s, s, qr.GODEL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_swap_after_merge_laws(q):
    """The laws the evaluator's swap-after-merge layouts rest on:
    copying then swapping is copying (cocommutativity), and swapping
    then merging is merging (commutativity)."""
    for p in (qr.PowersetObject(_universe(2), THREE_G),
              qr.PowersetObject(_universe(3), qr.GradeLattice([0, 0.3, 0.6, 1]))):
        s = p.index
        sw = qr.swap(s, s, q)
        assert qr.compose(qr.delta(s, q), sw).equal(qr.delta(s, q))
        assert qr.compose(sw, qr.mu(s, s, s, q)).equal(qr.mu(s, s, s, q))


def test_mu_on_one_wide_subset_skips_the_powerset_check(monkeypatch):
    """A restricted wire holds one subset; over 30 entities and two
    grades it is no powerset, and mu tells so from its size alone,
    without enumerating the 2^30 tuples of the powerset it is not."""
    def no_product(*args, **kwargs):
        raise AssertionError("the powerset check enumerated a product")

    monkeypatch.setattr(qr.bialgebra, "itertools",
                        types.SimpleNamespace(chain=itertools.chain, product=no_product))
    s = qr.IndexSet([(0.0, 1.0) * 15])
    got = qr.mu(s, s, s, qr.GODEL)
    assert got.equal(_pairwise_mu(s, s, s, qr.GODEL))
    assert got._targets() == [0]
