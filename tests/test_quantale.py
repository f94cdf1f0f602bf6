import random

import pytest
from hypothesis import given, strategies as st

import quantrel as qr

ALL = (qr.GODEL, qr.LUKASIEWICZ, qr.PRODUCT, qr.BOOLEAN)
REAL = (qr.GODEL, qr.LUKASIEWICZ, qr.PRODUCT)

grades = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_tensor_instances():
    assert qr.GODEL.tensor(0.3, 0.7) == 0.3
    assert qr.LUKASIEWICZ.tensor(0.6, 0.7) == pytest.approx(0.3, abs=1e-12)
    assert qr.PRODUCT.tensor(0.5, 0.5) == 0.25
    assert qr.BOOLEAN.tensor(1.0, 0.0) == 0.0


def test_tensor_unit_law_every_instance():
    for q in ALL:
        assert q.tensor(q.unit, 0.42) == pytest.approx(0.42, abs=1e-12)
        assert q.tensor(0.42, q.unit) == pytest.approx(0.42, abs=1e-12)


def test_join_examples():
    assert qr.GODEL.join([0.2, 0.9, 0.5]) == 0.9
    for q in ALL:
        assert q.join([]) == q.bottom
    assert qr.BOOLEAN.join([False, True]) is True


def test_boolean_carrier_validation():
    qr.BOOLEAN.validate(1.0)
    qr.BOOLEAN.validate(False)
    with pytest.raises(qr.QuantrelError):
        qr.BOOLEAN.validate(0.42)
    with pytest.raises(qr.QuantrelError):
        qr.GODEL.validate(1.5)


def test_by_name():
    assert qr.by_name("godel") is qr.GODEL
    assert qr.by_name("Boolean") is qr.BOOLEAN
    with pytest.raises(qr.QuantrelError):
        qr.by_name("heyting")


def test_random_triples_monoid_and_lattice_laws():
    """1000 random triples per instance: associativity, commutativity,
    unit, monotonicity and distributivity over binary joins."""
    rng = random.Random(7)
    for q in ALL:
        pool = (0.0, 1.0) if q.carrier == "boolean" else None
        tol = 0.0 if q is qr.GODEL or q is qr.BOOLEAN else 1e-12
        for _ in range(1000):
            if pool:
                a, b, c = (rng.choice(pool) for _ in range(3))
            else:
                a, b, c = (rng.random() for _ in range(3))
            assert abs(q.tensor(q.tensor(a, b), c) - q.tensor(a, q.tensor(b, c))) <= tol
            assert q.tensor(a, b) == q.tensor(b, a)
            assert q.tensor(a, q.unit) == a
            if a <= b:
                assert q.tensor(a, c) <= q.tensor(b, c)
            lhs = q.tensor(q.join([a, b]), c)
            rhs = q.join([q.tensor(a, c), q.tensor(b, c)])
            assert abs(lhs - rhs) <= tol


@given(grades, grades)
def test_godel_tensor_is_meet(a, b):
    assert qr.GODEL.tensor(a, b) == min(a, b)


@given(grades)
def test_godel_tensor_idempotent(a):
    assert qr.GODEL.tensor(a, a) == a


@given(st.lists(grades, max_size=8))
def test_join_is_least_upper_bound(xs):
    j = qr.GODEL.join(xs)
    assert all(x <= j for x in xs)
    assert j in xs or j == qr.GODEL.bottom


def test_boolean_embeds_logic():
    for a in (0.0, 1.0):
        for b in (0.0, 1.0):
            assert qr.BOOLEAN.tensor(a, b) == float(bool(a) and bool(b))
            assert qr.BOOLEAN.join([a, b]) == float(bool(a) or bool(b))
