import math
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


def _grades_of(q):
    return st.sampled_from((0.0, 1.0)) if q.carrier == "boolean" else grades


def _tolerance(q):
    """Gödel and Boolean tensors are min, exact in floats; product and
    Łukasiewicz round."""
    return 0.0 if q is qr.GODEL or q is qr.BOOLEAN else 1e-12


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
@given(data=st.data())
def test_tensor_is_associative(q, data):
    a, b, c = (data.draw(_grades_of(q)) for _ in range(3))
    assert abs(q.tensor(q.tensor(a, b), c) - q.tensor(a, q.tensor(b, c))) <= _tolerance(q)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
@given(data=st.data())
def test_tensor_is_commutative(q, data):
    a, b = (data.draw(_grades_of(q)) for _ in range(2))
    assert q.tensor(a, b) == q.tensor(b, a)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
@given(data=st.data())
def test_tensor_distributes_over_binary_joins(q, data):
    a, b, c = (data.draw(_grades_of(q)) for _ in range(3))
    lhs = q.tensor(q.join([a, b]), c)
    rhs = q.join([q.tensor(a, c), q.tensor(b, c)])
    assert abs(lhs - rhs) <= _tolerance(q)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
@given(data=st.data())
def test_tensor_unit_law_is_exact(q, data):
    """compose's map shortcut moves a grade past a unit unchanged."""
    g = data.draw(_grades_of(q))
    assert q.tensor(g, q.unit) == g == q.tensor(q.unit, g)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
@given(data=st.data())
def test_tensor_is_monotone_in_each_argument(q, data):
    """The narrow layouts let a running max pass through the tensor."""
    a, b, c = (data.draw(_grades_of(q)) for _ in range(3))
    lo, hi = min(a, b), max(a, b)
    assert q.tensor(lo, c) <= q.tensor(hi, c)
    assert q.tensor(c, lo) <= q.tensor(c, hi)


def _adversarial_grades():
    """The 64 floats just below 1, the ten grades round(i/9, 4), the
    hundredths, the float neighbours of all of these, and random draws,
    ascending."""
    below_one = [1.0]
    for _ in range(64):
        below_one.append(math.nextafter(below_one[-1], 0.0))
    base = below_one + [round(i / 9, 4) for i in range(10)] + [i / 100 for i in range(101)]
    near = {math.nextafter(g, d) for g in base for d in (0.0, 1.0)}
    rng = random.Random(23)
    return sorted(set(base) | near | {rng.random() for _ in range(100)})


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
def test_float_tensor_is_monotone_and_distributes_over_max_exactly(q):
    """In floats, with no tolerance: t is monotone in each argument and
    t(max(x, y), z) == max(t(x, z), t(y, z)), on a grid built to break
    rounding (the Lukasiewicz unit shortcut returns z at x = 1 while
    x + z - 1 rounds for x just below 1).  The evaluator's merge step
    joins a factor's grades by max before they meet the next factor's,
    so its values are bit for bit those of the whole joined tensor.
    And t(g, e) <= g, the bound the join's effect step stops on
    (`vrel.merge_effect`): no effect grade lifts a state grade."""
    grid = _adversarial_grades()
    assert len(grid) > 400 and grid[0] == 0.0 and grid[-1] == 1.0
    t = q.tensor
    for z in grid:
        column = [t(x, z) for x in grid]
        assert all(lo <= hi for lo, hi in zip(column, column[1:])), z
        row = [t(z, x) for x in grid]
        assert all(lo <= hi for lo, hi in zip(row, row[1:])), z
        assert all(g <= z for g in row), z
    rng = random.Random(29)
    for _ in range(20_000):
        x, y, z = rng.choice(grid), rng.choice(grid), rng.choice(grid)
        assert t(max(x, y), z) == max(t(x, z), t(y, z)), (x, y, z)


@pytest.mark.parametrize("q", ALL, ids=lambda q: q.name)
@given(data=st.data())
def test_tensor_bottom_absorbs(q, data):
    g = data.draw(_grades_of(q))
    assert q.tensor(g, q.bottom) == q.bottom == q.tensor(q.bottom, g)


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
