"""Commutative quantales over the unit interval.

A quantale here is the unit interval [0, 1] (or its two-element Boolean
restriction) ordered as usual, with join = max and a commutative,
monotone tensor that has unit 1 and distributes over finite joins.
Four instances are provided; they are the only ones the rest of the
package uses:

    godel        tensor = min
    lukasiewicz  tensor = max(0, a + b - 1)
    product      tensor = a * b
    boolean      tensor = min restricted to {0, 1}

Grades are plain floats; Python bools are accepted and behave as 0/1.
All operations are pure, so instances are safe to share across threads.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import QuantrelError

Grade = float


class Quantale:
    """One fixed commutative quantale instance.

    `tensor` is the binary tensor function itself, called as
    `q.tensor(a, b)`.  It is total on [0,1] x [0,1] even for the Boolean
    instance; `validate` is what enforces the carrier restriction.
    """

    __slots__ = ("name", "tensor", "carrier")

    def __init__(self, name: str, tensor: Callable[[Grade, Grade], Grade],
                 carrier: str = "unit-interval"):
        self.name = name
        self.tensor = tensor
        self.carrier = carrier

    unit: Grade = 1.0
    bottom: Grade = 0.0

    def join(self, grades: Iterable[Grade]) -> Grade:
        """Least upper bound of a finite family; empty family gives bottom."""
        return max(grades, default=self.bottom)

    def validate(self, g) -> Grade:
        """g as a float; QuantrelError unless it is a number in [0, 1],
        and 0 or 1 on the Boolean carrier (bools are ints, so they pass)."""
        if not (isinstance(g, (int, float)) and 0.0 <= g <= 1.0
                and (self.carrier != "boolean" or g in (0.0, 1.0))):
            raise QuantrelError(f"{g!r} is not a grade of the {self.name} quantale")
        return float(g)

    def __repr__(self):
        return f"Quantale({self.name!r})"


def _lukasiewicz_tensor(a: Grade, b: Grade) -> Grade:
    # max(0, a+b-1), with the unit law kept float-exact: a+1.0-1.0 can
    # lose the last bit of a.
    if a == 1.0:
        return b
    if b == 1.0:
        return a
    return max(0.0, a + b - 1.0)


GODEL = Quantale("godel", min)
LUKASIEWICZ = Quantale("lukasiewicz", _lukasiewicz_tensor)
PRODUCT = Quantale("product", lambda a, b: a * b)
BOOLEAN = Quantale("boolean", min, carrier="boolean")

INSTANCES = {q.name: q for q in (GODEL, LUKASIEWICZ, PRODUCT, BOOLEAN)}


def by_name(name: str) -> Quantale:
    """Look a quantale up by its lexicon/CLI name string."""
    try:
        return INSTANCES[name.lower()]
    except KeyError:
        raise QuantrelError(
            f"unknown quantale {name!r}; choose from {sorted(INSTANCES)}"
        ) from None

