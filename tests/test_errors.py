"""Each guard against bad input raises its own exception, and ``Poly2.coeff``
reads inside and outside the stored grid."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bepoly import (
    Poly1, Poly2, bbar, bernoulli_number, bernoulli_poly, bernoulli_shift_sum, euler_at_zero,
    euler_poly, euler_shift_sum, h_pq, harmonic,
)
from bepoly.operators import delta

P1 = Poly1((Fraction(1, 2), 3))
P2 = Poly2(((1, Fraction(2, 3)), (4, 5)))


def _setattr(p):
    p._den = 2


CASES = {
    **{f"{f.__name__}(-1)": (f, (-1,), ValueError, "must be >= 0")
       for f in (bernoulli_number, bernoulli_poly, euler_poly, harmonic, bbar, euler_at_zero)},
    "h_pq q < 0": (h_pq, (3, 1, -1), ValueError, "p and q must be >= 0"),
    "Poly1.monomial(-1)": (Poly1.monomial, (-1,), ValueError, "power must be >= 0"),
    "Poly2.monomial(-1, 0)": (Poly2.monomial, (-1, 0), ValueError, "exponents must be >= 0"),
    "p ** -1": (pow, (P1, -1), ValueError, "nonnegative integer"),
    "p ** 1.5": (pow, (P2, 1.5), ValueError, "nonnegative integer"),
    "Poly1 / 0": (lambda p: p / 0, (P1,), ZeroDivisionError, "division by zero"),
    "Poly2 / 0": (lambda p: p / Fraction(0), (P2,), ZeroDivisionError, "division by zero"),
    "set on Poly1": (_setattr, (P1,), AttributeError, "Poly1 is immutable"),
    "set on Poly2": (_setattr, (P2,), AttributeError, "Poly2 is immutable"),
    "as_poly2 z": (P1.as_poly2, ("z",), ValueError, "axis must be 'x' or 'y', got 'z'"),
    "Poly2.variable z": (Poly2.variable, ("z",), ValueError, "axis must be"),
    "partial z": (P2.partial, ("z",), ValueError, "axis must be"),
    "subst z": (P2.subst, ("z", P2), ValueError, "axis must be"),
    "delta z": (delta, (P2, "z"), ValueError, "axis must be"),
    "subst Poly1": (P2.subst, ("x", P1), TypeError, "must be a Poly2"),
    "bernoulli_shift_sum(0)": (bernoulli_shift_sum, (0,), ValueError, "n must be >= 1"),
    "euler_shift_sum(-1)": (euler_shift_sum, (-1,), ValueError, "n must be >= 0"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_raises(case):
    call, args, exc, message = CASES[case]
    with pytest.raises(exc, match=message):
        call(*args)


def test_poly2_coeff_inside_and_outside_the_grid():
    assert [P2.coeff(i, j) for i in range(2) for j in range(2)] == [1, Fraction(2, 3), 4, 5]
    for i, j in ((2, 0), (0, 2), (-1, 0), (0, -1), (5, 5)):
        assert P2.coeff(i, j) == 0
    assert Poly2().coeff(0, 0) == 0
    assert type(P2.coeff(0, 1)) is Fraction
