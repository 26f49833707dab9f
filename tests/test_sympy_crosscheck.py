"""Cross-check of the exact sequences against sympy (a test-only extra).

sympy's own algorithms are independent of bepoly's routes: B_n, B_n(x),
E_n(x) and H_n must agree exactly.  Since sympy 1.12, B_1 = +1/2 there,
against B_1 = -1/2 here.  Polynomials are compared at every n up to 20
and at a few larger n up to 120, because sympy takes O(n^2) rational
steps per polynomial without reusing earlier ones.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.appellseqs import bernoulli_poly as sympy_bernoulli_poly  # noqa: E402
from sympy.polys.appellseqs import euler_poly as sympy_euler_poly  # noqa: E402

from bepoly import bernoulli_number, bernoulli_poly, euler_poly, harmonic  # noqa: E402

X = sympy.Symbol("x")
POLY_NS = list(range(21)) + [37, 64, 99, 120]


def as_fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def ascending(poly) -> tuple[Fraction, ...]:
    return tuple(as_fraction(c) for c in reversed(poly.all_coeffs()))


def test_bernoulli_numbers_match_sympy():
    for n in range(201):
        expected = as_fraction(sympy.bernoulli(n))
        assert bernoulli_number(n) == (-expected if n == 1 else expected)


def test_bernoulli_polynomials_match_sympy():
    for n in POLY_NS:
        assert bernoulli_poly(n).coeffs == ascending(sympy_bernoulli_poly(n, X, polys=True))


def test_euler_polynomials_match_sympy():
    for n in POLY_NS:
        assert euler_poly(n).coeffs == ascending(sympy_euler_poly(n, X, polys=True))


def test_harmonic_numbers_match_sympy():
    for n in range(201):
        assert harmonic(n) == as_fraction(sympy.harmonic(n))
