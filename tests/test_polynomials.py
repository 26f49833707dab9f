"""Poly1/Poly2 algebra: ring laws, calculus, substitution, exact division, and
coefficients and points taken only as ints or Rats."""

from __future__ import annotations

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from bepoly import ExactDivisionError, Poly1, Poly2

X = Poly2.variable("x")
Y = Poly2.variable("y")
HALF = Fraction(1, 2)


def rand_poly1(rng: random.Random, deg: int) -> Poly1:
    return Poly1(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg + 1))


def rand_poly2(rng: random.Random, dx: int, dy: int) -> Poly2:
    return Poly2(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dy + 1)]
        for _ in range(dx + 1)
    )


# -- construction and canonical form -------------------------------------------

def test_trailing_zeros_are_trimmed():
    assert Poly1([1, 2, 0, 0]) == Poly1([1, 2])
    assert Poly1([0, 0]).is_zero
    assert Poly1([0, 0]).degree == -1
    assert Poly1([5]).degree == 0


def test_poly2_fringe_is_trimmed():
    p = Poly2([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert p.deg_x == 0 and p.deg_y == 0
    assert Poly2([[0, 0], [0, 0]]).is_zero
    assert Poly2.monomial(2, 3).deg_x == 2
    assert Poly2.monomial(2, 3).deg_y == 3


ENTRY_POINTS = {
    "Poly1": lambda v: Poly1((1, v)),
    "Poly2": lambda v: Poly2(((1,), (v,))),
    "Poly2.constant": Poly2.constant,
    "Poly1.monomial": lambda v: Poly1.monomial(2, v),
    "Poly2.monomial": lambda v: Poly2.monomial(1, 2, v),
    "Poly1.__call__": lambda v: Poly1((1, 2))(v),
    "Poly2.__call__ u": lambda v: (X + Y)(v, 1),
    "Poly2.__call__ v": lambda v: (X + Y)(1, v),
    "compose_affine a": lambda v: Poly1((1, 2)).compose_affine(v, 0),
    "compose_affine b": lambda v: Poly1((1, 2)).compose_affine(1, v),
    "compose_xy cx": lambda v: Poly1((1, 2)).compose_xy(v, 0),
    "compose_xy cy": lambda v: Poly1((1, 2)).compose_xy(1, v),
}


@pytest.mark.parametrize("value", [0.5, "1/3", Decimal("0.1")], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_coefficients_and_points_are_ints_or_rats(entry, value):
    # Fraction() would take each of these; 0.1 would become 3602879701896397/2^55
    with pytest.raises(TypeError, match="ints or Rats"):
        ENTRY_POINTS[entry](value)
    assert ENTRY_POINTS[entry](Fraction(1, 3)) == ENTRY_POINTS[entry](Fraction(2, 6))


def test_copies_and_pickles_keep_value_and_type():
    p1 = Poly1([HALF, 0, -3])
    p2 = Poly2([[1, HALF], [Fraction(-2, 3), 0]])
    p2 * p2  # lists p2's nonzero entries, which are not part of its value
    for p in (p1, p2, Poly1(), Poly2()):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is type(p) and twin == p and hash(twin) == hash(p)
            assert twin + p == 2 * p
            with pytest.raises(AttributeError):
                twin._den = 2


def test_constants_hash_as_the_scalars_they_equal():
    # equal values must hash alike: a constant, zero included, equals its scalar
    for c in (3, -1, 0, Fraction(-7, 4)):
        for p in (Poly1((c,)), Poly2.constant(c), Poly1.monomial(0, c)):
            assert p == c and hash(p) == hash(c) == hash(Fraction(c))
            assert len({p, c}) == 1 and {c: "c"}.get(p) == "c" and {p: "p"}[c] == "p"
    assert {0: "z"}.get(Poly2()) == "z" and {0: "z"}.get(Poly1()) == "z"
    assert len({Poly1((1, 2)), Poly1((1, 2)), 1}) == 2  # nonconstants keep their own hash


def test_poly2_swap_is_involution():
    rng = random.Random(11)
    for _ in range(30):
        p = rand_poly2(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert p.swap_xy().swap_xy() == p


# -- univariate arithmetic -----------------------------------------------------

def test_square_of_binomial():
    p = Poly1([-HALF, 1])  # x - 1/2
    assert p * p == Poly1([Fraction(1, 4), -1, 1])


def test_additive_identity():
    rng = random.Random(3)
    p = rand_poly1(rng, 5)
    assert p + Poly1.zero() == p
    assert p + 0 == p


def test_scalar_multiple():
    p = Poly1([Fraction(1, 6), -1, 1])  # x^2 - x + 1/6
    # oracle: coefficient-wise multiplication
    assert p * 3 == Poly1([Fraction(1, 2), -3, 3])


def test_derivative_examples():
    assert Poly1([Fraction(1, 6), -1, 1]).derivative() == Poly1([-1, 2])
    assert Poly1([7]).derivative().is_zero
    assert Poly1.monomial(3).derivative() == Poly1.monomial(2, 3)


def test_compose_affine_shift():
    p = Poly1.monomial(2)  # x^2
    assert p.compose_affine(1, 1) == Poly1([1, 2, 1])


def test_compose_affine_half_argument():
    p = Poly1([Fraction(1, 6), -1, 1])  # x^2 - x + 1/6
    # oracle: direct expansion of (x/2)^2 - (x/2) + 1/6
    assert p.compose_affine(HALF, 0) == Poly1([Fraction(1, 6), -HALF, Fraction(1, 4)])


def test_compose_affine_identity():
    rng = random.Random(5)
    p = rand_poly1(rng, 6)
    assert p.compose_affine(1, 0) == p


def test_chain_rule_for_affine_composition():
    rng = random.Random(13)
    for _ in range(40):
        p = rand_poly1(rng, rng.randint(0, 6))
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert p.compose_affine(a, b).derivative() == a * p.derivative().compose_affine(a, b)


def test_evaluation_horner_matches_power_sum():
    rng = random.Random(17)
    for _ in range(40):
        p = rand_poly1(rng, rng.randint(0, 6))
        v = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert p(v) == sum(c * v**i for i, c in enumerate(p.coeffs))


# -- embeddings ----------------------------------------------------------------

def test_embed_as_y():
    p = Poly1([-HALF, 1])
    assert p.as_poly2("y") == Y - HALF


def test_embed_constant():
    assert Poly1([Fraction(2, 3)]).as_poly2("x") == Poly2.constant(Fraction(2, 3))


def test_embedding_round_trips_through_diagonal():
    rng = random.Random(23)
    for _ in range(30):
        p = rand_poly1(rng, rng.randint(0, 6))
        assert p.as_poly2("y").diagonal() == p
        assert p.as_poly2("x").diagonal() == p


def test_compose_xy_difference_argument():
    p = Poly1.monomial(2)  # x^2 at (x - y): x^2 - 2xy + y^2
    assert p.compose_xy(1, -1) == X * X - 2 * X * Y + Y * Y


# -- bivariate arithmetic ------------------------------------------------------

def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_poly2_additive_identity():
    rng = random.Random(29)
    p = rand_poly2(rng, 3, 3)
    assert p + Poly2.zero() == p
    assert p + 0 == p


def test_product_of_linear_factors():
    # (x - 1/2)(y - 1/2), oracle: distributive expansion
    p = (X - HALF) * (Y - HALF)
    expected = X * Y - HALF * X - HALF * Y + Poly2.constant(Fraction(1, 4))
    assert p == expected


def test_ring_laws_randomized():
    rng = random.Random(31)
    for _ in range(25):
        p = rand_poly2(rng, rng.randint(0, 3), rng.randint(0, 3))
        q = rand_poly2(rng, rng.randint(0, 3), rng.randint(0, 3))
        r = rand_poly2(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)


def test_univariate_ring_laws_randomized():
    rng = random.Random(37)
    for _ in range(40):
        p = rand_poly1(rng, rng.randint(0, 5))
        q = rand_poly1(rng, rng.randint(0, 5))
        r = rand_poly1(rng, rng.randint(0, 5))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_partial_derivatives():
    p = Poly2.monomial(2, 1)  # x^2 y
    assert p.partial("x") == Poly2.monomial(1, 1, 2)
    assert Poly2.monomial(2, 0).partial("y").is_zero


def test_mixed_partials_commute():
    rng = random.Random(41)
    for _ in range(30):
        p = rand_poly2(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert p.partial("x").partial("y") == p.partial("y").partial("x")


def test_substitution_examples():
    p = Poly2.monomial(0, 2)  # y^2
    assert p.subst("y", X + Y) == X * X + 2 * X * Y + Y * Y
    q = Y - HALF
    assert q.subst("y", X + Y) == X + Y - HALF
    rng = random.Random(43)
    r = rand_poly2(rng, 3, 3)
    assert r.subst("y", Y) == r
    assert r.subst("x", X) == r


def test_substitution_in_x_axis():
    p = Poly2.monomial(2, 1)  # x^2 y
    assert p.subst("x", X + Y) == (X + Y) * (X + Y) * Y


def test_diagonal_examples():
    assert (X * Y).diagonal() == Poly1.monomial(2)
    assert (X - Y).diagonal().is_zero
    p = (X - HALF) * (Y - HALF)
    assert p.diagonal() == Poly1([Fraction(1, 4), -1, 1])


def test_diagonal_is_multiplicative():
    rng = random.Random(47)
    for _ in range(25):
        p = rand_poly2(rng, rng.randint(0, 3), rng.randint(0, 3))
        q = rand_poly2(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert (p * q).diagonal() == p.diagonal() * q.diagonal()


def test_evaluation_homomorphism():
    rng = random.Random(53)
    for _ in range(25):
        p = rand_poly2(rng, rng.randint(0, 3), rng.randint(0, 3))
        q = rand_poly2(rng, rng.randint(0, 3), rng.randint(0, 3))
        u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        expr = p * q + p - q
        assert expr(u, v) == p(u, v) * q(u, v) + p(u, v) - q(u, v)


# -- exact division by (x - y) ---------------------------------------------------

def test_div_xminusy_difference_of_squares():
    assert (X * X - Y * Y).div_xminusy() == X + Y


def test_div_xminusy_quadratic_difference():
    # x^2 - x - y^2 + y, oracle: long division by (x - y) treating y as constant
    p = X * X - X - Y * Y + Y
    assert p.div_xminusy() == X + Y - 1


def test_div_xminusy_rejects_nondivisible():
    with pytest.raises(ExactDivisionError):
        (X + Y).div_xminusy()
    with pytest.raises(ExactDivisionError):
        Poly2.constant(3).div_xminusy()


def test_div_xminusy_round_trip():
    rng = random.Random(59)
    for _ in range(30):
        p = rand_poly2(rng, rng.randint(0, 4), rng.randint(0, 4))
        if p.is_zero:
            continue
        assert (p * (X - Y)).div_xminusy() == p


# -- rendering -------------------------------------------------------------------

def test_poly1_rendering():
    assert str(Poly1([Fraction(1, 6), -1, 1])) == "x^2 - x + 1/6"
    assert str(Poly1.zero()) == "0"
    assert str(Poly1([HALF, 0, -1])) == "-x^2 + 1/2"
    assert str(Poly1([0, 1])) == "x"
    assert str(Poly1([-3])) == "-3"


def test_poly2_rendering():
    assert str(X * Y - HALF * X) == "x*y - 1/2*x"
    assert str(Poly2.zero()) == "0"
    assert str(X * X - Y * Y) == "x^2 - y^2"
