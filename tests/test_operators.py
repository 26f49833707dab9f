"""Forward-difference operators, product rules, shift sums, Chu's identity."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from bepoly import (
    DiffOperator,
    Poly1,
    Poly2,
    bernoulli_poly,
    bernoulli_shift_sum,
    bernoulli_shift_sum_unweighted,
    check_product_rules,
    chu_identity,
    delta,
    delta_star,
    euler_poly,
    euler_shift_sum,
    solve_delta_star,
)

X = Poly2.variable("x")
Y = Poly2.variable("y")


def rand_poly1(rng: random.Random, deg: int) -> Poly1:
    return Poly1(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg + 1))


def rand_poly2(rng: random.Random, dx: int, dy: int) -> Poly2:
    return Poly2(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dy + 1)]
        for _ in range(dx + 1)
    )


# -- the operators themselves ---------------------------------------------------

def test_delta_on_bernoulli():
    # B_n(x+1) - B_n(x) = n x^{n-1}
    assert delta(bernoulli_poly(3)) == Poly1.monomial(2, 3)


def test_delta_star_on_euler():
    # E_n(x+1) + E_n(x) = 2 x^n
    assert delta_star(euler_poly(2)) == Poly1.monomial(2, 2)


def test_delta_kills_constants():
    assert delta(Poly1([Fraction(5, 7)])).is_zero
    assert delta(Poly2.constant(3), axis="y").is_zero


def test_operators_on_poly2_axes():
    p = Poly2.monomial(2, 1)  # x^2 y
    assert delta(p, axis="x") == (2 * X + 1) * Y
    assert delta(p, axis="y") == X * X
    assert delta_star(p, axis="y") == X * X * (2 * Y + 1)


def test_poly2_operators_match_substitution_on_both_axes():
    # the per-axis Taylor shift against P(x + 1, y) and P(x, y + 1) by subst
    rng = random.Random(59)
    for _ in range(60):
        p = rand_poly2(rng, rng.randint(0, 5), rng.randint(0, 5)) * rng.randint(0, 1)
        for axis, var in (("x", X), ("y", Y)):
            shifted = p.subst(axis, var + 1)
            assert delta(p, axis) == shifted - p
            assert delta_star(p, axis) == shifted + p


def test_diff_operator_objects():
    op = DiffOperator("delta", "x")
    assert op(bernoulli_poly(4)) == Poly1.monomial(3, 4)
    with pytest.raises(ValueError):
        DiffOperator("nabla", "x")
    with pytest.raises(ValueError):
        DiffOperator("delta", "z")


def test_diff_operator_record_behaviour():
    # construction, equality, hash and repr as the former frozen dataclass gave them
    assert DiffOperator("delta") == DiffOperator(kind="delta", axis="x")
    assert DiffOperator("delta_star", axis="y").axis == "y"
    op = DiffOperator("delta_star", "y")
    assert op == DiffOperator("delta_star", "y") and op != DiffOperator("delta_star")
    assert hash(op) == hash(("delta_star", "y"))
    assert repr(op) == "DiffOperator(kind='delta_star', axis='y')"
    for name in ("kind", "axis", "other"):
        with pytest.raises(AttributeError):
            setattr(op, name, "x")
    with pytest.raises(ValueError, match="kind must be 'delta' or 'delta_star', got 'nabla'"):
        DiffOperator(kind="nabla")
    with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
        DiffOperator("delta", axis="z")
    assert "__call__" in vars(DiffOperator)


def test_operators_commute_with_partials():
    rng = random.Random(61)
    for _ in range(20):
        p = rand_poly2(rng, rng.randint(0, 4), rng.randint(0, 4))
        for axis in ("x", "y"):
            for var in ("x", "y"):
                assert delta(p.partial(var), axis) == delta(p, axis).partial(var)
                assert delta_star(p.partial(var), axis) == delta_star(p, axis).partial(var)


# -- product rules ---------------------------------------------------------------

def test_product_rules_simple_pairs():
    x = Poly1.variable()
    assert check_product_rules(x, x)
    assert check_product_rules(bernoulli_poly(2), euler_poly(3))


def test_product_rules_randomized():
    rng = random.Random(67)
    for _ in range(60):
        p = rand_poly1(rng, rng.randint(0, 5))
        q = rand_poly1(rng, rng.randint(0, 5))
        assert check_product_rules(p, q)


# -- cancellation laws ------------------------------------------------------------

def test_equal_differences_force_constant_gap():
    # delta(P) = delta(Q) exactly when P - Q is constant, hence P' = Q'
    rng = random.Random(71)
    for _ in range(30):
        p = rand_poly1(rng, rng.randint(0, 6))
        q = p + Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        assert delta(p) == delta(q)
        assert (p - q).degree <= 0
        assert p.derivative() == q.derivative()


def test_delta_star_matrix_is_triangular_with_twos():
    # entry (i, j): coefficient of x^i in (x+1)^j + x^j
    deg = 12
    for j in range(deg + 1):
        col = delta_star(Poly1.monomial(j))
        for i in range(deg + 1):
            entry = col.coeff(i)
            if i > j:
                assert entry == 0
            elif i == j:
                assert entry == 2
            else:
                assert entry == comb(j, i)


def test_delta_star_is_injective_via_solver():
    rng = random.Random(73)
    for _ in range(30):
        p = rand_poly1(rng, rng.randint(0, 12))
        target = delta_star(p)
        assert solve_delta_star(target) == p
    # equal images force equal polynomials
    for _ in range(20):
        p = rand_poly1(rng, rng.randint(0, 8))
        q = solve_delta_star(delta_star(p))
        assert q == p


def test_solve_delta_star_round_trip():
    rng = random.Random(79)
    for _ in range(30):
        target = rand_poly1(rng, rng.randint(0, 10))
        assert delta_star(solve_delta_star(target)) == target


# -- shift-convolution sums --------------------------------------------------------

def test_bernoulli_shift_sum_n1():
    lhs, rhs = bernoulli_shift_sum(1)
    assert lhs == rhs == X + Y - Fraction(1, 2)


def test_bernoulli_shift_sum_n2():
    # frozen from an independent expansion of both sides
    expected = (Fraction(3, 2) * X * X + 2 * X * Y + Fraction(1, 2) * Y * Y
                - X - Fraction(1, 2) * Y + Poly2.constant(Fraction(1, 12)))
    lhs, rhs = bernoulli_shift_sum(2)
    assert lhs == expected
    assert rhs == expected


def test_bernoulli_shift_sum_sweep():
    for n in range(1, 11):
        lhs, rhs = bernoulli_shift_sum(n)
        assert lhs == rhs


def test_unweighted_variant_is_wrong_from_n2_on():
    lhs, rhs = bernoulli_shift_sum_unweighted(1)
    assert lhs == rhs  # n = 1 coincides with the correct sum
    lhs, rhs = bernoulli_shift_sum_unweighted(2)
    assert lhs != rhs
    assert lhs - rhs == X * Y - Fraction(1, 2) * X


def test_euler_shift_sum_small_cases():
    lhs, rhs = euler_shift_sum(0)
    assert lhs == rhs == Poly2.constant(1)
    lhs, rhs = euler_shift_sum(1)
    # equality is asserted without pinning a printed form
    assert lhs == rhs


def test_euler_shift_sum_sweep():
    for n in range(11):
        lhs, rhs = euler_shift_sum(n)
        assert lhs == rhs


# -- Chu's identity -----------------------------------------------------------------

def test_chu_small_cases():
    assert chu_identity(4, 2)  # 1 + 2 + 3 = C(4,2)
    assert chu_identity(5, 5)  # single term
    assert chu_identity(7, 3)  # sum is 35


def test_chu_grid():
    for n in range(1, 21):
        for l in range(1, n + 1):
            assert chu_identity(n, l)


def test_chu_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chu_identity(3, 0)
    with pytest.raises(ValueError):
        chu_identity(3, 4)
