#!/usr/bin/env python3
"""Exact special sequences: Bernoulli numbers, Bernoulli/Euler polynomials.

Everything below is computed in arbitrary-precision rational
arithmetic; every printed value is exact, never rounded.
"""

from fractions import Fraction

from bepoly import (
    bbar,
    bernoulli_number,
    bernoulli_poly,
    euler_at_zero,
    euler_poly,
    harmonic,
)


def main():
    print("Bernoulli numbers (convention B_1 = -1/2):")
    for n in range(0, 13):
        print(f"  B_{n:<2} = {bernoulli_number(n)}")

    print("\nBernoulli polynomials:")
    for n in range(0, 6):
        print(f"  B_{n}(x) = {bernoulli_poly(n)}")

    print("\nEuler polynomials (each the Appell sum over E_k(0), like B_n(x) over B_k,")
    print("and checked against its defining equation E(x+1) + E(x) = 2 x^n):")
    for n in range(0, 6):
        print(f"  E_{n}(x) = {euler_poly(n)}")

    print("\nHarmonic numbers:")
    for n in (1, 2, 4, 10):
        print(f"  H_{n:<2} = {harmonic(n)}")

    print("\nMidpoint values B_n(1/2) agree with the closed form (2^(1-n) - 1) B_n:")
    half = Fraction(1, 2)
    for n in range(0, 9):
        lhs = bernoulli_poly(n)(half)
        rhs = bbar(n)
        print(f"  n={n}: {lhs} == {rhs}  {'ok' if lhs == rhs else 'MISMATCH'}")

    print("\nEuler polynomials at 1 agree with -E_n(0) = -2 (1 - 2^(n+1)) B_{n+1} / (n+1):")
    for n in range(1, 9):
        lhs = euler_poly(n)(1)
        rhs = -euler_at_zero(n)
        print(f"  n={n}: {lhs} == {rhs}  {'ok' if lhs == rhs else 'MISMATCH'}")


if __name__ == "__main__":
    main()
