"""Exact scalar arithmetic: rationals, binomials, integer-argument
gamma/beta values, and sums of integer fractions.

``Rat`` is the scalar type used by the whole package: the stdlib
``fractions.Fraction``, which already stores every value canonically
reduced with a positive denominator and compares exactly; since each
operation costs a gcd, long sums go as integer pairs through
``frac_sum``.  Nothing in this package ever touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import comb, lcm, prod
from typing import Iterable

Rat = Fraction

# n!, memoised: the gamma/beta weights ask for the same few dozen values
# thousands of times (functools.cache is safe to share between threads)
factorial = cache(math.factorial)

# the one zero that frac_sum returns for every sum that cancels
_ZERO = Rat(0)

__all__ = ["Rat", "binomial", "beta_int", "gamma_ratio", "frac_sum"]


def binomial(n: int, k: int) -> Rat:
    """Binomial coefficient C(n, k) as an exact Rat.

    Returns 0 when k < 0 or k > n, so identity builders can sum over
    uniform index ranges without special-casing the edges.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Rat(0)
    return Rat(comb(n, k))


def beta_int(a: int, b: int) -> Rat:
    """Beta function at positive integer arguments.

    beta(a, b) = (a-1)! (b-1)! / (a+b-1)!, which is exactly rational.
    Non-integer or nonpositive arguments are rejected: they would leave
    the rational field.
    """
    if a < 1 or b < 1:
        raise ValueError(f"beta_int: arguments must be >= 1, got ({a}, {b})")
    return Rat(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))


def gamma_ratio(a: int, m: int) -> Rat:
    """Rising factorial a (a+1) ... (a+m-1) = Gamma(a+m) / Gamma(a).

    The empty product (m = 0) is 1.
    """
    if a < 1:
        raise ValueError(f"gamma_ratio: base must be >= 1, got {a}")
    if m < 0:
        raise ValueError(f"gamma_ratio: length must be >= 0, got {m}")
    return Rat(prod(range(a, a + m)))


def frac_sum(pairs: Iterable[tuple[int, int]],
             minus: Iterable[tuple[int, int]] = ()) -> Rat:
    """The sum of num/den over integer pairs (num, den), den nonzero, less
    that over the pairs ``minus``, added as ints over the lcm of all the
    denominators and reduced once; a sum of 0 is the shared ``_ZERO``."""
    pairs, minus = list(pairs), list(minus)
    d = lcm(*(den for _, den in pairs), *(den for _, den in minus))
    s = (sum(num * (d // den) for num, den in pairs)
         - sum(num * (d // den) for num, den in minus))
    return Rat(s, d) if s else _ZERO
