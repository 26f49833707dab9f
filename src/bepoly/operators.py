"""Forward-difference calculus on polynomials.

Two step-1 operators act along a chosen axis:

    delta(f)      = f(. + 1) - f        (forward difference)
    delta_star(f) = f(. + 1) + f        (forward sum)

Both satisfy exact product rules, delta annihilates exactly the
constants, and delta_star is invertible on polynomials (its matrix on
the monomial basis is upper triangular with 2s on the diagonal), which
solve_delta_star does by integer back-substitution.
Bernoulli and Euler polynomials are eigenfunction-like for them:
delta(B_n) = n x^{n-1} and delta_star(E_n) = 2 x^n.

The module also evaluates four catalog entries, whose sides ``catalog``
builds: the shift-convolution summation identities 2.1 and 2.2

    sum_{k=1}^{n} B_k(x+y)/k * x^{n-k}
        = sum_{l=1}^{n} C(n,l) B_l(y)/l * x^{n-l} + H_n x^n
    sum_{k=0}^{n} E_k(x+y) * x^{n-k}
        = sum_{l=0}^{n} C(n+1,l+1) E_l(y) * x^{n-l}

as polynomial pairs, the deliberately wrong first variant with the
binomial weight dropped (2.1-as-printed, a negative control for the
verification harness), and Chu's hockey-stick identity
sum_{k=l}^{n} C(k-1,l-1) = C(n,l) that proves the first summation.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .catalog import CATALOG
from .polynomials import Poly1, Poly2, _axis, _poly1, _poly2, _shift_by_one

__all__ = [
    "DiffOperator",
    "delta",
    "delta_star",
    "solve_delta_star",
    "check_product_rules",
    "bernoulli_shift_sum",
    "bernoulli_shift_sum_unweighted",
    "euler_shift_sum",
    "chu_identity",
]


def _shift_one(p: Poly1 | Poly2, axis: str) -> Poly1 | Poly2:
    """p with the axis variable shifted by one: a Taylor shift by additions
    only, per column of a Poly2 for x and per row for y."""
    if isinstance(p, Poly1):
        return p.compose_affine(1, 1)
    lines = [list(c[::-1]) for c in (zip(*p._num) if axis == "x" else p._num)]
    for c in lines:
        _shift_by_one(c)
    lines = [c[::-1] for c in lines]
    return _poly2([*zip(*lines)] if axis == "x" else lines, p._den)


class _OperatorFields(NamedTuple):
    kind: str
    axis: str = "x"


class DiffOperator(_OperatorFields):
    """A forward difference (kind='delta') or sum (kind='delta_star')
    acting along one axis; the axis only matters for bivariate input."""

    __slots__ = ()

    def __new__(cls, kind: str, axis: str = "x"):
        if kind not in ("delta", "delta_star"):
            raise ValueError(f"kind must be 'delta' or 'delta_star', got {kind!r}")
        _axis(axis)
        return super().__new__(cls, kind, axis)

    def __call__(self, p: Poly1 | Poly2) -> Poly1 | Poly2:
        shifted = _shift_one(p, self.axis)
        return shifted - p if self.kind == "delta" else shifted + p


def delta(p: Poly1 | Poly2, axis: str = "x") -> Poly1 | Poly2:
    """f(. + 1) - f along the given axis."""
    return DiffOperator("delta", axis)(p)


def delta_star(p: Poly1 | Poly2, axis: str = "x") -> Poly1 | Poly2:
    """f(. + 1) + f along the given axis."""
    return DiffOperator("delta_star", axis)(p)


def solve_delta_star(target: Poly1) -> Poly1:
    """The unique polynomial P with P(x+1) + P(x) equal to the target.

    The map is upper triangular with 2s on the diagonal, so integer
    back-substitution from the top degree d down gives P over
    den * 2^(d+1); every halving is exact, as coefficient i of P needs
    at most d - i + 1 factors of 2 beyond the target's den.
    """
    nums = target._num
    d = len(nums) - 1
    e = [0] * (d + 1)
    for i in range(d, -1, -1):
        t = nums[i] << (d + 1)
        for j in range(i + 1, d + 1):
            t -= comb(j, i) * e[j]
        e[i] = t >> 1
    return _poly1([e], target._den << (d + 1))


def check_product_rules(p: Poly1, q: Poly1) -> bool:
    """Exact check of the three product rules for delta and delta_star:

        delta(PQ)      = P delta(Q) + Q delta(P) + delta(P) delta(Q)
                       = delta_star(P) delta_star(Q) - P delta_star(Q)
                                                     - Q delta_star(P)
        delta_star(PQ) = delta(P) delta_star(Q) + P delta_star(Q)
                                                - Q delta(P)

    These hold for every pair; the function exists as a test oracle.
    """
    dp, dq = delta(p), delta(q)
    sp, sq = delta_star(p), delta_star(q)
    d_pq = delta(p * q)
    s_pq = delta_star(p * q)
    return (
        d_pq == p * dq + q * dp + dp * dq
        and d_pq == sp * sq - p * sq - q * sp
        and s_pq == dp * sq + p * sq - q * dp
    )


def bernoulli_shift_sum(n: int) -> tuple[Poly2, Poly2]:
    """Both sides of the Bernoulli shift-convolution identity.

    LHS = sum_{k=1}^{n} B_k(x+y)/k * x^{n-k},
    RHS = sum_{l=1}^{n} C(n,l) B_l(y)/l * x^{n-l} + H_n x^n.
    """
    lhs, rhs = CATALOG["2.1"].build(n)
    return Poly2.sheared(lhs), Poly2.sheared(rhs)


def bernoulli_shift_sum_unweighted(n: int) -> tuple[Poly2, Poly2]:
    """The same sum with the C(n,l) weight dropped from the right side.

    This version is FALSE for n >= 2; it is kept as the negative
    control that demonstrates the zero-test has teeth.
    """
    lhs, rhs = CATALOG["2.1-as-printed"].build(n)
    return Poly2.sheared(lhs), Poly2.sheared(rhs)


def euler_shift_sum(n: int) -> tuple[Poly2, Poly2]:
    """Both sides of the Euler shift-convolution identity.

    LHS = sum_{k=0}^{n} E_k(x+y) * x^{n-k},
    RHS = sum_{l=0}^{n} C(n+1,l+1) E_l(y) * x^{n-l}.
    """
    lhs, rhs = CATALOG["2.2"].build(n)
    return Poly2.sheared(lhs), Poly2.sheared(rhs)


def chu_identity(n: int, l: int) -> bool:
    """Hockey-stick summation: sum_{k=l}^{n} C(k-1, l-1) = C(n, l)."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    lhs, rhs = CATALOG["chu"].build(n, l)
    return lhs == rhs  # one pair each, both over 1
