"""The identity catalog: every checkable identity as an exact zero test.

Each entry builds the two sides (LHS, RHS) of one identity, both
multiplied by the entry's pole-clearing factor (recorded in ``pole``),
as data for the kernel of its arity; ``build_residual`` makes the one
kernel call on the two sides, the kernel subtracting the right one as it
takes in its terms, giving LHS - RHS as a Rat, Poly1, or Poly2.  The
identity holds iff that residual is the zero element; there is no
tolerance anywhere.  The builders of the ids with a factor B_l or Bbar_k
leave out each term whose factor is zero, B_l being 0 at every odd
l >= 3: they test the value read through ``bernoulli_number`` or
``bbar``, never the parity of l, so for any input sequence the residual
is the same sum.
The univariate kernel first asks ``Poly1.vanishes``, which proves the
sum zero by one exact big-integer evaluation at a power of two beyond
every coefficient, and expands the sum by ``lincomb`` only when it is
not zero, so a nonzero residual is the same polynomial as before.
A scalar side is a list of integer (numerator, denominator) pairs, for
``frac_sum``.  A univariate side is a list of terms (w, f, g) or (w, f),
each weight an int or an unreduced integer pair (numerator,
denominator), for ``lincomb``, which reduces only the result and
convolves a repeated product such as B_k(x) B_{n-k}(x) in a symmetric
sum once.  A bivariate side is a list of ``Poly2.sheared`` groups of
terms w * f(L1) * g(L2) at argument pairs (L1, L2), with the same
weights; a group may carry a pole, an int k that multiplies its sum by
(x - y)^k, and a one-factor pole term f(x) is the term (w, f, 1), so no
product follows the call.  A derived entry builds the sides of its base
and maps the base residual R exactly (its ``derive``): 1.4p is n R_1.4,
and 2.3, 2.4, 2.5 are R_1.4, R_1.8, R_1.9 at (x, y) -> (x + y, x).

Catalog ids are short fixed keys.  The scalar convolution identities:

    1.1      sum B_k B_{n-k}/(k(n-k)) - sum C(n,l) B_l B_{n-l}/(l(n-l))
                 = (2/n) H_n B_n                                (n >= 4)
    1.2      same shape with 1/k weights, = H_n B_n             (n >= 4)
    1.3      (n+2) sum B_k B_{n-k} - 2 sum C(n+2,l) B_l B_{n-l}
                 = n(n+1) B_n                                   (n >= 4)
    cor1.2   the midpoint (x = 1/2) chain of three equal
             expressions in Bbar_k = (2^{1-k}-1) B_k            (n >= 4)

The bivariate extensions 1.4, 1.4p, 1.5 (Bernoulli), 1.8, 1.9, 1.10
(Euler/Bernoulli mixes) live in Q[x, y]; their diagonal (y -> x)
specializations are 1.6, 1.7 and 1.11, 1.12, 1.13.  The shifted forms
2.3, 2.4, 2.5 of 1.4, 1.8, 1.9 put x + y for x and x for y, so their
pole x - y becomes y.  2.1 and 2.2 are the
shift-convolution summation identities, 2.1-as-printed is the
deliberately wrong variant without the binomial weight (a negative
control: it must FAIL for n >= 2), chu is the hockey-stick summation,
and 3.1 / 3.2 / ds are the gamma/beta-weighted generalizations at
integer parameters (ds being the even-index p = q specialization at
x = 0).

The left sides hold the sums, the right sides the harmonic, closed-form
and divided-difference terms; 1.8 and 1.11 put the Euler convolution
alone on the left.  ``operators`` builds the sides of 2.1, 2.2 and chu.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import product, repeat
from math import comb, perm
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .arith import Rat, factorial, frac_sum
from .operators import (_XPY_X, _bernoulli_shift_groups, _euler_shift_groups,
                        _hockey_stick_sides, _x_to)
from .polynomials import Poly1, Poly2, _poly1
from .sequences import _bern2, _eul2  # unused here; perfbench/spans.py reads them (item 1)
from .sequences import bbar, bernoulli_number, bernoulli_poly, euler_poly, harmonic, h_pq

__all__ = [
    "Residual",
    "IdentitySpec",
    "VerifyReport",
    "UnknownIdentityError",
    "CATALOG",
    "catalog_ids",
    "build_residual",
    "verify",
    "verify_sweep",
]

Residual = Union[Rat, Poly1, Poly2]


class UnknownIdentityError(KeyError):
    """Raised for ids not present in the catalog."""

    def __init__(self, key: str):
        super().__init__(key)
        self.key = key

    def __str__(self) -> str:
        return f"unknown identity id {self.key!r}; catalog: {', '.join(CATALOG)}"


# -- scalar convolution identities ------------------------------------------

def _frac(num: int, den: int, a: Rat, b: Rat = 1) -> tuple[int, int]:
    """num * a * b / den as an integer pair (numerator, denominator)."""
    return num * a.numerator * b.numerator, den * a.denominator * b.denominator


def _r_1_1(n: int) -> tuple[list, list]:
    B = [*map(bernoulli_number, range(n + 1))]
    lhs = [_frac(1 - comb(n, k), k * (n - k), B[k], B[n - k])
           for k in range(2, n - 1) if B[k] and B[n - k]]
    return lhs, [_frac(2, n, harmonic(n), B[n])] if B[n] else []


def _r_1_2(n: int) -> tuple[list, list]:
    B = [*map(bernoulli_number, range(n + 1))]
    lhs = [_frac(1 - comb(n, k), k, B[k], B[n - k])
           for k in range(2, n - 1) if B[k] and B[n - k]]
    return lhs, [_frac(1, 1, harmonic(n), B[n])] if B[n] else []


def _r_1_3(n: int) -> tuple[list, list]:
    B = [*map(bernoulli_number, range(n + 1))]
    lhs = [_frac(n + 2 - 2 * comb(n + 2, k), 1, B[k], B[n - k])
           for k in range(2, n - 1) if B[k] and B[n - k]]
    return lhs, [_frac(n * (n + 1), 1, B[n])] if B[n] else []


def _r_cor_1_2(n: int) -> tuple[list, list]:
    """Chain of three expressions e1 = e2 = e3; the sides are e2 and e3.  The
    first link checks nothing: e1 - e2 = sum (n-2k)/(2k(n-k)) Bbar_k Bbar_{n-k}
    is 0 for any sequence, its weight being antisymmetric under k <-> n-k."""
    B, Bb = [*map(bernoulli_number, range(n + 1))], [*map(bbar, range(n + 1))]
    lhs = [_frac(n, 2 * k * (n - k), Bb[k], Bb[n - k])
           for k in range(2, n - 1) if Bb[k] and Bb[n - k]]
    rhs = [_frac(1, 1, harmonic(n - 1), Bb[n])] if Bb[n] else []
    rhs += [_frac(comb(n, k), k, B[k], Bb[n - k]) for k in range(2, n + 1) if B[k] and Bb[n - k]]
    return lhs, rhs


# -- bivariate Bernoulli identities ------------------------------------------
#
# 1.4, 1.5, 1.8, 1.9 and 1.10 sum at the argument pairs (x, y), (x - y, y),
# (y - x, x) times a power k of the pole x - y, the int k ending a group; the
# pole terms (w, f, 1) and (w, 1, f), f(x) and f(y), sit at (x, y).  _PAIRED
# names (x - y, y) and (y - x, x) as one set for one list.  The derived entries
# 1.4p and 2.3-2.5 build these sides and map the residual (``IdentitySpec.derive``).

_BASE = (((1, 0), (0, 1)), ((1, -1), (0, 1)), ((-1, 1), (1, 0)))
_PAIRED = (_BASE[0], _BASE[1:])


def _r_1_4(n: int) -> tuple[list, list]:
    # both sides multiplied by (x - y); the divided difference
    # (B_n(x) - B_n(y)) / (n (x - y)) then enters as a plain polynomial
    b, h = bernoulli_poly, harmonic(n - 1)
    hw = (h.numerator, h.denominator * n)
    conv = [((1, k * (n - k)), b(k), b(n - k)) for k in range(1, n)]
    mixed = [((-comb(n - 1, l - 1), l * l), b(l), b(n - l)) for l in range(1, n + 1)]
    return ([*zip(_PAIRED, (conv, mixed), repeat(1))],
            [(_BASE[0], [(hw, b(n), Poly1._unit), (hw, Poly1._unit, b(n))], 1),
             (_BASE[0], [((1, n), b(n), Poly1._unit), ((-1, n), Poly1._unit, b(n))])])


def _shifted(n: int, r: Poly2) -> Poly2:
    """R(x + y, x) for R = sum_i x^i r_i(y): the terms x^i r_i at (x + y, x), each
    r_i R's stored integer row i, over R's denominator."""
    return Poly2.sheared([(_XPY_X, [((1, r._den), _x_to(i), _poly1([row], 1))
                                    for i, row in enumerate(r._num)])])


def _r_1_5(n: int) -> tuple[list, list]:
    b, w = bernoulli_poly, n + 2
    conv = [(w, b(k), b(n - k)) for k in range(0, n + 1)]
    mixed = [((-w * comb(n + 1, l + 1), l + 2), b(l), b(n - l)) for l in range(0, n + 1)]
    return ([*zip(_PAIRED, (conv, mixed), repeat(3))],
            [(_BASE[0], [(w, b(n + 1), Poly1._unit), (w, Poly1._unit, b(n + 1))], 1),
             (_BASE[0], [(-2, b(n + 2), Poly1._unit), (2, Poly1._unit, b(n + 2))])])


# -- univariate (diagonal) Bernoulli identities -------------------------------

def _r_1_6(n: int) -> tuple[list, list]:
    b, B = bernoulli_poly, [*map(bernoulli_number, range(n + 1))]
    lhs = [((1, k * (n - k)), b(k), b(n - k)) for k in range(1, n)]
    lhs += [(_frac(-2 * comb(n - 1, l - 1), l * l, B[l]), b(n - l))
            for l in range(2, n + 1) if B[l]]
    return lhs, [(_frac(2, n, harmonic(n - 1)), b(n))]


def _r_1_7(n: int) -> tuple[list, list]:
    b, B = bernoulli_poly, [*map(bernoulli_number, range(n + 1))]
    lhs = [(1, b(k), b(n - k)) for k in range(0, n + 1)]
    lhs += [(_frac(-2 * comb(n + 1, l + 1), l + 2, B[l]), b(n - l))
            for l in range(2, n + 1) if B[l]]
    return lhs, [(n + 1, b(n))]


# -- bivariate Euler/Bernoulli identities -------------------------------------

def _r_1_8(n: int) -> tuple[list, list]:
    # the Euler convolution against the Euler-Bernoulli sums
    b, e, m = bernoulli_poly, euler_poly, n + 2
    conv = [(1, e(k), e(n - k)) for k in range(0, n + 1)]
    mixed = [((-2 * comb(n + 1, l), l + 1), e(l), b(n + 1 - l)) for l in range(0, n + 2)]
    return ([(_BASE[0], conv, 1)],
            [(_PAIRED[1], mixed, 1),
             (_BASE[0], [((4, m), b(m), Poly1._unit), ((-4, m), Poly1._unit, b(m))])])


def _r_1_9(n: int) -> tuple[list, list]:
    b, e, h = bernoulli_poly, euler_poly, harmonic(n)
    conv = [((1, k), b(k), e(n - k)) for k in range(1, n + 1)]
    left = [((-comb(n, l), l), b(l), e(n - l)) for l in range(1, n + 1)]
    right = [((comb(n, l), 2), e(l - 1), e(n - l)) for l in range(1, n + 1)]
    return ([*zip(_BASE, (conv, left, right), repeat(1))],
            [(_BASE[0], [((h.numerator, h.denominator), Poly1._unit, e(n))], 1),
             (_BASE[0], [(1, e(n), Poly1._unit), (-1, Poly1._unit, e(n))])])


def _r_1_10(n: int) -> tuple[list, list]:
    b, e = bernoulli_poly, euler_poly
    conv = [(1, b(k), e(n - k)) for k in range(0, n + 1)]
    left = [(-comb(n + 1, l + 1), b(l), e(n - l)) for l in range(1, n + 1)]
    right = [((comb(n + 1, l + 1), 2), e(l - 1), e(n - l)) for l in range(1, n + 1)]
    return ([*zip(_BASE, (conv, left, right), repeat(2))],
            [(_BASE[0], [(n + 1, Poly1._unit, e(n))], 2),
             (_BASE[0], [(n + 1, e(n), Poly1._unit)], 1),
             (_BASE[0], [(-1, e(n + 1), Poly1._unit), (1, Poly1._unit, e(n + 1))])])


# -- univariate (diagonal) Euler identities -----------------------------------

def _r_1_11(n: int) -> tuple[list, list]:
    # the Euler convolution against the Bernoulli sum
    e, B = euler_poly, [*map(bernoulli_number, range(n + 3))]
    lhs = [(n + 2, e(k), e(n - k)) for k in range(0, n + 1)]
    rhs = [(_frac(8 * comb(n + 2, l) * (2 ** l - 1), l, B[l]), bernoulli_poly(n + 2 - l))
           for l in range(2, n + 3) if B[l]]
    return lhs, rhs


def _r_1_12(n: int) -> tuple[list, list]:
    b, e, B = bernoulli_poly, euler_poly, [*map(bernoulli_number, range(n + 1))]
    lhs = [((1, k), b(k), e(n - k)) for k in range(1, n + 1)]
    lhs += [(_frac(-comb(n, l) * 2 ** l, l, B[l]), e(n - l)) for l in range(2, n + 1) if B[l]]
    return lhs, [(_frac(1, 1, harmonic(n)), e(n))]


def _r_1_13(n: int) -> tuple[list, list]:
    b, e, B = bernoulli_poly, euler_poly, [*map(bernoulli_number, range(n + 1))]
    lhs = [(1, b(k), e(n - k)) for k in range(0, n + 1)]
    lhs += [(_frac(-comb(n + 1, l + 1) * (2 ** l + l - 1), l, B[l]), e(n - l))
            for l in range(2, n + 1) if B[l]]
    return lhs, [(n + 1, e(n))]


# -- gamma/beta-weighted family -----------------------------------------------

def _w_3_1_lhs(n: int, k: int, p: int, q: int) -> tuple[int, int]:
    """Left-side weight of 3.1 as an integer pair,
    Gamma(k+p) Gamma(n-k+q) / (k! (n-k)! rising(n, p+q)), which is
    rising(k, p) rising(n-k, q) / (k (n-k) rising(n, p+q)), with the
    rising factorial rising(a, m) = perm(a+m-1, m)."""
    return (perm(k + p - 1, p) * perm(n - k + q - 1, q),
            k * (n - k) * perm(n + p + q - 1, p + q))


def _w_3_1_rhs(n: int, l: int, p: int, q: int) -> tuple[int, int]:
    """C(n-1, l-1) B_l / l * (beta(l+p, q+1) + beta(l+q, p+1)) as an integer
    pair, the two betas over their common denominator (l+p+q)!."""
    beta_num = factorial(l + p - 1) * factorial(q) + factorial(l + q - 1) * factorial(p)
    return _frac(comb(n - 1, l - 1) * beta_num, l * factorial(l + p + q), bernoulli_number(l))


def _r_3_1(n: int, p: int, q: int) -> tuple[list, list]:
    b, B = bernoulli_poly, [*map(bernoulli_number, range(n + 1))]
    lhs = [(_w_3_1_lhs(n, k, p, q), b(k), b(n - k)) for k in range(1, n)]
    rhs = [(_w_3_1_rhs(n, l, p, q), b(n - l)) for l in range(2, n + 1) if B[l]]
    rhs += [(_frac(1, n, h_pq(n, p, q)), b(n)), (_frac(1, n, h_pq(n, q, p)), b(n))]
    return lhs, rhs


def _sum_3_2(n: int, l: int, p: int, q: int) -> tuple[int, int]:
    """sum_{k=l}^{n} C(n-l, k-l) beta(k+p, n-k+q) as an integer pair; every
    beta has the denominator (n+p+q-1)!, so the numerators
    t_k = C(n-l, k-l) (k+p-1)! (n-k+q-1)! are summed as ints, each from the
    last by the term ratio t_{k+1} / t_k = (n-k)(k+p) / ((k-l+1)(n-k+q-1)),
    a division that is exact because t_{k+1} is an integer."""
    t = total = factorial(l + p - 1) * factorial(n - l + q - 1)
    for k in range(l, n):
        t = t * (n - k) * (k + p) // ((k - l + 1) * (n - k + q - 1))
        total += t
    return total, factorial(n + p + q - 1)


def _r_3_2(n: int, l: int, p: int, q: int) -> tuple[list, list]:
    # the right side is beta(l+p, q)
    return [_sum_3_2(n, l, p, q)], [(factorial(l + p - 1) * factorial(q - 1),
                                     factorial(l + p + q - 1))]


def _r_ds(n: int, p: int) -> tuple[list, list]:
    """Even-index convolution identity with rising-factorial weights
    (the p = q, x = 0 slice of 3.1 with the index doubled).  With
    Gamma(m) = (m-1)!, the left weight Gamma(2k+p) Gamma(2n-2k+p) /
    (Gamma(2k) Gamma(2n-2k)) is perm(2k+p-1, p) perm(2n-2k+p-1, p)."""
    b, f = bernoulli_number, factorial
    lhs = [_frac(perm(2 * k + p - 1, p) * perm(2 * n - 2 * k + p - 1, p),
                 8 * k * (n - k) * f(2 * n + 2 * p - 1), b(2 * k), b(2 * n - 2 * k))
           for k in range(1, n)]
    rhs = [_frac(f(2 * k + p - 1) * f(p), f(2 * k) * f(2 * n - 2 * k) * f(2 * k + 2 * p),
                 b(2 * k), b(2 * n - 2 * k)) for k in range(1, n + 1)]
    rhs.append(_frac(1, f(2 * n), b(2 * n), h_pq(2 * n, p, p)))
    return lhs, rhs


# -- catalog ------------------------------------------------------------------

# the parameters an entry may take besides n, in the order of in_domain's and
# build_residual's arguments
_SLOTS = {"l": 0, "p": 1, "q": 2}


class IdentitySpec(NamedTuple):
    """One catalog entry.

    ``build`` maps n and then the entry's parameters, in the order of the
    rows of ``params``, to the two sides (LHS, RHS), both multiplied by
    ``pole``, in the data form of ``arity``: integer pairs for
    ``frac_sum``, ``lincomb`` terms or ``sheared`` groups.  Their residual
    LHS - RHS (``build_residual``) is identically zero for every in-domain
    parameter choice -- except for entries flagged ``negative``, which
    exist to prove the harness can fail.  Each row of ``params`` is
    ``(name, least, last)``: the parameter (l, p or q) is at least
    ``least``; ``last`` ends its default sweep range ``least..last``, and
    ``last = None`` means n, which then also bounds it.  A derived entry
    shares its base's ``build`` and sets ``derive``, an exact map
    (n, base residual) -> its own residual, so it holds exactly when its
    base does.
    """

    key: str
    arity: str  # "scalar" | "univariate" | "bivariate"
    n_min: int
    build: Callable[..., tuple[list, list]]
    summary: str
    pole: str = "none"
    params: tuple[tuple[str, int, Optional[int]], ...] = ()
    negative: bool = False
    derive: Optional[Callable[[int, Residual], Residual]] = None

    def in_domain(self, n: int, l: Optional[int] = None,
                  p: Optional[int] = None, q: Optional[int] = None) -> bool:
        """True iff n >= n_min and the parameters given (not None) are
        exactly the entry's, each in its row's range."""
        rows, given = self.params, (l, p, q)
        if n < self.n_min or given.count(None) + len(rows) != len(given):
            return False
        for name, least, last in rows:
            value = given[_SLOTS[name]]
            if value is None or value < least or last is None and value > n:
                return False
        return True


CATALOG: dict[str, IdentitySpec] = {
    s.key: s
    for s in (
        IdentitySpec(key="1.1", arity="scalar", n_min=4, build=_r_1_1,
                     summary="ordinary vs binomial Bernoulli convolution: (2/n) H_n B_n"),
        IdentitySpec(key="1.2", arity="scalar", n_min=4, build=_r_1_2,
                     summary="1/k-weighted Bernoulli convolution: H_n B_n"),
        IdentitySpec(key="1.3", arity="scalar", n_min=4, build=_r_1_3,
                     summary="unweighted Bernoulli convolution: n(n+1) B_n"),
        IdentitySpec(key="1.4", arity="bivariate", n_min=2, build=_r_1_4,
                     summary="two-variable extension of 1.1", pole="(x-y)"),
        IdentitySpec(key="1.4p", arity="bivariate", n_min=2, build=_r_1_4,
                     summary="equivalent form of 1.4 (times n, split weights)", pole="(x-y)",
                     derive=lambda n, r: n * r),
        IdentitySpec(key="1.5", arity="bivariate", n_min=2, build=_r_1_5,
                     summary="two-variable extension of 1.3", pole="(n+2)(x-y)^3"),
        IdentitySpec(key="1.6", arity="univariate", n_min=2, build=_r_1_6,
                     summary="diagonal y=x of 1.4"),
        IdentitySpec(key="1.7", arity="univariate", n_min=2, build=_r_1_7,
                     summary="diagonal y=x of 1.5"),
        IdentitySpec(key="cor1.2", arity="scalar", n_min=4, build=_r_cor_1_2,
                     summary="midpoint x=1/2 chain in Bbar_k; three equal expressions"),
        IdentitySpec(key="1.8", arity="bivariate", n_min=1, build=_r_1_8,
                     summary="Euler-Euler convolution vs Euler-Bernoulli sums", pole="(x-y)"),
        IdentitySpec(key="1.9", arity="bivariate", n_min=1, build=_r_1_9,
                     summary="Bernoulli-Euler convolution, 1/k weights", pole="(x-y)"),
        IdentitySpec(key="1.10", arity="bivariate", n_min=1, build=_r_1_10,
                     summary="Bernoulli-Euler convolution, unweighted", pole="(x-y)^2"),
        IdentitySpec(key="1.11", arity="univariate", n_min=0, build=_r_1_11,
                     summary="diagonal of 1.8: Euler convolution vs Bernoulli sum"),
        IdentitySpec(key="1.12", arity="univariate", n_min=0, build=_r_1_12,
                     summary="diagonal of 1.9: H_n E_n(x)"),
        IdentitySpec(key="1.13", arity="univariate", n_min=0, build=_r_1_13,
                     summary="diagonal of 1.10: (n+1) E_n(x)"),
        IdentitySpec(key="2.1", arity="bivariate", n_min=1,
                     build=partial(_bernoulli_shift_groups, weighted=True),
                     summary="Bernoulli shift-convolution sum (binomial weights)"),
        IdentitySpec(key="2.1-as-printed", arity="bivariate", n_min=1,
                     build=partial(_bernoulli_shift_groups, weighted=False),
                     summary="NEGATIVE CONTROL: 2.1 without the binomial weight; "
                             "fails for n >= 2",
                     negative=True),
        IdentitySpec(key="2.2", arity="bivariate", n_min=0, build=_euler_shift_groups,
                     summary="Euler shift-convolution sum"),
        IdentitySpec(key="2.3", arity="bivariate", n_min=2, build=_r_1_4,
                     summary="y -> x+y form of 1.4", pole="y", derive=_shifted),
        IdentitySpec(key="2.4", arity="bivariate", n_min=1, build=_r_1_8,
                     summary="y -> x+y form of 1.8", pole="y", derive=_shifted),
        IdentitySpec(key="2.5", arity="bivariate", n_min=1, build=_r_1_9,
                     summary="(x,y) -> (x+y,x) form of 1.9", pole="y", derive=_shifted),
        IdentitySpec(key="chu", arity="scalar", n_min=1, build=_hockey_stick_sides,
                     summary="hockey-stick sum: sum C(k-1,l-1) = C(n,l)",
                     params=(("l", 1, None),)),
        IdentitySpec(key="3.1", arity="univariate", n_min=2, build=_r_3_1,
                     summary="gamma/beta-weighted extension of 1.6; integer p, q >= 0",
                     params=(("p", 0, 3), ("q", 0, 3))),
        IdentitySpec(key="3.2", arity="scalar", n_min=1, build=_r_3_2,
                     summary="beta-weighted extension of chu; q >= 1",
                     params=(("l", 1, None), ("p", 0, 4), ("q", 1, 4))),
        IdentitySpec(key="ds", arity="scalar", n_min=2, build=_r_ds,
                     summary="even-index rising-factorial convolution "
                             "(p = q, x = 0 slice of 3.1)",
                     params=(("p", 0, 4),)),
    )
}


def catalog_ids(include_negative: bool = True) -> list[str]:
    """Catalog keys in fixed order."""
    return [k for k, s in CATALOG.items() if include_negative or not s.negative]


class VerifyReport(SimpleNamespace):
    """Outcome of checking one identity instance (mutable, unhashable); equality
    and repr are field-wise, from ``SimpleNamespace``."""

    def __init__(self, key: str, n: int, l: Optional[int] = None, p: Optional[int] = None,
                 q: Optional[int] = None, holds: Optional[bool] = None,
                 residual: Optional[Residual] = None, elapsed: float = 0.0,
                 skipped: bool = False):
        super().__init__(key=key, n=n, l=l, p=p, q=q, holds=holds, residual=residual,
                         elapsed=elapsed, skipped=skipped)

    def __reduce__(self):  # for copy and pickle; SimpleNamespace's passes no key and n
        return type(self), (self.key, self.n), vars(self)

    def residual_str(self) -> str:
        if self.skipped:
            return ""
        return "0" if self.holds else str(self.residual)

    def params_str(self) -> str:
        parts = [f"n={self.n}"]
        for name in _SLOTS:
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return " ".join(parts)


def _get_spec(key: str) -> IdentitySpec:
    try:
        return CATALOG[key]
    except KeyError:
        raise UnknownIdentityError(key) from None


# arity -> its kernel of the two sides, LHS - RHS; each is looked up at the
# call, so one patched or wrapped on its class runs
_KERNELS = {
    "scalar": lambda lhs, rhs: frac_sum(lhs, rhs),
    "univariate": lambda lhs, rhs: (Poly1() if Poly1.vanishes(lhs, rhs)
                                    else Poly1.lincomb(lhs, rhs)),
    "bivariate": lambda lhs, rhs: Poly2.sheared(lhs, rhs),
}


def build_residual(key: str, n: int, *, l: Optional[int] = None,
                   p: Optional[int] = None, q: Optional[int] = None) -> Residual:
    """LHS - RHS of one identity instance after denominator clearing, by one
    kernel call on the two sides' data; a derived entry then maps that
    residual by its ``derive``."""
    spec = _get_spec(key)
    if not spec.in_domain(n, l, p, q):
        raise ValueError(f"parameters out of domain for {key!r}: n={n}, l={l}, p={p}, q={q}")
    given = (l, p, q)
    residual = _KERNELS[spec.arity](*spec.build(n, *[given[_SLOTS[name]]
                                                     for name, _, _ in spec.params]))
    return residual if spec.derive is None else spec.derive(n, residual)


def _is_zero(residual: Residual) -> bool:
    if isinstance(residual, (Poly1, Poly2)):
        return residual.is_zero
    return residual == 0


def verify(key: str, n: int, *, l: Optional[int] = None, p: Optional[int] = None,
           q: Optional[int] = None) -> VerifyReport:
    """Check one identity instance and report the outcome with timing."""
    start = time.perf_counter()
    residual = build_residual(key, n, l=l, p=p, q=q)
    elapsed = time.perf_counter() - start
    holds = _is_zero(residual)
    kept = None if holds else residual
    return VerifyReport(key, n, l=l, p=p, q=q, holds=holds,
                        residual=kept, elapsed=elapsed)


def verify_sweep(keys: Iterable[str], n_range: Iterable[int],
                 p_range: Optional[Iterable[int]] = None,
                 q_range: Optional[Iterable[int]] = None) -> list[VerifyReport]:
    """Cartesian sweep in deterministic order (id, n, l, p, q).

    Each parameter an identity takes runs over the given range, or where
    none is given (always for l) over its row's default range; a range for
    a parameter the identity does not take is ignored.  Out-of-domain
    combinations produce skip-marked reports instead of errors, so one
    sweep can cover identities with different domains.
    """
    keys = list(keys)
    for key in keys:
        _get_spec(key)
    requested = {name: list(values) for name, values in (("p", p_range), ("q", q_range))
                 if values is not None}
    reports: list[VerifyReport] = []
    for key, n in product(keys, n_range):
        spec = CATALOG[key]
        names = [name for name, _, _ in spec.params]
        points = [()] if n < spec.n_min else product(*[
            requested.get(name, range(least, (n if last is None else last) + 1))
            for name, least, last in spec.params])
        for point in points:
            given = dict(zip(names, point))
            reports.append(verify(key, n, **given) if spec.in_domain(n, **given)
                           else VerifyReport(key, n, **given, skipped=True))
    return reports
