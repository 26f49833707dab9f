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
x = 0).  Their weights, ratios of gamma values, are written once each,
inline in the builder, as integer rising factorials perm(a+m-1, m), and
each per-instance constant, such as rising(n, p+q), is computed once.

The left sides hold the sums, the right sides the harmonic, closed-form
and divided-difference terms; 1.8 and 1.11 put the Euler convolution
alone on the left.
"""

from __future__ import annotations

import time
from functools import cache, partial
from itertools import product, repeat
from math import comb, perm
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .arith import Rat, factorial, frac_sum
from .polynomials import _PAIRED, _X_Y, _XMY_Y, _XPY_X, _YMX_X, Poly1, Poly2, _poly1
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

_BASE = (_X_Y, _XMY_Y, _YMX_X)
_x_to = cache(Poly1.monomial)  # x^j, one Poly1 per power


def _r_1_4(n: int) -> tuple[list, list]:
    # both sides multiplied by (x - y); the divided difference
    # (B_n(x) - B_n(y)) / (n (x - y)) then enters as a plain polynomial
    b, h = bernoulli_poly, harmonic(n - 1)
    hw = (h.numerator, h.denominator * n)
    conv = [((1, k * (n - k)), b(k), b(n - k)) for k in range(1, n)]
    mixed = [((-comb(n - 1, l - 1), l * l), b(l), b(n - l)) for l in range(1, n + 1)]
    return ([*zip((_X_Y, _PAIRED), (conv, mixed), repeat(1))],
            [(_X_Y, [(hw, b(n), Poly1._unit), (hw, Poly1._unit, b(n))], 1),
             (_X_Y, [((1, n), b(n), Poly1._unit), ((-1, n), Poly1._unit, b(n))])])


def _shifted(n: int, r: Poly2) -> Poly2:
    """R(x + y, x) for R = sum_i x^i r_i(y): the terms x^i r_i at (x + y, x), each
    r_i R's stored integer row i, over R's denominator."""
    return Poly2.sheared([(_XPY_X, [((1, r._den), _x_to(i), _poly1([row], 1))
                                    for i, row in enumerate(r._num)])])


def _r_1_5(n: int) -> tuple[list, list]:
    b, w = bernoulli_poly, n + 2
    conv = [(w, b(k), b(n - k)) for k in range(0, n + 1)]
    mixed = [((-w * comb(n + 1, l + 1), l + 2), b(l), b(n - l)) for l in range(0, n + 1)]
    return ([*zip((_X_Y, _PAIRED), (conv, mixed), repeat(3))],
            [(_X_Y, [(w, b(n + 1), Poly1._unit), (w, Poly1._unit, b(n + 1))], 1),
             (_X_Y, [(-2, b(n + 2), Poly1._unit), (2, Poly1._unit, b(n + 2))])])


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
    return ([(_X_Y, conv, 1)],
            [(_PAIRED, mixed, 1),
             (_X_Y, [((4, m), b(m), Poly1._unit), ((-4, m), Poly1._unit, b(m))])])


def _r_1_9(n: int) -> tuple[list, list]:
    b, e, h = bernoulli_poly, euler_poly, harmonic(n)
    conv = [((1, k), b(k), e(n - k)) for k in range(1, n + 1)]
    left = [((-comb(n, l), l), b(l), e(n - l)) for l in range(1, n + 1)]
    right = [((comb(n, l), 2), e(l - 1), e(n - l)) for l in range(1, n + 1)]
    return ([*zip(_BASE, (conv, left, right), repeat(1))],
            [(_X_Y, [((h.numerator, h.denominator), Poly1._unit, e(n))], 1),
             (_X_Y, [(1, e(n), Poly1._unit), (-1, Poly1._unit, e(n))])])


def _r_1_10(n: int) -> tuple[list, list]:
    b, e = bernoulli_poly, euler_poly
    conv = [(1, b(k), e(n - k)) for k in range(0, n + 1)]
    left = [(-comb(n + 1, l + 1), b(l), e(n - l)) for l in range(1, n + 1)]
    right = [((comb(n + 1, l + 1), 2), e(l - 1), e(n - l)) for l in range(1, n + 1)]
    return ([*zip(_BASE, (conv, left, right), repeat(2))],
            [(_X_Y, [(n + 1, Poly1._unit, e(n))], 2),
             (_X_Y, [(n + 1, e(n), Poly1._unit)], 1),
             (_X_Y, [(-1, e(n + 1), Poly1._unit), (1, Poly1._unit, e(n + 1))])])


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


# -- shift-convolution sums and Chu's identity --------------------------------
#
# 2.1 and 2.2 put their left sums at (x + y, x) and their right sums, terms
# x^(n-l) f_l(y), at (x, y); 2.1-as-printed is 2.1 without the right side's C(n,l).

def _r_2_1(n: int, weighted: bool = True) -> tuple[list, list]:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    h = harmonic(n)
    lhs = [((1, k), bernoulli_poly(k), _x_to(n - k)) for k in range(1, n + 1)]
    rhs = [((h.numerator, h.denominator), _x_to(n), _x_to(0))]
    rhs += [((comb(n, l) if weighted else 1, l), _x_to(n - l), bernoulli_poly(l))
            for l in range(1, n + 1)]
    return [(_XPY_X, lhs)], [(_X_Y, rhs)]


def _r_2_2(n: int) -> tuple[list, list]:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    lhs = [(1, euler_poly(k), _x_to(n - k)) for k in range(0, n + 1)]
    rhs = [(comb(n + 1, l + 1), _x_to(n - l), euler_poly(l)) for l in range(0, n + 1)]
    return [(_XPY_X, lhs)], [(_X_Y, rhs)]


def _r_chu(n: int, l: int) -> tuple[list, list]:
    """sum_{k=l}^{n} C(k-1, l-1) = C(n, l), each side one integer pair."""
    return [(sum(comb(k - 1, l - 1) for k in range(l, n + 1)), 1)], [(comb(n, l), 1)]


# -- gamma/beta-weighted family -----------------------------------------------
#
# The weights are ratios of gamma values at integers, each written with
# integer rising factorials rising(a, m) = a (a+1) ... (a+m-1)
# = Gamma(a+m) / Gamma(a) = perm(a+m-1, m), and beta(a, b) = (b-1)! / rising(a, b).

def _r_3_1(n: int, p: int, q: int) -> tuple[list, list]:
    """The left weight Gamma(k+p) Gamma(n-k+q) / (k! (n-k)! rising(n, p+q)) is
    rising(k, p) rising(n-k, q) / (k (n-k) rising(n, p+q)); the right one,
    C(n-1, l-1) B_l / l (beta(l+p, q+1) + beta(l+q, p+1)), has the two betas
    q! rising(l, p) and p! rising(l, q) over rising(l, p+q+1)."""
    b, B = bernoulli_poly, [*map(bernoulli_number, range(n + 1))]
    s, fp, fq = p + q, factorial(p), factorial(q)
    rn = perm(n + s - 1, s)
    lhs = [((perm(k + p - 1, p) * perm(n - k + q - 1, q), k * (n - k) * rn), b(k), b(n - k))
           for k in range(1, n)]
    rhs = [(_frac(comb(n - 1, l - 1) * (fq * perm(l + p - 1, p) + fp * perm(l + q - 1, q)),
                  l * perm(l + s, s + 1), B[l]), b(n - l)) for l in range(2, n + 1) if B[l]]
    rhs += [(_frac(1, n, h_pq(n, p, q)), b(n)), (_frac(1, n, h_pq(n, q, p)), b(n))]
    return lhs, rhs


def _r_3_2(n: int, l: int, p: int, q: int) -> tuple[list, list]:
    """sum_{k=l}^{n} C(n-l, k-l) beta(k+p, n-k+q) = beta(l+p, q).  Each left
    beta is (q-1)! t_k / rising(l+p, n-l+q) with the integer
    t_k = C(n-l, k-l) rising(l+p, k-l) rising(q, n-k); the t_k are summed as
    ints, each from the last by the term ratio
    t_{k+1} / t_k = (n-k)(k+p) / ((k-l+1)(n-k+q-1)), a division that is
    exact because t_{k+1} is an integer."""
    t = total = perm(n - l + q - 1, n - l)  # t_l
    for k in range(l, n):
        t = t * (n - k) * (k + p) // ((k - l + 1) * (n - k + q - 1))
        total += t
    fq = factorial(q - 1)
    return [(fq * total, perm(n + p + q - 1, n - l + q))], [(fq, perm(l + p + q - 1, q))]


def _r_ds(n: int, p: int) -> tuple[list, list]:
    """Even-index convolution identity with rising-factorial weights (the
    p = q, x = 0 slice of 3.1 with the index doubled), B[k] being B_2k.  The
    left weight Gamma(2k+p) Gamma(2n-2k+p) / (Gamma(2k) Gamma(2n-2k)) is
    rising(2k, p) rising(2n-2k, p), over 8k(n-k) (2n+2p-1)!; the right one
    is beta(2k+p, p+1) = p! / rising(2k+p, p+1) over (2k)! (2n-2k)!."""
    B, f = [bernoulli_number(2 * k) for k in range(n + 1)], factorial
    d, fp = 8 * f(2 * n + 2 * p - 1), f(p)
    lhs = [_frac(perm(2 * k + p - 1, p) * perm(2 * n - 2 * k + p - 1, p), k * (n - k) * d,
                 B[k], B[n - k]) for k in range(1, n)]
    rhs = [_frac(fp, f(2 * k) * f(2 * n - 2 * k) * perm(2 * k + 2 * p, p + 1), B[k], B[n - k])
           for k in range(1, n + 1)]
    rhs.append(_frac(1, f(2 * n), B[n], h_pq(2 * n, p, p)))
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
        IdentitySpec(key="2.1", arity="bivariate", n_min=1, build=_r_2_1,
                     summary="Bernoulli shift-convolution sum (binomial weights)"),
        IdentitySpec(key="2.1-as-printed", arity="bivariate", n_min=1,
                     build=partial(_r_2_1, weighted=False),
                     summary="NEGATIVE CONTROL: 2.1 without the binomial weight; "
                             "fails for n >= 2",
                     negative=True),
        IdentitySpec(key="2.2", arity="bivariate", n_min=0, build=_r_2_2,
                     summary="Euler shift-convolution sum"),
        IdentitySpec(key="2.3", arity="bivariate", n_min=2, build=_r_1_4,
                     summary="y -> x+y form of 1.4", pole="y", derive=_shifted),
        IdentitySpec(key="2.4", arity="bivariate", n_min=1, build=_r_1_8,
                     summary="y -> x+y form of 1.8", pole="y", derive=_shifted),
        IdentitySpec(key="2.5", arity="bivariate", n_min=1, build=_r_1_9,
                     summary="(x,y) -> (x+y,x) form of 1.9", pole="y", derive=_shifted),
        IdentitySpec(key="chu", arity="scalar", n_min=1, build=_r_chu,
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
