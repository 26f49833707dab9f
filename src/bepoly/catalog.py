"""The identity catalog: every checkable identity as an exact zero test.

Each entry builds LHS - RHS of one identity, after multiplying both
sides by the entry's pole-clearing factor (recorded in ``pole``), as a
Rat, Poly1, or Poly2.  The identity holds iff that residual is the
zero element; there is no tolerance anywhere.  A scalar builder writes
its sums as integer (numerator, denominator) pairs and adds them with
one ``frac_sum``.  A univariate builder writes the residual as a list of
terms (w, f, g) or (w, f), each weight an int or an unreduced integer
pair (numerator, denominator), for one ``lincomb`` call, which reduces
only the result and convolves a repeated product such as
B_k(x) B_{n-k}(x) in a symmetric sum once.  Each bivariate sum is one
``Poly2.sheared`` call over groups of terms w * f(L1) * g(L2) at
argument pairs (L1, L2); where a pole factor such as (x - y),
(x - y)^3 or y multiplies it, an outer ``lincomb`` takes it as a factor
and adds the one-factor pole terms.

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
2.3, 2.4, 2.5 replace y by x + y.  2.1 and 2.2 are the
shift-convolution summation identities, 2.1-as-printed is the
deliberately wrong variant without the binomial weight (a negative
control: it must FAIL for n >= 2), chu is the hockey-stick summation,
and 3.1 / 3.2 / ds are the gamma/beta-weighted generalizations at
integer parameters (ds being the even-index p = q specialization at
x = 0).
"""

from __future__ import annotations

import time
from math import comb, perm
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .arith import Rat, beta_int, binomial, factorial, frac_sum
from .operators import (
    bernoulli_shift_sum,
    bernoulli_shift_sum_unweighted,
    euler_shift_sum,
)
from .polynomials import Poly1, Poly2
from .sequences import (
    _bern2,
    _eul2,
    bbar,
    bernoulli_number,
    bernoulli_poly,
    euler_poly,
    harmonic,
    h_pq,
)

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


_X = Poly2.variable("x")
_Y = Poly2.variable("y")
_XMY = _X - _Y
_XMY2 = _XMY ** 2
_XMY3 = _XMY ** 3


# -- scalar convolution identities ------------------------------------------

def _frac(num: int, den: int, a: Rat, b: Rat = 1) -> tuple[int, int]:
    """num * a * b / den as an integer pair (numerator, denominator)."""
    return num * a.numerator * b.numerator, den * a.denominator * b.denominator


def _r_1_1(n: int) -> Rat:
    b = bernoulli_number
    terms = [_frac(1 - comb(n, k), k * (n - k), b(k), b(n - k)) for k in range(2, n - 1)]
    terms.append(_frac(-2, n, harmonic(n), b(n)))
    return frac_sum(terms)


def _r_1_2(n: int) -> Rat:
    b = bernoulli_number
    terms = [_frac(1 - comb(n, k), k, b(k), b(n - k)) for k in range(2, n - 1)]
    terms.append(_frac(-1, 1, harmonic(n), b(n)))
    return frac_sum(terms)


def _r_1_3(n: int) -> Rat:
    b = bernoulli_number
    terms = [_frac(n + 2 - 2 * comb(n + 2, k), 1, b(k), b(n - k)) for k in range(2, n - 1)]
    terms.append(_frac(-n * (n + 1), 1, b(n)))
    return frac_sum(terms)


def _r_cor_1_2(n: int) -> Rat:
    """Chain of three expressions e1 = e2 = e3; the residual is e2 - e3.  The
    first link checks nothing: e1 - e2 = sum (n-2k)/(2k(n-k)) Bbar_k Bbar_{n-k}
    is 0 for any sequence, its weight being antisymmetric under k <-> n-k."""
    terms = [_frac(n, 2 * k * (n - k), bbar(k), bbar(n - k)) for k in range(2, n - 1)]
    terms.append(_frac(-1, 1, harmonic(n - 1), bbar(n)))
    terms += [_frac(-comb(n, k), k, bernoulli_number(k), bbar(n - k)) for k in range(2, n + 1)]
    return frac_sum(terms)


# -- bivariate Bernoulli identities ------------------------------------------
#
# Inner sums are Poly2.sheared groups.  1.4, 1.8 and 1.9 sum at the argument
# pairs (x, y), (x - y, y), (y - x, x); their shifted forms 2.3, 2.4 and 2.5
# sum the same terms at the pairs (x, y) -> (x + y, x) makes of these.  _PAIRED
# names (x - y, y) and (y - x, x) as one set for one list; zip drops the copy.

_BASE = (((1, 0), (0, 1)), ((1, -1), (0, 1)), ((-1, 1), (1, 0)))
_PAIRED = (_BASE[0], _BASE[1:])
_SHIFTED = (((1, 1), (1, 0)), ((0, 1), (1, 0)), ((0, -1), (1, 1)))
_ONE = Poly1((1,))


def _inner_1_4(n: int, pairs) -> Poly2:
    b, h = bernoulli_poly, harmonic(n - 1) / n
    conv = [(Rat(1, k * (n - k)), b(k), b(n - k)) for k in range(1, n)]
    conv += [(-h, b(n), _ONE), (-h, _ONE, b(n))]
    mixed = [(-binomial(n - 1, l - 1) / (l * l), b(l), b(n - l)) for l in range(1, n + 1)]
    return Poly2.sheared(zip(pairs, (conv, mixed, mixed)))


def _r_1_4(n: int) -> Poly2:
    # both sides multiplied by (x - y); the divided difference
    # (B_n(x) - B_n(y)) / (n (x - y)) then enters as a plain polynomial
    return Poly2.lincomb([(1, _XMY, _inner_1_4(n, _PAIRED)),
                          (Rat(-1, n), _bern2(n, 1, 0)), (Rat(1, n), _bern2(n, 0, 1))])


def _r_1_4p(n: int) -> Poly2:
    # the 1.4 chain multiplied through by n, with the 1/k-weighted double
    # sum written symmetrically in its two arguments
    b, h = bernoulli_poly, harmonic(n - 1)
    conv = [(Rat(1, k), b(k), b(n - k)) for k in range(1, n)]
    conv += [(Rat(1, k), b(n - k), b(k)) for k in range(1, n)]
    conv += [(-h, b(n), _ONE), (-h, _ONE, b(n))]
    mixed = [(-binomial(n, l) / l, b(l), b(n - l)) for l in range(1, n + 1)]
    return Poly2.lincomb([(1, _XMY, Poly2.sheared(zip(_PAIRED, (conv, mixed)))),
                          (-1, _bern2(n, 1, 0)), (1, _bern2(n, 0, 1))])


def _r_1_5(n: int) -> Poly2:
    b = bernoulli_poly
    conv = [(1, b(k), b(n - k)) for k in range(0, n + 1)]
    mixed = [(-binomial(n + 1, l + 1) / (l + 2), b(l), b(n - l)) for l in range(0, n + 1)]
    return Poly2.lincomb([(n + 2, _XMY3, Poly2.sheared(zip(_PAIRED, (conv, mixed)))),
                          (-(n + 2), _XMY, _bern2(n + 1, 1, 0)),
                          (-(n + 2), _XMY, _bern2(n + 1, 0, 1)),
                          (2, _bern2(n + 2, 1, 0)), (-2, _bern2(n + 2, 0, 1))])


# -- univariate (diagonal) Bernoulli identities -------------------------------

def _r_1_6(n: int) -> Poly1:
    b = bernoulli_poly
    terms = [((1, k * (n - k)), b(k), b(n - k)) for k in range(1, n)]
    terms += [(_frac(-2 * comb(n - 1, l - 1), l * l, bernoulli_number(l)), b(n - l))
              for l in range(2, n + 1)]
    terms.append((_frac(-2, n, harmonic(n - 1)), b(n)))
    return Poly1.lincomb(terms)


def _r_1_7(n: int) -> Poly1:
    b = bernoulli_poly
    terms = [(1, b(k), b(n - k)) for k in range(0, n + 1)]
    terms += [(_frac(-2 * comb(n + 1, l + 1), l + 2, bernoulli_number(l)), b(n - l))
              for l in range(2, n + 1)]
    terms.append((-(n + 1), b(n)))
    return Poly1.lincomb(terms)


# -- bivariate Euler/Bernoulli identities -------------------------------------

def _inner_1_8(n: int, pairs) -> Poly2:
    e = euler_poly
    conv = [(1, e(k), e(n - k)) for k in range(0, n + 1)]
    mixed = [(2 * binomial(n + 1, l) / (l + 1), e(l), bernoulli_poly(n + 1 - l))
             for l in range(0, n + 2)]
    return Poly2.sheared(zip(pairs, (conv, mixed, mixed)))


def _r_1_8(n: int) -> Poly2:
    return Poly2.lincomb([(1, _XMY, _inner_1_8(n, _PAIRED)),
                          (Rat(-4, n + 2), _bern2(n + 2, 1, 0)),
                          (Rat(4, n + 2), _bern2(n + 2, 0, 1))])


def _inner_1_9(n: int, pairs) -> Poly2:
    b, e = bernoulli_poly, euler_poly
    conv = [(Rat(1, k), b(k), e(n - k)) for k in range(1, n + 1)]
    conv.append((-harmonic(n), _ONE, e(n)))
    left = [(-binomial(n, l) / l, b(l), e(n - l)) for l in range(1, n + 1)]
    right = [(binomial(n, l) / 2, e(l - 1), e(n - l)) for l in range(1, n + 1)]
    return Poly2.sheared(zip(pairs, (conv, left, right)))


def _r_1_9(n: int) -> Poly2:
    return Poly2.lincomb([(1, _XMY, _inner_1_9(n, _BASE)),
                          (-1, _eul2(n, 1, 0)), (1, _eul2(n, 0, 1))])


def _r_1_10(n: int) -> Poly2:
    b, e = bernoulli_poly, euler_poly
    conv = [(1, b(k), e(n - k)) for k in range(0, n + 1)]
    conv.append((-(n + 1), _ONE, e(n)))
    left = [(-binomial(n + 1, l + 1), b(l), e(n - l)) for l in range(1, n + 1)]
    right = [(binomial(n + 1, l + 1) / 2, e(l - 1), e(n - l)) for l in range(1, n + 1)]
    return Poly2.lincomb([(1, _XMY2, Poly2.sheared(zip(_BASE, (conv, left, right)))),
                          (-(n + 1), _XMY, _eul2(n, 1, 0)),
                          (1, _eul2(n + 1, 1, 0)), (-1, _eul2(n + 1, 0, 1))])


# -- univariate (diagonal) Euler identities -----------------------------------

def _r_1_11(n: int) -> Poly1:
    e = euler_poly
    terms = [(n + 2, e(k), e(n - k)) for k in range(0, n + 1)]
    terms += [(_frac(-8 * comb(n + 2, l) * (2 ** l - 1), l, bernoulli_number(l)),
               bernoulli_poly(n + 2 - l)) for l in range(2, n + 3)]
    return Poly1.lincomb(terms)


def _r_1_12(n: int) -> Poly1:
    b, e = bernoulli_poly, euler_poly
    terms = [((1, k), b(k), e(n - k)) for k in range(1, n + 1)]
    terms += [(_frac(-comb(n, l) * 2 ** l, l, bernoulli_number(l)), e(n - l))
              for l in range(2, n + 1)]
    terms.append((_frac(-1, 1, harmonic(n)), e(n)))
    return Poly1.lincomb(terms)


def _r_1_13(n: int) -> Poly1:
    b, e = bernoulli_poly, euler_poly
    terms = [(1, b(k), e(n - k)) for k in range(0, n + 1)]
    terms += [(_frac(-comb(n + 1, l + 1) * (2 ** l + l - 1), l, bernoulli_number(l)),
               e(n - l)) for l in range(2, n + 1)]
    terms.append((-(n + 1), e(n)))
    return Poly1.lincomb(terms)


# -- shift-convolution sums and shifted forms ---------------------------------

def _r_2_1(n: int) -> Poly2:
    lhs, rhs = bernoulli_shift_sum(n)
    return lhs - rhs


def _r_2_1_as_printed(n: int) -> Poly2:
    lhs, rhs = bernoulli_shift_sum_unweighted(n)
    return lhs - rhs


def _r_2_2(n: int) -> Poly2:
    lhs, rhs = euler_shift_sum(n)
    return lhs - rhs


def _r_2_3(n: int) -> Poly2:
    # y -> x + y form of 1.4, both sides multiplied by y
    return Poly2.lincomb([(1, _Y, _inner_1_4(n, _SHIFTED)),
                          (Rat(-1, n), _bern2(n, 1, 1)), (Rat(1, n), _bern2(n, 1, 0))])


def _r_2_4(n: int) -> Poly2:
    # y -> x + y form of 1.8, both sides multiplied by y
    return Poly2.lincomb([(1, _Y, _inner_1_8(n, _SHIFTED)),
                          (Rat(-4, n + 2), _bern2(n + 2, 1, 1)),
                          (Rat(4, n + 2), _bern2(n + 2, 1, 0))])


def _r_2_5(n: int) -> Poly2:
    # (x, y) -> (x + y, x) form of 1.9, both sides multiplied by y
    return Poly2.lincomb([(1, _Y, _inner_1_9(n, _SHIFTED)),
                          (-1, _eul2(n, 1, 1)), (1, _eul2(n, 1, 0))])


def _r_chu(n: int, l: int) -> Rat:
    total = sum(comb(k - 1, l - 1) for k in range(l, n + 1))
    return Rat(total) - binomial(n, l)


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


def _r_3_1(n: int, p: int, q: int) -> Poly1:
    b = bernoulli_poly
    terms = [(_w_3_1_lhs(n, k, p, q), b(k), b(n - k)) for k in range(1, n)]
    for l in range(2, n + 1):
        num, den = _w_3_1_rhs(n, l, p, q)
        terms.append(((-num, den), b(n - l)))
    terms += [(_frac(-1, n, h_pq(n, p, q)), b(n)), (_frac(-1, n, h_pq(n, q, p)), b(n))]
    return Poly1.lincomb(terms)


def _sum_3_2(n: int, l: int, p: int, q: int) -> Rat:
    """sum_{k=l}^{n} C(n-l, k-l) beta(k+p, n-k+q); every beta has the
    denominator (n+p+q-1)!, so the numerators are summed as ints."""
    total = sum(comb(n - l, k - l) * factorial(k + p - 1) * factorial(n - k + q - 1)
                for k in range(l, n + 1))
    return Rat(total, factorial(n + p + q - 1))


def _r_3_2(n: int, l: int, p: int, q: int) -> Rat:
    return _sum_3_2(n, l, p, q) - beta_int(l + p, q)


def _r_ds(n: int, p: int) -> Rat:
    """Even-index convolution identity with rising-factorial weights
    (the p = q, x = 0 slice of 3.1 with the index doubled).  With
    Gamma(m) = (m-1)!, the left weight Gamma(2k+p) Gamma(2n-2k+p) /
    (Gamma(2k) Gamma(2n-2k)) is perm(2k+p-1, p) perm(2n-2k+p-1, p)."""
    b, f = bernoulli_number, factorial
    terms = []
    for k in range(1, n + 1):
        u, v = b(2 * k), b(2 * n - 2 * k)
        if k < n:
            terms.append(_frac(perm(2 * k + p - 1, p) * perm(2 * n - 2 * k + p - 1, p),
                               8 * k * (n - k) * f(2 * n + 2 * p - 1), u, v))
        terms.append(_frac(-f(2 * k + p - 1) * f(p),
                           f(2 * k) * f(2 * n - 2 * k) * f(2 * k + 2 * p), u, v))
    terms.append(_frac(-1, f(2 * n), b(2 * n), h_pq(2 * n, p, p)))
    return frac_sum(terms)


# -- catalog ------------------------------------------------------------------

class IdentitySpec(NamedTuple):
    """One catalog entry.

    ``build`` maps the parameters (n first, then any of l, p, q in the
    order given by ``params``) to the residual LHS - RHS after both
    sides were multiplied by ``pole``.  The residual is identically
    zero for every in-domain parameter choice -- except for entries
    flagged ``negative``, which exist to prove the harness can fail.
    ``q_min`` is the smallest admissible q for entries that take one.
    """

    key: str
    arity: str  # "scalar" | "univariate" | "bivariate"
    n_min: int
    build: Callable[..., Residual]
    summary: str
    pole: str = "none"
    params: tuple[str, ...] = ()
    p_default: tuple[int, int] = (0, 3)
    q_default: tuple[int, int] = (0, 3)
    q_min: int = 0
    negative: bool = False

    def in_domain(self, n: int, l: Optional[int] = None,
                  p: Optional[int] = None, q: Optional[int] = None) -> bool:
        if n < self.n_min:
            return False
        if "l" in self.params and (l is None or not 1 <= l <= n):
            return False
        if "p" in self.params and (p is None or p < 0):
            return False
        if "q" in self.params and (q is None or q < self.q_min):
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
        IdentitySpec(key="1.4p", arity="bivariate", n_min=2, build=_r_1_4p,
                     summary="equivalent form of 1.4 (times n, split weights)", pole="(x-y)"),
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
                     build=_r_2_1_as_printed,
                     summary="NEGATIVE CONTROL: 2.1 without the binomial weight; "
                             "fails for n >= 2",
                     negative=True),
        IdentitySpec(key="2.2", arity="bivariate", n_min=0, build=_r_2_2,
                     summary="Euler shift-convolution sum"),
        IdentitySpec(key="2.3", arity="bivariate", n_min=2, build=_r_2_3,
                     summary="y -> x+y form of 1.4", pole="y"),
        IdentitySpec(key="2.4", arity="bivariate", n_min=1, build=_r_2_4,
                     summary="y -> x+y form of 1.8", pole="y"),
        IdentitySpec(key="2.5", arity="bivariate", n_min=1, build=_r_2_5,
                     summary="(x,y) -> (x+y,x) form of 1.9", pole="y"),
        IdentitySpec(key="chu", arity="scalar", n_min=1, build=_r_chu,
                     summary="hockey-stick sum: sum C(k-1,l-1) = C(n,l)",
                     params=("l",)),
        IdentitySpec(key="3.1", arity="univariate", n_min=2, build=_r_3_1,
                     summary="gamma/beta-weighted extension of 1.6; integer p, q >= 0",
                     params=("p", "q")),
        IdentitySpec(key="3.2", arity="scalar", n_min=1, build=_r_3_2,
                     summary="beta-weighted extension of chu; q >= 1",
                     params=("l", "p", "q"), p_default=(0, 4), q_default=(1, 4), q_min=1),
        IdentitySpec(key="ds", arity="scalar", n_min=2, build=_r_ds,
                     summary="even-index rising-factorial convolution "
                             "(p = q, x = 0 slice of 3.1)",
                     params=("p",), p_default=(0, 4)),
    )
}


def catalog_ids(include_negative: bool = True) -> list[str]:
    """Catalog keys in fixed order."""
    return [k for k, s in CATALOG.items() if include_negative or not s.negative]


class VerifyReport:
    """Outcome of checking one identity instance (mutable, unhashable)."""

    __match_args__ = ("key", "n", "l", "p", "q", "holds", "residual", "elapsed", "skipped")

    def __init__(self, key: str, n: int, l: Optional[int] = None, p: Optional[int] = None,
                 q: Optional[int] = None, holds: Optional[bool] = None,
                 residual: Optional[Residual] = None, elapsed: float = 0.0,
                 skipped: bool = False):
        self.key, self.n, self.l, self.p, self.q = key, n, l, p, q
        self.holds, self.residual, self.elapsed, self.skipped = holds, residual, elapsed, skipped

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def residual_str(self) -> str:
        if self.skipped:
            return ""
        return "0" if self.holds else str(self.residual)

    def params_str(self) -> str:
        parts = [f"n={self.n}"]
        for name in ("l", "p", "q"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return " ".join(parts)


def _get_spec(key: str) -> IdentitySpec:
    try:
        return CATALOG[key]
    except KeyError:
        raise UnknownIdentityError(key) from None


def _build_args(spec: IdentitySpec, n: int, l, p, q) -> list[int]:
    supplied = {"l": l, "p": p, "q": q}
    args = [n]
    for name in spec.params:
        value = supplied[name]
        if value is None:
            raise ValueError(f"identity {spec.key!r} requires parameter {name!r}")
        args.append(value)
    for name, value in supplied.items():
        if value is not None and name not in spec.params:
            raise ValueError(f"identity {spec.key!r} takes no parameter {name!r}")
    return args


def build_residual(key: str, n: int, *, l: Optional[int] = None,
                   p: Optional[int] = None, q: Optional[int] = None) -> Residual:
    """LHS - RHS of one identity instance after denominator clearing."""
    spec = _get_spec(key)
    args = _build_args(spec, n, l, p, q)
    if not spec.in_domain(n, l, p, q):
        raise ValueError(f"parameters out of domain for {key!r}: n={n}, l={l}, p={p}, q={q}")
    return spec.build(*args)


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


def _param_values(spec: IdentitySpec, name: str,
                  requested: Optional[Iterable[int]]) -> list[Optional[int]]:
    if name not in spec.params:
        return [None]
    if requested is not None:
        return list(requested)
    lo, hi = spec.p_default if name == "p" else spec.q_default
    return list(range(lo, hi + 1))


def verify_sweep(keys: Iterable[str], n_range: Iterable[int],
                 p_range: Optional[Iterable[int]] = None,
                 q_range: Optional[Iterable[int]] = None) -> list[VerifyReport]:
    """Cartesian sweep in deterministic order (id, n, l, p, q).

    Out-of-domain combinations produce skip-marked reports instead of
    errors, so one sweep can cover identities with different domains.
    An l parameter, where an identity takes one, runs over 1..n.
    """
    keys = list(keys)
    for key in keys:
        _get_spec(key)
    n_values = list(n_range)
    p_req = list(p_range) if p_range is not None else None
    q_req = list(q_range) if q_range is not None else None
    reports: list[VerifyReport] = []
    for key in keys:
        spec = CATALOG[key]
        for n in n_values:
            if n < spec.n_min:
                reports.append(VerifyReport(key, n, skipped=True))
                continue
            ls: list[Optional[int]] = list(range(1, n + 1)) if "l" in spec.params else [None]
            ps = _param_values(spec, "p", p_req)
            qs = _param_values(spec, "q", q_req)
            for l in ls:
                for p in ps:
                    for q in qs:
                        if not spec.in_domain(n, l, p, q):
                            reports.append(VerifyReport(key, n, l=l, p=p, q=q, skipped=True))
                            continue
                        reports.append(verify(key, n, l=l, p=p, q=q))
    return reports
