"""Bernoulli and Euler polynomials and their companion exact sequences.

Bernoulli numbers follow the convention forced by the generating
function z/(e^z - 1), so B_1 = -1/2, and Bernoulli polynomials are
B_n(x) = sum_k C(n,k) B_k x^{n-k}.  The numbers come from integer
tangent numbers, one column of Brent and Harvey's Algorithm
TangentNumbers (arXiv:1108.0286) per even index.  Both polynomial
families are Appell sequences, P_n(x) = sum_k C(n,k) P_k(0) x^{n-k},
and one sum builds both: from B_k for B_n(x), and for E_n(x) from the
closed form E_k(0) = 2 (1 - 2^{k+1}) B_{k+1} / (k+1).  Each E_n(x) is checked
against its defining equation E_n(x+1) + E_n(x) = 2 x^n on its stored
integers: one Taylor shift of the numerators, added to them, must be
0, ..., 0, 2 den, one list comparison.  The forward sum is injective on
polynomials, so the check is as strong as a second construction; a
mismatch would mean a convention bug somewhere and is treated as fatal,
and only then is the difference built as a polynomial, for the message.
h_pq checks its sum against the telescoped beta closed form as an
integer identity, with no Fraction.

BernoulliCache is the one hand-written table, because it backs the
cache file and carries the tangent column from index to index;
every derived value is a pure function memoised with functools.cache.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from math import comb, lcm, perm
from operator import add
from typing import Sequence

from .arith import _ZERO, Rat, beta_int, factorial, frac_sum
from .polynomials import Poly1, Poly2, _poly1, _shift_by_one

__all__ = [
    "BernoulliCache",
    "CacheIntegrityError",
    "default_cache",
    "bernoulli_number",
    "bernoulli_poly",
    "euler_poly",
    "harmonic",
    "bbar",
    "euler_at_zero",
    "h_pq",
]


class CacheIntegrityError(ValueError):
    """A cached Bernoulli value differs from a fresh computation."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _tangent_column(c: list[int]) -> None:
    """Turn column j - 1 of Algorithm TangentNumbers into column j, in place.

    Column j lists the values T_j takes across the algorithm's passes
    1..j and so ends in the tangent number T_j = A_{2j-1}.  From column
    j - 1, c_0..c_{j-2}: x_1 = (j-1) c_0, then for k = 2..j-1
    x_k = (j-k) c_{k-1} + (j-k+2) x_{k-1}, and T_j = 2 x_{j-1}.  Each x_k
    overwrites c_{k-1}, which nothing reads after it.
    """
    j = len(c) + 1
    x = c[0] = (j - 1) * c[0]
    for i in range(1, j - 1):  # x_k for k = i + 1
        x = c[i] = (j - 1 - i) * c[i] + (j + 1 - i) * x
    c.append(2 * x)


class BernoulliCache:
    """Append-only table of Bernoulli numbers B_0, B_1, ...

    The last tangent column is kept beside it, so extending to an even
    index m = 2j grows it once, in j - 1 steps of two multiplications by
    small ints and one addition.  Entries
    never change once computed; concurrent readers always observe the
    same deterministic values.
    """

    def __init__(self):
        self._table: list[Rat] = [Rat(1)]
        self._column: list[int] = [1]  # column j has j entries and ends in T_j
        self._lock = threading.Lock()

    @property
    def highest(self) -> int:
        """Largest index with a computed value."""
        return len(self._table) - 1

    def get(self, n: int) -> Rat:
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        try:  # a held index, the builders' every read but the first: one lookup
            return self._table[n]
        except IndexError:
            pass
        with self._lock:
            self._extend(n)
        return self._table[n]

    def _extend(self, n: int) -> None:
        """Grow the table to index n; the caller holds the lock."""
        for m in range(len(self._table), n + 1):
            if m % 2:
                value = Rat(-1, 2) if m == 1 else _ZERO  # B_m for odd m >= 3
            else:  # B_m = (-1)^(j-1) m T_j / (4^j (4^j - 1)) for m = 2j
                if len(self._column) < m // 2:
                    _tangent_column(self._column)
                q = 1 << m
                value = Rat((m if m % 4 == 2 else -m) * self._column[-1], q * (q - 1))
            self._table.append(value)

    def values(self) -> list[Rat]:
        """Snapshot of all computed values, index 0 .. highest."""
        with self._lock:
            return list(self._table)

    def seed(self, values: Sequence[Rat]) -> None:
        """Check supplied values B_0, B_1, ... against the process's own.

        ``get`` grows the table to the last supplied index, computing only the
        entries it lacks; no supplied value is ever adopted.  The first mismatch
        raises CacheIntegrityError naming the index, and the table keeps what
        it computed.
        """
        if values:
            self.get(len(values) - 1)
        for m, (value, expected) in enumerate(zip(values, self._table)):
            if value != expected:
                raise CacheIntegrityError(
                    m, f"cache entry {m} is {value}, recomputation gives {expected}"
                )


_CACHE = BernoulliCache()


def default_cache() -> BernoulliCache:
    """The process-wide cache behind bernoulli_number()."""
    return _CACHE


def bernoulli_number(n: int) -> Rat:
    """Bernoulli number B_n (convention B_1 = -1/2), memoized."""
    return _CACHE.get(n)


def _appell(n: int, at_zero) -> Poly1:
    """The Appell polynomial sum_k C(n,k) a_k x^{n-k}, a_k = at_zero(k), built as
    one integer row over the lcm of the denominators of the a_k."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a = [at_zero(n - i) for i in range(n + 1)]  # a_{n-i} goes with x^i
    den = lcm(*(c.denominator for c in a))
    return _poly1([[comb(n, i) * c.numerator * (den // c.denominator)
                    for i, c in enumerate(a)]], den)


@cache
def bernoulli_poly(n: int) -> Poly1:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^{n-k}."""
    return _appell(n, bernoulli_number)


@cache
def euler_poly(n: int) -> Poly1:
    """Euler polynomial E_n(x) = sum_k C(n,k) E_k(0) x^{n-k}, checked against
    E(x+1) + E(x) = 2 x^n on its numerators over its denominator.

    A result that fails its defining equation signals an internal
    defect and raises RuntimeError.
    """
    e = _appell(n, euler_at_zero)
    shifted = list(e._num[::-1])  # E(x + 1), top degree first, over E's denominator
    _shift_by_one(shifted)
    if [*map(add, reversed(shifted), e._num)] != [0] * n + [2 * e._den]:
        residual = Poly1.lincomb([(1, e.compose_affine(1, 1)), (1, e), (-2, Poly1.monomial(n))])
        raise RuntimeError(
            f"Euler polynomial E_{n} fails E(x+1) + E(x) = 2 x^{n}: "
            f"the difference is {residual}"
        )
    return e


# _bern2(k, cx, cy) = B_k(cx*x + cy*y), likewise _eul2; no builder reads them, they
# stay for the cache_info() that perfbench/spans.py snapshot() reads (ROADMAP item 1)

@cache
def _bern2(k: int, cx: int, cy: int) -> Poly2:
    return bernoulli_poly(k).compose_xy(cx, cy)


@cache
def _eul2(k: int, cx: int, cy: int) -> Poly2:
    return euler_poly(k).compose_xy(cx, cy)


@cache
def harmonic(n: int) -> Rat:
    """Harmonic number H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return frac_sum((1, k) for k in range(1, n + 1))


@cache
def bbar(k: int) -> Rat:
    """The scaled Bernoulli value (2^{1-k} - 1) B_k, equal to B_k(1/2)."""
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    return (Fraction(2) ** (1 - k) - 1) * bernoulli_number(k)


@cache
def euler_at_zero(l: int) -> Rat:
    """Closed form for E_l(0): 2 (1 - 2^{l+1}) B_{l+1} / (l + 1)."""
    if l < 0:
        raise ValueError(f"index must be >= 0, got {l}")
    b = bernoulli_number(l + 1)
    return Rat(2 * (1 - 2 ** (l + 1)) * b.numerator, (l + 1) * b.denominator)


@cache
def h_pq(n: int, p: int, q: int) -> Rat:
    """Partial beta sum H_n(p, q) = sum_{k=1}^{n-1} beta(k+q, p+1).

    The defining sum is the source of truth; its summands
    (k+q-1)! p! / (k+p+q)! go over the common denominator (n+p+q-1)!,
    the numerators p! t_k with t_k = (k+q-1)! (n+p+q-1)! / (k+p+q)! added
    as ints, each t_k from the last by the term ratio
    t_{k+1} / t_k = (k+q) / (k+p+q+1), a division that is exact because
    t_{k+1} is an integer.  For p >= 1 the sum telescopes to
    beta(p, q+1) - beta(p, n+q), and that closed form is recomputed as a
    consistency check, an integer identity: with T = sum t_k and
    N = n+p+q-1, both sides times N! / (p-1)! give
    p T = q! N! / (p+q)! - (n+q-1)!, and the beta values are built only
    for the message of a mismatch.  For p = 0 the summands are just
    1/(k+q), so the "closed form" is the defining sum itself.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be >= 0, got ({p}, {q})")
    top = n + p + q - 1
    t = total = factorial(q) * perm(top, n - 2)  # t_1
    for k in range(1, n - 1):
        t = t * (k + q) // (k + p + q + 1)
        total += t
    result = Rat(factorial(p) * total, factorial(top))
    # the docstring's p T = q! N! / (p+q)! - (n+q-1)!, with N = top
    if p >= 1 and p * total != (factorial(q) * (factorial(top) // factorial(p + q))
                                - factorial(n + q - 1)):
        raise RuntimeError(
            f"partial beta sum mismatch at (n={n}, p={p}, q={q}): "
            f"{result} vs closed form {beta_int(p, q + 1) - beta_int(p, n + q)}"
        )
    return result
