"""Bernoulli and Euler polynomials and their companion exact sequences.

Bernoulli numbers follow the convention forced by the generating
function z/(e^z - 1), so B_1 = -1/2, and Bernoulli polynomials are
B_n(x) = sum_k C(n,k) B_k x^{n-k}.  The numbers come from integer
zigzag numbers (Brent and Harvey, arXiv:1108.0286), one Seidel
boustrophedon row per index.  Euler polynomials are constructed once,
through the half-argument relation
E_n(x) = 2/(n+1) * (B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2)), and checked
against their defining equation E_n(x+1) + E_n(x) = 2 x^n.  The forward
sum is injective on polynomials, so the check is as strong as a second
construction; a mismatch would mean a convention bug somewhere and is
treated as fatal.

BernoulliCache is the one hand-written table, because it backs the
cache file and carries the boustrophedon row from index to index;
every derived value is a pure function memoised with functools.cache.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, lcm
from typing import Sequence

from .arith import Rat, beta_int, factorial
from .polynomials import Poly1, Poly2, _poly1

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


class BernoulliCache:
    """Append-only table of Bernoulli numbers B_0, B_1, ...

    The last boustrophedon row is kept beside it, so extending to index
    m adds one O(m) integer row.  Entries never change once computed;
    concurrent readers always observe the same deterministic values.
    """

    def __init__(self):
        self._table: list[Rat] = [Rat(1)]
        self._row: list[int] = [1]  # row m - 1 has m entries and ends in A_{m-1}
        self._lock = threading.Lock()

    @property
    def highest(self) -> int:
        """Largest index with a computed value."""
        return len(self._table) - 1

    def get(self, n: int) -> Rat:
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if n >= len(self._table):
            with self._lock:
                self._extend(n)
        return self._table[n]

    def _extend(self, n: int) -> None:
        """Grow the table to index n; the caller holds the lock or owns self."""
        for m in range(len(self._table), n + 1):
            if len(self._row) < m:
                self._row = list(accumulate(reversed(self._row), initial=0))
            if m % 2:
                value = Rat(-1, 2) if m == 1 else Rat(0)
            else:  # B_m = (-1)^(k-1) m A_{m-1} / (4^k (4^k - 1)) for m = 2k
                q = 1 << m
                value = Rat((m if m % 4 == 2 else -m) * self._row[-1], q * (q - 1))
            self._table.append(value)

    def values(self) -> list[Rat]:
        """Snapshot of all computed values, index 0 .. highest."""
        with self._lock:
            return list(self._table)

    def seed(self, values: Sequence[Rat]) -> None:
        """Adopt externally supplied values after comparing each with the process's own.

        Only the entries the process lacks are computed.  The first
        mismatch raises CacheIntegrityError naming the index; nothing is adopted.
        """
        fresh = BernoulliCache()
        with self._lock:  # _extend appends to _table but only replaces _row
            fresh._table, fresh._row = list(self._table), self._row
        fresh._extend(len(values) - 1)
        for m, (value, expected) in enumerate(zip(values, fresh._table)):
            if value != expected:
                raise CacheIntegrityError(
                    m, f"cache entry {m} is {value}, recomputation gives {expected}"
                )
        with self._lock:
            if len(fresh._table) > len(self._table):
                self._table, self._row = fresh._table, fresh._row


_CACHE = BernoulliCache()


def default_cache() -> BernoulliCache:
    """The process-wide cache behind bernoulli_number()."""
    return _CACHE


def bernoulli_number(n: int) -> Rat:
    """Bernoulli number B_n (convention B_1 = -1/2), memoized."""
    return _CACHE.get(n)


@cache
def bernoulli_poly(n: int) -> Poly1:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^{n-k}."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    bs = [bernoulli_number(n - i) for i in range(n + 1)]  # B_{n-i} goes with x^i
    den = lcm(*(b.denominator for b in bs))
    return _poly1([[comb(n, i) * b.numerator * (den // b.denominator)
                    for i, b in enumerate(bs)]], den)


def _euler_from_bernoulli(n: int) -> Poly1:
    """E_n(x) via 2/(n+1) * (B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2))."""
    b = bernoulli_poly(n + 1)
    w = Rat(2, n + 1)
    return Poly1.lincomb([(w, b), (-w * 2 ** (n + 1), b.compose_affine(Rat(1, 2), 0))])


@cache
def euler_poly(n: int) -> Poly1:
    """Euler polynomial E_n(x), checked against E(x+1) + E(x) = 2 x^n.

    A result that fails its defining equation signals an internal
    defect and raises RuntimeError.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    e = _euler_from_bernoulli(n)
    residual = Poly1.lincomb([(1, e.compose_affine(1, 1)), (1, e), (-2, Poly1.monomial(n))])
    if not residual.is_zero:
        raise RuntimeError(
            f"Euler polynomial E_{n} fails E(x+1) + E(x) = 2 x^{n}: "
            f"the difference is {residual}"
        )
    return e


# _bern2(k, cx, cy) = B_k(cx*x + cy*y), likewise _eul2; no builder reads them, they
# stay for the cache_info() that perfbench/spans.py snapshot() reads (ROADMAP item 4a)

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
    m = lcm(*range(1, n + 1))
    return Rat(sum(m // k for k in range(1, n + 1)), m)


@cache
def bbar(k: int) -> Rat:
    """The scaled Bernoulli value (2^{1-k} - 1) B_k, equal to B_k(1/2)."""
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    return (Fraction(2) ** (1 - k) - 1) * bernoulli_number(k)


def euler_at_zero(l: int) -> Rat:
    """Closed form for E_l(0): 2 (1 - 2^{l+1}) B_{l+1} / (l + 1)."""
    if l < 0:
        raise ValueError(f"index must be >= 0, got {l}")
    return Rat(2) * (1 - 2 ** (l + 1)) * bernoulli_number(l + 1) / (l + 1)


@cache
def h_pq(n: int, p: int, q: int) -> Rat:
    """Partial beta sum H_n(p, q) = sum_{k=1}^{n-1} beta(k+q, p+1).

    The defining sum is the source of truth; its summands
    (k+q-1)! p! / (k+p+q)! are added as integers over the common
    denominator (n+p+q-1)!.  For p >= 1 it telescopes to
    beta(p, q+1) - beta(p, n+q), and that closed form is recomputed as a
    consistency check; for p = 0 the summands are just 1/(k+q), so the
    "closed form" is the defining sum itself.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be >= 0, got ({p}, {q})")
    den = factorial(n + p + q - 1)
    total = Rat(factorial(p) * sum(factorial(k + q - 1) * (den // factorial(k + p + q))
                                   for k in range(1, n)), den)
    if p >= 1:
        closed = beta_int(p, q + 1) - beta_int(p, n + q)
        if total != closed:
            raise RuntimeError(
                f"partial beta sum mismatch at (n={n}, p={p}, q={q}): "
                f"{total} vs closed form {closed}"
            )
    return total
