"""Bernoulli and Euler polynomials and their companion exact sequences.

Bernoulli numbers follow the convention forced by the generating
function z/(e^z - 1), so B_1 = -1/2, and Bernoulli polynomials are
B_n(x) = sum_k C(n,k) B_k x^{n-k}.  Euler polynomials are constructed
twice -- once through the half-argument relation
E_n(x) = 2/(n+1) * (B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2)) and once by
solving E_n(x+1) + E_n(x) = 2 x^n top-down -- and the two routes must
agree coefficient for coefficient; a mismatch would mean a convention
bug somewhere and is treated as fatal.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import Sequence

from .arith import Rat, beta_int
from .polynomials import Poly1

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
    """A cached Bernoulli value failed recurrence revalidation."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class BernoulliCache:
    """Append-only table of Bernoulli numbers B_0, B_1, ...

    Values come from the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0
    with B_0 = 1.  Entries never change once computed; concurrent
    readers always observe the same deterministic values.
    """

    def __init__(self):
        self._table: list[Rat] = [Rat(1)]
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
                while n >= len(self._table):
                    self._table.append(self._next_value(self._table))
        return self._table[n]

    def values(self) -> list[Rat]:
        """Snapshot of all computed values, index 0 .. highest."""
        with self._lock:
            return list(self._table)

    def seed(self, values: Sequence[Rat]) -> None:
        """Adopt externally supplied values after revalidating every entry.

        Each entry is checked against the recurrence given its prefix;
        the first mismatch raises CacheIntegrityError naming the index
        and nothing is adopted.
        """
        checked: list[Rat] = []
        for m, value in enumerate(values):
            expected = Rat(1) if m == 0 else self._next_value(checked)
            if value != expected:
                raise CacheIntegrityError(
                    m, f"cache entry {m} is {value}, recurrence gives {expected}"
                )
            checked.append(value)
        with self._lock:
            if len(checked) > len(self._table):
                self._table = checked

    @staticmethod
    def _next_value(prefix: Sequence[Rat]) -> Rat:
        m = len(prefix)
        # odd-index values vanish from B_3 on; skip the zero terms
        s = Rat(0)
        for k, bk in enumerate(prefix):
            if bk:
                s += comb(m + 1, k) * bk
        return -s / (m + 1)


_CACHE = BernoulliCache()


def default_cache() -> BernoulliCache:
    """The process-wide cache behind bernoulli_number()."""
    return _CACHE


def bernoulli_number(n: int) -> Rat:
    """Bernoulli number B_n (convention B_1 = -1/2), memoized."""
    return _CACHE.get(n)


_BPOLY: dict[int, Poly1] = {}
_EPOLY: dict[int, Poly1] = {}


def bernoulli_poly(n: int) -> Poly1:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^{n-k}."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    poly = _BPOLY.get(n)
    if poly is None:
        coeffs = [comb(n, n - i) * bernoulli_number(n - i) for i in range(n + 1)]
        poly = Poly1(coeffs)
        _BPOLY[n] = poly
    return poly


def _euler_from_bernoulli(n: int) -> Poly1:
    """E_n(x) via 2/(n+1) * (B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2))."""
    b = bernoulli_poly(n + 1)
    half = b.compose_affine(Rat(1, 2), 0) * Fraction(2) ** (n + 1)
    return (b - half) * Rat(2, n + 1)


def _euler_by_difference(n: int) -> Poly1:
    """E_n(x) as the unique solution of E(x+1) + E(x) = 2 x^n.

    The map P to P(x+1) + P(x) is upper triangular on the monomial
    basis with 2s on the diagonal, so back-substitution from the top
    degree down determines every coefficient.
    """
    e = [Rat(0)] * (n + 1)
    for i in range(n, -1, -1):
        t = Rat(2) if i == n else Rat(0)
        for j in range(i + 1, n + 1):
            t -= comb(j, i) * e[j]
        e[i] = t / 2
    return Poly1(e)


def euler_poly(n: int) -> Poly1:
    """Euler polynomial E_n(x), built by two independent routes.

    Both constructions must agree exactly; disagreement signals an
    internal defect and raises RuntimeError.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    poly = _EPOLY.get(n)
    if poly is None:
        via_b = _euler_from_bernoulli(n)
        via_diff = _euler_by_difference(n)
        if via_b != via_diff:
            raise RuntimeError(
                f"Euler polynomial routes disagree at n={n}: "
                f"{via_b} vs {via_diff}"
            )
        poly = via_b
        _EPOLY[n] = poly
    return poly


_HARMONIC: list[Rat] = [Rat(0)]
_HARMONIC_LOCK = threading.Lock()


def harmonic(n: int) -> Rat:
    """Harmonic number H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n >= len(_HARMONIC):
        # extending reads the last entry and its index: one writer at a time
        with _HARMONIC_LOCK:
            while n >= len(_HARMONIC):
                k = len(_HARMONIC)
                _HARMONIC.append(_HARMONIC[-1] + Rat(1, k))
    return _HARMONIC[n]


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


def h_pq(n: int, p: int, q: int) -> Rat:
    """Partial beta sum H_n(p, q) = sum_{k=1}^{n-1} beta(k+q, p+1).

    The defining sum is the source of truth.  For p >= 1 it telescopes
    to beta(p, q+1) - beta(p, n+q), and that closed form is recomputed
    as a consistency check; for p = 0 the summands are just 1/(k+q), so
    the "closed form" is the defining sum itself.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be >= 0, got ({p}, {q})")
    total = Rat(0)
    for k in range(1, n):
        total += beta_int(k + q, p + 1)
    if p >= 1:
        closed = beta_int(p, q + 1) - beta_int(p, n + q)
        if total != closed:
            raise RuntimeError(
                f"partial beta sum mismatch at (n={n}, p={p}, q={q}): "
                f"{total} vs closed form {closed}"
            )
    return total
