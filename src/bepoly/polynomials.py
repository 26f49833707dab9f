"""Exact dense polynomial algebra over the rationals, in content form.

``Poly1`` stores a univariate polynomial as a tuple of integer
numerators over one positive denominator, index i holding the numerator
of the coefficient of x^i.  ``Poly2`` stores a bivariate polynomial as a
rectangular tuple of integer rows over one positive denominator, entry
[i][j] holding the numerator of the coefficient of x^i y^j.

One helper, ``_canonical``, brings both to the same canonical form: no
trailing zero coefficients, no all-zero fringe rows or columns, and
gcd(content, den) = 1, where the content is the gcd of all numerators;
the zero polynomial is the empty tuple over 1.  The denominator is then
the lcm of the reduced coefficient denominators, so the form is unique:
structural equality is exact polynomial equality, and "equals the zero
polynomial" is the one comparison every identity check reduces to.

Every operation runs on the stored integers, through two kernels.
``lincomb`` sums weighted products w * f * g, terms (w, f, g) or (w, f),
each weight an int, a Rat or an unreduced integer pair (num, den): it
scales every weight to the lcm of the term denominators, adds the
weights of terms with the same factors in either order, keyed on the
identity of each factor's stored numerator tuple (one object is one
grid whatever the denominator, which the weights carry, so a merge can
be missed but never wrong), divides out the weights' common factor with
that lcm, adds each product straight into one integer grid
(``_convolve``, the module's only convolution loop, over each factor's
nonzero entries, listed once per polynomial in its ``_nz`` slot; a
one-factor term is scaled and added) and brings the result to canonical
form once.  Sums, differences, products and scalar multiples are lincombs
of one or two terms; ``Poly2.subst`` is Horner's rule on them and shares no
helper with the per-axis shift in ``operators``, which the tests check
against it.  Coefficients and evaluation points are ints or Rats.
``Poly2.sheared`` sums separable terms w * f(L1) * g(L2) * pole, with
Poly1 factors and the same weights, at five unimodular argument pairs
(L1, L2) by outer products and integer shears: O(n^3) for degree n,
where products of bivariate embeddings cost O(n^4); a list at both
(x - y, y) and (y - x, x) is sheared once and added to its transpose,
and a pole (x - y)^k is k O(n) steps per slice.  Its shear and
``Poly1.compose_affine`` share one Taylor shift, ``_shift_by_one``.  A
grid's total-degree slices are listed by ``_slices`` and put back into rows
by its inverse ``_rows_of``: ``sheared`` builds its result, and ``diagonal``,
``div_xminusy`` and rendering walk the slices; ``compose_xy`` keeps its own
row loop, the independent route the tests check ``sheared`` against.  The
ring operations, ``lincomb`` and equality are written once, in the
shared base ``_Poly``; each class adds only its constructors,
evaluation, calculus and rendering.  ``coeffs``, ``rows`` and
``coeff()`` hand out reduced ``Fraction`` values, computed on read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, gcd, lcm
from operator import add, floordiv, mul
from typing import Iterable, Sequence

from .arith import Rat

__all__ = ["Poly1", "Poly2", "ExactDivisionError"]

Scalar = (int, Fraction)

# integer rows: a bivariate numerator grid, or a univariate one as a single row
Grid = Sequence[Sequence[int]]
# a grid's nonzero entries, row by row as (index, value) pairs, and its row width
Sparse = tuple[list[list[tuple[int, int]]], int]


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial quotient does not exist."""


def _as_rat(value) -> int | Rat:
    """An int or a Rat, both carrying ``numerator`` and ``denominator``; else TypeError."""
    if isinstance(value, Scalar):
        return value
    raise TypeError(f"coefficients and points are ints or Rats, not {type(value).__name__}")


def _axis(axis: str) -> tuple[int, int]:
    """The exponent pair of the variable ``axis``: (1, 0) for "x", (0, 1) for "y"."""
    if axis == "x":
        return 1, 0
    if axis == "y":
        return 0, 1
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _canonical(rows: Grid, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Canonical content form of the integer rows ``rows`` over ``den``.

    Ragged rows are padded with zeros, the all-zero fringe is trimmed,
    g = gcd(content, den) is divided out and the denominator is made
    positive.  The zero polynomial comes back as ((), 1).
    """
    g = 0
    for row in rows:
        g = gcd(g, *row)
    if not g:
        return (), 1
    dx = len(rows) - 1
    while not any(rows[dx]):
        dx -= 1
    rows = rows[:dx + 1]
    w = max(map(len, rows))
    while not any(r[w - 1] for r in rows if len(r) >= w):
        w -= 1
    g = gcd(g, den)
    if den < 0:
        g = -g
    if g != 1:
        rows = [[v // g for v in r] for r in rows]
        den //= g
    if set(map(len, rows)) != {w}:
        rows = [tuple(r[:w]) + (0,) * (w - len(r)) for r in rows]
    # stored tuples are built from lists: CPython resizes a tuple grown from
    # an iterator of unknown length, and the resized tuples it frees pile up
    # in its per-size free lists (3 MB more peak RSS on 558 small instances)
    return tuple([tuple(r) for r in rows]), den


def _cleared(rows: Iterable[Iterable[Rat | int]]) -> tuple[list[list[int]], int]:
    """Integer rows and common denominator of a grid of rationals."""
    grid = [[_as_rat(c) for c in row] for row in rows]
    den = lcm(*(c.denominator for row in grid for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in grid], den


def _wrap(cls, num, den):
    """An instance holding data that is already in canonical form."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "_num", num)
    object.__setattr__(obj, "_den", den)
    return obj


def _poly1(rows: Grid, den: int) -> Poly1:
    """Poly1 of the one-row integer grid ``rows`` over ``den``."""
    rows, den = _canonical(rows, den)
    return _wrap(Poly1, rows[0] if rows else (), den)


def _poly2(rows: Grid, den: int) -> Poly2:
    return _wrap(Poly2, *_canonical(rows, den))


def _convolve(parts: Iterable[tuple[int, Sparse | Grid, Sparse | Grid]]) -> list[list[int]]:
    """One integer grid holding the sum of s * a * b over ``parts``.

    The two factors of a product are nonempty sparse grids
    (``_Poly._sparse``); a one-factor term is a dense grid a with b = ``_ONE``.
    The result is sized for the largest term, and every term is added into it.
    """
    parts = list(parts)
    shapes = [(len(a), len(a[0])) if b is _ONE else (len(a[0]) + len(b[0]) - 1, a[1] + b[1] - 1)
              for _, a, b in parts]
    width = max(w for _, w in shapes)
    out = [[0] * width for _ in range(max(h for h, _ in shapes))]
    for s, a, b in parts:
        if b is _ONE:  # a one-factor term: scale and add
            for row, ra in zip(out, a):
                for j, v in enumerate(ra):
                    if v:
                        row[j] += v * s
            continue
        # the smaller factor goes outside: fewer entries to scale, longer inner loops
        a, b = (a[0], b[0]) if len(a[0]) * a[1] <= len(b[0]) * b[1] else (b[0], a[0])
        for i, ra in enumerate(a):
            ra = [(j, v * s) for j, v in ra]
            for k, rb in enumerate(b):
                row = out[i + k]
                for j, va in ra:
                    for t, vb in rb:
                        row[j + t] += va * vb
    return out


# the unit grid: the second factor of a one-factor term (w, f)
_ONE: Grid = ((1,),)


def _shift_by_one(c: list[int]) -> None:
    """Taylor shift h(r) -> h(r + 1) in place of c, top degree first: prefix sums."""
    for stop in range(len(c), 1, -1):
        c[:stop] = accumulate(c[:stop])


def _slices(rows: Grid) -> list[list[int]]:
    """The total-degree slices of a rectangular grid: slice m lists x^(m-j) y^j by j."""
    out = [[0] * (m + 1) for m in range(len(rows) + len(rows[0]) - 1)] if rows else []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i + j][j] = v
    return out


def _rows_of(slices: Sequence[Sequence[int]]) -> list[list[int]]:
    """The inverse of ``_slices``: row i of the grid, ragged as ``_canonical`` pads it."""
    size = len(slices)
    return [[slices[i + j][j] for j in range(size - i)] for i in range(size)]


def _by_powers(c: Sequence[int], x: int, op=mul) -> list[int]:
    """op(c_j, x^j) for each j; no arithmetic when x is 1."""
    return list(c) if x == 1 else [*map(op, c, accumulate(repeat(x, len(c)), mul, initial=1))]


def _weight(w) -> tuple[int, int] | tuple[None, None]:
    """(num, den) of an int, a Rat or an integer pair (num, den), den > 0; else (None, None)."""
    # the pair test comes first: a tuple would reach Fraction's slow abc check
    if (type(w) is tuple and len(w) == 2 and isinstance(w[0], int)
            and isinstance(w[1], int) and w[1] > 0):
        return w
    if isinstance(w, Scalar):
        return w.numerator, w.denominator
    return None, None


def _lincomb(cls, terms) -> tuple[list[list[int]], int]:
    """Integer grid and denominator of sum w * f * g over the terms of ``cls``.

    Each term is (w, f) or (w, f, g) with w an int, a Rat or an unreduced
    integer pair (num, den), den > 0.  The weights go over the lcm D of
    the term denominators and are added per unordered pair of stored
    grids; their common factor with D is divided out, so the products run
    on the smallest integers, and ``_convolve`` adds each nonzero product
    into one grid.
    """
    parts = []  # holds the factors, so the grid ids below stay valid
    for term in terms:
        w, f, g = (*term, None) if len(term) == 2 else term
        num, den = _weight(w)
        if num is None or not (isinstance(f, cls) and (len(term) == 2 or isinstance(g, cls))):
            raise TypeError(f"{cls.__name__}.lincomb terms are (w, f) or (w, f, g) with an "
                            f"int, Rat or (num, den) weight and {cls.__name__} factors")
        if num and f._num and (g is None or g._num):
            parts.append((num, den * f._den * (1 if g is None else g._den), f, g))
    d = lcm(*(den for _, den, _, _ in parts))
    merged: dict[tuple[int, int], list] = {}
    for num, den, f, g in parts:
        ka, kb = id(f._num), 0 if g is None else id(g._num)
        entry = merged.setdefault((ka, kb) if ka < kb else (kb, ka), [0, f, g])
        entry[0] += num * (d // den)
    c = gcd(d, *(s for s, _, _ in merged.values()))
    parts = [(s // c, f._rows(), _ONE) if g is None else (s // c, f._sparse(), g._sparse())
             for s, f, g in merged.values() if s]
    if not parts:
        return [], 1
    return _convolve(parts), d // c


# (L1, L2) -> the steps taking H(u, v) to H(L1, L2), a*x + b*y written (a, b),
# for (x, y), (y, x), (x - y, y), (y - x, x) and (x + y, x); each step
# substitutes in the grid's own variables: "f" u -> -u, "t" u <-> v, "s" u -> u + v;
# the set ((x - y, y), (y - x, x)) takes H(x - y, y) and "T" adds its transpose H(y - x, x)
_SHEARS = {((1, 0), (0, 1)): "", ((0, 1), (1, 0)): "t", ((1, -1), (0, 1)): "fsf",
           ((-1, 1), (1, 0)): "fsft", ((1, 1), (1, 0)): "st",
           (((1, -1), (0, 1)), ((-1, 1), (1, 0))): "fsfT"}

_POLES = {(1, -1): "m"}


def _pole_steps(pole=((1, -1), 0)) -> str:
    """A group's pole ((1, -1), k), (x - y)^k, as k steps "m"; none without one."""
    if not (type(pole) is tuple and len(pole) == 2 and type(pole[0]) is tuple
            and pole[0] in _POLES and type(pole[1]) is int and pole[1] >= 0):
        raise TypeError("a Poly2.sheared pole is ((1, -1), k), an int k >= 0")
    return _POLES[pole[0]] * pole[1]


def _format_terms(terms: list[tuple[Rat, str]]) -> str:
    """Render [(coeff, monomial), ...] like 'x^2 - x + 1/6'."""
    if not terms:
        return "0"
    parts: list[str] = []
    for coeff, mono in terms:
        mag = -coeff if coeff < 0 else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts)


class _Poly:
    """The ring body shared by Poly1 and Poly2.

    A subclass stores ``_num`` and ``_den``, lists its numerators as
    integer rows through ``_rows()`` and builds canonical results through
    ``_of(rows, den)``; a scalar c is the constant ``_of([[c.numerator]],
    c.denominator)``.
    """

    __slots__ = ("_num", "_den", "_nz")

    def __setattr__(self, name, value):  # value semantics
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # for copy and pickle, past __setattr__
        return _wrap, (type(self), self._num, self._den)

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self._num

    def _coerce(self, other):
        """``other`` as a polynomial of this class, or None."""
        if isinstance(other, Scalar):
            return self._of([[other.numerator]], other.denominator)
        return other if isinstance(other, type(self)) else None

    def _sparse(self) -> Sparse:
        """Each stored row's nonzero entries as (index, value) pairs, and the row width,
        listed on first use and kept in ``_nz``; threads that race compute the same
        value, and ``_nz`` is not part of the value (``__eq__``, ``__hash__``)."""
        nz = getattr(self, "_nz", None)
        if nz is None:
            rows = self._rows()
            nz = [[(j, v) for j, v in enumerate(r) if v] for r in rows], len(rows[0])
            object.__setattr__(self, "_nz", nz)
        return nz

    # -- ring operations ---------------------------------------------------

    @classmethod
    def lincomb(cls, terms: Iterable[tuple]):
        """The sum of w * f * g over terms (w, f, g), or w * f over (w, f).

        Weights are ints or Rats and factors instances of the class.  The
        whole sum is built in one integer grid and brought to canonical
        form once.
        """
        return cls._of(*_lincomb(cls, terms))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.lincomb(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return self.lincomb(((-1, self),))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.lincomb(((1, self), (-1, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.lincomb(((other, self),))
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.lincomb(((1, self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        return self.lincomb(((Rat(other.denominator, other.numerator), self),))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._of([[1]], 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._num, self._den))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Poly1(_Poly):
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Rat | int] = ()):
        return _poly1(*_cleared((coeffs,)))

    _of = staticmethod(_poly1)

    def _rows(self) -> Grid:
        return (self._num,)

    @classmethod
    def variable(cls) -> Poly1:
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, coeff: Rat | int = 1) -> Poly1:
        if power < 0:
            raise ValueError("power must be >= 0")
        k = _as_rat(coeff)
        return _poly1([[0] * power + [k.numerator]], k.denominator)

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """Reduced coefficients, index i holding the coefficient of x^i."""
        return tuple([Fraction(v, self._den) for v in self._num])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self._num) - 1

    def coeff(self, power: int) -> Rat:
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Rat(0)

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, point: Rat | int) -> Rat:
        """Exact evaluation by Horner's rule."""
        v = _as_rat(point)
        acc = Rat(0)
        for c in reversed(self._num):
            acc = acc * v + c
        return acc / self._den

    def derivative(self) -> Poly1:
        return _poly1([[i * v for i, v in enumerate(self._num)][1:]], self._den)

    def compose_affine(self, a: Rat | int, b: Rat | int) -> Poly1:
        """p(a*x + b), expanded exactly by scaling and a Taylor shift.

        With a = ai/q, b = bi/q and d the degree, p(a*x + b) q^d = P(ai*x + bi)
        for P(y) = sum n_i q^(d-i) y^i, and P(y + bi) is P(bi*y) shifted by one
        with y^j divided by bi^j (von zur Gathen and Gerhard, ISSAC 1997)."""
        a, b = _as_rat(a), _as_rat(b)
        if self.is_zero or (a == 1 and b == 0):
            return self
        q = lcm(a.denominator, b.denominator)
        ai, bi = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
        c = _by_powers(self._num[::-1], q)[::-1]
        if bi:
            c = _by_powers(c, bi)[::-1]
            _shift_by_one(c)
            c = _by_powers(c[::-1], bi, floordiv)
        return _poly1([_by_powers(c, ai)], self._den * q ** (len(c) - 1))

    def compose_xy(self, cx: Rat | int, cy: Rat | int) -> Poly2:
        """p(cx*x + cy*y) as a bivariate polynomial.

        Coefficient of x^a y^b is c_{a+b} * C(a+b, a) * cx^a * cy^b;
        with (cx, cy) = (1, 0) or (0, 1) this embeds p along one axis.
        """
        d = self.degree
        if d < 0:
            return Poly2.zero()
        cx, cy = _as_rat(cx), _as_rat(cy)
        # cx = ix/q and cy = iy/q; the whole grid goes over den * q^d
        q = lcm(cx.denominator, cy.denominator)
        ix, iy = cx.numerator * (q // cx.denominator), cy.numerator * (q // cy.denominator)
        px, py, pd = [1], [1], [1]
        for _ in range(d):
            px.append(px[-1] * ix)
            py.append(py[-1] * iy)
            pd.append(pd[-1] * q)
        num = self._num
        rows = [[0] * (d + 1) for _ in range(d + 1)]
        for a in range(d + 1):
            if px[a]:
                for b in range(d + 1 - a):
                    c = num[a + b]
                    if c and py[b]:
                        rows[a][b] = c * comb(a + b, a) * px[a] * py[b] * pd[d - a - b]
        return _poly2(rows, self._den * pd[d])

    def as_poly2(self, axis: str) -> Poly2:
        """Embed as a bivariate polynomial in x only or in y only."""
        return self.compose_xy(*_axis(axis))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        cs = self.coeffs
        terms = []
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if c:
                mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
                terms.append((c, mono))
        return _format_terms(terms)


class Poly2(_Poly):
    """Dense bivariate polynomial with exact rational coefficients."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Iterable[Rat | int]] = ()):
        return _poly2(*_cleared(rows))

    _of = staticmethod(_poly2)

    def _rows(self) -> Grid:
        return self._num

    @classmethod
    def sheared(cls, groups: Iterable[tuple]) -> Poly2:
        """The sum of w * f(L1) * g(L2) * pole over groups ((L1, L2), terms[, pole]).

        Terms are (w, f, g) with Poly1 factors and a ``lincomb`` weight, (L1, L2)
        is a pair of ``_SHEARS``, or its one set of two pairs, and a pole
        ((1, -1), k) is (x - y)^k.  The weights go over
        the lcm of the term denominators, reduced as in ``lincomb``, and the
        outer products of the factors' stored nonzero entries into one integer
        grid per (pair, pole), held as total-degree slices, slice m listing the
        numerators of x^(m-j) y^j by j.  Every step then runs on each slice:
        "s" is the Taylor shift r -> r + 1 of sum c_j r^(m-j)
        (``_shift_by_one``), "f" negates the odd x-degrees, "t" reverses the
        slice, "T" adds its reversal, and each pole step "m" (c_j - c_(j-1))
        makes slice m + 1 of it.
        """
        parts = []
        for pair, terms, *pole in groups:
            key = _SHEARS[pair] + _pole_steps(*pole)
            for w, f, g in terms:
                num, den = _weight(w)
                if num is None or not (isinstance(f, Poly1) and isinstance(g, Poly1)):
                    raise TypeError("Poly2.sheared terms are (w, f, g) with an int, Rat "
                                    "or (num, den) weight and Poly1 factors")
                if num and f._num and g._num:
                    parts.append((key, num, den * f._den * g._den, f, g))
        if not parts:
            return cls()
        d = lcm(*(den for _, _, den, _, _ in parts))
        scaled = [num * (d // den) for _, num, den, _, _ in parts]
        common = gcd(d, *scaled)
        top = max(len(f._num) + len(g._num) for *_, f, g in parts) - 1
        grids = {key: [[0] * (m + 1) for m in range(top)]
                 for key in dict.fromkeys(p[0] for p in parts)}
        for (key, _, _, f, g), s in zip(parts, scaled):
            grid, s = grids[key], s // common
            (a,), _ = f._sparse()
            (b,), lb = g._sparse()
            for i, va in a:
                va *= s
                band = grid[i:i + lb]  # band[j] is slice i + j
                for j, vb in b:
                    band[j][j] += va * vb
        size = top + max(key.count("m") for key in grids)
        out = [[0] * (m + 1) for m in range(size)]
        for steps, grid in grids.items():
            for m, c in enumerate(grid):
                for step in steps:
                    if step == "s":
                        _shift_by_one(c)
                    elif step == "f":
                        c[1 - m % 2::2] = [-v for v in c[1 - m % 2::2]]
                    elif step == "t":
                        c.reverse()
                    elif step == "T":
                        c[:] = [u + v for u, v in zip(c, c[::-1])]
                    else:
                        c = [u - v for u, v in zip([*c, 0], [0, *c])]
                row = out[len(c) - 1]
                row[:] = map(add, row, c)
        return _poly2(_rows_of(out), d // common)

    @classmethod
    def constant(cls, c: Rat | int) -> Poly2:
        return cls(((c,),))

    @classmethod
    def monomial(cls, i: int, j: int, coeff: Rat | int = 1) -> Poly2:
        if i < 0 or j < 0:
            raise ValueError("exponents must be >= 0")
        k = _as_rat(coeff)
        return _poly2([[]] * i + [[0] * j + [k.numerator]], k.denominator)

    @classmethod
    def variable(cls, axis: str) -> Poly2:
        return cls.monomial(*_axis(axis))

    @property
    def rows(self) -> tuple[tuple[Rat, ...], ...]:
        """Reduced coefficients, entry [i][j] holding that of x^i y^j."""
        return tuple([tuple([Fraction(v, self._den) for v in row]) for row in self._num])

    @property
    def deg_x(self) -> int:
        return len(self._num) - 1

    @property
    def deg_y(self) -> int:
        return len(self._num[0]) - 1 if self._num else -1

    def coeff(self, i: int, j: int) -> Rat:
        if 0 <= i < len(self._num) and 0 <= j < len(self._num[i]):
            return Fraction(self._num[i][j], self._den)
        return Rat(0)

    # -- evaluation, calculus, substitution ----------------------------------

    def __call__(self, u: Rat | int, v: Rat | int) -> Rat:
        u, v = _as_rat(u), _as_rat(v)
        acc = Rat(0)
        for row in reversed(self._num):
            rv = Rat(0)
            for c in reversed(row):
                rv = rv * v + c
            acc = acc * u + rv
        return acc / self._den

    def partial(self, axis: str) -> Poly2:
        """Formal partial derivative along one axis."""
        if _axis(axis)[0]:
            rows = [[i * v for v in row] for i, row in enumerate(self._num) if i]
        else:
            rows = [[j * v for j, v in enumerate(row) if j] for row in self._num]
        return _poly2(rows, self._den)

    def swap_xy(self) -> Poly2:
        """Exchange the two indeterminates (an involution)."""
        # transposing keeps the content, the denominator and a zero-free fringe
        return _wrap(Poly2, tuple([*zip(*self._num)]), self._den)

    def subst(self, axis: str, value: Poly2) -> Poly2:
        """Substitute a bivariate polynomial for one indeterminate: Horner's rule
        on the ring operations, acc * value + line from the top line down, the
        lines being the rows (polynomials in y) for x and the columns for y."""
        if not isinstance(value, Poly2):
            raise TypeError("substitution value must be a Poly2")
        along_x = _axis(axis)[0]
        acc = Poly2()
        for line in reversed(self._num if along_x else [*zip(*self._num)]):
            acc = acc * value + _poly2([line] if along_x else [*zip(line)], self._den)
        return acc

    def diagonal(self) -> Poly1:
        """P(x, x) as a univariate polynomial: the sum of each total-degree slice."""
        return _poly1([[sum(c) for c in _slices(self._num)]], self._den)

    def div_xminusy(self) -> Poly2:
        """Exact quotient P / (x - y).

        P must vanish on the diagonal (P(x, x) = 0); otherwise no
        polynomial quotient exists and ExactDivisionError is raised.
        Slice m + 1 of (x - y) Q is c_j - c_(j-1) over slice m of Q (the
        "m" pole step of ``sheared``), so Q's slice is the prefix sums of
        P's, whose last one, the slice's sum, must be zero.
        """
        quot = []
        for c in _slices(self._num):
            c = [*accumulate(c)]
            if c.pop():
                raise ExactDivisionError("not divisible by (x - y): P(x, x) != 0")
            quot.append(c)
        return _poly2(_rows_of(quot[1:]), self._den)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for m, c in reversed([*enumerate(_slices(self._num))]):
            for j, v in enumerate(c):
                if v:
                    mono = [f"{s}^{e}" if e > 1 else s for s, e in (("x", m - j), ("y", j)) if e]
                    terms.append((Fraction(v, self._den), "*".join(mono)))
        return _format_terms(terms)
