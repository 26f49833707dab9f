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
Each takes a second, subtracted list of terms beside the first, so a
difference L - R is one call and R is never copied negated.
``lincomb`` sums weighted products w * f * g, terms (w, f, g), a term
(w, f) being its product with the class's unit ``_unit``, each weight an
int, a Rat or an unreduced integer pair (num, den): as it checks each
term (``_merged``), it adds the weight into the entry of the term's
unordered pair of factors, keyed on the identity of each factor's
stored numerator tuple (a merge can be missed but never wrong), over
the entry's own denominator, the weight's times the factors' (one grid
can sit over two denominators); it then scales the entries to the lcm
of their denominators, divides out their common factor with that lcm,
adds each product straight into one integer grid (``_convolve``, the
module's only convolution loop, over each factor's nonzero entries,
listed once per polynomial in its ``_nz`` slot) and brings the result
to canonical form once.  ``Poly1.vanishes`` is the zero test of such a
sum: it takes the same terms through the same merge and, without
expanding them, evaluates the integer sum at x = 2^W, with 2^W above a
bound on every coefficient, so the value is zero exactly when the
polynomial is (a proof, not a random-point test); each factor keeps its
values at 2^W for its last few widths W beside it, as it keeps ``_nz``,
and a unit factor is neither bounded nor packed.  Sums,
differences, products and scalar multiples are lincombs of one or two
terms; ``Poly2.subst`` is Horner's rule on them and shares no
helper with the per-axis shift in ``operators``, which the tests check
against it.  Coefficients and evaluation points are ints or Rats.
``Poly2.sheared`` sums separable terms w * f(L1) * g(L2) * (x - y)^k,
with Poly1 factors and the same weights, checked as ``_merged`` checks
them, at four unimodular argument pairs
(L1, L2) by outer products and integer shears: O(n^3) for degree n,
where products of bivariate embeddings cost O(n^4); a list at both
(x - y, y) and (y - x, x) is sheared once and added to its transpose,
and the sheared grids are summed by Horner's rule in x - y from the
highest pole down, so a pole (x - y)^k costs at most k O(n) steps per
slice for the whole call, and a zero sum returns before its rows are
rebuilt.  Its shear and
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
from functools import reduce
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

    ``den`` is positive.  Ragged rows are padded with zeros, the all-zero
    fringe is trimmed and g = gcd(content, den) is divided out.  The zero
    polynomial comes back as ((), 1).
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


def _convolve(parts: Iterable[tuple[int, Sparse, Sparse]]) -> list[list[int]]:
    """One integer grid holding the sum of s * a * b over ``parts``.

    Both factors of a product are nonempty sparse grids (``_Poly._sparse``);
    a one-factor term is its product with the unit.  The result is sized
    for the largest product, and every product is added into it.
    """
    parts = list(parts)
    shapes = [(len(a[0]) + len(b[0]) - 1, a[1] + b[1] - 1) for _, a, b in parts]
    width = max(w for _, w in shapes)
    out = [[0] * width for _ in range(max(h for h, _ in shapes))]
    for s, a, b in parts:
        # the smaller factor goes outside, for longer inner loops; its entries are
        # scaled in the loop, as a scaled copy of a row costs a list per one-factor term
        a, b = (a[0], b[0]) if len(a[0]) * a[1] <= len(b[0]) * b[1] else (b[0], a[0])
        for i, ra in enumerate(a):
            for k, rb in enumerate(b, i):
                row = out[k]
                for j, va in ra:
                    va *= s
                    for t, vb in rb:
                        row[j + t] += va * vb
    return out


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


def _horner(cs: Sequence, x):
    """sum cs[i] x^i, exactly, by Horner's rule from the top coefficient down."""
    acc = Rat(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _weight(w) -> tuple[int, int] | tuple[None, None]:
    """(num, den) of an int, a Rat or an integer pair (num, den), den > 0; else (None, None)."""
    # the pair test comes first: a tuple would reach Fraction's slow abc check
    if (type(w) is tuple and len(w) == 2 and isinstance(w[0], int)
            and isinstance(w[1], int) and w[1] > 0):
        return w
    if isinstance(w, Scalar):
        return w.numerator, w.denominator
    return None, None


def _term_error(ftype) -> TypeError:
    return TypeError(f"terms are (w, f, g), or (w, f) in lincomb, with an int, Rat or "
                     f"(num, den) weight and {ftype.__name__} factors")


def _merged(cls, terms, minus=()) -> tuple[list[tuple[int, _Poly, _Poly]], int]:
    """The products (s, f, g) and the denominator D of sum w * f * g over the
    terms of ``cls`` less that over the terms ``minus``: the difference is
    sum s * f * g / D, with nonzero integer s.

    Each term is (w, f, g), or (w, f) read as (w, f, unit), with w an int,
    a Rat or an unreduced integer pair (num, den), den > 0.  A term is
    checked and added at once into the entry [num, den, f, g] of its
    unordered pair of stored grids, a unit factor put second; den holds
    the factors' denominators as well as the weight's, since one grid can
    sit over two denominators, and two terms over different ones add over
    their lcm.  D is the lcm over the entries that do not cancel, and
    their common factor with D is divided out, so the products run on the
    smallest integers.
    """
    unit, merged = cls._unit, {}  # the entries hold the factors, so the grid ids stay valid
    for sign, side in ((1, terms), (-1, minus)):
        for term in side:
            if len(term) == 2:
                (w, f), g = term, unit
            else:
                w, f, g = term
            num, den = _weight(w)
            if num is None or not (isinstance(f, cls) and isinstance(g, cls)):
                raise _term_error(cls)
            if not (num and f._num and g._num):
                continue
            num, den = sign * num, den * f._den * g._den
            ka, kb = id(f._num), id(g._num)
            key = (ka, kb) if ka < kb else (kb, ka)
            entry = merged.get(key)
            if entry is None:
                merged[key] = [num, den, g, f] if f is unit else [num, den, f, g]
            elif entry[1] == den:
                entry[0] += num
            else:
                m = lcm(entry[1], den)
                entry[0] = entry[0] * (m // entry[1]) + num * (m // den)
                entry[1] = m
    items = [entry for entry in merged.values() if entry[0]]
    d = lcm(*(den for _, den, _, _ in items))
    scaled = [(num * (d // den), f, g) for num, den, f, g in items]
    c = gcd(d, *(s for s, _, _ in scaled))
    return [(s // c, f, g) for s, f, g in scaled], d // c


# ``Poly1.vanishes`` packs at a width W rounded up to a multiple of _QUANTUM
# bits, so that residuals of about one size share packed factors, and each
# polynomial keeps its last _KEEP packed values (one kept value thrashes:
# the benchmark's univariate pass ran 14% slower with it)
_QUANTUM, _KEEP = 32, 4


# (L1, L2) -> the steps taking H(u, v) to H(L1, L2), a*x + b*y written (a, b),
# for (x, y), (x - y, y), (y - x, x) and (x + y, x); each step substitutes in
# the grid's own variables: "f" u -> -u, "t" u <-> v, "s" u -> u + v; the set
# ((x - y, y), (y - x, x)) takes H(x - y, y) and "T" adds its transpose H(y - x, x);
# a sum at (y, x) is the same sum at (x, y) with the factors of each term swapped
_SHEARS = {((1, 0), (0, 1)): "", ((1, -1), (0, 1)): "fsf", ((-1, 1), (1, 0)): "fsft",
           ((1, 1), (1, 0)): "st", (((1, -1), (0, 1)), ((-1, 1), (1, 0))): "fsfT"}


def _pole_steps(k=0) -> int:
    """A group's pole k, the power of x - y, checked: its number of pole steps; 0 without one."""
    if type(k) is not int or k < 0:
        raise TypeError(f"a Poly2.sheared pole is an int k >= 0, the power of x - y, not {k!r}")
    return k


def _mono(*powers: tuple[str, int]) -> str:
    """The monomial of (variable, exponent) pairs, like 'x^2*y'; '' for 1."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e)


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
    c.denominator)``, and ``_unit``, set once below the classes, is 1.
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
    def lincomb(cls, terms: Iterable[tuple], minus: Iterable[tuple] = ()):
        """The sum of w * f * g over terms (w, f, g), or w * f over (w, f),
        less the same sum over the terms ``minus``.

        Weights are ints or Rats and factors instances of the class.  The
        whole sum is built in one integer grid and brought to canonical
        form once: ``_convolve`` adds each product of ``_merged`` into it.
        """
        items, d = _merged(cls, terms, minus)
        if not items:
            return cls._of([], 1)
        return cls._of(_convolve([(s, f._sparse(), g._sparse()) for s, f, g in items]), d)

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
        return reduce(mul, repeat(self, n), self._unit)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        rows = self._rows()
        if len(rows) <= 1 and all(len(r) <= 1 for r in rows):  # a constant, zero included,
            return hash(Fraction(sum(map(sum, rows)), self._den))  # hashes as its scalar
        return hash((type(self).__name__, self._num, self._den))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Poly1(_Poly):
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("_kr",)

    def __new__(cls, coeffs: Iterable[Rat | int] = ()):
        return _poly1(*_cleared((coeffs,)))

    _of = staticmethod(_poly1)

    def _rows(self) -> Grid:
        return (self._num,)

    @classmethod
    def vanishes(cls, terms: Iterable[tuple], minus: Iterable[tuple] = ()) -> bool:
        """True iff ``lincomb(terms, minus)`` is the zero polynomial, proved
        by one exact evaluation at x = 2^W (Kronecker substitution).

        The terms, their checks and ``TypeError``s are ``lincomb``'s, and so is
        the merge: the sum is sum s * f * g over D, with integer s and stored
        numerator tuples f and g.  Every coefficient of the integer polynomial
        P = sum s * f * g is at most M = sum |s| * |f|_1 * |g|_max in absolute
        value, and W, the bit length of M rounded up to a multiple of
        ``_QUANTUM``, makes 2^W > M.  A nonzero P cannot vanish at 2^W: its
        lowest nonzero coefficient would be a multiple of 2^W.  So P(2^W),
        one sum of products of the factors' packed values (``_packed``), is
        zero exactly when P is; nothing is expanded, and no grid is built.
        A unit factor, which ``_merged`` puts second, is 1 in both the bound
        and the value, so it is neither bounded nor packed.
        """
        items, _ = _merged(cls, terms, minus)
        unit, bound = cls._unit, 0
        for s, f, g in items:
            m = abs(s) * f._norms()[0]
            bound += m if g is unit else m * g._norms()[1]
        w = -(-bound.bit_length() // _QUANTUM) * _QUANTUM
        return not sum([s * f._packed(w) if g is unit else s * f._packed(w) * g._packed(w)
                        for s, f, g in items])

    def _norms(self) -> tuple:
        """(sum of |c|, max of |c|, packed values) over the stored numerators c,
        computed on first use and kept in ``_kr`` with up to ``_KEEP`` values
        (w, f(2^w)), newest first; threads that race compute equal values, and
        ``_kr``, like ``_nz``, is not part of the value."""
        kr = getattr(self, "_kr", None)
        if kr is None:
            a = [*map(abs, self._num)]
            kr = (sum(a), max(a, default=0), ())
            object.__setattr__(self, "_kr", kr)
        return kr

    def _packed(self, w: int) -> int:
        """The stored numerators at x = 2^w, once ``_norms`` has set ``_kr``."""
        l1, top, packs = self._kr
        for kw, v in packs:
            if kw == w:
                return v
        v = sum([c << i * w for i, c in enumerate(self._num) if c])
        object.__setattr__(self, "_kr", (l1, top, ((w, v), *packs[:_KEEP - 1])))
        return v

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
        return _horner(self._num, _as_rat(point)) / self._den

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
        return _format_terms([(Fraction(v, self._den), _mono(("x", i)))
                              for i, v in reversed([*enumerate(self._num)]) if v])


class Poly2(_Poly):
    """Dense bivariate polynomial with exact rational coefficients."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Iterable[Rat | int]] = ()):
        return _poly2(*_cleared(rows))

    _of = staticmethod(_poly2)

    def _rows(self) -> Grid:
        return self._num

    @classmethod
    def sheared(cls, groups: Iterable[tuple], minus: Iterable[tuple] = ()) -> Poly2:
        """The sum of w * f(L1) * g(L2) * (x - y)^k over groups ((L1, L2), terms[, k]),
        less the same sum over the groups ``minus``.

        Terms are (w, f, g) with Poly1 factors and a ``lincomb`` weight, (L1, L2)
        is a pair of ``_SHEARS``, or its one set of two pairs, and the pole k
        is an int >= 0, 0 without one.  The weights go over
        the lcm of the term denominators, reduced as in ``lincomb``, and the
        outer products of the factors' stored nonzero entries into one integer
        grid per (pair, k), held as total-degree slices, slice m listing the
        numerators of x^(m-j) y^j by j.  The shear's steps then run on each
        slice: "s" is the Taylor shift r -> r + 1 of sum c_j r^(m-j)
        (``_shift_by_one``), "f" negates the odd x-degrees, "t" reverses the
        slice and "T" adds its reversal.  The sheared grids H_k of each pole
        are summed by Horner's rule in x - y, H_0 + (x - y)(H_1 + (x - y)(...)),
        from the highest k down: at each level the sum so far is multiplied by
        x - y once, slice m of it making slice m + 1 by the pole step
        c_j - c_(j-1), and that level's grids are added.  A sum whose slices
        are all zero is the zero polynomial, returned without rebuilding rows.
        """
        parts = []  # (key, num, den, f, g) per nonzero term, den the weight's times the factors'
        for sign, side in ((1, groups), (-1, minus)):
            for pair, terms, *pole in side:
                key = (_SHEARS[pair], _pole_steps(*pole))
                for w, f, g in terms:
                    num, den = _weight(w)
                    if num is None or not (isinstance(f, Poly1) and isinstance(g, Poly1)):
                        raise _term_error(Poly1)
                    if num and f._num and g._num:
                        parts.append((key, sign * num, den * f._den * g._den, f, g))
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
        out = []
        for level in range(max(k for _, k in grids), -1, -1):
            if out:
                out = [[0], *([u - v for u, v in zip([*c, 0], [0, *c])] for c in out)]
            for (steps, k), grid in grids.items():
                if k != level:
                    continue
                for m, c in enumerate(grid):
                    for step in steps:
                        if step == "s":
                            _shift_by_one(c)
                        elif step == "f":
                            c[1 - m % 2::2] = [-v for v in c[1 - m % 2::2]]
                        elif step == "t":
                            c.reverse()
                        else:
                            c[:] = [u + v for u, v in zip(c, c[::-1])]
                if out:
                    for row, c in zip(out, grid):
                        row[:] = map(add, row, c)
                else:
                    out = grid
        if not any(map(any, out)):
            return cls()
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
        """Exact evaluation by Horner's rule, in y along each row and then in x."""
        u, v = _as_rat(u), _as_rat(v)
        return _horner([_horner(row, v) for row in self._num], u) / self._den

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
        pole step of ``sheared``'s Horner walk), so Q's slice is the prefix
        sums of P's, whose last one, the slice's sum, must be zero.
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
        return _format_terms([(Fraction(v, self._den), _mono(("x", m - j), ("y", j)))
                              for m, c in reversed([*enumerate(_slices(self._num))])
                              for j, v in enumerate(c) if v])


# the unit of each class, built once: a one-factor term (w, f) is (w, f, unit)
Poly1._unit, Poly2._unit = _poly1([[1]], 1), _poly2([[1]], 1)
