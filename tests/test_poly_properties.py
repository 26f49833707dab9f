"""Content-form invariants and oracle checks for Poly1/Poly2.

Every operation must return the canonical form: integer numerators over
one positive denominator, gcd(content, den) = 1, no trailing zero and no
zero fringe, with the zero polynomial stored as () over 1.  Sums and
products are compared with a naive dict-of-monomials Fraction oracle
that shares no code with the package, and so is the fused sum of
products ``lincomb``, which must also equal the same sum taken with the
ring operators, also where factors repeat, swap or cancel so that its
merge of repeated products acts, and with its weights written as
unreduced integer pairs.  Its zero test ``Poly1.vanishes`` must agree
with it on every term list, also where terms cancel past the merge, and
be False on nonzero sums with a root at a power of two, in x or in
y = x - x^2, which an evaluation point short of the coefficient bound
would take for zero.  The halves it packs, 2f = A(y) + (1 - 2x) B(y),
must rebuild each polynomial through the ring operations, and B_k(x) and
E_k(x) must each keep one empty half.
``Poly1.compose_affine`` must equal sum c_i (a x + b)^i as the oracle
expands it.  The sheared kernel
``Poly2.sheared`` must equal ``lincomb`` over ``compose_xy`` embeddings
at each of its four argument pairs and its one set of two, with pair
weights and with each group's pole (x - y)^k applied as a ``Poly2``
power.  ``Poly2.subst`` must equal Horner's rule taken in the
oracle, along either variable.  ``Poly2``'s diagonal and rendering,
which walk its total-degree slices, must match the oracle summed by
total degree and sorted by it, a ``Poly1`` must render as its ``Poly2``
embedding along either axis, and ``div_xminusy`` must raise exactly
when the diagonal is nonzero.  ``str`` of any Poly1 or Poly2, and of
every B_n(x) and E_n(x) with n <= 120, must equal, byte for byte, the
rendering written on ``Fraction`` coefficients, kept here as
``reference_str``.  Powers must equal the explicit products.
Each kernel's two-side form, which subtracts a second list as it takes
it in, must equal its one-list form with that list's weights negated.
Each property runs on seeded random inputs; the hypothesis versions run
when hypothesis is installed.
"""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest

from bepoly import ExactDivisionError, Poly1, Poly2, bernoulli_poly, euler_poly
from bepoly.arith import frac_sum
from bepoly.polynomials import _wrap

X = Poly2.variable("x")
Y = Poly2.variable("y")

Terms = dict[tuple[int, int], Fraction]


# -- oracle ------------------------------------------------------------------------

def terms_of(p: Poly1 | Poly2) -> Terms:
    """Nonzero coefficients keyed by exponent pair, read through the public API."""
    if isinstance(p, Poly1):
        return {(i, 0): c for i, c in enumerate(p.coeffs) if c}
    return {(i, j): c for i, row in enumerate(p.rows) for j, c in enumerate(row) if c}


def oracle_add(a: Terms, b: Terms, sign: int = 1) -> Terms:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def oracle_mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
    return {key: c for key, c in out.items() if c}


def oracle_diagonal(t: Terms) -> Terms:
    """P(x, x): the coefficients summed by total degree."""
    out: Terms = {}
    for (i, j), c in t.items():
        out[i + j, 0] = out.get((i + j, 0), 0) + c
    return {key: c for key, c in out.items() if c}


def oracle_subst(t: Terms, axis: str, value: Terms) -> Terms:
    """P with ``value`` put for one variable: Horner's rule over the lines of P
    along that variable, from the top degree down."""
    k = "xy".index(axis)
    out: Terms = {}
    for d in range(max((key[k] for key in t), default=-1), -1, -1):
        line = {(0, j) if k == 0 else (i, 0): c for (i, j), c in t.items() if (i, j)[k] == d}
        out = oracle_add(oracle_mul(out, value), line)
    return out


def oracle_str(t: Terms) -> str:
    """Poly2's rendering: by descending total degree, then descending x-degree."""
    out: list[str] = []
    for (i, j), c in sorted(t.items(), key=lambda kv: (-kv[0][0] - kv[0][1], -kv[0][0])):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        out.append(("-" if c < 0 else "") + body if not out else
                   f"{'-' if c < 0 else '+'} {body}")
    return " ".join(out) or "0"


def poly2_of(t: Terms) -> Poly2:
    dx = max((i for i, _ in t), default=-1)
    dy = max((j for _, j in t), default=-1)
    return Poly2([[t.get((i, j), 0) for j in range(dy + 1)] for i in range(dx + 1)])


def poly1_of(t: Terms) -> Poly1:
    dx = max((i for i, _ in t), default=-1)
    return Poly1(t.get((i, 0), 0) for i in range(dx + 1))


# -- the canonical-form invariant ---------------------------------------------------

def assert_canonical(p: Poly1 | Poly2) -> None:
    assert not hasattr(p, "__dict__")
    num, den = p._num, p._den
    rows = (num,) if isinstance(p, Poly1) else num
    flat = [v for row in rows for v in row]
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in flat)
    if not any(flat):
        assert num == () and den == 1
        return
    assert gcd(gcd(*flat), den) == 1
    if isinstance(p, Poly1):
        assert num[-1] != 0
    else:
        assert len({len(row) for row in num}) == 1
        assert any(num[-1]) and any(row[-1] for row in num)


def derived1(p: Poly1, q: Poly1, k: Fraction) -> list[Poly1 | Poly2]:
    out = [p + q, p - q, -p, p * q, p * k, k + p, 3 - p, p ** 0, p ** 2, p ** 5,
           p.derivative(), p.compose_affine(k, 1), p.compose_affine(1, k), p.compose_xy(k, -1),
           p.as_poly2("x"), p.as_poly2("y"), Poly1(p.coeffs)]
    if k:
        out.append(p / k)
    return out


def derived2(p: Poly2, q: Poly2, k: Fraction) -> list[Poly1 | Poly2]:
    out = [p + q, p - q, -p, p * q, p * k, k + p, 3 - p, p ** 0, p ** 2, p ** 5,
           p.partial("x"), p.partial("y"), p.swap_xy(), p.subst("x", q),
           p.subst("y", q), p.diagonal(), (p * (X - Y)).div_xminusy(), Poly2(p.rows)]
    if k:
        out.append(p / k)
    return out


# -- the properties, each checked on one input ----------------------------------------

def check_poly1(tp: Terms, tq: Terms, k: Fraction, u: Fraction) -> None:
    p, q = poly1_of(tp), poly1_of(tq)
    for r in [p, q, *derived1(p, q, k)]:
        assert_canonical(r)
    assert terms_of(p) == tp
    assert Poly1(p.coeffs) == p
    assert terms_of(p + q) == oracle_add(tp, tq)
    assert terms_of(p - q) == oracle_add(tp, tq, -1)
    assert terms_of(p * q) == oracle_mul(tp, tq)
    assert terms_of(p * k) == oracle_mul(tp, {(0, 0): k} if k else {})
    assert p ** 0 == 1 and p ** 2 == p * p and p ** 5 == p * p * p * p * p
    assert (p * q + p - q)(u) == p(u) * q(u) + p(u) - q(u)
    assert p.compose_xy(1, 1).diagonal() == p.compose_affine(2, 0)


def check_poly2(tp: Terms, tq: Terms, k: Fraction, u: Fraction, v: Fraction) -> None:
    p, q = poly2_of(tp), poly2_of(tq)
    for r in [p, q, *derived2(p, q, k)]:
        assert_canonical(r)
    assert terms_of(p) == tp
    assert Poly2(p.rows) == p
    assert terms_of(p + q) == oracle_add(tp, tq)
    assert terms_of(p - q) == oracle_add(tp, tq, -1)
    assert terms_of(p * q) == oracle_mul(tp, tq)
    assert terms_of(p * k) == oracle_mul(tp, {(0, 0): k} if k else {})
    assert p ** 0 == 1 and p ** 2 == p * p and p ** 5 == p * p * p * p * p
    for axis in "xy":
        assert terms_of(p.subst(axis, q)) == oracle_subst(tp, axis, tq)
    assert (p * (X - Y)).div_xminusy() == p
    assert (p * q + p - q)(u, v) == p(u, v) * q(u, v) + p(u, v) - q(u, v)
    # the total-degree slice layout: diagonal sums, exact division, rendering
    for r, t in ((p, tp), (p * q, oracle_mul(tp, tq)), (p - p.swap_xy(), None)):
        t = terms_of(r) if t is None else t
        assert terms_of(r.diagonal()) == oracle_diagonal(t)
        assert str(r) == oracle_str(t)
        try:
            quotient = r.div_xminusy()
        except ExactDivisionError:
            assert oracle_diagonal(t)
        else:
            assert not oracle_diagonal(t)
            assert quotient * (X - Y) == r


def oracle_lincomb(terms: list[tuple]) -> Terms:
    out: Terms = {}
    for w, *factors in terms:
        t = {(0, 0): Fraction(w)} if w else {}
        for f in factors:
            t = oracle_mul(t, terms_of(f))
        out = oracle_add(out, t)
    return out


def check_lincomb(cls: type, terms: list[tuple]) -> None:
    """lincomb against the ring-operator sum and the dict oracle."""
    fused = cls.lincomb(terms)
    assert_canonical(fused)
    ring = cls.zero()
    for w, *factors in terms:
        t = factors[0] * w
        for f in factors[1:]:
            t = t * f
        ring = ring + t
    assert fused == ring
    assert terms_of(fused) == oracle_lincomb(terms)
    if cls is Poly1:
        assert Poly1.vanishes(terms) is fused.is_zero


# -- seeded random inputs -------------------------------------------------------------

def rand_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def rand_terms(rng: random.Random, dx: int, dy: int) -> Terms:
    t = {(i, j): rand_rat(rng) for i in range(dx + 1) for j in range(dy + 1)
         if rng.random() < 0.7}
    return {key: c for key, c in t.items() if c}


def test_poly1_properties_seeded():
    rng = random.Random(101)
    for _ in range(150):
        tp = rand_terms(rng, rng.randint(-1, 6), 0)
        tq = rand_terms(rng, rng.randint(-1, 6), 0)
        check_poly1(tp, tq, rand_rat(rng), rand_rat(rng))


def test_poly1_renders_as_its_poly2_embeddings_seeded():
    rng = random.Random(109)
    for _ in range(100):
        p = poly1_of(rand_terms(rng, rng.randint(-1, 8), 0))
        assert str(p.as_poly2("x")) == str(p)
        assert str(p.as_poly2("y")) == str(p).replace("x", "y")


def reference_format_terms(terms: list[tuple[Fraction, str]]) -> str:
    """The renderer as written on Fraction coefficients: [(coeff, monomial), ...]."""
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


def reference_str(p: Poly1 | Poly2) -> str:
    """str(p) through ``reference_format_terms``, the terms read from the public
    coefficients: by descending total degree, then descending x-degree."""
    def mono(*powers):
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e)

    if isinstance(p, Poly1):
        return reference_format_terms([(c, mono(("x", i)))
                                       for i, c in reversed([*enumerate(p.coeffs)]) if c])
    rows = p.rows
    width = len(rows[0]) if rows else 0
    return reference_format_terms([(rows[m - j][j], mono(("x", m - j), ("y", j)))
                                   for m in reversed(range(len(rows) + width - 1))
                                   for j in range(m + 1)
                                   if m - j < len(rows) and j < width and rows[m - j][j]])


def rand_coeff(rng: random.Random) -> Fraction | int:
    """Zero, +-1, a small or a large numerator over a unit or non-unit denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((0, 1, -1))
    big = 10 ** rng.randint(1, 30)
    return Fraction(rng.randint(-big, big), rng.choice((1, rng.randint(1, big))))


def test_rendering_matches_the_fraction_reference_seeded():
    rng = random.Random(113)
    for _ in range(200):
        p1 = Poly1([rand_coeff(rng) for _ in range(rng.randint(0, 8))])
        p2 = Poly2([[rand_coeff(rng) for _ in range(rng.randint(0, 5))]
                    for _ in range(rng.randint(0, 5))])
        assert str(p1) == reference_str(p1)
        assert str(p2) == reference_str(p2)


def test_bernoulli_and_euler_polynomials_render_as_the_reference():
    for n in range(121):
        for p in (bernoulli_poly(n), euler_poly(n)):
            assert str(p) == reference_str(p)


def test_poly2_properties_seeded():
    rng = random.Random(103)
    for _ in range(80):
        tp = rand_terms(rng, rng.randint(-1, 4), rng.randint(0, 4))
        tq = rand_terms(rng, rng.randint(-1, 3), rng.randint(0, 3))
        check_poly2(tp, tq, rand_rat(rng), rand_rat(rng), rand_rat(rng))


def rand_lincomb_terms(rng: random.Random, make, dx: int, dy: int) -> list[tuple]:
    """0..6 terms with one or two factors; weights and factors are sometimes zero."""
    terms = []
    for _ in range(rng.randint(0, 6)):
        w = rng.choice([0, rng.randint(-5, 5), rand_rat(rng)])
        factors = [make(rand_terms(rng, rng.randint(-1, dx), dy))
                   for _ in range(rng.randint(1, 2))]
        terms.append((w, *factors))
    return terms


def test_lincomb_seeded():
    rng = random.Random(107)
    for _ in range(120):
        check_lincomb(Poly1, rand_lincomb_terms(rng, poly1_of, 6, 0))
    for _ in range(60):
        check_lincomb(Poly2, rand_lincomb_terms(rng, poly2_of, 3, rng.randint(0, 3)))


def test_lincomb_zero_cases():
    for cls, p, q in ((Poly1, Poly1((Fraction(1, 3), 2)), Poly1((0, 5, -1))),
                      (Poly2, X - Y / 2, X * Y + 1)):
        s = _wrap(cls, p._num, 3 * p._den)  # p's own grid over another denominator
        for terms in ([], [(0, p), (Fraction(0), p, p)],
                      [(3, cls.zero()), (Fraction(1, 2), p, cls.zero())],
                      [(1, p, p), (-1, p * p)],
                      [(Fraction(2, 3), p, q), (Fraction(-2, 3), q, p)],
                      [(1, p, q), (1, q, p), (-1, q, p), (-1, p, q), (2, p), (-2, p)],
                      [(1, p, s), (-3, s, s)], [(1, p), (-3, s)]):
            r = cls.lincomb(terms)
            assert r == cls.zero()
            assert_canonical(r)
            if terms:
                check_lincomb(cls, terms)


def shared_terms(rng: random.Random, pool: list, terms: list[tuple]) -> list[tuple]:
    """``terms`` with factors drawn by index from ``pool``, so that grids
    repeat by identity, followed by one, two or no copies of each term
    with its factors swapped."""
    out = [(w, *(pool[i % len(pool)] for i in picks)) for w, *picks in terms]
    copies = rng.randint(0, 2)
    return out + [(w, *reversed(factors)) for w, *factors in out] * copies


def share_a_grid(pool: list) -> list:
    """``pool`` plus a polynomial holding the first one's grid over 7 times its
    denominator, if that is still canonical."""
    p = pool[0]
    rows = (p._num,) if isinstance(p, Poly1) else p._num
    content = gcd(*(v for row in rows for v in row))
    return pool + [_wrap(type(p), p._num, 7 * p._den)] if content % 7 else pool


def check_merged(cls, pool: list, picks: list[tuple], rng: random.Random) -> None:
    """lincomb over repeated, swapped and cancelling factors."""
    pool = share_a_grid(pool) if pool[0]._num else pool
    terms = shared_terms(rng, pool, picks)
    check_lincomb(cls, terms)
    negated = terms + [(-w, *reversed(fs)) for w, *fs in terms]
    cancelled = cls.lincomb(negated)
    assert cancelled == cls.zero()
    assert_canonical(cancelled)
    if cls is Poly1:
        assert Poly1.vanishes(negated)


def rand_picks(rng: random.Random) -> list[tuple]:
    """0..8 weighted picks of one or two pool indices."""
    return [(rng.choice([0, rng.randint(-5, 5), rand_rat(rng)]),
             *(rng.randrange(4) for _ in range(rng.randint(1, 2))))
            for _ in range(rng.randint(0, 8))]


def test_lincomb_merges_repeated_products_seeded():
    rng = random.Random(113)
    for _ in range(100):
        pool = [poly1_of(rand_terms(rng, rng.randint(-1, 6), 0)) for _ in range(3)]
        check_merged(Poly1, pool, rand_picks(rng), rng)
    for _ in range(50):
        pool = [poly2_of(rand_terms(rng, rng.randint(-1, 3), rng.randint(0, 3))) for _ in range(3)]
        check_merged(Poly2, pool, rand_picks(rng), rng)


def negated(terms: list[tuple]) -> list[tuple]:
    """``terms`` with each weight negated: an int, a Rat or an integer pair (num, den)."""
    return [((-w[0], w[1]) if isinstance(w, tuple) else -w, *fs) for w, *fs in terms]


def check_two_sides(cls, lhs: list[tuple], rhs: list[tuple]) -> None:
    """lincomb, and for Poly1 vanishes, of two sides against the one-list form."""
    one = cls.lincomb([*lhs, *negated(rhs)])
    two = cls.lincomb(lhs, rhs)
    assert_canonical(two)
    assert two == one
    assert cls.lincomb(lhs, lhs) == cls.zero()
    if cls is Poly1:
        assert Poly1.vanishes(lhs, rhs) is one.is_zero
        assert Poly1.vanishes(rhs, rhs)


def test_two_side_kernels_equal_the_one_list_form_seeded():
    # every kernel takes the two sides of an identity and subtracts the right
    # one as it takes it in; that must equal its one-list form on the left side
    # followed by the right side negated, also where one grid sits over two
    # denominators (share_a_grid) on either side, so that one merged entry adds
    # weights over different denominators, and where the sides cancel
    rng = random.Random(151)
    for _ in range(100):
        pairs = [[(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(0, 5))]
                 for _ in range(2)]
        assert frac_sum(*pairs) == frac_sum([*pairs[0], *[(-a, b) for a, b in pairs[1]]])
        pool = [poly1_of(rand_terms(rng, rng.randint(-1, 6), 0)) for _ in range(3)]
        pool = share_a_grid(pool) if pool[0]._num else pool
        check_two_sides(Poly1, *(shared_terms(rng, pool, rand_picks(rng)) for _ in range(2)))
    for _ in range(50):
        pool = [poly2_of(rand_terms(rng, rng.randint(-1, 3), rng.randint(0, 3)))
                for _ in range(3)]
        pool = share_a_grid(pool) if pool[0]._num else pool
        check_two_sides(Poly2, *(shared_terms(rng, pool, rand_picks(rng)) for _ in range(2)))
        lhs, rhs = (rand_sheared_groups(rng, rng.sample(PAIRS, rng.randint(0, 3)))
                    for _ in range(2))
        two = Poly2.sheared(lhs, rhs)
        assert two == Poly2.sheared([*lhs, *[(pair, negated(terms), *pole)
                                             for pair, terms, *pole in rhs]])
        assert_canonical(two)
        assert Poly2.sheared(lhs, lhs) == Poly2.zero()
    # p's grid over 3 times its denominator, and the unit in either position
    f, unit = Poly1((Fraction(1, 3), 2)), Poly1._unit
    g = _wrap(Poly1, f._num, 3 * f._den)
    check_two_sides(Poly1, [(1, f, f), (2, f)], [(3, g, f), (6, unit, g)])
    assert Poly1.lincomb([(1, f, f), (2, f)], [(3, g, f), (6, unit, g)]).is_zero
    assert not Poly1.vanishes([(1, f, f)], [(2, g, f)])


def test_lincomb_passes_one_part_per_repeated_product(monkeypatch):
    # 1.6 at n = 10 sums B_k(x) B_{10-k}(x) for k = 1..9: the nine products
    # are five unordered pairs of stored grids, so five parts whose factors
    # are not the unit, in lincomb's convolution and in the products that
    # vanishes packs (build_residual's zero test); a term (w, f) is
    # (w, f, unit), so it merges with (w', f, unit) and (w'', unit, f) into one part
    from bepoly import build_residual, polynomials
    from bepoly.catalog import CATALOG
    convolve, merged, seen, unit = polynomials._convolve, polynomials._merged, [], Poly1._unit
    packed = []

    def counted(parts):
        parts = list(parts)
        seen.append((len(parts), sum(a is not unit._sparse() and b is not unit._sparse()
                                     for _, a, b in parts)))
        return convolve(parts)

    def counted_merge(cls, terms, minus=()):
        items, den = merged(cls, terms, minus)
        packed.append(sum(f is not unit and g is not unit for _, f, g in items))
        return items, den

    monkeypatch.setattr(polynomials, "_convolve", counted)
    monkeypatch.setattr(polynomials, "_merged", counted_merge)
    assert build_residual("1.6", 10).is_zero
    assert packed == [5] and not seen  # one zero test, no expansion
    lhs, rhs = CATALOG["1.6"].build(10)
    assert Poly1.lincomb(lhs, rhs).is_zero
    assert seen[0][1] == 5
    f = Poly1((Fraction(1, 3), 2))
    assert Poly1.lincomb([(2, f), (3, f, Poly1._unit), (-1, Poly1._unit, f)]) == 4 * f
    assert seen[1] == (1, 0)


def test_lincomb_rejects_mixed_and_malformed_terms():
    p1, p2 = Poly1((1, 2)), X + Y
    for cls, terms in ((Poly1, [(1, p1, p2)]), (Poly1, [(1, p2)]),
                       (Poly2, [(1, p2, p1)]), (Poly2, [(1, p1)]),
                       (Poly2, [(1.5, p2)]), (Poly2, [(1, p2, None)]),
                       # integer-pair weights need two ints and den > 0
                       (Poly1, [((1, 0), p1)]), (Poly1, [((1, -2), p1)]),
                       (Poly1, [((1.0, 2), p1)]), (Poly2, [((1, 2.5), p2, p2)]),
                       (Poly1, [((1, 2, 3), p1)]), (Poly1, [([1, 2], p1)])):
        with pytest.raises(TypeError):
            cls.lincomb(terms)
        if cls is Poly1:
            with pytest.raises(TypeError):
                Poly1.vanishes(terms)
    for terms in ([(1,)], [(1, p2, p2, p2)]):
        with pytest.raises(ValueError):
            Poly2.lincomb(terms)
    for terms in ([(1,)], [(1, p1, p1, p1)]):
        with pytest.raises(ValueError):
            Poly1.vanishes(terms)


def test_sparse_rows_match_the_dense_numerators_and_stay_out_of_the_value():
    rng = random.Random(127)
    for _ in range(60):
        tp = rand_terms(rng, rng.randint(0, 5), rng.randint(0, 4))
        if not tp:
            continue
        t1 = {(i, 0): c for (i, j), c in tp.items() if not j}
        for make, t in ((poly2_of, tp), (poly1_of, t1)):
            p, q = make(t), make(t)
            if p.is_zero:
                continue
            key, rows = hash(q), (p._num,) if isinstance(p, Poly1) else p._num
            assert not hasattr(p, "_nz")  # filled on first use only
            sparse, width = p._sparse()
            assert p._sparse() is p._nz
            assert width == len(rows[0]) and len(sparse) == len(rows)
            for row, nz in zip(rows, sparse):
                assert nz == [(j, v) for j, v in enumerate(row) if v]
            assert all(v for row in sparse for _, v in row)
            assert p == q and hash(p) == hash(q) == key


def test_lincomb_on_shared_factors_under_threads():
    # 8 threads sum the same products of factors whose sparse rows are not yet
    # listed, switching every microsecond; each gets the serial result
    rng = random.Random(131)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            rows = [[rand_rat(rng) for _ in range(12)] for _ in range(4)]
            expected = Poly1.lincomb([((k, 7), Poly1(a), Poly1(b))
                                      for k, (a, b) in enumerate(zip(rows, rows[1:]), 1)])
            pool = [Poly1(r) for r in rows]
            terms = [((k, 7), a, b) for k, (a, b) in enumerate(zip(pool, pool[1:]), 1)]
            barrier = threading.Barrier(8)
            seen: list[Poly1] = []

            def worker() -> None:
                barrier.wait()
                seen.append(Poly1.lincomb(terms))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 8 and all(r == expected for r in seen)
    finally:
        sys.setswitchinterval(interval)


# -- the zero test at a power of two ------------------------------------------------------

def test_vanishes_is_false_at_a_root_that_is_a_power_of_two():
    # x - 2^k and (x - 2^a)(x + 2^b) vanish at 2^k and 2^a, so an evaluation
    # point taken even one bit below the coefficient bound can hit the root;
    # so does x^3 (2^k - x), written as 2^(k-2) ((x + x^2)^2 - (x - x^2)^2) - x^4,
    # whose factors have no coefficient above 1: a bound on each product
    # that reads only the largest coefficient of each factor is short; and
    # x - 2^k times a constant 1 that is not the unit object, in either
    # position, as only the unit's own products may be left out of the bound
    f, g, x4, one = Poly1((0, 1, 1)), Poly1((0, 1, -1)), Poly1.monomial(4), Poly1((1,))
    assert one is not Poly1._unit
    for k in range(1, 301):
        root = Poly1((-(1 << k), 1))
        assert not Poly1.vanishes([(1, root)])
        assert not Poly1.vanishes([(1, one, root)]) and not Poly1.vanishes([(1, root, one)])
        if k >= 2:
            assert not Poly1.vanishes([(1 << k - 2, f, f), (-(1 << k - 2), g, g), (-1, x4)])
    others = [Poly1((1 << b, 1)) for b in range(1, 301)]
    for a in range(1, 301):
        root = Poly1((-(1 << a), 1))
        for g in others:
            assert not Poly1.vanishes([(1, root, g)])


def test_vanishes_is_false_at_a_root_in_y_that_is_a_power_of_two():
    # vanishes evaluates the sum's two halves in y = x - x^2 at y = 2^W, so the
    # same holds for sums with the factor y - 2^k, each built from factors
    # with both halves: x (y - 2^k) alone and beside a constant 1 that is not
    # the unit, in either position; (y - 2^k) times x or x + 2^b; x y (2^k - y),
    # written as 2^(k-2) ((x + y)^2 - (x - y)^2) - x y^2 with x - y = x^2, whose
    # factors have no coefficient above 2; and 2^(k+2) - 4y, written as
    # (1 - 2x)^2 + 2^(k+2) - 1, whose square is 1 - 4y only through the z^2 of
    # the halves; each sum's own halves vanish at 2^k, which the test checks
    x, y, z, one = Poly1((0, 1)), Poly1((0, 1, -1)), Poly1((1, -2)), Poly1((1,))
    f, g, y2 = x + y, x * x, y * y
    assert one is not Poly1._unit and g == x - y
    assert all(any(h) for p in (x, f, g) for h in p._norms()[3])
    others = [x, *(Poly1((1 << b, 1)) for b in range(1, 301, 13))]
    for k in range(1, 301):
        root = Poly1((-(1 << k), 1, -1))
        xroot = x * root
        sums = [[(1, xroot)], [(1, one, xroot)], [(1, xroot, one)],
                [((1 << k + 2) - 1, one), (1, z, z)], *([(1, root, h)] for h in others)]
        if k >= 2:
            sums.append([(1 << k - 2, f, f), (-(1 << k - 2), g, g), (-1, x, y2)])
        for terms in sums:
            assert not Poly1.vanishes(terms), (k, terms)
            assert all(sum(c << j * k for j, c in enumerate(h)) == 0
                       for h in Poly1.lincomb(terms)._norms()[3])


def fresh(p: Poly1) -> Poly1:
    """p as a new object, which lincomb's merge by identity does not take for p."""
    return Poly1(p.coeffs)


def check_vanishes(terms: list[tuple], h: Poly1) -> None:
    """vanishes agrees with lincomb on ``terms`` and is True on sums that cancel
    past the merge by identity: each term (w, f, g) against -w times fresh
    copies of g and f, and w f g + w f h against w f (g + h); adding the
    nonzero h to such a sum makes it False."""
    assert Poly1.vanishes(terms) is Poly1.lincomb(terms).is_zero
    full = [(w, *fs) if len(fs) == 2 else (w, *fs, Poly1._unit) for w, *fs in terms]
    zero = [*terms, *[(-w, fresh(g), fresh(f)) for w, f, g in full]]
    zero += [t for w, f, g in full for t in ((w, f, g), (w, f, h), (-w, f, g + h))]
    assert Poly1.vanishes(zero) and Poly1.lincomb(zero).is_zero
    if not h.is_zero:
        assert not Poly1.vanishes([*zero, (1, h)])
        assert not Poly1.vanishes([*zero, (Fraction(-1, 3), h, fresh(h))])


def test_vanishes_on_planted_cancellations_seeded():
    rng = random.Random(137)
    for _ in range(150):
        h = poly1_of(rand_terms(rng, rng.randint(-1, 6), 0))
        check_vanishes(rand_lincomb_terms(rng, poly1_of, 6, 0), h)


def test_vanishes_on_planted_cancellations_hypothesis():
    given, settings, rats, term_dicts = _strategies()
    st = pytest.importorskip("hypothesis.strategies")
    weights = st.one_of(st.just(0), st.integers(-(1 << 80), 1 << 80), rats)
    factors = term_dicts(8, 0).map(poly1_of)
    terms = st.lists(st.one_of(st.tuples(weights, factors),
                               st.tuples(weights, factors, factors)), max_size=6)

    @settings
    @given(terms, factors)
    def run(terms, h):
        check_vanishes(terms, h)

    run()


def test_vanishes_on_shared_factors_under_threads():
    # 8 threads test the same sums of factors that keep no packed values yet,
    # switching every microsecond; thread i scales the weights by 2^(40 i), so
    # each packs at its own width and more widths are asked for than a
    # polynomial keeps; each gets the serial verdict
    rng = random.Random(139)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            rows = [[rand_rat(rng) for _ in range(12)] for _ in range(4)]
            pool = [Poly1(r) for r in rows]
            terms = [((k, 7), a, b) for k, (a, b) in enumerate(zip(pool, pool[1:]), 1)]
            zero = terms + [((-k, 7), fresh(b), fresh(a)) for (k, _), a, b in terms]
            barrier = threading.Barrier(8)
            seen: list[tuple[bool, bool]] = []

            def worker(i: int) -> None:
                scaled = [((k << 40 * i, d), a, b) for (k, d), a, b in zero]
                barrier.wait()
                for _ in range(5):
                    seen.append((Poly1.vanishes(scaled), Poly1.vanishes(scaled + [(1, pool[0])])))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [(True, False)] * 40
    finally:
        sys.setswitchinterval(interval)


def test_vanishes_packs_each_factor_once_per_width(monkeypatch):
    # a value kept in _kr is read where it is kept: a second call at the same
    # width packs nothing, and a width the factors do not keep packs each once
    f, g = Poly1((1, -2, 3)), Poly1((5, 0, 7, 1))
    terms = [(3, f, g), (1, g, g), ((1, 4), f)]
    calls = []
    packed = Poly1._packed
    monkeypatch.setattr(Poly1, "_packed", lambda self, w: calls.append(w) or packed(self, w))
    verdict = Poly1.vanishes(terms)
    assert len(calls) == 2 and not verdict
    calls.clear()
    assert Poly1.vanishes(terms) is verdict and calls == []
    assert not Poly1.vanishes([(1 << 64, f, g)]) and len(calls) == 2


def in_y(h: list[int]) -> Poly1:
    """sum h_j y^j at y = x - x^2, by Horner's rule on the ring operations."""
    acc, y = Poly1(), Poly1((0, 1, -1))
    for c in reversed(h):
        acc = acc * y + c
    return acc


def test_halves_in_y_rebuild_twice_the_numerators():
    # the halves vanishes packs, 2f = A(y) + (1 - 2x) B(y) for the stored
    # numerators f, rebuilt through lincomb for seeded random integer
    # polynomials of degree 0..60 and for B_k(x) and E_k(x), k <= 60; the
    # kept norms are the sum and the largest of |c| over both halves
    rng = random.Random(151)
    z = Poly1((1, -2))
    polys = [Poly1([rng.randint(-(1 << 70), 1 << 70) for _ in range(d + 1)]) for d in range(61)]
    polys += [seq(k) for k in range(61) for seq in (bernoulli_poly, euler_poly)]
    for p in polys:
        l1, top, _, (a, b) = p._norms()
        assert 2 * Poly1(p._num) == in_y(a) + z * in_y(b), p
        mags = [abs(c) for c in (*a, *b)]
        assert (l1, top) == (sum(mags), max(mags))


def test_bernoulli_and_euler_polynomials_keep_one_half():
    # B_k(1 - x) = (-1)^k B_k(x) and E_k(1 - x) = (-1)^k E_k(x), so the B half
    # is empty at even k and the A half at odd k; the kept half has at most
    # k // 2 + 1 entries and at most one bit more than the stored numerators.
    # vanishes never reads parity: these are the facts its speed rests on
    for k in range(61):
        for p in (bernoulli_poly(k), euler_poly(k)):
            a, b = p._norms()[3]
            empty, kept = (b, a) if k % 2 == 0 else (a, b)
            assert not any(empty), (k, p)
            kept = kept[:max(i + 1 for i, c in enumerate(kept) if c)]
            assert len(kept) <= k // 2 + 1, (k, p)
            bits = max(abs(c).bit_length() for c in p._num)
            assert max(abs(c).bit_length() for c in kept) <= bits + 1, (k, p)


# -- affine composition ------------------------------------------------------------------

def oracle_affine(tp: Terms, a: Fraction, b: Fraction) -> Terms:
    """sum c_i (a x + b)^i, expanded by the dict oracle."""
    line = {key: c for key, c in (((1, 0), a), ((0, 0), b)) if c}
    out: Terms = {}
    power: Terms = {(0, 0): Fraction(1)}
    for i in range(max((i for i, _ in tp), default=-1) + 1):
        out = oracle_add(out, oracle_mul(power, {(0, 0): tp[i, 0]} if (i, 0) in tp else {}))
        power = oracle_mul(power, line)
    return out


def check_affine(tp: Terms, a: Fraction | int, b: Fraction | int) -> None:
    r = poly1_of(tp).compose_affine(a, b)
    assert_canonical(r)
    assert terms_of(r) == oracle_affine(tp, Fraction(a), Fraction(b))


# (a, b) = (ai/q, bi/q): rational, negative and zero a and b, b = 0, bi = 1
# and bi = -1 with q = 1 and q > 1, and negative bi (exact floor division)
AFFINE = [(Fraction(1, 2), 0), (1, 1), (1, -1), (-1, 1), (0, 0), (0, Fraction(-3, 2)),
          (Fraction(1, 3), Fraction(1, 3)), (Fraction(-2, 3), Fraction(-1, 3)),
          (Fraction(-3, 5), Fraction(7, 4)), (2, -3), (Fraction(4, 7), Fraction(-9, 2)),
          (5, 0), (Fraction(-7, 4), 0), (1, 0)]


def test_compose_affine_matches_power_sum_seeded():
    rng = random.Random(127)
    polys = [{}, {(0, 0): Fraction(-5, 3)}, {(0, 0): Fraction(2)}, {(3, 0): Fraction(2)}]
    polys += [rand_terms(rng, rng.randint(-1, 9), 0) for _ in range(40)]
    for tp in polys:
        for a, b in AFFINE + [(rand_rat(rng), rand_rat(rng)) for _ in range(3)]:
            check_affine(tp, a, b)


# -- the sheared kernel ------------------------------------------------------------------

# the four argument pairs (L1, L2) of Poly2.sheared, a*x + b*y written (a, b),
# and its one set of two pairs, ((x - y, y), (y - x, x))
PAIRS = [((1, 0), (0, 1)), ((1, -1), (0, 1)), ((-1, 1), (1, 0)), ((1, 1), (1, 0)),
         (((1, -1), (0, 1)), ((-1, 1), (1, 0)))]


def pairs_of(key: tuple) -> tuple:
    """The argument pairs a group key stands for: itself, or the two of a set."""
    return key if isinstance(key[0][0], tuple) else (key,)


def as_rat(w) -> Fraction | int:
    """A weight as a Rat or an int; an integer pair (num, den) is num/den."""
    return Fraction(*w) if isinstance(w, tuple) else w


def check_sheared(groups: list[tuple]) -> None:
    """Poly2.sheared against Poly2.lincomb over compose_xy embeddings, each
    group's sum times its pole taken as a Poly2 power."""
    fused = Poly2.sheared(groups)
    assert_canonical(fused)
    expected = Poly2.zero()
    for key, terms, *pole in groups:
        k, = pole or [0]
        expected += (X - Y) ** k * Poly2.lincomb(
            [(as_rat(w), f.compose_xy(*l1), g.compose_xy(*l2))
             for l1, l2 in pairs_of(key) for w, f, g in terms])
    assert fused == expected


def rand_weight(rng: random.Random):
    """0, an int, a Rat or an integer pair (num, den), often unreduced."""
    k = rng.randint(1, 6)
    return rng.choice([0, rng.randint(-5, 5), rand_rat(rng),
                       (rng.randint(-9, 9) * k, rng.randint(1, 9) * k)])


def rand_sheared_groups(rng: random.Random, pairs: list) -> list[tuple]:
    """One group per pair, 0..4 terms each, with or without a pole (x - y)^k,
    k in 0..3; weights and factors are sometimes zero."""
    groups = []
    for pair in pairs:
        terms = [(rand_weight(rng), poly1_of(rand_terms(rng, rng.randint(-1, 6), 0)),
                  poly1_of(rand_terms(rng, rng.randint(-1, 6), 0)))
                 for _ in range(rng.randint(0, 4))]
        pole = rng.choice([(), (rng.randint(0, 3),)])
        groups.append((pair, terms, *pole))
    return groups


def test_sheared_each_pair_seeded():
    rng = random.Random(109)
    for pair in PAIRS:
        for _ in range(40):
            check_sheared(rand_sheared_groups(rng, [pair]))
        for k in range(4):  # every pole power at every pair
            groups = rand_sheared_groups(rng, [pair])
            check_sheared([(pair, groups[0][1], k)])
    for _ in range(40):
        check_sheared(rand_sheared_groups(rng, rng.sample(PAIRS, rng.randint(0, len(PAIRS)))))
    # each pair repeated at poles from {0, 1, 3}: one pair at two poles in one
    # call, and a pole level (2, and often 1 or 0) with no group
    for _ in range(40):
        pairs = rng.sample(PAIRS, rng.randint(1, 3)) * rng.randint(2, 3)
        rng.shuffle(pairs)
        check_sheared([(pair, terms, rng.choice((0, 1, 3)))
                       for pair, terms, *_ in rand_sheared_groups(rng, pairs)])


def test_sheared_deterministic_cases():
    f, g = Poly1((Fraction(1, 3), 0, -2, 1)), Poly1((Fraction(-5, 4), 7))
    zero, one = Poly1(), Poly1((1,))
    for pair in PAIRS:
        check_sheared([(pair, [(Fraction(2, 3), f, g), (-1, g, f), (1, one, one)])])
        check_sheared([(pair, [(0, f, g), (3, zero, g), (Fraction(1, 2), f, zero)])])
        check_sheared([(pair, [])])
        check_sheared([(pair, [(1, f, g)]), (pair, [(-1, f, g)])])  # an all-zero sum
        assert Poly2.sheared(iter([(pair, iter([(1, f, g), (-1, f, g)]))])) == Poly2.zero()
    assert Poly2.sheared([]) == Poly2.zero()
    x = Poly1((0, 1))
    # x^2 at each pair, against the expansion by hand
    X2, XY, Y2 = Poly2.monomial(2, 0), Poly2.monomial(1, 1), Poly2.monomial(0, 2)
    expected = [X2, X2 - 2 * XY + Y2, X2 - 2 * XY + Y2, X2 + 2 * XY + Y2,
                2 * (X2 - 2 * XY + Y2)]
    for pair, want in zip(PAIRS, expected):
        assert Poly2.sheared([(pair, [(1, x * x, one)])]) == want
    # poles by hand: x (x - y)^2, and (x - y)^0 changes nothing
    X3, X2Y, XY2 = Poly2.monomial(3, 0), Poly2.monomial(2, 1), Poly2.monomial(1, 2)
    assert Poly2.sheared([(PAIRS[0], [((3, 3), x, one)], 2)]) == X3 - 2 * X2Y + XY2
    assert Poly2.sheared([(PAIRS[0], [(1, x, one)], 0)]) == X
    # a sum that cancels across poles: x f(x) g(y) - f(x) y g(y) - (x - y) f(x) g(y)
    cancelled = Poly2.sheared([(PAIRS[0], [(1, x * f, g), (-1, f, x * g)]),
                               (PAIRS[0], [(-1, f, g)], 1)])
    assert cancelled == Poly2.zero()
    assert_canonical(cancelled)


def test_sheared_rejects_unknown_pairs_and_malformed_terms():
    f = Poly1((1, 2))
    # (y, x) is no pair: a sum there is the sum at (x, y) with the factors swapped
    for pair in (((1, 0), (1, 0)), ((0, 1), (1, 0))):
        with pytest.raises(KeyError):
            Poly2.sheared([(pair, [(1, f, f)])])
    for term in ((1, f, X), (1, X, f), (1.5, f, f), (1, f, None),
                 # integer-pair weights need two ints and den > 0, as in lincomb
                 ((1, 0), f, f), ((1, -2), f, f), ((1.0, 2), f, f), ((1, 2.5), f, f),
                 ((1, 2, 3), f, f), ([1, 2], f, f)):
        with pytest.raises(TypeError):
            Poly2.sheared([(PAIRS[0], [term])])
    with pytest.raises(ValueError):
        Poly2.sheared([(PAIRS[0], [(1, f)])])
    # a pole is an int k >= 0, the power of x - y: not a bool, a float, the
    # old form ((1, -1), k) or y, ((0, 1), k)
    for pole in (-1, 1.0, True, ((1, -1), 1), ((1, -1), 0), ((0, 1), 1), ((1, -1),),
                 [(1, -1), 1], "1", "y", None):
        with pytest.raises(TypeError):
            Poly2.sheared([(PAIRS[0], [(1, f, f)], pole)])
    with pytest.raises(TypeError):  # at most one pole per group
        Poly2.sheared([(PAIRS[0], [(1, f, f)], 1, 1)])


# -- hypothesis versions ---------------------------------------------------------------

def _strategies():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rats = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))

    def term_dicts(max_x: int, max_y: int):
        keys = st.tuples(st.integers(0, max_x), st.integers(0, max_y))
        return st.dictionaries(keys, rats.filter(bool), max_size=12)

    settings = hypothesis.settings(max_examples=60, deadline=None, database=None)
    return hypothesis.given, settings, rats, term_dicts


def test_poly1_properties_hypothesis():
    given, settings, rats, term_dicts = _strategies()

    @settings
    @given(term_dicts(7, 0), term_dicts(7, 0), rats, rats)
    def run(tp, tq, k, u):
        check_poly1(tp, tq, k, u)

    run()


def test_poly2_properties_hypothesis():
    given, settings, rats, term_dicts = _strategies()

    @settings
    @given(term_dicts(4, 4), term_dicts(3, 3), rats, rats, rats)
    def run(tp, tq, k, u, v):
        check_poly2(tp, tq, k, u, v)

    run()


def test_lincomb_hypothesis():
    given, settings, rats, term_dicts = _strategies()
    st = pytest.importorskip("hypothesis.strategies")
    weights = st.one_of(st.just(0), st.integers(-20, 20), rats)

    def term_lists(factors):
        return st.lists(st.one_of(st.tuples(weights, factors),
                                  st.tuples(weights, factors, factors)), max_size=6)

    @settings
    @given(term_lists(term_dicts(6, 0).map(poly1_of)),
           term_lists(term_dicts(3, 3).map(poly2_of)))
    def run(terms1, terms2):
        check_lincomb(Poly1, terms1)
        check_lincomb(Poly2, terms2)

    run()


def test_lincomb_pair_weights_match_rat_weights_hypothesis():
    # unreduced integer pairs (num, den), mixed with ints and Rats, give the
    # lincomb of the same weights as Rats
    given, settings, rats, term_dicts = _strategies()
    st = pytest.importorskip("hypothesis.strategies")
    weights = st.one_of(st.tuples(st.integers(-60, 60), st.integers(1, 60)),
                        st.integers(-20, 20), rats)

    def term_lists(factors):
        return st.lists(st.one_of(st.tuples(weights, factors),
                                  st.tuples(weights, factors, factors)), max_size=6)

    def as_rats(terms):
        return [(Fraction(*w) if isinstance(w, tuple) else w, *fs) for w, *fs in terms]

    @settings
    @given(term_lists(term_dicts(6, 0).map(poly1_of)),
           term_lists(term_dicts(3, 3).map(poly2_of)))
    def run(terms1, terms2):
        for cls, terms in ((Poly1, terms1), (Poly2, terms2)):
            fused = cls.lincomb(terms)
            assert_canonical(fused)
            assert fused == cls.lincomb(as_rats(terms))
            check_lincomb(cls, as_rats(terms))

    run()


def test_lincomb_merges_repeated_products_hypothesis():
    given, settings, rats, term_dicts = _strategies()
    st = pytest.importorskip("hypothesis.strategies")
    weights = st.one_of(st.just(0), st.integers(-20, 20), rats)
    picks = st.lists(st.one_of(st.tuples(weights, st.integers(0, 3)),
                               st.tuples(weights, st.integers(0, 3), st.integers(0, 3))),
                     max_size=8)

    @settings
    @given(st.lists(term_dicts(6, 0).map(poly1_of), min_size=1, max_size=3),
           st.lists(term_dicts(3, 3).map(poly2_of), min_size=1, max_size=3),
           picks, picks, st.randoms(use_true_random=False))
    def run(pool1, pool2, picks1, picks2, rng):
        check_merged(Poly1, pool1, picks1, rng)
        check_merged(Poly2, pool2, picks2, rng)

    run()


def test_sheared_hypothesis():
    given, settings, rats, term_dicts = _strategies()
    st = pytest.importorskip("hypothesis.strategies")
    factors = term_dicts(6, 0).map(poly1_of)
    weights = st.one_of(st.just(0), st.integers(-20, 20), rats,
                        st.tuples(st.integers(-60, 60), st.integers(1, 60)))
    terms = st.lists(st.tuples(weights, factors, factors), max_size=4)
    poles = st.integers(0, 3)
    groups = st.one_of(st.tuples(st.sampled_from(PAIRS), terms),
                       st.tuples(st.sampled_from(PAIRS), terms, poles))

    @settings
    @given(st.lists(groups, max_size=6))
    def run(groups):
        check_sheared(groups)

    run()


def test_compose_affine_hypothesis():
    given, settings, rats, term_dicts = _strategies()
    st = pytest.importorskip("hypothesis.strategies")
    scalars = st.one_of(st.integers(-3, 3), rats)

    @settings
    @given(term_dicts(9, 0), scalars, scalars)
    def run(tp, a, b):
        check_affine(tp, a, b)

    run()


def test_rendering_matches_the_fraction_reference_hypothesis():
    given, settings, rats, _ = _strategies()
    st = pytest.importorskip("hypothesis.strategies")
    big = st.integers(-10 ** 30, 10 ** 30)
    coeffs = st.one_of(st.sampled_from((0, 1, -1)), rats,
                       st.builds(Fraction, big, st.integers(1, 10 ** 30)),
                       st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 6, 30))))

    @settings
    @given(st.lists(coeffs, max_size=9),
           st.lists(st.lists(coeffs, max_size=6), max_size=6))
    def run(c1, rows):
        p1, p2 = Poly1(c1), Poly2(rows)
        assert str(p1) == reference_str(p1)
        assert str(p2) == reference_str(p2)

    run()
