"""Identity catalog: spot values, equivalence chains, specializations, sweeps.

Spot values are frozen constants recomputed here from independent
transcriptions of each side, never by calling the builder under test
twice.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import pickle
import re
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import pytest

from bepoly import catalog, operators
from bepoly.arith import frac_sum
from bepoly import (
    Poly1,
    Poly2,
    UnknownIdentityError,
    bbar,
    bernoulli_number,
    bernoulli_poly,
    beta_int,
    binomial,
    build_residual,
    catalog_ids,
    euler_poly,
    gamma_ratio,
    h_pq,
    harmonic,
    verify,
    verify_sweep,
)

X = Poly2.variable("x")
Y = Poly2.variable("y")
B = bernoulli_number
H = harmonic


# wrong sequences, each true value plus a small term, under the names the
# catalog and operators read them by; residuals built from them are not 0
PERTURBED = {
    "bernoulli_poly": lambda k: bernoulli_poly(k) + Poly1.monomial(k % 3, Fraction(k + 1, 7)),
    "euler_poly": lambda k: euler_poly(k) - Poly1.monomial((k + 1) % 4, Fraction(2 * k + 1, 5)),
    "harmonic": lambda n: harmonic(n) + Fraction(1, n + 3),
    "bernoulli_number": lambda k: B(k) + Fraction(1, k + 3),
    "bbar": lambda k: bbar(k) - Fraction(k, 5),
    "h_pq": lambda n, p, q: h_pq(n, p, q) + Fraction(p + 1, n + 3),
}


def bern2(k: int, cx: int, cy: int) -> Poly2:
    return bernoulli_poly(k).compose_xy(cx, cy)


def eul2(k: int, cx: int, cy: int) -> Poly2:
    return euler_poly(k).compose_xy(cx, cy)


# -- spot values ---------------------------------------------------------------

def test_ordinary_vs_binomial_convolution_at_4():
    lhs = (sum(B(k) * B(4 - k) * Fraction(1, k * (4 - k)) for k in range(2, 3))
           - sum(binomial(4, l) * B(l) * B(4 - l) * Fraction(1, l * (4 - l))
                 for l in range(2, 3)))
    rhs = Fraction(2, 4) * H(4) * B(4)
    assert lhs == rhs == Fraction(-5, 144)
    assert verify("1.1", 4).holds


def test_unweighted_convolution_at_4():
    lhs = (sum(6 * B(k) * B(4 - k) for k in range(2, 3))
           - sum(2 * binomial(6, l) * B(l) * B(4 - l) for l in range(2, 3)))
    rhs = Fraction(4 * 5) * B(4)
    assert lhs == rhs == Fraction(-2, 3)
    assert verify("1.3", 4).holds


def test_midpoint_chain_at_4():
    e1 = sum(bbar(k) / k * bbar(4 - k) for k in range(2, 3))
    e2 = Fraction(4, 2) * sum(bbar(k) * bbar(4 - k) * Fraction(1, k * (4 - k))
                              for k in range(2, 3))
    e3 = (sum(binomial(4, k) * B(k) / k * bbar(4 - k) for k in range(2, 5))
          + H(3) * bbar(4))
    assert e1 == e2 == e3 == Fraction(1, 288)
    assert verify("cor1.2", 4).holds


def test_diagonal_weighted_at_2():
    b1, b2 = bernoulli_poly(1), bernoulli_poly(2)
    lhs = b1 * b1 - 2 * Fraction(1, 4) * B(2) * bernoulli_poly(0)
    rhs = H(1) * b2  # (2/2) H_1 B_2(x)
    assert lhs == rhs == b2
    assert build_residual("1.6", 2).is_zero


def test_diagonal_unweighted_at_2():
    lhs = (2 * bernoulli_poly(0) * bernoulli_poly(2) + bernoulli_poly(1) ** 2
           - 2 * binomial(3, 3) * B(2) / 4)
    rhs = 3 * bernoulli_poly(2)
    assert lhs == rhs == Poly1([Fraction(1, 2), -3, 3])
    assert build_residual("1.7", 2).is_zero


def test_bivariate_instance_holds():
    assert verify("1.4", 5).holds
    assert verify("1.5", 4).holds
    assert verify("1.8", 3).holds


def test_negative_control_behaviour():
    assert verify("2.1-as-printed", 1).holds
    report = verify("2.1-as-printed", 2)
    assert report.holds is False
    assert str(report.residual) == "x*y - 1/2*x"


def test_beta_chu_instance():
    # (n, l, p, q) = (3, 1, 0, 1): 1/3 + 1/3 + 1/3 = 1 = beta(1, 1)
    total = sum(binomial(2, k - 1) * beta_int(k, 4 - k) for k in range(1, 4))
    assert total == 1 == beta_int(1, 1)
    assert verify("3.2", 3, l=1, p=0, q=1).holds


def test_gamma_beta_family_instance():
    report = verify("3.1", 2, p=0, q=0)
    assert report.holds
    assert build_residual("3.1", 2, p=0, q=0) == build_residual("1.6", 2)


# -- errors and domains -----------------------------------------------------------

def test_unknown_id_raises():
    with pytest.raises(UnknownIdentityError):
        verify("9.9", 4)


def test_out_of_domain_rejected():
    with pytest.raises(ValueError):
        build_residual("1.1", 3)
    with pytest.raises(ValueError):
        build_residual("3.2", 4, l=5, p=0, q=1)
    with pytest.raises(ValueError):
        build_residual("3.2", 4, l=1, p=0, q=0)


def test_missing_and_extraneous_parameters_rejected():
    with pytest.raises(ValueError):
        build_residual("chu", 4)  # l missing
    with pytest.raises(ValueError):
        build_residual("1.1", 4, p=1)  # takes no p


@pytest.mark.parametrize("key", catalog_ids())
def test_build_residual_takes_exactly_the_entry_parameters(key):
    # n_min + 2 with each row's least value is in the domain; without one of
    # those values, or with a parameter the entry does not take, it is not
    spec = catalog.CATALOG[key]
    n = spec.n_min + 2
    given = {name: least for name, least, _ in spec.params}
    builder_params = list(inspect.signature(spec.build).parameters)
    assert builder_params[1:len(given) + 1] == list(given)  # the rows in the builder's order
    assert spec.in_domain(n, **given)
    build_residual(key, n, **given)
    cases = [{k: v for k, v in given.items() if k != name} for name in given]
    cases += [{**given, name: 1} for name in ("l", "p", "q") if name not in given]
    assert cases
    for params in cases:
        assert not spec.in_domain(n, **params), params
        with pytest.raises(ValueError, match="out of domain"):
            build_residual(key, n, **params)


def test_catalog_ids_ordering():
    ids = catalog_ids()
    assert ids[0] == "1.1" and "2.1-as-printed" in ids and ids[-1] == "ds"
    assert "2.1-as-printed" not in catalog_ids(include_negative=False)


# -- equivalence chains --------------------------------------------------------

def test_scalar_convolutions_proportional():
    # the ordinary/binomial chain equals 2/n times the 1/k-weighted chain,
    # side by side, before either is compared to its right-hand side
    for n in range(4, 21):
        lhs_a = (sum(B(k) * B(n - k) * Fraction(1, k * (n - k)) for k in range(2, n - 1))
                 - sum(binomial(n, l) * B(l) * B(n - l) * Fraction(1, l * (n - l))
                       for l in range(2, n - 1)))
        lhs_b = (sum(B(k) / k * B(n - k) for k in range(2, n - 1))
                 - sum(binomial(n, l) * B(l) / l * B(n - l) for l in range(2, n - 1)))
        assert lhs_a == Fraction(2, n) * lhs_b
        assert build_residual("1.1", n) == 0
        assert build_residual("1.2", n) == 0


# sha256 of repr([(n, num, den), ...]) of each derived entry's residual under
# PERTURBED, stored as integers over a denominator, at n = n_min..12 and 30
DERIVED_RESIDUAL_SHA256 = {
    "1.4p": "66cb811f03569437010c0b146a089033dbb777f273987719a78ad24fcb62bb01",
    "2.3": "890e033585d619c5c6b84503c931f70c84bc1b0c187d7cd45f1f8284852c1c98",
    "2.4": "147b3b23c54279a81a4a3ba33df34214bf499b81cb9464c3941e8a69501890dc",
    "2.5": "3c1a266741f5709726e606aa92e9690bf91fb256d007396bbcd005fadb088ce1",
}


def test_derived_residuals_are_exact_maps_of_their_bases(monkeypatch):
    # R_1.4p = n R_1.4, and R_2.3, R_2.4, R_2.5 are R_1.4, R_1.8, R_1.9 at
    # (x + y, x), here by swap and substitution, for any input sequences; so
    # are R_1.1 = (2/n) R_1.2.  Under PERTURBED no residual is 0, so a wrong
    # factor, map or base cannot hide behind 0 = 0.
    for name in ("bernoulli_poly", "euler_poly", "harmonic", "bernoulli_number", "bbar"):
        monkeypatch.setattr(catalog, name, PERTURBED[name])
    shifted = lambda n, r: r.swap_xy().subst("y", X + Y)
    relations = {"1.4p": ("1.4", lambda n, r: n * r), "2.3": ("1.4", shifted),
                 "2.4": ("1.8", shifted), "2.5": ("1.9", shifted)}
    for key, (base, relation) in relations.items():
        stored = []
        for n in [*range(catalog.CATALOG[key].n_min, 13), 30]:
            residual = build_residual(key, n)
            assert not residual.is_zero and residual == relation(n, build_residual(base, n))
            stored.append((n, residual._num, residual._den))
        digest = hashlib.sha256(repr(stored).encode()).hexdigest()
        assert digest == DERIVED_RESIDUAL_SHA256[key], key
    for n in range(4, 25):
        r = build_residual("1.2", n)
        assert r != 0 and build_residual("1.1", n) == Fraction(2, n) * r


def test_one_sided_doubled_variant_fails_from_3():
    # Doubling the first sum instead of writing it out in both arguments
    # only works while sum_k B_k(x)/k B_{n-k}(y) is x<->y symmetric, which
    # stops at n = 3; the catalog builds 1.4p as n times 1.4, whose weight
    # 1/(k(n-k)) is symmetric.
    def one_sided(n: int) -> Poly2:
        s = Poly2.zero()
        for k in range(1, n):
            s += bern2(k, 1, 0) * bern2(n - k, 0, 1) * Fraction(2, k)
        bx, by = bern2(n, 1, 0), bern2(n, 0, 1)
        lhs = (X - Y) * (s - (bx + by) * H(n - 1)) - (bx - by)
        rhs = Poly2.zero()
        for l in range(1, n + 1):
            rhs += (bern2(l, 1, -1) * bern2(n - l, 0, 1)
                    + bern2(l, -1, 1) * bern2(n - l, 1, 0)) * (binomial(n, l) / l)
        return lhs - (X - Y) * rhs

    assert one_sided(2).is_zero
    assert not one_sided(3).is_zero
    assert build_residual("1.4p", 3).is_zero


def _groups_1_4(n: int):
    a = Poly2.zero()
    for k in range(1, n):
        a += bern2(k, 1, 0) * bern2(n - k, 0, 1) * Fraction(1, k * (n - k))
    l_sum = Poly2.zero()
    for l in range(1, n + 1):
        l_sum += (bern2(l, 1, -1) * bern2(n - l, 0, 1)
                  + bern2(l, -1, 1) * bern2(n - l, 1, 0)) * (binomial(n - 1, l - 1) / l**2)
    h_term = (bern2(n, 1, 0) + bern2(n, 0, 1)) * (H(n - 1) / n)
    dd = (bern2(n, 1, 0) - bern2(n, 0, 1)).div_xminusy() / n
    return a, l_sum, h_term, dd


def test_shifted_bernoulli_form_matches_base_groupwise():
    # substituting x+y for y in each term group of 1.4 gives the
    # corresponding group of 2.3 exactly
    for n in (3, 6):
        a, l_sum, h_term, dd = _groups_1_4(n)
        a_shift = Poly2.zero()
        for k in range(1, n):
            a_shift += bern2(k, 1, 1) * bern2(n - k, 1, 0) * Fraction(1, k * (n - k))
        assert a.subst("y", X + Y) == a_shift
        l_shift = Poly2.zero()
        for l in range(1, n + 1):
            l_shift += (bern2(l, 0, 1) * bern2(n - l, 1, 0)
                        + bern2(l, 0, -1) * bern2(n - l, 1, 1)) * (binomial(n - 1, l - 1) / l**2)
        assert l_sum.subst("y", X + Y) == l_shift
        h_shift = (bern2(n, 1, 1) + bern2(n, 1, 0)) * (H(n - 1) / n)
        assert h_term.subst("y", X + Y) == h_shift
        # divided difference: denominator x - y becomes -y, so after
        # clearing by y the substituted quotient is (B_n(x+y) - B_n(x))/n
        assert dd.subst("y", X + Y) * Y == (bern2(n, 1, 1) - bern2(n, 1, 0)) / n
        assert build_residual("2.3", n).is_zero


def test_shifted_euler_form_matches_base_groupwise():
    # y -> x+y takes each group of 1.8 to the corresponding group of 2.4
    for n in (2, 4):
        conv = Poly2.zero()
        for k in range(0, n + 1):
            conv += eul2(k, 1, 0) * eul2(n - k, 0, 1)
        conv_shift = Poly2.zero()
        for k in range(0, n + 1):
            conv_shift += eul2(k, 1, 1) * eul2(n - k, 1, 0)
        assert conv.subst("y", X + Y) == conv_shift

        dd = (bern2(n + 2, 1, 0) - bern2(n + 2, 0, 1)).div_xminusy() * Fraction(4, n + 2)
        assert dd.subst("y", X + Y) * Y == (bern2(n + 2, 1, 1) - bern2(n + 2, 1, 0)) * Fraction(4, n + 2)

        r = Poly2.zero()
        r_shift = Poly2.zero()
        for l in range(0, n + 2):
            w = binomial(n + 1, l) / (l + 1)
            r += (eul2(l, 1, -1) * bern2(n + 1 - l, 0, 1)
                  + eul2(l, -1, 1) * bern2(n + 1 - l, 1, 0)) * w
            r_shift += (eul2(l, 0, 1) * bern2(n + 1 - l, 1, 0)
                        + eul2(l, 0, -1) * bern2(n + 1 - l, 1, 1)) * w
        assert r.subst("y", X + Y) == r_shift
        assert build_residual("2.4", n).is_zero


def test_relabeled_mixed_form_matches_base_groupwise():
    # (x, y) -> (x+y, x) takes each group of 1.9 to the matching group of 2.5
    def relabel(p: Poly2) -> Poly2:
        return p.swap_xy().subst("y", X + Y)

    for n in (2, 4):
        a = Poly2.zero()
        a_target = Poly2.zero()
        for k in range(1, n + 1):
            a += bern2(k, 1, 0) * eul2(n - k, 0, 1) * Fraction(1, k)
            a_target += bern2(k, 1, 1) * eul2(n - k, 1, 0) * Fraction(1, k)
        assert relabel(a) == a_target

        assert relabel(eul2(n, 0, 1) * H(n)) == eul2(n, 1, 0) * H(n)

        dd = (eul2(n, 1, 0) - eul2(n, 0, 1)).div_xminusy()
        assert relabel(dd) * Y == eul2(n, 1, 1) - eul2(n, 1, 0)

        r = Poly2.zero()
        r_target = Poly2.zero()
        for l in range(1, n + 1):
            w = binomial(n, l)
            r += (bern2(l, 1, -1) * eul2(n - l, 0, 1) / l
                  - eul2(l - 1, -1, 1) * eul2(n - l, 1, 0) / 2) * w
            r_target += (bern2(l, 0, 1) * eul2(n - l, 1, 0) / l
                         - eul2(l - 1, 0, -1) * eul2(n - l, 1, 1) / 2) * w
        assert relabel(r) == r_target
        assert build_residual("2.5", n).is_zero


def test_bivariate_term_groups_are_symmetric():
    # every term group of 1.4 is invariant under exchanging the variables,
    # as is the exact quotient (B_{n+2}(x) - B_{n+2}(y))/(x - y) from 1.5
    for n in (3, 6):
        for g in _groups_1_4(n):
            assert g.swap_xy() == g
        q = (bern2(n + 2, 1, 0) - bern2(n + 2, 0, 1)).div_xminusy()
        assert q.swap_xy() == q
        core = Poly2.zero()
        for k in range(0, n + 1):
            core += bern2(k, 1, 0) * bern2(n - k, 0, 1)
        assert core.swap_xy() == core


def _embedding_route(groups: list) -> Poly2:
    """The sum of Poly2.sheared groups by Poly2.lincomb over the embeddings
    f(L1) and g(L2), each group's sum times its pole as a Poly2 power."""
    total = Poly2.zero()
    for key, terms, *pole in groups:
        k, = pole or [0]
        pairs = key if isinstance(key[0][0], tuple) else (key,)
        total += (X - Y) ** k * Poly2.lincomb(
            [(Fraction(*w) if isinstance(w, tuple) else w, f.compose_xy(*l1), g.compose_xy(*l2))
             for l1, l2 in pairs for w, f, g in terms])
    return total


def test_bivariate_builders_match_the_embedding_route(monkeypatch):
    # each bivariate build is one Poly2.sheared call and no Poly2.lincomb call
    # before it, and that call equals the embedding route with its poles
    # applied; the residual is its result, or a derived entry's map of it; with
    # the sequences perturbed every residual is nonzero, so a wrong pole power,
    # sign or side cannot hide behind 0 = 0
    kernel, lincomb = Poly2.sheared.__func__, Poly2.lincomb.__func__
    sheared_calls, lincomb_calls, in_oracle = [], [], []

    def checked(cls, groups, minus=()):
        groups, minus = ([(key, list(terms), *pole) for key, terms, *pole in side]
                         for side in (groups, minus))
        result = kernel(cls, groups, minus)
        in_oracle.append(True)
        try:
            assert result == _embedding_route(groups) - _embedding_route(minus)
        finally:
            in_oracle.pop()
        sheared_calls.append(result)
        return result

    def counted(cls, terms):
        if not in_oracle:
            lincomb_calls.append(len(sheared_calls))
        return lincomb(cls, terms)

    def sweep(perturbed: bool) -> None:
        for key in bivariate:
            derive = catalog.CATALOG[key].derive
            for n in range(catalog.CATALOG[key].n_min, 11):
                before = len(sheared_calls)
                residual = build_residual(key, n)
                built = sheared_calls[before]
                assert all(sheared_done > before for sheared_done in lincomb_calls)
                if derive is None:
                    assert len(sheared_calls) == before + 1 and not lincomb_calls
                    assert residual is built
                else:
                    assert residual == derive(n, built)
                lincomb_calls.clear()
                holds = not perturbed and (key != "2.1-as-printed" or n == 1)
                assert residual.is_zero is holds

    monkeypatch.setattr(Poly2, "sheared", classmethod(checked))
    monkeypatch.setattr(Poly2, "lincomb", classmethod(counted))
    bivariate = [key for key, spec in catalog.CATALOG.items() if spec.arity == "bivariate"]
    assert "2.1-as-printed" in bivariate and len(bivariate) == 12
    sweep(perturbed=False)
    memos = b, e, h = catalog.bernoulli_poly, catalog.euler_poly, catalog.harmonic
    for memo in memos:
        memo.cache_clear()
    try:
        with monkeypatch.context() as patch:
            for module in (catalog, operators):
                patch.setattr(module, "bernoulli_poly",
                              lambda k: b(k) + Poly1.monomial(k % 3, Fraction(k + 1, 7)))
                patch.setattr(module, "euler_poly",
                              lambda k: e(k) - Poly1.monomial((k + 1) % 4, Fraction(2 * k + 1, 5)))
                patch.setattr(module, "harmonic", lambda n: h(n) + Fraction(1, n + 3))
            sweep(perturbed=True)
    finally:
        for memo in memos:
            memo.cache_clear()


def _default_instances(spec, n_max: int):
    """(n, {name: value}) for n from n_min to n_max, each parameter the entry
    takes over its row's default range least..last (last None being n), as
    verify_sweep runs them when given no range."""
    names = [name for name, _, _ in spec.params]
    for n in range(spec.n_min, n_max + 1):
        ranges = [range(least, (n if last is None else last) + 1)
                  for _, least, last in spec.params]
        for values in product(*ranges):
            yield n, dict(zip(names, values))


def test_default_instances_are_the_points_of_a_default_sweep():
    for key, spec in catalog.CATALOG.items():
        reports = verify_sweep([key], range(spec.n_min, 7))
        points = [(r.n, {name: getattr(r, name) for name in ("l", "p", "q")
                         if getattr(r, name) is not None}) for r in reports]
        assert points == list(_default_instances(spec, 6)), key
        assert not any(r.skipped for r in reports), key


def test_builders_return_sides_whose_difference_is_the_residual(monkeypatch):
    # every builder returns (LHS, RHS) in its arity's data form; each side
    # reduced alone by its kernel, their difference is build_residual's one
    # kernel call, or for a derived entry its map of it, also with the
    # sequences perturbed, where a right side whose weights were negated
    # twice, or not at all, cannot hide behind 0 = 0
    kernels = {"scalar": frac_sum, "univariate": Poly1.lincomb, "bivariate": Poly2.sheared}

    def sweep() -> set:
        unequal = set()
        for key, spec in catalog.CATALOG.items():
            for n, params in _default_instances(spec, 8):
                sides = spec.build(n, *params.values())
                assert type(sides) is tuple and len(sides) == 2, (key, n, params)
                lhs, rhs = map(kernels[spec.arity], sides)
                residual = lhs - rhs if spec.derive is None else spec.derive(n, lhs - rhs)
                assert residual == build_residual(key, n, **params), (key, n, params)
                if lhs != rhs:
                    unequal.add(key)
                if key == "2.1-as-printed" and n >= 2:
                    assert lhs != rhs, n
        return unequal

    assert sweep() == {"2.1-as-printed"}
    for name in ("bernoulli_poly", "euler_poly", "harmonic"):
        monkeypatch.setattr(operators, name, PERTURBED[name])
    for name, wrong in PERTURBED.items():
        monkeypatch.setattr(catalog, name, wrong)
    # chu and 3.2 read no sequence
    assert sweep() == set(catalog.CATALOG) - {"chu", "3.2"}


# the Bernoulli factors B_l and Bbar_k of each term of a builder's literal
# ranges, per side and in order, given the two sequences; () for a term
# without one
BERNOULLI_FACTORS = {
    "1.1": lambda n, B, Bb: ([(B(k), B(n - k)) for k in range(2, n - 1)], [(B(n),)]),
    "1.2": lambda n, B, Bb: ([(B(k), B(n - k)) for k in range(2, n - 1)], [(B(n),)]),
    "1.3": lambda n, B, Bb: ([(B(k), B(n - k)) for k in range(2, n - 1)], [(B(n),)]),
    "cor1.2": lambda n, B, Bb: ([(Bb(k), Bb(n - k)) for k in range(2, n - 1)],
                                [(Bb(n),), *[(B(k), Bb(n - k)) for k in range(2, n + 1)]]),
    "1.6": lambda n, B, Bb: ([()] * (n - 1) + [(B(l),) for l in range(2, n + 1)], [()]),
    "1.7": lambda n, B, Bb: ([()] * (n + 1) + [(B(l),) for l in range(2, n + 1)], [()]),
    "1.11": lambda n, B, Bb: ([()] * (n + 1), [(B(l),) for l in range(2, n + 3)]),
    "1.12": lambda n, B, Bb: ([()] * n + [(B(l),) for l in range(2, n + 1)], [()]),
    "1.13": lambda n, B, Bb: ([()] * (n + 1) + [(B(l),) for l in range(2, n + 1)], [()]),
    "3.1": lambda n, B, Bb: ([()] * (n - 1), [(B(l),) for l in range(2, n + 1)] + [(), ()]),
}


def test_builders_leave_out_exactly_the_zero_weight_terms(monkeypatch):
    # every builder with a factor B_l or Bbar_k drops each term whose factor is
    # zero, and only those: with the true sequences each side has one term per
    # literal term whose factors are nonzero, and no such term's weight is 0; under
    # PERTURBED, where no B_l or Bbar_k is zero, each side holds every term of
    # its literal range, so a builder that skips odd l by parity fails here
    def weight_num(arity: str, term: tuple) -> int:
        w = term if arity == "scalar" else term[0]  # a pair (num, den), an int or a pair
        return w[0] if type(w) is tuple else w

    def dropped(B, Bb) -> int:
        """The literal terms with a zero factor, once each builder is checked."""
        count = 0
        for key, factors in BERNOULLI_FACTORS.items():
            spec = catalog.CATALOG[key]
            for n, params in _default_instances(spec, 16):
                for side, literal in zip(spec.build(n, *params.values()), factors(n, B, Bb)):
                    kept = [f for f in literal if all(f)]
                    assert len(side) == len(kept), (key, n, params)
                    assert all(weight_num(spec.arity, term)
                               for term, f in zip(side, kept) if f), (key, n, params)
                    count += len(literal) - len(kept)
        return count

    assert len(BERNOULLI_FACTORS) == 10
    assert dropped(B, bbar) > 0
    wrong_b, wrong_bbar = PERTURBED["bernoulli_number"], PERTURBED["bbar"]
    assert all(wrong_b(k) and wrong_bbar(k) for k in range(40))
    monkeypatch.setattr(catalog, "bernoulli_number", wrong_b)
    monkeypatch.setattr(catalog, "bbar", wrong_bbar)
    assert dropped(wrong_b, wrong_bbar) == 0


def test_univariate_zero_test_agrees_with_the_expansion(monkeypatch):
    # build_residual tests a univariate residual for zero by Poly1.vanishes,
    # one evaluation at a power of two, and expands it by Poly1.lincomb only
    # when it is not zero; the expansion is the cross-check: on every
    # univariate instance of the default sweep to n = 14 both say zero, and
    # with the sequences perturbed both say nonzero
    univariate = [spec for spec in catalog.CATALOG.values() if spec.arity == "univariate"]
    assert len(univariate) == 6

    def verdicts() -> list[bool]:
        out = []
        for spec in univariate:
            for n, params in _default_instances(spec, 14):
                lhs, rhs = spec.build(n, *params.values())
                zero = Poly1.vanishes(lhs, rhs)
                assert zero is Poly1.lincomb(lhs, rhs).is_zero, (spec.key, n, params)
                assert zero is build_residual(spec.key, n, **params).is_zero
                out.append(zero)
        return out

    assert all(verdicts())
    for name, wrong in PERTURBED.items():
        monkeypatch.setattr(catalog, name, wrong)
    assert not any(verdicts())


# the sizes of the "CLI end to end" runs in .github/workflows/tests.yml that
# prove 1.6, 1.7, 1.11, 1.12, 1.13 and 3.1 at n = 40..60 and the bivariate ids
# at n = 26..40, past every other check that can fail; the two move together
CI_UNIVARIATE_N, CI_BIVARIATE_N = range(40, 61), range(26, 41)


def test_kernels_can_say_nonzero_at_the_sizes_ci_proves(monkeypatch):
    # with the sequences perturbed, every instance below is nonzero, so a
    # kernel that says "zero" from some size on fails here and not only in CI:
    # Poly1.vanishes on sums of up to about 120 merged products, against the
    # expansion, and Poly2.sheared on the grids under 1.5's (x - y)^3 and
    # 1.10's (x - y)^2, against the embedding route
    for name, wrong in PERTURBED.items():
        monkeypatch.setattr(catalog, name, wrong)
    for key, params in (("1.6", ()), ("1.7", ()), ("1.11", ()), ("1.12", ()), ("1.13", ()),
                        ("3.1", (0, 0)), ("3.1", (1, 1))):
        for n in CI_UNIVARIATE_N:
            lhs, rhs = catalog.CATALOG[key].build(n, *params)
            assert not Poly1.vanishes(lhs, rhs), (key, n, params)
            assert not Poly1.lincomb(lhs, rhs).is_zero, (key, n, params)
    for key in ("1.5", "1.10"):
        for n in CI_BIVARIATE_N:
            lhs, rhs = catalog.CATALOG[key].build(n)
            result = Poly2.sheared(lhs, rhs)
            assert not result.is_zero, (key, n)
            assert result == _embedding_route(lhs) - _embedding_route(rhs), (key, n)


def test_embedding_memos_still_answer_cache_info():
    # perfbench/spans.py snapshot() reads these two memos' cache_info();
    # they may go only together with that read (ROADMAP item 1)
    for memo in (catalog._bern2, catalog._eul2):
        assert memo.cache_info().maxsize is None


# -- specializations -------------------------------------------------------------

def test_rearranged_scalar_form_of_diagonal():
    # the x = 0 slice of 1.6, rearranged to extended-range sums
    for n in range(4, 21):
        lhs = sum(B(k) * B(n - k) * Fraction(1, k * (n - k)) for k in range(1, n))
        rhs = (sum(binomial(n, l) * B(l) * B(n - l) * Fraction(1, l * (n - l))
                   for l in range(1, n))
               + Fraction(2, n) * H(n) * B(n) + B(n - 1))
        assert lhs == rhs
        assert build_residual("1.6", n)(0) == 0


def test_diagonal_at_zero_matches_scalar_identities():
    for n in range(4, 21):
        assert build_residual("1.7", n)(0) == build_residual("1.3", n) == 0
        assert build_residual("1.6", n)(0) == build_residual("1.1", n) == 0


def test_diagonal_at_midpoint_matches_chain():
    half = Fraction(1, 2)
    for n in range(4, 21):
        assert build_residual("1.6", n)(half) == build_residual("cor1.2", n) == 0


def test_gamma_beta_slices():
    for n in range(2, 16):
        assert build_residual("3.1", n, p=0, q=0) == build_residual("1.6", n)
        assert build_residual("3.1", n, p=1, q=1) == build_residual("1.7", n)
        # the slice weights themselves
        assert h_pq(n, 0, 0) == H(n - 1)
        assert h_pq(n, 1, 1) == Fraction(1, 2) - Fraction(1, n + 1)


def _ds_sides(n: int, p: int) -> tuple[Fraction, Fraction]:
    def g(m: int) -> int:
        return factorial(m - 1)

    lhs = Fraction(0)
    for k in range(1, n):
        lhs += Fraction(
            B(2 * k) * B(2 * n - 2 * k) * g(2 * k + p) * g(2 * n - 2 * k + p),
            1,
        ) / (8 * k * (n - k) * g(2 * k) * g(2 * n - 2 * k))
    lhs /= g(2 * n + 2 * p)
    rhs = Fraction(0)
    for k in range(1, n + 1):
        rhs += (B(2 * k) * B(2 * n - 2 * k) * g(2 * k + p)
                / (factorial(2 * k) * factorial(2 * n - 2 * k) * g(2 * k + 2 * p + 1)))
    rhs *= g(p + 1)
    rhs += B(2 * n) / factorial(2 * n) * h_pq(2 * n, p, p)
    return lhs, rhs


def _gamma_beta_sides_at_zero(n: int, p: int, q: int) -> tuple[Fraction, Fraction]:
    lhs = Fraction(0)
    for k in range(1, n):
        lhs += (B(k) * B(n - k) * gamma_ratio(k, p) * gamma_ratio(n - k, q)
                * Fraction(1, k * (n - k)))
    lhs /= gamma_ratio(n, p + q)
    rhs = Fraction(0)
    for l in range(2, n + 1):
        rhs += (binomial(n - 1, l - 1) * B(l) / l * B(n - l)
                * (beta_int(l + p, q + 1) + beta_int(l + q, p + 1)))
    rhs += B(n) / n * (h_pq(n, p, q) + h_pq(n, q, p))
    return lhs, rhs


def test_even_index_family_is_slice_of_gamma_beta_family():
    # both sides of ds equal the x = 0, q = p sides of 3.1 with the index
    # doubled, divided by 2 Gamma(2n)
    for n in range(2, 7):
        for p in range(0, 4):
            dl, dr = _ds_sides(n, p)
            tl, tr = _gamma_beta_sides_at_zero(2 * n, p, p)
            scale = Fraction(1, 2 * factorial(2 * n - 1))
            assert dl == tl * scale
            assert dr == tr * scale
            assert verify("ds", n, p=p).holds


def test_gamma_beta_weights_match_direct_transcription():
    # the shared-denominator weights of 3.1, the integer sums of h_pq and
    # 3.2 against the gamma_ratio/beta_int form in which the paper states them
    for n in range(2, 26):
        for p in range(5):
            for q in range(5):
                assert h_pq(n, p, q) == sum(beta_int(k + q, p + 1) for k in range(1, n))
                g = gamma_ratio(n, p + q)
                for k in range(1, n):
                    direct = (gamma_ratio(k, p) * gamma_ratio(n - k, q)
                              * Fraction(1, k * (n - k)) / g)
                    assert Fraction(*catalog._w_3_1_lhs(n, k, p, q)) == direct
                for l in range(2, n + 1):
                    direct = (binomial(n - 1, l - 1) * B(l) / l
                              * (beta_int(l + p, q + 1) + beta_int(l + q, p + 1)))
                    assert Fraction(*catalog._w_3_1_rhs(n, l, p, q)) == direct
    for n in range(1, 26):
        for l in range(1, n + 1):
            for p in range(5):
                for q in range(1, 5):
                    direct = sum(binomial(n - l, k - l) * beta_int(k + p, n - k + q)
                                 for k in range(l, n + 1))
                    assert Fraction(*catalog._sum_3_2(n, l, p, q)) == direct


# -- integer sums against the Fraction transcriptions ------------------------------
#
# The Fraction-chain transcriptions of the scalar identities and of the
# univariate weights are the reference for the integer pairs and single-Rat
# weights the catalog builds.  Both read B_k, H_n, Bbar_k and h_pq through the
# catalog module, which the test perturbs, so the residuals are nonzero and a
# dropped or wrong factor anywhere changes them.

def _ref_1_1(n: int) -> Fraction:
    b = catalog.bernoulli_number
    lhs = Fraction(0)
    for k in range(2, n - 1):
        lhs += b(k) * b(n - k) * Fraction(1, k * (n - k))
    for l in range(2, n - 1):
        lhs -= binomial(n, l) * b(l) * b(n - l) * Fraction(1, l * (n - l))
    return lhs - Fraction(2, n) * catalog.harmonic(n) * b(n)


def _ref_1_2(n: int) -> Fraction:
    b = catalog.bernoulli_number
    lhs = Fraction(0)
    for k in range(2, n - 1):
        lhs += b(k) / k * b(n - k)
    for l in range(2, n - 1):
        lhs -= binomial(n, l) * b(l) / l * b(n - l)
    return lhs - catalog.harmonic(n) * b(n)


def _ref_1_3(n: int) -> Fraction:
    b = catalog.bernoulli_number
    lhs = Fraction(0)
    for k in range(2, n - 1):
        lhs += (n + 2) * b(k) * b(n - k)
    for l in range(2, n - 1):
        lhs -= 2 * binomial(n + 2, l) * b(l) * b(n - l)
    return lhs - Fraction(n * (n + 1)) * b(n)


def _ref_cor_1_2(n: int) -> Fraction:
    bb = catalog.bbar
    e1 = Fraction(0)
    e2 = Fraction(0)
    for k in range(2, n - 1):
        e1 += bb(k) / k * bb(n - k)
        e2 += bb(k) * bb(n - k) * Fraction(1, k * (n - k))
    e2 *= Fraction(n, 2)
    e3 = catalog.harmonic(n - 1) * bb(n)
    for k in range(2, n + 1):
        e3 += binomial(n, k) * catalog.bernoulli_number(k) / k * bb(n - k)
    first = e1 - e2
    return first if first else e2 - e3


def _ref_ds(n: int, p: int) -> Fraction:
    b = catalog.bernoulli_number

    def g(m: int) -> int:
        return factorial(m - 1)

    lhs = Fraction(0)
    for k in range(1, n):
        num = b(2 * k) * b(2 * n - 2 * k) * g(2 * k + p) * g(2 * n - 2 * k + p)
        lhs += Fraction(num, 8 * k * (n - k) * g(2 * k) * g(2 * n - 2 * k))
    lhs /= g(2 * n + 2 * p)
    rhs = Fraction(0)
    for k in range(1, n + 1):
        rhs += (b(2 * k) * b(2 * n - 2 * k) * g(2 * k + p)
                / (factorial(2 * k) * factorial(2 * n - 2 * k) * g(2 * k + 2 * p + 1)))
    rhs *= g(p + 1)
    rhs += b(2 * n) / factorial(2 * n) * catalog.h_pq(2 * n, p, p)
    return lhs - rhs


def _ref_1_6(n: int) -> Poly1:
    b = bernoulli_poly
    terms = [(Fraction(1, k * (n - k)), b(k), b(n - k)) for k in range(1, n)]
    terms += [(-2 * binomial(n - 1, l - 1) * catalog.bernoulli_number(l) / (l * l), b(n - l))
              for l in range(2, n + 1)]
    terms.append((-2 * catalog.harmonic(n - 1) / n, b(n)))
    return Poly1.lincomb(terms)


def _ref_1_7(n: int) -> Poly1:
    b = bernoulli_poly
    terms = [(1, b(k), b(n - k)) for k in range(0, n + 1)]
    terms += [(-2 * binomial(n + 1, l + 1) * catalog.bernoulli_number(l) / (l + 2), b(n - l))
              for l in range(2, n + 1)]
    terms.append((-(n + 1), b(n)))
    return Poly1.lincomb(terms)


def _ref_1_11(n: int) -> Poly1:
    e = euler_poly
    terms = [(n + 2, e(k), e(n - k)) for k in range(0, n + 1)]
    terms += [(-8 * binomial(n + 2, l) * (2 ** l - 1) * catalog.bernoulli_number(l) / l,
               bernoulli_poly(n + 2 - l)) for l in range(2, n + 3)]
    return Poly1.lincomb(terms)


def _ref_1_12(n: int) -> Poly1:
    b, e = bernoulli_poly, euler_poly
    terms = [(Fraction(1, k), b(k), e(n - k)) for k in range(1, n + 1)]
    terms += [(-binomial(n, l) * 2 ** l * catalog.bernoulli_number(l) / l, e(n - l))
              for l in range(2, n + 1)]
    terms.append((-catalog.harmonic(n), e(n)))
    return Poly1.lincomb(terms)


def _ref_1_13(n: int) -> Poly1:
    b, e = bernoulli_poly, euler_poly
    terms = [(1, b(k), e(n - k)) for k in range(0, n + 1)]
    terms += [(-binomial(n + 1, l + 1) * (2 ** l + l - 1) * catalog.bernoulli_number(l) / l,
               e(n - l)) for l in range(2, n + 1)]
    terms.append((-(n + 1), e(n)))
    return Poly1.lincomb(terms)


def _ref_3_1(n: int, p: int, q: int) -> Poly1:
    b = bernoulli_poly
    terms = [(Fraction(*catalog._w_3_1_lhs(n, k, p, q)), b(k), b(n - k)) for k in range(1, n)]
    terms += [(-Fraction(*catalog._w_3_1_rhs(n, l, p, q)), b(n - l)) for l in range(2, n + 1)]
    terms.append((-(catalog.h_pq(n, p, q) + catalog.h_pq(n, q, p)) / n, b(n)))
    return Poly1.lincomb(terms)


def test_integer_builders_match_fraction_transcriptions(monkeypatch):
    monkeypatch.setattr(catalog, "bernoulli_number", lambda k: B(k) + Fraction(1, k + 3))
    monkeypatch.setattr(catalog, "harmonic", lambda n: H(n) + Fraction(2, 3 * n + 1))
    monkeypatch.setattr(catalog, "bbar", lambda k: bbar(k) - Fraction(k, 5))
    monkeypatch.setattr(catalog, "h_pq", lambda n, p, q: h_pq(n, p, q) + Fraction(p + 1, n + q + 2))
    cases = [(key, n, {}, ref) for key, ref in (("1.1", _ref_1_1), ("1.2", _ref_1_2),
                                                ("1.3", _ref_1_3), ("cor1.2", _ref_cor_1_2),
                                                ("1.6", _ref_1_6), ("1.7", _ref_1_7),
                                                ("1.11", _ref_1_11), ("1.12", _ref_1_12),
                                                ("1.13", _ref_1_13))
             for n in range(catalog.CATALOG[key].n_min, 31)]
    cases += [("ds", n, {"p": p}, _ref_ds) for n in range(2, 31) for p in range(5)]
    cases += [("3.1", n, {"p": p, "q": q}, _ref_3_1)
              for n in range(2, 31) for p, q in ((0, 0), (2, 1))]
    nonzero = 0
    for key, n, params, ref in cases:
        residual = build_residual(key, n, **params)
        assert residual == ref(n, **params), (key, n, params)
        nonzero += residual != 0
    assert nonzero >= 0.95 * len(cases)


# -- the negative control and a one-sided variant -----------------------------------

# sha256 of the 2.1-as-printed residual strings; a builder rewrite that
# changes a failing residual changes its digest.  n = 2..12 must match the
# digests the benchmark recorded in perfbench/golden.json.
NEGATIVE_RESIDUAL_SHA256 = {
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "c812de263f5e8514ae728fb36942067338122d6c953a10993d68dc85af98f7fb",
    3: "30e7956d63be4c79fea6092395f93f617cf3e2e5c0beee95a7aa258b2fb1c895",
    4: "8e75705a5e83429d522d39d246bf33d71d3f3394c660e0793c650fde7f44dd23",
    5: "a397227fdad777b6d3a7cd1c03f6541f68fb51edaffd5fdc85bead8acb0e33e1",
    6: "97036894ac9b4e22358215fa71a7fcf0fe5ba7b9089a61b63f96b9d06e89e20a",
    7: "07cdf8ed53517b9cf9fa6ee9afae8e703526f522d479901a4e209830898454ef",
    8: "63e5377d66236653ed0d5b1e719bcc18826cce2c4ddc44c0e2da39b36d9ed085",
    9: "cba359df8c486b35a4bf32251f458661b1835d0313c7409bb5fea1ba1c8294d1",
    10: "187e76644c813a0ba7611a84772d9dad978fa5896888bcf20317843ace919a67",
    11: "384196a53e7bfdf7c0ab4dcf5acd51d77051d17bc68807e4e209e563d2e5adb5",
    12: "e44e4852df39bc2fe223442f44e0d00b4d7baa883c434018afda48ce536ef4ba",
    13: "07356b444bec9ad317c3b4d9d02b54d0853902d4ffbd7109e4861da2193069a9",
    14: "6d4e4c748b0720321d4a17c8bae015b048bb2ef6704cd3948008f7fbea694dcb",
    15: "635ead15a167557d99715aaa50600867b51963a07ac1d0c4318c0dd0c34c4ed6",
    16: "17b0cfbb3a6c962003a70de43301b9afa03d72a7715db454a384e960604f0dbd",
    17: "40e5d33d919319ed69eb53a7a33fb7c62417d69a493abd71596044326cff6697",
    18: "64266f89f622f2342697e1a50e780ebca964b41f8dbd76aa44e5b36ee6144c54",
    19: "fd6aca8b9adb0d8496f5ee3df10c9bab98675378c46f97fd4c0def0867ebe8d2",
    20: "a9f4f4a3b99dfcb70d3750ffedc92e441213c456d3566a969c5c199e53f82a79",
}


def test_negative_control_residuals_are_pinned():
    for n, digest in NEGATIVE_RESIDUAL_SHA256.items():
        report = verify("2.1-as-printed", n)
        assert report.holds is (n == 1)
        assert hashlib.sha256(report.residual_str().encode()).hexdigest() == digest
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    recorded = {int(key.rsplit("=", 1)[1]): digest
                for key, digest in golden["residual_sha256"].items()
                if key.startswith("2.1-as-printed n=")}
    assert set(recorded) == set(range(2, 13))
    assert all(NEGATIVE_RESIDUAL_SHA256[n] == digest for n, digest in recorded.items())


def _r_1_4p_one_sided(n: int) -> Poly2:
    # 1.4p with the swapped half B_k(y) B_{n-k}(x) of the symmetric sum dropped
    h = harmonic(n - 1)
    terms = [(Fraction(1, k), bern2(k, 1, 0), bern2(n - k, 0, 1)) for k in range(1, n)]
    terms += [(-h, bern2(n, 1, 0)), (-h, bern2(n, 0, 1))]
    for l in range(1, n + 1):
        w = -binomial(n, l) / l
        terms += [(w, bern2(l, 1, -1), bern2(n - l, 0, 1)),
                  (w, bern2(l, -1, 1), bern2(n - l, 1, 0))]
    return Poly2.lincomb([(1, X - Y, Poly2.lincomb(terms)),
                          (-1, bern2(n, 1, 0)), (1, bern2(n, 0, 1))])


def test_symmetric_sum_of_1_4p_is_needed():
    assert build_residual("1.4p", 3).is_zero
    assert not _r_1_4p_one_sided(3).is_zero


# -- sweep machinery ---------------------------------------------------------------

def test_sweep_is_deterministic_and_marks_skips():
    first = verify_sweep(["1.1", "chu"], range(3, 6))
    second = verify_sweep(["1.1", "chu"], range(3, 6))
    as_rows = lambda rs: [(r.key, r.n, r.l, r.p, r.q, r.skipped, r.holds) for r in rs]
    assert as_rows(first) == as_rows(second)
    # n = 3 is below the 1.1 lower bound: skip marker, not an error
    assert as_rows(first)[0] == ("1.1", 3, None, None, None, True, None)
    # chu expands l over 1..n in order
    chu_rows = [(r.n, r.l) for r in first if r.key == "chu" and not r.skipped]
    assert chu_rows == [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4),
                        (5, 1), (5, 2), (5, 3), (5, 4), (5, 5)]
    assert all(r.holds for r in first if not r.skipped)


def test_sweep_skips_out_of_domain_parameters():
    reports = verify_sweep(["3.2"], [3], p_range=[0], q_range=[0, 1])
    skipped = [r for r in reports if r.skipped]
    checked = [r for r in reports if not r.skipped]
    assert len(skipped) == 3 and all(r.q == 0 for r in skipped)
    assert len(checked) == 3 and all(r.holds for r in checked)


def test_sweep_ranges_follow_the_parameter_rows():
    # an empty p range leaves no point; ds at p = 7, past its default range
    # 0..4, is checked, not skipped; a range for a parameter the id does not
    # take is ignored, so the sweep is the one without it
    assert verify_sweep(["3.1"], range(2, 6), p_range=[]) == []
    [report] = verify_sweep(["ds"], [3], p_range=[7], q_range=[9])
    assert (report.p, report.q, report.skipped, report.holds) == (7, None, False, True)
    for key in ("1.1", "chu", "1.4"):
        given = verify_sweep([key], range(3, 6), p_range=[1, 2], q_range=[0])
        plain = verify_sweep([key], range(3, 6))
        for r in given + plain:
            r.elapsed = 0.0
        assert given == plain and all(r.p is None and r.q is None for r in given), key
    # below n_min an id gives one skip-marked report with no parameter
    keys = ["chu", "3.1", "3.2", "ds", "1.1"]
    below = verify_sweep(keys, [0], p_range=[1], q_range=[1])
    assert [(r.key, r.params_str(), r.skipped) for r in below] == [(k, "n=0", True) for k in keys]


def test_report_fields():
    report = verify("3.1", 4, p=2, q=1)
    assert (report.key, report.n, report.l, report.p, report.q) == ("3.1", 4, None, 2, 1)
    assert report.holds is True
    assert report.residual is None
    assert report.elapsed >= 0
    assert report.residual_str() == "0"
    assert report.params_str() == "n=4 p=2 q=1"


def test_each_pole_text_is_the_power_its_builder_clears():
    # pole is free text that the catalog demo prints; for each bivariate entry
    # the power of (x-y) in it is the largest pole k among its build's groups,
    # "y" (x - y at (x + y, x)) is 1 for the entries derived by _shifted, and
    # "none" is 0; every other entry has no pole
    for key, spec in catalog.CATALOG.items():
        if spec.arity != "bivariate":
            assert spec.pole == "none", key
            continue
        lhs, rhs = spec.build(spec.n_min + 2)
        top = max(pole[0] if pole else 0 for _, _, *pole in [*lhs, *rhs])
        if spec.pole == "y":
            assert spec.derive is catalog._shifted and top == 1, key
        elif spec.pole == "none":
            assert top == 0, key
        else:
            power = re.search(r"\(x-y\)(?:\^(\d+))?$", spec.pole)
            assert power and int(power.group(1) or 1) == top, key


def test_identity_spec_record_behaviour():
    spec = catalog.CATALOG["3.2"]
    values = ("3.2", "scalar", 1, spec.build, "beta-weighted extension of chu; q >= 1",
              "none", (("l", 1, None), ("p", 0, 4), ("q", 1, 4)), False, None)
    assert catalog.IdentitySpec(*values) == spec
    assert hash(spec) == hash(values)  # the frozen dataclass hashed its field tuple
    assert catalog.IdentitySpec._fields == ("key", "arity", "n_min", "build", "summary",
                                            "pole", "params", "negative", "derive")
    assert repr(spec) == (
        f"IdentitySpec(key='3.2', arity='scalar', n_min=1, build={spec.build!r}, "
        "summary='beta-weighted extension of chu; q >= 1', pole='none', "
        "params=(('l', 1, None), ('p', 0, 4), ('q', 1, 4)), "
        "negative=False, derive=None)")
    plain = catalog.IdentitySpec(key="k", arity="scalar", n_min=2, build=spec.build,
                                 summary="s")
    assert (plain.pole, plain.params, plain.negative, plain.derive) == ("none", (), False, None)
    assert plain != spec
    for name in ("key", "negative", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)


def test_verify_report_record_behaviour():
    report = catalog.VerifyReport("3.1", 4, p=2, q=1, holds=True, elapsed=0.5)
    assert report == catalog.VerifyReport(key="3.1", n=4, l=None, p=2, q=1, holds=True,
                                          residual=None, elapsed=0.5, skipped=False)
    assert repr(report) == ("VerifyReport(key='3.1', n=4, l=None, p=2, q=1, holds=True, "
                            "residual=None, elapsed=0.5, skipped=False)")
    assert repr(catalog.VerifyReport("x", 1)) == (
        "VerifyReport(key='x', n=1, l=None, p=None, q=None, holds=None, "
        "residual=None, elapsed=0.0, skipped=False)")
    other = catalog.VerifyReport("3.1", 4, p=2, q=1, holds=True, elapsed=0.5)
    other.elapsed = 0.25  # reports stay mutable
    assert other.elapsed == 0.25 and other != report
    other.elapsed = 0.5
    assert other == report and report != ("3.1", 4)
    with pytest.raises(TypeError):
        hash(report)
    failed = verify("2.1-as-printed", 2)
    assert repr(failed).startswith("VerifyReport(key='2.1-as-printed', n=2, l=None, p=None, "
                                   "q=None, holds=False, residual=Poly2(x*y - 1/2*x), elapsed=")
    assert "residual_str" in vars(catalog.VerifyReport)


def test_verify_report_copies_pickles_and_equals_its_fields():
    report = catalog.VerifyReport("1.1", 6, holds=False, residual=Fraction(-1, 3))
    for twin in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert type(twin) is catalog.VerifyReport and twin == report and twin is not report
    failed = verify("2.1-as-printed", 3)  # its residual is a Poly2
    assert copy.deepcopy(failed) == failed == pickle.loads(pickle.dumps(failed))
    # equality is SimpleNamespace's, field by field, whatever the namespace class
    assert report == SimpleNamespace(**vars(report))
    assert report != SimpleNamespace(**{**vars(report), "holds": True})
