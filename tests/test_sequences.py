"""Bernoulli/Euler sequences: conventions, recurrences, dual constructions."""

from __future__ import annotations

import functools
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

import pytest

from bepoly import (
    BernoulliCache,
    CacheIntegrityError,
    Poly1,
    bbar,
    bernoulli_number,
    bernoulli_poly,
    beta_int,
    euler_at_zero,
    euler_poly,
    h_pq,
    harmonic,
    sequences,
    solve_delta_star,
)


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent Bernoulli oracle (different algorithm, B_1 = +1/2)."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


@functools.cache
def recurrence_oracle(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n from sum_{k=0}^{m} C(m+1, k) B_k = 0 (B_1 = -1/2)."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(comb(m + 1, k) * b for k, b in enumerate(out)) / (m + 1))
    return tuple(out)


@functools.cache
def seidel_oracle(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n from zigzag numbers, one Seidel boustrophedon row per index:
    row m - 1 ends in A_{m-1}, and B_{2k} = (-1)^(k-1) 2k A_{2k-1} / (4^k (4^k - 1))."""
    out = [Fraction(1), Fraction(-1, 2)][:n + 1]
    row = [1]
    for m in range(2, n + 1):
        while len(row) < m:
            row = list(accumulate(reversed(row), initial=0))
        k = m // 2
        out.append(Fraction(0) if m % 2 else
                   Fraction((-1) ** (k - 1) * m * row[-1], 4 ** k * (4 ** k - 1)))
    return tuple(out)


def test_bernoulli_number_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_against_independent_oracle():
    oracle = akiyama_tanigawa(40)
    for n in range(41):
        expected = -oracle[1] if n == 1 else oracle[n]
        assert bernoulli_number(n) == expected


def test_tangent_route_matches_recurrence_oracle():
    cache = BernoulliCache()
    assert tuple(cache.get(n) for n in range(301)) == recurrence_oracle(300)


@pytest.mark.parametrize("steps", [(1000,), (0, 1, 2, 41, 42, 399, 400, 1000)],
                         ids=["one-step", "irregular-steps"])
def test_tangent_route_matches_seidel_oracle_to_1000(steps):
    # fresh tables, so every tangent column is built here, however the
    # growth is split; no step overshoots the index asked for
    cache = BernoulliCache()
    for n in steps:
        cache.get(n)
        assert cache.highest == n
    assert tuple(cache.values()) == seidel_oracle(1000)


def test_odd_bernoulli_numbers_vanish():
    for n in range(3, 62, 2):
        assert bernoulli_number(n) == 0


def test_bernoulli_poly_values():
    assert bernoulli_poly(0) == Poly1([1])
    assert bernoulli_poly(1) == Poly1([Fraction(-1, 2), 1])
    assert bernoulli_poly(2) == Poly1([Fraction(1, 6), -1, 1])


def test_bernoulli_poly_at_zero_gives_numbers():
    for n in range(61):
        assert bernoulli_poly(n)(0) == bernoulli_number(n)


def test_bernoulli_forward_difference():
    # B_n(x+1) - B_n(x) = n x^{n-1}
    for n in range(1, 41):
        p = bernoulli_poly(n)
        assert p.compose_affine(1, 1) - p == Poly1.monomial(n - 1, n)


def test_bernoulli_addition_theorem():
    # B_n(x+y) = sum_k C(n,k) B_k(x) y^{n-k}, as an exact Poly2 identity
    from bepoly import Poly2, binomial

    for n in range(26):
        lhs = bernoulli_poly(n).compose_xy(1, 1)
        rhs = Poly2.zero()
        for k in range(n + 1):
            rhs += (bernoulli_poly(k).as_poly2("x")
                    * Poly2.monomial(0, n - k, binomial(n, k)))
        assert lhs == rhs


def test_derivative_recurrences():
    for n in range(1, 41):
        assert bernoulli_poly(n).derivative() == n * bernoulli_poly(n - 1)
        assert euler_poly(n).derivative() == n * euler_poly(n - 1)


def test_euler_poly_values():
    assert euler_poly(0) == Poly1([1])
    assert euler_poly(1) == Poly1([Fraction(-1, 2), 1])
    assert euler_poly(2) == Poly1([0, -1, 1])


def test_euler_forward_sum():
    # E_n(x+1) + E_n(x) = 2 x^n
    for n in range(41):
        p = euler_poly(n)
        assert p.compose_affine(1, 1) + p == Poly1.monomial(n, 2)


def half_argument_euler(n: int) -> Poly1:
    """Independent Euler oracle through the Bernoulli polynomials:
    E_n(x) = 2/(n+1) * (B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2))."""
    b = bernoulli_poly(n + 1)
    return Fraction(2, n + 1) * (b - 2 ** (n + 1) * b.compose_affine(Fraction(1, 2), 0))


def test_euler_dual_construction_agrees():
    # the half-argument relation and the back-substitution in operators are the references
    for n in range(41):
        assert euler_poly(n) == half_argument_euler(n) == solve_delta_star(Poly1.monomial(n, 2))


# each perturbs the values E_k(0) the Appell sum reads: E_n(x) + (x + 1)^n,
# 2 E_n(x), and E_n(x + 1/2), the Appell sum over E_k(1/2)
@pytest.mark.parametrize("perturb", [lambda route, exact, k: route(k) + 1,
                                     lambda route, exact, k: 2 * route(k),
                                     lambda route, exact, k: exact[k](Fraction(1, 2))],
                         ids=["plus-one", "doubled", "half-shifted"])
def test_euler_check_rejects_a_wrong_construction(monkeypatch, perturb):
    route = sequences.euler_at_zero
    exact = [euler_poly(k) for k in range(14)]
    monkeypatch.setattr(sequences, "euler_at_zero", lambda k: perturb(route, exact, k))
    euler_poly.cache_clear()
    try:
        for n in (1, 6, 13):
            with pytest.raises(RuntimeError, match=f"E_{n} fails"):
                euler_poly(n)
    finally:
        monkeypatch.undo()
        euler_poly.cache_clear()
    assert euler_poly(6) == solve_delta_star(Poly1.monomial(6, 2))


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)


def test_harmonic_recurrence():
    for n in range(1, 80):
        assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)


def _running_harmonic(top: int) -> list[Fraction]:
    out = [Fraction(0)]
    for k in range(1, top + 1):
        out.append(out[-1] + Fraction(1, k))
    return out


_MEMO_ARGS = {
    "harmonic": [(n,) for n in range(301)],
    "bernoulli_poly": [(n,) for n in range(61)],
    "euler_poly": [(n,) for n in range(41)],
    "bbar": [(k,) for k in range(201)],
    "_bern2": [(k, cx, cy) for k in range(31) for cx, cy in ((1, 1), (0, 1), (1, -1))],
    "h_pq": [(n, p, q) for n in range(2, 26) for p in range(4) for q in range(4)],
}


@pytest.mark.parametrize("name", list(_MEMO_ARGS))
def test_memo_is_thread_safe(name):
    # 8 threads fill a cleared memo at once, switching every microsecond;
    # thread s asks for every s-th argument, so their requests interleave
    from bepoly import sequences

    memo, args = getattr(sequences, name), _MEMO_ARGS[name]
    if name == "harmonic":
        expected = _running_harmonic(len(args) - 1)
    else:
        expected = [memo(*a) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            memo.cache_clear()
            barrier = threading.Barrier(8)
            seen: dict[int, list] = {}

            def worker(step: int) -> None:
                barrier.wait()
                seen[step] = [memo(*a) for a in args[step - 1::step]]

            threads = [threading.Thread(target=worker, args=(s,)) for s in range(1, 9)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(seen[s] == expected[s - 1::s] for s in range(1, 9))
    finally:
        sys.setswitchinterval(interval)


def test_bbar_values():
    assert bbar(0) == 1
    assert bbar(2) == Fraction(-1, 12)
    assert bbar(4) == Fraction(7, 240)


def test_bbar_is_midpoint_value():
    half = Fraction(1, 2)
    for n in range(41):
        assert bernoulli_poly(n)(half) == bbar(n)


def test_euler_at_zero_values():
    assert euler_at_zero(0) == 1
    assert euler_at_zero(1) == Fraction(-1, 2)
    assert euler_at_zero(2) == 0


def test_euler_at_zero_matches_polynomial():
    # E_n(x+1) + E_n(x) = 2 x^n gives E_n(1) = -E_n(0) for n >= 1; E_n(1) is the
    # sum of all the coefficients, evaluated, against the closed form at 0
    for l in range(1, 41):
        assert euler_poly(l)(1) == -euler_at_zero(l)


def test_h_pq_values():
    assert h_pq(4, 0, 0) == Fraction(11, 6)  # 1 + 1/2 + 1/3
    assert h_pq(2, 1, 1) == Fraction(1, 6)
    assert h_pq(2, 2, 0) == Fraction(1, 3)


def test_h_pq_matches_its_defining_sum():
    # H_n(p, q) = sum_{k=1}^{n-1} (k+q-1)! p! / (k+p+q)!, each term its own
    # factorial quotient, summed as n grows
    for p in range(7):
        for q in range(7):
            total = Fraction(0)
            for n in range(2, 61):
                total += Fraction(factorial(n + q - 2) * factorial(p), factorial(n + p + q - 1))
                assert h_pq(n, p, q) == total, (n, p, q)


def test_h_pq_closed_form_cross_check():
    for n in range(2, 21):
        for p in range(1, 5):
            for q in range(0, 5):
                assert h_pq(n, p, q) == beta_int(p, q + 1) - beta_int(p, n + q)


def test_h_pq_closed_form_check_raises_through_the_memo(monkeypatch):
    # a wrong beta_int must still fail the closed-form check: the memo is
    # cleared before, so nothing answers from it, and after, so nothing wrong stays
    monkeypatch.setattr(sequences, "beta_int", lambda a, b: 2 * beta_int(a, b))
    h_pq.cache_clear()
    try:
        for n, p, q in ((2, 1, 0), (7, 2, 3), (12, 4, 1)):
            with pytest.raises(RuntimeError, match="partial beta sum mismatch"):
                h_pq(n, p, q)
    finally:
        monkeypatch.undo()
        h_pq.cache_clear()
    assert h_pq(7, 2, 3) == beta_int(2, 4) - beta_int(2, 10)


def test_h_pq_repeated_call_is_a_cache_hit():
    h_pq.cache_clear()
    first = h_pq(9, 2, 1)
    before = h_pq.cache_info()
    assert h_pq(9, 2, 1) is first
    after = h_pq.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_h_pq_rejects_small_n():
    with pytest.raises(ValueError):
        h_pq(1, 0, 0)


def test_cache_grows_and_snapshots():
    cache = BernoulliCache()
    assert cache.highest == 0
    assert cache.get(10) == Fraction(5, 66)
    assert cache.highest >= 10
    values = cache.values()
    assert values[0] == 1 and values[10] == Fraction(5, 66)


def test_cache_growth_never_overshoots():
    cache = BernoulliCache()
    cache.get(10)
    assert cache.highest == 10
    cache.get(11)
    assert cache.highest == 11
    assert cache.values() == list(recurrence_oracle(11))


def test_verify_cache_file_holds_exactly_the_indices_used(tmp_path):
    # identity 1.1 at n uses B_0..B_n, so the sweep to n = 8 needs B_0..B_8
    path = tmp_path / "b.cache"
    proc = subprocess.run(
        [sys.executable, "-m", "bepoly", "verify", "--id", "1.1", "--n", "4..8",
         "--cache", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    lines = path.read_text().splitlines()[1:]
    assert lines == [f"{i}\t{b.numerator}/{b.denominator}"
                     for i, b in enumerate(recurrence_oracle(8))]


def test_cache_seed_round_trip():
    cache = BernoulliCache()
    cache.get(20)
    other = BernoulliCache()
    other.seed(cache.values())
    assert other.values() == cache.values()


@pytest.mark.parametrize("held", [1, 5, 21], ids=lambda n: f"holds-{n}")
def test_cache_seed_rejects_tampered_entry(held):
    # the tampered index 12 lies past the receiving cache's highest index
    # (1 or 5 entries held) or below it (21 entries held)
    cache = BernoulliCache()
    cache.get(20)
    values = cache.values()
    values[12] = values[12] + Fraction(1, 7)
    receiving = BernoulliCache()
    receiving.get(held - 1)
    with pytest.raises(CacheIntegrityError) as excinfo:
        receiving.seed(values)
    assert excinfo.value.index == 12
    # the table keeps the entries it computed, B_0..B_20, and adopts no file value
    assert receiving.values() == list(recurrence_oracle(20))


def test_cache_seed_computes_only_missing_entries(monkeypatch):
    # one tangent column j per even index 2j computed: seeding with the
    # values the cache holds builds none, growing from 40 to 45 builds only
    # the columns for B_42 and B_44
    cache = BernoulliCache()
    cache.get(40)
    columns = []
    build = sequences._tangent_column

    def counted(c):
        columns.append(len(c) + 1)
        build(c)

    monkeypatch.setattr(sequences, "_tangent_column", counted)
    cache.seed(cache.values())
    assert columns == []
    cache.seed(recurrence_oracle(45))
    assert columns == [21, 22]
    assert cache.values() == list(recurrence_oracle(45))


def test_cache_concurrent_reads_are_consistent():
    cache = BernoulliCache()
    results = []

    def worker():
        results.append([cache.get(n) for n in range(60)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0][12] == Fraction(-691, 2730)


def test_cache_get_and_seed_are_thread_safe():
    # 8 threads share one cache, half growing it by get() and half
    # seeding it with ever longer prefixes, switching every microsecond
    top = 120
    oracle = recurrence_oracle(top)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cache = BernoulliCache()
            barrier = threading.Barrier(8)
            seen: list[tuple[int, Fraction]] = []

            def worker(i: int) -> None:
                barrier.wait()
                for n in range(i, top + 1, 8):
                    if i % 2:
                        cache.seed(oracle[:n + 1])
                    else:
                        seen.append((n, cache.get(n)))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(value == oracle[n] for n, value in seen)
            assert cache.values() == list(oracle[:cache.highest + 1])
            assert cache.highest == top
    finally:
        sys.setswitchinterval(interval)
