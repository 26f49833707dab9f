"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Exactness means each residual is identically zero; the only
non-exact bounds here are the stated wall-clock limits.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from bepoly import (
    BernoulliCache,
    Poly1,
    bbar,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_shift_sum,
    binomial,
    build_residual,
    check_product_rules,
    chu_identity,
    euler_at_zero,
    euler_poly,
    euler_shift_sum,
    h_pq,
    harmonic,
    solve_delta_star,
    verify,
    verify_sweep,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def _all_hold(reports) -> bool:
    checked = [r for r in reports if not r.skipped]
    return bool(checked) and all(r.holds for r in checked)


def test_scalar_sweep():
    with criterion("scalar sweep: 1.1, 1.2, 1.3 for n in [4, 60] in under 5 s"):
        start = time.perf_counter()
        reports = verify_sweep(["1.1", "1.2", "1.3"], range(4, 61))
        elapsed = time.perf_counter() - start
        assert _all_hold(reports)
        assert len([r for r in reports if not r.skipped]) == 3 * 57
        # spot values, recomputed from the sides directly
        lhs = (bernoulli_number(2) ** 2 / 4
               - binomial(4, 2) * bernoulli_number(2) ** 2 / 4)
        assert lhs == Fraction(2, 4) * harmonic(4) * bernoulli_number(4) == Fraction(-5, 144)
        lhs3 = 6 * bernoulli_number(2) ** 2 - 2 * binomial(6, 2) * bernoulli_number(2) ** 2
        assert lhs3 == 20 * bernoulli_number(4) == Fraction(-2, 3)
        assert elapsed < 5.0, f"scalar sweep took {elapsed:.1f}s"


def test_bivariate_sweep():
    with criterion("bivariate sweep: nine identities up to n = 25 in under 2 min"):
        start = time.perf_counter()
        ids = ["1.4", "1.4p", "1.5", "1.8", "1.9", "1.10", "2.3", "2.4", "2.5"]
        reports = verify_sweep(ids, range(1, 26))
        elapsed = time.perf_counter() - start
        assert _all_hold(reports)
        checked = [r for r in reports if not r.skipped]
        # 1.4/1.4p/1.5/2.3 run n in [2,25]; the rest n in [1,25]
        assert len(checked) == 4 * 24 + 5 * 25
        assert elapsed < 120.0, f"bivariate sweep took {elapsed:.1f}s"


def test_univariate_sweep():
    with criterion("univariate sweep: 1.6, 1.7, 1.11-1.13, cor1.2 up to n = 60"):
        reports = verify_sweep(["1.6", "1.7"], range(2, 61))
        assert _all_hold(reports)
        reports = verify_sweep(["1.11", "1.12", "1.13"], range(0, 61))
        assert _all_hold(reports)
        reports = verify_sweep(["cor1.2"], range(4, 61))
        assert _all_hold(reports)
        # spot value: all three chain expressions at n = 4 equal 1/288
        e1 = bbar(2) / 2 * bbar(2)
        e2 = Fraction(4, 2) * bbar(2) * bbar(2) / 4
        e3 = (sum(binomial(4, k) * bernoulli_number(k) / k * bbar(4 - k)
                  for k in range(2, 5)) + harmonic(3) * bbar(4))
        assert e1 == e2 == e3 == Fraction(1, 288)


def test_operator_suite():
    with criterion("operator suite: product rules, shift sums, negative control, chu"):
        rng = random.Random(93)
        for _ in range(200):
            p = Poly1(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(rng.randint(0, 8) + 1))
            q = Poly1(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(rng.randint(0, 8) + 1))
            assert check_product_rules(p, q)
        for n in range(1, 26):
            lhs, rhs = bernoulli_shift_sum(n)
            assert lhs == rhs
        for n in range(0, 26):
            lhs, rhs = euler_shift_sum(n)
            assert lhs == rhs
        report = verify("2.1-as-printed", 2)
        assert report.holds is False and not report.residual.is_zero
        for n in range(1, 31):
            for l in range(1, n + 1):
                assert chu_identity(n, l)


def test_gamma_beta_suite():
    with criterion("gamma/beta suite: 3.1 grid, slices, 3.2 grid, even-index slice"):
        reports = verify_sweep(["3.1"], range(2, 21), p_range=range(0, 4),
                               q_range=range(0, 4))
        assert _all_hold(reports)
        assert len([r for r in reports if not r.skipped]) == 19 * 16
        for n in range(2, 21):
            assert build_residual("3.1", n, p=0, q=0) == build_residual("1.6", n)
            assert build_residual("3.1", n, p=1, q=1) == build_residual("1.7", n)
        reports = verify_sweep(["3.2"], range(1, 13), p_range=range(0, 5),
                               q_range=range(1, 5))
        assert _all_hold(reports)
        reports = verify_sweep(["ds"], range(2, 11), p_range=range(0, 5))
        assert _all_hold(reports)
        assert len([r for r in reports if not r.skipped]) == 9 * 5


def test_consistency_suite():
    with criterion("consistency suite: dual Euler routes, midpoint, special values, "
                   "difference properties"):
        for n in range(41):
            # the half-argument relation, written out: an Euler route through B_{n+1}(x)
            b = bernoulli_poly(n + 1)
            half = Fraction(2, n + 1) * (b - 2 ** (n + 1) * b.compose_affine(Fraction(1, 2), 0))
            assert euler_poly(n) == half == solve_delta_star(Poly1.monomial(n, 2))
            assert euler_poly(n).compose_affine(1, 1) + euler_poly(n) == Poly1.monomial(n, 2)
            assert bernoulli_poly(n)(Fraction(1, 2)) == bbar(n)
            assert euler_at_zero(n) == euler_poly(n)(0)
            if n >= 1:
                assert (bernoulli_poly(n).compose_affine(1, 1) - bernoulli_poly(n)
                        == Poly1.monomial(n - 1, n))
                assert bernoulli_poly(n).derivative() == n * bernoulli_poly(n - 1)
                assert euler_poly(n).derivative() == n * euler_poly(n - 1)
        # addition theorem as an exact bivariate identity
        from bepoly import Poly2

        for n in range(26):
            rhs = Poly2.zero()
            for k in range(n + 1):
                rhs += (bernoulli_poly(k).as_poly2("x")
                        * Poly2.monomial(0, n - k, binomial(n, k)))
            assert bernoulli_poly(n).compose_xy(1, 1) == rhs
        # closed form of the partial beta sums, where it applies
        for n in range(2, 21):
            for p in range(1, 5):
                for q in range(0, 5):
                    from bepoly import beta_int

                    assert h_pq(n, p, q) == beta_int(p, q + 1) - beta_int(p, n + q)


def test_performance_smoke():
    with criterion("performance smoke: B_0..B_200 and 1.6 at n = 100 in under 60 s"):
        start = time.perf_counter()
        cache = BernoulliCache()
        cache.get(200)
        report = verify("1.6", 100)
        elapsed = time.perf_counter() - start
        assert cache.highest >= 200
        assert report.holds
        assert elapsed < 60.0, f"performance smoke took {elapsed:.1f}s"


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bepoly", *args], capture_output=True, text=True
    )


def test_cli_contract(tmp_path):
    with criterion("CLI contract: verify-all, negative-control injection, cache"):
        assert _run_cli("verify-all", "--n-max", "12").returncode == 0
        assert _run_cli("verify-all", "--n-max", "12",
                        "--id", "2.1-as-printed").returncode == 1
        path = tmp_path / "bernoulli.cache"
        assert _run_cli("cache", "save", "--cache", str(path),
                        "--n-max", "40").returncode == 0
        first = path.read_text()
        assert _run_cli("cache", "load", "--cache", str(path)).returncode == 0
        assert _run_cli("cache", "save", "--cache", str(path),
                        "--n-max", "40").returncode == 0
        assert path.read_text() == first  # round trip is byte-identical
        lines = first.splitlines()
        lines[8] = "7\t1/7"
        path.write_text("\n".join(lines) + "\n")
        tampered = _run_cli("cache", "load", "--cache", str(path))
        assert tampered.returncode == 1
        assert "7" in tampered.stderr
