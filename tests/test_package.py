"""The package's import surface: exactly the names the modules' ``__all__`` lists declare."""

from __future__ import annotations

import bepoly
from bepoly import arith, catalog, operators, polynomials, sequences

SURFACE = {
    arith: ["Rat", "binomial", "beta_int", "gamma_ratio", "frac_sum"],
    polynomials: ["Poly1", "Poly2", "ExactDivisionError"],
    sequences: ["BernoulliCache", "CacheIntegrityError", "default_cache", "bernoulli_number",
                "bernoulli_poly", "euler_poly", "harmonic", "bbar", "euler_at_zero", "h_pq"],
    operators: ["DiffOperator", "delta", "delta_star", "solve_delta_star", "check_product_rules",
                "bernoulli_shift_sum", "bernoulli_shift_sum_unweighted", "euler_shift_sum",
                "chu_identity"],
    catalog: ["Residual", "IdentitySpec", "VerifyReport", "UnknownIdentityError", "CATALOG",
              "catalog_ids", "build_residual", "verify", "verify_sweep"],
}


def test_package_exports_exactly_the_module_lists():
    names = [name for module_names in SURFACE.values() for name in module_names]
    assert len(names) == 36
    assert len(bepoly.__all__) == len(set(bepoly.__all__))
    assert sorted(bepoly.__all__) == sorted(names + ["__version__"])
    for module, module_names in SURFACE.items():
        assert sorted(module.__all__) == sorted(module_names)
        for name in module_names:
            assert getattr(bepoly, name) is getattr(module, name), name
    assert isinstance(bepoly.__version__, str)
