"""Span and counter wrappers around bepoly's public entry points.

Used only by a traced worker (``worker.py --trace`` or ``--cli-trace``):
untraced workers never import this module.  ``install()`` replaces each
entry point, in every bepoly module that holds a reference to it, with
a wrapper that records one span per call.  Spans are aggregated in
memory per name as (calls, total seconds, self seconds); self time is
a span's duration minus the time its child spans cover.  Counter
bookkeeping done after a call (coefficient bit lengths, memo keys) is
hidden from the parent span, so it inflates no layer's self time.

``layer_metrics()`` turns the snapshots of one benchmark iteration into
the per-layer metrics listed in BENCHMARK.json; it needs no bepoly
import, so ``run.py`` can call it.
"""

from __future__ import annotations

from functools import update_wrapper
from time import perf_counter

# sequences entry points backed by a memo; a repeated argument is a hit
_MEMOIZED = {"bernoulli_number", "bernoulli_poly", "euler_poly", "harmonic"}

_POLY_GROUPS = {
    "add": ("__add__", "__sub__", "__rsub__", "__neg__"),
    "mul": ("__mul__", "__truediv__", "__pow__"),
}


def _targets():
    """Modules, functions and methods to wrap, keyed by span name."""
    import bepoly
    from bepoly import arith, catalog, cli, operators, polynomials, sequences

    modules = (bepoly, arith, polynomials, sequences, operators, catalog, cli)
    # span name -> (defining module, public functions)
    functions = {
        "arith": (arith, ("binomial", "beta_int", "gamma_ratio")),
        "sequences": (sequences, ("bernoulli_number", "bernoulli_poly", "euler_poly",
                                  "harmonic", "bbar", "euler_at_zero", "h_pq")),
        "operators": (operators, ("delta", "delta_star", "solve_delta_star",
                                  "check_product_rules", "bernoulli_shift_sum",
                                  "bernoulli_shift_sum_unweighted", "euler_shift_sum",
                                  "chu_identity")),
        "catalog.build": (catalog, ("build_residual",)),
        "catalog.check": (catalog, ("verify",)),
        "catalog.sweep": (catalog, ("verify_sweep",)),
        "cli.main": (cli, ("main",)),
        "cli.cache_read": (cli, ("read_cache_file",)),
        "cli.cache_write": (cli, ("write_cache_file",)),
    }
    # class -> {method __name__: span name}; aliases such as __radd__ hold
    # the function object of __add__ and are wrapped under the same name
    methods = {
        sequences.BernoulliCache: {"get": "sequences", "seed": "sequences.cache_seed"},
        operators.DiffOperator: {"__call__": "operators"},
        catalog.VerifyReport: {"residual_str": "catalog.render"},
    }
    for cls, tag in ((polynomials.Poly1, "poly1"), (polynomials.Poly2, "poly2")):
        names = {m: f"polynomials.{tag}_{g}" for g, ms in _POLY_GROUPS.items() for m in ms}
        for m in ("compose_affine", "compose_xy", "as_poly2", "subst", "swap_xy"):
            names[m] = "polynomials.compose"
        for m in ("__call__", "__eq__", "__str__", "derivative", "partial", "diagonal"):
            names[m] = "polynomials.other"
        names["div_xminusy"] = "polynomials.div_xminusy"
        methods[cls] = names
    return modules, functions, methods


def _coeff_bits(poly) -> int:
    """Largest numerator or denominator bit length of a polynomial's coefficients."""
    coeffs = getattr(poly, "coeffs", None)
    if coeffs is None:
        rows = getattr(poly, "rows", ())
        coeffs = [c for row in rows for c in row]
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coeffs), default=0)


class Tracer:
    """In-memory span aggregates and counters for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[float] = []     # child time of each open span
        self._seen: set = set()
        self.memo_hits = 0
        self.memo_lookups = 0
        self.coeff_bits = 0

    def wrap(self, name: str, fn, post=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if post is not None:
                t1 = perf_counter()
                post(args, result)
                if stack:
                    stack[-1] += perf_counter() - t1
            return result

        return update_wrapper(traced, fn)

    def _memo_counter(self, fname: str):
        def post(args, _result):
            key = (fname, args)
            self.memo_lookups += 1
            if key in self._seen:
                self.memo_hits += 1
            else:
                self._seen.add(key)
        return post

    def _bits_counter(self, _args, result) -> None:
        self.coeff_bits = max(self.coeff_bits, _coeff_bits(result))

    def snapshot(self) -> dict:
        from bepoly import catalog, sequences

        embed = [catalog._bern2.cache_info(), catalog._eul2.cache_info()]
        bern = sequences.default_cache().values()
        return {
            "spans": self.spans,
            "memo": [self.memo_hits, self.memo_lookups],
            "coeff_bits": self.coeff_bits,
            "bernoulli_bits": max(max(b.numerator.bit_length(), b.denominator.bit_length())
                                  for b in bern),
            "embed": [sum(i.hits for i in embed), sum(i.misses for i in embed)],
        }


def install() -> Tracer:
    """Wrap every listed entry point of bepoly; returns the tracer."""
    tracer = Tracer()
    modules, functions, methods = _targets()
    for name, (module, fnames) in functions.items():
        for fname in fnames:
            orig = getattr(module, fname)
            post = tracer._memo_counter(fname) if fname in _MEMOIZED else None
            wrapped = tracer.wrap(name, orig, post)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
    for cls, names in methods.items():
        for attr, value in list(vars(cls).items()):
            span = names.get(getattr(value, "__name__", None))
            if span is None or not callable(value):
                continue
            post = tracer._bits_counter if span.endswith("_mul") else None
            setattr(cls, attr, tracer.wrap(span, value, post))
    return tracer


# -- per-layer metrics ---------------------------------------------------------

def _merge(snapshots: list[dict]) -> dict:
    spans: dict[str, list] = {}
    merged = {"spans": spans, "memo": [0, 0], "coeff_bits": 0, "bernoulli_bits": 0,
              "embed": [0, 0]}
    for snap in snapshots:
        for name, rec in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for key in ("memo", "embed"):
            merged[key] = [a + b for a, b in zip(merged[key], snap[key])]
        for key in ("coeff_bits", "bernoulli_bits"):
            merged[key] = max(merged[key], snap[key])
    return merged


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def layer_metrics(snapshots: list[dict], stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one iteration (all its traced processes)."""
    m = _merge(snapshots)
    spans = m["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def layer_self(prefix):
        return sum(rec[2] for name, rec in spans.items()
                   if name == prefix or name.startswith(prefix + "."))

    out: dict[str, float] = {}
    for kind in ("poly2_mul", "poly2_add", "poly1_mul", "poly1_add"):
        out[f"polynomials.{kind}.calls"] = calls(f"polynomials.{kind}")
        out[f"polynomials.{kind}.self_s"] = self_s(f"polynomials.{kind}")
    out["polynomials.compose.self_s"] = self_s("polynomials.compose")
    out["polynomials.coeff_bits.max"] = m["coeff_bits"]
    out["polynomials.self_s"] = layer_self("polynomials")
    out["sequences.calls"] = calls("sequences")
    out["sequences.self_s"] = self_s("sequences")
    out["sequences.memo_hit_ratio"] = _ratio(*m["memo"])
    out["sequences.cache_seed_s"] = total("sequences.cache_seed")
    out["sequences.bernoulli.max_bits"] = m["bernoulli_bits"]
    for layer in ("arith", "operators"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = self_s(layer)
    out["catalog.build.calls"] = calls("catalog.build")
    out["catalog.build.self_s"] = self_s("catalog.build")
    out["catalog.check_s"] = self_s("catalog.check")
    out["catalog.render_s"] = total("catalog.render")
    hits, misses = m["embed"]
    out["catalog.embed_hit_ratio"] = _ratio(hits, hits + misses)
    out["catalog.self_s"] = layer_self("catalog")
    out["cli.self_s"] = self_s("cli.main")
    out["cli.cache_read_s"] = total("cli.cache_read")
    out["cli.cache_write_s"] = total("cli.cache_write")
    out["cli.stdout_bytes"] = stdout_bytes
    return out
