"""Command-line front end.

Commands:

    compute     print one exact sequence value or polynomial
    verify      sweep chosen catalog ids over parameter ranges
    verify-all  sweep the whole catalog up to an n bound
    cache       save / load / inspect the Bernoulli number cache

Report lines go to stdout (one line per checked instance; with --json,
one JSON object per line); the closing summary goes to stderr so that
stdout stays machine-parseable.  Exit status: 0 when everything
checked holds, 1 on any verification or cache-validation failure,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from . import sequences
from .arith import Rat
from .catalog import UnknownIdentityError, VerifyReport, catalog_ids, verify_sweep
from .sequences import CacheIntegrityError, default_cache

CACHE_HEADER = "bepoly-bernoulli-cache v1"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

# Largest n, p, q or --n-max the command line accepts.  It bounds the
# Bernoulli numbers (B_2000 takes about two seconds), not every command
# at the cap: compute euler-poly 2000 builds E_2000 in about seven
# seconds, and verify-all --n-max 2000 takes far longer.
N_LIMIT = 2000

# Largest cache file index the command line can write: ds at n = N_LIMIT
# reads B_2n.  A longer file is refused before any recomputation.
CACHE_INDEX_LIMIT = 2 * N_LIMIT

# compute's kinds, the argparse choices: each is the name of a ``sequences``
# function, "-" for "_"; it is looked up at each call, so a function wrapped
# in that module (perfbench/spans.py) is the one that runs
COMPUTE = ("bernoulli-number", "bernoulli-poly", "euler-poly", "harmonic", "bbar")


@contextmanager
def _int_digits_unlimited():
    """Lift the interpreter's limit on decimal int <-> str conversion.

    bepoly prints and caches values of any size it computes (B_4000 has
    about 9,500 digits; the default limit is 4300).  Inputs are bounded
    by length before int() sees them.  Python 3.10.0-3.10.6 has no limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- argument parsing ----------------------------------------------------------

def _nonneg_int(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if len(text.lstrip("0")) > len(str(N_LIMIT)) or int(text) > N_LIMIT:
        raise argparse.ArgumentTypeError(f"{text} is above the limit of {N_LIMIT}")
    return int(text)


def _range_arg(text: str) -> range:
    """Inclusive range syntax: 'a..b' or a single value 'a'."""
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}")
    hi = _nonneg_int(m.group(2) or m.group(1))
    lo = m.group(1).lstrip("0") or "0"
    if len(lo) > len(str(hi)) or int(lo) > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(int(lo), hi + 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bepoly",
        description="Exact Bernoulli/Euler polynomial computations and "
                    "identity verification over arbitrary-precision rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print one exact value")
    p_compute.add_argument("what", choices=COMPUTE)
    p_compute.add_argument("n", type=_nonneg_int)

    p_verify = sub.add_parser("verify", help="verify chosen identities")
    p_verify.add_argument("--id", dest="ids", action="append", required=True,
                          metavar="ID", help="catalog id (repeatable)")
    p_verify.add_argument("--n", type=_range_arg, required=True, metavar="A..B")
    p_verify.add_argument("--p", type=_range_arg, metavar="A..B")
    p_verify.add_argument("--q", type=_range_arg, metavar="A..B")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--cache", type=Path, metavar="PATH")

    p_all = sub.add_parser("verify-all", help="verify the whole catalog")
    p_all.add_argument("--n-max", type=_nonneg_int, default=10)
    p_all.add_argument("--id", dest="extra_ids", action="append", default=[],
                       metavar="ID", help="additionally include this id "
                       "(e.g. a negative control)")
    p_all.add_argument("--json", action="store_true")
    p_all.add_argument("--cache", type=Path, metavar="PATH")

    p_cache = sub.add_parser("cache", help="manage the Bernoulli number cache")
    p_cache.add_argument("action", choices=["save", "load", "info"])
    p_cache.add_argument("--cache", type=Path, required=True, metavar="PATH")
    p_cache.add_argument("--n-max", type=_nonneg_int, default=50,
                         help="for save: compute B_0..B_n before writing")

    return parser


# -- cache file format ---------------------------------------------------------

@_int_digits_unlimited()
def write_cache_file(path: Path, values: list[Rat]) -> None:
    """Write the cache file atomically.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one step, so a concurrent reader sees either
    the old file or the new one, never a partial write.
    """
    lines = [CACHE_HEADER]
    lines += [f"{i}\t{v.numerator}/{v.denominator}" for i, v in enumerate(values)]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@_int_digits_unlimited()
def read_cache_file(path: Path) -> list[Rat]:
    """Parse a cache file; raises CacheIntegrityError on malformed entries.

    Parsing is purely syntactic -- the arithmetic revalidation happens
    when the values are fed to BernoulliCache.seed().  Numerator and
    denominator of B_k have fewer than 3k + 10 digits for every k up to
    CACHE_INDEX_LIMIT (the digit count grows like k log10(k / 17)), so a
    longer entry is refused before int() sees it.
    """
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CacheIntegrityError(-1, f"{path}: non-ASCII byte at offset {exc.start}") from None
    if not lines or lines[0] != CACHE_HEADER:
        raise CacheIntegrityError(-1, f"{path}: missing or unknown header")
    if len(lines) - 2 > CACHE_INDEX_LIMIT:  # index of the last entry
        raise CacheIntegrityError(-1, f"{path}: entries up to B_{len(lines) - 2}, past "
                                      f"the limit of B_{CACHE_INDEX_LIMIT}")
    values: list[Rat] = []
    for lineno, line in enumerate(lines[1:]):
        m = re.fullmatch(r"(\d+)\t(-?\d+)/(\d*[1-9]\d*)", line)  # den != 0
        if (m and max(map(len, m.groups())) < 3 * lineno + 10
                and int(m.group(1)) == lineno):
            values.append(Fraction(int(m.group(2)), int(m.group(3))))
            continue
        raise CacheIntegrityError(lineno, f"{path}: malformed entry at index {lineno}")
    return values


def _load_cache(path: Path) -> int:
    """Seed the process's table from the file; returns the number of entries read."""
    values = read_cache_file(path)
    default_cache().seed(values)
    return len(values)


# -- report rendering ----------------------------------------------------------

def _report_json(report: VerifyReport) -> str:
    import json  # only --json output needs it; a module-level import costs every command

    obj: dict = {"id": report.key, "n": report.n}
    if report.l is not None:
        obj["l"] = report.l
    obj["p"] = report.p
    obj["q"] = report.q
    if report.skipped:
        obj["skipped"] = True
    else:
        obj["holds"] = report.holds
        obj["residual"] = report.residual_str()
        obj["elapsed_ms"] = round(report.elapsed * 1000, 3)
    return json.dumps(obj)


def _report_text(report: VerifyReport) -> str:
    if report.skipped:
        return f"skip  {report.key}  {report.params_str()}  (out of domain)"
    ms = report.elapsed * 1000
    if report.holds:
        return f"ok    {report.key}  {report.params_str()}  ({ms:.2f} ms)"
    return (f"FAIL  {report.key}  {report.params_str()}  "
            f"residual = {report.residual_str()}  ({ms:.2f} ms)")


def _emit_reports(reports: Iterable[VerifyReport], as_json: bool) -> int:
    checked = failed = skipped = 0
    for report in reports:
        print(_report_json(report) if as_json else _report_text(report))
        if report.skipped:
            skipped += 1
            continue
        checked += 1
        if not report.holds:
            failed += 1
    print(
        f"verified {checked} instance(s): {checked - failed} ok, "
        f"{failed} failed, {skipped} skipped",
        file=sys.stderr,
    )
    return EXIT_FAILED if failed else EXIT_OK


# -- commands -------------------------------------------------------------------

def _cmd_compute(args) -> int:
    print(getattr(sequences, args.what.replace("-", "_"))(args.n))
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = verify_sweep(args.ids, args.n, p_range=args.p, q_range=args.q)
    return _emit_reports(reports, args.json)


def _cmd_verify_all(args) -> int:
    keys = catalog_ids(include_negative=False)
    keys += [k for k in args.extra_ids if k not in keys]
    reports = verify_sweep(keys, range(0, args.n_max + 1))
    return _emit_reports(reports, args.json)


def _cmd_cache(args) -> int:
    path: Path = args.cache
    if args.action == "save":
        default_cache().get(args.n_max)
        values = default_cache().values()
        write_cache_file(path, values)
        print(f"saved {len(values)} entries (B_0..B_{len(values) - 1}) to {path}")
        return EXIT_OK
    if args.action == "load":
        count = _load_cache(path)
        print(f"loaded and validated {count} entries; "
              f"highest cached index: {default_cache().highest}")
        return EXIT_OK
    # info: report on the file when present, else on the in-process cache
    if path.exists():
        values = read_cache_file(path)
        print(f"highest cached index: {len(values) - 1} ({path})")
    else:
        print(f"highest cached index: {default_cache().highest} (in-memory)")
    return EXIT_OK


@_int_digits_unlimited()
def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    cache_path: Optional[Path] = getattr(args, "cache", None)
    use_cache_io = args.command in ("verify", "verify-all")
    try:
        if use_cache_io and cache_path and cache_path.exists():
            _load_cache(cache_path)

        if args.command == "compute":
            status = _cmd_compute(args)
        elif args.command == "verify":
            status = _cmd_verify(args)
        elif args.command == "verify-all":
            status = _cmd_verify_all(args)
        else:
            status = _cmd_cache(args)

        if use_cache_io and cache_path:
            write_cache_file(cache_path, default_cache().values())
    except UnknownIdentityError as exc:
        parser.error(str(exc))
    except CacheIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return status


if __name__ == "__main__":
    sys.exit(main())
