"""A/B of one benchmark workload's in-process pass between two checkouts.

    python3 tools/pass_ab.py PARENT CHANGE [--workload univariate] [--runs 6]
                             [--seed 1] [--json OUT]

Each checkout's ``src/bepoly`` is copied under its own package name,
``bepoly_parent`` and ``bepoly_change`` (every import inside the package
is relative).  Each run is one fresh process that imports both and runs
every instance on both back to back, the order alternating from
instance to instance and from run to run (so does the order of the
imports), so that the two sides share whatever state the host is in.
On a shared VM that state drifts from process to process by more than a
change under test: one change read +18.5% cold over 8 pairs of fresh
processes, one per side, with ids it never touched at +20 ... +30%, and
-12 ... -14% in 8 of 8 interleaved runs.  So the two sides' peak RSS
cannot be told apart here; the benchmark measures it.  A run makes the
pass once cold and then ``WARM`` times warm (every memo full).  The
instances are those of ``perfbench/run.py``'s ``make_instances`` for the
workload and seed at full size, read from the checkout that holds this
script; the benchmark itself is not run.

Printed per side, as medians over the runs: the cold pass's sum, the
warm sum (the fastest warm pass of each run), the median instance and
the tail instance of the cold pass (``run.py``'s ``tail``: the
11th-slowest, or the slowest of ten or fewer); then in how many runs the
change was lower, and the parent's quartiles.  A second table splits the cold pass by id (a catalog id, or
a CLI command), with each side's median sum, their ratio and the
change's runs lower, to show where cost moved between instances.  Times
are raw wall times on the host that runs it, not scaled to the
benchmark's reference speed.  The cyclic garbage collector is off while
a pass is timed and collects between passes, so no instance is booked a
collection that earlier instances, of either side, made due: every
total and every by-id sum is free of cyclic collection on both sides.
(With the collector on, an id whose code a change only moved read
+4 ... +9% cold, lower in 0 of 20 runs.)  Standard library only; a
development tool, not part of the package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM = 5  # warm passes per run after the cold one
SIDES = ("parent", "change")

# runs in each fresh process; argv[1] is the job as JSON
CHILD = r"""
import contextlib, gc, importlib, io, json, os, sys
from time import perf_counter

job = json.loads(sys.argv[1])
sides = []  # (package, its cli module, its work directory for CLI cache files)
for name in job["packages"]:
    work = os.path.abspath(name + ".work")
    os.mkdir(work)
    sides.append((importlib.import_module(name), importlib.import_module(name + ".cli"), work))

def run(side, inst):
    pkg, cli, work = side
    if inst[0] == "cli":
        os.chdir(work)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(inst[1])
            except SystemExit:
                pass
    else:
        pkg.verify(inst[1], inst[2], p=inst[3], q=inst[4]).residual_str()

passes = [[] for _ in sides]
for _ in range(1 + job["warm"]):
    times = [[] for _ in sides]
    gc.collect()
    gc.disable()  # a collection falls on whichever instance trips the threshold
    for i, inst in enumerate(job["instances"]):
        order = range(len(sides))
        for s in (order if i % 2 == 0 else reversed(order)):
            t0 = perf_counter()
            run(sides[s], inst)
            times[s].append(perf_counter() - t0)
    gc.enable()
    for p, t in zip(passes, times):
        p.append(t)
print(json.dumps({"modules": [pkg.__file__ for pkg, _, _ in sides], "passes": passes}))
"""


def _perfbench_run():
    """``perfbench/run.py`` as a module, for its instances and its tail rank."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.pop(0)
    return run


def _label(inst: list) -> str:
    """An instance's id: its catalog id, or its CLI command's words."""
    if inst[0] == "verify":
        return inst[1]
    return " ".join(a for a in inst[1][:2] if not a.startswith("-"))


def one_run(packages: Path, sides: tuple[str, ...], job: dict,
            labels: list[str]) -> list[tuple[dict, dict]]:
    """For each side, in one fresh process that imports every side's package
    ``bepoly_<side>`` from ``packages``, its metrics and its cold-pass time
    per label in ms."""
    names = [f"bepoly_{side}" for side in sides]
    env = {**os.environ, "PYTHONPATH": str(packages), "PYTHONHASHSEED": "0"}
    with tempfile.TemporaryDirectory() as work:  # CLI instances write cache files here
        out = subprocess.run([sys.executable, "-c", CHILD,
                              json.dumps({**job, "packages": names})],
                             cwd=work, env=env, capture_output=True, text=True,
                             check=True).stdout
    res = json.loads(out.splitlines()[-1])
    results = []
    for name, module, (cold, *warm) in zip(names, res["modules"], res["passes"]):
        if not Path(module).resolve().is_relative_to((packages / name).resolve()):
            raise SystemExit(f"{name} was imported from {module}, outside {packages}")
        per_id = dict.fromkeys(labels, 0.0)
        for label, t in zip(labels, cold):
            per_id[label] += 1e3 * t
        results.append(({"cold_ms": 1e3 * sum(cold),
                         "warm_ms": 1e3 * min(map(sum, warm)),
                         "p50_us": 1e6 * statistics.median(cold),
                         "tail_us": 1e6 * _perfbench_run().tail(cold)[0]}, per_id))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", default="univariate",
                    choices=("univariate", "bivariate", "sequences-cli"))
    ap.add_argument("--runs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", type=Path, help="also write every run's metrics here")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2, for the parent's quartiles")
    instances = _perfbench_run().make_instances(args.workload, args.seed, "full")
    labels = [_label(inst) for inst in instances]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    ids: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as packages:
        for side in SIDES:
            shutil.copytree(getattr(args, side) / "src" / "bepoly",
                            Path(packages) / f"bepoly_{side}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(args.runs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            job = {"instances": instances, "warm": WARM}
            for side, (metrics, per_id) in zip(order, one_run(Path(packages), order,
                                                               job, labels)):
                runs[side].append(metrics)
                ids[side].append(per_id)
    metrics = list(runs["parent"][0])
    print(f"{args.workload}, {args.runs} interleaved runs, seed {args.seed}, "
          f"{WARM} warm passes; medians over the runs")
    print(f"{'metric':10} {'parent':>10} {'change':>10} {'relative':>9} {'lower':>6}  parent IQR")
    summary = {}
    for m in metrics:
        a = [r[m] for r in runs["parent"]]
        b = [r[m] for r in runs["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
        lower = sum(y < x for x, y in zip(a, b))
        summary[m] = {"parent": a, "change": b, "parent_median": ma, "change_median": mb,
                      "parent_q1": q1, "parent_q3": q3, "change_lower": lower}
        print(f"{m:10} {ma:10.3f} {mb:10.3f} {mb / ma - 1:+9.1%} {lower:3}/{args.runs}"
              f"  {q1:.3f}-{q3:.3f}")
    by_id = {}
    print("\ncold pass by id: sum in ms per run, medians over the runs")
    print(f"{'id':20} {'parent':>10} {'change':>10} {'ratio':>7} {'lower':>6}")
    for label in sorted(set(labels)):
        a = [r[label] for r in ids["parent"]]
        b = [r[label] for r in ids["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        lower = sum(y < x for x, y in zip(a, b))
        by_id[label] = {"parent": a, "change": b, "ratio": mb / ma, "change_lower": lower}
        print(f"{label:20} {ma:10.3f} {mb:10.3f} {mb / ma:7.3f} {lower:3}/{args.runs}")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "runs": args.runs, "warm": WARM,
                                         "metrics": summary, "per_id": by_id},
                                        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
