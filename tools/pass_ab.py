"""A/B of one benchmark workload's in-process pass between two checkouts.

    python3 tools/pass_ab.py PARENT CHANGE [--workload univariate] [--pairs 6]
                             [--seed 1] [--json OUT]

Each pair runs the pass in one fresh process per checkout, the order
alternating from pair to pair, with that checkout's ``src`` on
PYTHONPATH.  A process imports bepoly, runs the pass once cold and then
``WARM`` times warm (every memo full), and reports its per-instance
times and peak RSS.  The instances are those of ``perfbench/run.py``'s
``make_instances`` for the workload and seed at full size, read from the
checkout that holds this script; the benchmark itself is not run.

Printed per side, as medians over the pairs: the cold pass's sum, the
warm sum (the fastest warm pass of each process), the median instance
and the tail instance of the cold pass (``run.py``'s ``tail``: the
11th-slowest, or the slowest of ten or fewer), and peak RSS; then in
how many pairs the change was lower, and the parent's quartiles.  A
second table splits the cold pass by id (a catalog id, or a CLI
command), with each side's median sum and the change's pairs lower, to
show where cost moved between instances.  Times
are raw wall times on the host that runs it, not scaled to the
benchmark's reference speed.  Standard library only; a development
tool, not part of the package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM = 5  # warm passes per process after the cold one

# runs in each fresh process; argv[1] is the job as JSON
CHILD = r"""
import contextlib, io, json, resource, sys
from time import perf_counter
import bepoly
from bepoly import cli

def run(inst):
    if inst[0] == "cli":
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(inst[1])
            except SystemExit:
                pass
    else:
        bepoly.verify(inst[1], inst[2], p=inst[3], q=inst[4]).residual_str()

job = json.loads(sys.argv[1])
passes = []
for _ in range(1 + job["warm"]):
    times = []
    for inst in job["instances"]:
        t0 = perf_counter()
        run(inst)
        times.append(perf_counter() - t0)
    passes.append(times)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"module": bepoly.__file__, "passes": passes, "rss_mb": rss}))
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


def one_process(checkout: Path, job: str, labels: list[str]) -> tuple[dict, dict]:
    """Metrics of one fresh process running the pass from ``checkout``, and its
    cold-pass time per instance label in ms."""
    src = (checkout / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    with tempfile.TemporaryDirectory() as work:  # CLI instances write a cache file here
        out = subprocess.run([sys.executable, "-c", CHILD, job], cwd=work, env=env,
                             capture_output=True, text=True, check=True).stdout
    res = json.loads(out.splitlines()[-1])
    if not Path(res["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"bepoly was imported from {res['module']}, outside {src}")
    cold, *warm = res["passes"]
    per_id = dict.fromkeys(labels, 0.0)
    for label, t in zip(labels, cold):
        per_id[label] += 1e3 * t
    return {"cold_ms": 1e3 * sum(cold),
            "warm_ms": 1e3 * min(map(sum, warm)),
            "p50_us": 1e6 * statistics.median(cold),
            "tail_us": 1e6 * _perfbench_run().tail(cold)[0],
            "rss_mb": res["rss_mb"]}, per_id


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", default="univariate",
                    choices=("univariate", "bivariate", "sequences-cli"))
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", type=Path, help="also write every pair's metrics here")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the parent's quartiles")
    instances = _perfbench_run().make_instances(args.workload, args.seed, "full")
    labels = [_label(inst) for inst in instances]
    job = json.dumps({"instances": instances, "warm": WARM})
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ids: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, per_id = one_process(getattr(args, side), job, labels)
            runs[side].append(metrics)
            ids[side].append(per_id)
    metrics = list(runs["parent"][0])
    summary = {}
    print(f"{args.workload}, {args.pairs} alternating pairs, seed {args.seed}, "
          f"{WARM} warm passes; medians over the pairs")
    print(f"{'metric':10} {'parent':>10} {'change':>10} {'relative':>9} {'lower':>6}  parent IQR")
    for m in metrics:
        a = [r[m] for r in runs["parent"]]
        b = [r[m] for r in runs["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
        lower = sum(y < x for x, y in zip(a, b))
        summary[m] = {"parent": a, "change": b, "parent_median": ma, "change_median": mb,
                      "parent_q1": q1, "parent_q3": q3, "change_lower": lower}
        print(f"{m:10} {ma:10.3f} {mb:10.3f} {mb / ma - 1:+9.1%} {lower:3}/{args.pairs}"
              f"  {q1:.3f}-{q3:.3f}")
    by_id = {}
    print("\ncold pass by id: sum in ms per process, medians over the pairs")
    print(f"{'id':20} {'parent':>10} {'change':>10} {'relative':>9} {'lower':>6}")
    for label in sorted(set(labels)):
        a = [r[label] for r in ids["parent"]]
        b = [r[label] for r in ids["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        lower = sum(y < x for x, y in zip(a, b))
        by_id[label] = {"parent": a, "change": b, "change_lower": lower}
        print(f"{label:20} {ma:10.3f} {mb:10.3f} {mb / ma - 1:+9.1%} {lower:3}/{args.pairs}")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "pairs": args.pairs, "warm": WARM,
                                         "metrics": summary, "per_id": by_id},
                                        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
