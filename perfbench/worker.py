"""One fresh bepoly process for the benchmark in ``run.py``.

Pass mode (no ``--cli-trace``): import bepoly, write one ``ready <file>``
line so the parent can time interpreter start plus import, then read a
job from stdin::

    {"instances": [["verify", id, n, p, q] | ["cli", argv], ...],
     "warm": true, "cache_file": name}

and run the instances once cold and, if asked, once more warm (every
memo full).  After each CLI instance it takes the digest of the cache
file, as the parent does after a spawned command.  Between instances
it reads the host's speed (``hostspeed.probes_after``) whenever
``hostspeed.PROBE_EVERY_S`` of work has passed, and before the first
and after the last, for the parent to scale the instances' times by.
Writes one JSON result line to stdout.

``--trace`` installs the span wrappers from ``spans.py`` after the
import; without it ``spans`` is never imported.

``--cli-trace OUT ARGV...`` runs one ``bepoly`` CLI command with the
wrappers installed, keeps its stdout and exit status, and writes the
span summary to OUT.
"""

import sys

import bepoly

if sys.argv[1:2] != ["--cli-trace"]:
    sys.stdout.write(f"ready {bepoly.__file__}\n")
    sys.stdout.flush()

import contextlib  # noqa: E402  (after the timed import on purpose)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from bepoly import cli as bepoly_cli  # noqa: E402

import hostspeed  # noqa: E402


def _run_cli(argv: list[str], cache_file: Path) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            code = bepoly_cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code
        dt = perf_counter() - t0
    digest = hashlib.sha256(cache_file.read_bytes()).hexdigest() if cache_file.exists() else None
    return [dt, code, out.getvalue(), digest]


def _run_verify(key: str, n: int, p, q) -> list:
    t0 = perf_counter()
    report = bepoly.verify(key, n, p=p, q=q)
    residual = report.residual_str()
    dt = perf_counter() - t0
    return [dt, report.holds, residual]


def _run_pass(instances: list, cache_file: Path) -> dict:
    """The pass's results with the start time of each instance, and the
    host-speed readings taken in between."""
    results, starts = [], []
    readings = [hostspeed.probe()]
    since_probe = 0.0
    for inst in instances:
        starts.append(perf_counter())
        try:
            if inst[0] == "cli":
                results.append(_run_cli(inst[1], cache_file))
            else:
                results.append(_run_verify(*inst[1:]))
        except Exception as exc:  # reported to the parent as a failed operation
            results.append([0.0, "error", repr(exc)])
        since_probe += results[-1][0]
        if since_probe >= hostspeed.PROBE_EVERY_S:
            readings += hostspeed.probes_after(since_probe)
            since_probe = 0.0
    readings += hostspeed.probes_after(since_probe)
    return {"results": results, "starts": starts, "readings": readings}


def _pass_mode(traced: bool) -> None:
    tracer = None
    if traced:
        import spans
        tracer = spans.install()
    job = json.loads(sys.stdin.read())
    out: dict = {}
    cache_file = Path(job["cache_file"])
    out["cold"] = _run_pass(job["instances"], cache_file)
    if job["warm"]:
        out["warm"] = _run_pass(job["instances"], cache_file)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["spans_loaded"] = "spans" in sys.modules
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(out) + "\n")


def _cli_trace_mode(out_path: str, argv: list[str]) -> int:
    import spans
    tracer = spans.install()
    try:
        code = bepoly_cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        Path(out_path).write_text(json.dumps(tracer.snapshot()), encoding="ascii")
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cli-trace"]:
        sys.exit(_cli_trace_mode(sys.argv[2], sys.argv[3:]))
    _pass_mode(traced=sys.argv[1:2] == ["--trace"])
