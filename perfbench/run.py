"""bepoly benchmark: one workload, a closed loop of one caller, checked outputs.

    python3 perfbench/run.py --workload {bivariate,univariate,sequences-cli}
                             --seed N --seconds S --trace {0,1} [--tiny]

Run from anywhere; paths resolve against the checkout that holds this
file, whose ``src`` is put on PYTHONPATH for every child process.  One
process runs at a time and nothing is threaded.  Until S seconds have
passed, each iteration

* spawns a fresh worker (``worker.py``) that imports bepoly, runs the
  workload's pass once cold and once warm (every memo full), and
  reports per-instance latencies, outputs and peak RSS;
* runs CLI rounds: each spawns a worker that only imports bepoly, then
  the workload's four CLI commands (``cache save``, ``cache load``,
  ``compute``, ``verify --cache``), each as its own ``python -m bepoly``
  process, timed from spawn to exit.

Every time is scaled to the reference speed of ``hostspeed.py``, by
readings of a reference loop taken all through the run, so that the
host's swings of speed cancel out.  Each end-to-end metric is the median
over the run's samples; ``instance_ms.*`` take each instance at its
median over the run's cold passes.

Every verdict, residual, CLI stdout, exit code and cache file is checked
against the expectations and digests in ``golden.json``; any mismatch
counts in ``failed`` and makes the exit status 1.  With ``--trace 1``
the workers and CLI commands run with the span wrappers of
``spans.py`` and the per-layer metrics are printed instead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Exit status 2 (and no result line) means the harness itself could not
run, e.g. there is no ``src/bepoly`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden.json"
CACHE = "bench.cache"
CHILD_TIMEOUT_S = 170
PROBES_PER_SPAWN = 3  # host-speed readings the harness takes before each spawn

# catalog id -> smallest n in its domain
BIVARIATE_IDS = {"1.4": 2, "1.4p": 2, "1.5": 2, "1.8": 1, "1.9": 1, "1.10": 1,
                 "2.1": 1, "2.2": 0, "2.3": 2, "2.4": 1, "2.5": 1,
                 "2.1-as-printed": 1}
UNIVARIATE_IDS = {"1.1": 4, "1.2": 4, "1.3": 4, "cor1.2": 4, "1.6": 2, "1.7": 2,
                  "1.11": 0, "1.12": 0, "1.13": 0}
PQ_GRID = [(p, q) for p in range(4) for q in range(4)]  # 3.1's (p, q) points
DS_P = list(range(5))                                     # ds's p values

# n bounds of the in-process passes and (p, q) draws per n for 3.1.  On
# full, 3.1 and ds run at n = 2..41: 40 values, so whole decks of the 16
# (p, q) points (4 per n) and of the 5 ds ps (1 per n).
SIZES = {
    "full": {"bivariate": 12, "univariate": 41, "pq_draws": 4},
    "tiny": {"bivariate": 4, "univariate": 9, "pq_draws": 2},
}

# workload -> size -> (cache save --n-max, compute args, verify args)
CLI_ROUNDS = {
    "bivariate": {
        "full": ("60", ["bernoulli-poly", "60"],
                 ["--id", "1.4", "--id", "2.1-as-printed", "--n", "1..8"]),
        "tiny": ("10", ["bernoulli-poly", "6"],
                 ["--id", "1.4", "--id", "2.1-as-printed", "--n", "1..3"]),
    },
    "univariate": {
        "full": ("100", ["euler-poly", "60"],
                 ["--id", "1.6", "--id", "3.1", "--n", "2..14", "--p", "0..1", "--q", "0..1"]),
        "tiny": ("10", ["euler-poly", "6"],
                 ["--id", "1.6", "--id", "3.1", "--n", "2..4", "--p", "0..1", "--q", "0..1"]),
    },
    "sequences-cli": {
        "full": ("400", ["euler-poly", "200"], ["--id", "1.1", "--id", "1.3", "--n", "4..40"]),
        "tiny": ("30", ["euler-poly", "10"], ["--id", "1.1", "--id", "1.3", "--n", "4..8"]),
    },
}
WORKLOADS = tuple(CLI_ROUNDS)
# CLI rounds per iteration, each after one import probe.  The in-process
# passes take seconds; more rounds give the commands and the import
# enough samples, spread over the run in the same way.  An iteration
# ends early, after any round, once the run's time is up.
ROUNDS_PER_ITERATION = {"bivariate": 6, "univariate": 6, "sequences-cli": 3}
COMMANDS = ("cache_save", "cache_load", "compute", "verify_cached")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "warm_s": "s",
    "instance_ms.p50": "ms", "instance_ms.tail": "ms",
    **{f"command_s.{c}": "s" for c in COMMANDS},
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"polynomials.{k}.{m}": u for k in ("poly2_mul", "poly2_add", "poly1_mul", "poly1_add")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "polynomials.compose.self_s": "s", "polynomials.coeff_bits.max": "bits",
    "polynomials.self_s": "s",
    "sequences.calls": "count", "sequences.self_s": "s", "sequences.memo_hit_ratio": "ratio",
    "sequences.cache_seed_s": "s", "sequences.bernoulli.max_bits": "bits",
    "arith.calls": "count", "arith.self_s": "s",
    "operators.calls": "count", "operators.self_s": "s",
    "catalog.build.calls": "count", "catalog.build.self_s": "s", "catalog.check_s": "s",
    "catalog.render_s": "s", "catalog.embed_hit_ratio": "ratio", "catalog.self_s": "s",
    "cli.self_s": "s", "cli.cache_read_s": "s", "cli.cache_write_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- inputs -------------------------------------------------------------------

def cli_round(workload: str, size: str) -> list[tuple[str, list[str]]]:
    n_max, compute, verify = CLI_ROUNDS[workload][size]
    return [
        ("cache_save", ["cache", "save", "--cache", CACHE, "--n-max", n_max]),
        ("cache_load", ["cache", "load", "--cache", CACHE]),
        ("compute", ["compute", *compute]),
        ("verify_cached", ["verify", *verify, "--json", "--cache", CACHE]),
    ]


def _deal(rng: random.Random, deck: list, hand: list) -> tuple:
    """The next card of a deck that is reshuffled whenever it runs out, so
    that every card is dealt equally often over whole decks."""
    if not hand:
        hand.extend(rng.sample(deck, len(deck)))
    return hand.pop()


def make_instances(workload: str, seed: int, size: str) -> list[list]:
    """The in-process pass.  The seed sets the order within each n and,
    for univariate, at which n each (p, q) point of 3.1 and each p of ds
    is run.  The points are dealt from reshuffled decks, and the n range
    spans whole decks, so every point runs equally often whatever the
    seed: seeds differ in where the work falls, not in how much there is.
    Instances run in ascending n, so memos fill step by step as in a
    sweep, rather than all at once in whichever large instance the
    shuffle puts first."""
    if workload == "sequences-cli":
        return [["cli", argv] for _, argv in cli_round(workload, size)]
    rng = random.Random(seed)
    n_max = SIZES[size][workload]
    ids = BIVARIATE_IDS if workload == "bivariate" else UNIVARIATE_IDS
    out = [["verify", key, n, None, None]
           for key, n_min in ids.items() for n in range(n_min, n_max + 1)]
    if workload == "univariate":
        pq_hand: list = []
        ds_hand: list = []
        for n in range(2, n_max + 1):
            out += [["verify", "3.1", n, *_deal(rng, PQ_GRID, pq_hand)]
                    for _ in range(SIZES[size]["pq_draws"])]
            out.append(["verify", "ds", n, _deal(rng, DS_P, ds_hand), None])
    rng.shuffle(out)
    out.sort(key=lambda inst: inst[2])  # stable: keeps the shuffle within each n
    return out


# -- environment ----------------------------------------------------------------

def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # setup_s is an import from cached bytecode
    return env


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bepoly").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() or "unknown"


def environment_line(workload: str, seed: int) -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# env workload={workload} seed={seed} python={platform.python_version()} "
            f"nproc={os.cpu_count()} commit={_commit()} src_sha256={_source_digest()} "
            f"loadavg={load}")


# -- child processes ------------------------------------------------------------

def run_worker(env, work: Path, instances: list, warm: bool, traced: bool,
               timeline: hostspeed.Timeline | None = None) -> tuple[tuple, dict]:
    """Spawn a worker; returns ((start, seconds) from spawn to import, its
    result).  The timeline gets readings from before the spawn and from
    the worker's passes."""
    args = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if traced else [])
    if timeline is not None:
        timeline.probe(PROBES_PER_SPAWN)
    t0 = perf_counter()
    proc = subprocess.Popen(args, cwd=work, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if not ready.startswith("ready "):
            raise HarnessError("worker could not import bepoly "
                               f"(is there a src/bepoly under {ROOT}?)")
        module = Path(ready[len("ready "):].strip()).resolve()
        if not module.is_relative_to(SRC.resolve()):
            raise HarnessError(f"bepoly was imported from {module}, outside {SRC}")
        job = {"instances": instances, "warm": warm, "cache_file": CACHE}
        out, _ = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with status {proc.returncode}")
    res = json.loads(out)
    if timeline is not None:
        for part in ("cold", "warm"):
            if part in res:
                timeline.add(res[part]["readings"])
    return (t0, setup), res


def run_command(env, work: Path, argv: list[str], trace_out: Path | None = None,
                timeline: hostspeed.Timeline | None = None):
    """One CLI command in a fresh process: ((start, seconds) from spawn to
    exit, exit code, stdout, cache digest)."""
    if trace_out is None:
        args = [sys.executable, "-m", "bepoly", *argv]
    else:
        args = [sys.executable, str(BENCH / "worker.py"), "--cli-trace", str(trace_out), *argv]
    if timeline is not None:
        timeline.probe(PROBES_PER_SPAWN)
    t0 = perf_counter()
    r = subprocess.run(args, cwd=work, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    dt = perf_counter() - t0
    if timeline is not None:
        timeline.add(hostspeed.probes_after(dt))
    cache = work / CACHE
    digest = sha256(cache.read_bytes()) if cache.exists() else None
    return (t0, dt), r.returncode, r.stdout.decode(), digest


# -- correctness gate -----------------------------------------------------------

def normalize_stdout(text: str) -> str:
    """CLI stdout with the timing field dropped from --json lines."""
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            obj = json.loads(line)
            obj.pop("elapsed_ms", None)
            line = json.dumps(obj)
        lines.append(line)
    return "\n".join(lines)


class Gate:
    """Counts operations and the ones whose output is not the known answer."""

    def __init__(self, golden: dict, workload: str, size: str):
        self.golden = golden
        self.prefix = f"{workload}/{size}/"
        self.command_names = {tuple(argv): name for name, argv in cli_round(workload, size)}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_pass(self, instances: list, results: list) -> None:
        for inst, res in zip(instances, results, strict=True):
            if res[1] == "error":
                self.record(False, f"{inst}: raised {res[2]}")
            elif inst[0] == "cli":
                self.check_cli(inst[1], res[1], res[2], res[3])
            else:
                self.check_verify(inst, res)

    def check_verify(self, inst: list, res: list) -> None:
        _, key, n, p, q = inst
        what = f"verify {key} n={n} p={p} q={q}"
        fail_from = self.golden["expect_fail_from"].get(key)
        expect_holds = fail_from is None or n < fail_from
        if res[1] != expect_holds:
            return self.record(False, f"{what}: holds={res[1]}, expected {expect_holds}")
        if expect_holds:
            return self.record(res[2] == "0", f"{what}: residual {res[2]!r} for a true instance")
        want = self.golden["residual_sha256"].get(f"{key} n={n}")
        self.record(sha256(res[2]) == want, f"{what}: residual digest differs from golden")

    def check_cli(self, argv: list[str], code, stdout: str, cache_digest) -> None:
        want = self.golden["cli"].get(self.prefix + self.command_names[tuple(argv)], {})
        got = {"exit": code, "stdout_sha256": sha256(normalize_stdout(stdout)),
               "cache_sha256": cache_digest}
        bad = [k for k in got if want.get(k, "missing") != got[k]]
        self.record(not bad, f"bepoly {' '.join(argv)}: {', '.join(bad)} differ from golden")


# -- measurement -----------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least ten samples
    above it; the maximum when there are too few samples for that."""
    ordered = sorted(values)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def scaled_times(timeline: hostspeed.Timeline, part: dict) -> list[float]:
    """Each instance's seconds of a worker's cold or warm pass, at the
    reference speed."""
    return [timeline.scale(t0, r[0]) for t0, r in zip(part["starts"], part["results"])]


def _pass(env, work: Path, instances: list, gate: Gate, warm: bool, traced: bool, timeline):
    """One checked worker: ((start, seconds) from spawn to import, its result)."""
    (work / CACHE).unlink(missing_ok=True)
    setup, res = run_worker(env, work, instances, warm, traced, timeline)
    gate.check_pass(instances, res["cold"]["results"])
    if warm:
        gate.check_pass(instances, res["warm"]["results"])
    if not traced:
        gate.record(not res["spans_loaded"], "untraced worker imported spans")
    return setup, res


def _round(env, work: Path, commands: list, gate: Gate, timeline, trace_out: Path | None = None):
    """The CLI commands, checked: [(name, (start, seconds), stdout, span snapshot or None)]."""
    (work / CACHE).unlink(missing_ok=True)
    out = []
    for name, argv in commands:
        if trace_out is not None:
            trace_out.unlink(missing_ok=True)
        dt, code, stdout, digest = run_command(env, work, argv, trace_out, timeline)
        gate.check_cli(argv, code, stdout, digest)
        snapshot = None
        if trace_out is not None:
            if not trace_out.exists():
                raise HarnessError(f"traced bepoly {' '.join(argv)} wrote no span snapshot")
            snapshot = json.loads(trace_out.read_text())
        out.append((name, dt, stdout, snapshot))
    return out


def measure(workload: str, seed: int, seconds: int, traced: bool, size: str,
            golden: dict, work: Path) -> tuple[dict, Gate, str]:
    """Run the closed loop for `seconds`; returns (metrics, gate, a note)."""
    env = pinned_env()
    instances = make_instances(workload, seed, size)
    commands = cli_round(workload, size)
    gate = Gate(golden, workload, size)
    run_worker(env, work, [], False, False)  # compiles bytecode; not timed
    if traced:
        return _measure_traced(env, work, instances, commands, seconds, gate)

    timeline = hostspeed.Timeline()
    setups: list[tuple] = []
    passes: list[dict] = []
    command_runs: dict[str, list[tuple]] = {name: [] for name in COMMANDS}
    deadline = perf_counter() + seconds
    while True:
        setup, res = _pass(env, work, instances, gate, True, False, timeline)
        setups.append(setup)
        passes.append(res)
        for _ in range(ROUNDS_PER_ITERATION[workload]):
            setups.append(run_worker(env, work, [], False, False, timeline)[0])
            for name, interval, _, _ in _round(env, work, commands, gate, timeline):
                command_runs[name].append(interval)
            if perf_counter() >= deadline:
                break
        if perf_counter() >= deadline:
            break
    timeline.probe(PROBES_PER_SPAWN)  # the last interval's readings after it

    samples = {"setup_s": [timeline.scale(*interval) for interval in setups]}
    for name, intervals in command_runs.items():
        samples[f"command_s.{name}"] = [timeline.scale(*interval) for interval in intervals]
    colds = [scaled_times(timeline, res["cold"]) for res in passes]
    samples["wall_s"] = [sum(cold) for cold in colds]
    samples["warm_s"] = [sum(scaled_times(timeline, res["warm"])) for res in passes]
    samples["peak_rss_mb"] = [res["rss_kb"] / 1024 for res in passes]
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    # Each instance's latency is its median over the run's cold passes.
    # The latencies of one pass are noisy, and on univariate its median
    # falls in a sparse stretch between the small and the large instances,
    # where that noise moves it most.
    latencies = [statistics.median(per_pass) * 1000 for per_pass in zip(*colds)]
    metrics["instance_ms.p50"] = statistics.median(latencies)
    metrics["instance_ms.tail"], tail_pct = tail(latencies)
    raw_wall = statistics.median(sum(r[0] for r in res["cold"]["results"]) for res in passes)
    note = (f"# {len(passes)} iterations, medians over them (setup_s: over "
            f"{len(setups)} spawns; command_s.*: over {len(command_runs['compute'])} rounds); "
            f"instance_ms.*: median and p{tail_pct:.1f} of {len(latencies)} instances, "
            f"each at its median over the cold passes\n"
            f"# times at the reference speed ({hostspeed.REF_PROBE_S * 1000:g} ms a reading); "
            f"median of {len(timeline.readings)} readings "
            f"{statistics.median(r[1] for r in timeline.readings) * 1000:.3f} ms; "
            f"unscaled wall_s {raw_wall:.4f} s")
    return metrics, gate, note


def _measure_traced(env, work, instances, commands, seconds, gate):
    import spans

    timeline = hostspeed.Timeline()
    per_iteration: list[dict] = []
    cold_pairs: list[tuple[dict, dict]] = []
    trace_out = work / "trace.json"
    deadline = perf_counter() + seconds
    while True:
        _, res = _pass(env, work, instances, gate, True, True, timeline)
        _, plain = _pass(env, work, instances, gate, False, False, timeline)
        cold_pairs.append((res["cold"], plain["cold"]))
        commands_run = _round(env, work, commands, gate, timeline, trace_out)
        snapshots = [res["trace"]] + [snap for *_, snap in commands_run]
        stdout_bytes = sum(len(stdout.encode()) for _, _, stdout, _ in commands_run)
        per_iteration.append(spans.layer_metrics(snapshots, stdout_bytes))
        if perf_counter() >= deadline:
            break
    metrics = {name: statistics.median(it[name] for it in per_iteration)
               for name in per_iteration[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        sum(scaled_times(timeline, traced)) / sum(scaled_times(timeline, plain))
        for traced, plain in cold_pairs)
    return metrics, gate, f"# {len(per_iteration)} traced iterations, medians over them"


# -- entry point -------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "bepoly" / "__init__.py").is_file():
        print(f"error: no bepoly sources at {SRC / 'bepoly'}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    print(environment_line(args.workload, args.seed), flush=True)
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    try:
        metrics, gate, note = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace), "tiny" if args.tiny else "full",
                                       golden, work)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:32s} {metrics[name]:.6g} {unit}")
    failed = len(gate.failures)
    print(f"{args.workload:14s} {'fail_ratio':32s} {failed}/{gate.attempted} = "
          f"{failed / gate.attempted:.6g}")
    print(note)
    for what in gate.failures[:20]:
        print(f"FAIL {what}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
