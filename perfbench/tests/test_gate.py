"""Tests of the benchmark itself: its metrics, its gate's teeth, its refusal
to run without sources.

    python3 -m pytest perfbench/tests

Every run here uses ``--tiny`` sizes and ``--seconds 1``.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((BENCH / "golden.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace=0, bench=BENCH):
    args = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(args, cwd=bench.parent, capture_output=True, text=True, timeout=170)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _checkout(tmp_path, with_src=True):
    """A copy of the benchmark (and of ``src``) in tmp_path; returns its benchmark dir."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path / BENCH.name


def _with_golden(tmp_path, edit):
    """A checkout copy whose golden.json has been changed by `edit`."""
    bench = _checkout(tmp_path)
    golden = json.loads(json.dumps(GOLDEN))
    edit(golden)
    (bench / "golden.json").write_text(json.dumps(golden))
    return bench


def _assert_gate_fails(proc):
    assert proc.returncode == 1, proc.stderr
    result = _result(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_flipped_expectation_fails_the_run(tmp_path):
    # 1.4 holds for every n, so expecting it to fail must trip the gate
    bench = _with_golden(tmp_path, lambda g: g["expect_fail_from"].update({"1.4": 2}))
    _assert_gate_fails(_run("bivariate", bench=bench))


def test_dropped_negative_control_expectation_fails_the_run(tmp_path):
    bench = _with_golden(tmp_path, lambda g: g["expect_fail_from"].clear())
    _assert_gate_fails(_run("bivariate", bench=bench))


def test_perturbed_residual_digest_fails_the_run(tmp_path):
    def edit(g):
        g["residual_sha256"]["2.1-as-printed n=3"] = "0" * 64
    _assert_gate_fails(_run("bivariate", bench=_with_golden(tmp_path, edit)))


@pytest.mark.parametrize("trace", [0, 1])
def test_perturbed_cli_digest_fails_the_run(tmp_path, trace):
    def edit(g):
        g["cli"]["sequences-cli/tiny/compute"]["stdout_sha256"] = "0" * 64
    _assert_gate_fails(_run("sequences-cli", trace, bench=_with_golden(tmp_path, edit)))


def test_wrong_exit_code_fails_the_run(tmp_path):
    def edit(g):
        g["cli"]["bivariate/tiny/verify_cached"]["exit"] = 0
    _assert_gate_fails(_run("bivariate", bench=_with_golden(tmp_path, edit)))


def test_refuses_to_run_without_sources(tmp_path):
    proc = _run(WORKLOADS[0], bench=_checkout(tmp_path, with_src=False))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_univariate_seeds_run_every_point_equally_often():
    sys.path.insert(0, str(BENCH))
    import run

    for seed in (1, 2):
        instances = run.make_instances("univariate", seed, "full")
        pq = Counter((i[3], i[4]) for i in instances if i[1] == "3.1")
        ds = Counter(i[3] for i in instances if i[1] == "ds")
        assert set(pq) == set(run.PQ_GRID) and len(set(pq.values())) == 1
        assert set(ds) == set(run.DS_P) and len(set(ds.values())) == 1
