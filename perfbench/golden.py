"""Record the golden outputs that ``run.py`` checks into ``golden.json``.

    python3 perfbench/golden.py

Run it only at a commit whose outputs are trusted (the digests in the
committed file were taken from the seed sources).  Records, in fresh
bepoly processes: the residual string of every failing instance of the
negative control up to the largest bivariate n of any size, and for every workload and size the
exit status, normalized stdout and resulting cache file of each CLI
command of its round.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run

NEG_ID = "2.1-as-printed"
NEG_FAILS_FROM = 2


def main() -> None:
    env = run.pinned_env()
    golden = {"expect_fail_from": {NEG_ID: NEG_FAILS_FROM}, "residual_sha256": {}, "cli": {}}
    run.WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK_PARENT))
    try:
        ns = range(NEG_FAILS_FROM, max(sizes["bivariate"] for sizes in run.SIZES.values()) + 1)
        _, res = run.run_worker(env, work, [["verify", NEG_ID, n, None, None] for n in ns],
                                False, False)
        for n, (_, holds, residual) in zip(ns, res["cold"]["results"], strict=True):
            assert holds is False, f"{NEG_ID} unexpectedly holds at n={n}"
            golden["residual_sha256"][f"{NEG_ID} n={n}"] = run.sha256(residual)
        for workload in run.WORKLOADS:
            for size in run.SIZES:
                (work / run.CACHE).unlink(missing_ok=True)
                for name, argv in run.cli_round(workload, size):
                    _, code, out, digest = run.run_command(env, work, argv)
                    golden["cli"][f"{workload}/{size}/{name}"] = {
                        "exit": code,
                        "stdout_sha256": run.sha256(run.normalize_stdout(out)),
                        "cache_sha256": digest,
                    }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK_PARENT.rmdir()
        except OSError:
            pass
    path = run.GOLDEN
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
