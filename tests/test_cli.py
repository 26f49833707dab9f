"""CLI contract: commands, exit codes, report formats, cache file handling."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from fractions import Fraction

import pytest


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bepoly", *args], capture_output=True, text=True
    )


def test_compute_values():
    assert run_cli("compute", "bernoulli-number", "12").stdout.strip() == "-691/2730"
    assert run_cli("compute", "bernoulli-poly", "2").stdout.strip() == "x^2 - x + 1/6"
    assert run_cli("compute", "harmonic", "4").stdout.strip() == "25/12"
    assert run_cli("compute", "euler-poly", "2").stdout.strip() == "x^2 - x"
    assert run_cli("compute", "bbar", "4").stdout.strip() == "7/240"


def test_compute_usage_errors():
    assert run_cli("compute", "bernoulli-number", "-3").returncode == 2
    assert run_cli("compute", "bernoulli-number", "twelve").returncode == 2
    assert run_cli("compute", "nonsense", "3").returncode == 2


def test_sizes_above_the_limit_are_usage_errors():
    from bepoly import cli

    too_big = str(cli.N_LIMIT + 1)
    for argv in (["compute", "bernoulli-number", too_big],
                 ["verify", "--id", "1.1", "--n", f"4..{too_big}"],
                 ["verify", "--id", "3.1", "--n", "4", "--p", too_big],
                 ["verify", "--id", "3.1", "--n", "4", "--q", f"0..{too_big}"],
                 ["verify-all", "--n-max", too_big],
                 ["cache", "save", "--cache", "unused", "--n-max", too_big]):
        with pytest.raises(SystemExit) as excinfo:
            cli._build_parser().parse_args(argv)
        assert excinfo.value.code == 2
    assert cli._build_parser().parse_args(["verify-all", "--n-max", str(cli.N_LIMIT)])
    proc = run_cli("cache", "info", "--cache", "unused", "--n-max", too_big)
    assert proc.returncode == 2
    assert f"above the limit of {cli.N_LIMIT}" in proc.stderr


def test_verify_one_line_per_instance():
    proc = run_cli("verify", "--id", "1.1", "--n", "4..10")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("ok") for line in lines)


def test_verify_json_schema():
    proc = run_cli("verify", "--id", "1.1", "--n", "4..6", "--json")
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert set(row) >= {"id", "n", "p", "q", "holds", "residual", "elapsed_ms"}
        assert row["id"] == "1.1"
        assert row["holds"] is True
        assert row["residual"] == "0"
        assert isinstance(row["elapsed_ms"], (int, float))


def test_verify_negative_control_fails_with_exit_1():
    proc = run_cli("verify", "--id", "2.1-as-printed", "--n", "2", "--json")
    assert proc.returncode == 1
    row = json.loads(proc.stdout.strip())
    assert row["holds"] is False
    assert row["residual"] == "x*y - 1/2*x"


def test_text_and_json_modes_agree():
    text = run_cli("verify", "--id", "2.1-as-printed", "--n", "1..3")
    as_json = run_cli("verify", "--id", "2.1-as-printed", "--n", "1..3", "--json")
    rows = [json.loads(line) for line in as_json.stdout.strip().splitlines()]
    lines = text.stdout.strip().splitlines()
    assert len(rows) == len(lines) == 3
    for row, line in zip(rows, lines):
        assert line.startswith("ok") == row["holds"]
        if not row["holds"]:
            assert row["residual"] in line


def test_verify_unknown_id_is_usage_error_listing_catalog():
    proc = run_cli("verify", "--id", "9.9", "--n", "4")
    assert proc.returncode == 2
    assert "1.1" in proc.stderr and "ds" in proc.stderr


def test_verify_bad_range_is_usage_error():
    assert run_cli("verify", "--id", "1.1", "--n", "10..4").returncode == 2
    assert run_cli("verify", "--id", "1.1", "--n", "4..x").returncode == 2


def test_verify_with_parameter_ranges():
    proc = run_cli("verify", "--id", "3.1", "--n", "2..4", "--p", "0..1",
                   "--q", "1", "--json")
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert len(rows) == 6
    assert {(r["n"], r["p"], r["q"]) for r in rows} == {
        (n, p, 1) for n in (2, 3, 4) for p in (0, 1)
    }


def test_verify_all_exit_codes():
    assert run_cli("verify-all", "--n-max", "4").returncode == 0
    assert run_cli("verify-all", "--n-max", "4", "--id", "2.1-as-printed").returncode == 1


def test_cache_round_trip(tmp_path):
    path = tmp_path / "bernoulli.cache"
    proc = run_cli("cache", "save", "--cache", str(path), "--n-max", "50")
    assert proc.returncode == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "bepoly-bernoulli-cache v1"
    assert len(lines) == 52  # header + 51 entries
    assert lines[1] == "0\t1/1"
    assert lines[13] == "12\t-691/2730"
    proc = run_cli("cache", "load", "--cache", str(path))
    assert proc.returncode == 0
    assert "highest cached index: 50" in proc.stdout
    proc = run_cli("cache", "info", "--cache", str(path))
    assert proc.returncode == 0
    assert "highest cached index: 50" in proc.stdout


def test_cache_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    from fractions import Fraction

    from bepoly import cli

    path = tmp_path / "bernoulli.cache"
    cli.write_cache_file(path, [Fraction(1), Fraction(-1, 2)])
    before = path.read_bytes()

    class HalfWriter:
        """File stand-in that writes half of its text, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    monkeypatch.setattr(cli, "open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        cli.write_cache_file(path, [Fraction(1), Fraction(-1, 2), Fraction(1, 6)])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bernoulli.cache"]


def test_concurrent_cache_writes_in_one_process_never_collide(tmp_path):
    # threads of one process that write the same path each get a temporary
    # file of their own, so no writer's os.replace moves another's; 4 writers
    # of different tables, switching every microsecond, then the file holds
    # one writer's whole table and no temporary is left
    from bepoly import cli
    from bepoly.sequences import bernoulli_number

    path = tmp_path / "bernoulli.cache"
    tables = [[bernoulli_number(k) for k in range(20 + i)] for i in range(4)]
    errors: list[Exception] = []
    barrier = threading.Barrier(len(tables))

    def writer(table: list) -> None:
        try:
            barrier.wait(timeout=60)
            for _ in range(100):
                cli.write_cache_file(path, table)
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in tables]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert cli.read_cache_file(path) in tables
    assert [p.name for p in tmp_path.iterdir()] == ["bernoulli.cache"]


def test_cache_load_rejects_tampered_entry(tmp_path):
    path = tmp_path / "bernoulli.cache"
    run_cli("cache", "save", "--cache", str(path), "--n-max", "20")
    lines = path.read_text().splitlines()
    lines[13] = "12\t-691/2731"
    path.write_text("\n".join(lines) + "\n")
    proc = run_cli("cache", "load", "--cache", str(path))
    assert proc.returncode == 1
    assert "12" in proc.stderr


def test_cache_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bernoulli.cache"
    path.write_text("something else\n0\t1/1\n")
    proc = run_cli("cache", "load", "--cache", str(path))
    assert proc.returncode == 1
    assert "header" in proc.stderr


def test_verify_reads_and_writes_cache(tmp_path):
    path = tmp_path / "b.cache"
    proc = run_cli("verify", "--id", "1.1", "--n", "4..8", "--cache", str(path))
    assert proc.returncode == 0
    assert path.read_text().splitlines()[0] == "bepoly-bernoulli-cache v1"
    proc = run_cli("verify", "--id", "1.1", "--n", "4..8", "--cache", str(path))
    assert proc.returncode == 0


def test_bench_is_retired():
    proc = run_cli("bench", "--n-max", "30")
    assert proc.returncode == 2
    assert "invalid choice: 'bench'" in proc.stderr


_HEADER = "bepoly-bernoulli-cache v1\n"


@pytest.mark.parametrize("body, count", [
    ("", 0),                                             # the header alone
    ("0\t1/1\n1\t-1/2\n2\t1/6\n", 3),
], ids=["header-only", "three-entries"])
def test_cache_load_reports_the_entries_read_from_the_file(tmp_path, body, count):
    # a fresh process already holds B_0, which the file's count must not include
    path = tmp_path / "short.cache"
    path.write_text(_HEADER + body)
    proc = run_cli("cache", "load", "--cache", str(path))
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"loaded and validated {count} entries;")
    proc = run_cli("cache", "info", "--cache", str(path))
    assert proc.stdout.startswith(f"highest cached index: {count - 1} ")


def test_cache_load_and_info_reject_a_missing_file(tmp_path):
    path = tmp_path / "missing.cache"
    for action in ("load", "info"):
        proc = run_cli("cache", action, "--cache", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
    assert not path.exists()


@pytest.mark.parametrize("body", [
    b"0\t1/0\n",                                         # zero denominator
    b"0\t1/1\n1\t-1/2\xff\n",                            # a non-ASCII byte
    b"0\t" + b"1" * 5000 + b"/1\n",                       # more digits than B_0 can have
    b"".join(b"%d\t0/1\n" % i for i in range(4002)),      # past B_{2 N_LIMIT}
], ids=["zero-denominator", "non-ascii", "huge-integer", "too-long"])
def test_cache_load_rejects_malformed_file_cleanly(tmp_path, body):
    path = tmp_path / "bad.cache"
    path.write_bytes(_HEADER.encode() + body)
    for argv in (["cache", "load"], ["cache", "info"], ["verify", "--id", "1.1", "--n", "4"]):
        proc = run_cli(*argv, "--cache", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


def test_cache_index_limit_boundary(tmp_path):
    from bepoly import cli

    path = tmp_path / "long.cache"
    entries = [f"{i}\t0/1" for i in range(cli.CACHE_INDEX_LIMIT + 1)]
    path.write_text("\n".join([cli.CACHE_HEADER, *entries]) + "\n")
    assert len(cli.read_cache_file(path)) == 2 * cli.N_LIMIT + 1
    path.write_text("\n".join([cli.CACHE_HEADER, *entries, f"{len(entries)}\t0/1"]) + "\n")
    with pytest.raises(cli.CacheIntegrityError, match=f"past the limit of B_{2 * cli.N_LIMIT}"):
        cli.read_cache_file(path)


def test_cli_import_loads_no_unused_modules():
    # dataclasses drags in inspect and ast; json is only needed for --json output.
    # Only modules the import adds count: interpreter startup (site, .pth files)
    # may load some of these before bepoly is imported.
    code = ("import sys; before = set(sys.modules); import bepoly.cli; "
            "added = set(sys.modules) - before; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'json'} & added))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _without_elapsed(stdout: str) -> str:
    return re.sub(r', "elapsed_ms": [^,}]*', "", stdout)


def test_main_called_again_in_one_process_matches_fresh_processes(capsys):
    # the parser is built once and shared by every main() call: a usage error
    # or a failed verify must leave nothing behind for the next call
    from bepoly import cli

    calls = [(["compute", "euler-poly", "12"], 0),
             (["verify", "--id", "1.1", "--n", "5..4"], 2),
             (["verify", "--id", "9.9", "--n", "4"], 2),
             (["verify", "--id", "1.4", "--id", "2.1-as-printed", "--n", "1..4", "--json"], 1),
             (["compute", "euler-poly", "12"], 0)]
    for argv, code in calls:
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert status == fresh.returncode == code, argv
        assert _without_elapsed(out) == _without_elapsed(fresh.stdout), argv
        assert err == fresh.stderr, argv
    assert cli._build_parser() is cli._build_parser()


def test_shared_parser_parses_alike_in_threads():
    # 4 threads parse on the one parser, switching every microsecond, and
    # each namespace equals the one a sequential parse gave (append options
    # included: verify-all's --id default must stay empty)
    from bepoly import cli

    argvs = [["compute", "bernoulli-poly", "7"],
             ["verify", "--id", "1.1", "--id", "3.1", "--n", "2..9", "--p", "0..2",
              "--q", "1", "--json"],
             ["verify-all", "--n-max", "12", "--id", "2.1-as-printed", "--id", "1.4p"],
             ["verify-all", "--cache", "b.cache"],
             ["cache", "save", "--cache", "b.cache", "--n-max", "40"],
             ["cache", "info", "--cache", "b.cache"]]
    expected = [cli._build_parser().parse_args(argv) for argv in argvs]
    errors: list[object] = []
    barrier = threading.Barrier(4)

    def parse(shift: int) -> None:
        try:
            barrier.wait(timeout=60)
            for _ in range(50):
                for k in range(len(argvs)):
                    i = (k + shift) % len(argvs)
                    namespace = cli._build_parser().parse_args(argvs[i])
                    if namespace != expected[i]:
                        errors.append((argvs[i], namespace))
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(shift,)) for shift in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert [cli._build_parser().parse_args(argv) for argv in argvs] == expected
    assert expected[3].extra_ids == []


def test_compute_prints_values_past_the_int_digit_limit(capsys):
    from bepoly import bbar, cli

    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert cli.main(["compute", "bbar", "2000"]) == 0
    out = capsys.readouterr().out.strip()
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored after the command
    with cli._int_digits_unlimited():
        assert len(out) > 4300
        assert Fraction(out) == bbar(2000)


def test_digit_limit_lift_overlapping_in_two_threads():
    # the limit is one per interpreter: thread A lifts it first and leaves while
    # this thread, B, still holds the lift, so B must still print 5001 digits,
    # and the limit is back only once both have left
    from bepoly import cli

    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    a_entered, b_entered = threading.Event(), threading.Event()

    def a() -> None:
        with cli._int_digits_unlimited():
            a_entered.set()
            b_entered.wait(10)

    thread_a = threading.Thread(target=a)
    thread_a.start()
    assert a_entered.wait(10)
    with cli._int_digits_unlimited():
        b_entered.set()
        thread_a.join(10)
        assert not thread_a.is_alive()
        assert len(str(10 ** 5000)) == 5001
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_long_numeric_arguments_are_refused_before_int(monkeypatch, capsys):
    from bepoly import cli

    def short_int(text, *args):
        assert len(text) <= len(str(cli.N_LIMIT)), "int() was handed a long digit string"
        return int(text, *args)

    monkeypatch.setattr(cli, "int", short_int, raising=False)
    long = "9" * 5000
    for argv, message in ((["compute", "bbar", long], "above the limit"),
                          (["verify", "--id", "1.1", "--n", f"4..{long}"], "above the limit"),
                          (["verify", "--id", "1.1", "--n", f"{long}..4"], "empty range")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cache_file_round_trip_past_the_int_digit_limit(tmp_path):
    from bepoly import cli

    path = tmp_path / "big.cache"
    index = 3500  # B_3500 itself has about 8,000 digits
    big = Fraction(-(7 ** 10650), 3 ** 20)  # a 9,000-digit numerator
    values = [Fraction(0)] * index + [big]
    cli.write_cache_file(path, values)
    assert cli.read_cache_file(path) == values
    too_big = Fraction(10 ** (3 * index + 10))  # past the bound for this index
    cli.write_cache_file(path, values[:-1] + [too_big])
    with pytest.raises(cli.CacheIntegrityError, match=f"malformed entry at index {index}"):
        cli.read_cache_file(path)


# -- loads checked against the table the process holds -----------------------------

@pytest.fixture
def fresh_table(monkeypatch):
    """A new process-wide Bernoulli table for one test, so that what the test
    holds does not depend on the tests before it (its values are the same)."""
    from bepoly import sequences

    table = sequences.BernoulliCache()
    monkeypatch.setattr(sequences, "_CACHE", table)
    return table


def _main_in_process(capsys, *argv: str) -> tuple:
    from bepoly import cli

    try:
        status = cli.main(list(argv))
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    return status, out, err


def test_cache_load_of_the_held_table_parses_nothing(tmp_path, fresh_table, monkeypatch, capsys):
    # the file save wrote lists only entries the process holds, each in the
    # process's own text, so load and verify --cache accept it without the
    # parser or the recomputation, and verify writes back the same bytes
    from bepoly import cli, sequences

    path = tmp_path / "b.cache"
    assert _main_in_process(capsys, "cache", "save", "--cache", str(path), "--n-max", "40")[0] == 0
    saved = path.read_bytes()
    calls = []
    monkeypatch.setattr(cli, "read_cache_file", lambda *a: calls.append("read_cache_file"))
    monkeypatch.setattr(sequences.BernoulliCache, "seed", lambda *a: calls.append("seed"))
    assert _main_in_process(capsys, "cache", "load", "--cache", str(path)) == (
        0, "loaded and validated 41 entries; highest cached index: 40\n", "")
    status, _, err = _main_in_process(capsys, "verify", "--id", "1.1", "--n", "4..5",
                                      "--cache", str(path))
    assert (status, err) == (0, "verified 2 instance(s): 2 ok, 0 failed, 0 skipped\n")
    assert calls == []
    assert path.read_bytes() == saved
    assert fresh_table.highest == 40


def _held_variants(good: list[str]) -> dict:
    """Cache files, as lists of lines, that differ from B_0..B_20 as saved."""
    from bepoly import cli
    from bepoly.sequences import BernoulliCache

    longer = BernoulliCache()
    longer.get(40)
    return {
        "non-canonical": good[:3] + ["2\t2/12"] + good[4:],
        "tampered": good[:13] + ["12\t-691/2731"] + good[14:],
        "tampered-then-malformed": good[:13] + ["12\t-691/2731"] + good[14:18] + ["17\t0/x"]
                                   + good[19:],
        "longer-than-the-table": good[:1] + [cli._cache_line(m, v)
                                             for m, v in enumerate(longer.values())],
    }


@pytest.mark.parametrize("variant, error", [
    ("non-canonical", ""),
    ("tampered", "error: cache entry 12 is -691/2731, recomputation gives -691/2730\n"),
    ("tampered-then-malformed", "error: {path}: malformed entry at index 17\n"),
    ("longer-than-the-table", ""),
], ids=["non-canonical", "tampered", "tampered-then-malformed", "longer-than-the-table"])
def test_cache_files_unlike_the_held_table_load_as_in_a_fresh_process(
        tmp_path, fresh_table, monkeypatch, capsys, variant, error):
    # with B_0..B_20 held, a file whose text is not the table's own is parsed
    # from the start: stdout, stderr, exit status and the rewritten file are
    # those of a fresh process, which holds nothing; a longer file computes
    # only the tangent columns the table lacks, those of B_22..B_40
    from bepoly import sequences

    path = tmp_path / "b.cache"
    _main_in_process(capsys, "cache", "save", "--cache", str(path), "--n-max", "20")
    lines = _held_variants(path.read_text().splitlines())[variant]
    text = "\n".join(lines) + "\n"
    columns = []
    build = sequences._tangent_column
    monkeypatch.setattr(sequences, "_tangent_column", lambda c: (columns.append(len(c)),
                                                                 build(c)))
    for argv in (["cache", "load"], ["verify", "--id", "1.1", "--n", "4..5", "--json"]):
        path.write_text(text)
        status, out, err = _main_in_process(capsys, *argv, "--cache", str(path))
        held = (status, _without_elapsed(out), err, path.read_bytes())
        path.write_text(text)
        proc = run_cli(*argv, "--cache", str(path))
        fresh = (proc.returncode, _without_elapsed(proc.stdout), proc.stderr, path.read_bytes())
        assert held == fresh, argv
        assert status == (1 if error else 0), argv
        if error:
            assert err == error.format(path=path)
    expected = list(range(10, 20)) if variant == "longer-than-the-table" else []
    assert columns == expected


def test_held_table_writer_gives_the_values_writers_bytes(tmp_path, fresh_table):
    # the memoised lines of B_0..B_1000 against write_cache_file on the values
    from bepoly import cli

    fresh_table.get(1000)
    assert cli._write_table(tmp_path / "held.cache") == 1001
    cli.write_cache_file(tmp_path / "values.cache", fresh_table.values())
    assert (tmp_path / "held.cache").read_bytes() == (tmp_path / "values.cache").read_bytes()


def test_every_line_to_b1000_passes_the_parsers_digit_bound(tmp_path, fresh_table):
    # the held-table check accepts the process's own lines without the
    # parser's 3k + 10 digit test, which is sound only while every canonical
    # B_k line passes it; the parser reads back each of B_0..B_1000
    from bepoly import cli

    fresh_table.get(1000)
    cli.write_cache_file(tmp_path / "b.cache", fresh_table.values())
    assert cli.read_cache_file(tmp_path / "b.cache") == fresh_table.values()
