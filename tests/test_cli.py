"""CLI contract: commands, exit codes, report formats, cache file handling."""

from __future__ import annotations

import json
import subprocess
import sys
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
