"""Self-tests of the benchmark.  Run from the repository root with
``python3 -m pytest perfbench/test_perfbench.py``; they take about 15 s.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import pytest

import checks
import run
from workloads import KNOWN_FAILURES, every_query, queries, q, field

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Cheap queries of each workload, for a smoke run at tiny size.
TINY = {
    "sweep": None,  # every sweep query is small; the first three are taken
    "deep-mass": ["mass --p 7 --f 1 --e 100 --format tsv", "checksum --p 31 --f 1 --format json"],
    "wide-tables": ["count --p 31 --f 1 --e 100 --format json", "count --p 3 --f 1 --e 1000 --format text"],
    "verify": ["oracle-check --p 7 --f 1 --e 1 --format json", "galois-verify --p 3 --format json"],
}


def _tiny(workload: str):
    qs = queries(workload, 0)
    if TINY[workload] is None:
        return qs[:3]
    return [qu for qu in qs if qu.key in TINY[workload]]


def _cli_stdout(argv) -> bytes:
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        from localmass.cli import main
    finally:
        sys.path.pop(0)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().encode()


def test_workload_names_match_benchmark_json():
    from workloads import WORKLOADS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch):
    qs = _tiny(workload)
    assert len(qs) >= 2
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result, lines = run.bench(qs, seconds=0, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    printed = {line.split()[0]: line.split()[2] for line in lines[1:] if not line.startswith("  [")}
    extra = {"fail_ratio": "1"} if trace else {"fail_ratio": "1", "query_p50_s": "s"}
    assert printed == dict({m["name"]: m["unit"] for m in declared}, **extra)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(qs) * (2 if trace else 1)


def test_identity_check_rejects_tampered_mass_total():
    argv = q("mass", *field(3, 1, 1), "--format", "json").argv
    out = _cli_stdout(argv)
    assert checks.identity_problem(argv, out) is None
    obj = json.loads(out)
    obj["total_ramified"] = "4"
    assert "ramified total" in checks.identity_problem(argv, json.dumps(obj).encode())
    obj = json.loads(out)
    obj["per_character"][0]["contribution"] = "5/3"
    assert "sum to" in checks.identity_problem(argv, json.dumps(obj).encode())


def test_identity_check_rejects_tampered_count_table():
    argv = q("count", *field(3, 1, 2), "--format", "tsv").argv
    out = _cli_stdout(argv).decode()
    assert checks.identity_problem(argv, out.encode()) is None
    rows = out.splitlines()
    cells = rows[-1].split("\t")
    cells[3] = str(int(cells[3]) + 1)
    tampered = "\n".join(rows[:-1] + ["\t".join(cells)]) + "\n"
    assert "rebuilt" in checks.identity_problem(argv, tampered.encode())


@pytest.mark.parametrize(
    "argv",
    [
        q("mass", *field(5, 1, 2), "--format", "json").argv,
        q("mass", *field(3, 1, "inf"), "--filter", "group-order=2", "--format", "tsv").argv,
        q("structure", *field(3, 1, "inf"), "--max-level", 9, "--format", "text").argv,
        q("count", *field(3, 2, 2), "--format", "json").argv,
        q("oracle-check", *field(3, 1, 1), "--format", "tsv").argv,
        q("galois-verify", "--p", 3, "--format", "json").argv,
        q("checksum", "--p", 5, "--f", 2, "--format", "text").argv,
        q("tame", "--pprime", 2, "--p", 3, "--format", "json").argv,
        q("mass", *field(4, 1, 1)).argv,
        q("mass", *field(3, 1, 1), "--no-such-flag").argv,
    ],
)
def test_traced_main_stdout_is_byte_identical(argv):
    with run.Launcher(run.child_env()) as launcher:
        plain = launcher.spawn([sys.executable, "-m", "localmass.cli", *argv], 60)
        traced_cmd = [sys.executable, str(run.BENCH / "traced_main.py"), "q1", *argv]
        traced = launcher.spawn(traced_cmd, 60, side_channel=True)
    assert (traced.status, traced.stdout, traced.stderr) == (plain.status, plain.stdout, plain.stderr)
    trace = json.loads(traced.side)
    assert [s[0] for s in trace["spans"] if s[3] is None] == ["cli.main"]
    assert {s[5] for s in trace["spans"]} == {"q1"}


def test_query_timeout_kills_the_child():
    with run.Launcher(run.child_env()) as launcher:
        done = launcher.spawn([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
        after = launcher.spawn([sys.executable, "-c", "print(1)"], 60)
    assert done.status is None and done.wall_s < 10
    assert (after.status, after.stdout) == (0, b"1\n")
    assert checks.problem(q("mass", "--p", 3), None, b"", b"", {}) == ("timed out", False)


def test_bad_input_passes_only_as_the_cli_own_rejection():
    query = q("mass", *field(4, 1, 1), expect_exit=1)
    rejected = b"error: p = 4 is not prime\n"
    crashed = b'Traceback (most recent call last):\n  File "cli.py"\nTypeError: bad operand\n'
    assert checks.problem(query, 1, b"", rejected, {}) == (None, False)
    assert "traceback" in checks.problem(query, 1, b"", crashed, {})[0]
    assert "error:" in checks.problem(query, 1, b"", b"Killed\n", {})[0]
    assert "error:" in checks.problem(query, 1, b"", b"", {})[0]


def test_known_failures_are_recognised_only_as_recorded():
    query = q("count", *field(7, 3, 2000), "--format", "tsv")
    assert query.known_failure == "int-str-limit"
    stderr = b"error: Exceeds the limit (4300 digits) for integer string conversion; use ...\n"
    assert checks.problem(query, 1, b"", stderr, {})[1] is True
    assert checks.problem(query, 1, b"", b"error: something else\n", {})[1] is False
    assert checks.problem(query, 2, b"", stderr, {})[1] is False


def test_digests_cover_every_query_that_is_not_a_known_failure():
    digests = checks.load_digests()
    pool = every_query()
    assert set(KNOWN_FAILURES) <= {qu.key for qu in pool}
    assert {qu.key for qu in pool if qu.known_failure is None} == set(digests)
