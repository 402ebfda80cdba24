"""CLI dispatch, formats, determinism, and exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import localmass.cli as cli
import localmass.cli_count as cli_count
import localmass.cli_structure as cli_structure
import localmass.mass as mass
import localmass.model as model
import localmass.oracle as oracle
import localmass.permgroup as permgroup
import localmass.rationals as rationals
from localmass.model import INFINITE_E, PRIME_TEST_BOUND, LocalField, trivial_char
from localmass.rationals import format_rational
from reference import run_cli

ROOT = Path(__file__).resolve().parents[1]


def test_mass_json_equal_char(capsys):
    code, out, _ = run_cli(capsys, "mass", "--p", "3", "--f", "1", "--e", "inf", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["per_vbar"] == {"0": "9/20", "1": "21/20"}
    assert obj["total_ramified"] == "3"
    assert obj["grand_total"] == "4"


def test_mass_text_mixed_char(capsys):
    code, out, _ = run_cli(capsys, "mass", "--p", "3", "--f", "1", "--e", "1")
    assert code == 0
    values = [line.split()[-1] for line in out.splitlines() if line.startswith("  char")]
    assert values == ["4/3", "1", "1/3", "1/3"]


def test_mass_filter(capsys):
    code, out, _ = run_cli(
        capsys, "mass", "--p", "3", "--f", "1", "--e", "inf",
        "--filter", "group-order=2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["contribution"] == "51/20"


def test_mass_empty_filter_is_rejected(capsys):
    code, out, err = run_cli(capsys, "mass", "--p", "3", "--e", "1", "--filter", "")
    assert (code, out, err) == (1, "", "error: unknown filter ''\n")


def test_mass_filter_requires_omega_in_mixed_char(capsys):
    code, _, err = run_cli(
        capsys, "mass", "--p", "3", "--f", "1", "--e", "1", "--filter", "group-order=2"
    )
    assert code == 1
    assert "omega class required" in err
    code, out, _ = run_cli(
        capsys, "mass", "--p", "3", "--f", "1", "--e", "1",
        "--filter", "group-order=2", "--omega-a", "1", "--omega-b", "1",
        "--format", "json",
    )
    assert code == 0
    # Everything except the cyclic class (1/3): 4/3 + 1 + 1/3.
    assert json.loads(out)["contribution"] == "8/3"


@pytest.mark.parametrize(
    "argv",
    [
        # A nontrivial cyclotomic class in equal characteristic.
        ("--p", "5", "--e", "inf", "--omega-a", "1", "--omega-b", "1"),
        # Valuation 0, but the cyclotomic class has valuation e mod p-1 = 1.
        ("--p", "3", "--e", "1", "--omega-a", "0", "--omega-b", "0"),
    ],
)
def test_mass_rejects_contradictory_omega(capsys, argv):
    code, out, err = run_cli(capsys, "mass", *argv, "--filter", "unramified-closure")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


#: Q_3(sqrt(-3)), which contains the cube roots of unity.
MU3 = ("--p", "3", "--f", "1", "--e", "2", "--omega-a", "0", "--omega-b", "0")


def test_count_roots_of_unity_field(capsys):
    # Every top-level extension of Q_3(sqrt(-3)) is cyclic, hence its own
    # conjugacy class; without the coordinates the count is Q_3(sqrt(3))'s.
    code, out, _ = run_cli(capsys, "count", *MU3, "--format", "tsv")
    assert code == 0
    assert out.splitlines()[-1].split("\t") == ["6", "0", "27", "27", "27"]
    code, out, _ = run_cli(capsys, "count", *MU3[:6], "--format", "tsv")
    assert code == 0
    assert out.splitlines()[-1].split("\t") == ["6", "0", "9", "27", "9"]


def test_oracle_check_roots_of_unity_field(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", *MU3, "--format", "json")
    assert code == 0
    trivial = [c for c in json.loads(out)["classes"] if c["distinguished"] == "trivial"]
    assert [(c["vbar"], c["mass"], c["reference"]) for c in trivial] == [(0, "13/27", "full")]


@pytest.mark.parametrize("command", ["structure", "count", "oracle-check"])
def test_field_commands_reject_contradictory_omega(capsys, command):
    # Valuation 0, but the cyclotomic class has valuation e mod p-1 = 1.
    code, out, err = run_cli(
        capsys, command, "--p", "3", "--e", "1", "--omega-a", "0", "--omega-b", "0"
    )
    assert code == 1 and out == ""
    assert err == "error: cyclotomic coordinates must have valuation e mod p-1\n"


def test_structure_json(capsys):
    code, out, _ = run_cli(capsys, "structure", "--p", "3", "--f", "1", "--e", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total_dim"] == 6
    assert obj["blocks"][0] == {"level": 0, "vbar": 1, "dim": 1, "distinguished": "omega"}
    assert {"level", "vbar", "dim", "distinguished"} == set(obj["blocks"][1])


def test_structure_requires_bound_for_equal_char(capsys):
    code, _, err = run_cli(capsys, "structure", "--p", "3", "--f", "1", "--e", "inf")
    assert code == 1
    assert "max_level" in err


def test_count_tsv(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--f", "1", "--e", "1", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["level", "vbar", "lines", "extensions", "conjugacy_classes"]
    assert rows[1] == ["0", "1", "1", "1", "1"]
    assert ["3", "0", "3", "9", "3"] in rows


def test_count_vbar_filter(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--p", "3", "--f", "1", "--e", "inf",
        "--max-level", "9", "--vbar", "0", "--format", "tsv",
    )
    assert code == 0
    levels = [line.split("\t")[0] for line in out.splitlines()[1:]]
    assert levels == ["0", "2", "4", "8"]


def _held_count_json(field, max_level=None, vbar=None):
    """Test-local reference: the count rendered from the whole held table,
    its level keys sorted as strings by ``json.dumps``."""
    levels = {str(level): rec._asdict() for level, rec in mass.count_table(field, max_level, vbar).items()}
    e = "inf" if field.equal_char else field.e
    head = {"p": field.p, "f": field.f, "e": e, "q": field.q}
    return json.dumps({"field": head, "levels": levels}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "field, max_level, vbar",
    [
        (LocalField(3, 1, 3), None, None),  # top level 9
        (LocalField(2, 1, 5), None, None),  # top level 10
        (LocalField(3, 1, 4), None, None),  # 12
        (LocalField(5, 1, 20), None, None),  # 100
        (LocalField(7, 1, 143), None, None),  # 1001
        (LocalField(5, 1, 20), None, 1),
        (LocalField(7, 1, 143), None, 0),
        (LocalField(7, 1, 143), None, 4),
        (LocalField(3, 1, 34, (0, 0)), None, None),  # a cyclotomic level-0 row, top 102
        (LocalField(3, 1, 34, (0, 0)), None, 0),
        (LocalField(3, 2, 34), None, None),
        (LocalField(5, 1, INFINITE_E), 0, None),
        (LocalField(5, 1, INFINITE_E), 9, None),
        (LocalField(5, 1, INFINITE_E), 10, None),
        (LocalField(5, 1, INFINITE_E), 99, 2),
        (LocalField(5, 1, INFINITE_E), 100, None),
        (LocalField(3, 1, INFINITE_E), 1000, None),
        (LocalField(7, 1, 200), 999, None),  # below the top level 1400
        (LocalField(7, 1, 200), 1000, None),
        (LocalField(11, 1, 1), 3, 5),  # no row at all
    ],
)
def test_count_json_orders_the_level_keys_as_the_held_table_did(capsys, field, max_level, vbar):
    argv = ["count", "--p", str(field.p), "--f", str(field.f), "--format", "json"]
    argv += ["--e", "inf" if field.equal_char else str(field.e)]
    if field.omega is not None and not field.equal_char:
        argv += ["--omega-a", str(field.omega[0]), "--omega-b", str(field.omega[1])]
    if max_level is not None:
        argv += ["--max-level", str(max_level)]
    if vbar is not None:
        argv += ["--vbar", str(vbar)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == _held_count_json(field, max_level, vbar)


def test_tame(capsys):
    code, out, _ = run_cli(capsys, "tame", "--pprime", "2", "--p", "3", "--f", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mass"] == "2" and obj["omega_trivial"] is True
    code, _, err = run_cli(capsys, "tame", "--pprime", "3", "--p", "3", "--f", "1")
    assert code == 1
    assert "wild-case" in err


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the block with TimeoutError once it has run for ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_tame_with_an_18_digit_prime_is_immediate(capsys):
    # Primality of p used to be trial division, hours of it at this size.
    with _deadline(1):
        code, out, _ = run_cli(capsys, "tame", "--pprime", "2", "--p", "1000000000000000003")
    assert code == 0
    assert out.startswith("degree-2 extensions over q=1000000000000000003: 2 ramified")


def test_primality_past_its_exact_range_exits_1(capsys):
    with _deadline(1):
        code, out, err = run_cli(capsys, "tame", "--pprime", "2", "--p", str(PRIME_TEST_BOUND))
    assert code == 1 and out == ""
    assert err == f"error: primality is decided only below {PRIME_TEST_BOUND}\n"


def test_tame_prime_above_its_bound_exits_1_at_once(capsys):
    # The order of q mod p' is a scan of up to p' - 1 powers.
    with _deadline(1):
        code, _, _ = run_cli(capsys, "tame", "--pprime", "99991", "--p", "3")
        assert code == 0
        code, out, err = run_cli(capsys, "tame", "--pprime", "100000007", "--p", "3")
    assert code == 1 and out == ""
    assert err == f"error: p' = 100000007 exceeds the tame bound {mass.TAME_PRIME_LIMIT}\n"


def test_tame_over_a_huge_residue_field_is_immediate(capsys):
    # q = 2**(10**6) is reduced mod p' once, not at each step of the order scan.
    with _deadline(1):
        report = mass.tame_mass(LocalField(2, 10**6, INFINITE_E), 99989)
        assert report.deg_kprime == 24997
        code, out, err = run_cli(capsys, "tame", "--pprime", "99989", "--p", "2", "--f", "1000000")
    # Printing q then meets the int-to-str limit: a clean exit 1.
    assert code == 1 and out == ""
    assert err.startswith("error: Exceeds the limit")


@pytest.mark.parametrize(
    "command", [("tame", "--pprime", "2"), ("checksum",)], ids=["tame", "checksum"]
)
def test_q_far_past_the_int_str_limit_exits_1_at_once(capsys, command):
    # q = 3**30000000 would take seconds to compute; its digit count does not.
    with _deadline(1):
        code, out, err = run_cli(capsys, *command, "--p", "3", "--f", "30000000")
    assert code == 1 and out == ""
    assert err == (
        "error: Exceeds the limit (4300 digits) for integer string conversion:"
        " q = 3**30000000 has 14313638 digits\n"
    )


def test_count_at_a_ten_digit_prime_is_immediate(capsys):
    # Five rows of p - 1 blocks each; the walk counts the blocks, so no
    # tuple of p - 1 markers is built.
    with _deadline(1):
        code, out, _ = run_cli(capsys, "count", "--p", "1000000007", "--e", "1", "--max-level", "4")
    assert code == 0
    assert out.splitlines()[2].split() == [
        "level", "1", "vbar", "0", "lines", "1000000006",
        "extensions", "1000000013000000042", "classes", "1000000006",
    ]


def test_count_over_ten_thousand_levels_is_quick(capsys):
    with _deadline(0.3):
        code, out, _ = run_cli(capsys, "count", "--p", "10007", "--e", "1", "--format", "tsv")
    # A header, then level 0, the 10 006 levels below the top, and the top.
    assert code == 0 and len(out.splitlines()) == 1 + 1 + 10006 + 1


@pytest.mark.parametrize(
    "flags",
    [("--filter", "unramified-closure"),
     ("--filter", "group-order=2", "--omega-a", "1", "--omega-b", "0")],
    ids=["unramified-closure", "group-order"],
)
def test_closure_filters_at_p_1009_are_quick(capsys, flags):
    # The filters count the characters they keep instead of listing 1008**2.
    with _deadline(0.1):
        code, out, _ = run_cli(capsys, "mass", "--p", "1009", "--e", "1", *flags, "--format", "tsv")
    assert code == 0 and out.startswith("filter\tcontribution\n")


@pytest.mark.parametrize(
    "field", [("--e", "inf", "--max-level", "30000000"), ("--e", "10000000")], ids=["inf", "e"]
)
def test_oracle_check_beyond_its_scale_exits_1_at_once(capsys, field):
    with _deadline(1):
        code, out, err = run_cli(capsys, "oracle-check", "--p", "3", *field)
    assert code == 1 and out == ""
    assert err == "error: oracle scale exceeded: dimension >= 13 > DIM_LIMIT = 12\n"


def test_oracle_check_past_the_vector_cap_exits_1_at_once(capsys):
    # Dimension 12 is within DIM_LIMIT, but 13**12 vectors would never finish.
    with _deadline(1):
        code, out, err = run_cli(capsys, "oracle-check", "--p", "13", "--e", "inf", "--max-level", "140")
    assert code == 1 and out == ""
    assert err == "error: oracle scale exceeded: vectors >= 13**7 > VECTOR_LIMIT = 10000000\n"


@pytest.mark.parametrize(
    "argv, rows",
    [
        (("--p", "1000000007", "--e", "inf", "--max-level", "2", "--format", "tsv"), 2000000013),
        (("--p", "10007", "--e", "1", "--format", "tsv"), 1 + 10006 * 10006 + 1),
        (("--p", "3", "--e", "inf", "--max-level", "100000000"), 133333335),
    ],
    ids=["ten-digit-p", "p-10007", "p-3-deep"],
)
def test_structure_past_the_row_cap_exits_1_at_once(capsys, argv, rows):
    # The rows are counted in closed form before any output.  The ten-digit
    # p joined a level's 10**9 rows into one string and died of a
    # MemoryError traceback; p = 10007 wrote 1.68 GB; p = 3 walked 5 million
    # levels, 2 s, before it passed the cap.  The message names all the
    # rows: 1 + 2(10**9 + 6), 1 + 10006**2 + 1 and 1 + 2(10**8 - 10**8 // 3).
    with _deadline(1):
        code, out, err = run_cli(capsys, "structure", *argv)
    assert code == 1 and out == ""
    assert err == f"error: structure scale exceeded: rows = {rows} > ROW_LIMIT = 10000000\n"


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_structure_chunks_write_the_bytes_of_one_join(capsys, monkeypatch, fmt):
    # Each level at p = 2003 has 2 001 or 2 002 generic blocks: two chunks by
    # default, hundreds of 7 rows, or one join of them all.
    argv = ("structure", "--p", "2003", "--e", "inf", "--max-level", "3", "--format", fmt)
    outs = set()
    for rows in (cli_structure._REPEAT_ROWS, 7, 10_000):
        monkeypatch.setattr(cli_structure, "_REPEAT_ROWS", rows)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outs.add(out)
    [out] = outs
    if fmt == "tsv":
        assert out.count("\n") == 1 + 1 + 3 * 2002


def _oracle_walks(capsys, monkeypatch, *argv):
    """The ``(p, dim)`` of each vector walk an ``oracle-check`` query makes."""
    real = oracle._blocks
    walks = []

    def recorded(p, dim):
        walks.append((p, dim))
        return real(p, dim)

    monkeypatch.setattr(oracle, "_blocks", recorded)
    oracle._TALLIES.clear()
    code, _, _ = run_cli(capsys, "oracle-check", *argv)
    assert code == 0
    return walks


def test_oracle_check_walks_each_space_once(capsys, monkeypatch):
    # At (5, 1, inf) to level 40 the five classes have dimensions 9, 8, 8,
    # 8, 8: F_5**8 is the tail of F_5**9, so one walk serves all five.
    argv = ("--p", "5", "--e", "inf", "--max-level", "40")
    assert _oracle_walks(capsys, monkeypatch, *argv) == [(5, 9)]


def test_oracle_check_walks_one_space_per_p(capsys, monkeypatch):
    # At (3, 1, inf) to level 33 the three classes have dimensions 12, 11, 11.
    argv = ("--p", "3", "--e", "inf", "--max-level", "33")
    assert _oracle_walks(capsys, monkeypatch, *argv) == [(3, 12)]


def test_oracle_check_near_the_dimension_cap_is_quick(capsys):
    # F_5**9 holds 1 953 125 vectors, each read in full by the column walk;
    # tagged one vector at a time by bisect_right, this query took about
    # 0.37 s on a 2-vCPU host, and column by column about 0.08 s.
    oracle._TALLIES.clear()
    with _deadline(0.3):
        code, _, _ = run_cli(capsys, "oracle-check", "--p", "5", "--e", "inf", "--max-level", "40")
    assert code == 0


def test_oracle_check_at_a_seven_digit_prime_rejects_after_one_class(capsys):
    # The first class is already past the vector cap; the classes come one
    # at a time, so the other p of them are never built.
    with _deadline(1):
        code, out, err = run_cli(capsys, "oracle-check", "--p", "1000003", "--e", "1")
    assert code == 1 and out == ""
    assert err == "error: oracle scale exceeded: vectors >= 1000003**2 > VECTOR_LIMIT = 10000000\n"


def test_oracle_check_of_one_valuation_at_a_seven_digit_prime_is_quick(capsys):
    # The classes of the asked valuation alone are built, and only the
    # trivial class's sum computes the top-level mass: scanning the 10**6
    # classes from valuation 0, and q**-(p-1) computed for the generic
    # class and dropped, took 4.3 to 4.9 s as a subprocess on a 2-vCPU host.
    expected = "oracle vs formulas over p=1000003 f=1 e=1 (q=1000003), levels <= 1000003\n"
    with _deadline(2):
        code, out, _ = run_cli(capsys, "oracle-check", "--p", "1000003", "--e", "1", "--vbar", "-1")
    assert code == 0
    assert out == expected + "  vbar 1000001  none     mass 1/1000003  == full formula\n"


def test_oracle_check_bound_far_above_the_top_level_is_immediate(capsys):
    with _deadline(1):
        code, out, _ = run_cli(capsys, "oracle-check", "--p", "3", "--e", "1", "--max-level", "30000000")
    assert code == 0
    assert out.startswith("oracle vs formulas over p=3 f=1 e=1 (q=3), levels <= 30000000\n")


def test_checksum(capsys):
    code, out, _ = run_cli(capsys, "checksum", "--p", "3", "--f", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True and obj["lhs"] == "80/3"
    code, out, err = run_cli(capsys, "checksum", "--p", "2")
    assert (code, out) == (1, "")
    assert err == "error: checksum at p = 2: defined for primes p >= 3, pass an odd prime\n"


def test_oracle_check(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--p", "3", "--f", "1", "--e", "1", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert all(entry["exact_match"] for entry in obj["classes"])
    code, _, err = run_cli(capsys, "oracle-check", "--p", "3", "--f", "1", "--e", "inf")
    assert code == 1
    assert "max-level" in err


@pytest.mark.parametrize("bad", [("--e", "inf"), ("--e", "1", "--max-level", "-1")])
def test_bound_errors_match_across_commands(capsys, bad):
    lines = set()
    for command in ("structure", "count", "oracle-check"):
        code, out, err = run_cli(capsys, command, "--p", "3", *bad)
        assert code == 1 and out == ""
        lines.add(err.splitlines()[-1])
    assert len(lines) == 1 and lines.pop().startswith("error: ")


@pytest.mark.parametrize("f", ["-1", "0"])
@pytest.mark.parametrize("command", [("tame", "--pprime", "2"), ("checksum",)])
def test_bad_residue_degree_exits_1(capsys, command, f):
    code, out, err = run_cli(capsys, *command, "--p", "3", "--f", f)
    assert code == 1 and out == ""
    assert err == f"error: residue degree f = {f} must be an integer >= 1\n"


def _oracle_classes(capsys, *bound):
    argv = ("oracle-check", "--p", "3", "--e", "1", *bound, "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    return obj["max_level"], obj["classes"]


def test_oracle_check_mixed_char_bounds_around_the_top_level(capsys):
    # At (3, 1, 1) the top level is 3: a bound above it gives the full
    # contributions, a bound below it leaves the top-level line out.
    field = LocalField(3, 1, 1)
    _, full = _oracle_classes(capsys)
    bound, above = _oracle_classes(capsys, "--max-level", "10")
    assert bound == 10
    assert {entry["reference"] for entry in above} == {"full"}
    assert [entry["mass"] for entry in above] == [entry["mass"] for entry in full]
    _, below = _oracle_classes(capsys, "--max-level", "2")
    assert {entry["reference"] for entry in below} == {"truncated"}
    trivial = next(entry["mass"] for entry in below if entry["distinguished"] == "trivial")
    expected = mass.char_contribution(field, trivial_char()) - mass.tres_term(field)
    assert Fraction(trivial) == expected


def test_oracle_mismatch_names_its_inputs(capsys, monkeypatch):
    real = oracle.oracle_mass
    monkeypatch.setattr(oracle, "oracle_mass", lambda *args: real(*args) + Fraction(1, 3))
    code, out, err = run_cli(capsys, "oracle-check", "--p", "3", "--e", "1", "--max-level", "2")
    assert code == 2 and out == ""
    assert "internal identity failure" in err
    assert "(trivial) over p=3 f=1 e=1 (q=3), levels <= 2" in err


def test_oracle_line_split_failure_names_its_inputs(capsys, monkeypatch):
    # One vector too many leaves a level count that p - 1 = 2 does not divide.
    real = oracle._blocks

    def one_extra(p, dim):
        for columns in real(p, dim):
            yield columns
        yield [column[-1:] for column in columns]  # the last vector again

    monkeypatch.setattr(oracle, "_blocks", one_extra)
    # A tally kept from an earlier test would hide the patch, and the one
    # made here must not outlive it.
    oracle._TALLIES.clear()
    try:
        code, out, err = run_cli(capsys, "oracle-check", "--p", "3", "--e", "1", "--vbar", "1")
    finally:
        oracle._TALLIES.clear()
    assert code == 2 and out == ""
    assert "do not split into lines for CharClass(valuation=1" in err
    assert "over LocalField(p=3, f=1, e=1" in err


def test_galois_verify(capsys):
    code, out, _ = run_cli(capsys, "galois-verify", "--p", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["normalizer"]["normalizer_order"] == 6
    assert obj["solvability_criterion"]["criterion_holds"] is True
    assert obj["index_p_subgroups"]["holds"] is True


def test_galois_verify_beyond_its_scale_exits_1(capsys):
    code, out, err = run_cli(capsys, "galois-verify", "--p", "11")
    assert code == 1 and out == ""
    assert err == "error: verification scale exceeded: degree 11 > MAX_DEGREE = 7\n"


def test_galois_verify_identity_failure_names_p_and_both_sides(capsys, monkeypatch):
    monkeypatch.setattr(permgroup, "is_solvable", lambda gens: False)
    permgroup.transitive_family.cache_clear()
    try:
        code, out, err = run_cli(capsys, "galois-verify", "--p", "5")
    finally:
        permgroup.transitive_family.cache_clear()  # drop the records built unsolvable
    assert code == 2 and out == ""
    assert err == (
        "internal identity failure: criterion fails at p = 5, order 20:"
        " solvable=False but sylow_p_count=1\n"
    )


@pytest.mark.parametrize("p", [0, 1, -3, 4, 6])
def test_galois_verify_rejects_nonprime(capsys, p):
    code, out, err = run_cli(capsys, "galois-verify", "--p", str(p))
    assert code == 1 and out == ""
    assert err == f"error: p = {p} is not prime\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("structure", "--p", "3", "--e", "inf"),
        ("structure", "--p", "3", "--e", "1"),
        ("count", "--p", "3", "--e", "inf"),
        ("count", "--p", "3", "--e", "1"),
        ("oracle-check", "--p", "3", "--e", "inf"),
        ("oracle-check", "--p", "3", "--e", "1"),
    ],
)
def test_negative_max_level_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--max-level", "-5")
    assert code == 1 and out == ""
    assert "must be >= 0, got -5" in err


def test_byte_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "mass", "--p", "5", "--f", "1", "--e", "2", "--format", "json"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_invalid_parameters_exit_1(capsys):
    code, _, err = run_cli(capsys, "mass", "--p", "3", "--f", "1", "--e", "bogus")
    assert code == 1 and "inf" in err
    code, _, err = run_cli(capsys, "mass", "--p", "4", "--f", "1", "--e", "1")
    assert code == 1 and "not prime" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["tame", "--p", "3", "--f", "1"])  # missing --pprime
    assert exc.value.code == 1


def test_internal_identity_failure_exits_2(capsys, monkeypatch):
    from localmass.mass import MassInvariantError

    def broken(field):
        raise MassInvariantError("synthetic")

    monkeypatch.setattr(mass, "contribution_checksum", broken)
    code, _, err = run_cli(capsys, "checksum", "--p", "3", "--f", "1")
    assert code == 2
    assert "internal identity failure" in err


def test_identity_failure_with_huge_sides_exits_2(capsys, monkeypatch):
    # A ramified total too long for decimal conversion is still reported as an
    # identity failure naming its field, not as bad input.  (At e = 100 the
    # report's own denominators are past the limit, so the query exits 1
    # before the kernel runs.)
    real = mass.tres_term
    monkeypatch.setattr(mass, "tres_term", lambda field: real(field) + Fraction(1, 31**4000))
    code, out, err = run_cli(capsys, "mass", "--p", "31", "--e", "1")
    assert code == 2
    assert out == ""
    assert "internal identity failure" in err
    assert "LocalField(p=31, f=1, e=1," in err


P31_F2 = ("mass", "--p", "31", "--f", "2", "--e", "inf")


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_mass_formats_each_distinct_contribution_once(capsys, monkeypatch, fmt):
    # 900 rows, at most p = 31 distinct values: formatting per row would make
    # thousands of decimal conversions.  The other three are the report's
    # tres_extra, total and grand total.
    calls = []

    def counting(x):
        calls.append(x)
        return format_rational(x)

    monkeypatch.setattr(rationals, "format_rational", counting)
    code, _, _ = run_cli(capsys, *P31_F2, "--format", fmt)
    assert code == 0
    assert len(calls) <= 31 + 3


# Fields whose cyclotomic coordinates are known: Q_3(sqrt(-3)) contains mu_3,
# so (0, 0) is both trivial and cyclotomic; the other two mark one more pair.
OMEGA_FIELDS = [
    ("--p", "3", "--f", "1", "--e", "2", "--omega-a", "0", "--omega-b", "0"),
    ("--p", "5", "--f", "1", "--e", "2", "--omega-a", "2", "--omega-b", "1"),
    ("--p", "7", "--f", "1", "--e", "3", "--omega-a", "3", "--omega-b", "5"),
]


@pytest.mark.parametrize("field", [P31_F2[1:], ("--p", "7", "--f", "1", "--e", "3"), *OMEGA_FIELDS])
def test_mass_formats_print_the_same_contributions(capsys, field):
    # Each row's marker and contribution, as the three formats print them.
    _, out, _ = run_cli(capsys, "mass", *field, "--format", "json")
    rows = json.loads(out)["per_character"]
    from_json = [(row["distinguished"], row["contribution"]) for row in rows]
    _, out, _ = run_cli(capsys, "mass", *field, "--format", "tsv")
    from_tsv = [tuple(row.split("\t")[-2:]) for row in out.splitlines()[1:]]
    _, out, _ = run_cli(capsys, "mass", *field, "--format", "text")
    from_text = [tuple(line.split()[-2:]) for line in out.splitlines() if line.startswith("  char")]
    p = int(field[1])
    assert len(from_json) == (p - 1) ** 2
    assert from_json == from_tsv == from_text


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_mass_builds_no_record_per_character(capsys, monkeypatch, fmt):
    # A row is its coordinates, their marker and a value; at p = 31 a record
    # per character would be 900 of them.  The report's trivial contribution
    # is read through one trivial_char().
    made = []
    new = model.CharClass.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(model.CharClass, "__new__", counting)
    counts = []
    for field in [("--p", "3", "--e", "1"), P31_F2[1:], OMEGA_FIELDS[2]]:
        made.clear()
        code, _, _ = run_cli(capsys, "mass", *field, "--format", fmt)
        assert code == 0
        counts.append(len(made))
    assert len(set(counts)) == 1 and counts[0] <= 2, counts


@pytest.mark.parametrize(
    "query",
    [("count", "--p", "3", "--e", "2000"), ("mass", "--p", "211", "--e", "1")],
    ids=["count", "mass"],
)
def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback(tmp_path, query):
    # Both tables are megabytes, far past what the pipe holds, so the cli is
    # still writing when the reader (as ``| head -1`` does) closes its end.
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "localmass.cli", *query, "--format", "tsv"],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=err,
        )
        assert proc.stdout.readline().startswith(b"a\tb\t" if query[0] == "mass" else b"level\t")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        err.seek(0)
        assert err.read() == ""


INT_STR_LIMIT_ERROR = "error: Exceeds the limit (4300 digits) for integer string conversion"


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
@pytest.mark.parametrize(
    "query",
    [("count", "--p", "7", "--f", "3", "--e", "2000"), ("mass", "--p", "31", "--e", "100")],
    ids=["count", "mass"],
)
def test_streamed_tables_past_the_int_str_limit_write_nothing(capsys, query, fmt):
    # Both tables are rendered as their rows are made, so the conversion that
    # fails must come before the first row: a clean exit 1 with empty stdout.
    code, out, err = run_cli(capsys, *query, "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith(INT_STR_LIMIT_ERROR)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "query",
    [
        ("mass", "--p", "7", "--f", "10000", "--e", "100"),
        ("count", "--p", "101", "--f", "10000", "--e", "100"),
        ("structure", "--p", "1000000007", "--f", "10000", "--e", "100"),
    ],
    ids=["mass", "count", "structure"],
)
def test_q_past_the_int_str_limit_exits_1_before_the_kernel(capsys, query, fmt):
    # json and text print q, so it is converted first; each of these ran for
    # more than 4 s, in the kernel, before the conversion failed.
    with _deadline(1):
        code, out, err = run_cli(capsys, *query, "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith(INT_STR_LIMIT_ERROR)
    assert err.count("\n") == 1


def test_count_past_the_int_str_limit_stops_at_the_first_such_row(capsys):
    # tsv prints no q, so nothing checks it before the count's own bound,
    # which rejects the table before any walk; before that bound, the first
    # row whose extensions pass the limit, level 1's, ended the first walk.
    # The walk to the end ran for more than 10 s.
    with _deadline(1):
        code, out, err = run_cli(
            capsys, "count", "--p", "101", "--f", "10000", "--e", "100", "--format", "tsv"
        )
    assert code == 1 and out == ""
    assert err.startswith(INT_STR_LIMIT_ERROR)
    assert err.count("\n") == 1


def test_q_past_the_int_str_limit_is_not_read_by_tsv(capsys):
    # tsv prints no q, so a q no decimal string can hold is no error there.
    argv = ("structure", "--p", "7", "--f", "10000", "--e", "1", "--format", "tsv")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("level\tvbar\tdim\tdistinguished\n")


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_count_checks_its_largest_count_before_any_output(capsys, fmt):
    # At (3, 1, 1341) the most lines a level has is a 640-digit number and
    # the most extensions a 641-digit one: under a 640-digit limit only the
    # extensions fail, so the check must read them, not the lines.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "count", "--p", "3", "--e", "1341", "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert err.startswith("error: Exceeds the limit (640 digits) for integer string conversion")


@pytest.mark.parametrize(
    "query",
    [
        ("checksum", "--p", "1009"),
        ("checksum", "--p", "101", "--f", "211"),
        ("checksum", "--p", "99989"),
        ("mass", "--p", "7", "--e", "100000"),
        ("mass", "--p", "10007", "--e", "5"),
        ("mass", "--p", "1000000007", "--f", "211", "--e", "1"),
        ("mass", "--p", "7", "--f", "10000", "--e", "100", "--format", "tsv"),
    ],
    ids=" ".join,
)
def test_sides_and_reports_past_the_int_str_limit_exit_1_before_the_kernel(capsys, query):
    # The checksum's sides and the mass report's denominators are bounded
    # below in closed form; each of these queries ran for more than 10 s in
    # the kernel before the conversion failed.
    with _deadline(1):
        code, out, err = run_cli(capsys, *query)
    assert code == 1 and out == ""
    assert err.startswith(INT_STR_LIMIT_ERROR + ": ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "query",
    [("mass", "--p", "31", "--f", "1", "--e", "100"), ("checksum", "--p", "101", "--f", "1")],
    ids=["mass", "checksum"],
)
def test_deep_mass_known_failures_keep_their_signature(capsys, query):
    # The benchmark recognises these known failures by this text on stderr.
    with _deadline(1):
        code, out, err = run_cli(capsys, *query, "--format", "json")
    assert code == 1 and out == ""
    assert err.startswith(INT_STR_LIMIT_ERROR)


class _KernelReached(Exception):
    """Raised by a stubbed kernel: the handler passed its digit bound."""


def _bound_rejections(kernel, queries, owner=mass):
    """``{key: digits}`` for each ``(key, argv)`` of ``queries`` whose handler
    raises the int-to-str limit's ValueError before ``owner.<kernel>`` runs,
    with the digit count its message names."""

    def reached(*args):
        raise _KernelReached

    parser = cli.build_parser()
    rejected = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, kernel, reached)
        for key, argv in queries:
            args = parser.parse_args(argv)
            try:
                cli._handler(args.command)(args)
            except _KernelReached:
                continue
            except ValueError as exc:
                message = f"error: {exc}"
                assert message.startswith(INT_STR_LIMIT_ERROR + ": "), message
                rejected[key] = int(re.search(r"at least (\d+) digits$", message)[1])
    return rejected


def test_checksum_rejects_only_sides_past_the_int_str_limit():
    # Each rejection is a real overflow: the sides, computed and converted
    # with the limit lifted, have at least the digits the message names.
    primes = [p for p in range(2, 62) if model.is_prime(p)]
    queries = [((p, f), ("checksum", "--p", str(p), "--f", str(f))) for p in primes for f in (1, 2)]
    rejected = _bound_rejections("contribution_checksum", queries)
    assert (61, 1) in rejected and (31, 1) not in rejected
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for (p, f), named in rejected.items():
            lhs, _ = mass.contribution_checksum(LocalField(p, f, INFINITE_E))
            assert len(str(lhs.numerator)) >= named > limit, (p, f)
    finally:
        sys.set_int_max_str_digits(limit)


def test_mass_rejects_only_reports_past_the_int_str_limit():
    # Each rejection is a real overflow: the contribution of valuation
    # 1 mod p-1, which holds level p*e - 1, computed and converted with the
    # limit lifted, has a denominator of exactly the digits the message names.
    primes = [p for p in range(2, 32) if model.is_prime(p)]
    queries = [
        ((p, f, e), ("mass", "--p", str(p), "--f", str(f), "--e", str(e), "--format", "tsv"))
        for p in primes for f in (1, 2) for e in range(1, 121)
    ]
    rejected = _bound_rejections("total_mass", queries)
    assert (31, 1, 97) in rejected and (31, 1, 96) not in rejected
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for (p, f, e), named in rejected.items():
            value = mass.char_contribution(LocalField(p, f, e), model.generic_char(1 % (p - 1)))
            assert len(str(value.denominator)) == named > limit, (p, f, e)
        # That contribution has the report's longest denominator.
        report = mass.total_mass(LocalField(31, 1, 97))
        values = [*report.per_vbar.values(), report.tres_extra, report.total, report.grand_total]
        longest = max(len(str(v.denominator)) for v in values)
        assert longest == rejected[31, 1, 97] == len(str(report.per_vbar[1].denominator))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "query",
    [
        ("--p", "7", "--e", "100000", "--filter", "cyclic", "--format", "tsv"),
        ("--p", "211", "--e", "100000", "--filter", "cyclic"),
    ],
    ids=" ".join,
)
def test_filtered_mass_past_the_int_str_limit_exits_1_before_the_kernel(
    capsys, monkeypatch, query
):
    # The deepest block the filter counts bounds its denominator in closed
    # form; these ran for 7.3 s and for more than 15 s in the kernel.
    def reached(*args):
        raise _KernelReached

    monkeypatch.setattr(mass, "_valuation_sums", reached)
    with _deadline(1):
        code, out, err = run_cli(capsys, "mass", *query)
    assert code == 1 and out == ""
    assert err.startswith(INT_STR_LIMIT_ERROR + ": a contribution's denominator has at least ")
    assert err.count("\n") == 1


def test_filtered_mass_whose_deepest_block_ties_with_the_top_line_is_not_bounded(capsys):
    # Over Q_2 the cyclic class is the trivial one, and its block at level
    # p*e - 1 shares the top line's depth (p-1)e: the sum cancels to 2, which
    # a bound from that depth (6 021 digits) would have rejected.
    argv = ("mass", "--p", "2", "--e", "20000", "--filter", "cyclic", "--format", "tsv")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == "filter\tcontribution\ncyclic\t2\n"


def test_filtered_mass_rejects_only_values_past_the_int_str_limit():
    # Each rejection is a real overflow: the filtered mass, computed and
    # converted with the limit lifted, has a denominator of at least the
    # digits the message names.  Fields around each (p, f)'s threshold are
    # rejected and passed, with omega trivial and not; at p = 2 every filter
    # keeps the trivial character, whose top line ties with level p*e - 1,
    # so none is rejected.
    limit = sys.get_int_max_str_digits()
    queries = []
    for p in (2, 3, 5, 7, 11, 13):
        m = p - 1
        specs = ["cyclic", "unramified-closure"]
        specs += [f"group-order={n}" for n in range(1, p) if m % n == 0]
        for f in (1, 2):
            first = math.ceil((limit + 1) / (m * f * math.log10(p)))
            for e, b, spec in itertools.product(range(first - 2, first + 3), {0, 1 % m}, specs):
                omega = (e % m, b)
                argv = ["mass", "--p", str(p), "--f", str(f), "--e", str(e), "--filter", spec]
                argv += ["--omega-a", str(e % m), "--omega-b", str(b), "--format", "tsv"]
                queries.append(((LocalField(p, f, e, omega), spec), argv))
    rejected = _bound_rejections("_valuation_sums", queries)
    sys.set_int_max_str_digits(0)
    try:
        for (field, spec), named in rejected.items():
            value = mass.galois_closure_contribution(field, spec)
            assert len(str(value.denominator)) >= named > limit, (field, spec)
    finally:
        sys.set_int_max_str_digits(limit)
    assert not any(field.p == 2 for field, _ in rejected)
    assert 0 < len(rejected) < len(queries)
    assert {spec for _, spec in rejected} >= {"cyclic", "unramified-closure", "group-order=1"}
    assert any(field.omega == (0, 0) for field, _ in rejected)


@pytest.mark.parametrize(
    "argv, rows",
    [
        (("--p", "1000000007", "--e", "1", "--format", "tsv"), (10**9 + 6) + 2),
        (("--p", "1000003", "--e", "12"), (12 * 1000003 - 1) - 11 + 2),
    ],
    ids=["p=10**9+7", "p=1000003,e=12"],
)
def test_count_past_the_row_cap_exits_1_before_any_walk(capsys, monkeypatch, argv, rows):
    # The rows are counted in closed form: level 0, the levels prime to p
    # below the top, and the top.  Both queries ran past 10 s.
    def reached(*args):
        raise _KernelReached

    monkeypatch.setattr(cli_count, "count_rows", reached)
    with _deadline(1):
        code, out, err = run_cli(capsys, "count", *argv)
    assert code == 1 and out == ""
    assert err == f"error: count scale exceeded: rows = {rows} > ROW_LIMIT = 10000000\n"


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_count_with_an_extension_too_many_exits_2_before_any_output(capsys, monkeypatch, fmt):
    # Krasner's count at level 5 over Q_3: p(q-1) q**(5//3) = 18.
    real = model.count_rows

    def one_too_many(*args):
        for rec in real(*args):
            yield rec._replace(extensions=rec.extensions + 1) if rec.level == 5 else rec

    monkeypatch.setattr(cli_count, "count_rows", one_too_many)
    code, out, err = run_cli(capsys, "count", "--p", "3", "--e", "4", "--format", fmt)
    assert code == 2 and out == ""
    assert err == (
        "internal identity failure: count over LocalField(p=3, f=1, e=4, omega=None),"
        " level 5: 19 extensions != Krasner's count 18\n"
    )


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_count_rejects_a_table_past_the_int_str_limit_before_any_row(capsys, monkeypatch, fmt):
    # Krasner's count bounds the top row's extensions, 7 * 343**2000, in
    # closed form; the first walk made about 12 000 rows before it failed.
    def reached(*args):
        raise _KernelReached

    monkeypatch.setattr(cli_count, "count_rows", reached)
    with _deadline(1):
        code, out, err = run_cli(
            capsys, "count", "--p", "7", "--f", "3", "--e", "2000", "--format", fmt
        )
    assert code == 1 and out == ""
    assert err == INT_STR_LIMIT_ERROR + ": the largest count has at least 5072 digits\n"


def test_count_rejects_only_tables_past_the_int_str_limit():
    # Each rejection is a real overflow: the table's largest extensions, made
    # and converted with the limit lifted, have at least the digits the message
    # names.  At (3, 1, e) the top row's 3**(e + 1) passes 4 300 digits from
    # e = 9 013, where only the first walk sees it, and the bound from 9 014.
    def query(p, f, e, max_level=None, vbar=None):
        argv = ["count", "--p", str(p), "--f", str(f), "--e", str(e), "--format", "tsv"]
        if max_level is not None:
            argv += ["--max-level", str(max_level)]
        return (p, f, e, max_level, vbar), argv + ([] if vbar is None else ["--vbar", str(vbar)])

    queries = [query(3, 1, e) for e in range(9005, 9021)]
    queries += [query(3, 1, "inf", level) for level in range(27037, 27046)]
    queries += [query(5, 1, e, None, vbar) for e in range(6151, 6156) for vbar in (None, 0, 1, 2, 3)]
    queries += [query(7, 2, "inf", level, 4) for level in range(17790, 17830, 4)]
    rejected = _bound_rejections("count_rows", queries, owner=cli_count)
    assert (3, 1, 9014, None, None) in rejected and (3, 1, 9013, None, None) not in rejected
    assert len(rejected) > len(queries) // 3
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for (p, f, e, max_level, vbar), named in rejected.items():
            field = LocalField(p, f, INFINITE_E if e == "inf" else e)
            largest = max(rec.extensions for rec in model.count_rows(field, max_level, vbar))
            assert len(str(largest)) >= named > limit, (p, f, e, max_level, vbar)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_mass_converts_the_trivial_contribution_before_any_output(capsys, monkeypatch, fmt):
    # Only the trivial character's value, per_vbar[0] + tres_extra, is past
    # the limit: its denominator is 2**7200 * 3**4600, of 4 363 digits, while
    # every value the report holds is under 2 200 digits.
    real = mass.total_mass(LocalField(3, 1, 1))
    fake = real._replace(
        per_vbar={**real.per_vbar, 0: Fraction(1, 2**7200)}, tres_extra=Fraction(1, 3**4600)
    )
    for value in (*fake.per_vbar.values(), fake.tres_extra, fake.total, fake.grand_total):
        format_rational(value)
    monkeypatch.setattr(mass, "total_mass", lambda field: fake)
    code, out, err = run_cli(capsys, "mass", "--p", "3", "--e", "1", "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith(INT_STR_LIMIT_ERROR)


class _Discard(io.TextIOBase):
    """A stdout that counts the lines written to it and keeps nothing."""

    lines = 0

    def write(self, s):
        self.lines += s.count("\n")
        return len(s)


def _traced_peak(argv, warm_up):
    """Peak traced allocation of ``cli.main(argv)`` in MB, and its stdout lines.

    ``warm_up``, a small query of the same subcommand and format, runs first,
    so the imports and caches it fills are not charged to ``argv``."""
    sink = _Discard()
    with contextlib.redirect_stdout(sink):
        cli.main(list(warm_up))
        sink.lines = 0
        tracemalloc.start()
        try:
            code = cli.main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, peak / 1e6, sink.lines


@pytest.mark.parametrize(
    "e, code, fmt",
    [
        pytest.param(e, code, fmt, id=name if fmt == "tsv" else f"{name}-{fmt}")
        for fmt in ("tsv", "json", "text")
        for e, code, name in (("2000", 1, "past-the-limit"), ("600", 0, "printed"))
    ],
)
def test_count_holds_no_table(capsys, e, code, fmt):
    # Held whole, the (7, 3, 2000) table of 12 002 rows peaked at 29.8 MB and
    # the (7, 3, 600) one at 3.3 MB; streamed, each peaks near 0.1 to 0.2 MB,
    # whether the first walk fails or the rows are written.
    query = ("count", "--p", "7", "--f", "3", "--e", e, "--format", fmt)
    warm_up = ("count", "--p", "7", "--f", "3", "--e", "2", "--format", fmt)
    result, peak, lines = _traced_peak(query, warm_up)
    assert result == code and peak < 1, peak
    rows = 6 * int(e) + 2
    assert lines == (0 if code else {"json": 10 + 7 * rows, "tsv": 1 + rows, "text": 1 + rows}[fmt])


def test_count_json_holds_one_row_per_digit_count(capsys):
    # 19 803 rows, whose key order as strings is merged from one level walk
    # per digit count; sorted whole, they peaked at 8.6 MB.
    query = ("count", "--p", "101", "--e", "inf", "--max-level", "20000", "--format", "json")
    warm_up = ("count", "--p", "3", "--e", "inf", "--max-level", "20", "--format", "json")
    code, peak, lines = _traced_peak(query, warm_up)
    assert code == 0 and peak < 1, peak
    assert lines == 10 + 7 * (1 + 20000 - 20000 // 101)


class _Counted(int):
    """An int that records each decimal conversion of itself."""

    conversions: list = []

    def __str__(self):
        self.conversions.append(int(self))
        return int.__repr__(self)

    __repr__ = __str__


def _runs(values):
    return sum(1 for _ in itertools.groupby(values))


def test_count_prints_classes_that_differ_from_lines(capsys, monkeypatch):
    # Each class is one line today; the renderer still prints the classes it
    # is given, not the lines' decimal.
    real = mass.count_rows

    def shifted(*args):
        for rec in real(*args):
            yield rec._replace(conjugacy_classes=rec.lines + 1)

    monkeypatch.setattr(cli_count, "count_rows", shifted)
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--e", "1", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert rows and all(int(row[4]) == int(row[2]) + 1 for row in rows)


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_count_converts_each_run_of_equal_counts_once(capsys, monkeypatch, fmt):
    # Within a stratum the generic levels have equal counts, and a row's
    # classes are its lines: at most one conversion per run of equal values
    # in each column of each walk.  Formatting every count took 3 per row.
    field = LocalField(5, 2, 30, (2, 1))
    real = mass.count_rows
    conversions = _Counted.conversions = []

    def counted(*args):
        for rec in real(*args):
            yield rec._replace(**{
                column: _Counted(getattr(rec, column))
                for column in ("lines", "extensions", "conjugacy_classes")
            })

    monkeypatch.setattr(cli_count, "count_rows", counted)
    argv = ("count", "--p", "5", "--f", "2", "--e", "30", "--omega-a", "2", "--omega-b", "1")
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    windows = [(0, 9), (10, 99), (100, 150)] if fmt == "json" else [(0, 150)]
    allowed = 0
    for low, high in windows:
        rows = [rec for rec in real(field, high) if rec.level >= low]
        allowed += _runs(rec.lines for rec in rows) + _runs(rec.extensions for rec in rows)
    rows = list(real(field))
    assert len(conversions) <= allowed < len(rows)
    assert set(conversions) == {rec.lines for rec in rows} | {rec.extensions for rec in rows}


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_mass_holds_no_table(capsys, fmt):
    # 44 100 characters at p = 211: held, the text table peaked at 19.2 MB
    # and the tsv and json ones at 10.0 MB; streamed, each peaks near 0.3 MB.
    warm_up = ("mass", "--p", "3", "--e", "1", "--format", fmt)
    code, peak, lines = _traced_peak(("mass", "--p", "211", "--e", "1", "--format", fmt), warm_up)
    assert code == 0 and peak < 2, peak
    if fmt == "text":
        assert lines == 210**2 + 3


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_structure_holds_no_level_of_rows(capsys, fmt):
    # Each level at p = 100 003 has 100 002 blocks.  Joined into one string
    # per level, the rows peaked at 5.6 MB as tsv, 12.9 as text and 30.6 as
    # json; in chunks of _REPEAT_ROWS rows each format peaks near 0.2 to 0.4 MB.
    query = ("structure", "--p", "100003", "--e", "inf", "--max-level", "2", "--format", fmt)
    warm_up = ("structure", "--p", "3", "--e", "1", "--format", fmt)
    code, peak, lines = _traced_peak(query, warm_up)
    assert code == 0 and peak < 1, peak
    rows = 1 + 2 * 100002
    assert lines == {"json": 12 + 6 * rows, "tsv": 1 + rows, "text": 1 + rows}[fmt]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_galois_verify_at_7_holds_one_derived_group_at_a_time(capsys, fmt):
    # With the derived series of S_7 beside S_7 and two copies of A_7 the
    # query peaked at 1.9 to 2.1 MB; with solvability decided before each
    # closure, 1.3 to 1.4; with chains in place of every element set past
    # INDEX_SEARCH_LIMIT, 0.10 (text) to 0.25 (json).
    permgroup.transitive_family.cache_clear()
    permgroup.subgroups_of_order.cache_clear()
    warm_up = ("galois-verify", "--p", "5", "--format", fmt)
    code, peak, _ = _traced_peak(("galois-verify", "--p", "7", "--format", fmt), warm_up)
    assert code == 0 and peak < 0.6, peak


def test_galois_verify_at_7_builds_no_group_past_the_search_limit(capsys, monkeypatch):
    # S_7, A_7 and the group of order 168 were closed as element sets, and
    # the derived series built A_7 twice more.
    sizes = []
    real = permgroup.extend

    def measured(*args, **kwargs):
        group = real(*args, **kwargs)
        sizes.append(len(group))
        return group

    monkeypatch.setattr(permgroup, "extend", measured)
    permgroup.transitive_family.cache_clear()
    permgroup.subgroups_of_order.cache_clear()
    code, _, _ = run_cli(capsys, "galois-verify", "--p", "7")
    assert code == 0 and sizes
    assert max(sizes) <= permgroup.INDEX_SEARCH_LIMIT, max(sizes)
