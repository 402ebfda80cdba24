"""CLI dispatch, formats, determinism, and exit codes."""

import contextlib
import json
import signal
from fractions import Fraction

import pytest

import localmass.cli as cli
import localmass.mass as mass
import localmass.oracle as oracle
from localmass.model import PRIME_TEST_BOUND, LocalField, trivial_char
from localmass.rationals import format_rational


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize(
    "field", [("--e", "inf", "--max-level", "30000000"), ("--e", "10000000")], ids=["inf", "e"]
)
def test_oracle_check_beyond_its_scale_exits_1_at_once(capsys, field):
    with _deadline(1):
        code, out, err = run_cli(capsys, "oracle-check", "--p", "3", *field)
    assert code == 1 and out == ""
    assert err == "error: oracle scale exceeded: dimension >= 13 > DIM_LIMIT = 12\n"


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
    real = cli.oracle.oracle_mass
    monkeypatch.setattr(cli.oracle, "oracle_mass", lambda *args: real(*args) + Fraction(1, 3))
    code, out, err = run_cli(capsys, "oracle-check", "--p", "3", "--e", "1", "--max-level", "2")
    assert code == 2 and out == ""
    assert "internal identity failure" in err
    assert "(trivial) over p=3 f=1 e=1 (q=3), levels <= 2" in err


def test_oracle_line_split_failure_names_its_inputs(capsys, monkeypatch):
    # One vector too many leaves a level count that p - 1 = 2 does not divide.
    real = oracle.itertools.product

    def one_extra(*args, **kwargs):
        vectors = list(real(*args, **kwargs))
        return vectors + vectors[-1:]

    monkeypatch.setattr(oracle.itertools, "product", one_extra)
    code, out, err = run_cli(capsys, "oracle-check", "--p", "3", "--e", "1", "--vbar", "1")
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

    def broken(p, q):
        raise MassInvariantError("synthetic")

    monkeypatch.setattr(cli.mass, "contribution_checksum", broken)
    code, _, err = run_cli(capsys, "checksum", "--p", "3", "--f", "1")
    assert code == 2
    assert "internal identity failure" in err


def test_identity_failure_with_huge_sides_exits_2(capsys, monkeypatch):
    # A ramified total too long for decimal conversion is still reported as an
    # identity failure naming its field, not as bad input.
    real = mass.tres_term
    monkeypatch.setattr(mass, "tres_term", lambda field: real(field) + Fraction(1, 31**4000))
    code, out, err = run_cli(capsys, "mass", "--p", "31", "--e", "100")
    assert code == 2
    assert out == ""
    assert "internal identity failure" in err
    assert "LocalField(p=31, f=1, e=100" in err


P31_F2 = ("mass", "--p", "31", "--f", "2", "--e", "inf")


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_mass_formats_each_distinct_contribution_once(capsys, monkeypatch, fmt):
    # 900 rows, at most p = 31 distinct values: formatting per row would make
    # thousands of decimal conversions.
    calls = []

    def counting(x):
        calls.append(x)
        return format_rational(x)

    monkeypatch.setattr(cli.rationals, "format_rational", counting)
    code, _, _ = run_cli(capsys, *P31_F2, "--format", fmt)
    assert code == 0
    assert len(calls) <= 31 + 1


@pytest.mark.parametrize("field", [P31_F2[1:], ("--p", "7", "--f", "1", "--e", "3")])
def test_mass_formats_print_the_same_contributions(capsys, field):
    _, out, _ = run_cli(capsys, "mass", *field, "--format", "json")
    from_json = [entry["contribution"] for entry in json.loads(out)["per_character"]]
    _, out, _ = run_cli(capsys, "mass", *field, "--format", "tsv")
    from_tsv = [row.split("\t")[-1] for row in out.splitlines()[1:]]
    _, out, _ = run_cli(capsys, "mass", *field, "--format", "text")
    from_text = [line.split()[-1] for line in out.splitlines() if line.startswith("  char")]
    p = int(field[1])
    assert len(from_json) == (p - 1) ** 2
    assert from_json == from_tsv == from_text
