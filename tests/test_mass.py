"""Contributions, totals, counts, filters, checksum, and the tame case."""

import re
from fractions import Fraction

import pytest

import localmass.mass as mass
from localmass.mass import (
    MassInvariantError,
    char_contribution,
    char_contribution_closed,
    char_contribution_truncated,
    contribution_checksum,
    count_table,
    galois_closure_contribution,
    mass_from_counts,
    per_character_contributions,
    subfield_contribution,
    tame_mass,
    total_mass,
    tres_term,
)
from localmass.model import (
    INFINITE_E,
    OMEGA,
    CharClass,
    LocalField,
    generic_char,
    omega_char,
    trivial_char,
)
from localmass.oracle import oracle_mass
from localmass.rationals import rat_pow

Q3 = LocalField(3, 1, 1)
F3_SERIES = LocalField(3, 1, INFINITE_E)


def test_equal_char_p3_contributions():
    for chi in (trivial_char(), generic_char(0)):
        assert char_contribution(F3_SERIES, chi) == Fraction(9, 20)
    assert char_contribution(F3_SERIES, generic_char(1)) == Fraction(21, 20)
    assert total_mass(F3_SERIES).total == 3


def test_equal_char_p3_closed_forms():
    # Offset 0 evaluates the displayed closed form to 144/320.
    assert char_contribution_closed(F3_SERIES, generic_char(0)) == Fraction(144, 320)
    assert Fraction(144, 320) == Fraction(9, 20)
    assert char_contribution_closed(F3_SERIES, generic_char(1)) == Fraction(21, 20)


@pytest.mark.parametrize("f", [1, 2])
def test_equal_char_p5_contribution_polynomials(f):
    # Per-class contribution 5(q-1)*C*A_w/4 with the four exponent lists.
    field = LocalField(5, f, INFINITE_E)
    q = field.q
    C = Fraction(q**16, q**16 - 1)
    exponents = {0: (4, 7, 10, 13), 3: (1, 8, 11, 14), 2: (2, 5, 12, 15), 1: (3, 6, 9, 16)}
    for w, exps in exponents.items():
        a_w = sum(rat_pow(q, -k) for k in exps)
        expected = Fraction(5 * (q - 1), 4) * C * a_w
        assert char_contribution(field, generic_char(w)) == expected
        assert char_contribution_closed(field, generic_char(w)) == expected


def test_q3_per_character_values():
    values = [v for _, v in per_character_contributions(Q3)]
    assert values == [Fraction(4, 3), Fraction(1), Fraction(1, 3), Fraction(1, 3)]
    assert sum(values) == 3
    # The cyclotomic class of Q_3 has valuation 1; its contribution is 1/3.
    assert char_contribution(Q3, omega_char(Q3)) == Fraction(1, 3)
    assert char_contribution_closed(Q3, omega_char(Q3)) == Fraction(1, 3)
    assert char_contribution_closed(Q3, trivial_char()) == Fraction(4, 3)


@pytest.mark.parametrize("f", [1, 2])
def test_mixed_char_p5_e5_contributions(f):
    field = LocalField(5, f, 5)
    q = field.q
    scale = Fraction(5 * (q - 1), 4)
    generic0 = scale * sum(rat_pow(q, -k) for k in (1, 8, 11, 14, 17))
    omega = scale * sum(rat_pow(q, -k) for k in (4, 7, 10, 13, 20))
    assert char_contribution(field, generic_char(0)) == generic0
    assert char_contribution(field, omega_char(field)) == omega
    assert char_contribution_closed(field, generic_char(0)) == generic0
    assert char_contribution_closed(field, omega_char(field)) == omega


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("e", [1, 2, 3, INFINITE_E])
def test_total_mass_grid(p, f, e):
    report = total_mass(LocalField(p, f, e))
    assert report.total == p
    assert report.grand_total == 1 + p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("e", [1, 2, 3, INFINITE_E])
def test_two_path_equality_grid(p, f, e):
    field = LocalField(p, f, e)
    chars = [trivial_char()] + [generic_char(w) for w in range(p - 1)]
    if not (field.equal_char or p == 2):
        chars.append(omega_char(field))
    for chi in chars:
        assert char_contribution(field, chi) == char_contribution_closed(field, chi)


def test_per_character_sum_is_total():
    for field in (Q3, F3_SERIES, LocalField(5, 1, 2), LocalField(7, 2, INFINITE_E)):
        assert sum(v for _, v in per_character_contributions(field)) == field.p


def test_peu_tres_split():
    # The report holds both strata: the below-top mass total - tres_extra
    # and the top-level mass tres_extra.
    def split(field):
        report = total_mass(field)
        return report.total - report.tres_extra, report.tres_extra

    assert split(Q3) == (Fraction(8, 3), Fraction(1, 3))
    field = LocalField(3, 2, 2)
    assert split(field) == (3 * (1 - Fraction(9) ** -4), 3 * Fraction(9) ** -4)
    for p, f, e in [(2, 1, 1), (3, 1, 3), (5, 2, 2), (7, 1, 1)]:
        peu, tres = split(LocalField(p, f, e))
        assert peu + tres == p
    with pytest.raises(ValueError, match="très"):
        tres_term(F3_SERIES)


def test_only_the_trivial_class_computes_the_top_level_mass(monkeypatch):
    # The top-level mass p * q**-(p-1) belongs to the trivial character's
    # sum alone: computed for every class, it took about half the time of
    # oracle-check --p 1000003 --e 1 --vbar -1.
    field = LocalField(5, 1, 2, (2, 1))
    others = (generic_char(1), generic_char(2), omega_char(field))
    expected = {chi: char_contribution_truncated(field, chi, 10) for chi in others}

    def raises(field):
        raise AssertionError("top-level mass computed for a sum without it")

    monkeypatch.setattr(mass, "tres_term", raises)
    for chi, value in expected.items():
        assert char_contribution_truncated(field, chi, 10) == value
    with pytest.raises(AssertionError, match="top-level"):
        char_contribution_truncated(field, trivial_char(), 10)


@pytest.mark.parametrize(
    "field", [Q3, LocalField(3, 2, 2), LocalField(5, 1, 1), LocalField(2, 1, 2), LocalField(7, 1, 1)]
)
def test_mass_from_counts_mixed_char(field):
    table = count_table(field)
    assert mass_from_counts(field, table) == field.p
    for rec in table.values():
        assert rec.conjugacy_classes == rec.lines


def test_mass_from_counts_equal_char_truncation():
    bound = 11
    table = count_table(F3_SERIES, bound)
    total = sum(
        (3 - 1) * char_contribution_truncated(F3_SERIES, generic_char(w), bound)
        for w in range(2)
    )
    assert mass_from_counts(F3_SERIES, table) == total
    with pytest.raises(ValueError, match="max_level"):
        count_table(F3_SERIES)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("power", [1, 2, 3])
def test_contribution_checksum(p, power):
    q = p**power
    lhs, rhs = contribution_checksum(LocalField(p, power, INFINITE_E))
    assert lhs == rhs
    # The left side as one Fraction per term, the reference for the
    # common-denominator sum.
    m = p - 1
    terms = [
        Fraction(
            (q ** ((p - 2) * a) - 1) * (q ** (m * m) - 1) + (q ** ((p - 2) * m) - 1),
            q ** (m * a),
        )
        for a in range(p - 1)
    ]
    assert lhs == sum(terms)
    with pytest.raises(ValueError):
        contribution_checksum(LocalField(2, 1, INFINITE_E))


def test_checksum_value_p3():
    lhs, rhs = contribution_checksum(F3_SERIES)
    assert lhs == Fraction(80, 3)


def test_cyclic_contribution():
    assert galois_closure_contribution(F3_SERIES, "cyclic") == Fraction(9, 20)
    assert galois_closure_contribution(Q3, "cyclic") == Fraction(1, 3)
    # If the cyclotomic class is the trivial one, cyclic extensions include
    # the top-level stratum.
    k = LocalField(3, 1, 2, (0, 0))
    assert galois_closure_contribution(k, "cyclic") == char_contribution(k, trivial_char())


def test_roots_of_unity_field_counts():
    # Q_3(sqrt(-3)) and Q_3(sqrt(3)) share (p, f, e) = (3, 1, 2); only the
    # first contains the cube roots of unity.  There every top-level
    # extension is cyclic, hence its own conjugacy class.
    mu3 = LocalField(3, 1, 2, (0, 0))
    top = count_table(mu3)[6]
    assert (top.lines, top.extensions, top.conjugacy_classes) == (27, 27, 27)
    top = count_table(LocalField(3, 1, 2, (0, 1)))[6]
    assert (top.lines, top.extensions, top.conjugacy_classes) == (9, 27, 9)
    assert mass_from_counts(mu3, count_table(mu3)) == 3


def test_one_valuation_reads_only_its_levels(monkeypatch):
    # The trivial character of F_101((t)) has a block every p - 1 = 100
    # levels: 100 of them below p(p - 1) = 10 100, and 10 100 itself.
    levels = []

    def counted(plan_levels):
        for level in plan_levels:
            levels.append(level)
            yield level

    def spy(*args):
        zero, plan_levels, top = plan(*args)
        return zero, counted(plan_levels), top

    plan = mass.walk_plan
    monkeypatch.setattr(mass, "walk_plan", spy)
    field = LocalField(101, 1, INFINITE_E)
    assert galois_closure_contribution(field, "cyclic") == char_contribution_closed(
        field, trivial_char()
    )
    assert len(levels) <= 101


def test_unramified_closure_contribution():
    assert galois_closure_contribution(F3_SERIES, "unramified-closure") == Fraction(9, 10)
    # Displayed closed form: p*q^{p-2}(q-1)(q^{(p-2)(p-1)}-1) / ((q^{p-2}-1)(q^{(p-1)^2}-1)).
    p, q = 3, 3
    closed = Fraction(
        p * q ** (p - 2) * (q - 1) * (q ** ((p - 2) * (p - 1)) - 1),
        (q ** (p - 2) - 1) * (q ** ((p - 1) ** 2) - 1),
    )
    assert galois_closure_contribution(F3_SERIES, "unramified-closure") == closed
    assert galois_closure_contribution(Q3, "unramified-closure") == 2 * Fraction(1, 3)
    # Cyclotomic valuation 0: the trivial character is among the two kept,
    # with the top-level mass 1/27 on top of its valuation's 4/9.
    value = galois_closure_contribution(LocalField(3, 1, 2), "unramified-closure")
    assert value == Fraction(4, 9) + Fraction(13, 27)


def test_group_order_contributions_equal_char():
    # Dihedral slice at p = q = 3: the three order-2 classes.
    assert galois_closure_contribution(F3_SERIES, "group-order=2") == Fraction(51, 20)
    assert galois_closure_contribution(F3_SERIES, "group-order=1") == Fraction(9, 20)
    assert galois_closure_contribution(F3_SERIES, "group-order=1") + galois_closure_contribution(
        F3_SERIES, "group-order=2"
    ) == 3
    with pytest.raises(ValueError, match="divide"):
        galois_closure_contribution(F3_SERIES, "group-order=4")


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_group_order_partition_equal_char(p, f):
    field = LocalField(p, f, INFINITE_E)
    divisors = [n for n in range(1, p) if (p - 1) % n == 0]
    assert sum(galois_closure_contribution(field, f"group-order={n}") for n in divisors) == p


def test_group_order_requires_omega_in_mixed_char():
    with pytest.raises(ValueError, match="omega class required"):
        galois_closure_contribution(Q3, "group-order=2")
    # With the class supplied, the partition over divisors is the total mass.
    divisors = [1, 2]
    field = LocalField(3, 1, 1, (1, 1))
    assert sum(galois_closure_contribution(field, f"group-order={n}") for n in divisors) == 3


def test_subfield_contribution():
    # The full dual group captures everything; the trivial subgroup exactly
    # the cyclic extensions.
    assert subfield_contribution(F3_SERIES, [(1, 0), (0, 1)]) == 3
    assert subfield_contribution(F3_SERIES, []) == galois_closure_contribution(F3_SERIES, "cyclic")
    assert subfield_contribution(LocalField(3, 1, 1, (1, 0)), [(1, 0), (0, 1)]) == 3


def test_galois_closure_dispatcher():
    assert galois_closure_contribution(F3_SERIES, "cyclic") == Fraction(9, 20)
    assert galois_closure_contribution(F3_SERIES, "unramified-closure") == Fraction(9, 10)
    assert galois_closure_contribution(F3_SERIES, "group-order=2") == Fraction(51, 20)
    assert subfield_contribution(F3_SERIES, [(1, 1)]) == Fraction(9, 20) + Fraction(21, 20)
    with pytest.raises(ValueError, match="unknown filter"):
        galois_closure_contribution(F3_SERIES, "everything")
    with pytest.raises(ValueError, match="unknown filter 'group-order=x'"):
        galois_closure_contribution(F3_SERIES, "group-order=x")


def test_tame_mass_branches():
    rep = tame_mass(F3_SERIES, 2)
    assert rep.omega_trivial and rep.deg_kprime == 1
    assert rep.ramified_count == 2 and rep.conjugacy_classes == 2
    assert rep.mass == 2 and rep.grand_total == 3

    rep = tame_mass(LocalField(5, 1, INFINITE_E), 3)
    assert not rep.omega_trivial and rep.deg_kprime == 2
    assert rep.ramified_count == 3 and rep.conjugacy_classes == 1
    assert rep.mass == 3

    rep = tame_mass(LocalField(3, 4, INFINITE_E), 5)
    assert rep.omega_trivial and rep.mass == 5

    with pytest.raises(ValueError, match="wild-case"):
        tame_mass(LocalField(3, 2, INFINITE_E), 3)
    with pytest.raises(ValueError):
        tame_mass(F3_SERIES, 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: galois_closure_contribution(LocalField(3, 1, 2), "group-order=2"),
            "omega class required for p=3 f=1 e=2: pass the cyclotomic coordinates as"
            " LocalField(..., omega=(a, b)), or --omega-a and --omega-b on the command line",
        ),
        (
            lambda: tame_mass(LocalField(3, 2, INFINITE_E), 3),
            "p' = 3 is the residue characteristic p = 3: use the wild-case operations"
            " (total_mass, or the mass command) for degree 3, or pass a prime p' != 3",
        ),
        (
            lambda: contribution_checksum(LocalField(2, 1, INFINITE_E)),
            "checksum at p = 2: defined for primes p >= 3, pass an odd prime",
        ),
    ],
    ids=["omega", "tame", "checksum-2"],
)
def test_refusals_name_their_inputs(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_mass_report_values():
    report = total_mass(F3_SERIES)
    assert report.per_vbar == {0: Fraction(9, 20), 1: Fraction(21, 20)}
    assert report.total == 3 and report.grand_total == 4
    assert report.tres_extra == 0
    assert total_mass(Q3).tres_extra == Fraction(1, 3)
    assert count_table(Q3)[3].extensions == 9


def test_coordinates_force_the_marker():
    # (0, 0) is the trivial character, whose contribution over Q_3 is 4/3;
    # marked "none" it used to get the generic value 1, from the oracle too.
    message = "character with coordinates (0, 0) must be marked 'trivial', not 'none'"
    for call in (char_contribution, char_contribution_closed):
        with pytest.raises(ValueError) as exc:
            call(Q3, generic_char(0, (0, 0)))
        assert str(exc.value) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_mass(Q3, generic_char(0, (0, 0)), 3)
    q3_omega = LocalField(3, 1, 1, (1, 1))
    with pytest.raises(ValueError, match=r"\(1, 1\) must be marked 'omega', not 'none'"):
        char_contribution(q3_omega, generic_char(1, (1, 1)))
    with pytest.raises(ValueError, match=r"\(1, 0\) must be marked 'none', not 'omega'"):
        char_contribution(q3_omega, CharClass(1, OMEGA, (1, 0)))
    # Where the cyclotomic class is trivial, (0, 0) may carry either marker.
    assert char_contribution(F3_SERIES, CharClass(0, OMEGA, (0, 0))) == Fraction(9, 20)
    assert char_contribution(Q3, trivial_char()) == Fraction(4, 3)


def test_invariant_error_is_detectable():
    with pytest.raises(MassInvariantError):
        raise MassInvariantError("wired through the CLI as exit status 2")
