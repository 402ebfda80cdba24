"""Brute-force enumeration against the formula path."""

from fractions import Fraction

import pytest

from localmass.mass import (
    char_contribution,
    char_contribution_closed,
    char_contribution_truncated,
    count_table,
)
from localmass.model import (
    INFINITE_E,
    LocalField,
    char_classes,
    char_is_omega,
    char_is_trivial,
    enumerate_characters,
    generic_char,
    layout,
    omega_char,
    trivial_char,
)
from localmass.oracle import eigenspace_blocks, enumerate_lines, oracle_mass

Q3 = LocalField(3, 1, 1)
F3_SERIES = LocalField(3, 1, INFINITE_E)


def test_roots_of_unity_field_oracle():
    # Q_3(sqrt(-3)): the trivial character is cyclotomic, so its eigenspace
    # holds the level-0 line as well as the top-level one.
    mu3 = LocalField(3, 1, 2, (0, 0))
    chi = trivial_char()
    assert enumerate_lines(mu3, chi, 6) == {0: 1, 2: 3, 4: 9, 6: 27}
    assert oracle_mass(mu3, chi, 6) == Fraction(13, 27)
    assert char_contribution(mu3, chi) == char_contribution_closed(mu3, chi) == Fraction(13, 27)


def test_blocks_agree_with_layout():
    # The congruence scan must reproduce the layout's levels per class.
    for field, bound in [(Q3, 3), (LocalField(5, 1, 1), 5), (F3_SERIES, 9)]:
        lay = layout(field, bound)
        for chi in char_classes(field):
            blocks = eigenspace_blocks(field, chi, bound)
            expected = []
            for b in lay.blocks:
                if b.level == 0:
                    if char_is_omega(field, chi):
                        expected.append((0, 1))
                elif not field.equal_char and b.level == field.p * field.e:
                    if char_is_trivial(field, chi):
                        expected.append((b.level, 1))
                elif b.valuation == chi.valuation % (field.p - 1):
                    expected.append((b.level, field.f))
            # One block per level in the eigenspace; layout lists one block
            # per character, so dedupe by level.
            expected = sorted(set(expected))
            assert sorted((b.level, b.dim) for b in blocks) == expected


def test_enumerate_lines_q3():
    assert enumerate_lines(Q3, omega_char(Q3), 3) == {0: 1, 2: 3}
    assert enumerate_lines(Q3, trivial_char(), 3) == {1: 1, 3: 3}
    assert enumerate_lines(Q3, generic_char(0), 3) == {1: 1}
    assert enumerate_lines(Q3, generic_char(1), 3) == {2: 1}


def test_line_accounting():
    # Every nonzero vector lies on exactly one line.
    for field, bound in [(Q3, 3), (LocalField(3, 2, 1), 3), (LocalField(5, 1, 1), 5)]:
        for chi in char_classes(field):
            counts = enumerate_lines(field, chi, bound)
            dim = sum(b.dim for b in eigenspace_blocks(field, chi, bound))
            assert (field.p - 1) * sum(counts.values()) + 1 == field.p**dim


@pytest.mark.parametrize(
    "field,bound",
    [
        (LocalField(3, 1, 1, (1, 1)), None),
        (LocalField(3, 1, 2, (0, 1)), None),
        (LocalField(3, 1, 2, (0, 0)), None),
        (LocalField(3, 2, 1, (1, 1)), None),
        (LocalField(5, 1, 1, (1, 2)), None),
        (LocalField(2, 1, 3), None),
        (F3_SERIES, 12),
        (LocalField(5, 1, INFINITE_E), 10),
    ],
)
def test_count_table_matches_enumerated_lines(field, bound):
    # Summed over every character, enumerated lines give count_table's lines
    # at each level; a line is one extension for the cyclotomic character
    # and p conjugate extensions otherwise.
    bound = field.p * field.e if bound is None else bound
    lines, extensions = {}, {}
    for chi in enumerate_characters(field):
        mult = 1 if char_is_omega(field, chi) else field.p
        for level, n in enumerate_lines(field, chi, bound).items():
            lines[level] = lines.get(level, 0) + n
            extensions[level] = extensions.get(level, 0) + n * mult
    table = count_table(field, bound)
    assert {level: rec.lines for level, rec in table.items()} == lines
    assert {level: rec.extensions for level, rec in table.items()} == extensions


@pytest.mark.parametrize(
    "p,f,e", [(3, 1, 1), (3, 2, 1), (5, 1, 1), (3, 1, 2), (2, 1, 2)]
)
def test_oracle_mass_equals_contribution(p, f, e):
    field = LocalField(p, f, e)
    for chi in char_classes(field):
        assert oracle_mass(field, chi, p * e) == char_contribution(field, chi)


def test_oracle_truncation_equal_char():
    for chi in char_classes(F3_SERIES):
        previous = Fraction(0)
        for bound in (1, 3, 5, 9, 11):
            value = oracle_mass(F3_SERIES, chi, bound)
            assert value == char_contribution_truncated(F3_SERIES, chi, bound)
            assert value >= previous
            assert value <= char_contribution(F3_SERIES, chi)
            previous = value


def test_oracle_reproduces_q3_values():
    # The four per-class masses over the 3-adics, from enumeration alone.
    assert oracle_mass(Q3, trivial_char(), 3) == Fraction(4, 3)
    assert oracle_mass(Q3, generic_char(0), 3) == Fraction(1)
    assert oracle_mass(Q3, generic_char(1), 3) == Fraction(1, 3)
    assert oracle_mass(Q3, omega_char(Q3), 3) == Fraction(1, 3)


def test_single_block_eigenspace():
    # Below its first block a class contributes nothing; a lone f=1 block is
    # a single line.
    assert oracle_mass(F3_SERIES, generic_char(0), 1) == 0
    assert enumerate_lines(F3_SERIES, generic_char(0), 2) == {2: 1}


def test_dimension_guard():
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        enumerate_lines(F3_SERIES, trivial_char(), 40)
