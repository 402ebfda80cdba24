"""Brute-force enumeration against the formula path."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    cyclotomic_valuation,
    enumerate_characters,
    generic_char,
    layout,
    omega_char,
    omega_is_trivial,
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


def _lines_by_vector_loop(field, chi, max_level):
    """Line count per level with the level of each vector found by a Python
    loop over its coordinates, highest nonzero block level wins."""
    levels = [b.level for b in eigenspace_blocks(field, chi, max_level) for _ in range(b.dim)]
    vectors_per_level = {}
    for vec in itertools.product(range(field.p), repeat=len(levels)):
        top = max((lvl for coord, lvl in zip(vec, levels) if coord), default=None)
        if top is not None:
            vectors_per_level[top] = vectors_per_level.get(top, 0) + 1
    assert all(n % (field.p - 1) == 0 for n in vectors_per_level.values())
    return {lvl: n // (field.p - 1) for lvl, n in sorted(vectors_per_level.items())}


@st.composite
def small_eigenspaces(draw):
    """A field, one of its character classes, and a bound leaving at most 7
    coordinates and 20 000 vectors, so the reference loop stays quick."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = draw(st.integers(1, 2))
    e = draw(st.one_of(st.integers(1, 4), st.just(INFINITE_E)))
    field = LocalField(p, f, e)
    if not omega_is_trivial(field):
        field = LocalField(p, f, e, (cyclotomic_valuation(field), draw(st.integers(0, p - 2))))
    chi = draw(st.sampled_from(char_classes(field)))

    def dim(bound):
        return sum(b.dim for b in eigenspace_blocks(field, chi, bound))

    bounds = [b for b in range(30) if dim(b) <= 7 and p ** dim(b) <= 20000]
    return field, chi, draw(st.sampled_from(bounds)), dim


@settings(max_examples=60, deadline=None)
@given(small_eigenspaces())
def test_enumerate_lines_matches_a_per_vector_loop(case):
    field, chi, bound, dim = case
    lines = enumerate_lines(field, chi, bound)
    assert lines == _lines_by_vector_loop(field, chi, bound)
    assert (field.p - 1) * sum(lines.values()) == field.p ** dim(bound) - 1


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
