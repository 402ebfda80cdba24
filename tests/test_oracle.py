"""Brute-force enumeration against the formula path."""

import itertools
import tracemalloc
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from localmass import oracle
from localmass.mass import (
    char_contribution,
    char_contribution_closed,
    char_contribution_truncated,
    count_table,
)
from localmass.model import (
    INFINITE_E,
    TRIVIAL,
    LocalField,
    char_classes,
    char_is_omega,
    cyclotomic_valuation,
    enumerate_characters,
    generic_char,
    layout,
    omega_char,
    omega_is_trivial,
    trivial_char,
)
from localmass.oracle import (
    _TALLIES,
    _suffix_columns,
    _vectors_by_leading_position,
    eigenspace_blocks,
    enumerate_lines,
    oracle_mass,
)

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
    # The walk of each congruence class must reproduce the layout's levels.
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
                    if chi.distinguished == TRIVIAL:
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


@cache
def _leading_positions_by_loop(p, dim):
    """Vectors of F_p**dim per position of their first nonzero coordinate,
    found by a Python loop over each vector's coordinates."""
    expected = [0] * dim
    for vec in itertools.product(range(p), repeat=dim):
        first = next((i for i, coord in enumerate(vec) if coord), None)
        if first is not None:
            expected[first] += 1
    return tuple(expected)


@pytest.mark.parametrize(
    "p,dim",
    [
        (2, 1), (3, 4), (5, 3), (3, 8), (3, 9), (3, 10), (3, 11),
        (2, 13), (2, 14), (2, 16), (2, 17), (13, 5),
    ],
)
def test_vectors_by_leading_position_matches_a_per_vector_loop(p, dim):
    # The suffix columns of a block hold at most 1 << 17 bytes, k columns of
    # p**k rows: 3**8 and 2**13 are one block with no prefix, 3**9 and 2**14
    # are that block beside one prefix coordinate, and 3**10, 3**11, 2**16,
    # 2**17 and 13**5 are many blocks (13**5 is 13 of 13**4).
    _TALLIES.clear()
    expected = _leading_positions_by_loop(p, dim)
    assert _vectors_by_leading_position(p, dim) == expected
    assert expected == tuple((p - 1) * p ** (dim - 1 - i) for i in range(dim))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 16), (3, 10), (5, 6), (13, 4), (257, 1)])
def test_suffix_columns_are_the_vectors_in_product_order(p, k):
    columns = _suffix_columns(p, k)
    assert len(columns) == k
    expected = itertools.product(range(p), repeat=k)
    if p > 256:  # a coordinate past 255 is stored as the nonzero byte 255
        expected = (tuple(min(c, 255) for c in vec) for vec in expected)
    assert list(zip(*columns)) == list(expected)


@pytest.mark.parametrize("p,dim", [(2, 17), (3, 12), (5, 9), (13, 5), (3001, 2)])
def test_a_walk_reads_every_coordinate_once(p, dim, monkeypatch):
    # Every count comes from reading columns: dim bytes per vector, no block
    # counted by its size.  The suffix columns, laid out once, hold at most
    # _BLOCK_BYTES bytes, or one column of p past that, and every column
    # read has their rows.
    real, real_suffix = oracle._column_mask, oracle._suffix_columns
    read, suffixes = [], []

    def counted(column):
        read.append(len(column))
        return real(column)

    def suffix(p, k):
        suffixes.append(real_suffix(p, k))
        return suffixes[-1]

    monkeypatch.setattr(oracle, "_column_mask", counted)
    monkeypatch.setattr(oracle, "_suffix_columns", suffix)
    _TALLIES.clear()
    tally = _vectors_by_leading_position(p, dim)
    _TALLIES.clear()
    assert sum(read) == dim * p**dim
    [columns] = suffixes
    assert sum(map(len, columns)) <= max(oracle._BLOCK_BYTES, p)
    assert set(read) == {len(columns[0])}
    assert sum(tally) == p**dim - 1


def test_a_walk_holds_one_block():
    # The suffix columns of F_3**8 are 8 x 6 561 bytes, and those of F_2**13
    # 13 x 8 192; the walk holds them, one block's prefix columns and one
    # mask at a time, 0.12 and 0.19 MB traced.  Capped at 1 << 16 rows
    # (10 columns of 3**10 rows, 16 of 2**16) it peaked at 0.96 and 1.40 MB.
    for p, dim in (3, 12), (2, 17):
        _TALLIES.clear()
        tracemalloc.start()
        try:
            _vectors_by_leading_position(p, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _TALLIES.clear()
        assert peak < 3e5, (p, dim, peak)


@pytest.mark.parametrize("dims", [(11, 4), (4, 6)], ids=["larger-first", "smaller-first"])
def test_vectors_by_leading_position_in_either_order(dims):
    # A smaller space reads the tail of the larger one's tally; a larger one
    # walks its own space and replaces the smaller one's.
    _TALLIES.clear()
    for dim in (*dims, *dims):
        assert _vectors_by_leading_position(3, dim) == _leading_positions_by_loop(3, dim)
    assert _TALLIES == {3: _leading_positions_by_loop(3, max(dims))}


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
    chi = draw(st.sampled_from(list(char_classes(field))))

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
    for _, chi in enumerate_characters(field):
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
    with pytest.raises(ValueError, match="oracle scale exceeded: dimension >= 13"):
        enumerate_lines(F3_SERIES, trivial_char(), 40)


def test_vector_guard():
    # Dimension 11 is within DIM_LIMIT, but 5**11 vectors are not.
    field = LocalField(5, 1, INFINITE_E)
    assert sum(b.dim for b in eigenspace_blocks(field, trivial_char(), 48)) == 11
    with pytest.raises(ValueError, match=r"vectors >= 5\*\*11 > VECTOR_LIMIT = 10000000"):
        enumerate_lines(field, trivial_char(), 48)
