"""Brute-force verification by exhaustive line enumeration.

This module recomputes line counts and masses with no formulas at all: it
materialises one character's eigenspace as a list of blocks, walks every
coordinate vector, reads each nonzero vector's level off its support (the
highest block level where it is nonzero, the increasing-filtration
convention), and adds up ``multiplicity * q**-level`` line by line.  The walk
is exhaustive, p**dim vectors, and its work runs in C, column by column: the
vectors are laid out in ``itertools.product`` order as byte columns, one per
coordinate, a block at a time, the suffix columns every block shares holding
at most ``_BLOCK_BYTES`` bytes (or one column of p, past that); each column
is read once into a bit mask of its nonzero rows, and the rows whose first
nonzero coordinate is column i are counted as the bits that column i adds
to the mask of rows seen nonzero so far.  The tally depends
only on ``(p, dim)``, and the tally of a smaller space is the tail of a
larger one's, so the vectors are walked once per p, at the largest dimension
asked, and that walk is shared by every character whose eigenspace lives
over p; nothing is counted by a closed form or by splitting the space into
halves.

Independence is the point.  Block levels are found by stepping through the
integers of the character's congruence class mod p-1 and keeping those prime
to p; the slot formula, the point-count differences, and the
geometric series of :mod:`localmass.mass` are never consulted.  Agreement
between :func:`oracle_mass` and ``char_contribution`` is therefore a real
two-path check, not a tautology.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .model import (
    TRIVIAL,
    CharClass,
    LocalField,
    MassOracleError,
    char_is_omega,
    cyclotomic_valuation,
    validate_char,
)
from .rationals import rat_pow

#: Hard cap on the enumerated eigenspace dimension (p**12 vectors at most).
DIM_LIMIT = 12
#: Hard cap on the number of vectors walked, p**dim.
VECTOR_LIMIT = 10**7
#: Bytes of the suffix columns every block of the walk shares, so its memory
#: stays flat: 8 columns of 3**8 rows at p = 3, 13 of 2**13 at p = 2.
_BLOCK_BYTES = 1 << 17
#: ``bytes.translate`` table reading a coordinate byte as 1 if nonzero, else 0.
_NONZERO = bytes([0]) + bytes([1]) * 255


class OracleBlock(namedtuple("OracleBlock", "level dim")):
    """One eigen-space block as the walk of its congruence class finds it."""

    __slots__ = ()


def eigenspace_blocks(field: LocalField, chi: CharClass, max_level: int):
    """Yield chi's eigenspace blocks with level <= max_level, by congruence class.

    A level d >= 1 prime to p carries an f-dimensional block for chi exactly
    when d is congruent to (cyclotomic valuation - valuation(chi)) mod p-1;
    in mixed characteristic only d < p*e qualify and the trivial character
    additionally owns a line at level p*e.  The cyclotomic character owns the
    level-0 line.  Blocks come in increasing level order: the class is walked
    from its least positive member, and of any two consecutive members one is
    prime to p, since p does not divide p-1.
    """
    validate_char(field, chi)
    p, m = field.p, field.p - 1
    residue = (cyclotomic_valuation(field) - chi.valuation) % m
    if char_is_omega(field, chi):
        yield OracleBlock(0, 1)
    below = max_level if field.equal_char else min(max_level, p * field.e - 1)
    for d in range(residue or m, below + 1, m):
        if d % p:
            yield OracleBlock(d, field.f)
    if not field.equal_char and chi.distinguished == TRIVIAL and p * field.e <= max_level:
        yield OracleBlock(p * field.e, 1)


#: Per p, the tally of the largest space walked so far.
_TALLIES: dict[int, tuple[int, ...]] = {}


def _column_mask(column: bytes) -> int:
    """The rows of a byte column whose coordinate is nonzero, as a bit mask."""
    return int.from_bytes(column.translate(_NONZERO), "little")


def _coordinates(p: int) -> bytes:
    """The coordinates 0, ..., p - 1 as one byte each.  A coordinate c is the
    byte min(c, 255), which is zero exactly when c is."""
    return bytes(range(min(p, 256))).ljust(p, b"\xff")


def _suffix_columns(p: int, k: int) -> list[bytes]:
    """The vectors of F_p**k in ``product`` order, one byte column per
    coordinate: column j holds each coordinate p**(k-1-j) times in a row,
    and that run of p values repeats p**j times."""
    values = _coordinates(p)
    columns = []
    for j in range(k):
        run = p ** (k - 1 - j)
        column = values if run == 1 else b"".join(values[c : c + 1] * run for c in range(p))
        columns.append(column * p**j)
    return columns


def _blocks(p: int, dim: int):
    """The vectors of F_p**dim in ``product`` order, as blocks of dim byte
    columns.  The last k coordinates, the most whose k columns of p**k rows
    fit in ``_BLOCK_BYTES`` (and at least one), are laid out once; each block
    is one value of the first dim - k coordinates, read as constant columns
    of as many rows, beside them."""
    k = 1
    while k < dim and (k + 1) * p ** (k + 1) <= _BLOCK_BYTES:
        k += 1
    suffix = _suffix_columns(p, k)
    rows = len(suffix[0])
    values = _coordinates(p)
    for prefix in itertools.product(range(p), repeat=dim - k):
        yield [values[c : c + 1] * rows for c in prefix] + suffix


def _vectors_by_leading_position(p: int, dim: int) -> tuple[int, ...]:
    """Vectors of F_p**dim per position of their first nonzero coordinate.

    Entry i counts the vectors whose first nonzero coordinate is i; the zero
    vector is not counted.  The vectors of F_p**dim are those of F_p**D,
    D >= dim, whose first D - dim coordinates are 0, so their tally is the
    last dim entries of the larger space's.  Per p, the largest space asked
    so far is walked and kept, and a larger request walks its own space and
    replaces it.

    The walk reads every coordinate of every vector of
    ``product(range(p), repeat=D)`` exactly once, a column of a block of
    ``_blocks`` at a time: ``_column_mask`` turns the column into the bit
    mask of its nonzero rows, the mask is ORed into the rows seen nonzero so
    far, and the bits it adds are the rows whose first nonzero coordinate is
    that column; a column that adds no row leaves its count unchanged
    without one.  Each count is a ``bit_count`` of masks read from the
    vectors, never a block's size or a power of p; the zero vector sets no
    bit in any column, so it is never counted.
    """
    tally = _TALLIES.get(p, ())
    if len(tally) < dim:
        counts = [0] * dim
        for columns in _blocks(p, dim):
            seen = before = 0
            for i, column in enumerate(columns):
                mask = seen | _column_mask(column)
                if mask != seen:
                    seen, after = mask, mask.bit_count()
                    counts[i] += after - before
                    before = after
        tally = _TALLIES[p] = tuple(counts)
    return tally[len(tally) - dim :]


def enumerate_lines(
    field: LocalField, chi: CharClass, max_level: int
) -> dict[int, int]:
    """Exact line count per level, by walking every nonzero vector.

    The coordinates are ordered by descending block level, so a vector's
    level is the level of its first nonzero coordinate.  Every vector of
    ``product(range(p), repeat=dim)`` is counted at that position by a
    column walk (see ``_vectors_by_leading_position``), once per p, at the
    largest dimension asked; the positions are then read as levels.  Scalar
    multiples of a vector share its support, hence its level, so the p - 1
    nonzero multiples of each line land in the same bucket; dividing the
    vector tally by p - 1 yields the line count, and the division is checked
    to be exact.
    """
    # Each block has dimension >= 1, so reading stops within DIM_LIMIT + 1
    # blocks, however far the bound reaches.
    p, blocks, dim = field.p, [], 0
    for block in eigenspace_blocks(field, chi, max_level):
        blocks.append(block)
        dim += block.dim
        if dim > DIM_LIMIT or p**dim > VECTOR_LIMIT:
            break
    if dim > DIM_LIMIT:
        raise ValueError(f"oracle scale exceeded: dimension >= {dim} > DIM_LIMIT = {DIM_LIMIT}")
    if p**dim > VECTOR_LIMIT:
        raise ValueError(
            f"oracle scale exceeded: vectors >= {p}**{dim} > VECTOR_LIMIT = {VECTOR_LIMIT}"
        )
    levels_desc = sorted((b.level for b in blocks for _ in range(b.dim)), reverse=True)
    vectors_per_level = {}
    for lvl, n in zip(levels_desc, _vectors_by_leading_position(p, dim)):
        vectors_per_level[lvl] = vectors_per_level.get(lvl, 0) + n
    counts = {}
    for lvl, n in sorted(vectors_per_level.items()):
        lines, rem = divmod(n, p - 1)
        if rem:
            raise MassOracleError(
                f"{n} vectors at level {lvl} do not split into lines for {chi} over {field}"
            )
        counts[lvl] = lines
    return counts


def oracle_mass(field: LocalField, chi: CharClass, max_level: int) -> Fraction:
    """Mass of chi's ramified lines with level <= max_level, from enumeration.

    Each line at level d >= 1 contributes q**-d once if chi is the cyclotomic
    character and p times otherwise; the level-0 line is the unramified
    extension and is excluded.  With max_level >= p*e in mixed characteristic
    this equals ``char_contribution`` exactly; in equal characteristic it is
    the partial sum over the strata whose level fits the bound.
    """
    counts = enumerate_lines(field, chi, max_level)
    mult = 1 if char_is_omega(field, chi) else field.p
    return sum(
        (n * mult * rat_pow(field.q, -lvl) for lvl, n in counts.items() if lvl > 0),
        Fraction(0),
    )
