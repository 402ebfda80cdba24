"""Brute-force verification by exhaustive line enumeration.

This module recomputes line counts and masses with no formulas at all: it
materialises one character's eigenspace as a list of blocks, walks every
nonzero coordinate vector, reads each vector's level off its support (the
highest block level where it is nonzero, the increasing-filtration
convention), and adds up ``multiplicity * q**-level`` line by line.

Independence is the point.  Block levels are found by scanning the integers
and keeping those that are prime to p and whose valuation congruence matches
the character; the slot formula, the point-count differences, and the
geometric series of :mod:`localmass.mass` are never consulted.  Agreement
between :func:`oracle_mass` and ``char_contribution`` is therefore a real
two-path check, not a tautology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    CharClass,
    LocalField,
    char_is_omega,
    char_is_trivial,
    cyclotomic_valuation,
    validate_char,
)
from .rationals import rat_pow

#: Hard cap on the enumerated eigenspace dimension (p**12 vectors at most).
DIM_LIMIT = 12


class MassOracleError(RuntimeError):
    """Enumeration produced an impossible grouping; indicates a bug."""


@dataclass(frozen=True)
class OracleBlock:
    level: int
    dim: int


def eigenspace_blocks(
    field: LocalField, chi: CharClass, max_level: int
) -> list[OracleBlock]:
    """Blocks of chi's eigenspace with level <= max_level, by congruence scan.

    A level d >= 1 prime to p carries an f-dimensional block for chi exactly
    when d is congruent to (cyclotomic valuation - valuation(chi)) mod p-1;
    in mixed characteristic only d < p*e qualify and the trivial character
    additionally owns a line at level p*e.  The cyclotomic character owns the
    level-0 line.
    """
    validate_char(field, chi)
    p, m = field.p, max(field.p - 1, 1)
    residue = (cyclotomic_valuation(field) - chi.valuation) % m
    blocks = []
    if char_is_omega(field, chi):
        blocks.append(OracleBlock(0, 1))
    for d in range(1, max_level + 1):
        if d % p == 0:
            continue
        if not field.equal_char and d >= p * field.e:
            continue
        if d % m == residue % m:
            blocks.append(OracleBlock(d, field.f))
    if not field.equal_char and char_is_trivial(field, chi) and p * field.e <= max_level:
        blocks.append(OracleBlock(p * field.e, 1))
    return blocks


def enumerate_lines(
    field: LocalField, chi: CharClass, max_level: int
) -> dict[int, int]:
    """Exact line count per level, by walking every nonzero vector.

    Scalar multiples of a vector share its support, hence its level, so the
    p - 1 nonzero multiples of each line land in the same bucket; dividing
    the vector tally by p - 1 yields the line count, and the division is
    checked to be exact.
    """
    blocks = eigenspace_blocks(field, chi, max_level)
    dim = sum(b.dim for b in blocks)
    if dim > DIM_LIMIT:
        raise ValueError("oracle scale exceeded")
    levels = []
    for b in blocks:
        levels.extend([b.level] * b.dim)
    vectors_per_level: dict[int, int] = {}
    for vec in itertools.product(range(field.p), repeat=dim):
        top = -1
        for coord, lvl in zip(vec, levels):
            if coord and lvl > top:
                top = lvl
        if top >= 0:
            vectors_per_level[top] = vectors_per_level.get(top, 0) + 1
    counts = {}
    for lvl, n in sorted(vectors_per_level.items()):
        lines, rem = divmod(n, field.p - 1)
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
