"""Parameter space and combinatorial skeleton of the filtered module.

A local field ``F`` with finite residue field of characteristic ``p`` enters
the computations only through its parameters: ``p``, the residue degree ``f``
(so ``q = p**f``), and the absolute ramification index ``e``, which is
``math.inf`` for a field of equal characteristic (Laurent series over the
residue field) and a finite integer for a finite extension of the p-adics.

Conjugacy classes of separable degree-p extensions of ``F`` correspond to
stable lines in a filtered module attached to ``F``.  That module decomposes
into eigen-blocks, one per character class of the degree-(p-1) abelian
closure, and each block sits at a well-defined filtration level.  This module
owns the one walk over those levels (:func:`level_walk`, truncated by
:func:`truncation_bound`, whole or one valuation at a time, shaped by
:func:`walk_plan`), which the block layout, the mass kernel and the
``structure`` command read, with its rows, blocks and dimension in closed
form (:func:`walk_totals`), the one list of character classes that behave
differently (:func:`char_classes`), and the stratum arithmetic.  It also
makes the per-level counts the ``count`` command prints: :func:`count_rows`
reads off the walk how many extensions and conjugacy classes live at each
level, in integers alone, so that command never loads the ``Fraction``
kernel of :mod:`localmass.mass`.

Characters are reduced to the data the formulas consume: a valuation class
mod ``p - 1`` and a distinguished marker for the trivial character and for
the mod-p cyclotomic character, each class spelled one way.  Coordinates in
the basis (uniformizer class, residue-unit generator class) are a census
matter: :func:`coords_marker` marks a pair and :func:`enumerate_characters`
lists the pairs.  The cyclotomic class is a fact about the field, so
:class:`LocalField` carries its coordinates, and whether it is the trivial
class is :func:`omega_is_trivial` of the field.

:class:`LocalField` checks the parameters, so no computation that takes a
field re-checks them.  The records are plain values; :mod:`localmass.cli`
alone renders them.

The two errors that mean an internal check failed, :class:`MassInvariantError`
and :class:`MassOracleError`, are defined here, beside the types every
command loads, so that catching them loads neither of the modules that raise
them.
"""

from __future__ import annotations

import math
from collections import namedtuple

#: Absolute ramification index of an equal-characteristic field.
INFINITE_E = math.inf

#: Distinguished markers for character classes (also the wire spelling).
GENERIC = "none"
TRIVIAL = "trivial"
OMEGA = "omega"


class MassInvariantError(RuntimeError):
    """An internal exact identity failed; the report would be wrong."""


class MassOracleError(RuntimeError):
    """Enumeration produced an impossible grouping; indicates a bug."""


#: Miller-Rabin with the prime bases 2..41 is exact below this bound
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin, exact for n < PRIME_TEST_BOUND.

    Raises ValueError at or above the bound rather than guess.
    """
    if n < 2:
        return False
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}")
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class LocalField(namedtuple("LocalField", "p f e omega")):
    """Parameters (p, f, e) of a local field with residue cardinality q = p^f.

    ``e`` is a finite integer for mixed characteristic and ``math.inf`` for
    equal characteristic; no integer sentinel is ever used, so stratum loops
    can compare against ``e`` directly.

    ``omega`` holds the coordinates (uniformizer exponent, unit exponent) of
    the mod-p cyclotomic class, reduced mod p-1.  In equal characteristic and
    for p = 2 the class is trivial and ``omega`` is always ``(0, 0)``.  In
    mixed characteristic (p, f, e) fixes only its valuation, e mod p-1, so
    ``omega`` is None unless supplied; ``(0, 0)`` says that the field
    contains the p-th roots of unity, as Q_3(sqrt(-3)) = LocalField(3, 1, 2,
    (0, 0)) does and Q_3(sqrt(3)) does not.
    """

    __slots__ = ()

    def __new__(cls, p: int, f: int, e: int | float, omega: tuple[int, int] | None = None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if isinstance(f, bool) or not isinstance(f, int) or f < 1:
            raise ValueError(f"residue degree f = {f!r} must be an integer >= 1")
        if e != INFINITE_E and (isinstance(e, bool) or not isinstance(e, int) or e < 1):
            raise ValueError(f"ramification index e = {e!r} must be an integer >= 1 or infinite")
        self = super().__new__(cls, p, f, e, None)
        forced = self.equal_char or p == 2
        if omega is None:
            return super().__new__(cls, p, f, e, (0, 0)) if forced else self
        m = p - 1
        omega = (omega[0] % m, omega[1] % m)
        if forced and omega != (0, 0):
            raise ValueError("cyclotomic character is trivial for this field")
        if omega[0] != cyclotomic_valuation(self):
            raise ValueError("cyclotomic coordinates must have valuation e mod p-1")
        return super().__new__(cls, p, f, e, omega)

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def equal_char(self) -> bool:
        """True when the field has equal characteristic (e infinite)."""
        return self.e == INFINITE_E


class CharClass(namedtuple("CharClass", "valuation distinguished")):
    """A character class: valuation mod p-1 and marker.  The trivial class
    has valuation 0; which class is cyclotomic is the field's to say
    (:func:`validate_char`)."""

    __slots__ = ()

    def __new__(cls, valuation: int, distinguished: str = GENERIC):
        if distinguished not in (GENERIC, TRIVIAL, OMEGA):
            raise ValueError(f"unknown marker {distinguished!r}")
        if distinguished == TRIVIAL and valuation != 0:
            raise ValueError("trivial character must have valuation 0")
        return super().__new__(cls, valuation, distinguished)


def trivial_char() -> CharClass:
    return CharClass(0, TRIVIAL)


def generic_char(valuation: int) -> CharClass:
    return CharClass(valuation, GENERIC)


def omega_char(field: LocalField) -> CharClass:
    """The cyclotomic character class of ``field`` (the trivial character
    when it is trivial)."""
    if omega_is_trivial(field):
        return trivial_char()
    return CharClass(cyclotomic_valuation(field), OMEGA)


def omega_is_trivial(field: LocalField) -> bool:
    """Whether the cyclotomic character of ``field`` is the trivial one.

    Always in equal characteristic and for p = 2 (the mod-2 cyclotomic
    character has trivial target); in mixed characteristic exactly when the
    field's cyclotomic coordinates are ``(0, 0)``, that is, when it contains
    the p-th roots of unity.  Unknown coordinates count as nontrivial.
    """
    return field.omega == (0, 0)


def char_is_omega(field: LocalField, chi: CharClass) -> bool:
    if chi.distinguished == OMEGA:
        return True
    return omega_is_trivial(field) and chi.distinguished == TRIVIAL


def coords_marker(field: LocalField, a: int, b: int) -> str:
    """The marker of the character ``(a, b)``, coordinates in [0, p-1), by the
    one census: (0, 0) is trivial, the cyclotomic coordinates the field carries
    are omega unless they are (0, 0), and every other pair is generic."""
    if (a, b) == (0, 0):
        return TRIVIAL
    return OMEGA if (a, b) == field.omega else GENERIC


def validate_char(field: LocalField, chi: CharClass) -> None:
    """Check the field-dependent character invariant: only a nontrivial
    cyclotomic class, of valuation e mod p-1, is marked omega.  Where the
    cyclotomic class is trivial it is spelled trivial."""
    if chi.distinguished != OMEGA:
        return
    if omega_is_trivial(field):
        raise ValueError("cyclotomic character is trivial for this field: mark it 'trivial'")
    if chi.valuation % (field.p - 1) != cyclotomic_valuation(field):
        raise ValueError("cyclotomic character must have valuation e mod p-1")


def cyclotomic_valuation(field: LocalField) -> int:
    """Valuation class of the cyclotomic character: e mod p-1, or 0 in equal char."""
    return 0 if field.equal_char else field.e % (field.p - 1)


def stratum_slot(field: LocalField, chi: CharClass, i: int) -> int:
    """Position j in [1, p-1] of chi's eigen-block within stratum i.

    Determined by ``valuation(chi) + i + j == cyclotomic valuation`` mod p-1;
    periodic in i with period p-1.  For p = 2 the interval [1, 1] forces j = 1.
    No production path uses it: the mass kernel places its blocks by
    :func:`level_walk`, and this per-stratum formula is kept as the
    independent reference that the kernel is checked against.
    """
    if i < 0:
        raise ValueError("stratum index must be >= 0")
    validate_char(field, chi)
    return (cyclotomic_valuation(field) - chi.valuation - i - 1) % (field.p - 1) + 1


def enumerate_characters(field: LocalField):
    """Yield all (p-1)^2 characters as ``((a, b), class)`` pairs, in (a, b) order.

    The valuation of ``(a, b)`` is ``a``, so each valuation class carries
    exactly p-1 characters, each marked by :func:`coords_marker`.  It is the
    tests' reference, with no production caller but
    :func:`localmass.mass.per_character_contributions`: the ``mass`` command
    renders its rows from the same census, with no record per character.
    """
    m = field.p - 1
    for a in range(m):
        for b in range(m):
            yield (a, b), CharClass(a, coords_marker(field, a, b))


def char_classes(field: LocalField, vbar: int | None = None):
    """Yield one character of each class whose contribution and line counts differ.

    Those depend only on the valuation, on being trivial and on being
    cyclotomic, so for each valuation w this yields the trivial character
    (w = 0), the cyclotomic character (w its valuation, unless it is the
    trivial one) and ``generic_char(w)``, in that order; given ``vbar``
    (mod p-1), only that valuation's.  The up to p + 1 classes come one at
    a time, so a caller that stops early builds only what it read.  It
    still yields a generic class where a valuation has no generic character
    (p = 2, and ``LocalField(3, 1, 2)``): dropping it changes recorded
    ``oracle-check`` output, so it waits for a benchmark re-record.
    """
    w_omega = cyclotomic_valuation(field)
    for w in range(field.p - 1) if vbar is None else [vbar % (field.p - 1)]:
        if w == 0:
            yield trivial_char()
        if w == w_omega and not omega_is_trivial(field):
            yield omega_char(field)
        yield generic_char(w)


class EigenBlock(namedtuple("EigenBlock", "level valuation dim distinguished")):
    """One eigen-block of the filtered module: where, whose, and how big.

    ``distinguished`` is the block character's marker: "omega", "trivial"
    or "none".
    """

    __slots__ = ()


class FilteredLayout(namedtuple("FilteredLayout", "field max_level blocks")):
    """Explicit eigen-block decomposition of the filtered module: the
    ``blocks`` (a tuple of :class:`EigenBlock`) at levels <= ``max_level``."""

    __slots__ = ()

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)


def truncation_bound(field: LocalField, max_level: int | None) -> int:
    """Highest level a truncated view of the filtered module keeps.

    In mixed characteristic the bound is clamped to the top level p*e and may
    be omitted; in equal characteristic the module is infinite-dimensional,
    so a finite bound is required.
    """
    if max_level is not None and max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if field.equal_char:
        if max_level is None:
            raise ValueError("max_level (--max-level) required for an equal-characteristic field")
        return max_level
    top = field.p * field.e
    return top if max_level is None else min(max_level, top)


def walk_plan(field: LocalField, bound: int, vbar: int | None = None):
    """The shape of ``level_walk(field, bound, vbar)``: whether it makes the
    level-0 line, its levels below the top as a ``range``, by p - 1 given
    ``vbar``, whose multiples of p it skips, and whether it makes the top
    line p*e."""
    p, m = field.p, field.p - 1
    w_omega = cyclotomic_valuation(field)
    w = None if vbar is None else vbar % m
    last = bound if field.equal_char else min(bound, p * field.e - 1)
    start, step = (1, 1) if w is None else ((w_omega - w - 1) % m + 1, m)
    top = not field.equal_char and p * field.e <= bound and w in (None, 0)
    return w in (None, w_omega), range(start, last + 1, step), top


def level_walk(field: LocalField, bound: int, vbar: int | None = None, low: int = 0):
    """Yield ``(level, vbar, dim, special, generic)`` for each occupied level
    in [low, bound].

    Levels come in increasing order: the level-0 line of the cyclotomic
    character, then every level prime to p below the top, which holds one
    block of dimension f per character of valuation ``vbar``, and in mixed
    characteristic the top-level line p*e of the trivial character.  The
    blocks at a level are counted, not listed: ``special`` holds the markers
    of the omega and trivial blocks among them (at most two valuations have
    any), and ``generic`` is the number of the others.
    Given ``vbar`` (mod p-1), only its rows come.  The walk starts at its
    first level >= ``low``, so walks over adjacent windows [low, bound] make
    each row once between them.
    """
    p, m = field.p, field.p - 1
    w_omega = cyclotomic_valuation(field)
    zero, levels, top = walk_plan(field, bound, vbar)
    if zero and low <= 0:
        yield 0, w_omega, 1, (OMEGA,), 0
    special = {0: () if omega_is_trivial(field) else (TRIVIAL,)}
    special[w_omega] = (OMEGA,) + special.get(w_omega, ())
    if low > levels.start:  # the progression's first level >= low
        levels = levels[-((levels.start - low) // levels.step) :]
    for level in levels:
        if level % p:
            w = (w_omega - level) % m
            markers = special.get(w, ())
            yield level, w, field.f, markers, m - len(markers)
    if top and low <= p * field.e:
        yield p * field.e, 0, 1, (TRIVIAL,), 0


def walk_totals(field: LocalField, bound: int, vbar: int | None = None):
    """The levels ``level_walk(field, bound, vbar)`` makes (``count``'s rows),
    their blocks (``structure``'s rows) and the blocks' total dimension, in
    closed form from :func:`walk_plan`: the level-0 and top-level lines, and
    p - 1 blocks of dimension f at each level of the progression prime to p.
    Since p = 1 mod p-1, the progression's multiples of p are p times its
    own levels.  Each count is a ceil-division, >= 0 as 0 < stop and start <= step."""
    zero, levels, top = walk_plan(field, bound, vbar)
    p, start, stop, step = field.p, levels.start, levels.stop, levels.step
    inner = (p * start - stop) // (p * step) - (start - stop) // step
    lines = zero + top
    return lines + inner, lines + (p - 1) * inner, lines + (p - 1) * field.f * inner


class LevelCount(namedtuple("LevelCount", "level vbar lines extensions conjugacy_classes")):
    """Extensions and conjugacy classes at one filtration level.

    ``vbar`` is the valuation class of the characters whose eigen-blocks sit
    at the level: the cyclotomic valuation at level 0, 0 at the top level
    p*e, and the valuation fixed by the level's congruence in between.
    """

    __slots__ = ()


def count_rows(
    field: LocalField, max_level: int | None = None, vbar: int | None = None, min_level: int = 0
):
    """Yield the aggregate counts of each level, over all character classes.

    One ``LevelCount`` per level, in increasing level order, each made when
    it is asked for: a caller that writes rows as they come holds one row,
    not the table, whose counts reach thousands of digits.

    Includes the level-0 row for the unramified extension and, in mixed
    characteristic, the top-level row; ``max_level`` truncates as
    :func:`truncation_bound` says, so it is required in
    equal characteristic.  With ``vbar`` only the rows of that valuation
    (mod p-1) are made, from the level walk of that valuation alone.  Rows
    below ``min_level`` are not made, so walks over adjacent level windows
    make each row once between them.

    Each row is the direct per-level formula over the walk's counted blocks:
    a block of dimension ``dim`` at a level of stratum ``i`` adds the
    ``p**below * (p**dim - 1) / (p - 1)`` lines not already in the
    ``below``-dimensional space under it, ``below = i*f`` plus, above level
    0, one for a cyclotomic character, which owns the level-0 line.  Its
    lines give one extension each when the character is cyclotomic and p
    otherwise.
    The generic blocks of a row are one class, weighted by their number;
    ``p**(i*f)`` is kept as a running product over the strata, from the
    stratum of ``min_level``.  A row's counts depend on its stratum and its
    shape ``(dim, generic, special)`` alone, and a stratum's levels have at
    most three shapes, so each shape's counts are made once per stratum and
    shared by its rows.  The level-0 row is not shared: its cyclotomic line
    has no line below it, so at p = 2, f = 1 it counts one line where its
    stratum's level 1, of the same shape, counts two.
    Whether the cyclotomic character is the trivial one is read off the
    field: when it is (the field contains the p-th roots of unity), every
    top-level extension is cyclic and its own class.
    """
    p = field.p
    cyclotomic = (OMEGA, TRIVIAL) if omega_is_trivial(field) else (OMEGA,)
    step, stratum = p**field.f, min_level // p
    power = step**stratum
    span = {1: 1, field.f: (step - 1) // (p - 1)}  # (p**dim - 1) // (p - 1) for each dim
    shapes = {}  # (dim, generic, special) -> (lines, extensions, classes) in the stratum
    row = tuple.__new__  # LevelCount's fields in order, without its Python-level __new__
    for level, w, dim, special, generic in level_walk(
        field, truncation_bound(field, max_level), vbar, min_level
    ):
        while stratum < level // p:
            stratum, power, shapes = stratum + 1, power * step, {}
        shape = (dim, generic, special)
        counts = shapes.get(shape)
        if counts is None:
            block = power * span[dim]
            lines, extensions = generic * block, generic * block * p
            for marker in special:
                if marker not in cyclotomic:
                    lines, extensions = lines + block, extensions + block * p
                else:
                    n = block * p if level else block
                    lines, extensions = lines + n, extensions + n
            counts = (lines, extensions, lines)
            if level:
                shapes[shape] = counts
        yield row(LevelCount, (level, w, *counts))


def layout(field: LocalField, max_level: int | None = None) -> FilteredLayout:
    """Block layout up to ``max_level`` (see :func:`truncation_bound`).

    The level walk's counted rows, expanded: one block per character class
    per stratum (dimension f each), plus the level-0 line of the cyclotomic
    character and, in mixed characteristic, the top-level line of the
    trivial character.  At full truncation in mixed characteristic the
    dimensions sum to 2 + (p-1)^2 * e * f.
    """
    bound = truncation_bound(field, max_level)
    blocks = tuple(
        EigenBlock(level, vbar, dim, marker)
        for level, vbar, dim, special, generic in level_walk(field, bound)
        for marker in special + (GENERIC,) * generic
    )
    return FilteredLayout(field, bound, blocks)
