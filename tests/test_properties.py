"""Property tests over random fields: the level walk and the per-class sums
against the independent paths they must agree with."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import localmass.mass
from localmass.mass import (
    LevelCount,
    _characters_mass,
    char_contribution,
    char_contribution_closed,
    char_contribution_truncated,
    count_rows,
    count_table,
    filter_census,
    galois_closure_contribution,
    mass_from_counts,
    per_character_contributions,
    subfield_contribution,
    total_mass,
)
from localmass.model import (
    GENERIC,
    INFINITE_E,
    OMEGA,
    TRIVIAL,
    CharClass,
    LocalField,
    char_classes,
    char_is_omega,
    cyclotomic_valuation,
    enumerate_characters,
    generic_char,
    level_walk,
    omega_is_trivial,
    stratum_slot,
    truncation_bound,
    walk_totals,
)
from localmass.cli_count import _check_counts
from localmass.oracle import eigenspace_blocks
from reference import row_by_row_count_rows


@st.composite
def cases(draw, max_e=30):
    """A field carrying its cyclotomic coordinates, and a count-table bound
    (small in equal characteristic).  The coordinates are drawn where (p, f, e)
    does not force them; unit exponent 0 at valuation 0 puts the p-th roots of
    unity in the field."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    f = draw(st.integers(1, 3))
    e = draw(st.one_of(st.integers(1, max_e), st.just(INFINITE_E)))
    field = LocalField(p, f, e)
    max_level = draw(st.integers(0, 40)) if field.equal_char else None
    if not omega_is_trivial(field):
        field = LocalField(p, f, e, (cyclotomic_valuation(field), draw(st.integers(0, p - 2))))
    return field, max_level


SETTINGS = settings(max_examples=50, deadline=None)


@SETTINGS
@given(cases())
def test_per_character_contributions_match_direct(case):
    field, _ = case
    expected = [(ab, chi, char_contribution(field, chi)) for ab, chi in enumerate_characters(field)]
    assert per_character_contributions(field) == expected


@SETTINGS
@given(cases())
@example((LocalField(2, 1, 3), None))
@example((LocalField(3, 1, 2, (0, 1)), None))
@example((LocalField(3, 1, 2, (0, 0)), None))
def test_char_classes_are_the_census_classes(case):
    # The (valuation, marker) classes of the (p-1)**2 coordinate pairs are
    # the classes char_classes yields, each once, but for a phantom: it
    # yields a generic class of valuation 0 where no pair is generic there,
    # at p = 2, whose one character is trivial, and at p = 3 where the
    # cyclotomic pair is (0, 1), as over LocalField(3, 1, 2, (0, 1)).
    field, _ = case
    classes = list(char_classes(field))
    assert len(set(classes)) == len(classes)
    phantom = field.p == 2 or (field.p == 3 and field.omega == (0, 1))
    expected = set(classes) - ({generic_char(0)} if phantom else set())
    assert {chi for _, chi in enumerate_characters(field)} == expected


@SETTINGS
@given(cases())
def test_count_table_levels_match_congruence_scan(case):
    field, max_level = case
    bound = truncation_bound(field, max_level)
    scanned = {
        (block.level, chi.valuation)
        for chi in char_classes(field)
        for block in eigenspace_blocks(field, chi, bound)
    }
    rows = [(rec.level, rec.vbar) for rec in count_table(field, max_level).values()]
    assert rows == sorted(scanned)


@SETTINGS
@given(cases())
def test_one_valuation_walk_is_the_full_walk_filtered(case):
    field, max_level = case
    m = field.p - 1
    bound = truncation_bound(field, max_level)
    walk = list(level_walk(field, bound))
    table = count_table(field, max_level)
    for w in [*range(2 * m), -1]:  # every valuation, and each once more past p - 1
        assert list(level_walk(field, bound, w)) == [row for row in walk if row[1] == w % m]
        rows = [(level, rec) for level, rec in table.items() if rec.vbar == w % m]
        assert list(count_table(field, max_level, vbar=w).items()) == rows


@SETTINGS
@given(cases(), st.integers(0, 400))
def test_count_rows_are_counted_in_closed_form(case, cut):
    # count's and structure's row caps are these closed forms, checked
    # before any walk: count's rows, and the walk's blocks and dimension.
    field, max_level = case
    for level in {max_level, cut if max_level is None else min(cut, max_level)}:
        bound = truncation_bound(field, level)
        for vbar in [None, *range(2 * (field.p - 1)), -1]:
            made = sum(1 for _ in count_rows(field, level, vbar))
            walk = list(level_walk(field, bound, vbar))
            blocks = sum(len(special) + generic for *_, special, generic in walk)
            dim = sum(dim * (len(special) + generic) for _, _, dim, special, generic in walk)
            assert walk_totals(field, bound, vbar) == (made, blocks, dim), (level, vbar)


@SETTINGS
@given(cases(), st.integers(0, 400))
def test_every_count_row_has_krasners_extensions(case, cut):
    # Krasner's count, which count checks every row against, knows nothing
    # of characters; the rows come from the level walk's blocks.
    field, max_level = case
    for level in {max_level, cut if max_level is None else min(cut, max_level)}:
        for vbar in [None, *range(field.p - 1)]:
            _check_counts(field, count_rows(field, level, vbar))


@SETTINGS
@given(cases(), st.integers(0, 400))
def test_a_walk_from_a_low_level_is_the_full_walk_cut(case, low):
    field, max_level = case
    bound = truncation_bound(field, max_level)
    for vbar in [None, *range(field.p - 1)]:
        walk = list(level_walk(field, bound, vbar))
        assert list(level_walk(field, bound, vbar, low)) == [row for row in walk if row[0] >= low]
        rows = [rec for rec in count_rows(field, max_level, vbar) if rec.level >= low]
        assert list(count_rows(field, max_level, vbar, low)) == rows, vbar


@SETTINGS
@given(cases(), st.integers(0, 400))
def test_count_rows_share_each_stratum_shape_as_rows_made_one_by_one(case, low):
    # count_rows makes each of a stratum's row shapes once; the reference
    # multiplies every row out, from whichever stratum the window starts in.
    field, max_level = case
    for vbar in [None, *range(field.p - 1)]:
        for window in (0, low):
            expected = list(row_by_row_count_rows(field, max_level, vbar, window))
            assert list(count_rows(field, max_level, vbar, window)) == expected, (vbar, window)


def listed_walk(field, bound, vbar=None):
    """The level walk with every block's marker listed: each row holds a
    tuple of p - 1 markers, built for every valuation before the first row.
    The reference the counted walk expands to."""
    p, m = field.p, field.p - 1
    w_omega = cyclotomic_valuation(field)
    walked = range(m) if vbar is None else [vbar % m]
    if w_omega in walked:
        yield 0, w_omega, 1, (OMEGA,)
    markers = {}
    for w in walked:
        special = [OMEGA] if w == w_omega else []
        if w == 0 and not omega_is_trivial(field):
            special.append(TRIVIAL)
        markers[w] = tuple(special) + (GENERIC,) * (m - len(special))
    last = bound if field.equal_char else min(bound, p * field.e - 1)
    start, step = (1, 1) if vbar is None else ((w_omega - walked[0] - 1) % m + 1, m)
    for level in range(start, last + 1, step):
        if level % p:
            w = (w_omega - level) % m
            yield level, w, field.f, markers[w]
    if not field.equal_char and p * field.e <= bound and 0 in walked:
        yield p * field.e, 0, 1, (TRIVIAL,)


def listed_count_table(field, max_level=None, vbar=None):
    """The count table over the listed walk: one ``Counter`` of each row's
    markers, a ``CharClass`` per marker class, and ``p**below`` taken afresh."""
    p, f = field.p, field.f
    table = {}
    for level, w, dim, markers in listed_walk(field, truncation_bound(field, max_level), vbar):
        lines = extensions = 0
        for marker, blocks in Counter(markers).items():
            bonus = 1 if char_is_omega(field, CharClass(w, marker)) else 0
            below = (level // p) * f + (bonus if level else 0)
            n = blocks * ((p ** (below + dim) - p**below) // (p - 1))
            lines += n
            extensions += n if bonus else n * p
        table[level] = LevelCount(level, w, lines, extensions, lines)
    return table


@SETTINGS
@given(cases())
def test_counted_walk_expands_to_the_listed_walk(case):
    field, max_level = case
    bound = truncation_bound(field, max_level)
    for vbar in [None, *range(field.p - 1)]:
        expanded = [
            (level, w, dim, special + (GENERIC,) * generic)
            for level, w, dim, special, generic in level_walk(field, bound, vbar)
        ]
        assert expanded == list(listed_walk(field, bound, vbar)), vbar


@SETTINGS
@given(cases())
def test_count_table_matches_the_listed_count_table(case):
    field, max_level = case
    for vbar in [None, *range(field.p - 1)]:
        table = count_table(field, max_level, vbar)
        assert list(table.items()) == list(listed_count_table(field, max_level, vbar).items()), vbar


def listed_xi_filter_mass(field, keep):
    """Mass of the characters chi whose class xi = omega*chi^-1 passes ``keep``,
    listed one by one: (p-1)^2 tests of ``keep``.  The reference the counted
    closure filters must agree with."""
    om = field.omega
    m = field.p - 1
    kept = [
        chi
        for (a, b), chi in enumerate_characters(field)
        if keep(((om[0] - a) % m, (om[1] - b) % m))
    ]
    trivial = any(chi.distinguished == TRIVIAL for chi in kept)
    return _characters_mass(field, Counter(chi.valuation for chi in kept), trivial)


@SETTINGS
@given(cases())
@example((LocalField(3, 1, 2, (0, 0)), None))
@example((LocalField(7, 1, 6, (0, 0)), None))
@example((LocalField(13, 2, INFINITE_E), 0))
def test_counted_filters_match_the_listing(case):
    # The mixed-characteristic fields with omega (0, 0) contain the p-th roots of unity.
    field, _ = case
    m = field.p - 1

    def order(xi):
        return math.lcm(*(m // math.gcd(c, m) for c in xi))

    for n in [n for n in range(1, field.p) if m % n == 0]:
        listed = listed_xi_filter_mass(field, lambda xi: order(xi) == n)
        assert galois_closure_contribution(field, f"group-order={n}") == listed, n
    w0 = cyclotomic_valuation(field)
    chars = [chi for _, chi in enumerate_characters(field) if chi.valuation == w0]
    listed = sum((char_contribution(field, chi) for chi in chars), Fraction(0))
    assert galois_closure_contribution(field, "unramified-closure") == listed


@SETTINGS
@given(cases())
@example((LocalField(3, 1, 2, (0, 0)), None))
@example((LocalField(13, 1, 4, (4, 6)), None))
def test_filter_census_counts_the_listed_characters(case):
    # Each spec keeps the characters whose xi = omega * chi**-1 passes its
    # test, grouped by valuation; the trivial character's xi is omega's.
    field, _ = case
    m = field.p - 1
    om = field.omega
    divisors = [n for n in range(1, field.p) if m % n == 0]

    def order(xi):
        return math.lcm(*(m // math.gcd(c, m) for c in xi))

    keeps = {"cyclic": lambda xi: xi == (0, 0), "unramified-closure": lambda xi: xi[0] == 0}
    keeps.update({f"group-order={n}": lambda xi, n=n: order(xi) == n for n in divisors})
    for spec, keep in keeps.items():
        kept = [
            chi.valuation
            for (a, b), chi in enumerate_characters(field)
            if keep(((om[0] - a) % m, (om[1] - b) % m))
        ]
        assert filter_census(field, spec) == (dict(Counter(kept)), keep(om)), spec
    # Without its coordinates only omega's valuation is known: the filters on
    # it still count, an order filter cannot.
    bare = LocalField(field.p, field.f, field.e)
    if bare.omega is None:
        w0 = cyclotomic_valuation(bare)
        assert filter_census(bare, "cyclic") == ({w0: 1}, False)
        kept = [chi.valuation for _, chi in enumerate_characters(bare) if chi.valuation == w0]
        assert filter_census(bare, "unramified-closure") == (dict(Counter(kept)), w0 == 0)
        for n in divisors:
            with pytest.raises(ValueError, match="omega class required"):
                filter_census(bare, f"group-order={n}")
        # The order is checked before the coordinates are asked for.
        with pytest.raises(ValueError, match="order must divide p - 1"):
            filter_census(bare, f"group-order={m + 1}")


@SETTINGS
@given(cases())
def test_count_table_rebuilds_mass_in_mixed_char(case):
    field, _ = case
    if not field.equal_char:
        assert mass_from_counts(field, count_table(field)) == field.p


@SETTINGS
@given(cases())
def test_group_order_slices_partition_mass(case):
    field, _ = case
    divisors = [n for n in range(1, field.p) if (field.p - 1) % n == 0]
    assert sum(galois_closure_contribution(field, f"group-order={n}") for n in divisors) == field.p


def test_no_kernel_value_lists_characters(monkeypatch):
    def refuse(field):
        raise AssertionError(f"characters of {field} listed")

    monkeypatch.setattr(localmass.mass, "enumerate_characters", refuse)
    fields = [
        LocalField(3, 1, 2, (0, 0)),
        LocalField(7, 1, 3, (3, 1)),
        LocalField(5, 2, INFINITE_E),
        LocalField(2, 1, 3),
    ]
    for field in fields:
        m = field.p - 1
        assert total_mass(field).total == field.p
        galois_closure_contribution(field, "cyclic")
        galois_closure_contribution(field, "unramified-closure")
        divisors = [n for n in range(1, m + 1) if m % n == 0]
        parts = [galois_closure_contribution(field, f"group-order={n}") for n in divisors]
        assert sum(parts) == field.p
        assert subfield_contribution(field, [(1, 0), (0, 1)]) == field.p
        subfield_contribution(field, [(m // 2, 0)])
        list(count_rows(field, 20))


@SETTINGS
@given(cases(), st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=3))
# Omega trivial: every subgroup keeps the trivial character and its top-level mass.
@example((LocalField(3, 1, 2, (0, 0)), None), [])
@example((LocalField(3, 1, 2, (0, 0)), None), [(1, 1)])
@example((LocalField(7, 1, 6, (0, 0)), None), [(2, 0)])
# Omega (3, 1) is not in <(2, 0)>, whose first coordinates fix valuations 3, 1 and 5.
@example((LocalField(7, 1, 3, (3, 1)), None), [(2, 0)])
@example((LocalField(2, 1, 3), None), [])
def test_subfield_slices_match_per_character_sums(case, gens):
    field, _ = case
    m = field.p - 1
    # The subgroup by a scan of every coefficient vector, not a closure.
    subgroup = {(0, 0)}
    for k in itertools.product(range(m), repeat=len(gens)):
        subgroup.add(tuple(sum(c * g[i] for c, g in zip(k, gens)) % m for i in (0, 1)))
    om = field.omega
    expected = sum(
        (
            char_contribution(field, chi)
            for (a, b), chi in enumerate_characters(field)
            if ((om[0] - a) % m, (om[1] - b) % m) in subgroup
        ),
        Fraction(0),
    )
    listed = listed_xi_filter_mass(field, subgroup.__contains__)
    assert subfield_contribution(field, gens) == listed == expected


def per_stratum_sum(field, chi, max_level):
    """The stratum sum with one ``Fraction`` add per stratum, each block
    placed by the slot formula: an independent reference for the kernel,
    which reads its blocks off the level walk instead."""
    p, q = field.p, field.q
    head = Fraction(0)
    i = 0
    while (field.equal_char or i < field.e) and p * i + 1 <= max_level:
        level = p * i + stratum_slot(field, chi, i)
        if level <= max_level:
            head += Fraction(1, q ** (level - i))
        i += 1
    total = Fraction(p * (q - 1), p - 1) * head
    if not field.equal_char and chi.distinguished == TRIVIAL and p * field.e <= max_level:
        total += Fraction(p, q ** ((p - 1) * field.e))
    return total


@SETTINGS
@given(cases(max_e=50), st.integers(0, 60))
def test_truncated_kernel_matches_per_stratum_sum(case, bound):
    field, _ = case
    for chi in char_classes(field):
        assert char_contribution_truncated(field, chi, bound) == per_stratum_sum(field, chi, bound)


@SETTINGS
@given(cases(max_e=50))
def test_contribution_matches_closed_form(case):
    # In mixed characteristic the contribution is the truncated kernel at p*e.
    field, _ = case
    for chi in char_classes(field):
        assert char_contribution(field, chi) == char_contribution_closed(field, chi)
