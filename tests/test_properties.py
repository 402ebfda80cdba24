"""Property tests over random fields: the level walk and the per-class sums
against the independent paths they must agree with."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from localmass.mass import (
    char_contribution,
    char_contribution_closed,
    char_contribution_truncated,
    count_table,
    group_order_contribution,
    mass_from_counts,
    per_character_contributions,
    subfield_contribution,
)
from localmass.model import (
    INFINITE_E,
    LocalField,
    char_classes,
    char_is_trivial,
    cyclotomic_valuation,
    enumerate_characters,
    level_walk,
    omega_is_trivial,
    stratum_slot,
    truncation_bound,
)
from localmass.oracle import eigenspace_blocks


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
    expected = [(chi, char_contribution(field, chi)) for chi in enumerate_characters(field)]
    assert per_character_contributions(field) == expected


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
    assert sum(group_order_contribution(field, n) for n in divisors) == field.p


@SETTINGS
@given(cases(), st.data())
def test_subfield_slices_match_per_character_sums(case, data):
    field, _ = case
    m = field.p - 1
    gens = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3))
    # The subgroup by a scan of every coefficient vector, not a closure.
    subgroup = {(0, 0)}
    for k in itertools.product(range(m), repeat=len(gens)):
        subgroup.add(tuple(sum(c * g[i] for c, g in zip(k, gens)) % m for i in (0, 1)))
    om = field.omega
    expected = sum(
        (
            char_contribution(field, chi)
            for chi in enumerate_characters(field)
            if ((om[0] - chi.coords[0]) % m, (om[1] - chi.coords[1]) % m) in subgroup
        ),
        Fraction(0),
    )
    assert subfield_contribution(field, gens) == expected


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
    if not field.equal_char and char_is_trivial(field, chi) and p * field.e <= max_level:
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
