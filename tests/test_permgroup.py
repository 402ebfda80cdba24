"""Permutation verifications: normalizer, solvability criterion, index-p counts."""

import itertools
import math
import random
from functools import cache

import pytest

from localmass.permgroup import (
    _is_p_cycle,
    affine_perm,
    closure,
    derived_subgroup,
    extend,
    is_solvable,
    pcycle,
    pidentity,
    pinv,
    pmul,
    record_from_elements,
    small_generating_set,
    subgroup_closure,
    subgroups_of_order,
    transitive_family,
    verify_galois_criterion,
    verify_index_p_subgroups,
    verify_normalizer,
)


def test_perm_basics():
    a = (1, 2, 0)
    assert pmul(a, pinv(a)) == pidentity(3)
    assert pmul(a, a) == (2, 0, 1)
    assert pcycle(5) == (1, 2, 3, 4, 0)


@pytest.mark.parametrize("p", [5, 7])
def test_p_cycles_are_the_elements_of_order_p(p):
    ident = pidentity(p)
    for g in itertools.permutations(range(p)):
        power = g
        for _ in range(p - 1):
            power = pmul(power, g)
        assert _is_p_cycle(g) == (g != ident and power == ident), g


def test_subgroup_closure_cycle():
    for p in (3, 5, 7):
        rec = subgroup_closure([pcycle(p)])
        assert rec.order == p
        assert rec.transitive and rec.solvable
        assert rec.sylow_p_count == 1


def test_subgroup_closure_symmetric_5():
    rec = subgroup_closure([pcycle(5), (1, 0, 2, 3, 4)])
    assert rec.order == 120
    assert rec.transitive and not rec.solvable
    assert rec.sylow_p_count == 6
    assert rec.index_p_subgroup_count == 5  # the point stabilizers


def test_subgroup_closure_empty_and_guard():
    rec = subgroup_closure([], degree=4)
    assert rec.order == 1 and not rec.transitive and rec.solvable
    with pytest.raises(ValueError, match="degree required"):
        subgroup_closure([])
    with pytest.raises(ValueError, match="scale exceeded"):
        subgroup_closure([pcycle(11)])


@pytest.mark.parametrize("p,order", [(2, 2), (3, 6), (5, 20), (7, 42)])
def test_normalizer_structure(p, order):
    result = verify_normalizer(p)
    assert result["normalizer_order"] == order == p * (p - 1)
    assert result["split"] and result["complement_order"] == p - 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solvability_criterion_full(p):
    result = verify_galois_criterion(p)
    assert result["criterion_holds"]
    assert result["enumeration"] == "full"
    orders = sorted(g["order"] for g in result["transitive_groups"])
    if p == 3:
        assert orders == [3, 6]
    if p == 5:
        # 6 copies each of the cyclic, dihedral, and Frobenius groups, plus
        # the alternating and symmetric groups.
        assert orders == [5] * 6 + [10] * 6 + [20] * 6 + [60, 120]


def test_solvability_criterion_seeded_7():
    result = verify_galois_criterion(7)
    assert result["criterion_holds"]
    assert result["enumeration"] == "seeded"
    orders = sorted(g["order"] for g in result["transitive_groups"])
    assert orders == [7, 14, 21, 42, 168, 2520, 5040]
    by_order = {g["order"]: g for g in result["transitive_groups"]}
    assert by_order[42]["solvable"] and by_order[42]["sylow_p_count"] == 1
    assert not by_order[168]["solvable"] and by_order[168]["sylow_p_count"] == 8
    assert by_order[5040]["sylow_p_count"] == 120


def test_sylow_counts_p5():
    records, _ = transitive_family(5)
    by_order = {}
    for rec in records:
        by_order.setdefault(rec.order, rec)
    assert by_order[20].solvable and by_order[20].sylow_p_count == 1
    assert not by_order[60].solvable and by_order[60].sylow_p_count == 6
    assert not by_order[120].solvable and by_order[120].sylow_p_count == 6


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_index_p_subgroups(p):
    result = verify_index_p_subgroups(p)
    assert result["holds"]
    for entry in result["groups"]:
        if "skipped" in entry:
            assert entry["order"] == p  # only the commutative case is skipped
        else:
            assert entry["index_p_subgroups"] == p


def test_transitive_orders_divisible_by_p_once():
    for p in (2, 3, 5, 7):
        records, _ = transitive_family(p)
        for rec in records:
            assert rec.order % p == 0 and rec.order % (p * p) != 0


def test_solvable_groups_sit_in_cycle_normalizer():
    # For the family members containing the standard cycle, solvability
    # bounds the order by p(p-1).
    for p in (3, 5, 7):
        records, _ = transitive_family(p)
        std = closure([pcycle(p)], p)
        for rec in records:
            if rec.solvable and std <= rec.element_set():
                assert rec.order <= p * (p - 1)


def _generated(gens, n):
    """Test-local closure: multiply by the generators until nothing is new."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        products = {tuple(g[x] for x in h) for g in gens for h in frontier}
        frontier = [x for x in products if x not in group]
        group.update(frontier)
    return frozenset(group)


@cache
def _pair_generated(elems, n):
    """Every subgroup generated by a pair of elements of the group ``elems``."""
    listed = sorted(elems)
    return frozenset(_generated((a, b), n) for i, a in enumerate(listed) for b in listed[i:])


def _symmetric(n):
    return frozenset(itertools.permutations(range(n)))


def _alternating(n):
    def even(g):
        return sum(g[i] > g[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0

    return frozenset(g for g in _symmetric(n) if even(g))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transitive_family_is_every_transitive_pair_closure(p):
    # Every subgroup of S_p, p <= 5, is 2-generated, so the pair closures of
    # S_p are all its subgroups.  Each record must equal the one computed
    # from its own element set, not only from its class representative.
    expected = sorted(
        (g for g in _pair_generated(_symmetric(p), p) if {h[0] for h in g} == set(range(p))),
        key=sorted,
    )
    records, mode = transitive_family(p)
    assert mode == "full"
    assert [rec.elements for rec in records] == [tuple(sorted(g)) for g in expected]
    assert list(records) == [record_from_elements(g) for g in expected]


@pytest.mark.parametrize(
    "group,n", [(_symmetric(4), 4), (_alternating(5), 5), (_symmetric(5), 5)], ids=["S4", "A5", "S5"]
)
@pytest.mark.parametrize("order", [12, 24])
def test_subgroups_of_order_equal_the_pair_closures_of_that_order(group, n, order):
    expected = {g for g in _pair_generated(group, n) if len(g) == order}
    assert subgroups_of_order(group, order) == expected


def test_subgroups_of_order_needs_no_two_element_generating_set():
    # <(0 1), (2 3), (4 5)> is elementary abelian of order 8: no pair of its
    # elements generates it, and it has 7 subgroups of order 4.
    group = closure([(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)], 6)
    assert subgroups_of_order(group, 8) == {group}
    assert len(subgroups_of_order(group, 4)) == 7


def _gens(group, n):
    return small_generating_set(group) or [tuple(range(n))]


@pytest.mark.parametrize("n", [4, 5])
def test_extend_equals_the_generated_group(n):
    # Every subgroup H of S_n against a sample of permutations g.
    sample = random.Random(n).sample(sorted(_symmetric(n)), 8)
    for group in _pair_generated(_symmetric(n), n):
        gens = _gens(group, n)
        for g in sample:
            whole = _generated(gens + [g], n)
            assert extend(group, gens, g) == whole
            if len(whole) > len(group):  # a limit below the order stops past it
                for limit in (len(group), len(whole) - 1):
                    partial = extend(group, gens, g, limit)
                    assert limit < len(partial) <= 2 * limit
                    # Made of whole right cosets of the group.
                    assert {pmul(h, x) for h in group for x in partial} == partial


@pytest.mark.parametrize("n", [4, 5])
def test_closure_stops_once_past_its_limit(n):
    gens = [pcycle(n), (1, 0) + tuple(range(2, n))]
    assert closure(gens, n) == _symmetric(n)
    for limit in range(1, math.factorial(n)):
        assert limit < len(closure(gens, n, limit=limit)) <= 2 * limit


def _commutators_generated(group, n):
    """Test-local derived subgroup: the closure of every commutator."""

    def inverse(g):
        return tuple(sorted(range(n), key=g.__getitem__))

    def mul(a, b):
        return tuple(a[x] for x in b)

    return _generated({mul(mul(a, b), mul(inverse(a), inverse(b))) for a in group for b in group}, n)


def _derived_cases():
    cases = [(group, 4) for group in _pair_generated(_symmetric(4), 4)]
    frobenius = _generated([pcycle(5), affine_perm(5, 2)], 5)
    return cases + [(_alternating(5), 5), (_symmetric(5), 5), (frobenius, 5)]


def test_derived_subgroup_is_the_closure_of_all_commutators():
    for group, n in _derived_cases():
        derived, dgens = derived_subgroup(_gens(group, n))
        assert derived == _commutators_generated(group, n)
        assert _generated(dgens, n) == derived
        assert 2 ** len(dgens) <= len(derived)


def test_is_solvable_agrees_with_the_derived_series_of_every_subgroup_of_s5():
    solvable = {}
    for group in _pair_generated(_symmetric(5), 5):
        series = [group]
        while len(series[-1]) > 1 and (nxt := _commutators_generated(series[-1], 5)) != series[-1]:
            series.append(nxt)
        solvable[group] = len(series[-1]) == 1
        assert is_solvable(_gens(group, 5)) == solvable[group]
    assert sorted(len(g) for g, ok in solvable.items() if not ok) == [60, 120]
