"""Permutation verifications: normalizer, solvability criterion, index-p counts."""

import itertools
import math
import random
import re
import tracemalloc
from functools import cache

import pytest

from localmass import permgroup
from localmass.permgroup import (
    INDEX_SEARCH_LIMIT,
    SEEDS_7,
    _conjugates,
    _double_coset,
    _is_p_cycle,
    _subgroups,
    _sylow_subgroup,
    affine_perm,
    closure,
    derived_subgroup,
    extend,
    is_solvable,
    normalizer_of_cycle,
    pcycle,
    pidentity,
    pinv,
    pmul,
    subgroup_closure,
    subgroups_of_order,
    transitive_family,
    verify_galois_criterion,
    verify_index_p_subgroups,
    verify_normalizer,
)
from localmass.stabchain import StabChain
from reference import generating_set


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
    rec = subgroup_closure([pidentity(4)])
    assert rec.order == 1 and not rec.transitive and rec.solvable
    with pytest.raises(ValueError, match="empty generating set"):
        subgroup_closure([])
    with pytest.raises(ValueError, match="scale exceeded"):
        subgroup_closure([pcycle(11)])


@pytest.mark.parametrize(
    "gens,bad", [([(0, 0, 1)], "(0, 0, 1)"), ([pcycle(5), (1, 0, 2)], "(1, 0, 2)")], ids=["repeat", "short"]
)
def test_subgroup_closure_rejects_what_is_not_a_permutation(gens, bad):
    with pytest.raises(ValueError, match=f"generator {re.escape(bad)} is not a permutation"):
        subgroup_closure(gens)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_normalizer_of_cycle_is_the_affine_group_with_its_multipliers(p):
    # x -> a*x + b conjugates the p-cycle x -> x + 1 to x -> x + a.
    affine = {tuple((a * x + b) % p for x in range(p)): a for a in range(1, p) for b in range(p)}
    assert normalizer_of_cycle(p) == affine


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_normalizer_of_cycle_equals_the_conjugation_lookup(p):
    # The reference conjugates σ by every permutation and looks the result
    # up among the powers of σ.
    sigma = pcycle(p)
    power_of = {tuple((x + a) % p for x in range(p)): a for a in range(1, p)}
    expected = []
    for g in itertools.permutations(range(p)):
        a = power_of.get(pmul(pmul(g, sigma), pinv(g)))
        if a is not None:
            expected.append((g, a))
    assert list(normalizer_of_cycle(p).items()) == expected


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
    """Every subgroup generated by a pair of elements of the group ``elems``,
    mapped to one such pair."""
    listed = sorted(elems)
    return {_generated((a, b), n): [a, b] for i, a in enumerate(listed) for b in listed[i:]}


def _symmetric(n):
    return frozenset(itertools.permutations(range(n)))


def _trivial(n):
    return frozenset([pidentity(n)])


def _alternating(n):
    def even(g):
        return sum(g[i] > g[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0

    return frozenset(g for g in _symmetric(n) if even(g))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transitive_family_is_every_transitive_pair_closure(p):
    # Every subgroup of S_p, p <= 5, is 2-generated, so the pair closures of
    # S_p are all its subgroups.  Each record must equal the one computed
    # from its own generators, not only from its class representative.
    pairs = _pair_generated(_symmetric(p), p)
    expected = sorted((g for g in pairs if {h[0] for h in g} == set(range(p))), key=sorted)
    records, mode = transitive_family(p)
    assert mode == "full"
    assert [rec.elements for rec in records] == [tuple(sorted(g)) for g in expected]
    assert list(records) == [subgroup_closure(pairs[g]) for g in expected]


@pytest.mark.parametrize(
    "group,n", [(_symmetric(4), 4), (_alternating(5), 5), (_symmetric(5), 5)], ids=["S4", "A5", "S5"]
)
@pytest.mark.parametrize("order", [12, 24])
def test_subgroups_of_order_equal_the_pair_closures_of_that_order(group, n, order):
    expected = {g for g in _pair_generated(group, n) if len(g) == order}
    assert subgroups_of_order(group, order) == expected


def _elementary_abelian_8():
    return closure([(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)], 6)


def test_subgroups_of_order_needs_no_two_element_generating_set():
    # <(0 1), (2 3), (4 5)> is elementary abelian of order 8: no pair of its
    # elements generates it, and it has 7 subgroups of order 4.
    group = _elementary_abelian_8()
    assert subgroups_of_order(group, 8) == {group}
    assert len(subgroups_of_order(group, 4)) == 7


@pytest.mark.parametrize("n", [4, 5])
def test_extend_equals_the_generated_group(n):
    # Every subgroup H of S_n against a sample of permutations g.
    sample = random.Random(n).sample(sorted(_symmetric(n)), 8)
    for group in _pair_generated(_symmetric(n), n):
        gens = generating_set(group, n)
        for g in sample:
            whole = _generated(gens + [g], n)
            assert extend(group, gens, g) == whole
            if len(whole) > len(group):  # a limit below the order stops past it
                for limit in (len(group), len(whole) - 1):
                    partial = extend(group, gens, g, limit)
                    assert limit < len(partial) <= 2 * limit
                    # Made of whole right cosets of the group.
                    assert {pmul(h, x) for h in group for x in partial} == partial


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
        derived, dgens = derived_subgroup(generating_set(group, n))
        expected = _commutators_generated(group, n)
        assert derived.order == len(expected) and set(derived.elements()) == expected
        assert _generated(dgens, n) == expected
        assert 2 ** len(dgens) <= derived.order


def test_is_solvable_agrees_with_the_series_of_commutator_closures():
    for group, n in _derived_cases():
        series = [group]
        while len(series[-1]) > 1 and (nxt := _commutators_generated(series[-1], n)) != series[-1]:
            series.append(nxt)
        assert is_solvable(generating_set(group, n)) == (len(series[-1]) == 1), (n, len(group))


def _chain_cases():
    """Every pair-generated subgroup of S_5, and p = 7's seeded family, each
    with generators and its element set."""
    cases = [(generating_set(group, 5), group, 5) for group in _pair_generated(_symmetric(5), 5)]
    return cases + [(gens, closure(gens, 7), 7) for gens in SEEDS_7]


def test_the_chain_equals_the_closure():
    # Order, membership of every permutation of the degree, and the stream.
    cases = _chain_cases()
    assert len(cases) == 156 + 7
    for gens, group, n in cases:
        chain = StabChain(n, gens)
        assert chain.order == len(group), (n, len(group))
        assert {g for g in itertools.permutations(range(n)) if g in chain} == group
        stream = list(chain.elements())
        assert len(stream) == len(group) and set(stream) == group, (n, len(group))


def test_the_chain_grows_one_permutation_at_a_time():
    # add() reports whether the permutation was outside, and the chain after
    # each is the closure of the permutations so far.
    s5 = sorted(_symmetric(5))
    sample = random.Random(5).sample(s5, 12)
    chain, added = StabChain(5), []
    for g in sample:
        grew = chain.add(g)
        assert grew == (g not in _generated(added, 5))
        added.append(g)
        assert chain.order == len(_generated(added, 5))


def test_is_solvable_agrees_with_the_derived_series_of_every_subgroup_of_s5():
    solvable = {}
    for group in _pair_generated(_symmetric(5), 5):
        series = [group]
        while len(series[-1]) > 1 and (nxt := _commutators_generated(series[-1], 5)) != series[-1]:
            series.append(nxt)
        solvable[group] = len(series[-1]) == 1
        assert is_solvable(generating_set(group, 5)) == solvable[group]
    assert sorted(len(g) for g, ok in solvable.items() if not ok) == [60, 120]


def test_double_coset_equals_every_product_g_b_h():
    # Every subgroup of S_4, with the generators the search found it by,
    # against every permutation b.
    s4 = sorted(_symmetric(4))
    found = _subgroups(s4, _trivial(4), [], 24)
    assert len(found) == 30
    for group, gens in found.items():
        for b in s4:
            expected = {tuple(g[b[h[x]]] for x in range(4)) for g in group for h in group}
            assert _double_coset(group, gens, b) == expected


def _conjugates_by_scan(group, n, conjugators=None):
    """Test-local conjugates: g h g⁻¹, which sends g(x) to g(h(x)), for every
    g in ``conjugators``, by default every permutation of degree n."""
    out = set()
    for g in conjugators or itertools.permutations(range(n)):
        conj = set()
        for h in group:
            image = [0] * n
            for x in range(n):
                image[g[x]] = g[h[x]]
            conj.add(tuple(image))
        out.add(frozenset(conj))
    return out


def _conjugates_cases():
    cases = []
    for p in (2, 3, 5):
        s_p = sorted(_symmetric(p))
        cycle = closure([pcycle(p)], p)
        cases += [(group, p) for group in _subgroups(s_p, cycle, [pcycle(p)], len(s_p))]
    # The p = 7 overgroups of the cycle inside its normalizer: orders 7, 14, 21, 42.
    cases += [(_generated([pcycle(7), affine_perm(7, a)], 7), 7) for a in (1, 6, 2, 3)]
    return cases


def test_conjugates_equal_a_scan_of_the_symmetric_group():
    cases = _conjugates_cases()
    assert sorted(len(g) for g, n in cases if n == 7) == [7, 14, 21, 42]
    for group, n in cases:
        assert _conjugates(group) == _conjugates_by_scan(group, n), (n, len(group))


def _subgroups_from_trivial(group, order):
    """Test-local reference: the exhaustive search started from the trivial
    group."""
    trivial = _trivial(len(next(iter(group))))
    return frozenset(
        sub for sub in _subgroups(sorted(group), trivial, [], order) if len(sub) == order
    )


def test_sylow_start_finds_every_index_p_subgroup_of_the_transitive_records():
    cases = []
    for p in (2, 3, 5, 7):
        records, _ = transitive_family(p)
        cases += [(rec.element_set(), rec.order // p) for rec in records if rec.order <= INDEX_SEARCH_LIMIT]
    assert len(cases) == 27  # 1 + 2 + 20 at p = 2, 3, 5, and 4 at p = 7
    for group, order in cases:
        assert subgroups_of_order(group, order) == _subgroups_from_trivial(group, order), (len(group), order)


@pytest.mark.parametrize(
    "group,order,count",
    [
        (_symmetric(4), 8, 3),
        (_symmetric(4), 12, 1),
        (_alternating(5), 12, 5),
        (_alternating(5), 20, 0),
        (_symmetric(5), 8, 15),
        (_symmetric(5), 12, 15),
        (_symmetric(5), 24, 5),
        (_elementary_abelian_8(), 4, 7),  # no prime's part in 4 is its part in 8
    ],
    ids=["S4-8", "S4-12", "A5-12", "A5-20", "S5-8", "S5-12", "S5-24", "C2^3-4"],
)
def test_sylow_start_equals_the_trivial_start(group, order, count):
    expected = _subgroups_from_trivial(group, order)
    assert len(expected) == count
    assert subgroups_of_order(group, order) == expected


def test_subgroups_of_order_in_s5_makes_few_extensions(monkeypatch):
    # Started from the trivial group the search makes 1 614 extensions here,
    # with the same answer; only this count can tell the two starts apart.
    calls = []
    real = permgroup.extend

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(permgroup, "extend", counted)
    subgroups_of_order.cache_clear()
    assert len(subgroups_of_order(_symmetric(5), 24)) == 5
    assert 0 < len(calls) <= 300


def test_galois_verify_closes_each_start_group_once(monkeypatch):
    # subgroups_of_order hands _subgroups each Sylow start it has grown, with
    # its generators; closing each again from them made 338 closures here.
    calls = []
    real = permgroup.closure

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(permgroup, "closure", counted)
    subgroups_of_order.cache_clear()
    transitive_family.cache_clear()
    for p in (3, 5, 7):  # what galois-verify --p 3, 5 and 7 run
        verify_normalizer(p)
        verify_galois_criterion(p)
        verify_index_p_subgroups(p)
    # 231 when every conjugate was searched and p = 7's three large seeds
    # were closed as element sets.
    assert len(calls) == 128


def test_index_p_subgroups_are_searched_once_per_class():
    # At p = 5 the 12 solvable conjugates of order 10 and 20 lie in 2
    # classes; searching each conjugate missed the cache 12 times here.
    transitive_family(5)
    subgroups_of_order.cache_clear()
    verify_index_p_subgroups(5)
    assert subgroups_of_order.cache_info().misses == 2


def test_is_solvable_holds_one_derived_group_at_a_time():
    # The derived series of S_7 is A_7, A_7: holding the first A_7 while the
    # second was built peaked at 1.03 MB traced; dropped first, 0.51 to 0.66
    # MB; as chains, which list no element, 0.013 MB.
    tracemalloc.start()
    try:
        assert not is_solvable([pcycle(7), (1, 0, 2, 3, 4, 5, 6)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1e6, peak


def test_the_seeded_family_decides_solvability_before_each_closure():
    # The derived series of S_7 ran beside S_7 and held two copies of A_7, a
    # 2.13 MB peak; decided before each closure, 1.40 MB, of which the
    # records kept 0.91 MB.  With no element set past INDEX_SEARCH_LIMIT
    # built or kept, 0.25 MB, 0.22 MB of it the records.
    transitive_family.cache_clear()
    tracemalloc.start()
    try:
        transitive_family(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        transitive_family.cache_clear()
    assert peak < 0.5e6, peak


def test_records_past_the_search_limit_hold_no_elements():
    records, _ = transitive_family(7)
    assert [rec.elements is None for rec in records] == [False] * 4 + [True] * 3
    assert [rec.index_p_subgroup_count for rec in records[4:]] == [None] * 3


def test_a_stream_that_miscounts_raises(monkeypatch):
    # The record counts what the chain streams against the chain's order.
    real = StabChain.elements
    monkeypatch.setattr(StabChain, "elements", lambda self: itertools.islice(real(self), 1, None))
    with pytest.raises(AssertionError, match="5039 elements listed for a group of order 5040"):
        subgroup_closure(SEEDS_7[6])


def _order_42():
    return _generated([pcycle(7), affine_perm(7, 3)], 7)


_SYLOW_CASES = [(_symmetric(4), 4), (_alternating(5), 5), (_symmetric(5), 5), (_order_42(), 7)]
_SYLOW_IDS = ["S4", "A5", "S5", "order-42"]


@pytest.mark.parametrize("group,n", _SYLOW_CASES, ids=_SYLOW_IDS)
def test_sylow_subgroups_are_one_orbit_under_the_generators(group, n):
    # Sylow's conjugacy theorem, checked here: the orbit of the grown
    # subgroup is every subgroup of its order.
    movers = generating_set(group, n)
    for q in (2, 3, 5, 7):
        q_part = math.gcd(len(group), q**6)
        if q_part == 1:
            continue
        sylow, gens = _sylow_subgroup(group, q)
        assert len(sylow) == q_part and sylow <= group
        assert closure(gens, n) == sylow
        assert _conjugates(sylow, movers) == _subgroups_from_trivial(group, q_part), q


def test_sylow_subgroup_of_a_set_that_is_no_group_raises():
    # Three elements of S_3 that are no group: the scan ends without a
    # subgroup of order 3 and says so instead of searching on.
    with pytest.raises(AssertionError, match="group of order 3 stopped at order 1, expected 3"):
        _sylow_subgroup(frozenset([(0, 1, 2), (1, 0, 2), (0, 2, 1)]), 3)


@pytest.mark.parametrize("group,n", _SYLOW_CASES, ids=_SYLOW_IDS)
def test_conjugates_under_movers_equal_a_scan_of_the_group(group, n):
    # The orbit under a group's generators is the conjugates by its elements,
    # not by all of S_n: a normal subgroup of the group is its own orbit.
    movers = generating_set(group, n)
    for sub in _subgroups(sorted(group), _trivial(n), [], len(group)):
        assert _conjugates(sub, movers) == _conjugates_by_scan(sub, n, sorted(group)), len(sub)


def test_the_trivial_group_of_degree_1():
    one = frozenset([(0,)])
    assert closure([(0,)], 1) == one
    rec = subgroup_closure([(0,)])
    assert rec.elements == ((0,),) and rec.order == 1 and rec.index_p_subgroup_count == 1
    assert _double_coset(one, [], (0,)) == one


def test_cosets_of_degree_2_equal_the_products():
    swap, ident = (1, 0), (0, 1)
    trivial, whole = frozenset([ident]), frozenset([ident, swap])
    assert extend(trivial, [], swap) == whole == {pmul(swap, swap), swap}
    for group, gens in ((trivial, []), (whole, [swap])):
        for b in whole:
            assert _double_coset(group, gens, b) == {pmul(pmul(g, b), h) for g in group for h in group}
